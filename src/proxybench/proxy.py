"""Proxy construction: turn a reduction recipe into concrete example ids.

A proxy is a cheaper stand-in for the full training task: a subset of the
training examples, a subset of the classes, a difficulty slice, or the full
data for fewer epochs. What a proxy run costs relative to the full run is
measured from the run records (metrics), not stored here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import check_fields, int64_ids, read_json, write_json
from ._exact import exact_ceil
from .dataset import Dataset
from .difficulty import DifficultyTable, quantile_slice

__all__ = [
    "FULL_PROXY_ID",
    "KIND_FIELDS",
    "ProxySpec",
    "ProxyManifest",
    "build_proxy",
    "save_manifest",
    "load_manifest",
]

FULL_PROXY_ID = "full"  # the full-data run, the target every proxy is scored against
# kind -> the optional ProxySpec fields it takes
KIND_FIELDS = {
    "full": (),
    "random_all": ("fraction",),
    "half_classes": ("fraction", "class_set"),
    "quantile": ("lo", "hi"),
    "fewer_epochs": ("epochs",),
}

_STREAM_SAMPLE = 21
_STREAM_CLASS_PICK = 22


@dataclass(frozen=True)
class ProxySpec:
    """A proxy recipe: ProxySpec(kind=..., ...), setting only the fields
    KIND_FIELDS[kind] lists; the others stay None.

    fraction: random_all (required) and half_classes (None keeps all the
    examples of the kept classes), in (0, 1].
    class_set: half_classes; stored sorted and deduplicated; None means pick
    ceil(K/2) classes by seed.
    lo/hi: quantile bounds on the hardest(0) to easiest(1) axis.
    epochs: fewer_epochs budget, must be below the target budget.
    seed: drives any sampling the kind performs.
    """

    kind: str
    fraction: float | None = None
    class_set: tuple[int, ...] | None = None
    lo: float | None = None
    hi: float | None = None
    epochs: int | None = None
    seed: int = 0

    def __post_init__(self):
        check_fields(ProxySpec, self)
        if self.kind not in KIND_FIELDS:
            raise ValueError(f"kind must be one of {tuple(KIND_FIELDS)}, got {self.kind!r}")
        for name in ("fraction", "class_set", "lo", "hi", "epochs"):
            if getattr(self, name) is not None and name not in KIND_FIELDS[self.kind]:
                raise ValueError(f"{self.kind} proxy does not take {name}")
        if self.kind in ("random_all", "half_classes"):
            f = self.fraction
            if f is None and self.kind == "random_all":
                raise ValueError("random_all requires a fraction")
            if f is not None and not (0.0 < f <= 1.0):
                raise ValueError(f"fraction must be in (0, 1], got {f}")
        if self.kind == "quantile":
            if self.lo is None or self.hi is None:
                raise ValueError("quantile requires lo and hi")
            if not (0.0 <= self.lo < self.hi <= 1.0):
                raise ValueError(f"need 0 <= lo < hi <= 1, got lo={self.lo}, hi={self.hi}")
        if self.kind == "fewer_epochs":
            if self.epochs is None or self.epochs < 1:
                raise ValueError("fewer_epochs requires a positive epoch count")
        if self.class_set is not None:
            cs = tuple(sorted(set(self.class_set)))
            if not cs:
                raise ValueError("class_set must be non-empty when given")
            object.__setattr__(self, "class_set", cs)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def proxy_id(self) -> str:
        """Human-readable identity; quantile slices use hard-lo-hi notation."""
        if self.kind == "full":
            return FULL_PROXY_ID
        if self.kind == "random_all":
            return f"random-{float(self.fraction)}-s{self.seed}"
        if self.kind == "half_classes":
            cls_part = (
                "+".join(str(c) for c in self.class_set)
                if self.class_set is not None
                else f"pick-s{self.seed}"
            )
            f = self.fraction if self.fraction is not None else 1.0
            pid = f"half-{cls_part}-f{float(f)}"
            if f < 1.0:
                pid += f"-s{self.seed}"
            return pid
        if self.kind == "quantile":
            return f"hard-{float(self.lo)}-{float(self.hi)}"
        return f"ep{self.epochs}"


@dataclass(frozen=True, eq=False)
class ProxyManifest:
    """A resolved proxy: the example ids to train and validate on, as sorted
    read-only int64 arrays, plus the epochs (at least 1) to train them."""

    proxy_id: str
    spec: ProxySpec
    train_ids: np.ndarray
    val_ids: np.ndarray
    epochs: int

    def __post_init__(self):
        check_fields(ProxyManifest, self)
        if self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs!r}")
        if len(self.train_ids) == 0:
            raise ValueError(f"proxy {self.proxy_id!r} resolved to 0 training examples")
        if len(self.val_ids) == 0:
            raise ValueError(f"proxy {self.proxy_id!r} resolved to 0 validation examples")
        self.train_ids.setflags(write=False)
        self.val_ids.setflags(write=False)


def _sample(ids: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """ceil(fraction * len(ids)) of the sorted ids, drawn uniformly without
    replacement and returned sorted; the ids themselves when that is all of them."""
    n_keep = exact_ceil(fraction, len(ids))
    if n_keep == len(ids):
        return ids
    rng = np.random.default_rng([seed, _STREAM_SAMPLE])
    return np.sort(rng.choice(ids, size=n_keep, replace=False))


def build_proxy(
    train: Dataset,
    val: Dataset,
    spec: ProxySpec,
    table: DifficultyTable | None = None,
    target_epochs: int = 20,
) -> ProxyManifest:
    """Resolve a ProxySpec against a train/val split.

    full: everything, target epochs. random_all: ceil(fraction*N) train ids
    sampled uniformly without replacement. half_classes: the train and val
    ids whose label is in the class set, then the fraction of those train ids.
    quantile: difficulty-slice ids (table required), val untouched.
    fewer_epochs: everything, reduced epochs. All sampling is deterministic
    given spec.seed, and ids are stored in ascending order.

    A table, whatever the kind, must have scored the bytes train was loaded
    from (its dataset_sha256); a quantile table must score exactly the
    training ids.
    """
    if table is not None and table.dataset_sha256 != train.source_sha256:
        if table.dataset_sha256 is None:
            raise ValueError("difficulty table records no dataset digest; re-run score")
        raise ValueError(
            f"difficulty table is for dataset sha256 {table.dataset_sha256}, "
            f"not {train.source_sha256} of the training set"
        )
    train_ids, val_ids, epochs = np.sort(train.ids), np.sort(val.ids), target_epochs

    if spec.kind == "random_all":
        train_ids = _sample(train_ids, spec.fraction, spec.seed)
    elif spec.kind == "half_classes":
        class_set = spec.class_set
        if class_set is None:
            rng = np.random.default_rng([spec.seed, _STREAM_CLASS_PICK])
            k = math.ceil(train.class_count / 2)
            class_set = tuple(sorted(rng.choice(train.class_count, size=k, replace=False).tolist()))
        unknown = [c for c in class_set if not 0 <= c < train.class_count]
        if unknown:
            raise ValueError(f"unknown class ids {unknown} for class_count {train.class_count}")
        train_ids = np.sort(train.ids[np.isin(train.labels, class_set)])
        val_ids = np.sort(val.ids[np.isin(val.labels, class_set)])
        if len(train_ids) == 0 or len(val_ids) == 0:
            raise ValueError(f"class set {class_set} leaves an empty split")
        train_ids = _sample(train_ids, spec.fraction if spec.fraction is not None else 1.0, spec.seed)
    elif spec.kind == "quantile":
        if table is None:
            raise ValueError("quantile proxy requires a difficulty table")
        # Ranks are quantiles of the whole training set only if every training id is scored.
        unscored, unknown = np.setdiff1d(train.ids, table.ids), np.setdiff1d(table.ids, train.ids)
        if unscored.size or unknown.size:
            raise ValueError(
                f"difficulty table must score exactly the training ids: "
                f"{unscored.size} unscored, {unknown.size} not in the training set"
            )
        train_ids = np.sort(quantile_slice(table, spec.lo, spec.hi))
        if train_ids.size == 0:
            raise ValueError(f"quantile ({spec.lo}, {spec.hi}) yields 0 examples")
    elif spec.kind == "fewer_epochs":
        if spec.epochs >= target_epochs:
            raise ValueError(f"fewer_epochs budget {spec.epochs} must be below target {target_epochs}")
        epochs = spec.epochs

    return ProxyManifest(spec.proxy_id(), spec, train_ids, val_ids, epochs)


def save_manifest(manifest: ProxyManifest, path: str | Path) -> None:
    spec = manifest.spec
    params = {name: getattr(spec, name) for name in KIND_FIELDS[spec.kind] if getattr(spec, name) is not None}
    payload = {
        "proxy_id": manifest.proxy_id,
        "kind": spec.kind,
        "params": params,
        "seed": spec.seed,
        "train_ids": manifest.train_ids.tolist(),
        "val_ids": manifest.val_ids.tolist(),
        "epochs": manifest.epochs,
    }
    write_json(path, payload)


def _manifest_ids(payload: dict, field: str) -> np.ndarray:
    """payload[field], a list of distinct int64 JSON integers, as a sorted int64 array."""
    values = payload[field]
    ids = np.unique(int64_ids(field, values))
    if len(ids) != len(values):
        raise ValueError(f"{field} lists an example id more than once")
    return ids


def _manifest(payload: dict) -> ProxyManifest:
    """The manifest in payload, refused unless its proxy id and a fewer_epochs budget are its spec's."""
    epochs = payload["epochs"]
    spec = ProxySpec(kind=payload["kind"], seed=payload["seed"], **payload["params"])
    manifest = ProxyManifest(
        proxy_id=payload["proxy_id"],
        spec=spec,
        train_ids=_manifest_ids(payload, "train_ids"),
        val_ids=_manifest_ids(payload, "val_ids"),
        epochs=epochs,
    )
    if manifest.proxy_id != spec.proxy_id():
        raise ValueError(f"proxy_id {manifest.proxy_id!r} is not {spec.proxy_id()!r}, the id of its spec")
    if spec.kind == "fewer_epochs" and manifest.epochs != spec.epochs:
        raise ValueError(f"epochs {manifest.epochs} is not {spec.epochs}, the budget of its fewer_epochs spec")
    return manifest


def load_manifest(path: str | Path) -> ProxyManifest:
    """The manifest save_manifest wrote at path; an error in it starts with the path (read_json)."""
    return read_json(path, _manifest)
