"""Proxy construction: turn a reduction recipe into concrete example ids.

A proxy is a cheaper stand-in for the full training task: a subset of the
training examples, a subset of the classes, a difficulty slice, or the full
data for fewer epochs. Its relative cost is measured in example-epochs as a
fraction of the full run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from ._exact import exact_ceil
from .dataset import Dataset, class_filter
from .difficulty import DifficultyTable, quantile_slice

__all__ = [
    "FULL_PROXY_ID",
    "KIND_FIELDS",
    "ProxySpec",
    "ProxyManifest",
    "build_proxy",
    "relative_cost",
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
    """A proxy recipe. Use the classmethod constructors; only the fields
    relevant to `kind` may be set.

    fraction: random_all and half_classes, in (0, 1].
    class_set: half_classes; None means pick ceil(K/2) classes by seed.
    lo/hi: quantile bounds on the hardest(0) to easiest(1) axis.
    epochs: fewer_epochs budget, must be below the target budget.
    seed: drives any sampling the kind performs.
    """

    kind: str
    fraction: float | None = None
    class_set: tuple | None = None
    lo: float | None = None
    hi: float | None = None
    epochs: int | None = None
    seed: int = 0

    def __post_init__(self):
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
            cs = tuple(sorted(set(int(c) for c in self.class_set)))
            if not cs:
                raise ValueError("class_set must be non-empty when given")
            object.__setattr__(self, "class_set", cs)
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def full(cls) -> "ProxySpec":
        return cls(kind="full")

    @classmethod
    def random_all(cls, fraction: float, seed: int = 0) -> "ProxySpec":
        return cls(kind="random_all", fraction=fraction, seed=seed)

    @classmethod
    def half_classes(cls, class_set=None, fraction: float = 1.0, seed: int = 0) -> "ProxySpec":
        return cls(
            kind="half_classes",
            class_set=tuple(class_set) if class_set is not None else None,
            fraction=fraction,
            seed=seed,
        )

    @classmethod
    def quantile(cls, lo: float, hi: float) -> "ProxySpec":
        return cls(kind="quantile", lo=lo, hi=hi)

    @classmethod
    def fewer_epochs(cls, epochs: int) -> "ProxySpec":
        return cls(kind="fewer_epochs", epochs=epochs)

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


@dataclass(frozen=True)
class ProxyManifest:
    """A resolved proxy: concrete example ids plus cost accounting."""

    proxy_id: str
    spec: ProxySpec
    train_ids: tuple
    val_ids: tuple
    epochs: int
    relative_cost: float

    def __post_init__(self):
        if len(self.train_ids) == 0:
            raise ValueError(f"proxy {self.proxy_id!r} resolved to 0 training examples")
        if len(self.val_ids) == 0:
            raise ValueError(f"proxy {self.proxy_id!r} resolved to 0 validation examples")
        if not (0.0 < self.relative_cost <= 1.0):
            raise ValueError(f"relative_cost must be in (0, 1], got {self.relative_cost}")


def relative_cost(train_size: int, epochs: int, full_train_size: int, target_epochs: int) -> float:
    """Example-epoch cost of a proxy run relative to the full run."""
    if min(train_size, epochs, full_train_size, target_epochs) < 1:
        raise ValueError("sizes and epoch counts must be positive")
    return (train_size * epochs) / (full_train_size * target_epochs)


def _pick_half_classes(class_count: int, seed: int) -> tuple:
    rng = np.random.default_rng([seed, _STREAM_CLASS_PICK])
    k = math.ceil(class_count / 2)
    picked = rng.choice(class_count, size=k, replace=False)
    return tuple(sorted(int(c) for c in picked))


def build_proxy(
    train: Dataset,
    val: Dataset,
    spec: ProxySpec,
    table: DifficultyTable | None = None,
    target_epochs: int = 20,
) -> ProxyManifest:
    """Resolve a ProxySpec against a train/val split.

    full: everything, target epochs. random_all: ceil(fraction*N) train ids
    sampled uniformly without replacement. half_classes: filter train and
    val to the class set, then sample the fraction of remaining train ids.
    quantile: difficulty-slice ids (table required), val untouched.
    fewer_epochs: everything, reduced epochs. All sampling is deterministic
    given spec.seed, and id lists are stored in ascending order.
    """
    if target_epochs < 1:
        raise ValueError("target_epochs must be >= 1")
    all_train = sorted(int(i) for i in train.ids)
    all_val = sorted(int(i) for i in val.ids)
    epochs = target_epochs

    if spec.kind == "full":
        train_ids = all_train
        val_ids = all_val
    elif spec.kind == "random_all":
        n_keep = exact_ceil(spec.fraction, len(all_train))
        if n_keep == 0:
            raise ValueError(f"fraction {spec.fraction} yields 0 examples")
        rng = np.random.default_rng([spec.seed, _STREAM_SAMPLE])
        picked = rng.choice(np.asarray(all_train), size=n_keep, replace=False)
        train_ids = sorted(int(i) for i in picked)
        val_ids = all_val
    elif spec.kind == "half_classes":
        class_set = spec.class_set
        if class_set is None:
            class_set = _pick_half_classes(train.class_count, spec.seed)
        kept_train = class_filter(train, class_set)
        kept_val = class_filter(val, class_set)
        if len(kept_train) == 0 or len(kept_val) == 0:
            raise ValueError(f"class set {class_set} leaves an empty split")
        pool = sorted(int(i) for i in kept_train.ids)
        fraction = spec.fraction if spec.fraction is not None else 1.0
        n_keep = exact_ceil(fraction, len(pool))
        if n_keep == 0:
            raise ValueError(f"fraction {fraction} yields 0 examples")
        if n_keep == len(pool):
            train_ids = pool
        else:
            rng = np.random.default_rng([spec.seed, _STREAM_SAMPLE])
            picked = rng.choice(np.asarray(pool), size=n_keep, replace=False)
            train_ids = sorted(int(i) for i in picked)
        val_ids = sorted(int(i) for i in kept_val.ids)
    elif spec.kind == "quantile":
        if table is None:
            raise ValueError("quantile proxy requires a difficulty table")
        # Ranks are quantiles of the whole training set only if every training id is scored.
        scored, known = {ex_id for ex_id, _ in table.entries}, train.id_set()
        if scored != known:
            raise ValueError(
                f"difficulty table must score exactly the training ids: "
                f"{len(known - scored)} unscored, {len(scored - known)} not in the training set"
            )
        ids = quantile_slice(table, spec.lo, spec.hi)
        if not ids:
            raise ValueError(f"quantile ({spec.lo}, {spec.hi}) yields 0 examples")
        train_ids = sorted(ids)
        val_ids = all_val
    else:  # fewer_epochs
        if spec.epochs >= target_epochs:
            raise ValueError(
                f"fewer_epochs budget {spec.epochs} must be below target {target_epochs}"
            )
        train_ids = all_train
        val_ids = all_val
        epochs = spec.epochs

    cost = relative_cost(len(train_ids), epochs, len(all_train), target_epochs)
    return ProxyManifest(
        proxy_id=spec.proxy_id(),
        spec=spec,
        train_ids=tuple(train_ids),
        val_ids=tuple(val_ids),
        epochs=epochs,
        relative_cost=cost,
    )


def save_manifest(manifest: ProxyManifest, path: str | Path) -> None:
    spec = manifest.spec
    params = {}
    for name in ("fraction", "lo", "hi", "epochs"):
        v = getattr(spec, name)
        if v is not None:
            params[name] = v
    if spec.class_set is not None:
        params["class_set"] = list(spec.class_set)
    payload = {
        "proxy_id": manifest.proxy_id,
        "kind": spec.kind,
        "params": params,
        "seed": spec.seed,
        "train_ids": list(manifest.train_ids),
        "val_ids": list(manifest.val_ids),
        "epochs": manifest.epochs,
        "relative_cost": manifest.relative_cost,
    }
    write_atomic(path, json.dumps(payload, indent=2) + "\n")


def load_manifest(path: str | Path) -> ProxyManifest:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"proxy manifest not found: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    params = dict(payload["params"])
    if "class_set" in params:
        params["class_set"] = tuple(params["class_set"])
    spec = ProxySpec(kind=payload["kind"], seed=payload["seed"], **params)
    return ProxyManifest(
        proxy_id=payload["proxy_id"],
        spec=spec,
        train_ids=tuple(payload["train_ids"]),
        val_ids=tuple(payload["val_ids"]),
        epochs=payload["epochs"],
        relative_cost=payload["relative_cost"],
    )
