"""Labeled datasets: CSV loading, synthetic generation, splitting, filtering.

Feature vectors are float64 throughout, labels are non-negative class ids.
A Dataset is immutable once constructed, and every derived dataset (split,
filter, subset) preserves the original example ids, so rows stay traceable
across the whole pipeline.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic

__all__ = [
    "Dataset",
    "SynthSpec",
    "load_csv",
    "synth_generate",
    "split",
    "class_filter",
    "subset_by_ids",
]

# Sub-stream tags so each randomized stage draws from an independent generator.
_STREAM_MEANS = 1
_STREAM_NOISE = 2
_STREAM_FLIPS = 3
_STREAM_SPLIT = 4

# Bump when load_csv would parse the same bytes differently: older sidecars
# then miss and are replaced.
_PARSER_VERSION = 1
_SIDECAR_KEYS = {"sha256", "parser_version", "features", "labels"}


class Dataset:
    """Ordered, immutable examples held as three aligned read-only arrays.

    features is a C-contiguous (n, feature_dim) float64 copy, labels and ids
    are (n,) int64. class_count and feature_dim are properties of the
    label/feature space, not of the examples present: filtering away classes
    does not shrink class_count, so models keep the same output head across
    subsets. source_sha256 is the sha256 of the CSV the examples were loaded
    from (None when they were not), kept by every subset.
    """

    def __init__(self, features, labels, ids, class_count: int, feature_dim: int, id: str = "dataset",
                 source_sha256: str | None = None):
        if class_count < 1:
            raise ValueError(f"class_count must be >= 1, got {class_count}")
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        ids = np.array(ids, dtype=np.int64)
        labels = np.array(labels, dtype=np.int64)
        feats = np.array(features, dtype=np.float64, order="C")
        if ids.ndim != 1 or labels.shape != ids.shape or feats.ndim != 2 or len(feats) != len(ids):
            raise ValueError(
                f"need (n,) ids and labels and (n, feature_dim) features, "
                f"got shapes {ids.shape}, {labels.shape}, {feats.shape}"
            )
        if feats.shape[1] != feature_dim:
            raise ValueError(f"feature length {feats.shape[1]} != {feature_dim}")
        if (ids < 0).any():
            raise ValueError(f"example id must be >= 0, got {ids.min()}")
        bad_label = (labels < 0) | (labels >= class_count)
        if bad_label.any():
            i = np.argmax(bad_label)
            raise ValueError(f"example {ids[i]}: label {labels[i]} outside [0, {class_count})")
        if not np.isfinite(feats).all():
            row = np.argmin(np.isfinite(feats).all(axis=1))
            raise ValueError(f"example {ids[row]}: non-finite feature value")
        sorted_ids = np.sort(ids)
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            raise ValueError("example ids are not unique")

        for a in (feats, labels, ids):
            a.setflags(write=False)
        self.features, self.labels, self.ids = feats, labels, ids
        self.class_count = int(class_count)
        self.feature_dim = int(feature_dim)
        self.id = str(id)
        self.source_sha256 = source_sha256

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return (
            f"Dataset(id={self.id!r}, n={len(self)}, "
            f"classes={self.class_count}, dim={self.feature_dim})"
        )

    def id_set(self) -> set[int]:
        return set(self.ids.tolist())

    def _take(self, mask: np.ndarray) -> "Dataset":
        """The examples where mask is true, in source order; self itself when that is all of them."""
        if mask.all():
            return self
        return Dataset(self.features[mask], self.labels[mask], self.ids[mask], self.class_count, self.feature_dim,
                       self.id, self.source_sha256)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a deterministic gaussian-blob classification dataset.

    Each class mean sits on a sphere of radius class_separation; every
    example gets its own noise scale drawn uniformly from
    [noise_scale_lo, noise_scale_hi], which spreads examples across a
    difficulty spectrum. A label_flip_fraction of examples receive a
    uniformly-random wrong label to emulate mislabeled data.
    """

    class_count: int
    feature_dim: int
    examples_per_class: int
    class_separation: float
    noise_scale_lo: float
    noise_scale_hi: float
    label_flip_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.examples_per_class < 1:
            raise ValueError("examples_per_class must be >= 1")
        if self.class_separation <= 0:
            raise ValueError("class_separation must be > 0")
        if self.noise_scale_lo < 0 or self.noise_scale_hi < self.noise_scale_lo:
            raise ValueError("need 0 <= noise_scale_lo <= noise_scale_hi")
        if not (0 <= self.label_flip_fraction < 1):
            raise ValueError("label_flip_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _data_rows(fh):
    """The lines of fh that hold more than commas and whitespace, less a header."""
    rows = (line for line in fh if line.strip(" \t\r\n\f\v,"))
    first = next(rows, "")
    try:
        float(first.partition(",")[0])
    except ValueError:
        pass  # a header row, or no rows at all
    else:
        yield first
    yield from rows


def load_csv(path: str | Path, id: str | None = None) -> Dataset:
    """Load a dataset from CSV rows of the form ``label,f0,f1,...``.

    A header row is allowed and detected by a non-numeric first cell; lines
    holding only commas and whitespace are skipped, and cells are unquoted.
    Labels must be non-negative integer literals; class_count is 1 + max
    label. The features are parsed by numpy in one pass, which reads the
    same float bits as float() but rejects underscores and non-ASCII digits.
    Example ids are assigned by data-row order starting at 0.

    The parse is cached beside the file in ``<name>.csv.npz``, keyed by the
    file's sha256 (also the dataset's source_sha256) and _PARSER_VERSION: a
    load of bytes already parsed reads the arrays back, bitwise the parse. A
    missing, stale or malformed sidecar is a miss, which parses and rewrites
    it; a sidecar that cannot be written is skipped.

    Raises FileNotFoundError for a missing file and ValueError naming the
    offending data row (1-based) for ragged rows, non-integer labels, or
    non-numeric or non-finite features.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    sidecar = path.with_name(path.name + ".npz")

    with open(path, "rb") as raw:  # hash and parse the bytes of one open file
        h = hashlib.sha256()
        while chunk := raw.read(1 << 20):
            h.update(chunk)
        digest = h.hexdigest()
        parsed = _read_sidecar(sidecar, digest)
        if parsed is None:
            raw.seek(0)
            with io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
                parsed = _parse_csv(fh, path)
            _write_sidecar(sidecar, digest, *parsed)
    feats, labels = parsed
    return Dataset(feats, labels, np.arange(len(labels)), 1 + labels.max(), feats.shape[1],
                   id=id or path.stem, source_sha256=digest)


def _parse_csv(fh, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of the CSV text in fh; path names the file in errors."""
    labels = []
    for n, line in enumerate(_data_rows(fh), start=1):
        if n == 1:
            feature_dim = line.count(",")
            if feature_dim < 1:
                raise ValueError(f"{path}: row 1: expected a label and at least one feature")
        if line.count(",") != feature_dim:
            raise ValueError(f"{path}: row {n}: has {line.count(',')} features, expected {feature_dim}")
        cell = line.partition(",")[0]
        try:
            labels.append(int(cell))
        except ValueError:
            raise ValueError(f"{path}: row {n}: non-integer label {cell!r}") from None
    if not labels:
        raise ValueError(f"{path}: no rows")
    labels = np.array(labels, dtype=np.int64)
    if (labels < 0).any():
        n = int(np.argmax(labels < 0)) + 1
        raise ValueError(f"{path}: row {n}: negative label {labels[n - 1]}")

    columns = range(1, feature_dim + 1)
    fh.seek(0)
    try:
        feats = np.loadtxt(_data_rows(fh), delimiter=",", usecols=columns, ndmin=2, comments=None)
    except ValueError:
        fh.seek(0)
        for n, line in enumerate(_data_rows(fh), start=1):  # locate the row with the same parser
            try:
                np.loadtxt([line], delimiter=",", usecols=columns, comments=None)
            except ValueError:
                raise ValueError(f"{path}: row {n}: non-numeric feature") from None
        raise
    finite = np.isfinite(feats).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: row {np.argmin(finite) + 1}: non-finite feature")
    return feats, labels


def _read_sidecar(sidecar: Path, digest: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, labels) from a sidecar keyed to digest and _PARSER_VERSION, None on a miss."""
    try:
        # np.load is handed an open file: on a truncated zip it would leak one it opened itself
        with open(sidecar, "rb") as fh:
            z = np.load(fh, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                return None
            with z:
                if set(z.files) != _SIDECAR_KEYS:
                    return None
                key, version, feats, labels = (z[k] for k in ("sha256", "parser_version", "features", "labels"))
    except Exception:  # the sidecar is only a cache: whatever np.load or zipfile raise, parse instead
        return None
    if not (
        key.shape == () and key.dtype.kind == "U" and str(key) == digest
        and version.shape == () and version.dtype.kind == "i" and int(version) == _PARSER_VERSION
        and feats.dtype == np.float64 and feats.ndim == 2 and feats.shape[0] >= 1 and feats.shape[1] >= 1
        and labels.dtype == np.int64 and labels.shape == feats.shape[:1] and labels.min() >= 0
    ):
        return None
    return feats, labels


def _write_sidecar(sidecar: Path, digest: str, feats: np.ndarray, labels: np.ndarray) -> None:
    buf = io.BytesIO()
    np.savez(buf, sha256=np.array(digest), parser_version=np.array(_PARSER_VERSION), features=feats, labels=labels)
    try:
        write_atomic(sidecar, buf.getvalue())
    except OSError:
        pass  # a read-only directory or a full disk: the next load parses again


def _class_means(spec: SynthSpec) -> np.ndarray:
    """Per-class means, each a deterministic function of (seed, class)."""
    means = np.zeros((spec.class_count, spec.feature_dim))
    for c in range(spec.class_count):
        g = np.random.default_rng([spec.seed, _STREAM_MEANS, c])
        v = g.standard_normal(spec.feature_dim)
        norm = np.linalg.norm(v)
        if norm == 0.0:  # astronomically unlikely; keep determinism anyway
            v[0] = 1.0
            norm = 1.0
        means[c] = spec.class_separation * v / norm
    return means


def synth_generate(spec: SynthSpec) -> Dataset:
    """Generate a synthetic dataset, fully deterministic given spec.seed."""
    n_total = spec.class_count * spec.examples_per_class
    means = _class_means(spec)

    labels = np.repeat(np.arange(spec.class_count), spec.examples_per_class)
    g_noise = np.random.default_rng([spec.seed, _STREAM_NOISE])
    sigmas = g_noise.uniform(spec.noise_scale_lo, spec.noise_scale_hi, size=n_total)
    noise = g_noise.standard_normal((n_total, spec.feature_dim))
    feats = means[labels] + sigmas[:, None] * noise

    if spec.label_flip_fraction > 0:
        n_flip = int(spec.label_flip_fraction * n_total)
        g_flip = np.random.default_rng([spec.seed, _STREAM_FLIPS])
        flip_idx = g_flip.choice(n_total, size=n_flip, replace=False)
        for i in flip_idx:
            wrong = int(g_flip.integers(0, spec.class_count - 1))
            if wrong >= labels[i]:
                wrong += 1
            labels[i] = wrong

    ds_id = (
        f"synth_k{spec.class_count}_d{spec.feature_dim}"
        f"_n{spec.examples_per_class}_s{spec.seed}"
    )
    return Dataset(feats, labels, np.arange(n_total), spec.class_count, spec.feature_dim, id=ds_id)


def split(d: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified train/validation split, deterministic given seed.

    Each class contributes round(val_fraction * class size) validation
    examples. The validation split is meant to be computed once per dataset
    and reused across all proxies, which determinism guarantees as long as
    (val_fraction, seed) stay fixed.
    """
    if not (0 < val_fraction < 1):
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if val_fraction * len(d) < d.class_count:
        raise ValueError(
            f"dataset too small to stratify: val_fraction*{len(d)} < {d.class_count} classes"
        )

    rng = np.random.default_rng([seed, _STREAM_SPLIT])
    picked = []
    for c in range(d.class_count):
        class_ids = d.ids[d.labels == c]
        if len(class_ids) == 0:
            continue
        n_val = int(round(val_fraction * len(class_ids)))
        if n_val < 1:
            raise ValueError(f"class {c} would get 0 validation examples")
        if n_val >= len(class_ids):
            raise ValueError(f"class {c} would get 0 training examples")
        picked.append(rng.permutation(class_ids)[:n_val])

    in_val = np.isin(d.ids, np.concatenate(picked))
    return d._take(~in_val), d._take(in_val)


def class_filter(d: Dataset, classes) -> Dataset:
    """Keep only examples whose label is in ``classes``.

    Labels are not renumbered and class_count is unchanged, so a model's
    output head stays comparable across filtered and unfiltered data.
    """
    classes = set(int(c) for c in classes)
    if not classes:
        raise ValueError("class set is empty")
    bad = [c for c in classes if not (0 <= c < d.class_count)]
    if bad:
        raise ValueError(f"unknown class ids {sorted(bad)} for class_count {d.class_count}")
    return d._take(np.isin(d.labels, sorted(classes)))


def subset_by_ids(d: Dataset, ids) -> Dataset:
    """Subset of d containing exactly the given example ids.

    Output order follows the source dataset's order, not the order of
    ``ids``, so any permutation of the same id set yields an identical
    dataset. Ids covering all of d give d itself, not a copy.
    """
    wanted = np.asarray(ids, dtype=np.int64)
    found = np.isin(wanted, d.ids)
    if not found.all():
        missing = np.unique(wanted[~found])
        raise ValueError(f"ids not present in dataset {d.id!r}: {missing[:5].tolist()}")
    return d._take(np.isin(d.ids, wanted))
