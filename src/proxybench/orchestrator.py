"""Grid generation and execution of the (proxy x config) matrix on one split.

One-at-a-time grids: the default config, then one config per alternative
value of a single field. The run matrix is embarrassingly parallel; every
run's seed is a stable hash of its key, so the result of a cell never
depends on scheduling, parallelism, or which cells ran before it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .dataset import Dataset, subset_by_ids
from .proxy import ProxyManifest
from .trainer import HyperparamConfig, RunRecord, config_id, train_model

__all__ = [
    "GridSpec",
    "ResultStore",
    "generate_grid",
    "run_matrix",
    "store_load",
    "run_seed",
    "grid_from_json",
]

_CONFIG_FIELDS = {f.name for f in fields(HyperparamConfig)}
_MALFORMED = (json.JSONDecodeError, TypeError, KeyError)  # a line that is not a RunRecord


@dataclass(frozen=True)
class GridSpec:
    """Defaults plus per-field alternative values (one-at-a-time search)."""

    defaults: HyperparamConfig
    variations: dict

    def __post_init__(self):
        for name, values in self.variations.items():
            if name not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config field {name!r}")
            if name == "seed":
                raise ValueError("seed is not a searchable field")
            if not values:
                raise ValueError(f"empty variation list for {name!r}")
            default = getattr(self.defaults, name)
            for v in values:
                if v == default:
                    raise ValueError(f"variation {name}={v!r} equals the default")
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate variation values for {name!r}")


def generate_grid(spec: GridSpec) -> list:
    """The default config first, then one config per (field, value) pair."""
    configs = [spec.defaults]
    for name, values in spec.variations.items():
        for v in values:
            configs.append(replace(spec.defaults, **{name: v}))
    ids = [config_id(c) for c in configs]
    if len(set(ids)) != len(ids):
        raise ValueError("grid contains duplicate configs")
    return configs


def grid_from_json(path: str | Path) -> GridSpec:
    """Read {"defaults": {...}, "variations": {...}} from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"grid file not found: {path}")
    payload = json.loads(path.read_text(encoding="utf-8"))
    defaults = HyperparamConfig.from_dict(payload.get("defaults", {}))
    return GridSpec(defaults=defaults, variations=dict(payload.get("variations", {})))


class ResultStore:
    """Append-only run records keyed by (dataset_id, proxy_id, config_id).

    When bound to a path, every append lands as one JSON line, flushed
    immediately so an interrupted matrix leaves a loadable prefix.
    """

    def __init__(self, path: str | Path | None = None):
        self._records: dict = {}
        self._path = Path(path) if path is not None else None

    def __len__(self) -> int:
        return len(self._records)

    def keys(self):
        return self._records.keys()

    def records(self) -> list:
        return list(self._records.values())

    def get(self, key) -> RunRecord | None:
        return self._records.get(key)

    def append(self, record: RunRecord) -> None:
        key = (record.dataset_id, record.proxy_id, record.config_id)
        if key in self._records:
            raise ValueError(f"duplicate result key {key}")
        self._records[key] = record
        if self._path is not None:
            with open(self._path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record.to_dict()) + "\n")
                fh.flush()


def store_load(path: str | Path) -> ResultStore:
    """Load a JSONL results file; malformed lines are reported by number.

    The one exception is an unterminated last line that does not parse: the
    tail a process killed mid-append leaves. It is dropped with a warning on
    stderr and cut from the file, so the next append starts a fresh line.
    """
    path = Path(path)
    store = ResultStore(path=path)
    if not path.exists():
        return store
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1  # end of the last newline-terminated line
    bound_path = store._path
    store._path = None  # don't re-append while loading
    try:
        for n, line in enumerate(data[:complete].decode("utf-8").splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = RunRecord.from_dict(json.loads(line))
            except _MALFORMED as e:
                raise ValueError(f"{path}: line {n}: malformed record ({e})") from None
            store.append(record)
        tail = data[complete:].decode("utf-8", errors="replace")
        if tail.strip():
            try:
                record = RunRecord.from_dict(json.loads(tail))
            except _MALFORMED:
                print(f"warning: {path}: dropping an unterminated last line cut off mid-write", file=sys.stderr)
                with open(path, "r+b") as fh:
                    fh.truncate(complete)
            else:  # a whole record whose newline was never written
                store.append(record)
                with open(path, "ab") as fh:
                    fh.write(b"\n")
    finally:
        store._path = bound_path
    return store


def run_seed(dataset_id: str, proxy_id: str, cfg_id: str, global_seed: int) -> int:
    """Stable per-run seed: first 4 bytes of a hash over the run key."""
    blob = f"{dataset_id}|{proxy_id}|{cfg_id}|{global_seed}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def _run_cell(sub_train: Dataset, sub_val: Dataset, manifest: ProxyManifest, cfg: HyperparamConfig, cfg_id: str, seed: int) -> RunRecord:
    run_cfg = replace(cfg, seed=seed, epochs=manifest.epochs)
    record, _ = train_model(sub_train, sub_val, run_cfg, proxy_id=manifest.proxy_id, config_key=cfg_id)
    return record


def run_matrix(
    train: Dataset,
    val: Dataset,
    manifests: list,
    grid: list,
    *,
    parallelism: int = 1,
    global_seed: int = 0,
    store: ResultStore | None = None,
) -> ResultStore:
    """Run every (proxy, config) cell on one train/val split not already in the store.

    Records, and the lookup of stored cells, use train.id as the dataset id.
    grid: HyperparamConfigs; each cell overrides seed (hash of the key) and
    epochs (the manifest's budget), but keeps the grid config's identity so
    results pair across proxies. Records are appended in submission order
    regardless of which worker finishes first. A stored record whose seed
    differs from the one global_seed gives its key raises ValueError before
    any cell runs: resuming would mix runs of two seeds.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if not grid:
        raise ValueError("empty grid")
    if store is None:
        store = ResultStore()

    cells = []
    for manifest in manifests:
        pending = []
        for cfg in grid:
            cfg_id = config_id(cfg)
            key = (train.id, manifest.proxy_id, cfg_id)
            seed = run_seed(*key, global_seed)
            stored = store.get(key)
            if stored is None:
                pending.append((cfg, cfg_id, seed))
            elif stored.seed != seed:
                raise ValueError(
                    f"stored run {key} used seed {stored.seed}, "
                    f"but global seed {global_seed} gives seed {seed}; refusing to resume"
                )
        if pending:  # one subset per manifest, shared by its cells
            subsets = (subset_by_ids(train, manifest.train_ids), subset_by_ids(val, manifest.val_ids))
            cells += [(*subsets, manifest, *cell) for cell in pending]

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = [pool.submit(_run_cell, *cell) for cell in cells]
        for future in futures:
            store.append(future.result())
    return store
