"""Grid generation and execution of the (proxy x config) matrix on one split.

One-at-a-time grids: the default config, then one config per alternative
value of a single field. The run matrix is embarrassingly parallel; every
run's seed is a stable hash of its key, so the result of a cell never
depends on scheduling, parallelism, stacking, or which cells ran before it.
plan_runs is the one plan of a matrix: one pass over the manifests checks
each one's epoch budget, its proxy id, its ids against the split (so a
manifest built on another split is refused) and its stored cells, and
stacks the cells a store still lacks into units, in the cell order of each
stack's first pending cell. run_matrix trains it, one train_model call per
unit, and builds each cell's record; run-grid --dry-run previews it,
refusals too. Manifests that hold the same train and val ids (full and
fewer_epochs) share their subsets and stacks, and --parallel N gives unit u
of the plan to worker u mod N.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from ._atomic import read_json
from .dataset import Dataset, subset_by_ids
from .trainer import HyperparamConfig, RunRecord, config_id, stack_key, train_model

__all__ = ["GridSpec", "ResultStore", "cell_cost", "generate_grid", "grid_from_json", "plan_runs", "run_matrix",
           "run_seed", "store_load"]

_CONFIG_FIELDS = {f.name for f in fields(HyperparamConfig)}
# Most cells a stack trains in lockstep. The cap bounds the memory of one
# stack, whose parameters, optimizer slots and activations grow with its cell
# count. Ten keep the ten default-shape cells of a full and a fewer_epochs
# manifest (five configs each) in one stack.
_STACK_CAP = 10
_MALFORMED = (ValueError, TypeError, AttributeError)  # a line that is not a RunRecord; decode errors are ValueErrors


@dataclass(frozen=True)
class GridSpec:
    """Defaults plus per-field alternative values (one-at-a-time search).

    seed and epochs are not searched: each run's seed hashes its key, and
    each proxy manifest sets its epochs.
    """

    defaults: HyperparamConfig
    variations: dict

    def __post_init__(self):
        for name, values in self.variations.items():
            if name not in _CONFIG_FIELDS:
                raise ValueError(f"unknown config field {name!r}")
            if name in ("seed", "epochs"):
                raise ValueError(f"{name} is not a searchable field")
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"variation {name} must be a list, got {values!r}")
            if not values:
                raise ValueError(f"empty variation list for {name!r}")
            default = getattr(self.defaults, name)
            for v in values:
                if v == default:
                    raise ValueError(f"variation {name}={v!r} equals the default")
                replace(self.defaults, **{name: v})  # HyperparamConfig refuses a value its field does not take
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate variation values for {name!r}")


def generate_grid(spec: GridSpec) -> list:
    """The default config first, then one config per (field, value) pair."""
    configs = [spec.defaults]
    for name, values in spec.variations.items():
        for v in values:
            configs.append(replace(spec.defaults, **{name: v}))
    return configs


def grid_from_json(path: str | Path) -> GridSpec:
    """Read {"defaults": {...}, "variations": {...}} from a JSON file; its errors start with the path."""
    return read_json(path, lambda p: GridSpec(HyperparamConfig(**p.get("defaults", {})), dict(p.get("variations", {}))))


class ResultStore:
    """Append-only run records keyed by (dataset_id, proxy_id, config_id), backed by a JSONL file.

    Every append lands in the file as one JSON line, flushed immediately so
    an interrupted matrix leaves a loadable prefix. store_load reads a file
    back into a store bound to it. Its first append mends an unterminated last
    line store_load found: a torn fragment is cut, a whole record terminated.
    """

    def __init__(self, path: str | Path):
        self._records: dict = {}
        self._path = Path(path)
        self._tail = None  # (length to cut the file to, text to write first) before the first append

    def __len__(self) -> int:
        return len(self._records)

    def keys(self):
        return self._records.keys()

    def records(self) -> list:
        return list(self._records.values())

    def get(self, key) -> RunRecord | None:
        return self._records.get(key)

    def _add(self, record: RunRecord, where: str = "") -> None:
        key = (record.dataset_id, record.proxy_id, record.config_id)
        if key in self._records:
            raise ValueError(f"{where}duplicate result key {key}")
        self._records[key] = record

    def append(self, record: RunRecord) -> None:
        self._add(record)
        with open(self._path, "a", encoding="utf-8") as fh:
            if self._tail is not None:
                fh.truncate(self._tail[0])
                fh.write(self._tail[1])
                self._tail = None
            fh.write(json.dumps(asdict(record)) + "\n")
            fh.flush()


def _parse_record(line: bytes) -> RunRecord:
    """One results line as a RunRecord. Files written before records lost
    their wall-clock field still carry a wall_ms key; it is dropped."""
    d = json.loads(line.decode("utf-8"))
    d.pop("wall_ms", None)
    return RunRecord(**d)


def store_load(path: str | Path) -> ResultStore:
    """A store bound to a JSONL results file, holding its records; malformed
    lines, including those that are not UTF-8, and a line whose key an
    earlier line holds, are reported by number.

    The one exception is an unterminated last line that does not parse: the
    tail a process killed mid-append leaves. It is dropped with a warning on
    stderr. Loading never changes the file: the store's first append cuts
    the fragment, and only run-grid appends, holding the file's lock. A path
    that exists and is not a regular file (a FIFO, a directory) is refused
    with ValueError, never read: a FIFO would block until a writer came.
    """
    path = Path(path)
    store = ResultStore(path)
    if not path.exists():
        return store
    if not path.is_file():
        raise ValueError(f"{path} exists and is not a regular file")
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1  # end of the last newline-terminated line
    lines = data[:complete].split(b"\n")[:-1]
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = _parse_record(line)
        except _MALFORMED as e:
            raise ValueError(f"{path}: line {n}: malformed record ({e})") from None
        store._add(record, f"{path}: line {n}: ")
    tail = data[complete:]
    if tail.strip():
        try:
            record = _parse_record(tail)
        except _MALFORMED:
            print(f"warning: {path}: dropping an unterminated last line cut off mid-write", file=sys.stderr)
            store._tail = (complete, "")
        else:  # a whole record whose newline was never written
            store._add(record, f"{path}: line {len(lines) + 1}: ")
            store._tail = (len(data), "\n")
    return store


def run_seed(dataset_id: str, proxy_id: str, cfg_id: str, global_seed: int) -> int:
    """Stable per-run seed: first 4 bytes of a hash over the run key."""
    blob = f"{dataset_id}|{proxy_id}|{cfg_id}|{global_seed}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def cell_cost(manifest) -> float:
    """The budgeted cost of one cell of manifest, in example-epochs: |train| * epochs."""
    return float(len(manifest.train_ids) * manifest.epochs)


def _run_unit(sub_train: Dataset, sub_val: Dataset, cells: list) -> list:
    """Trains one unit's cells, (manifest, run config, config id) triples, in one train_model call; returns
    their records. This is the one place a RunRecord is built: from its cell, its run and cell_cost."""
    manifests, configs, keys = zip(*cells)
    runs = train_model(sub_train, sub_val, list(configs))
    return [RunRecord(dataset_id=sub_train.id, proxy_id=m.proxy_id, config_id=key, seed=run.config.seed,
                      epoch_val_acc=run.epoch_val_acc, best_val_acc=max(run.epoch_val_acc), cost_units=cell_cost(m),
                      status=run.status) for run, m, key in zip(runs, manifests, keys)]


def plan_runs(train: Dataset, val: Dataset, manifests: list, grid: list, store: ResultStore, global_seed: int) -> list:
    """The (proxy, config) cells on the split (train, val) not yet in store, as units in submission order.

    An empty grid, or one whose configs' epochs differ, is refused first.
    Then one pass over the manifests, in their order, checks each in turn
    and raises ValueError at the first problem, before any unit runs:
    1. its epochs must equal the grid's, or lie below them for fewer_epochs
       (else it was built for another target budget);
    2. its proxy id must not be an earlier manifest's;
    3. the first time its train and val ids appear, their subsets of the
       split are built, its cells stored or not (else it was built under
       another global seed or validation fraction);
    4. each stored record of its cells must have the seed global_seed gives
       its key and the cell_cost of the manifest (else resuming would mix
       runs of two seeds or two splits).

    Pending cells, (manifest, run config, config id) triples, stack by their
    train ids, val ids and stack_key, in cell order (manifest, then grid
    config). A unit is (train subset, val subset, cells): at most _STACK_CAP
    cells of one stack, with the subsets of their ids, shared by every unit
    on them. Units come in the cell order of their stack's first pending
    cell. A run config is its grid config with the seed its key, under
    train.id, hashes to and the manifest's epochs, keeping the grid config's
    identity so results pair across proxies.
    """
    if not grid:
        raise ValueError("empty grid")
    budgets = sorted({cfg.epochs for cfg in grid})
    if len(budgets) != 1:
        raise ValueError(f"grid configs train for different epoch counts {budgets}")
    epochs = budgets[0]
    seen = set()
    subsets: dict = {}  # (train ids, val ids) -> (train subset, val subset)
    stacks: dict = {}  # (train ids, val ids, stack_key) -> its pending cells
    for manifest in manifests:
        fewer = manifest.spec.kind == "fewer_epochs"
        if not (manifest.epochs < epochs if fewer else manifest.epochs == epochs):
            raise ValueError(
                f"proxy manifest {manifest.proxy_id!r} trains {manifest.epochs} epochs, not "
                f"{'fewer than ' if fewer else ''}the grid's {epochs}; "
                f"rebuild it with make-proxy --target-epochs {epochs}"
            )
        if manifest.proxy_id in seen:
            raise ValueError(f"duplicate proxy id {manifest.proxy_id!r}")
        seen.add(manifest.proxy_id)
        ids = (manifest.train_ids.tobytes(), manifest.val_ids.tobytes())
        if ids not in subsets:
            try:
                subsets[ids] = (subset_by_ids(train, manifest.train_ids), subset_by_ids(val, manifest.val_ids))
            except ValueError as e:
                raise ValueError(f"proxy manifest {manifest.proxy_id!r} was built on another split (another "
                                 f"--global-seed or --val-fraction): {e}") from None
        cost = cell_cost(manifest)
        for cfg in grid:
            cfg_id = config_id(cfg)
            key = (train.id, manifest.proxy_id, cfg_id)
            seed = run_seed(*key, global_seed)
            stored = store.get(key)
            if stored is None:
                run_cfg = replace(cfg, seed=seed, epochs=manifest.epochs)
                stacks.setdefault((*ids, stack_key(run_cfg)), []).append((manifest, run_cfg, cfg_id))
            elif stored.seed != seed:
                raise ValueError(
                    f"stored run {key} used seed {stored.seed}, "
                    f"but global seed {global_seed} gives seed {seed}; refusing to resume"
                )
            elif stored.cost_units != cost:
                raise ValueError(
                    f"stored run {key} cost {stored.cost_units!r} units, but this split trains "
                    f"{len(manifest.train_ids)} examples x {manifest.epochs} epochs = {cost!r}; refusing to resume"
                )
    return [(*subsets[key[:2]], cells[lo : lo + _STACK_CAP])
            for key, cells in stacks.items() for lo in range(0, len(cells), _STACK_CAP)]


def run_matrix(
    train: Dataset,
    val: Dataset,
    manifests: list,
    grid: list,
    *,
    parallelism: int = 1,
    global_seed: int = 0,
    store: ResultStore,
) -> ResultStore:
    """Run every (proxy, config) cell on one train/val split not already in store; returns store.

    Trains the units of plan_runs(train, val, ...), which raises its refusals
    before any cell runs; records use train.id as the dataset id. Each unit
    trains its cells as a stack; a cell gets the same record in any unit. Unit
    u runs on worker u mod parallelism, each worker one thread that trains
    its units in plan order, so which thread trains a unit depends only on
    the plan. Records are appended in cell order (manifest, then grid config)
    regardless of which worker finishes first. A unit that raises, or an
    exception in the main thread (KeyboardInterrupt too), stops every unit
    not yet started; the units running finish, and the exception propagates
    once they have, leaving the store a cell-order prefix of the plan.
    """
    units = plan_runs(train, val, manifests, grid, store, global_seed)
    rank = {config_id(cfg): i for i, cfg in enumerate(grid)}
    slots = sorted(  # (cell order, unit, position in it) of every pending cell
        ((manifests.index(manifest), rank[cfg_id]), u, pos)
        for u, (_, _, cells) in enumerate(units)
        for pos, (manifest, _, cfg_id) in enumerate(cells)
    )

    stop = threading.Event()  # set once a unit raises, or the main thread does (Ctrl-C too)

    def run(unit):
        if stop.is_set():
            return None  # skipped: it had not started when the stop came
        try:
            return _run_unit(*unit)
        except BaseException:
            stop.set()
            raise

    with ExitStack() as workers:  # on exit, waits for the units still running
        pools = [workers.enter_context(ThreadPoolExecutor(max_workers=1)) for _ in range(min(parallelism, len(units)))]
        futures = [pools[u % len(pools)].submit(run, unit) for u, unit in enumerate(units)]
        try:
            for _, u, pos in slots:
                records = futures[u].result()
                if records is None:
                    break
                store.append(records[pos])
        except BaseException:
            stop.set()
            raise
    for future in futures:  # the loop above stops at a skipped unit: raise the error of a unit that failed
        future.result()
    return store
