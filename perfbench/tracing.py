"""Spans around the calls into each proxybench layer, from outside the package.

``Tracer.install`` replaces the layer functions listed in ``WRAPPED`` with
recording wrappers, wherever a proxybench module holds them: ``cli`` and
``orchestrator`` import functions by name, so a function is replaced in every
module namespace bound to the same object, not only where it is defined.
``ResultStore.append`` is wrapped on the class; ``store_load`` replays every
line through it with the path unbound, so only appends made with a bound path
count as writes. ``Tracer.uninstall`` puts every original back.

Spans stay in memory until ``dump``. Each has a name, start and end
(``perf_counter`` seconds), parent span, thread id, thread CPU seconds, the
CLI stage it ran under, and a tag (optimizer kind, records loaded, worker
count, run status).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass

# layer -> functions wrapped in that module (and wherever they are imported)
WRAPPED = {
    "dataset": ("load_csv", "split", "synth_generate", "subset_by_ids"),
    "difficulty": ("score_examples",),
    "proxy": ("build_proxy",),
    "orchestrator": ("run_matrix", "store_load"),
    "trainer": ("train_model", "forward_backward", "optimizer_step", "evaluate_accuracy"),
    "metrics": ("build_quality_reports", "cost_adjusted_quality", "lasso_cv"),
}
MODULES = ("cli",) + tuple(WRAPPED)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    thread: int
    cpu: float
    stage: str
    tag: object = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _tag(name, args, kwargs, result):
    if name == "trainer.optimizer_step":
        return args[0].kind
    if name == "trainer.train_model":
        return result[0].status
    if name == "orchestrator.store_load":
        return len(result)
    if name == "orchestrator.run_matrix":
        return kwargs.get("parallelism", args[3] if len(args) > 3 else 1)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stage = ""
        self._lock = threading.Lock()  # grid cells open spans from worker threads
        self._local = threading.local()
        self._restore: list = []  # (owner, attribute, original)

    def open_span(self) -> tuple:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so children can point at it
        parent = stack[-1] if stack else -1
        stack.append(index)
        return index, parent, time.thread_time(), time.perf_counter()

    def close_span(self, handle, name, tag=None) -> None:
        end = time.perf_counter()
        index, parent, cpu0, start = handle
        self._local.stack.pop()
        self.spans[index] = Span(name, start, end, parent, threading.get_ident(),
                                 time.thread_time() - cpu0, self.stage, tag)

    def _wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            handle = tracer.open_span()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tag = _tag(name, args, kwargs, result) if result is not None else None
                tracer.close_span(handle, name, tag)

        traced.__wrapped__ = fn
        return traced

    def _append_wrapper(self, fn):
        tracer = self

        def append(store, record):
            if store._path is None:  # an in-memory store, or store_load replaying lines
                return fn(store, record)
            handle = tracer.open_span()
            try:
                return fn(store, record)
            finally:
                tracer.close_span(handle, "orchestrator.store_append")

        append.__wrapped__ = fn
        return append

    def install(self, modules: dict) -> None:
        """modules: layer name -> imported proxybench module (all of MODULES)."""
        for layer, names in WRAPPED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapped = self._wrapper(f"{layer}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        store_cls = modules["orchestrator"].ResultStore
        self._restore.append((store_cls, "append", store_cls.append))
        store_cls.append = self._append_wrapper(store_cls.append)

    def uninstall(self) -> list:
        """Restore every original; returns the names still wrapped (should be none)."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._restore if getattr(o, a) is not orig]
        self._restore.clear()
        return left

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _sum(spans) -> float:
    return sum(s.dur for s in spans)


def _per_call(spans, scale) -> float:
    return _sum(spans) / len(spans) * scale if spans else 0.0


def layer_metrics(spans: list, stage_s: dict) -> dict:
    """Per-layer numbers from one traced pipeline, keyed by metric name.

    stage_s: CLI stage name -> traced wall seconds summed over its calls.
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(n):
        return by_name.get(n, [])

    out = {}

    def calls_and_time(name, unit, spans_=None):
        spans_ = named(name) if spans_ is None else spans_
        out[f"{name}.calls"] = len(spans_)
        scale, suffix = {"us": (1e6, "us_per_call"), "ms": (1e3, "ms_per_call")}[unit]
        out[f"{name}.{suffix}"] = _per_call(spans_, scale)

    calls_and_time("metrics.lasso_cv", "ms")
    out["metrics.cost_adjusted_quality.s"] = _sum(named("metrics.cost_adjusted_quality"))
    out["metrics.build_quality_reports.s"] = _sum(named("metrics.build_quality_reports"))

    calls_and_time("trainer.forward_backward", "us")
    for kind in ("adam", "sgd", "rmsprop"):
        calls_and_time(f"trainer.optimizer_step.{kind}", "us",
                       [s for s in named("trainer.optimizer_step") if s.tag == kind])
    calls_and_time("trainer.evaluate_accuracy", "us")

    grid_runs = [(i, s) for i, s in enumerate(spans) if s.name == "trainer.train_model" and s.stage == "run-grid"]
    grid_ids = {i for i, _ in grid_runs}
    children = [s for s in spans if s.parent in grid_ids]
    steps = sum(1 for s in children if s.name == "trainer.forward_backward")
    run_wall = sum(s.dur for _, s in grid_runs)
    run_cpu = sum(s.cpu for _, s in grid_runs)
    out["trainer.train_model.self_us_per_step"] = (run_wall - _sum(children)) / steps * 1e6 if steps else 0.0
    out["trainer.train_model.wait_frac"] = 1.0 - run_cpu / run_wall if run_wall else 0.0
    out["trainer.train_model.score_s"] = _sum(s for s in named("trainer.train_model") if s.stage == "score")
    out["trainer.aborted_frac"] = (
        sum(1 for _, s in grid_runs if s.tag == "aborted") / len(grid_runs) if grid_runs else 0.0
    )
    out["trainer.train_model.grid_threads"] = len({s.thread for _, s in grid_runs})

    matrix = named("orchestrator.run_matrix")
    busy = sum(s.dur * (s.tag or 1) for s in matrix)
    out["orchestrator.cell_overhead_ms"] = (busy - run_wall) / len(grid_runs) * 1e3 if grid_runs else 0.0
    calls_and_time("orchestrator.store_append", "us")
    calls_and_time("orchestrator.store_load", "ms")
    out["orchestrator.store_load.records"] = sum(s.tag or 0 for s in named("orchestrator.store_load"))

    calls_and_time("dataset.subset_by_ids", "us")
    calls_and_time("dataset.load_csv", "ms")
    out["dataset.split.ms_per_call"] = _per_call(named("dataset.split"), 1e3)
    out["dataset.synth_generate.ms"] = _sum(named("dataset.synth_generate")) * 1e3
    calls_and_time("proxy.build_proxy", "ms")
    out["difficulty.score_examples.ms"] = _sum(named("difficulty.score_examples")) * 1e3

    for stage, seconds in stage_s.items():
        out[f"cli.{stage}.s"] = seconds
    return out
