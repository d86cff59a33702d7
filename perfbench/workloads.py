"""The benchmark's workloads: CLI pipelines with fixed shapes.

Each workload is a synthetic-data spec, a one-at-a-time grid, and a list of
proxy manifests to build, run through the six CLI stages. A pipeline's input
seed shifts the spec seed (``base_spec_seed + seed``) and becomes its
``PROXYBENCH_SEED``; the program sees only the generated inputs. Input seed 0
of ``accept6`` is exactly the acceptance-6 pipeline of the test suite.

``BENCHMARK.json`` gates ``grid-large`` and ``cells-resume``. ``accept6`` is
run by hand and by the self-checks: its analyze stage (three Lasso-CV fits)
takes 10-30 s per input on a 2-core host, so its runs cannot be repeated
often enough for steady medians within the benchmark's time budget.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Proxy:
    name: str
    flags: tuple
    late: bool = False  # added to the proxy directory only before the second run-grid


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    grid: dict
    proxies: tuple
    parallel: int = 1
    target_epochs: int | None = None
    # checked on every run: expected relative cost per proxy id, if fixed
    relative_costs: dict | None = None
    # checked by the traced run: layers that must run, or be bypassed
    uses_lasso: bool = False
    grid_threads: int = 1

    def spec_for(self, seed: int) -> dict:
        return dict(self.spec, seed=self.spec["seed"] + seed)

    def configs(self) -> int:
        return 1 + sum(len(v) for v in self.grid["variations"].values())

    def grid_calls(self) -> list:
        """Expected (pre-existing, new) records for each run-grid call."""
        early = 1 + sum(1 for p in self.proxies if not p.late)  # + the implicit full
        late = sum(1 for p in self.proxies if p.late)
        calls = [(0, early * self.configs())]
        if late:
            calls.append((early * self.configs(), late * self.configs()))
        return calls

    def cells(self) -> int:
        return sum(new for _, new in self.grid_calls())

    def stage_calls(self) -> int:
        """gen-data, score, every make-proxy, every run-grid, analyze, report."""
        return 2 + len(self.proxies) + len(self.grid_calls()) + 2


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="accept6",
            why="the acceptance-6 pipeline: analyze-bound, three Lasso-CV fits dominate; pool and resume bypassed",
            spec={
                "class_count": 10,
                "feature_dim": 12,
                "examples_per_class": 100,
                "class_separation": 4.0,
                "noise_scale_lo": 0.5,
                "noise_scale_hi": 1.0,
                "label_flip_fraction": 0.0,
                "seed": 17,
            },
            grid={
                "defaults": {},
                "variations": {
                    "learning_rate": [0.001, 0.007, 0.01],
                    "depth": ["small", "large"],
                    "stem_width_1": [16],
                    "stem_width_2": [16],
                    "augment_prob": [0.0],
                    "optimizer": ["sgd", "rmsprop"],
                },
            },
            proxies=(
                Proxy("random", ("--kind", "random_all", "--fraction", "0.1")),
                Proxy("easiest", ("--kind", "quantile", "--lo", "0.9", "--hi", "1.0", "--scores", "{scores}")),
                Proxy("hardhalf", ("--kind", "quantile", "--lo", "0.0", "--hi", "0.5", "--scores", "{scores}")),
                Proxy("half", ("--kind", "half_classes", "--classes", "0,1,2,3,4", "--fraction", "0.8")),
                Proxy("ep1", ("--kind", "fewer_epochs", "--epochs", "1")),
            ),
            relative_costs={
                "full": 1.0,
                "random-0.1-s0": 0.10,
                "hard-0.9-1.0": 0.10,
                "hard-0.0-0.5": 0.50,
                "half-0+1+2+3+4-f0.8-s0": 0.40,
                "ep1": 0.05,
            },
            uses_lasso=True,
        ),
        Workload(
            name="grid-large",
            why="10x the data, 4 strategies, run-grid --parallel 2: train-bound, the only pool path; Lasso and resume bypassed",
            spec={
                "class_count": 10,
                "feature_dim": 32,
                "examples_per_class": 1000,
                "class_separation": 4.0,
                "noise_scale_lo": 0.5,
                "noise_scale_hi": 1.5,
                "label_flip_fraction": 0.02,
                "seed": 23,
            },
            grid={
                "defaults": {"epochs": 4},
                "variations": {
                    "learning_rate": [0.001, 0.01],
                    "optimizer": ["sgd", "rmsprop"],
                    "batch_size": [128],
                    "depth": ["large"],
                },
            },
            proxies=(
                Proxy("random", ("--kind", "random_all", "--fraction", "0.25")),
                Proxy("easyhalf", ("--kind", "quantile", "--lo", "0.5", "--hi", "1.0", "--scores", "{scores}")),
                Proxy("ep3", ("--kind", "fewer_epochs", "--epochs", "3")),
            ),
            parallel=2,
            target_epochs=4,
            grid_threads=2,
        ),
        Workload(
            name="cells-resume",
            why="many short serial cells and a resumed grid: per-cell overhead and result-store reads and writes; pool and Lasso bypassed",
            spec={
                "class_count": 10,
                "feature_dim": 16,
                "examples_per_class": 400,
                "class_separation": 4.0,
                "noise_scale_lo": 0.5,
                "noise_scale_hi": 1.0,
                "label_flip_fraction": 0.0,
                "seed": 29,
            },
            grid={
                "defaults": {"epochs": 2},
                "variations": {
                    "learning_rate": [0.0005, 0.001, 0.002, 0.005, 0.007, 0.01, 0.02, 0.03],
                    "stem_width_1": [8, 16, 48, 64],
                    "stem_width_2": [8, 16, 48, 64],
                    "depth": ["small", "large"],
                    "optimizer": ["sgd", "rmsprop"],
                    "batch_size": [16, 64],
                    "augment_prob": [0.0, 1.0],
                    "label_smoothing": [False],
                },
            },
            proxies=(
                Proxy("random", ("--kind", "random_all", "--fraction", "0.05")),
                Proxy("easiest", ("--kind", "quantile", "--lo", "0.95", "--hi", "1.0", "--scores", "{scores}")),
                Proxy("ep1", ("--kind", "fewer_epochs", "--epochs", "1"), late=True),
            ),
            target_epochs=2,
        ),
    ]
}
