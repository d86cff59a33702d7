"""Per-example difficulty scores and quantile slicing.

Difficulty of an example = cross-entropy loss of a fully trained
default-config model on that example; low loss means easy. Slices are
addressed on a hardest(0) to easiest(1) axis, so (0.9, 1.0) is the easiest
10% and (0.0, 0.5) the hardest half.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from ._exact import exact_floor
from .dataset import Dataset
from .trainer import ModelParams, _forward, _layer_outputs, _log_softmax

__all__ = [
    "DifficultyTable",
    "score_examples",
    "quantile_slice",
    "save_table",
    "load_table",
]


@dataclass(frozen=True)
class DifficultyTable:
    """(example_id, loss) entries held in canonical rank order.

    Rank order is loss descending with ties broken by ascending example id,
    so rank 0 is the hardest example. Quantile slices are contiguous rank
    ranges over this list.
    """

    entries: tuple  # tuple of (example_id, loss) pairs, rank order
    dataset_id: str
    scoring_config_id: str
    dataset_sha256: str | None = None  # of the CSV the scored examples came from

    def __post_init__(self):
        losses = [loss for _, loss in self.entries]
        if not all(np.isfinite(losses)):
            raise ValueError("non-finite difficulty loss")
        if any(loss < 0 for loss in losses):
            raise ValueError("negative difficulty loss")
        keys = [(-loss, ex_id) for ex_id, loss in self.entries]
        if keys != sorted(keys):
            raise ValueError("entries not in rank order (loss desc, id asc)")
        ids = [ex_id for ex_id, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate example ids in difficulty table")

    def __len__(self) -> int:
        return len(self.entries)


def score_examples(model: ModelParams, train: Dataset, scoring_config_id: str = "default") -> DifficultyTable:
    """Score each training example by its loss under a trained model.

    The loss is plain (unsmoothed) cross entropy regardless of how the model
    was trained, so scores are comparable across objective variants, and no
    augmentation is applied. Forward pass only.
    """
    if len(train) == 0:
        raise ValueError("cannot score an empty dataset")
    if train.feature_dim != model.weights[0].shape[0]:
        raise ValueError(
            f"feature dim {train.feature_dim} does not match model fan-in {model.weights[0].shape[0]}"
        )
    n = len(train)
    logits = _forward(model, train.features, _layer_outputs(model.sizes, n))
    logp = _log_softmax(logits, np.empty((n, 1)), np.empty_like(logits))
    losses = -logp[np.arange(n), train.labels]
    entries = sorted(
        zip((int(i) for i in train.ids), (float(l) for l in losses)),
        key=lambda e: (-e[1], e[0]),
    )
    return DifficultyTable(
        entries=tuple(entries), dataset_id=train.id, scoring_config_id=scoring_config_id,
        dataset_sha256=train.source_sha256,
    )


def quantile_slice(table: DifficultyTable, lo: float, hi: float) -> list:
    """Example ids whose hardness rank quantile falls in [lo, hi).

    With N entries, the slice holds ranks floor(lo*N) <= r < floor(hi*N)
    (hi=1 meaning r < N), computed with decimal semantics so floor(0.3*10)
    is 3. Ids come back in rank order, hardest first.
    """
    if len(table) == 0:
        raise ValueError("empty difficulty table")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"need 0 <= lo < hi <= 1, got lo={lo}, hi={hi}")
    n = len(table)
    r_lo = exact_floor(lo, n)
    r_hi = exact_floor(hi, n)
    return [ex_id for ex_id, _ in table.entries[r_lo:r_hi]]


def save_table(table: DifficultyTable, path: str | Path) -> None:
    """Write `example_id,loss` CSV plus a .json sidecar with the metadata.

    Each file is replaced atomically, so a failed write leaves its previous
    version whole. The table goes first: a failure between the two leaves
    the old sidecar, whose dataset id and digest make-proxy checks, beside
    the new table, never a new sidecar vouching for an old table.
    """
    path = Path(path)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["example_id", "loss"])
    w.writerows((ex_id, repr(loss)) for ex_id, loss in table.entries)
    sidecar = {
        "dataset_id": table.dataset_id,
        "scoring_config_id": table.scoring_config_id,
        "dataset_sha256": table.dataset_sha256,
    }
    write_atomic(path, buf.getvalue())
    write_atomic(path.with_suffix(".json"), json.dumps(sidecar, indent=2) + "\n")


def load_table(path: str | Path) -> DifficultyTable:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"difficulty table not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    entries = tuple((int(r[0]), float(r[1])) for r in rows[1:] if r)
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise FileNotFoundError(f"difficulty table sidecar not found: {sidecar_path}")
    meta = json.loads(sidecar_path.read_text(encoding="utf-8"))
    return DifficultyTable(
        entries=entries,
        dataset_id=meta["dataset_id"],
        scoring_config_id=meta["scoring_config_id"],
        dataset_sha256=meta.get("dataset_sha256"),
    )
