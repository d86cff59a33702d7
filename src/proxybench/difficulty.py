"""Per-example difficulty scores and quantile slicing.

Difficulty of an example = cross-entropy loss of a fully trained
default-config model on that example; low loss means easy. Slices are
addressed on a hardest(0) to easiest(1) axis, so (0.9, 1.0) is the easiest
10% and (0.0, 0.5) the hardest half. A table is stored as one JSON file
(save_table, load_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import check_fields, check_value, int64_ids, read_json, write_json
from ._exact import exact_floor
from .dataset import Dataset
from .trainer import ModelParams, _log_softmax, _logits

__all__ = [
    "DifficultyTable",
    "score_examples",
    "quantile_slice",
    "save_table",
    "load_table",
]


@dataclass(frozen=True, eq=False)
class DifficultyTable:
    """Aligned example ids and losses, read-only arrays held in canonical rank order.

    Rank order is loss descending with ties broken by ascending example id,
    so rank 0 is the hardest example. Quantile slices are contiguous rank
    ranges over these arrays. save_table writes these five fields, and
    nothing else, as the keys of one JSON object. ids must be integers
    (int64_ids): a float or a bool is refused, never truncated.
    """

    ids: np.ndarray  # (n,) int64, rank order
    losses: np.ndarray  # (n,) float64, the loss of each id
    dataset_id: str
    scoring_config_id: str
    dataset_sha256: str | None = None  # of the CSV the scored examples came from

    def __post_init__(self):
        check_fields(DifficultyTable, self)
        ids = int64_ids("ids", self.ids).copy()
        losses = np.array(self.losses, dtype=np.float64)
        if ids.ndim != 1 or losses.shape != ids.shape:
            raise ValueError(f"need aligned (n,) ids and losses, got shapes {ids.shape}, {losses.shape}")
        if not (np.isfinite(losses) & (losses >= 0)).all():
            raise ValueError("difficulty losses must be finite and non-negative")
        tied = losses[1:] == losses[:-1]
        if ((losses[1:] > losses[:-1]) | (tied & (ids[1:] < ids[:-1]))).any():
            raise ValueError("entries not in rank order (loss desc, id asc)")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("duplicate example ids in difficulty table")
        for name, a in (("ids", ids), ("losses", losses)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.ids)


def score_examples(model: ModelParams, train: Dataset, scoring_config_id: str = "default") -> DifficultyTable:
    """Score each training example by its loss under a trained model, a stack of one.

    The loss is plain (unsmoothed) cross entropy regardless of how the model
    was trained, so scores are comparable across objective variants, and no
    augmentation is applied. Forward pass only, holding two layers' outputs
    at a time.
    """
    if len(model.flat) != 1:
        raise ValueError(f"score_examples takes a stack of one model, got k={len(model.flat)}")
    if len(train) == 0:
        raise ValueError("cannot score an empty dataset")
    if train.feature_dim != model.weights[0].shape[1]:
        raise ValueError(
            f"feature dim {train.feature_dim} does not match model fan-in {model.weights[0].shape[1]}"
        )
    n = len(train)
    logits = _logits(model, train.features)
    logp = _log_softmax(logits, np.empty((1, n, 1)), np.empty_like(logits))
    losses = -logp[0, np.arange(n), train.labels]
    order = np.lexsort((train.ids, -losses))
    return DifficultyTable(
        ids=train.ids[order], losses=losses[order], dataset_id=train.id, scoring_config_id=scoring_config_id,
        dataset_sha256=train.source_sha256,
    )


def quantile_slice(table: DifficultyTable, lo: float, hi: float) -> np.ndarray:
    """Example ids whose hardness rank quantile falls in [lo, hi).

    With N entries, the slice holds ranks floor(lo*N) <= r < floor(hi*N)
    (hi=1 meaning r < N), computed with decimal semantics so floor(0.3*10)
    is 3. Ids come back in rank order, hardest first, as a view of table.ids.
    """
    if len(table) == 0:
        raise ValueError("empty difficulty table")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError(f"need 0 <= lo < hi <= 1, got lo={lo}, hi={hi}")
    n = len(table)
    r_lo = exact_floor(lo, n)
    r_hi = exact_floor(hi, n)
    return table.ids[r_lo:r_hi]


def save_table(table: DifficultyTable, path: str | Path) -> None:
    """Write table to path as one JSON object of its fields, ids and losses in rank order, in one atomic write."""
    write_json(path, {
        "ids": table.ids.tolist(),
        "losses": table.losses.tolist(),
        "dataset_id": table.dataset_id,
        "scoring_config_id": table.scoring_config_id,
        "dataset_sha256": table.dataset_sha256,
    })


def _table(payload: dict) -> DifficultyTable:
    check_value("losses", payload["losses"], list[float])
    return DifficultyTable(
        ids=payload["ids"], losses=payload["losses"], dataset_id=payload["dataset_id"],
        scoring_config_id=payload["scoring_config_id"], dataset_sha256=payload["dataset_sha256"],
    )


def load_table(path: str | Path) -> DifficultyTable:
    """The table save_table wrote at path. Every error in it starts with the path (read_json): a file
    cut off mid-write or in another form does not parse, and a missing key, a value of the wrong
    type, an id outside int64 and entries out of rank order are refused."""
    return read_json(path, _table)
