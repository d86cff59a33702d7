"""Small dense-network trainer with an explicit hyperparameter surface.

The network is a plain fully-connected classifier: input -> stem_width_1 ->
stem_width_2 -> zero or more extra hidden layers (the depth knob) -> logits,
rectifier activations throughout. Everything runs in float64 on numpy, and
every source of randomness is an explicit seeded generator, so a run is a
pure function of (config, train data, val data).

Within each minibatch, example rows are processed in ascending dataset
order. That makes full-batch training bitwise independent of the shuffle
seed, which is the determinism property the test suite leans on.

A model is a row of a stack everywhere. train_model, the one training
loop, trains configs that share a stack_key in lockstep, one row each of
every buffer; a lone model is a stack of one. So are an evaluated model, the
model score_examples runs and the parameters a run returns: one parameter
layout, and one form of the training step. Each model gets the bits of its
own run whatever else its stack holds. The trainer returns runs, not
records: run-grid builds each RunRecord from its cell.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from ._atomic import check_fields
from .dataset import Dataset

# What the rest of the package imports; tests and tracers reach the per-step functions by name.
__all__ = [
    "HyperparamConfig",
    "ModelParams",
    "Run",
    "RunRecord",
    "config_id",
    "stack_key",
    "train_model",
]

_STREAM_INIT = 11
_STREAM_SHUFFLE = 12
_STREAM_AUG = 13

# Extra hidden layers (width stem_width_2) appended after the two stems.
DEPTH_EXTRA_LAYERS = {"small": 0, "default": 1, "large": 2}

_OPTIMIZERS = ("adam", "sgd", "rmsprop")

# Adam / RMSProp constants.
_BETA1 = 0.9
_BETA2 = 0.999
_RHO = 0.99
_EPS = 1e-8

_SMOOTH_TARGET = 0.9  # probability mass placed on the labeled class

_BLOCK_ROWS = 1024  # rows per gather, over all models of a stack (see _Stack)


@dataclass(frozen=True)
class HyperparamConfig:
    """One point in the hyperparameter space.

    learning_rate = 0 is allowed; it turns training into a no-op, which is
    occasionally useful as a baseline. learning_rate and augment_prob are
    stored as float, so an integer value (1) names the same config as its
    float (1.0).
    """

    depth: str = "default"
    learning_rate: float = 0.003
    stem_width_1: int = 32
    stem_width_2: int = 32
    augment_prob: float = 0.5
    optimizer: str = "adam"
    label_smoothing: bool = True
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(HyperparamConfig, self)
        for name in ("learning_rate", "augment_prob"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.depth not in DEPTH_EXTRA_LAYERS:
            raise ValueError(f"depth must be one of {sorted(DEPTH_EXTRA_LAYERS)}, got {self.depth!r}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.stem_width_1 < 1 or self.stem_width_2 < 1:
            raise ValueError("stem widths must be positive")
        if not (0.0 <= self.augment_prob <= 1.0):
            raise ValueError(f"augment_prob must be in [0, 1], got {self.augment_prob}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def config_id(config: HyperparamConfig) -> str:
    """Stable 12-hex-char identity of a config, ignoring the seed field.

    Two runs of the same settings under different seeds share an id, which
    is what lets results be paired config-by-config across proxies.
    """
    d = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "seed"}
    blob = json.dumps(d, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


class ModelParams:
    """The weights and biases of a stack of k models, held as views into one (k, P) float64 buffer.

    sizes lists the layer widths, input first and class count last. Row i of
    flat is model i: every weight matrix (row-major, layer order) and then
    every bias vector. weights[i] is a (k, fan_in, fan_out) view and
    biases[i] a (k, 1, fan_out) view into flat, which broadcast over a
    (k, rows, fan_out) batch; writing through either side changes both.
    Gradients use the same class and layout, which lets the optimizer work on
    flat alone. One model is a stack of one, and a missing flat is one model
    of zeros.

    scratch holds the activation and delta buffers forward_backward keeps on
    the gradient buffer it writes, one set per batch size.
    """

    def __init__(self, sizes, flat: np.ndarray | None = None):
        self.sizes = tuple(sizes)
        self.scratch: dict = {}
        shapes = list(zip(self.sizes[:-1], self.sizes[1:]))
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in shapes)
        n = n_weights + sum(self.sizes[1:])
        self.flat = np.zeros((1, n)) if flat is None else flat
        if self.flat.ndim != 2 or self.flat.shape[1] != n:
            raise ValueError(f"flat must have shape (k, {n}) for sizes {self.sizes}, got {self.flat.shape}")
        k = len(self.flat)
        self.weights, self.biases = [], []
        w_at, b_at = 0, n_weights
        for fan_in, fan_out in shapes:
            self.weights.append(self.flat[:, w_at : w_at + fan_in * fan_out].reshape(k, fan_in, fan_out))
            self.biases.append(self.flat[:, b_at : b_at + fan_out].reshape(k, 1, fan_out))
            w_at += fan_in * fan_out
            b_at += fan_out


@dataclass
class RunRecord:
    """Outcome of one grid cell's training run, as run-grid records it.

    cost_units is the budgeted cost in example-epochs (orchestrator.cell_cost);
    an aborted run keeps its nominal cost, and its accuracy list is padded
    to full length with the last observed value. A record with no epoch accuracies, an accuracy
    outside [0, 1], a cost that is not positive or a negative seed is
    refused with ValueError where it is built, as a results line is loaded.
    """

    dataset_id: str
    proxy_id: str
    config_id: str
    seed: int
    epoch_val_acc: list[float]
    best_val_acc: float
    cost_units: float
    # "ok" or "aborted"; left unchecked while perfbench/test_perfbench.py builds records with status 1
    status: object = "ok"

    def __post_init__(self):
        check_fields(RunRecord, self)
        if not self.epoch_val_acc:
            raise ValueError("epoch_val_acc must not be empty")
        for i, acc in enumerate(self.epoch_val_acc):
            if not 0.0 <= acc <= 1.0:
                raise ValueError(f"epoch_val_acc[{i}] must lie in [0, 1], got {acc!r}")
        if not 0.0 <= self.best_val_acc <= 1.0:
            raise ValueError(f"best_val_acc must lie in [0, 1], got {self.best_val_acc!r}")
        if self.cost_units <= 0:
            raise ValueError(f"cost_units must be positive, got {self.cost_units!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptState:
    """Optimizer slots laid out like ModelParams.flat, and t, the steps taken.

    Every kind has every slot: adam reads m and v, rmsprop v and sgd
    neither. scratch holds two more such arrays for the temporaries of one
    step. A stack allocates these slots for all its rows at once, and each
    of its optimizer groups steps an OptState of row views into them.
    """

    kind: str
    m: np.ndarray
    v: np.ndarray
    scratch: tuple
    t: int = 0


@functools.lru_cache(maxsize=None)
def _target_table(class_count: int, smoothing) -> np.ndarray:
    """Row c is the training target for label c.

    It puts 0.9 on the labeled class and spreads the rest uniformly when
    smoothing is on; one-hot otherwise. forward_backward passes a tuple of
    flags, one per model of its stack, and model i's table is rows
    i*class_count onward. Shared, so read-only.
    """
    if isinstance(smoothing, tuple):
        table = np.concatenate([_target_table(class_count, flag) for flag in smoothing])
    elif smoothing:
        table = np.full((class_count, class_count), (1.0 - _SMOOTH_TARGET) / (class_count - 1))
        np.fill_diagonal(table, _SMOOTH_TARGET)
    else:
        table = np.eye(class_count)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _label_offsets(models: int, class_count: int) -> np.ndarray:
    """(models, 1) column that moves each stacked model's labels to its own target table."""
    offsets = np.arange(0, models * class_count, class_count).reshape(models, 1)
    offsets.flags.writeable = False
    return offsets


def init_params(config: HyperparamConfig, feature_dim: int, class_count: int) -> ModelParams:
    """A stack of one model: fan-in-scaled gaussian weights, zero biases, seeded from config.seed."""
    sizes = (
        [feature_dim, config.stem_width_1, config.stem_width_2]
        + [config.stem_width_2] * DEPTH_EXTRA_LAYERS[config.depth]
        + [class_count]
    )
    params = ModelParams(sizes)
    rng = np.random.default_rng([config.seed, _STREAM_INIT])
    for w in params.weights:
        w[:] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[1])
    return params


def _layer_outputs(sizes, *rows) -> list:
    """Output buffers for every layer, each (*rows, width)."""
    return [np.empty((*rows, width)) for width in sizes[1:]]


def _forward(params: ModelParams, x: np.ndarray, outs: list) -> np.ndarray:
    """Writes each layer's output to outs (rectified, but logits for the last); returns the logits.

    A None in outs allocates that layer's output, which is dropped once the
    layer above it is computed.
    """
    h = x
    last = len(outs) - 1
    for i, (w, b, out) in enumerate(zip(params.weights, params.biases, outs)):
        out = np.matmul(h, w, out=out)
        out += b
        if i < last:
            np.maximum(out, 0.0, out=out)
        h = out
    return h


def _logits(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The logits of every row of x, holding two layers' outputs at a time.

    Each layer is one product over all rows: a product over fewer rows may
    round differently, so rows are never split into chunks.
    """
    return _forward(params, x, [None] * len(params.weights))


# The per-step code calls ufunc reductions and ndarray.take directly: np.max,
# np.sum, np.take and the reducing array methods add a Python-level wrapper
# that costs about as much as their arithmetic on one batch. What they
# compute is the same.


def _log_softmax(logits: np.ndarray, row: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Turns logits into log-probabilities in place; row (..., n, 1) and probs (like logits) are scratch."""
    np.maximum.reduce(logits, axis=-1, keepdims=True, out=row)
    logits -= row
    np.exp(logits, out=probs)
    np.add.reduce(probs, axis=-1, keepdims=True, out=row)
    np.log(row, out=row)
    logits -= row
    return logits


class _Scratch:
    """forward_backward's buffers for a stack's batches of one shape, rows = (k, n)."""

    def __init__(self, sizes, rows: tuple):
        self.acts = _layer_outputs(sizes, *rows)
        self.acts_t = [a.swapaxes(-1, -2) for a in self.acts[:-1]]
        self.deltas = _layer_outputs(sizes[:-1], *rows)
        self.live = [np.empty((*rows, width), dtype=bool) for width in sizes[1:-1]]
        self.probs = np.empty((*rows, sizes[-1]))
        self.per_model = self.probs.reshape(rows[0], -1)  # each model's loss terms, flat
        self.target = np.empty((*rows, sizes[-1]))
        self.row = np.empty((*rows, 1))
        self.labels = np.empty(rows, dtype=np.int64)


def forward_backward(params: ModelParams, features: np.ndarray, labels: np.ndarray, smoothing: tuple, grads: ModelParams):
    """Mean batch losses and exact analytic gradients of a stack of k models, laid out like params.

    params.flat is (k, P), features (k, n, d), labels (k, n) and smoothing a
    tuple of k flags; the loss is a list of k floats. Row i is model i's
    batch, and model i's loss and gradient do not depend on the other rows:
    a lone model is a stack of one.

    grads, laid out like params, is overwritten and returned. The
    activations and deltas go to buffers kept in grads.scratch, so a run that
    passes the same grads every step allocates them once per batch size.

    The loss is label-smoothed cross-entropy (see _target_table); the
    gradient of each row's loss with respect to its logits is
    softmax(logits) - target. The arguments are not checked: train_model
    checks its datasets once, and cuts every batch from them.
    """
    n = features.shape[-2]
    s = grads.scratch.get(n)
    if s is None:
        s = grads.scratch[n] = _Scratch(params.sizes, features.shape[:-1])
    acts, probs, target = s.acts, s.probs, s.target
    classes = params.sizes[-1]

    logp = _log_softmax(_forward(params, features, acts), s.row, probs)
    y = np.add(labels, _label_offsets(len(params.flat), classes), out=s.labels)
    _target_table(classes, smoothing).take(y, 0, target)
    np.multiply(target, logp, out=probs)
    totals = np.add.reduce(s.per_model, axis=-1).tolist()
    loss = [-total / n for total in totals]
    delta = np.exp(logp, out=probs)
    delta -= target
    delta /= n  # dloss/dlogits

    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(s.acts_t[i - 1] if i > 0 else features.swapaxes(-1, -2), delta, out=grads.weights[i])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads.biases[i])
        if i > 0:
            below = np.matmul(delta, params.weights[i].swapaxes(-1, -2), out=s.deltas[i - 1])
            below *= np.greater(acts[i - 1], 0.0, out=s.live[i - 1])
            delta = below
    return loss, grads


def optimizer_step(state: OptState, params: ModelParams, grads: ModelParams, lr: float):
    """Apply one update in place; returns (params, state) for convenience.

    params and grads hold the rows of the models this state updates, and lr
    is a float or a (rows, 1) column: every row steps together.
    SGD: p -= lr*g. Adam: bias-corrected, beta1=0.9, beta2=0.999, eps=1e-8.
    RMSProp: rho=0.99, eps=1e-8, no momentum. The gradient is not checked:
    the trainer freezes a model whose gradient is not finite before it
    steps.
    """
    state.t += 1
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    # Adam and RMSProp evaluate one operation of the textbook expression per
    # line, in its order and into the state's scratch vectors, so the result
    # is bitwise that of the expression.
    if state.kind == "sgd":
        p -= lr * g
    elif state.kind == "adam":
        step, tmp = state.scratch
        bc1 = 1.0 - _BETA1**state.t
        bc2 = 1.0 - _BETA2**state.t
        m *= _BETA1
        m += np.multiply(1.0 - _BETA1, g, out=tmp)
        v *= _BETA2
        np.multiply(1.0 - _BETA2, g, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.divide(v, bc2, out=tmp)  # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(tmp, out=tmp)
        tmp += _EPS
        np.divide(m, bc1, out=step)
        np.multiply(lr, step, out=step)
        p -= np.divide(step, tmp, out=step)
    else:  # rmsprop
        step, tmp = state.scratch
        v *= _RHO
        np.multiply(1.0 - _RHO, g, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        np.sqrt(v, out=tmp)  # p -= lr * g / (sqrt(v) + eps)
        tmp += _EPS
        np.multiply(lr, g, out=step)
        p -= np.divide(step, tmp, out=step)
    return params, state


def one_cycle_lr(step: int, total_steps: int, lr_max: float) -> float:
    """One-cycle schedule: cosine warmup for the first quarter, cosine anneal after.

    Starts at lr_max/25, peaks at lr_max when step = round(0.25*total_steps),
    ends at lr_max/1e4. step must lie in [0, total_steps); it is not checked.
    """
    warm = round(0.25 * total_steps)
    if warm > 0 and step <= warm:
        t = step / warm
        lo = lr_max / 25.0
        return lo + (lr_max - lo) * (1.0 - math.cos(math.pi * t)) / 2.0
    denom = total_steps - 1 - warm
    if denom <= 0:
        return lr_max
    t = (step - warm) / denom
    floor_lr = lr_max / 1e4
    return floor_lr + (lr_max - floor_lr) * (1.0 + math.cos(math.pi * t)) / 2.0


def _gather_rows(features: np.ndarray, rows: np.ndarray, flip: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy features[rows] into out, reversing the features of each row where the bool array flip is set.

    The reversal is the 1-D counterpart of a horizontal image flip: a fixed,
    label-preserving transform. features itself is never written. rows are
    clipped into range, not checked, which spares take a temporary copy of
    the block; the trainer's come from a permutation of the rows.
    """
    np.take(features, rows, axis=0, out=out, mode="clip")
    out[flip] = out[flip, ::-1]
    return out


def evaluate_accuracy(params: ModelParams, d: Dataset) -> float:
    """Fraction of examples whose argmax logit matches the label, for a stack of one model.

    d is not empty (train_model refuses an empty val). Raises ValueError for
    any other k, which would otherwise average the rows' accuracies.
    """
    if len(params.flat) != 1:
        raise ValueError(f"evaluate_accuracy takes a stack of one model, got k={len(params.flat)}")
    return float(np.mean(np.argmax(_logits(params, d.features), axis=-1) == d.labels))


def stack_key(config: HyperparamConfig) -> tuple:
    """Configs with equal keys can train in one stack: same layer sizes and batch size, whatever their epochs."""
    return (config.depth, config.stem_width_1, config.stem_width_2, config.batch_size)


@dataclass
class Run:
    """One model of a train_model call: its config, its accuracy after each epoch, how it ended
    ("ok" or "aborted") and its final parameters, a stack of one."""

    config: HyperparamConfig
    epoch_val_acc: list = field(default_factory=list)
    status: str = "ok"
    params: ModelParams | None = None


def train_model(train: Dataset, val: Dataset, configs: list) -> list:
    """Train configs of one stack_key in lockstep; returns a finished Run per config, in order.

    Deterministic given (config, data): a model's initialization is seeded
    from its config.seed, and its per-epoch shuffle and augmentation draws
    from (config.seed, epoch). Each model gets the bits it would get trained
    alone: it keeps its own streams, target table, epochs, learning-rate
    schedule and abort. Validation accuracy is measured after every epoch,
    and a model whose epochs are done leaves the stack after that epoch's
    evaluation.

    A non-finite loss or gradient aborts a model: it is frozen at that step
    with status "aborted" and its accuracy list padded to its epochs with the
    last observed value (or the current model's accuracy if no epoch
    finished); the others go on. Each step is one forward_backward over the
    stack and one optimizer_step per optimizer over that optimizer's rows;
    evaluation stays one model at a time.
    """
    runs = [Run(c) for c in configs]
    if not runs:
        raise ValueError("need at least one config")
    if len({stack_key(r.config) for r in runs}) != 1:
        raise ValueError("configs of a stack must share layer sizes and batch size")
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and val must be non-empty")
    if train.feature_dim != val.feature_dim or train.class_count != val.class_count:
        raise ValueError("train and val shapes disagree")

    stack = _Stack(sorted(runs, key=lambda r: _OPTIMIZERS.index(r.config.optimizer)), train, val)
    # Divergent configs overflow on purpose before the abort check catches
    # them, and a half-blown model can overflow again while being evaluated;
    # don't let numpy warn about either.
    with np.errstate(over="ignore", invalid="ignore"):
        epoch = 0
        while stack.members:
            stack.train_epoch(epoch)
            for i, m in enumerate(stack.members):
                m.epoch_val_acc.append(evaluate_accuracy(stack.model(i), val))
            epoch += 1
            stack.retire([i for i, m in enumerate(stack.members) if m.config.epochs == epoch])
    return runs


class _Stack:
    """The models of a stack still training, one row each, grouped by optimizer.

    Row i of every per-model array (parameters, gradients, optimizer slots,
    this epoch's shuffle order, flips and learning rates, the gathered
    block) belongs to members[i]. The stack allocates its optimizer slots
    (m, v and two step temporaries) for every row whatever its optimizer,
    and each epoch's order and flips at the models it still holds.
    retire() is the one place rows leave them, so the rows of each optimizer
    stay contiguous and a model that left costs no more work.
    """

    def __init__(self, members: list, train: Dataset, val: Dataset):
        self.members, self.train, self.val = members, train, val
        self.batch = members[0].config.batch_size
        n, k = len(train), len(members)
        self.steps_per_epoch = -(-n // self.batch)
        # Gather a block of whole batches for every model, up to _BLOCK_ROWS
        # rows in all, with one call: fewer calls than one gather per batch,
        # and far less memory than copying the training set every epoch.
        per_model = _BLOCK_ROWS // k
        self.block = min(n, max(self.batch, per_model // self.batch * self.batch))
        self.x_buf = np.empty(k * self.block * train.feature_dim)
        self.y_buf = np.empty(k * self.block, dtype=train.labels.dtype)
        inits = [init_params(m.config, train.feature_dim, train.class_count) for m in members]
        self.params = ModelParams(inits[0].sizes, np.concatenate([p.flat for p in inits]))
        self.grads = ModelParams(self.params.sizes, np.zeros_like(self.params.flat))  # reused by every step
        flat = self.params.flat
        # m, v and one step's two temporaries, for every row whatever its optimizer
        self.slots = (np.zeros_like(flat), np.zeros_like(flat), np.empty_like(flat), np.empty_like(flat))
        self._regroup(0)

    def _regroup(self, t: int) -> None:
        """Per optimizer: its rows, a state of t steps over row views of the slots, and row views
        of params and grads; and the stack's smoothing flags."""
        kinds = [m.config.optimizer for m in self.members]
        self.smoothing = tuple(m.config.label_smoothing for m in self.members)
        self.groups = []
        for kind in _OPTIMIZERS:
            if kind in kinds:
                rows = slice(kinds.index(kind), kinds.index(kind) + kinds.count(kind))
                m, v, *scratch = (a[rows] for a in self.slots)
                state = OptState(kind, m, v, tuple(scratch), t)
                params = ModelParams(self.params.sizes, self.params.flat[rows])
                self.groups.append((rows, state, params, ModelParams(self.params.sizes, self.grads.flat[rows])))

    def model(self, i: int) -> ModelParams:
        return ModelParams(self.params.sizes, self.params.flat[i : i + 1])

    def train_epoch(self, epoch: int) -> None:
        """One epoch of steps; returns early if every model froze."""
        n, batch = len(self.train), self.batch
        full = n // batch
        k = len(self.members)
        self.order, self.flips = np.empty((k, n), dtype=np.int64), np.empty((k, n), dtype=bool)
        for i, m in enumerate(self.members):
            # What Generator.permutation(n) returns: a shuffled arange.
            self.order[i] = np.arange(n)
            np.random.default_rng([m.config.seed, _STREAM_SHUFFLE, epoch]).shuffle(self.order[i])
            # One draw per row in visiting order: the numbers that one draw
            # per batch from the same generator would give.
            rng = np.random.default_rng([m.config.seed, _STREAM_AUG, epoch])
            np.less(rng.random(n), m.config.augment_prob, out=self.flips[i])
        # Ascending row order within each batch keeps accumulation order
        # canonical, so full-batch runs ignore the shuffle.
        self.order[:, : full * batch].reshape(k, full, batch).sort(axis=2)
        self.order[:, full * batch :].sort(axis=1)
        first, spe = epoch * self.steps_per_epoch, self.steps_per_epoch
        self.lrs = np.array([
            [one_cycle_lr(first + s, m.config.epochs * spe, m.config.learning_rate) for s in range(spe)]
            for m in self.members
        ])[:, :, None]  # (k, steps, 1): a (rows, 1) column per optimizer and step

        s = 0
        for start in range(0, n, self.block):
            self._gather(start)
            for at in range(0, self.x.shape[1], batch):
                losses, _ = forward_backward(self.params, self.x[:, at : at + batch], self.y[:, at : at + batch], self.smoothing, self.grads)
                # The abort check: one reduction over the whole gradient
                # buffer, and per-row results only when it fails. A model
                # whose loss or gradient is not finite freezes before any
                # optimizer steps; every other row then steps.
                if not (all(map(math.isfinite, losses)) and np.logical_and.reduce(np.isfinite(self.grads.flat), axis=None)):
                    rows_ok = np.logical_and.reduce(np.isfinite(self.grads.flat), axis=1).tolist()
                    self.freeze([i for i, (loss, ok) in enumerate(zip(losses, rows_ok)) if not (ok and math.isfinite(loss))])
                    if not self.members:
                        return
                for rows, state, params, grads in self.groups:
                    optimizer_step(state, params, grads, self.lrs[rows, s])
                s += 1

    def _gather(self, start: int) -> None:
        """Gathers this block's rows for every model into contiguous (k, m, ...) views of the buffers."""
        rows = self.order[:, start : start + self.block]
        k, m = rows.shape
        d = self.train.feature_dim
        flip = self.flips[:, start : start + m].reshape(-1)
        self.x = _gather_rows(self.train.features, rows.reshape(-1), flip, self.x_buf[: k * m * d].reshape(-1, d)).reshape(k, m, d)
        self.y = np.take(self.train.labels, rows, out=self.y_buf[: k * m].reshape(k, m))

    def freeze(self, rows: list) -> None:
        """Stops the models in these rows where they stand, mid-epoch, records them aborted and retires them."""
        for i in rows:
            m = self.members[i]
            m.status = "aborted"
            pad = m.epoch_val_acc[-1] if m.epoch_val_acc else evaluate_accuracy(self.model(i), self.val)
            m.epoch_val_acc += [pad] * (m.config.epochs - len(m.epoch_val_acc))
        self.retire(rows)

    def retire(self, rows: list) -> None:
        """Takes the models in these rows out of every per-model array, each with a copy of its parameters;
        their status stays."""
        if not rows:
            return
        for i in rows:
            self.members[i].params = ModelParams(self.params.sizes, self.params.flat[i : i + 1].copy())
        keep = [i for i in range(len(self.members)) if i not in rows]
        self.members = [self.members[i] for i in keep]
        self.params = ModelParams(self.params.sizes, self.params.flat[keep])
        self.grads = ModelParams(self.params.sizes, self.grads.flat[keep])  # this step's, not yet applied
        self.slots = tuple(a[keep] for a in self.slots)
        self.order, self.flips, self.lrs, self.x, self.y = (a[keep] for a in (self.order, self.flips, self.lrs, self.x, self.y))
        self._regroup(self.groups[0][1].t)  # every group steps every step, so all share one count
