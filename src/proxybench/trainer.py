"""Small dense-network trainer with an explicit hyperparameter surface.

The network is a plain fully-connected classifier: input -> stem_width_1 ->
stem_width_2 -> zero or more extra hidden layers (the depth knob) -> logits,
rectifier activations throughout. Everything runs in float64 on numpy, and
every source of randomness is an explicit seeded generator, so a run is a
pure function of (config, train data, val data).

Within each minibatch, example rows are processed in ascending dataset
order. That makes full-batch training bitwise independent of the shuffle
seed, which is the determinism property the test suite leans on.

Models whose configs share a stack_key train in lockstep as a stack
(train_stack), one row each of every buffer; each gets the bits of its own
run, and a single run is a stack of one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dataset import Dataset

__all__ = [
    "HyperparamConfig",
    "ModelParams",
    "RunRecord",
    "OptState",
    "GradCheckReport",
    "GradientExplosion",
    "DEPTH_EXTRA_LAYERS",
    "forward_backward",
    "optimizer_step",
    "init_opt_state",
    "one_cycle_lr",
    "init_params",
    "evaluate_accuracy",
    "train_model",
    "train_stack",
    "stack_key",
    "gradient_check",
    "config_id",
]

_STREAM_INIT = 11
_STREAM_SHUFFLE = 12
_STREAM_AUG = 13
_STREAM_GRADCHECK = 14

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


class GradientExplosion(RuntimeError):
    """Raised when a loss or gradient goes non-finite during training."""


@dataclass(frozen=True)
class HyperparamConfig:
    """One point in the hyperparameter space.

    learning_rate = 0 is allowed; it turns training into a no-op, which is
    occasionally useful as a baseline.
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
        if self.depth not in DEPTH_EXTRA_LAYERS:
            raise ValueError(f"depth must be one of {sorted(DEPTH_EXTRA_LAYERS)}, got {self.depth!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.stem_width_1 < 1 or self.stem_width_2 < 1:
            raise ValueError("stem widths must be positive")
        if not (0.0 <= self.augment_prob <= 1.0):
            raise ValueError(f"augment_prob must be in [0, 1], got {self.augment_prob}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}")
        if not isinstance(self.label_smoothing, bool):
            raise ValueError("label_smoothing must be a boolean")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "HyperparamConfig":
        return cls(**d)


def config_id(config: HyperparamConfig) -> str:
    """Stable 12-hex-char identity of a config, ignoring the seed field.

    Two runs of the same settings under different seeds share an id, which
    is what lets results be paired config-by-config across proxies.
    """
    d = config.to_dict()
    d.pop("seed")
    blob = json.dumps(d, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


class ModelParams:
    """Per-layer weights and biases, held as views into one flat float64 buffer.

    sizes lists the layer widths, input first and class count last. flat holds
    every weight matrix (row-major, layer order) and then every bias vector;
    weights[i] and biases[i] are reshaped views into it, so writing through
    either side changes both. Gradients use the same class and layout, which
    lets the optimizer and the gradient check work on flat alone.

    A stack of k models of the same sizes has a (k, P) flat, one model per
    row. Its weights[i] are then (k, fan_in, fan_out) and its biases[i]
    (k, 1, fan_out), which broadcast over a (k, rows, fan_out) batch.

    scratch holds the activation and delta buffers forward_backward keeps on
    the gradient buffer it writes, one set per batch size.
    """

    def __init__(self, sizes, flat: np.ndarray | None = None):
        self.sizes = tuple(sizes)
        self.scratch: dict = {}
        shapes = list(zip(self.sizes[:-1], self.sizes[1:]))
        n_weights = sum(fan_in * fan_out for fan_in, fan_out in shapes)
        n = n_weights + sum(self.sizes[1:])
        self.flat = np.zeros(n) if flat is None else flat
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != n:
            raise ValueError(f"flat must have shape ({n},) or (k, {n}) for sizes {self.sizes}, got {self.flat.shape}")
        lead = self.flat.shape[:-1]
        self.weights, self.biases = [], []
        w_at, b_at = 0, n_weights
        for fan_in, fan_out in shapes:
            bias_shape = (*lead, 1, fan_out) if lead else (fan_out,)
            self.weights.append(self.flat[..., w_at : w_at + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
            self.biases.append(self.flat[..., b_at : b_at + fan_out].reshape(bias_shape))
            w_at += fan_in * fan_out
            b_at += fan_out

    @functools.cached_property
    def solo(self) -> "ModelParams":
        """The model of a one-model stack as a model of its own, sharing flat."""
        return ModelParams(self.sizes, self.flat[0])

    def n_params(self) -> int:
        """Parameters per model."""
        return self.flat.shape[-1]

    def all_finite(self) -> bool:
        return bool(np.logical_and.reduce(np.isfinite(self.flat), axis=None))  # .all() without its wrapper


@dataclass
class RunRecord:
    """Outcome of one training run.

    cost_units is the budgeted cost |train| * epochs; an aborted run keeps
    its nominal cost, and its accuracy list is padded to full length with
    the last observed value. wall_ms is the wall time of the run, or of the
    whole stack for a model trained in one.
    """

    dataset_id: str
    proxy_id: str
    config_id: str
    seed: int
    epoch_val_acc: list
    best_val_acc: float
    cost_units: float
    wall_ms: int
    status: str = "ok"

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "proxy_id": self.proxy_id,
            "config_id": self.config_id,
            "seed": self.seed,
            "epoch_val_acc": self.epoch_val_acc,
            "best_val_acc": self.best_val_acc,
            "cost_units": self.cost_units,
            "wall_ms": self.wall_ms,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(**d)


@dataclass
class OptState:
    """Optimizer slots, laid out like ModelParams.flat; sgd keeps none.

    scratch holds two more such vectors for the temporaries of one step.
    """

    kind: str
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: tuple | None = None


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_coords: int
    tolerance: float
    n_skipped: int = 0  # coordinates straddling a rectifier kink


@functools.lru_cache(maxsize=None)
def _target_table(class_count: int, smoothing) -> np.ndarray:
    """Row c is the training target for label c.

    It puts 0.9 on the labeled class and spreads the rest uniformly when
    smoothing is on; one-hot otherwise. For a stack, smoothing is a tuple of
    flags and model i's table is rows i*class_count onward. Shared, so
    read-only.
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
    """Fan-in-scaled gaussian weights, zero biases, seeded from config.seed."""
    sizes = (
        [feature_dim, config.stem_width_1, config.stem_width_2]
        + [config.stem_width_2] * DEPTH_EXTRA_LAYERS[config.depth]
        + [class_count]
    )
    params = ModelParams(sizes)
    rng = np.random.default_rng([config.seed, _STREAM_INIT])
    for w in params.weights:
        w[:] = rng.standard_normal(w.shape) * math.sqrt(2.0 / w.shape[0])
    return params


def _layer_outputs(sizes, *rows) -> list:
    """Output buffers for every layer, each (*rows, width)."""
    return [np.empty((*rows, width)) for width in sizes[1:]]


def _forward(params: ModelParams, x: np.ndarray, outs: list) -> np.ndarray:
    """Writes each layer's output to outs (rectified, but logits for the last); returns the logits."""
    h = x
    last = len(outs) - 1
    for i, (w, b, out) in enumerate(zip(params.weights, params.biases, outs)):
        np.matmul(h, w, out=out)
        out += b
        if i < last:
            np.maximum(out, 0.0, out=out)
        h = out
    return h


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
    """forward_backward's buffers for batches of one shape: (rows,), or (k, rows) for a stack."""

    def __init__(self, sizes, rows: tuple):
        self.acts = _layer_outputs(sizes, *rows)
        self.acts_t = [a.swapaxes(-1, -2) for a in self.acts[:-1]]
        self.deltas = _layer_outputs(sizes[:-1], *rows)
        self.live = [np.empty((*rows, width), dtype=bool) for width in sizes[1:-1]]
        self.probs = np.empty((*rows, sizes[-1]))
        self.per_model = self.probs.reshape(*rows[:-1], -1)  # each model's loss terms, flat
        self.target = np.empty((*rows, sizes[-1]))
        self.row = np.empty((*rows, 1))
        self.labels = np.empty(rows, dtype=np.int64)


def forward_backward(params: ModelParams, features: np.ndarray, labels: np.ndarray, smoothing, grads: ModelParams | None = None):
    """Mean batch loss and exact analytic gradients, laid out like params.

    For one model, features is (n, d), labels (n,), smoothing a bool, and
    the loss a float. For a stack of k models (params.flat is (k, P)),
    features is (k, n, d), labels (k, n), smoothing a tuple of k flags, and
    the loss a list of k floats: row i is model i's batch, and model i's
    loss and gradient are bitwise those of its own call.

    grads, when given, is overwritten and returned; otherwise a new buffer
    is allocated, so results kept from earlier calls stay intact. The
    activations and deltas go to buffers kept in grads.scratch, so a run that
    passes the same grads every step allocates them once per batch size.

    The loss is label-smoothed cross-entropy (see _target_table); the
    gradient of each row's loss with respect to its logits is
    softmax(logits) - target.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    lead = params.flat.shape[:-1]  # () for one model, (k,) for a stack
    if x.shape[:-2] != lead or y.shape != x.shape[:-1] or x.shape[-1] != params.sizes[0] or x.shape[-2] == 0:
        rows = ", ".join(map(str, (*lead, "n")))
        raise ValueError(f"need non-empty ({rows}, {params.sizes[0]}) features and ({rows}) labels, got shapes {x.shape} and {y.shape}")
    if lead and len(smoothing) != lead[0]:
        raise ValueError(f"{len(smoothing)} smoothing flags for a stack of {lead[0]}")
    if grads is None:
        grads = ModelParams(params.sizes, np.zeros_like(params.flat))
    if lead == (1,):  # numpy's 2-D calls cost less than their stacked form, for the same bits
        loss, _ = _forward_backward(params.solo, x[0], y[0], smoothing[0], grads.solo)
        return [loss], grads
    return _forward_backward(params, x, y, smoothing, grads)


def _forward_backward(params: ModelParams, x: np.ndarray, y: np.ndarray, smoothing, grads: ModelParams):
    """forward_backward on checked arguments."""
    lead = params.flat.shape[:-1]
    n = x.shape[-2]
    s = grads.scratch.get(n)
    if s is None:
        s = grads.scratch[n] = _Scratch(params.sizes, x.shape[:-1])
    acts, probs, target = s.acts, s.probs, s.target
    classes = params.sizes[-1]

    logp = _log_softmax(_forward(params, x, acts), s.row, probs)
    if lead:
        y = np.add(y, _label_offsets(lead[0], classes), out=s.labels)
    _target_table(classes, smoothing).take(y, 0, target)
    np.multiply(target, logp, out=probs)
    totals = np.add.reduce(s.per_model, axis=-1).tolist()
    loss = [-total / n for total in totals] if lead else -totals / n
    delta = np.exp(logp, out=probs)
    delta -= target
    delta /= n  # dloss/dlogits

    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(s.acts_t[i - 1] if i > 0 else x.swapaxes(-1, -2), delta, out=grads.weights[i])
        np.add.reduce(delta, axis=-2, keepdims=bool(lead), out=grads.biases[i])
        if i > 0:
            below = np.matmul(delta, params.weights[i].swapaxes(-1, -2), out=s.deltas[i - 1])
            below *= np.greater(acts[i - 1], 0.0, out=s.live[i - 1])
            delta = below
    return loss, grads


def init_opt_state(optimizer: str, params: ModelParams) -> OptState:
    if optimizer not in _OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")
    if optimizer == "sgd":
        return OptState(kind="sgd")
    scratch = (np.empty_like(params.flat), np.empty_like(params.flat))
    if optimizer == "adam":
        return OptState(kind="adam", m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), scratch=scratch)
    return OptState(kind="rmsprop", v=np.zeros_like(params.flat), scratch=scratch)


def optimizer_step(state: OptState, params: ModelParams, grads: ModelParams, lr: float):
    """Apply one update in place; returns (params, state) for convenience.

    For a stack, params and grads hold the rows of the models this state
    updates, and lr is a (rows, 1) column: every row steps together.
    SGD: p -= lr*g. Adam: bias-corrected, beta1=0.9, beta2=0.999, eps=1e-8.
    RMSProp: rho=0.99, eps=1e-8, no momentum. A non-finite gradient raises
    GradientExplosion so the caller can record the run as aborted.
    """
    if not grads.all_finite():
        raise GradientExplosion("non-finite gradient")
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
    ends at lr_max/1e4.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not (0 <= step < total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps})")
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


def _gather_rows(features: np.ndarray, rows: np.ndarray, flip: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """Copy features[rows] into out, reversing the features of each row where flip is set.

    The reversal is the 1-D counterpart of a horizontal image flip: a fixed,
    label-preserving transform. features itself is never written, and a flip
    of None reverses nothing. rows are clipped into range, not checked,
    which spares take a temporary copy of the block; the trainer's come
    from a permutation of the rows.
    """
    np.take(features, rows, axis=0, out=out, mode="clip")
    if flip is not None:
        out[flip] = out[flip, ::-1]
    return out


def evaluate_accuracy(params: ModelParams, d: Dataset) -> float:
    """Fraction of examples whose argmax logit matches the label."""
    if len(d) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = _forward(params, d.features, _layer_outputs(params.sizes, len(d)))
    return float(np.mean(np.argmax(logits, axis=1) == d.labels))


def stack_key(config: HyperparamConfig) -> tuple:
    """Configs with equal keys can train in one stack: same layer sizes, batch size and epochs."""
    return (config.depth, config.stem_width_1, config.stem_width_2, config.batch_size, config.epochs)


def train_model(
    train: Dataset,
    val: Dataset,
    config: HyperparamConfig,
    *,
    proxy_id: str = "full",
    config_key: str | None = None,
    shuffle_seed: int | None = None,
):
    """Train a fresh model; returns (RunRecord, ModelParams).

    Deterministic given (config, data): initialization is seeded from
    config.seed, and the per-epoch shuffle and augmentation draws from
    (shuffle_seed or config.seed, epoch). Validation accuracy is measured
    after every epoch and best_val_acc is the max over epochs.

    A non-finite loss or gradient aborts the run: the record comes back
    with status "aborted", its accuracy list padded with the last observed
    value (or the current model's accuracy if no epoch finished), and its
    nominal cost intact. The run is a stack of one (see train_stack).
    """
    return train_stack(train, val, [config], proxy_id=proxy_id, config_keys=[config_key], shuffle_seeds=[shuffle_seed])[0]


def train_stack(
    train: Dataset,
    val: Dataset,
    configs: list,
    *,
    proxy_id: str = "full",
    config_keys: list | None = None,
    shuffle_seeds: list | None = None,
) -> list:
    """Train configs of one stack_key in lockstep; returns a (RunRecord, ModelParams) per config, in order.

    Each model gets the bits of its own train_model run: it keeps its own
    initialization, shuffle and flip streams, target table, learning-rate
    schedule and abort. A model whose loss or gradient goes non-finite is
    frozen at that step and recorded as aborted; the others go on. Each step
    is one forward_backward over the stack and one optimizer_step per
    optimizer over that optimizer's rows; evaluation stays one model at a
    time. Every record's wall_ms is the stack's wall time.
    """
    configs = list(configs)
    k = len(configs)
    config_keys = [None] * k if config_keys is None else list(config_keys)
    shuffle_seeds = [None] * k if shuffle_seeds is None else list(shuffle_seeds)
    if k == 0 or len(config_keys) != k or len(shuffle_seeds) != k:
        raise ValueError("need one config key and shuffle seed per config, and at least one config")
    if len({stack_key(c) for c in configs}) != 1:
        raise ValueError("configs of a stack must share layer sizes, batch size and epochs")
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and val must be non-empty")
    if train.feature_dim != val.feature_dim or train.class_count != val.class_count:
        raise ValueError("train and val shapes disagree")

    t0 = time.perf_counter()
    members = [
        _Member(c, c.seed if seed is None else seed, config_id(c) if key is None else key)
        for c, seed, key in zip(configs, shuffle_seeds, config_keys)
    ]
    stack = _Stack(sorted(members, key=lambda m: _OPTIMIZERS.index(m.config.optimizer)), train, val)
    # Divergent configs overflow on purpose before the abort check catches
    # them, and a half-blown model can overflow again while being evaluated;
    # don't let numpy warn about either.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(configs[0].epochs):
            stack.train_epoch(epoch)
            if not stack.members:
                break
            for i, m in enumerate(stack.members):
                m.epoch_val_acc.append(evaluate_accuracy(stack.model(i), val))
    for i, m in enumerate(stack.members):
        m.params = stack.model(i)

    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    return [
        (
            RunRecord(
                dataset_id=train.id,
                proxy_id=proxy_id,
                config_id=m.config_key,
                seed=m.config.seed,
                epoch_val_acc=m.epoch_val_acc,
                best_val_acc=max(m.epoch_val_acc),
                cost_units=float(len(train) * m.config.epochs),
                wall_ms=wall_ms,
                status=m.status,
            ),
            m.params,
        )
        for m in members
    ]


@dataclass
class _Member:
    """One model of a stack: what it trains with, and how it ended."""

    config: HyperparamConfig
    order_seed: int
    config_key: str
    epoch_val_acc: list = field(default_factory=list)
    status: str = "ok"
    params: ModelParams | None = None


class _Stack:
    """The models of a stack still training, one row each, grouped by optimizer.

    Row i of every per-model array (parameters, gradients, optimizer slots,
    this epoch's shuffle order, flips and learning rates, the gathered
    block) belongs to members[i]. freeze() takes rows out, so the rows of
    each optimizer stay contiguous and a frozen model costs no more work.
    """

    def __init__(self, members: list, train: Dataset, val: Dataset):
        cfg = members[0].config
        self.members, self.train, self.val = members, train, val
        self.batch = cfg.batch_size
        n = len(train)
        self.steps_per_epoch = -(-n // self.batch)
        self.total_steps = cfg.epochs * self.steps_per_epoch
        # Gather a block of whole batches for every model, up to _BLOCK_ROWS
        # rows in all, with one call: fewer calls than one gather per batch,
        # and far less memory than copying the training set every epoch.
        per_model = _BLOCK_ROWS // len(members)
        self.block = min(n, max(self.batch, per_model // self.batch * self.batch))
        self.x_buf = np.empty(len(members) * self.block * train.feature_dim)
        self.y_buf = np.empty(len(members) * self.block, dtype=train.labels.dtype)
        inits = [init_params(m.config, train.feature_dim, train.class_count) for m in members]
        self.params = ModelParams(inits[0].sizes, np.stack([p.flat for p in inits]))
        self.grads = ModelParams(self.params.sizes, np.zeros_like(self.params.flat))  # reused by every step
        self._regroup({})

    def _regroup(self, states: dict) -> None:
        """Per optimizer: its rows, state (from states, or fresh) and row views; and the stack's smoothing flags."""
        kinds = [m.config.optimizer for m in self.members]
        self.smoothing = tuple(m.config.label_smoothing for m in self.members)
        self.groups = []
        for kind in _OPTIMIZERS:
            if kind in kinds:
                lo = kinds.index(kind)
                hi = lo + kinds.count(kind)
                params = ModelParams(self.params.sizes, self.params.flat[lo:hi])
                state = states.get(kind) or init_opt_state(kind, params)
                self.groups.append((lo, hi, state, params, ModelParams(self.params.sizes, self.grads.flat[lo:hi])))

    def model(self, i: int) -> ModelParams:
        return ModelParams(self.params.sizes, self.params.flat[i])

    def train_epoch(self, epoch: int) -> None:
        """One epoch of steps; returns early if every model froze."""
        n, batch = len(self.train), self.batch
        full = n // batch
        k = len(self.members)
        self.order = np.empty((k, n), dtype=np.int64)
        self.flips = None
        if any(m.config.augment_prob > 0.0 for m in self.members):
            self.flips = np.zeros((k, n), dtype=bool)
        for i, m in enumerate(self.members):
            self.order[i] = np.random.default_rng([m.order_seed, _STREAM_SHUFFLE, epoch]).permutation(n)
            # One draw per row in visiting order: the numbers that one draw
            # per batch from the same generator would give.
            if m.config.augment_prob > 0.0:
                self.flips[i] = np.random.default_rng([m.order_seed, _STREAM_AUG, epoch]).random(n) < m.config.augment_prob
        # Ascending row order within each batch keeps accumulation order
        # canonical, so full-batch runs ignore the shuffle.
        self.order[:, : full * batch].reshape(k, full, batch).sort(axis=2)
        self.order[:, full * batch :].sort(axis=1)
        first = epoch * self.steps_per_epoch
        self.lrs = np.array([
            [one_cycle_lr(first + s, self.total_steps, m.config.learning_rate) for s in range(self.steps_per_epoch)]
            for m in self.members
        ])[:, :, None]  # (k, steps, 1): a (rows, 1) column per optimizer and step

        s = 0
        for start in range(0, n, self.block):
            self._gather(start)
            for lo in range(0, self.x.shape[1], batch):
                losses, _ = forward_backward(self.params, self.x[:, lo : lo + batch], self.y[:, lo : lo + batch], self.smoothing, self.grads)
                if not all(map(math.isfinite, losses)):
                    self.freeze([i for i, loss in enumerate(losses) if not math.isfinite(loss)])
                self._step(s)
                if not self.members:
                    return
                s += 1

    def _gather(self, start: int) -> None:
        """Gathers this block's rows for every model into contiguous (k, m, ...) views of the buffers."""
        rows = self.order[:, start : start + self.block]
        k, m = rows.shape
        d = self.train.feature_dim
        flip = None if self.flips is None else self.flips[:, start : start + m].reshape(-1)
        self.x = _gather_rows(self.train.features, rows.reshape(-1), flip, self.x_buf[: k * m * d].reshape(-1, d)).reshape(k, m, d)
        self.y = np.take(self.train.labels, rows, out=self.y_buf[: k * m].reshape(k, m))

    def _step(self, s: int, first: int = 0) -> None:
        """One optimizer_step per optimizer from group first on, at this epoch's step s.

        If a step raises GradientExplosion, the rows of that call whose
        gradient is not finite freeze (all of them if none is: the failure
        came from elsewhere), and the call is made again for the rest.
        """
        for g, (lo, hi, state, params, grads) in enumerate(self.groups[first:], first):
            try:
                optimizer_step(state, params, grads, self.lrs[lo:hi, s])
            except GradientExplosion:
                bad = np.flatnonzero(~np.logical_and.reduce(np.isfinite(grads.flat), axis=1)).tolist()
                self.freeze([lo + r for r in bad or range(hi - lo)])
                # groups before g are unchanged; g now holds this optimizer's other rows, or the next optimizer's
                return self._step(s, g)

    def freeze(self, rows: list) -> None:
        """Stops the models in these rows where they stand and records them aborted."""
        for i in rows:
            m = self.members[i]
            m.status = "aborted"
            m.params = ModelParams(self.params.sizes, self.params.flat[i].copy())
            pad = m.epoch_val_acc[-1] if m.epoch_val_acc else evaluate_accuracy(m.params, self.val)
            m.epoch_val_acc += [pad] * (m.config.epochs - len(m.epoch_val_acc))
        keep = [i for i in range(len(self.members)) if i not in rows]
        states = {}
        for lo, hi, state, _, _ in self.groups:
            local = [i - lo for i in keep if lo <= i < hi]
            if local:
                states[state.kind] = replace(
                    state,
                    m=None if state.m is None else state.m[local],
                    v=None if state.v is None else state.v[local],
                    scratch=None if state.scratch is None else tuple(a[local] for a in state.scratch),
                )
        self.members = [self.members[i] for i in keep]
        self.params = ModelParams(self.params.sizes, self.params.flat[keep])
        self.grads = ModelParams(self.params.sizes, self.grads.flat[keep])  # this step's, not yet applied
        self.order, self.lrs, self.x, self.y = (a[keep] for a in (self.order, self.lrs, self.x, self.y))
        if self.flips is not None:
            self.flips = self.flips[keep]
        self._regroup(states)


def gradient_check(
    config: HyperparamConfig,
    d: Dataset,
    tolerance: float = 1e-4,
    n_coords: int = 100,
    seed: int = 0,
    grad_fn=forward_backward,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Perturbs n_coords randomly chosen parameter coordinates by h=1e-4 and
    reports the max relative error |analytic - fd| / max(|a|, |fd|, 1e-6).
    A coordinate whose perturbation flips a rectifier on or off is skipped:
    central differences are meaningless across the kink. grad_fn is
    injectable so a corrupted gradient can be shown to fail. Restricted to
    networks of at most 1e4 parameters to keep it quick.
    """
    params = init_params(config, d.feature_dim, d.class_count)
    if params.n_params() > 10_000:
        raise ValueError(f"network too large for gradient check: {params.n_params()} params")

    x, y = d.features, d.labels
    _, grads = grad_fn(params, x, y, config.label_smoothing)

    def relu_masks():
        outs = _layer_outputs(params.sizes, len(x))
        _forward(params, x, outs)
        return [h > 0 for h in outs[:-1]]

    h = 1e-4
    rng = np.random.default_rng([seed, _STREAM_GRADCHECK])
    coords = rng.integers(0, params.n_params(), size=n_coords)
    max_rel = 0.0
    n_skipped = 0
    for i in coords:
        orig = params.flat[i]
        params.flat[i] = orig + h
        loss_plus, _ = grad_fn(params, x, y, config.label_smoothing)
        masks_plus = relu_masks()
        params.flat[i] = orig - h
        loss_minus, _ = grad_fn(params, x, y, config.label_smoothing)
        masks_minus = relu_masks()
        params.flat[i] = orig
        if any(not np.array_equal(mp, mm) for mp, mm in zip(masks_plus, masks_minus)):
            n_skipped += 1
            continue
        fd = (loss_plus - loss_minus) / (2.0 * h)
        a = grads.flat[i]
        rel = float(abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        max_rel = max(max_rel, rel)
    return GradCheckReport(
        passed=bool(max_rel < tolerance),
        max_rel_err=max_rel,
        n_coords=n_coords,
        tolerance=tolerance,
        n_skipped=n_skipped,
    )
