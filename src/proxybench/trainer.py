"""Small dense-network trainer with an explicit hyperparameter surface.

The network is a plain fully-connected classifier: input -> stem_width_1 ->
stem_width_2 -> zero or more extra hidden layers (the depth knob) -> logits,
rectifier activations throughout. Everything runs in float64 on numpy, and
every source of randomness is an explicit seeded generator, so a run is a
pure function of (config, train data, val data).

Within each minibatch, example rows are processed in ascending dataset
order. That makes full-batch training bitwise independent of the shuffle
seed, which is the determinism property the test suite leans on.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, fields

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

# train_model gathers the rows of a block of whole batches, up to this many
# rows, with one call: fewer calls than one gather per batch, and far less
# memory than copying the training set every epoch.
_BLOCK_ROWS = 1024


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
    """Per-layer weights and biases, held as views into one flat float64 vector.

    sizes lists the layer widths, input first and class count last. flat holds
    every weight matrix (row-major, layer order) and then every bias vector;
    weights[i] and biases[i] are reshaped views into it, so writing through
    either side changes both. Gradients use the same class and layout, which
    lets the optimizer and the gradient check work on flat alone.

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
        if self.flat.shape != (n,):
            raise ValueError(f"flat must have shape ({n},) for sizes {self.sizes}, got {self.flat.shape}")
        self.weights, self.biases = [], []
        w_at, b_at = 0, n_weights
        for fan_in, fan_out in shapes:
            self.weights.append(self.flat[w_at : w_at + fan_in * fan_out].reshape(fan_in, fan_out))
            self.biases.append(self.flat[b_at : b_at + fan_out])
            w_at += fan_in * fan_out
            b_at += fan_out

    def n_params(self) -> int:
        return self.flat.size

    def all_finite(self) -> bool:
        return bool(np.logical_and.reduce(np.isfinite(self.flat)))  # .all() without its wrapper


@dataclass
class RunRecord:
    """Outcome of one training run.

    cost_units is the budgeted cost |train| * epochs; an aborted run keeps
    its nominal cost, and its accuracy list is padded to full length with
    the last observed value.
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
def _target_table(class_count: int, smoothing: bool) -> np.ndarray:
    """Row c is the training target for label c.

    It puts 0.9 on the labeled class and spreads the rest uniformly when
    smoothing is on; one-hot otherwise. Shared, so read-only.
    """
    if smoothing:
        table = np.full((class_count, class_count), (1.0 - _SMOOTH_TARGET) / (class_count - 1))
        np.fill_diagonal(table, _SMOOTH_TARGET)
    else:
        table = np.eye(class_count)
    table.flags.writeable = False
    return table


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


def _layer_outputs(sizes, rows: int) -> list:
    return [np.empty((rows, width)) for width in sizes[1:]]


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
    """Turns logits into log-probabilities in place; row (n, 1) and probs (like logits) are scratch."""
    np.maximum.reduce(logits, axis=1, keepdims=True, out=row)
    logits -= row
    np.exp(logits, out=probs)
    np.add.reduce(probs, axis=1, keepdims=True, out=row)
    np.log(row, out=row)
    logits -= row
    return logits


class _Scratch:
    """forward_backward's buffers for batches of one size."""

    def __init__(self, sizes, rows: int):
        self.acts = _layer_outputs(sizes, rows)
        self.deltas = [np.empty((rows, width)) for width in sizes[1:-1]]
        self.live = [np.empty((rows, width), dtype=bool) for width in sizes[1:-1]]
        self.probs = np.empty((rows, sizes[-1]))
        self.target = np.empty((rows, sizes[-1]))
        self.row = np.empty((rows, 1))


def forward_backward(params: ModelParams, features: np.ndarray, labels: np.ndarray, smoothing: bool, grads: ModelParams | None = None):
    """Mean batch loss and exact analytic gradients, laid out like params.

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
    if x.ndim != 2 or len(x) == 0:
        raise ValueError(f"batch features must be a non-empty 2-D array, got shape {x.shape}")
    if len(y) != len(x):
        raise ValueError(f"{len(y)} labels for {len(x)} examples")
    if x.shape[1] != params.weights[0].shape[0]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match first layer fan-in {params.weights[0].shape[0]}"
        )

    if grads is None:
        grads = ModelParams(params.sizes)
    n = len(x)
    s = grads.scratch.get(n)
    if s is None:
        s = grads.scratch[n] = _Scratch(params.sizes, n)
    acts, probs, target = s.acts, s.probs, s.target

    logp = _log_softmax(_forward(params, x, acts), s.row, probs)
    _target_table(params.sizes[-1], smoothing).take(y, 0, target)
    np.multiply(target, logp, out=probs)
    loss = float(-np.add.reduce(probs, axis=None) / n)
    delta = np.exp(logp, out=probs)
    delta -= target
    delta /= n  # dloss/dlogits

    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul((acts[i - 1] if i > 0 else x).T, delta, out=grads.weights[i])
        np.add.reduce(delta, axis=0, out=grads.biases[i])
        if i > 0:
            below = np.matmul(delta, params.weights[i].T, out=s.deltas[i - 1])
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
    which spares take a temporary copy of the block; train_model's come
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
    nominal cost intact.
    """
    if len(train) == 0 or len(val) == 0:
        raise ValueError("train and val must be non-empty")
    if train.feature_dim != val.feature_dim or train.class_count != val.class_count:
        raise ValueError("train and val shapes disagree")

    t0 = time.perf_counter()
    params = init_params(config, train.feature_dim, train.class_count)
    opt_state = init_opt_state(config.optimizer, params)
    grads = ModelParams(params.sizes)  # reused by every step
    order_seed = config.seed if shuffle_seed is None else shuffle_seed

    n = len(train)
    batch = config.batch_size
    full = n // batch
    steps_per_epoch = -(-n // batch)
    total_steps = config.epochs * steps_per_epoch
    block = min(n, max(batch, _BLOCK_ROWS // batch * batch))  # whole batches
    x_block = np.empty((block, train.feature_dim))
    y_block = np.empty(block, dtype=train.labels.dtype)

    epoch_val_acc: list[float] = []
    status = "ok"
    step = 0
    # Divergent configs overflow on purpose before the abort check catches
    # them, and a half-blown model can overflow again while being evaluated;
    # don't let numpy warn about either.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = np.random.default_rng([order_seed, _STREAM_SHUFFLE, epoch]).permutation(n)
            # Ascending row order within each batch keeps accumulation order
            # canonical, so full-batch runs ignore the shuffle.
            order[: full * batch].reshape(full, batch).sort(axis=1)
            order[full * batch :].sort()
            # One draw per row in visiting order: the numbers that one draw
            # per batch from the same generator would give.
            flips = None
            if config.augment_prob > 0.0:
                flips = np.random.default_rng([order_seed, _STREAM_AUG, epoch]).random(n) < config.augment_prob
            try:
                for start in range(0, n, block):
                    rows = order[start : start + block]
                    m = len(rows)
                    flip = None if flips is None else flips[start : start + m]
                    x = _gather_rows(train.features, rows, flip, x_block[:m])
                    y = np.take(train.labels, rows, out=y_block[:m])
                    for lo in range(0, m, batch):
                        loss, _ = forward_backward(params, x[lo : lo + batch], y[lo : lo + batch], config.label_smoothing, grads)
                        if not math.isfinite(loss):
                            raise GradientExplosion(f"non-finite loss at step {step}")
                        lr = one_cycle_lr(step, total_steps, config.learning_rate)
                        optimizer_step(opt_state, params, grads, lr)
                        step += 1
            except GradientExplosion:
                status = "aborted"
                break
            epoch_val_acc.append(evaluate_accuracy(params, val))

        if status == "aborted":
            pad = epoch_val_acc[-1] if epoch_val_acc else evaluate_accuracy(params, val)
            epoch_val_acc = epoch_val_acc + [pad] * (config.epochs - len(epoch_val_acc))

    wall_ms = int(round((time.perf_counter() - t0) * 1000))
    record = RunRecord(
        dataset_id=train.id,
        proxy_id=proxy_id,
        config_id=config_key if config_key is not None else config_id(config),
        seed=config.seed,
        epoch_val_acc=epoch_val_acc,
        best_val_acc=max(epoch_val_acc),
        cost_units=float(n * config.epochs),
        wall_ms=wall_ms,
        status=status,
    )
    return record, params


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
