"""The finite-difference oracle for the trainer's analytic gradients.

Shared by tests/test_trainer.py and acceptance 1; the package itself never
checks its gradients this way.
"""

from dataclasses import dataclass

import numpy as np

from proxybench.dataset import Dataset
from proxybench.trainer import HyperparamConfig, ModelParams, _forward, _layer_outputs, forward_backward, init_params

_STREAM_GRADCHECK = 14


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    max_rel_err: float
    n_coords: int
    tolerance: float
    n_skipped: int = 0  # coordinates straddling a rectifier kink


def n_params(params: ModelParams) -> int:
    """Parameters per model."""
    return params.flat.shape[-1]


def fresh_forward_backward(params: ModelParams, x, y, smoothing):
    """A stack of one model's (loss, gradient) from forward_backward, into a new gradient buffer,
    so gradients kept from earlier calls stay intact."""
    (loss,), grads = forward_backward(params, x[None], y[None], (smoothing,), ModelParams(params.sizes, np.zeros_like(params.flat)))
    return loss, grads


def gradient_check(
    config: HyperparamConfig,
    d: Dataset,
    tolerance: float = 1e-4,
    n_coords: int = 100,
    seed: int = 0,
    grad_fn=fresh_forward_backward,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Perturbs n_coords randomly chosen parameter coordinates by h=1e-4 and
    reports the max relative error |analytic - fd| / max(|a|, |fd|, 1e-6).
    A coordinate whose perturbation flips a rectifier on or off is skipped:
    central differences are meaningless across the kink. grad_fn is
    injectable so a corrupted gradient can be shown to fail; it must return
    a new gradient buffer on every call. Restricted to networks of at most
    1e4 parameters to keep it quick.
    """
    params = init_params(config, d.feature_dim, d.class_count)
    if n_params(params) > 10_000:
        raise ValueError(f"network too large for gradient check: {n_params(params)} params")

    x, y = d.features, d.labels
    _, grads = grad_fn(params, x, y, config.label_smoothing)

    def relu_masks():
        outs = _layer_outputs(params.sizes, 1, len(x))
        _forward(params, x, outs)
        return [h > 0 for h in outs[:-1]]

    h = 1e-4
    rng = np.random.default_rng([seed, _STREAM_GRADCHECK])
    coords = rng.integers(0, n_params(params), size=n_coords)
    max_rel = 0.0
    n_skipped = 0
    for i in coords:
        orig = params.flat[0, i]
        params.flat[0, i] = orig + h
        loss_plus, _ = grad_fn(params, x, y, config.label_smoothing)
        masks_plus = relu_masks()
        params.flat[0, i] = orig - h
        loss_minus, _ = grad_fn(params, x, y, config.label_smoothing)
        masks_minus = relu_masks()
        params.flat[0, i] = orig
        if any(not np.array_equal(mp, mm) for mp, mm in zip(masks_plus, masks_minus)):
            n_skipped += 1
            continue
        fd = (loss_plus - loss_minus) / (2.0 * h)
        a = grads.flat[0, i]
        rel = float(abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        max_rel = max(max_rel, rel)
    return GradCheckReport(
        passed=bool(max_rel < tolerance),
        max_rel_err=max_rel,
        n_coords=n_coords,
        tolerance=tolerance,
        n_skipped=n_skipped,
    )
