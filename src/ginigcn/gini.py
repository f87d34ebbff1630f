"""Gini coefficient over weight magnitudes and the L / g^m regularized loss.

The coefficient is computed over |w| and is 0 when all magnitudes are equal,
approaching 1 as the mass concentrates in a single weight (the attainable
maximum for n weights is (n - 1) / n). The evaluation uses the O(n log n)
sorted form, which is an exact identity with the double-sum definition

    g = sum_i sum_j | |w_i| - |w_j| | / (2 n^2 mean|w|).

The training divisor combines the two aggregation-block coefficients by
geometric mean and is evaluated in log space so that large exponents stay
numerically sane near-uniform weights. The loss is one autodiff node; its
backward reads the same sorted form as the coefficient and its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "GiniConfig",
    "RegularizerReport",
    "gini",
    "gini_gradient",
    "layer_gini_blocks",
    "regularized_loss",
]


@dataclass
class GiniConfig:
    """Regularization strength m and the floor guarding g^m underflow."""

    m: float = 10.0
    g_floor: float = 1e-6

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if not 0.0 < self.g_floor < 1.0:
            raise ValueError("g_floor must lie in (0, 1)")


@dataclass
class RegularizerReport:
    """Per-step record of the block coefficients and both loss values."""

    g_mean_block: float
    g_max_block: float
    g_effective: float
    raw_loss: float
    regularized_loss: float


def _sorted_coeffs(n: int) -> np.ndarray:
    # 2k - n - 1 for ascending rank k = 1..n
    return 2.0 * np.arange(1, n + 1) - n - 1.0


def _sorted_form(a: np.ndarray):
    # (order, num, den) of 1-d magnitudes: gini = num / den, den = 0 iff all are 0
    order = np.argsort(a, kind="stable")
    return order, (a[order] * _sorted_coeffs(a.size)).sum(), a.sum() * a.size


def gini(w) -> float:
    """Gini coefficient of |w| (any shape, flattened), in [0, (n-1)/n].

    An all-zero vector is degenerate and returns 0; callers that divide by
    the coefficient are expected to apply their floor.
    """
    a = np.abs(np.asarray(w, dtype=np.float64).ravel())
    if a.size < 1:
        raise ValueError("gini requires at least one weight")
    _, num, den = _sorted_form(a)
    # near-equal values can leave a tiny negative summation residual
    return max(float(num / den), 0.0) if den else 0.0


def _scaled_gradient(w: np.ndarray, scale) -> np.ndarray:
    # Gradient of scale * gini(w) with the sort order held fixed; sign(0) = 0.
    a = np.abs(w.ravel())
    order, num, den = _sorted_form(a)
    if den == 0.0:
        return np.zeros_like(w)
    da = np.zeros(a.size)
    da[order] += _sorted_coeffs(a.size) * (scale / den)
    # den * den, not den ** 2: pow() on a numpy scalar can round differently
    da += (-scale * num / (den * den)) * a.size
    return (da * np.sign(w.ravel())).reshape(w.shape)


def gini_gradient(w) -> np.ndarray:
    """Analytic gradient of the Gini coefficient with respect to w.

    Valid away from magnitude ties (rank changes) and uses the subgradient
    sign(0) = 0 at zero entries; :func:`regularized_loss` scales it per block.
    """
    return _scaled_gradient(np.asarray(w, dtype=np.float64), 1.0)


def layer_gini_blocks(w_out, block_size: int) -> tuple[float, float]:
    """Gini coefficients of the mean- and max-aggregation weight blocks.

    Rows [0, block_size) of the output weight matrix act on the mean
    aggregation, rows [block_size, 2*block_size) on the max aggregation.
    Each block is flattened across all targets before the coefficient.
    """
    w = np.asarray(w_out, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != 2 * block_size:
        raise ad.ShapeError(
            f"output weights of shape {w.shape} do not split into two "
            f"blocks of {block_size} rows"
        )
    return gini(w[:block_size]), gini(w[block_size:])


def regularized_loss(raw: ad.Node, w_out: ad.Node, block_size: int,
                     cfg: GiniConfig) -> tuple[ad.Node, RegularizerReport]:
    """L / max(g, g_floor)^m with g the geometric mean of the block Ginis.

    Evaluated in log space as L * exp(-(m/2) * ln(max(g_mean * g_max,
    g_floor^2))), which equals the direct form exactly while keeping m = 10
    stable for near-uniform weights. One node: gradient flows into L and,
    through both blocks' sorted forms, into the output weights (exact away
    from magnitude ties; none where the floor is active).
    """
    w = w_out.value
    g_mean, g_max = layer_gini_blocks(w, block_size)
    live = g_mean * g_max > cfg.g_floor ** 2
    clamped = g_mean * g_max if live else cfg.g_floor ** 2
    exponent = -0.5 * cfg.m
    factor = np.exp(np.log(clamped) * exponent)

    def bw(g):
        g_raw = g * factor if raw.requires_grad else None
        if not (live and w_out.requires_grad):
            return (g_raw, None)
        g_product = g * raw.value * factor * exponent / clamped  # through exp, then log
        return (g_raw, np.concatenate([_scaled_gradient(w[:block_size], g_product * g_max),
                                       _scaled_gradient(w[block_size:], g_product * g_mean)]))

    reg = ad.Node(raw.value * factor, raw.requires_grad or w_out.requires_grad, (raw, w_out), bw)
    report = RegularizerReport(
        g_mean_block=g_mean,
        g_max_block=g_max,
        g_effective=math.sqrt(g_mean * g_max),
        raw_loss=float(raw.value),
        regularized_loss=float(reg.value),
    )
    return reg, report
