"""Gini coefficient over weight magnitudes and the L / g^m regularized loss.

The coefficient is computed over |w| and is 0 when all magnitudes are equal,
approaching 1 as the mass concentrates in a single weight (the attainable
maximum for n weights is (n - 1) / n). The evaluation uses the O(n log n)
sorted form, which is an exact identity with the double-sum definition

    g = sum_i sum_j | |w_i| - |w_j| | / (2 n^2 mean|w|).

The training divisor combines the two aggregation-block coefficients by
geometric mean and is evaluated in log space so that large exponents stay
numerically sane near-uniform weights.
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
    "gini_node",
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


def gini(w) -> float:
    """Gini coefficient of |w| (any shape, flattened), in [0, (n-1)/n].

    An all-zero vector is degenerate and returns 0; callers that divide by
    the coefficient are expected to apply their floor.
    """
    a = np.abs(np.asarray(w, dtype=np.float64).ravel())
    n = a.size
    if n < 1:
        raise ValueError("gini requires at least one weight")
    total = a.sum()
    if total == 0.0:
        return 0.0
    s = np.sort(a)
    # near-equal values can leave a tiny negative summation residual
    return max(float((_sorted_coeffs(n) * s).sum() / (n * total)), 0.0)


def gini_gradient(w) -> np.ndarray:
    """Analytic gradient of the Gini coefficient with respect to w.

    Valid away from magnitude ties (rank changes) and uses the subgradient
    sign(0) = 0 at zero entries. Matches autodiff backward through
    :func:`gini_node` at tie-free points.
    """
    w = np.asarray(w, dtype=np.float64)
    a = np.abs(w.ravel())
    n = a.size
    total = a.sum()
    if total == 0.0:
        return np.zeros_like(w)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(n)
    ranks[order] = np.arange(1, n + 1)
    g = float((_sorted_coeffs(n) * a[order]).sum() / (n * total))
    da = (2.0 * ranks - n - 1.0) / (n * total) - g / total
    return (np.sign(w.ravel()) * da).reshape(w.shape)


def gini_node(w: ad.Node) -> ad.Node:
    """Differentiable Gini coefficient of a 1-d node (sorted-form composite).

    The sort permutation is taken from the forward values and held fixed in
    backward, which is exact away from magnitude ties. A degenerate all-zero
    input yields a constant 0 with no gradient.
    """
    if w.value.ndim != 1:
        raise ad.ShapeError("gini_node expects a 1-d node")
    n = w.value.shape[0]
    if n < 1:
        raise ValueError("gini_node requires at least one weight")
    a = ad.absolute(w)
    if a.value.sum() == 0.0:
        return ad.constant(0.0)
    order = np.argsort(a.value, kind="stable")
    s = ad.gather(a, order)
    num = ad.reduce(ad.mul(s, ad.constant(_sorted_coeffs(n))), "sum")
    den = ad.mul(ad.reduce(a, "sum"), float(n))
    return ad.div(num, den)


def layer_gini_blocks(w_out: ad.Node, block_size: int) -> tuple[ad.Node, ad.Node]:
    """Gini coefficients of the mean- and max-aggregation weight blocks.

    Rows [0, block_size) of the output weight matrix act on the mean
    aggregation, rows [block_size, 2*block_size) on the max aggregation.
    Each block is flattened across all targets before the coefficient.
    """
    if w_out.value.ndim != 2 or w_out.value.shape[0] != 2 * block_size:
        raise ad.ShapeError(
            f"output weights of shape {w_out.value.shape} do not split into two "
            f"blocks of {block_size} rows"
        )
    cols = w_out.value.shape[1]
    flat_mean = ad.reshape(ad.slice_rows(w_out, 0, block_size), (block_size * cols,))
    flat_max = ad.reshape(ad.slice_rows(w_out, block_size, 2 * block_size), (block_size * cols,))
    return gini_node(flat_mean), gini_node(flat_max)


def regularized_loss(
    raw: ad.Node,
    g_mean_block: ad.Node,
    g_max_block: ad.Node,
    cfg: GiniConfig,
) -> tuple[ad.Node, RegularizerReport]:
    """L / max(g, g_floor)^m with g the geometric mean of the block Ginis.

    Evaluated in log space as L * exp(-(m/2) * ln(max(g_mean * g_max,
    g_floor^2))), which equals the direct form exactly while keeping m = 10
    stable for near-uniform weights. Gradient flows into L and both blocks.
    """
    product = ad.mul(g_mean_block, g_max_block)
    clamped = ad.clamp_min(product, cfg.g_floor ** 2)
    factor = ad.exp(ad.mul(ad.log(clamped), -0.5 * cfg.m))
    reg = ad.mul(raw, factor)
    g_eff = math.sqrt(max(float(g_mean_block.value) * float(g_max_block.value), 0.0))
    report = RegularizerReport(
        g_mean_block=float(g_mean_block.value),
        g_max_block=float(g_max_block.value),
        g_effective=g_eff,
        raw_loss=float(raw.value),
        regularized_loss=float(reg.value),
    )
    return reg, report
