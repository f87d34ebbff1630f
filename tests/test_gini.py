"""Gini coefficient: closed-form values, invariances, oracle, gradients."""

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn.gini import (
    GiniConfig,
    gini,
    gini_gradient,
    layer_gini_blocks,
    regularized_loss,
)


def gini_double_loop(w):
    """O(n^2) evaluation of the defining double sum; the test oracle."""
    a = np.abs(np.asarray(w, dtype=float).ravel())
    n = a.size
    mean = a.mean()
    if mean == 0.0:
        return 0.0
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += abs(a[i] - a[j])
    return total / (2.0 * n * n * mean)


# ------------------------------------------------------------ closed form


def test_all_equal_is_zero():
    assert gini([1.0, 1.0, 1.0, 1.0]) == 0.0


def test_single_nonzero():
    assert gini([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.75, abs=1e-12)


def test_hand_value_123():
    # double sum 8, denominator 2 * 9 * 2 = 36
    assert gini([1.0, 2.0, 3.0]) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_sign_convention():
    assert gini([-1.0, 2.0]) == gini([1.0, 2.0])


def test_single_weight_is_zero():
    assert gini([3.0]) == 0.0


def test_all_zero_degenerate():
    assert gini([0.0, 0.0, 0.0]) == 0.0


def test_empty_rejected():
    with pytest.raises(ValueError):
        gini([])


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(42)
    for n in [1, 2, 3, 7, 50, 200, 1000]:
        w = rng.normal(size=n) * rng.uniform(0.1, 10)
        assert gini(w) == pytest.approx(gini_double_loop(w), abs=1e-12)


def test_invariances_1000_random_vectors():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        w = rng.normal(size=n)
        g = gini(w)
        assert 0.0 <= g <= (n - 1) / n + 1e-15
        c = rng.uniform(0.01, 100) * rng.choice([-1.0, 1.0])
        assert abs(gini(c * w) - g) < 1e-12          # scale
        assert abs(gini(np.abs(w)) - g) < 1e-12      # sign
        assert abs(gini(rng.permutation(w)) - g) < 1e-12  # permutation


def test_upper_bound_approached_not_attained():
    w = np.zeros(1000)
    w[0] = 1.0
    assert gini(w) == pytest.approx(999 / 1000, abs=1e-12)
    assert gini(w) < 1.0


# -------------------------------------------------------------- gradients


def test_gradient_matches_finite_differences():
    w = np.array([1.0, 2.0, 3.0])
    grad = gini_gradient(w)
    step = 1e-7
    for i in range(3):
        wp, wm = w.copy(), w.copy()
        wp[i] += step
        wm[i] -= step
        fd = (gini(wp) - gini(wm)) / (2 * step)
        assert grad[i] == pytest.approx(fd, rel=1e-6)


def test_gradient_euler_relation():
    # g is 0-homogeneous, so sum_k w_k dg/dw_k = 0 at tie-free points
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal(size=12)
        assert float(w @ gini_gradient(w)) == pytest.approx(0.0, abs=1e-12)


def test_gradient_zero_homogeneity():
    w = np.array([0.5, -1.5, 2.5, 0.25])
    assert np.allclose(gini_gradient(3.0 * w), gini_gradient(w) / 3.0)


def test_gradient_all_zero_vector():
    assert np.array_equal(gini_gradient(np.zeros(4)), np.zeros(4))


def composite_gini(flat):
    """Gini coefficient of a 1-d node as a composite of autodiff primitives."""
    n = flat.value.shape[0]
    a = ad.absolute(flat)
    s = ad.gather(a, np.argsort(a.value, kind="stable"))
    num = ad.reduce(ad.mul(s, ad.constant(2.0 * np.arange(1, n + 1) - n - 1.0)), "sum")
    return ad.div(num, ad.mul(ad.reduce(a, "sum"), float(n)))


def composite_regularized_loss(raw, w_out, h, cfg):
    """The regularizer built from 29 autodiff primitives: the reference for the node."""
    cols = w_out.value.shape[1]
    g_mean = composite_gini(ad.reshape(ad.slice_rows(w_out, 0, h), (h * cols,)))
    g_max = composite_gini(ad.reshape(ad.slice_rows(w_out, h, 2 * h), (h * cols,)))
    clamped = ad.clamp_min(ad.mul(g_mean, g_max), cfg.g_floor ** 2)
    return ad.mul(raw, ad.exp(ad.mul(ad.log(clamped), -0.5 * cfg.m)))


def run_regularizer(loss_fn, raw, w, h, cfg):
    """Value, raw gradient and weight gradient of one backward pass, as bytes."""
    raw_node, w_node = ad.parameter(raw), ad.parameter(w.copy())
    out = loss_fn(raw_node, w_node, h, cfg)
    ad.backward(out)
    return out.value.tobytes(), raw_node.grad.tobytes(), w_node.grad.tobytes()


def test_regularizer_bit_identical_to_composite():
    # Training reproduces the composite's trajectories only if every bit agrees.
    rng = np.random.default_rng(2024)
    for draw in range(3000):
        w = rng.normal(size=(128, 3)) * 10.0 ** rng.uniform(-3, 2)
        raw = float(rng.uniform(0.01, 10.0))
        cfg = GiniConfig(m=10.0 if draw % 2 else float(rng.uniform(0.0, 20.0)))
        node = run_regularizer(lambda *a: regularized_loss(*a)[0], raw, w, 64, cfg)
        assert node == run_regularizer(composite_regularized_loss, raw, w, 64, cfg), draw


def test_autograd_composite_matches_closed_form_gradient():
    # the same floating-point operations in the same order, so the same bits
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.normal(size=20)
        node = ad.parameter(w.copy())
        ad.backward(composite_gini(node))
        assert node.grad.tobytes() == gini_gradient(w).tobytes()


def test_autograd_composite_finite_differences():
    # the reference above is itself a correct gradient, not only a matching one
    rng = np.random.default_rng(13)
    for trial in range(20):
        w = rng.normal(size=15)
        # keep |w| entries apart so the sort permutation is stable under the step
        if np.min(np.diff(np.sort(np.abs(w)))) < 1e-3 or np.min(np.abs(w)) < 1e-3:
            continue
        assert ad.grad_check(composite_gini, w) < 1e-5, f"trial {trial}"


def test_regularizer_weight_gradient_finite_differences():
    def loss(w):
        return regularized_loss(ad.constant(1.3), w, 5, GiniConfig(m=10.0))[0]

    rng = np.random.default_rng(13)
    checked = 0
    for trial in range(20):
        w = rng.normal(size=(10, 3))
        # keep |w| entries apart so neither sort permutation changes under the step
        gaps = [np.diff(np.sort(np.abs(b).ravel())).min() for b in (w[:5], w[5:])]
        if min(gaps) < 1e-3 or np.min(np.abs(w)) < 1e-3:
            continue
        assert ad.grad_check(loss, w) < 1e-5, f"trial {trial}"
        checked += 1
    assert checked >= 5


def test_regularizer_zero_block_has_no_weight_gradient():
    w = np.zeros((6, 2))
    w[3:] = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
    raw, node = ad.parameter(1.0), ad.parameter(w)
    reg, report = regularized_loss(raw, node, 3, GiniConfig(m=2.0, g_floor=1e-3))
    ad.backward(reg)
    assert report.g_mean_block == 0.0
    assert float(reg.value) == pytest.approx(1e6, rel=1e-12)
    assert np.array_equal(node.grad, np.zeros_like(w))
    assert float(raw.grad) == float(reg.value)


# ------------------------------------------------------------ layer blocks


def ones_block(k, rows, cols=2):
    """A rows x cols block with k ones and zeros elsewhere: Gini (n - k) / n, n = rows * cols."""
    block = np.zeros(rows * cols)
    block[:k] = 1.0
    return block.reshape(rows, cols)


def test_blocks_match_closed_form():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(10, 3))
    g_mean, g_max = layer_gini_blocks(w, 5)
    assert (g_mean, g_max) == (gini(w[:5]), gini(w[5:]))
    assert g_mean == pytest.approx(gini_double_loop(w[:5]), abs=1e-14)
    assert g_max == pytest.approx(gini_double_loop(w[5:]), abs=1e-14)


def test_blocks_identical_entries():
    g_mean, g_max = layer_gini_blocks(np.full((8, 3), 0.7), 4)
    assert g_mean == pytest.approx(0.0, abs=1e-12)
    assert g_max == pytest.approx(0.0, abs=1e-12)


def test_blocks_extreme_mean_uniform_max():
    h, t = 4, 3
    w = np.zeros((2 * h, t))
    w[1, 2] = 5.0          # one nonzero entry in the mean block
    w[h:, :] = 0.3         # uniform max block
    g_mean, g_max = layer_gini_blocks(w, h)
    nm = h * t
    assert g_mean == pytest.approx((nm - 1) / nm, abs=1e-12)
    assert g_max == pytest.approx(0.0, abs=1e-12)


def test_blocks_scale_invariant():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(10, 4))
    a = layer_gini_blocks(w, 5)
    b = layer_gini_blocks(3.0 * w, 5)
    assert a[0] == pytest.approx(b[0], abs=1e-12)
    assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_blocks_shape_guard():
    with pytest.raises(ad.ShapeError):
        layer_gini_blocks(np.zeros((7, 2)), 4)


# --------------------------------------------------------- regularized loss


def weights(mean_block, max_block):
    return ad.constant(np.vstack([mean_block, max_block]))


def test_m_zero_is_identity():
    raw = ad.constant(3.25)
    w = ad.constant(np.random.default_rng(4).normal(size=(6, 2)))
    reg, report = regularized_loss(raw, w, 3, GiniConfig(m=0.0))
    assert float(reg.value) == 3.25
    assert report.regularized_loss == 3.25


def test_unit_blocks_are_identity():
    # One-hot blocks of n weights have g = (n - 1) / n, the supremum 1 in the limit,
    # where the divisor g^m goes to 1 and the loss to L.
    cfg = GiniConfig(m=10.0)
    for rows in (5, 50, 5000):
        n = 2 * rows
        reg, report = regularized_loss(
            ad.constant(1.7), weights(ones_block(1, rows), ones_block(1, rows)), rows, cfg)
        assert report.g_effective == pytest.approx((n - 1) / n, rel=1e-14)
        assert float(reg.value) == pytest.approx(1.7 * ((n - 1) / n) ** -10, rel=1e-12)
    assert float(reg.value) == pytest.approx(1.7, rel=1.1 * cfg.m / n)


def test_hand_value_m2():
    # two ones in four weights: g = 1/2 in both blocks
    reg, report = regularized_loss(
        ad.constant(1.0), weights(ones_block(2, 2), ones_block(2, 2)), 2, GiniConfig(m=2.0)
    )
    assert (report.g_mean_block, report.g_max_block) == (0.5, 0.5)
    assert float(reg.value) == pytest.approx(4.0, rel=1e-12)
    assert report.g_effective == pytest.approx(0.5, abs=1e-15)


def test_report_identity():
    cfg = GiniConfig(m=10.0)
    rng = np.random.default_rng(9)
    for _ in range(30):
        raw = float(rng.uniform(0.01, 5))
        w = rng.normal(size=(8, 3)) * rng.uniform(0.1, 10.0)
        _, report = regularized_loss(ad.constant(raw), ad.constant(w), 4, cfg)
        assert (report.g_mean_block, report.g_max_block) == layer_gini_blocks(w, 4)
        expected = raw / max(report.g_effective, cfg.g_floor) ** cfg.m
        assert report.regularized_loss == pytest.approx(expected, rel=1e-10)


def test_floor_prevents_blowup():
    cfg = GiniConfig(m=10.0, g_floor=1e-6)
    reg, _ = regularized_loss(ad.constant(1.0), ad.constant(np.zeros((4, 2))), 2, cfg)
    assert np.isfinite(reg.value)
    assert float(reg.value) == pytest.approx(1e60, rel=1e-9)


def test_monotone_in_g_effective():
    cfg = GiniConfig(m=10.0)
    values = []
    for k in range(19, 0, -1):  # g = (20 - k) / 20 rises from 0.05 to 0.95
        block = ones_block(k, 10)
        reg, _ = regularized_loss(ad.constant(1.0), weights(block, block), 10, cfg)
        values.append(float(reg.value))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_gradient_flows_into_blocks_and_loss():
    rng = np.random.default_rng(6)
    w = rng.normal(size=(6, 2))
    raw, node = ad.parameter(2.0), ad.parameter(w.copy())
    reg, report = regularized_loss(raw, node, 3, GiniConfig(m=3.0))
    ad.backward(reg)
    # d/dL of L * (gm*gx)^(-m/2) is the factor; d/dw through a block is
    # -m/(2*g) * value * dg/dw
    assert float(raw.grad) == pytest.approx(float(reg.value) / 2.0, rel=1e-14)
    for rows, g in ((slice(0, 3), report.g_mean_block), (slice(3, 6), report.g_max_block)):
        expected = -3.0 / (2 * g) * float(reg.value) * gini_gradient(w[rows])
        assert np.abs(node.grad[rows]).min() > 0.0
        assert np.allclose(node.grad[rows], expected, rtol=1e-10, atol=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        GiniConfig(m=-1.0)
    with pytest.raises(ValueError):
        GiniConfig(g_floor=0.0)
