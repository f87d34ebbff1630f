"""Gini coefficient: closed-form values, invariances, oracle, gradients."""

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn.gini import (
    GiniConfig,
    gini,
    gini_gradient,
    gini_node,
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


def test_autograd_composite_matches_closed_form_gradient():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.normal(size=20)
        node = ad.parameter(w.copy())
        ad.backward(gini_node(node))
        assert np.allclose(node.grad, gini_gradient(w), rtol=1e-10, atol=1e-12)


def test_autograd_composite_finite_differences():
    rng = np.random.default_rng(13)
    for trial in range(20):
        w = rng.normal(size=15)
        # keep |w| entries apart so the sort permutation is stable under the step
        if np.min(np.diff(np.sort(np.abs(w)))) < 1e-3 or np.min(np.abs(w)) < 1e-3:
            continue
        assert ad.grad_check(gini_node, w) < 1e-5, f"trial {trial}"


def test_gini_node_value_matches_closed_form():
    rng = np.random.default_rng(5)
    w = rng.normal(size=30)
    assert float(gini_node(ad.constant(w)).value) == pytest.approx(gini(w), abs=1e-14)


def test_gini_node_degenerate_zero_vector():
    node = ad.parameter(np.zeros(5))
    out = gini_node(node)
    assert float(out.value) == 0.0


# ------------------------------------------------------------ layer blocks


def test_blocks_identical_entries():
    w = ad.constant(np.full((8, 3), 0.7))
    g_mean, g_max = layer_gini_blocks(w, 4)
    assert float(g_mean.value) == pytest.approx(0.0, abs=1e-12)
    assert float(g_max.value) == pytest.approx(0.0, abs=1e-12)


def test_blocks_extreme_mean_uniform_max():
    h, t = 4, 3
    w = np.zeros((2 * h, t))
    w[1, 2] = 5.0          # one nonzero entry in the mean block
    w[h:, :] = 0.3         # uniform max block
    g_mean, g_max = layer_gini_blocks(ad.constant(w), h)
    nm = h * t
    assert float(g_mean.value) == pytest.approx((nm - 1) / nm, abs=1e-12)
    assert float(g_max.value) == pytest.approx(0.0, abs=1e-12)


def test_blocks_scale_invariant():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(10, 4))
    a = layer_gini_blocks(ad.constant(w), 5)
    b = layer_gini_blocks(ad.constant(3.0 * w), 5)
    assert float(a[0].value) == pytest.approx(float(b[0].value), abs=1e-12)
    assert float(a[1].value) == pytest.approx(float(b[1].value), abs=1e-12)


def test_blocks_shape_guard():
    with pytest.raises(ad.ShapeError):
        layer_gini_blocks(ad.constant(np.zeros((7, 2))), 4)


# --------------------------------------------------------- regularized loss


def test_m_zero_is_identity():
    raw = ad.constant(3.25)
    reg, report = regularized_loss(raw, ad.constant(0.4), ad.constant(0.6), GiniConfig(m=0.0))
    assert float(reg.value) == 3.25
    assert report.regularized_loss == 3.25


def test_unit_blocks_are_identity():
    raw = ad.constant(1.7)
    reg, _ = regularized_loss(raw, ad.constant(1.0), ad.constant(1.0), GiniConfig(m=10.0))
    assert float(reg.value) == pytest.approx(1.7, rel=1e-14)


def test_hand_value_m2():
    reg, report = regularized_loss(
        ad.constant(1.0), ad.constant(0.5), ad.constant(0.5), GiniConfig(m=2.0)
    )
    assert float(reg.value) == pytest.approx(4.0, rel=1e-12)
    assert report.g_effective == pytest.approx(0.5, abs=1e-15)


def test_report_identity():
    cfg = GiniConfig(m=10.0)
    rng = np.random.default_rng(9)
    for _ in range(30):
        raw = float(rng.uniform(0.01, 5))
        gm, gx = rng.uniform(0.05, 0.95, size=2)
        _, report = regularized_loss(ad.constant(raw), ad.constant(gm), ad.constant(gx), cfg)
        expected = raw / max(report.g_effective, cfg.g_floor) ** cfg.m
        assert report.regularized_loss == pytest.approx(expected, rel=1e-10)


def test_floor_prevents_blowup():
    cfg = GiniConfig(m=10.0, g_floor=1e-6)
    reg, _ = regularized_loss(ad.constant(1.0), ad.constant(0.0), ad.constant(0.0), cfg)
    assert np.isfinite(reg.value)
    assert float(reg.value) == pytest.approx(1e60, rel=1e-9)


def test_monotone_in_g_effective():
    cfg = GiniConfig(m=10.0)
    values = []
    for g in np.linspace(0.05, 0.95, 19):
        reg, _ = regularized_loss(ad.constant(1.0), ad.constant(g), ad.constant(g), cfg)
        values.append(float(reg.value))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_gradient_flows_into_blocks_and_loss():
    raw = ad.parameter(2.0)
    gm = ad.parameter(0.4)
    gx = ad.parameter(0.5)
    reg, _ = regularized_loss(raw, gm, gx, GiniConfig(m=3.0))
    ad.backward(reg)
    assert raw.grad != 0.0
    assert gm.grad != 0.0
    assert gx.grad != 0.0
    # d/dgm of L * (gm*gx)^(-m/2) = -m/(2*gm) * value
    expected = -3.0 / (2 * 0.4) * float(reg.value)
    assert float(gm.grad) == pytest.approx(expected, rel=1e-10)


def test_config_validation():
    with pytest.raises(ValueError):
        GiniConfig(m=-1.0)
    with pytest.raises(ValueError):
        GiniConfig(g_floor=0.0)
