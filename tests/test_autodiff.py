"""Gradient and contract tests for the autodiff engine.

Every primitive is checked against central finite differences at random
kink-free points; hand examples pin the forward semantics.
"""

import zlib

import numpy as np
import pytest

from ginigcn import autodiff as ad


def kink_free(rng, shape, margin=1e-3):
    """Random values bounded away from 0 (relu/abs kinks)."""
    x = rng.normal(size=shape)
    return x + np.where(x >= 0, margin, -margin) * 2


# ---------------------------------------------------------------- forward


def test_linear_identity():
    x = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    out = ad.linear(x, ad.constant(np.eye(2)), ad.constant(np.zeros(2)))
    assert np.array_equal(out.value, x.value)


def test_linear_hand_example():
    out = ad.linear(ad.constant([[1.0, 2.0]]), ad.constant([[1.0, 0.0], [0.0, 1.0]]),
                    ad.constant([3.0, 4.0]))
    assert np.array_equal(out.value, [[4.0, 6.0]])


def test_linear_shape_mismatch():
    x = ad.constant(np.zeros((2, 3)))
    w = ad.constant(np.zeros((4, 5)))
    with pytest.raises(ad.ShapeError):
        ad.linear(x, w, ad.constant(np.zeros(5)))


def test_relu_forward_backward():
    x = ad.parameter([-1.0, 2.0])
    out = ad.relu(x)
    assert np.array_equal(out.value, [0.0, 2.0])
    ad.backward(ad.reduce(out, "sum"))
    assert np.array_equal(x.grad, [0.0, 1.0])


def test_tanh_at_zero():
    x = ad.parameter([0.0])
    out = ad.tanh(x)
    assert out.value[0] == 0.0
    ad.backward(ad.reduce(out, "sum"))
    assert x.grad[0] == 1.0


def test_abs_subgradient_zero():
    x = ad.parameter([0.0])
    out = ad.absolute(x)
    assert out.value[0] == 0.0
    ad.backward(ad.reduce(out, "sum"))
    assert x.grad[0] == 0.0


def test_segment_mean_single():
    x = ad.constant([[1.0], [3.0]])
    out = ad.segment_aggregate(x, [[0, 1]], "mean")
    assert np.array_equal(out.value, [[2.0]])


def test_segment_mean_two_segments():
    x = ad.constant([[1.0], [2.0], [4.0]])
    out = ad.segment_aggregate(x, [[0, 3], [1, 2]], "mean")  # 3 = padding
    assert np.array_equal(out.value, [[1.0], [3.0]])


def test_segment_max_tie_routes_lowest_row():
    x = ad.parameter([[5.0], [5.0]])
    out = ad.segment_aggregate(x, [[0, 1]], "max")
    assert out.value[0, 0] == 5.0
    ad.backward(ad.reduce(out, "sum"))
    assert np.array_equal(x.grad, [[1.0], [0.0]])


def test_segment_max_tie_break_independent_of_listing_order():
    x = ad.parameter([[5.0], [5.0]])
    out = ad.segment_aggregate(x, [[1, 0]], "max")
    ad.backward(ad.reduce(out, "sum"))
    assert np.array_equal(x.grad, [[1.0], [0.0]])


def test_segment_errors():
    x = ad.constant(np.zeros((3, 1)))
    with pytest.raises(ValueError, match="empty segment"):
        ad.segment_aggregate(x, [[0, 1, 2], [3, 3, 3]], "mean")  # all padding
    with pytest.raises(ValueError, match="unknown aggregation"):
        ad.segment_aggregate(x, [[0, 1, 2]], "median")
    with pytest.raises(ad.ShapeError):
        ad.segment_aggregate(x, [0, 1, 2], "max")  # not a table


def test_batch_norm_constant_column():
    state = ad.BatchNormState(1)
    out = ad.batch_norm(ad.constant([[3.0], [3.0], [3.0]]), state, "train")
    assert np.allclose(out.value, 0.0)


def test_batch_norm_hand_standardization():
    state = ad.BatchNormState(1, epsilon=1e-12)
    out = ad.batch_norm(ad.constant([[0.0], [2.0]]), state, "train")
    assert np.allclose(out.value, [[-1.0], [1.0]], atol=1e-9)


def test_batch_norm_eval_identity_stats():
    state = ad.BatchNormState(2, epsilon=1e-12)
    x = np.array([[0.3, -1.2], [2.0, 0.5]])
    out = ad.batch_norm(ad.constant(x), state, "eval")
    assert np.allclose(out.value, x, atol=1e-9)


def test_batch_norm_train_needs_two_rows():
    with pytest.raises(ValueError):
        ad.batch_norm(ad.constant([[1.0]]), ad.BatchNormState(1), "train")


def test_batch_norm_running_stats_update():
    state = ad.BatchNormState(1, momentum=0.5)
    ad.batch_norm(ad.constant([[0.0], [2.0]]), state, "train")
    assert np.allclose(state.running_mean, [0.5])   # 0.5*0 + 0.5*1
    assert np.allclose(state.running_var, [1.0])    # 0.5*1 + 0.5*1
    assert np.all(state.running_var >= 0)


def test_reduce_sum_and_mean():
    x = ad.parameter([1.0, 2.0, 3.0])
    s = ad.reduce(x, "sum")
    assert s.value == 6.0
    ad.backward(s)
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    y = ad.parameter([1.0, 3.0])
    m = ad.reduce(y, "mean")
    assert m.value == 2.0
    ad.backward(m)
    assert np.array_equal(y.grad, [0.5, 0.5])


def test_reduce_empty_sum_is_zero():
    assert ad.reduce(ad.constant(np.zeros(0)), "sum").value == 0.0


def test_backward_linear_map():
    x = ad.parameter([1.0, 2.0])
    root = ad.reduce(ad.mul(x, 2.0), "sum")
    ad.backward(root)
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_backward_accumulates_on_repeat():
    x = ad.parameter([1.0, 2.0])
    root = ad.reduce(ad.mul(x, 2.0), "sum")
    ad.backward(root)
    ad.backward(root)
    assert np.array_equal(x.grad, [4.0, 4.0])


def test_only_trainable_leaves_hold_gradients():
    x = ad.parameter([1.0, -2.0])
    c = ad.constant([3.0, 4.0])
    hidden = ad.relu(ad.mul(x, c))
    root = ad.reduce(ad.tanh(hidden), "sum")
    ad.backward(root)
    assert x.grad is not None and np.all(np.isfinite(x.grad))
    for node in (c, hidden, root):
        assert node.grad is None


def test_backward_requires_scalar():
    x = ad.parameter([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.mul(x, 1.0))


def test_diamond_graph_gradient():
    # y = (x*x) * (x*x) reuses the same node on both paths: dy/dx = 4x^3
    x = ad.parameter([3.0])
    sq = ad.mul(x, x)
    root = ad.reduce(ad.mul(sq, sq), "sum")
    ad.backward(root)
    assert np.allclose(x.grad, [108.0])


def test_ndim_limit():
    with pytest.raises(ad.ShapeError):
        ad.Node(np.zeros((2, 2, 2)))


# ------------------------------------------------------------ grad checks


def test_grad_check_quadratic():
    assert ad.grad_check(lambda x: ad.reduce(ad.mul(x, x), "sum"), np.array([1.0, 2.0])) < 1e-8


def test_grad_check_constant_gradient():
    assert ad.grad_check(lambda x: ad.reduce(x, "sum"), np.array([1.0, -2.0, 3.0])) < 1e-10


def test_grad_check_tanh_linear_chain():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)

    def f(x):
        return ad.reduce(ad.tanh(ad.linear(x, ad.constant(w), ad.constant(b))), "sum")

    assert ad.grad_check(f, rng.normal(size=(4, 3))) < 1e-4


CASES = {}


def case(name):
    def deco(fn):
        CASES[name] = fn
        return fn
    return deco


@case("sub_scalar_broadcast")
def _f_sub_scalar(rng):
    def f(x):
        s = ad.reduce(ad.mul(x, x), "mean")
        return ad.reduce(ad.sub(ad.mul(x, 3.0), s), "sum")
    return f, rng.normal(size=(2, 3))


@case("sub")
def _f_sub(rng):
    other = rng.normal(size=4)
    return lambda x: ad.reduce(ad.mul(ad.sub(x, ad.constant(other)), ad.sub(x, ad.constant(other))), "sum"), rng.normal(size=4)


@case("mul")
def _f_mul(rng):
    other = rng.normal(size=(2, 2))
    return lambda x: ad.reduce(ad.mul(x, ad.constant(other)), "sum"), rng.normal(size=(2, 2))


@case("div")
def _f_div(rng):
    denom = rng.normal(size=(3,)) + np.where(rng.normal(size=3) > 0, 2.0, -2.0)
    return lambda x: ad.reduce(ad.div(x, ad.constant(denom)), "sum"), rng.normal(size=3)


@case("div_by_scalar_node")
def _f_div_scalar(rng):
    def f(x):
        denom = ad.sub(ad.reduce(ad.mul(x, x), "sum"), -1.0)
        return ad.div(ad.reduce(x, "sum"), denom)
    return f, rng.normal(size=3)


@case("matmul")
def _f_matmul(rng):
    other = rng.normal(size=(3, 2))
    return lambda x: ad.reduce(ad.matmul(x, ad.constant(other)), "sum"), rng.normal(size=(4, 3))


@case("linear_weight")
def _f_linear_w(rng):
    x0 = rng.normal(size=(4, 3))
    b = rng.normal(size=2)
    return lambda w: ad.reduce(ad.linear(ad.constant(x0), w, ad.constant(b)), "sum"), rng.normal(size=(3, 2))


@case("linear_bias")
def _f_linear_b(rng):
    x0 = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    return lambda b: ad.reduce(ad.tanh(ad.linear(ad.constant(x0), ad.constant(w), b)), "sum"), rng.normal(size=2)


@case("relu")
def _f_relu(rng):
    return lambda x: ad.reduce(ad.relu(x), "sum"), kink_free(rng, (4, 2))


@case("tanh")
def _f_tanh(rng):
    return lambda x: ad.reduce(ad.tanh(x), "sum"), rng.normal(size=(4, 2))


@case("abs")
def _f_abs(rng):
    return lambda x: ad.reduce(ad.absolute(x), "sum"), kink_free(rng, (5,))


@case("exp")
def _f_exp(rng):
    return lambda x: ad.reduce(ad.exp(x), "sum"), rng.normal(size=(3,))


@case("log")
def _f_log(rng):
    return lambda x: ad.reduce(ad.log(x), "sum"), np.abs(rng.normal(size=3)) + 0.5


@case("clamp_min")
def _f_clamp(rng):
    x = rng.normal(size=(4,))
    x = x + np.where(np.abs(x - 0.2) < 1e-2, 0.5, 0.0)  # stay off the clamp point
    return lambda n: ad.reduce(ad.clamp_min(n, 0.2), "sum"), x


@case("gather")
def _f_gather(rng):
    idx = np.array([3, 0, 0, 2])  # includes a duplicate
    scale = rng.normal(size=4)
    return lambda x: ad.reduce(ad.mul(ad.gather(x, idx), ad.constant(scale)), "sum"), rng.normal(size=5)


@case("concat_cols")
def _f_concat(rng):
    other = rng.normal(size=(3, 2))
    scale = rng.normal(size=(3, 4))
    return (
        lambda x: ad.reduce(ad.mul(ad.concat_cols(x, ad.constant(other)), ad.constant(scale)), "sum"),
        rng.normal(size=(3, 2)),
    )


@case("slice_rows_reshape")
def _f_slice(rng):
    scale = rng.normal(size=4)
    return (
        lambda x: ad.reduce(ad.mul(ad.reshape(ad.slice_rows(x, 1, 3), (4,)), ad.constant(scale)), "sum"),
        rng.normal(size=(4, 2)),
    )


@case("neighbor_sum")
def _f_neighbor_sum(rng):
    table = [[0, 1, 2], [0, 1, 2], [0, 1, 2], [3, 4, 5], [3, 4, 5]]  # ring + pair, 5 = padding
    scale = rng.normal(size=(5, 2))
    return (
        lambda x: ad.reduce(ad.mul(ad.neighbor_sum(x, table), ad.constant(scale)), "sum"),
        rng.normal(size=(5, 2)),
    )


@case("segment_mean")
def _f_segmean(rng):
    segs = [[0, 2], [1, 5], [3, 4]]  # 5 = padding
    scale = rng.normal(size=(3, 2))
    return (
        lambda x: ad.reduce(ad.mul(ad.segment_aggregate(x, segs, "mean"), ad.constant(scale)), "sum"),
        rng.normal(size=(5, 2)),
    )


@case("segment_max")
def _f_segmax(rng):
    segs = [[0, 2, 5], [1, 3, 4]]  # 5 = padding
    scale = rng.normal(size=(2, 2))

    def sample():
        while True:
            x = rng.normal(size=(5, 2))
            gaps = []
            for s in segs:
                s = [r for r in s if r < 5]
                vals = np.sort(x[s], axis=0)
                if len(s) > 1:
                    gaps.append((vals[-1] - vals[-2]).min())
            if min(gaps) > 1e-3:
                return x

    return (
        lambda x: ad.reduce(ad.mul(ad.segment_aggregate(x, segs, "max"), ad.constant(scale)), "sum"),
        sample(),
    )


# The batch-norm cases weight the output by a fixed random matrix before
# summing; a plain sum has exactly-cancelling x-gradients and a tanh stack
# leaves some components inside the finite-difference noise floor.


@case("batch_norm_train_x")
def _f_bn_x(rng):
    gamma = rng.normal(size=3)
    beta = rng.normal(size=3)
    weight = rng.normal(size=(5, 3)) + np.where(rng.normal(size=(5, 3)) > 0, 0.5, -0.5)

    def f(x):
        state = ad.BatchNormState(3)
        state.gamma = ad.constant(gamma)
        state.beta = ad.constant(beta)
        return ad.reduce(ad.mul(ad.batch_norm(x, state, "train"), ad.constant(weight)), "sum")

    return f, rng.normal(size=(5, 3))


@case("batch_norm_train_gamma")
def _f_bn_gamma(rng):
    x0 = rng.normal(size=(5, 3))
    weight = rng.normal(size=(5, 3))

    def f(gamma):
        state = ad.BatchNormState(3)
        state.gamma = gamma
        return ad.reduce(ad.mul(ad.batch_norm(ad.constant(x0), state, "train"), ad.constant(weight)), "sum")

    return f, rng.normal(size=3)


@case("batch_norm_train_beta")
def _f_bn_beta(rng):
    x0 = rng.normal(size=(5, 3))
    weight = rng.normal(size=(5, 3))

    def f(beta):
        state = ad.BatchNormState(3)
        state.beta = beta
        return ad.reduce(ad.mul(ad.batch_norm(ad.constant(x0), state, "train"), ad.constant(weight)), "sum")

    return f, rng.normal(size=3)


@case("batch_norm_eval")
def _f_bn_eval(rng):
    mean = rng.normal(size=3)
    var = np.abs(rng.normal(size=3)) + 0.5
    weight = rng.normal(size=(4, 3))

    def f(x):
        state = ad.BatchNormState(3)
        state.running_mean = mean
        state.running_var = var
        return ad.reduce(ad.mul(ad.batch_norm(x, state, "eval"), ad.constant(weight)), "sum")

    return f, rng.normal(size=(4, 3))


@case("reduce_mean")
def _f_reduce_mean(rng):
    return lambda x: ad.reduce(x, "mean"), rng.normal(size=(3, 2))


@pytest.mark.parametrize("name", sorted(CASES))
def test_primitive_gradients_match_finite_differences(name):
    """Each primitive within 1e-4 relative of central differences, 100 points."""
    for trial in range(100):
        rng = np.random.default_rng((zlib.crc32(name.encode()), trial))
        f, x0 = CASES[name](rng)
        assert ad.grad_check(f, x0) < 1e-4, f"{name} trial {trial}"
