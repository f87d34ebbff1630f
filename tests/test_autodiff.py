"""Gradient and contract tests for the autodiff engine.

Every primitive is checked against central finite differences at random
kink-free points; hand examples pin the forward semantics.
"""

import zlib

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn.model import fingerprint
from ginigcn.training import multitask_loss


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


def test_relu_matches_where_bit_for_bit():
    big = np.finfo(np.float64).max
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        1.5, -1.5, big, -big])
    x = np.stack([special, special[::-1]])
    reference = np.where(x > 0.0, x, 0.0)
    for node in (ad.constant(x), ad.parameter(x)):
        assert np.array_equal(ad.relu(node).value.view(np.int64), reference.view(np.int64))


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
    for kind in ("mean", "max"):
        with pytest.raises(ValueError, match="empty segment"):
            ad.segment_aggregate(x, [[0, 1, 2], [3, 3, 3]], kind)  # all padding
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


def test_backward_adds_into_a_views_grad_in_place():
    # a parameter whose grad is a view of a flat buffer keeps it
    values, grads = np.arange(6.0), np.full(6, 0.5)
    x = ad.parameter(values[2:5])
    x.grad = grads[2:5]
    ad.backward(ad.reduce(ad.mul(x, 2.0), "sum"))
    assert np.shares_memory(x.grad, grads)
    assert np.array_equal(grads, [0.5, 0.5, 2.5, 2.5, 2.5, 0.5])


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


def test_nodes_built_with_the_tape_off_keep_no_parents():
    w, b = ad.parameter([[1.0, -2.0]]), ad.parameter([0.5, 0.5])
    x = ad.constant([[1.0], [-1.0]])
    previous = ad._set_recording(False)
    try:
        off = ad.relu(ad.linear(x, w, b))
        leaf = ad.parameter([1.0])
    finally:
        ad._set_recording(previous)
    assert previous is True
    assert not off.requires_grad and off._parents == () and off._backward is None
    assert not leaf.requires_grad and leaf.grad is None
    on = ad.relu(ad.linear(x, w, b))
    assert on.requires_grad and on._parents
    assert np.array_equal(on.value, off.value)
    ad.backward(ad.reduce(on, "sum"))
    assert np.array_equal(w.grad, [[1.0, -1.0]])


def test_non_grad_nodes_keep_no_parents_with_the_tape_on():
    out = ad.tanh(ad.neighbor_sum(ad.constant([[1.0], [2.0]]), [[0, 1], [0, 1]]))
    assert not out.requires_grad and out._parents == () and out._backward is None


# ------------------------------------------------------------ conv


def random_neighbor_table(rng, n, p=0.3):
    """Row v lists v and its neighbours in a random symmetric graph, ascending,
    padded with n to one slot past the widest row."""
    adj = np.triu(rng.random((n, n)) < p, 1)
    adj = adj | adj.T | np.eye(n, dtype=bool)
    rows = [list(np.flatnonzero(r)) for r in adj]
    width = max(map(len, rows)) + 1
    return np.array([r + [n] * (width - len(r)) for r in rows], dtype=np.intp)


def composite_conv(h, table, weight, bias, state, mode):
    """The four nodes that ad.conv replaces."""
    return ad.relu(ad.batch_norm(ad.linear(ad.neighbor_sum(h, table), weight, bias), state, mode))


@pytest.mark.parametrize("n", [4, 40])  # one gather for a small table, slot by slot past it
def test_neighbor_sum_matches_the_sum_over_a_gathered_slot_axis(n):
    # the (rows, slots, features) gather the slot-by-slot sum replaced, both ways
    rng = np.random.default_rng(21)
    table = random_neighbor_table(rng, n)
    h, g = rng.normal(size=(n, 7)), rng.normal(size=(n, 7))

    def gathered(v):
        return np.vstack([v, np.zeros((1, v.shape[1]))]).take(table, axis=0).sum(axis=1)

    x = ad.parameter(h)
    out = ad.neighbor_sum(x, table)
    assert out.value.tobytes() == gathered(h).tobytes()
    ad.backward(ad.reduce(ad.mul(out, ad.constant(g)), "sum"))
    assert x.grad.tobytes() == gathered(g).tobytes()


def conv_operands(rng, n=23, d_in=6, d_out=5):
    return dict(h=rng.normal(size=(n, d_in)), weight=rng.normal(size=(d_in, d_out)),
                bias=rng.normal(size=d_out), gamma=rng.normal(size=d_out),
                beta=rng.normal(size=d_out), mean=rng.normal(size=d_out),
                var=rng.random(d_out) + 0.5)


def conv_state(v, make=ad.parameter):
    state = ad.BatchNormState(len(v["gamma"]))
    state.gamma, state.beta = make(v["gamma"].copy()), make(v["beta"].copy())
    state.running_mean, state.running_var = v["mean"].copy(), v["var"].copy()
    return state


def dense_composite(h, table, weight, bias, state, mode):
    """The three nodes that ad.conv replaces over a table whose row i is [i]."""
    return ad.relu(ad.batch_norm(ad.linear(h, weight, bias), state, mode))


# A table below and above ad._ONE_GATHER entries, for bonds and for rows that
# list only themselves (the reference head: predict's last slice holds up to
# 129 molecules).
@pytest.mark.parametrize("n, rows", [(5, "bonds"), (23, "bonds"), (128, "self"), (129, "self")],
                         ids=["5", "23", "self-128", "self-129"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_conv_matches_the_four_node_composite_bit_for_bit(mode, n, rows):
    rng = np.random.default_rng(5)
    v = conv_operands(rng, n)
    table = random_neighbor_table(rng, n) if rows == "bonds" else np.arange(n)[:, None]
    scale = rng.normal(size=(len(v["h"]), len(v["bias"])))
    results = []
    for op in (composite_conv, ad.conv, *([dense_composite] if rows == "self" else [])):
        h, w, b = (ad.parameter(v[k].copy()) for k in ("h", "weight", "bias"))
        state = conv_state(v)
        out = op(h, table, w, b, state, mode)
        ad.backward(ad.reduce(ad.mul(out, ad.constant(scale)), "sum"))
        results.append({"out": out.value, "running_mean": state.running_mean,
                        "running_var": state.running_var, "h": h.grad, "weight": w.grad,
                        "bias": b.grad, "gamma": state.gamma.grad, "beta": state.beta.grad})
    composite, fused = results[:2]
    assert (composite["out"] == 0.0).any() and (composite["out"] > 0.0).any()
    for other in results[1:]:
        for name, want in composite.items():
            got = other[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
    assert np.abs(fused["h"]).max() > 0.0


@pytest.mark.parametrize("n", [2, 3, 23, 300])
def test_conv_running_statistics_match_ndarray_var(n):
    # the one-pass batch statistics against ndarray.mean and ndarray.var of
    # the pre-normalization values, with a constant column and a large offset
    rng = np.random.default_rng(n)
    v = conv_operands(rng, n)
    v["weight"][:, 0] = 0.0
    v["bias"][1] = 1e6
    table = random_neighbor_table(rng, n)
    pre = ad.linear(ad.neighbor_sum(ad.constant(v["h"]), table), ad.constant(v["weight"]),
                    ad.constant(v["bias"])).value
    state = conv_state(v)
    ad.conv(ad.constant(v["h"]), table, ad.constant(v["weight"]), ad.constant(v["bias"]),
            state, "train")
    momentum = state.momentum
    want_mean = (1.0 - momentum) * v["mean"] + momentum * pre.mean(axis=0)
    want_var = (1.0 - momentum) * v["var"] + momentum * pre.var(axis=0)
    assert state.running_mean.tobytes() == want_mean.tobytes()
    assert state.running_var.tobytes() == want_var.tobytes()


def folded_eval_conv(h, table, v, epsilon=1e-5):
    """ad.conv in eval mode with the tape off, in numpy: the slot sum and the
    product, then the bias and batch norm as one scale and one shift per channel.

    Also returns the magnitude of the terms both roundings add up, per entry:
    ``(|product| + |bias| + |running_mean|) * |scale| + |beta|``.
    """
    padded = np.vstack([h, np.zeros((1, h.shape[1]))])
    agg = padded[table[:, 0]]
    for slot in table.T[1:]:
        agg += padded[slot]
    product = agg @ v["weight"]
    scale = v["gamma"] / np.sqrt(v["var"] + epsilon)
    out = product * scale
    out += (v["bias"] - v["mean"]) * scale + v["beta"]
    out = np.fmax(out, 0.0) + 0.0
    terms = (np.abs(product) + np.abs(v["bias"]) + np.abs(v["mean"])) * np.abs(scale)
    return out, terms + np.abs(v["beta"])


# The composite rounds (x + bias - mean) * inv * gamma + beta in six steps, the
# fold x * scale + ((bias - mean) * scale + beta) in seven, each off by at most
# half an ulp of the terms' magnitude; 12 ulps of it holds both sides' first-order
# error. Over 400 random convs (n < 140, widths < 20) the largest seen was 2.6.
FOLD_ULPS = 12


def assert_within_folding_error(got, composite, terms):
    assert np.all(np.abs(got - composite) <= FOLD_ULPS * np.finfo(float).eps * terms)


@pytest.mark.parametrize("in_arena", [False, True], ids=["no-arena", "arena"])
@pytest.mark.parametrize("n, rows", [(5, "bonds"), (23, "bonds"), (128, "self"), (129, "self")],
                         ids=["5", "23", "self-128", "self-129"])
def test_untaped_eval_conv_is_the_folded_formula(n, rows, in_arena):
    rng = np.random.default_rng(5)
    v = conv_operands(rng, n)
    table = random_neighbor_table(rng, n) if rows == "bonds" else np.arange(n)[:, None]
    want, terms = folded_eval_conv(v["h"], table, v)
    h, w, b = (ad.constant(v[k]) for k in ("h", "weight", "bias"))
    previous = ad._set_recording(False)
    try:
        composite = composite_conv(h, table, w, b, conv_state(v, ad.constant), "eval").value
        arena = np.empty(3 * (n + 1) * 6) if in_arena else None
        got = ad.conv(h, table, w, b, conv_state(v, ad.constant), "eval", arena).value
    finally:
        ad._set_recording(previous)
    assert (want == 0.0).any() and (want > 0.0).any()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert_within_folding_error(got, composite, terms)


def test_conv_chain_in_one_arena_matches_the_composite():
    # eval with the tape off: each conv's output overlays its padded input in
    # the arena, where the next conv reads it. Each conv is the folded formula
    # bit for bit, and within the folding error of the composite over the same
    # input; the whole chain stays within 64 ulps of the composite chain's
    # largest value (1.1 measured here, 16 the most over 400 random three-conv
    # chains).
    rng = np.random.default_rng(8)
    first, second = conv_operands(rng, 17, 4, 6), conv_operands(rng, 17, 6, 6)
    table = random_neighbor_table(rng, 17)
    arena = np.empty(3 * 18 * 6)
    previous = ad._set_recording(False)
    try:
        chain = got = ad.constant(first["h"])
        for v in (first, second):
            w, b = ad.constant(v["weight"]), ad.constant(v["bias"])
            folded, terms = folded_eval_conv(got.value, table, v)
            composite = composite_conv(got, table, w, b, conv_state(v, ad.constant), "eval")
            chain = composite_conv(chain, table, w, b, conv_state(v, ad.constant), "eval")
            got = ad.conv(got, table, w, b, conv_state(v, ad.constant), "eval", arena)
            assert np.shares_memory(got.value, arena)
            assert got.value.tobytes() == folded.tobytes()
            assert_within_folding_error(got.value, composite.value, terms)
        error = np.abs(got.value - chain.value).max()
        assert error <= 64 * np.finfo(float).eps * np.abs(chain.value).max()
    finally:
        ad._set_recording(previous)


def test_conv_checks_shapes_before_any_work():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(4, 2))
    table = np.array([[0, 1], [0, 1], [2, 4], [3, 4]])
    w, b = ad.constant(rng.normal(size=(2, 3))), ad.constant(np.zeros(3))
    state = ad.BatchNormState(3)
    bad = [
        (ad.ShapeError, (h[:, :1], table, w, b, state)),          # input vs weight
        (ad.ShapeError, (h[0], table, w, b, state)),              # 1-d input
        (ad.ShapeError, (h, table[:3], w, b, state)),             # a row short
        (ad.ShapeError, (h, table[0], w, b, state)),              # not a table
        (ad.ShapeError, (h, table, w, ad.constant(np.zeros(2)), state)),
        (ad.ShapeError, (h, table, w, b, ad.BatchNormState(4))),
        (IndexError, (h, np.where(table == 4, 5, table), w, b, state)),  # past the padding
        (IndexError, (h, np.where(table == 4, -1, table), w, b, state)),
    ]
    for error, args in bad:
        with pytest.raises(error):
            ad.conv(*args, "train")
        assert np.array_equal(state.running_mean, np.zeros(3))
        assert np.array_equal(state.running_var, np.ones(3))
    with pytest.raises(ValueError, match="unknown batch_norm mode"):
        ad.conv(h, table, w, b, state, "test")
    with pytest.raises(ValueError, match="at least 2 rows"):
        ad.conv(h[:1], [[0]], w, b, state, "train")
    with pytest.raises(ValueError, match="arena"):
        ad.conv(h, table, w, b, state, "train", np.empty(100))
    previous = ad._set_recording(False)
    try:
        with pytest.raises(ad.ShapeError, match="arena"):
            ad.conv(h, table, w, b, state, "eval", np.empty(5 * 3 + 2 * 4 * 2 - 1))
    finally:
        ad._set_recording(previous)
    assert np.array_equal(state.running_mean, np.zeros(3))


def test_neighbor_sum_rejects_entries_out_of_range():
    x = ad.constant(np.ones((2, 1)))
    for entry in (3, -1):
        with pytest.raises(IndexError, match=r"in \[0, 2\]"):
            ad.neighbor_sum(x, [[0, 1], [0, entry]])


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


# The conv cases: path 1-0-2-3 plus a lone atom 4; 5 is the padding index.
CONV_TABLE = [[0, 1, 2], [0, 1, 5], [0, 2, 3], [2, 3, 5], [4, 5, 5]]


def conv_case(rng, mode, wrt):
    """ad.conv as a function of one of its operands, weighted and summed.

    The other operands are fixed random draws, redrawn until every
    pre-ReLU value is at least 1e-3 from the kink.
    """
    shapes = {"h": (5, 2), "weight": (2, 3), "bias": (3,), "gamma": (3,), "beta": (3,)}
    mean, var = rng.normal(size=3), rng.random(3) + 0.5
    scale = rng.normal(size=(5, 3))

    def conv(args, pre_relu=False):
        state = ad.BatchNormState(3)
        state.gamma, state.beta = args["gamma"], args["beta"]
        state.running_mean, state.running_var = mean.copy(), var.copy()
        if pre_relu:
            agg = ad.neighbor_sum(args["h"], CONV_TABLE)
            return ad.batch_norm(ad.linear(agg, args["weight"], args["bias"]), state, mode)
        return ad.conv(args["h"], CONV_TABLE, args["weight"], args["bias"], state, mode)

    while True:
        fixed = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        nodes = {k: ad.constant(v) for k, v in fixed.items()}
        if np.abs(conv(nodes, pre_relu=True).value).min() > 1e-3:
            break

    def f(x):
        return ad.reduce(ad.mul(conv({**nodes, wrt: x}), ad.constant(scale)), "sum")

    return f, fixed[wrt]


for _mode, _wrt in [("train", "h"), ("train", "weight"), ("train", "gamma"), ("train", "beta"),
                    ("eval", "h"), ("eval", "bias")]:
    case(f"conv_{_mode}_{_wrt}")(lambda rng, mode=_mode, wrt=_wrt: conv_case(rng, mode, wrt))


@case("multitask_loss")
def _f_multitask_loss(rng):
    target = rng.normal(size=(4, 3))
    mask = (rng.random((4, 3)) < 0.7).astype(float)
    mask[0, 0] = 1.0
    return lambda x: multitask_loss(x, target, mask), rng.normal(size=(4, 3))


@case("fingerprint")
def _f_fingerprint(rng):
    # molecules of three, one and two atoms, listed in ascending rows; 6 = padding
    atoms = [[0, 2, 5], [3, 6, 6], [1, 4, 6]]
    scale = rng.normal(size=(3, 4))

    def sample():
        # no two rows of a molecule within 1e-3 in any column: no max tie in reach
        while True:
            x = rng.normal(size=(6, 2))
            if min(np.abs(x[i] - x[j]).min() for i, j in [(0, 2), (0, 5), (2, 5), (1, 4)]) > 1e-3:
                return x

    return lambda x: ad.reduce(ad.mul(fingerprint(x, atoms), ad.constant(scale)), "sum"), sample()


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
