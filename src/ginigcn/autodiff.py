"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

Tape-style engine: every operation returns a ``Node`` holding the forward
value plus a closure that maps the output gradient to per-parent gradient
contributions. Only trainable leaves (parameters) hold a ``grad`` buffer;
:func:`backward` passes gradients through intermediate nodes without
storing them. The GCN model runs on ``constant``, ``parameter``, ``conv``
(each conv layer and the reference variant's dense head is one node) and
``linear``; the fingerprint, the loss and the Gini regularizer are one
:class:`Node` each, built in their own modules, and ``selftest``
grad-checks ``neighbor_sum``. The other primitives have no caller in the
package: ``matmul``, ``absolute``, ``gather``, ``slice_rows``, ``reshape``,
``clamp_min``, ``log``, ``exp``, ``sub``, ``mul``, ``div``, ``reduce``,
``segment_aggregate``, ``tanh``, ``concat_cols``, ``batch_norm`` and
``relu``; the fused nodes replaced their last callers. They stay because
``bench/tracing.py`` binds them by name, and the tests build their
references from them. Values are at most 2-dimensional
and double precision throughout. No broadcasting beyond row-wise
bias/scale addition and scalar (0-d) operands.

Subgradient conventions at kinks: relu'(0) = 0, abs'(0) = 0, segment max
ties route the gradient to the lowest row index.

A node that does not require grad keeps no parents and no backward closure,
so nothing it was computed from stays alive through it. While the tape is
off (:func:`_set_recording`, one switch per thread), every node built is
such a node, whatever its operands: ``Model.forward`` turns it off for eval
mode, which never runs backward, so a pass frees each intermediate once the
next op has read it.
The ops and their arithmetic are the same with the tape on or off.

Per-op overhead dominates a one-molecule forward pass (about 9 atoms), so
the ops are trimmed of bookkeeping: requires_grad is plain boolean tests, a
padded gather fills one buffer and reads it with ``take``, a neighbour sum
adds one table slot at a time, and segment max checks for empty segments
without counting their rows. The values are the same bits as the untrimmed
ops.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

__all__ = [
    "Node",
    "ShapeError",
    "BatchNormState",
    "constant",
    "parameter",
    "sub",
    "mul",
    "div",
    "matmul",
    "linear",
    "relu",
    "tanh",
    "absolute",
    "exp",
    "log",
    "clamp_min",
    "gather",
    "concat_cols",
    "slice_rows",
    "reshape",
    "neighbor_sum",
    "conv",
    "segment_aggregate",
    "batch_norm",
    "reduce",
    "backward",
    "grad_check",
]


class ShapeError(ValueError):
    """Operand shapes incompatible with an operation's contract."""


class _Tape(threading.local):
    on = True  # each thread starts recording


# Whether this thread's ops record the tape; off, every node built is a
# non-grad node. Per thread, so one thread's eval pass leaves another's
# training tape alone.
_recording = _Tape()


def _set_recording(on: bool) -> bool:
    """Turn tape recording on or off for this thread and return the previous setting."""
    previous, _recording.on = _recording.on, bool(on)
    return previous


class Node:
    """A tensor in the computation graph.

    A trainable leaf (``requires_grad`` and no parents) holds a same-shape
    ``grad`` buffer, created as zeros, that :func:`backward` adds into in
    place. Every other node's ``grad`` is ``None``: intermediates pass their
    gradient through to their parents. A node that does not require grad
    keeps no parents and no backward closure. Graphs are acyclic by
    construction (operations only ever link to previously created nodes).
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad=False, parents=(), backward=None):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are limited to 2 dims, got shape {arr.shape}")
        self.value = arr
        self.requires_grad = bool(requires_grad) and _recording.on
        if self.requires_grad:
            self._parents = tuple(parents)
            self.grad = None if self._parents else np.zeros_like(arr)
            self._backward = backward
        else:
            self._parents, self.grad, self._backward = (), None, None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        tag = "param" if self.requires_grad and not self._parents else "node"
        return f"Node({tag}, shape={self.value.shape})"


def constant(value) -> Node:
    """Wrap a value as a non-differentiated graph leaf."""
    return Node(value, requires_grad=False)


def parameter(value) -> Node:
    """Wrap a value as a trainable leaf (gradient target)."""
    return Node(value, requires_grad=True)


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _check_pair(a: Node, b: Node, op: str):
    # Same shape, or either side a scalar (0-d).
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    # Collapse a broadcast gradient back onto a 0-d operand.
    if shape == () and g.shape != ():
        return np.asarray(g.sum())
    return g


def sub(a, b) -> Node:
    """Elementwise a - b (same shape, or one scalar operand)."""
    a, b = _wrap(a), _wrap(b)
    _check_pair(a, b, "sub")
    out = a.value - b.value

    def bw(g):
        return (_reduce_to(g, a.shape), _reduce_to(-g, b.shape))

    return Node(out, a.requires_grad or b.requires_grad, (a, b), bw)


def mul(a, b) -> Node:
    """Elementwise a * b (same shape, or one scalar operand)."""
    a, b = _wrap(a), _wrap(b)
    _check_pair(a, b, "mul")
    out = a.value * b.value

    def bw(g):
        ga = _reduce_to(g * b.value, a.shape) if a.requires_grad else None
        gb = _reduce_to(g * a.value, b.shape) if b.requires_grad else None
        return (ga, gb)

    return Node(out, a.requires_grad or b.requires_grad, (a, b), bw)


def div(a, b) -> Node:
    """Elementwise a / b (same shape, or one scalar operand)."""
    a, b = _wrap(a), _wrap(b)
    _check_pair(a, b, "div")
    out = a.value / b.value

    def bw(g):
        ga = _reduce_to(g / b.value, a.shape) if a.requires_grad else None
        gb = _reduce_to(-g * a.value / (b.value ** 2), b.shape) if b.requires_grad else None
        return (ga, gb)

    return Node(out, a.requires_grad or b.requires_grad, (a, b), bw)


def matmul(a, b) -> Node:
    """Matrix product of two 2-d nodes."""
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeError("matmul requires 2-d operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree, {a.shape} @ {b.shape}")
    out = a.value @ b.value

    def bw(g):
        ga = g @ b.value.T if a.requires_grad else None
        gb = a.value.T @ g if b.requires_grad else None
        return (ga, gb)

    return Node(out, a.requires_grad or b.requires_grad, (a, b), bw)


def linear(x, w, b) -> Node:
    """Affine map x @ w + b with the bias broadcast over rows.

    x is (n, d_in), w is (d_in, d_out), b is (d_out,).
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeError("linear requires 2-d input and weight")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    if b.value.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ShapeError(f"linear: bias {b.shape} does not match weight {w.shape}")
    out = x.value @ w.value + b.value

    def bw(g):
        gx = g @ w.value.T if x.requires_grad else None
        gw = x.value.T @ g if w.requires_grad else None
        gb = g.sum(axis=0) if b.requires_grad else None
        return (gx, gw, gb)

    return Node(out, x.requires_grad or w.requires_grad or b.requires_grad, (x, w, b), bw)


def relu(x) -> Node:
    """Elementwise max(x, 0); derivative 0 at the kink."""
    x = _wrap(x)
    out = np.fmax(x.value, 0.0)  # NaN -> 0
    out += 0.0  # fmax(-0.0, 0.0) may be -0.0; this makes it +0.0
    if not (x.requires_grad and _recording.on):
        return Node(out)
    mask = x.value > 0.0

    def bw(g):
        return (g * mask,)

    return Node(out, True, (x,), bw)


def tanh(x) -> Node:
    """Elementwise hyperbolic tangent."""
    x = _wrap(x)
    out = np.tanh(x.value)

    def bw(g):
        return (g * (1.0 - out * out),)

    return Node(out, x.requires_grad, (x,), bw)


def absolute(x) -> Node:
    """Elementwise |x|; subgradient 0 at 0 (np.sign convention)."""
    x = _wrap(x)
    sign = np.sign(x.value)
    out = np.abs(x.value)

    def bw(g):
        return (g * sign,)

    return Node(out, x.requires_grad, (x,), bw)


def exp(x) -> Node:
    """Elementwise exponential."""
    x = _wrap(x)
    out = np.exp(x.value)

    def bw(g):
        return (g * out,)

    return Node(out, x.requires_grad, (x,), bw)


def log(x) -> Node:
    """Elementwise natural logarithm (strictly positive inputs)."""
    x = _wrap(x)
    out = np.log(x.value)

    def bw(g):
        return (g / x.value,)

    return Node(out, x.requires_grad, (x,), bw)


def clamp_min(x, floor: float) -> Node:
    """Elementwise max(x, floor) against a constant; gradient 0 where clamped."""
    x = _wrap(x)
    mask = x.value > floor
    out = np.where(mask, x.value, floor)

    def bw(g):
        return (g * mask,)

    return Node(out, x.requires_grad, (x,), bw)


def gather(x, indices) -> Node:
    """Select entries of a 1-d node by index; duplicates accumulate on backward."""
    x = _wrap(x)
    if x.value.ndim != 1:
        raise ShapeError("gather operates on 1-d nodes")
    idx = np.asarray(indices, dtype=np.intp)
    out = x.value[idx]

    def bw(g):
        gx = np.zeros_like(x.value)
        np.add.at(gx, idx, g)
        return (gx,)

    return Node(out, x.requires_grad, (x,), bw)


def concat_cols(a, b) -> Node:
    """Concatenate two 2-d nodes with equal row counts along columns."""
    a, b = _wrap(a), _wrap(b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: incompatible shapes {a.shape}, {b.shape}")
    out = np.concatenate([a.value, b.value], axis=1)
    split = a.shape[1]

    def bw(g):
        return (g[:, :split], g[:, split:])

    return Node(out, a.requires_grad or b.requires_grad, (a, b), bw)


def slice_rows(x, start: int, stop: int) -> Node:
    """Contiguous row slice of a 2-d node."""
    x = _wrap(x)
    if x.value.ndim != 2:
        raise ShapeError("slice_rows operates on 2-d nodes")
    if not (0 <= start <= stop <= x.shape[0]):
        raise ShapeError(f"slice_rows: range [{start}, {stop}) outside {x.shape}")
    out = x.value[start:stop]

    def bw(g):
        gx = np.zeros_like(x.value)
        gx[start:stop] = g
        return (gx,)

    return Node(out, x.requires_grad, (x,), bw)


def reshape(x, shape) -> Node:
    """View the node's values in a new shape (same element count, ndim <= 2)."""
    x = _wrap(x)
    out = x.value.reshape(shape)
    if out.ndim > 2:
        raise ShapeError(f"reshape target {out.shape} exceeds 2 dims")

    def bw(g):
        return (g.reshape(x.shape),)

    return Node(out, x.requires_grad, (x,), bw)


def _table(x: Node, table) -> np.ndarray:
    table = np.asarray(table, dtype=np.intp)
    if x.value.ndim != 2 or table.ndim != 2:
        raise ShapeError(f"table ops need a 2-d node and table, got {x.shape}, {table.shape}")
    return table


def _neighbor_table(x: Node, table, op: str) -> np.ndarray:
    # One row per row of x; entries in [0, len(x)], the last being padding.
    # The one bounds check of the table: _slots gathers with mode="clip".
    table = _table(x, table)
    n = x.shape[0]
    if table.shape[0] != n:
        raise ShapeError(f"{op}: {table.shape[0]} table rows for {n} rows")
    # As unsigned, a negative entry is past n too.
    if table.size and table.view(np.uintp).max() > n:
        raise IndexError(f"{op}: table entries must lie in [0, {n}]")
    return table


def _pad(v: np.ndarray, fill: float = 0.0) -> np.ndarray:
    # v with one more row of fill, read at the padding index len(v).
    padded = np.empty((v.shape[0] + 1, v.shape[1]))
    padded[:-1] = v
    padded[-1] = fill
    return padded


def _gather(v: np.ndarray, table: np.ndarray, fill: float = 0.0) -> np.ndarray:
    # (table rows, slots, features); the padding index len(v) reads fill.
    return _pad(v, fill).take(table, axis=0)


# A table of at most this many entries sums its slots from one gather: a
# one-molecule pass (about 45 entries) pays per numpy call, and slot by slot
# takes twice the calls. From about 200 entries on, slot by slot is faster.
_ONE_GATHER = 128


def _slots(padded: np.ndarray, table: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Row i sums the rows of ``padded`` listed in ``table[i]``, one slot at a time.

    ``out = padded[table[:, 0]]``, then ``out += padded[table[:, s]]`` for each
    further slot: the order in which a sum over a gathered slot axis adds, so
    the same bits, without the (rows, slots, features) gather. A small table
    without ``out`` takes that gather and its sum instead (``_ONE_GATHER``).
    ``out`` and ``scratch`` are (rows, features) buffers, new arrays if not
    given; the sums are returned, in ``out`` if given. The table must be
    bounds-checked (:func:`_neighbor_table`): the slots are taken with
    ``mode="clip"``, which writes into ``out`` unbuffered.
    """
    if out is None and table.size <= _ONE_GATHER:
        return padded.take(table, axis=0).sum(axis=1)
    # the method, not np.take, and no buffer per slot: small passes pay per call
    slots = table.T
    out = padded.take(slots[0], axis=0, out=out, mode="clip")
    if len(slots) > 1 and scratch is None:
        scratch = np.empty_like(out)
    for slot in slots[1:]:
        out += padded.take(slot, axis=0, out=scratch, mode="clip")
    return out


def neighbor_sum(x, table) -> Node:
    """Row i of the output sums the rows of x listed in table[i], padded with len(x).

    The listing must be symmetric (j in row i exactly when i is in row j), as
    for atoms and their bonded neighbours, so backward sums the gradient alike.
    Entries outside [0, len(x)] raise IndexError.
    """
    x = _wrap(x)
    table = _neighbor_table(x, table, "neighbor_sum")
    # Slots add left to right; ascending rows match the dense (A + I) @ x sum order bit for bit.
    out = _slots(_pad(x.value), table)

    def bw(g):
        return (_slots(_pad(g), table),)

    return Node(out, x.requires_grad, (x,), bw)


def _conv_buffers(arena, h: np.ndarray, d_out: int):
    # The padded input, the slot sum, its scratch and the output of one conv.
    # Without an arena: a new padded copy, and the rest made by the ops. In an
    # arena: the padded input is its first (n + 1) * d_in values, and the
    # output overlays it in (n + 1, d_out) layout once the slot sum has read
    # it, so the next conv finds its input padded in place.
    n, d_in = h.shape
    if arena is None:
        return _pad(h), None, None, None
    lead = (n + 1) * max(d_in, d_out)
    if arena.size < lead + 2 * n * d_in:
        raise ShapeError(f"conv: arena of {arena.size} values for {n} rows of {d_in} -> {d_out}")
    padded = arena[:(n + 1) * d_in].reshape(n + 1, d_in)
    # A contiguous h over the arena's first value is padded[:n] itself, the
    # previous conv's output.
    if not (h.flags.c_contiguous and np.may_share_memory(h, arena[:1])):
        padded[:n] = h
    padded[n] = 0.0
    agg = arena[lead:lead + n * d_in].reshape(n, d_in)
    scratch = arena[lead + n * d_in:lead + 2 * n * d_in].reshape(n, d_in)
    out = arena[:(n + 1) * d_out].reshape(n + 1, d_out)[:n]
    return padded, agg, scratch, out


def conv(h, table, weight, bias, state: "BatchNormState", mode: str, arena=None) -> Node:
    """One graph convolution ``relu(batch_norm(linear(neighbor_sum(h, table), weight, bias)))``.

    One node in place of those four. Train mode and passes under the tape
    run the same IEEE operations in the same order, so the same bits, the
    same running-statistics update in train mode and the same gradients for
    h, weight, bias, gamma and beta. An eval pass with the tape off folds
    the bias and batch norm into one scale and shift per channel,
    ``scale = gamma / sqrt(running_var + epsilon)`` and ``shift = (bias -
    running_mean) * scale + beta``, applied to the product: rounded
    differently from the composite, so close to its values but not its bits.
    The affine map, the normalization and the ReLU run in place on one
    array. Shapes are checked before any work. With a table whose row i is
    ``[i]``, the slot sum copies ``h``: a dense layer with batch norm and ReLU.

    ``arena`` is a 1-d float64 buffer for eval passes with the tape off,
    of at least ``(n + 1) * max(d_in, d_out) + 2 * n * d_in`` values. The
    arrays of the pass are views into it, the output too: it holds until
    the next conv that writes into the same arena. A contiguous ``h`` that
    starts at the arena's first value is taken to be that output, already
    padded in place.
    """
    h, weight, bias = _wrap(h), _wrap(weight), _wrap(bias)
    table = _neighbor_table(h, table, "conv")
    n, d_in = h.shape
    if weight.value.ndim != 2 or weight.shape[0] != d_in:
        raise ShapeError(f"conv: input {h.shape} does not match weight {weight.shape}")
    d_out = weight.shape[1]
    if bias.value.ndim != 1 or bias.shape[0] != d_out:
        raise ShapeError(f"conv: bias {bias.shape} does not match weight {weight.shape}")
    if state.dim != d_out:
        raise ShapeError(f"conv: weight {weight.shape} does not match batch norm dim {state.dim}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    if mode == "train" and n < 2:
        raise ValueError("batch_norm train mode requires at least 2 rows")
    gamma, beta = state.gamma, state.beta
    taped = _recording.on and (h.requires_grad or weight.requires_grad or bias.requires_grad
                               or gamma.requires_grad or beta.requires_grad)
    if arena is not None and (taped or mode == "train"):
        raise ValueError("conv: an arena serves eval passes with the tape off")

    padded, agg, scratch, out = _conv_buffers(arena, h.value, d_out)
    agg = _slots(padded, table, agg, scratch)
    xhat = np.matmul(agg, weight.value, out=out)
    if mode == "eval" and not taped:
        # Batch norm at fixed statistics and the bias fold into one scale and
        # one shift per channel: two passes over the product in place of five.
        scale = gamma.value / np.sqrt(state.running_var + state.epsilon)
        xhat *= scale
        xhat += (bias.value - state.running_mean) * scale + beta.value
        np.fmax(xhat, 0.0, out=xhat)  # relu; NaN -> 0
        xhat += 0.0  # fmax(-0.0, 0.0) may be -0.0; this makes it +0.0
        return Node(xhat)
    xhat += bias.value
    if mode == "train":
        # ndarray.mean and .var in one pass over the centred xhat: var's own
        # mean is this sum / n, and its squares are those of xhat - mu
        mu = np.add.reduce(xhat, axis=0)
        mu /= n
        xhat -= mu
        var = np.add.reduce(np.square(xhat), axis=0)  # biased
        var /= n
        state.running_mean = (1.0 - state.momentum) * state.running_mean + state.momentum * mu
        state.running_var = (1.0 - state.momentum) * state.running_var + state.momentum * var
    else:
        mu, var = state.running_mean, state.running_var
        xhat -= mu
    inv = 1.0 / np.sqrt(var + state.epsilon)
    xhat *= inv
    # The tape keeps xhat for backward; without it, xhat becomes the output.
    out = xhat * gamma.value if taped else np.multiply(xhat, gamma.value, out=xhat)
    out += beta.value
    mask = out > 0.0 if taped else None
    np.fmax(out, 0.0, out=out)  # relu; NaN -> 0
    out += 0.0  # fmax(-0.0, 0.0) may be -0.0; this makes it +0.0
    if not taped:
        return Node(out)

    def bw(g):
        g = g * mask
        dbeta = g.sum(axis=0) if beta.requires_grad else None
        dgamma = (g * xhat).sum(axis=0) if gamma.requires_grad else None
        if not (h.requires_grad or weight.requires_grad or bias.requires_grad):
            return (None, None, None, dgamma, dbeta)
        # batch_norm's input gradient, its composite's ops in order
        dpre = g
        dpre *= gamma.value
        if mode == "train":
            total = dpre.sum(axis=0)
            dot = (dpre * xhat).sum(axis=0)
            dpre *= n
            dpre -= total
            dpre -= xhat * dot
            dpre *= inv / n
        else:
            dpre *= inv
        gw = agg.T @ dpre if weight.requires_grad else None
        gb = dpre.sum(axis=0) if bias.requires_grad else None
        gh = None
        if h.requires_grad:
            gpad = np.empty((n + 1, d_in))
            np.matmul(dpre, weight.value.T, out=gpad[:n])
            gpad[n] = 0.0
            gh = _slots(gpad, table)
        return (gh, gw, gb, dgamma, dbeta)

    return Node(out, True, (h, weight, bias, gamma, beta), bw)


def segment_aggregate(x, table, kind: str) -> Node:
    """Per-segment, per-feature mean or max over rows of a 2-d node.

    Row k of ``table`` lists the rows of segment k, padded with ``len(x)``;
    segments must be nonempty and disjoint. Max routes the gradient to the
    argmax row only, ties broken toward the lowest row index.
    """
    x = _wrap(x)
    table = _table(x, table)
    n, d = x.shape
    if kind == "mean":
        counts = (table < n).sum(axis=1, keepdims=True)
        if not counts.all():
            raise ValueError("segment_aggregate: empty segment")
        out = _gather(x.value, table).sum(axis=1) / counts
    elif kind == "max":
        if not (table < n).any(axis=1).all():
            raise ValueError("segment_aggregate: empty segment")
        vals = _gather(x.value, table, -np.inf)
        out = vals.max(axis=1)
    else:
        raise ValueError(f"unknown aggregation {kind!r}")

    def bw(g):
        gx = np.zeros((n + 1, d))
        if kind == "mean":
            gx[table] += (g / counts)[:, None, :]
        else:
            # Lowest row holding the maximum, whatever order the slots list it in.
            top = np.where(vals == out[:, None, :], table[:, :, None], n).min(axis=1)
            gx[top, np.arange(d)] += g
        return (gx[:n],)

    return Node(out, x.requires_grad, (x,), bw)


class BatchNormState:
    """Per-feature batch normalization parameters and running statistics.

    ``gamma`` and ``beta`` are trainable nodes; running statistics are plain
    arrays updated in train mode with PyTorch-style momentum:
    ``running = (1 - momentum) * running + momentum * batch``. Train-mode
    normalization uses the biased (divide by n) batch variance; the same
    biased variance feeds the running statistics. ``gamma`` and ``beta``, if
    given, are the nodes to use; otherwise new ones and zeros of size ``dim``.
    """

    def __init__(self, dim: int, momentum: float = 0.1, epsilon: float = 1e-5,
                 gamma: Node | None = None, beta: Node | None = None):
        self.momentum, self.epsilon = self.checked_rates(momentum, epsilon)
        self.gamma = parameter(np.ones(dim)) if gamma is None else gamma
        self.beta = parameter(np.zeros(dim)) if beta is None else beta
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    @staticmethod
    def checked_rates(momentum: float, epsilon: float) -> tuple[float, float]:
        """``(momentum, epsilon)`` as floats: momentum must lie in (0, 1), epsilon be positive."""
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must lie in (0, 1)")
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        return float(momentum), float(epsilon)

    @property
    def dim(self) -> int:
        return self.gamma.value.shape[0]


def batch_norm(x, state: BatchNormState, mode: str) -> Node:
    """Batch normalization with exact backward through the batch statistics.

    Train mode normalizes by the batch mean and biased variance, applies
    gamma/beta, and updates the running statistics as a side effect. Eval
    mode normalizes by the running statistics (well-defined for any n).
    """
    x = _wrap(x)
    if x.value.ndim != 2:
        raise ShapeError("batch_norm operates on 2-d nodes")
    if x.shape[1] != state.dim:
        raise ShapeError(f"batch_norm: input dim {x.shape[1]} != state dim {state.dim}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    gamma, beta = state.gamma, state.beta

    if mode == "train":
        n = x.shape[0]
        if n < 2:
            raise ValueError("batch_norm train mode requires at least 2 rows")
        mu = x.value.mean(axis=0)
        var = x.value.var(axis=0)  # biased
        inv = 1.0 / np.sqrt(var + state.epsilon)
        xhat = (x.value - mu) * inv
        state.running_mean = (1.0 - state.momentum) * state.running_mean + state.momentum * mu
        state.running_var = (1.0 - state.momentum) * state.running_var + state.momentum * var
        out = gamma.value * xhat + beta.value

        def bw(g):
            dbeta = g.sum(axis=0) if beta.requires_grad else None
            dgamma = (g * xhat).sum(axis=0) if gamma.requires_grad else None
            if x.requires_grad:
                dxhat = g * gamma.value
                dx = (inv / n) * (
                    n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
                )
            else:
                dx = None
            return (dx, dgamma, dbeta)

    else:
        inv = 1.0 / np.sqrt(state.running_var + state.epsilon)
        xhat = (x.value - state.running_mean) * inv
        out = gamma.value * xhat + beta.value

        def bw(g):
            dbeta = g.sum(axis=0) if beta.requires_grad else None
            dgamma = (g * xhat).sum(axis=0) if gamma.requires_grad else None
            dx = g * gamma.value * inv if x.requires_grad else None
            return (dx, dgamma, dbeta)

    needs = x.requires_grad or gamma.requires_grad or beta.requires_grad
    return Node(out, needs, (x, gamma, beta), bw)


def reduce(x, kind: str) -> Node:
    """Reduce a node to a 0-d scalar by sum or mean."""
    x = _wrap(x)
    if kind == "sum":
        out = x.value.sum()

        def bw(g):
            return (np.full_like(x.value, float(g)),)

    elif kind == "mean":
        out = x.value.mean()
        size = x.value.size

        def bw(g):
            return (np.full_like(x.value, float(g) / size),)

    else:
        raise ValueError(f"unknown reduction {kind!r}")
    return Node(np.asarray(out), x.requires_grad, (x,), bw)


def backward(root: Node) -> None:
    """Populate gradients of all trainable leaves reachable from a scalar root.

    Each call adds this pass's derivatives into the leaves' ``grad`` buffers,
    in place, so repeated calls accumulate. Intermediate nodes keep
    ``grad = None``.
    """
    if root.value.shape != ():
        raise ShapeError(f"backward requires a scalar root, got shape {root.value.shape}")
    if not root.requires_grad:
        return
    # Iterative postorder over the requires_grad subgraph.
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    # Fresh per-pass gradients keep repeated backward calls strictly additive.
    gmap: dict[int, np.ndarray] = {id(root): np.asarray(1.0)}
    for node in reversed(order):
        g = gmap.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            node.grad += g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            if key in gmap:
                gmap[key] = gmap[key] + pg
            else:
                gmap[key] = np.asarray(pg, dtype=np.float64)


def grad_check(f: Callable[[Node], Node], x0, step: float = 1e-5) -> float:
    """Compare the analytic gradient of f at x0 to central finite differences.

    f must map one tensor node to a scalar node using the primitives above,
    and x0 should avoid relu/abs/max kink points within +-step. Returns the
    maximum elementwise relative error with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    leaf = parameter(x0.copy())
    out = f(leaf)
    if out.value.shape != ():
        raise ShapeError("grad_check requires a scalar-valued function")
    backward(out)
    analytic = leaf.grad.copy()

    numeric = np.zeros_like(x0)
    for idx in np.ndindex(x0.shape):
        xp = x0.copy()
        xp[idx] += step
        xm = x0.copy()
        xm[idx] -= step
        numeric[idx] = (f(constant(xp)).value - f(constant(xm)).value) / (2.0 * step)

    if analytic.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
