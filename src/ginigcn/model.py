"""Multi-task GCN in two variants built on the autodiff primitives.

Both variants share the convolution stack: each layer updates an atom's
representation from itself plus the sum of its bonded neighbors, followed by
an affine map, batch normalization, and ReLU, all one ``ad.conv`` node. Mean
and max aggregations of the final node representations are passed through
tanh and concatenated into the molecular fingerprint.

The explainable variant feeds the fingerprint directly into the output
layer, so each prediction decomposes exactly into per-representation terms
w_ij * tanh(f(x_i)) plus the bias. The reference variant inserts an
intermediate fully-connected layer (with batch norm and ReLU) between the
fingerprint and the output layer: an ``ad.conv`` whose table rows list only
themselves. So a forward pass runs ``conv``, the fingerprint and ``linear``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .molecules import FEATURE_DIM, MolecularGraph, check_integer, finite_number, pack_graphs

__all__ = [
    "ModelConfig",
    "Model",
    "BatchForward",
    "PackedDataset",
    "SLICE",
    "slice_bounds",
    "eval_slices",
    "parameter_shapes",
    "layout_size",
    "init_model",
    "fingerprint",
    "checkpoint_document",
    "model_from_document",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

CHECKPOINT_FORMAT_VERSION = 1

VARIANT_REFERENCE = "reference"
VARIANT_EXPLAINABLE = "explainable"

# Molecules per forward pass when evaluating a list. A multiple of 4:
# OpenBLAS computes the output product's rows in groups of four, so slices
# that start on a multiple of 4 give every row the bits of one whole pass.
SLICE = 128


class CheckpointError(ValueError):
    """Unreadable or structurally invalid checkpoint document."""


@dataclass
class ModelConfig:
    targets: list[str]
    variant: str = VARIANT_EXPLAINABLE
    num_conv_layers: int = 3
    conv_hidden: int = 64
    intermediate_dim: int = 128
    seed: int = 0

    def __post_init__(self):
        for name in ("num_conv_layers", "conv_hidden", "intermediate_dim", "seed"):
            check_integer(name, getattr(self, name))
        if not isinstance(self.targets, list) or not all(isinstance(t, str) for t in self.targets):
            raise ValueError("targets must be a list of names (strings)")
        if not self.targets:
            raise ValueError("at least one target is required")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("target names must be unique")
        if self.variant not in (VARIANT_REFERENCE, VARIANT_EXPLAINABLE):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.num_conv_layers < 1:
            raise ValueError("at least one convolution layer is required")
        if self.conv_hidden < 1:
            raise ValueError("conv_hidden must be at least 1")
        if self.intermediate_dim < 1:
            raise ValueError("intermediate_dim must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @property
    def fingerprint_dim(self) -> int:
        return 2 * self.conv_hidden

    @property
    def num_targets(self) -> int:
        return len(self.targets)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BatchForward:
    """Everything downstream consumers need from one forward pass."""

    output: ad.Node          # (molecules, targets)
    fingerprint: ad.Node     # (molecules, 2 * conv_hidden)
    node_reps: ad.Node       # (atoms, conv_hidden), last-conv outputs (post-ReLU, pre-tanh)


def fingerprint(node_reps: ad.Node, atoms: np.ndarray) -> ad.Node:
    """Per-molecule [tanh(mean of reps) || tanh(max of reps)].

    Row k of the ``atoms`` table lists molecule k's atom rows, padded with
    the atom count; molecules must be nonempty and disjoint. tanh is applied
    after aggregation, so output-layer terms w * tanh(f(x)) sum exactly to
    the prediction minus the bias.

    One tape node with the bits of ``concat_cols(tanh(segment_aggregate(reps,
    atoms, "mean")), tanh(segment_aggregate(reps, atoms, "max")))``, forward
    and backward. One gather, padded with -inf, serves both aggregations:
    the max reads it first, then its padding is zeroed for the mean. tanh
    runs once over both halves of the output. Backward sends the mean share
    to each row through a per-row molecule index, and the max share to the
    lowest row that holds the maximum.
    """
    table = np.asarray(atoms, dtype=np.intp)
    reps = node_reps.value
    if reps.ndim != 2 or table.ndim != 2:
        raise ad.ShapeError(f"fingerprint needs 2-d reps and atom table, got {reps.shape}, "
                            f"{table.shape}")
    (n, d), m = reps.shape, len(table)
    real = table < n
    counts = real.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ValueError("fingerprint: empty molecule")
    vals = ad._pad(reps, -np.inf).take(table, axis=0)  # (molecules, width, d)
    top = vals.max(axis=1)
    vals[~real] = 0.0
    out = np.empty((m, 2 * d))
    np.divide(vals.sum(axis=1), counts, out=out[:, :d])
    out[:, d:] = top
    np.tanh(out, out=out)
    if not (node_reps.requires_grad and ad._recording.on):
        return ad.Node(out)

    def bw(g):
        g = g * (1.0 - out * out)
        shares = np.empty((m + 1, d))  # per molecule, and 0 for rows no molecule lists
        np.divide(g[:, :d], counts, out=shares[:m])
        shares[m] = 0.0
        molecule = np.full(n + 1, m)
        molecule[table] = np.arange(m)[:, None]
        molecule[n] = m
        gx = shares.take(molecule, axis=0)
        # lowest row holding the maximum; padding slots read n
        rows = np.where(vals == top[:, None, :], table[:, :, None], n).min(axis=1)
        gx[rows, np.arange(d)] += g[:, d:]
        return (gx[:n],)

    return ad.Node(out, True, (node_reps,), bw)


def _atom_table(offsets: np.ndarray) -> np.ndarray:
    # Row k lists rows offsets[k] .. offsets[k + 1] - 1, then the atom count offsets[-1].
    begins, sizes = offsets[:-1], offsets[1:] - offsets[:-1]
    cols = np.arange(sizes.max())
    return np.where(cols < sizes[:, None], begins[:, None] + cols, offsets[-1])


def slice_bounds(n: int, size: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` runs of ``size`` over ``n`` items.

    A lone trailing item joins the run before it: train-mode batch norm
    cannot normalize one single-atom molecule, and a one-row output product
    takes another BLAS kernel than the rows of a longer run.
    """
    stops = [*range(size, n, size), n]
    if len(stops) > 1 and stops[-1] - stops[-2] < 2:
        del stops[-2]
    return list(zip([0, *stops[:-1]], stops))


def eval_slices(graphs: list[MolecularGraph]) -> list[list[MolecularGraph]]:
    """``graphs`` in consecutive slices of :data:`SLICE` molecules, as eval runs them."""
    return [graphs[start:stop] for start, stop in slice_bounds(len(graphs), SLICE)]


class PackedDataset:
    """A list of molecules packed once into contiguous arrays by :func:`pack_graphs`.

    ``x`` stacks every molecule's node features. Row v of ``neighbors`` lists
    atom v and its bonded neighbors in dataset rows, ascending, padded with
    the atom count. Molecule k owns rows ``offsets[k]:offsets[k + 1]``. The
    arrays come from one pass over the atoms and bonds and one sort of
    (row, neighbour) keys. Batches are slices of the pack, taken with
    :meth:`take`.
    """

    def __init__(self, graphs: list[MolecularGraph]):
        if not graphs:
            raise ValueError("empty batch")
        self.x, self.offsets, self.neighbors = pack_graphs(graphs)

    def take(self, indices):
        """Node features and the index tables ``neighbors`` and ``atoms`` of a batch.

        The batch holds the molecules ``indices`` in that order. ``neighbors``
        lists each atom and its bonded neighbors, ``atoms`` each molecule's
        atom rows; both in batch rows, ascending, padded with the batch atom
        count and no wider than the batch's widest row.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("empty batch")
        n = len(self.x)
        starts = self.offsets[idx]
        sizes = self.offsets[idx + 1] - starts
        offsets = np.concatenate(([0], sizes)).cumsum()
        m = int(offsets[-1])
        shift = np.repeat(offsets[:-1] - starts, sizes)
        rows = np.arange(m) - shift
        table = self.neighbors[rows]
        table = table[:, :(table < n).sum(axis=1).max()]
        # Bonds stay within a molecule, and a molecule's rows all move by one
        # shift, so each neighbor row stays ascending.
        neighbors = np.where(table < n, table + shift[:, None], m)
        return self.x[rows], neighbors, _atom_table(offsets)


def _packed(graphs: list[MolecularGraph]):
    """``x``, ``neighbors`` and ``atoms`` of one forward pass over ``graphs``, in input order.

    A list of one molecule reads the pack kept on its graph. The first such
    pass over a :class:`MolecularGraph` stores the three arrays, read-only,
    as the graph's ``kept_pack``; later passes over the same object reuse
    them, as when a molecule is explained once per target. Any other list
    is packed afresh.
    """
    if not graphs:
        raise ValueError("empty batch")
    if len(graphs) == 1 and graphs[0].kept_pack is not None:
        return graphs[0].kept_pack
    x, offsets, neighbors = pack_graphs(graphs)
    packed = (x, neighbors, _atom_table(offsets))
    if len(graphs) == 1:
        for array in packed:
            array.flags.writeable = False
        graphs[0].kept_pack = packed
    return packed


def parameter_shapes(config: ModelConfig):
    """Yield each parameter's checkpoint name and shape in checkpoint order: the one list of
    the layout. Lazy, so a walk that stops early never lays out 10**12 claimed layers."""
    def layer(name, d_in, d_out, kinds=("bias", "gamma", "beta")):  # gamma, beta: batch norm
        yield f"{name}.weight", (d_in, d_out)
        yield from ((f"{name}.{kind}", (d_out,)) for kind in kinds)

    h = config.conv_hidden
    for ell in range(config.num_conv_layers):
        yield from layer(f"conv{ell}", h if ell else FEATURE_DIM, h)
    d_in = config.fingerprint_dim
    if config.variant == VARIANT_REFERENCE:
        yield from layer("intermediate", d_in, config.intermediate_dim)
        d_in = config.intermediate_dim
    yield from layer("output", d_in, config.num_targets, ("bias",))


def layout_size(config: ModelConfig) -> int:
    """The number of values in the layout, the sizes of :func:`parameter_shapes` summed,
    counted without walking it."""
    h, t = config.conv_hidden, config.num_targets
    size = (FEATURE_DIM + 3) * h + (config.num_conv_layers - 1) * (h + 3) * h
    d_in = config.fingerprint_dim
    if config.variant == VARIANT_REFERENCE:
        size += (d_in + 3) * config.intermediate_dim
        d_in = config.intermediate_dim
    return size + (d_in + 1) * t


class Model:
    """The layer stack, built from ``values``: one array per :func:`parameter_shapes` name.

    ``params`` holds them as trainable nodes by name; ``bn`` maps each
    normalized layer to its batch norm state, identity to begin with, whose
    gamma and beta are that layer's parameters.
    """

    def __init__(self, config: ModelConfig, values):
        self.config = config
        p = self.params = {name: ad.parameter(values[name])
                           for name, _ in parameter_shapes(config)}
        layers = dict.fromkeys(name.rsplit(".", 1)[0] for name in p)
        self.bn = {layer: ad.BatchNormState(p[f"{layer}.gamma"].value.size,
                                            gamma=p[f"{layer}.gamma"], beta=p[f"{layer}.beta"])
                   for layer in layers if f"{layer}.gamma" in p}
        # what forward reads, built once: (weight, bias, batch norm) per layer
        view = [(p[f"{layer}.weight"], p[f"{layer}.bias"], self.bn.get(layer)) for layer in layers]
        self._convs, self._hidden = view[:config.num_conv_layers], view[config.num_conv_layers:-1]
        self.out_weight, self.out_bias, _ = view[-1]
        self._kept_pass = None  # (graph, key, BatchForward): see forward_batch

    @property
    def is_explainable(self) -> bool:
        return self.config.variant == VARIANT_EXPLAINABLE

    def named_parameters(self) -> list[tuple[str, ad.Node]]:
        """All trainable parameters in checkpoint order (:func:`parameter_shapes`)."""
        return list(self.params.items())

    def parameters(self) -> list[ad.Node]:
        return [node for _, node in self.named_parameters()]

    def batch_norm_states(self) -> list[tuple[str, ad.BatchNormState]]:
        return list(self.bn.items())

    def forward_batch(self, graphs: list[MolecularGraph], mode: str = "eval",
                      arena=None) -> BatchForward:
        """Run the full network over a batch of molecules, packed in input order.

        A one-molecule batch reads the pack kept on its graph (:func:`_packed`).
        ``arena`` is passed to :meth:`forward`.

        The model also keeps the pass of its last one-molecule eval call
        without an arena, as ``(graph, key, pass)``, and returns it, read-only,
        while the same graph object comes back and the key still matches, as
        when a molecule is explained once per target. The key holds the shape
        and bytes of every array the pass reads and each layer's epsilon
        (:meth:`_eval_key`), so an Adam step, an edit in place, a rebound
        array or new running statistics miss the kept pass unless a new pass
        would give the same bits. Any other call runs the pass and leaves the
        kept one alone; a missed one-molecule eval call replaces it.
        """
        if mode != "eval" or arena is not None or len(graphs) != 1:
            return self.forward(*_packed(graphs), mode, arena)
        graph, key = graphs[0], self._eval_key()
        kept = self._kept_pass  # read once: another thread may replace it
        if kept is not None and kept[0] is graph and kept[1] == key:
            return kept[2]
        fwd = self.forward(*_packed(graphs))
        for node in (fwd.output, fwd.fingerprint, fwd.node_reps):
            node.value.flags.writeable = False
        self._kept_pass = (graph, key, fwd)
        return fwd

    def _eval_key(self) -> list:
        """Dtype, shape and bytes of everything an eval pass reads from the model.

        That is each layer's weight, bias, batch norm gamma, beta, running
        mean, running variance and epsilon, and the output layer: about 10k
        values at H=64 and 3 conv layers, whose key is built in about 8.5 µs;
        a call that returns the kept pass takes about 11.2 µs (2-core box),
        against about 85 µs for the pass.
        """
        arrays = [self.out_weight.value, self.out_bias.value]
        for weight, bias, state in (*self._convs, *self._hidden):
            arrays += (weight.value, bias.value, state.gamma.value, state.beta.value,
                       state.running_mean, state.running_var, np.float64(state.epsilon))
        return [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    def forward(self, x: np.ndarray, neighbors: np.ndarray, atoms: np.ndarray,
                mode: str = "eval", arena=None) -> BatchForward:
        """Run the full network over a batch from :meth:`PackedDataset.take`.

        Eval mode records no tape: its nodes require no grad and keep no
        parents, so each intermediate is freed once the next layer has read it.
        With an ``arena`` (eval mode only; see :meth:`predict`), the conv
        layers write their arrays into it, and ``node_reps`` is a view of it
        that the next pass into the same arena overwrites.
        """
        recording = ad._set_recording(mode != "eval")
        try:
            h = ad.constant(x)
            for weight, bias, state in self._convs:
                h = ad.conv(h, neighbors, weight, bias, state, mode, arena)
            fp = head = fingerprint(h, atoms)
            for weight, bias, state in self._hidden:  # reference head: rows list only themselves
                head = ad.conv(head, np.arange(len(atoms))[:, None], weight, bias, state, mode)
            out = ad.linear(head, self.out_weight, self.out_bias)
        finally:
            ad._set_recording(recording)
        return BatchForward(output=out, fingerprint=fp, node_reps=h)

    def predict(self, graphs: list[MolecularGraph]) -> np.ndarray:
        """Eval-mode prediction matrix (molecules, targets); column j is targets[j].

        The molecules run in :func:`eval_slices`, one packed forward pass per
        slice. The call allocates one float64 arena, sized from the atom count
        of its largest slice, and every slice's conv layers write their
        (atoms, H) arrays into it; so memory is bounded by one slice whatever
        the list length, and the rows come out in new arrays.
        The rows are the bits of one :meth:`forward_batch` over the whole list
        while molecules x output-layer inputs x targets stays within 1e6
        (2,604 molecules at H=64 and 3 targets). Past that, single-threaded
        OpenBLAS switches the one pass's output product to its large-matrix
        kernel, which moves some of that pass's rows by about 1e-15.
        """
        slices = eval_slices(graphs)
        atoms = max(sum(len(g.atoms) for g in part) for part in slices)
        # Per conv: the padded input, which the output overlays, and two (atoms, d_in) sums.
        arena = np.empty(3 * (atoms + 1) * max(FEATURE_DIM, self.config.conv_hidden))
        # Each pass is dropped once its output is read: holding it (its
        # fingerprint, about 128 KB a slice) through the next pass made
        # 1,000-molecule evaluate_mae calls about 5 % slower.
        return np.concatenate([self.forward_batch(part, arena=arena).output.value
                               for part in slices])


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_model(config: ModelConfig) -> Model:
    """Seeded Glorot-uniform weights (drawn in layout order), zero biases, identity batch norm.

    The values are views of one buffer of :func:`layout_size` values, allocated
    before any draw, so a layout too large to hold fails at once with
    ``MemoryError``.
    """
    size = layout_size(config)
    try:
        flat = np.empty(size)
    except ValueError:  # more bytes than an array can address
        raise MemoryError(f"a layout of {size} float64 values is too large") from None
    rng = np.random.default_rng(config.seed)
    values, start = {}, 0
    for name, shape in parameter_shapes(config):
        value = values[name] = flat[start:start + math.prod(shape)].reshape(shape)
        start += value.size
        value[...] = (_glorot(rng, *shape) if name.endswith(".weight")
                      else 1.0 if name.endswith(".gamma") else 0.0)
    return Model(config, values)


def checkpoint_document(model: Model) -> dict:
    """JSON-serializable snapshot; write -> read round trips bit-exact."""
    params = {name: {"shape": list(node.value.shape), "data": node.value.ravel().tolist()}
              for name, node in model.named_parameters()}
    bn = {name: {"running_mean": state.running_mean.tolist(),
                 "running_var": state.running_var.tolist(),
                 "momentum": state.momentum, "epsilon": state.epsilon}
          for name, state in model.batch_norm_states()}
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "parameters": params,
        "batch_norm": bn,
    }


def _numbers(entry, key: str, what: str, size: int) -> np.ndarray:
    # entry[key] as float64: a list of `size` finite JSON numbers. The kinds are
    # those of finite_number (no bools, no strings), checked once per list.
    values = entry.get(key) if isinstance(entry, dict) else None
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise CheckpointError(f"{what} needs a {key!r} array of numbers")
    if len(values) != size:
        raise CheckpointError(f"{what} has {len(values)} {key!r} values, expected {size}")
    try:
        arr = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(arr).all()
    except OverflowError:  # an int beyond float range
        finite = False
    if not finite:
        raise CheckpointError(f"{what} has non-finite {key!r} values")
    return arr


def model_from_document(doc: dict) -> Model:
    """Rebuild a model from a checkpoint document whose numbers follow the run configs' rule.

    Each layout entry's shape and data count are checked before its data is converted; the
    model is built once, after every entry and batch norm state has passed."""
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    try:
        config = ModelConfig(**doc["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from None
    params, bn = doc.get("parameters", {}), doc.get("batch_norm", {})
    if not isinstance(params, dict) or not isinstance(bn, dict):
        raise CheckpointError("checkpoint 'parameters' and 'batch_norm' must be objects")
    values, states = {}, {}
    for name, shape in parameter_shapes(config):
        if name not in params:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        entry, what = params[name], f"parameter {name!r}"
        dims = entry.get("shape") if isinstance(entry, dict) else None
        if dims != list(shape) or set(map(type, dims)) != {int}:  # [1.0] == [True] == [1]
            raise CheckpointError(f"{what} has shape {dims!r}, expected {shape}")
        values[name] = _numbers(entry, "data", what, math.prod(shape)).reshape(shape)
    norms = [(n.rsplit(".", 1)[0], len(v)) for n, v in values.items() if n.endswith(".gamma")]
    for name, dim in norms:
        if name not in bn:
            raise CheckpointError(f"checkpoint missing batch_norm state {name!r}")
        entry, what = bn[name], f"batch_norm state {name!r}"
        running = [_numbers(entry, key, what, dim) for key in ("running_mean", "running_var")]
        try:
            rates = ad.BatchNormState.checked_rates(
                finite_number("momentum", entry.get("momentum")),
                finite_number("epsilon", entry.get("epsilon")))
        except ValueError as e:
            raise CheckpointError(f"{what}: {e}") from None
        if np.any(running[1] < 0):
            raise CheckpointError(f"{what} has negative running variance")
        states[name] = (*rates, *running)
    model = Model(config, values)
    for name, state in model.batch_norm_states():
        state.momentum, state.epsilon, state.running_mean, state.running_var = states[name]
    return model


def save_checkpoint(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint_document(model), fh)
        fh.write("\n")


def load_checkpoint(path) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise CheckpointError(f"unreadable checkpoint {path}: {e}") from None
    return model_from_document(doc)
