"""Multi-task GCN in two variants built on the autodiff primitives.

Both variants share the convolution stack: each layer updates an atom's
representation from itself plus the sum of its bonded neighbors, followed by
an affine map, batch normalization, and ReLU. Mean and max aggregations of
the final node representations are passed through tanh and concatenated into
the molecular fingerprint.

The explainable variant feeds the fingerprint directly into the output
layer, so each prediction decomposes exactly into per-representation terms
w_ij * tanh(f(x_i)) plus the bias. The reference variant inserts an
intermediate fully-connected layer (with batch norm and ReLU) between the
fingerprint and the output layer.
"""

from __future__ import annotations

import json
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
    "init_model",
    "conv_forward",
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


def conv_forward(h: ad.Node, neighbors: np.ndarray, weight: ad.Node, bias: ad.Node,
                 bn_state: ad.BatchNormState, mode: str) -> ad.Node:
    """One fingerprint convolution: ReLU(BN(W (h_v + sum of neighbors) + b)).

    Row v of the ``neighbors`` table lists atom v and its bonded neighbors in
    ascending order, padded with the atom count.
    """
    agg = ad.neighbor_sum(h, neighbors)
    pre = ad.linear(agg, weight, bias)
    return ad.relu(ad.batch_norm(pre, bn_state, mode))


def fingerprint(node_reps: ad.Node, atoms: np.ndarray) -> ad.Node:
    """Per-molecule [tanh(mean of reps) || tanh(max of reps)].

    Row k of the ``atoms`` table lists molecule k's atom rows, padded with
    the atom count. tanh is applied after aggregation, so output-layer terms
    w * tanh(f(x)) sum exactly to the prediction minus the bias.
    """
    mean_part = ad.tanh(ad.segment_aggregate(node_reps, atoms, "mean"))
    max_part = ad.tanh(ad.segment_aggregate(node_reps, atoms, "max"))
    return ad.concat_cols(mean_part, max_part)


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


class Model:
    """Layer stack with all parameters; built through :func:`init_model`."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.conv_weights: list[ad.Node] = []
        self.conv_biases: list[ad.Node] = []
        self.conv_bn: list[ad.BatchNormState] = []
        self.mid_weight: ad.Node | None = None
        self.mid_bias: ad.Node | None = None
        self.mid_bn: ad.BatchNormState | None = None
        self.out_weight: ad.Node | None = None
        self.out_bias: ad.Node | None = None

    @property
    def is_explainable(self) -> bool:
        return self.config.variant == VARIANT_EXPLAINABLE

    def named_parameters(self) -> list[tuple[str, ad.Node]]:
        """All trainable parameters in a fixed, checkpoint-stable order."""
        named = []
        for ell in range(self.config.num_conv_layers):
            named.append((f"conv{ell}.weight", self.conv_weights[ell]))
            named.append((f"conv{ell}.bias", self.conv_biases[ell]))
            named.append((f"conv{ell}.gamma", self.conv_bn[ell].gamma))
            named.append((f"conv{ell}.beta", self.conv_bn[ell].beta))
        if self.config.variant == VARIANT_REFERENCE:
            named.append(("intermediate.weight", self.mid_weight))
            named.append(("intermediate.bias", self.mid_bias))
            named.append(("intermediate.gamma", self.mid_bn.gamma))
            named.append(("intermediate.beta", self.mid_bn.beta))
        named.append(("output.weight", self.out_weight))
        named.append(("output.bias", self.out_bias))
        return named

    def parameters(self) -> list[ad.Node]:
        return [node for _, node in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(node.value.size for node in self.parameters())

    def batch_norm_states(self) -> list[tuple[str, ad.BatchNormState]]:
        states = [(f"conv{ell}", st) for ell, st in enumerate(self.conv_bn)]
        if self.mid_bn is not None:
            states.append(("intermediate", self.mid_bn))
        return states

    def zero_grads(self) -> None:
        for node in self.parameters():
            node.zero_grad()

    def forward_batch(self, graphs: list[MolecularGraph], mode: str = "eval") -> BatchForward:
        """Run the full network over a batch of molecules, packed in input order."""
        packed = PackedDataset(graphs)
        return self.forward(packed.x, packed.neighbors, _atom_table(packed.offsets), mode)

    def forward(self, x: np.ndarray, neighbors: np.ndarray, atoms: np.ndarray,
                mode: str = "eval") -> BatchForward:
        """Run the full network over a batch from :meth:`PackedDataset.take`.

        Eval mode records no tape: its nodes require no grad and keep no
        parents, so each intermediate is freed once the next layer has read it.
        """
        recording = ad._set_recording(mode != "eval")
        try:
            h = ad.constant(x)
            for ell in range(self.config.num_conv_layers):
                h = conv_forward(h, neighbors, self.conv_weights[ell], self.conv_biases[ell],
                                 self.conv_bn[ell], mode)
            fp = fingerprint(h, atoms)
            head = fp
            if self.config.variant == VARIANT_REFERENCE:
                head = ad.relu(ad.batch_norm(ad.linear(fp, self.mid_weight, self.mid_bias),
                                             self.mid_bn, mode))
            out = ad.linear(head, self.out_weight, self.out_bias)
        finally:
            ad._set_recording(recording)
        return BatchForward(output=out, fingerprint=fp, node_reps=h)

    def predict(self, graphs: list[MolecularGraph]) -> np.ndarray:
        """Eval-mode prediction matrix (molecules, targets); column j is targets[j].

        The molecules run in :func:`eval_slices`, one packed forward pass per
        slice, so memory is bounded by one slice whatever the list length.
        The rows are the bits of one :meth:`forward_batch` over the whole list
        while molecules x output-layer inputs x targets stays within 1e6
        (2,604 molecules at H=64 and 3 targets). Past that, single-threaded
        OpenBLAS switches the one pass's output product to its large-matrix
        kernel, which moves some of that pass's rows by about 1e-15.
        """
        return np.concatenate([self.forward_batch(part).output.value
                               for part in eval_slices(graphs)])


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_model(config: ModelConfig) -> Model:
    """Seeded Glorot-uniform weights, zero biases, identity batch norm."""
    rng = np.random.default_rng(config.seed)
    model = Model(config)
    d_in = FEATURE_DIM
    for _ in range(config.num_conv_layers):
        model.conv_weights.append(ad.parameter(_glorot(rng, d_in, config.conv_hidden)))
        model.conv_biases.append(ad.parameter(np.zeros(config.conv_hidden)))
        model.conv_bn.append(ad.BatchNormState(config.conv_hidden))
        d_in = config.conv_hidden
    head_in = config.fingerprint_dim
    if config.variant == VARIANT_REFERENCE:
        model.mid_weight = ad.parameter(_glorot(rng, head_in, config.intermediate_dim))
        model.mid_bias = ad.parameter(np.zeros(config.intermediate_dim))
        model.mid_bn = ad.BatchNormState(config.intermediate_dim)
        head_in = config.intermediate_dim
    model.out_weight = ad.parameter(_glorot(rng, head_in, config.num_targets))
    model.out_bias = ad.parameter(np.zeros(config.num_targets))
    return model


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
    """Rebuild a model from a checkpoint document whose numbers follow the run configs' rule."""
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    try:
        model = init_model(ModelConfig(**doc["config"]))
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"invalid checkpoint config: {e}") from None
    params, bn = doc.get("parameters", {}), doc.get("batch_norm", {})
    if not isinstance(params, dict) or not isinstance(bn, dict):
        raise CheckpointError("checkpoint 'parameters' and 'batch_norm' must be objects")
    for name, node in model.named_parameters():
        if name not in params:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
        entry, what, shape = params[name], f"parameter {name!r}", node.value.shape
        node.value = _numbers(entry, "data", what, node.value.size).reshape(shape)
        dims = entry.get("shape")
        if dims != list(shape) or set(map(type, dims)) != {int}:  # [1.0] == [True] == [1]
            raise CheckpointError(f"{what} has shape {dims!r}, expected {shape}")
        node.zero_grad()
    for name, state in model.batch_norm_states():
        if name not in bn:
            raise CheckpointError(f"checkpoint missing batch_norm state {name!r}")
        entry, what = bn[name], f"batch_norm state {name!r}"
        state.running_mean = _numbers(entry, "running_mean", what, state.dim)
        state.running_var = _numbers(entry, "running_var", what, state.dim)
        try:
            state.momentum = finite_number("momentum", entry.get("momentum"))
            state.epsilon = finite_number("epsilon", entry.get("epsilon"))
            ad.BatchNormState.check_settings(state.momentum, state.epsilon)
        except ValueError as e:
            raise CheckpointError(f"{what}: {e}") from None
        if np.any(state.running_var < 0):
            raise CheckpointError(f"batch_norm state {name!r} has negative running variance")
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
