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
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .molecules import FEATURE_DIM, MolecularGraph, featurize

__all__ = [
    "ModelConfig",
    "Model",
    "BatchForward",
    "PackedDataset",
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


class CheckpointError(ValueError):
    """Unreadable or structurally invalid checkpoint document."""


def check_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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


def _padded(rows, fill: int) -> np.ndarray:
    # One table row per list: its entries ascending, then fill up to the widest.
    width = max(map(len, rows))
    flat = [v for r in rows for v in sorted(r) + [fill] * (width - len(r))]
    return np.array(flat, dtype=np.intp).reshape(len(rows), width)


def _atom_table(begins: np.ndarray, sizes: np.ndarray, fill: int) -> np.ndarray:
    # Row k lists rows begins[k] .. begins[k] + sizes[k] - 1, then fill.
    cols = np.arange(sizes.max())
    return np.where(cols < sizes[:, None], begins[:, None] + cols, fill)


class PackedDataset:
    """A list of molecules featurized once into contiguous arrays.

    ``x`` stacks every molecule's node features. Row v of ``neighbors`` lists
    atom v and its bonded neighbors in dataset rows, ascending, padded with
    the atom count. Molecule k owns rows ``offsets[k]:offsets[k + 1]``.
    Batches are slices of the pack, taken with :meth:`take`.
    """

    def __init__(self, graphs: list[MolecularGraph]):
        if not graphs:
            raise ValueError("empty batch")
        self.x = np.concatenate([featurize(g) for g in graphs])
        n = self.x.shape[0]
        starts = list(accumulate((g.num_atoms for g in graphs[:-1]), initial=0))
        self.offsets = np.array(starts + [n])
        rows = [[v] for v in range(n)]
        for g, offset in zip(graphs, starts):
            for i, j, _ in g.bonds:
                rows[offset + i].append(offset + j)
                rows[offset + j].append(offset + i)
        self.neighbors = _padded(rows, n)

    @cached_property
    def widths(self) -> np.ndarray:
        """The widest neighbor row of each molecule, padding excluded."""
        return np.maximum.reduceat((self.neighbors < len(self.x)).sum(axis=1), self.offsets[:-1])

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
        starts = self.offsets[idx]
        sizes = self.offsets[idx + 1] - starts
        ends = np.cumsum(sizes)
        m = int(ends[-1])
        begins = ends - sizes
        shift = np.repeat(begins - starts, sizes)
        rows = np.arange(m) - shift
        table = self.neighbors[rows, :self.widths[idx].max()]
        # Bonds stay within a molecule, and a molecule's rows all move by one
        # shift, so each neighbor row stays ascending.
        neighbors = np.where(table < self.x.shape[0], table + shift[:, None], m)
        return self.x[rows], neighbors, _atom_table(begins, sizes, m)


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
        starts, ends = packed.offsets[:-1], packed.offsets[1:]
        atoms = _atom_table(starts, ends - starts, ends[-1])
        return self.forward(packed.x, packed.neighbors, atoms, mode)

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

    def predict(self, graphs: list[MolecularGraph], mode: str = "eval") -> np.ndarray:
        """Prediction matrix (molecules, targets); column j is targets[j]."""
        return self.forward_batch(graphs, mode).output.value.copy()


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


def _finite_array(entry, key: str, what: str, shape: tuple) -> np.ndarray:
    # entry[key] as a float64 array of the given shape with every value finite.
    try:
        arr = np.asarray(entry[key], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise CheckpointError(f"{what} needs a numeric {key!r} field") from None
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{what} has non-finite {key!r} values")
    if arr.shape != shape:
        raise CheckpointError(f"{what} has {key!r} of shape {arr.shape}, expected {shape}")
    return arr


def model_from_document(doc: dict) -> Model:
    """Rebuild a model from a checkpoint document."""
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
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
        if tuple(_finite_array(entry, "shape", what, (len(shape),))) != shape:
            raise CheckpointError(f"{what} has shape {entry['shape']}, expected {shape}")
        node.value = _finite_array(entry, "data", what, (node.value.size,)).reshape(shape)
        node.zero_grad()
    for name, state in model.batch_norm_states():
        if name not in bn:
            raise CheckpointError(f"checkpoint missing batch_norm state {name!r}")
        entry, what = bn[name], f"batch_norm state {name!r}"
        state.running_mean = _finite_array(entry, "running_mean", what, (state.dim,))
        state.running_var = _finite_array(entry, "running_var", what, (state.dim,))
        state.momentum = float(_finite_array(entry, "momentum", what, ()))
        state.epsilon = float(_finite_array(entry, "epsilon", what, ()))
        try:
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
