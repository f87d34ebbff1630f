"""Multi-task regression training: standardization, Adam, CV, MAE evaluation.

Targets are z-scored per training fold so that quantities with very
different units share one squared-error loss; MAE is reported in original
units after the inverse transform. Missing per-molecule target entries are
masked out of both the loss and the evaluation.

All randomness (shuffling, fold assignment) funnels through explicit seeds;
two runs with identical inputs and seeds produce bit-identical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .gini import GiniConfig, RegularizerReport, regularized_loss
from .model import Model, ModelConfig, PackedDataset, init_model, slice_bounds
from .molecules import MolecularGraph, check_integer, finite_number, kfold_split

__all__ = [
    "TrainConfig",
    "TargetStats",
    "History",
    "TrainingDivergence",
    "target_matrix",
    "standardize_targets",
    "multitask_loss",
    "AdamState",
    "adam_step",
    "train",
    "evaluate_mae",
    "cross_validate",
]


class TrainingDivergence(RuntimeError):
    """Non-finite loss encountered.

    Carries the epoch and batch index, and ``history``: the :class:`History`
    of the epochs that finished before the diverging one.
    """

    def __init__(self, epoch: int, batch: int, value: float, history: History):
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.history = history


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    gini: GiniConfig = field(default_factory=GiniConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            check_integer(name, getattr(self, name))
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (batch norm train mode)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not finite_number("learning_rate", self.learning_rate) > 0.0:
            raise ValueError("learning_rate must be positive")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= finite_number(name, getattr(self, name)) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not finite_number("adam_epsilon", self.adam_epsilon) > 0.0:
            raise ValueError("adam_epsilon must be positive")


@dataclass
class TargetStats:
    """Per-target mean and population standard deviation of the training fold."""

    names: list[str]
    mean: np.ndarray
    std: np.ndarray

    def transform(self, y: np.ndarray) -> np.ndarray:
        return (y - self.mean) / self.std

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return z * self.std + self.mean

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "targets": {
                name: {"mean": float(m), "std": float(s)}
                for name, m, s in zip(self.names, self.mean, self.std)
            },
            "order": list(self.names),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TargetStats":
        names = list(doc["order"])
        mean = np.array([doc["targets"][n]["mean"] for n in names])
        std = np.array([doc["targets"][n]["std"] for n in names])
        return cls(names=names, mean=mean, std=std)


@dataclass
class History:
    """Per-epoch log of losses, block Ginis, and validation MAE per target.

    The logged loss/Gini values come from the final mini-batch of each
    epoch, so raw_loss / g_effective^m reproduces regularized_loss at every
    logged step.
    """

    target_names: list[str]
    raw_loss: list[float] = field(default_factory=list)
    regularized_loss: list[float] = field(default_factory=list)
    g_mean_block: list[float] = field(default_factory=list)
    g_max_block: list[float] = field(default_factory=list)
    val_mae: list[dict[str, float]] = field(default_factory=list)

    def append(self, report: RegularizerReport, val: dict[str, float]):
        self.raw_loss.append(report.raw_loss)
        self.regularized_loss.append(report.regularized_loss)
        self.g_mean_block.append(report.g_mean_block)
        self.g_max_block.append(report.g_max_block)
        self.val_mae.append(val)

    def __len__(self) -> int:
        return len(self.raw_loss)

    def as_table(self) -> str:
        """Tab-separated table with a header row, one line per epoch."""
        header = ["epoch", "raw_loss", "reg_loss", "g_mean", "g_max"]
        header += [f"mae_{name}" for name in self.target_names]
        lines = ["\t".join(header)]
        for e in range(len(self)):
            row = [
                str(e + 1),
                repr(self.raw_loss[e]),
                repr(self.regularized_loss[e]),
                repr(self.g_mean_block[e]),
                repr(self.g_max_block[e]),
            ]
            row += [repr(self.val_mae[e].get(name, float("nan"))) for name in self.target_names]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def target_matrix(graphs: list[MolecularGraph], names: list[str]):
    """Dense (N, T) target matrix plus a 0/1 observation mask."""
    y = np.zeros((len(graphs), len(names)))
    mask = np.zeros((len(graphs), len(names)))
    for r, g in enumerate(graphs):
        for c, name in enumerate(names):
            if name in g.targets:
                y[r, c] = g.targets[name]
                mask[r, c] = 1.0
    return y, mask


def standardize_targets(y: np.ndarray, mask: np.ndarray, names: list[str]):
    """Z-score each target over its observed entries (population std).

    Returns the fitted stats and the z-scored matrix; masked-out entries are
    zeroed. A target with fewer than two distinct observed values cannot be
    standardized and is an error naming the target.
    """
    mean = np.zeros(len(names))
    std = np.zeros(len(names))
    for c, name in enumerate(names):
        observed = y[mask[:, c] > 0, c]
        if observed.size < 2 or np.unique(observed).size < 2:
            raise ValueError(f"target {name!r} needs at least 2 distinct observed values")
        mean[c] = observed.mean()
        std[c] = observed.std()
    stats = TargetStats(names=list(names), mean=mean, std=std)
    z = np.where(mask > 0, stats.transform(y), 0.0)
    return stats, z


def multitask_loss(pred: ad.Node, target: np.ndarray, mask: np.ndarray) -> ad.Node:
    """Mean squared error over observed entries only."""
    if pred.value.shape != target.shape or target.shape != mask.shape:
        raise ad.ShapeError(
            f"loss shapes disagree: pred {pred.value.shape}, target {target.shape}, "
            f"mask {mask.shape}"
        )
    count = float(mask.sum())
    if count == 0:
        raise ValueError("all target entries in the batch are masked out")
    diff = ad.sub(pred, ad.constant(target))
    masked_sq = ad.mul(ad.mul(diff, diff), ad.constant(mask))
    return ad.div(ad.reduce(masked_sq, "sum"), count)


class AdamState:
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: list[ad.Node]):
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0


def adam_step(params: list[ad.Node], state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place, reading each node's grad."""
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for i, p in enumerate(params):
        g = p.grad
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.value = p.value - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)


def _epoch_batches(n: int, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    order = np.random.default_rng((seed, epoch)).permutation(n)
    return [order[start:stop] for start, stop in slice_bounds(n, batch_size)]


def train(
    model: Model,
    graphs: list[MolecularGraph],
    cfg: TrainConfig,
    val_graphs: list[MolecularGraph] | None = None,
):
    """Minimize the regularized loss over seeded shuffled mini-batches.

    ``graphs`` are featurized once, before the first epoch, so a molecule
    that cannot be featurized raises MoleculeError before any weight moves.
    Target statistics are fitted on ``graphs`` (the training fold). Returns
    ``(model, stats, history)``; the model is mutated in place. Gini
    regularization (m > 0) requires the explainable variant.

    Raises TrainingDivergence, carrying the history so far, when a non-finite
    loss appears.
    """
    if not graphs:
        raise ValueError("empty training set")
    if cfg.gini.m > 0 and not model.is_explainable:
        raise ValueError("Gini regularization (m > 0) requires the explainable variant")
    packed = PackedDataset(graphs)
    names = model.config.targets
    y, mask = target_matrix(graphs, names)
    stats, z = standardize_targets(y, mask, names)
    params = model.parameters()
    opt = AdamState(params)
    history = History(target_names=list(names))

    for epoch in range(cfg.epochs):
        report = None
        for b, batch_idx in enumerate(_epoch_batches(len(graphs), cfg.batch_size, cfg.seed, epoch)):
            model.zero_grads()
            fwd = model.forward(*packed.take(batch_idx), mode="train")
            raw = multitask_loss(fwd.output, z[batch_idx], mask[batch_idx])
            if model.is_explainable:
                loss, report = regularized_loss(raw, model.out_weight,
                                                model.config.conv_hidden, cfg.gini)
            else:
                loss = raw
                report = RegularizerReport(
                    g_mean_block=float("nan"),
                    g_max_block=float("nan"),
                    g_effective=float("nan"),
                    raw_loss=float(raw.value),
                    regularized_loss=float(raw.value),
                )
            if not np.isfinite(loss.value):
                raise TrainingDivergence(epoch + 1, b + 1, float(loss.value), history)
            ad.backward(loss)
            adam_step(params, opt, cfg)
        val = evaluate_mae(model, stats, val_graphs) if val_graphs else {}
        history.append(report, val)
    return model, stats, history


def evaluate_mae(model: Model, stats: TargetStats, graphs: list[MolecularGraph]) -> dict[str, float]:
    """Per-target mean absolute error in original units (eval mode).

    Unobserved entries are skipped; a target with no observed entries at all
    is an error.
    """
    if not graphs:
        raise ValueError("empty evaluation set")
    names = model.config.targets
    y, mask = target_matrix(graphs, names)
    pred = stats.inverse(model.predict(graphs))
    maes = {}
    for c, name in enumerate(names):
        observed = mask[:, c] > 0
        if not observed.any():
            raise ValueError(f"no observed entries for target {name!r}")
        maes[name] = float(np.abs(pred[observed, c] - y[observed, c]).mean())
    return maes


def cross_validate(
    graphs: list[MolecularGraph],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    k: int = 5,
):
    """k-fold cross-validation; returns (per-target mean MAE, per-fold MAEs).

    Folds come from :func:`kfold_split` with the training seed. Each fold
    trains a fresh model (seed offset by the fold index) on the remaining
    folds and evaluates on the held-out one; reported values are arithmetic
    means across folds.
    """
    folds = kfold_split(len(graphs), k, train_cfg.seed)
    per_fold = []
    for f, held_out in enumerate(folds):
        held = set(held_out)
        train_graphs = [g for i, g in enumerate(graphs) if i not in held]
        val_graphs = [graphs[i] for i in held_out]
        fold_model = init_model(replace(model_cfg, seed=model_cfg.seed + f))
        _, stats, _ = train(fold_model, train_graphs, train_cfg)
        per_fold.append(evaluate_mae(fold_model, stats, val_graphs))
    mean_mae = {
        name: float(np.mean([fold[name] for fold in per_fold]))
        for name in model_cfg.targets
    }
    return mean_mae, per_fold
