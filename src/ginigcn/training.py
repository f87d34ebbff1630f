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
from .model import Model, ModelConfig, init_model, slice_bounds
from .molecules import (MolecularGraph, brief_repr, check_integer, finite_number, kfold_split,
                        pack_graphs)

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
        """Read :meth:`to_dict`'s document; its numbers follow the run configs' rule."""
        if not isinstance(doc, dict):
            raise ValueError("target stats must be a JSON object")
        version = doc.get("format_version")
        if type(version) is not int or version != 1:
            raise ValueError(f"unsupported target stats format_version {brief_repr(version)}")
        names, targets = doc.get("order"), doc.get("targets")
        if not isinstance(names, list) or not isinstance(targets, dict) \
                or sorted(names, key=str) != sorted(targets):
            raise ValueError(f"target stats 'order' {brief_repr(names)} must name each key of "
                             "'targets' once")
        mean, std = [], []
        for name in names:
            entry = targets[name] if isinstance(targets[name], dict) else {}
            shown = brief_repr(name)
            mean.append(finite_number(f"target {shown} mean", entry.get("mean")))
            std.append(finite_number(f"target {shown} std", entry.get("std")))
            if std[-1] <= 0:
                raise ValueError(f"target {shown} std must be positive, got {std[-1]!r}")
        return cls(names=names, mean=np.array(mean), std=np.array(std))


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
    """Dense (N, T) target matrix plus a 0/1 observation mask.

    Missing entries read 0 in both. One pass over the graphs reads each
    molecule's row with NaN for a missing name: targets are finite numbers
    (``MolecularGraph`` checks them), so NaN marks exactly the missing ones.
    """
    nan = np.nan
    y = np.array([g.targets.get(name, nan) for g in graphs for name in names],
                 dtype=np.float64).reshape(len(graphs), len(names))
    observed = y == y
    y[~observed] = 0.0
    return y, observed.astype(np.float64)


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
    """Mean squared error over observed entries only: sum(mask * (pred - target)^2) / sum(mask).

    One tape node with the IEEE operations, in order, of the composite
    ``div(reduce(mul(mul(diff, diff), mask), "sum"), count)`` with
    ``diff = sub(pred, target)``, forward and backward, so the same bits.
    """
    if pred.value.shape != target.shape or target.shape != mask.shape:
        raise ad.ShapeError(
            f"loss shapes disagree: pred {pred.value.shape}, target {target.shape}, "
            f"mask {mask.shape}"
        )
    count = float(mask.sum())
    if count == 0:
        raise ValueError("all target entries in the batch are masked out")
    mask = np.asarray(mask, dtype=np.float64)
    diff = pred.value - np.asarray(target, dtype=np.float64)
    masked_sq = diff * diff
    masked_sq *= mask

    def bw(g):
        # reduce's full array of g / count, then mul(_, mask), then the two
        # g * diff of mul(diff, diff) added, then sub's pass-through
        gd = np.full(diff.shape, float(g / count))
        gd *= mask
        gd *= diff
        gd += gd
        return (gd,)

    return ad.Node(masked_sq.sum() / count, pred.requires_grad, (pred,), bw)


class AdamState:
    """Flat parameter, gradient and moment buffers, and the shared step counter.

    ``values`` and ``grads`` hold every parameter's value and grad, in
    ``params`` order; each parameter's ``value`` and ``grad`` become views
    of them, so :func:`autodiff.backward` fills ``grads`` and one vector op
    updates or zeroes them all. ``m`` and ``v`` are the first and second
    moments, one float64 entry per value. A parameter whose ``value`` or
    ``grad`` is later rebound to another array keeps working: :meth:`bind`
    copies it in and restores the view.
    """

    def __init__(self, params: list[ad.Node]):
        size = sum(p.value.size for p in params)
        self.values, self.grads = np.empty(size), np.empty(size)
        self.m, self.v = np.zeros(size), np.zeros(size)
        self._scratch = np.empty((2, size))
        self._views = []
        start = 0
        for p in params:
            stop = start + p.value.size
            self._views.append((p, self.values[start:stop].reshape(p.value.shape),
                                self.grads[start:stop].reshape(p.value.shape)))
            start = stop
        self.t = 0
        self.bind()

    def bind(self) -> None:
        """Copy in every ``value`` or ``grad`` rebound since, and point it back at its view."""
        for p, value, grad in self._views:
            if p.value is not value:
                value[...] = p.value
                p.value = value
            if p.grad is not grad:
                grad[...] = p.grad
                p.grad = grad

    def zero_grads(self) -> None:
        """Zero every parameter's grad with one fill of ``grads``."""
        for p, _, grad in self._views:
            p.grad = grad
        self.grads.fill(0.0)


def adam_step(state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of ``state.values``, in place, from ``state.grads``.

    The parameters' values and grads are bound first (:meth:`AdamState.bind`).
    The update is elementwise the per-parameter form
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g``,
    ``value -= lr (m / c1) / (sqrt(v / c2) + eps)``, so the same bits.
    """
    state.bind()
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    g, m, v, (step, denom) = state.grads, state.m, state.v, state._scratch
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    np.multiply(g, 1.0 - b2, out=step)
    step *= g
    v += step
    np.divide(v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.adam_epsilon
    np.divide(m, c1, out=step)
    step *= cfg.learning_rate
    step /= denom
    state.values -= step


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

    Each batch's molecules are packed by :func:`pack_graphs` for its
    train-mode pass, so every training molecule is packed once per epoch.
    After each epoch, ``val_graphs`` (if given) is scored with
    :func:`evaluate_mae`, as :func:`cross_validate` scores a held-out
    fold. Target statistics are fitted on ``graphs`` (the training
    fold). Returns ``(model, stats, history)``; the model is mutated in
    place. Gini regularization (m > 0) requires the explainable variant.

    Raises TrainingDivergence, carrying the history so far, when a non-finite
    loss appears.
    """
    if not graphs:
        raise ValueError("empty training set")
    if cfg.gini.m > 0 and not model.is_explainable:
        raise ValueError("Gini regularization (m > 0) requires the explainable variant")
    names = model.config.targets
    y, mask = target_matrix(graphs, names)
    stats, z = standardize_targets(y, mask, names)
    opt = AdamState(list(model.params.values()))
    history = History(target_names=list(names))

    for epoch in range(cfg.epochs):
        report = None
        for b, batch_idx in enumerate(_epoch_batches(len(graphs), cfg.batch_size, cfg.seed, epoch)):
            opt.zero_grads()
            fwd = model.forward(*pack_graphs([graphs[i] for i in batch_idx]), mode="train")
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
            adam_step(opt, cfg)
        history.append(report, evaluate_mae(model, stats, val_graphs) if val_graphs else {})
    return model, stats, history


def evaluate_mae(model: Model, stats: TargetStats,
                 graphs: list[MolecularGraph]) -> dict[str, float]:
    """Per-target mean absolute error in original units (eval mode).

    ``stats`` must name the model's targets in the model's order. Unobserved
    entries are skipped; a target with no observed entries at all is an
    error. The predictions come from :meth:`Model.predict`, one packed
    forward pass per eval slice.
    """
    if not graphs:
        raise ValueError("empty evaluation set")
    names = model.config.targets
    if list(stats.names) != list(names):
        raise ValueError(f"target stats name {list(stats.names)}, but the model predicts "
                         f"{list(names)}")
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
