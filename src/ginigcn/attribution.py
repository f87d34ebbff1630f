"""Decompose explainable-variant predictions and compare against Fukui data.

A prediction of the explainable variant is an exact linear function of the
fingerprint, so it splits into one term w_ij * tanh(f(x_i)) per learned
representation plus the output bias. Per-atom maps push those terms back
onto atoms: each mean-block term is shared among the atoms in proportion to
their (non-negative, post-ReLU) node outputs, and each max-block term lands
whole on the argmax atom. The atom scores therefore sum to the prediction
minus the bias (the completeness axiom of Sundararajan et al. 2017).

Condensed Fukui functions are consumed from per-atom electron populations
computed externally; this module only does the subtraction and the rank
comparison against the model's atom scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Model
from .molecules import MolecularGraph

__all__ = [
    "AttributionTerm",
    "AttributionMap",
    "FukuiRecord",
    "contribution_terms",
    "per_atom_map",
    "top_representations",
    "concentration_count",
    "condensed_fukui",
    "rank_correlation",
    "fukui_compare",
]

BLOCK_MEAN = "mean"
BLOCK_MAX = "max"
POLARITIES = ("f_minus", "f_plus")


@dataclass
class AttributionTerm:
    index: int          # fingerprint/representation index
    block: str          # "mean" for index < H, "max" otherwise
    weight: float       # w_ij
    activation: float   # tanh(f(x_i))
    value: float        # weight * activation


@dataclass
class AttributionMap:
    """Exact decomposition of one (molecule, target) prediction.

    sum of term values + bias equals the prediction; terms are sorted by
    absolute value, largest first.
    """

    molecule_id: str
    target: str
    prediction: float
    bias: float
    terms: list[AttributionTerm]
    atom_scores: list[float] = field(default_factory=list)


@dataclass
class FukuiRecord:
    """Per-atom relative nucleophilicity (f_minus) and electrophilicity (f_plus)."""

    f_minus: list[float]
    f_plus: list[float]


def _target_index(model: Model, target: str) -> int:
    try:
        return model.config.targets.index(target)
    except ValueError:
        available = ", ".join(model.config.targets)
        raise ValueError(f"unknown target {target!r}; available: {available}") from None


def _require_explainable(model: Model):
    if not model.is_explainable:
        raise ValueError("attribution requires an explainable-variant model")


def _decompose(model: Model, graph: MolecularGraph, target: str):
    """Contribution terms and the last-conv node reps from one forward pass."""
    _require_explainable(model)
    j = _target_index(model, target)
    fwd = model.forward_batch([graph], mode="eval")
    phi = fwd.fingerprint.value[0]
    weights = model.out_weight.value[:, j]
    h = model.config.conv_hidden
    values = weights * phi
    order = np.argsort(-np.abs(values), kind="stable")  # largest |value| first, ties by index
    terms = [
        AttributionTerm(index=i, block=BLOCK_MEAN if i < h else BLOCK_MAX, weight=w, activation=a,
                        value=v)
        for i, w, a, v in zip(order.tolist(), weights[order].tolist(), phi[order].tolist(),
                              values[order].tolist())
    ]
    amap = AttributionMap(
        molecule_id=graph.id,
        target=target,
        prediction=float(fwd.output.value[0, j]),
        bias=float(model.out_bias.value[j]),
        terms=terms,
    )
    return amap, fwd.node_reps.value


def contribution_terms(model: Model, graph: MolecularGraph, target: str) -> AttributionMap:
    """Per-representation terms w_ij * tanh(f(x_i)) for one molecule and target."""
    return _decompose(model, graph, target)[0]


def per_atom_map(model: Model, graph: MolecularGraph, target: str) -> AttributionMap:
    """Contribution terms plus per-atom scores that sum to prediction - bias.

    With n atoms, node reps x_ki (post-ReLU, so non-negative) and mean
    m_i = sum_k x_ki / n, atom k receives w_i * tanh(m_i) * x_ki / (n * m_i)
    of every mean-block term, and nothing when m_i = 0 (then every x_ki and
    the term are 0). Every max-block term w_i * tanh(max_k x_ki) goes whole
    to the atom attaining the maximum (ties toward the lowest atom index).
    """
    amap, x = _decompose(model, graph, target)
    w = model.out_weight.value[:, _target_index(model, target)]
    h = model.config.conv_hidden
    n = x.shape[0]
    mean = x.mean(axis=0)
    share = np.divide(x, n * mean, out=np.zeros_like(x), where=mean > 0)
    scores = share @ (w[:h] * np.tanh(mean))
    winners = x.argmax(axis=0)                    # first occurrence = lowest index
    np.add.at(scores, winners, w[h:] * np.tanh(x[winners, np.arange(h)]))
    amap.atom_scores = scores.tolist()
    return amap


def _by_magnitude(values, mass_fraction: float):
    # (count, order): order ranks |values| descending, ties toward the lower
    # index, and its first count entries hold mass_fraction of the total.
    if not 0.0 < mass_fraction <= 1.0:
        raise ValueError("mass_fraction must lie in (0, 1]")
    mags = np.abs(np.asarray(values, dtype=np.float64).ravel())
    total = mags.sum()
    if total == 0.0:
        raise ValueError("all weights are zero")
    order = np.lexsort((np.arange(mags.size), -mags))
    csum = np.cumsum(mags[order])
    return int(np.searchsorted(csum, mass_fraction * csum[-1], side="left")) + 1, order


def concentration_count(values, mass_fraction: float) -> int:
    """Smallest count of the largest |values| holding mass_fraction of the total."""
    return _by_magnitude(values, mass_fraction)[0]


def top_representations(model: Model, target: str, mass_fraction: float = 0.9) -> list[int]:
    """Smallest set of representation indices holding mass_fraction of |w| mass.

    Indices are ordered by |w_ij| descending, ties toward the lower index;
    the returned sets are nested as mass_fraction grows.
    """
    _require_explainable(model)
    j = _target_index(model, target)
    count, order = _by_magnitude(model.out_weight.value[:, j], mass_fraction)
    return order[:count].tolist()


def condensed_fukui(rho_n, rho_n_minus, rho_n_plus) -> FukuiRecord:
    """Per-atom population differences: f- = rho(N) - rho(N-1), f+ = rho(N+1) - rho(N)."""
    rho_n = np.asarray(rho_n, dtype=np.float64)
    rho_n_minus = np.asarray(rho_n_minus, dtype=np.float64)
    rho_n_plus = np.asarray(rho_n_plus, dtype=np.float64)
    if not (rho_n.shape == rho_n_minus.shape == rho_n_plus.shape) or rho_n.ndim != 1:
        raise ValueError("population vectors must be 1-d and equal length")
    return FukuiRecord(
        f_minus=[float(v) for v in rho_n - rho_n_minus],
        f_plus=[float(v) for v in rho_n_plus - rho_n],
    )


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    sv = v[order]
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def rank_correlation(a, b) -> float:
    """Spearman rank correlation with average ranks for ties.

    Undefined (and an error) when either input is constant.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("rank_correlation requires two equal-length 1-d vectors")
    if a.size < 2:
        raise ValueError("rank_correlation requires at least 2 entries")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise ValueError("rank_correlation is undefined for a constant vector")
    ra = _average_ranks(a) - (a.size + 1) / 2.0
    rb = _average_ranks(b) - (b.size + 1) / 2.0
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


def fukui_compare(
    model: Model,
    graphs: list[MolecularGraph],
    target: str,
    polarity: str,
):
    """Spearman correlation of per-atom scores against a Fukui polarity.

    Every graph must carry Fukui data and at least 2 atoms. Returns
    ``(per_molecule, mean)`` where per_molecule is a list of (id,
    coefficient) pairs in input order.
    """
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}")
    if not graphs:
        raise ValueError("no molecules to compare")
    column = 0 if polarity == "f_minus" else 1
    per_molecule = []
    for g in graphs:
        if g.fukui is None:
            raise ValueError(f"molecule {g.id!r} carries no fukui data")
        if g.num_atoms < 2:
            raise ValueError(f"molecule {g.id!r} has fewer than 2 atoms")
        scores = per_atom_map(model, g, target).atom_scores
        fk = [pair[column] for pair in g.fukui]
        per_molecule.append((g.id, rank_correlation(scores, fk)))
    mean = float(np.mean([c for _, c in per_molecule]))
    return per_molecule, mean
