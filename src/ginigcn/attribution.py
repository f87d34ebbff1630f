"""Decompose explainable-variant predictions and compare against Fukui data.

A prediction of the explainable variant is an exact linear function of the
fingerprint, so it splits into one term w_ij * tanh(f(x_i)) per learned
representation plus the output bias. Per-atom maps push those terms back
onto atoms: each mean-block term is shared among the atoms in proportion to
their (non-negative, post-ReLU) node outputs, and each max-block term lands
whole on the argmax atom. The atom scores therefore sum to the prediction
minus the bias (the completeness axiom of Sundararajan et al. 2017).

:func:`atom_maps` is the one attribution path: one pack, one eval forward
pass and one weight product for many molecules and targets, with the same
bits as one molecule at a time (each prediction is the molecule's own
fingerprint row times the output weights plus the bias). Callers that map a
whole dataset take it in slices of ``CHUNK`` molecules, which keeps the same
bits and bounds memory by one slice's forward pass and maps.

Condensed Fukui functions are consumed from per-atom electron populations
computed externally; this module only does the subtraction and the rank
comparison against the model's atom scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import Model
from .molecules import MolecularGraph

__all__ = [
    "AttributionTerm",
    "AttributionMap",
    "FukuiRecord",
    "atom_maps",
    "contribution_terms",
    "per_atom_map",
    "top_representations",
    "concentration_count",
    "condensed_fukui",
    "rank_correlation",
    "fukui_compare",
]

BLOCKS = ("mean", "max")  # the block of index i is BLOCKS[i >= H]
POLARITIES = ("f_minus", "f_plus")
CHUNK = 256  # molecules per forward pass when mapping a whole dataset


@dataclass(slots=True)
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


def _columns(model: Model, targets: list[str]) -> list[int]:
    # Output-weight columns of the targets; attribution needs the explainable variant.
    if not model.is_explainable:
        raise ValueError("attribution requires an explainable-variant model")
    names = model.config.targets
    for target in targets:
        if target not in names:
            raise ValueError(f"unknown target {target!r}; available: {', '.join(names)}")
    return [names.index(t) for t in targets]


def atom_maps(model: Model, graphs: list[MolecularGraph],
              targets: list[str]) -> list[list[AttributionMap]]:
    """``maps[k][t]``, the map of ``graphs[k]`` for ``targets[t]``, from one forward pass.

    Terms are ordered by |value|, largest first, ties toward the lower index.
    With n atoms, node reps x_ki >= 0 (post-ReLU) and channel means m_i, atom k
    receives w_i * tanh(m_i) * x_ki / (n * m_i) of every mean-block term, and
    nothing when m_i = 0 (then every x_ki and the term are 0). Every max-block
    term goes whole to the lowest-index atom attaining the channel maximum.
    """
    cols = _columns(model, targets)
    if not graphs or not targets:
        raise ValueError("atom_maps needs at least one molecule and one target")
    fwd = model.forward_batch(graphs, mode="eval")
    phi = fwd.fingerprint.value                             # (molecules, 2H)
    w, b = model.out_weight.value, model.out_bias.value
    h = model.config.conv_hidden
    weights = w[:, cols].T                                  # (targets, 2H)
    values = phi[:, None, :] * weights                      # (molecules, targets, 2H)
    order = (-np.abs(values)).argsort(axis=2, kind="stable")
    ranked_w = weights[np.arange(len(cols))[:, None], order]
    ranked_phi = phi[np.arange(len(graphs))[:, None, None], order]
    # the same products as values, in ranked order
    ranked = (ranked_w.tolist(), ranked_phi.tolist(), (ranked_phi * ranked_w).tolist())
    blocks = (order >= h).tolist()
    order = order.tolist()
    maps, start = [], 0
    for k, g in enumerate(graphs):
        n = g.num_atoms
        x = fwd.node_reps.value[start:start + n]
        start += n
        mean = np.add.reduce(x) / n                         # x.mean(axis=0)
        share = np.divide(x, n * mean, out=np.zeros(x.shape), where=mean > 0)
        winners = x.argmax(axis=0)                          # first occurrence = lowest index
        pred = (phi[k:k + 1] @ w + b)[0]                    # as a one-molecule forward pass
        row = []
        for t, j in enumerate(cols):
            scores = share @ values[k, t, :h]
            np.add.at(scores, winners, values[k, t, h:])
            terms = list(map(AttributionTerm, order[k][t], map(BLOCKS.__getitem__, blocks[k][t]),
                             *(r[k][t] for r in ranked)))
            row.append(AttributionMap(g.id, targets[t], float(pred[j]), float(b[j]), terms,
                                      scores.tolist()))
        maps.append(row)
    return maps


def _chunked_atom_maps(model: Model, graphs: list[MolecularGraph], targets: list[str]):
    """Yield the rows of ``atom_maps(model, graphs, targets)``, one CHUNK-molecule pass at a time."""
    # an empty list still reaches atom_maps, which rejects it
    for start in range(0, len(graphs) or 1, CHUNK):
        yield from atom_maps(model, graphs[start:start + CHUNK], targets)


def contribution_terms(model: Model, graph: MolecularGraph, target: str) -> AttributionMap:
    """Per-representation terms w_ij * tanh(f(x_i)) for one molecule and target."""
    return replace(per_atom_map(model, graph, target), atom_scores=[])


def per_atom_map(model: Model, graph: MolecularGraph, target: str) -> AttributionMap:
    """Terms plus atom scores summing to prediction - bias; see :func:`atom_maps`."""
    return atom_maps(model, [graph], [target])[0][0]


def _by_magnitude(values, mass_fraction: float):
    # (count, order): order ranks |values| descending, ties toward the lower
    # index, and its first count entries hold mass_fraction of the total.
    if not 0.0 < mass_fraction <= 1.0:
        raise ValueError("mass_fraction must lie in (0, 1]")
    mags = np.abs(np.asarray(values, dtype=np.float64).ravel())
    order = (-mags).argsort(kind="stable")
    csum = mags[order].cumsum()
    if not csum.size or csum[-1] == 0.0:
        raise ValueError("all weights are zero")
    return int(csum.searchsorted(mass_fraction * csum[-1], side="left")) + 1, order


def concentration_count(values, mass_fraction: float) -> int:
    """Smallest count of the largest |values| holding mass_fraction of the total."""
    return _by_magnitude(values, mass_fraction)[0]


def top_representations(model: Model, target: str, mass_fraction: float = 0.9) -> list[int]:
    """Smallest set of representation indices holding mass_fraction of |w| mass.

    Indices are ordered by |w_ij| descending, ties toward the lower index;
    the returned sets are nested as mass_fraction grows.
    """
    (j,) = _columns(model, [target])
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


def fukui_compare(model: Model, graphs: list[MolecularGraph], target: str, polarity: str):
    """Spearman correlation of per-atom scores against a Fukui polarity.

    Every graph must carry Fukui data and at least 2 atoms. Returns
    ``(per_molecule, mean)`` where per_molecule is a list of (id,
    coefficient) pairs in input order.
    """
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}")
    column = POLARITIES.index(polarity)
    _columns(model, [target])
    for g in graphs:
        if g.fukui is None:
            raise ValueError(f"molecule {g.id!r} carries no fukui data")
        if g.num_atoms < 2:
            raise ValueError(f"molecule {g.id!r} has fewer than 2 atoms")
    per_molecule = [
        (g.id, rank_correlation(amap.atom_scores, [pair[column] for pair in g.fukui]))
        for g, (amap,) in zip(graphs, _chunked_atom_maps(model, graphs, [target]))
    ]
    mean = float(np.mean([c for _, c in per_molecule]))
    return per_molecule, mean
