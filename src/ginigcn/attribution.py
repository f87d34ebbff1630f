"""Decompose explainable-variant predictions and compare against Fukui data.

A prediction of the explainable variant is an exact linear function of the
fingerprint, so it splits into one term w_ij * tanh(f(x_i)) per learned
representation plus the output bias. Per-atom maps push those terms back
onto atoms: each mean-block term is shared among the atoms in proportion to
their (non-negative, post-ReLU) node outputs, and each max-block term lands
whole on the argmax atom. The atom scores therefore sum to the prediction
minus the bias (the completeness axiom of Sundararajan et al. 2017).

:func:`atom_maps` is the one attribution path: one
:func:`ginigcn.molecules.pack_graphs` call, one eval forward pass and one
weight product for many molecules and targets, with the same bits as one
molecule at a time from 4 conv channels up (see :func:`atom_maps`; each
prediction is the molecule's own fingerprint row times the output weights
plus the bias). Callers that map a
whole dataset take it in :func:`ginigcn.model.eval_slices`, the slices of
``model.SLICE`` molecules that ``Model.predict`` also runs, which keeps the
same bits and bounds memory by one slice's forward pass and maps. A
molecule explained one target at a time (:func:`per_atom_map`,
:func:`contribution_terms`) is packed once and runs one eval forward pass
for all its targets: the one-molecule branch of ``Model.forward_batch``,
the only reader and writer of both, keeps the pack on the graph and the
model's last one-molecule pass while nothing it read has changed.

Condensed Fukui functions are consumed from per-atom electron populations
computed externally; this module only does the subtraction and the rank
comparison against the model's atom scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import Model, eval_slices
from .molecules import MolecularGraph, brief_repr

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

    Each map carries the bits of a forward pass over its molecule alone where
    the conv products take BLAS's matrix kernel. With single-threaded OpenBLAS
    on AVX-512 that is from 4 conv channels up. A product with 1-3 output
    columns rounds a row differently depending on the rows around it, so at
    ``conv_hidden`` 1-3 some maps differ from a one-molecule pass.
    """
    cols = _columns(model, targets)
    if not graphs or not targets:
        raise ValueError("atom_maps needs at least one molecule and one target")
    fwd = model.forward_batch(graphs)
    phi = fwd.fingerprint.value                             # (molecules, 2H)
    w, b = model.out_weight.value, model.out_bias.value
    h = model.config.conv_hidden
    weights = w.T[cols]                                     # (targets, 2H)
    values = phi[:, None, :] * weights                      # (molecules, targets, 2H)
    order = (-np.abs(values)).argsort(axis=2, kind="stable")
    # Flat positions of the ranked entries in phi and in weights, one take each.
    ranked_phi = phi.take(order + np.arange(0, phi.size, 2 * h)[:, None, None])
    ranked_w = weights.take(order + np.arange(0, weights.size, 2 * h)[:, None])
    # the same products as values, in ranked order
    ranked = (ranked_w.tolist(), ranked_phi.tolist(), (ranked_phi * ranked_w).tolist())
    order = order.tolist()
    block_of = [BLOCKS[0]] * h + [BLOCKS[1]] * h
    bias = b.tolist()
    maps, start = [], 0
    for k, g in enumerate(graphs):
        n = g.num_atoms
        x = fwd.node_reps.value[start:start + n]
        start += n
        mean = np.add.reduce(x) / n                         # x.mean(axis=0)
        share = np.divide(x, n * mean, out=np.zeros(x.shape), where=mean > 0)
        winners = x.argmax(axis=0)                          # first occurrence = lowest index
        pred = (phi[k:k + 1] @ w + b)[0].tolist()           # as a one-molecule forward pass
        row = []
        for t, j in enumerate(cols):
            scores = share @ values[k, t, :h]
            np.add.at(scores, winners, values[k, t, h:])
            terms = list(map(AttributionTerm, order[k][t], map(block_of.__getitem__, order[k][t]),
                             *(r[k][t] for r in ranked)))
            row.append(AttributionMap(g.id, targets[t], pred[j], bias[j], terms,
                                      scores.tolist()))
        maps.append(row)
    return maps


def _chunked_atom_maps(model: Model, graphs: list[MolecularGraph], targets: list[str]):
    """Yield the rows of ``atom_maps(model, graphs, targets)``, one forward pass per eval slice."""
    for part in eval_slices(graphs):  # an empty list is one empty slice, which atom_maps rejects
        yield from atom_maps(model, part, targets)


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
    the returned sets are nested as mass_fraction grows. The set is computed
    afresh on every call, not kept: the output weights change in place, as
    each Adam step updates the flat buffer they view and as tests edit them,
    so a kept set could go stale unseen. The sort costs a few µs, less than
    a key over the weights' bytes such as the one that guards the model's
    kept forward pass (about 8.5 µs to build), so it is not kept behind one.
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
    # A tie group's ranks run from its last rank minus (count - 1) to its last rank.
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


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

    ``graphs`` must not be empty, and every graph must carry Fukui data, at
    least 2 atoms and a polarity that is not the same on every atom; these
    are checked before the forward pass. Returns ``(per_molecule, mean)``
    where per_molecule is a list of (id, coefficient) pairs in input order.
    """
    if polarity not in POLARITIES:
        raise ValueError(f"polarity must be one of {POLARITIES}")
    column = POLARITIES.index(polarity)
    _columns(model, [target])
    if not graphs:
        raise ValueError("fukui_compare needs at least one molecule")
    for g in graphs:
        if g.fukui is None:
            raise ValueError(f"molecule {brief_repr(g.id)} carries no fukui data")
        if g.num_atoms < 2:
            raise ValueError(f"molecule {brief_repr(g.id)} has fewer than 2 atoms")
        if len({pair[column] for pair in g.fukui}) == 1:
            raise ValueError(f"molecule {brief_repr(g.id)} has the same {polarity} on every atom; "
                             "rank correlation is undefined")
    per_molecule = [
        (g.id, rank_correlation(amap.atom_scores, [pair[column] for pair in g.fukui]))
        for g, (amap,) in zip(graphs, _chunked_atom_maps(model, graphs, [target]))
    ]
    mean = float(np.mean([c for _, c in per_molecule]))
    return per_molecule, mean
