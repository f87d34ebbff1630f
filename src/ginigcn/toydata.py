"""Deterministic synthetic molecule datasets with analytically known targets.

Molecules are random valence-respecting trees over {C, N, O, F} with
occasional ring-closing bonds, all single bonds, no aromaticity. Sizes
concentrate near the heavy-atom cap (QM9-style: most molecules sit at the
maximum). Each planted target is recomputable exactly from the graph, so
attribution quality is objectively checkable: oxygen_count counts O atoms,
size counts heavy atoms, branch_count counts atoms of degree 3 or more.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .molecules import (Atom, MolecularGraph, STANDARD_VALENCE, brief_repr, check_integer,
                        finite_number, format_graph_file)

__all__ = ["ToySpec", "PLANTED_TARGETS", "generate", "generate_graphs", "planted_value"]

PLANTED_TARGETS = ("oxygen_count", "size", "branch_count")

_ELEMENTS = ("C", "N", "O", "F")
# Molecule sizes relative to the cap: QM9 mass sits overwhelmingly at the
# maximum heavy-atom count, and count-valued targets are only recoverable
# from mean/max aggregations when sizes barely vary.
_SIZE_OFFSETS = (0, 1, 2)
_SIZE_WEIGHTS = (0.8, 0.15, 0.05)
_RING_COUNTS = (0, 1, 2)
_RING_WEIGHTS = (0.5, 0.3, 0.2)


@dataclass
class ToySpec:
    num_molecules: int
    max_heavy_atoms: int = 9
    element_weights: dict[str, float] = field(
        default_factory=lambda: {"C": 0.55, "N": 0.12, "O": 0.28, "F": 0.05}
    )
    seed: int = 0
    planted: tuple[str, ...] = PLANTED_TARGETS

    def __post_init__(self):
        for name in ("num_molecules", "max_heavy_atoms", "seed"):
            check_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.num_molecules < 1:
            raise ValueError("num_molecules must be at least 1")
        if self.max_heavy_atoms < 1:
            raise ValueError("max_heavy_atoms must be at least 1")
        if not isinstance(self.element_weights, dict):
            raise ValueError(f"element_weights must map elements to weights, got "
                             f"{brief_repr(self.element_weights)}")
        unknown = set(self.element_weights) - set(_ELEMENTS)
        if unknown:
            raise ValueError(f"unsupported elements in weights: {sorted(unknown, key=repr)}")
        _element_cdf(self.element_weights)
        if isinstance(self.planted, str) or not isinstance(self.planted, (list, tuple)):
            raise ValueError(
                f"planted must be a list of target names, got {brief_repr(self.planted)}")
        # membership by ==, so an unhashable entry is named too, not a TypeError
        bad = sorted({repr(p) for p in self.planted if p not in PLANTED_TARGETS})
        if bad:
            raise ValueError(f"unknown planted targets: [{', '.join(bad)}]")


def planted_value(graph: MolecularGraph, name: str) -> float:
    """Recompute a planted target directly from the graph."""
    if name == "oxygen_count":
        return float(sum(1 for a in graph.atoms if a.element == "O"))
    if name == "size":
        return float(graph.num_atoms)
    if name == "branch_count":
        return float(np.count_nonzero(graph.degrees() >= 3))
    raise ValueError(f"unknown planted target {name!r}")


# Draws read the PCG64 stream exactly as ``Generator.choice`` would, without
# its per-call checks: ``choice(a, p=p)`` is ``a[bisect_right(cdf, rng.random())]``
# over the cdf it builds from ``p``, and ``choice(seq)`` is
# ``seq[rng.integers(len(seq))]``. So every seed gives the same molecules.
def _cdf(p) -> list[float]:
    """The cumulative distribution ``Generator.choice(a, p=p)`` searches."""
    cdf = np.cumsum(p, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(rng: np.random.Generator, items, cdf: list[float]):
    return items[bisect_right(cdf, rng.random())]


_SIZE_CDF = _cdf(_SIZE_WEIGHTS)
_RING_CDF = _cdf(_RING_WEIGHTS)


def _element_cdf(weights: dict) -> list[float]:
    """Check the element weights and return the cdf of the element draw.

    The one check of the weights, for ``ToySpec`` and ``generate_graphs``
    alike, so a spec edited after construction cannot sample garbage.
    """
    p = np.array([finite_number(f"element weight {el!r}", weights.get(el, 0.0))
                  for el in _ELEMENTS])
    if (p < 0).any():
        raise ValueError("element weights must be nonnegative")
    with np.errstate(over="ignore"):
        total = p.sum()
    if not np.isfinite(total):
        raise ValueError("element weights must sum to a finite number")
    if total == 0:
        raise ValueError("element weights must not all be zero")
    return _cdf(p / total)


def _random_molecule(rng: np.random.Generator, spec: ToySpec, element_cdf: list[float],
                     idx: int) -> MolecularGraph:
    size = max(1, spec.max_heavy_atoms - _draw(rng, _SIZE_OFFSETS, _SIZE_CDF))

    elements = [_draw(rng, _ELEMENTS, element_cdf)]
    free = [STANDARD_VALENCE[elements[0]]]
    bonds: list[tuple[int, int, object]] = []
    # Grow a tree: each new atom bonds to a uniformly chosen open site.
    while len(elements) < size:
        open_sites = [i for i, f in enumerate(free) if f > 0]
        if not open_sites:
            break  # saturated (e.g. an early F); the molecule just ends smaller
        parent = open_sites[int(rng.integers(len(open_sites)))]
        el = _draw(rng, _ELEMENTS, element_cdf)
        elements.append(el)
        free.append(STANDARD_VALENCE[el] - 1)
        free[parent] -= 1
        bonds.append((parent, len(elements) - 1))
    # Occasional ring closures between non-adjacent open sites.
    bonded = {(min(i, j), max(i, j)) for i, j in bonds}
    for _ in range(_draw(rng, _RING_COUNTS, _RING_CDF)):
        open_sites = [i for i, f in enumerate(free) if f > 0]
        candidates = [
            (i, j)
            for a, i in enumerate(open_sites)
            for j in open_sites[a + 1:]
            if (i, j) not in bonded
        ]
        if not candidates:
            break
        i, j = candidates[int(rng.integers(len(candidates)))]
        bonds.append((i, j))
        bonded.add((i, j))
        free[i] -= 1
        free[j] -= 1

    atoms = [
        Atom(element=el, implicit_hydrogens=f, aromatic=False)
        for el, f in zip(elements, free)
    ]
    graph = MolecularGraph(
        id=f"toy-{idx:05d}",
        atoms=atoms,
        bonds=[(i, j, 1) for i, j in bonds],
    )
    graph.targets = {name: planted_value(graph, name) for name in spec.planted}
    return graph


def generate_graphs(spec: ToySpec) -> list[MolecularGraph]:
    """Generate the molecules as graph objects (deterministic per seed)."""
    element_cdf = _element_cdf(spec.element_weights)
    rng = np.random.default_rng(spec.seed)
    return [_random_molecule(rng, spec, element_cdf, idx) for idx in range(spec.num_molecules)]


def generate(spec: ToySpec) -> str:
    """Generate the dataset file content in the standard record format."""
    return format_graph_file(generate_graphs(spec))
