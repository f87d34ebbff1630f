"""Deterministic synthetic molecule datasets with analytically known targets.

Molecules are random valence-respecting trees over {C, N, O, F} with
occasional ring-closing bonds, all single bonds, no aromaticity. Sizes
concentrate near the heavy-atom cap (QM9-style: most molecules sit at the
maximum). Each planted target is recomputable exactly from the graph, so
attribution quality is objectively checkable: oxygen_count counts O atoms,
size counts heavy atoms, branch_count counts atoms of degree 3 or more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .molecules import (Atom, MolecularGraph, STANDARD_VALENCE, check_integer, finite_number,
                        format_graph_file)

__all__ = ["ToySpec", "PLANTED_TARGETS", "generate", "generate_graphs", "planted_value"]

PLANTED_TARGETS = ("oxygen_count", "size", "branch_count")

_ELEMENTS = ("C", "N", "O", "F")
# Molecule sizes relative to the cap: QM9 mass sits overwhelmingly at the
# maximum heavy-atom count, and count-valued targets are only recoverable
# from mean/max aggregations when sizes barely vary.
_SIZE_OFFSETS = (0, 1, 2)
_SIZE_WEIGHTS = (0.8, 0.15, 0.05)


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
                             f"{self.element_weights!r}")
        unknown = set(self.element_weights) - set(_ELEMENTS)
        if unknown:
            raise ValueError(f"unsupported elements in weights: {sorted(unknown, key=repr)}")
        weights = [finite_number(f"element weight {el!r}", w)
                   for el, w in self.element_weights.items()]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("element weights must be nonnegative and not all zero")
        if isinstance(self.planted, str) or not isinstance(self.planted, (list, tuple)):
            raise ValueError(f"planted must be a list of target names, got {self.planted!r}")
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
        return float(sum(1 for d in graph.degrees() if d >= 3))
    raise ValueError(f"unknown planted target {name!r}")


def _sample_size(rng: np.random.Generator, cap: int) -> int:
    offset = int(rng.choice(_SIZE_OFFSETS, p=_SIZE_WEIGHTS))
    return max(1, cap - offset)


def _random_molecule(rng: np.random.Generator, spec: ToySpec, idx: int) -> MolecularGraph:
    probs = np.array([spec.element_weights.get(el, 0.0) for el in _ELEMENTS])
    probs = probs / probs.sum()
    size = _sample_size(rng, spec.max_heavy_atoms)

    elements = [str(rng.choice(_ELEMENTS, p=probs))]
    free = [STANDARD_VALENCE[elements[0]]]
    bonds: list[tuple[int, int, object]] = []
    # Grow a tree: each new atom bonds to a uniformly chosen open site.
    while len(elements) < size:
        open_sites = [i for i, f in enumerate(free) if f > 0]
        if not open_sites:
            break  # saturated (e.g. an early F); the molecule just ends smaller
        parent = int(rng.choice(open_sites))
        el = str(rng.choice(_ELEMENTS, p=probs))
        elements.append(el)
        free.append(STANDARD_VALENCE[el] - 1)
        free[parent] -= 1
        bonds.append((parent, len(elements) - 1))
    # Occasional ring closures between non-adjacent open sites.
    bonded = {(min(i, j), max(i, j)) for i, j in bonds}
    for _ in range(int(rng.choice([0, 1, 2], p=[0.5, 0.3, 0.2]))):
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
    rng = np.random.default_rng(spec.seed)
    return [_random_molecule(rng, spec, idx) for idx in range(spec.num_molecules)]


def generate(spec: ToySpec) -> str:
    """Generate the dataset file content in the standard record format."""
    return format_graph_file(generate_graphs(spec))
