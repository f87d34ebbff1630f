"""Synthetic dataset generator tests."""

import math
import warnings

import numpy as np
import pytest

from ginigcn.molecules import (Atom, MolecularGraph, STANDARD_VALENCE, featurize,
                               format_graph_file, parse_graph_file)
from ginigcn.toydata import PLANTED_TARGETS, ToySpec, generate, generate_graphs, planted_value


def test_deterministic_bytes():
    spec = ToySpec(num_molecules=40, seed=123)
    assert generate(spec) == generate(spec)


def test_requested_count():
    graphs = generate_graphs(ToySpec(num_molecules=500, seed=1))
    assert len(graphs) == 500


def test_every_graph_passes_validation_and_featurizes():
    text = generate(ToySpec(num_molecules=200, seed=7))
    graphs = parse_graph_file(text)
    for g in graphs:
        x = featurize(g)
        assert x.shape == (g.num_atoms, 16)


def test_planted_values_recomputable():
    graphs = generate_graphs(ToySpec(num_molecules=200, seed=11))
    for g in graphs:
        for name in PLANTED_TARGETS:
            assert g.targets[name] == planted_value(g, name)


def test_oxygen_count_matches_composition():
    graphs = generate_graphs(ToySpec(num_molecules=50, seed=3))
    for g in graphs:
        assert g.targets["oxygen_count"] == sum(1 for a in g.atoms if a.element == "O")


def test_valence_respected():
    graphs = generate_graphs(ToySpec(num_molecules=300, seed=5))
    valence = {"C": 4, "N": 3, "O": 2, "F": 1}
    for g in graphs:
        for atom, deg in zip(g.atoms, g.degrees()):
            assert deg + atom.implicit_hydrogens == valence[atom.element]


def test_sizes_bounded_and_concentrated():
    graphs = generate_graphs(ToySpec(num_molecules=400, max_heavy_atoms=9, seed=9))
    sizes = np.array([g.num_atoms for g in graphs])
    assert sizes.max() <= 9
    assert np.mean(sizes >= 7) > 0.9  # mass near the cap, QM9-style


def test_planted_subset_selection():
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=2, planted=("oxygen_count",)))
    assert all(set(g.targets) == {"oxygen_count"} for g in graphs)


def test_spec_validation():
    with pytest.raises(ValueError):
        ToySpec(num_molecules=0)
    with pytest.raises(ValueError):
        ToySpec(num_molecules=5, element_weights={"C": 0.0, "O": 0.0})
    with pytest.raises(ValueError):
        ToySpec(num_molecules=5, planted=("size", "mystery"))
    with pytest.raises(ValueError):
        ToySpec(num_molecules=5, element_weights={"Xe": 1.0})
    # keys of mixed kinds once failed with a TypeError from sorting them for the message
    with pytest.raises(ValueError, match=r"unsupported elements in weights: \['Xe', 1\]"):
        ToySpec(num_molecules=3, element_weights={1: 1.0, "Xe": 1.0})
    with pytest.raises(ValueError, match="unknown planted targets"):
        ToySpec(num_molecules=3, planted=("size", 1, "mystery"))
    # The integer rule of run configs: no floats, no booleans, no negative seed.
    for bad in ({"max_heavy_atoms": 2.5}, {"num_molecules": True}, {"num_molecules": 2.5},
                {"seed": -1}):
        with pytest.raises(ValueError):
            ToySpec(**{"num_molecules": 5, **bad})
    # Element weights follow the number rule, and each failure names the element.
    for weights in ({"C": True}, {"C": math.nan, "O": 1.0}, {"C": math.inf}, {"C": "1"}):
        with pytest.raises(ValueError, match="element weight 'C' must be"):
            ToySpec(num_molecules=5, element_weights=weights)
    with pytest.raises(ValueError, match="element_weights must map elements to weights"):
        ToySpec(num_molecules=5, element_weights=[("C", 1.0)])


def test_planted_as_one_string_is_rejected():
    # "size" once read as the names s, i, z, e
    with pytest.raises(ValueError, match=r"^planted must be a list of target names, got 'size'$"):
        ToySpec(num_molecules=3, planted="size")


def test_planted_with_an_unhashable_entry_is_rejected():
    # once a TypeError from building a set of the entries
    with pytest.raises(ValueError, match=r"^unknown planted targets: \[\['size'\]\]$"):
        ToySpec(num_molecules=3, planted=[["size"]])


BAD_WEIGHTS = [
    ({"C": 1e308, "O": 1e308}, "^element weights must sum to a finite number$"),
    ({"C": -1.0, "O": 2.0}, "^element weights must be nonnegative$"),
    ({"C": 0.0, "O": 0.0}, "^element weights must not all be zero$"),
    ({"N": 0}, "^element weights must not all be zero$"),
]


@pytest.mark.parametrize("weights, message", BAD_WEIGHTS)
def test_element_weights_without_a_distribution_are_rejected(weights, message):
    # the overflowing sum once warned and then failed inside Generator.choice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            ToySpec(num_molecules=3, element_weights=weights)


@pytest.mark.parametrize("weights, message", BAD_WEIGHTS)
def test_weights_edited_after_construction_are_rejected_when_drawn(weights, message):
    spec = ToySpec(num_molecules=3)
    spec.element_weights = weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            generate_graphs(spec)


def reference_generate(spec: ToySpec) -> str:
    """The generator as first written, one ``Generator.choice`` call per draw."""
    rng = np.random.default_rng(spec.seed)
    graphs = []
    for idx in range(spec.num_molecules):
        probs = np.array([spec.element_weights.get(el, 0.0) for el in ("C", "N", "O", "F")])
        probs = probs / probs.sum()
        size = max(1, spec.max_heavy_atoms - int(rng.choice((0, 1, 2), p=(0.8, 0.15, 0.05))))
        elements = [str(rng.choice(("C", "N", "O", "F"), p=probs))]
        free = [STANDARD_VALENCE[elements[0]]]
        bonds = []
        while len(elements) < size:
            open_sites = [i for i, f in enumerate(free) if f > 0]
            if not open_sites:
                break
            parent = int(rng.choice(open_sites))
            el = str(rng.choice(("C", "N", "O", "F"), p=probs))
            elements.append(el)
            free.append(STANDARD_VALENCE[el] - 1)
            free[parent] -= 1
            bonds.append((parent, len(elements) - 1))
        bonded = {(min(i, j), max(i, j)) for i, j in bonds}
        for _ in range(int(rng.choice([0, 1, 2], p=[0.5, 0.3, 0.2]))):
            open_sites = [i for i, f in enumerate(free) if f > 0]
            candidates = [(i, j) for a, i in enumerate(open_sites) for j in open_sites[a + 1:]
                          if (i, j) not in bonded]
            if not candidates:
                break
            i, j = candidates[int(rng.integers(len(candidates)))]
            bonds.append((i, j))
            bonded.add((i, j))
            free[i] -= 1
            free[j] -= 1
        graph = MolecularGraph(id=f"toy-{idx:05d}",
                               atoms=[Atom(el, f) for el, f in zip(elements, free)],
                               bonds=[(i, j, 1) for i, j in bonds])
        graph.targets = {name: planted_value(graph, name) for name in spec.planted}
        graphs.append(graph)
    return format_graph_file(graphs)


WEIGHT_MAPS = [
    None,  # the default
    {"O": 1},
    {"C": 0.5, "N": 0.0, "O": 0.5, "F": 0.0},
    {"C": 5e-324, "N": 1e-310, "F": 2.0},
    {"F": 1.0, "C": 1e-300, "N": 3, "O": 1},
]
PLANTED = [PLANTED_TARGETS, (), ("size",), ("branch_count", "oxygen_count")]


@pytest.mark.parametrize("cap", [1, 2, 3, 9, 14])
def test_generate_matches_the_generator_choice_reference(cap):
    # the draws skip Generator.choice but must read its stream to the bit
    for seed in range(40):
        for k, weights in enumerate(WEIGHT_MAPS):
            spec = ToySpec(num_molecules=6, max_heavy_atoms=cap, seed=seed,
                           planted=PLANTED[(seed + k) % len(PLANTED)],
                           **({} if weights is None else {"element_weights": weights}))
            assert generate(spec) == reference_generate(spec), (seed, weights)
