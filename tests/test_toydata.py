"""Synthetic dataset generator tests."""

import math

import numpy as np
import pytest

from ginigcn.molecules import featurize, parse_graph_file
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
