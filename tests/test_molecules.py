"""Parsing, featurization, and fold-splitting tests."""

import json

import numpy as np
import pytest

from ginigcn.molecules import (
    Atom,
    FEATURE_DIM,
    MolecularGraph,
    MoleculeError,
    featurize,
    format_graph_file,
    kfold_split,
    parse_graph_file,
    parse_smiles_subset,
)


def element_degree_multiset(g):
    """Canonical invariant for isomorphism-ish checks on tiny graphs."""
    return sorted((a.element, d, a.implicit_hydrogens) for a, d in zip(g.atoms, g.degrees()))


# ---------------------------------------------------------- graph records


def test_minimal_record():
    text = '{"id": "m1", "atoms": [{"element": "C"}], "bonds": [], "targets": {"homo": -0.25}}'
    graphs = parse_graph_file(text)
    assert len(graphs) == 1
    g = graphs[0]
    assert g.num_atoms == 1
    assert g.neighbors() == [[]]
    assert g.targets == {"homo": -0.25}


def test_bond_index_out_of_range():
    text = (
        '{"id": "m1", "atoms": [{"element": "C"}, {"element": "C"}, {"element": "O"}],'
        ' "bonds": [[0, 5, 1]], "targets": {}}'
    )
    with pytest.raises(MoleculeError, match="out of range"):
        parse_graph_file(text)


def test_record_order_preserved():
    text = (
        '{"id": "a", "atoms": [{"element": "C"}], "bonds": [], "targets": {}}\n'
        '# comment line\n'
        '\n'
        '{"id": "b", "atoms": [{"element": "O"}], "bonds": [], "targets": {}}\n'
    )
    graphs = parse_graph_file(text)
    assert [g.id for g in graphs] == ["a", "b"]


def test_malformed_record_reports_line():
    text = '{"id": "a", "atoms": [{"element": "C"}]}\nnot json\n'
    with pytest.raises(MoleculeError, match="line 2"):
        parse_graph_file(text)


@pytest.mark.parametrize("field", [
    '"targets": {"size": null}',
    '"targets": {"size": "big"}',
    '"fukui": [[0.1, null]]',
    '"fukui": [["x", 0.2]]',
    '"targets": {"size": true}',
    '"targets": {"size": "0.5"}',
    '"fukui": [[false, 0.2]]',
])
def test_non_numeric_value_reports_line(field):
    good = '{"id": "a", "atoms": [{"element": "C"}]}'
    bad = '{"id": "b", "atoms": [{"element": "C"}], ' + field + '}'
    with pytest.raises(MoleculeError, match="line 3: .* must be a number"):
        parse_graph_file(good + "\n\n" + bad + "\n")


@pytest.mark.parametrize("atom, bond, message", [
    ('"aromatic": "no"', [0, 1, 1], "aromatic must be true or false"),
    ('"aromatic": 1', [0, 1, 1], "aromatic must be true or false"),
    ('"aromatic": false', [True, 1, 1], "bond endpoint must be an integer"),
    ('"aromatic": false', [0, 1, True], "invalid bond order True"),
    ('"aromatic": false', [0, 1, 1.0], "invalid bond order 1.0"),
], ids=["aromatic_string", "aromatic_number", "endpoint_true", "order_true", "order_float"])
def test_field_of_the_wrong_kind_reports_line(atom, bond, message):
    # each of these once loaded: "no" as aromatic, true as atom 1, true and 1.0 as order 1
    record = ('{"id": "m", "atoms": [{"element": "C", ' + atom + '}, {"element": "C"}], '
              '"bonds": [' + json.dumps(bond) + ']}')
    with pytest.raises(MoleculeError, match=f"line 2: .*{message}"):
        parse_graph_file("# header\n" + record + "\n")


@pytest.mark.parametrize("atoms, bonds, message", [
    ([Atom("C", aromatic="no"), Atom("C")], [(0, 1, 1)], "aromatic must be true or false, got 'no'"),
    ([Atom("C", aromatic=1), Atom("C")], [(0, 1, 1)], "aromatic must be true or false, got 1"),
    ([Atom("C", implicit_hydrogens=True), Atom("C")], [(0, 1, 1)],
     "implicit hydrogen count must be an integer, got True"),
    ([Atom("C", implicit_hydrogens=1.5), Atom("C")], [(0, 1, 1)],
     "implicit hydrogen count must be an integer, got 1.5"),
    ([Atom("C"), Atom("C")], [(0, 1.5, 1)], "bond endpoint must be an integer, got 1.5"),
    ([Atom("C"), Atom("C")], [(True, 0, 1)], "bond endpoint must be an integer, got True"),
], ids=["aromatic_string", "aromatic_number", "hydrogens_true", "hydrogens_float",
        "endpoint_float", "endpoint_true"])
def test_graph_field_of_the_wrong_kind_rejected(atoms, bonds, message):
    # each of these once built: "no" read as aromatic, true as one hydrogen,
    # and 1.5 failed only when packed, with an IndexError or TypeError
    with pytest.raises(MoleculeError, match=f"^molecule 'm': {message}$"):
        MolecularGraph(id="m", atoms=atoms, bonds=bonds)


def test_unsupported_element():
    text = '{"id": "m", "atoms": [{"element": "Cl"}], "bonds": [], "targets": {}}'
    with pytest.raises(MoleculeError, match="unsupported element"):
        parse_graph_file(text)


def test_duplicate_bond_rejected():
    with pytest.raises(MoleculeError, match="duplicate bond"):
        MolecularGraph(id="m", atoms=[Atom("C"), Atom("C")], bonds=[(0, 1, 1), (1, 0, 1)])


def test_self_bond_rejected():
    with pytest.raises(MoleculeError, match="distinct"):
        MolecularGraph(id="m", atoms=[Atom("C"), Atom("C")], bonds=[(1, 1, 1)])


def test_at_least_one_atom():
    with pytest.raises(MoleculeError, match="at least one atom"):
        MolecularGraph(id="m", atoms=[])


def test_adjacency_symmetric():
    g = MolecularGraph(id="m", atoms=[Atom("C"), Atom("O"), Atom("C")],
                       bonds=[(0, 1, 1), (2, 1, 2)])
    adj = g.neighbors()
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            assert i in adj[j]


def test_round_trip_identity():
    text = (
        '{"id": "m1", "atoms": [{"element": "C", "implicit_h": 3}, {"element": "O", "implicit_h": 1}],'
        ' "bonds": [[0, 1, 1]], "targets": {"gap": 0.1, "homo": -0.2},'
        ' "fukui": [[0.1, 0.2], [0.3, 0.4]]}'
    )
    graphs = parse_graph_file(text)
    assert parse_graph_file(format_graph_file(graphs)) == graphs


def test_round_trip_without_optional_fields():
    g = MolecularGraph(id="x", atoms=[Atom("N", 2, False)], bonds=[], targets={})
    assert parse_graph_file(format_graph_file([g])) == [g]


# ---------------------------------------------------------------- SMILES


def test_lone_carbon():
    g = parse_smiles_subset("C")
    assert g.num_atoms == 1
    assert g.atoms[0].implicit_hydrogens == 4


def test_ethanol_chain():
    g = parse_smiles_subset("CCO")
    assert [a.element for a in g.atoms] == ["C", "C", "O"]
    assert g.bonds == [(0, 1, 1), (1, 2, 1)]
    assert [a.implicit_hydrogens for a in g.atoms] == [3, 2, 1]


def test_cyclopropane_ring():
    g = parse_smiles_subset("C1CC1")
    assert g.num_atoms == 3
    assert sorted((i, j) for i, j, _ in g.bonds) == [(0, 1), (0, 2), (1, 2)]
    assert all(a.implicit_hydrogens == 2 for a in g.atoms)


def test_ring_relabelings_isomorphic():
    a = parse_smiles_subset("C1CC1")
    b = parse_smiles_subset("C2CC2")
    assert element_degree_multiset(a) == element_degree_multiset(b)
    # same 4-ring written with a branch and a different closure site
    c = parse_smiles_subset("C1CCC1")
    d = parse_smiles_subset("C(CC1)C1")
    assert element_degree_multiset(c) == element_degree_multiset(d)


def test_branching():
    g = parse_smiles_subset("CC(C)O")
    assert sorted((i, j) for i, j, _ in g.bonds) == [(0, 1), (1, 2), (1, 3)]
    assert g.atoms[1].implicit_hydrogens == 1


def test_double_and_triple_bonds():
    g = parse_smiles_subset("C=O")
    assert g.bonds == [(0, 1, 2)]
    assert g.atoms[0].implicit_hydrogens == 2
    assert g.atoms[1].implicit_hydrogens == 0
    g = parse_smiles_subset("C#N")
    assert g.bonds == [(0, 1, 3)]
    assert g.atoms[0].implicit_hydrogens == 1
    assert g.atoms[1].implicit_hydrogens == 0


def test_benzene_aromatic():
    g = parse_smiles_subset("c1ccccc1")
    assert g.num_atoms == 6
    assert all(a.aromatic for a in g.atoms)
    assert all(order == "aromatic" for _, _, order in g.bonds)
    assert all(a.implicit_hydrogens == 1 for a in g.atoms)


def test_pyridine_nitrogen():
    g = parse_smiles_subset("c1ccncc1")
    n_atom = next(a for a in g.atoms if a.element == "N")
    assert n_atom.implicit_hydrogens == 0


def test_unsupported_character():
    with pytest.raises(MoleculeError, match="unsupported character"):
        parse_smiles_subset("C[Si]")


def test_unmatched_parenthesis():
    with pytest.raises(MoleculeError, match="unmatched"):
        parse_smiles_subset("CC(C")
    with pytest.raises(MoleculeError, match="unmatched"):
        parse_smiles_subset("CC)C")


def test_unclosed_ring_digit():
    with pytest.raises(MoleculeError, match="unclosed ring"):
        parse_smiles_subset("C1CC")


def test_valence_violation():
    with pytest.raises(MoleculeError, match="valence"):
        parse_smiles_subset("F=C")


def test_fluorine_single_bond_only():
    g = parse_smiles_subset("FC")
    assert g.atoms[0].implicit_hydrogens == 0


def test_dangling_bond_symbol():
    with pytest.raises(MoleculeError, match="dangling"):
        parse_smiles_subset("CC=")


def test_ring_bond_order_at_open_site():
    g = parse_smiles_subset("C=1CCC=1")
    ring = [b for b in g.bonds if set(b[:2]) == {0, 3}]
    assert ring and ring[0][2] == 2


def test_conflicting_ring_orders():
    with pytest.raises(MoleculeError, match="conflicting"):
        parse_smiles_subset("C=1CCC#1")


# ------------------------------------------------------------- featurize


def test_lone_carbon_feature_row():
    g = parse_smiles_subset("C")
    x = featurize(g)
    expected = [0, 1, 0, 0, 0,  1, 0, 0, 0, 0,  0,  0, 0, 0, 0, 1]
    assert x.shape == (1, FEATURE_DIM)
    assert np.array_equal(x[0], expected)


def test_cco_oxygen_row():
    g = parse_smiles_subset("CCO")
    x = featurize(g)
    assert np.array_equal(x[2, :5], [0, 0, 0, 1, 0])   # element O
    assert np.array_equal(x[2, 5:10], [0, 1, 0, 0, 0])  # degree 1
    assert x[2, 10] == 0.0
    assert np.array_equal(x[2, 11:], [0, 1, 0, 0, 0])   # one implicit H


def test_row_count_and_width():
    rng = np.random.default_rng(0)
    for smiles in ["C", "CCO", "C1CC1", "CC(C)(C)C", "c1ccccc1"]:
        g = parse_smiles_subset(smiles)
        x = featurize(g)
        assert x.shape == (g.num_atoms, 16)


def test_one_hot_blocks_sum_to_one():
    for smiles in ["CCO", "C1CC1", "c1ccncc1", "CC(C)O", "C#N"]:
        x = featurize(parse_smiles_subset(smiles))
        assert np.array_equal(x[:, 0:5].sum(axis=1), np.ones(len(x)))
        assert np.array_equal(x[:, 5:10].sum(axis=1), np.ones(len(x)))
        assert np.array_equal(x[:, 11:16].sum(axis=1), np.ones(len(x)))


def test_featurize_permutation_equivariant():
    rng = np.random.default_rng(4)
    g = parse_smiles_subset("CC(C)ON")
    x = featurize(g)
    for _ in range(20):
        perm = rng.permutation(g.num_atoms)
        inv = np.argsort(perm)
        relabeled = MolecularGraph(
            id="p",
            atoms=[g.atoms[i] for i in perm],
            bonds=[(int(inv[i]), int(inv[j]), order) for i, j, order in g.bonds],
        )
        assert np.array_equal(featurize(relabeled), x[perm])


def test_degree_out_of_range():
    # degree is a one-hot over 0-4, so construction rejects a fifth bond
    atoms = [Atom("C")] * 6
    bonds = [(0, j, 1) for j in range(1, 6)]
    with pytest.raises(MoleculeError, match="^molecule 'm': atom 0 degree 5 > 4$"):
        MolecularGraph(id="m", atoms=atoms, bonds=bonds)
    assert MolecularGraph(id="m", atoms=atoms[:5], bonds=bonds[:4]).degrees().tolist() == [
        4, 1, 1, 1, 1]


def test_hydrogen_count_out_of_range():
    with pytest.raises(MoleculeError, match="^molecule 'm': atom 1 implicit hydrogen count 7 > 4$"):
        MolecularGraph(id="m", atoms=[Atom("C", 4), Atom("C", implicit_hydrogens=7)])


# ----------------------------------------------------------------- folds


def test_kfold_partition():
    folds = kfold_split(10, 5, seed=3)
    assert len(folds) == 5
    assert all(len(f) == 2 for f in folds)
    assert sorted(i for f in folds for i in f) == list(range(10))


def test_kfold_deterministic():
    assert kfold_split(17, 4, seed=9) == kfold_split(17, 4, seed=9)


def test_kfold_sizes_differ_by_at_most_one():
    folds = kfold_split(11, 3, seed=1)
    sizes = sorted(len(f) for f in folds)
    assert sizes[-1] - sizes[0] <= 1
    assert sum(sizes) == 11


def test_kfold_preconditions():
    with pytest.raises(ValueError):
        kfold_split(3, 5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(10, 1, seed=0)
