"""Model construction, forward semantics, and checkpoint round trips."""

import dataclasses
import json
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn import model as model_module
from ginigcn.model import (
    SLICE,
    CheckpointError,
    Model,
    ModelConfig,
    checkpoint_document,
    eval_slices,
    fingerprint,
    init_model,
    layout_size,
    model_from_document,
    parameter_shapes,
    slice_bounds,
)
from ginigcn.gini import GiniConfig
from ginigcn.molecules import (Atom, MolecularGraph, MoleculeError, featurize,
                               format_graph_file, graph_to_record, pack_graphs, parse_graph_file,
                               parse_smiles_subset)
from ginigcn.toydata import ToySpec, generate_graphs
from ginigcn.training import TrainConfig, train

from conftest import train_pass


def relabel(graph, perm):
    inv = np.argsort(perm)
    return MolecularGraph(
        id=graph.id + "-perm",
        atoms=[graph.atoms[i] for i in perm],
        bonds=[(int(inv[i]), int(inv[j]), order) for i, j, order in graph.bonds],
        targets=dict(graph.targets),
    )


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(targets=[])
    with pytest.raises(ValueError):
        ModelConfig(targets=["a"], variant="fancy")
    with pytest.raises(ValueError):
        ModelConfig(targets=["a"], conv_hidden=0)
    cfg = ModelConfig(targets=["a", "b"], conv_hidden=64)
    assert cfg.fingerprint_dim == 128


@pytest.mark.parametrize("targets", ["ab", ("a", "b"), {"a": 5}, [3], ["a", None], ["a", "a"]],
                         ids=["string", "tuple", "object", "number", "null", "repeated"])
def test_config_targets_must_be_distinct_names(targets):
    with pytest.raises(ValueError):
        ModelConfig(targets=targets)


# -------------------------------------------------------------------- init


def test_init_deterministic():
    cfg = ModelConfig(targets=["a"], conv_hidden=6, num_conv_layers=2, seed=123)
    m1, m2 = init_model(cfg), init_model(cfg)
    for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(p1.value, p2.value)


def test_output_weight_shape():
    cfg = ModelConfig(targets=list("abcde"), conv_hidden=64)
    model = init_model(cfg)
    assert model.out_weight.value.shape == (128, 5)


def test_explainable_has_no_intermediate_layer():
    model = init_model(ModelConfig(targets=["a"], variant="explainable"))
    assert list(model.bn) == ["conv0", "conv1", "conv2"]
    names = [n for n, _ in model.named_parameters()]
    assert not any(n.startswith("intermediate") for n in names)


def test_variant_parameter_count_difference():
    # with intermediate_dim == fingerprint_dim the output layer matches in
    # both variants, so the difference is exactly the intermediate layer
    base = dict(targets=["a", "b"], conv_hidden=16, num_conv_layers=2, intermediate_dim=32, seed=0)
    ref, expl = (ModelConfig(variant=variant, **base) for variant in ("reference", "explainable"))
    fp = 2 * 16
    intermediate = fp * 32 + 32 + 32 + 32  # linear weight+bias, bn gamma+beta
    assert layout_size(ref) - layout_size(expl) == intermediate
    held = [sum(p.value.size for p in init_model(cfg).params.values()) for cfg in (ref, expl)]
    assert held == [layout_size(ref), layout_size(expl)]


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_parameter_shapes_is_the_layout_the_model_holds(variant):
    cfg = ModelConfig(targets=["a", "b"], variant=variant, conv_hidden=3, num_conv_layers=2,
                      intermediate_dim=5, seed=0)
    want = [("conv0.weight", (16, 3)), ("conv0.bias", (3,)), ("conv0.gamma", (3,)),
            ("conv0.beta", (3,)), ("conv1.weight", (3, 3)), ("conv1.bias", (3,)),
            ("conv1.gamma", (3,)), ("conv1.beta", (3,))]
    if variant == "reference":
        want += [("intermediate.weight", (6, 5)), ("intermediate.bias", (5,)),
                 ("intermediate.gamma", (5,)), ("intermediate.beta", (5,)),
                 ("output.weight", (5, 2))]
    else:
        want += [("output.weight", (6, 2))]
    want += [("output.bias", (2,))]
    assert list(parameter_shapes(cfg)) == want
    model = init_model(cfg)
    assert [(name, node.value.shape) for name, node in model.named_parameters()] == want
    assert list(checkpoint_document(model)["parameters"]) == [name for name, _ in want]
    norms = ["conv0", "conv1"] + (["intermediate"] if variant == "reference" else [])
    assert list(model.bn) == norms
    for name, state in model.bn.items():
        assert state.gamma is model.params[f"{name}.gamma"]
        assert state.beta is model.params[f"{name}.beta"]
    assert model.out_weight is model.params["output.weight"]
    assert model.out_bias is model.params["output.bias"]


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_init_draws_the_weights_in_layout_order_from_one_generator(variant):
    cfg = ModelConfig(targets=["a"], variant=variant, conv_hidden=4, num_conv_layers=3,
                      intermediate_dim=6, seed=17)
    model = init_model(cfg)
    rng = np.random.default_rng(17)
    for name, shape in parameter_shapes(cfg):
        if name.endswith(".weight"):
            a = np.sqrt(6.0 / sum(shape))
            want = rng.uniform(-a, a, size=shape)
        else:
            want = np.full(shape, 1.0 if name.endswith(".gamma") else 0.0)
        assert model.params[name].value.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("variant", ["explainable", "reference"])
@pytest.mark.parametrize("layers, hidden, intermediate, targets", [
    (1, 1, 1, 1), (2, 3, 5, 2), (3, 64, 128, 3), (5, 7, 2, 4)])
def test_layout_size_counts_the_layout(variant, layers, hidden, intermediate, targets):
    cfg = ModelConfig(targets=[f"t{j}" for j in range(targets)], variant=variant,
                      num_conv_layers=layers, conv_hidden=hidden, intermediate_dim=intermediate)
    size = sum(math.prod(shape) for _, shape in parameter_shapes(cfg))
    held = sum(node.value.size for node in init_model(cfg).params.values())
    assert layout_size(cfg) == size == held


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_a_model_is_built_with_one_node_per_parameter(monkeypatch, variant):
    # each batch norm state made gamma and beta nodes that the layout's
    # nodes then replaced: two discarded nodes per normalized layer
    cfg = ModelConfig(targets=["a"], variant=variant, conv_hidden=4, num_conv_layers=3,
                      intermediate_dim=5, seed=2)
    doc = json.loads(json.dumps(checkpoint_document(init_model(cfg))))
    built = []
    node_init = ad.Node.__init__

    def counted(node, *args, **kwargs):
        node_init(node, *args, **kwargs)
        built.append(node)

    monkeypatch.setattr(ad.Node, "__init__", counted)
    for build in (lambda: init_model(cfg), lambda: model_from_document(doc)):
        built.clear()
        model = build()
        assert [id(node) for node in built] == [id(node) for node in model.params.values()]


def test_init_bounds_are_glorot():
    cfg = ModelConfig(targets=["a"], conv_hidden=8, num_conv_layers=1, seed=5)
    model = init_model(cfg)
    w = model.params["conv0.weight"].value
    a = np.sqrt(6.0 / (16 + 8))
    assert np.all(np.abs(w) <= a)
    assert np.all(model.params["conv0.bias"].value == 0.0)
    assert np.all(model.bn["conv0"].gamma.value == 1.0)
    assert np.all(model.bn["conv0"].beta.value == 0.0)


# ------------------------------------------------------------ conv forward


def make_identity_bn(dim):
    state = ad.BatchNormState(dim, epsilon=1e-12)
    state.running_var = np.full(dim, 1.0 - state.epsilon)  # exact unit divisor
    return state


def test_conv_isolated_atom():
    # no neighbors: h' = relu(bn(W h + b))
    h = ad.constant([[2.0]])
    neighbors = np.array([[0]])
    w = ad.constant([[3.0]])
    b = ad.constant([0.5])
    out = ad.conv(h, neighbors, w, b, make_identity_bn(1), "eval")
    assert np.allclose(out.value, [[6.5]], atol=1e-12)


def test_conv_symmetric_pair():
    _, neighbors, _ = pack_graphs([parse_smiles_subset("CC")])
    h = ad.constant(np.ones((2, 3)))
    rng = np.random.default_rng(0)
    w = ad.constant(rng.normal(size=(3, 4)))
    b = ad.constant(rng.normal(size=4))
    out = ad.conv(h, neighbors, w, b, make_identity_bn(4), "eval")
    assert np.allclose(out.value[0], out.value[1])


def test_conv_three_atom_path_hand_values():
    # path 0-1-2, 1-dim reps [1, 2, 3], W = [[2]], b = [0.5]
    # self+neighbor sums: [3, 6, 5] -> affine: [6.5, 12.5, 10.5] -> bn(identity) -> relu
    h = ad.constant([[1.0], [2.0], [3.0]])
    neighbors = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 3]])  # 3 = padding
    out = ad.conv(h, neighbors, ad.constant([[2.0]]), ad.constant([0.5]),
                  make_identity_bn(1), "eval")
    assert np.allclose(out.value, [[6.5], [12.5], [10.5]], atol=1e-12)


# ------------------------------------------------------------ batch tables


def dense_self_adjacency(graphs):
    """Block-diagonal (A + I) over the batch, built straight from the bonds."""
    sizes = [g.num_atoms for g in graphs]
    a = np.eye(sum(sizes))
    offset = 0
    for g, size in zip(graphs, sizes):
        for i, j, _ in g.bonds:
            a[offset + i, offset + j] = a[offset + j, offset + i] = 1.0
        offset += size
    return a


@pytest.mark.parametrize("smiles", [
    ["C1CCCCC1"],            # ring
    ["CC(C)(C)CC(C)O"],      # branches
    ["C"],                   # isolated atom
    ["C1CC1", "CC(O)C"],     # two molecules
])
def test_neighbor_sum_matches_dense_product(smiles):
    graphs = [parse_smiles_subset(s) for s in smiles]
    x, neighbors, atoms = pack_graphs(graphs)
    n = x.shape[0]
    h = np.random.default_rng(3).normal(size=(n, 5))
    a = dense_self_adjacency(graphs)
    out = ad.neighbor_sum(ad.constant(h), neighbors).value
    assert np.allclose(out, a @ h, rtol=0.0, atol=1e-12)
    # each row adds its atoms left to right in ascending order
    loop = np.array([sum(h[j] for j in np.flatnonzero(a[i])) for i in range(n)])
    assert np.array_equal(out, loop)
    # the molecule table lists every atom once, ascending, padded with n
    real = atoms[atoms < n]
    assert np.array_equal(real, np.arange(n))
    assert [int((row < n).sum()) for row in atoms] == [g.num_atoms for g in graphs]


def reference_features(graph):
    """The featurize layout written one atom at a time."""
    degrees = graph.degrees()
    x = np.zeros((graph.num_atoms, 16))
    for k, atom in enumerate(graph.atoms):
        x[k, "HCNOF".index(atom.element)] = 1.0
        x[k, 5 + degrees[k]] = 1.0
        x[k, 10] = 1.0 if atom.aromatic else 0.0
        x[k, 11 + atom.implicit_hydrogens] = 1.0
    return x


def reference_batch(graphs):
    """The batch arrays built straight from the bonds, one molecule after another."""
    x = np.vstack([reference_features(g) for g in graphs])
    n = x.shape[0]
    rows, members, offset = [], [], 0
    for g in graphs:
        adj = [[offset + k] for k in range(g.num_atoms)]
        for i, j, _ in g.bonds:
            adj[i].append(offset + j)
            adj[j].append(offset + i)
        rows += [sorted(r) for r in adj]
        members.append(list(range(offset, offset + g.num_atoms)))
        offset += g.num_atoms

    def pad(lists):
        width = max(len(r) for r in lists)
        return np.array([r + [n] * (width - len(r)) for r in lists], dtype=np.intp)

    return x, pad(rows), pad(members)


def test_pack_hand_tables():
    cco, c, cc = (parse_smiles_subset(s) for s in ("CCO", "C", "CC"))
    x, neighbors, atoms = pack_graphs([cc, cco])
    # rows: CC -> 0, 1; CCO -> 2, 3, 4; padding 5
    assert np.array_equal(neighbors, [[0, 1, 5], [0, 1, 5], [2, 3, 5], [2, 3, 4], [3, 4, 5]])
    assert np.array_equal(atoms, [[0, 1, 5], [2, 3, 4]])
    assert np.array_equal(x[:2], reference_features(cc))
    assert np.array_equal(x[2:], reference_features(cco))
    # a lone atom: its own row only, no wider than the batch needs
    x, neighbors, atoms = pack_graphs([c])
    assert np.array_equal(neighbors, [[0]]) and np.array_equal(atoms, [[0]])
    assert np.array_equal(x, reference_features(c))


def test_pack_matches_tables_built_from_the_graphs():
    graphs = generate_graphs(ToySpec(num_molecules=60, seed=9))
    graphs += [parse_smiles_subset(s) for s in ("C", "CC(C)(C)C", "C1CCCCC1")]
    rng = np.random.default_rng(4)
    batches = [rng.permutation(len(graphs))[:k] for k in (2, 7, 25)]
    batches += [[60], [60, 61], [62], list(range(len(graphs))), [61, 3, 3]]
    for idx in batches:
        batch = [graphs[i] for i in idx]
        for a, b in zip(pack_graphs(batch), reference_batch(batch)):
            assert a.dtype == b.dtype and np.array_equal(a, b), idx


def test_pack_edge_cases_match_the_reference():
    lone = parse_smiles_subset("C")
    unbonded = MolecularGraph(id="unbonded", atoms=[Atom("O", 2), Atom("N", 3), Atom("C", 0, True)])
    degree_four = parse_smiles_subset("CC(C)(C)C")
    aromatic = parse_smiles_subset("c1ccncc1")
    for graphs in ([lone], [unbonded], [degree_four], [lone, unbonded, degree_four, aromatic],
                   [degree_four, lone, lone, unbonded]):
        for a, b in zip(pack_graphs(graphs), reference_batch(graphs)):
            assert a.dtype == b.dtype and np.array_equal(a, b), [g.id for g in graphs]
    assert pack_graphs([degree_four])[1].shape == (5, 5)


@pytest.mark.parametrize("bad_atoms, message", [
    ({2: "degree"}, "molecule 'bad': atom 2 degree 5 > 4"),
    ({1: "hydrogens"}, "molecule 'bad': atom 1 implicit hydrogen count 5 > 4"),
    ({2: "both"}, "molecule 'bad': atom 2 implicit hydrogen count 5 > 4"),
    ({0: "hydrogens", 2: "degree"}, "molecule 'bad': atom 0 implicit hydrogen count 5 > 4"),
    ({1: "degree", 3: "hydrogens"}, "molecule 'bad': atom 3 implicit hydrogen count 5 > 4"),
    ({1: "degree", 2: "degree"}, "molecule 'bad': atom 1 degree 5 > 4"),
], ids=["degree", "hydrogens", "hydrogens_before_degree", "earlier_hydrogens",
        "later_hydrogens_before_earlier_degree", "earlier_degree"])
def test_pack_names_the_first_atom_out_of_range(bad_atoms, message):
    # Atoms 0-3 of 'bad' are a chain; a "degree" atom gets extra carbons up to
    # five neighbours, a "hydrogens" atom five implicit hydrogens. Construction
    # checks the atoms first, in order, then the degrees, so a graph that
    # builds always packs.
    atoms = [Atom("C", 5 if bad_atoms.get(k) in ("hydrogens", "both") else 0) for k in range(4)]
    bonds = [(k, k + 1, 1) for k in range(3)]
    for k, kind in bad_atoms.items():
        if kind in ("degree", "both"):
            extra = 4 if k in (0, 3) else 3
            bonds += [(k, len(atoms) + e, 1) for e in range(extra)]
            atoms += [Atom("C")] * extra
    with pytest.raises(MoleculeError, match=f"^{re.escape(message)}$"):
        MolecularGraph(id="bad", atoms=atoms, bonds=bonds)


def test_pack_from_the_cached_arrays_matches_the_reference():
    # toy molecules with lone atoms and bonded-free molecules among them
    graphs = generate_graphs(ToySpec(num_molecules=40, seed=12))
    graphs[5:5] = [parse_smiles_subset("C"), parse_smiles_subset("O")]
    graphs[20:20] = [MolecularGraph(id="free", atoms=[Atom("N", 3), Atom("F", 1, True)])]
    graphs += [parse_smiles_subset("F")]
    for g in graphs:
        assert g.atom_codes.dtype == g.bond_ends.dtype == np.int64
        assert g.atom_codes.tolist() == [c for a in g.atoms for c in (
            "HCNOF".index(a.element), 11 + a.implicit_hydrogens, a.aromatic)]
        assert g.bond_ends.tolist() == [k for i, j, _ in g.bonds for k in (i, j)]
    for got, want in zip(pack_graphs(graphs), reference_batch(graphs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_pack_names_a_hydrogen_count_past_int64():
    # construction rejects the count, and the message reads the atom's own count
    count = 2 ** 70
    with pytest.raises(MoleculeError, match=f"^molecule 'big': atom 1 implicit hydrogen count "
                                            f"{count} > 4$"):
        MolecularGraph(id="big", atoms=[Atom("C"), Atom("C", count)], bonds=[(0, 1, 1)])


@pytest.mark.parametrize("entry", [-1, 1, 2], ids=["negative", "past_padding", "far"])
def test_forward_rejects_a_neighbor_index_out_of_range(entry):
    # the conv gathers with mode="clip", so its one bounds check must catch these
    model = init_model(ModelConfig(targets=["a"], conv_hidden=4, num_conv_layers=2, seed=0))
    x, neighbors, atoms = pack_graphs(generate_graphs(ToySpec(num_molecules=3, seed=1)))
    neighbors[0, -1] = len(x) + entry if entry > 0 else entry
    for mode in ("eval", "train"):
        with pytest.raises(IndexError, match="table entries must lie in"):
            model.forward(x, neighbors, atoms, mode=mode)


def test_pack_rejects_empty_batch():
    with pytest.raises(ValueError, match="^empty batch$"):
        pack_graphs([])


# ------------------------------------------------- kept one-molecule pack


def test_kept_pack_is_built_once_and_read_only(monkeypatch):
    model = init_model(ModelConfig(targets=["a"], conv_hidden=8, num_conv_layers=2, seed=1))
    g = parse_smiles_subset("CC(O)C=O")
    before = (repr(g), graph_to_record(g), dataclasses.asdict(g))
    calls = []
    real = model_module.pack_graphs

    def counted(graphs):
        calls.append([h.id for h in graphs])
        return real(graphs)

    monkeypatch.setattr(model_module, "pack_graphs", counted)
    assert g.kept_pack is None
    first = model.forward_batch([g]).output.value.copy()
    kept = g.kept_pack
    assert np.array_equal(model.predict([g]), first)  # an arena pass: packs afresh
    assert calls == [[g.id], [g.id]] and g.kept_pack is kept
    assert np.array_equal(model.forward_batch([g]).output.value, first)
    assert len(calls) == 2 and g.kept_pack is kept
    x, neighbors, atoms = kept
    assert np.array_equal(x, featurize(g))
    for array in kept:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1
    # not a field: equality, repr and the record ignore it
    assert (repr(g), graph_to_record(g), dataclasses.asdict(g)) == before
    assert g == parse_smiles_subset("CC(O)C=O")
    # a graph rebuilt with replace, or parsed again, packs afresh to the same bits
    for twin in (dataclasses.replace(g), parse_graph_file(format_graph_file([g]))[0]):
        assert twin.kept_pack is None
        assert model.forward_batch([twin]).output.value.tobytes() == first.tobytes()
        assert twin.kept_pack is not None and twin.kept_pack[0] is not x
    assert len(calls) == 4


def test_a_kept_pass_leaves_a_train_pass_unchanged():
    cfg = ModelConfig(targets=["a", "b"], conv_hidden=8, num_conv_layers=3, seed=4)
    kept, fresh = init_model(cfg), init_model(cfg)
    g = generate_graphs(ToySpec(num_molecules=1, seed=9))[0]
    kept.forward_batch([g])  # keeps the pack and the pass
    assert g.kept_pack is not None
    fk = train_pass(kept, [g])
    ff = train_pass(fresh, [g])
    for field in ("output", "fingerprint", "node_reps"):
        assert getattr(fk, field).value.tobytes() == getattr(ff, field).value.tobytes(), field
    for fwd in (fk, ff):
        ad.backward(ad.reduce(fwd.output, "sum"))
    for (name, a), (_, b) in zip(kept.named_parameters(), fresh.named_parameters()):
        assert a.grad.tobytes() == b.grad.tobytes(), name
    for (name, sa), (_, sb) in zip(kept.bn.items(), fresh.bn.items()):
        assert sa.running_mean.tobytes() == sb.running_mean.tobytes(), name
        assert sa.running_var.tobytes() == sb.running_var.tobytes(), name


@pytest.mark.parametrize("n", [1, 2, 5, SLICE, SLICE + 1, 2 * SLICE + 1, 300])
def test_predict_over_a_pack_matches_predict_over_the_list(n):
    # predict runs each eval slice's pack in one arena; a pass over each
    # slice's pack without an arena gives the same bits
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=8, num_conv_layers=2, seed=3))
    graphs = generate_graphs(ToySpec(num_molecules=n, seed=14))
    over_pack = np.concatenate([model.forward(*pack_graphs(part)).output.value
                                for part in eval_slices(graphs)])
    assert over_pack.tobytes() == model.predict(graphs).tobytes()


# ------------------------------------------------------------- fingerprint


def test_fingerprint_single_atom_blocks_equal():
    reps = ad.constant(np.random.default_rng(1).normal(size=(1, 4)))
    fp = fingerprint(reps, [[0]])
    assert np.array_equal(fp.value[0, :4], fp.value[0, 4:])


def test_fingerprint_hand_values():
    reps = ad.constant([[1.0], [3.0]])
    fp = fingerprint(reps, [[0, 1]])
    assert fp.value[0, 0] == pytest.approx(np.tanh(2.0))
    assert fp.value[0, 1] == pytest.approx(np.tanh(3.0))


def test_fingerprint_in_open_unit_interval():
    model = init_model(ModelConfig(targets=["size"], conv_hidden=8, num_conv_layers=2, seed=2))
    graphs = generate_graphs(ToySpec(num_molecules=30, seed=4))
    fwd = model.forward_batch(graphs)
    assert np.all(fwd.fingerprint.value > -1.0)
    assert np.all(fwd.fingerprint.value < 1.0)


def test_fingerprint_permutation_invariant():
    reps = np.random.default_rng(2).normal(size=(5, 3))
    a = fingerprint(ad.constant(reps), [[0, 1, 2, 3, 4]])
    b = fingerprint(ad.constant(reps[::-1].copy()), [[0, 1, 2, 3, 4]])
    assert np.allclose(a.value, b.value)


def composite_fingerprint(reps, atoms):
    """The five nodes that fingerprint replaces."""
    return ad.concat_cols(ad.tanh(ad.segment_aggregate(reps, atoms, "mean")),
                          ad.tanh(ad.segment_aggregate(reps, atoms, "max")))


def fingerprint_inputs():
    """(reps, atoms, upstream) triples: post-ReLU reps with tied maxima and
    all-zero columns over packed toy batches holding one-atom molecules, and
    hand tables with padded rows, rows no molecule lists and negative reps."""
    rng = np.random.default_rng(4)
    graphs = generate_graphs(ToySpec(num_molecules=60, seed=9))
    graphs[3] = parse_smiles_subset("C")
    graphs[40] = parse_smiles_subset("O")
    cases = []
    for idx in (np.arange(60), rng.permutation(60)[:25], [3], [3, 40]):
        x, _, atoms = pack_graphs([graphs[i] for i in idx])
        reps = np.fmax(rng.normal(size=(len(x), 6)), 0.0) + 0.0
        reps[:, 2] = 0.0                      # a dead column: every atom ties at 0
        reps[::3, 4] = reps[:, 4].max()       # tied maxima across molecules
        cases.append((reps, atoms))
    cases.append((rng.normal(size=(5, 3)), np.array([[0, 2, 5], [1, 5, 5], [3, 4, 5]])))
    cases.append((-np.abs(rng.normal(size=(6, 2))), np.array([[0, 1, 6], [2, 6, 6], [3, 4, 5]])))
    cases.append((rng.normal(size=(4, 2)), np.array([[1, 4], [3, 4]])))  # rows 0 and 2 unlisted
    triples = []
    for reps, atoms in cases:
        upstream = rng.normal(size=(len(atoms), 2 * reps.shape[1]))
        upstream[::2, ::3] = -0.0  # signed zeros in the gradient
        triples.append((reps, atoms, upstream))
    return triples


def test_fingerprint_matches_the_composite_bit_for_bit():
    for reps, atoms, upstream in fingerprint_inputs():
        results = []
        for op in (composite_fingerprint, fingerprint):
            h = ad.parameter(reps.copy())
            out = op(h, atoms)
            ad.backward(ad.reduce(ad.mul(out, ad.constant(upstream)), "sum"))
            results.append((out.value, h.grad))
        (want, want_grad), (got, got_grad) = results
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()
        assert fingerprint(ad.constant(reps), atoms).value.tobytes() == want.tobytes()


def test_fingerprint_rejects_an_empty_molecule_and_bad_shapes():
    reps = ad.constant(np.ones((3, 2)))
    with pytest.raises(ValueError, match="empty molecule"):
        fingerprint(reps, [[0, 1, 2], [3, 3, 3]])
    with pytest.raises(ad.ShapeError):
        fingerprint(reps, [0, 1, 2])
    with pytest.raises(ad.ShapeError):
        fingerprint(ad.constant(np.ones(3)), [[0, 1, 2]])


# ----------------------------------------------------------------- predict


def test_zero_output_weights_give_bias():
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=4, num_conv_layers=1, seed=0))
    model.out_weight.value = np.zeros_like(model.out_weight.value)
    model.out_bias.value = np.array([1.5, -2.0])
    graphs = generate_graphs(ToySpec(num_molecules=4, seed=1))
    pred = model.predict(graphs)
    assert np.allclose(pred, np.tile([1.5, -2.0], (4, 1)))


def test_prediction_permutation_invariance_100_trials():
    rng = np.random.default_rng(12)
    model = init_model(ModelConfig(targets=["a"], conv_hidden=8, num_conv_layers=3, seed=7))
    graphs = generate_graphs(ToySpec(num_molecules=100, seed=21))
    for g in graphs:
        perm = rng.permutation(g.num_atoms)
        diff = np.abs(model.predict([g]) - model.predict([relabel(g, perm)]))
        assert diff.max() < 1e-9


def test_hand_model_two_atom_molecule():
    # 1 conv layer, 1 channel, identity-ish bn, hand weights all the way out
    cfg = ModelConfig(targets=["y"], conv_hidden=1, num_conv_layers=1, seed=0)
    w = np.zeros((16, 1))
    w[1, 0] = 1.0  # picks carbon one-hot
    values = {"conv0.weight": w, "conv0.bias": np.array([0.25]), "conv0.gamma": np.ones(1),
              "conv0.beta": np.zeros(1), "output.weight": np.array([[2.0], [3.0]]),
              "output.bias": np.array([0.5])}
    model = Model(cfg, values)
    identity = make_identity_bn(1)
    model.bn["conv0"].epsilon, model.bn["conv0"].running_var = identity.epsilon, identity.running_var
    g = parse_smiles_subset("CC")
    # features: carbon flag 1 for both atoms; neighbor sum doubles it -> 2
    # affine: 2*1 + 0.25 = 2.25 per atom; relu/bn no-op
    # mean = max = 2.25 -> fingerprint [tanh(2.25), tanh(2.25)]
    expected = 2.0 * np.tanh(2.25) + 3.0 * np.tanh(2.25) + 0.5
    assert model.predict([g])[0, 0] == pytest.approx(expected, rel=1e-12)


def test_explainable_decomposition_identity():
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=8, num_conv_layers=2, seed=3))
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=5))
    fwd = model.forward_batch(graphs)
    manual = fwd.fingerprint.value @ model.out_weight.value + model.out_bias.value
    assert np.allclose(manual, fwd.output.value, atol=1e-12)


def test_reference_variant_forward_runs():
    model = init_model(ModelConfig(targets=["a"], variant="reference", conv_hidden=4,
                                   num_conv_layers=1, intermediate_dim=6, seed=1))
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=2))
    assert model.predict(graphs).shape == (6, 1)


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_the_model_runs_neither_batch_norm_nor_relu(monkeypatch, variant):
    # every normalized layer, the reference variant's intermediate one too, is one ad.conv node
    def replaced(*args, **kwargs):
        raise AssertionError("the model ran a primitive that ad.conv replaces")

    for name in ("batch_norm", "relu"):
        monkeypatch.setattr(ad, name, replaced)
    model = init_model(ModelConfig(targets=["oxygen_count", "size"], variant=variant,
                                   conv_hidden=8, num_conv_layers=2, intermediate_dim=12, seed=3))
    graphs = generate_graphs(ToySpec(num_molecules=30, seed=7))
    gini = GiniConfig(m=10.0 if variant == "explainable" else 0.0)
    train(model, graphs[:20], TrainConfig(epochs=1, batch_size=7, gini=gini, seed=3), graphs[20:])
    assert model.predict(graphs).shape == (30, 2)
    assert model.forward_batch(graphs[:1]).output.shape == (1, 2)


@pytest.mark.parametrize("method", ["predict", "forward_batch"])  # sliced / one pass over all
def test_predict_memory_linear_in_atoms(method):
    # peak traced allocation per atom stays flat as the batch doubles; a dense
    # atoms x atoms layout grows it in proportion to the batch
    model = init_model(ModelConfig(targets=["size"], conv_hidden=64, num_conv_layers=3, seed=0))
    per_atom = []
    for count in (250, 500):
        graphs = generate_graphs(ToySpec(num_molecules=count, seed=8))
        atoms = sum(g.num_atoms for g in graphs)
        tracemalloc.start()
        try:
            getattr(model, method)(graphs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_atom.append(peak / atoms)
    assert per_atom[1] < 1.2 * per_atom[0], per_atom


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_predict_in_slices_equals_one_pass(variant):
    # predict runs SLICE molecules per pass; every row keeps the bits of one
    # forward_batch over the whole list, including a folded lone trailing molecule
    model = init_model(ModelConfig(targets=["oxygen_count", "size", "branch_count"],
                                   variant=variant, seed=4))
    gini = GiniConfig(m=10.0 if variant == "explainable" else 0.0)
    train(model, generate_graphs(ToySpec(num_molecules=100, seed=30)),
          TrainConfig(epochs=2, batch_size=25, learning_rate=3e-3, gini=gini, seed=4))
    graphs = generate_graphs(ToySpec(num_molecules=1000, seed=31))
    for n in (1, 2, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1, 1000):
        sliced = model.predict(graphs[:n])
        assert np.array_equal(sliced, model.forward_batch(graphs[:n]).output.value), n


def test_predict_arena_serves_every_slice():
    # the arena is sized from the largest slice, here the second: small
    # molecules fill the first, and a lone trailing molecule joins the last
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=16, num_conv_layers=3, seed=2))
    graphs = generate_graphs(ToySpec(num_molecules=SLICE, max_heavy_atoms=3, seed=3))
    graphs += generate_graphs(ToySpec(num_molecules=SLICE + 1, seed=4))
    parts = eval_slices(graphs)
    sizes = [sum(g.num_atoms for g in part) for part in parts]
    assert len(parts) == 2 and sizes[1] > sizes[0]
    want = np.concatenate([model.forward_batch(part).output.value for part in parts])
    first = model.predict(graphs)
    assert first.tobytes() == want.tobytes()
    assert model.predict(graphs).tobytes() == first.tobytes()


def test_forward_batch_result_outlives_later_calls():
    # only predict writes into an arena, and its rows come out in new arrays
    model = init_model(ModelConfig(targets=["a"], conv_hidden=8, num_conv_layers=2, seed=1))
    graphs = generate_graphs(ToySpec(num_molecules=20, seed=6))
    fwd = model.forward_batch(graphs)
    kept = [node.value.copy() for node in (fwd.output, fwd.fingerprint, fwd.node_reps)]
    pred = model.predict(graphs)
    kept_pred = pred.copy()
    model.predict(graphs[::-1])
    model.forward_batch(graphs[3:])
    for node, before in zip((fwd.output, fwd.fingerprint, fwd.node_reps), kept):
        assert node.value.tobytes() == before.tobytes()
    assert pred.tobytes() == kept_pred.tobytes()


def test_predict_peak_flat_in_list_length():
    # one slice is held at a time, so the traced peak does not grow with the list
    model = init_model(ModelConfig(targets=["size"], conv_hidden=64, num_conv_layers=3, seed=0))
    peaks = []
    for count in (250, 2000):
        graphs = generate_graphs(ToySpec(num_molecules=count, seed=8))
        tracemalloc.start()
        try:
            model.predict(graphs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < 1.1 * peaks[0], peaks


@pytest.mark.parametrize("n, size, bounds", [
    (0, 4, [(0, 0)]),
    (1, 4, [(0, 1)]),
    (4, 4, [(0, 4)]),
    (5, 4, [(0, 5)]),              # a lone trailing item joins the run before it
    (6, 4, [(0, 4), (4, 6)]),
    (9, 4, [(0, 4), (4, 9)]),
    (2 * SLICE + 1, SLICE, [(0, SLICE), (SLICE, 2 * SLICE + 1)]),
])
def test_slice_bounds(n, size, bounds):
    assert slice_bounds(n, size) == bounds


def test_predict_peak_below_eight_rows_per_atom():
    # eval records no tape and runs one slice at a time, so a pass holds a few
    # (atoms, H) arrays of one slice at a time; a taped pass peaked near 17 rows
    h = 64
    model = init_model(ModelConfig(targets=["size"], conv_hidden=h, num_conv_layers=3, seed=0))
    graphs = generate_graphs(ToySpec(num_molecules=500, seed=8))
    atoms = sum(g.num_atoms for g in graphs)
    tracemalloc.start()
    try:
        model.predict(graphs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / atoms < 8 * h * 8, peak / atoms


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_eval_forward_records_no_tape(variant):
    cfg = ModelConfig(targets=["a", "b"], variant=variant, conv_hidden=8, num_conv_layers=2,
                      intermediate_dim=6, seed=3)
    model, fresh = init_model(cfg), init_model(cfg)
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=5))
    fwd = model.forward_batch(graphs)
    for node in (fwd.output, fwd.fingerprint, fwd.node_reps):
        assert not node.requires_grad and node._parents == () and node._backward is None
    # train mode still records, and backward after an eval pass gives the
    # gradients of a model that never ran one
    for m in (model, fresh):
        out = train_pass(m, graphs).output
        assert out.requires_grad and out._parents
        ad.backward(ad.reduce(out, "sum"))
    assert np.any(model.params["conv0.weight"].grad != 0.0)
    for (name, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
        assert np.array_equal(a.grad, b.grad), name


def test_eval_forward_restores_the_tape_when_it_raises():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=4, num_conv_layers=1, seed=0))
    x, neighbors, atoms = pack_graphs(generate_graphs(ToySpec(num_molecules=3, seed=1)))
    with pytest.raises(ad.ShapeError):
        model.forward(x[:, :3], neighbors, atoms, mode="eval")
    assert ad._recording.on is True
    assert model.forward(x, neighbors, atoms, mode="train").output.requires_grad


def test_eval_pass_on_another_thread_leaves_this_threads_tape_on(monkeypatch):
    # the switch is per thread: a worker's eval pass begun in the middle of a
    # training pass, and paused with its tape off, changes neither pass
    model = init_model(ModelConfig(targets=["a"], conv_hidden=4, num_conv_layers=2, seed=0))
    graphs = generate_graphs(ToySpec(num_molecules=4, seed=1))
    paused, resume, evals = threading.Event(), threading.Event(), []
    worker = threading.Thread(target=lambda: evals.append(model.forward_batch(graphs)))
    linear = ad.linear

    def interleaved_linear(*args):
        # the output layer: the training pass starts the worker and goes on
        # once the worker's eval pass has stopped here
        if threading.current_thread() is worker:
            if not resume.is_set():
                paused.set()
                resume.wait(timeout=10)
        elif not paused.is_set():
            worker.start()
            assert paused.wait(timeout=10)
        return linear(*args)

    monkeypatch.setattr(ad, "linear", interleaved_linear)
    try:
        out = train_pass(model, graphs).output
    finally:
        resume.set()
        if worker.ident is not None:
            worker.join(timeout=10)
    assert not worker.is_alive() and len(evals) == 1
    assert out.requires_grad and out._parents
    assert not evals[0].output.requires_grad and evals[0].output._parents == ()
    ad.backward(ad.reduce(out, "sum"))
    assert np.any(model.params["conv0.weight"].grad != 0.0)


def test_empty_batch_rejected():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    with pytest.raises(ValueError, match="empty batch"):
        model.predict([])


# -------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_bit_exact():
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=5, num_conv_layers=2, seed=9))
    # dirty the running stats so the round trip covers them
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=3))
    train_pass(model, graphs)
    doc = checkpoint_document(model)
    clone = model_from_document(json.loads(json.dumps(doc)))
    for (name, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
        assert np.array_equal(a.value, b.value), name
    for (name, sa), (_, sb) in zip(model.bn.items(), clone.bn.items()):
        assert np.array_equal(sa.running_mean, sb.running_mean), name
        assert np.array_equal(sa.running_var, sb.running_var), name
    # identical predictions after reload
    assert np.array_equal(model.predict(graphs), clone.predict(graphs))


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_loader_builds_the_model_without_drawing_a_weight(monkeypatch, variant):
    model = init_model(ModelConfig(targets=["a", "b"], variant=variant, conv_hidden=5,
                                   num_conv_layers=2, intermediate_dim=3, seed=9))
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=3))
    train_pass(model, graphs)  # running stats off their start
    doc = json.loads(json.dumps(checkpoint_document(model)))

    def no_draw(*args, **kwargs):
        raise AssertionError("the loader drew random numbers")

    monkeypatch.setattr(model_module, "_glorot", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    clone = model_from_document(doc)
    assert checkpoint_document(clone) == doc
    assert clone.predict(graphs).tobytes() == model.predict(graphs).tobytes()


def test_loader_checks_a_claimed_width_against_the_data_before_allocating(monkeypatch):
    # the loader allocated a random model of the claimed width first, and a
    # width of 10**15 ended in numpy's out-of-memory traceback
    source = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    monkeypatch.setattr(model_module, "_glorot", lambda *args: pytest.fail("drew weights"))
    doc = checkpoint_document(source)
    doc["config"]["conv_hidden"] = 10 ** 15
    with pytest.raises(CheckpointError, match=re.escape(
            "parameter 'conv0.weight' has shape [16, 2], expected (16, 1000000000000000)")):
        model_from_document(doc)
    doc = checkpoint_document(source)
    doc["parameters"]["conv0.weight"]["shape"] = [16, 10 ** 15]
    with pytest.raises(CheckpointError, match="has shape"):
        model_from_document(doc)
    doc["parameters"]["conv0.weight"]["shape"] = [16, 2]
    doc["parameters"]["conv0.weight"]["data"] = [0.5] * 33
    with pytest.raises(CheckpointError, match="has 33 'data' values, expected 32"):
        model_from_document(doc)


@pytest.mark.parametrize("variant", ["explainable", "reference"])
def test_rebuilt_model_starts_with_zero_grads_and_trains_like_its_source(variant):
    graphs = generate_graphs(ToySpec(num_molecules=16, seed=5))
    model = init_model(ModelConfig(targets=["size", "oxygen_count"], variant=variant,
                                   conv_hidden=6, num_conv_layers=2, intermediate_dim=5, seed=2))
    gini = GiniConfig(m=2 if variant == "explainable" else 0)
    cfg = TrainConfig(epochs=2, batch_size=5, learning_rate=1e-2, gini=gini, seed=7)
    train(model, graphs, cfg)
    assert any(node.grad.any() for node in model.params.values())
    clone = model_from_document(json.loads(json.dumps(checkpoint_document(model))))
    for name, node in clone.named_parameters():
        assert node.grad.shape == node.value.shape and not node.grad.any(), name
    train(model, graphs, cfg)
    train(clone, graphs, cfg)
    for (name, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
        assert a.value.tobytes() == b.value.tobytes(), name
    for (name, sa), (_, sb) in zip(model.bn.items(), clone.bn.items()):
        assert sa.running_mean.tobytes() == sb.running_mean.tobytes(), name
        assert sa.running_var.tobytes() == sb.running_var.tobytes(), name


def test_checkpoint_rejects_bad_version():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    doc = checkpoint_document(model)
    doc["format_version"] = 99
    with pytest.raises(CheckpointError):
        model_from_document(doc)


def test_checkpoint_rejects_missing_parameter():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    doc = checkpoint_document(model)
    del doc["parameters"]["output.weight"]
    with pytest.raises(CheckpointError):
        model_from_document(doc)


def test_checkpoint_rejects_parameter_entry_without_data_or_shape():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    for key in ("data", "shape"):
        doc = checkpoint_document(model)
        del doc["parameters"]["conv0.weight"][key]
        with pytest.raises(CheckpointError, match=key):
            model_from_document(doc)


@pytest.mark.parametrize("section, name, key", [
    ("parameters", "output.weight", "data"),
    ("batch_norm", "conv0", "running_mean"),
    ("batch_norm", "conv0", "running_var"),
])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_checkpoint_rejects_non_finite_values(section, name, key, bad):
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    doc = json.loads(json.dumps(checkpoint_document(model)))
    doc[section][name][key][0] = bad
    with pytest.raises(CheckpointError, match="non-finite"):
        model_from_document(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("path, bad", [
    (("parameters", "output.bias", "data"), ["0.5"]),
    (("parameters", "output.bias", "data"), [True]),
    (("parameters", "output.bias", "shape"), [1.0]),
    (("parameters", "output.bias", "shape"), [True]),
    (("batch_norm", "conv0", "momentum"), "0.1"),
    (("format_version",), True),
], ids=["data_string", "data_true", "shape_float", "shape_true", "momentum_string",
        "version_true"])
def test_checkpoint_rejects_values_that_are_not_json_numbers(path, bad):
    # each of these once loaded: "0.5" and true as numbers, 1.0 and true as 1
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    doc = checkpoint_document(model)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    with pytest.raises(CheckpointError, match=".*".join(path[1:] or path)):
        model_from_document(doc)


@pytest.mark.parametrize("section, name", [("parameters", "conv0.weight"),
                                           ("batch_norm", "conv0")])
@pytest.mark.parametrize("bad", [5, [1.0], None], ids=["number", "list", "null"])
def test_checkpoint_rejects_an_entry_that_is_not_an_object(section, name, bad):
    doc = checkpoint_document(init_model(ModelConfig(targets=["a"], conv_hidden=2,
                                                     num_conv_layers=1)))
    doc[section][name] = bad
    with pytest.raises(CheckpointError, match=re.escape(name)):
        model_from_document(doc)


@pytest.mark.parametrize("key, bad", [("epsilon", -2.0), ("epsilon", 0.0),
                                      ("momentum", 7.0), ("momentum", 0.0)])
def test_checkpoint_rejects_batch_norm_settings_out_of_range(key, bad):
    # epsilon -2 made eval-mode normalization NaN, and predict returned the bias
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    doc = checkpoint_document(model)
    doc["batch_norm"]["conv0"][key] = bad
    with pytest.raises(CheckpointError, match=f"conv0.*{key}"):
        model_from_document(doc)


@pytest.mark.parametrize("targets", ["a", {"a": 5}, [3], []],
                         ids=["string", "object", "number", "empty"])
def test_checkpoint_rejects_targets_that_are_not_names(targets):
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    doc = checkpoint_document(model)
    doc["config"]["targets"] = targets
    with pytest.raises(CheckpointError, match="target"):
        model_from_document(doc)
