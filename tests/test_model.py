"""Model construction, forward semantics, and checkpoint round trips."""

import json
import re
import threading
import tracemalloc

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn.model import (
    SLICE,
    CheckpointError,
    ModelConfig,
    checkpoint_document,
    conv_forward,
    fingerprint,
    init_model,
    model_from_document,
    PackedDataset,
    slice_bounds,
)
from ginigcn.gini import GiniConfig
from ginigcn.molecules import Atom, MolecularGraph, MoleculeError, featurize, parse_smiles_subset
from ginigcn.toydata import ToySpec, generate_graphs
from ginigcn.training import TrainConfig, train


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
    assert model.mid_weight is None
    assert model.mid_bn is None
    names = [n for n, _ in model.named_parameters()]
    assert not any(n.startswith("intermediate") for n in names)


def test_variant_parameter_count_difference():
    # with intermediate_dim == fingerprint_dim the output layer matches in
    # both variants, so the difference is exactly the intermediate layer
    base = dict(targets=["a", "b"], conv_hidden=16, num_conv_layers=2, intermediate_dim=32, seed=0)
    ref = init_model(ModelConfig(variant="reference", **base))
    expl = init_model(ModelConfig(variant="explainable", **base))
    fp = 2 * 16
    intermediate = fp * 32 + 32 + 32 + 32  # linear weight+bias, bn gamma+beta
    assert ref.parameter_count() - expl.parameter_count() == intermediate


def test_init_bounds_are_glorot():
    cfg = ModelConfig(targets=["a"], conv_hidden=8, num_conv_layers=1, seed=5)
    model = init_model(cfg)
    w = model.conv_weights[0].value
    a = np.sqrt(6.0 / (16 + 8))
    assert np.all(np.abs(w) <= a)
    assert np.all(model.conv_biases[0].value == 0.0)
    assert np.all(model.conv_bn[0].gamma.value == 1.0)
    assert np.all(model.conv_bn[0].beta.value == 0.0)


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
    out = conv_forward(h, neighbors, w, b, make_identity_bn(1), "eval")
    assert np.allclose(out.value, [[6.5]], atol=1e-12)


def test_conv_symmetric_pair():
    _, neighbors, _ = PackedDataset([parse_smiles_subset("CC")]).take([0])
    h = ad.constant(np.ones((2, 3)))
    rng = np.random.default_rng(0)
    w = ad.constant(rng.normal(size=(3, 4)))
    b = ad.constant(rng.normal(size=4))
    out = conv_forward(h, neighbors, w, b, make_identity_bn(4), "eval")
    assert np.allclose(out.value[0], out.value[1])


def test_conv_three_atom_path_hand_values():
    # path 0-1-2, 1-dim reps [1, 2, 3], W = [[2]], b = [0.5]
    # self+neighbor sums: [3, 6, 5] -> affine: [6.5, 12.5, 10.5] -> bn(identity) -> relu
    h = ad.constant([[1.0], [2.0], [3.0]])
    neighbors = np.array([[0, 1, 3], [0, 1, 2], [1, 2, 3]])  # 3 = padding
    out = conv_forward(h, neighbors, ad.constant([[2.0]]), ad.constant([0.5]),
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
    x, neighbors, atoms = PackedDataset(graphs).take(range(len(graphs)))
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


def test_take_hand_tables():
    pack = PackedDataset([parse_smiles_subset(s) for s in ("CCO", "C", "CC")])
    x, neighbors, atoms = pack.take([2, 0])
    # batch rows: CC -> 0, 1; CCO -> 2, 3, 4; padding 5
    assert np.array_equal(neighbors, [[0, 1, 5], [0, 1, 5], [2, 3, 5], [2, 3, 4], [3, 4, 5]])
    assert np.array_equal(atoms, [[0, 1, 5], [2, 3, 4]])
    assert np.array_equal(x[:2], pack.x[4:6])
    assert np.array_equal(x[2:], pack.x[:3])
    # a lone atom: its own row only, no wider than the batch needs
    x, neighbors, atoms = pack.take([1])
    assert np.array_equal(neighbors, [[0]]) and np.array_equal(atoms, [[0]])
    assert np.array_equal(x, pack.x[3:4])


def test_take_matches_tables_built_from_the_graphs():
    graphs = generate_graphs(ToySpec(num_molecules=60, seed=9))
    graphs += [parse_smiles_subset(s) for s in ("C", "CC(C)(C)C", "C1CCCCC1")]
    pack = PackedDataset(graphs)
    rng = np.random.default_rng(4)
    batches = [rng.permutation(len(graphs))[:k] for k in (2, 7, 25)]
    batches += [[60], [60, 61], [62], list(range(len(graphs))), [61, 3, 3]]
    for idx in batches:
        got = pack.take(idx)
        want = reference_batch([graphs[i] for i in idx])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), idx


def test_pack_edge_cases_match_the_reference():
    lone = parse_smiles_subset("C")
    unbonded = MolecularGraph(id="unbonded", atoms=[Atom("O", 2), Atom("N", 3), Atom("C", 0, True)])
    degree_four = parse_smiles_subset("CC(C)(C)C")
    aromatic = parse_smiles_subset("c1ccncc1")
    for graphs in ([lone], [unbonded], [degree_four], [lone, unbonded, degree_four, aromatic],
                   [degree_four, lone, lone, unbonded]):
        pack = PackedDataset(graphs)
        x, neighbors, _ = reference_batch(graphs)
        offsets = np.cumsum([0] + [g.num_atoms for g in graphs])
        got = (pack.x, pack.offsets, pack.neighbors)
        for a, b in zip(got, (x, offsets, neighbors)):
            assert a.dtype == b.dtype and np.array_equal(a, b), [g.id for g in graphs]
    assert PackedDataset([degree_four]).neighbors.shape == (5, 5)


@pytest.mark.parametrize("bad_atoms, message", [
    ({2: "degree"}, "molecule 'bad': atom 2 degree 5 > 4"),
    ({1: "hydrogens"}, "molecule 'bad': atom 1 implicit hydrogen count 5 > 4"),
    ({2: "both"}, "molecule 'bad': atom 2 degree 5 > 4"),
    ({0: "hydrogens", 2: "degree"}, "molecule 'bad': atom 0 implicit hydrogen count 5 > 4"),
    ({1: "degree", 3: "hydrogens"}, "molecule 'bad': atom 1 degree 5 > 4"),
], ids=["degree", "hydrogens", "degree_before_hydrogens", "earlier_hydrogens",
        "earlier_degree"])
def test_pack_names_the_first_atom_out_of_range(bad_atoms, message):
    # Atoms 0-3 of 'bad' are a chain; a "degree" atom gets extra carbons up to
    # five neighbours, a "hydrogens" atom five implicit hydrogens. Another bad
    # molecule follows.
    atoms = [Atom("C", 5 if bad_atoms.get(k) in ("hydrogens", "both") else 0) for k in range(4)]
    bonds = [(k, k + 1, 1) for k in range(3)]
    for k, kind in bad_atoms.items():
        if kind in ("degree", "both"):
            extra = 4 if k in (0, 3) else 3
            bonds += [(k, len(atoms) + e, 1) for e in range(extra)]
            atoms += [Atom("C")] * extra
    bad = MolecularGraph(id="bad", atoms=atoms, bonds=bonds)
    later = MolecularGraph(id="later", atoms=[Atom("C", 9)])
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=2))
    graphs[3:3] = [bad, later]
    with pytest.raises(MoleculeError, match=f"^{re.escape(message)}$"):
        PackedDataset(graphs)
    with pytest.raises(MoleculeError, match=f"^{re.escape(message)}$"):
        featurize(bad)


def test_take_rejects_empty_batch():
    pack = PackedDataset([parse_smiles_subset("CC")])
    with pytest.raises(ValueError):
        pack.take([])


def test_train_forward_on_take_matches_forward_batch():
    graphs = generate_graphs(ToySpec(num_molecules=40, seed=6))
    idx = np.random.default_rng(2).permutation(40)[:25]
    cfg = ModelConfig(targets=["a", "b"], conv_hidden=8, num_conv_layers=3, seed=1)
    a, b = init_model(cfg), init_model(cfg)
    fa = a.forward(*PackedDataset(graphs).take(idx), mode="train")
    fb = b.forward_batch([graphs[i] for i in idx], mode="train")
    for field in ("output", "fingerprint", "node_reps"):
        assert np.array_equal(getattr(fa, field).value, getattr(fb, field).value), field
    for (name, sa), (_, sb) in zip(a.batch_norm_states(), b.batch_norm_states()):
        assert np.array_equal(sa.running_mean, sb.running_mean), name
        assert np.array_equal(sa.running_var, sb.running_var), name


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
    fwd = model.forward_batch(graphs, mode="eval")
    assert np.all(fwd.fingerprint.value > -1.0)
    assert np.all(fwd.fingerprint.value < 1.0)


def test_fingerprint_permutation_invariant():
    reps = np.random.default_rng(2).normal(size=(5, 3))
    a = fingerprint(ad.constant(reps), [[0, 1, 2, 3, 4]])
    b = fingerprint(ad.constant(reps[::-1].copy()), [[0, 1, 2, 3, 4]])
    assert np.allclose(a.value, b.value)


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
    model = init_model(cfg)
    model.conv_weights[0].value = np.zeros((16, 1))
    model.conv_weights[0].value[1, 0] = 1.0  # picks carbon one-hot
    model.conv_biases[0].value = np.array([0.25])
    model.conv_bn[0] = make_identity_bn(1)
    model.out_weight.value = np.array([[2.0], [3.0]])
    model.out_bias.value = np.array([0.5])
    g = parse_smiles_subset("CC")
    # features: carbon flag 1 for both atoms; neighbor sum doubles it -> 2
    # affine: 2*1 + 0.25 = 2.25 per atom; relu/bn no-op
    # mean = max = 2.25 -> fingerprint [tanh(2.25), tanh(2.25)]
    expected = 2.0 * np.tanh(2.25) + 3.0 * np.tanh(2.25) + 0.5
    assert model.predict([g])[0, 0] == pytest.approx(expected, rel=1e-12)


def test_explainable_decomposition_identity():
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=8, num_conv_layers=2, seed=3))
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=5))
    fwd = model.forward_batch(graphs, mode="eval")
    manual = fwd.fingerprint.value @ model.out_weight.value + model.out_bias.value
    assert np.allclose(manual, fwd.output.value, atol=1e-12)


def test_reference_variant_forward_runs():
    model = init_model(ModelConfig(targets=["a"], variant="reference", conv_hidden=4,
                                   num_conv_layers=1, intermediate_dim=6, seed=1))
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=2))
    assert model.predict(graphs).shape == (6, 1)


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
    fwd = model.forward_batch(graphs, mode="eval")
    for node in (fwd.output, fwd.fingerprint, fwd.node_reps):
        assert not node.requires_grad and node._parents == () and node._backward is None
    # train mode still records, and backward after an eval pass gives the
    # gradients of a model that never ran one
    for m in (model, fresh):
        out = m.forward_batch(graphs, mode="train").output
        assert out.requires_grad and out._parents
        ad.backward(ad.reduce(out, "sum"))
    assert np.any(model.conv_weights[0].grad != 0.0)
    for (name, a), (_, b) in zip(model.named_parameters(), fresh.named_parameters()):
        assert np.array_equal(a.grad, b.grad), name


def test_eval_forward_restores_the_tape_when_it_raises():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=4, num_conv_layers=1, seed=0))
    x, neighbors, atoms = PackedDataset(generate_graphs(ToySpec(num_molecules=3, seed=1))).take(
        [0, 1, 2])
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
    tanh = ad.tanh

    def interleaved_tanh(x):
        # fingerprint's first tanh: the training pass starts the worker and
        # goes on once the worker's eval pass has stopped here
        if threading.current_thread() is worker:
            if not resume.is_set():
                paused.set()
                resume.wait(timeout=10)
        elif not paused.is_set():
            worker.start()
            assert paused.wait(timeout=10)
        return tanh(x)

    monkeypatch.setattr(ad, "tanh", interleaved_tanh)
    try:
        out = model.forward_batch(graphs, mode="train").output
    finally:
        resume.set()
        if worker.ident is not None:
            worker.join(timeout=10)
    assert not worker.is_alive() and len(evals) == 1
    assert out.requires_grad and out._parents
    assert not evals[0].output.requires_grad and evals[0].output._parents == ()
    ad.backward(ad.reduce(out, "sum"))
    assert np.any(model.conv_weights[0].grad != 0.0)


def test_empty_batch_rejected():
    model = init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1))
    with pytest.raises(ValueError, match="empty batch"):
        model.predict([])


# -------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip_bit_exact():
    model = init_model(ModelConfig(targets=["a", "b"], conv_hidden=5, num_conv_layers=2, seed=9))
    # dirty the running stats so the round trip covers them
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=3))
    model.forward_batch(graphs, mode="train")
    doc = checkpoint_document(model)
    clone = model_from_document(json.loads(json.dumps(doc)))
    for (name, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
        assert np.array_equal(a.value, b.value), name
    for (name, sa), (_, sb) in zip(model.batch_norm_states(), clone.batch_norm_states()):
        assert np.array_equal(sa.running_mean, sb.running_mean), name
        assert np.array_equal(sa.running_var, sb.running_var), name
    # identical predictions after reload
    assert np.array_equal(model.predict(graphs), clone.predict(graphs))


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
