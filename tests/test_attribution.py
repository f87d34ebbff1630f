"""Attribution decomposition, Fukui functions, and rank correlation tests."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from ginigcn import attribution, model as model_module
from ginigcn.attribution import (
    AttributionMap,
    AttributionTerm,
    atom_maps,
    concentration_count,
    condensed_fukui,
    contribution_terms,
    fukui_compare,
    per_atom_map,
    rank_correlation,
    top_representations,
)
from ginigcn.gini import GiniConfig
from ginigcn.model import Model, ModelConfig, init_model
from ginigcn.molecules import parse_smiles_subset
from ginigcn.toydata import ToySpec, generate_graphs
from ginigcn.training import TrainConfig, train

from conftest import relabel_graph


def small_model(targets=("y",), hidden=6, layers=2, seed=3, variant="explainable"):
    return init_model(ModelConfig(targets=list(targets), conv_hidden=hidden,
                                  num_conv_layers=layers, seed=seed, variant=variant))


# ------------------------------------------------------- contribution terms


def test_zero_weights_all_terms_zero():
    model = small_model()
    model.out_weight.value = np.zeros_like(model.out_weight.value)
    model.out_bias.value = np.array([0.75])
    g = parse_smiles_subset("CCO")
    amap = contribution_terms(model, g, "y")
    assert all(t.value == 0.0 for t in amap.terms)
    assert amap.prediction == pytest.approx(0.75)
    assert amap.bias == 0.75


def test_single_channel_hand_model():
    model = init_model(ModelConfig(targets=["y"], conv_hidden=1, num_conv_layers=1, seed=0))
    g = parse_smiles_subset("CC")
    amap = contribution_terms(model, g, "y")
    assert len(amap.terms) == 2
    blocks = sorted(t.block for t in amap.terms)
    assert blocks == ["max", "mean"]
    assert sum(t.value for t in amap.terms) + amap.bias == pytest.approx(amap.prediction, abs=1e-12)


def test_completeness_identity_200_molecules():
    model = small_model(targets=("size", "oxygen_count"), hidden=8, layers=3)
    graphs = generate_graphs(ToySpec(num_molecules=200, seed=17))
    for g in graphs:
        for target in ("size", "oxygen_count"):
            amap = per_atom_map(model, g, target)
            total = sum(t.value for t in amap.terms) + amap.bias
            assert abs(total - amap.prediction) < 1e-9
            assert abs(sum(amap.atom_scores) - (amap.prediction - amap.bias)) < 1e-9


def test_terms_sorted_by_magnitude():
    model = small_model()
    amap = contribution_terms(model, parse_smiles_subset("CC(C)O"), "y")
    mags = [abs(t.value) for t in amap.terms]
    assert mags == sorted(mags, reverse=True)


def test_terms_scores_and_top_set_match_the_scalar_construction():
    # The scalar, one-term-at-a-time construction the vectorised code replaced,
    # kept as the reference: terms, atom scores and top sets must agree bit for bit.
    targets = ("a", "b", "c")
    model = small_model(targets=targets, hidden=8, layers=2, seed=5)
    w = model.out_weight.value
    w[[1, 4, 9, 12], :] = 0.0  # zero weights tie |value| at 0
    h = model.config.conv_hidden
    for g in generate_graphs(ToySpec(num_molecules=100, seed=13)):
        fwd = model.forward_batch([g])
        phi, x = fwd.fingerprint.value[0], fwd.node_reps.value
        n = x.shape[0]
        for j, target in enumerate(targets):
            col = w[:, j]
            old_terms = sorted(
                [(i, "mean" if i < h else "max", float(col[i]), float(phi[i]),
                  float(col[i] * phi[i])) for i in range(2 * h)],
                key=lambda t: -abs(t[4]))
            mean = x.mean(axis=0)
            share = np.divide(x, n * mean, out=np.zeros_like(x), where=mean > 0)
            scores = share @ (col[:h] * np.tanh(mean))
            winners = x.argmax(axis=0)
            np.add.at(scores, winners, col[h:] * np.tanh(x[winners, np.arange(h)]))
            amap = per_atom_map(model, g, target)
            got = [(t.index, t.block, t.weight, t.activation, t.value) for t in amap.terms]
            # repr tells -0.0 from 0.0 and round-trips every float exactly
            assert repr(got) == repr(old_terms)
            assert all(type(v) is float for t in got for v in t[2:])
            assert repr(amap.atom_scores) == repr([float(v) for v in scores])
    for j, target in enumerate(targets):
        mags = np.abs(w[:, j])
        for fraction in (0.5, 0.9, 1.0):
            count = concentration_count(mags, fraction)
            order = np.lexsort((np.arange(mags.size), -mags))
            assert top_representations(model, target, fraction) == [int(i) for i in order[:count]]


# ------------------------------------------------------------ batched maps


def one_molecule_map(model, graph, target):
    """The map from one forward pass over one molecule, as built before batching."""
    j = model.config.targets.index(target)
    fwd = model.forward_batch([graph])
    phi, x = fwd.fingerprint.value[0], fwd.node_reps.value
    weights = model.out_weight.value[:, j]
    h = model.config.conv_hidden
    values = weights * phi
    order = np.argsort(-np.abs(values), kind="stable")
    terms = [AttributionTerm(index=i, block="mean" if i < h else "max", weight=w, activation=a,
                             value=v)
             for i, w, a, v in zip(order.tolist(), weights[order].tolist(), phi[order].tolist(),
                                   values[order].tolist())]
    n = x.shape[0]
    mean = x.mean(axis=0)
    share = np.divide(x, n * mean, out=np.zeros_like(x), where=mean > 0)
    scores = share @ (weights[:h] * np.tanh(mean))
    winners = x.argmax(axis=0)
    np.add.at(scores, winners, weights[h:] * np.tanh(x[winners, np.arange(h)]))
    return AttributionMap(molecule_id=graph.id, target=target,
                          prediction=float(fwd.output.value[0, j]),
                          bias=float(model.out_bias.value[j]), terms=terms,
                          atom_scores=scores.tolist())


def test_atom_maps_match_one_molecule_passes():
    # One batched pass over 120 molecules and 3 targets gives the same bits,
    # prediction included, as one forward pass per molecule; so do the
    # one-molecule entry points. Checked on a trained model, then with zeroed
    # weight rows and equal magnitudes, which tie |value| across terms.
    targets = ["oxygen_count", "size", "branch_count"]
    model = init_model(ModelConfig(targets=targets, conv_hidden=16, num_conv_layers=3, seed=2))
    train(model, generate_graphs(ToySpec(num_molecules=60, seed=3)),
          TrainConfig(epochs=3, batch_size=10, learning_rate=3e-3, gini=GiniConfig(m=10.0)))
    graphs = generate_graphs(ToySpec(num_molecules=120, seed=19))
    for tied in (False, True):
        if tied:
            w = model.out_weight.value
            w[[0, 5, 17, 30], :] = 0.0
            w[[2, 3], 0], w[7, 0] = 0.25, -0.25
        batched = atom_maps(model, graphs, targets)
        for k, g in enumerate(graphs):
            for t, target in enumerate(targets):
                # repr tells -0.0 from 0.0 and round-trips every float exactly
                expected = repr(one_molecule_map(model, g, target))
                same = repr(batched[k][t]) == expected
                if k < 40:
                    same &= repr(per_atom_map(model, g, target)) == expected
                    terms_only = contribution_terms(model, g, target)
                    same &= terms_only.atom_scores == []
                    same &= repr(replace(terms_only, atom_scores=batched[k][t].atom_scores)) == expected
                assert same, f"{g.id} / {target}, tied weights: {tied}"


def test_atom_maps_run_one_forward_pass(monkeypatch):
    model = small_model(targets=("a", "b"))
    graphs = generate_graphs(ToySpec(num_molecules=25, seed=8))
    calls = {"forward": 0, "packed": []}

    def forward(*args, **kwargs):
        calls["forward"] += 1
        return real_forward(*args, **kwargs)

    def pack_graphs(packed):
        calls["packed"].append(len(packed))
        return real_pack(packed)

    real_forward, real_pack = Model.forward, model_module.pack_graphs
    monkeypatch.setattr(Model, "forward", forward)
    monkeypatch.setattr(model_module, "pack_graphs", pack_graphs)
    maps = atom_maps(model, graphs, ["b", "a"])
    assert calls == {"forward": 1, "packed": [25]}
    assert [[m.target for m in row] for row in maps] == [["b", "a"]] * 25
    assert [row[0].molecule_id for row in maps] == [g.id for g in graphs]


def test_chunked_maps_equal_one_pass(monkeypatch):
    # 300 molecules: two full slices of SLICE and a partial one; then
    # 2 * SLICE + 1, whose lone trailing molecule joins the second slice
    model = small_model(targets=("a", "b"))
    calls = {"forward": 0}
    forward = Model.forward

    def counted(*args, **kwargs):
        calls["forward"] += 1
        return forward(*args, **kwargs)

    for n, passes in ((300, 3), (2 * model_module.SLICE + 1, 2)):
        graphs = generate_graphs(ToySpec(num_molecules=n, seed=23))
        assert len(graphs) % model_module.SLICE != 0
        whole = atom_maps(model, graphs, ["b", "a"])
        calls["forward"] = 0
        with monkeypatch.context() as patch:
            patch.setattr(Model, "forward", counted)
            chunked = list(attribution._chunked_atom_maps(model, graphs, ["b", "a"]))
        assert calls["forward"] == passes
        assert len(chunked) == len(whole)
        assert all(repr(c) == repr(w) for c, w in zip(chunked, whole))
    with pytest.raises(ValueError, match="at least one"):
        list(attribution._chunked_atom_maps(model, [], ["a"]))


def test_atom_maps_errors():
    graphs = [parse_smiles_subset("CC")]
    with pytest.raises(ValueError, match="explainable"):
        atom_maps(small_model(variant="reference"), graphs, ["y"])
    with pytest.raises(ValueError, match="available: y"):
        atom_maps(small_model(), graphs, ["y", "nope"])
    for empty_graphs, empty_targets in ((True, False), (False, True)):
        with pytest.raises(ValueError, match="at least one"):
            atom_maps(small_model(), [] if empty_graphs else graphs,
                      [] if empty_targets else ["y"])


def test_reference_variant_rejected():
    model = small_model(variant="reference")
    with pytest.raises(ValueError, match="explainable"):
        contribution_terms(model, parse_smiles_subset("CC"), "y")
    with pytest.raises(ValueError, match="explainable"):
        per_atom_map(model, parse_smiles_subset("CC"), "y")


def test_unknown_target_listed():
    model = small_model()
    with pytest.raises(ValueError, match="available: y"):
        contribution_terms(model, parse_smiles_subset("CC"), "nope")


# ------------------------------------------------------------ per-atom maps


def test_single_atom_takes_all_attribution():
    # n = 1: the mean and the max of each channel are the atom's own rep x_i,
    # so the atom's share x_i / (1 * x_i) of a mean term is 1 (0 when x_i = 0,
    # where the term tanh(0) * w is 0 as well) and it wins every max
    model = small_model(hidden=4, layers=1)
    g = parse_smiles_subset("C")
    amap = per_atom_map(model, g, "y")
    fwd = model.forward_batch([g])
    x = fwd.node_reps.value
    w = model.out_weight.value[:, 0]
    assert np.any(x[0] > 0)
    expected = float(np.tanh(x[0]) @ w[:4] + np.tanh(x[0]) @ w[4:])
    assert amap.atom_scores[0] == pytest.approx(expected, rel=1e-12)
    assert amap.atom_scores[0] == pytest.approx(amap.prediction - amap.bias, rel=1e-12)


def test_mean_block_partial_sums_linear():
    # max-block weights zeroed: the atom scores only split the mean-block
    # terms, and the splits add back up to those terms. A large negative
    # batch-norm shift kills channel 0 at every atom, so m_0 = 0 and that
    # channel must share out nothing rather than 0 / 0.
    model = small_model(hidden=5, layers=2)
    model.conv_bn[1].beta.value = np.array([-1e3, 0.0, 0.0, 0.0, 0.0])
    w = model.out_weight.value.copy()
    w[5:, 0] = 0.0
    model.out_weight.value = w
    g = parse_smiles_subset("CC(C)ON")
    x = model.forward_batch([g]).node_reps.value
    assert np.all(x[:, 0] == 0.0) and np.any(x.mean(axis=0) > 0)
    amap = per_atom_map(model, g, "y")
    assert np.all(np.isfinite(amap.atom_scores))
    mean_terms = sum(t.value for t in amap.terms if t.block == "mean")
    assert mean_terms == pytest.approx(float(np.tanh(x.mean(axis=0)) @ w[:5, 0]), rel=1e-12)
    assert sum(amap.atom_scores) == pytest.approx(mean_terms, rel=1e-10)


def test_two_atom_hand_example():
    # 1 channel: x = [x0, x1], m = (x0 + x1) / 2; atom k gets
    # w_mean * tanh(m) * x_k / (2 m) of the mean term, and the max term
    # w_max * tanh(max(x0, x1)) goes whole to the argmax atom, atom 0 on a
    # tie (one conv layer gives both atoms the same self-plus-neighbour sum)
    model = init_model(ModelConfig(targets=["y"], conv_hidden=1, num_conv_layers=1, seed=1))
    g = parse_smiles_subset("CO")
    fwd = model.forward_batch([g])
    x0, x1 = fwd.node_reps.value[:, 0]
    w_mean, w_max = model.out_weight.value[0, 0], model.out_weight.value[1, 0]
    m = (x0 + x1) / 2
    assert m > 0
    expected = [w_mean * np.tanh(m) * x0 / (2 * m), w_mean * np.tanh(m) * x1 / (2 * m)]
    expected[0 if x0 >= x1 else 1] += w_max * np.tanh(max(x0, x1))
    amap = per_atom_map(model, g, "y")
    assert np.allclose(amap.atom_scores, expected, rtol=1e-12, atol=0.0)


def test_per_atom_equivariance_tie_free():
    rng = np.random.default_rng(23)
    model = small_model(hidden=6, layers=2, seed=11)
    graphs = generate_graphs(ToySpec(num_molecules=40, seed=29))
    checked = 0
    for g in graphs:
        if g.num_atoms < 2:
            continue
        x = model.forward_batch([g]).node_reps.value
        top2 = np.sort(x, axis=0)[-2:]
        # a tie at 0 contributes w * 0 to whichever atom wins, so only ties
        # between positive maxima can break equivariance; those are exempt
        tied = (top2[1] - top2[0] < 1e-6) & (top2[1] > 0)
        if np.any(tied):
            continue
        perm = rng.permutation(g.num_atoms)
        base = per_atom_map(model, g, "y").atom_scores
        permuted = per_atom_map(model, relabel_graph(g, perm), "y").atom_scores
        assert np.allclose(np.asarray(base)[perm], permuted, atol=1e-12)
        checked += 1
    assert checked >= 20


# -------------------------------------------------------- top representations


def test_one_nonzero_weight():
    model = small_model(hidden=4)
    w = np.zeros_like(model.out_weight.value)
    w[5, 0] = 2.5
    model.out_weight.value = w
    assert top_representations(model, "y", 0.9) == [5]


def test_uniform_mass_ceiling():
    model = init_model(ModelConfig(targets=["y"], conv_hidden=64, num_conv_layers=1, seed=0))
    model.out_weight.value = np.full((128, 1), 0.01)
    assert len(top_representations(model, "y", 0.9)) == 116  # ceil(0.9 * 128)


def test_fraction_one_returns_all_nonzero():
    model = small_model(hidden=4)
    w = np.zeros((8, 1))
    w[[1, 3, 6], 0] = [0.5, -0.25, 1.0]
    model.out_weight.value = w
    assert sorted(top_representations(model, "y", 1.0)) == [1, 3, 6]


def test_nested_in_mass_fraction():
    model = small_model(hidden=8, seed=5)
    prev = set()
    for frac in (0.2, 0.5, 0.8, 0.95, 1.0):
        cur = set(top_representations(model, "y", frac))
        assert prev <= cur
        prev = cur


def test_all_zero_column_rejected():
    model = small_model(hidden=4)
    model.out_weight.value = np.zeros_like(model.out_weight.value)
    with pytest.raises(ValueError, match="zero"):
        top_representations(model, "y", 0.9)


def test_concentration_count_validation():
    with pytest.raises(ValueError):
        concentration_count([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        concentration_count([1.0, 2.0], 1.5)


# ------------------------------------------------------------------- fukui


def test_condensed_fukui_hand_values():
    rec = condensed_fukui([1.2, 0.8], [0.9, 0.6], [1.2, 0.8])
    assert rec.f_minus == pytest.approx([0.3, 0.2])
    assert rec.f_plus == pytest.approx([0.0, 0.0])


def test_condensed_fukui_total_charge():
    rng = np.random.default_rng(31)
    rho_n = rng.uniform(0.5, 2.0, size=7)
    rho_nm = rng.uniform(0.5, 2.0, size=7)
    rho_np = rng.uniform(0.5, 2.0, size=7)
    rec = condensed_fukui(rho_n, rho_nm, rho_np)
    assert sum(rec.f_minus) == pytest.approx(rho_n.sum() - rho_nm.sum(), abs=1e-12)
    assert sum(rec.f_plus) == pytest.approx(rho_np.sum() - rho_n.sum(), abs=1e-12)


def test_condensed_fukui_linear():
    rho = [np.array([1.0, 2.0]), np.array([0.5, 1.5]), np.array([1.5, 2.5])]
    a = condensed_fukui(*rho)
    b = condensed_fukui(*(3.0 * r for r in rho))
    assert np.allclose(np.array(b.f_minus), 3.0 * np.array(a.f_minus))
    assert np.allclose(np.array(b.f_plus), 3.0 * np.array(a.f_plus))


def test_condensed_fukui_length_mismatch():
    with pytest.raises(ValueError):
        condensed_fukui([1.0, 2.0], [1.0], [1.0, 2.0])


# --------------------------------------------------------- rank correlation


def test_identical_ranks():
    assert rank_correlation([1.0, 5.0, 2.0], [1.0, 5.0, 2.0]) == pytest.approx(1.0)


def test_reversed_ranks():
    assert rank_correlation([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == pytest.approx(-1.0)


def test_hand_value_half():
    assert rank_correlation([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_constant_vector_rejected():
    with pytest.raises(ValueError):
        rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_monotone_transform_invariance():
    rng = np.random.default_rng(37)
    for _ in range(30):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        base = rank_correlation(a, b)
        assert rank_correlation(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert rank_correlation(a, 3.0 * b + 7.0) == pytest.approx(base, abs=1e-12)


def test_average_ranks_for_ties():
    # b has a tie; average ranks [1, 2.5, 2.5, 4]
    a = [1.0, 2.0, 3.0, 4.0]
    b = [10.0, 20.0, 20.0, 30.0]
    ra = np.array([1.0, 2.0, 3.0, 4.0]) - 2.5
    rb = np.array([1.0, 2.5, 2.5, 4.0]) - 2.5
    expected = (ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum())
    assert rank_correlation(a, b) == pytest.approx(expected, abs=1e-12)


def brute_force_spearman(a, b):
    """Rank oracle for distinct entries: rank by pairwise counting, then Pearson."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    ra = np.array([1 + sum(x < v for x in a) for v in a], dtype=float)
    rb = np.array([1 + sum(x < v for x in b) for v in b], dtype=float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


def test_matches_brute_force_oracle_all_orderings():
    # a fixed ascending, b over every permutation: covers every joint ordering
    for n in range(2, 7):
        a = np.arange(1.0, n + 1.0)
        for perm in itertools.permutations(range(n)):
            b = np.array(perm, dtype=float) + 1.0
            assert rank_correlation(a, b) == pytest.approx(
                brute_force_spearman(a, b), abs=1e-12
            )


# ------------------------------------------------------------ fukui compare


def planted_fukui_graphs(model, target, n=30, noise=0.0, seed=41):
    """Toy molecules whose fukui columns are a monotone map of the atom scores."""
    rng = np.random.default_rng(seed)
    graphs = []
    for g in generate_graphs(ToySpec(num_molecules=3 * n, seed=seed)):
        if len(graphs) == n:
            break
        if g.num_atoms < 3:
            continue
        scores = np.array(per_atom_map(model, g, target).atom_scores)
        if np.unique(scores).size < g.num_atoms:  # ties break planted monotonicity
            continue
        f = np.tanh(scores) + noise * rng.normal(size=g.num_atoms)
        g.fukui = [(float(v), float(-v)) for v in f]
        graphs.append(g)
    assert len(graphs) == n
    return graphs


def test_scores_proportional_to_fukui_give_one():
    model = small_model(targets=("size",), hidden=6, layers=2, seed=7)
    graphs = planted_fukui_graphs(model, "size", n=20)
    per_mol, mean = fukui_compare(model, graphs, "size", "f_minus")
    assert mean == pytest.approx(1.0)
    assert all(c == pytest.approx(1.0) for _, c in per_mol)
    # f_plus column is the anti-monotone copy
    _, mean_plus = fukui_compare(model, graphs, "size", "f_plus")
    assert mean_plus == pytest.approx(-1.0)


def test_single_atom_molecule_rejected():
    model = small_model()
    g = parse_smiles_subset("C")
    g.fukui = [(0.1, 0.2)]
    with pytest.raises(ValueError, match="fewer than 2"):
        fukui_compare(model, [g], "y", "f_minus")


def test_missing_fukui_rejected():
    model = small_model()
    g = parse_smiles_subset("CC")
    with pytest.raises(ValueError, match="no fukui"):
        fukui_compare(model, [g], "y", "f_minus")


def test_constant_fukui_rejected_before_the_forward_pass(monkeypatch):
    # ethane's carbons share one f_minus, so that polarity has no rank correlation
    model = small_model()
    good = parse_smiles_subset("CCO")
    good.fukui = [(0.1, 0.3), (0.2, 0.2), (0.3, 0.1)]
    ethane = parse_smiles_subset("CC")
    ethane.fukui = [(0.5, 0.1), (0.5, 0.2)]
    per_mol, _ = fukui_compare(model, [good, ethane], "y", "f_plus")
    assert [mol_id for mol_id, _ in per_mol] == ["CCO", "CC"]
    monkeypatch.setattr(Model, "forward", lambda *args, **kwargs: pytest.fail("forward pass"))
    with pytest.raises(ValueError, match="^molecule 'CC' has the same f_minus on every atom; "
                                         "rank correlation is undefined$"):
        fukui_compare(model, [good, ethane], "y", "f_minus")


def test_fukui_compare_checks_the_model_before_the_data():
    g = parse_smiles_subset("CC")  # carries no fukui data
    with pytest.raises(ValueError, match="explainable"):
        fukui_compare(small_model(variant="reference"), [g], "y", "f_minus")
    with pytest.raises(ValueError, match="available: y"):
        fukui_compare(small_model(), [g], "nope", "f_minus")


def test_bad_polarity_rejected():
    model = small_model()
    with pytest.raises(ValueError, match="polarity"):
        fukui_compare(model, [], "y", "sideways")
