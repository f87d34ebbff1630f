"""Standardization, loss, Adam, training loop, and cross-validation tests."""

import json

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn import model as model_module
from ginigcn import training
from ginigcn.gini import GiniConfig
from ginigcn.model import ModelConfig, init_model
from ginigcn.molecules import (Atom, MolecularGraph, MoleculeError, format_graph_file,
                               parse_graph_file)
from ginigcn.toydata import ToySpec, generate_graphs
from ginigcn.training import (
    AdamState,
    TargetStats,
    TrainConfig,
    TrainingDivergence,
    adam_step,
    cross_validate,
    evaluate_mae,
    multitask_loss,
    standardize_targets,
    target_matrix,
    train,
)

from conftest import fd_max_relative_error, gradient_check_batch, sample_kink_free_theta


def toy_train_config(**kw):
    defaults = dict(epochs=2, batch_size=8, gini=GiniConfig(m=0.0), seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------- standardization


def test_standardize_hand_values():
    y = np.array([[1.0], [3.0]])
    mask = np.ones_like(y)
    stats, z = standardize_targets(y, mask, ["t"])
    assert stats.mean[0] == 2.0
    assert stats.std[0] == 1.0
    assert np.array_equal(z, [[-1.0], [1.0]])


def test_standardize_round_trip():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(40, 3)) * [1.0, 50.0, 1e-3] + [0.0, -7.0, 2.0]
    mask = np.ones_like(y)
    stats, z = standardize_targets(y, mask, ["a", "b", "c"])
    assert np.abs(stats.inverse(z) - y).max() < 1e-12


def test_standardize_constant_target_errors():
    y = np.array([[1.0, 2.0], [1.0, 3.0]])
    mask = np.ones_like(y)
    with pytest.raises(ValueError, match="'a'"):
        standardize_targets(y, mask, ["a", "b"])


def test_standardize_respects_mask():
    y = np.array([[1.0], [3.0], [99.0]])
    mask = np.array([[1.0], [1.0], [0.0]])
    stats, z = standardize_targets(y, mask, ["t"])
    assert stats.mean[0] == 2.0
    assert z[2, 0] == 0.0  # masked entries zeroed, not standardized


def test_target_stats_document_round_trip():
    stats = TargetStats(names=["a", "b"], mean=np.array([1.5, -2.0]), std=np.array([0.5, 3.0]))
    clone = TargetStats.from_dict(stats.to_dict())
    assert clone.names == stats.names
    assert np.array_equal(clone.mean, stats.mean)
    assert np.array_equal(clone.std, stats.std)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["targets"]["a"].update(std=0), "target 'a' std must be positive"),
    (lambda d: d["targets"]["a"].update(std=-0.5), "target 'a' std must be positive"),
    (lambda d: d["targets"]["b"].update(mean=True), "target 'b' mean must be a number"),
    (lambda d: d["targets"]["b"].update(mean="1"), "target 'b' mean must be a number"),
    (lambda d: d.update(order=["a", "a"]), r"'order' \['a', 'a'\] must name each key"),
    (lambda d: [], "target stats must be a JSON object"),
    (lambda d: d.update(format_version=2), "unsupported target stats format_version 2"),
    (lambda d: d.update(format_version=True), "unsupported target stats format_version True"),
    (lambda d: {**d, "order": ["x" * 1000, "b"],
                "targets": {"x" * 1000: {"mean": "1", "std": 1.0}, "b": d["targets"]["b"]}},
     "^target '" + "x" * 59 + r"\.\.\. mean must be a number, got '1'$"),
], ids=["zero-std", "negative-std", "boolean-mean", "string-mean", "repeated-order",
        "not-an-object", "version-2", "boolean-version", "long-name"])
def test_target_stats_document_rejects_bad_values(edit, message):
    doc = TargetStats(names=["a", "b"], mean=np.array([1.5, -2.0]),
                      std=np.array([0.5, 3.0])).to_dict()
    replaced = edit(doc)  # an edit either changes doc in place or returns its replacement
    doc = doc if replaced is None else replaced
    with pytest.raises(ValueError, match=message):
        TargetStats.from_dict(doc)


# -------------------------------------------------------------------- loss


def test_loss_zero_at_exact_fit():
    pred = ad.constant([[1.0, 2.0]])
    assert float(multitask_loss(pred, np.array([[1.0, 2.0]]), np.ones((1, 2))).value) == 0.0


def test_loss_hand_value():
    pred = ad.constant([[0.0, 0.0]])
    loss = multitask_loss(pred, np.array([[1.0, 3.0]]), np.ones((1, 2)))
    assert float(loss.value) == pytest.approx(5.0)


def test_loss_all_masked_errors():
    with pytest.raises(ValueError):
        multitask_loss(ad.constant([[0.0]]), np.array([[1.0]]), np.zeros((1, 1)))


def test_loss_masked_entries_ignored():
    pred = ad.constant([[0.0, 0.0]])
    loss = multitask_loss(pred, np.array([[1.0, 100.0]]), np.array([[1.0, 0.0]]))
    assert float(loss.value) == pytest.approx(1.0)


def test_loss_gradient():
    pred = ad.parameter([[0.0, 0.0]])
    loss = multitask_loss(pred, np.array([[1.0, 3.0]]), np.ones((1, 2)))
    ad.backward(loss)
    assert np.allclose(pred.grad, [[-1.0, -3.0]])  # 2*(pred-target)/count


def composite_loss(pred, target, mask):
    """The five nodes that multitask_loss replaces."""
    diff = ad.sub(pred, ad.constant(target))
    masked_sq = ad.mul(ad.mul(diff, diff), ad.constant(mask))
    return ad.div(ad.reduce(masked_sq, "sum"), float(mask.sum()))


@pytest.mark.parametrize("shape", [(1, 1), (25, 3), (7, 2)])
def test_loss_node_matches_the_composite_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    target = rng.normal(size=shape)
    mask = (rng.random(shape) < 0.6).astype(float)
    mask.flat[0] = 1.0
    pred0 = target + rng.normal(size=shape)
    pred0.flat[-1] = target.flat[-1]  # an exact fit
    for scale in (1.0, 0.37):  # the root itself, and a loss scaled as the regularizer does
        results = []
        for loss_fn in (composite_loss, multitask_loss):
            pred = ad.parameter(pred0.copy())
            loss = loss_fn(pred, target, mask)
            ad.backward(ad.mul(loss, scale))
            results.append((loss.value, pred.grad))
        (want, want_grad), (got, got_grad) = results
        assert got.shape == want.shape == () and got.tobytes() == want.tobytes()
        assert got_grad.tobytes() == want_grad.tobytes()
        assert np.all(got_grad[mask == 0.0] == 0.0)


# -------------------------------------------------------------------- adam


class ReferenceAdam:
    """Per-parameter Adam: each moment and value a new array every step."""

    def __init__(self, values):
        self.values = [v.copy() for v in values]
        self.m = [np.zeros_like(v) for v in values]
        self.v = [np.zeros_like(v) for v in values]
        self.t = 0

    def step(self, grads, cfg):
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for i, g in enumerate(grads):
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / c1
            v_hat = self.v[i] / c2
            self.values[i] = self.values[i] - cfg.learning_rate * m_hat / (
                np.sqrt(v_hat) + cfg.adam_epsilon)


def test_flat_adam_matches_a_per_parameter_reference_over_20_steps():
    rng = np.random.default_rng(3)
    shapes = [(4, 3), (3,), (1,), (2, 5), (5,)]
    params = [ad.parameter(rng.normal(size=s)) for s in shapes]
    reference = ReferenceAdam([p.value for p in params])
    cfg = toy_train_config(learning_rate=0.01)
    state = AdamState(params)
    for step in range(20):
        state.zero_grads()
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
        for p, g in zip(params, grads):
            p.grad += g
        adam_step(state, cfg)
        reference.step(grads, cfg)
        for p, want in zip(params, reference.values):
            assert p.value.tobytes() == want.tobytes(), step
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in reference.m]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in reference.v]).tobytes()


def test_adam_honours_a_rebound_value_or_grad():
    cfg = toy_train_config(learning_rate=0.01)
    p, q = ad.parameter([1.0, -2.0]), ad.parameter([[0.5], [3.0]])
    state = AdamState([p, q])
    assert np.shares_memory(p.value, state.values) and np.shares_memory(q.grad, state.grads)
    reference = ReferenceAdam([np.array([4.0, 5.0]), q.value])
    p.value = np.array([4.0, 5.0])        # rebound value
    q.grad = np.array([[0.25], [-1.0]])   # rebound grad
    adam_step(state, cfg)
    reference.step([np.zeros(2), np.array([[0.25], [-1.0]])], cfg)
    assert p.value.tobytes() == reference.values[0].tobytes()
    assert q.value.tobytes() == reference.values[1].tobytes()
    assert np.shares_memory(p.value, state.values) and np.shares_memory(q.grad, state.grads)
    # zero_grads drops a grad rebound after the step
    p.grad = np.array([7.0, 7.0])
    state.zero_grads()
    assert np.shares_memory(p.grad, state.grads) and not state.grads.any()


def test_adam_zero_gradient_no_move():
    p = ad.parameter([1.0, -2.0])
    state = AdamState([p])
    adam_step(state, toy_train_config())
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    cfg = toy_train_config(learning_rate=1e-3)
    p = ad.parameter([1.0, 1.0])
    p.grad = np.array([0.5, -3.0])
    state = AdamState([p])
    adam_step(state, cfg)
    update = p.value - 1.0
    assert np.allclose(update, [-1e-3, 1e-3], rtol=1e-6)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(5)
        p = ad.parameter(rng.normal(size=4))
        state = AdamState([p])
        cfg = toy_train_config(learning_rate=0.01)
        for _ in range(20):
            p.grad = rng.normal(size=4)
            adam_step(state, cfg)
        return p.value.copy()

    assert np.array_equal(run(), run())


# ------------------------------------------------------------------- train


def test_train_learns_scaled_atom_count():
    graphs = generate_graphs(ToySpec(num_molecules=50, seed=8, planted=("size",)))
    model = init_model(ModelConfig(targets=["size"], conv_hidden=16, num_conv_layers=3, seed=1))
    cfg = toy_train_config(epochs=200, batch_size=10, learning_rate=3e-3)
    _, _, history = train(model, graphs, cfg)
    assert history.raw_loss[-1] < 0.1 * history.raw_loss[0]


def test_train_epoch_zero_disallowed():
    with pytest.raises(ValueError):
        toy_train_config(epochs=0)


def test_gini_requires_explainable_variant():
    graphs = generate_graphs(ToySpec(num_molecules=12, seed=1))
    model = init_model(ModelConfig(targets=["size"], variant="reference", conv_hidden=4,
                                   num_conv_layers=1, seed=0))
    with pytest.raises(ValueError, match="explainable"):
        train(model, graphs, toy_train_config(gini=GiniConfig(m=10.0)))


def test_train_bit_reproducible():
    def run():
        graphs = generate_graphs(ToySpec(num_molecules=20, seed=3))
        model = init_model(ModelConfig(targets=["size", "oxygen_count"], conv_hidden=4,
                                       num_conv_layers=1, seed=4))
        cfg = toy_train_config(epochs=3, batch_size=6, gini=GiniConfig(m=10.0))
        train(model, graphs, cfg)
        return np.concatenate([p.value.ravel() for p in model.params.values()])

    assert np.array_equal(run(), run())


def test_history_lengths_and_identity():
    graphs = generate_graphs(ToySpec(num_molecules=24, seed=6))
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=2))
    cfg = toy_train_config(epochs=5, batch_size=8, gini=GiniConfig(m=10.0))
    _, _, history = train(model, graphs, cfg)
    assert len(history) == 5
    for e in range(5):
        g_eff = np.sqrt(history.g_mean_block[e] * history.g_max_block[e])
        expected = history.raw_loss[e] / max(g_eff, cfg.gini.g_floor) ** cfg.gini.m
        assert history.regularized_loss[e] == pytest.approx(expected, rel=1e-10)


def test_history_table_shape():
    graphs = generate_graphs(ToySpec(num_molecules=12, seed=6))
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=2))
    _, _, history = train(model, graphs, toy_train_config(epochs=2, batch_size=6),
                          val_graphs=graphs[:4])
    table = history.as_table()
    lines = table.strip().split("\n")
    assert lines[0].split("\t") == ["epoch", "raw_loss", "reg_loss", "g_mean", "g_max", "mae_size"]
    assert len(lines) == 3
    assert float(lines[1].split("\t")[5]) > 0  # val mae recorded


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_reported():
    graphs = generate_graphs(ToySpec(num_molecules=12, seed=6))
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=2))
    model.out_weight.value = model.out_weight.value * np.inf
    with pytest.raises(TrainingDivergence):
        train(model, graphs, toy_train_config(epochs=1, batch_size=6))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_carries_the_history_of_finished_epochs(monkeypatch):
    # the weights blow up after epoch 1's validation, so epoch 2 diverges at
    # its first batch; the error holds epoch 1's record as a clean run logs it
    graphs = generate_graphs(ToySpec(num_molecules=12, seed=6))
    val = generate_graphs(ToySpec(num_molecules=4, seed=7))
    cfg = ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=2)
    _, _, clean = train(init_model(cfg), graphs, toy_train_config(epochs=1, batch_size=6),
                        val_graphs=val)
    model = init_model(cfg)
    evaluate = training.evaluate_mae

    def blow_up_after(*args):
        maes = evaluate(*args)
        model.out_weight.value = model.out_weight.value * np.inf
        return maes

    monkeypatch.setattr(training, "evaluate_mae", blow_up_after)
    with pytest.raises(TrainingDivergence) as info:
        train(model, graphs, toy_train_config(epochs=3, batch_size=6), val_graphs=val)
    e = info.value
    assert (e.epoch, e.batch) == (2, 1)
    assert len(e.history) == 1 and np.isfinite(e.history.val_mae[0]["size"])
    assert e.history.as_table() == clean.as_table()


def test_train_empty_set_rejected():
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1))
    with pytest.raises(ValueError):
        train(model, [], toy_train_config())


FIVE_BOND_CARBON = {"id": "bad-carbon", "atoms": [{"element": "C"}] * 6,
                    "bonds": [[0, k, 1] for k in range(1, 6)],
                    "targets": {"size": 6.0, "oxygen_count": 0.0}}


def test_train_featurizes_each_molecule_once(monkeypatch):
    # each epoch packs each training molecule once, in its batch
    graphs = generate_graphs(ToySpec(num_molecules=20, seed=3))
    calls = []
    real = model_module.pack_graphs

    def counted(packed):
        calls.extend(g.id for g in packed)
        return real(packed)

    monkeypatch.setattr(model_module, "pack_graphs", counted)
    monkeypatch.setattr(training, "pack_graphs", counted)
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=0))
    train(model, graphs, toy_train_config(epochs=3, batch_size=6))
    assert [sorted(calls[k:k + 20]) for k in (0, 20, 40)] == [sorted(g.id for g in graphs)] * 3
    assert len(calls) == 60


def test_train_packs_each_molecule_once_validation_included(monkeypatch):
    # each training molecule is packed once per epoch, and each epoch's
    # validation MAE is that of evaluate_mae over the validation list
    graphs = generate_graphs(ToySpec(num_molecules=20, seed=3))
    val = generate_graphs(ToySpec(num_molecules=2 * model_module.SLICE + 1, seed=4))
    cfg = ModelConfig(targets=["size", "oxygen_count"], conv_hidden=4, num_conv_layers=2, seed=0)
    calls = []
    real = model_module.pack_graphs

    def counted(packed):
        calls.extend(g.id for g in packed)
        return real(packed)

    monkeypatch.setattr(model_module, "pack_graphs", counted)
    monkeypatch.setattr(training, "pack_graphs", counted)
    model, stats, history = train(init_model(cfg), graphs, toy_train_config(epochs=3, batch_size=6),
                                  val_graphs=val)
    # both sets are packed in each of the 3 epochs: training batches, then validation slices
    assert sorted(calls) == sorted([g.id for g in graphs + val] * 3)
    monkeypatch.undo()
    assert len(history) == 3
    assert repr(history.val_mae[-1]) == repr(training.evaluate_mae(model, stats, val))


def test_unfeaturizable_validation_molecule_fails_before_any_update():
    # degree is a one-hot over 0-4, so a five-bond carbon is rejected when its
    # set loads, at its line, and never reaches train
    val = generate_graphs(ToySpec(num_molecules=4, seed=5))
    text = format_graph_file(val) + json.dumps(FIVE_BOND_CARBON) + "\n"
    with pytest.raises(MoleculeError, match="^line 5: molecule 'bad-carbon': atom 0 degree 5 > 4$"):
        parse_graph_file(text)


def test_unfeaturizable_molecule_fails_before_any_update():
    rec = FIVE_BOND_CARBON
    with pytest.raises(MoleculeError, match="^molecule 'bad-carbon': atom 0 degree 5 > 4$"):
        MolecularGraph(rec["id"], [Atom("C")] * 6, rec["bonds"], rec["targets"])


# -------------------------------------------------------------- evaluation


def test_perfect_predictor_zero_mae():
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=9, planted=("size",)))
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=0))
    y, mask = target_matrix(graphs, ["size"])
    stats, _ = standardize_targets(y, mask, ["size"])
    pred_z = model.predict(graphs)

    class Exact:
        config = model.config

        @staticmethod
        def predict(gs, mode="eval"):
            yy, _ = target_matrix(gs, ["size"])
            return stats.transform(yy)

    maes = evaluate_mae(Exact, stats, graphs)
    assert maes["size"] == pytest.approx(0.0, abs=1e-12)


def test_constant_predictor_mae_equals_std():
    graphs = generate_graphs(ToySpec(num_molecules=2, seed=10, planted=("size",)))
    graphs[0].targets["size"] = 1.0
    graphs[1].targets["size"] = 3.0

    class Mean:
        config = init_model(ModelConfig(targets=["size"], conv_hidden=2, num_conv_layers=1)).config

        @staticmethod
        def predict(gs, mode="eval"):
            return np.zeros((len(gs), 1))  # z = 0 is the training mean

    stats = TargetStats(names=["size"], mean=np.array([2.0]), std=np.array([1.0]))
    maes = evaluate_mae(Mean, stats, graphs)
    assert maes["size"] == pytest.approx(1.0)


def test_evaluate_rejects_stats_for_other_targets():
    graphs = generate_graphs(ToySpec(num_molecules=6, seed=4))
    model = init_model(ModelConfig(targets=["size", "oxygen_count"], conv_hidden=2,
                                   num_conv_layers=1))
    for names in (["oxygen_count", "size"], ["size"], ["size", "oxygen_count", "branch_count"]):
        stats = TargetStats(names=names, mean=np.zeros(len(names)), std=np.ones(len(names)))
        with pytest.raises(ValueError, match=r"\['size', 'oxygen_count'\]") as info:
            evaluate_mae(model, stats, graphs)
        assert str(names) in str(info.value)


def test_target_matrix_matches_a_per_cell_reference():
    graphs = generate_graphs(ToySpec(num_molecules=30, seed=5))
    for k, g in enumerate(graphs):
        if k % 3 == 0:
            del g.targets["size"]
        if k % 4 == 1:
            g.targets.clear()
    names = ["oxygen_count", "absent", "size", "branch_count"]
    want_y, want_mask = np.zeros((30, 4)), np.zeros((30, 4))
    for r, g in enumerate(graphs):
        for c, name in enumerate(names):
            if name in g.targets:
                want_y[r, c] = g.targets[name]
                want_mask[r, c] = 1.0
    assert want_mask.any() and not want_mask.all()
    y, mask = target_matrix(graphs, names)
    for got, want in ((y, want_y), (mask, want_mask)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    y, mask = target_matrix(graphs, [])
    assert y.shape == mask.shape == (30, 0)
    y, mask = target_matrix([], names)
    assert y.shape == mask.shape == (0, 4)


def test_evaluate_empty_set_rejected():
    model = init_model(ModelConfig(targets=["size"], conv_hidden=2, num_conv_layers=1))
    stats = TargetStats(names=["size"], mean=np.zeros(1), std=np.ones(1))
    with pytest.raises(ValueError):
        evaluate_mae(model, stats, [])


# --------------------------------------------------------- cross-validation


def test_crossval_fold_arithmetic():
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=12, planted=("size",)))
    model_cfg = ModelConfig(targets=["size"], conv_hidden=3, num_conv_layers=1, seed=0)
    mean_mae, per_fold = cross_validate(graphs, model_cfg, toy_train_config(epochs=1, batch_size=4), k=5)
    assert len(per_fold) == 5
    assert mean_mae["size"] == pytest.approx(np.mean([f["size"] for f in per_fold]))


def test_crossval_deterministic():
    graphs = generate_graphs(ToySpec(num_molecules=10, seed=12, planted=("size",)))
    model_cfg = ModelConfig(targets=["size"], conv_hidden=3, num_conv_layers=1, seed=0)
    cfg = toy_train_config(epochs=1, batch_size=4)
    a, _ = cross_validate(graphs, model_cfg, cfg, k=3)
    b, _ = cross_validate(graphs, model_cfg, cfg, k=3)
    assert a == b


# -------------------------------------------------------- full-loss gradient


def test_full_loss_gradient_three_molecule_batch():
    graphs, cfg = gradient_check_batch()
    for trial in range(3):
        loss, theta = sample_kink_free_theta(cfg, graphs, GiniConfig(m=10.0), seed=trial)
        assert fd_max_relative_error(loss, theta) < 1e-4
