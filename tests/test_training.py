"""Standardization, loss, Adam, training loop, and cross-validation tests."""

import numpy as np
import pytest

from ginigcn import autodiff as ad
from ginigcn import model as model_module
from ginigcn import training
from ginigcn.gini import GiniConfig
from ginigcn.model import ModelConfig, init_model
from ginigcn.molecules import Atom, MolecularGraph, MoleculeError
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
], ids=["zero-std", "negative-std", "boolean-mean", "string-mean", "repeated-order"])
def test_target_stats_document_rejects_bad_values(edit, message):
    doc = TargetStats(names=["a", "b"], mean=np.array([1.5, -2.0]),
                      std=np.array([0.5, 3.0])).to_dict()
    edit(doc)
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


# -------------------------------------------------------------------- adam


def test_adam_zero_gradient_no_move():
    p = ad.parameter([1.0, -2.0])
    state = AdamState([p])
    adam_step([p], state, toy_train_config())
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_is_signed_lr():
    cfg = toy_train_config(learning_rate=1e-3)
    p = ad.parameter([1.0, 1.0])
    p.grad = np.array([0.5, -3.0])
    state = AdamState([p])
    adam_step([p], state, cfg)
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
            adam_step([p], state, cfg)
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
        return np.concatenate([p.value.ravel() for p in model.parameters()])

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


def five_bond_carbon():
    """A record that parses (bond indices and orders are valid) but cannot be
    featurized: its first carbon has five heavy neighbours."""
    return MolecularGraph(id="bad-carbon", atoms=[Atom("C")] * 6,
                          bonds=[(0, k, 1) for k in range(1, 6)],
                          targets={"size": 6.0, "oxygen_count": 0.0})


def test_train_featurizes_each_molecule_once(monkeypatch):
    graphs = generate_graphs(ToySpec(num_molecules=20, seed=3))
    calls = []
    real = model_module.pack_graphs

    def counted(packed):
        calls.extend(g.id for g in packed)
        return real(packed)

    monkeypatch.setattr(model_module, "pack_graphs", counted)
    model = init_model(ModelConfig(targets=["size"], conv_hidden=4, num_conv_layers=1, seed=0))
    train(model, graphs, toy_train_config(epochs=3, batch_size=6))
    assert sorted(calls) == sorted(g.id for g in graphs)


def test_unfeaturizable_molecule_fails_before_any_update():
    graphs = generate_graphs(ToySpec(num_molecules=60, seed=2))
    graphs.insert(50, five_bond_carbon())
    model = init_model(ModelConfig(targets=["size", "oxygen_count"], conv_hidden=4,
                                   num_conv_layers=1, seed=0))
    initial = [p.value.copy() for p in model.parameters()]
    with pytest.raises(MoleculeError, match="bad-carbon"):
        train(model, graphs, toy_train_config(epochs=2, batch_size=8))
    for p, before in zip(model.parameters(), initial):
        assert np.array_equal(p.value, before)


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
