"""The benchmark's checks pass on the program's outputs and fail on wrong ones.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ginigcn import attribution, model as gmodel, toydata, training  # noqa: E402
from ginigcn.gini import GiniConfig, gini  # noqa: E402
from ginigcn.model import ModelConfig  # noqa: E402
from ginigcn.toydata import ToySpec  # noqa: E402
from ginigcn.training import TrainConfig  # noqa: E402

import checks  # noqa: E402

TARGETS = ["oxygen_count", "size", "branch_count"]
M = 10.0


@pytest.fixture(scope="module")
def trained():
    graphs = toydata.generate_graphs(ToySpec(num_molecules=60, seed=5))
    model = gmodel.init_model(ModelConfig(targets=TARGETS, num_conv_layers=2, conv_hidden=8))
    _, _, history = training.train(
        model, graphs, TrainConfig(epochs=3, batch_size=20, learning_rate=3e-3,
                                   gini=GiniConfig(m=M)))
    ref = checks.ReferenceModel(gmodel.checkpoint_document(model))
    return model, history, graphs, ref


def test_count_targets_match_planted_values():
    for g in toydata.generate_graphs(ToySpec(num_molecules=50, seed=9)):
        assert checks.count_targets(g) == {t: toydata.planted_value(g, t) for t in TARGETS}


def test_double_sum_gini_matches_sorted_form():
    w = np.random.default_rng(0).normal(size=(16, 3))
    assert abs(checks.gini_double_sum(w) - gini(w)) < 1e-12


def test_prediction_check_catches_a_perturbed_prediction(trained):
    model, _, graphs, ref = trained
    pred = model.predict(graphs)
    ref_pred = np.array([ref.predict(ref.node_reps(g)) for g in graphs])
    assert checks.check_predictions(pred, ref_pred) == []
    pred[7, 1] += 1e-6
    assert checks.check_predictions(pred, ref_pred)


def _explanation_problems(model, ref, graph, j, scores=None):
    amap = attribution.per_atom_map(model, graph, TARGETS[j])
    top = attribution.top_representations(model, TARGETS[j])
    reps = ref.node_reps(graph)
    return checks.check_explanation(
        amap.prediction, amap.bias, [t.value for t in amap.terms],
        amap.atom_scores if scores is None else scores, top,
        ref.predict(reps)[j], reps, ref.out_weight[:, j]), amap


def test_explanation_check_catches_a_moved_atom_score(trained):
    model, _, graphs, ref = trained
    # A molecule whose max-block owners are all unique, so each atom's score
    # is fixed by the reference map.
    graph = next(g for g in graphs if g.num_atoms >= 3 and all(
        t.size == 1 for t in checks.reference_atom_split(ref.node_reps(g),
                                                         ref.out_weight[:, 0])[2]))
    problems, amap = _explanation_problems(model, ref, graph, 0)
    assert problems == []
    scores = list(amap.atom_scores)
    a = int(np.argmax(np.abs(scores)))
    b = (a + 1) % len(scores)
    scores[b] += scores[a]
    scores[a] = 0.0
    problems, _ = _explanation_problems(model, ref, graph, 0, scores)
    assert any("off the reference map" in p for p in problems)


def test_history_check_catches_an_altered_regularized_loss(trained):
    _, history, _, _ = trained
    rows = (history.raw_loss, history.regularized_loss, history.g_mean_block,
            history.g_max_block)
    assert checks.check_history(*rows, M) == []
    altered = list(history.regularized_loss)
    altered[1] *= 1.0 + 1e-6
    assert checks.check_history(rows[0], altered, *rows[2:], M)


def test_gini_growth_check_rejects_weights_that_did_not_sparsify(trained):
    model, _, _, _ = trained
    hidden = model.config.conv_hidden
    w = model.out_weight.value
    assert checks.check_gini_growth(np.ones_like(w), w, hidden) == []
    assert checks.check_gini_growth(w, np.ones_like(w), hidden)
