"""The benchmark's three workloads: train, eval_bulk and explain.

A workload has a ``setup()`` that builds the program's inputs from the seed
(timed as set-up, repeated), a ``prepare()`` that computes the reference
values the checks need (untimed), a ``round()`` of identical timed calls into
the program, and a ``check()`` of one round's outputs. The program is called
through its module attributes, never through names imported at load time, so
that a traced run sees every call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ginigcn import attribution, model as gmodel, toydata, training
from ginigcn.gini import GiniConfig
from ginigcn.model import ModelConfig
from ginigcn.toydata import ToySpec
from ginigcn.training import TrainConfig

import checks

TARGETS = ["oxygen_count", "size", "branch_count"]
TRAIN_MOLECULES = 500
HELDOUT_MOLECULES = 500
HELDOUT_CHUNK = 100
EVAL_MOLECULES = 1000
ROUND_EPOCHS = 10
SETUP_EPOCHS = 5
GINI_M = 10.0

clock = time.perf_counter_ns


def _dataset(seed: int, part: int, size: int):
    # Distinct seeds per part (1 train, 2 held-out, 3 eval) and per run seed.
    return toydata.generate_graphs(ToySpec(num_molecules=size, seed=16 * seed + part))


def _truth(graphs) -> np.ndarray:
    return np.array([[checks.count_targets(g)[t] for t in TARGETS] for g in graphs])


def _model_config(seed: int) -> ModelConfig:
    return ModelConfig(targets=list(TARGETS), variant="explainable", num_conv_layers=3,
                       conv_hidden=64, seed=seed)


def _train_config(epochs: int, seed: int) -> TrainConfig:
    return TrainConfig(epochs=epochs, batch_size=25, learning_rate=3e-3,
                       gini=GiniConfig(m=GINI_M), seed=seed)


@dataclass
class Round:
    times_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    output: object = None
    errors: list[str] = field(default_factory=list)

    def call(self, fn, *args, timed: bool = True):
        """Run one operation, timed unless told otherwise; a raise counts as failed."""
        self.attempted += 1
        start = clock()
        try:
            result = fn(*args)
        except Exception as e:  # the benchmark counts every failure and goes on
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}")
            return None
        if timed:
            self.times_ns.append(clock() - start)
        return result


class Train:
    """README training configuration, then a held-out evaluation."""

    molecules_per_round = TRAIN_MOLECULES * ROUND_EPOCHS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> dict:
        return {
            "train": _dataset(self.seed, 1, TRAIN_MOLECULES),
            "heldout": _dataset(self.seed, 2, HELDOUT_MOLECULES),
        }

    def prepare(self, state: dict) -> list[str]:
        state["train_truth"] = _truth(state["train"])
        state["heldout_truth"] = _truth(state["heldout"])
        return []

    def round(self, state: dict) -> Round:
        rnd = Round()
        model = gmodel.init_model(_model_config(self.seed))
        w_initial = model.out_weight.value.copy()
        trained = rnd.call(training.train, model, state["train"],
                           _train_config(ROUND_EPOCHS, self.seed))
        if trained is None:
            return rnd
        _, stats, history = trained
        heldout = state["heldout"]
        chunks = [heldout[i:i + HELDOUT_CHUNK] for i in range(0, len(heldout), HELDOUT_CHUNK)]
        # The held-out evaluation is untimed: train() is the timed operation.
        maes = [rnd.call(training.evaluate_mae, model, stats, c, timed=False) for c in chunks]
        if None in maes:
            return rnd
        rnd.output = {
            "model": model, "stats": stats, "history": history, "w_initial": w_initial,
            "mae": {t: float(np.mean([m[t] for m in maes])) for t in TARGETS},
        }
        return rnd

    def check(self, state: dict, out: dict) -> list[str]:
        model, stats, history = out["model"], out["stats"], out["history"]
        pred = np.vstack([model.predict(state["heldout"][i:i + HELDOUT_CHUNK])
                          for i in range(0, HELDOUT_MOLECULES, HELDOUT_CHUNK)])
        own = checks.mae_by_target(stats.inverse(pred), state["heldout_truth"], TARGETS)
        problems = checks.check_finite((n, p.value) for n, p in model.named_parameters())
        problems += checks.check_history(history.raw_loss, history.regularized_loss,
                                         history.g_mean_block, history.g_max_block, GINI_M)
        problems += checks.check_gini_growth(out["w_initial"], model.out_weight.value,
                                             model.config.conv_hidden)
        problems += checks.check_mae_matches(out["mae"], own)
        problems += checks.check_beats_mean(own, state["heldout_truth"], state["train_truth"],
                                            TARGETS)
        first = state.setdefault("first_mae", out["mae"])
        if out["mae"] != first:
            problems.append(f"held-out MAE {out['mae']} differs from the first round's {first}")
        return problems

    def heldout_mae(self, state: dict, out: dict) -> float:
        return float(np.mean(list(out["mae"].values())))


class _TrainedModel:
    """Set-up shared by eval_bulk and explain: a briefly trained checkpoint."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.checkpoint = workdir / f"checkpoint-{type(self).__name__.lower()}-seed{seed}.json"

    def setup(self) -> dict:
        train_set = _dataset(self.seed, 1, TRAIN_MOLECULES)
        eval_set = _dataset(self.seed, 3, EVAL_MOLECULES)
        model = gmodel.init_model(_model_config(self.seed))
        _, stats, _ = training.train(model, train_set, _train_config(SETUP_EPOCHS, self.seed))
        gmodel.save_checkpoint(model, self.checkpoint)
        return {"eval": eval_set, "stats": stats,
                "model": gmodel.load_checkpoint(self.checkpoint)}

    def _reference(self, state: dict) -> checks.ReferenceModel:
        doc = json.loads(self.checkpoint.read_text(encoding="utf-8"))
        self.checkpoint.unlink()
        ref = checks.ReferenceModel(doc)
        state["reps"] = [ref.node_reps(g) for g in state["eval"]]
        state["ref_pred"] = np.array([ref.predict(x) for x in state["reps"]])
        state["truth"] = _truth(state["eval"])
        return ref


class EvalBulk(_TrainedModel):
    """One evaluate_mae call over the whole evaluation set per round."""

    molecules_per_round = EVAL_MOLECULES

    def prepare(self, state: dict) -> list[str]:
        self._reference(state)
        pred = state["model"].predict(state["eval"])
        state["own_mae"] = checks.mae_by_target(state["stats"].inverse(pred), state["truth"],
                                                TARGETS)
        return checks.check_predictions(pred, state["ref_pred"])

    def round(self, state: dict) -> Round:
        rnd = Round()
        rnd.output = rnd.call(training.evaluate_mae, state["model"], state["stats"],
                              state["eval"])
        return rnd

    def check(self, state: dict, out: dict) -> list[str]:
        return checks.check_mae_matches(out, state["own_mae"])

    def heldout_mae(self, state: dict, out: dict) -> float:
        return float(np.mean(list(out.values())))


def _explain(model, graph, target):
    return (attribution.per_atom_map(model, graph, target),
            attribution.top_representations(model, target))


def _explained(result):
    """The fields the checks read, so a round keeps no AttributionMap alive."""
    if result is None:
        return None
    amap, top = result
    return (amap.molecule_id, amap.prediction, amap.bias, [t.value for t in amap.terms],
            amap.atom_scores, top)


class Explain(_TrainedModel):
    """per_atom_map plus top_representations, one molecule and target per call."""

    molecules_per_round = EVAL_MOLECULES

    def prepare(self, state: dict) -> list[str]:
        ref = self._reference(state)
        state["w"] = ref.out_weight
        return []

    def round(self, state: dict) -> Round:
        rnd = Round()
        model = state["model"]
        rnd.output = [[_explained(rnd.call(_explain, model, g, t)) for t in TARGETS]
                      for g in state["eval"]]
        return rnd

    def check(self, state: dict, out: list) -> list[str]:
        problems = []
        for m, row in enumerate(out):
            for j, result in enumerate(row):
                if result is None:
                    continue
                mol_id, *fields = result
                found = checks.check_explanation(*fields, state["ref_pred"][m, j],
                                                 state["reps"][m], state["w"][:, j])
                problems += [f"{mol_id}/{TARGETS[j]}: {p}" for p in found]
        return problems

    def heldout_mae(self, state: dict, out: list) -> float:
        pred = np.array([[np.nan if r is None else r[1] for r in row] for row in out])
        maes = checks.mae_by_target(state["stats"].inverse(pred), state["truth"], TARGETS)
        return float(np.mean(list(maes.values())))


WORKLOADS = {"train": Train, "eval_bulk": EvalBulk, "explain": Explain}
