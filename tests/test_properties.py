"""Property tests for the four inputs a user controls.

A SMILES string, a JSONL dataset document and a checkpoint document each
either load or raise the documented error (MoleculeError, CheckpointError);
no other exception escapes, a dataset that loads has finite target and Fukui
values, and a checkpoint that loads has target names and
batch-norm settings a fresh model could have. The training part of a run
config either builds a TrainConfig with finite, in-range fields, which then
trains or diverges, or raises ValueError. Examples are derandomized and
capped so that the suite stays reproducible and quick.
"""

import json
import math
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ginigcn.model import (
    CheckpointError,
    Model,
    ModelConfig,
    checkpoint_document,
    init_model,
    model_from_document,
)
from ginigcn.gini import GiniConfig
from ginigcn.molecules import MoleculeError, featurize, parse_graph_file, parse_smiles_subset
from ginigcn.toydata import ToySpec, generate_graphs
from ginigcn.training import TrainConfig, TrainingDivergence, train


def examples(count):
    return settings(derandomize=True, max_examples=count, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# Integers stay small where a document could turn them into a layer count or
# width (a checkpoint config), and include values past float range elsewhere.
SMALL_INTS = st.integers(-3, 8)
HUGE_INTS = st.integers(min_value=2 ** 1024, max_value=2 ** 1100)


def json_values(ints):
    leaves = st.one_of(st.none(), st.booleans(), ints, st.floats(), st.text(max_size=4))
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                    max_size=3),
        max_leaves=6,
    )


ANY_JSON = json_values(SMALL_INTS | HUGE_INTS)


def either(valid):
    """Mostly well-formed values, sometimes any JSON value in their place."""
    return st.one_of(valid, valid, ANY_JSON)


NUMBER = either(st.floats() | HUGE_INTS)


def load_graphs(text):
    graphs = parse_graph_file(text)
    for g in graphs:
        featurize(g)
    return graphs


# ------------------------------------------------------------------ SMILES

SMILES_TOKENS = ["C", "N", "O", "F", "c", "n", "o", "-", "=", "#", "(", ")", "1", "2", "3",
                 "0", "9", "Cl", "[", "H", " ", "x"]


@examples(300)
@given(st.lists(st.sampled_from(SMILES_TOKENS), max_size=24).map("".join))
def test_smiles_parses_or_raises_molecule_error(smiles):
    try:
        graph = parse_smiles_subset(smiles)
    except MoleculeError:
        return
    assert featurize(graph).shape[0] == graph.num_atoms


# ---------------------------------------------------------- JSONL datasets

ATOM = st.fixed_dictionaries(
    {"element": either(st.sampled_from(["C", "N", "O", "F", "H", "X"]))},
    optional={"aromatic": either(st.booleans()), "implicit_h": either(st.integers(-1, 6))},
)
BOND = st.tuples(st.integers(-1, 4), st.integers(-1, 4),
                 st.sampled_from([1, 2, 3, "aromatic", 0, 1.5])).map(list)
RECORD = st.fixed_dictionaries(
    {"id": either(st.text(max_size=4)), "atoms": either(st.lists(ATOM, max_size=6))},
    optional={
        "bonds": either(st.lists(either(BOND), max_size=6)),
        "targets": either(st.dictionaries(st.text(max_size=3), NUMBER, max_size=3)),
        "fukui": either(st.lists(either(st.lists(NUMBER, min_size=2, max_size=2)), max_size=6)),
    },
)
LINE = st.one_of(RECORD.map(json.dumps), RECORD.map(json.dumps), ANY_JSON.map(json.dumps),
                 st.text(max_size=12))


@examples(120)
@given(st.lists(LINE, max_size=4).map("\n".join))
@example('{"id": "m", "atoms": [{"element": "C"}], "bonds": null}')
@example('{"id": "m", "atoms": [{"element": "C"}], "targets": {"y": 1%s}}' % ("0" * 400))
@example('{"id": "m", "atoms": [{"element": "C"}], "targets": {"y": NaN}}')
@example('{"id": "m", "atoms": [{"element": "C"}], "targets": {"y": 1e400}}')
@example('{"id": "m", "atoms": [{"element": "C"}], "fukui": [[0.5, Infinity]]}')
@example('{"id": "m", "atoms": [{"element": "C"}], "targets": {"y": true}}')
@example('{"id": "m", "atoms": [{"element": "C"}], "fukui": [[false, "0.5"]]}')
def test_dataset_parses_or_raises_molecule_error(text):
    try:
        graphs = load_graphs(text)
    except MoleculeError:
        return
    assert all(g.num_atoms >= 1 for g in graphs)
    for g in graphs:
        assert all(math.isfinite(v) for v in g.targets.values())
        assert all(math.isfinite(v) for pair in g.fukui or () for v in pair)
    # every value loaded as a number was a JSON number in its line, not a bool or a string
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    for rec in map(json.loads, lines):
        pairs = rec.get("fukui") or ()
        values = [*rec.get("targets", {}).values(), *(v for pair in pairs for v in pair)]
        assert all(type(v) in (int, float) for v in values)


# ----------------------------------------------------- checkpoint documents

BASE_DOCUMENT = checkpoint_document(
    init_model(ModelConfig(targets=["a"], conv_hidden=2, num_conv_layers=1, seed=0)))


def paths(doc, prefix=()):
    """Every key path into a JSON document."""
    found = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        found.append(prefix + (key,))
        if isinstance(value, (dict, list)):
            found += paths(value, prefix + (key,))
    return found


# Grouped by top-level field, so each field is damaged about as often.
SECTIONS = [[p for p in paths(BASE_DOCUMENT) if p[0] == key] for key in BASE_DOCUMENT]


@st.composite
def damaged_documents(draw):
    doc = json.loads(json.dumps(BASE_DOCUMENT))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(draw(st.sampled_from(SECTIONS))))
        try:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier damage removed or replaced this path
        if draw(st.booleans()) and isinstance(parent, dict):
            del parent[path[-1]]
        else:
            ints = SMALL_INTS if path[0] == "config" else SMALL_INTS | HUGE_INTS
            parent[path[-1]] = draw(json_values(ints))
    return doc


def damaged(value, *path):
    """The base document with one field replaced."""
    doc = json.loads(json.dumps(BASE_DOCUMENT))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def retargeted_documents(draw):
    """The base document with other target names: a list of one name, or any JSON value."""
    return damaged(draw(either(st.lists(st.text(max_size=3), min_size=1, max_size=1))),
                   "config", "targets")


@examples(120)
@given(st.one_of(damaged_documents(), damaged_documents(), retargeted_documents(),
                 json_values(SMALL_INTS)))
@example(damaged(None, "parameters"))
@example(damaged(-1, "config", "seed"))
@example(damaged(1.5, "config", "conv_hidden"))
@example(damaged([10 ** 400], "parameters", "output.bias", "data"))
@example(damaged("s", "config", "targets"))
@example(damaged({"a": 5}, "config", "targets"))
@example(damaged([3], "config", "targets"))
@example(damaged(-2.0, "batch_norm", "conv0", "epsilon"))
@example(damaged(7, "batch_norm", "conv0", "momentum"))
def test_checkpoint_loads_or_raises_checkpoint_error(doc):
    try:
        model = model_from_document(doc)
    except CheckpointError:
        return
    assert isinstance(model, Model)
    targets = model.config.targets
    assert isinstance(targets, list) and all(isinstance(t, str) for t in targets)
    assert len(set(targets)) == len(targets) == model.out_weight.value.shape[1]
    for _, state in model.batch_norm_states():
        assert 0.0 < state.momentum < 1.0 and state.epsilon > 0.0


# -------------------------------------------------------------- run configs

COUNT = either(SMALL_INTS | st.floats(-1.0, 4.0) | st.booleans())
RATE = either(st.floats() | st.floats(0.0, 1.0) | SMALL_INTS | HUGE_INTS)
TRAIN_SECTION = st.fixed_dictionaries(
    {"epochs": COUNT, "batch_size": COUNT},
    optional={"learning_rate": RATE, "adam_beta1": RATE, "adam_beta2": RATE,
              "adam_epsilon": RATE, "seed": COUNT,
              "gini": st.fixed_dictionaries({}, optional={"m": RATE, "g_floor": RATE})},
)
TOY_GRAPHS = generate_graphs(ToySpec(num_molecules=8, seed=3))


@examples(150)
@given(TRAIN_SECTION)
@example({"epochs": 1, "batch_size": 4, "gini": {"m": math.nan}})
@example({"epochs": 1, "batch_size": 4, "gini": {"m": math.inf}})
@example({"epochs": 1, "batch_size": 4, "learning_rate": math.nan})
@example({"epochs": 1, "batch_size": 4, "learning_rate": math.inf})
@example({"epochs": 1, "batch_size": 4, "learning_rate": 10 ** 400})
@example({"epochs": 1, "batch_size": 4, "adam_beta1": 2.0})
@example({"epochs": 1, "batch_size": 4, "adam_epsilon": -1})
@example({"epochs": 1.5, "batch_size": 4})
@example({"epochs": 1, "batch_size": 2.5})
@example({"epochs": True, "batch_size": 4})
def test_train_config_builds_or_raises_value_error(section):
    section = dict(section)
    try:
        cfg = TrainConfig(gini=GiniConfig(**section.pop("gini", {})), **section)
    except ValueError:
        return
    for value in (cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon,
                  cfg.gini.m, cfg.gini.g_floor):
        assert math.isfinite(value)
    assert 0.0 <= cfg.adam_beta1 < 1.0 and 0.0 <= cfg.adam_beta2 < 1.0
    assert cfg.learning_rate > 0.0 and cfg.adam_epsilon > 0.0 and cfg.gini.m >= 0.0
    model = init_model(ModelConfig(targets=["size"], conv_hidden=2, num_conv_layers=1, seed=0))
    try:
        train(model, TOY_GRAPHS, replace(cfg, epochs=min(cfg.epochs, 2)))
    except TrainingDivergence:
        pass  # a finite, in-range step size can still be large enough to diverge
