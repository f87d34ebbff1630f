"""Command-line interface: exit codes, outputs, idempotency."""

import json

import numpy as np
import pytest

from ginigcn.cli import main
from ginigcn.model import ModelConfig, checkpoint_document, init_model, load_checkpoint
from ginigcn.molecules import load_dataset, write_dataset
from ginigcn.toydata import ToySpec, generate_graphs


@pytest.fixture()
def workspace(tmp_path):
    graphs = generate_graphs(ToySpec(num_molecules=24, seed=5))
    dataset = tmp_path / "toy.jsonl"
    write_dataset(dataset, graphs)
    config = {
        "dataset": str(dataset),
        "output_dir": str(tmp_path / "run"),
        "model": {
            "targets": ["size", "oxygen_count"],
            "variant": "explainable",
            "num_conv_layers": 1,
            "conv_hidden": 4,
            "seed": 0,
        },
        "train": {"epochs": 2, "batch_size": 8, "gini": {"m": 10.0}, "seed": 0},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path, config


def rewrite(path, config):
    path.write_text(json.dumps(config))


def test_train_happy_path(workspace, capsys):
    tmp, config_path, config = workspace
    assert main(["train", "--config", str(config_path)]) == 0
    out = tmp / "run"
    assert (out / "checkpoint.json").exists()
    assert (out / "target_stats.json").exists()
    assert (out / "history.tsv").exists()
    model = load_checkpoint(out / "checkpoint.json")
    assert model.config.targets == ["size", "oxygen_count"]
    header = (out / "history.tsv").read_text().splitlines()[0]
    assert header.split("\t")[:5] == ["epoch", "raw_loss", "reg_loss", "g_mean", "g_max"]


def test_train_idempotent(workspace):
    tmp, config_path, _ = workspace
    assert main(["train", "--config", str(config_path), "--out", str(tmp / "a")]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(tmp / "b")]) == 0
    for name in ("checkpoint.json", "target_stats.json", "history.tsv"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


def test_train_unfeaturizable_molecule_exits_1(workspace, capsys):
    tmp, config_path, config = workspace
    # parses (valid indices and orders) but cannot be featurized
    bad = {"id": "five-bond-carbon", "atoms": [{"element": "C"}] * 6,
           "bonds": [[0, k, 1] for k in range(1, 6)], "targets": {"size": 6, "oxygen_count": 0}}
    with open(config["dataset"], "a", encoding="utf-8") as fh:
        fh.write(json.dumps(bad) + "\n")
    assert main(["train", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "five-bond-carbon" in captured.err and "degree 5" in captured.err
    assert not (tmp / "run" / "checkpoint.json").exists()


def test_missing_dataset_exits_1(workspace, capsys):
    tmp, config_path, config = workspace
    config["dataset"] = str(tmp / "nope.jsonl")
    rewrite(config_path, config)
    assert main(["train", "--config", str(config_path)]) == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_reference_with_gini_exits_1(workspace, capsys):
    tmp, config_path, config = workspace
    config["model"]["variant"] = "reference"
    rewrite(config_path, config)
    assert main(["train", "--config", str(config_path)]) == 1
    assert "explainable" in capsys.readouterr().err


def test_unknown_config_target_exits_1(workspace, capsys):
    tmp, config_path, config = workspace
    config["model"]["targets"] = ["size", "mystery"]
    rewrite(config_path, config)
    assert main(["train", "--config", str(config_path)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_seed_override_changes_run(workspace):
    tmp, config_path, _ = workspace
    assert main(["train", "--config", str(config_path), "--out", str(tmp / "a"), "--seed", "1"]) == 0
    assert main(["train", "--config", str(config_path), "--out", str(tmp / "b"), "--seed", "2"]) == 0
    a = json.loads((tmp / "a" / "checkpoint.json").read_text())
    b = json.loads((tmp / "b" / "checkpoint.json").read_text())
    assert a["parameters"]["output.weight"] != b["parameters"]["output.weight"]


def test_crossval_table(workspace, capsys):
    tmp, config_path, _ = workspace
    assert main(["crossval", "--config", str(config_path), "--folds", "3"]) == 0
    table = (tmp / "run" / "crossval.tsv").read_text().splitlines()
    assert table[0].split("\t") == ["fold", "mae_size", "mae_oxygen_count"]
    assert len(table) == 5  # 3 folds + mean + header
    assert table[-1].startswith("mean\t")


def test_crossval_bad_folds(workspace, capsys):
    tmp, config_path, _ = workspace
    assert main(["crossval", "--config", str(config_path), "--folds", "1"]) == 1
    assert main(["crossval", "--config", str(config_path), "--folds", "999"]) == 1


def trained_checkpoint(workspace):
    tmp, config_path, _ = workspace
    main(["train", "--config", str(config_path)])
    return tmp / "run" / "checkpoint.json", tmp


def test_explain_document(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    dataset = tmp / "toy.jsonl"
    mol_id = load_dataset(dataset)[0].id
    code = main(["explain", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--target", "size", "--ids", mol_id, "--out", str(tmp / "expl")])
    assert code == 0
    doc = json.loads((tmp / "expl" / f"attribution_{mol_id}_size.json").read_text())
    assert doc["format_version"] == 1
    total = sum(t["value"] for t in doc["terms"]) + doc["bias"]
    assert total == pytest.approx(doc["prediction"], abs=1e-9)
    assert doc["top_representations"]
    assert len(doc["atom_scores"]) >= 1


def test_explain_unknown_target(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    code = main(["explain", "--checkpoint", str(ckpt), "--dataset", str(tmp / "toy.jsonl"),
                 "--target", "zap"])
    assert code == 1
    assert "size" in capsys.readouterr().err  # lists available targets


def test_explain_unknown_id(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    code = main(["explain", "--checkpoint", str(ckpt), "--dataset", str(tmp / "toy.jsonl"),
                 "--target", "size", "--ids", "ghost"])
    assert code == 1


def test_explain_rejects_reference_checkpoint(workspace, capsys):
    tmp, config_path, config = workspace
    config["model"]["variant"] = "reference"
    config["train"]["gini"] = {"m": 0.0}
    rewrite(config_path, config)
    assert main(["train", "--config", str(config_path)]) == 0
    code = main(["explain", "--checkpoint", str(tmp / "run" / "checkpoint.json"),
                 "--dataset", str(tmp / "toy.jsonl"), "--target", "size"])
    assert code == 1


def test_gini_report(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    assert main(["gini-report", "--checkpoint", str(ckpt), "--out", str(tmp / "rep")]) == 0
    doc = json.loads((tmp / "rep" / "gini_report.json").read_text())
    assert doc["format_version"] == 1
    assert 0.0 <= doc["g_mean_block"] < 1.0
    assert set(doc["per_target"]) == {"size", "oxygen_count"}
    for entry in doc["per_target"].values():
        assert entry["weights_holding_90pct_mass"] >= 1


def test_gini_report_hand_checkpoint_concentration(workspace, tmp_path, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    doc = json.loads(ckpt.read_text())
    entry = doc["parameters"]["output.weight"]
    w = np.zeros(np.prod(entry["shape"]))
    w[3] = 2.0  # single nonzero weight
    entry["data"] = w.tolist()
    hand = tmp_path / "hand.json"
    hand.write_text(json.dumps(doc))
    capsys.readouterr()  # drain the train command's output
    assert main(["gini-report", "--checkpoint", str(hand)]) == 0
    report = json.loads(capsys.readouterr().out)
    counts = {k: v["weights_holding_90pct_mass"] for k, v in report["per_target"].items()}
    assert 1 in counts.values()


def test_gini_report_corrupted_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["gini-report", "--checkpoint", str(bad)]) == 1


def test_fukui_compare_command(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    model = load_checkpoint(ckpt)
    from ginigcn.attribution import per_atom_map

    graphs = [g for g in load_dataset(tmp / "toy.jsonl") if g.num_atoms >= 3][:6]
    for g in graphs:
        scores = per_atom_map(model, g, "size").atom_scores
        g.fukui = [(s, -s) for s in scores]
    fukui_set = tmp / "fukui.jsonl"
    write_dataset(fukui_set, graphs)
    code = main(["fukui-compare", "--checkpoint", str(ckpt), "--dataset", str(fukui_set),
                 "--target", "size", "--polarity", "f_minus", "--out", str(tmp / "fk")])
    assert code == 0
    lines = (tmp / "fk" / "fukui_compare.tsv").read_text().splitlines()
    assert lines[0] == "molecule_id\tspearman_f_minus"
    assert lines[-1].startswith("mean\t")
    assert float(lines[-1].split("\t")[1]) == pytest.approx(1.0)


def test_fukui_compare_missing_data(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    code = main(["fukui-compare", "--checkpoint", str(ckpt), "--dataset", str(tmp / "toy.jsonl"),
                 "--target", "size"])
    assert code == 1
    assert "fukui" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert "ok   regularizer gradient" in out


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--bogus"])
    assert exc.value.code == 1


def untrained_checkpoint():
    model = init_model(ModelConfig(targets=["size"], conv_hidden=2, num_conv_layers=1, seed=0))
    return checkpoint_document(model)


@pytest.mark.parametrize("damage", ["no_data", "no_shape", "nan_weight", "inf_running_var",
                                    "negative_epsilon", "momentum_above_1",
                                    "targets_string", "targets_object", "targets_number"])
def test_gini_report_malformed_checkpoint_exits_1(tmp_path, capsys, damage):
    doc = untrained_checkpoint()
    if damage == "no_data":
        del doc["parameters"]["output.weight"]["data"]
    elif damage == "no_shape":
        del doc["parameters"]["conv0.weight"]["shape"]
    elif damage == "nan_weight":
        doc["parameters"]["output.weight"]["data"][0] = float("nan")
    elif damage == "inf_running_var":
        doc["batch_norm"]["conv0"]["running_var"][1] = float("inf")
    elif damage == "negative_epsilon":
        doc["batch_norm"]["conv0"]["epsilon"] = -2.0
    elif damage == "momentum_above_1":
        doc["batch_norm"]["conv0"]["momentum"] = 7.0
    else:
        # one target column, so each of these loaded before targets were checked
        doc["config"]["targets"] = {"targets_string": "s", "targets_object": {"a": 5},
                                    "targets_number": [3]}[damage]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["gini-report", "--checkpoint", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("field", ['"targets": {"size": null}', '"fukui": [[0.1, null]]'])
def test_explain_null_dataset_value_exits_1(tmp_path, capsys, field):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps(untrained_checkpoint()))
    dataset = tmp_path / "data.jsonl"
    dataset.write_text('{"id": "m", "atoms": [{"element": "C"}], ' + field + "}\n")
    code = main(["explain", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--target", "size", "--ids", "m"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and err.count("\n") == 1
