"""Command-line interface: exit codes, outputs, idempotency."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ginigcn import cli, model as model_module, training
from ginigcn.attribution import per_atom_map
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


def test_train_nan_target_exits_1(workspace, capsys):
    tmp, config_path, config = workspace
    lines = Path(config["dataset"]).read_text().splitlines()
    rec = json.loads(lines[2])
    rec["targets"]["size"] = float("nan")  # json.dumps writes the NaN token
    lines[2] = json.dumps(rec)
    Path(config["dataset"]).write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "line 3" in captured.err and "'size'" in captured.err and "finite" in captured.err
    assert not (tmp / "run" / "checkpoint.json").exists()


def test_train_boolean_target_exits_1(workspace, capsys):
    tmp, config_path, config = workspace
    lines = Path(config["dataset"]).read_text().splitlines()
    rec = json.loads(lines[2])
    rec["targets"]["size"] = True  # once loaded as the target 1.0
    lines[2] = json.dumps(rec)
    Path(config["dataset"]).write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "line 3" in captured.err and "'size'" in captured.err
    assert "must be a number" in captured.err
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


@pytest.mark.parametrize("section, field, value", [
    ("gini", "m", float("nan")),
    ("gini", "m", float("inf")),
    ("train", "learning_rate", float("nan")),
    ("train", "learning_rate", float("inf")),
    ("train", "adam_beta1", 2.0),
    ("train", "adam_epsilon", -1),
    ("train", "epochs", 1.5),
    ("train", "batch_size", 2.5),
    ("train", "seed", 1.5),
    ("model", "conv_hidden", 2.5),
    ("model", "seed", 1.5),
])
def test_bad_run_config_value_exits_1(workspace, capsys, section, field, value):
    tmp, config_path, config = workspace
    part = config["train"]["gini"] if section == "gini" else config[section]
    part[field] = value
    rewrite(config_path, config)  # json writes NaN and Infinity, and reads them back
    assert main(["train", "--config", str(config_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid config: ") and captured.err.count("\n") == 1
    assert field in captured.err
    assert not (tmp / "run" / "checkpoint.json").exists()


def test_diverging_run_exits_2_with_one_line(workspace):
    # numpy overflows on the way to the non-finite loss; only the error line shows
    tmp, config_path, config = workspace
    config["train"]["learning_rate"] = 1e300
    rewrite(config_path, config)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ginigcn.cli", "train", "--config", str(config_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: training diverged: ") and proc.stderr.count("\n") == 1
    assert not (tmp / "run" / "checkpoint.json").exists()


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


def test_explain_all_ids_match_one_molecule_maps(workspace, capsys):
    # explain builds every document from one batched pass; each must carry
    # the exact numbers of that molecule's own one-molecule map
    ckpt, tmp = trained_checkpoint(workspace)
    capsys.readouterr()
    dataset = tmp / "toy.jsonl"
    assert main(["explain", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--target", "oxygen_count"]) == 0
    out, decoder, docs = capsys.readouterr().out, json.JSONDecoder(), []
    while out.strip():
        doc, end = decoder.raw_decode(out.lstrip())
        docs.append(doc)
        out = out.lstrip()[end:]
    model, graphs = load_checkpoint(ckpt), load_dataset(dataset)
    assert [d["molecule_id"] for d in docs] == [g.id for g in graphs]
    for doc, g in zip(docs, graphs):
        amap = per_atom_map(model, g, "oxygen_count")
        assert doc["prediction"] == amap.prediction and doc["bias"] == amap.bias
        assert doc["terms"] == [asdict(t) for t in amap.terms]
        assert doc["atom_scores"] == amap.atom_scores


def test_explain_in_slices_matches_one_pass(workspace, capsys, monkeypatch):
    ckpt, tmp = trained_checkpoint(workspace)
    argv = ["explain", "--checkpoint", str(ckpt), "--dataset", str(tmp / "toy.jsonl"),
            "--target", "size"]
    capsys.readouterr()
    assert main(argv) == 0
    one_pass = capsys.readouterr().out
    monkeypatch.setattr(model_module, "SLICE", 5)  # 24 molecules: four full slices and a partial one
    assert main(argv) == 0
    assert capsys.readouterr().out == one_pass


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


def test_explain_repeated_id_exits_1(workspace, capsys):
    ckpt, tmp = trained_checkpoint(workspace)
    graphs = load_dataset(tmp / "toy.jsonl")[:3]
    graphs[2].id = graphs[0].id
    dataset = tmp / "repeated.jsonl"
    write_dataset(dataset, graphs)
    capsys.readouterr()
    code = main(["explain", "--checkpoint", str(ckpt), "--dataset", str(dataset),
                 "--target", "size", "--out", str(tmp / "expl")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and graphs[0].id in captured.err
    assert not (tmp / "expl").exists()


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


@pytest.mark.parametrize("case", ["config_dir", "dataset_dir_in_config", "checkpoint_dir",
                                  "explain_dataset_dir", "train_out_file", "explain_out_file",
                                  "gini_report_out_file", "config_list", "config_model_number",
                                  "config_train_list", "config_dataset_number"])
def test_file_and_config_document_errors_exit_1(workspace, capsys, case):
    tmp, config_path, config = workspace
    ckpt = tmp / "ckpt.json"
    ckpt.write_text(json.dumps(untrained_checkpoint()))
    afile = tmp / "afile"
    afile.write_text("")

    def explain(dataset):
        return ["explain", "--checkpoint", str(ckpt), "--dataset", str(dataset), "--target", "size"]

    edits = {"dataset_dir_in_config": {"dataset": str(tmp)},
             "config_model_number": {"model": 5},
             "config_train_list": {"train": [1]},
             "config_dataset_number": {"dataset": 5}}
    if case in edits:
        rewrite(config_path, {**config, **edits[case]})
    elif case == "config_list":
        rewrite(config_path, [config])
    train_argv = ["train", "--config", str(config_path)]
    argv = {"config_dir": ["train", "--config", str(tmp)],
            "checkpoint_dir": ["gini-report", "--checkpoint", str(tmp)],
            "explain_dataset_dir": explain(tmp),
            "train_out_file": train_argv + ["--out", str(afile)],
            "explain_out_file": explain(config["dataset"]) + ["--out", str(afile)],
            "gini_report_out_file": ["gini-report", "--checkpoint", str(ckpt), "--out", str(afile)],
            }.get(case, train_argv)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("command", ["train", "crossval"])
def test_out_file_fails_before_training(workspace, capsys, monkeypatch, command):
    tmp, config_path, _ = workspace
    afile = tmp / "afile"
    afile.write_text("")

    def no_training(*args, **kwargs):
        raise AssertionError("trained although the output directory is unusable")

    monkeypatch.setattr(cli, "train", no_training)
    monkeypatch.setattr(training, "train", no_training)
    assert main([command, "--config", str(config_path), "--out", str(afile)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("field", ["dataset", "output_dir"])
def test_config_path_field_of_wrong_type_is_named(workspace, capsys, field):
    _, config_path, config = workspace
    rewrite(config_path, {**config, field: 5})
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid config: '{field}' must be a path string, got 5\n"
