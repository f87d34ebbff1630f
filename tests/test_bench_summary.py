"""The before/after collector ``scripts/bench_summary.py``, on synthetic records."""

import importlib.util
import json
from pathlib import Path

import pytest


def load_summary():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
    spec = importlib.util.spec_from_file_location("bench_summary", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MACHINE = {"cpus": 2, "blas": "openblas 0.3"}


def write_records(out_dir, workload, seeds, mol_per_s, sha, problems=(), machine=MACHINE):
    out_dir.mkdir(exist_ok=True)
    for seed, rate in zip(seeds, mol_per_s):
        record = {
            "args": {"workload": workload, "seed": seed, "seconds": 30.0, "trace": 0},
            "git_sha": sha,
            "source_sha256": "digest-" + sha,
            "machine": machine,
            "problems": list(problems),
            "errors": [],
            "end_to_end": {"setup_s": 0.5, "peak_rss_mb": 80.0, "mol_per_s": rate,
                           "heldout_mae": 0.25},
        }
        path = out_dir / f"{workload}-seed{seed}-trace0.json"
        path.write_text(json.dumps(record), encoding="utf-8")
    # a traced run of the same seed is not an end-to-end record
    (out_dir / f"{workload}-seed{seeds[0]}-trace1.json").write_text("{}", encoding="utf-8")


def test_summary_of_two_sides(tmp_path):
    summary = load_summary()
    seeds = [1, 2, 3, 4, 5]
    write_records(tmp_path / "a", "explain", seeds, [100.0, 110.0, 90.0, 105.0, 95.0], "aaa")
    write_records(tmp_path / "b", "explain", seeds, [150.0, 140.0, 99.0, 160.0, 130.0], "bbb")
    out = tmp_path / "BENCH.json"
    assert summary.main([str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    explain = doc["workloads"]["explain"]
    parent, change = explain["parent"], explain["change"]
    assert (parent["git_sha"], parent["source_sha256"]) == ("aaa", "digest-aaa")
    assert change["machine"] == {"cpus": 2, "blas": "openblas 0.3"}
    assert parent["seeds"] == seeds and parent["all_correct"] and change["all_correct"]
    # inclusive quartiles of 90, 95, 100, 105, 110
    assert parent["metrics"]["mol_per_s"] == {"median": 100.0, "q1": 95.0, "q3": 105.0,
                                              "values": [100.0, 110.0, 90.0, 105.0, 95.0]}
    assert change["metrics"]["mol_per_s"]["median"] == 140.0
    pairs = explain["pairs"]["mol_per_s"]
    assert pairs["parent"] == [100.0, 110.0, 90.0, 105.0, 95.0]
    assert pairs["median_change"] == pytest.approx(0.4)
    assert (pairs["better"], pairs["change_better_pairs"]) == ("higher", 5)
    setup = explain["pairs"]["setup_s"]
    assert (setup["better"], setup["change_better_pairs"], setup["median_change"]) == (
        "lower", 0, 0.0)


def test_summary_notes_disagreeing_records_and_failed_checks(tmp_path):
    summary = load_summary()
    write_records(tmp_path / "a", "train", [1, 2, 3], [10.0] * 3, "aaa")
    write_records(tmp_path / "a", "train", [4, 5], [10.0] * 2, "abc", problems=["bad"])
    write_records(tmp_path / "b", "train", [1, 2, 3, 4, 5], [11.0] * 5, "bbb")
    doc = summary.summarize(tmp_path / "a", tmp_path / "b", {})
    parent = doc["workloads"]["train"]["parent"]
    assert parent["git_sha"] == {"differ": ["aaa", "abc"], "what": "git_sha"}
    assert not parent["all_correct"]
    assert "better" not in doc["workloads"]["train"]["pairs"]["mol_per_s"]


def test_too_few_seeds_is_an_error(tmp_path, capsys):
    summary = load_summary()
    write_records(tmp_path / "a", "eval_bulk", [1, 2, 3, 4, 5], [1.0] * 5, "aaa")
    write_records(tmp_path / "b", "eval_bulk", [1, 2, 3, 4], [1.0] * 4, "bbb")
    out = tmp_path / "BENCH.json"
    assert summary.main([str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("bench_summary: error: eval_bulk: 4 change seed(s), "
                                       "at least 5 needed\n")
    assert not out.exists()
    write_records(tmp_path / "b", "eval_bulk", [6], [1.0], "bbb")
    with pytest.raises(ValueError, match="fewer than 5 seeds run on both sides"):
        summary.summarize(tmp_path / "a", tmp_path / "b", {})


def test_records_from_different_machines_are_an_error(tmp_path, capsys):
    # a speedup counts only from a same-machine pair
    summary = load_summary()
    seeds = [1, 2, 3, 4, 5]
    write_records(tmp_path / "a", "train", seeds, [10.0] * 5, "aaa")
    write_records(tmp_path / "b", "train", seeds, [11.0] * 5, "bbb",
                  machine={**MACHINE, "cpus": 4})
    out = tmp_path / "BENCH.json"
    assert summary.main([str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("bench_summary: error: train: parent and change ran on "
                                       "different machines (they differ in cpus)\n")
    assert not out.exists()
    write_records(tmp_path / "b", "train", [3], [11.0], "bbb")  # one record on the parent's
    with pytest.raises(ValueError, match="^train: the change records ran on different machines$"):
        summary.summarize(tmp_path / "a", tmp_path / "b", {})
