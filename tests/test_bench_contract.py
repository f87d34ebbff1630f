"""The benchmark (``bench/``) calls the program by name.

The tracer (``bench/tracing.py``) wraps program functions by name, and the
workloads (``bench/workloads.py``) call its API. Renaming or deleting one of
them breaks ``bench/run.py``; these tests catch that in the main suite.
``bench/`` is only read here.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from ginigcn import autodiff, model

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    path = BENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = [f"{module}.{name}" for module, names in tracing.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    assert callable(model.Model.forward_batch)
    assert "__init__" in vars(autodiff.Node)
    traced = {f"{module.rsplit('.', 1)[1]}.{name}"
              for module, names in tracing.TRACED.items() for name in names}
    assert set(tracing.SETUP_METRICS) <= traced


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    originals = (model.Model.forward_batch, autodiff.Node.__init__, autodiff.linear)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert model.Model.forward_batch is not originals[0]
    finally:
        tracer.uninstall()
    assert (model.Model.forward_batch, autodiff.Node.__init__, autodiff.linear) == originals


@pytest.mark.parametrize("name", ["train", "eval_bulk", "explain"])
def test_each_workload_runs_one_checked_round(name, monkeypatch, tmp_path):
    # the steps of bench/run.py without its timing loop: set-up, the
    # reference values, one round and its check
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == ["eval_bulk", "explain", "train"]
    workload = workloads.WORKLOADS[name](1, tmp_path)
    state = workload.setup()
    problems = workload.prepare(state)
    rnd = workload.round(state)
    assert rnd.errors == [] and rnd.failed == 0 and rnd.attempted > 0
    problems += workload.check(state, rnd.output)
    assert problems == []
    assert math.isfinite(workload.heldout_mae(state, rnd.output))
