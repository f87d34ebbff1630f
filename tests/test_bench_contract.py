"""The benchmark's tracer (``bench/tracing.py``) wraps program functions by name.

Renaming or deleting one of them breaks ``bench/run.py --trace 1``; these
tests catch that in the main suite. ``bench/`` is only read here.
"""

import importlib
import importlib.util
from pathlib import Path

from ginigcn import autodiff, model


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
