"""Every exported name resolves, so a deleted function cannot linger as a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import ginigcn


def package_modules():
    return [importlib.import_module(f"ginigcn.{info.name}")
            for info in pkgutil.iter_modules(ginigcn.__path__)]


def test_every_module_all_name_resolves():
    modules = [m for m in package_modules() if hasattr(m, "__all__")]
    assert {m.__name__ for m in modules} >= {"ginigcn.autodiff", "ginigcn.model",
                                             "ginigcn.training"}
    for module in modules:
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_the_parameter_layout_is_exported():
    # the one list of checkpoint names and shapes that the model, init and the loader walk
    from ginigcn import model
    assert {"parameter_shapes", "Model", "init_model", "model_from_document"} <= set(model.__all__)


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(ginigcn.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"ginigcn.{module}")
        assert getattr(ginigcn, name) is getattr(source, name), f"{module}.{name}"
