import importlib

import pytest

SUBMODULES = (
    "cli", "comparison", "data", "errors", "estimation", "evaluation", "model", "simulation",
)


@pytest.mark.parametrize("module_name", ("geomrel", *(f"geomrel.{m}" for m in SUBMODULES)))
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"

