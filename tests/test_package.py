import ast
import importlib
from pathlib import Path

import pytest

SUBMODULES = (
    "cli", "comparison", "data", "errors", "estimation", "evaluation", "model", "simulation",
)
SOURCE = Path(__file__).resolve().parent.parent / "src" / "geomrel"


@pytest.mark.parametrize("module_name", ("geomrel", *(f"geomrel.{m}" for m in SUBMODULES)))
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined attributes: {missing}"


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and that neither its
    code reads nor its ``__all__`` lists."""
    tree = ast.parse(source)
    imported, used, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used | exported]


def test_unused_imports_are_found():
    source = "from .errors import FitError, PredictionError\nimport numpy as np\nPredictionError\n"
    assert unused_imports(source) == ["FitError", "np"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
