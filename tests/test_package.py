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


def unread_private_definitions(sources: list[str]) -> list[str]:
    """The ``_``-prefixed (not dunder) names that the modules ``sources``
    define at module level, and the functions and classes they define
    inside a function, that no code of theirs reads, as a name or as an
    attribute."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [n for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, functions):
                defined += [
                    inner.name
                    for inner in ast.walk(node)
                    if inner is not node and isinstance(inner, (*functions, ast.ClassDef))
                ]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted({name for name in defined if name not in read})


def test_unread_private_definitions_are_found():
    source = (
        "_LIMIT = 3\n_USED = 4\n"
        "def public():\n"
        "    def inner():\n        pass\n"
        "    class Local:\n        pass\n"
        "    def called():\n        return _USED\n"
        "    return called()\n"
        "def _helper():\n    pass\n"
    )
    assert unread_private_definitions([source]) == ["Local", "_LIMIT", "_helper", "inner"]
    # A name read by another module of the package counts as read.
    assert unread_private_definitions([source, "import m\nm._helper\n_LIMIT\n"]) == [
        "Local", "inner",
    ]


def test_no_unread_private_definition():
    sources = [path.read_text() for path in sorted(SOURCE.glob("*.py"))]
    assert unread_private_definitions(sources) == []
