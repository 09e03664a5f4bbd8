"""Every name a library module imports is used there or re-exported in its __all__."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "monospan"


def unused_imports(source: str) -> list[str]:
    """Imported names that no Name node reads (an Attribute chain's base is one) and __all__ omits."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_finder():
    source = "import os\nimport numpy as np\nfrom typing import Any, Callable\nx: Callable = np.zeros\n"
    assert unused_imports(source) == ["os (line 1)", "Any (line 3)"]
    assert unused_imports("from math import pi\n__all__ = ['pi']\n") == []


def test_library_modules_have_no_unused_imports():
    paths = sorted(_SRC.glob("*.py"))
    assert len(paths) > 5
    found = {p.name: unused_imports(p.read_text()) for p in paths}
    assert {name: names for name, names in found.items() if names} == {}
