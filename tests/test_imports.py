"""Every name a library module imports is used there or re-exported in its __all__, imports sit at
module level without cycles through atomic, the runtime needs no scipy, every name the
benchmark's tracer wraps exists, and every function and class is named outside its own definition."""

import ast
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
import tokenize
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


def nested_imports(source: str) -> list[str]:
    """Import statements inside a function or class body, as 'name (line)'."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [f"{scope.name} (line {node.lineno})" for node in ast.walk(scope)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def imported_modules(source: str) -> set[str]:
    """The package-relative names of the modules a source imports from or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("monospan.")
            names |= {base} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("monospan.") for alias in node.names}
    return names


def test_nested_import_finder():
    source = "import os\ndef f():\n    from .a import b\nclass C:\n    def g(self):\n        import re\n"
    assert nested_imports(source) == ["C (line 6)", "f (line 3)", "g (line 6)"]
    assert imported_modules("from .sarason import x\nfrom . import core\nimport monospan.cli\n") == {
        "sarason", "core", "cli"}


def test_library_modules_import_at_module_level():
    found = {p.name: nested_imports(p.read_text()) for p in sorted(_SRC.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {}


def test_atomic_does_not_import_sarason():
    # sarason builds on atomic (the indicator's transform is an InnerFunction), not the other way
    assert "sarason" not in imported_modules((_SRC / "atomic.py").read_text())


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter with this checkout's src first on the path."""
    path = os.pathsep.join(p for p in (str(_SRC.parent), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)


def test_cli_import_loads_neither_scipy_nor_f2py():
    r = _run_fresh("import sys, monospan.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))")
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")


def test_accept_passes_with_scipy_unimportable():
    r = _run_fresh("import sys\nsys.modules['scipy'] = None  # import scipy raises ImportError\n"
                   "from monospan import cli\nsys.exit(cli.dispatch(['accept', '--suite', 'primary']))")
    assert r.returncode == 0, r.stdout + r.stderr


def test_every_traced_name_exists():
    # perfbench/tracing.py looks up each name in TRACED in its monospan module when a traced run
    # starts, so a name deleted from monospan makes every --trace 1 run fail with AttributeError
    path = _SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.TRACED.items()
               for name in names if not hasattr(importlib.import_module(f"monospan.{module}"), name)]
    assert len(tracing.TRACED) == len(tracing.LAYERS)
    assert missing == []


def unnamed_definitions(sources: dict[str, str], readme: str) -> list[str]:
    """Functions and classes (dunder methods aside) that no source names outside their own
    definition, that no __all__ lists and that the README does not mention, as 'file:name'."""
    tokens = {}  # file -> [(name, line)] of every NAME token and every __all__ entry
    for path, source in sources.items():
        names = [(t.string, t.start[0]) for t in tokenize.generate_tokens(io.StringIO(source).readline)
                 if t.type == tokenize.NAME]
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                names += [(name, node.lineno) for name in ast.literal_eval(node.value)]
        tokens[path] = names
    readme_words = set(re.findall(r"\w+", readme))
    found = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name, lines = node.name, range(node.lineno, node.end_lineno + 1)
            if name.startswith("__") and name.endswith("__") or name in readme_words:
                continue
            if not any(n == name and (p != path or line not in lines)
                       for p, names in tokens.items() for n, line in names):
                found.append(f"{path}:{name}")
    return sorted(found)


def test_unnamed_definition_finder():
    sources = {"a.py": "def used():\n    return used()\n\ndef called():\n    pass\n\n"
                       "class C:\n    def __len__(self):\n        return 0\n\n    def method(self):\n        pass\n",
               "b.py": "from a import called\n__all__ = ['exported']\n\ndef exported():\n    pass\n\n"
                       "def documented():\n    pass\n"}
    assert unnamed_definitions(sources, "see `documented(x)`") == ["a.py:C", "a.py:method", "a.py:used"]


def test_every_definition_is_named_outside_itself():
    # library code that only tests reach is dead weight: each function or class must be called,
    # exported or documented from the package itself
    sources = {p.name: p.read_text() for p in sorted(_SRC.glob("*.py"))}
    readme = (_SRC.parent.parent / "README.md").read_text()
    assert unnamed_definitions(sources, readme) == []
