import ast
from pathlib import Path

import gptkit

PACKAGE = Path(gptkit.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (`__future__` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, pi\nprint(os.sep, pi)\n"
    assert unused_imports(source) == ["gcd (line 2)"]


def test_no_unused_imports():
    # __init__ modules import names to re-export them
    found = {str(path.relative_to(PACKAGE)): unused_imports(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "__init__.py"}
    assert {path: names for path, names in found.items() if names} == {}


def function_imports(source: str) -> list[str]:
    """Imports made inside a function body (module-level ones, in a `try`
    or not, are fine)."""
    tree = ast.parse(source)
    lines = {node.lineno for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"line {line}" for line in sorted(lines)]


def test_function_imports_are_found():
    source = ("try:\n    import numpy\nexcept ImportError:\n    numpy = None\n"
              "def f():\n    def g():\n        from os import sep\n"
              "    import math\n")
    assert function_imports(source) == ["line 7", "line 8"]


def test_no_function_imports():
    found = {str(path.relative_to(PACKAGE)): function_imports(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: lines for path, lines in found.items() if lines} == {}


def model_family_names(source: str) -> list[str]:
    """String literals that start with a model family of the name grammar,
    which only `models` reads."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith(("classical", "polygon", "ball",
                                        "squit"))}
    return [f"line {line}" for line in sorted(lines)]


def test_model_family_names_are_found():
    source = ('ok = ("polyhedral", "lorentz", "a polygon")\n'
              'bad = name == "squit" or head in ("classical", "ball")\n'
              'worse = f"polygon:{n}"\n')
    assert model_family_names(source) == ["line 2", "line 3"]


def test_model_family_names_only_in_models():
    found = {str(path.relative_to(PACKAGE)): model_family_names(
        path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "models.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}


def difference_magnitudes(source: str) -> list[str]:
    """Hand-written `abs(x - y)`: within-eps comparisons go through
    `scalars.close`."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "abs"
             and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
             and isinstance(node.args[0].op, ast.Sub)}
    return [f"line {line}" for line in sorted(lines)]


def test_difference_magnitudes_are_found():
    source = ("ok = abs(x) <= eps and abs(-x) and np.abs(x - y)\n"
              "bad = abs(x - y) <= eps\n"
              "worse = [abs(f(a) - b.c * 2) for a in xs]\n")
    assert difference_magnitudes(source) == ["line 2", "line 3"]


def test_no_difference_magnitudes():
    found = {str(path.relative_to(PACKAGE)):
             difference_magnitudes(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "scalars.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}
