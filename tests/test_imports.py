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
