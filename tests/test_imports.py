import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import gptkit
from gptkit.cones import ConeRep

PACKAGE = Path(gptkit.__file__).parent
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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


def imports_numpy(source: str) -> bool:
    """Whether a module imports numpy or one of its submodules."""
    tree = ast.parse(source)
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    return any(name.partition(".")[0] == "numpy" for name in names)


def test_numpy_imports_are_found():
    assert imports_numpy("import numpy as np\n")
    assert imports_numpy("from numpy.linalg import eigvalsh\n")
    assert not imports_numpy("import numbers\nfrom .numpy_free import x\n")


def test_numpy_only_where_it_is_still_used():
    # the S-lemma's eigvalsh and the bit-commitment Philox stream; each
    # is to be replaced by exact or stdlib code, not joined by others
    found = {str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
             if imports_numpy(path.read_text())}
    assert found == {"cones.py", "protocols/bitcommit.py"}


def unread_parameters(source: str) -> list[str]:
    """Function parameters the body never reads (`self` and `cls` aside):
    a caller would have to pass a value that changes nothing."""
    tree = ast.parse(source)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = fn.args
        params = [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs
                  + [spec.vararg, spec.kwarg] if a is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [f"{fn.name}.{name} (line {fn.lineno})" for name in params
                  if name not in read and name not in ("self", "cls")]
    return found


def test_unread_parameters_are_found():
    source = ("def f(self, a, b=1, *args, c, **kw):\n    return a + c\n"
              "def g(cls, x):\n    def h(y):\n        return x\n"
              "    x = 1\n")
    assert unread_parameters(source) == [
        "f.b (line 1)", "f.args (line 1)", "f.kw (line 1)", "h.y (line 4)"]


def test_no_unread_parameters():
    found = {str(path.relative_to(PACKAGE)): unread_parameters(
        path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {}


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


def zero_started_sums(source: str) -> list[str]:
    """Hand-written `Fraction` dots, `sum(..., ZERO)`: exact pairings go
    through `linalg.dot`."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"
             and any(isinstance(start, ast.Name) and start.id == "ZERO"
                     for start in node.args[1:] + [
                         k.value for k in node.keywords if k.arg == "start"])}
    return [f"line {line}" for line in sorted(lines)]


def test_zero_started_sums_are_found():
    source = ("ok = sum(xs) + sum(map(mul, a, b)) + np.sum(x, ZERO)\n"
              "bad = sum((h * h for h in head), ZERO)\n"
              "worse = [sum(row, start=ZERO) for row in m]\n")
    assert zero_started_sums(source) == ["line 2", "line 3"]


def test_no_zero_started_sums():
    found = {str(path.relative_to(PACKAGE)): zero_started_sums(
        path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "linalg.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}


def gcd_uses(source: str) -> list[str]:
    """Lines that import, name or call `gcd` or `lcm`: a row is made
    primitive by linalg._primitive or linalg._combine, and a vector's
    denominators are cleared by linalg.integer_row, so only linalg reads
    them."""
    names = ("gcd", "lcm")
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.alias) and node.name in names
             or isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.Attribute) and node.attr in names}
    return [f"line {line}" for line in sorted(lines)]


def test_gcd_uses_are_found():
    source = ('ok = "gcd" and _primitive(row)  # gcd\n'
              "from math import gcd, lcm\n"
              "g = math.gcd(*row) or gcd(a, b)\n"
              'ok = "lcm" and integer_row(v)  # lcm\n'
              "from math import lcm\n"
              "d = math.lcm(*dens) or lcm(a, b)\n")
    assert gcd_uses(source) == ["line 2", "line 3", "line 5", "line 6"]


def test_gcd_only_in_linalg():
    found = {str(path.relative_to(PACKAGE)) for path in PACKAGE.rglob("*.py")
             if gcd_uses(path.read_text())}
    assert found == {"linalg.py"}


CONE_SLOTS = ("_generators", "_facets", "_rows", "_dual")


def cone_slot_reads(source: str) -> list[str]:
    """Attribute reads or writes of a ConeRep private slot: a side and
    its rows are reached through the accessors, which keep both views
    of a cone in step."""
    tree = ast.parse(source)
    lines = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in CONE_SLOTS}
    return [f"line {line}" for line in sorted(lines)]


def test_cone_slot_reads_are_found():
    source = ("ok = cone.facet_rows() + _dual(x) + cone.generators\n"
              "bad = cone._facets or space.cone._rows\n"
              "worse = [c._dual for c in cones]\n"
              "worst = f(cone._generators, x.facets, y.generator_rows())\n")
    assert cone_slot_reads(source) == ["line 2", "line 3", "line 4"]


def test_cone_slots_only_in_cones():
    found = {str(path.relative_to(PACKAGE)): cone_slot_reads(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.name != "cones.py"}
    assert {path: lines for path, lines in found.items() if lines} == {}


def side_reads_in_loops(source: str) -> list[str]:
    """Reads of `.generators` or `.facets` that run once per pass of a
    loop or a comprehension: each read makes the side's Fractions anew,
    so a side is read once, before the loop. A comprehension's outermost
    iterable, and a `for` loop's iterable, are read once."""
    tree = ast.parse(source)
    repeated = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            repeated += node.body
        elif isinstance(node, ast.While):
            repeated += [node.test] + node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            first, *rest = node.generators
            repeated += [first.target, *first.ifs, *rest]
            repeated += [node.key, node.value] \
                if isinstance(node, ast.DictComp) else [node.elt]
    lines = {inner.lineno for part in repeated for inner in ast.walk(part)
             if isinstance(inner, ast.Attribute)
             and inner.attr in ("generators", "facets")
             and isinstance(inner.ctx, ast.Load)}
    return [f"line {line}" for line in sorted(lines)]


def test_side_reads_in_loops_are_found():
    source = ("ok = [f(g, y) for g in x.cone.generators for y in ys]\n"
              "for g in a.generators:\n"
              "    print(g)\n"
              "else:\n"
              "    b.facets\n"
              "pairs = [(g, h) for g in a.generators for h in b.generators]\n"
              "for f in fs:\n"
              "    total += len(c.cone.facets)\n"
              "while cone.facets:\n"
              "    pass\n"
              "d = {k: a.facets for k in ks}\n"
              "e = any(g in a.generators for g in xs if g)\n"
              "f = [g for g in xs if g in b.facets]\n")
    assert side_reads_in_loops(source) == [
        "line 6", "line 8", "line 9", "line 11", "line 12", "line 13"]


def test_no_side_reads_in_loops():
    found = {str(path.relative_to(PACKAGE)): side_reads_in_loops(
        path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: lines for path, lines in found.items() if lines} == {}


KERNEL_ARITHMETIC = ("Fraction", "lex_key")


def kernel_fraction_uses(source: str, name: str) -> list[str]:
    """Lines in the body of function `name` that name `Fraction` or
    `lex_key` or read `.numerator`: the double description kernel steps
    on integer rows with +, *, a sign and one normalisation hook
    (canonical_ray), and converts nothing. Its docstring is no code."""
    tree = ast.parse(source)
    lines = {node.lineno for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name == name
             for node in ast.walk(fn)
             if isinstance(node, ast.Name) and node.id in KERNEL_ARITHMETIC
             or isinstance(node, ast.Attribute) and node.attr == "numerator"}
    return [f"line {line}" for line in sorted(lines)]


def test_kernel_fraction_uses_are_found():
    source = ('def enumerate_rays(hs):\n    """No Fraction, no lex_key."""\n'
              "    h = tuple(x.numerator for x in hs[0])\n"
              "    key = lex_key(h)\n"
              "    return [Fraction(x) for x in h]\n"
              "def other(v):\n    return Fraction(v.numerator)\n")
    assert kernel_fraction_uses(source, "enumerate_rays") == [
        "line 3", "line 4", "line 5"]


def test_enumerate_rays_makes_no_fraction():
    source = (PACKAGE / "cones.py").read_text()
    assert kernel_fraction_uses(source, "enumerate_rays") == []


# _meets's parameters and loop names that may hold a Fraction or a float
MEETS_SCALARS = ("xscale", "scale", "tol")


def scalar_operands(source: str, name: str) -> list[str]:
    """Lines in the body of function `name` where one of MEETS_SCALARS is
    an operand of arithmetic or a comparison: those values are read
    only as integer ratios (a call), so every sum, product and sign test
    runs on ints."""
    tree = ast.parse(source)
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name != name:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.UnaryOp):
                operands = [node.operand]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.AugAssign):
                operands = [node.target, node.value]
            else:
                continue
            if any(isinstance(op, ast.Name) and op.id in MEETS_SCALARS
                   for op in operands):
                lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_scalar_operands_are_found():
    source = ("def _meets(rows, xs, xscale, tol):\n"
              "    free = tol >= 0\n"
              "    c, d = xscale\n"
              "    for row, scale in rows:\n"
              "        if scale * xscale * s >= -tol and -scale:\n"
              "            e = f(tol) + c * d\n"
              "def other(tol):\n    return tol >= 0\n")
    assert scalar_operands(source, "_meets") == ["line 2", "line 5"]


def test_meets_makes_no_fraction():
    # membership and positivity test each facet row on ints: the scales
    # and tol are read as integer ratios, and no Fraction is made
    source = (PACKAGE / "cones.py").read_text()
    assert kernel_fraction_uses(source, "_meets") == []
    assert scalar_operands(source, "_meets") == []


def scale_bindings(source: str, name: str) -> list[str]:
    """Lines in the body of function `name` where a `for` (a statement or
    a comprehension) unpacks a pair whose second name is not `_`: a
    side's (row, scale) pair binds its scale to `_`, so a verdict reads
    the row's direction only."""
    tree = ast.parse(source)
    lines = {node.target.lineno for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and fn.name == name
             for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.comprehension))
             and isinstance(node.target, ast.Tuple)
             and len(node.target.elts) == 2
             and not (isinstance(node.target.elts[1], ast.Name)
                      and node.target.elts[1].id == "_")}
    return [f"line {line}" for line in sorted(lines)]


def test_scale_bindings_are_found():
    source = ("def maps_into(rows, gens):\n"
              "    for row, _ in rows:\n"
              "        pass\n"
              "    for gs, gscale in gens:\n"
              "        pass\n"
              "    return all(s > 0 for _, s in rows)\n"
              "def other(rows):\n    return [s for _, s in rows]\n")
    assert scale_bindings(source, "maps_into") == ["line 4", "line 6"]


def test_kernels_read_no_row_scale():
    # membership and positivity read each facet and generator row as a
    # direction: the scale of a held row is never bound to a name
    source = (PACKAGE / "cones.py").read_text()
    for name in ("_meets", "maps_into"):
        assert scale_bindings(source, name) == [], name


def load_tracing() -> ModuleType:
    """bench/tracing.py run in a module of its own: kept out of
    sys.modules, and no bytecode is written beside it."""
    module = ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_traced_functions_exist():
    # The benchmark's tracer wraps these by name; renaming or deleting
    # one would silently drop its per-layer metrics.
    tracing = load_tracing()
    missing = []
    for module_name, attr, _ in tracing.FUNCTIONS:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        target = vars(owner).get(name) if owner is not None else None
        if not inspect.isfunction(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
    # the lazy-side counters read these slots behind the properties
    assert ConeRep.__slots__ == ("dim", "kind", "arithmetic", "_generators",
                                 "_facets", "_dual", "_factors")
    for side in ("generators", "facets"):
        assert f"_{side}" in ConeRep.__slots__
        assert isinstance(vars(ConeRep)[side], property)
