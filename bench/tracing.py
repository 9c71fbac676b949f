"""Per-layer tracing of gptkit from outside the package.

The tracer wraps the public functions of each layer named in FUNCTIONS
and records, per function, its calls, total time and self time (total
minus the time covered by traced callees). The package imports
functions by name (`from .lp import solve_lp`), so installing a wrapper
replaces the binding in every module that holds the original function
object, not only in the defining module; uninstalling puts the originals
back. The bindings are found once, so installing and uninstalling around
each job is cheap.

Spans of the coarse layers are kept in memory as (id, parent, job,
name, start, end) and written out at the end. High-frequency functions
are aggregated into calls and time only: leaves (no traced callees)
skip the span stack entirely, and the other aggregated functions keep a
stack frame so their callees' time is still attributed correctly.

Counters are taken at the same boundaries: ray and halfspace counts and
coefficient bit sizes at the double-description entry point, LP sizes
and outcomes at the simplex entry point, lazy-side hits and misses on
ConeRep.generators/facets, and report bytes after each CLI call.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LEAF = "leaf"  # no traced callees: aggregated, no stack frame
AGG = "agg"  # aggregated, keeps a stack frame for its callees
SPAN = "span"  # one recorded span per call

# (defining module, attribute, how it is recorded); metric names are
# "<layer>.<attribute>", the layer being the module's name inside gptkit
# (protocols.* modules all report as "protocols").
FUNCTIONS = (
    ("gptkit.linalg", "dot", LEAF),
    ("gptkit.linalg", "canonical_ray", LEAF),
    ("gptkit.linalg", "rref", LEAF),
    ("gptkit.linalg", "matvec", AGG),
    ("gptkit.linalg", "matmul", AGG),
    ("gptkit.linalg", "rank", AGG),
    ("gptkit.linalg", "inverse", AGG),
    ("gptkit.linalg", "nullspace", AGG),
    ("gptkit.lp", "solve_lp", SPAN),
    ("gptkit.lp", "feasible_point", SPAN),
    ("gptkit.cones", "enumerate_rays", SPAN),
    ("gptkit.cones", "independent_subset", AGG),
    ("gptkit.cones", "ConeRep.contains", AGG),
    ("gptkit.composites", "product_vec", LEAF),
    ("gptkit.composites", "min_tensor", SPAN),
    ("gptkit.composites", "max_tensor", SPAN),
    ("gptkit.composites", "is_composite", SPAN),
    ("gptkit.composites", "check_distributive_inclusion", SPAN),
    ("gptkit.composites", "effect_on_min", SPAN),
    ("gptkit.composites", "effect_on_max", SPAN),
    ("gptkit.spaces", "is_positive_map", SPAN),
    ("gptkit.spaces", "is_order_isomorphism", SPAN),
    ("gptkit.spaces", "one_shot_distinguishing_observable", SPAN),
    ("gptkit.spaces", "base_norm", SPAN),
    ("gptkit.models", "parse_model_name", SPAN),
    ("gptkit.protocols.teleport", "construct_deterministic_teleportation",
     SPAN),
    ("gptkit.protocols.teleport", "verify_teleportation", SPAN),
    ("gptkit.protocols.bitcommit", "find_double_decomposition", SPAN),
    ("gptkit.protocols.bitcommit", "exposing_effect", SPAN),
    ("gptkit.protocols.bitcommit", "bc_cheat_bound", SPAN),
    ("gptkit.protocols.bitcommit", "bc_cheat_curve", SPAN),
    ("gptkit.protocols.cloning", "is_broadcastable", SPAN),
    ("gptkit.protocols.disturbance", "nondisturbing_basis", SPAN),
    ("gptkit.cli", "main", SPAN),
)

# Metrics whose names are "<function>.calls" only (no self time).
CALLS_ONLY = {"linalg.rank", "linalg.inverse", "linalg.nullspace",
              "composites.product_vec", "cones.ConeRep.contains"}

COUNTERS = (
    ("cones.rays_out", "count"),
    ("cones.halfspaces_in", "count"),
    ("cones.max_coeff_bits", "bits"),
    ("cones.lazy_hits", "count"),
    ("cones.lazy_misses", "count"),
    ("lp.solve_lp.cells", "count"),
    ("lp.solve_lp.infeasible", "count"),
    ("lp.max_coeff_bits", "bits"),
    ("cli.report_bytes", "bytes"),
)


def metric_name(module: str, attr: str) -> str:
    layer = module.split(".")[1]
    return f"{layer}.{attr}"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for module, attr, _ in FUNCTIONS:
        name = metric_name(module, attr)
        out.append((f"{name}.calls", "count", "lower"))
        if name not in CALLS_ONLY:
            out.append((f"{name}.self_s", "s", "lower"))
    for name, unit in COUNTERS:
        better = "higher" if name == "cones.lazy_hits" else "lower"
        out.append((name, unit, better))
    out.append(("lp.solve_lp.optimal_ratio", "ratio", "higher"))
    out.append(("trace.overhead_ratio", "ratio", "higher"))
    return out


def _bits(vectors) -> int:
    """Largest numerator or denominator bit length among the entries."""
    top = 0
    for v in vectors:
        for x in v:
            top = max(top, x.numerator.bit_length(),
                      x.denominator.bit_length())
    return top


class Tracer:
    """Call/time statistics, spans and counters for one traced pass."""

    def __init__(self):
        # metric name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.job = -1  # index of the job being run; spans carry it
        self._stack: list[list] = []  # frames: [callee seconds, span id]
        self._bindings: list[tuple] | None = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, how: str, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        tracer = self

        if how == LEAF:
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt
                    if stack:
                        stack[-1][0] += dt
            return leaf

        record = how == SPAN

        def traced(*args, **kwargs):
            t_in = perf_counter()
            parent = stack[-1][1] if stack else -1
            if record:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled on exit
            else:
                span_id = parent  # callees hang off the nearest span
            frame = [0.0, span_id]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if record:
                    spans[span_id] = (span_id, parent, tracer.job, name,
                                      t0, t1)
                if ok and after is not None:
                    after(tracer, args, kwargs, result)
                # bookkeeping around the call is not the caller's work
                if stack:
                    stack[-1][0] += perf_counter() - t_in
        return traced

    def _lazy_side(self, side: str, prop):
        counters = self.counters
        slot = "_" + side
        get = prop.fget

        def fget(cone):
            if cone.kind == "polyhedral":
                hit = getattr(cone, slot) is not None
                counters["cones.lazy_hits" if hit else "cones.lazy_misses"] += 1
            return get(cone)
        return property(fget, doc=prop.__doc__)

    # -- installation ------------------------------------------------------

    def _find_bindings(self):
        """(owner, attribute, original, wrapper) for every binding to patch.

        Module-level names are found by identity in every loaded module,
        so `from .lp import solve_lp` in spaces is patched as well.
        """
        modules = [m for m in list(sys.modules.values())
                   if isinstance(getattr(m, "__dict__", None), dict)]
        for module_name, attr, how in FUNCTIONS:
            module = importlib.import_module(module_name)
            name = metric_name(module_name, attr)
            after = _AFTER.get(name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                yield cls, method, original, self._wrap(name, original, how,
                                                        after)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, how, after)
            for owner in modules:
                for binding, value in list(vars(owner).items()):
                    if value is original:
                        yield owner, binding, original, wrapper
        cone_rep = importlib.import_module("gptkit.cones").ConeRep
        for side in ("generators", "facets"):
            prop = cone_rep.__dict__[side]
            yield cone_rep, side, prop, self._lazy_side(side, prop)

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = list(self._find_bindings())
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings or ():
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, dict]:
        out = {}
        for name, unit, _ in per_layer_metrics():
            head, _, tail = name.rpartition(".")
            if tail == "calls" and head in self.stats:
                value = self.stats[head][0]
            elif tail == "self_s" and head in self.stats:
                value = self.stats[head][2]
            elif name == "lp.solve_lp.optimal_ratio":
                calls = self.stats.get("lp.solve_lp", [0])[0]
                optimal = self.counters["lp.solve_lp.optimal"]
                value = optimal / calls if calls else 0.0
            elif name == "trace.overhead_ratio":
                value = overhead_ratio
            else:
                value = self.counters[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def counts(self) -> dict[str, int]:
        """The deterministic part of the metrics: calls and counters."""
        out = {f"{name}.calls": stat[0] for name, stat in self.stats.items()}
        out.update(self.counters)
        return out

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": [
                "id", "parent", "job", "name", "start_s", "end_s"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _after_enumerate_rays(tracer, args, kwargs, rays) -> None:
    c = tracer.counters
    c["cones.halfspaces_in"] += len(args[0] if args else kwargs["halfspaces"])
    c["cones.rays_out"] += len(rays)
    c["cones.max_coeff_bits"] = max(c["cones.max_coeff_bits"], _bits(rays))


def _after_solve_lp(tracer, args, kwargs, result) -> None:
    c = tracer.counters
    objective, matrix, rhs = args[:3]
    c["lp.solve_lp.cells"] += len(matrix) * len(objective)
    if result.status == "infeasible":
        c["lp.solve_lp.infeasible"] += 1
    elif result.status == "optimal":
        c["lp.solve_lp.optimal"] += 1
    bits = _bits(matrix)
    bits = max(bits, _bits((objective, rhs)), _bits((result.x or (),)))
    c["lp.max_coeff_bits"] = max(c["lp.max_coeff_bits"], bits)


def _after_cli_main(tracer, args, kwargs, code) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            tracer.counters["cli.report_bytes"] += os.path.getsize(path)


_AFTER = {
    "cones.enumerate_rays": _after_enumerate_rays,
    "lp.solve_lp": _after_solve_lp,
    "cli.main": _after_cli_main,
}
