"""Seeded inputs, jobs and output checks for the benchmark workloads.

A job is one library analysis or one CLI pipeline, the unit a user runs
and waits for. Every job builds its state spaces from raw vertex lists
(or, for the CLI, from argv), so lazily computed cone sides are paid
inside the job and no two jobs share a ConeRep or StateSpace.

A run is a list of rounds. Each round of a workload holds the same
classes of jobs (sizes, pipelines, models); the seed draws the concrete
inputs of each class (polygon vertices, vertex pairs, rounds, bits,
run seeds, factor order) and the order of the jobs. Keeping the classes
fixed keeps the cost profile of a run the same for every seed, while
the jobs themselves change with the seed.

Output checks never use the library code they check: halfspace and
extremality tests run on integer vectors with the elimination below.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path
from typing import NamedTuple

from gptkit import cli
from gptkit.composites import (check_distributive_inclusion, is_composite,
                               max_tensor, min_tensor)
from gptkit.cones import ConeRep
from gptkit.spaces import StateSpace


class Job(NamedTuple):
    label: str  # job class, e.g. "max 5x5" or "teleport construct"
    kind: str
    args: tuple


class Factor(NamedTuple):
    """Raw input of one state space: cone generators and order unit."""
    gens: tuple[tuple[int, ...], ...]
    unit: tuple[int, ...]
    facets: tuple[tuple[int, ...], ...]  # for output checks only


def _space(f: Factor) -> StateSpace:
    return StateSpace(ConeRep.from_generators(f.gens), f.unit)


# -- integer geometry for inputs and checks -------------------------------


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[int, int]]:
    """Strict convex hull, counter-clockwise (collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon(vertices) -> Factor:
    """Cone over a convex polygon at height 1, unit (0, 0, 1).

    Vertices are counter-clockwise; facet k is the cross product of the
    lifts of vertices k and k+1, nonnegative on the polygon.
    """
    lifts = tuple((x, y, 1) for x, y in vertices)
    facets = []
    for k, (x1, y1, _) in enumerate(lifts):
        x2, y2, _ = lifts[(k + 1) % len(lifts)]
        facets.append((y1 - y2, x2 - x1, x1 * y2 - x2 * y1))
    return Factor(lifts, (0, 0, 1), tuple(facets))


def classical(n: int) -> Factor:
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return Factor(basis, (1,) * n, basis)


SQUIT = polygon([(1, 1), (-1, 1), (-1, -1), (1, -1)])
# Affine-regular rational hexagon: exact, unlike the float polygon:6.
HEXAGON = polygon([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
HEXAGON_RAYS = 552


def random_polygon(rng: random.Random, k: int, box: int = 4) -> Factor:
    """Integer polygon with exactly k vertices in strictly convex position."""
    while True:
        hull = convex_hull([(rng.randint(-box, box), rng.randint(-box, box))
                            for _ in range(k)])
        if len(hull) == k:
            return polygon(hull)


def product(x, y) -> tuple[int, ...]:
    return tuple(a * b for a in x for b in y)


def _as_ints(v) -> tuple[int, ...] | None:
    if all(isinstance(x, int) or x.denominator == 1 for x in v):
        return tuple(int(x) for x in v)
    return None


def int_rank(rows) -> int:
    """Rank of integer vectors by fraction-free elimination."""
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][c]:
                f = work[i][c]
                row = [p[c] * a - f * b for a, b in zip(work[i], p)]
                g = math.gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        rank += 1
    return rank


def check_extreme(found, constraints, dim: int, want: int | None) -> str | None:
    """Every vector of `found` is an extreme ray of {x : <h, x> >= 0}.

    Used both ways: rays against halfspaces, and facet normals against
    the generators of the dual description.
    """
    if want is not None and len(found) != want:
        return f"expected {want} vectors, got {len(found)}"
    seen = set()
    for v in found:
        ints = _as_ints(v)
        if ints is None or len(ints) != dim:
            return "vector is not an integer vector of the right length"
        if ints in seen:
            return "duplicate vector"
        seen.add(ints)
        values = [sum(a * b for a, b in zip(h, ints)) for h in constraints]
        if min(values) < 0:
            return "vector violates a constraint"
        active = [h for h, val in zip(constraints, values) if val == 0]
        if not active or int_rank(active) != dim - 1:
            return "vector is not extreme"
    return None


# -- workloads -----------------------------------------------------------


class Workload:
    """One workload: its job plan, how to run a job, how to check it."""

    name = ""
    why = ""
    round_s = 1.0  # nominal cost of one round on the reference machine
    anchor_s = 0.0  # nominal cost of the one-off anchor round, if any

    def __init__(self, seed: int, out_dir: Path):
        self.rng = random.Random(seed)
        self.out_dir = out_dir

    def plan(self, seconds: float) -> list[list[Job]]:
        """The run's rounds, sized to take about `seconds` nominally."""
        rounds = max(1, round((seconds - self.anchor_s) / self.round_s))
        anchors = self.anchor_round()
        return ([anchors] if anchors else []) + [self.make_round()
                                                 for _ in range(rounds)]

    def anchor_round(self) -> list[Job]:
        return []

    def make_round(self) -> list[Job]:
        raise NotImplementedError

    def warmup(self) -> list[Job]:
        """Tiny jobs that load every code path once; never timed."""
        raise NotImplementedError

    def run(self, job: Job):
        """The timed part of a job."""
        raise NotImplementedError

    def finish(self, job: Job, raw):
        """The job's output, from what run() returned; not timed."""
        return raw

    def check(self, job: Job, output) -> str | None:
        """None when the output is right, else the reason it is wrong."""
        raise NotImplementedError

    def digest(self, output) -> str:
        """Digest of a job's output, for comparing traced and untraced runs."""
        return hashlib.sha256(repr(output).encode()).hexdigest()

    def close(self) -> None:
        """Remove what the run left behind."""


class TensorEnum(Workload):
    """Max-tensor generators and min-tensor facets of polygon pairs."""

    name = "tensor-enum"
    why = ("double description both ways on rational polygon pairs, "
           "4 to 552 rays, no LP")
    round_s = 2.4
    anchor_s = 9.3
    SIZES = ((3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5))

    def anchor_round(self) -> list[Job]:
        return [Job("max hexagon", "max", (HEXAGON, HEXAGON, HEXAGON_RAYS))]

    def make_round(self) -> list[Job]:
        rng = self.rng
        jobs = []
        for m, n in self.SIZES:
            for kind in ("max", "min"):
                a, b = random_polygon(rng, m), random_polygon(rng, n)
                jobs.append(Job(f"{kind} {m}x{n}", kind, (a, b, None)))
        for kind in ("max", "min"):
            jobs.append(Job(f"{kind} squit", kind, (SQUIT, SQUIT, 24)))
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            jobs.append(Job(f"{kind} classical", kind,
                            (classical(m), classical(n), m * n)))
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list[Job]:
        return [Job("warmup", kind, (classical(2), classical(2), 4))
                for kind in ("max", "min")]

    def run(self, job: Job):
        a, b, _ = job.args
        if job.kind == "max":
            return max_tensor(_space(a), _space(b)).cone.generators
        return min_tensor(_space(a), _space(b)).cone.facets

    def check(self, job: Job, output) -> str | None:
        a, b, want = job.args
        dim = len(a.unit) * len(b.unit)
        if job.kind == "max":
            constraints = [product(f, g) for f in a.facets for g in b.facets]
        else:
            constraints = [product(x, y) for x in a.gens for y in b.gens]
        return check_extreme(output, constraints, dim, want)


class BilinearChecks(Workload):
    """Distributivity of min/max composites and the composite sandwich."""

    name = "bilinear-checks"
    why = ("composite dot loops of distributivity and is_composite on small "
           "polygons, little DD, no LP")
    round_s = 4.0
    TRIPLES = ((3, 3, 3), (3, 4, 3), (4, 3, 4), (4, 4, 4))
    PAIRS = ((3, 3, "min"), (3, 3, "max"), (3, 4, "min"), (4, 3, "max"),
             (4, 4, "min"), (4, 4, "max"))

    def make_round(self) -> list[Job]:
        rng = self.rng
        jobs = []
        for sizes in self.TRIPLES:
            factors = tuple(random_polygon(rng, k) for k in sizes)
            jobs.append(Job("distributive {}x{}x{}".format(*sizes),
                            "distributive", factors))
        jobs.append(Job("distributive squit^3", "distributive",
                        (SQUIT, SQUIT, SQUIT)))
        mixed = (SQUIT, classical(2), classical(3))
        jobs.append(Job("distributive squit/classical", "distributive",
                        tuple(rng.sample(mixed, 3))))
        for m, n, rule in self.PAIRS:
            a, b = random_polygon(rng, m), random_polygon(rng, n)
            jobs.append(Job(f"is_composite {rule} {m}x{n}", rule, (a, b)))
        for rule in ("min", "max"):
            jobs.append(Job(f"is_composite {rule} squit", rule,
                            (SQUIT, SQUIT)))
        rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list[Job]:
        c2 = classical(2)
        return [Job("warmup", "distributive", (c2, c2, c2)),
                Job("warmup", "min", (c2, c2)), Job("warmup", "max", (c2, c2))]

    def run(self, job: Job):
        spaces = [_space(f) for f in job.args]
        if job.kind == "distributive":
            return check_distributive_inclusion(*spaces)
        a, b = spaces
        candidate = min_tensor(a, b) if job.kind == "min" else max_tensor(a, b)
        return is_composite(a, b, candidate)

    def check(self, job: Job, output) -> str | None:
        return None if output is True else f"verdict {output!r}, want True"


def _vertex_count(model: str) -> int:
    if model == "squit":
        return 4
    return int(model.partition(":")[2])


class CliProtocols(Workload):
    """The user-facing CLI pipelines, run in-process."""

    name = "cli-protocols"
    why = ("CLI pipelines: exact LPs (feasibility and optimizing), teleport "
           "linear algebra, rational and float models")
    round_s = 9.3
    BITCOMMIT = ("squit",) + tuple(f"polygon:{n}" for n in range(5, 15))
    STATES = ("squit", "classical:2", "classical:4", "classical:6",
              "polygon:3", "polygon:5", "polygon:6", "polygon:8",
              "polygon:10", "polygon:12", "polygon:14")
    TELEPORT = ("squit", "classical:2", "classical:3", "classical:5",
                "polygon:3", "polygon:5", "polygon:6", "polygon:8",
                "polygon:10", "polygon:12", "polygon:14")
    DISTURB = ("squit", "classical:3", "classical:6", "polygon:5",
               "polygon:8", "polygon:12")
    TENSOR = (("classical:2", "classical:2"), ("classical:2", "classical:3"),
              ("classical:3", "classical:3"), ("classical:3", "classical:4"),
              ("squit", "classical:2"), ("squit", "classical:3"),
              ("squit", "squit"), ("polygon:3", "squit"),
              ("polygon:5", "classical:2"), ("polygon:5", "classical:3"),
              ("squit", "polygon:5"))
    CSV_BOUND = ("squit", "polygon:6", "polygon:9")

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.report = out_dir / "report.out"
        self.pool = self._draw_pool()
        self.first: dict[tuple, tuple] = {}

    def _draw_pool(self) -> list[Job]:
        """One argv per (pipeline, model) slot, parameters drawn by seed.

        The pool repeats in every round, so each argv runs several times
        in a run and its report is compared with the first one.
        """
        rng = self.rng
        pool = []
        for model in self.BITCOMMIT:
            pool.append(("bitcommit", "decompose", "--model", model))
            pool.append(("bitcommit", "bound", "--model", model,
                         "--n", str(rng.randint(1, 16))))
            pool.append(("bitcommit", "run", "--model", model,
                         "--bit", str(rng.randint(0, 1)),
                         "--n", str(rng.randint(1, 24)),
                         "--seed", str(rng.randrange(2 ** 32))))
        for model in self.CSV_BOUND:
            pool.append(("bitcommit", "bound", "--model", model,
                         "--n", str(rng.randint(2, 12)), "--format", "csv",
                         "--trials", str(rng.randint(200, 2000)),
                         "--seed", str(rng.randrange(2 ** 32))))
        for model in self.STATES:
            # Pairs half-way round the polygon: the cost of a check depends
            # on how far apart the two states are, not on where they start.
            n = _vertex_count(model)
            for command in ("clone", "broadcast"):
                i = rng.randrange(n)
                pool.append((command, "check", "--model", model,
                             "--states", f"{i},{(i + n // 2) % n}"))
        for model in self.TELEPORT:
            pool.append(("teleport", "construct", "--model", model))
        for model in self.DISTURB:
            pool.append(("disturb", "basis", "--model", model))
        for pair in self.TENSOR:
            a, b = rng.sample(pair, 2)
            pool.append(("tensor", "--max", a, b, "--check-equals-min"))
        return [Job(" ".join(argv[:2]), "cli", argv) for argv in pool]

    def make_round(self) -> list[Job]:
        jobs = list(self.pool)
        self.rng.shuffle(jobs)
        return jobs

    def warmup(self) -> list[Job]:
        return [Job("warmup", "cli", argv) for argv in (
            ("tensor", "--max", "classical:2", "classical:2",
             "--check-equals-min"),
            ("teleport", "construct", "--model", "classical:2"),
            ("clone", "check", "--model", "squit", "--states", "0,2"),
            ("broadcast", "check", "--model", "squit", "--states", "0,1"),
            ("disturb", "basis", "--model", "classical:2"),
            ("bitcommit", "run", "--model", "squit", "--n", "2"),
            ("bitcommit", "bound", "--model", "squit", "--format", "csv",
             "--trials", "10"))]

    def run(self, job: Job):
        return cli.main(list(job.args) + ["--out", str(self.report)])

    def finish(self, job: Job, code) -> tuple:
        """Exit code and report digest; the report is removed."""
        if not self.report.exists():
            return code, None
        digest = hashlib.sha256(self.report.read_bytes()).hexdigest()
        self.report.unlink()
        return code, digest

    def close(self) -> None:
        if self.report.exists():
            self.report.unlink()

    def check(self, job: Job, output) -> str | None:
        code, digest = output
        if code not in (0, 2):
            return f"exit code {code}"
        if digest is None:
            return "no report written"
        first = self.first.setdefault(job.args, output)
        if first != output:
            return "report or exit code differs from the first run of argv"
        return None


WORKLOADS = {w.name: w for w in (TensorEnum, BilinearChecks, CliProtocols)}
