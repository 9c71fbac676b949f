"""Self-test of the benchmark's tracer, counters and workload seeding.

    python3 bench/selftest.py

On one round of every workload it checks that

- the tracer rebinds names imported into other modules, and restores them;
- each layer has calls on its home workload, and the LP layer has none on
  tensor-enum and bilinear-checks;
- traced and untraced passes give identical output digests;
- two traced passes with the same seed give identical counts (calls and
  counters), and another seed draws other jobs;
- BENCHMARK.json names exactly the metrics that run.py and tracing.py print.

Exits 1 and lists what failed; takes about a minute on two cores.
"""

from __future__ import annotations

import json
import sys

import run
import tracing

SEED = 7

# Layer functions (and counters) that must be nonzero on each workload.
HOME = {
    "tensor-enum": (
        "cones.enumerate_rays.calls", "cones.independent_subset.calls",
        "cones.rays_out", "cones.halfspaces_in", "cones.lazy_misses",
        "linalg.dot.calls", "linalg.canonical_ray.calls", "linalg.rref.calls",
        "linalg.rank.calls", "linalg.inverse.calls",
        "composites.min_tensor.calls", "composites.max_tensor.calls"),
    "bilinear-checks": (
        "composites.check_distributive_inclusion.calls",
        "composites.is_composite.calls", "composites.product_vec.calls",
        "cones.ConeRep.contains.calls", "cones.lazy_hits",
        "linalg.dot.calls", "linalg.matvec.calls"),
    "cli-protocols": (
        "lp.solve_lp.calls", "lp.feasible_point.calls", "lp.solve_lp.cells",
        "lp.solve_lp.infeasible", "lp.max_coeff_bits",
        "linalg.matmul.calls", "linalg.nullspace.calls",
        "composites.effect_on_min.calls",
        "spaces.is_positive_map.calls", "spaces.is_order_isomorphism.calls",
        "spaces.one_shot_distinguishing_observable.calls",
        "models.parse_model_name.calls",
        "protocols.construct_deterministic_teleportation.calls",
        "protocols.verify_teleportation.calls",
        "protocols.find_double_decomposition.calls",
        "protocols.exposing_effect.calls", "protocols.bc_cheat_bound.calls",
        "protocols.bc_cheat_curve.calls", "protocols.is_broadcastable.calls",
        "protocols.nondisturbing_basis.calls", "cli.main.calls",
        "cli.report_bytes"),
}
NO_LP = ("tensor-enum", "bilinear-checks")

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def traced_pass(workload, jobs):
    tracer = tracing.Tracer()
    done = run.Pass()
    with tracer.installed():
        for index, job in enumerate(jobs):
            tracer.job = index
            done.run_job(workload, index, job, check=False)
    return done, tracer


def check_binding() -> None:
    import gptkit.cli
    import gptkit.lp
    import gptkit.protocols.bitcommit
    import gptkit.spaces
    solve_lp = gptkit.lp.solve_lp
    feasible_point = gptkit.lp.feasible_point
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = gptkit.lp.solve_lp
        expect(wrapped is not solve_lp, "lp.solve_lp was not wrapped")
        for module, attr in ((gptkit.spaces, "solve_lp"),
                             (gptkit.protocols.bitcommit, "solve_lp")):
            expect(getattr(module, attr) is wrapped,
                   f"{module.__name__}.{attr} still bound to the original")
        expect(gptkit.cli.feasible_point is gptkit.lp.feasible_point
               and gptkit.cli.feasible_point is not feasible_point,
               "gptkit.cli.feasible_point still bound to the original")
    expect(gptkit.spaces.solve_lp is solve_lp
           and gptkit.protocols.bitcommit.solve_lp is solve_lp
           and gptkit.cli.feasible_point is feasible_point,
           "uninstall did not restore the original bindings")


def check_workload(workloads, name: str) -> None:
    cls = workloads.WORKLOADS[name]
    run.OUT.mkdir(exist_ok=True)
    workload = cls(SEED, run.OUT)
    jobs = workload.make_round()
    plain = run.Pass()
    for index, job in enumerate(jobs):
        plain.run_job(workload, index, job)
    expect(not plain.failed, f"{name}: untraced jobs failed: {plain.failed}")

    first, tracer = traced_pass(workload, jobs)
    expect(first.digests == plain.digests,
           f"{name}: traced outputs differ from untraced outputs")
    counts = tracer.counts()
    for metric in HOME[name]:
        expect(counts.get(metric, 0) > 0, f"{name}: {metric} is 0")
    if name in NO_LP:
        expect(counts.get("lp.solve_lp.calls", 0) == 0,
               f"{name}: lp.solve_lp was called")

    again = cls(SEED, run.OUT)
    same_jobs = again.make_round()
    expect(same_jobs == jobs, f"{name}: same seed drew other jobs")
    _, repeat = traced_pass(again, same_jobs)
    expect(repeat.counts() == counts,
           f"{name}: counts differ between two traced passes of one seed")
    expect(cls(SEED + 1, run.OUT).make_round() != jobs,
           f"{name}: another seed drew the same jobs")
    workload.close()


def check_benchmark_json(workloads) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect(e2e == list(run.E2E_METRICS),
           "BENCHMARK.json end_to_end differs from run.E2E_METRICS")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layers == tracing.per_layer_metrics(),
           "BENCHMARK.json per_layer differs from tracing.per_layer_metrics()")
    expect([(w["name"], w["why"]) for w in spec["workloads"]]
           == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main() -> int:
    workloads = run._import_workloads()
    check_binding()
    check_benchmark_json(workloads)
    for name in workloads.WORKLOADS:
        check_workload(workloads, name)
        print(f"{name}: checked", flush=True)
    for message in failures:
        print(f"FAIL {message}")
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
