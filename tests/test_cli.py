import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gptkit
import gptkit.cli
from gptkit.cli import _build_parser, _equals_min, main
from gptkit.composites import max_tensor, min_tensor
from gptkit.cones import ConeRep
from gptkit.linalg import rank, vec
from gptkit.lp import feasible_point
from gptkit.models import parse_model_name
from gptkit.protocols import bc_cheat_bound, find_double_decomposition
from gptkit.scalars import tolerance_for
from gptkit.spaces import StateSpace


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def test_tensor_classical_collapse(tmp_path):
    code, body = run(tmp_path, "tensor", "--max", "classical:2", "classical:2",
                     "--check-equals-min")
    assert code == 0
    report = json.loads(body)
    assert report["equals_min"] is True
    assert report["model_a"]["generators"]  # full model embedded


def test_tensor_squit_does_not_collapse(tmp_path):
    code, body = run(tmp_path, "tensor", "--max", "squit", "squit",
                     "--check-equals-min")
    assert code == 2
    assert json.loads(body)["equals_min"] is False


def test_tensor_min_lists_products(tmp_path):
    code, body = run(tmp_path, "tensor", "--min", "squit", "classical:2")
    assert code == 0
    assert len(json.loads(body)["generators"]) == 8


def test_clone_exit_codes(tmp_path):
    code, body = run(tmp_path, "clone", "check", "--model", "squit",
                     "--states", "0,2")
    assert code == 0
    report = json.loads(body)
    assert report["clonable"] is True
    assert report["cloner"] is not None
    code, body = run(tmp_path, "clone", "check", "--model", "squit",
                     "--states", "0,1,2")
    assert code == 2
    assert json.loads(body)["observable"] is None


def test_broadcast_exit_codes(tmp_path):
    code, body = run(tmp_path, "broadcast", "check", "--model", "squit",
                     "--states", "0,2")
    assert code == 0
    assert json.loads(body)["status"] == "broadcastable"
    code, body = run(tmp_path, "broadcast", "check", "--model", "squit",
                     "--states", "0,1,2")
    assert code == 2


def test_disturb_basis(tmp_path):
    code, body = run(tmp_path, "disturb", "basis", "--model", "classical:3")
    assert code == 0
    report = json.loads(body)
    assert report["summands"] == 3
    assert len(report["basis"]) == 3


def test_teleport_construct_and_verify_round_trip(tmp_path):
    code, body = run(tmp_path, "teleport", "construct", "--model", "squit",
                     "--group", "z4")
    assert code == 0
    report = json.loads(body)
    assert len(report["certificates"]) == 4
    assert report["constant"] == "1/4"
    effect = tmp_path / "effect.json"
    omega = tmp_path / "omega.json"
    effect.write_text(json.dumps(report["effects"][2]))
    omega.write_text(json.dumps(report["omega"]))
    code, body = run(tmp_path, "teleport", "verify", "--effect", str(effect),
                     "--omega", str(omega))
    assert code == 0
    verified = json.loads(body)
    assert verified["certificate"]["verdict"] is True
    # the systems are the shared state's factors
    assert verified["model_a"] == verified["model_b"] == report["model"]


def test_teleport_group_mismatch_is_an_error(tmp_path, monkeypatch, capsys):
    # --group is checked against the model's group before any scheme is
    # built, so the construction never runs on a refused label.
    def unreachable(*args, **kwargs):
        raise AssertionError("construction ran")
    monkeypatch.setattr(gptkit.cli, "construct_deterministic_teleportation",
                        unreachable)
    code, body = run(tmp_path, "teleport", "construct", "--model", "squit",
                     "--group", "z5")
    assert (code, body) == (1, b"")
    assert capsys.readouterr().err == (
        "gpt-kit: InvalidInput: model symmetry group is cyclic of order 4; "
        "got 'z5'\n")


@pytest.mark.parametrize("value", ["0", "1,1,1", "a,b", ""])
def test_tamper_is_parsed_before_the_search(tmp_path, monkeypatch, capsys,
                                            value):
    def unreachable(*args, **kwargs):
        raise AssertionError("search ran")
    monkeypatch.setattr(gptkit.cli, "find_double_decomposition", unreachable)
    out = tmp_path / "out.json"
    assert exit_code(["bitcommit", "run", "--model", "squit", "--tamper",
                      value, "--out", str(out)]) == 1
    assert not out.exists()
    assert "argument --tamper" in capsys.readouterr().err


def test_bitcommit_pipeline(tmp_path):
    code, body = run(tmp_path, "bitcommit", "decompose", "--model", "squit")
    assert code == 0
    report = json.loads(body)
    assert report["omega"] == [0, 0, 1]
    code, body = run(tmp_path, "bitcommit", "run", "--model", "squit",
                     "--bit", "1", "--n", "6", "--seed", "9")
    assert code == 0
    assert json.loads(body)["verdict"] == "accept"
    code, body = run(tmp_path, "bitcommit", "bound", "--model", "squit",
                     "--n", "20")
    assert code == 0
    report = json.loads(body)
    assert report["per_round"] == "3/4"
    assert report["overall"] == "3486784401/1099511627776"


def test_bitcommit_tampered_run_rejects(tmp_path):
    code, body = run(tmp_path, "bitcommit", "run", "--model", "squit",
                     "--bit", "0", "--n", "5", "--seed", "42")
    samples = json.loads(body)["samples"]
    wrong = str(1 - int(samples[0]))
    code, body = run(tmp_path, "bitcommit", "run", "--model", "squit",
                     "--bit", "0", "--n", "5", "--seed", "42",
                     "--tamper", "0," + wrong)
    assert code == 2
    assert json.loads(body)["verdict"] == "reject"


def test_bitcommit_curve_csv(tmp_path):
    code, body = run(tmp_path, "bitcommit", "bound", "--model", "squit",
                     "--n", "3", "--format", "csv", "--trials", "200",
                     "--seed", "4", name="curve.csv")
    assert code == 0
    lines = body.decode().strip().splitlines()
    assert lines[0] == "n,analytic_bound,empirical_rate,stderr"
    assert len(lines) == 4
    assert lines[1].startswith("1,3/4,")


def test_csv_rejected_elsewhere(tmp_path):
    code, _ = run(tmp_path, "clone", "check", "--model", "squit",
                  "--states", "0,2", "--format", "csv")
    assert code == 1
    for action in ("run", "decompose"):
        code, body = run(tmp_path, "bitcommit", action, "--model", "squit",
                         "--format", "csv")
        assert (code, body) == (1, b"")


INFINITE_STATE = ('{"A": "squit", "B": "squit", "tensor": "max", '
                  '"coords": [[Infinity, 0, 0], [0, 0, 0], [0, 0, 1]]}')


@pytest.mark.parametrize("argv", [
    ["clone", "check", "--model", "squit", "--states", "0,2", "--tol", "inf"],
    ["clone", "check", "--model", "squit", "--states", "0,2", "--tol", "1/0"],
    ["tensor", "--min", "squit", "squit", "--tol", "-1"],
    ["bitcommit", "bound", "--model", "squit", "--tol", "nan"],
    ["marginal", "--state", INFINITE_STATE],
], ids=["tol-inf", "tol-1/0", "tol-negative", "tol-nan", "json-infinity"])
def test_bad_numbers_are_input_errors(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("gpt-kit: InvalidInput: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, fits", [
    (["run", "--n", "100000000000"], "at most 1000000 rounds fit"),
    (["bound", "--n", "20000"], "at most 7142 rounds fit"),
    (["bound", "--n", "20000", "--format", "csv"], "at most 7142 rounds fit"),
    (["bound", "--n", "7143"], "at most 7142 rounds fit"),
], ids=["run", "bound", "bound-csv", "bound-one-over"])
def test_too_many_rounds_are_input_errors(tmp_path, argv, fits, capsys):
    # A run report lists every committed state; the exact bound (3/4)**n
    # on squit is written with at most 4300 digits.
    code, body = run(tmp_path, "bitcommit", argv[0], "--model", "squit",
                     *argv[1:])
    assert (code, body) == (1, b"")
    out, err = capsys.readouterr()
    assert err.startswith(f"gpt-kit: InvalidInput: --n {argv[2]}: ")
    assert fits in err and len(err.splitlines()) == 1
    code, body = run(tmp_path, "bitcommit", "bound", "--model", "squit",
                     "--n", "7142")
    assert code == 0 and json.loads(body)["overall"] == f"{3 ** 7142}/{4 ** 7142}"


def test_float_bound_writes_an_underflowing_power_without_forming_it(
        tmp_path, monkeypatch):
    # polygon:14's per-round bound has a 261-bit denominator and is about
    # 0.975: its 300000th power is below 2**-1075, so float() of it is 0.0
    c = bc_cheat_bound(find_double_decomposition(
        parse_model_name("polygon:14"))).per_round
    power = Fraction.__pow__

    def bounded(base, exponent, *rest):
        assert exponent <= 20000, "an underflowing power was formed"
        return power(base, exponent, *rest)
    monkeypatch.setattr(Fraction, "__pow__", bounded)
    for n, overall in (("300000", 0.0), ("20000", float(power(c, 20000)))):
        code, body = run(tmp_path, "bitcommit", "bound", "--model",
                         "polygon:14", "--n", n)
        report = json.loads(body)
        assert code == 0 and report["overall"] == overall
    assert overall > 0  # 20000 rounds stay above the underflow


def test_csv_bound_forms_each_power_from_the_previous_one(
        tmp_path, monkeypatch):
    # row n's analytic bound is row n - 1's times per_round: no power is
    # formed from scratch, and the rows are c**n all the same
    c = bc_cheat_bound(find_double_decomposition(
        parse_model_name("polygon:5"))).per_round
    power = Fraction.__pow__

    def refused(base, exponent, *rest):
        raise AssertionError(f"a power c**{exponent} was formed")
    monkeypatch.setattr(Fraction, "__pow__", refused)
    code, body = run(tmp_path, "bitcommit", "bound", "--model", "polygon:5",
                     "--n", "400", "--format", "csv", "--trials", "3",
                     name="out.csv")
    monkeypatch.undo()
    rows = [line.split(",") for line in body.decode().splitlines()[1:]]
    assert code == 0 and [int(n) for n, *_ in rows] == list(range(1, 401))
    assert [float(analytic) for _, analytic, *_ in rows] == \
        [float(power(c, n)) for n in range(1, 401)]


def test_simplicial_decompose_is_an_error(tmp_path):
    code, _ = run(tmp_path, "bitcommit", "decompose", "--model",
                  "classical:3")
    assert code == 1


def test_unknown_model_is_an_error(tmp_path):
    code, _ = run(tmp_path, "clone", "check", "--model", "heptagon",
                  "--states", "0")
    assert code == 1


def test_bad_usage_exits_one():
    with pytest.raises(SystemExit) as info:
        main(["tensor", "--min", "squit"])  # missing the second model
    assert info.value.code == 1


def test_one_parser_serves_every_call_after_a_usage_error(tmp_path):
    """Exit codes and report bytes in one process, after a usage error and
    an input error, equal those of a fresh process per argv."""
    argvs = (
        ("tensor", "--min", "squit", "classical:2"),
        ("tensor", "--max", "squit", "squit", "--check-equals-min"),
        ("clone", "check", "--model", "squit", "--states", "0,1,2"),
        ("bitcommit", "run", "--model", "squit", "--n", "3", "--seed", "5"),
    )
    with pytest.raises(SystemExit):
        main(["teleport", "construct"])  # parser.error: needs --model
    assert main(["tensor", "--min", "squit", "squit", "--tol", "-1"]) == 1
    env = dict(os.environ,
               PYTHONPATH=str(Path(gptkit.__file__).resolve().parents[1]))
    for k, argv in enumerate(argvs):
        code, body = run(tmp_path, *argv, name=f"in{k}")
        fresh = tmp_path / f"fresh{k}"
        done = subprocess.run(
            [sys.executable, "-m", "gptkit.cli", *argv, "--out", str(fresh)],
            env=env, capture_output=True)
        assert (code, body) == (done.returncode, fresh.read_bytes()), argv
    assert _build_parser() is _build_parser()


def test_reports_are_byte_identical(tmp_path):
    pipelines = (
        ("teleport", "construct", "--model", "squit"),
        ("bitcommit", "run", "--model", "squit", "--bit", "0", "--n", "12",
         "--seed", "31415"),
        ("bitcommit", "bound", "--model", "squit", "--n", "6",
         "--format", "csv", "--trials", "300", "--seed", "2718"),
        ("broadcast", "check", "--model", "squit", "--states", "0,2"),
        ("tensor", "--max", "classical:2", "classical:3"),
    )
    for k, argv in enumerate(pipelines):
        _, first = run(tmp_path, *argv, name=f"a{k}")
        _, second = run(tmp_path, *argv, name=f"b{k}")
        assert first == second and first, argv


def test_marginal_and_conditional(tmp_path):
    _, body = run(tmp_path, "teleport", "construct", "--model", "squit")
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps(json.loads(body)["omega"]))
    code, body = run(tmp_path, "marginal", "--state", str(omega),
                     "--side", "b")
    assert code == 0
    assert json.loads(body)["result"] == [0, 0, 1]
    code, body = run(tmp_path, "conditional", "--state", str(omega),
                     "--effect", '["1/4", "1/4", "1/2"]', "--side", "a")
    assert code == 0
    assert json.loads(body)["result"] == [0, 1, 1]


@pytest.mark.parametrize("model", ["polygon:3", "polygon:5", "squit"])
def test_report_model_block_loads_back(tmp_path, model):
    # A report's model block, put in as a factor of its own shared state,
    # is read back; float models leave out their computed facets.
    _, body = run(tmp_path, "teleport", "construct", "--model", model)
    report = json.loads(body)
    assert ("facets" in report["model"]) == (model == "squit")
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps({**report["omega"], "A": report["model"]}))
    code, body = run(tmp_path, "marginal", "--state", str(omega),
                     "--side", "a", name="marginal.json")
    assert code == 0
    assert json.loads(body)["model"] == report["model"]


def exit_code(argv) -> int:
    """main's exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


NOT_A_STATE = ('{"A": "squit", "B": "squit", "tensor": "max", '
               '"coords": [[5, 0, 0], [0, 0, 0], [0, 0, 3]]}')


@pytest.mark.parametrize("argv", [
    ["marginal", "--state", NOT_A_STATE],
    ["conditional", "--state", NOT_A_STATE, "--effect", "[0, 0, 1]"],
], ids=["marginal", "conditional"])
def test_state_payload_is_checked_where_it_enters(tmp_path, argv, capsys):
    # u (x) u gives 3 on these coords, and the product facet
    # (1,0,1) (x) (-1,0,1) gives -2.
    code, body = run(tmp_path, *argv)
    assert (code, body) == (1, b"")
    assert capsys.readouterr().err.startswith("gpt-kit: InvalidInput: ")


@pytest.mark.parametrize("name", [5, True, ["a"]], ids=repr)
def test_factor_payload_name_must_be_a_string(tmp_path, name, capsys):
    factor = {"dim": 2, "kind": "polyhedral", "unit": [1, 1],
              "generators": [[1, 0], [0, 1]], "name": name}
    state = json.dumps({"A": factor, "B": "classical:2", "tensor": "max",
                        "coords": [[0.25, 0.25], [0.25, 0.25]]})
    code, body = run(tmp_path, "marginal", "--state", state)
    assert (code, body) == (1, b"")
    assert capsys.readouterr().err.startswith(
        f"gpt-kit: InvalidInput: payload name {name!r} is not a string")


def above_cap_state(first_row) -> str:
    """A classical:4 (x)min classical:5 payload (dim 20, above the cap)."""
    rows = [first_row] + [["1/20"] * 5] * 3
    return json.dumps({"A": "classical:4", "B": "classical:5",
                       "tensor": "min", "coords": rows})


UNIFORM = above_cap_state(["1/20"] * 5)
TILTED = above_cap_state(["-1/20", "3/20", "1/20", "1/20", "1/20"])


def test_above_cap_state_payloads_are_answered(tmp_path, capsys):
    code, body = run(tmp_path, "marginal", "--state", UNIFORM, "--side", "a")
    assert code == 0
    assert json.loads(body)["result"] == ["1/4"] * 4
    code, body = run(tmp_path, "conditional", "--state", UNIFORM,
                     "--effect", "[1, 0, 0, 0]", "--side", "a")
    assert code == 0
    assert json.loads(body)["result"] == ["1/5"] * 5
    for argv in (["marginal", "--state", TILTED],
                 ["conditional", "--state", TILTED,
                  "--effect", "[1, 0, 0, 0]"]):
        capsys.readouterr()
        assert run(tmp_path, *argv, name="no.json") == (1, b"")
        assert capsys.readouterr().err.startswith("gpt-kit: InvalidInput: ")


def test_enumeration_above_the_cap_is_still_refused(tmp_path, capsys):
    # equality with the min tensor needs the max tensor's generators
    argv = ["tensor", "--max", "classical:4", "classical:5",
            "--check-equals-min"]
    assert run(tmp_path, *argv) == (1, b"")
    assert capsys.readouterr().err.startswith("gpt-kit: DimensionCap: ")


def test_check_equals_min_without_max_builds_no_tensor(tmp_path, monkeypatch,
                                                      capsys):
    def refuse(a, b):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(gptkit.cli, "min_tensor", refuse)
    monkeypatch.setattr(gptkit.cli, "max_tensor", refuse)
    argv = ["tensor", "--min", "squit", "squit", "--check-equals-min"]
    assert run(tmp_path, *argv) == (1, b"")
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("gpt-kit: InvalidInput: "
                   "--check-equals-min requires --max\n")


def reference_equals_min(small, big, eps):
    """--check-equals-min as one feasibility LP per max-tensor generator
    on the min-tensor generators, within eps: the check before its
    product-row shortcut."""
    return all(feasible_point(small.cone.generators, g, eps)[0] is not None
               for g in big.cone.generators)


TOLS = (Fraction(0), None, Fraction(1, 1000))  # tol 0, the default, 1e-3
BUILTIN = ("classical:2", "classical:3", "classical:4", "squit", "polygon:3",
           "polygon:5", "polygon:6", "polygon:7", "polygon:8")


def _agrees_with_the_reference(a, b):
    """The verdicts at every tolerance of TOLS (each eps once), which
    must be the reference's; returned for further checks."""
    small, big = min_tensor(a, b), max_tensor(a, b)
    verdicts = {}
    for eps in {tolerance_for(tol, big) for tol in TOLS}:
        verdicts[eps] = _equals_min(small, big, eps)
        assert verdicts[eps] == reference_equals_min(small, big, eps), eps
    return verdicts


# Two float polygons of 5 to 8 vertices other than polygon:5 twice are
# left out: their max tensors take up to a second of double description
# (630 to 2440 rays), and both checks end at the first ray's LP.
@pytest.mark.parametrize("pair", [
    pair for pair in itertools.product(BUILTIN, repeat=2)
    if pair == ("polygon:5", "polygon:5")
    or not all(m in BUILTIN[5:] for m in pair)], ids="-".join)
def test_equals_min_matches_the_all_lp_check_on_builtin_pairs(pair):
    _agrees_with_the_reference(*map(parse_model_name, pair))


def lattice_cones(rng):
    """A seeded cone over a lattice polygon or 3-polytope (dim 3 or 4)
    with dim to dim + 2 listed points, unit the last coordinate."""
    d = rng.randint(3, 4)
    while True:
        points = [vec([rng.randint(-2, 2) for _ in range(d - 1)] + [1])
                  for _ in range(rng.randint(d, d + 2))]
        if rank(points) == d:
            return StateSpace(ConeRep.from_generators(points),
                              vec([0] * (d - 1) + [1]))


def test_equals_min_matches_the_all_lp_check_and_the_simplex_theorem():
    # max = min exactly when a factor is a simplex (Aubrun, Lami,
    # Palazuelos & Plavala, arXiv:1911.09663); 40 of the 60 pairs have one
    rng = random.Random(31)
    simplices = 0
    for _ in range(60):
        a, b = lattice_cones(rng), lattice_cones(rng)
        simplex = any(len(s.cone.facets) == s.dim for s in (a, b))
        simplices += simplex
        verdicts = _agrees_with_the_reference(a, b)
        assert set(verdicts.values()) == {simplex}
    assert simplices == 40


@pytest.mark.parametrize("pair, most", [
    (("classical:3", "squit"), 0), (("squit", "classical:3"), 0),
    (("squit", "squit"), 1)])
def test_equals_min_asks_the_lp_only_off_the_products(tmp_path, monkeypatch,
                                                     pair, most):
    calls = []

    def counted(*args):
        calls.append(args)
        return feasible_point(*args)
    monkeypatch.setattr(gptkit.cli, "feasible_point", counted)
    code, _ = run(tmp_path, "tensor", "--max", *pair, "--check-equals-min")
    assert code == (0 if most == 0 else 2)
    assert len(calls) <= most


def test_arithmetic_overrides_the_model_style(tmp_path):
    code, body = run(tmp_path, "clone", "check", "--model", "squit",
                     "--states", "0,2", "--arithmetic", "float")
    assert code == 0
    assert json.loads(body)["observable"][0] == [0.5, 0.0, 0.5]
    code, body = run(tmp_path, "teleport", "construct", "--model",
                     "polygon:5", "--arithmetic", "rational")
    assert code == 0
    assert json.loads(body)["constant"] == "1/5"


def test_states_json_matches_vertex_indices(tmp_path):
    _, by_index = run(tmp_path, "clone", "check", "--model", "squit",
                      "--states", "0,2", name="index.json")
    states = json.dumps(json.loads(by_index)["states"])
    code, by_json = run(tmp_path, "clone", "check", "--model", "squit",
                        "--states-json", states, name="json.json")
    assert code == 0
    assert by_json == by_index


def test_report_goes_to_stdout_without_out(tmp_path, capsys):
    argv = ["bitcommit", "run", "--model", "squit", "--n", "4", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    _, body = run(tmp_path, *argv)
    assert out.encode() == body


@pytest.fixture
def squit_outcome(tmp_path) -> dict:
    """Files of one outcome of squit's scheme, which verify accepts, by the
    tokens EFFECT and OMEGA."""
    _, body = run(tmp_path, "teleport", "construct", "--model", "squit",
                  name="scheme.json")
    scheme = json.loads(body)
    files = {}
    for token, value in (("EFFECT", scheme["effects"][0]),
                         ("OMEGA", scheme["omega"])):
        path = tmp_path / f"{token}.json"
        path.write_text(json.dumps(value))
        files[token] = str(path)
    return files


@pytest.mark.parametrize("argv", [
    ["clone", "check", "--model", "squit", "--states", "0,9"],
    ["clone", "check", "--model", "squit"],
    ["clone", "check", "--model", "squit", "--states", "0,2",
     "--states-json", "[[0, 0, 1]]"],
    ["tensor", "--min", "squit", "squit", "--check-equals-min"],
    ["teleport", "construct"],
    ["teleport", "verify", "--effect", "[[0]]"],
    # flags of another action
    *(["teleport", "construct", "--model", "squit", flag, "squit"]
      for flag in ("--model-a", "--model-b", "--effect", "--omega")),
    *(["teleport", "verify", "--effect", "EFFECT", "--omega", "OMEGA", flag,
       value] for flag, value in (("--model", "squit"), ("--group", "z4"))),
    *(["bitcommit", "decompose", "--model", "squit", flag, value]
      for flag, value in (("--bit", "1"), ("--n", "2"), ("--trials", "9"),
                          ("--tamper", "0,1"), ("--seed", "3"),
                          ("--format", "json"))),
    *(["bitcommit", "run", "--model", "squit", flag, value]
      for flag, value in (("--trials", "9"), ("--format", "json"),
                          ("--tamper", "0"), ("--tamper", "1,1,1"),
                          ("--tamper", "a,b"), ("--tamper", "1,2,3"),
                          ("--seed", "x"), ("--seed", "-1"),
                          ("--seed", str(2 ** 64)))),
    *(["bitcommit", "bound", "--model", "squit", flag, value]
      for flag, value in (("--bit", "1"), ("--tamper", "0,1"),
                          ("--seed", "x"))),
    # flags before the action
    ["bitcommit", "--model", "squit", "decompose"],
    ["teleport", "--tol", "0", "construct", "--model", "squit"],
    ["bitcommit", "--tol=0", "decompose", "--model", "squit"],
    # the shared state names both systems
    *(["teleport", "verify", flag, "squit", "--effect", "EFFECT",
       "--omega", "OMEGA"] for flag in ("--model-a", "--model-b")),
    *(["clone", "check", "--model", "squit", "--states", value]
      for value in ("a,b", ",0", "")),
    ["broadcast", "check", "--model", "squit", "--states", "0,x"],
    # a state listed twice
    ["clone", "check", "--model", "squit", "--states", "0,2,0"],
    ["broadcast", "check", "--model", "squit", "--states", "0,0"],
    ["clone", "check", "--model", "squit", "--states-json",
     "[[1, 1, 1], [1, 1, 1]]"],
])
def test_usage_errors_exit_one_and_write_nothing(tmp_path, argv, capsys,
                                                squit_outcome):
    argv = [squit_outcome.get(a, a) for a in argv]
    out = tmp_path / "out.json"
    assert exit_code(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    # argparse's wording when a type function raises ValueError
    assert not re.search(r"invalid \w+ value", captured.err)


@pytest.mark.parametrize("tail", [
    ["run", "--model", "polygon:14", "--n", "0"],
    ["run", "--model", "polygon:14", "--n", "-3"],
    ["bound", "--model", "polygon:14", "--n", "0"],
    ["bound", "--model", "polygon:14", "--format", "csv", "--trials", "0"],
], ids=["run-n-0", "run-n-negative", "bound-n-0", "csv-trials-0"])
def test_counts_are_checked_before_the_search(tmp_path, monkeypatch, capsys,
                                              tail):
    def unreachable(*args, **kwargs):
        raise AssertionError("search ran")
    monkeypatch.setattr(gptkit.cli, "find_double_decomposition", unreachable)
    out = tmp_path / "out.json"
    assert exit_code(["bitcommit", *tail, "--out", str(out)]) == 1
    assert not out.exists()
    flag, value = tail[-2:]
    assert f"argument {flag}: expected a positive integer, got {value!r}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["clone", "check", "--model", "squit", "--states-json", "[5]"],
    ["teleport", "verify", "--effect", "[1,2,3]", "--omega", "OMEGA"],
], ids=["states-json", "effect"])
def test_a_scalar_where_a_sequence_belongs_is_an_input_error(
        tmp_path, argv, capsys, squit_outcome):
    argv = [squit_outcome.get(a, a) for a in argv]
    assert run(tmp_path, *argv) == (1, b"")
    err = capsys.readouterr().err
    assert err.startswith("gpt-kit: InvalidInput: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value, form", [
    ("--states", "a,b", "comma-separated vertex indices"),
    ("--seed", "x", "an integer in [0, 2**64)"),
    ("--seed", str(2 ** 64), "an integer in [0, 2**64)"),
    ("--tamper", "1,2,3", "position,claimed-sample (two integers)"),
    ("--tamper", "0", "position,claimed-sample (two integers)"),
    ("--bit", "x", "0 or 1"),
    ("--bit", "2", "0 or 1"),
])
def test_malformed_flag_values_name_the_flag_and_its_form(flag, value, form,
                                                          capsys):
    command = ["clone", "check"] if flag == "--states" else ["bitcommit", "run"]
    argv = [*command, "--model", "squit", flag, value]
    assert exit_code(argv) == 1
    assert f"argument {flag}: expected {form}, got {value!r}" in \
        capsys.readouterr().err


def test_readme_cli_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    examples = [shlex.split(line.split("#")[0])
                for line in block.splitlines() if line.startswith("gpt-kit")]
    assert examples
    for argv in examples:
        _, unknown = _build_parser().parse_known_args(argv[1:])
        assert unknown == [], argv
