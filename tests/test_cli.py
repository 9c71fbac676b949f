import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gptkit
from gptkit.cli import _build_parser, main


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
    code, body = run(tmp_path, "teleport", "verify", "--model-a", "squit",
                     "--effect", str(effect), "--omega", str(omega))
    assert code == 0
    assert json.loads(body)["certificate"]["verdict"] is True


def test_teleport_group_mismatch_is_an_error(tmp_path):
    code, _ = run(tmp_path, "teleport", "construct", "--model", "squit",
                  "--group", "z5")
    assert code == 1


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
