"""Command-line surface for the toolkit.

Verdict-style commands exit 0 on a true/accept outcome and 2 on a
false/reject outcome; every error path exits 1 with its own message.
Reports embed the full input model so they can be re-checked without
the invocation context, and identical inputs (including seeds) produce
byte-identical output. `teleport` and `bitcommit` have one parser per
action, which takes exactly the flags its handler reads, written after
the action; argparse enforces every flag rule, so the handlers do not.
`tensor --check-equals-min` runs an LP only for a max-tensor ray whose
integer row is no min generator's.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

from .composites import (BipartiteState, conditional, marginal, max_tensor,
                         min_tensor)
from .errors import InvalidInputError, ToolkitError
from .linalg import mat, vec
from .lp import feasible_point
from .models import parse_model_name, symmetry_group
from .protocols.bitcommit import (bc_cheat_bound, bc_cheat_curve, bc_run,
                                  find_double_decomposition)
from .protocols.cloning import build_cloner, is_broadcastable
from .protocols.disturbance import nondisturbing_basis
from .protocols.teleport import (construct_deterministic_teleportation,
                                 verify_teleportation)
from .scalars import FLOAT, RATIONAL, emit, merge_arithmetic, tolerance_for
from .spaces import one_shot_distinguishing_observable

OK = 0
ERROR = 1
REJECT = 2

_RUN_ROUNDS = 10 ** 6  # a run report on squit: 4.2 MB per 10**5 rounds


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 is reserved for reject verdicts."""

    def error(self, message):
        self.exit(ERROR, f"{self.prog}: error: {message}\n")


def _ints(form: str, count: int = 0, low=-math.inf, high=math.inf):
    """argparse type: count comma-separated integers in [low, high) (any
    number when count is 0; a single one is returned bare); any other
    value is refused with the flag's expected form."""
    def parse(text: str):
        try:
            values = tuple(int(token) for token in text.split(","))
            if len(values) == (count or len(values)) and \
                    all(low <= v < high for v in values):
                return values[0] if count == 1 else values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return parse


def _load_json(source: str):
    """Inline JSON when the argument looks like JSON, else a file path."""
    text = source
    if not source.lstrip().startswith(("[", "{")):
        text = Path(source).read_text()
    return json.loads(text)


def _mode_for(args, *spaces) -> str:
    if args.arithmetic is not None:
        return args.arithmetic
    return merge_arithmetic(*(s.arithmetic for s in spaces))


def _write(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(args, report: dict) -> None:
    _write(args, json.dumps(report, sort_keys=True, indent=2) + "\n")


def _states_from_args(args, space):
    if args.states is not None:
        verts = space.vertices
        for i in args.states:
            if not 0 <= i < len(verts):
                raise InvalidInputError(f"vertex index {i} out of range")
        states = tuple(verts[i] for i in args.states)
    else:
        states = tuple(vec(row) for row in _load_json(args.states_json))
    if len(set(states)) < len(states):
        raise InvalidInputError("a state is listed twice")
    return states


def _cert_payload(cert, mode) -> dict:
    body = {
        "verdict": cert.verdict,
        "constant": emit(cert.constant, mode),
        "mu": emit(cert.mu.matrix, mode),
        "duality_witness": emit(cert.duality_witness, mode),
        "correction": None,
    }
    if cert.correction is not None:
        body["correction"] = emit(cert.correction.matrix, mode)
    return body


# -- subcommand handlers ----------------------------------------------------


def _cmd_tensor(args) -> int:
    a = parse_model_name(args.model_a)
    b = parse_model_name(args.model_b)
    if args.check_equals_min and not args.max:
        raise InvalidInputError("--check-equals-min requires --max")
    mode = _mode_for(args, a, b)
    rule = "max" if args.max else "min"
    composite = max_tensor(a, b) if args.max else min_tensor(a, b)
    report = {
        "command": "tensor",
        "tensor": rule,
        "model_a": a.to_json_dict(),
        "model_b": b.to_json_dict(),
        "dim": composite.dim,
    }
    if args.max:
        report["facets"] = emit(composite.cone.facets, mode)
    else:
        report["generators"] = emit(composite.cone.generators, mode)
    status = OK
    if args.check_equals_min:
        eps = tolerance_for(args.tol, composite)
        equal = _equals_min(min_tensor(a, b), composite, eps)
        report["equals_min"] = equal
        status = OK if equal else REJECT
    _write_json(args, report)
    return status


def _equals_min(small, big, eps) -> bool:
    """Whether every generator of the max tensor big lies in the min
    tensor small. A ray with a min generator's row is a positive
    multiple of it; only the other rays go to the LP, on those rows."""
    rows = [row for row, _ in small.cone.generator_rows()]
    products = set(rows)
    rays = [g for (row, _), g in zip(big.cone.generator_rows(),
                                     big.cone.generators)
            if row not in products]
    columns = rows if rays else ()
    return all(feasible_point(columns, g, eps)[0] is not None for g in rays)


def _cmd_marginal(args) -> int:
    state = BipartiteState.from_json_dict(_load_json(args.state))
    state.validate(args.tol)
    space = state.composite.factor_a if args.side == "a" \
        else state.composite.factor_b
    mode = _mode_for(args, state.composite)
    report = {
        "command": "marginal",
        "side": args.side,
        "state": state.to_json_dict(),
        "model": space.to_json_dict(),
        "result": emit(marginal(state, args.side), mode),
    }
    _write_json(args, report)
    return OK


def _cmd_conditional(args) -> int:
    state = BipartiteState.from_json_dict(_load_json(args.state))
    state.validate(args.tol)
    effect = vec(_load_json(args.effect))
    far = state.composite.factor_b if args.side == "a" \
        else state.composite.factor_a
    mode = _mode_for(args, state.composite)
    result = conditional(state, effect, args.side, args.tol)
    report = {
        "command": "conditional",
        "side": args.side,
        "state": state.to_json_dict(),
        "effect": emit(effect, mode),
        "model": far.to_json_dict(),
        "result": emit(result, mode),
    }
    _write_json(args, report)
    return OK


def _cmd_teleport(args) -> int:
    if args.action == "construct":
        space = parse_model_name(args.model)
        group = symmetry_group(space)
        order = len(group)
        if args.group is not None and args.group.lower() not in (
                f"z{order}", f"c{order}", "cyclic"):
            raise InvalidInputError(
                f"model symmetry group is cyclic of order {order}; "
                f"got {args.group!r}")
        scheme = construct_deterministic_teleportation(space, group,
                                                       tol=args.tol)
        mode = _mode_for(args, space)
        report = {
            "command": "teleport construct",
            "model": space.to_json_dict(),
            "group": emit(scheme.group, mode),
            "omega": scheme.omega.to_json_dict(),
            "effects": emit(scheme.effects, mode),
            "constant": emit(scheme.constant, mode),
            "certificates": [_cert_payload(c, mode)
                             for c in scheme.certificates],
        }
        _write_json(args, report)
        return OK
    effect = mat(_load_json(args.effect))
    omega = BipartiteState.from_json_dict(_load_json(args.omega))
    cert = verify_teleportation(effect, omega, args.tol)
    mode = _mode_for(args, omega.composite)
    report = {
        "command": "teleport verify",
        "model_a": omega.composite.factor_b.to_json_dict(),
        "model_b": omega.composite.factor_a.to_json_dict(),
        "effect": emit(effect, mode),
        "omega": omega.to_json_dict(),
        "certificate": _cert_payload(cert, mode),
    }
    _write_json(args, report)
    return OK if cert.verdict else REJECT


def _cmd_clone(args) -> int:
    space = parse_model_name(args.model)
    states = _states_from_args(args, space)
    mode = _mode_for(args, space)
    observable = one_shot_distinguishing_observable(space, states, args.tol)
    report = {
        "command": "clone check",
        "model": space.to_json_dict(),
        "states": emit(states, mode),
        "clonable": observable is not None,
        "observable": None,
        "cloner": None,
    }
    if observable is not None:
        report["observable"] = emit([e.functional for e in observable.effects],
                                    mode)
        cloner = build_cloner(states, observable, args.tol)
        report["cloner"] = emit(cloner.matrix, mode)
    _write_json(args, report)
    return OK if observable is not None else REJECT


def _cmd_broadcast(args) -> int:
    space = parse_model_name(args.model)
    states = _states_from_args(args, space)
    mode = _mode_for(args, space)
    result = is_broadcastable(space, states, args.tol)
    report = {
        "command": "broadcast check",
        "model": space.to_json_dict(),
        "states": emit(states, mode),
        "status": result.status,
        "witness": None,
        "candidates_tried": result.candidates_tried,
    }
    if result.witness is not None:
        report["witness"] = emit(result.witness, mode)
    _write_json(args, report)
    if result.status == "inconclusive":
        raise InvalidInputError("inconclusive: no candidate simplex of up "
                                "to dim + 1 vertices is a witness")
    return OK if result.status == "broadcastable" else REJECT


def _cmd_disturb(args) -> int:
    space = parse_model_name(args.model)
    mode = _mode_for(args, space)
    basis = nondisturbing_basis(space)
    report = {
        "command": "disturb basis",
        "model": space.to_json_dict(),
        "summands": len(basis),
        "basis": emit([t.matrix for t in basis], mode),
    }
    _write_json(args, report)
    return OK


def _check_exact_power(base, n: int) -> None:
    """Refuse an --n whose exact base**n cannot be written: Python writes
    an int of at most sys.get_int_max_str_digits() digits (0, or a
    Python without the limit: any)."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    largest = max(abs(base.numerator), base.denominator)
    if not digits or largest == 1:
        return
    limit = 10 ** digits
    fits = int(digits / math.log10(largest))  # then made exact
    while largest ** (fits + 1) < limit:
        fits += 1
    while largest ** fits >= limit:
        fits -= 1
    if n > fits:
        raise InvalidInputError(
            f"--n {n}: the exact bound per_round**n would have more than "
            f"{digits} digits; at most {fits} rounds fit in rational mode")


def _power(c, n: int, mode: str):
    """c**n, or 0 in float mode when 0 < c < 1 and c**n < 2**-1100:
    below 2**-1075 float() rounds it to 0.0, so it is not formed."""
    if mode == FLOAT and 0 < c < 1 and \
            n * (math.log2(c.numerator) - math.log2(c.denominator)) < -1100:
        return 0
    return c ** n


def _cmd_bitcommit(args) -> int:
    space = parse_model_name(args.model)
    mode = _mode_for(args, space)
    if args.action == "run" and args.n > _RUN_ROUNDS:
        raise InvalidInputError(
            f"--n {args.n}: a run report lists every committed state, "
            f"and at most {_RUN_ROUNDS} rounds fit")
    dd = find_double_decomposition(space, args.tol)
    if args.action == "decompose":
        report = {
            "command": "bitcommit decompose",
            "model": space.to_json_dict(),
            "omega": emit(dd.omega, mode),
            "branches": [
                [{"state": emit(s, mode), "probability": emit(p, mode)}
                 for s, p in branch]
                for branch in dd.branches],
            "distinguishers": emit(dd.distinguishers, mode),
        }
        _write_json(args, report)
        return OK
    if args.action == "run":
        transcript = bc_run(dd, args.bit, args.n, args.seed, args.tamper)
        report = {
            "command": "bitcommit run",
            "model": space.to_json_dict(),
            "bit": transcript.bit,
            "n": transcript.n,
            "seed": transcript.seed,
            "samples": transcript.samples,
            "committed": emit(transcript.committed, mode),
            "reveal": {"bit": transcript.reveal[0],
                       "samples": transcript.reveal[1]},
            "verdict": transcript.verdict,
        }
        _write_json(args, report)
        return OK if transcript.verdict == "accept" else REJECT
    # The rounds are checked before any power per_round**n is taken.
    bound = bc_cheat_bound(dd)
    c = bound.per_round
    if mode == RATIONAL:
        _check_exact_power(c, args.n)
    if args.format == "csv":
        curve = bc_cheat_curve(bound, args.n, args.trials, args.seed)
        lines = ["n,analytic_bound,empirical_rate,stderr"]
        for n, analytic, emp, err in curve:
            lines.append(f"{n},{emit(analytic, mode)},{emp!r},{err!r}")
        _write(args, "\n".join(lines) + "\n")
        return OK
    report = {
        "command": "bitcommit bound",
        "model": space.to_json_dict(),
        "n": args.n,
        "per_round": emit(c, mode),
        "overall": emit(_power(c, args.n, mode), mode),
        "optimizer": emit(bound.optimizer, mode),
    }
    _write_json(args, report)
    return OK


# -- parser wiring ----------------------------------------------------------


@cache
def _build_parser() -> _Parser:
    """Built once per process: parsing leaves the parser unchanged."""
    parser = _Parser(prog="gpt-kit",
                     description="convex operational model toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arithmetic", choices=(RATIONAL, FLOAT),
                        default=None, help="override output number style")
    common.add_argument("--tol", type=tolerance_for, default=None,
                        help="comparison tolerance, a finite number >= 0 "
                             "(default: exact for "
                             "rational models, 1e-9 for float)")
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tensor", parents=[common],
                       help="compose two models and list the composite cone")
    rule = p.add_mutually_exclusive_group(required=True)
    rule.add_argument("--min", action="store_true")
    rule.add_argument("--max", action="store_true")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--check-equals-min", action="store_true",
                   help="with --max: verify the two composites coincide")
    p.set_defaults(handler=_cmd_tensor)

    p = sub.add_parser("marginal", parents=[common],
                       help="reduced state of one factor")
    p.add_argument("--state", required=True,
                   help="bipartite state JSON (inline or a file path)")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.set_defaults(handler=_cmd_marginal)

    p = sub.add_parser("conditional", parents=[common],
                       help="far-factor state after one local outcome")
    p.add_argument("--state", required=True)
    p.add_argument("--effect", required=True,
                   help="effect coordinates JSON (inline or a file path)")
    p.add_argument("--side", choices=("a", "b"), default="a",
                   help="side the effect acts on")
    p.set_defaults(handler=_cmd_conditional)

    p = sub.add_parser("teleport",
                       help="verify a protocol pair or construct one")
    p.set_defaults(handler=_cmd_teleport)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("construct", parents=[common],
                           help="build a scheme from the symmetry group")
    a.add_argument("--model", required=True)
    a.add_argument("--group", default=None,
                   help="symmetry group label, e.g. z4")
    a = actions.add_parser("verify", parents=[common],
                           help="check one outcome's effect and state")
    a.add_argument("--effect", required=True,
                   help="joint effect matrix JSON")
    a.add_argument("--omega", required=True, help="shared bipartite state "
                   "JSON on max(B, A); its factors name both systems")

    for name, handler, text in (
            ("clone", _cmd_clone, "decide clonability of a finite state set"),
            ("broadcast", _cmd_broadcast,
             "search for a distinguishable simplex witness")):
        p = sub.add_parser(name, parents=[common], help=text)
        p.add_argument("action", choices=("check",))
        p.add_argument("--model", required=True)
        states = p.add_mutually_exclusive_group(required=True)
        states.add_argument("--states", type=_ints(
                            "comma-separated vertex indices"),
                            help="comma-separated vertex indices, e.g. 0,2")
        states.add_argument("--states-json", help="JSON list of state "
                            "vectors (inline or a file path)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("disturb", parents=[common],
                       help="basis of the nondisturbing maps")
    p.add_argument("action", choices=("basis",))
    p.add_argument("--model", required=True)
    p.set_defaults(handler=_cmd_disturb)

    p = sub.add_parser("bitcommit",
                       help="bit-commitment decomposition, runs, and bounds")
    p.set_defaults(handler=_cmd_bitcommit)
    actions = p.add_subparsers(dest="action", required=True)
    decompose, run, bound = (
        actions.add_parser(name, parents=[common], help=text)
        for name, text in (("decompose", "one state, two exposed mixtures"),
                           ("run", "one seeded commit and reveal"),
                           ("bound", "cheating probability over n rounds")))
    for a in (decompose, run, bound):
        a.add_argument("--model", required=True)
    positive = _ints("a positive integer", 1, low=1)
    seed = _ints("an integer in [0, 2**64)", 1, low=0, high=2 ** 64)
    # unbounded: bc_run checks the position against n
    tamper = _ints("position,claimed-sample (two integers)", 2)
    for a in (run, bound):
        a.add_argument("--n", type=positive, default=1,
                       help="number of rounds")
        a.add_argument("--seed", type=seed, default=0,
                       help="64-bit seed (bound: read with --format csv)")
    run.add_argument("--bit", type=_ints("0 or 1", 1, low=0, high=2),
                     default=0)
    run.add_argument("--tamper", type=tamper, default=None,
                     help="position,claimed-sample to corrupt the reveal")
    bound.add_argument("--format", choices=("json", "csv"), default="json")
    bound.add_argument("--trials", type=positive, default=2000,
                       help="(--format csv) Monte Carlo trials per row")

    return parser


def main(argv=None) -> int:
    try:
        args, unknown = _build_parser().parse_known_args(argv)
        if unknown:
            raise InvalidInputError(
                f"unrecognized arguments: {' '.join(unknown)}")
        return args.handler(args)
    except ToolkitError as exc:
        kind = type(exc).__name__.removesuffix("Error")
        sys.stderr.write(f"gpt-kit: {kind}: {exc}\n")
        return ERROR
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"gpt-kit: error: {exc}\n")
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
