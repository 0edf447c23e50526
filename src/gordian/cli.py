"""Command-line front end: problem files in, verdicts and certificates out.

Problem file format (``#`` starts a comment):

    logic A            # optional, overridden by --logic
    assume p -> q
    assume q -> r
    prove p -> r       # exactly one prove line

Exit codes: 0 proved (or kernel branch for ``gordan``), 1 refuted (or
strict-dual branch), 2 unknown, 3 usage or input error, or any other
failure (an internal error), reported on standard error with nothing on
standard output.  Formulas of any depth are read and decided; ``prove``
refuses a formula that would print past :data:`PRINT_SIZE_CAP` nodes.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .check import (
    ChainExhaustiveWitness,
    Countermodel,
    DerivationWitness,
    LinearWitness,
    ProofResult,
)
from .density import density_goal, density_precondition, density_transform
from .engine import EngineBudget, prove_consequence, prove_disjunction
from .errors import GordianError
from .interpolate import lift_interpolant
from .linalg import IntMatrix, Kernel, gordan
from .logics import lookup_logic
from .oracles import HilbertBudget, check_toa_condition
from .syntax import Formula, Record, parse, render

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

_STATUS_EXIT = {"proved": EXIT_PROVED, "refuted": EXIT_REFUTED, "unknown": EXIT_UNKNOWN}

# Read at call time: the most nodes, repeats counted, of a formula that
# ``prove`` takes.  The decision costs the distinct nodes, but the answer
# prints trees: printing costs about 0.4 us per node (2M nodes took 0.8 s
# and 4 MB of text on a 2-core Xeon host, Python 3.11), and an answer can
# print a formula several times.
PRINT_SIZE_CAP = 1_000_000


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_problem(text: str) -> tuple[str | None, list[Formula], Formula | None]:
    logic_name = None
    assumptions: list[Formula] = []
    conclusion: Formula | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "logic":
            logic_name = rest
            continue
        if keyword not in ("assume", "prove"):
            raise GordianError(f"line {lineno}: unknown directive {keyword!r}")
        if keyword == "prove" and conclusion is not None:
            raise GordianError(f"line {lineno}: only one prove line allowed")
        try:
            formula = parse(rest)
        except GordianError as exc:
            raise GordianError(f"line {lineno}: {exc}") from exc
        if keyword == "assume":
            assumptions.append(formula)
        else:
            conclusion = formula
    return logic_name, assumptions, conclusion


def _fields(record: Record) -> dict:
    """A record's fields, with a formula as its text."""
    values = {name: getattr(record, name) for name in record._fields}
    return {name: render(v) if isinstance(v, Formula) else v for name, v in values.items()}


def _witness_json(witness) -> dict | None:
    """A witness's fields, a tuple as a list and a record in it (a
    derivation line) as its fields."""
    if witness is None:
        return None
    out = {"kind": witness.kind, **_fields(witness)}
    for name, value in out.items():
        if isinstance(value, tuple):
            out[name] = [_fields(v) if isinstance(v, Record) else v for v in value]
    return out


def _countermodel_json(cm: Countermodel | None) -> dict | None:
    if cm is None:
        return None
    return {"chain": cm.chain, "valuation": {v: value for v, value in cm.valuation}}


def _goal_json(result: ProofResult) -> dict:
    cert = result.certificate
    return {
        "hypotheses": [render(h) for h in result.goal.hypotheses],
        "disjuncts": [render(d) for d in result.goal.clause.disjuncts],
        "status": result.status,
        "lambdas": list(cert.lambdas) if cert else None,
        "witness": _witness_json(cert.witness if cert else None),
        "countermodel": _countermodel_json(result.countermodel),
        "reason": result.reason,
    }


def _print_witness(witness, out) -> None:
    if isinstance(witness, LinearWitness):
        mu = " ".join(map(str, witness.mu)) or "-"
        out.write(f"  witness: linear mu=({mu}) scale={witness.scale}\n")
    elif isinstance(witness, ChainExhaustiveWitness):
        out.write(f"  witness: exhaustive over {', '.join(witness.chains)}\n")
    elif isinstance(witness, DerivationWitness):
        out.write("  witness: derivation\n")
        for line in witness.lines:
            out.write(f"    {line.index} | {render(line.formula)} | {line.justification}\n")


def _print_countermodel(cm: Countermodel, out) -> None:
    assignment = ", ".join(f"{v}={value}" for v, value in cm.valuation) or "(empty)"
    out.write(f"  countermodel: chain {cm.chain}, valuation {assignment}\n")


def _budget(n: int) -> EngineBudget:
    """The budget ``--budget N`` stands for; N < 1 raises ValueError."""
    return EngineBudget(lambda_cap=n, hilbert=HilbertBudget(max_lines=max(400, 250 * n)))


def _cmd_prove(args) -> int:
    logic_name, assumptions, conclusion = _parse_problem(_read_text(args.problem))
    if args.logic:
        logic_name = args.logic
    if logic_name is None or conclusion is None:
        raise GordianError("problem needs a logic (flag or directive) and a prove line")
    logic = lookup_logic(logic_name)
    size = max(f.size for f in (*assumptions, conclusion))
    if size > PRINT_SIZE_CAP:
        raise GordianError(
            f"an input formula has {size} nodes when printed, past the cap of {PRINT_SIZE_CAP}"
        )
    result = prove_consequence(logic, assumptions, conclusion, args.budget)
    if args.format == "json":
        payload = {
            "status": result.status,
            "logic": logic.name,
            "goals": [_goal_json(r) for r in result.results],
            "countermodel": _countermodel_json(result.countermodel),
            "reason": result.reason,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{result.status} ({logic.name})")
        for r in result.results:
            print(f"goal: {r.goal.render()}")
            print(f"  status: {r.status}")
            if r.certificate:
                lambdas = " ".join(map(str, r.certificate.lambdas))
                print(f"  lambdas: {lambdas}")
                _print_witness(r.certificate.witness, sys.stdout)
            if r.countermodel:
                _print_countermodel(r.countermodel, sys.stdout)
            if r.reason:
                print(f"  reason: {r.reason}")
    return _STATUS_EXIT[result.status]


def _cmd_gordan(args) -> int:
    rows = []
    for line in _read_text(args.matrix).splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append([int(tok) for tok in line.split()])
    matrix = IntMatrix.of(rows)
    result = gordan(matrix)
    if isinstance(result, Kernel):
        branch, vector = "kernel", result.x
    else:
        branch, vector = "strict_dual", result.y
    if args.format == "json":
        print(json.dumps({"branch": branch, "vector": list(vector)}, sort_keys=True))
    else:
        print(branch)
        print(" ".join(map(str, vector)))
    return EXIT_PROVED if branch == "kernel" else EXIT_REFUTED


def _cmd_interpolate(args) -> int:
    logic_name, assumptions, conclusion = _parse_problem(_read_text(args.problem))
    if conclusion is not None:
        raise GordianError("interpolate takes assume lines only")
    if args.logic:
        logic_name = args.logic
    if logic_name is None:
        raise GordianError("interpolate needs a logic (flag or directive)")
    x_vars = list(dict.fromkeys(v.strip() for v in args.vars.split(",") if v.strip()))
    interpolant = lift_interpolant(lookup_logic(logic_name), assumptions, x_vars)
    if args.format == "json":
        payload = {
            "logic": logic_name,
            "vars": sorted(x_vars),
            "interpolant": [render(f) for f in interpolant],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"interpolant over {{{', '.join(sorted(x_vars))}}}:")
        if not interpolant:
            print("  (empty)")
        for f in interpolant:
            print(f"  {render(f)}")
    return EXIT_PROVED


def _cmd_density(args) -> int:
    logic_name, assumptions, conclusion = _parse_problem(_read_text(args.problem)) if args.problem else (None, [], None)
    if conclusion is not None:
        raise GordianError("density takes assume lines only")
    if args.logic:
        logic_name = args.logic
    if logic_name is None:
        raise GordianError("density needs a logic (flag or directive)")
    logic = lookup_logic(logic_name)
    budget = args.budget
    if not density_precondition(logic, budget):
        raise GordianError(f"{logic.name} does not prove 1 -> 0; transform refused")
    phi, psi = parse(args.phi), parse(args.psi)
    chi = parse(args.chi) if args.chi else None
    goal = density_goal(phi, psi, chi, args.fresh, assumptions)
    result = prove_disjunction(logic, goal, budget)
    if result.status != "proved":
        if args.format == "json":
            print(json.dumps({"status": result.status, "input": _goal_json(result)}, indent=2, sort_keys=True))
        else:
            print(result.status)
            if result.countermodel:
                _print_countermodel(result.countermodel, sys.stdout)
        return _STATUS_EXIT[result.status]
    out = density_transform(
        logic, assumptions, phi, psi, chi, args.fresh, result.certificate, budget
    )
    if args.format == "json":
        payload = {
            "status": "proved",
            "input": _goal_json(result),
            "output": {
                "disjuncts": [render(d) for d in out.disjuncts],
                "lambdas": list(out.certificate.lambdas),
                "witness": _witness_json(out.certificate.witness),
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("proved")
        print(f"input lambdas: {' '.join(map(str, result.certificate.lambdas))}")
        print(f"output goal: {' | '.join(render(d) for d in out.disjuncts)}")
        print(f"output lambdas: {' '.join(map(str, out.certificate.lambdas))}")
        _print_witness(out.certificate.witness, sys.stdout)
    return EXIT_PROVED


def _cmd_check_toa(args) -> int:
    if not args.logic:
        raise GordianError("check-toa needs --logic")
    logic = lookup_logic(args.logic)
    witnesses = {}
    for spec in args.witness or []:
        try:
            n, k, m = map(int, spec.split(":"))
        except ValueError:  # a wrong count or a non-integer
            raise GordianError(f"--witness takes n:k:m, three integers, not {spec!r}") from None
        if n in witnesses:
            raise GordianError(f"--witness gives n={n} twice")
        witnesses[n] = (k, m)
    report = check_toa_condition(logic, args.n_max, witnesses, budget=args.budget.hilbert)
    if args.format == "json":
        payload = {
            "logic": logic.name,
            "all_proved": report.all_proved,
            "entries": [
                {**_fields(e), "countermodel": _countermodel_json(e.countermodel)}
                for e in report.entries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for e in report.entries:
            print(f"n={e.n} (k={e.k}, m={e.m}): {e.status}")
            if e.countermodel:
                _print_countermodel(e.countermodel, sys.stdout)
    if all(e.status == "proved" for e in report.entries):
        return EXIT_PROVED
    if any(e.status == "refuted" for e in report.entries):
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gordian",
        description="certificate-producing decision engine for logics with a theorem of alternatives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, budget: bool = True) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--logic", help="logic name (overrides the problem file)")
        if budget:
            p.add_argument("--budget", type=int, default=16, help="weight-sum cap / derivation budget")

    p = sub.add_parser("prove", help="decide a consequence from a problem file")
    p.add_argument("problem", help="problem file path, or - for stdin")
    common(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("gordan", help="strict-dual/kernel dichotomy for an integer matrix")
    p.add_argument("matrix", help="whitespace-separated integer rows, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_gordan)

    p = sub.add_parser("interpolate", help="uniform interpolant of the assumptions")
    p.add_argument("problem", help="problem file with assume lines, or - for stdin")
    p.add_argument("--vars", required=True, help='shared variables, e.g. "p,r"')
    common(p, budget=False)
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("density", help="transform a fresh-variable disjunction certificate")
    p.add_argument("problem", nargs="?", help="optional problem file with assume lines")
    p.add_argument("--phi", required=True, help="left endpoint formula")
    p.add_argument("--psi", required=True, help="right endpoint formula")
    p.add_argument("--chi", help="optional side disjunct")
    p.add_argument("--fresh", default="p", help="the fresh middle variable")
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("check-toa", help="check the scaling side condition (n*p)^k -> m*(p^n)")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--witness", action="append", metavar="n:k:m", help="candidate (k,m) for one n")
    common(p)
    p.set_defaults(func=_cmd_check_toa)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PROVED
    # A command's output is held back until it has finished, so that a
    # failure part-way never leaves a verdict on standard output.
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        if "budget" in args:  # prove, density and check-toa
            args.budget = _budget(args.budget)
        code = args.func(args)
    except (GordianError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the boundary: a crash must not read as a verdict
        import traceback  # only here, to keep it off every run's start-up

        traceback.print_exc(file=sys.stderr)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        buffer, sys.stdout = sys.stdout, stdout
    stdout.write(buffer.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
