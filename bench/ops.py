"""Running one problem through the library or the ``gordian`` CLI, and
checking what came back.

Each runner returns the program's raw answer; :func:`outcome_from_library`
and :func:`outcome_from_cli` turn it into plain data outside the timed
region, and :func:`verify` checks that data with :mod:`check` alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import check as C
from workloads import (
    HILBERT_LAMBDA_CAP,
    HILBERT_MAX_LINES,
    MINGLE_INTERPOLATION_DEPTH,
    Problem,
)

from gordian import (
    EngineBudget,
    HilbertBudget,
    IntMatrix,
    Kernel,
    density_goal,
    density_transform,
    gordan,
    lift_interpolant,
    mult_uniform_interpolant,
    parse,
    prove_consequence,
    prove_disjunction,
)

HILBERT_BUDGET = EngineBudget(
    lambda_cap=HILBERT_LAMBDA_CAP, hilbert=HilbertBudget(max_lines=HILBERT_MAX_LINES)
)
DEFAULT_BUDGET = EngineBudget()

# Exit codes of the CLI (see README): proved/kernel, refuted/strict dual, unknown.
STATUS_EXIT = {"proved": 0, "refuted": 1, "unknown": 2}

# Models a countermodel may name, per logic.
COUNTERMODEL_FAMILIES = {
    "A": ("Z",),
    "RMt": ("sugihara_odd_", "sugihara_even_"),
    "IUMLm": ("sugihara_odd_",),
    "BIULm": ("Z", "sugihara_odd_"),
}


def budget_for(problem: Problem) -> EngineBudget:
    return HILBERT_BUDGET if problem.logic == "BIULm" else DEFAULT_BUDGET


def warm_up(logics) -> None:
    """One small problem per logic, under the budget the workloads use."""
    for logic in logics:
        prove_consequence(logic, [], parse("p | ~p"), HILBERT_BUDGET if logic == "BIULm" else DEFAULT_BUDGET)


def concl_text(problem: Problem) -> str:
    return problem.text or C.to_text(problem.concl)


# --- library ----------------------------------------------------------------------


def run_library(problem: Problem):
    """The timed operation: parse the problem's text and solve it."""
    hyps = [parse(C.to_text(h)) for h in problem.hyps]
    if problem.kind == "consequence":
        return prove_consequence(problem.logic, hyps, parse(concl_text(problem)), budget_for(problem))
    if problem.kind == "gordan":
        return gordan(IntMatrix.of(problem.rows))
    if problem.kind == "interpolate":
        if problem.logic == "A":
            return lift_interpolant("A", hyps, problem.x_vars)
        return mult_uniform_interpolant(
            problem.logic, hyps, problem.x_vars, depth=MINGLE_INTERPOLATION_DEPTH
        )
    if problem.kind == "density":
        phi, psi, chi = (parse(C.to_text(f)) for f in (problem.phi, problem.psi, problem.chi))
        goal = density_goal(phi, psi, chi, problem.fresh, hyps)
        first = prove_disjunction(problem.logic, goal, DEFAULT_BUDGET)
        if first.status != "proved":
            return first, None
        out = density_transform(
            problem.logic, goal.hypotheses, phi, psi, chi, problem.fresh, first.certificate
        )
        return first, out
    raise ValueError(problem.kind)


def _witness(witness) -> dict:
    kind = getattr(witness, "kind", None)
    if kind == "linear":
        return {"kind": kind, "mu": list(witness.mu), "scale": witness.scale}
    return {"kind": kind}


def _goal_from_library(result) -> dict:
    cert, cm = result.certificate, result.countermodel
    return {
        "status": result.status,
        "hyps": [C.from_program(h) for h in result.goal.hypotheses],
        "disjuncts": [C.from_program(d) for d in result.goal.clause.disjuncts],
        "lambdas": list(cert.lambdas) if cert else None,
        "witness": _witness(cert.witness) if cert else None,
        "countermodel": (cm.chain, dict(cm.valuation)) if cm else None,
    }


def outcome_from_library(problem: Problem, raw) -> dict:
    if problem.kind == "consequence":
        cm = raw.countermodel
        return {
            "status": raw.status,
            "goals": [_goal_from_library(r) for r in raw.results],
            "countermodel": (cm.chain, dict(cm.valuation)) if cm else None,
        }
    if problem.kind == "gordan":
        if isinstance(raw, Kernel):
            return {"branch": "kernel", "vector": list(raw.x)}
        return {"branch": "strict_dual", "vector": list(raw.y)}
    if problem.kind == "interpolate":
        return {"interpolant": [C.from_program(f) for f in raw]}
    first, out = raw
    outcome = {"status": first.status, "input": _goal_from_library(first), "output": None}
    if out is not None:
        outcome["output"] = {
            "disjuncts": [C.from_program(d) for d in out.disjuncts],
            "lambdas": list(out.certificate.lambdas),
            "witness": _witness(out.certificate.witness),
        }
    return outcome


# --- CLI --------------------------------------------------------------------------


def cli_argv(problem: Problem, path: Path) -> tuple[list[str], str]:
    """Arguments after ``gordian`` and the body of the problem file."""
    lines = [f"logic {problem.logic}"] + [f"assume {C.to_text(h)}" for h in problem.hyps]
    if problem.kind == "consequence":
        argv = ["prove", str(path), "--format", "json"]
        if problem.logic == "BIULm":
            argv += ["--budget", str(HILBERT_LAMBDA_CAP)]
        lines.append(f"prove {concl_text(problem)}")
    elif problem.kind == "gordan":
        argv = ["gordan", str(path), "--format", "json"]
        lines = [" ".join(map(str, row)) for row in problem.rows]
    elif problem.kind == "interpolate":
        argv = ["interpolate", str(path), "--vars", ",".join(problem.x_vars), "--format", "json"]
    else:
        argv = [
            "density", str(path), "--phi", C.to_text(problem.phi), "--psi", C.to_text(problem.psi),
            "--chi", C.to_text(problem.chi), "--fresh", problem.fresh, "--format", "json",
        ]
    return argv, "\n".join(lines) + "\n"


def run_cli(argv: list[str], env: dict) -> tuple[int, str, float]:
    """One child process; returns its exit code, standard output and peak
    resident memory in MB.  Standard error is discarded."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gordian.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env
    )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), usage.ru_maxrss / 1024.0


def _goal_from_json(goal: dict) -> dict:
    cm = goal.get("countermodel")
    witness = goal.get("witness")
    return {
        "status": goal["status"],
        "hyps": [C.parse(h) for h in goal["hypotheses"]],
        "disjuncts": [C.parse(d) for d in goal["disjuncts"]],
        "lambdas": goal.get("lambdas"),
        "witness": witness,
        "countermodel": (cm["chain"], dict(cm["valuation"])) if cm else None,
    }


def outcome_from_cli(problem: Problem, code: int, stdout: str) -> dict | None:
    """Plain data from the CLI's JSON, or ``None`` when it printed none.
    The exit code is kept so that :func:`verify` can match it."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return None
    if problem.kind == "consequence":
        cm = data.get("countermodel")
        outcome = {
            "status": data["status"],
            "goals": [_goal_from_json(g) for g in data["goals"]],
            "countermodel": (cm["chain"], dict(cm["valuation"])) if cm else None,
        }
    elif problem.kind == "gordan":
        outcome = {"branch": data["branch"], "vector": data["vector"]}
    elif problem.kind == "interpolate":
        outcome = {"interpolant": [C.parse(f) for f in data["interpolant"]]}
    else:
        output = data.get("output")
        outcome = {"status": data["status"], "input": _goal_from_json(data["input"]), "output": None}
        if output is not None:
            outcome["output"] = {
                "disjuncts": [C.parse(d) for d in output["disjuncts"]],
                "lambdas": output["lambdas"],
                "witness": output["witness"],
            }
    outcome["exit"] = code
    return outcome


def expected_exit(problem: Problem, outcome: dict) -> int:
    if problem.kind == "gordan":
        return 0 if outcome["branch"] == "kernel" else 1
    if problem.kind == "interpolate":
        return 0
    return STATUS_EXIT[outcome["status"]]


# --- checking ---------------------------------------------------------------------


def _countermodel_ok(logic: str, cm, hyps, conclusions) -> bool:
    name, valuation = cm
    if not name.startswith(COUNTERMODEL_FAMILIES[logic]):
        return False
    return C.refutes(C.model_from_name(name), valuation, hyps, conclusions)


def _goal_ok(problem: Problem, goal: dict, rng: Random) -> bool:
    """One multiplicative goal: a countermodel that refutes the goal and the
    original consequence, or a certificate for the goal."""
    hyps, disjuncts = goal["hyps"], goal["disjuncts"]
    if not all(C.is_multiplicative(f) for f in hyps + disjuncts):
        return False
    if goal["status"] == "refuted":
        cm = goal["countermodel"]
        return (
            cm is not None
            and _countermodel_ok(problem.logic, cm, hyps, disjuncts)
            and _countermodel_ok(problem.logic, cm, problem.hyps, [problem.concl])
        )
    if goal["status"] != "proved":
        return False
    lambdas, witness = goal["lambdas"], goal["witness"] or {}
    if problem.logic == "A":
        return witness.get("kind") == "linear" and C.abelian_proof_ok(
            hyps, disjuncts, lambdas, witness["mu"], witness["scale"]
        )
    subset = problem.logic in ("RMt", "IUMLm")
    return C.semantic_proof_ok(problem.logic, hyps, disjuncts, lambdas, rng, subset)


def _consequence(problem: Problem, out: dict, rng: Random) -> tuple[bool, int]:
    goals = out["goals"]
    statuses = [g["status"] for g in goals]
    if "refuted" in statuses:
        status = "refuted"
    elif "unknown" in statuses:
        status = "unknown"
    else:
        status = "proved"
    if out["status"] != status:
        return False, 0
    if problem.expected is not None and status not in (problem.expected, "unknown"):
        return False, 0
    if status == "unknown" and problem.logic != "BIULm":
        return False, 0  # only the budgeted Hilbert search may give up
    decided = 0
    for goal in goals:
        if goal["status"] == "unknown":
            continue
        if not _goal_ok(problem, goal, rng):
            return False, 0
        decided += 1
    if status == "refuted":
        if out["countermodel"] is None or not _countermodel_ok(
            problem.logic, out["countermodel"], problem.hyps, [problem.concl]
        ):
            return False, 0
    elif status == "proved":
        k = len(C.variables(problem.hyps + [problem.concl]))
        models = C.decision_models(problem.logic, k)
        if not C.sound_on_models(models, problem.hyps, problem.concl, rng):
            return False, 0
    return True, decided


def _density(problem: Problem, out: dict, rng: Random) -> tuple[bool, int]:
    if out["status"] != "proved" or out["output"] is None:
        return False, 0
    p = C.var(problem.fresh)
    first = out["input"]
    want_in = [C.imp(problem.phi, p), C.imp(p, problem.psi), problem.chi]
    if first["disjuncts"] != want_in or not _goal_ok(problem, first, rng):
        return False, 0
    a, b, c = first["lambdas"]
    output = out["output"]
    want_out = [C.imp(problem.phi, problem.psi), problem.chi]
    if output["disjuncts"] != want_out or list(output["lambdas"]) != list(C.density_weights(a, b, c)):
        return False, 0
    goal = {
        "status": "proved", "hyps": first["hyps"], "disjuncts": want_out,
        "lambdas": list(output["lambdas"]), "witness": output["witness"],
    }
    return _goal_ok(problem, goal, rng), 1


def verify(problem: Problem, out: dict | None, rng: Random) -> tuple[bool, int]:
    """(every check passed, goals decided with a checked certificate)."""
    if out is None:
        return False, 0
    if "exit" in out and out["exit"] != expected_exit(problem, out):
        return False, 0
    if problem.kind == "consequence":
        return _consequence(problem, out, rng)
    if problem.kind == "gordan":
        return C.gordan_ok(problem.rows, out["branch"], out["vector"]), 1
    if problem.kind == "interpolate":
        return C.interpolant_ok(problem.logic, problem.hyps, out["interpolant"], problem.x_vars, rng), 0
    return _density(problem, out, rng)
