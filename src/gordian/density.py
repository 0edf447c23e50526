"""Density-rule certificate transform.

For a logic that proves 1 -> 0 and has a theorem of alternatives, a
certificate for the goal ``(f -> p) | (p -> g) | h`` with ``p`` fresh
converts into one for ``(f -> g) | h``: with input weights (a, b, c) the
output weights are (a*b, a*c) when a, b > 0, (b, c) when a = 0 (substitute
f for p), and (a, c) when b = 0 (substitute g for p).  The input certificate
passes :func:`check.check_result`; the output witness is re-proved by
:func:`oracles.decide` rather than replayed step by step.
"""

from __future__ import annotations

from functools import lru_cache

from .check import ProofResult, ToACertificate, check_result, combination_formula
from .engine import DEFAULT_BUDGET, EngineBudget, prove_consequence
from .errors import InvalidCertificateError, PreconditionFailedError
from .logics import LogicSpec, resolve_logic
from .normalize import Goal, MultClause
from .oracles import decide
from .syntax import ONE, VARIABLE, ZERO, Formula, Imp, Record, Var, variables_of


@lru_cache(maxsize=64)
def density_precondition(logic: LogicSpec | str, budget: EngineBudget = DEFAULT_BUDGET) -> bool:
    """True iff the engine proves 1 -> 0 in the logic; the transform is
    only sound past this gate.  The answer is kept per (logic, budget),
    both immutable records (or a logic's name)."""
    logic = resolve_logic(logic)
    if not logic.has_toa:
        return False
    return prove_consequence(logic, [], Imp(ONE, ZERO), budget).status == "proved"


class DensityCertificate(Record):
    disjuncts: tuple[Formula, ...]
    certificate: ToACertificate


def density_goal(
    phi: Formula, psi: Formula, chi: Formula | None, fresh: str, sigma=()
) -> Goal:
    """The three-disjunct goal ``(phi -> p) | (p -> psi) | chi`` with the
    given fresh middle variable.  Disjunct order is kept as written so that
    certificate weights line up with the transform's cases.  Raises
    PreconditionFailedError unless ``fresh`` is a variable name of the
    formula grammar."""
    if not VARIABLE.fullmatch(fresh):
        raise PreconditionFailedError(f"{fresh!r} is not a variable name")
    p = Var(fresh)
    disjuncts = [Imp(phi, p), Imp(p, psi)] + ([chi] if chi is not None else [])
    return Goal(tuple(sigma), MultClause(tuple(disjuncts)))


def density_transform(
    logic: LogicSpec | str,
    sigma,
    phi: Formula,
    psi: Formula,
    chi: Formula | None,
    fresh: str,
    cert: ToACertificate,
    budget: EngineBudget = DEFAULT_BUDGET,
) -> DensityCertificate:
    """Convert a certificate for ``(phi -> p) | (p -> psi) | chi`` into one
    for ``(phi -> psi) | chi`` (``p`` the fresh variable).

    The input certificate must pass :func:`check.check_result`; the output
    combination is re-proved by :func:`oracles.decide`."""
    logic = resolve_logic(logic)
    sigma = list(sigma)
    in_goal = density_goal(phi, psi, chi, fresh, sigma)
    if not density_precondition(logic, budget):
        raise PreconditionFailedError(f"{logic.name} does not prove 1 -> 0")
    scope = variables_of(sigma + [phi, psi] + ([chi] if chi is not None else []))
    if fresh in scope:
        raise PreconditionFailedError(f"variable {fresh!r} is not fresh")

    check_result(logic, ProofResult("proved", in_goal, certificate=cert))

    a, b = cert.lambdas[0], cert.lambdas[1]
    c = cert.lambdas[2] if chi is not None else 0
    if a > 0 and b > 0:
        out_weights = (a * b, a * c)
    elif a == 0:
        out_weights = (b, c)  # substitute phi for the fresh variable
    else:
        out_weights = (a, c)  # b == 0: substitute psi for the fresh variable
    out_disjuncts = [Imp(phi, psi)] + ([chi] if chi is not None else [])
    out_lambdas = out_weights[: len(out_disjuncts)]

    out_combo = combination_formula(out_lambdas, out_disjuncts)
    verdict = decide(logic, sigma, out_combo, budget=budget.hilbert)
    if verdict.status != "proved":
        raise InvalidCertificateError(
            "transformed combination did not re-prove under the oracle"
        )
    return DensityCertificate(
        tuple(out_disjuncts), ToACertificate(out_lambdas, verdict.certificate.witness)
    )
