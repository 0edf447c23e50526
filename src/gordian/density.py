"""Density-rule certificate transform.

For a logic that proves 1 -> 0 and has a theorem of alternatives, a
certificate for the goal ``(f -> p) | (p -> g) | h`` with ``p`` fresh
converts into one for ``(f -> g) | h``: with input weights (a, b, c) the
output weights are (a*b, a*c) when a, b > 0, (b, c) when a = 0 (substitute
f for p), and (a, c) when b = 0 (substitute g for p).  The output witness
is re-proved by the logic's own oracle rather than replayed step by step.
"""

from __future__ import annotations

from random import Random

from .engine import DEFAULT_BUDGET, EngineBudget, prove_consequence, prove_disjunction
from .errors import InvalidCertificateError, PreconditionFailedError
from .logics import LogicSpec, resolve_logic
from .normalize import Goal, MultClause
from .oracles import ProofResult, ToACertificate, combination_formula, decide
from .rand import random_mult_formula
from .syntax import ONE, ZERO, Formula, Imp, Record, Var, render, variables_of


def density_precondition(logic: LogicSpec | str, budget: EngineBudget = DEFAULT_BUDGET) -> bool:
    """True iff the engine proves 1 -> 0 in the logic; the transform is
    only sound past this gate."""
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
    certificate weights line up with the transform's cases."""
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

    The input certificate is re-verified against the logic's oracle before
    transforming, and the output combination is re-proved the same way."""
    logic = resolve_logic(logic)
    sigma = list(sigma)
    if not density_precondition(logic, budget):
        raise PreconditionFailedError(f"{logic.name} does not prove 1 -> 0")
    scope = variables_of(sigma + [phi, psi] + ([chi] if chi is not None else []))
    if fresh in scope:
        raise PreconditionFailedError(f"variable {fresh!r} is not fresh")

    p = Var(fresh)
    in_disjuncts = [Imp(phi, p), Imp(p, psi)] + ([chi] if chi is not None else [])
    expected = 3 if chi is not None else 2
    if len(cert.lambdas) != expected:
        raise InvalidCertificateError(
            f"expected {expected} weights, got {len(cert.lambdas)}"
        )
    if any(l < 0 for l in cert.lambdas) or not any(cert.lambdas):
        raise InvalidCertificateError("weights must be nonnegative, not all zero")
    in_combo = combination_formula(cert.lambdas, in_disjuncts)
    if decide(logic, sigma, in_combo, budget=budget.hilbert).status != "proved":
        raise InvalidCertificateError("input certificate does not re-verify")

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
    if not any(out_lambdas):
        raise InvalidCertificateError("transformed weights are all zero")

    out_combo = combination_formula(out_lambdas, out_disjuncts)
    verdict = decide(logic, sigma, out_combo, budget=budget.hilbert)
    if verdict.status != "proved":
        raise InvalidCertificateError(
            "transformed combination did not re-prove under the oracle"
        )
    return DensityCertificate(
        tuple(out_disjuncts), ToACertificate(out_lambdas, verdict.certificate.witness)
    )


class DensitySample(Record):
    sigma: tuple[Formula, ...]
    phi: Formula
    psi: Formula
    chi: Formula
    input_result: ProofResult
    output: DensityCertificate | None
    error: str | None = None


class DensityReport(Record):
    logic: str
    attempted: int
    transformed: int
    failures: tuple[DensitySample, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_density_property(
    logic: LogicSpec | str,
    sample_count: int,
    seed: int = 0,
    budget: EngineBudget = DEFAULT_BUDGET,
    max_attempts: int | None = None,
) -> DensityReport:
    """Statistical evidence for the density rule: sample multiplicative
    instances with a fresh middle variable, keep those whose three-disjunct
    goal the engine proves, transform each certificate and require the
    output to re-prove.  Failures are collected, expected none."""
    logic = resolve_logic(logic)
    if not density_precondition(logic, budget):
        raise PreconditionFailedError(f"{logic.name} does not prove 1 -> 0")
    rng = Random(seed)
    names = ["x", "y", "z"]
    fresh = "pfresh"
    attempts_left = max_attempts if max_attempts is not None else 40 * sample_count
    transformed = 0
    attempted = 0
    failures: list[DensitySample] = []
    while transformed < sample_count and attempts_left > 0:
        attempts_left -= 1
        attempted += 1
        phi = random_mult_formula(rng, names, rng.randint(1, 3))
        # half the samples tie the endpoints together so provable goals stay common
        psi = phi if rng.random() < 0.5 else random_mult_formula(rng, names, rng.randint(1, 3))
        chi = random_mult_formula(rng, names, rng.randint(1, 2))
        sigma = [
            random_mult_formula(rng, names, rng.randint(1, 2))
            for _ in range(rng.randint(0, 2))
        ]
        goal = density_goal(phi, psi, chi, fresh, sorted(set(sigma), key=render))
        result = prove_disjunction(logic, goal, budget)
        if result.status != "proved":
            continue
        try:
            out = density_transform(
                logic, goal.hypotheses, phi, psi, chi, fresh, result.certificate, budget
            )
        except InvalidCertificateError as exc:
            failures.append(
                DensitySample(goal.hypotheses, phi, psi, chi, result, None, str(exc))
            )
            continue
        transformed += 1
    return DensityReport(logic.name, attempted, transformed, tuple(failures))
