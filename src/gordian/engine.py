"""The theorem-of-alternatives engine.

A disjunction goal is settled by finding a not-all-zero natural vector
``lambda`` whose weighted sum of the disjuncts is derivable from the
hypotheses in the multiplicative fragment, or by exhibiting a countermodel.
:func:`prove_disjunction` hands the goal to its logic's procedure in
:mod:`oracles`, and returns the answer once :func:`check.check_result`
accepts it:

* Abelian: :func:`oracles.prove_abelian`, the one exact LP, decides both
  directions at once: its combination gives ``lambda`` and the
  hypotheses' weights, its separation the integer countermodel.  The
  goals of one consequence share an :class:`oracles.AbelianMemo`, so a
  goal that an earlier goal's countermodel already refutes is answered
  without the LP.  A literal's linear reading is kept on its node, so the
  procedure and the check fold each literal once between them.
* Mingle logics: :func:`oracles.prove_subsets`, ``lambda`` over 0/1
  vectors, from the level search (:class:`chains.LevelSearch`) on each
  decision chain.
* Everything else: :func:`oracles.refute_or_propose` first, a refutation
  in the model classes the logic is sound for
  (:func:`oracles.class_refutation`: Z through the same LP separation,
  then Sugihara chains).  Where no class refutes and Z is declared, the
  LP's combination proposes ``lambda`` and the hypotheses' weights, and
  the search in MLL with mix is asked for that one weighted sum, its
  hypotheses curried in and taken off by modus ponens.  Only where that
  fails, iterative deepening on ``sum(lambda)`` up to the budget's cap,
  asking :func:`oracles.prove_one_target` for each weighted sum: the
  same first step on the sum, whose own LP weights the hypotheses for it
  and whose refutation leaves the sum unproved, then the Hilbert search,
  which alone is asked for a one-disjunct goal's first sum, the goal.
  Only once the model classes have failed is exhaustion reported, as
  unknown, never refuted.  The countermodel that skips a weighted sum is
  not checked: a wrong one can only turn a proof into unknown.
"""

from __future__ import annotations

from .check import Countermodel, ProofResult, ToACertificate, check_result, combination_formula
from .errors import LogicWithoutToAError
from .logics import LogicSpec, resolve_logic
from .normalize import Goal, decompose_consequence
from .oracles import (
    AbelianMemo,
    HilbertBudget,
    hilbert_search,
    one_target,
    prove_abelian,
    prove_one_target,
    prove_subsets,
    refute_or_propose,
)
from .syntax import Formula, Record


class EngineBudget(Record):
    """The weight-sum cap of the deepening search and the Hilbert search's
    budget."""

    lambda_cap: int = 16
    hilbert: HilbertBudget = HilbertBudget()  # immutable, so one instance serves every budget

    def _validate(self) -> None:
        if self.lambda_cap < 1:  # no weight vector to try would read as "unknown"
            raise ValueError(f"weight-sum cap must be at least 1, not {self.lambda_cap}")


DEFAULT_BUDGET = EngineBudget()


def prove_disjunction(
    logic: LogicSpec | str,
    goal: Goal,
    budget: EngineBudget = DEFAULT_BUDGET,
    memo: AbelianMemo | None = None,
) -> ProofResult:
    """Decide one multiplicative disjunction goal with certificates, by the
    procedure of the logic's oracle kind, checked by :func:`check.check_result`.
    The Abelian procedure reads ``memo``, the consequence's shared
    countermodels (a fresh one by default); the other kinds ignore it."""
    logic = resolve_logic(logic)
    if not logic.has_toa:
        raise LogicWithoutToAError(f"{logic.name} has no theorem of alternatives")
    if logic.oracle_kind == "abelian":
        result = prove_abelian(goal, memo)
    elif logic.oracle_kind == "sugihara":
        result = prove_subsets(logic, goal)
    else:
        result = _prove_deepening(logic, goal, budget)
    return check_result(logic, result)


# --- generic: iterative deepening ----------------------------------------------


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given sum, lexicographically
    from the first coordinate down."""
    vector = [total] + [0] * (parts - 1)
    while True:
        yield tuple(vector)
        # the next vector down: take one from the last nonzero coordinate
        # before the final one, and move all that follows it one place right
        i = next((i for i in range(parts - 2, -1, -1) if vector[i]), None)
        if i is None:
            return
        vector[i:] = [vector[i] - 1, vector[-1] + 1] + [0] * (parts - i - 2)


def _prove_deepening(logic: LogicSpec, goal: Goal, budget: EngineBudget) -> ProofResult:
    verdict = refute_or_propose(logic, goal)
    if verdict is not None:
        return verdict
    disjuncts = goal.clause.disjuncts
    for total in range(1, budget.lambda_cap + 1):
        for lambdas in _compositions(total, len(disjuncts)):
            if lambdas == (1,):  # the goal itself, whose first step was just taken
                verdict = hilbert_search(logic, goal.hypotheses, disjuncts[0], budget.hilbert)
            else:
                target = one_target(goal.hypotheses, combination_formula(lambdas, disjuncts))
                verdict = prove_one_target(logic, target, budget.hilbert)
            if verdict.status == "proved":
                cert = ToACertificate(lambdas, verdict.certificate.witness)
                return ProofResult("proved", goal, certificate=cert)
    return ProofResult(
        "unknown", goal, reason=f"no combination proved with weight sum <= {budget.lambda_cap}"
    )


# --- full consequences ------------------------------------------------------------


class ConsequenceResult(Record):
    status: str
    results: tuple[ProofResult, ...]

    @property
    def countermodel(self) -> Countermodel | None:
        for r in self.results:
            if r.status == "refuted":
                return r.countermodel
        return None

    @property
    def reason(self) -> str | None:
        for r in self.results:
            if r.status == "unknown":
                return r.reason
        return None


def prove_consequence(
    logic: LogicSpec | str,
    sigma,
    f: Formula,
    budget: EngineBudget = DEFAULT_BUDGET,
) -> ConsequenceResult:
    """Decompose ``sigma |- f`` into multiplicative goals and settle each.

    Proved iff every goal is proved; any refuted goal refutes the
    consequence (the decomposition is equivalence-preserving over chains).
    The goals share one :class:`oracles.AbelianMemo`, so in ``A`` a goal
    that an earlier goal's countermodel refutes skips the LP; every goal is
    still decided and checked.
    """
    logic = resolve_logic(logic)
    goals = decompose_consequence(sigma, f)
    memo = AbelianMemo()
    results = tuple(prove_disjunction(logic, g, budget, memo) for g in goals)
    if any(r.status == "refuted" for r in results):
        status = "refuted"
    elif any(r.status == "unknown" for r in results):
        status = "unknown"
    else:
        status = "proved"
    return ConsequenceResult(status, results)
