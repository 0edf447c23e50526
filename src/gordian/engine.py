"""The theorem-of-alternatives engine.

A disjunction goal is settled by finding a not-all-zero natural vector
``lambda`` whose weighted sum of the disjuncts is derivable from the
hypotheses in the multiplicative fragment, or by exhibiting a countermodel.
:func:`prove_disjunction` hands the goal to its logic's procedure in
:mod:`oracles`:

* Abelian: :func:`oracles.abelian_alternative`, the one exact LP, decides
  both directions at once: its combination gives ``lambda`` and the
  hypotheses' weights, its separation the integer countermodel.
* Mingle logics: :func:`oracles.prove_subsets`, ``lambda`` over 0/1
  vectors, from one value table per decision chain.
* Everything else: first a countermodel in the model classes the logic
  is sound for (:func:`oracles.class_countermodel`: Z through the same LP
  separation, then Sugihara chains), then iterative deepening on
  ``sum(lambda)``, asking :func:`oracles.decide` (the Hilbert search) for
  each weighted sum.  Only once the model classes have failed is
  exhaustion reported, as unknown, never refuted.

A certificate expands back into the disjunction by peeling one summand at a
time with excluded middle, which is recorded as a checkable step list.
"""

from __future__ import annotations

from .errors import InvalidCertificateError, LogicWithoutToAError
from .logics import LogicSpec, resolve_logic
from .normalize import Goal, decompose_consequence
from .oracles import (
    Countermodel,
    HilbertBudget,
    LinearWitness,
    ProofResult,
    ToACertificate,
    abelian_alternative,
    check_model_classes,
    class_countermodel,
    combination_formula,
    decide,
    prove_subsets,
    verify_linear_witness,
)
from .syntax import ONE, ZERO, Disj, Formula, Imp, Record, Var, Zero, neg, render


class EngineBudget(Record):
    lambda_cap: int = 16
    widen: int = 0
    max_literals: int = 4096
    max_goals: int = 4096
    hilbert: HilbertBudget = HilbertBudget()  # immutable, so one instance serves every budget


DEFAULT_BUDGET = EngineBudget()


def prove_disjunction(
    logic: LogicSpec | str,
    goal: Goal,
    budget: EngineBudget = DEFAULT_BUDGET,
    strategy: str = "auto",
) -> ProofResult:
    """Decide one multiplicative disjunction goal with certificates.

    ``strategy`` is normally ``"auto"``; ``"deepening"`` forces the generic
    iterative-deepening search even where a one-shot method exists (used to
    cross-check the subset form on the mingle logics).
    """
    logic = resolve_logic(logic)
    if not logic.has_toa:
        raise LogicWithoutToAError(f"{logic.name} has no theorem of alternatives")
    if strategy == "auto":
        strategy = {
            "abelian": "linear",
            "sugihara": "subset",
        }.get(logic.oracle_kind, "deepening")
    if strategy == "linear":
        return _prove_abelian(goal)
    if strategy == "subset":
        return prove_subsets(logic, goal, budget.widen)
    if strategy == "deepening":
        return _prove_deepening(logic, goal, budget)
    raise ValueError(f"unknown strategy {strategy!r}")


# --- Abelian: one exact LP -----------------------------------------------------


def _prove_abelian(goal: Goal) -> ProofResult:
    result = abelian_alternative(goal.hypotheses, goal.clause.disjuncts)
    if isinstance(result, Countermodel):
        return ProofResult("refuted", goal, countermodel=result)
    return _abelian_proved(goal, result.lambdas, result.mu)


def _abelian_proved(goal: Goal, lambdas, mu) -> ProofResult:
    cert = ToACertificate(tuple(lambdas), LinearWitness(tuple(mu), 1))
    combo = combination_formula(cert.lambdas, goal.clause.disjuncts)
    if not verify_linear_witness(cert.witness, goal.hypotheses, combo):
        raise InvalidCertificateError("hypothesis weights do not sum to the combination")
    return ProofResult("proved", goal, certificate=cert)


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
    if budget.lambda_cap < 1:  # no weight vector to try would read as "unknown"
        raise ValueError(f"weight-sum cap must be at least 1, not {budget.lambda_cap}")
    cm = class_countermodel(
        logic.model_classes, goal.hypotheses, goal.clause.disjuncts, budget.widen
    )
    if cm is not None:
        # No refutation rests on an unchecked declaration; theorems, which
        # no class refutes, never pay for the check.
        check_model_classes(logic)
        return ProofResult("refuted", goal, countermodel=cm)
    disjuncts = goal.clause.disjuncts
    for total in range(1, budget.lambda_cap + 1):
        for lambdas in _compositions(total, len(disjuncts)):
            combo = combination_formula(lambdas, disjuncts)
            verdict = decide(
                logic, goal.hypotheses, combo, budget=budget.hilbert, widen=budget.widen
            )
            if verdict.status == "proved":
                cert = ToACertificate(lambdas, verdict.certificate.witness)
                return ProofResult("proved", goal, certificate=cert)
    return ProofResult(
        "unknown", goal, reason=f"no combination proved with weight sum <= {budget.lambda_cap}"
    )


# --- certificate expansion ------------------------------------------------------


class ExpansionStep(Record):
    rule: str  # sum_split / dedupe / weaken / reorder
    principal: Formula | None
    disjuncts: tuple[Formula, ...]


class ExpansionSketch(Record):
    steps: tuple[ExpansionStep, ...]
    final: tuple[Formula, ...]


def expand_combination(cert: ToACertificate, goal: Goal) -> ExpansionSketch:
    """Step list taking the certified weighted sum back to the goal's
    disjunction: each sum splits into two disjuncts via excluded middle,
    duplicates collapse, zero-weight disjuncts weaken in, then reorder.
    The steps are records for an external checker, not oracle calls."""
    disjuncts = goal.clause.disjuncts
    if len(cert.lambdas) != len(disjuncts):
        raise InvalidCertificateError("weight vector does not match the goal")
    if any(l < 0 for l in cert.lambdas) or not any(cert.lambdas):
        raise InvalidCertificateError("weights must be nonnegative, not all zero")

    state = [combination_formula(cert.lambdas, disjuncts)]
    steps: list[ExpansionStep] = []

    def record(rule: str, principal: Formula | None) -> None:
        steps.append(ExpansionStep(rule, principal, tuple(state)))

    support = [(d, l) for d, l in zip(disjuncts, cert.lambdas) if l > 0]
    # peel the right-nested fold: one term splits off per step
    for position in range(len(support) - 1):
        current = state[position]
        if not (isinstance(current, Imp) and isinstance(current.left, Imp)):
            raise InvalidCertificateError("combination is not a right-nested sum")
        state[position : position + 1] = [current.left.left, current.right]
        record("sum_split", current.left.left)
    # expand each left-nested scalar multiple into copies
    position = 0
    for d, l in support:
        for _ in range(l - 1):
            current = state[position]
            state[position : position + 1] = [current.left.left, current.right]
            record("sum_split", current.left.left)
        position += l
    # collapse duplicate copies
    seen: list[Formula] = []
    idx = 0
    while idx < len(state):
        if state[idx] in seen:
            principal = state.pop(idx)
            record("dedupe", principal)
        else:
            seen.append(state[idx])
            idx += 1
    # weaken in the zero-weight disjuncts
    for d, l in zip(disjuncts, cert.lambdas):
        if l == 0:
            state.append(d)
            record("weaken", d)
    if tuple(state) != disjuncts:
        if sorted(state, key=render) != sorted(disjuncts, key=render):
            raise InvalidCertificateError("expansion did not reach the goal disjunction")
        state = list(disjuncts)
        record("reorder", None)
    return ExpansionSketch(tuple(steps), tuple(state))


def check_expansion(cert: ToACertificate, goal: Goal, sketch: ExpansionSketch) -> bool:
    """Replay an expansion sketch step by step, verifying each record."""
    state = [combination_formula(cert.lambdas, goal.clause.disjuncts)]
    for step in sketch.steps:
        after = list(step.disjuncts)
        if step.rule == "sum_split":
            if len(after) != len(state) + 1:
                return False
            i = next(
                (j for j in range(len(state)) if state[j] != after[j]), len(state) - 1
            )
            split = state[i]
            if not (
                isinstance(split, Imp)
                and isinstance(split.left, Imp)
                and isinstance(split.left.right, Zero)
                and after[i] == split.left.left
                and after[i + 1] == split.right
                and after[: i] == state[: i]
                and after[i + 2 :] == state[i + 1 :]
            ):
                return False
        elif step.rule == "dedupe":
            if len(after) != len(state) - 1 or step.principal not in state:
                return False
            if sorted(map(render, after + [step.principal])) != sorted(
                map(render, state)
            ):
                return False
            if step.principal not in after:
                return False
        elif step.rule == "weaken":
            if after[:-1] != state or after[-1] not in goal.clause.disjuncts:
                return False
        elif step.rule == "reorder":
            if sorted(map(render, after)) != sorted(map(render, state)):
                return False
        else:
            return False
        state = after
    return tuple(state) == goal.clause.disjuncts == sketch.final


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
    """
    logic = resolve_logic(logic)
    goals = decompose_consequence(
        sigma, f, max_literals=budget.max_literals, max_goals=budget.max_goals
    )
    results = tuple(prove_disjunction(logic, g, budget) for g in goals)
    if any(r.status == "refuted" for r in results):
        status = "refuted"
    elif any(r.status == "unknown" for r in results):
        status = "unknown"
    else:
        status = "proved"
    return ConsequenceResult(status, results)


class ExcludedMiddleReport(Record):
    logic: str
    excluded_middle: ConsequenceResult
    zero_to_one: ConsequenceResult

    @property
    def ok(self) -> bool:
        return (
            self.excluded_middle.status == "proved"
            and self.zero_to_one.status == "proved"
        )


def check_excluded_middle(
    logic: LogicSpec | str, budget: EngineBudget = DEFAULT_BUDGET
) -> ExcludedMiddleReport:
    """Any logic with an alternatives theorem proves p | ~p and 0 -> 1;
    run both through the engine and report."""
    logic = resolve_logic(logic)
    p = Var("p")
    lem = prove_consequence(logic, [], Disj(p, neg(p)), budget)
    zero_one = prove_consequence(logic, [], Imp(ZERO, ONE), budget)
    return ExcludedMiddleReport(logic.name, lem, zero_one)
