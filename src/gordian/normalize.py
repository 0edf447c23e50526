"""Reduction of arbitrary consequences to multiplicative disjunction goals.

Over totally ordered models both lattice connectives distribute and the
multiplicative connectives push through them:

    (f & g) -> h  =  (f -> h) | (g -> h)      f -> (g & h)  =  (f -> g) & (f -> h)
    (f | g) -> h  =  (f -> h) & (g -> h)      f -> (g | h)  =  (f -> g) | (f -> h)
    f * (g & h)   =  (f * g) & (f * h)        f * (g | h)   =  (f * g) | (f * h)

Applying these inside-out leaves a lattice tree over multiplicative
formulas, which then flattens to a conjunction of disjunctive clauses.
Hypotheses split on conjunction and fork goals on disjunction.
"""

from __future__ import annotations

import itertools

from .errors import NotMultiplicativeError, SizeBudgetExceededError
from .syntax import (
    Conj,
    Disj,
    Formula,
    Fuse,
    Imp,
    One,
    Record,
    Var,
    Zero,
    render,
    require_multiplicative,
)

DEFAULT_LITERAL_CAP = 4096
DEFAULT_GOAL_CAP = 4096


class MultClause(Record):
    """Nonempty disjunction of multiplicative formulas, canonically ordered."""

    disjuncts: tuple[Formula, ...]

    def _validate(self) -> None:
        if not self.disjuncts:
            raise ValueError("a clause needs at least one disjunct")
        require_multiplicative(self.disjuncts)

    @staticmethod
    def of(disjuncts) -> "MultClause":
        unique = sorted(set(disjuncts), key=render)
        return MultClause(tuple(unique))

    def render(self) -> str:
        return " | ".join(render(d) for d in self.disjuncts)


class Goal(Record):
    """Multiplicative hypotheses entailing a disjunctive clause."""

    hypotheses: tuple[Formula, ...]
    clause: MultClause

    def _validate(self) -> None:
        require_multiplicative(self.hypotheses)

    @staticmethod
    def of(hypotheses, disjuncts) -> "Goal":
        return Goal(tuple(sorted(set(hypotheses), key=render)), MultClause.of(disjuncts))

    def render(self) -> str:
        left = ", ".join(render(h) for h in self.hypotheses)
        return f"{left} |- {self.clause.render()}" if left else f"|- {self.clause.render()}"


_WORK_FACTOR = 32  # internal guard: rewriting work per permitted output literal


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap * _WORK_FACTOR
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise SizeBudgetExceededError(
                f"normalization exceeded {self.cap} rewrite steps"
            )


def _push(f: Formula, budget: _Budget) -> Formula:
    """Rewrite to a lattice tree whose leaves are multiplicative."""
    budget.charge()
    if isinstance(f, (Var, One, Zero)):
        return f
    if isinstance(f, (Conj, Disj)):
        return type(f)(_push(f.left, budget), _push(f.right, budget))
    if isinstance(f, Imp):
        return _imp(_push(f.left, budget), _push(f.right, budget), budget)
    if isinstance(f, Fuse):
        return _fuse(_push(f.left, budget), _push(f.right, budget), budget)
    raise NotMultiplicativeError(f"cannot normalize {f!r}")


def _imp(left: Formula, right: Formula, budget: _Budget) -> Formula:
    budget.charge()
    if isinstance(left, Conj):
        return Disj(_imp(left.left, right, budget), _imp(left.right, right, budget))
    if isinstance(left, Disj):
        return Conj(_imp(left.left, right, budget), _imp(left.right, right, budget))
    if isinstance(right, Conj):
        return Conj(_imp(left, right.left, budget), _imp(left, right.right, budget))
    if isinstance(right, Disj):
        return Disj(_imp(left, right.left, budget), _imp(left, right.right, budget))
    return Imp(left, right)


def _fuse(left: Formula, right: Formula, budget: _Budget) -> Formula:
    budget.charge()
    if isinstance(left, (Conj, Disj)):
        return type(left)(
            _fuse(left.left, right, budget), _fuse(left.right, right, budget)
        )
    if isinstance(right, (Conj, Disj)):
        return type(right)(
            _fuse(left, right.left, budget), _fuse(left, right.right, budget)
        )
    return Fuse(left, right)


def _cnf(f: Formula, budget: _Budget) -> list[tuple[Formula, ...]]:
    if isinstance(f, Conj):
        return _cnf(f.left, budget) + _cnf(f.right, budget)
    if isinstance(f, Disj):
        left, right = _cnf(f.left, budget), _cnf(f.right, budget)
        out = []
        for a, b in itertools.product(left, right):
            budget.charge(len(a) + len(b))
            out.append(a + b)
        return out
    budget.charge()
    return [(f,)]


def _drop_subsumed(raw, max_literals: int) -> list[MultClause]:
    """The distinct literal sets of the ``raw`` clauses that contain no
    other, as clauses sorted by their rendering.

    Equal-length distinct sets cannot contain each other, and containment
    is transitive, so each set is tested only against the kept sets of
    strictly smaller length.  A set kept in that order stays in the result,
    so the clause form is known to exceed ``max_literals`` (raising
    SizeBudgetExceededError) as soon as the kept sets do."""
    distinct = sorted({frozenset(clause) for clause in raw}, key=len)
    kept: list[frozenset] = []
    total = 0
    for length, group in itertools.groupby(distinct, key=len):
        shorter = list(kept)
        for literals in group:
            if any(smaller < literals for smaller in shorter):
                continue
            kept.append(literals)
            total += length
            if total > max_literals:
                raise SizeBudgetExceededError(
                    f"clause form has more than {max_literals} literals"
                )
    return sorted((MultClause.of(literals) for literals in kept), key=MultClause.render)


def to_mult_clauses(f: Formula, max_literals: int = DEFAULT_LITERAL_CAP) -> list[MultClause]:
    """Clauses whose conjunction is equivalent to ``f`` over chains.

    Raises SizeBudgetExceededError when the clause form would exceed
    ``max_literals`` literals (or the rewriting work guard trips first)."""
    budget = _Budget(max_literals)
    return _drop_subsumed(_cnf(_push(f, budget), budget), max_literals)


def decompose_consequence(
    sigma,
    f: Formula,
    max_literals: int = DEFAULT_LITERAL_CAP,
    max_goals: int = DEFAULT_GOAL_CAP,
) -> list[Goal]:
    """Equivalent list of multiplicative goals for ``sigma |- f``.

    Every hypothesis is normalized to clauses; conjunctions become separate
    hypotheses and each disjunctive clause forks the goal once per disjunct.
    The conclusion contributes one goal per clause.
    """
    hyp_clauses: list[MultClause] = []
    for h in sigma:
        hyp_clauses.extend(to_mult_clauses(h, max_literals))
    conclusion = to_mult_clauses(f, max_literals)

    total = len(conclusion)
    for clause in hyp_clauses:
        total *= len(clause.disjuncts)
        if total > max_goals:
            raise SizeBudgetExceededError(f"decomposition exceeds {max_goals} goals")

    goals = []
    choices = [clause.disjuncts for clause in hyp_clauses]
    for picked in itertools.product(*choices):
        for clause in conclusion:
            goals.append(Goal.of(picked, clause.disjuncts))
    return sorted(set(goals), key=Goal.render)
