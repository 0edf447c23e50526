"""Reduction of arbitrary consequences to multiplicative disjunction goals.

Over totally ordered models both lattice connectives distribute and the
multiplicative connectives push through them:

    (f & g) -> h  =  (f -> h) | (g -> h)      f -> (g & h)  =  (f -> g) & (f -> h)
    (f | g) -> h  =  (f -> h) & (g -> h)      f -> (g | h)  =  (f -> g) | (f -> h)
    f * (g & h)   =  (f * g) & (f * h)        f * (g | h)   =  (f * g) | (f * h)

Applying these inside-out leaves a lattice tree over multiplicative
formulas, which then flattens to a conjunction of disjunctive clauses.
Both steps are loops (:func:`_fold`) over the subformulas above the
multiplicative ones, so formulas of any depth normalize; the work guard
counts one step per multiplicative leaf computed and per literal of each
clause built.  Hypotheses split on conjunction and fork on disjunction in
one place, :func:`hypothesis_branches`, which both the decomposition and
interpolation's lifting read.
"""

from __future__ import annotations

import itertools
import operator

from .errors import SizeBudgetExceededError
from .syntax import (
    Conj,
    Disj,
    Formula,
    Fuse,
    Imp,
    Record,
    render,
    require_multiplicative,
)

# Read at call time: the literals of one formula's clause form, and the
# goals of one decomposition.
LITERAL_CAP = 4096
GOAL_CAP = 4096


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


def _fold(f: Formula, leaf, connective, budget: _Budget):
    """The value of ``f`` computed bottom-up once per node object, with an
    explicit stack: ``leaf(g)`` at each maximal multiplicative subtree ``g``,
    which is not descended into, one budget step each, and above them
    ``connective[type(node)]`` applied to the children's values.

    It is not :func:`syntax.fold`, which descends to the leaves: here the
    multiplicative subtrees are the leaves, so they are neither walked nor
    rebuilt."""
    values: dict[int, object] = {}  # by id, as in syntax.fold
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in values:
            continue
        if node.multiplicative:
            budget.charge()
            values[id(node)] = leaf(node)
        elif id(node.left) in values and id(node.right) in values:
            values[id(node)] = connective[type(node)](values[id(node.left)], values[id(node.right)])
        else:
            stack += (node, node.right, node.left)
    return values[id(f)]


def _push(f: Formula, budget: _Budget) -> Formula:
    """Rewrite to a lattice tree whose leaves are multiplicative."""
    connective = {
        Conj: Conj,
        Disj: Disj,
        Imp: lambda left, right: _distribute(left, right, Imp, True, budget),
        Fuse: lambda left, right: _distribute(left, right, Fuse, False, budget),
    }
    return _fold(f, lambda g: g, connective, budget)


def _distribute(left, right, build, swap: bool, budget: _Budget) -> Formula:
    """``left``'s lattice tree, its ``&`` and ``|`` exchanged when ``swap``,
    with each leaf ``a`` replaced by ``right``'s lattice tree whose leaves
    ``b`` are replaced by ``build(a, b)``."""
    keep = {Conj: Conj, Disj: Disj}
    inner = lambda a: _fold(right, lambda b: build(a, b), keep, budget)
    return _fold(left, inner, {Conj: Disj, Disj: Conj} if swap else keep, budget)


def _cnf(f: Formula, budget: _Budget) -> list[tuple[Formula, ...]]:
    """The distinct clauses of the lattice tree ``f``, a tuple of literals
    each.  A conjunction merges its children's clauses and builds none, and
    a disjunction's clauses cost their lengths, so no clause set outgrows
    the steps charged, however much of ``f`` is shared."""

    def disj(left, right):
        out = {}
        for a, b in itertools.product(left, right):
            budget.charge(len(a) + len(b))
            out[a + b] = None
        return out

    return list(_fold(f, lambda g: {(g,): None}, {Conj: operator.or_, Disj: disj}, budget))


def _drop_subsumed(raw) -> list[MultClause]:
    """The distinct literal sets of the ``raw`` clauses that contain no
    other, as clauses sorted by their rendering.

    Equal-length distinct sets cannot contain each other, and containment
    is transitive, so each set is tested only against the kept sets of
    strictly smaller length.  A set kept in that order stays in the result,
    so the clause form is known to exceed :data:`LITERAL_CAP` (raising
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
            if total > LITERAL_CAP:
                raise SizeBudgetExceededError(
                    f"clause form has more than {LITERAL_CAP} literals"
                )
    return sorted((MultClause.of(literals) for literals in kept), key=MultClause.render)


def to_mult_clauses(f: Formula) -> list[MultClause]:
    """Clauses whose conjunction is equivalent to ``f`` over chains.

    Raises SizeBudgetExceededError when the clause form would exceed
    :data:`LITERAL_CAP` literals (or the rewriting work guard trips first)."""
    budget = _Budget(LITERAL_CAP)
    return _drop_subsumed(_cnf(_push(f, budget), budget))


def hypothesis_branches(sigma, cap: int) -> list[tuple[Formula, ...]]:
    """The multiplicative branches of the hypotheses ``sigma``: each is
    normalized to clauses, and a branch picks one disjunct from every
    clause, in :func:`itertools.product` order.  More than ``cap``
    branches raise SizeBudgetExceededError."""
    choices = [clause.disjuncts for h in sigma for clause in to_mult_clauses(h)]
    total = 1
    for disjuncts in choices:
        total *= len(disjuncts)
        if total > cap:
            raise SizeBudgetExceededError(f"the hypotheses fork more than {cap} branches")
    return list(itertools.product(*choices))


def decompose_consequence(sigma, f: Formula) -> list[Goal]:
    """Equivalent list of multiplicative goals for ``sigma |- f``: one per
    hypothesis branch (:func:`hypothesis_branches`) and conclusion clause.
    More than :data:`GOAL_CAP` goals raise SizeBudgetExceededError.
    """
    conclusion = to_mult_clauses(f)
    branches = hypothesis_branches(sigma, GOAL_CAP // len(conclusion))
    goals = [Goal.of(picked, clause.disjuncts) for picked in branches for clause in conclusion]
    return sorted(set(goals), key=Goal.render)
