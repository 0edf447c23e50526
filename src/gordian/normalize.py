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

Disjuncts, hypotheses, clauses and goals are ordered structurally
(:func:`structural_order`): by ranks computed bottom-up once per node, by
size, kind and the children's ranks, so the order costs the distinct nodes
of the formulas, never their printed length, and depends neither on the
input order nor on the hash seed.  A decomposition ranks all its literals
in one pass.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable

from .errors import SizeBudgetExceededError
from .syntax import (
    Binary,
    Conj,
    Disj,
    Formula,
    Fuse,
    Imp,
    MVar,
    One,
    Record,
    Var,
    Zero,
    render,
    require_multiplicative,
)

# Read at call time: the literals of one formula's clause form, and the
# goals of one decomposition.
LITERAL_CAP = 4096
GOAL_CAP = 4096


class MultClause(Record):
    """Nonempty disjunction of multiplicative formulas, which :meth:`of`
    and the decomposition put in the structural order
    (:func:`structural_order`)."""

    disjuncts: tuple[Formula, ...]

    def _validate(self) -> None:
        if not self.disjuncts:
            raise ValueError("a clause needs at least one disjunct")
        require_multiplicative(self.disjuncts)

    @staticmethod
    def of(disjuncts) -> "MultClause":
        unique = set(disjuncts)
        return MultClause(tuple(sorted(unique, key=structural_order(unique))))

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
        hypotheses, disjuncts = set(hypotheses), set(disjuncts)
        key = structural_order(itertools.chain(hypotheses, disjuncts))
        return Goal(tuple(sorted(hypotheses, key=key)), MultClause(tuple(sorted(disjuncts, key=key))))

    def render(self) -> str:
        left = ", ".join(render(h) for h in self.hypotheses)
        return f"{left} |- {self.clause.render()}" if left else f"|- {self.clause.render()}"


# the node kinds in the order the structural rank reads them
_KINDS = {kind: i for i, kind in enumerate((Var, MVar, One, Zero, Fuse, Imp, Conj, Disj))}
_size = operator.attrgetter("size")


def structural_order(formulas) -> Callable[[Formula], int]:
    """A sort key on ``formulas`` and their subformulas: each node's rank
    in the structural order, an int.  Nodes compare by size, then kind,
    then the ranks of their left and right children; leaves by kind and
    name.  Ranks are computed bottom-up, once per node object, so equal
    formulas share a rank, and the order of two formulas does not depend on
    what else is ranked with them, on the input order or on the hash seed.
    The key reads a rank by the node's identity, so ``formulas`` must
    outlive it."""
    nodes: dict[int, Formula] = {}  # by id, as in _fold
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if isinstance(node, Binary):
                stack += (node.left, node.right)
    rank: dict[int, int] = {}
    for size, group in itertools.groupby(sorted(nodes.values(), key=_size), key=_size):
        if size == 1:
            keyed = sorted((_KINDS[type(n)], getattr(n, "name", ""), id(n)) for n in group)
        else:
            keyed = sorted((_KINDS[type(n)], rank[id(n.left)], rank[id(n.right)], id(n)) for n in group)
        previous = None
        for *key, node_id in keyed:
            if key != previous:
                previous, next_rank = key, len(rank)
            rank[node_id] = next_rank
    return lambda f: rank[id(f)]


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


def _drop_subsumed(raw) -> list[frozenset]:
    """The distinct literal sets of the ``raw`` clauses that contain no
    other.

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
    return kept


def _clause_forms(formulas) -> tuple[list[list[MultClause]], Callable[[Formula], int]]:
    """The clauses of each of ``formulas`` (:func:`to_mult_clauses`), and
    the structural order of all their literals, ranked in one pass.  A
    clause lists its literals in that order, and the clauses of a formula
    are sorted by those lists."""
    forms = []
    for f in formulas:
        budget = _Budget(LITERAL_CAP)
        forms.append(_drop_subsumed(_cnf(_push(f, budget), budget)))
    key = structural_order(literal for form in forms for literals in form for literal in literals)
    ranks = lambda disjuncts: [key(d) for d in disjuncts]
    ordered = [sorted((sorted(literals, key=key) for literals in form), key=ranks) for form in forms]
    return [[MultClause(tuple(d)) for d in form] for form in ordered], key


def to_mult_clauses(f: Formula) -> list[MultClause]:
    """Clauses whose conjunction is equivalent to ``f`` over chains, in the
    structural order.

    Raises SizeBudgetExceededError when the clause form would exceed
    :data:`LITERAL_CAP` literals (or the rewriting work guard trips first)."""
    return _clause_forms([f])[0][0]


def _branches(forms, cap: int) -> list[tuple[Formula, ...]]:
    """One disjunct from every clause of ``forms``, in :func:`itertools.product`
    order; more than ``cap`` choices raise SizeBudgetExceededError."""
    choices = [clause.disjuncts for form in forms for clause in form]
    total = 1
    for disjuncts in choices:
        total *= len(disjuncts)
        if total > cap:
            raise SizeBudgetExceededError(f"the hypotheses fork more than {cap} branches")
    return list(itertools.product(*choices))


def hypothesis_branches(sigma, cap: int) -> list[tuple[Formula, ...]]:
    """The multiplicative branches of the hypotheses ``sigma``: each is
    normalized to clauses, and a branch picks one disjunct from every
    clause, in :func:`itertools.product` order.  More than ``cap``
    branches raise SizeBudgetExceededError."""
    return _branches(_clause_forms(sigma)[0], cap)


def decompose_consequence(sigma, f: Formula) -> list[Goal]:
    """Equivalent list of multiplicative goals for ``sigma |- f``: one per
    hypothesis branch (:func:`hypothesis_branches`) and conclusion clause,
    in the structural order of their hypotheses, then of their disjuncts.
    More than :data:`GOAL_CAP` goals raise SizeBudgetExceededError.
    """
    (conclusion, *hypotheses), key = _clause_forms([f, *sigma])
    branches = _branches(hypotheses, GOAL_CAP // len(conclusion))
    goals = {
        Goal(tuple(sorted(set(picked), key=key)), clause)
        for picked in branches
        for clause in conclusion
    }
    order = lambda g: [len(g.hypotheses), *map(key, g.hypotheses), *map(key, g.clause.disjuncts)]
    return sorted(goals, key=order)
