"""Shared oracles and generators for the test suite.

The semantic checks here deliberately take different routes than the
library code they validate: the Abelian goal check solves for a refuting
valuation directly (the primal side), and the chain check evaluates the
un-decomposed disjunction formula through the generic evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from random import Random

from gordian.chains import brute_force_consequence, sugihara_chain
from gordian.linalg import (
    Combination,
    Separation,
    feasible_point_or_farkas,
    linear_alternative,
    translate_abelian,
)
from gordian.normalize import Goal
from gordian.rand import random_mult_formula
from gordian.syntax import Conj, Disj, Formula, MVar, One, Var, Zero


def conj_all(fs) -> Formula:
    return reduce(Conj, fs)


def disj_all(fs) -> Formula:
    return reduce(Disj, fs)


def form_columns(forms) -> list[list[int]]:
    """The linear forms' coefficient vectors over their sorted variables,
    as columns for :func:`linalg.linear_alternative`."""
    variables = sorted(frozenset().union(*(f.variables() for f in forms)))
    return [[f.get(v) for v in variables] for f in forms]


def in_cone(target, generators) -> Combination | Separation:
    """The one LP with ``target`` as its one form and the generators as
    hypotheses: a combination puts a multiple of ``target`` in their cone."""
    target_column, *columns = form_columns([target] + list(generators))
    return linear_alternative([target_column], columns)


def random_goal(
    rng: Random,
    names=("p", "q", "r"),
    max_disjuncts: int = 3,
    max_hyps: int = 3,
    max_depth: int = 4,
) -> Goal:
    names = list(names)
    disjuncts = [
        random_mult_formula(rng, names, rng.randint(1, max_depth))
        for _ in range(rng.randint(1, max_disjuncts))
    ]
    hyps = [
        random_mult_formula(rng, names, rng.randint(1, max_depth))
        for _ in range(rng.randint(0, max_hyps))
    ]
    return Goal.of(hyps, disjuncts)


def abelian_goal_countermodel(goal: Goal) -> dict[str, Fraction] | None:
    """Rational valuation with every hypothesis form >= 0 and every disjunct
    form <= -1, or None.  Strictness is scaled away: the forms are
    homogeneous, so a refuting valuation exists iff one exists at gap 1."""
    d_forms = [translate_abelian(d) for d in goal.clause.disjuncts]
    h_forms = [translate_abelian(h) for h in goal.hypotheses]
    variables = sorted(
        frozenset().union(*(f.variables() for f in d_forms + h_forms))
    )
    nv, nh, nd = len(variables), len(h_forms), len(d_forms)
    # unknowns: v+ (nv), v- (nv), hyp slacks (nh), disjunct slacks (nd)
    rows = []
    rhs = []
    for j, h in enumerate(h_forms):
        coeffs = [h.get(v) for v in variables]
        rows.append(
            coeffs + [-c for c in coeffs] + [-1 if t == j else 0 for t in range(nh)] + [0] * nd
        )
        rhs.append(0)
    for i, d in enumerate(d_forms):
        coeffs = [d.get(v) for v in variables]
        rows.append(
            coeffs + [-c for c in coeffs] + [0] * nh + [1 if t == i else 0 for t in range(nd)]
        )
        rhs.append(-1)
    x, _ = feasible_point_or_farkas(rows, rhs)
    if x is None:
        return None
    valuation = {
        v: x[idx] - x[nv + idx] for idx, v in enumerate(variables)
    }
    assert all(h.evaluate(valuation) >= 0 for h in h_forms)
    assert all(d.evaluate(valuation) <= -1 for d in d_forms)
    return valuation


def rmt_chain_family(k: int, widen: int = 0):
    return [sugihara_chain(k + 2 + widen, odd=False), sugihara_chain(k + 1 + widen, odd=True)]


def iuml_chain_family(k: int, widen: int = 0):
    return [sugihara_chain(k + 1 + widen, odd=True)]


def goal_holds_brute_force(chains, goal: Goal) -> bool:
    disjunction: Formula = goal.clause.disjuncts[0]
    for d in goal.clause.disjuncts[1:]:
        disjunction = Disj(disjunction, d)
    return brute_force_consequence(chains, goal.hypotheses, disjunction) is None


def replace(record, **changes):
    """A copy of a :class:`gordian.syntax.Record` with the named fields changed."""
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


def meta_to_vars(template: Formula) -> Formula:
    """Turn schema metavariables into object variables so templates can be
    evaluated; validity under all element assignments implies validity of
    every instance."""
    if isinstance(template, MVar):
        return Var("mv_" + template.name.lower())
    if isinstance(template, (Var, One, Zero)):
        return template
    return type(template)(meta_to_vars(template.left), meta_to_vars(template.right))
