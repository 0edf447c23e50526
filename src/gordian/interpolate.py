"""Uniform deductive interpolation.

Given hypotheses and a subset X of their variables, an interpolant is a
finite set over X with exactly the same consequences among formulas whose
shared variables lie in X.

Multiplicative level:

* Abelian: the hypotheses' linear forms generate a cone; projecting the
  cone's polar inequality system onto X by Fourier-Motzkin yields rows that
  generate exactly the cone's intersection with the X-subspace, and each
  row renders back as the implication (negative part) -> (positive part).
  An elimination past :data:`linalg.FM_ROW_CAP` rows raises
  SizeBudgetExceededError.
* Mingle logics (X of at most 2 variables): the finitely many semantic
  classes of formulas over X are enumerated by their value tables on the
  decision chains for X, each candidate's table computed from its two
  children's through the chain's fusion and implication tables.  A class
  is kept when its table is designated at every point of X that a
  valuation designating all hypotheses restricts to, relabelled: the
  level search's projections (:meth:`chains.LevelSearch.projections`),
  which by the relabelling argument lie in the decision chains for X.

Full-language hypotheses reduce to the multiplicative level through the
branches that :func:`normalize.hypothesis_branches` forks them into, the
same branches :func:`normalize.decompose_consequence` decides; the
branches' interpolants join as one disjunction of their conjunctions.
"""

from __future__ import annotations

import functools
import itertools

from .chains import decision_chains, level_search
from .engine import DEFAULT_BUDGET, EngineBudget, prove_consequence
from .errors import EnumerationBudgetExceededError, UnsupportedLogicError
from .linalg import linear_coefficients, project_fm
from .logics import LogicSpec, resolve_logic
from .normalize import hypothesis_branches
from .syntax import (
    ONE,
    Conj,
    Disj,
    Formula,
    Fuse,
    Imp,
    Record,
    Var,
    ZERO,
    power,
    render,
    require_multiplicative,
    variables,
    variables_of,
)

# Read at call time: the semantic classes one enumeration may find, and the
# branches one lifted interpolation may fork.
CLASS_CAP = 4096
MAX_BRANCHES = 256


def _form_to_formula(form) -> Formula:
    """A multiplicative formula whose linear reading is the coefficient
    mapping ``form``: (product of negative-coefficient powers) -> (product
    of positive ones)."""

    def monomial(signed: int) -> Formula:
        factors = [power(Var(v), c * signed) for v, c in sorted(form.items()) if c * signed > 0]
        out = ONE
        for f in factors:
            out = f if out == ONE else Fuse(out, f)
        return out

    return Imp(monomial(-1), monomial(+1))


def mult_uniform_interpolant(
    logic: LogicSpec | str,
    sigma,
    x_vars,
    depth: int = 4,
) -> list[Formula]:
    """:func:`lift_interpolant` for multiplicative hypotheses, which it
    checks are multiplicative."""
    sigma = list(sigma)
    require_multiplicative(sigma)
    return lift_interpolant(logic, sigma, x_vars, depth)


def _mult_interpolant(
    logic: LogicSpec, sigma: list[Formula], x_vars: frozenset[str], depth: int
) -> list[Formula]:
    if logic.oracle_kind == "abelian":
        rows = project_fm([linear_coefficients(f) for f in sigma], x_vars)
        return sorted((_form_to_formula(r) for r in rows), key=render)
    if logic.oracle_kind == "sugihara":
        if len(x_vars) > 2:
            raise UnsupportedLogicError(
                f"{logic.name}: enumeration supports at most 2 shared variables"
            )
        x_order = sorted(x_vars)
        # X's atoms as the disjuncts: a branch may lack a variable of X
        search = level_search(tuple(sigma), tuple(Var(x) for x in x_order))
        return sorted(_enumerate_classes(logic, x_order, depth, search), key=render)
    raise UnsupportedLogicError(f"no interpolation procedure for {logic.name}")


def _enumerate_classes(logic: LogicSpec, x_vars: list[str], depth: int, search=None) -> list[Formula]:
    """One shortest representative per semantic class of multiplicative
    formulas over ``x_vars``, classes separated by their value vectors over
    the decision chains.  Local finiteness makes this saturate; more than
    :data:`CLASS_CAP` classes raise EnumerationBudgetExceededError.  With
    the ``search`` of some hypotheses, only the classes designated at each
    of its projections onto ``x_vars`` on the chains.

    A signature is the value vector over every chain's full grid, each
    chain's values coded as distinct bytes, so that a candidate's signature
    is read off its children's through the fusion and implication tables.
    Each depth combines only pairs with at least one class found at the
    depth before (every other pair was tried already), in the same order as
    the full product of the known classes, so the representatives found are
    those of the full product.
    """
    chains = decision_chains(logic, len(x_vars))
    elements = [(chain, v) for chain in chains for v in chain.carrier]
    n = len(elements)
    if n * n > 256:
        raise UnsupportedLogicError(f"{n} chain elements are too many for byte tables")
    code = {element: i for i, element in enumerate(elements)}
    fuse_table, imp_table = bytearray(256), bytearray(256)
    for chain in chains:
        for table, operation in ((fuse_table, chain.fuse), (imp_table, chain.imp)):
            for a, b in itertools.product(chain.carrier, repeat=2):
                table[code[chain, a] * n + code[chain, b]] = code[chain, operation(a, b)]
    grids = [
        (chain, list(itertools.product(chain.carrier, repeat=len(x_vars))))
        for chain in chains
    ]
    width = sum(len(grid) for _, grid in grids)

    classes: dict[bytes, Formula] = {}
    # the atoms' values at a point: variable i's is point[i]
    atoms = [(Var(v), lambda chain, point, i=i: point[i]) for i, v in enumerate(x_vars)]
    atoms += [(ONE, lambda chain, point: chain.unit), (ZERO, lambda chain, point: chain.zero)]
    for atom, value in atoms:
        sig = bytes(code[chain, value(chain, point)] for chain, grid in grids for point in grid)
        classes.setdefault(sig, atom)
    fresh_from = 0  # classes at this index and later were found last depth
    for _ in range(depth):
        # Read as big-endian integers, n * sig_a + sig_b spells every pair
        # code a * n + b at once: each is below 256, so no digit carries.
        known = [(int.from_bytes(sig, "big"), f) for sig, f in classes.items()]
        fresh = known[fresh_from:]
        for position, (number_a, a) in enumerate(known):
            partners = known if position >= fresh_from else fresh
            scaled = n * number_a
            for number_b, b in partners:
                pairs = (scaled + number_b).to_bytes(width, "big")
                for build, table in ((Fuse, fuse_table), (Imp, imp_table)):
                    sig = pairs.translate(table)
                    if sig not in classes:
                        classes[sig] = build(a, b)
                        if len(classes) > CLASS_CAP:
                            raise EnumerationBudgetExceededError(
                                f"more than {CLASS_CAP} semantic classes"
                            )
        fresh_from = len(known)
        if len(classes) == fresh_from:
            break
    if search is None:
        return list(classes.values())
    kept = {(chain, point) for chain, _ in grids for point in search.projections(chain, x_vars)}
    order = [(chain, point) for chain, grid in grids for point in grid]  # the signatures' order
    at = [i for i, pair in enumerate(order) if pair in kept]
    designated = bytes(chain.designated(v) for chain, v in elements)
    return [f for sig, f in classes.items() if all(designated[sig[i]] for i in at)]


def lift_interpolant(logic: LogicSpec | str, sigma, x_vars, depth: int = 4) -> list[Formula]:
    """Interpolant for arbitrary hypotheses.

    The hypotheses fork into their multiplicative branches
    (:func:`normalize.hypothesis_branches`, at most :data:`MAX_BRANCHES`),
    and each branch gets its multiplicative interpolant, the mingle logics'
    enumerated to ``depth``.  One branch's interpolant is the answer as it
    is.  Of several, an empty one means that branch admits only theorems
    over X, and the answer is empty too; otherwise it is the one formula
    b1 | (b2 | (... | bn)), each bi the conjunction of branch i's
    interpolant, in branch order.
    """
    logic = resolve_logic(logic)
    sigma = list(sigma)
    x_vars = frozenset(x_vars)
    if not x_vars <= variables_of(sigma):
        raise ValueError("X must be a subset of the hypotheses' variables")
    parts = [
        _mult_interpolant(logic, list(branch), x_vars, depth)
        for branch in hypothesis_branches(sigma, MAX_BRANCHES)
    ]
    if len(parts) == 1:
        return parts[0]
    if not all(parts):
        return []
    conjunctions = [functools.reduce(Conj, part) for part in parts]
    return [functools.reduce(lambda right, left: Disj(left, right), reversed(conjunctions))]


class InterpolationCheck(Record):
    name: str
    ok: bool
    detail: str = ""


class InterpolationReport(Record):
    checks: tuple[InterpolationCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> InterpolationCheck | None:
        return next((c for c in self.checks if not c.ok), None)


def verify_interpolant(
    logic: LogicSpec | str,
    sigma,
    pi,
    x_vars,
    probes,
    budget: EngineBudget = DEFAULT_BUDGET,
) -> InterpolationReport:
    """Check the defining equivalence on concrete probes: the interpolant
    uses only X, follows from the hypotheses, and proves exactly the same
    probes.  Probes must share only X-variables with the hypotheses."""
    logic = resolve_logic(logic)
    sigma, pi = list(sigma), list(pi)
    x_vars = frozenset(x_vars)
    checks: list[InterpolationCheck] = []

    stray = variables_of(pi) - x_vars
    checks.append(
        InterpolationCheck(
            "variable_condition",
            not stray,
            "" if not stray else f"interpolant uses {sorted(stray)}",
        )
    )
    for f in pi:
        ok = prove_consequence(logic, sigma, f, budget).status == "proved"
        checks.append(
            InterpolationCheck("forward_derivability", ok, render(f))
        )
    shared_bound = variables_of(sigma)
    for probe in probes:
        if variables(probe) & (shared_bound - x_vars):
            raise ValueError(f"probe {render(probe)} violates the variable side-condition")
        from_sigma = prove_consequence(logic, sigma, probe, budget).status
        from_pi = prove_consequence(logic, pi, probe, budget).status
        checks.append(
            InterpolationCheck(
                "probe_equivalence",
                from_sigma == from_pi,
                f"{render(probe)}: {from_sigma} vs {from_pi}",
            )
        )
    return InterpolationReport(tuple(checks))
