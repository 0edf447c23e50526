"""Shared oracles and generators for the test suite.

The semantic checks here deliberately take different routes than the
library code they validate: the Abelian goal check solves for a refuting
valuation directly (the primal side), the chain check evaluates the
un-decomposed disjunction formula over every valuation into full chains
(:func:`brute_force_consequence`), :func:`brute_force_support` tries every
subset's sum point by point, and :func:`abelian_grid_refute` searches a
bounded integer grid.  These are the reference semantics the
decision procedures are validated against.
"""

from __future__ import annotations

import itertools
from functools import reduce
from random import Random

from gordian.chains import eval_formula, eval_vector, level_search, sugihara_chain
from gordian.density import (
    DensityCertificate,
    density_goal,
    density_precondition,
    density_transform,
)
from gordian.engine import DEFAULT_BUDGET, prove_disjunction
from gordian.errors import (
    FormulaSyntaxError,
    InvalidCertificateError,
    MissingMetavariableError,
    MissingVariableError,
    NotMultiplicativeError,
    PreconditionFailedError,
)
from gordian.linalg import (
    Combination,
    Separation,
    feasible_point_or_farkas,
    linear_alternative,
    linear_coefficients,
)
from gordian.logics import resolve_logic
from gordian.normalize import Goal
from gordian.check import ProofResult, combination_formula
from gordian.oracles import find_chain_countermodel
from gordian.syntax import (
    ONE,
    ZERO,
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
    _tokenize,
    neg,
    plus,
    power,
    render,
    require_multiplicative,
    scalar,
    variables_of,
)


# --- seeded random formulas ---------------------------------------------------


def random_mult_formula(
    rng: Random,
    variables: list[str],
    max_depth: int,
    constant_weight: float = 0.2,
) -> Formula:
    """Random multiplicative formula (->, *, 1, 0 and variables only)."""
    connective = lambda: rng.choice([Imp, Fuse])
    return _random_tree(rng, variables, max_depth, 0.3, constant_weight, connective)


def random_formula(
    rng: Random,
    variables: list[str],
    max_depth: int,
    lattice_weight: float = 0.35,
    constant_weight: float = 0.2,
) -> Formula:
    """Random formula over the full language."""
    connective = lambda: rng.choice(
        [Conj, Disj] if rng.random() < lattice_weight else [Imp, Fuse]
    )
    return _random_tree(rng, variables, max_depth, 0.25, constant_weight, connective)


def _random_tree(rng, variables, max_depth, leaf_weight, constant_weight, connective) -> Formula:
    """A tree drawn node by node in preorder, left before right: below
    ``max_depth`` a leaf with probability ``leaf_weight`` (a constant with
    probability ``constant_weight``, else a variable), otherwise a
    ``connective()``; then built from the reversed preorder."""
    preorder: list = []
    depths = [max_depth]
    while depths:
        depth = depths.pop()
        if depth and rng.random() >= leaf_weight:
            preorder.append(connective())
            depths += (depth - 1, depth - 1)
        elif rng.random() < constant_weight:
            preorder.append(rng.choice([ONE, ZERO]))
        else:
            preorder.append(Var(rng.choice(variables)))
    built: list[Formula] = []
    for item in reversed(preorder):
        built.append(item if isinstance(item, Formula) else item(built.pop(), built.pop()))
    return built[0]


# --- reference semantics ---------------------------------------------------------


def brute_force_consequence(chains, sigma, f: Formula):
    """Exhaustively check the consequence over every valuation into each
    chain.  Returns ``None`` if it holds, else ``(chain, valuation)``."""
    sigma = list(sigma)
    var_order = sorted(variables_of(sigma + [f]))
    for chain in chains:
        grid = list(itertools.product(chain.carrier, repeat=len(var_order)))
        hyp_vectors = [eval_vector(chain, h, var_order, grid) for h in sigma]
        goal_vector = eval_vector(chain, f, var_order, grid)
        unit = chain.unit
        for idx, point in enumerate(grid):
            if goal_vector[idx] >= unit:
                continue
            if all(vec[idx] >= unit for vec in hyp_vectors):
                return chain, dict(zip(var_order, point))
    return None


def abelian_grid_refute(sigma, f: Formula, bound: int):
    """Search integer valuations in ``[-bound, bound]`` for one designating
    every hypothesis while refuting ``f``.  Refutation-sound only: ``None``
    proves nothing."""
    sigma = list(sigma)
    require_multiplicative(sigma + [f])
    hyp_forms = [linear_coefficients(h) for h in sigma]
    goal_form = linear_coefficients(f)
    var_order = sorted(variables_of(sigma + [f]))
    values = range(-bound, bound + 1)
    for point in itertools.product(values, repeat=len(var_order)):
        valuation = dict(zip(var_order, point))
        if evaluate_form(goal_form, valuation) < 0 and all(
            evaluate_form(h, valuation) >= 0 for h in hyp_forms
        ):
            return valuation
    return None


def conj_all(fs) -> Formula:
    return reduce(Conj, fs)


def disj_all(fs) -> Formula:
    return reduce(Disj, fs)


def evaluate_form(form, valuation):
    """The value of the coefficient mapping ``form`` at ``valuation``, which
    needs only the variables with a nonzero coefficient."""
    return sum(c * valuation[v] for v, c in form.items() if c)


def form_variables(forms) -> list[str]:
    """The variables with a nonzero coefficient in some coefficient
    mapping of ``forms``, sorted."""
    return sorted({v for f in forms for v, c in f.items() if c})


def form_columns(forms) -> list[list[int]]:
    """The coefficient mappings' vectors over their sorted variables, as
    columns for :func:`linalg.linear_alternative`."""
    variables = form_variables(forms)
    return [[f.get(v, 0) for v in variables] for f in forms]


def in_cone(target, generators) -> Combination | Separation:
    """The one LP with ``target`` as its one form and the generators as
    hypotheses: a combination puts a multiple of ``target`` in their cone."""
    target_column, *columns = form_columns([target] + list(generators))
    return linear_alternative([target_column], columns)


def fusion_chain_hypotheses() -> list[str]:
    """Forty hypotheses over x0..x11, each the fusion of some variables
    implying the fusion of others, as text.  In A their Fourier-Motzkin
    projection onto {x0, x1} grows from 1,674 to 54,600 rows at its seventh
    elimination, past :data:`linalg.FM_ROW_CAP`."""
    rng, names = Random(2), [f"x{i}" for i in range(12)]
    hyps = []
    for _ in range(40):
        k = rng.randint(2, 4)
        vs = rng.sample(names, k)
        hyps.append(f"{' * '.join(vs[k // 2:])} -> {' * '.join(vs[:k // 2])}")
    return hyps


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


def abelian_goal_countermodel(goal: Goal) -> dict[str, int] | None:
    """Integer valuation with every hypothesis form >= 0 and every disjunct
    form <= -1, or None.  Strictness is scaled away: the forms are
    homogeneous, so a refuting valuation exists iff one exists at gap 1,
    and the LP's point times its determinant ``d >= 1`` is one at gap d."""
    d_forms = [linear_coefficients(d) for d in goal.clause.disjuncts]
    h_forms = [linear_coefficients(h) for h in goal.hypotheses]
    variables = form_variables(d_forms + h_forms)
    nv, nh, nd = len(variables), len(h_forms), len(d_forms)
    # unknowns: v+ (nv), v- (nv), hyp slacks (nh), disjunct slacks (nd)
    rows = []
    rhs = []
    for j, h in enumerate(h_forms):
        coeffs = [h.get(v, 0) for v in variables]
        rows.append(
            coeffs + [-c for c in coeffs] + [-1 if t == j else 0 for t in range(nh)] + [0] * nd
        )
        rhs.append(0)
    for i, d in enumerate(d_forms):
        coeffs = [d.get(v, 0) for v in variables]
        rows.append(
            coeffs + [-c for c in coeffs] + [0] * nh + [1 if t == i else 0 for t in range(nd)]
        )
        rhs.append(-1)
    x, _, _ = feasible_point_or_farkas(rows, rhs)
    if x is None:
        return None
    valuation = {
        v: x[idx] - x[nv + idx] for idx, v in enumerate(variables)
    }
    assert all(evaluate_form(h, valuation) >= 0 for h in h_forms)
    assert all(evaluate_form(d, valuation) <= -1 for d in d_forms)
    return valuation


def check_laws(chain) -> None:
    """Exhaustively verify the closed forms of ``chain`` against the
    algebra laws: involution, residuation, the commutative monoid laws and
    order compatibility; raises ValueError on failure."""
    els = chain.carrier
    for a in els:
        if chain.fuse(chain.unit, a) != a or chain.fuse(a, chain.unit) != a:
            raise ValueError(f"{chain.name}: {chain.unit} is not a unit at {a}")
        if chain.neg(chain.neg(a)) != a:
            raise ValueError(f"{chain.name}: involution fails at {a}")
        if chain.neg(a) != chain.imp(a, chain.zero):
            raise ValueError(f"{chain.name}: negation is not {a} -> {chain.zero}")
    for a, b in itertools.product(els, repeat=2):
        if chain.fuse(a, b) != chain.fuse(b, a):
            raise ValueError(f"{chain.name}: fusion not commutative at {a},{b}")
    for a, b, c in itertools.product(els, repeat=3):
        if chain.fuse(chain.fuse(a, b), c) != chain.fuse(a, chain.fuse(b, c)):
            raise ValueError(f"{chain.name}: fusion not associative")
        if (chain.fuse(a, b) <= c) != (b <= chain.imp(a, c)):
            raise ValueError(f"{chain.name}: residuation fails at {a},{b},{c}")
        if a <= b and chain.fuse(a, c) > chain.fuse(b, c):
            raise ValueError(f"{chain.name}: fusion not order-preserving")


def rmt_chain_family(k: int, widen: int = 0):
    return [sugihara_chain(k + 2 + widen, odd=False), sugihara_chain(k + 1 + widen, odd=True)]


def iuml_chain_family(k: int, widen: int = 0):
    return [sugihara_chain(k + 1 + widen, odd=True)]


def chain_support(chains, sigma, disjuncts) -> set[int] | None:
    """``None`` when a point of ``chains`` refutes the goal, else the
    largest subset of the disjuncts whose sum the chains validate: the
    mingle procedure's two steps on chains the caller chooses."""
    if find_chain_countermodel(chains, sigma, disjuncts) is not None:
        return None
    return level_search(tuple(sigma), tuple(disjuncts)).largest_valid_subset(chains)


def relabel(point, odd: bool):
    """Map the levels in use (with 1 on even chains) onto 1..m, in order,
    keeping signs: the canonical representative of ``point``."""
    levels = sorted({abs(v) for v in point if v} | (set() if odd else {1}))
    rank = {level: i + 1 for i, level in enumerate(levels)}
    return tuple((1 if v > 0 else -1) * rank[abs(v)] if v else 0 for v in point)


def canonical_points(chain, k: int) -> list[tuple[int, ...]]:
    """The canonical valuations of k variables into ``chain``: the
    relabelled images of all of its points, in sorted order."""
    odd = chain.unit == 0
    return sorted({relabel(point, odd) for point in itertools.product(chain.carrier, repeat=k)})


def brute_force_support(chains, sigma, disjuncts) -> set[int]:
    """The union of every subset of ``disjuncts`` whose sum is designated at
    each canonical point of ``chains`` that designates all of ``sigma``.
    Each subset's combination formula, over stand-ins for the disjuncts, is
    evaluated with :func:`eval_formula` at every distinct row of the
    disjuncts' values at those points."""
    sigma, disjuncts = list(sigma), list(disjuncts)
    var_order = sorted(variables_of(sigma + disjuncts))
    rows = set()
    for chain in chains:
        for point in canonical_points(chain, len(var_order)):
            valuation = dict(zip(var_order, point))
            if all(chain.designated(eval_formula(chain, valuation, h)) for h in sigma):
                rows.add((chain, tuple(eval_formula(chain, valuation, d) for d in disjuncts)))
    stand_ins = [f"d{i}" for i in range(len(disjuncts))]
    union: set[int] = set()
    for size in range(1, len(disjuncts) + 1):
        for subset in itertools.combinations(range(len(disjuncts)), size):
            weights = [1 if i in subset else 0 for i in range(len(disjuncts))]
            total = combination_formula(weights, [Var(name) for name in stand_ins])
            if all(
                chain.designated(eval_formula(chain, dict(zip(stand_ins, row)), total))
                for chain, row in rows
            ):
                union.update(subset)
    return union


def widened(chains, widen: int):
    """The same Sugihara chains, ``widen`` elements wider on each side."""
    return [sugihara_chain(c.carrier[-1] + widen, odd=c.unit == 0) for c in chains]


def goal_holds_brute_force(chains, goal: Goal) -> bool:
    disjunction: Formula = goal.clause.disjuncts[0]
    for d in goal.clause.disjuncts[1:]:
        disjunction = Disj(disjunction, d)
    return brute_force_consequence(chains, goal.hypotheses, disjunction) is None


# --- density sampling ---------------------------------------------------------------


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
    logic,
    sample_count: int,
    seed: int = 0,
    budget=DEFAULT_BUDGET,
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


# --- recursive reference walkers ----------------------------------------------
#
# The library's formula walkers are loops.  These are the recursive walkers
# they replaced, kept verbatim in substance as the reference the loops are
# compared against (``test_walkers.py``).  They exhaust the interpreter's
# stack on formulas some hundreds of levels deep, so compare them on
# shallow inputs only.


class RefParser:
    """The recursive-descent parser: one method per precedence level."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text):
        kind, value, pos = self.peek()
        if kind == "op" and value == text:
            self.take()
            return
        raise FormulaSyntaxError(f"expected {text!r}", pos)

    def at_op(self, text):
        kind, value, _ = self.peek()
        return (kind == "op" and value == text) or (kind == "arrow" and text == "->")

    def parse_formula(self):
        f = self.parse_disj()
        kind, value, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r}", pos)
        return f

    def parse_disj(self):
        f = self.parse_conj()
        while self.at_op("|"):
            self.take()
            f = Disj(f, self.parse_conj())
        return f

    def parse_conj(self):
        f = self.parse_imp()
        while self.at_op("&"):
            self.take()
            f = Conj(f, self.parse_imp())
        return f

    def parse_imp(self):
        f = self.parse_plus()
        if self.peek()[0] == "arrow":
            self.take()
            return Imp(f, self.parse_imp())
        return f

    def parse_plus(self):
        f = self.parse_fuse()
        while self.at_op("+"):
            self.take()
            f = plus(f, self.parse_fuse())
        return f

    def parse_fuse(self):
        f = self.parse_factor()
        while self.at_op("*"):
            self.take()
            f = Fuse(f, self.parse_factor())
        return f

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "int" and self.peek(1)[:2] == ("op", "*"):
            self.take()
            self.take()
            return scalar(int(value), self.parse_factor())
        return self.parse_unary()

    def parse_unary(self):
        if self.at_op("~"):
            self.take()
            return neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        f = self.parse_atom()
        while self.at_op("^"):
            self.take()
            kind, value, pos = self.peek()
            if kind != "int":
                raise FormulaSyntaxError("expected integer exponent after '^'", pos)
            self.take()
            f = power(f, int(value))
        return f

    def parse_atom(self):
        kind, value, pos = self.take()
        if kind == "var":
            return Var(value)
        if kind == "mvar":
            return MVar(value)
        if kind == "int":
            if value == "1":
                return ONE
            if value == "0":
                return ZERO
            raise FormulaSyntaxError(f"bare integer {value!r} is not a formula", pos)
        if kind == "op" and value == "(":
            f = self.parse_disj()
            self.expect_op(")")
            return f
        raise FormulaSyntaxError(f"unexpected {value or 'end of input'!r}", pos)


def ref_parse(text, allow_meta=False):
    return RefParser(_tokenize(text, allow_meta)).parse_formula()


_PREC_DISJ, _PREC_CONJ, _PREC_IMP, _PREC_PLUS, _PREC_FUSE, _PREC_UNARY = range(6)


def ref_render(f, min_prec=0, fuse_operand=False):
    if isinstance(f, (Var, MVar)):
        return f.name
    if isinstance(f, One):
        return "(1)" if fuse_operand else "1"
    if isinstance(f, Zero):
        return "(0)" if fuse_operand else "0"
    if isinstance(f, Imp):
        if isinstance(f.right, Zero):
            text = "~" + ref_render(f.left, _PREC_UNARY, False)
            prec = _PREC_UNARY
        elif isinstance(f.left, Imp) and isinstance(f.left.right, Zero):
            text = (
                ref_render(f.left.left, _PREC_PLUS, False)
                + " + "
                + ref_render(f.right, _PREC_PLUS + 1, False)
            )
            prec = _PREC_PLUS
        else:
            text = ref_render(f.left, _PREC_IMP + 1, False) + " -> " + ref_render(f.right, _PREC_IMP, False)
            prec = _PREC_IMP
    elif isinstance(f, Fuse):
        text = ref_render(f.left, _PREC_FUSE, True) + " * " + ref_render(f.right, _PREC_FUSE + 1, True)
        prec = _PREC_FUSE
    elif isinstance(f, Conj):
        text = ref_render(f.left, _PREC_CONJ, False) + " & " + ref_render(f.right, _PREC_CONJ + 1, False)
        prec = _PREC_CONJ
    elif isinstance(f, Disj):
        text = ref_render(f.left, _PREC_DISJ, False) + " | " + ref_render(f.right, _PREC_DISJ + 1, False)
        prec = _PREC_DISJ
    else:
        raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return "(" + text + ")"
    return text


def ref_push(f, budget):
    budget.charge()
    if isinstance(f, (Var, One, Zero)):
        return f
    if isinstance(f, (Conj, Disj)):
        return type(f)(ref_push(f.left, budget), ref_push(f.right, budget))
    if isinstance(f, Imp):
        return ref_imp(ref_push(f.left, budget), ref_push(f.right, budget), budget)
    if isinstance(f, Fuse):
        return ref_fuse(ref_push(f.left, budget), ref_push(f.right, budget), budget)
    raise NotMultiplicativeError(f"cannot normalize {f!r}")


def ref_imp(left, right, budget):
    budget.charge()
    if isinstance(left, Conj):
        return Disj(ref_imp(left.left, right, budget), ref_imp(left.right, right, budget))
    if isinstance(left, Disj):
        return Conj(ref_imp(left.left, right, budget), ref_imp(left.right, right, budget))
    if isinstance(right, Conj):
        return Conj(ref_imp(left, right.left, budget), ref_imp(left, right.right, budget))
    if isinstance(right, Disj):
        return Disj(ref_imp(left, right.left, budget), ref_imp(left, right.right, budget))
    return Imp(left, right)


def ref_fuse(left, right, budget):
    budget.charge()
    if isinstance(left, (Conj, Disj)):
        return type(left)(ref_fuse(left.left, right, budget), ref_fuse(left.right, right, budget))
    if isinstance(right, (Conj, Disj)):
        return type(right)(ref_fuse(left, right.left, budget), ref_fuse(left, right.right, budget))
    return Fuse(left, right)


def ref_cnf(f, budget):
    if isinstance(f, Conj):
        return ref_cnf(f.left, budget) + ref_cnf(f.right, budget)
    if isinstance(f, Disj):
        left, right = ref_cnf(f.left, budget), ref_cnf(f.right, budget)
        out = []
        for a, b in itertools.product(left, right):
            budget.charge(len(a) + len(b))
            out.append(a + b)
        return out
    budget.charge()
    return [(f,)]


def ref_eval_formula(chain, valuation, f):
    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise MissingVariableError(f"valuation missing {f.name!r}") from None
    if isinstance(f, One):
        return chain.unit
    if isinstance(f, Zero):
        return chain.zero
    left = ref_eval_formula(chain, valuation, f.left)
    right = ref_eval_formula(chain, valuation, f.right)
    if isinstance(f, Conj):
        return min(left, right)
    if isinstance(f, Disj):
        return max(left, right)
    if isinstance(f, Fuse):
        return chain.fuse(left, right)
    return chain.imp(left, right)


def ref_eval_abelian(f, valuation):
    if isinstance(f, Var):
        try:
            return valuation[f.name]
        except KeyError:
            raise MissingVariableError(f"valuation missing {f.name!r}") from None
    if isinstance(f, (One, Zero)):
        return 0
    left = ref_eval_abelian(f.left, valuation)
    right = ref_eval_abelian(f.right, valuation)
    if isinstance(f, Conj):
        return min(left, right)
    if isinstance(f, Disj):
        return max(left, right)
    if isinstance(f, Fuse):
        return left + right
    return right - left


def ref_translate_abelian(f) -> dict[str, int]:
    """The reference linear reading: one coefficient per variable of ``f``,
    zeros included, by recursion."""
    if isinstance(f, Var):
        return {f.name: 1}
    if isinstance(f, (One, Zero)):
        return {}
    if isinstance(f, (Fuse, Imp)):
        left, right = ref_translate_abelian(f.left), ref_translate_abelian(f.right)
        sign = 1 if isinstance(f, Fuse) else -1
        return {v: sign * left.get(v, 0) + right.get(v, 0) for v in left.keys() | right.keys()}
    if isinstance(f, MVar):
        raise NotMultiplicativeError(f"metavariable {f.name} has no linear reading")
    raise NotMultiplicativeError(f"not multiplicative: {f}")


def ref_instantiate(schema, args):
    def walk(f):
        if isinstance(f, MVar):
            try:
                return args[f.name]
            except KeyError:
                raise MissingMetavariableError(
                    f"schema {schema.name}: metavariable {f.name} unbound"
                ) from None
        if isinstance(f, (Var, One, Zero)):
            return f
        return type(f)(walk(f.left), walk(f.right))

    return walk(schema.template)
