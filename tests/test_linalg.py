import ast
import copy
import itertools
import pickle
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from helpers import evaluate_form, form_columns, in_cone

from gordian import linalg
from gordian.engine import prove_consequence
from gordian.errors import NotMultiplicativeError
from gordian.linalg import (
    Combination,
    IntMatrix,
    Kernel,
    Separation,
    StrictDual,
    feasible_point_or_farkas,
    gordan,
    linear_alternative,
    linear_coefficients,
    project_fm,
)
from gordian.syntax import ONE, Fuse, Imp, Var, parse


def form(**coeffs) -> dict[str, int]:
    return coeffs


def test_translate_examples():
    # one coefficient per variable of the formula, zeros included
    assert linear_coefficients(parse("p -> q")) == form(q=1, p=-1)
    assert linear_coefficients(parse("p + ~p")) == form(p=0)
    assert linear_coefficients(parse("(p * p) -> q")) == form(q=1, p=-2)
    assert linear_coefficients(parse("1")) == {}
    assert linear_coefficients(parse("0")) == {}


def test_translate_rejects_lattice():
    with pytest.raises(NotMultiplicativeError):
        linear_coefficients(parse("p | q"))


# --- the reading kept on the node ------------------------------------------------


def test_the_reading_is_folded_once_and_refuses_writes(monkeypatch):
    folded = []
    fold = linalg.fold
    monkeypatch.setattr(linalg, "fold", lambda f, *rest: folded.append(f) or fold(f, *rest))
    f = parse("(p * q) -> p")
    reading = linear_coefficients(f)
    assert reading == {"p": 0, "q": -1} and linear_coefficients(f) is reading
    assert folded == [f]
    with pytest.raises(TypeError):
        reading["q"] = 1
    with pytest.raises(TypeError):
        del reading["p"]
    assert linear_coefficients(f) == {"p": 0, "q": -1}
    # an equal node built apart keeps its own reading
    assert linear_coefficients(parse("(p * q) -> p")) == reading and len(folded) == 2


def test_a_stored_reading_changes_no_equality_hash_print_or_pickle():
    p = Var("p")
    for build in (lambda: Var("p"), lambda: Imp(Fuse(p, ONE), Fuse(p, p)), lambda: parse("~(q -> 0) * p^3")):
        read, fresh = build(), build()
        linear_coefficients(read)
        assert getattr(fresh, "_linear", None) is None
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) and str(read) == str(fresh)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        for rebuilt in (pickle.loads(pickle.dumps(read)), copy.deepcopy(read)):
            assert rebuilt == read and getattr(rebuilt, "_linear", None) is None
            assert linear_coefficients(rebuilt) == linear_coefficients(read)


def test_only_linear_coefficients_touches_the_stored_reading():
    # every mention of _linear under src/, a slot declaration aside, lies in
    # linalg.linear_coefficients, the one function that stores the reading
    src = Path(linalg.__file__).parent
    found = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        slots = {
            id(c) for a in ast.walk(tree) if isinstance(a, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in a.targets)
            for c in ast.walk(a.value)
        }
        for func in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
            body = [n for stmt in func.body for n in ast.walk(stmt)]
            nested = {
                id(n) for d in body if isinstance(d, ast.FunctionDef) for n in ast.walk(d)
            }
            for node in body:
                if id(node) in nested or id(node) in slots:
                    continue
                if (isinstance(node, ast.Constant) and node.value == "_linear") or (
                    isinstance(node, ast.Attribute) and node.attr == "_linear"
                ):
                    found.add((path.name, getattr(func, "name", None)))
    assert found == {("linalg.py", "linear_coefficients")}


def test_gordan_examples():
    assert gordan(IntMatrix.of([[1]])) == StrictDual((1,))
    assert gordan(IntMatrix.of([[1, -1]])) == Kernel((1, 1))
    assert gordan(IntMatrix.of([[2, -3]])) == Kernel((3, 2))


def _verify_gordan(matrix: IntMatrix, result) -> None:
    if isinstance(result, Kernel):
        assert len(result.x) == matrix.n
        assert all(v >= 0 for v in result.x) and any(result.x)
        for row in matrix.rows:
            assert sum(a * x for a, x in zip(row, result.x)) == 0
    else:
        assert len(result.y) == matrix.m
        for j in range(matrix.n):
            assert sum(result.y[i] * matrix.rows[i][j] for i in range(matrix.m)) > 0


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def _verify_alternative(forms, hyps, result) -> None:
    if isinstance(result, Combination):
        assert len(result.lambdas) == len(forms) and len(result.mu) == len(hyps)
        assert all(v >= 0 for v in result.lambdas + result.mu) and any(result.lambdas)
        for row in zip(*forms, *hyps):
            assert _dot(result.lambdas, row[: len(forms)]) == _dot(result.mu, row[len(forms) :])
    else:
        assert isinstance(result, Separation)
        assert all(_dot(result.y, f) < 0 for f in forms)
        assert all(_dot(result.y, h) >= 0 for h in hyps)


def test_gordan_dichotomy_random():
    rng, hyp_rng = Random(5), Random(6)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = IntMatrix.of(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        )
        _verify_gordan(matrix, gordan(matrix))
        # the same columns as forms of the one LP, without and with hypotheses
        columns = list(zip(*matrix.rows))
        _verify_alternative(columns, [], linear_alternative(columns, []))
        hyps = [
            [hyp_rng.randint(-5, 5) for _ in range(m)] for _ in range(hyp_rng.randint(1, 3))
        ]
        _verify_alternative(columns, hyps, linear_alternative(columns, hyps))
    # zero coordinates: only the sum row is left, so any forms combine
    for n, h in ((1, 0), (3, 0), (2, 2)):
        result = linear_alternative([()] * n, [()] * h)
        assert isinstance(result, Combination)
        _verify_alternative([()] * n, [()] * h, result)


def test_gordan_branches_exclusive():
    # a strict dual and a kernel vector cannot coexist
    rng = Random(17)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = IntMatrix.of(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        )
        result = gordan(matrix)
        if isinstance(result, StrictDual):
            # exhaustive small search for a kernel vector must fail
            for x in itertools.product(range(4), repeat=n):
                if not any(x):
                    continue
                assert any(
                    sum(a * v for a, v in zip(row, x)) != 0 for row in matrix.rows
                )


def test_project_fm_examples():
    rows = [form(q=1, p=-1), form(r=1, q=-1)]
    assert project_fm(rows, {"p", "r"}) == [form(r=1, p=-1)]
    assert project_fm([form(q=1, p=-1)], {"q"}) == []
    assert project_fm([form(p=1)], {"p"}) == [form(p=1)]


def test_project_fm_prunes():
    rows = [form(p=2), form(p=1), form(p=1, q=1), form(p=1, q=1)]
    assert project_fm(rows, {"p", "q"}) == [form(p=1), form(p=1, q=1)]


def _satisfiable_with_fixed(rows, fixed, free_vars):
    """Feasibility of {row >= 0} with some variables pinned to integers."""
    # unknowns: free vars split into +/- parts, one slack per row
    nf = len(free_vars)
    eq_rows, rhs = [], []
    for i, row in enumerate(rows):
        coeffs = [row.get(v, 0) for v in free_vars]
        slack = [0] * len(rows)
        slack[i] = -1
        eq_rows.append(coeffs + [-c for c in coeffs] + slack)
        rhs.append(-sum(row.get(v, 0) * val for v, val in fixed.items()))
    x, _, _ = feasible_point_or_farkas(eq_rows, rhs)
    return x is not None


def test_project_fm_is_exact_projection():
    rng = Random(11)
    names = ["x", "y", "z"]
    for _ in range(60):
        rows = [
            {v: rng.randint(-3, 3) for v in names}
            for _ in range(rng.randint(1, 4))
        ]
        keep = set(rng.sample(names, rng.randint(0, 2)))
        projected = project_fm(rows, keep)
        dropped = [v for v in names if v not in keep]
        for point in itertools.product(range(-2, 3), repeat=len(keep)):
            fixed = dict(zip(sorted(keep), point))
            in_projection = all(
                evaluate_form(f, {**fixed, **{v: 0 for v in dropped}}) >= 0
                for f in projected
            )
            extends = _satisfiable_with_fixed(rows, fixed, dropped)
            assert in_projection == extends, (rows, keep, fixed)


def test_nonneg_combination_examples():
    target = form(r=1, p=-1)
    gens = [form(q=1, p=-1), form(r=1, q=-1)]
    assert in_cone(target, gens) == Combination((1,), (1, 1))
    assert isinstance(in_cone(form(p=1), []), Separation)
    assert in_cone({}, [form(q=1, p=-1)]) == Combination((1,), (0,))


def test_nonneg_combination_scaling():
    # 1/2-weighted rational solutions scale to integers
    target = form(p=1)
    gens = [form(p=2)]
    assert in_cone(target, gens) == Combination((2,), (1,))


def test_cone_alternative_is_exact():
    rng = Random(3)
    names = ["x", "y", "z"]
    cases = []
    for _ in range(200):
        target = {v: rng.randint(-3, 3) for v in names}
        gens = [
            {v: rng.randint(-3, 3) for v in names}
            for _ in range(rng.randint(0, 3))
        ]
        cases.append((target, gens))
    # no variables at all, and a target whose linear reading is 0
    zero = linear_coefficients(parse("p -> p"))
    cases += [({}, []), ({}, [{}]), (zero, []), (zero, [form(x=1, y=-2)])]
    for target, gens in cases:
        columns = form_columns([target] + gens)
        alternative = in_cone(target, gens)
        _verify_alternative(columns[:1], columns[1:], alternative)
        if not any(target.values()):
            assert alternative == Combination((1,), (0,) * len(gens))


def test_cone_completeness_vs_enumeration():
    # when the solver says "no", no small integer combination exists either
    rng = Random(23)
    names = ["x", "y"]
    for _ in range(120):
        target = {v: rng.randint(-3, 3) for v in names}
        gens = [
            {v: rng.randint(-3, 3) for v in names} for _ in range(2)
        ]
        if isinstance(in_cone(target, gens), Separation):
            for mu in itertools.product(range(11), repeat=2):
                combo = {v: mu[0] * gens[0][v] + mu[1] * gens[1][v] for v in names}
                assert combo != target


def test_feasible_point_is_exact():
    rows = [[3, 1, 0], [1, 2, 1]]
    rhs = [1, 1]
    x, farkas, d = feasible_point_or_farkas(rows, rhs)
    assert farkas is None and d >= 1
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == d * b
    assert all(type(v) is int and v >= 0 for v in x)


def _fraction_simplex(rows, rhs):
    """Reference: the phase-1 simplex on a dense ``Fraction`` tableau,
    reduced costs recomputed per column, with Dantzig's entering rule (the
    most negative reduced cost, the lowest index on ties) and the
    lexicographic ratio test on ``(b_i, (B^-1)_i) / a_i``.  The integer
    tableau must make the same pivots, so its vectors over its determinant
    must equal these."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [], None
    flip = [Fraction(-1) if Fraction(b) < 0 else Fraction(1) for b in rhs]
    tab = [
        [flip[i] * Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        + [flip[i] * Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m

    def reduced_cost(j):
        return cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))

    while True:
        costs = [reduced_cost(j) for j in range(n + m)]
        entering = costs.index(min(costs))
        if costs[entering] >= 0:
            break
        leaving = min(
            (i for i in range(m) if tab[i][entering] > 0),
            key=lambda i: [tab[i][-1] / tab[i][entering]]
            + [tab[i][n + k] / tab[i][entering] for k in range(m)],
        )
        piv = tab[leaving][entering]
        tab[leaving] = [c / piv for c in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                factor = tab[i][entering]
                tab[i] = [c - factor * d for c, d in zip(tab[i], tab[leaving])]
        basis[leaving] = entering
    if sum(cost[basis[i]] * tab[i][-1] for i in range(m)) == 0:
        x = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = tab[i][-1]
        return x, None
    return None, [flip[i] * (1 - reduced_cost(n + i)) for i in range(m)]


def _seeded_systems(rng):
    for k in range(1200):
        m, n = rng.randint(0, 6), rng.randint(0, 7)
        if k % 3 == 0:  # degenerate: entries in {0, 1, -1}
            rows = [[rng.choice((0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        else:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m and k % 5 == 0:
            rows[rng.randrange(m)] = [0] * n
        rhs = [rng.randint(-4, 4) if k % 4 else 0 for _ in range(m)]
        yield rows, rhs


def test_integer_pivoting_equals_fraction_reference():
    seen = {"point": 0, "farkas": 0, "no rows": 0, "zero row": 0, "negative rhs": 0}
    for rows, rhs in _seeded_systems(Random(29)):
        x, y, d = feasible_point_or_farkas(rows, rhs)
        assert type(d) is int and d >= 1
        assert all(type(v) is int for v in (x if y is None else y))
        scaled = [None if v is None else [Fraction(e, d) for e in v] for v in (x, y)]
        assert tuple(scaled) == _fraction_simplex(rows, rhs), (rows, rhs)
        seen["point" if y is None else "farkas"] += 1
        seen["no rows"] += not rows
        seen["zero row"] += any(not any(r) for r in rows)
        seen["negative rhs"] += any(b < 0 for b in rhs)
        if y is not None:
            assert all(sum(y[i] * rows[i][j] for i in range(len(rows))) <= 0 for j in range(len(rows[0])))
            assert sum(a * b for a, b in zip(y, rhs)) > 0
    assert all(count >= 50 for count in seen.values()), seen


def test_lp_rejects_malformed_input():
    for rows, rhs in (
        ([[Fraction(1, 2)]], [1]),
        ([[1, 0.5]], [1]),
        ([[1]], [Fraction(1)]),
        ([[1, 2], [3]], [1, 1]),
        ([[1, 2], [3, 4]], [1]),
        ([], [1]),
    ):
        with pytest.raises(ValueError):
            feasible_point_or_farkas(rows, rhs)


def test_a_zero_form_is_the_combination_without_the_lp(monkeypatch):
    def no_lp(rows, rhs):
        raise AssertionError("the LP was solved")

    monkeypatch.setattr(linalg, "feasible_point_or_farkas", no_lp)
    forms, hyps = [(1, -1), (0, 0), (0, 0)], [(2, 1)]
    assert linear_alternative(forms, hyps) == Combination((0, 1, 0), (0,))
    assert gordan(IntMatrix.of([[1, 0, -1], [2, 0, 3]])) == Kernel((0, 1, 0))


def test_p_implies_p_alone_proves_its_disjunction():
    # p -> p reads 0: the weight falls on it, and on q not at all
    (result,) = prove_consequence("A", [], parse("(p -> p) | q")).results
    disjuncts = result.goal.clause.disjuncts
    assert result.status == "proved"
    assert result.certificate.lambdas == tuple(int(d == parse("p -> p")) for d in disjuncts)
    assert result.certificate.witness.mu == ()


def test_degenerate_gordan_matrices():
    # entries in {-1, 0, 1}: many ties in the ratio test, which the
    # lexicographic rule breaks.  Such a matrix mostly has a strict dual, so
    # every other one gets a kernel: a column and its negation
    rng, seen = Random(31), Counter()
    for k in range(200):
        m, n = rng.randint(15, 30), rng.randint(15, 30)
        rows = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(m)]
        if k % 2:
            j = rng.randrange(n - 1)
            for row in rows:
                row[-1] = -row[j]
        matrix = IntMatrix.of(rows)
        result = gordan(matrix)
        _verify_gordan(matrix, result)
        seen[type(result).__name__] += 1
    assert min(seen["Kernel"], seen["StrictDual"]) >= 20, seen


def test_gordan_60_by_60_is_fast():
    rng = Random(1)
    matrix = IntMatrix.of([[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)])
    start = time.perf_counter()
    result = gordan(matrix)
    assert time.perf_counter() - start < 20
    _verify_gordan(matrix, result)
