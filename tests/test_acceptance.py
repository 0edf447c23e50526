"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its stated wall-clock limit.
"""

import itertools
import time
from random import Random

from helpers import (
    abelian_goal_countermodel,
    chain_support,
    check_density_property,
    check_laws,
    conj_all,
    disj_all,
    goal_holds_brute_force,
    random_formula,
    ref_eval_abelian,
    random_goal,
    random_mult_formula,
    rmt_chain_family,
    widened,
)

from gordian import check_toa_condition
from gordian.chains import class_chains, eval_formula, sugihara_chain
from gordian.check import countermodel_refutes
from gordian.engine import DEFAULT_BUDGET, _prove_deepening, prove_consequence, prove_disjunction
from gordian.errors import PreconditionFailedError
from gordian.interpolate import lift_interpolant, verify_interpolant
from gordian.linalg import IntMatrix, Kernel, StrictDual, gordan
from gordian.logics import lookup_logic
from gordian.normalize import to_mult_clauses
from gordian.syntax import parse, render, variables, variables_of


def _finish(number: int, description: str, failures, elapsed: float, limit: float):
    status = "PASS" if not failures and elapsed < limit else "FAIL"
    print(f"{status} criterion {number}: {description} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert not failures, failures[:5]
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"


def test_criterion_01_gordan_dichotomy():
    start = time.perf_counter()
    rng = Random(101)
    failures = []
    for i in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        matrix = IntMatrix.of(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        )
        result = gordan(matrix)
        if isinstance(result, Kernel):
            x = result.x
            ok = (
                len(x) == n
                and all(v >= 0 for v in x)
                and any(x)
                and all(sum(a * v for a, v in zip(row, x)) == 0 for row in matrix.rows)
            )
        elif isinstance(result, StrictDual):
            y = result.y
            ok = len(y) == m and all(
                sum(y[i] * matrix.rows[i][j] for i in range(m)) > 0 for j in range(n)
            )
        else:
            ok = False
        if not ok:
            failures.append((matrix, result))
    _finish(1, "gordan dichotomy, 1000 random matrices, exact certificates",
            failures, time.perf_counter() - start, 10)


def test_criterion_02_abelian_alternatives_equivalence():
    start = time.perf_counter()
    rng = Random(202)
    failures = []
    for i in range(300):
        goal = random_goal(rng, max_disjuncts=3, max_hyps=3, max_depth=4)
        engine = prove_disjunction("A", goal)
        countermodel = abelian_goal_countermodel(goal)
        if (engine.status == "proved") != (countermodel is None):
            failures.append((i, goal.render(), engine.status))
    _finish(2, "Abelian engine verdict = rational-valuation semantic test, 300 goals",
            failures, time.perf_counter() - start, 30)


def test_criterion_03_avron_subset_form():
    start = time.perf_counter()
    rng = Random(303)
    failures = []
    for i in range(200):
        goal = random_goal(rng, max_disjuncts=3, max_hyps=2, max_depth=3)
        subset = prove_disjunction("RMt", goal)
        general = _prove_deepening(lookup_logic("RMt"), goal, DEFAULT_BUDGET)
        k = len(variables_of(goal.hypotheses + goal.clause.disjuncts))
        brute = goal_holds_brute_force(rmt_chain_family(k), goal)
        if not (
            subset.status in ("proved", "refuted")
            and subset.status == general.status
            and (subset.status == "proved") == brute
        ):
            failures.append((i, goal.render(), subset.status, general.status, brute))
    _finish(3, "subset weights = general weights = chain brute force, 200 goals",
            failures, time.perf_counter() - start, 60)


def test_criterion_04_excluded_middle_all_logics():
    start = time.perf_counter()
    failures = []
    for name in ("A", "RMt", "IUMLm", "BIULm"):
        for text in ("p | ~p", "0 -> 1"):
            if prove_consequence(name, [], parse(text)).status != "proved":
                failures.append((name, text))
    _finish(4, "p | ~p and 0 -> 1 proved in A, RMt, IUMLm, BIULm",
            failures, time.perf_counter() - start, 30)


def test_criterion_05_iuml_vs_rmt_separation():
    start = time.perf_counter()
    failures = []
    one_zero = parse("1 -> 0")
    if prove_consequence("IUMLm", [], one_zero).status != "proved":
        failures.append("IUMLm should prove 1 -> 0")
    result = prove_consequence("RMt", [], one_zero)
    if result.status != "refuted":
        failures.append("RMt should refute 1 -> 0")
    elif not countermodel_refutes(result.countermodel, [], [one_zero]):
        failures.append("RMt countermodel does not re-verify")
    _finish(5, "1 -> 0 proved in IUMLm, refuted in RMt with verified countermodel",
            failures, time.perf_counter() - start, 10)


def test_criterion_06_interpolation_equivalence():
    start = time.perf_counter()
    rng = Random(606)
    failures = []
    names = ["p", "q", "r", "s"]
    problems = 0
    while problems < 100:
        sigma = [
            random_formula(rng, names, rng.randint(1, 3), lattice_weight=0.15)
            for _ in range(rng.randint(1, 4))
        ]
        in_use = sorted(variables_of(sigma))
        if not in_use:
            continue
        problems += 1
        x_vars = set(rng.sample(in_use, rng.randint(1, len(in_use))))
        pi = lift_interpolant("A", sigma, x_vars)
        probes = [
            random_formula(rng, sorted(x_vars) + ["w"], rng.randint(1, 3), lattice_weight=0.15)
            for _ in range(20)
        ]
        report = verify_interpolant("A", sigma, pi, x_vars, probes)
        if not report.ok:
            failures.append(
                ( [render(f) for f in sigma], sorted(x_vars), report.first_failure)
            )
    _finish(6, "uniform interpolation equivalence, 100 problems x 20 probes",
            failures, time.perf_counter() - start, 120)


def test_criterion_07_density_transform():
    start = time.perf_counter()
    failures = []
    for name in ("A", "IUMLm"):
        report = check_density_property(name, 100, seed=707)
        if not report.ok or report.transformed < 100:
            failures.append((name, report.transformed, len(report.failures)))
    try:
        check_density_property("RMt", 1)
        failures.append("RMt was not rejected")
    except PreconditionFailedError:
        pass
    _finish(7, "density certificate transform, 100 instances in A and IUMLm; RMt rejected",
            failures, time.perf_counter() - start, 60)


def test_criterion_08_toa_side_condition():
    start = time.perf_counter()
    failures = []
    for name in ("A", "RMt", "IUMLm", "BIULm"):
        report = check_toa_condition(lookup_logic(name), 6)
        if not report.all_proved:
            failures.append((name, [e.status for e in report.entries]))
    _finish(8, "(n*p)^1 -> 1*(p^n) confirmed for n <= 6 in all four logics",
            failures, time.perf_counter() - start, 30)


def test_criterion_09_chain_laws_and_stability():
    start = time.perf_counter()
    failures = []
    for k, odd in [(1, True), (2, True), (3, True), (4, True),
                   (1, False), (2, False), (3, False), (4, False)]:
        chain = sugihara_chain(k, odd)
        if len(chain.carrier) <= 9:
            try:
                check_laws(chain)
            except ValueError as exc:
                failures.append(str(exc))
    rng = Random(909)
    for i in range(500):
        logic = "RMt" if i % 2 else "IUMLm"
        sigma = [random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        phi = random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 4))
        chains = class_chains(lookup_logic(logic).model_classes, len(variables_of(sigma + [phi])))
        if chain_support(chains, sigma, [phi]) != chain_support(widened(chains, 2), sigma, [phi]):
            failures.append((logic, [render(f) for f in sigma], render(phi)))
    _finish(9, "chain laws exhaustive (size <= 9) and verdicts stable under widening, 500 instances",
            failures, time.perf_counter() - start, 120)


def test_criterion_10_roundtrip_and_normalizer():
    start = time.perf_counter()
    rng = Random(1010)
    failures = []
    for i in range(1000):
        f = random_formula(rng, ["p", "q", "r", "s"], rng.randint(0, 6))
        if parse(render(f)) != f:
            failures.append(("roundtrip", render(f)))
    odd_chains = [sugihara_chain(k, odd=True) for k in (1, 2, 3, 4)]  # sizes 3..9
    for i in range(200):
        f = random_formula(rng, ["p", "q", "r"], rng.randint(1, 4))
        clauses = to_mult_clauses(f)
        rebuilt = conj_all([disj_all(c.disjuncts) for c in clauses])
        names = sorted(variables(f) | variables(rebuilt))
        for chain in odd_chains:
            for point in itertools.product(chain.carrier, repeat=len(names)):
                valuation = dict(zip(names, point))
                if chain.designated(eval_formula(chain, valuation, f)) != chain.designated(
                    eval_formula(chain, valuation, rebuilt)
                ):
                    failures.append(("chain", chain.name, render(f)))
                    break
            else:
                continue
            break
        for point in itertools.product(range(-3, 4), repeat=len(names)):
            valuation = dict(zip(names, point))
            if (ref_eval_abelian(f, valuation) >= 0) != (ref_eval_abelian(rebuilt, valuation) >= 0):
                failures.append(("grid", render(f)))
                break
    _finish(10, "1000 structural round-trips; clause form equivalent on chains and grid",
            failures, time.perf_counter() - start, 120)
