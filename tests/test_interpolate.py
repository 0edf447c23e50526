import itertools
import time
from random import Random

import pytest

from helpers import fusion_chain_hypotheses, random_mult_formula

from gordian.chains import eval_vector
from gordian.chains import decision_chains
from gordian.engine import prove_consequence
from gordian import interpolate
from gordian.errors import (
    EnumerationBudgetExceededError,
    SizeBudgetExceededError,
    UnsupportedLogicError,
)
from gordian.interpolate import (
    _enumerate_classes,
    lift_interpolant,
    mult_uniform_interpolant,
    verify_interpolant,
)
from gordian.logics import lookup_logic
from gordian.oracles import sugihara_decide
from gordian.syntax import ONE, ZERO, Disj, Fuse, Imp, Var, parse, render, variables_of


def test_abelian_elimination():
    pi = mult_uniform_interpolant("A", [parse("p -> q"), parse("q -> r")], {"p", "r"})
    assert [render(f) for f in pi] == ["p -> r"]


def test_abelian_empty_projection():
    assert mult_uniform_interpolant("A", [parse("p -> q")], {"q"}) == []


def test_full_variable_set_is_identity():
    sigma = [parse("p -> q"), parse("q -> r")]
    pi = mult_uniform_interpolant("A", sigma, {"p", "q", "r"})
    report = verify_interpolant("A", sigma, pi, {"p", "q", "r"}, sigma)
    assert report.ok


def test_x_must_be_subset():
    with pytest.raises(ValueError):
        mult_uniform_interpolant("A", [parse("p -> q")], {"z"})


def test_unsupported_logic():
    with pytest.raises(UnsupportedLogicError):
        mult_uniform_interpolant("BIULm", [parse("p -> q")], {"p"})
    with pytest.raises(UnsupportedLogicError):
        mult_uniform_interpolant("RMt", [parse("p -> q * r * s")], {"q", "r", "s"})


def test_verify_examples():
    sigma = [parse("p -> q"), parse("q -> r")]
    report = verify_interpolant(
        "A", sigma, [parse("p -> r")], {"p", "r"},
        [parse("p -> r"), parse("(p * p) -> (r * r)")],
    )
    assert report.ok
    report = verify_interpolant("A", sigma, [parse("p -> q")], {"p", "r"}, [])
    assert not report.ok and report.first_failure.name == "variable_condition"
    report = verify_interpolant("A", sigma, [], {"p", "r"}, [parse("p -> r")])
    assert not report.ok and report.first_failure.name == "probe_equivalence"


def test_verify_rejects_bad_probe():
    with pytest.raises(ValueError):
        verify_interpolant("A", [parse("p -> q")], [], {"q"}, [parse("p")])


def test_lift_base_case_is_multiplicative_interpolant():
    sigma = [parse("p -> q"), parse("q -> r")]
    assert lift_interpolant("A", sigma, {"p", "r"}) == mult_uniform_interpolant(
        "A", sigma, {"p", "r"}
    )
    assert lift_interpolant("IUMLm", sigma, {"p", "r"}, depth=3) == mult_uniform_interpolant(
        "IUMLm", sigma, {"p", "r"}, depth=3
    )


def test_lift_joins_branches_in_product_order():
    # two branching clauses, their disjuncts in structural order (the
    # smaller first), fork four branches; their interpolants join
    # right-nested, in product order
    sigma = [parse("(p -> q) | (p*p -> q)"), parse("(q -> r) | (q -> r*r)")]
    pi = lift_interpolant("A", sigma, {"p", "r"})
    clauses = [["p -> q", "p * p -> q"], ["q -> r", "q -> r * r"]]
    parts = [
        mult_uniform_interpolant("A", [parse(a), parse(b)], {"p", "r"})
        for a, b in itertools.product(*clauses)
    ]
    assert [len(part) for part in parts] == [1, 1, 1, 1]
    assert pi == [Disj(parts[0][0], Disj(parts[1][0], Disj(parts[2][0], parts[3][0])))]
    assert render(pi[0]) == "p -> r | (p -> r * r | (p * p -> r | p -> r))"
    probes = [parse("p -> r | p*p -> r*r"), parse("p -> r"), parse("p*p -> r | p -> r*r")]
    report = verify_interpolant("A", sigma, pi, {"p", "r"}, probes)
    assert report.ok, report.first_failure


def test_lift_disjunctive_hypothesis():
    sigma = [parse("(p -> q) | (p -> r)")]
    pi = lift_interpolant("A", sigma, {"p", "q", "r"})
    report = verify_interpolant(
        "A", sigma, pi, {"p", "q", "r"},
        [parse("(p -> q) | (p -> r)"), parse("p -> q"), parse("(p*p) -> (q*q) | (p*p) -> (r*r)")],
    )
    assert report.ok


def test_lift_empty_branch_collapses():
    # one branch has no shared-variable consequences, so neither does the join
    sigma = [parse("(p -> q) | (q -> p)")]
    pi = lift_interpolant("A", sigma, {"q"})
    report = verify_interpolant("A", sigma, pi, {"q"}, [parse("q -> q"), parse("q")])
    assert report.ok


def test_sugihara_interpolant_small():
    sigma = [parse("x -> y")]
    for logic in ("RMt", "IUMLm"):
        pi = mult_uniform_interpolant(logic, sigma, {"y"}, depth=3)
        assert variables_of(pi) <= {"y"}
        report = verify_interpolant(
            logic, sigma, pi, {"y"}, [parse("y -> y"), parse("y"), parse("y + ~y")]
        )
        assert report.ok, report.first_failure


def test_sugihara_interpolant_two_vars():
    sigma = [parse("x -> y"), parse("y -> z")]
    pi = mult_uniform_interpolant("IUMLm", sigma, {"x", "z"}, depth=3)
    report = verify_interpolant("IUMLm", sigma, pi, {"x", "z"}, [parse("x -> z")])
    assert report.ok, report.first_failure


def test_random_abelian_interpolation_property():
    rng = Random(5150)
    names = ["p", "q", "r", "s"]
    for _ in range(25):
        sigma = [
            random_mult_formula(rng, names, rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        in_use = sorted(variables_of(sigma))
        if not in_use:
            continue
        x_vars = set(rng.sample(in_use, rng.randint(1, len(in_use))))
        pi = mult_uniform_interpolant("A", sigma, x_vars)
        assert variables_of(pi) <= x_vars
        for f in pi:
            assert prove_consequence("A", sigma, f).status == "proved"
        probes = [
            random_mult_formula(rng, sorted(x_vars) + ["w"], rng.randint(1, 3))
            for _ in range(10)
        ]
        report = verify_interpolant("A", sigma, pi, x_vars, probes)
        assert report.ok, report.first_failure


def test_projection_rows_lie_in_the_original_cone():
    # each interpolant formula's linear form must itself be a nonnegative
    # combination of the hypotheses' forms (the projection is exact, not
    # merely implied)
    from random import Random as _Random

    from helpers import in_cone

    from gordian.linalg import Combination, project_fm

    rng = _Random(7777)
    names = ["p", "q", "r", "s"]
    for _ in range(80):
        gens = [
            {v: rng.randint(-3, 3) for v in names}
            for _ in range(rng.randint(1, 4))
        ]
        keep = set(rng.sample(names, rng.randint(1, 3)))
        for row in project_fm(gens, keep):
            assert row.keys() <= keep and all(row.values())
            assert isinstance(in_cone(row, gens), Combination), (gens, keep, row)


def _reference_classes(logic, x_vars, depth):
    """Class enumeration by direct evaluation: every pair of known classes,
    each candidate's signature from eval_vector over the full grids."""
    chains = decision_chains(logic, len(x_vars))
    grids = [list(itertools.product(c.carrier, repeat=len(x_vars))) for c in chains]

    def signature(f):
        return tuple(
            tuple(eval_vector(c, f, x_vars, grid)) for c, grid in zip(chains, grids)
        )

    classes = {}
    for atom in [Var(v) for v in x_vars] + [ONE, ZERO]:
        classes.setdefault(signature(atom), atom)
    for _ in range(depth):
        known = list(classes.values())
        size = len(classes)
        for a, b in itertools.product(known, repeat=2):
            for candidate in (Fuse(a, b), Imp(a, b)):
                classes.setdefault(signature(candidate), candidate)
        if len(classes) == size:
            break
    return list(classes.values())


def test_class_tables_match_direct_evaluation():
    for logic, x_vars, depth in [
        ("IUMLm", ["p"], 4),
        ("RMt", ["p"], 3),
        ("IUMLm", ["p", "r"], 2),
        ("RMt", ["p", "r"], 2),
    ]:
        spec = lookup_logic(logic)
        assert _enumerate_classes(spec, x_vars, depth) == _reference_classes(
            spec, x_vars, depth
        ), (logic, x_vars)


def test_sugihara_interpolant_matches_per_class_decisions():
    rng = Random(6161)
    tasks = 0
    while tasks < 12:
        sigma = [
            random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))
        ]
        in_use = sorted(variables_of(sigma))
        if len(in_use) < 2:
            continue
        tasks += 1
        logic = ("RMt", "IUMLm")[tasks % 2]
        x_vars = sorted(rng.sample(in_use, rng.randint(1, 2)))
        depth = 2 if logic == "RMt" and len(x_vars) == 2 else 3
        spec = lookup_logic(logic)
        expected = sorted(
            (
                f
                for f in _reference_classes(spec, x_vars, depth)
                if sugihara_decide(spec, sigma, f).status == "proved"
            ),
            key=render,
        )
        assert mult_uniform_interpolant(logic, sigma, x_vars, depth=depth) == expected


def test_mingle_interpolation_at_default_depth_is_fast():
    sigma = [parse("p -> q"), parse("q -> r")]
    start = time.perf_counter()
    pi = mult_uniform_interpolant("IUMLm", sigma, ["p", "r"])
    assert time.perf_counter() - start < 5.0
    assert parse("p -> r") in pi
    start = time.perf_counter()
    with pytest.raises(EnumerationBudgetExceededError):
        mult_uniform_interpolant("RMt", sigma, ["p", "r"])
    assert time.perf_counter() - start < 20.0


def test_class_and_branch_caps(monkeypatch):
    sigma = [parse("p -> q"), parse("q -> r")]
    monkeypatch.setattr(interpolate, "CLASS_CAP", 10)
    with pytest.raises(EnumerationBudgetExceededError):
        mult_uniform_interpolant("IUMLm", sigma, ["p", "r"], depth=3)
    branching = [parse("p | q"), parse("q | r")]
    assert lift_interpolant("A", branching, ["q"]) == []
    monkeypatch.setattr(interpolate, "MAX_BRANCHES", 3)
    with pytest.raises(SizeBudgetExceededError):
        lift_interpolant("A", branching, ["q"])


def test_a_projection_past_the_row_cap_raises_at_once():
    sigma = [parse(h) for h in fusion_chain_hypotheses()]
    start = time.perf_counter()
    with pytest.raises(SizeBudgetExceededError, match="more than 4096 rows"):
        lift_interpolant("A", sigma, {"x0", "x1"})
    assert time.perf_counter() - start < 5


def test_the_row_cap_is_read_at_call_time(monkeypatch):
    from gordian import linalg

    sigma = [parse("p -> q"), parse("q -> r"), parse("s -> q"), parse("q -> t")]
    assert [render(f) for f in lift_interpolant("A", sigma, {"p", "r", "s", "t"})] == [
        "p -> r", "p -> t", "s -> r", "s -> t"
    ]
    # eliminating q combines two positive rows with two negative ones
    monkeypatch.setattr(linalg, "FM_ROW_CAP", 3)
    with pytest.raises(SizeBudgetExceededError):
        lift_interpolant("A", sigma, {"p", "r", "s", "t"})
