"""Tests for the benchmark's independent checker.

    PYTHONPATH=src python3 -m pytest -q bench/test_check.py

They compare its Sugihara evaluator with the program's chain tables, and
show that a certificate or countermodel with one entry changed is rejected.
"""

import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest

import check as C
import ops
import workloads as W
from gordian import parse, render
from gordian.chains import sugihara_chain

P, Q, R = C.var("p"), C.var("q"), C.var("r")


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sugihara_closed_form_matches_chain_tables(k, odd):
    ours, theirs = C.sugihara(k, odd), sugihara_chain(k, odd)
    assert tuple(ours.carrier) == theirs.carrier
    assert (ours.unit, ours.zero) == (theirs.unit, theirs.zero)
    for a in ours.carrier:
        for b in ours.carrier:
            assert ours.fuse(a, b) == theirs.fuse(a, b)
            assert ours.imp(a, b) == theirs.imp(a, b)


def test_integer_model():
    f = C.imp(("*", P, Q), ("&", R, C.ONE))
    assert C.evaluate(C.Integers, f, {"p": 2, "q": -5, "r": 4}) == 3
    assert C.evaluate(C.Integers, ("|", C.neg(P), C.ZERO), {"p": 2}) == 0


def test_text_round_trip():
    rng = Random(3)
    for _ in range(200):
        f = W.full_formula(rng, ["p", "q", "r"], 4)
        program = parse(C.to_text(f))
        assert C.from_program(program) == f
        assert C.parse(render(program)) == f


def test_deep_formulas_evaluate_without_recursion():
    assert C.refutes(C.Integers, {"p": 1}, [], [C.imp(C.scalar(400, P), P)])
    assert C.refutes(C.Integers, {"p": 1}, [], [C.imp(C.power(P, 600), P)])


def test_decomposition_bound_is_an_upper_bound():
    from gordian.normalize import decompose_consequence, to_mult_clauses

    rng = Random(5)
    for _ in range(200):
        hyps = [W.full_formula(rng, ["p", "q"], 2) for _ in range(rng.randint(0, 2))]
        concl = W.full_formula(rng, ["p", "q", "r"], 4)
        literals, goals = W.decomposition_bound(hyps, concl)
        if literals > 512 or goals > 512:
            continue
        program = [parse(C.to_text(f)) for f in hyps + [concl]]
        for f in program:
            assert sum(len(c.disjuncts) for c in to_mult_clauses(f)) <= literals
        assert len(decompose_consequence(program[:-1], program[-1])) <= goals


def _solve(problem):
    out = ops.outcome_from_library(problem, ops.run_library(problem))
    assert ops.verify(problem, out, Random(0))[0]
    return out


def _consequence(logic, hyps, concl):
    return W.Problem("consequence", logic, "test", hyps=hyps, concl=concl)


def test_tampered_abelian_certificate_is_rejected():
    problem = _consequence("A", [C.imp(P, Q), C.imp(Q, R)], C.imp(P, R))
    goal = _solve(problem)["goals"][0]
    args = (goal["hyps"], goal["disjuncts"], goal["lambdas"], goal["witness"]["mu"], goal["witness"]["scale"])
    assert C.abelian_proof_ok(*args)
    hyps, disjuncts, lambdas, mu, scale = args
    assert not C.abelian_proof_ok(hyps, disjuncts, [lambdas[0] + 1], mu, scale)
    assert not C.abelian_proof_ok(hyps, disjuncts, lambdas, [mu[0] + 1] + mu[1:], scale)


def _tamper_valuation(valuation):
    """Give the first variable the second one's value."""
    first, second = sorted(valuation)[:2]
    return {**valuation, first: valuation[second]}


@pytest.mark.parametrize("logic", ["A", "RMt", "IUMLm"])
def test_tampered_countermodel_is_rejected(logic):
    problem = _consequence(logic, [], C.imp(P, Q))
    out = _solve(problem)
    assert out["status"] == "refuted"
    name, valuation = out["countermodel"]
    model = C.model_from_name(name)
    assert C.refutes(model, valuation, [], [problem.concl])
    assert not C.refutes(model, _tamper_valuation(valuation), [], [problem.concl])
    out["goals"][0]["countermodel"] = (name, _tamper_valuation(valuation))
    assert not ops.verify(problem, out, Random(0))[0]


@pytest.mark.parametrize("logic", ["RMt", "IUMLm"])
def test_tampered_chain_certificate_is_rejected(logic):
    problem = _consequence(logic, [], ("|", C.imp(P, Q), C.imp(Q, P)))
    out = _solve(problem)
    goal = out["goals"][0]
    assert goal["lambdas"] == [1, 1]
    goal["lambdas"] = [1, 0]
    assert not ops.verify(problem, out, Random(0))[0]


def test_tampered_hilbert_certificate_is_rejected():
    problem = _consequence("BIULm", [], ("|", C.imp(("*", P, Q), ("*", Q, P)), C.imp(P, Q)))
    out = _solve(problem)
    goal = out["goals"][0]
    assert goal["status"] == "proved"
    goal["lambdas"] = [0 if l else 1 for l in goal["lambdas"]]
    assert not ops.verify(problem, out, Random(0))[0]


def test_tampered_gordan_certificates_are_rejected():
    kernel_rows = [[1, -1], [2, -2]]
    assert C.gordan_ok(kernel_rows, "kernel", [1, 1])
    assert not C.gordan_ok(kernel_rows, "kernel", [1, 2])
    dual_rows = [[1, 2], [0, -1]]
    assert C.gordan_ok(dual_rows, "strict_dual", [1, 0])
    assert not C.gordan_ok(dual_rows, "strict_dual", [1, 2])


def test_tampered_density_weights_are_rejected():
    problem = W.Problem("density", "A", "test", phi=P, psi=P, chi=C.imp(Q, Q))
    out = _solve(problem)
    out["output"]["lambdas"] = [out["output"]["lambdas"][0] + 1] + out["output"]["lambdas"][1:]
    assert not ops.verify(problem, out, Random(0))[0]


def test_interpolant_checks():
    hyps = [C.imp(P, Q), C.imp(Q, R)]
    assert C.interpolant_ok("A", hyps, [C.imp(P, R)], ["p", "r"], Random(0))
    assert not C.interpolant_ok("A", hyps, [C.imp(P, Q)], ["p", "r"], Random(0))
    assert not C.interpolant_ok("A", hyps, [C.imp(R, P)], ["p", "r"], Random(0))
    assert not C.interpolant_ok("IUMLm", hyps, [C.imp(R, P)], ["p", "r"], Random(0))


def test_known_answers_are_enforced():
    problem = W.known_answers("RMt")[2]
    out = _solve(problem)
    assert out["status"] == "refuted"
    problem.expected = "proved"
    assert not ops.verify(problem, out, Random(0))[0]
