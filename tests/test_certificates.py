"""The certificate checker ``gordian.check``: its import boundary, its
linear readings, and malformed evidence, which it rejects rather than
accepts or crashes on."""

import ast
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from helpers import random_mult_formula, ref_eval_abelian

from gordian import engine
from gordian.check import (
    Countermodel,
    DerivationLine,
    DerivationWitness,
    LinearWitness,
    ProofResult,
    ToACertificate,
    check_result,
    countermodel_refutes,
    verify_derivation,
)
from gordian.engine import prove_consequence
from gordian.errors import InvalidCertificateError
from gordian.linalg import linear_coefficients
from gordian.oracles import one_target
from gordian.syntax import Fuse, Var, parse, power

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gordian"

# the modules that decide, or call what decides, and the LP's entry points
DECISION_MODULES = {"oracles", "engine", "mix", "density", "interpolate", "cli"}
DECISION_NAMES = {"linear_alternative", "feasible_point_or_farkas"}


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules that ``module``'s import statements name,
    anywhere in the file, and the names they import."""
    modules, names = set(), set()
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gordian.")}
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            package = source in (".", "gordian")
            if package:  # from . import x: x is a module
                modules |= {a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists()}
            elif source.startswith(".") or source.startswith("gordian."):
                modules.add(source.lstrip(".").removeprefix("gordian.").split(".")[0])
            names |= {a.name for a in node.names}
    return modules, names


def test_check_imports_no_decision_procedure():
    own_modules, own_names = _imports("check")
    assert not own_names & DECISION_NAMES
    seen, stack = set(), list(own_modules)
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack += _imports(module)[0]
    assert not seen & DECISION_MODULES, sorted(seen & DECISION_MODULES)
    # the walk read the evaluators the checks ask
    assert {"chains", "linalg", "logics", "syntax"} <= seen


def _power_of_two_p(exponent: int):
    """p squared by fusion ``exponent`` times: its linear reading is
    2**exponent * p, in as many distinct nodes."""
    f = Var("p")
    for _ in range(exponent):
        f = power(f, 2)
    return f


def test_float_entries_forge_no_proof():
    # 2**53 + 1 rounds to 2**53 as a float, so a float weight, linear
    # witness entry or scale would balance either direction between these
    # two, although A refutes both
    big = _power_of_two_p(53)
    assert linear_coefficients(big) == {"p": 2**53}
    assert linear_coefficients(parse("((((p^65536)^65536)^65536)^32)")) == linear_coefficients(big)
    p, q = Var("p"), Var("q")
    h, d = Fuse(Fuse(big, p), q), Fuse(big, q)
    assert prove_consequence("A", [h], d).status == "refuted"
    assert prove_consequence("A", [d], h).status == "refuted"
    forgeries = [
        ([h], d, (1,), LinearWitness((1.0,), 1)),
        ([d], h, (1.0,), LinearWitness((1,), 1)),
        ([d], h, (1,), LinearWitness((1,), 1.0)),
    ]
    for sigma, phi, lambdas, witness in forgeries:
        cert = ToACertificate(lambdas, witness)
        with pytest.raises(InvalidCertificateError):
            check_result("A", ProofResult("proved", one_target(sigma, phi), certificate=cert))


def test_malformed_derivation_lines_are_rejected():
    phi = parse("p -> p")
    goal = one_target([], phi)
    for lines in [
        ("junk",),
        (phi,),  # a formula where its line belongs
        (DerivationLine(1, "p -> p", "axiom identity"),),
        (),
    ]:
        cert = ToACertificate((1,), DerivationWitness(lines))
        with pytest.raises(InvalidCertificateError):
            check_result("MLL", ProofResult("proved", goal, certificate=cert))
    cert = ToACertificate((1,), DerivationWitness((DerivationLine(1, phi, "axiom identity"),)))
    assert check_result("MLL", ProofResult("proved", goal, certificate=cert)).status == "proved"


def test_a_line_that_is_no_formula_is_unjustified():
    phi = parse("p -> p")
    for lines in (["p -> p"], [None], [phi, [phi]], [phi, DerivationLine(2, {}, "axiom identity")]):
        check = verify_derivation("BIULm", lines)
        assert not check and check.bad_index == len(lines), lines
    assert verify_derivation("BIULm", [phi])


_P = one_target([], parse("p"))

MALFORMED = {
    "weights not a tuple": ProofResult(
        "proved", _P, certificate=ToACertificate(1, LinearWitness((), 1))
    ),
    "linear witness entries not a tuple": ProofResult(
        "proved", _P, certificate=ToACertificate((1,), LinearWitness(None, 1))
    ),
    "valuation not a tuple": ProofResult("refuted", _P, countermodel=Countermodel("Z", 5)),
    "chain not a string": ProofResult(
        "refuted", _P, countermodel=Countermodel(None, (("p", -1),))
    ),
    "valuation entry not a pair": ProofResult(
        "refuted", _P, countermodel=Countermodel("Z", (("p",),))
    ),
    # a status the CLI maps to no exit code
    "status bogus": ProofResult("bogus", _P),
    "status Proved": ProofResult("Proved", _P),
    "status None": ProofResult(None, _P),
}


@pytest.mark.parametrize("label", sorted(MALFORMED))
def test_malformed_evidence_is_rejected(label):
    with pytest.raises(InvalidCertificateError):
        check_result("A", MALFORMED[label])


def test_z_check_agrees_with_the_reference_evaluation():
    rng, names = Random(41), ["p", "q", "r"]
    seen = Counter()
    for _ in range(400):
        sigma = [random_mult_formula(rng, names, 3) for _ in range(rng.randint(0, 2))]
        disjuncts = [random_mult_formula(rng, names, 3) for _ in range(rng.randint(1, 3))]
        valuation = {v: rng.randint(-2, 2) for v in names}
        expected = all(ref_eval_abelian(h, valuation) >= 0 for h in sigma) and not any(
            ref_eval_abelian(d, valuation) >= 0 for d in disjuncts
        )
        cm = Countermodel.of("Z", valuation)
        # folding the readings, and again off the readings kept on the nodes
        assert countermodel_refutes(cm, sigma, disjuncts) == expected
        assert countermodel_refutes(cm, sigma, disjuncts) == expected
        seen[expected] += 1
    assert min(seen[True], seen[False]) >= 30, seen


def test_a_valuation_missing_a_zero_coefficient_variable_refutes_nothing():
    # p -> p reads 0 * p: the reading keeps p, so a valuation without it
    # refutes nothing, although every coefficient it has is read
    assert countermodel_refutes(Countermodel.of("Z", {"q": -1}), [], [parse("q"), parse("p -> p")]) is False
    goal = one_target([], parse("(p -> p) * q"))
    for valuation, accepted in (({"q": -1}, False), ({"p": 0, "q": -1}, True)):
        result = ProofResult("refuted", goal, countermodel=Countermodel.of("Z", valuation))
        if accepted:
            assert check_result("A", result) is result
        else:
            with pytest.raises(InvalidCertificateError):
                check_result("A", result)


def test_forged_countermodel_on_a_later_goal_is_rejected(monkeypatch):
    # both goals hold the hypothesis q -> p, which the first goal's check reads
    sigma, f = [parse("q -> p")], parse("p & q")
    first, second = prove_consequence("A", sigma, f).results
    assert first.status == second.status == "refuted"
    # q reads 0 here, so this valuation does not refute the second goal
    forged = ProofResult("refuted", second.goal, countermodel=Countermodel.of("Z", {"p": 0, "q": 0}))
    monkeypatch.setattr(
        engine, "prove_abelian", lambda goal, memo=None: first if goal == first.goal else forged
    )
    with pytest.raises(InvalidCertificateError):
        prove_consequence("A", sigma, f)
    assert check_result("A", first) is first
    with pytest.raises(InvalidCertificateError):
        check_result("A", forged)
