"""The proof search in MLL with mix (``gordian.mix``) and where it runs."""

import importlib
import time
from pathlib import Path
from random import Random

import pytest

from helpers import random_mult_formula

from gordian import EngineBudget, HilbertBudget, mix, oracles, prove_consequence
from gordian.check import combination_formula, verify_derivation
from gordian.logics import lookup_logic, match_template, matching_axiom
from gordian.oracles import class_countermodel, decide, hilbert_search, mix_lines
from gordian.syntax import Imp, parse

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_mix_proofs_verify_and_no_model_class_refutes_them():
    # every proof found becomes lines the checker accepts, ending at the
    # target, and no target proved has a countermodel in BIULm's classes;
    # a derivation comes back exactly when the search finds a proof
    rng = Random(5)
    proved = 0
    for _ in range(300):
        phi = random_mult_formula(rng, ["p", "q"], rng.randint(1, 4))
        lines = mix_lines(lookup_logic("BIULm"), phi)
        assert (lines is None) == (not mix._search([(phi, True)], [mix.WORK_CAP]))
        if lines is None:
            continue
        proved += 1
        assert lines[-1].formula == phi
        assert verify_derivation("BIULm", lines)
        assert class_countermodel(("Z", "sugihara_odd"), [], [phi]) is None
    assert proved >= 20


# fusion associativity and prelinearity are in test_engine's MISSED_THEOREMS;
# the last target applies a compound term to a term over three variables
@pytest.mark.parametrize(
    "text",
    ["p * q -> q * p", "~~p -> p", "1 -> 0", "0 -> 1", "1", "0", "r -> (r -> p) -> 0 -> p"],
)
def test_mix_proves_core_theorems(text):
    lines = mix_lines(lookup_logic("BIULm"), parse(text))
    assert lines is not None and len(lines) < 200
    assert verify_derivation("BIULm", lines)


@pytest.mark.parametrize("n", range(1, 7))
def test_fused_pairs_take_quadratically_many_lines(n):
    # each proof node is compiled once, at a few lines per member of its
    # sequent, so the lines grow with n squared: 21 to 969 for n = 1..6
    phi = parse(f"(p * q)^{n} -> (q * p)^{n}")
    lines = mix_lines(lookup_logic("BIULm"), phi)
    assert lines is not None and lines[-1].formula == phi
    assert len(lines) <= 40 * n * n
    assert verify_derivation("BIULm", lines)


@pytest.mark.parametrize("k", range(4, 12))
def test_reversed_fusions_are_proved(k):
    atoms = [f"p{i}" for i in range(1, k + 1)]
    phi = parse(" * ".join(atoms) + " -> " + " * ".join(reversed(atoms)))
    lines = mix_lines(lookup_logic("BIULm"), phi)
    assert lines is not None and lines[-1].formula == phi
    assert verify_derivation("BIULm", lines)


def _uncited(lines) -> list[int]:
    """The numbers of the lines before the last that no mp or u_n line cites."""
    cited = set()
    for line in lines:
        rule, _, premises = line.justification.partition(" ")
        if rule == "mp" or rule.startswith("u_"):
            cited.update(int(n) for n in premises.split(","))
    return [line.index for line in lines[:-1] if line.index not in cited]


def test_every_derivation_line_is_cited():
    # a derivation ends at its target and holds nothing else: every line
    # but the last is a premise of a later one
    biulm = lookup_logic("BIULm")
    rng = Random(5)
    derivations = []
    for _ in range(300):
        derivations.append(mix_lines(biulm, random_mult_formula(rng, ["p", "q"], rng.randint(1, 4))))
    for text in ["p * q -> q * p", "~~p -> p", "1 -> 0", "0 -> 1", "1", "0",
                 "p * (q * r) -> (p * q) * r", "(p * q) * r -> p * (q * r)",
                 "(p * q)^3 -> (q * p)^3"]:
        derivations.append(mix_lines(biulm, parse(text)))
    prelinearity = prove_consequence("BIULm", [], parse("(p -> q) | (q -> p)"))
    derivations.append(prelinearity.results[0].certificate.witness.lines)
    for hyps, text in [(["p"], "p * p"), (["p -> q", "q -> r"], "p -> r"),
                       (["p + p"], "p"), (["p * q"], "q * p"), (["p", "q"], "p * q")]:
        verdict = hilbert_search("BIULm", [parse(h) for h in hyps], parse(text))
        assert verdict.status == "proved"
        derivations.append(verdict.certificate.witness.lines)
    uncited = [_uncited(lines) for lines in derivations if lines is not None]
    assert len(uncited) > 50
    assert [numbers for numbers in uncited if numbers] == []


def test_deep_identity_costs_one_link():
    # the two copies of p^600 are linked as one formula, never split into
    # 600 atoms; the saturation ended unknown here after about a second.
    # The goal is far larger than PROPOSAL_CAP, which caps only what a
    # proposal adds to it, so the proposal at the weight 1 is searched
    phi = parse("p^600 -> p^600 * 1")
    start = time.perf_counter()
    verdict = decide("BIULm", [], phi)
    assert time.perf_counter() - start < 1.0
    assert verdict.status == "proved"
    assert len(verdict.certificate.witness.lines) < 40
    assert prove_consequence("BIULm", [], phi).status == "proved"


def test_search_runs_only_where_the_units_coincide():
    # knotted logics have 0 -> 1 but not 1 -> 0: an ungated search would
    # cite balance_down_0, which the checker rejects there; the even chain
    # of two points refutes 1 -> 0 instead
    knotted = "knotted(1,1,1:1:1:1)"
    assert mix_lines(lookup_logic(knotted), parse("1 -> 0")) is None
    assert mix_lines(lookup_logic("MLL0"), parse("p * q -> q * p")) is None
    verdict = prove_consequence(knotted, [], parse("1 -> 0"))
    assert verdict.status == "refuted"
    assert verdict.countermodel.chain == "sugihara_even_2"
    assert decide(knotted, [], parse("1 -> 0")).status == "refuted"


def test_unit_axioms_are_looked_up_once_per_logic(monkeypatch):
    # every proposal reaches mix_lines, and each lookup of 0 -> 1 and
    # 1 -> 0 tries the logic's schemas in turn: the names are kept per spec
    biulm = lookup_logic("BIULm")
    assert mix_lines(biulm, parse("p * q -> q * p")) is not None
    looked = []
    monkeypatch.setattr(oracles, "matching_axiom", lambda logic, f: looked.append(f))
    assert mix_lines(biulm, parse("q * p -> p * q")) is not None
    assert looked == []


def test_goal_with_hypotheses_enters_the_search(monkeypatch):
    # the Z LP proposes the weights (2, 1) on the disjuncts and 1 on q: the
    # search proves the curried sum, and modus ponens on the hypothesis
    # line takes q off; the saturation left this goal unknown
    searched = []
    real = mix.mix_derivation

    def recording(phi, up, down):
        searched.append(phi)
        return real(phi, up, down)

    monkeypatch.setattr(mix, "mix_derivation", recording)
    q = parse("q")
    disjuncts = [parse("p -> 0"), parse("(p * q) * (1 -> p)")]
    budget = EngineBudget(lambda_cap=2, hilbert=HilbertBudget(max_lines=400))
    result = prove_consequence("BIULm", [q], parse("(p * q) * (1 -> p) | (p -> 0)"), budget)
    assert result.status == "proved"
    (goal,) = result.results
    assert goal.certificate.lambdas == (2, 1)
    combo = combination_formula((2, 1), disjuncts)
    assert searched == [Imp(q, combo)]
    lines = goal.certificate.witness.lines
    assert [(line.formula, line.justification) for line in lines[-2:]] == [
        (q, "hypothesis"),
        (combo, f"mp {len(lines) - 1},{len(lines) - 2}"),
    ]
    assert lines[-3].formula == Imp(q, combo)
    assert verify_derivation("BIULm", lines, hypotheses=[q])
    assert prove_consequence("BIULm", [q], parse("p * q -> q * p")).status == "proved"


def test_each_copy_of_a_hypothesis_is_taken_off_by_modus_ponens():
    # p, p |- p * p: the search proves p -> p -> p * p, one hypothesis line
    # stands for both copies, and two mp lines take them off in turn
    p, target = parse("p"), parse("p * p")
    verdict = decide("BIULm", [p], target)
    lines = verdict.certificate.witness.lines
    n = len(lines)
    assert lines[n - 4].formula == Imp(p, Imp(p, target))
    assert [(line.formula, line.justification) for line in lines[n - 3 :]] == [
        (p, "hypothesis"),
        (Imp(p, target), f"mp {n - 2},{n - 3}"),
        (target, f"mp {n - 2},{n - 1}"),
    ]
    assert verify_derivation("BIULm", lines, hypotheses=[p])
    assert _uncited(lines) == []
    # without a proposal, a goal with hypotheses goes to the saturation
    assert hilbert_search("BIULm", [p], target).certificate.witness.lines[-1].formula == target


def _unfiltered_axiom(logic, f):
    """The reference scan: every base and extra schema in order, then the
    family members of the n that ``indices(f)`` holds."""
    for schema in logic.axiom_schemas():
        if match_template(schema.template, f) is not None:
            return schema.name
    for fam in logic.families:
        for n in sorted(fam.indices(f)):
            for schema in fam.schemas(n):
                if match_template(schema.template, f) is not None:
                    return schema.name
    return None


def test_filtered_axiom_scan_agrees_on_the_hilbert_rounds(monkeypatch):
    # every line of every derivation in 13 rounds of the benchmark's
    # hilbert workload (seed 1): the scan that skips templates of another
    # root connective, and lattice ones for a multiplicative line, names
    # the same axiom as the scan over all of them
    monkeypatch.syspath_prepend(str(BENCH))
    workloads, ops = importlib.import_module("workloads"), importlib.import_module("ops")
    logic = lookup_logic("BIULm")
    formulas = set()
    for r in range(13):
        for problem in workloads.round_problems("hilbert", 1, r):
            for result in ops.run_library(problem).results:
                witness = getattr(result.certificate, "witness", None)
                formulas.update(line.formula for line in getattr(witness, "lines", ()))
    assert len(formulas) > 100
    named = 0
    for f in formulas:
        name = matching_axiom(logic, f)
        assert name == _unfiltered_axiom(logic, f)
        named += name is not None
    assert named > 50
