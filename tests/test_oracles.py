import itertools
import sys
import time
from fractions import Fraction
from random import Random

import pytest

from helpers import (
    abelian_grid_refute,
    brute_force_consequence,
    brute_force_support,
    chain_support,
    random_goal,
    random_mult_formula,
    rmt_chain_family,
    widened,
)

from gordian import EngineBudget, HilbertBudget, logics, oracles, prove_consequence, prove_disjunction

from gordian.chains import class_chains, decision_chains, level_search
from gordian.check import (
    ChainExhaustiveWitness,
    Countermodel,
    DerivationLine,
    DerivationWitness,
    LinearWitness,
    ProofResult,
    ToACertificate,
    check_result,
    countermodel_refutes,
    verify_derivation,
    verify_linear_witness,
)
from gordian.errors import InvalidCertificateError, NotMultiplicativeError
from gordian.logics import instantiate, lookup_logic
from gordian.normalize import Goal, structural_order
from gordian.oracles import decide, hilbert_search, sugihara_decide
from gordian.syntax import ONE, ZERO, Imp, metavariables, parse, render, subformulas, variables_of


def test_abelian_examples():
    verdict = decide("A", [parse("p -> q"), parse("q -> r")], parse("p -> r"))
    assert verdict.status == "proved" and verdict.certificate.lambdas == (1,)
    assert verdict.certificate.witness.mu == (1, 1) and verdict.certificate.witness.scale == 1
    verdict = decide("A", [], parse("p + ~p"))
    assert verdict.status == "proved" and verdict.certificate.witness.mu == ()
    verdict = decide("A", [], parse("p"))
    assert verdict.status == "refuted"
    assert verdict.countermodel.mapping == {"p": -1}


def test_abelian_witnesses_reverify():
    rng = Random(41)
    for _ in range(150):
        sigma = [random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 3))]
        phi = random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 3))
        verdict = decide("A", sigma, phi)
        if verdict.status == "proved":
            assert verify_linear_witness(verdict.certificate.witness, sigma, (1,), [phi])
        else:
            assert countermodel_refutes(verdict.countermodel, sigma, [phi])


def test_abelian_agrees_with_grid_refutation():
    rng = Random(42)
    for _ in range(150):
        sigma = [random_mult_formula(rng, ["p", "q"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        phi = random_mult_formula(rng, ["p", "q"], rng.randint(1, 3))
        verdict = decide("A", sigma, phi)
        grid = abelian_grid_refute(sigma, phi, 4)
        if verdict.status == "proved":
            assert grid is None
        # refuted verdicts come with their own verified countermodel; the
        # bounded grid may or may not find one


def test_sugihara_examples():
    assert sugihara_decide("IUMLm", [], parse("1 -> 0")).status == "proved"
    verdict = sugihara_decide("RMt", [], parse("1 -> 0"))
    assert verdict.status == "refuted"
    assert verdict.countermodel.chain == "sugihara_even_2"
    assert sugihara_decide("RMt", [], parse("(p + p) -> p")).status == "proved"


def test_sugihara_rejects_non_multiplicative():
    with pytest.raises(NotMultiplicativeError):
        sugihara_decide("RMt", [], parse("p | q"))


def test_sugihara_agrees_with_brute_force():
    rng = Random(4242)
    for _ in range(200):
        sigma = [random_mult_formula(rng, ["p", "q"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        phi = random_mult_formula(rng, ["p", "q"], rng.randint(1, 3))
        verdict = sugihara_decide("RMt", sigma, phi)
        names = 2
        counterexample = brute_force_consequence(rmt_chain_family(names), sigma, phi)
        assert (verdict.status == "proved") == (counterexample is None)


def test_sugihara_stable_under_widening():
    rng = Random(98)
    for _ in range(100):
        sigma = [random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        phi = random_mult_formula(rng, ["p", "q", "r"], rng.randint(1, 4))
        k = len(variables_of(sigma + [phi]))
        for logic in ("RMt", "IUMLm"):
            chains = class_chains(lookup_logic(logic).model_classes, k)
            base = chain_support(chains, sigma, [phi])
            # every point of the wider chains, as the search ignores width
            assert bool(base) == (brute_force_consequence(widened(chains, 2), sigma, phi) is None)
            assert (sugihara_decide(logic, sigma, phi).status == "proved") == bool(base)


@pytest.mark.parametrize("logic", ["RMt", "IUMLm"])
def test_subset_weights_are_the_union_of_valid_subsets(logic):
    """The weights ``prove_subsets`` certifies are exactly the union of the
    subsets whose sum every kept canonical point designates, tried one by
    one; none is valid when it refutes, and it has no third answer."""
    rng = Random(1313 + len(logic))
    for _ in range(40):
        goal = random_goal(rng, max_disjuncts=6, max_hyps=2, max_depth=3)
        hyps, disjuncts = goal.hypotheses, goal.clause.disjuncts
        chains = decision_chains(logic, len(variables_of(hyps + disjuncts)))
        expected = brute_force_support(chains, hyps, disjuncts)
        result = prove_disjunction(logic, goal)
        if result.status == "proved":
            lambdas = result.certificate.lambdas
            assert {i for i, weight in enumerate(lambdas) if weight} == expected, goal
        else:
            assert result.status == "refuted" and expected == set(), goal


def test_prove_subsets_compiles_only_its_goal():
    # the certificate's chains are read off the variables; the check, not
    # the procedure, compiles the sum's own question
    goal = Goal.of([parse("p -> q")], [parse("p -> r"), parse("r -> q"), parse("q -> p")])
    level_search.cache_clear()
    result = oracles.prove_subsets(lookup_logic("RMt"), goal)
    assert result.status == "proved" and level_search.cache_info().misses == 1
    assert check_result("RMt", result) is result


def test_decision_chain_sizes():
    chains = decision_chains("IUMLm", 2)
    assert [len(c.carrier) for c in chains] == [7]  # 2k+3
    chains = decision_chains("RMt", 2)
    assert sorted(len(c.carrier) for c in chains) == [7, 8]


def test_hilbert_examples():
    assert hilbert_search("MLL0", [], parse("0 -> 1")).status == "proved"
    verdict = hilbert_search("BIULm", [], parse("(p + p) -> p^2"))
    assert verdict.status == "proved"
    assert len(verdict.certificate.witness.lines) <= 5
    assert hilbert_search("MLL", [], parse("p")).status == "unknown"


def test_hilbert_axiom_instance_in_one_line(monkeypatch):
    # a target the instance stream holds is proved without building it
    def no_stream(*args):
        raise AssertionError("instance stream built for an axiom instance")

    monkeypatch.setattr(oracles, "_axiom_instances", no_stream)
    cases = [
        ("MLL", parse("p -> p"), "axiom identity"),
        ("MLL", parse("p -> (q -> (p * q))"), "axiom fusion_intro"),
        ("MLL0", parse("0 -> 1"), "axiom zero_one"),
        ("BIULm", parse("(p + p) -> p^2"), "axiom balance_up_2"),
        ("BIULm", parse("p^3 -> 3*p"), "axiom balance_down_3"),
        # past the default family bound 8: the member's n is read off phi
        ("BIULm", parse("9*p -> p^9"), "axiom balance_up_9"),
        ("BIULm", parse("p^12 -> 12*p"), "axiom balance_down_12"),
    ]
    for logic, phi, just in cases:
        verdict = hilbert_search(logic, [], phi)
        assert verdict.status == "proved", render(phi)
        lines = verdict.certificate.witness.lines
        assert [(line.formula, line.justification) for line in lines] == [(phi, just)]
        assert verify_derivation(logic, lines)


def test_hilbert_matching_agrees_with_the_stream(monkeypatch):
    # With the axiom shortcut patched out the search builds the instance
    # stream: the same verdicts and derivations, or unknown where the stream
    # misses an axiom instance the shortcut proves, its arguments outside
    # the pool prefix or the stream cut at its instance cap.
    rng = Random(77)
    big = parse("((p * q) -> (q * r)) * ~(r -> p)")
    problems = [
        ("MLL", [], parse("p -> p")),
        ("MLL", [], Imp(big, big)),
        ("MLL", [], parse("(p * q) -> (q * p)")),
        ("BIULm", [parse("q + q")], parse("q")),
        ("BIULm", [], parse("(p + p) -> p^2")),
    ]
    for _ in range(30):
        hyps = [random_mult_formula(rng, ["p", "q"], 1) for _ in range(rng.randint(0, 1))]
        problems.append(("BIULm", hyps, random_mult_formula(rng, ["p", "q"], rng.randint(1, 3))))
    # (pool size, instance cap, line budget): the defaults, then the cuts
    settings = [(28, 12000, 400), (2, 12000, 100), (28, 40, 100)]
    # the stream and the pool only: no search in MLL with mix
    monkeypatch.setattr(oracles, "mix_lines", lambda logic, phi: None)
    shortcut = missed = 0
    for pool_limit, max_instances, max_lines in settings:
        monkeypatch.setattr(oracles, "POOL_LIMIT", pool_limit)
        monkeypatch.setattr(oracles, "MAX_INSTANCES", max_instances)
        budget = HilbertBudget(max_lines=max_lines)
        for logic, sigma, phi in problems:
            fast = hilbert_search(logic, sigma, phi, budget)
            with monkeypatch.context() as patched:
                patched.setattr(oracles, "matching_axiom", lambda logic, f: None)
                slow = hilbert_search(logic, sigma, phi, budget)
            lines = fast.certificate.witness.lines if fast.certificate else ()
            one_axiom = len(lines) == 1 and lines[0].justification.startswith("axiom")
            shortcut += one_axiom
            if fast != slow:
                assert one_axiom and slow.status == "unknown", render(phi)
                missed += 1
    assert shortcut and missed and shortcut < len(settings) * len(problems)


def test_hilbert_uses_hypotheses_and_mp():
    verdict = hilbert_search("MLL", [parse("p"), parse("p -> q")], parse("q"))
    assert verdict.status == "proved"
    assert verify_derivation("MLL", verdict.certificate.witness.lines,
                             hypotheses=[parse("p"), parse("p -> q")])


def test_hilbert_unperforated_rule():
    # from 2*f the rule recovers f
    verdict = hilbert_search("BIULm", [parse("q + q")], parse("q"))
    assert verdict.status == "proved"
    justs = [line.justification for line in verdict.certificate.witness.lines]
    assert any(j.startswith("u_2") for j in justs)


def test_hilbert_proofs_verify():
    rng = Random(31)
    goals = [
        ("BIULm", [], parse("(p + p) -> p^2")),
        ("BIULm", [], parse("p^3 -> (p + p + p)")),
        ("MLL0", [], parse("0 -> 1")),
        ("MLL", [], parse("p -> p")),
        ("MLL", [], parse("(p * q) -> (p * q)")),
        ("MLL", [parse("p")], parse("1 -> p")),
    ]
    for name, sigma, phi in goals:
        verdict = hilbert_search(name, sigma, phi)
        assert verdict.status == "proved", render(phi)
        lines = verdict.certificate.witness.lines
        assert verify_derivation(name, lines, hypotheses=sigma), render(phi)


def test_verify_derivation_examples():
    assert verify_derivation("MLL", [parse("p -> p")])
    assert verify_derivation("MLL", [parse("p"), parse("p -> q"), parse("q")],
                             hypotheses=[parse("p"), parse("p -> q")])
    check = verify_derivation("MLL", [parse("q")])
    assert not check and check.bad_index == 1


def test_verify_derivation_rule_gating():
    # the unperforated rule is only available where the fragment has it
    lines = [parse("q + q"), parse("q")]
    assert verify_derivation("BIULm", lines, hypotheses=[parse("q + q")])
    assert not verify_derivation("MLL", lines, hypotheses=[parse("q + q")])


def test_verify_derivation_checks_the_multiplicative_system_alone():
    # the system the searches derive in has no adjunction and no lattice
    # axioms, so lines that need them are unjustified
    p, q = parse("p"), parse("q")
    check = verify_derivation("IULm", [p, q, parse("p & q")], hypotheses=[p, q])
    assert not check and check.bad_index == 3
    check = verify_derivation("knotted(1,1,1:1:1:1)", [parse("p | ~p")])  # excluded_middle
    assert not check and check.bad_index == 1


def test_verify_derivation_tries_rules_before_axioms(monkeypatch):
    # an mp line matched against the balance family first would walk it to
    # n of about size/6
    calls = []
    match = logics.match_template
    monkeypatch.setattr(logics, "match_template", lambda *args: calls.append(args) or match(*args))
    hyps = [parse("p"), parse("p -> p^1000")]
    assert verify_derivation("BIULm", hyps + [parse("p^1000")], hypotheses=hyps)
    assert len(calls) == 0


def test_verify_derivation_reads_the_family_member_off_the_line():
    # only the balance members whose n a side's power fixes are built, so a
    # forged line costs about its own size and leaves few members cached
    logics._balance_schemas.cache_clear()
    start = time.perf_counter()
    assert not verify_derivation("BIULm", [parse("p^1000 -> q")])
    assert time.perf_counter() - start < 0.5
    assert logics._balance_schemas.cache_info().currsize <= 3
    assert verify_derivation("BIULm", [parse("9*p -> p^9")])
    assert verify_derivation("BIULm", [parse("(p * q)^12 -> 12*(p * q)")])
    assert not verify_derivation("BIULm", [parse("9*p -> p^8")])


def test_countermodel_refutes_is_exact():
    cm = Countermodel.of("Z", {"p": -1})
    assert countermodel_refutes(cm, [], [parse("p")])
    assert not countermodel_refutes(cm, [], [parse("~p")])


def test_decide_dispatch():
    assert decide("A", [], parse("p + ~p")).status == "proved"
    assert decide("RMt", [], parse("1 -> 0")).status == "refuted"
    assert decide("BIULm", [], parse("0 -> 1")).status == "proved"


def test_decide_closes_a_scaled_proposal_only_by_u_n():
    # a logic that declares Z but has no unperforated rule: the LP's
    # proposal proves p + p, its weight 2, but nothing there derives p
    # from it, so decide goes on to the search at the weight 1
    spec = logics.LogicSpec("MLL with Z", "MLL", model_classes=("Z",))
    verdict = decide(spec, [parse("p + p")], parse("p"), HilbertBudget(max_lines=100))
    assert verdict.status == "unknown"
    lines = decide("BIULm", [parse("p + p")], parse("p")).certificate.witness.lines
    assert [line.justification for line in lines] == ["hypothesis", "u_2 1"]


def _proved(hyps, phi, witness, lambdas=(1,)):
    goal = Goal.of([parse(h) for h in hyps], [parse(phi)])
    return ProofResult("proved", goal, certificate=ToACertificate(lambdas, witness))


def _refuted(disjuncts, chain, valuation):
    goal = Goal.of([], [parse(d) for d in disjuncts])
    return ProofResult("refuted", goal, countermodel=Countermodel.of(chain, valuation))


FORGED = {
    # balances on the linear readings, but BIULm's procedure makes derivations
    "wrong witness kind": ("BIULm", _proved([], "p -> p", LinearWitness((), 1))),
    # the odd chain designates 1 -> 0, RMt's even chains do not
    "missing decision chain": (
        "RMt",
        _proved([], "1 -> 0", ChainExhaustiveWitness(("sugihara_odd_1",))),
    ),
    # the even chain refutes 1 -> 0, but IUMLm declares only odd chains
    "undeclared model class": (
        "IUMLm",
        ProofResult(
            "refuted",
            Goal.of([], [parse("1 -> 0")]),
            countermodel=Countermodel.of("sugihara_even_2", {}),
        ),
    ),
    # both lines are axiom instances, but the last is not the target
    "derivation of another formula": (
        "BIULm",
        _proved(
            [],
            "p -> p",
            DerivationWitness(
                (
                    DerivationLine(1, parse("p -> p"), "axiom identity"),
                    DerivationLine(2, parse("q -> q"), "axiom identity"),
                )
            ),
        ),
    ),
    # p + p balances p only at scale 2
    "wrong linear scale": ("A", _proved(["p + p"], "p", LinearWitness((1,), 1))),
    # one weight per hypothesis
    "missing hypothesis weight": ("A", _proved(["p"], "p", LinearWitness((), 1))),
    # a linear witness is read against the weighted sum, so the weights
    # keep the rules of combination_formula: not all zero, none negative,
    # one per disjunct
    "zero weights on a linear witness": ("A", _proved(["p"], "p", LinearWitness((0,), 1), (0,))),
    "negative weight on a linear witness": (
        "A",
        _proved(["p"], "p", LinearWitness((1,), 1), (-1,)),
    ),
    "extra weight on a linear witness": ("A", _proved(["p"], "p", LinearWitness((1,), 1), (1, 0))),
    # a countermodel's values lie in its chain's carrier, one per variable,
    # and its chain name resolves
    "value outside the even carrier": ("RMt", _refuted(["p", "~p"], "sugihara_even_2", {"p": 0})),
    "value below the odd carrier": ("RMt", _refuted(["p", "~p"], "sugihara_odd_1", {"p": -5})),
    "variable without a value": ("RMt", _refuted(["p", "~p"], "sugihara_odd_1", {})),
    "chain without a half-width": ("RMt", _refuted(["p", "~p"], "sugihara_odd_x", {"p": 1})),
    "chain of half-width 0": ("RMt", _refuted(["p", "~p"], "sugihara_odd_0", {"p": 0})),
    "non-integer value in Z": ("A", _refuted(["p"], "Z", {"p": "x"})),
    # each would refute its goal in Z if it were whole and integral
    "fractional value in Z": ("A", _refuted(["p"], "Z", {"p": Fraction(-1, 2)})),
    "disjunct variable without a value in Z": ("A", _refuted(["p -> q"], "Z", {"p": 1})),
    "hypothesis variable without a value in Z": (
        "A",
        ProofResult(
            "refuted",
            Goal.of([parse("q")], [parse("p")]),
            countermodel=Countermodel.of("Z", {"p": -1}),
        ),
    ),
    # p -> q fails there, but no decision on two variables uses a chain
    # wider than half-width 4
    "chain wider than any decision chain": (
        "RMt",
        _refuted(["p -> q"], "sugihara_odd_50", {"p": 50, "q": -50}),
    ),
}
# p -> q fails at p = 1, q = -1 on sugihara_odd_3, but only that spelling
# names it
for half_width in ("+3", "03", "1_0", " 3"):
    FORGED[f"chain named sugihara_odd_{half_width}"] = (
        "RMt",
        _refuted(["p -> q"], f"sugihara_odd_{half_width}", {"p": 1, "q": -1}),
    )


@pytest.mark.parametrize("label", FORGED)
def test_check_result_rejects_forged_evidence(label):
    logic, forged = FORGED[label]
    with pytest.raises(InvalidCertificateError):
        check_result(logic, forged)
    # the logic's own answer to the same goal passes unchanged
    goal = forged.goal
    genuine = decide(logic, goal.hypotheses, goal.clause.disjuncts[0])
    assert genuine.status != "unknown" and check_result(logic, genuine) is genuine


def test_seven_variable_theorem_is_proved():
    # about 3**7 pairs of a state and its top level per search, where the
    # canonical grids held 8.6M and 12M points; the sum certified is r + ~r,
    # the first and last disjuncts in the structural order
    goal = " | ".join([f"(p -> q{i})" for i in range(5)] + ["r", "~r"])
    result = prove_consequence("RMt", [], parse(goal))
    assert result.status == "proved", result
    (proof,) = result.results
    disjuncts = proof.goal.clause.disjuncts
    assert (disjuncts[0], disjuncts[-1]) == (parse("r"), parse("~r"))
    assert proof.certificate.lambdas == (1, 0, 0, 0, 0, 0, 1)
    assert proof.certificate.witness.chains == ("sugihara_even_3", "sugihara_odd_2")


def test_rmt_needs_both_chain_parities():
    # {0} |- p holds vacuously on every even chain (the constant 0 is never
    # designated there) yet fails on odd chains, where 0 is the unit; an
    # even-only procedure would wrongly prove it.
    verdict = sugihara_decide("RMt", [parse("0")], parse("p"))
    assert verdict.status == "refuted"
    assert verdict.countermodel.chain.startswith("sugihara_odd_")


def test_hilbert_multi_step_theorems():
    for text in (
        "(p * q) -> (q * p)",
        "p -> ~~p",
        "1 -> (p -> p)",
        "(p -> q) -> (~q -> ~p)",
    ):
        verdict = hilbert_search("MLL", [], parse(text))
        assert verdict.status == "proved", text
        assert verify_derivation("MLL", verdict.certificate.witness.lines), text


def test_hilbert_proofs_sound_on_chains():
    # anything the balanced logic's search proves must be designated on the
    # odd chains, which model every balance instance
    from itertools import product

    from gordian.chains import eval_formula, sugihara_chain
    from gordian.syntax import variables

    rng = Random(616)
    chains = [sugihara_chain(k, odd=True) for k in (1, 2, 3)]
    proved = 0
    for _ in range(120):
        phi = random_mult_formula(rng, ["p", "q"], rng.randint(1, 3))
        verdict = hilbert_search("BIULm", [], phi)
        if verdict.status != "proved":
            continue
        proved += 1
        names = sorted(variables(phi))
        for chain in chains:
            for point in product(chain.carrier, repeat=len(names)):
                value = eval_formula(chain, dict(zip(names, point)), phi)
                assert chain.designated(value), render(phi)
    assert proved >= 10  # the sample must actually exercise the search


def test_refuted_instances_admit_no_small_combination():
    import itertools as _it

    from gordian.linalg import linear_coefficients

    rng = Random(5252)
    checked = 0
    for _ in range(200):
        sigma = [random_mult_formula(rng, ["p", "q"], rng.randint(1, 2))
                 for _ in range(2)]
        phi = random_mult_formula(rng, ["p", "q"], rng.randint(1, 2))
        if decide("A", sigma, phi).status != "refuted":
            continue
        checked += 1
        gens = [linear_coefficients(h) for h in sigma]
        target = linear_coefficients(phi)
        names = sorted(target.keys() | gens[0].keys() | gens[1].keys())
        for mu in _it.product(range(11), repeat=2):
            for scale in range(1, 4):
                assert any(
                    mu[0] * gens[0].get(v, 0) + mu[1] * gens[1].get(v, 0) != scale * target.get(v, 0)
                    for v in names
                )
    assert checked >= 20


def test_hilbert_with_hypotheses_fusion():
    verdict = hilbert_search("MLL", [parse("p")], parse("p * p"))
    assert verdict.status == "proved"
    assert verify_derivation("MLL", verdict.certificate.witness.lines, hypotheses=[parse("p")])


def _built_then_filtered(schemas, pool, max_size, dropped):
    """Reference stream: build every instance, then drop the oversized
    (appended to ``dropped``)."""
    produced = 0
    for schema in schemas:
        mvars = sorted(metavariables(schema.template))
        if not mvars:
            yield schema.name, schema.template
            produced += 1
            continue
        source = pool[: max(8, len(pool) // (2 ** (len(mvars) - 1)))]
        for combo in itertools.product(source, repeat=len(mvars)):
            instance = instantiate(schema, dict(zip(mvars, combo)))
            if instance.size > max_size:
                dropped.append(instance)
                continue
            yield schema.name, instance
            produced += 1
            if produced >= oracles.MAX_INSTANCES:
                return


def test_axiom_instances_skip_oversized_before_building(monkeypatch):
    # the benchmark's hilbert mix: BIULm under a weight cap of 2 and 400
    # lines, on theorems, two theorems the saturation misses and seeded
    # goals, and more theorems, since the weight vectors that the model
    # classes refute build no stream
    calls = []
    real = oracles._axiom_instances

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "_axiom_instances", recording)
    monkeypatch.setattr(oracles, "mix_lines", lambda logic, phi: None)  # every search streams
    budget = EngineBudget(lambda_cap=2, hilbert=HilbertBudget(max_lines=400))
    texts = ["p | ~p", "0 -> 1", "p -> p", "p * q -> q * p", "p + p -> p * p",
             "p * p -> p + p", "p -> q -> p * q", "p * (q * r) -> (p * q) * r",
             "(p -> q) | (q -> p)", "(p * q) * r -> p * (q * r)", "p * 1 -> p",
             "1 -> p -> p", "(p -> q) -> (q -> r) -> p -> r", "p * 1 -> 1 * p"]
    problems = [([], parse(t)) for t in texts]
    rng = Random(13)
    for _ in range(8):
        hyps = [random_mult_formula(rng, ["p", "q"], 1) for _ in range(rng.randint(0, 1))]
        problems.append((hyps, random_mult_formula(rng, ["p", "q"], rng.randint(1, 2))))
    for hyps, concl in problems:
        prove_consequence("BIULm", hyps, concl, budget)
    assert len(calls) >= 10
    dropped = []
    for schemas, pool, max_size in calls:
        stream = list(real(schemas, pool, max_size))
        assert stream == list(_built_then_filtered(schemas, pool, max_size, dropped))
    assert dropped


def test_hilbert_pool_renders_only_its_candidates(monkeypatch):
    # a deep target that is no axiom instance: the pool is the prefix of
    # the subterms in the structural order, and building it renders nothing
    phi = parse("p^600 -> p^600 * 1")
    rendered, pools = [], []
    real_stream = oracles._axiom_instances

    def counting(f):
        rendered.append(f)
        return render(f)

    def recording(schemas, pool, max_size):
        pools.append(pool)
        return real_stream(schemas, pool, max_size)

    for name, module in list(sys.modules.items()):
        if name.startswith("gordian") and getattr(module, "render", None) is render:
            monkeypatch.setattr(module, "render", counting)
    monkeypatch.setattr(oracles, "_axiom_instances", recording)
    monkeypatch.setattr(oracles, "mix_lines", lambda logic, phi: None)  # the pool is built
    hilbert_search("BIULm", [], phi)
    assert rendered == []
    subterms = {g for f in (phi, ONE, ZERO) for g in subformulas(f)}
    key = structural_order(subterms)
    assert pools == [sorted(subterms, key=key)[: oracles.POOL_LIMIT]]
    assert [f.size for f in pools[0]] == sorted(f.size for f in subterms)[: oracles.POOL_LIMIT]
