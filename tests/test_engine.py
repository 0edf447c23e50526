import itertools
import time
from random import Random

import pytest

from helpers import (
    abelian_goal_countermodel,
    brute_force_consequence,
    form_variables,
    goal_holds_brute_force,
    iuml_chain_family,
    random_formula,
    random_goal,
    ref_eval_abelian,
    rmt_chain_family,
)

from gordian import chains, engine, linalg, oracles
from gordian.check import (
    Countermodel,
    LinearWitness,
    check_result,
    combination_formula,
    countermodel_refutes,
    verify_derivation,
    verify_linear_witness,
)
from gordian.engine import (
    DEFAULT_BUDGET,
    EngineBudget,
    _prove_deepening,
    prove_consequence,
    prove_disjunction,
)
from gordian.errors import InvalidCertificateError, LogicWithoutToAError, SizeBudgetExceededError
from gordian.linalg import IntMatrix, Kernel, gordan, linear_coefficients
from gordian.logics import lookup_logic
from gordian.normalize import Goal
from gordian.oracles import (
    HilbertBudget,
    class_countermodel,
    decide,
    hilbert_search,
    sugihara_decide,
)
from gordian.syntax import parse, plus, scalar, variables_of


def goal_of(hyp_texts, disjunct_texts) -> Goal:
    return Goal.of([parse(t) for t in hyp_texts], [parse(t) for t in disjunct_texts])


def test_requires_toa():
    # MLL has no theorem of alternatives: no consequence or disjunction
    # goal is decided there, but its one-target question is, by a derivation
    with pytest.raises(LogicWithoutToAError):
        prove_disjunction("MLL", goal_of([], ["p"]))
    with pytest.raises(LogicWithoutToAError):
        prove_consequence("MLL", [], parse("p -> p"))
    verdict = decide("MLL", [], parse("p -> p"))
    assert verdict.status == "proved" and verdict.certificate.witness.kind == "derivation"
    assert check_result("MLL", verdict) is verdict


def test_rmt_excluded_middle_subset():
    result = prove_disjunction("RMt", goal_of([], ["p", "~p"]))
    assert result.status == "proved"
    assert result.certificate.lambdas == (1, 1)


def test_abelian_symmetry_goal():
    result = prove_disjunction("A", goal_of([], ["p -> q", "q -> p"]))
    assert result.status == "proved"
    assert result.certificate.lambdas == (1, 1)


def test_abelian_refutation_strict_dual():
    result = prove_disjunction("A", goal_of([], ["p", "q"]))
    assert result.status == "refuted"
    assert countermodel_refutes(
        result.countermodel, [], [parse("p"), parse("q")]
    )


def test_abelian_with_hypotheses():
    result = prove_disjunction("A", goal_of(["p -> q", "q -> r"], ["p -> r"]))
    assert result.status == "proved"
    result = prove_disjunction("A", goal_of(["p -> q"], ["q -> p"]))
    assert result.status == "refuted"


def test_goals_past_the_level_search_variable_cap():
    # one variable too many for a mingle logic's chains; BIULm refutes the
    # goal in Z and never asks its Sugihara class
    wide = parse(" | ".join(f"(p -> q{i})" for i in range(chains.VARIABLE_CAP)))
    with pytest.raises(SizeBudgetExceededError):
        prove_consequence("RMt", [], wide)
    assert prove_consequence("BIULm", [], wide).countermodel.chain == "Z"


def test_wide_theorem_past_the_cap_reaches_the_proof_search(monkeypatch):
    # past the cap the Sugihara classes are not asked, so only Z may refute
    # and the Hilbert layer decides: the search in MLL with mix proves these
    atoms = [f"p{i}" for i in range(1, chains.VARIABLE_CAP + 2)]
    wide = parse(" * ".join(atoms) + " -> " + " * ".join(reversed(atoms)))
    result = prove_consequence("BIULm", [], wide)
    assert result.status == "proved"
    assert result.results[0].certificate.witness.lines[-1].formula == wide
    # the cap is read at call time: an odd chain refutes this goal, which Z
    # does not, until the cap falls below its two variables
    goal = parse("(p -> q) * (q -> p) -> 1")
    assert prove_consequence("BIULm", [], goal).countermodel.chain == "sugihara_odd_3"
    monkeypatch.setattr(chains, "VARIABLE_CAP", 1)
    assert prove_consequence("BIULm", [], goal).status == "unknown"


def test_combination_formula_shape():
    disjuncts = (parse("p"), parse("q"), parse("r"))
    combo = combination_formula((1, 0, 2), disjuncts)
    assert combo == plus(parse("p"), scalar(2, parse("r")))
    with pytest.raises(InvalidCertificateError):
        combination_formula((0, 0, 0), disjuncts)
    with pytest.raises(InvalidCertificateError):
        combination_formula((1, -1, 0), disjuncts)
    # one weight per disjunct
    for lambdas in ((1,), (1, 0, 2, 1)):
        with pytest.raises(InvalidCertificateError):
            combination_formula(lambdas, disjuncts)


def test_expand_rejects_mismatched_certificates():
    from gordian.check import ChainExhaustiveWitness, ToACertificate

    # a certificate's weights are combined over the goal's own disjuncts:
    # the wrong number of weights, or all-zero weights, is rejected
    goal = goal_of([], ["p", "~p"])
    for cert in (
        ToACertificate((1,), ChainExhaustiveWitness(())),
        ToACertificate((0, 0), ChainExhaustiveWitness(())),
    ):
        with pytest.raises(InvalidCertificateError):
            combination_formula(cert.lambdas, goal.clause.disjuncts)


def test_prove_consequence_examples():
    assert prove_consequence("IUMLm", [], parse("1 -> 0")).status == "proved"
    result = prove_consequence("A", [parse("p -> q"), parse("q -> r")], parse("p -> r"))
    assert result.status == "proved"
    result = prove_consequence("RMt", [], parse("1 -> 0"))
    assert result.status == "refuted"
    assert result.countermodel is not None


def test_consequence_aggregates_goals():
    result = prove_consequence("A", [], parse("(p -> p) & (q -> q)"))
    assert result.status == "proved" and len(result.results) == 2
    result = prove_consequence("A", [], parse("(p -> p) & q"))
    assert result.status == "refuted"


def test_excluded_middle_all_logics():
    for name in ("A", "RMt", "IUMLm", "BIULm"):
        for text in ("p | ~p", "0 -> 1"):
            assert prove_consequence(name, [], parse(text)).status == "proved", (name, text)


def test_dispatch_is_by_oracle_kind():
    # p * p -> p is a mingle theorem that Z refutes (p = 1): the procedure
    # is the logic's own, and no caller can pick another
    goal = goal_of([], ["p * p -> p"])
    for logic, status in (("RMt", "proved"), ("IUMLm", "proved"), ("A", "refuted")):
        assert prove_disjunction(logic, goal).status == status, logic
        assert prove_consequence(logic, [], parse("p * p -> p")).status == status, logic
    with pytest.raises(TypeError):
        prove_disjunction("RMt", goal, strategy="linear")


def test_abelian_completeness_against_semantic_lp():
    rng = Random(6021)
    for _ in range(80):
        goal = random_goal(rng)
        result = prove_disjunction("A", goal)
        countermodel = abelian_goal_countermodel(goal)
        assert (result.status == "proved") == (countermodel is None)


def test_abelian_without_hypotheses_is_gordan():
    # With no hypotheses the engine's LP is the Gordan dichotomy of the
    # matrix whose columns are the disjuncts' linear forms: the weights are
    # its kernel vector and the countermodel its negated strict dual.
    rng = Random(4404)
    compared, verdicts = 0, set()
    while compared < 300:
        goal = random_goal(rng, names=("p", "q", "r", "s"), max_disjuncts=4, max_hyps=0)
        forms = [linear_coefficients(d) for d in goal.clause.disjuncts]
        variables = form_variables(forms)
        if not variables:
            continue
        dichotomy = gordan(IntMatrix.of([[f.get(v, 0) for f in forms] for v in variables]))
        result = prove_disjunction("A", goal)
        verdicts.add(result.status)
        if isinstance(dichotomy, Kernel):
            assert result.status == "proved"
            assert result.certificate.lambdas == dichotomy.x
            assert result.certificate.witness.mu == ()
        else:
            assert result.status == "refuted"
            expected = {v: 0 for v in result.countermodel.mapping}
            expected.update(zip(variables, (-y for y in dichotomy.y)))
            assert result.countermodel.mapping == expected
        compared += 1
    assert verdicts == {"proved", "refuted"}


def test_decide_is_the_one_disjunct_goal():
    # decide asks the logic's procedure the one-disjunct question, so it
    # agrees with prove_disjunction on that goal up to where the weight
    # sits.  For BIULm both refute on the declared model classes before the
    # Hilbert search, or both prove at the weight the Z LP proposes.
    budget = EngineBudget(lambda_cap=1, hilbert=HilbertBudget(max_lines=200))
    rng = Random(4405)
    for logic in ("A", "RMt", "IUMLm", "BIULm"):
        statuses = set()
        # in A and BIULm the LP puts weight 2 on p
        goals = [goal_of(["p + p"], ["p"])] + [
            random_goal(rng, max_disjuncts=1, max_depth=3) for _ in range(60)
        ]
        for goal in goals:
            phi = goal.clause.disjuncts[0]
            one = decide(logic, goal.hypotheses, phi, budget=budget.hilbert)
            result = prove_disjunction(logic, goal, budget)
            statuses.add(result.status)
            assert one.status == result.status
            assert one.countermodel == result.countermodel
            if one.status != "proved":
                continue
            n = result.certificate.lambdas[0]
            if logic in ("A", "BIULm") and goal is goals[0]:
                assert n == 2
            if logic == "A":  # the LP's weight on phi is decide's scale
                assert one.certificate.lambdas == (1,) and result.certificate.witness.scale == 1
                assert one.certificate.witness == LinearWitness(
                    result.certificate.witness.mu, result.certificate.lambdas[0]
                )
            elif logic == "BIULm" and n > 1:  # a proof of n*phi and one u_n line
                lines = one.certificate.witness.lines
                assert one.certificate.lambdas == (1,)
                assert lines[:-1] == result.certificate.witness.lines
                assert (lines[-1].formula, lines[-1].justification) == (phi, f"u_{n} {len(lines) - 1}")
            else:
                assert one.certificate == result.certificate
        assert {"proved", "refuted"} <= statuses, logic


def test_decide_refutes_on_the_model_classes_before_the_search():
    one = decide("BIULm", [], parse("p"))
    assert one.status == "refuted"
    assert one.countermodel == Countermodel("Z", (("p", -1),))


def test_nonpositive_weight_cap_is_rejected():
    # with no weight vector to try, a theorem would come out unknown
    for cap in (0, -1):
        with pytest.raises(ValueError):
            prove_consequence("BIULm", [], parse("p -> p"), EngineBudget(lambda_cap=cap))
    assert prove_consequence("BIULm", [], parse("p -> p"), EngineBudget(lambda_cap=1)).status == "proved"


def test_mingle_collapse_general_vs_subset():
    # The one-table subset search, the deepening search and brute force
    # over the full grids agree, and the greedy subset is the union of all
    # subsets whose combination sugihara_decide proves.
    rng = Random(1311)
    families = {"RMt": rmt_chain_family(3), "IUMLm": iuml_chain_family(3)}
    for _ in range(150):
        for logic, chains in families.items():
            goal = random_goal(rng, max_disjuncts=4, max_depth=3)
            subset = prove_disjunction(logic, goal)
            general = _prove_deepening(lookup_logic(logic), goal, DEFAULT_BUDGET)
            brute = goal_holds_brute_force(chains, goal)
            assert subset.status in ("proved", "refuted")
            assert subset.status == general.status
            assert (subset.status == "proved") == brute
            if subset.status != "proved":
                continue
            n = len(goal.clause.disjuncts)
            union = set()
            for size in range(1, n + 1):
                for picked in itertools.combinations(range(n), size):
                    lambdas = tuple(int(i in picked) for i in range(n))
                    combo = combination_formula(lambdas, goal.clause.disjuncts)
                    if sugihara_decide(logic, goal.hypotheses, combo).status == "proved":
                        union.update(picked)
            chosen = {i for i, weight in enumerate(subset.certificate.lambdas) if weight}
            assert chosen == union, (goal.render(), subset.certificate.lambdas)


def test_proved_certificates_reverify():
    rng = Random(88)
    for logic_name in ("A", "RMt", "IUMLm"):
        logic = lookup_logic(logic_name)
        for _ in range(40):
            goal = random_goal(rng, max_depth=3)
            result = prove_disjunction(logic, goal)
            if result.status == "proved":
                combo = combination_formula(
                    result.certificate.lambdas, goal.clause.disjuncts
                )
                assert decide(logic, goal.hypotheses, combo).status == "proved"
                if logic_name == "A":
                    assert verify_linear_witness(
                        result.certificate.witness,
                        goal.hypotheses,
                        result.certificate.lambdas,
                        goal.clause.disjuncts,
                    )
            else:
                assert result.status == "refuted"
                assert countermodel_refutes(
                    result.countermodel, goal.hypotheses, goal.clause.disjuncts
                )


def test_biul_deepening_finds_certificates():
    goal = goal_of([], ["p", "~p"])
    result = prove_disjunction("BIULm", goal)
    assert result.status == "proved"
    assert result.certificate.lambdas == (1, 1)
    goal2 = goal_of([], ["0 -> 1"])
    assert prove_disjunction("BIULm", goal2).status == "proved"


def test_deterministic_results():
    rng = Random(9)
    goals = [random_goal(rng) for _ in range(10)]
    for goal in goals:
        a = prove_disjunction("A", goal)
        b = prove_disjunction("A", goal)
        assert a == b


def test_end_to_end_against_chain_semantics():
    # full pipeline (normalizer + engine + oracle) vs direct evaluation
    from random import Random


    rng = Random(303030)
    for _ in range(60):
        sigma = [random_formula(rng, ["p", "q"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        f = random_formula(rng, ["p", "q"], rng.randint(1, 3))
        for logic, chains in (
            ("IUMLm", iuml_chain_family(2)),
            ("RMt", rmt_chain_family(2)),
        ):
            result = prove_consequence(logic, sigma, f)
            direct = brute_force_consequence(chains, sigma, f) is None
            assert (result.status == "proved") == direct, (logic, sigma, f)


def test_end_to_end_abelian_grid_consistency():
    from random import Random

    from gordian.syntax import variables_of
    import itertools

    rng = Random(404040)
    for _ in range(60):
        sigma = [random_formula(rng, ["p", "q"], rng.randint(1, 3))
                 for _ in range(rng.randint(0, 2))]
        f = random_formula(rng, ["p", "q"], rng.randint(1, 3))
        result = prove_consequence("A", sigma, f)
        names = sorted(variables_of(sigma + [f]))
        if result.status == "proved":
            # a proved consequence admits no integer countermodel
            for point in itertools.product(range(-2, 3), repeat=len(names)):
                valuation = dict(zip(names, point))
                if all(ref_eval_abelian(h, valuation) >= 0 for h in sigma):
                    assert ref_eval_abelian(f, valuation) >= 0, (sigma, f, valuation)
        else:
            assert result.status == "refuted"
            cm = result.countermodel
            assert cm is not None and cm.chain == "Z"
            valuation = {v: 0 for v in names}
            valuation.update(cm.mapping)
            assert all(ref_eval_abelian(h, valuation) >= 0 for h in sigma)
            assert ref_eval_abelian(f, valuation) < 0


# A knotted logic declares no Z, so no LP proposes weights there: its goals
# go to the deepening at once.
KNOTTED = "knotted(1,1,1:1:1:1)"


def test_lambda_cap_yields_unknown():
    goal = goal_of([], ["p", "~p"])
    result = prove_disjunction(KNOTTED, goal, EngineBudget(lambda_cap=1))
    assert result.status == "unknown"
    result = prove_disjunction(KNOTTED, goal, EngineBudget(lambda_cap=2))
    assert result.status == "proved"


# The hilbert benchmark workload's budget.
WORKLOAD_BUDGET = EngineBudget(lambda_cap=2, hilbert=HilbertBudget(max_lines=400))


def test_model_classes_never_refute_what_the_search_proves(monkeypatch):
    # One-disjunct BIULm goals of the workload's shape, so that the search
    # answers for the goal itself; its budget is small to keep this quick.
    logic = lookup_logic("BIULm")
    budget = HilbertBudget(max_lines=100)
    monkeypatch.setattr(oracles, "MAX_INSTANCES", 1000)
    monkeypatch.setattr(oracles, "POOL_LIMIT", 10)
    rng = Random(2718)
    counts = {"proved": 0, "refuted": 0}
    for _ in range(300):
        goal = random_goal(rng, names=("p", "q"), max_disjuncts=1, max_hyps=1, max_depth=3)
        hyps, disjuncts = goal.hypotheses, goal.clause.disjuncts
        cm = class_countermodel(logic.model_classes, hyps, disjuncts)
        proved = hilbert_search(logic, hyps, disjuncts[0], budget).status == "proved"
        assert not (proved and cm is not None), (goal.render(), cm)
        if cm is not None:
            assert countermodel_refutes(cm, hyps, disjuncts)
            counts["refuted"] += 1
        counts["proved"] += proved
    assert counts["proved"] >= 25 and counts["refuted"] >= 100, counts


def test_proposals_leave_no_goal_unknown(monkeypatch):
    # 600 goals of two variables: the Z LP's weights, proved by the search
    # in MLL with mix, settle every goal that no model class refutes; the
    # deepening and the saturation, which left 42 of them unknown, take the
    # two proposals that fail (the fallback)
    proposals, failed = [], []
    real = oracles.hilbert_search

    def recording(logic, sigma, phi, budget=None, mu=None):
        verdict = real(logic, sigma, phi, budget, mu)
        if mu is not None:
            proposals.append(phi)
            if verdict.status != "proved":
                failed.append(phi)
        return verdict

    monkeypatch.setattr(oracles, "hilbert_search", recording)
    budget = EngineBudget(lambda_cap=4, hilbert=HilbertBudget(max_lines=400))
    rng = Random(11)
    counts = {"proved": 0, "refuted": 0, "unknown": 0}
    logic = lookup_logic("BIULm")
    for _ in range(600):
        goal = random_goal(rng, names=("p", "q"), max_disjuncts=2, max_hyps=2, max_depth=2)
        result = prove_disjunction(logic, goal, budget)
        assert check_result(logic, result) is result
        counts[result.status] += 1
    assert counts == {"proved": 250, "refuted": 350, "unknown": 0}
    assert (len(proposals), len(failed)) == (239, 2)


def test_no_proposal_past_the_cap(monkeypatch):
    # (p^300)^300 |- p has the weight 90,000 on p, past the largest
    # repetition a formula holds: no sum is built, and the goal falls back
    # to the deepening, as (p^20)^20 |- p, whose proof by the search in MLL
    # with mix took 46 s, does too
    proposed = []
    real = oracles.hilbert_search

    def recording(logic, sigma, phi, budget=None, mu=None):
        if mu is not None:
            proposed.append(phi)
        return real(logic, sigma, phi, budget, mu)

    monkeypatch.setattr(oracles, "hilbert_search", recording)
    budget = EngineBudget(lambda_cap=1, hilbert=HilbertBudget(max_lines=100))
    for text in ["(p^300)^300", "(p^20)^20"]:
        result = prove_consequence("BIULm", [parse(text)], parse("p"), budget)
        assert result.status == "unknown"
    assert proposed == []
    # at (p^5)^5, of weighted size 74, the proposal is made and proves
    result = prove_consequence("BIULm", [parse("(p^5)^5")], parse("p"), budget)
    assert result.status == "proved" and result.results[0].certificate.lambdas == (25,)
    assert len(proposed) == 1


def test_biul_refutations_recheck():
    rng = Random(3141)
    chains = set()
    for _ in range(150):
        goal = random_goal(rng, names=("p", "q"), max_disjuncts=2, max_hyps=1, max_depth=2)
        result = prove_disjunction("BIULm", goal, WORKLOAD_BUDGET)
        if result.status == "refuted":
            cm = result.countermodel
            assert countermodel_refutes(cm, goal.hypotheses, goal.clause.disjuncts)
            chains.add(cm.chain.rstrip("0123456789"))
    assert chains == {"Z", "sugihara_odd_"}


# Theorems of BIULm that the forward saturation misses.  They are theorems
# of MLL with mix, so the search in that system proves them; the test keeps
# the name it had while they ended unknown.
MISSED_THEOREMS = [
    "p * (q * r) -> (p * q) * r",
    "(p * q) * r -> p * (q * r)",
    "(p -> q) | (q -> p)",
]


@pytest.mark.parametrize("text", MISSED_THEOREMS)
@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, WORKLOAD_BUDGET], ids=["default", "workload"])
def test_missed_theorems_stay_unknown(text, budget):
    result = prove_consequence("BIULm", [], parse(text), budget)
    assert result.status == "proved"
    for goal in result.results:
        lines = goal.certificate.witness.lines
        combo = combination_formula(goal.certificate.lambdas, goal.goal.clause.disjuncts)
        assert lines[-1].formula == combo
        assert verify_derivation("BIULm", lines)


def test_deepening_skips_the_sums_the_model_classes_refute(monkeypatch):
    # the sums of the weights (1, 0), (0, 1) and (2, 0) are refuted on the
    # Sugihara chains, so the Hilbert search is asked only for the sum of (1, 1)
    asked = []
    real = engine.prove_one_target

    def recording(logic, goal, budget):
        asked.append(goal.clause.disjuncts[0])
        return real(logic, goal, budget)

    monkeypatch.setattr(engine, "prove_one_target", recording)
    result = prove_consequence(KNOTTED, [], parse("p | ~p"))
    assert result.status == "proved"
    assert result.results[0].certificate.lambdas == (1, 1)
    assert len(asked) == 1
    # one disjunct: no vector is checked, and the first sum is the goal
    asked.clear()
    assert prove_consequence(KNOTTED, [], parse("p * q -> q * p")).status == "proved"
    assert len(asked) == 1


@pytest.mark.parametrize("n", [17, 40])
def test_unperforation_holds_for_every_n(n):
    # u_n applies for every n >= 2, not only up to a bound: decide proves
    # n*p at the LP's weight n and closes it by u_n
    sigma = [scalar(n, parse("p"))]
    result = decide("BIULm", sigma, parse("p"))
    assert result.status == "proved"
    lines = result.certificate.witness.lines
    assert verify_derivation("BIULm", lines, hypotheses=sigma)
    assert lines[-1].justification == f"u_{n} 1"


@pytest.mark.parametrize("text", ["p^1000 -> p^1000", "(p*q)^30 -> (p*q)^30"])
def test_deep_axiom_instance_is_one_line(text):
    # matched against the schemas, however far outside the term pool its
    # arguments lie
    start = time.perf_counter()
    result = prove_consequence("BIULm", [], parse(text))
    assert time.perf_counter() - start < 1.0
    assert result.status == "proved"
    lines = result.results[0].certificate.witness.lines
    assert [(line.formula, line.justification) for line in lines] == [
        (parse(text), "axiom identity")
    ]
    assert verify_derivation("BIULm", lines)


def test_deepening_agrees_with_linear_on_abelian_goals():
    # In A the model class Z is complete, so the deepening route refutes
    # exactly what the one LP refutes, with the same countermodel.
    rng = Random(5772)
    statuses = set()
    for _ in range(200):
        goal = random_goal(rng, max_disjuncts=2, max_depth=3)
        linear = prove_disjunction("A", goal)
        deepening = _prove_deepening(lookup_logic("A"), goal, DEFAULT_BUDGET)
        assert linear.status == deepening.status, goal.render()
        assert linear.countermodel == deepening.countermodel
        statuses.add(linear.status)
    assert statuses == {"proved", "refuted"}


def _abelian_consequences():
    """Seeded random A consequences without and with hypotheses, and ones
    of the benchmark's lattice shape (0-2 hypotheses of depth 1-3 and a
    conclusion of depth 3-5 over four variables), each forking several goals."""
    rng = Random(2525)
    out = []
    for shape in ("no hypotheses", "hypotheses", "lattice"):
        names = ["p", "q", "r", "s"] if shape == "lattice" else ["p", "q", "r"]
        while len(out) < {"no hypotheses": 20, "hypotheses": 40, "lattice": 50}[shape]:
            if shape == "lattice":
                sigma = [random_formula(rng, names, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
                f = random_formula(rng, names, rng.randint(3, 5))
            else:
                hyps = 0 if shape == "no hypotheses" else rng.randint(1, 2)
                sigma = [random_formula(rng, names, rng.randint(1, 3)) for _ in range(hyps)]
                f = random_formula(rng, names, rng.randint(2, 4), lattice_weight=0.5)
            try:
                result = prove_consequence("A", sigma, f)
            except SizeBudgetExceededError:
                continue
            if len(result.results) > 1:
                out.append(result)
    return out


def test_shared_abelian_memo_changes_no_verdict():
    # the goals of a consequence share one memo, so a later goal may take an
    # earlier goal's countermodel; each goal still gets the verdict,
    # weights and witness of the goal decided alone, the consequence keeps
    # the first refuted goal's own countermodel, and every goal's
    # countermodel names exactly that goal's variables
    reused = 0
    for result in _abelian_consequences():
        alone = [prove_disjunction("A", r.goal) for r in result.results]
        assert [r.status for r in result.results] == [a.status for a in alone]
        assert [r.certificate for r in result.results] == [a.certificate for a in alone]
        refuted = [a for a in alone if a.status == "refuted"]
        assert result.countermodel == (refuted[0].countermodel if refuted else None)
        for r, a in zip(result.results, alone):
            if r.status == "refuted":
                goal = r.goal
                assert set(r.countermodel.mapping) == variables_of(goal.hypotheses + goal.clause.disjuncts)
                assert countermodel_refutes(r.countermodel, goal.hypotheses, goal.clause.disjuncts)
                reused += r.countermodel != a.countermodel
    assert reused  # some later goal took an earlier goal's countermodel


def test_abelian_consequence_reads_each_literal_once(monkeypatch):
    # four refuted goals: the first and third need the LP, the second and
    # fourth are refuted by p = -1 and by p = -2, q = -1 from before.  The
    # decision and the check read the literals' readings, which are folded
    # once per literal object between them
    calls = {"linear_alternative": 0, "fold": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(oracles, "linear_alternative")
    counting(linalg, "fold")
    result = prove_consequence("A", [], parse("(p & (q -> p)) | (p * p & q)"))
    assert [r.status for r in result.results] == ["refuted"] * 4
    assert calls["linear_alternative"] == 2
    literals = {id(f) for r in result.results for f in r.goal.hypotheses + r.goal.clause.disjuncts}
    assert calls["fold"] == len(literals)
