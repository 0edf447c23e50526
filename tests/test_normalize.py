import itertools
import time
from random import Random

import pytest

from helpers import (
    brute_force_consequence,
    conj_all,
    disj_all,
    iuml_chain_family,
    random_formula,
)

from gordian.chains import eval_abelian, eval_formula, sugihara_chain
from gordian import normalize
from gordian.errors import SizeBudgetExceededError
from gordian.normalize import (
    Goal,
    MultClause,
    _Budget,
    _cnf,
    _drop_subsumed,
    _push,
    decompose_consequence,
    to_mult_clauses,
)
from gordian.syntax import Conj, Disj, parse, render, variables, variables_of


def clauses_text(clauses):
    return [c.render() for c in clauses]


def test_to_mult_clauses_examples():
    assert clauses_text(to_mult_clauses(parse("p & (q | r)"))) == ["p", "q | r"]
    assert clauses_text(to_mult_clauses(parse("p + ~p"))) == ["p + ~p"]
    assert clauses_text(to_mult_clauses(parse("(p & q) -> r"))) == ["p -> r | q -> r"]


def test_to_mult_clauses_budget(monkeypatch):
    wide = " & ".join(f"(a{i} | b{i})" for i in range(8))
    deep = parse(f"({wide}) -> z")
    assert len(to_mult_clauses(deep)) == 256  # 2048 literals, within the default cap
    monkeypatch.setattr(normalize, "LITERAL_CAP", 64)
    with pytest.raises(SizeBudgetExceededError):
        to_mult_clauses(deep)


@pytest.mark.parametrize("text", ["(p & p)^20", "20*(p & p)", "(p | q)^20", "20*(p | q)"])
def test_work_guard_counts_the_clauses_of_shared_subtrees(text):
    # a few dozen distinct lattice nodes whose clause list holds 2^20
    # clauses; at a larger exponent an uncounted list would fill memory
    with pytest.raises(SizeBudgetExceededError):
        to_mult_clauses(parse(text))


def test_work_guard_counts_clauses_built_not_clauses_shared():
    conj = disj = parse("p")
    for _ in range(20):
        conj, disj = Conj(conj, conj), Disj(disj, disj)
    budget = _Budget(4096)  # conj's tree has 2^20 leaves, all one clause
    assert _cnf(_push(conj, budget), budget) == [(parse("p"),)]
    assert budget.used < 100
    with pytest.raises(SizeBudgetExceededError):  # one clause of 2^20 literals
        to_mult_clauses(disj)


def test_long_conjunctions_stay_within_the_work_guard():
    names = [f"p{i}" for i in range(2000)]
    left_nested = parse(" & ".join(names))
    right_nested = parse(" & (".join(names) + ")" * 1999)
    for f in (left_nested, right_nested):
        assert len(to_mult_clauses(f)) == 2000


def _quadratic_drop_subsumed(raw, max_literals):
    """The earlier all-pairs subsumption, followed by the literal cap."""
    clauses = [MultClause.of(c) for c in raw]
    sets = [frozenset(c.disjuncts) for c in clauses]
    kept = [
        c
        for i, c in enumerate(clauses)
        if not any(
            sets[j] < sets[i] or (sets[j] == sets[i] and j < i)
            for j in range(len(clauses))
            if j != i
        )
    ]
    out = sorted(set(kept), key=MultClause.render)
    if sum(len(c.disjuncts) for c in out) > max_literals:
        raise SizeBudgetExceededError("over the cap")
    return out


def test_drop_subsumed_matches_all_pairs(monkeypatch):
    rng = Random(2024)
    compared = 0
    for _ in range(300):
        f = random_formula(rng, ["p", "q", "r"], rng.randint(2, 5), lattice_weight=0.5)
        budget = _Budget(4096)
        try:
            raw = _cnf(_push(f, budget), budget)
        except SizeBudgetExceededError:
            continue  # the rewriting guard, before any subsumption
        if len(raw) > 400:
            continue  # keeps the all-pairs reference quick
        for cap in (4096, 12):
            monkeypatch.setattr(normalize, "LITERAL_CAP", cap)
            try:
                expected = _quadratic_drop_subsumed(raw, cap)
            except SizeBudgetExceededError:
                with pytest.raises(SizeBudgetExceededError):
                    _drop_subsumed(raw)
                continue
            assert _drop_subsumed(raw) == expected
            compared += len(raw) > 1
    assert compared > 100


def test_clause_cap_is_checked_while_dropping_subsumed():
    # 11,664 clauses, none subsumed: the cap trips long before the
    # all-pairs subsumption over them would finish
    f = parse(
        "((s * (1) -> 1) -> (s & 1) * (q | p)) * ((1) * s & r & (0 | r) * ((0) * p))"
        " -> (r & ((r -> q) -> (s & r) | (r -> s) -> 1 -> r))"
    )
    start = time.perf_counter()
    with pytest.raises(SizeBudgetExceededError):
        to_mult_clauses(f)
    assert time.perf_counter() - start < 5.0


def test_decompose_examples():
    goals = decompose_consequence([], parse("p & q"))
    assert [g.render() for g in goals] == ["|- p", "|- q"]
    goals = decompose_consequence([parse("p | q")], parse("r"))
    assert [g.render() for g in goals] == ["p |- r", "q |- r"]
    goals = decompose_consequence([parse("p & q")], parse("p"))
    assert [g.render() for g in goals] == ["p, q |- p"]


def test_decompose_goal_cap(monkeypatch):
    sigma = [parse("p | q"), parse("r | s")]
    assert len(decompose_consequence(sigma, parse("t & u"))) == 8
    monkeypatch.setattr(normalize, "GOAL_CAP", 8)  # the boundary: 8 goals pass
    assert len(decompose_consequence(sigma, parse("t & u"))) == 8
    monkeypatch.setattr(normalize, "GOAL_CAP", 7)
    with pytest.raises(SizeBudgetExceededError):
        decompose_consequence(sigma, parse("t & u"))


def test_decompose_idempotent_on_multiplicative_goals():
    sigma = [parse("p -> q"), parse("q -> r")]
    f = parse("(p -> r) | (r -> p)")
    goals = decompose_consequence(sigma, f)
    assert goals == [Goal.of(sigma, [parse("p -> r"), parse("r -> p")])]
    again = decompose_consequence(
        list(goals[0].hypotheses), disj_all(goals[0].clause.disjuncts)
    )
    assert again == goals


def test_clause_canonical_order_and_dedup():
    clause = MultClause.of([parse("q"), parse("p"), parse("q")])
    assert clause.disjuncts == (parse("p"), parse("q"))


def _designation_equivalent(f, clauses, chain, names) -> bool:
    rebuilt = conj_all([disj_all(c.disjuncts) for c in clauses])
    for point in itertools.product(chain.carrier, repeat=len(names)):
        valuation = dict(zip(names, point))
        a = chain.designated(eval_formula(chain, valuation, f))
        b = chain.designated(eval_formula(chain, valuation, rebuilt))
        if a != b:
            return False
    return True


def _grid_equivalent(f, clauses, names, bound=3) -> bool:
    rebuilt = conj_all([disj_all(c.disjuncts) for c in clauses])
    for point in itertools.product(range(-bound, bound + 1), repeat=len(names)):
        valuation = dict(zip(names, point))
        if (eval_abelian(f, valuation) >= 0) != (eval_abelian(rebuilt, valuation) >= 0):
            return False
    return True


def test_semantic_equivalence_of_normal_form():
    rng = Random(2024)
    odd_chains = [sugihara_chain(k, odd=True) for k in (1, 2, 3, 4)]
    for _ in range(120):
        f = random_formula(rng, ["p", "q", "r"], rng.randint(1, 4))
        clauses = to_mult_clauses(f)
        names = sorted(variables(f) | variables_of(d for c in clauses for d in c.disjuncts))
        for chain in odd_chains:
            assert _designation_equivalent(f, clauses, chain, names), render(f)
        assert _grid_equivalent(f, clauses, names), render(f)


def test_decomposition_preserves_consequence_semantics():
    # sigma |- f holds on the odd chains iff every produced goal holds
    rng = Random(77)
    chains = iuml_chain_family(3)
    from helpers import goal_holds_brute_force

    for _ in range(60):
        sigma = [random_formula(rng, ["p", "q"], rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        f = random_formula(rng, ["p", "q"], rng.randint(1, 3))
        direct = brute_force_consequence(chains, sigma, f) is None
        goals = decompose_consequence(sigma, f)
        via_goals = all(goal_holds_brute_force(chains, g) for g in goals)
        assert direct == via_goals


def test_goal_and_clause_require_multiplicative_parts():
    from gordian.errors import NotMultiplicativeError

    with pytest.raises(NotMultiplicativeError):
        MultClause.of([parse("p | q")])
    with pytest.raises(NotMultiplicativeError):
        Goal.of([parse("p & q")], [parse("p")])


def test_individual_rewrite_laws_on_chains_and_grid():
    # each distribution law is an equivalence on totally ordered models
    from gordian.chains import sugihara_chain

    laws = [
        ("((p & q) -> r)", "((p -> r) | (q -> r))"),
        ("((p | q) -> r)", "((p -> r) & (q -> r))"),
        ("(p -> (q & r))", "((p -> q) & (p -> r))"),
        ("(p -> (q | r))", "((p -> q) | (p -> r))"),
        ("(p * (q & r))", "((p * q) & (p * r))"),
        ("(p * (q | r))", "((p * q) | (p * r))"),
        ("(p & (q | r))", "((p & q) | (p & r))"),
        ("(p | (q & r))", "((p | q) & (p | r))"),
    ]
    chains = [sugihara_chain(k, odd) for k in (1, 2, 3) for odd in (True, False)]
    names = ["p", "q", "r"]
    for left_text, right_text in laws:
        left, right = parse(left_text), parse(right_text)
        for chain in chains:
            for point in itertools.product(chain.carrier, repeat=3):
                valuation = dict(zip(names, point))
                assert eval_formula(chain, valuation, left) == eval_formula(
                    chain, valuation, right
                ), (left_text, chain.name, valuation)
        for point in itertools.product(range(-2, 3), repeat=3):
            valuation = dict(zip(names, point))
            assert eval_abelian(left, valuation) == eval_abelian(right, valuation), (
                left_text,
                valuation,
            )
