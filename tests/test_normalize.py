import itertools
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from helpers import (
    brute_force_consequence,
    conj_all,
    disj_all,
    iuml_chain_family,
    random_formula,
    random_mult_formula,
    ref_eval_abelian,
)

from gordian.chains import eval_formula, sugihara_chain
from gordian import normalize, syntax
from gordian.engine import prove_consequence
from gordian.errors import SizeBudgetExceededError
from gordian.normalize import (
    Goal,
    MultClause,
    _Budget,
    _cnf,
    _drop_subsumed,
    _push,
    decompose_consequence,
    structural_order,
    to_mult_clauses,
)
from gordian.syntax import Binary, Conj, Disj, parse, render, variables, variables_of

SRC = Path(__file__).resolve().parents[1] / "src"


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


def _in_structural_order(clauses):
    """Clauses sorted as to_mult_clauses sorts them: by their disjuncts' ranks."""
    key = structural_order(d for c in clauses for d in c.disjuncts)
    return sorted(clauses, key=lambda c: [key(d) for d in c.disjuncts])


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
    out = _in_structural_order(set(kept))
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
            kept = _drop_subsumed(raw)
            assert _in_structural_order([MultClause.of(c) for c in kept]) == expected
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


def _ref_structural_key(f):
    """The structural order as a nested tuple: size, kind, then the
    children's keys; a leaf by kind and name."""
    kind = normalize._KINDS[type(f)]
    if isinstance(f, Binary):
        return (f.size, kind, _ref_structural_key(f.left), _ref_structural_key(f.right))
    return (1, kind, getattr(f, "name", ""))


def test_structural_order_matches_the_nested_key():
    rng = Random(11)
    formulas = [random_mult_formula(rng, ["p", "q", "r"], rng.randint(0, 4)) for _ in range(300)]
    formulas += [parse(text) for text in ("p", "q", "1", "0", "p * q", "p -> q", "q -> p")]
    key = structural_order(formulas)
    assert sorted(formulas, key=key) == sorted(formulas, key=_ref_structural_key)
    for f, g in itertools.combinations(formulas[:80], 2):
        assert (key(f) == key(g)) == (f == g)
    # the order of two formulas does not depend on what else is ranked
    for f, g in zip(formulas[::2], formulas[1::2]):
        pair = structural_order([f, g])
        assert (pair(f) < pair(g)) == (key(f) < key(g))


def _render_raises(monkeypatch):
    """Replace ``render`` in every gordian module that holds it."""

    def fail(f):
        raise AssertionError(f"render called on {f!r}")

    for name, module in list(sys.modules.items()):
        if name.startswith("gordian") and getattr(module, "render", None) is syntax.render:
            monkeypatch.setattr(module, "render", fail)


@pytest.mark.parametrize(
    "logic, hyps, concl",
    [
        ("A", ["(p -> q) | (q -> r)", "p & (r -> s)"], "((p -> r) | (r -> p)) & (s -> q * q)"),
        ("RMt", ["p & q", "(r -> p) | s"], "(p -> q) | (q * r) | ~p"),
    ],
)
def test_lattice_consequences_decide_without_render(monkeypatch, logic, hyps, concl):
    sigma, f = [parse(h) for h in hyps], parse(concl)
    expected = prove_consequence(logic, sigma, f)
    assert len(expected.results) > 1
    _render_raises(monkeypatch)
    with pytest.raises(AssertionError):
        str(f)
    assert prove_consequence(logic, sigma, f) == expected


def test_shared_formula_decides_in_distinct_nodes():
    # the printed formula has 18M nodes, and deciding it must cost only its
    # 6,000 distinct ones
    f = parse("(p^3000)^3000 -> p")
    start = time.perf_counter()
    verdicts = [prove_consequence(logic, [], f).status for logic in ("A", "RMt", "BIULm")]
    assert verdicts == ["refuted", "proved", "refuted"]
    assert time.perf_counter() - start < 20.0


_ORDER_HYPS = ["(p -> q) | (r * s -> t)", "(q -> r) | (s -> p)", "(1 -> p * p) | t"]
_ORDER_CONCL = ["(p -> r) & (t -> s)", "(r -> p) & (q * q -> s)", "t -> q", "~p"]


def _goal_texts(hyps, disjuncts) -> list[str]:
    goals = decompose_consequence([parse(h) for h in hyps], disj_all([parse(d) for d in disjuncts]))
    return [g.render() for g in goals]


def test_goal_order_ignores_input_order():
    expected = _goal_texts(_ORDER_HYPS, _ORDER_CONCL)
    assert len(expected) == 32
    rng = Random(5)
    for _ in range(10):
        hyps, disjuncts = rng.sample(_ORDER_HYPS, 3), rng.sample(_ORDER_CONCL, 4)
        assert _goal_texts(hyps, disjuncts) == expected


def test_goal_order_ignores_the_hash_seed():
    child = (
        "import sys; sys.path.insert(0, sys.argv[1]); import test_normalize as t;"
        " print(t._goal_texts(t._ORDER_HYPS, t._ORDER_CONCL))"
    )
    tests = str(Path(__file__).resolve().parent)
    outputs = set()
    for seed in "01":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), tests]), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", child, tests], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert outputs.pop().strip() == str(_goal_texts(_ORDER_HYPS, _ORDER_CONCL))


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
        if (ref_eval_abelian(f, valuation) >= 0) != (ref_eval_abelian(rebuilt, valuation) >= 0):
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
            assert ref_eval_abelian(left, valuation) == ref_eval_abelian(right, valuation), (
                left_text,
                valuation,
            )
