import itertools
from random import Random

import pytest

from helpers import (
    abelian_grid_refute,
    brute_force_consequence,
    check_laws,
    evaluate_form,
    random_mult_formula,
    relabel,
)

from gordian import chains
from gordian.chains import (
    ChainAlgebra,
    LevelSearch,
    chain_from_name,
    eval_formula,
    sugihara_chain,
)
from gordian.errors import MissingVariableError, NotMultiplicativeError, SizeBudgetExceededError
from gordian.linalg import linear_coefficients
from gordian.syntax import Disj, Var, parse, variables_of


def test_odd_chain_shape():
    chain = sugihara_chain(1, odd=True)
    assert chain.carrier == (-1, 0, 1)
    assert chain.unit == 0 and chain.zero == 0
    assert chain.fuse(1, -1) == -1  # tie falls to the meet
    assert all(chain.fuse(0, a) == a for a in chain.carrier)  # monoid unit
    # closed forms build wide chains at once
    assert sugihara_chain(1000, odd=True).imp(1000, -1000) == -1000


def test_even_chain_shape():
    chain = sugihara_chain(2, odd=False)
    assert chain.carrier == (-2, -1, 1, 2)
    assert chain.unit == 1 and chain.zero == -1
    assert eval_formula(chain, {}, parse("1 -> 0")) == -1
    assert not chain.designated(-1)


def test_laws_hold_on_every_small_chain():
    # every chain of at most 16 elements, odd and even
    for chain in (sugihara_chain(k, odd) for k in range(1, 9) for odd in (True, False)):
        if len(chain.carrier) <= 16:
            check_laws(chain)

    # a join tie-break is not residuated and must be rejected
    class JoinTies(ChainAlgebra):
        def fuse(self, a, b):
            return max(a, b) if abs(a) == abs(b) else super().fuse(a, b)

    with pytest.raises(ValueError, match="residuation"):
        check_laws(JoinTies(2, odd=True))


@pytest.mark.parametrize("odd", [True, False])
def test_closed_forms_are_the_sugihara_operations(odd):
    # past 16 elements no law check runs, so the closed forms are compared
    # here with fusion's definition, the exhaustive residual and negation
    # as implication into the constant 0
    for k in range(1, 16):
        chain = ChainAlgebra(k, odd)
        els = chain.carrier
        for a, b in itertools.product(els, repeat=2):
            larger = a if abs(a) > abs(b) else b if abs(b) > abs(a) else min(a, b)
            assert chain.fuse(a, b) == larger, (chain, a, b)
            residual = max(x for x in els if chain.fuse(a, x) <= b)
            assert chain.imp(a, b) == residual, (chain, a, b)
        assert all(chain.neg(a) == chain.imp(a, chain.zero) for a in els), chain


def test_level_search_stops_past_its_variable_cap(monkeypatch):
    atoms = [Var(f"q{i}") for i in range(chains.VARIABLE_CAP + 1)]
    assert len(LevelSearch((), atoms[:-1]).variables) == chains.VARIABLE_CAP
    with pytest.raises(SizeBudgetExceededError, match=f"{len(atoms)} variables"):
        LevelSearch((), atoms)
    # the cap is read at call time
    monkeypatch.setattr(chains, "VARIABLE_CAP", 2)
    with pytest.raises(SizeBudgetExceededError):
        LevelSearch((), atoms[:3])


def test_chain_from_name():
    chain = sugihara_chain(3, odd=False)
    assert chain_from_name(chain.name, 3) is chain
    # only a chain's own name resolves, and only up to the width given
    for name in (
        "nonsense",
        "sugihara_odd_0",
        "sugihara_odd_+3",
        "sugihara_odd_03",
        "sugihara_odd_1_0",
        "sugihara_odd_ 3",
        "sugihara_odd_3 ",
    ):
        with pytest.raises(ValueError):
            chain_from_name(name, 20)
    with pytest.raises(ValueError):
        chain_from_name(chain.name, 2)


def test_eval_examples():
    odd1 = sugihara_chain(1, odd=True)
    assert eval_formula(odd1, {"p": 0}, parse("p -> p")) == 0
    assert odd1.designated(eval_formula(odd1, {"p": 0}, parse("p -> p")))
    assert eval_formula(odd1, {"p": -1}, parse("p | ~p")) == 1
    even2 = sugihara_chain(2, odd=False)
    assert eval_formula(even2, {}, parse("1 -> 0")) == -1


def test_eval_missing_variable():
    with pytest.raises(MissingVariableError):
        eval_formula(sugihara_chain(1, odd=True), {}, parse("p"))


def test_brute_force_examples():
    odd_chains = [sugihara_chain(k, odd=True) for k in range(1, 5)]  # sizes 3..9
    assert brute_force_consequence(odd_chains, [], parse("p | ~p")) is None
    even = sugihara_chain(2, odd=False)
    counterexample = brute_force_consequence([even], [], parse("1 -> 0"))
    assert counterexample is not None and counterexample[0] is even
    f = parse("(p -> q) * (q -> p)")
    assert brute_force_consequence(odd_chains, [f], f) is None  # reflexivity


def test_grid_refute_examples():
    assert abelian_grid_refute([], parse("p"), 1) == {"p": -1}
    assert abelian_grid_refute([], parse("p + ~p"), 3) is None
    valuation = abelian_grid_refute([parse("p -> q")], parse("p -> r"), 2)
    assert valuation is not None
    assert evaluate_form(linear_coefficients(parse("p -> q")), valuation) >= 0
    assert evaluate_form(linear_coefficients(parse("p -> r")), valuation) < 0


def test_grid_refute_rejects_lattice():
    with pytest.raises(NotMultiplicativeError):
        abelian_grid_refute([], parse("p | q"), 1)


@pytest.mark.parametrize("odd", [True, False])
def test_level_search_agrees_with_every_point(odd):
    # for up to 3 variables, constants and variable-free goals included,
    # the search finds a countermodel exactly when some point of the full
    # chain refutes the goal, and its countermodel re-checks there
    rng = Random(5150 + odd)
    for k in range(4):
        chain = sugihara_chain(k + 1 if odd else k + 2, odd=odd)
        names = [f"v{i}" for i in range(k)] or ["unused"]
        leaves = 0.2 if k else 1.0  # with no variables, leaves are constants only
        for _ in range(25):
            sigma = tuple(
                random_mult_formula(rng, names, rng.randint(1, 3), constant_weight=leaves)
                for _ in range(rng.randint(0, 2))
            )
            disjuncts = tuple(
                random_mult_formula(rng, names, rng.randint(1, 3), constant_weight=leaves)
                for _ in range(rng.randint(1, 3))
            )
            disjunction = disjuncts[0]
            for d in disjuncts[1:]:
                disjunction = Disj(disjunction, d)
            refuted = brute_force_consequence([chain], sigma, disjunction) is not None
            found = LevelSearch(sigma, disjuncts).countermodel(chain)
            assert (found is not None) == refuted, (sigma, disjuncts)
            if found is not None:
                assert found.keys() == variables_of(sigma + disjuncts)
                assert all(v in chain.carrier for v in found.values()), found
                assert all(chain.designated(eval_formula(chain, found, h)) for h in sigma)
                assert not any(chain.designated(eval_formula(chain, found, d)) for d in disjuncts)


@pytest.mark.parametrize("odd", [True, False])
def test_projections_are_relabelled_restrictions(odd):
    # the points over X at which the hypotheses hold, relabelled, are the
    # restrictions of the full chain's models of the hypotheses
    rng = Random(2718 + odd)
    for k in range(1, 4):
        chain = sugihara_chain(k + 1 if odd else k + 2, odd=odd)
        names = [f"v{i}" for i in range(k)]
        for _ in range(8):
            sigma = tuple(
                random_mult_formula(rng, names, rng.randint(1, 3))
                for _ in range(rng.randint(1, 2))
            )
            var_order = sorted(variables_of(sigma))
            models = [
                point
                for point in itertools.product(chain.carrier, repeat=len(var_order))
                if all(chain.designated(eval_formula(chain, dict(zip(var_order, point)), h))
                       for h in sigma)
            ]
            search = LevelSearch(sigma, ())
            for size in range(len(var_order) + 1):
                for x_vars in itertools.combinations(range(len(var_order)), size):
                    expected = {relabel([p[i] for i in x_vars], odd) for p in models}
                    names_x = [var_order[i] for i in x_vars]
                    assert search.projections(chain, names_x) == expected, (sigma, names_x)
