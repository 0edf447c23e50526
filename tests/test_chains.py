import itertools
from random import Random

import pytest

from helpers import (
    abelian_grid_refute,
    brute_force_consequence,
    random_mult_formula,
)

from gordian.chains import (
    ChainAlgebra,
    canonical_grid,
    chain_from_name,
    eval_abelian,
    eval_formula,
    eval_planes,
    eval_vector,
    fuse_planes,
    imp_planes,
    sugihara_chain,
    sum_planes,
)
from gordian.errors import MissingVariableError, NotMultiplicativeError
from gordian.linalg import translate_abelian
from gordian.syntax import parse


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


def test_laws_checked_on_construction():
    for k in range(1, 5):
        sugihara_chain(k, odd=True)
        sugihara_chain(k, odd=False)

    # a join tie-break is not residuated and must be rejected
    class JoinTies(ChainAlgebra):
        def fuse(self, a, b):
            return max(a, b) if abs(a) == abs(b) else super().fuse(a, b)

    with pytest.raises(ValueError, match="residuation"):
        JoinTies(2, odd=True)


@pytest.mark.parametrize("odd", [True, False])
def test_closed_forms_are_the_sugihara_operations(odd):
    # past LAW_CHECK_MAX_SIZE elements construction checks nothing, so the
    # closed forms are compared here with fusion's definition, the
    # exhaustive residual and negation as implication into the constant 0
    for k in range(1, 16):
        chain = ChainAlgebra(k, odd)
        els = chain.carrier
        for a, b in itertools.product(els, repeat=2):
            larger = a if abs(a) > abs(b) else b if abs(b) > abs(a) else min(a, b)
            assert chain.fuse(a, b) == larger, (chain, a, b)
            residual = max(x for x in els if chain.fuse(a, x) <= b)
            assert chain.imp(a, b) == residual, (chain, a, b)
        assert all(chain.neg(a) == chain.imp(a, chain.zero) for a in els), chain


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


def test_eval_abelian():
    assert eval_abelian(parse("p -> q"), {"p": 3, "q": 1}) == -2
    assert eval_abelian(parse("p | ~p"), {"p": -2}) == 2
    assert eval_abelian(parse("1 & 0"), {}) == 0


def test_grid_refute_examples():
    assert abelian_grid_refute([], parse("p"), 1) == {"p": -1}
    assert abelian_grid_refute([], parse("p + ~p"), 3) is None
    valuation = abelian_grid_refute([parse("p -> q")], parse("p -> r"), 2)
    assert valuation is not None
    assert translate_abelian(parse("p -> q")).evaluate(valuation) >= 0
    assert translate_abelian(parse("p -> r")).evaluate(valuation) < 0


def test_grid_refute_rejects_lattice():
    with pytest.raises(NotMultiplicativeError):
        abelian_grid_refute([], parse("p | q"), 1)


def _relabel(point, odd: bool):
    """Map the levels in use (with 1 on even chains) onto 1..m, in order,
    keeping signs: the canonical representative of ``point``."""
    levels = sorted({abs(v) for v in point if v} | (set() if odd else {1}))
    rank = {level: i + 1 for i, level in enumerate(levels)}
    return tuple((1 if v > 0 else -1) * rank[abs(v)] if v else 0 for v in point)


@pytest.mark.parametrize("odd", [True, False])
def test_canonical_grid_keeps_designation(odd):
    rng = Random(5150 + odd)
    for k in range(5):
        chain = sugihara_chain(k + 1 if odd else k + 2, odd=odd)
        names = [f"v{i}" for i in range(k)]
        canonical = canonical_grid(chain, k)
        full = list(itertools.product(chain.carrier, repeat=k))
        assert len(set(canonical)) == len(canonical)
        assert set(canonical) == {_relabel(point, odd) for point in full}
        index = {point: i for i, point in enumerate(canonical)}
        # with no variables, leaves are constants only
        leaves = 0.2 if k else 1.0
        for _ in range(12):
            f = random_mult_formula(rng, names or ["unused"], 4, constant_weight=leaves)
            on_full = eval_vector(chain, f, names, full)
            on_canonical = eval_vector(chain, f, names, canonical)
            for point, value in zip(full, on_full):
                image = on_canonical[index[_relabel(point, odd)]]
                assert chain.designated(value) == chain.designated(image), (f, point)
    assert len(canonical_grid(sugihara_chain(5, odd=True), 4)) == 1697
    assert len(canonical_grid(sugihara_chain(6, odd=False), 4)) == 2400
    assert len(canonical_grid(sugihara_chain(6, odd=True), 5)) == 24483


def _decode(planes, size: int) -> list[int]:
    """The value at each of ``size`` points, checking that the masks
    partition them."""
    values = [None] * size
    for value, mask in planes.items():
        assert mask, value
        for j in range(size):
            if mask >> j & 1:
                assert values[j] is None, j
                values[j] = value
    assert None not in values
    return values


@pytest.mark.parametrize("odd", [True, False])
def test_plane_operations_match_the_chain_tables(odd):
    for half_width in range(1, 7):
        chain = sugihara_chain(half_width, odd=odd)
        pairs = list(itertools.product(chain.carrier, repeat=2))
        a, b = {}, {}
        for j, (x, y) in enumerate(pairs):
            a[x] = a.get(x, 0) | 1 << j
            b[y] = b.get(y, 0) | 1 << j
        plus = lambda x, y: chain.neg(chain.fuse(chain.neg(x), chain.neg(y)))
        for operation, reference in [
            (fuse_planes, chain.fuse),
            (imp_planes, chain.imp),
            (sum_planes, plus),
        ]:
            expected = [reference(x, y) for x, y in pairs]
            assert _decode(operation(a, b), len(pairs)) == expected, (chain, operation)


@pytest.mark.parametrize("odd", [True, False])
def test_eval_planes_agrees_with_eval_formula(odd):
    rng = Random(2718 + odd)
    for k in range(5):
        chain = sugihara_chain(k + 1 if odd else k + 2, odd=odd)
        names = [f"v{i}" for i in range(k)]
        grid = canonical_grid(chain, k)
        for _ in range(12):
            # with no variables, leaves are constants only
            f = random_mult_formula(rng, names or ["unused"], 4, constant_weight=0.2 if k else 1.0)
            expected = [eval_formula(chain, dict(zip(names, point)), f) for point in grid]
            assert _decode(eval_planes(chain, f, names, grid), len(grid)) == expected, f
