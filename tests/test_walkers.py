"""The formula walkers are loops: they agree with the recursive walkers they
replaced (kept in ``helpers``) and take inputs of any depth."""

import copy
import pickle
from collections import Counter
from random import Random

import pytest

from helpers import (
    evaluate_form,
    ref_cnf,
    ref_eval_abelian,
    ref_eval_formula,
    ref_instantiate,
    ref_parse,
    ref_push,
    ref_render,
    ref_translate_abelian,
)

from gordian.chains import eval_formula, eval_vector, sugihara_chain
from gordian.check import Countermodel, ProofResult, countermodel_refutes, verify_derivation
from gordian.engine import _compositions
from gordian.errors import GordianError
from gordian.linalg import linear_coefficients
from gordian.logics import AxiomSchema, instantiate, match_template
from gordian.normalize import Goal, _Budget, _cnf, _push, to_mult_clauses
from gordian.oracles import hilbert_search
from gordian.syntax import (
    MVar,
    Var,
    Imp,
    parse,
    parse_template,
    render,
    substitute,
    variables,
)

NAMES = ["p", "q", "r"]
METAVARIABLES = ["PHI", "PSI"]
CHAINS = [sugihara_chain(2, odd=True), sugihara_chain(2, odd=False)]


def random_text(rng: Random, depth: int, names) -> str:
    """Formula text over every notation: the six node kinds, ``~``, ``+``,
    ``n*``, ``^n`` and parenthesized constants as fusion operands."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(names + ["0", "1", "(0)", "(1)"])
    sub = lambda: random_text(rng, depth - 1, names)
    form = rng.choice(["|", "&", "->", "+", "*", "*", "~", "^", "n*", "()", "const*"])
    if form == "~":
        return "~" + sub()
    if form == "^":
        return f"{sub()}^{rng.randint(0, 3)}"
    if form == "n*":
        return f"{rng.randint(0, 3)}*{sub()}"
    if form == "()":
        return f"({sub()})"
    if form == "const*":
        return f"({rng.choice('01')}) * {sub()}"
    return f"{sub()} {form} {sub()}"


def formulas(seed: int, count: int, names=NAMES):
    rng = Random(seed)
    out = []
    while len(out) < count:
        try:
            out.append(ref_parse(random_text(rng, rng.randint(0, 5), names), allow_meta=True))
        except GordianError:
            continue  # a precedence clash made it malformed; errors are compared below
    return out


def test_parse_and_render_match_the_recursive_walkers():
    rng = Random(7)
    kinds = Counter()
    for _ in range(600):
        text = random_text(rng, rng.randint(0, 6), NAMES + METAVARIABLES)
        try:
            expected = ref_parse(text, allow_meta=True)
        except GordianError as exc:
            with pytest.raises(type(exc)) as got:
                parse_template(text)
            assert str(got.value) == str(exc)
            continue
        f = parse_template(text)
        assert f == expected, text
        assert render(f) == ref_render(f), text
        assert parse_template(render(f)) == f
        kinds.update(type(g).__name__ for g in _nodes(f))
    assert set(kinds) == {"Var", "MVar", "One", "Zero", "Conj", "Disj", "Fuse", "Imp"}


def test_syntax_errors_match_the_recursive_parser():
    rng = Random(11)
    pieces = ["p", "Q", "0", "1", "2", "(", ")", "~", "^", "^2", "*", "2*", "+", "->", "&", "|", " ", "$"]
    errors = 0
    for _ in range(3000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        for allow_meta in (False, True):
            try:
                expected = ("ok", ref_parse(text, allow_meta))
            except GordianError as exc:
                expected = (type(exc), str(exc), getattr(exc, "position", None))
            try:
                got = ("ok", parse_template(text) if allow_meta else parse(text))
            except GordianError as exc:
                got = (type(exc), str(exc), getattr(exc, "position", None))
            assert got == expected, text
            errors += expected[0] != "ok"
    assert errors > 1000


def test_normalization_matches_the_recursive_walkers():
    compared = 0
    for f in formulas(13, 500):
        if any(isinstance(g, MVar) for g in _nodes(f)):
            continue
        reference = _Budget(64)
        try:
            pushed = ref_push(f, reference)
            clauses = ref_cnf(pushed, reference)
        except GordianError:
            pushed = None
        budget = _Budget(64)
        if pushed is None:  # the loops count each node object once, so may not trip
            continue
        assert _push(f, budget) == pushed
        assert set(_cnf(pushed, budget)) == set(clauses)
        assert budget.used <= reference.used
        compared += 1
    assert compared > 300


def test_evaluation_matches_the_recursive_walkers():
    rng = Random(17)
    for f in formulas(19, 500):
        if any(isinstance(g, MVar) for g in _nodes(f)):
            continue
        for chain in CHAINS:
            points = [tuple(rng.choice(chain.carrier) for _ in NAMES) for _ in range(4)]
            expected = [ref_eval_formula(chain, dict(zip(NAMES, point)), f) for point in points]
            assert eval_vector(chain, f, NAMES, points) == expected
            assert eval_formula(chain, dict(zip(NAMES, points[0])), f) == expected[0]
        valuation = {v: rng.randint(-3, 3) for v in NAMES}
        if f.multiplicative:
            assert linear_coefficients(f) == ref_translate_abelian(f)
            assert evaluate_form(linear_coefficients(f), valuation) == ref_eval_abelian(f, valuation)
        else:
            with pytest.raises(GordianError):
                linear_coefficients(f)


def test_instantiation_matches_the_recursive_walker():
    rng = Random(23)
    arguments = formulas(29, 50)
    for template in formulas(31, 500, NAMES + METAVARIABLES):
        schema = AxiomSchema("t", template)
        leaves = [g.name for g in _leaves(template) if isinstance(g, MVar)]
        assert schema.occurrences == dict(Counter(leaves))
        args = {v: rng.choice(arguments) for v in METAVARIABLES}
        instance = instantiate(schema, args)
        assert instance == ref_instantiate(schema, args)
        assert instantiate(schema, match_template(template, instance)) == instance
        if leaves:
            del args[leaves[0]]
            with pytest.raises(GordianError) as expected:
                ref_instantiate(schema, args)
            with pytest.raises(type(expected.value)) as got:
                instantiate(schema, args)
            assert str(got.value) == str(expected.value)
    # a ground subtree of the template is used as it is, not rebuilt
    schema = AxiomSchema("ground", parse_template("PHI -> p * (q -> 0)"))
    assert instantiate(schema, {"PHI": Var("r")}).right is schema.template.right


DEPTH = 5000
DEEP = {
    "power": f"p^{DEPTH}",
    "scalar": f"{DEPTH // 2}*p",
    "parentheses": "(" * DEPTH + "p" + ")" * DEPTH,
    "negations": "~" * DEPTH + "p",
    "implications": " -> ".join(["p"] * DEPTH),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_walkers_take_any_depth(name):
    f = parse(DEEP[name])
    assert parse(render(f)) == f
    assert variables(f) == {"p"}
    template = substitute(f, {"p": MVar("PHI")})
    schema = AxiomSchema("deep", template)
    q = Var("q")
    instance = instantiate(schema, {"PHI": q})
    assert instance == substitute(f, {"p": q})
    assert match_template(template, instance) == {"PHI": q}
    chain = sugihara_chain(2, odd=True)
    value = eval_formula(chain, {"p": 1}, f)
    assert eval_vector(chain, f, ["p"], [(1,)]) == [value]
    # the checker reads a Z value off the linear reading, at any depth
    refuted = evaluate_form(linear_coefficients(f), {"p": 1}) < 0
    assert countermodel_refutes(Countermodel.of("Z", {"p": 1}), [], [f]) == refuted
    assert [c.disjuncts for c in to_mult_clauses(f)] == [(f,)]
    assert pickle.loads(pickle.dumps(f)) == f
    assert copy.deepcopy(f) == f
    text = repr(ProofResult("unknown", Goal.of([], [f]), reason="deep"))
    assert f"disjuncts=({f!r},)" in text


def test_long_derivations_and_weight_vectors():
    # modus ponens 1,200 times: the derivation is rebuilt without recursion
    ps = [Var(f"p{i}") for i in range(1201)]
    sigma = [ps[0]] + [Imp(a, b) for a, b in zip(ps, ps[1:])]
    result = hilbert_search("BIULm", sigma, ps[-1])
    assert result.status == "proved"
    lines = result.certificate.witness.lines
    # each conclusion right after its premises, in the order mp cites them
    expected = [ps[0]] + [f for a, b in zip(ps, ps[1:]) for f in (Imp(a, b), b)]
    assert [line.formula for line in lines] == expected
    assert verify_derivation("BIULm", lines, sigma)
    assert next(_compositions(1, 1100)) == (1,) + (0,) * 1099
    assert list(_compositions(2, 3)) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    ]


def _nodes(f):
    stack, out = [f], []
    while stack:
        g = stack.pop()
        out.append(g)
        if hasattr(g, "left"):
            stack += (g.left, g.right)
    return out


def _leaves(f):
    """The leaves of the tree, repeats counted."""
    return [g for g in _nodes(f) if not hasattr(g, "left")]
