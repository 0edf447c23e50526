import copy
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from helpers import random_formula, random_mult_formula

from gordian.check import Countermodel, LinearWitness, ToACertificate
from gordian.engine import EngineBudget, prove_consequence
from gordian.errors import ArityError, FormulaSyntaxError, NotMultiplicativeError
from gordian.linalg import Combination, IntMatrix, Kernel, StrictDual
from gordian.logics import AxiomFamily, knotted_logic, lookup_logic
from gordian.normalize import Goal, MultClause
from gordian.oracles import HilbertBudget
from gordian.syntax import (
    Conj,
    Disj,
    Formula,
    Fuse,
    Imp,
    MVar,
    ONE,
    One,
    Var,
    ZERO,
    Zero,
    neg,
    parse,
    parse_template,
    plus,
    power,
    render,
    metavariables,
    subformulas,
    substitute,
    variables,
)

p, q, r = Var("p"), Var("q"), Var("r")


def test_parse_implication():
    assert parse("p -> p") == Imp(p, p)


def test_parse_negation_elaborates():
    assert parse("~p") == Imp(p, ZERO)


def test_parse_sum_elaborates():
    assert parse("p + q") == Imp(Imp(p, ZERO), q)


def test_parse_scalar_and_power():
    assert parse("0 * p") == ZERO
    assert parse("1 * p") == p
    assert parse("2 * p") == plus(p, p)
    assert parse("3 * p") == plus(plus(p, p), p)
    assert parse("p^0") == ONE
    assert parse("p^1") == p
    assert parse("p^3") == Fuse(Fuse(p, p), p)


def test_scalar_binds_next_factor_only():
    assert parse("2 * p * q") == Fuse(plus(p, p), q)
    assert parse("p * 2 * q") == Fuse(p, plus(q, q))


def test_constants_vs_scalars():
    assert parse("p * 0") == Fuse(p, ZERO)
    assert parse("(0) * p") == Fuse(ZERO, p)
    assert parse("(1) * p") == Fuse(ONE, p)


def test_precedence():
    # high to low: ~/^  *  +  ->  &  |
    assert parse("p -> q & r") == Conj(Imp(p, q), r)
    assert parse("p & q | r") == Disj(Conj(p, q), r)
    assert parse("p + q -> r") == Imp(plus(p, q), r)
    assert parse("p * q + r") == plus(Fuse(p, q), r)
    assert parse("~p * q") == Fuse(neg(p), q)
    assert parse("~p^2") == neg(power(p, 2))
    assert parse("p -> q -> r") == Imp(p, Imp(q, r))


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p -> ")
    assert err.value.position == 5
    with pytest.raises(FormulaSyntaxError):
        parse("(p")
    with pytest.raises(FormulaSyntaxError):
        parse("p q")
    with pytest.raises(FormulaSyntaxError):
        parse("2")
    with pytest.raises(FormulaSyntaxError):
        parse("P")  # metavariables rejected outside templates


def test_repeat_bounds():
    with pytest.raises(ArityError):
        parse("65537 * p")
    with pytest.raises(ArityError):
        parse("p ^ 65537")
    assert parse("65536 * p") is not None


def test_render_examples():
    assert render(Imp(p, p)) == "p -> p"
    assert render(ZERO) == "0"
    f = Fuse(p, Imp(q, ZERO))
    assert parse(render(f)) == f


def test_render_constant_in_fusion_reparses():
    for f in (Fuse(p, ZERO), Fuse(ZERO, p), Fuse(ONE, p), Fuse(Fuse(p, ZERO), q)):
        assert parse(render(f)) == f


def test_round_trip_random_trees():
    rng = Random(20240811)
    for _ in range(1000):
        f = random_formula(rng, ["p", "q", "r", "s"], rng.randint(0, 6))
        assert parse(render(f)) == f


_CORE = (Var, One, Zero, Conj, Disj, Fuse, Imp)


def _only_core_nodes(f: Formula) -> bool:
    if not isinstance(f, _CORE):
        return False
    if isinstance(f, (Var, One, Zero)):
        return True
    return _only_core_nodes(f.left) and _only_core_nodes(f.right)


def test_elaboration_totality():
    rng = Random(7)
    texts = ["~~p + 3*q^2", "2*(p + ~q) -> ~0", "(p | ~q) & 4 * r"]
    for _ in range(200):
        texts.append(render(random_formula(rng, ["p", "q"], rng.randint(0, 5))))
    for text in texts:
        assert _only_core_nodes(parse(text))


def test_substitute_examples():
    assert substitute(parse("p -> q"), {"p": ZERO}) == parse("0 -> q")
    assert substitute(parse("p -> p"), {"p": parse("q * r")}) == parse("(q*r) -> (q*r)")
    assert substitute(parse("p + q"), {"q": parse("~p")}) == plus(p, neg(p))


def test_substitute_composition():
    rng = Random(99)
    names = ["p", "q", "r"]
    for _ in range(200):
        f = random_formula(rng, names, rng.randint(0, 4))
        s1 = {n: random_mult_formula(rng, names, 2) for n in rng.sample(names, rng.randint(0, 3))}
        s2 = {n: random_mult_formula(rng, names, 2) for n in rng.sample(names, rng.randint(0, 3))}
        composed = {n: substitute(f1, s2) for n, f1 in s1.items()}
        for n, g in s2.items():
            composed.setdefault(n, g)
        assert substitute(substitute(f, s1), s2) == substitute(f, composed)


def test_is_multiplicative():
    assert parse("p + ~p").multiplicative
    assert not parse("p | ~p").multiplicative
    assert parse("(p * q) -> 1").multiplicative


def test_variables():
    assert variables(parse("p -> (q * ~p)")) == frozenset({"p", "q"})
    assert variables(ONE) == frozenset()


def test_templates():
    t = parse_template("PHI -> PHI")
    assert t == Imp(MVar("PHI"), MVar("PHI"))
    assert t.multiplicative
    assert variables(t) == frozenset()


# --- the node core: stored hash, size and multiplicative flag ----------------

_BINARY = (Conj, Disj, Fuse, Imp)


def _ref_size(f):
    return 1 + _ref_size(f.left) + _ref_size(f.right) if isinstance(f, _BINARY) else 1


def _ref_multiplicative(f):
    if isinstance(f, (Conj, Disj)):
        return False
    if isinstance(f, _BINARY):
        return _ref_multiplicative(f.left) and _ref_multiplicative(f.right)
    return True


def _ref_names(f, kind):
    if isinstance(f, _BINARY):
        return _ref_names(f.left, kind) | _ref_names(f.right, kind)
    return frozenset((f.name,)) if isinstance(f, kind) else frozenset()


def _ref_subterms(f):
    if isinstance(f, _BINARY):
        return {f} | _ref_subterms(f.left) | _ref_subterms(f.right)
    return {f}


def _rebuild(f):
    """A copy sharing no node with ``f``."""
    if isinstance(f, _BINARY):
        return type(f)(_rebuild(f.left), _rebuild(f.right))
    if isinstance(f, (Var, MVar)):
        return type(f)(str(f.name))
    return type(f)()


def _seeded_formulas():
    """300 object formulas and 100 templates, both lattice and multiplicative."""
    rng = Random(20261018)
    names = ["p", "q", "r", "s"]
    out = []
    for i in range(400):
        if i % 2:
            f = random_mult_formula(rng, names, rng.randint(0, 6))
        else:
            f = random_formula(rng, names, rng.randint(0, 6))
        if i % 4 == 3:
            f = substitute(f, {n: MVar(n.upper()) for n in rng.sample(names, 2)})
        out.append(f)
    return out


def test_separately_built_copies_are_equal_with_equal_hashes():
    for f in _seeded_formulas():
        rebuilt = _rebuild(f)
        assert rebuilt is not f
        for g in (rebuilt, parse_template(render(f))):
            assert g == f and hash(g) == hash(f) and not g != f, render(f)
    left, right = parse("p -> q"), parse("q -> p")
    assert left != right and left != parse("p * q") and left != "p -> q"


def test_stored_data_match_recursive_definitions():
    for f in _seeded_formulas():
        assert f.size == _ref_size(f)
        assert f.multiplicative == _ref_multiplicative(f)
        assert variables(f) == _ref_names(f, Var)
        assert metavariables(f) == _ref_names(f, MVar)


def test_subformulas_lists_each_node_once_children_first():
    for f in _seeded_formulas():
        listed = subformulas(f)
        assert len(listed) == len(set(listed)) and set(listed) == _ref_subterms(f)
        position = {g: i for i, g in enumerate(listed)}
        for g in listed:
            if isinstance(g, _BINARY):
                assert position[g.left] < position[g] and position[g.right] < position[g]
        assert listed[-1] == f


def test_shared_tree_stays_linear():
    f = parse("p" + "^2" * 30)
    assert f.size == 2**31 - 1
    start = time.perf_counter()
    assert variables(f) == frozenset({"p"})
    assert len(subformulas(f)) == 31
    # separately parsed copies share no node; a walk over all 2**23 - 1
    # nodes of the tree would take seconds
    text = "p" + "^2" * 22
    assert parse(text) == parse(text) and parse(text) != parse("q" + "^2" * 22)
    assert time.perf_counter() - start < 0.5


def test_nodes_are_immutable():
    f = parse("p -> q")
    for target, name in ((f, "left"), (f, "size"), (f, "_hash"), (f.left, "name")):
        with pytest.raises(AttributeError):
            setattr(target, name, ZERO)
    with pytest.raises(AttributeError):
        del f.right
    assert f == parse("p -> q")
    # leaves too, for fields they have and names they do not
    for leaf in (ONE, ZERO, Var("p"), MVar("P")):
        for name in ("x", "name", "_hash", "size"):
            with pytest.raises(AttributeError):
                setattr(leaf, name, 1)
            with pytest.raises(AttributeError):
                delattr(leaf, name)
    assert Var("p").name == "p" and MVar("P").name == "P"
    assert Var("p") == Var("p") and Var("p") != Var("q") and Var("p") != MVar("p")
    assert ONE == One() and ONE != ZERO and ZERO == Zero()


def test_pickle_and_copy_rebuild_the_node():
    text = "(p -> q * ~r) & (s | 1) -> 3 * p"
    f = parse(text)
    assert copy.deepcopy(f) == f and copy.copy(f) == f
    assert pickle.loads(pickle.dumps(f)) == f
    # pickled under another hash seed: the hash is recomputed on loading
    child = (
        "import pickle, sys; from gordian.syntax import parse; "
        f"sys.stdout.write(pickle.dumps(parse({text!r})).hex())"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="1")
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    loaded = pickle.loads(bytes.fromhex(out.stdout))
    assert loaded == f and hash(loaded) == hash(f)
    assert {f: "found"}[loaded] == "found"


def test_results_pickle_and_copy():
    for logic, text in [
        ("A", "(p -> q) | (q -> p)"),
        ("RMt", "p | ~p"),
        ("IUMLm", "p * q -> p"),
        ("BIULm", "p * q -> q * p"),  # a derivation witness
        ("BIULm", "p -> p * p"),  # refuted in Z
    ]:
        result = prove_consequence(logic, [parse("q -> r")], parse(text))
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result)):
            assert copied == result and copied is not result
            assert repr(copied) == repr(result) and hash(copied) == hash(result)


# --- records: the immutable value classes ------------------------------------


def test_record_construction_by_position_keyword_and_default():
    hilbert = HilbertBudget()
    assert hilbert.max_lines == 4000 and HilbertBudget(4000) == hilbert == HilbertBudget(max_lines=4000)
    default = EngineBudget()
    assert (default.lambda_cap, default.hilbert) == (16, hilbert)
    assert EngineBudget(16) == default == EngineBudget(hilbert=hilbert, lambda_cap=16)
    budget = EngineBudget(10, hilbert=HilbertBudget(3))
    assert (budget.lambda_cap, budget.hilbert) == (10, HilbertBudget(3))
    assert EngineBudget(hilbert=HilbertBudget(3)) == EngineBudget(16, HilbertBudget(3))
    cm = Countermodel(valuation=(("p", 1),), chain="Z")
    assert cm == Countermodel("Z", (("p", 1),)) and cm.mapping == {"p": 1}
    # a budget's Hilbert part defaults to one shared, immutable instance
    assert EngineBudget().hilbert is EngineBudget(lambda_cap=2).hilbert == hilbert
    for build in (
        lambda: Countermodel("Z"),  # missing field
        lambda: Countermodel(chain="Z"),
        lambda: Countermodel("Z", (), ()),  # too many
        lambda: Countermodel("Z", (), bogus=1),  # unknown
        lambda: Countermodel("Z", (), chain="Z"),  # given twice
        lambda: HilbertBudget(bogus=1),
        lambda: HilbertBudget(4000, 8),  # too many
    ):
        with pytest.raises(TypeError):
            build()


def test_records_are_immutable():
    result = prove_consequence("A", [], parse("p -> p")).results[0]
    spec = lookup_logic("A")
    for record, name in (
        (result, "status"),
        (result, "certificate"),
        (EngineBudget(), "lambda_cap"),
        (HilbertBudget(), "max_lines"),
        (spec, "name"),
        (spec, "model_classes"),
    ):
        for attribute in (name, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, attribute, None)
            with pytest.raises(AttributeError):
                delattr(record, attribute)
    assert result.status == "proved" and spec.name == "A" and spec.model_classes == ("Z",)


def test_record_equality_is_class_exact_with_equal_hashes():
    witness = LinearWitness((1,), 1)
    cert = ToACertificate((2,), witness)
    assert cert == ToACertificate((2,), LinearWitness((1,), 1))
    assert hash(cert) == hash(ToACertificate((2,), LinearWitness((1,), 1)))
    assert cert != ToACertificate((1,), witness) and cert != Combination((2,), witness)
    assert Kernel((1, 2)) != StrictDual((1, 2)) and Kernel((1, 2)) != (1, 2)
    assert Kernel((1, 2)) != Kernel((2, 1))
    goal = Goal.of([parse("q"), parse("p")], [parse("p * q")])
    again = Goal.of([parse("p"), parse("q"), parse("p")], [parse("p * q")])
    assert goal == again and hash(goal) == hash(again)
    assert knotted_logic(2, 1, [(4, 5, 6, 7)]) == lookup_logic("knotted(2,1,4:5:6:7)")
    assert hash(knotted_logic(2, 1, [(4, 5, 6, 7)])) == hash(lookup_logic("knotted(2,1,4:5:6:7)"))
    assert lookup_logic("A") != lookup_logic("RMt")


def test_axiom_family_equality_ignores_schemas():
    family = AxiomFamily("balance", lambda n: (), lambda f: ())
    same_name = AxiomFamily("balance", tuple, set)
    assert family == same_name and hash(family) == hash(same_name)
    assert family != AxiomFamily("other", family.schemas, family.indices)
    assert lookup_logic("BIULm").families == (same_name,)


def test_record_validation_raises():
    with pytest.raises(ValueError):
        MultClause(())
    with pytest.raises(NotMultiplicativeError):
        MultClause((parse("p & q"),))
    with pytest.raises(NotMultiplicativeError):
        Goal((parse("p | q"),), MultClause((parse("p"),)))
    with pytest.raises(NotMultiplicativeError):
        Goal.of([], [parse("p"), parse("q & r")])
    for rows in ((), ((),), ((1, 2), (3,))):
        with pytest.raises(ValueError):
            IntMatrix(rows)
    assert IntMatrix(((1, 2), (3, 4))).n == 2


def test_record_reprs():
    assert repr(Countermodel.of("Z", {"q": 1, "p": -1})) == (
        "Countermodel(chain='Z', valuation=(('p', -1), ('q', 1)))"
    )
    assert repr(EngineBudget()) == (
        "EngineBudget(lambda_cap=16, "
        "hilbert=HilbertBudget(max_lines=4000))"
    )
    assert repr(prove_consequence("A", [], parse("p -> p")).results[0]) == (
        "ProofResult(status='proved', goal=Goal(hypotheses=(), clause=MultClause("
        "disjuncts=(Imp(left=Var(name='p'), right=Var(name='p')),))), "
        "certificate=ToACertificate(lambdas=(1,), witness=LinearWitness(mu=(), scale=1)), "
        "countermodel=None, reason=None)"
    )
    assert repr(lookup_logic("knotted(1,1,1:1:1:1)")) == (
        "LogicSpec(name='knotted(1,1,1:1:1:1)', base='IULstar', extra_axioms=("
        "AxiomSchema(name='knot_1_2', template=Imp(left=MVar(name='PHI'), "
        "right=Fuse(left=MVar(name='PHI'), right=MVar(name='PHI')))), "
        "AxiomSchema(name='scaling_1_1_1_1', template=Imp(left=MVar(name='PHI'), "
        "right=MVar(name='PHI')))), families=(), has_toa=True, oracle_kind='hilbert', "
        "model_classes=('sugihara_odd', 'sugihara_even'))"
    )
