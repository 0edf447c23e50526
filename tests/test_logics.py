import itertools

import pytest

from helpers import meta_to_vars, ref_eval_abelian, replace

from gordian import check_toa_condition, oracles
from gordian.chains import eval_formula, sugihara_chain
from gordian.check import countermodel_refutes
from gordian.engine import DEFAULT_BUDGET, _prove_deepening, prove_consequence
from gordian.errors import GordianError, MissingMetavariableError, UnknownLogicError
from gordian.logics import (
    AxiomSchema,
    instantiate,
    knotted_logic,
    lookup_logic,
    match_template,
    registered_logics,
)
from gordian.normalize import Goal
from gordian.oracles import MODEL_CLASSES, check_model_classes, class_countermodel
from gordian.syntax import MAX_REPEAT, Imp, Var, parse, parse_template, render, scalar, variables


def test_lookup_abelian_extras():
    spec = lookup_logic("A")
    templates = {a.template for a in spec.extra_axioms}
    assert templates == {
        parse_template("(PHI -> PHI) -> 0"),
        parse_template("0 -> 1"),
    }
    assert spec.has_toa and spec.oracle_kind == "abelian"


def test_lookup_iuml_is_rmt_plus_one_zero():
    rmt = lookup_logic("RMt")
    iuml = lookup_logic("IUMLm")
    rmt_names = {a.name for a in rmt.extra_axioms}
    iuml_names = {a.name for a in iuml.extra_axioms}
    assert iuml_names == rmt_names | {"one_zero"}
    one_zero = parse("1 -> 0")
    assert prove_consequence(iuml, [], one_zero).status == "proved"
    assert prove_consequence(rmt, [], one_zero).status == "refuted"


def test_lookup_unknown():
    with pytest.raises(UnknownLogicError):
        lookup_logic("nosuch")


def test_presets_registered():
    names = registered_logics()
    for expected in ("MLL", "MLL0", "MLLu", "MLL0u", "MALLm", "IULm", "IULstar",
                     "A", "RMt", "IUMLm", "BIULm"):
        assert expected in names


def test_instantiate_examples():
    identity = AxiomSchema("identity", parse_template("PHI -> PHI"))
    assert instantiate(identity, {"PHI": parse("p * q")}) == parse("(p*q) -> (p*q)")
    mingle = AxiomSchema("mingle", parse_template("PHI -> (PHI + PHI)"))
    got = instantiate(mingle, {"PHI": parse("~q")})
    assert got == parse("~q -> (~q + ~q)")
    two = AxiomSchema("two", parse_template("PHI -> PSI"))
    with pytest.raises(MissingMetavariableError):
        instantiate(two, {"PHI": parse("p")})


def test_match_template():
    t = parse_template("PHI -> PHI")
    assert match_template(t, parse("(p*q) -> (p*q)")) == {"PHI": parse("p*q")}
    assert match_template(t, parse("p -> q")) is None
    t2 = parse_template("PHI -> (1 -> PHI)")
    assert match_template(t2, parse("p -> (1 -> p)")) == {"PHI": parse("p")}


def test_balance_family_instances():
    biul = lookup_logic("BIULm")
    schemas = {s.name: s for s in biul.family_schemas(2)}
    assert render(schemas["balance_up_0"].template) == "0 -> 1"
    assert render(schemas["balance_down_0"].template) == "~1"  # 1 -> 0
    assert schemas["balance_up_2"].template == parse_template("(PHI + PHI) -> (PHI * PHI)")
    # each member is built once, with its postorder, not on every search
    assert all(a is b for a, b in zip(biul.family_schemas(8), biul.family_schemas(8)))


def test_mult_axiom_basis():
    a = lookup_logic("A")
    names = {s.name for s in a.mult_axiom_schemas()}
    assert "zero_one" in names and "collapse" in names
    assert "prelinearity" not in names  # not multiplicative
    assert lookup_logic("BIULm").mult_rules == ("mp", "u_n")
    assert lookup_logic("MLL").mult_rules == ("mp",)
    # the basis is the multiplicative axioms in order, each named once
    for name in registered_logics() + tuple(KNOTTED_PRESETS):
        spec = lookup_logic(name)
        basis = spec.mult_axiom_schemas()
        assert basis == tuple(s for s in spec.axiom_schemas() if s.template.multiplicative), name
        assert len({s.name for s in basis}) == len(basis), name


def _template_designated_everywhere(template, chains) -> bool:
    f = meta_to_vars(template)
    names = sorted(variables(f))
    for chain in chains:
        for point in itertools.product(chain.carrier, repeat=len(names)):
            value = eval_formula(chain, dict(zip(names, point)), f)
            if not chain.designated(value):
                return False
    return True


def _template_designated_on_grid(template, bound=3) -> bool:
    f = meta_to_vars(template)
    names = sorted(variables(f))
    for point in itertools.product(range(-bound, bound + 1), repeat=len(names)):
        if ref_eval_abelian(f, dict(zip(names, point))) < 0:
            return False
    return True


def test_axiom_soundness_in_owning_semantics():
    # every preset's axioms are designated under all valuations of its models
    rmt_chains = [sugihara_chain(k, odd) for k in (1, 2, 3, 4) for odd in (True, False)]
    odd_chains = [sugihara_chain(k, odd=True) for k in (1, 2, 3, 4)]  # sizes 3..9
    for schema in lookup_logic("RMt").axiom_schemas():
        assert _template_designated_everywhere(schema.template, rmt_chains), schema.name
    iuml = lookup_logic("IUMLm")
    for schema in iuml.axiom_schemas():
        assert _template_designated_everywhere(schema.template, odd_chains), schema.name
    biul = lookup_logic("BIULm")
    for schema in biul.axiom_schemas() + biul.family_schemas(4):
        assert _template_designated_everywhere(schema.template, odd_chains), schema.name
    for schema in lookup_logic("A").axiom_schemas():
        assert _template_designated_on_grid(schema.template), schema.name


def test_one_zero_axiom_fails_in_even_chains():
    even = [sugihara_chain(2, odd=False)]
    one_zero = next(
        a for a in lookup_logic("IUMLm").extra_axioms if a.name == "one_zero"
    )
    assert not _template_designated_everywhere(one_zero.template, even)


def test_toa_condition_examples():
    report = check_toa_condition(lookup_logic("A"), 3)
    assert report.entries[2].status == "proved"  # n = 3, (k, m) = (1, 1)
    report = check_toa_condition(lookup_logic("RMt"), 4)
    assert report.entries[3].status == "proved"
    report = check_toa_condition(lookup_logic("BIULm"), 5)
    assert report.entries[4].status == "proved"


def test_toa_condition_takes_a_logic_name_and_rejects_no_entries():
    assert check_toa_condition("BIULm", 1) == check_toa_condition(lookup_logic("BIULm"), 1)
    assert check_toa_condition("RMt", 2).all_proved
    for n_max in (0, -1):  # an empty report would read as "all proved"
        with pytest.raises(ValueError):
            check_toa_condition("BIULm", n_max)


def test_toa_condition_all_presets_small():
    for name in ("A", "RMt", "IUMLm", "BIULm"):
        assert check_toa_condition(lookup_logic(name), 3).all_proved, name


def test_toa_condition_refutes_on_the_model_classes():
    # the Hilbert search leaves n = 2, (p + p) -> 2*(p * p), open; p = -1
    # refutes it in Z, which BIULm declares sound
    report = check_toa_condition(lookup_logic("BIULm"), 2, {2: (1, 2)})
    one, two = report.entries
    assert one.status == "proved" and one.countermodel is None
    assert two.status == "refuted" and two.countermodel.chain == "Z"
    assert countermodel_refutes(two.countermodel, [], [parse("(p + p) -> 2*(p * p)")])
    assert not report.all_proved


def test_toa_condition_rejects_bad_witness():
    with pytest.raises(ValueError):
        check_toa_condition(lookup_logic("A"), 1, {1: (1, 0)})


@pytest.mark.parametrize(
    "n_max, witnesses",
    [
        (3, {3: (-1, 1)}),  # k below 0
        (3, {3: (1, 0)}),  # m below 1
        (3, {3: (MAX_REPEAT + 1, 1)}),  # k past the largest repetition
        (3, {3: (1, MAX_REPEAT + 1)}),  # m past it
        (3, {4: (1, 1)}),  # an n no entry would check
        (MAX_REPEAT + 1, {}),  # n_max past it, which no entry could reach
        (oracles.N_MAX_CAP + 1, {}),  # n_max past the cap on the run's length
    ],
)
def test_toa_condition_checks_its_arguments_before_any_entry(monkeypatch, n_max, witnesses):
    decided = []
    monkeypatch.setattr(oracles, "decide", lambda *args, **kwargs: decided.append(args))
    with pytest.raises(ValueError):
        check_toa_condition("A", n_max, witnesses)
    assert decided == []


def test_knotted_registration():
    spec = knotted_logic(2, 1, [(4, 5, 6, 7)])
    assert spec.has_toa and spec.oracle_kind == "hilbert"
    assert lookup_logic(spec.name) == spec
    report = check_toa_condition(spec, 2)
    assert all(e.status in ("proved", "unknown") for e in report.entries)
    with pytest.raises(UnknownLogicError):
        lookup_logic("knotted(2,1,1:1:1:1)")  # r < t


def test_knotted_parameter_validation():
    with pytest.raises(ValueError):
        knotted_logic(2, 2, [(4, 1, 1, 4), (4, 1, 1, 4)])  # wrong residues
    knotted_logic(2, 2, [(4, 1, 1, 4), (5, 1, 1, 5)])


KNOTTED_PRESETS = ["knotted(2,1,4:5:6:7)", "knotted(1,1,1:1:1:1)", "knotted(2,2,4:1:1:4,5:1:1:5)"]


def test_declared_model_classes_pass_their_check():
    expected = {
        "A": ("Z",),
        "RMt": ("sugihara_even", "sugihara_odd"),
        "IUMLm": ("sugihara_odd",),
        "BIULm": ("Z", "sugihara_odd"),
    }
    for name, classes in expected.items():
        assert check_model_classes(lookup_logic(name)) == classes, name
    for name in KNOTTED_PRESETS:
        assert check_model_classes(lookup_logic(name)) == ("sugihara_odd", "sugihara_even"), name


@pytest.mark.parametrize(
    "name, classes, failing",
    [
        # Z reads p^1 -> p^2 as p >= 0
        ("knotted(1,1,1:1:1:1)", ("Z", "sugihara_odd"), "axiom knot_1_2"),
        ("knotted(2,1,4:5:6:7)", ("sugihara_odd", "Z"), "axiom knot_2_3"),
        # balance for n = 0 is 1 -> 0, which even chains refute
        ("BIULm", ("Z", "sugihara_even"), "axiom balance_down_0"),
        ("RMt", ("Z",), "axiom mingle_in"),
    ],
)
def test_unsound_declaration_is_rejected(name, classes, failing):
    spec = replace(lookup_logic(name), model_classes=classes)
    with pytest.raises(GordianError, match=failing):
        check_model_classes(spec)
    # the check runs before the first refutation from the declared classes
    goal = Goal.of([], [parse("p * q -> p")])
    with pytest.raises(GordianError, match=failing):
        _prove_deepening(spec, goal, DEFAULT_BUDGET)


def test_every_model_class_preserves_designation_under_the_rules():
    # the declaration check asks no rule question: in each class modus
    # ponens and u_n (from n*p infer p) have no countermodel
    p, q = Var("p"), Var("q")
    for model_class in MODEL_CLASSES:
        assert class_countermodel((model_class,), (p, Imp(p, q)), (q,)) is None, model_class
        for n in range(2, 17):
            assert class_countermodel((model_class,), (scalar(n, p),), (p,)) is None, (model_class, n)


def test_unknown_model_class_is_rejected():
    spec = replace(lookup_logic("BIULm"), model_classes=("Z", "rationals"))
    with pytest.raises(GordianError, match="unknown model class 'rationals'"):
        check_model_classes(spec)
