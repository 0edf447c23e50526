import pytest

from helpers import check_density_property

from gordian import density
from gordian.check import DerivationWitness, LinearWitness, ToACertificate, combination_formula
from gordian.density import (
    density_goal,
    density_precondition,
    density_transform,
)
from gordian.engine import EngineBudget, prove_consequence, prove_disjunction
from gordian.errors import InvalidCertificateError, PreconditionFailedError
from gordian.oracles import decide
from gordian.syntax import parse


def test_preconditions():
    assert density_precondition("IUMLm")
    assert density_precondition("A")
    assert not density_precondition("RMt")
    assert density_precondition("BIULm")
    assert not density_precondition("MLL")  # no alternatives theorem at all


def test_precondition_is_decided_once_per_logic_and_budget(monkeypatch):
    decided = []
    monkeypatch.setattr(
        density, "prove_consequence", lambda *args: decided.append(args) or prove_consequence(*args)
    )
    density_precondition.cache_clear()
    budget = EngineBudget(lambda_cap=3)
    assert density_precondition("A", budget) and len(decided) == 1
    assert density_precondition("A", budget) and len(decided) == 1
    assert density_precondition("A") and len(decided) == 2  # another budget


def test_transform_abelian_example():
    phi = psi = parse("q")
    goal = density_goal(phi, psi, None, "p")
    result = prove_disjunction("A", goal)
    assert result.status == "proved" and result.certificate.lambdas == (1, 1)
    out = density_transform("A", [], phi, psi, None, "p", result.certificate)
    assert out.disjuncts == (parse("q -> q"),)
    assert out.certificate.lambdas == (1,)


def test_transform_iuml_example():
    phi, psi, chi = parse("1"), parse("0"), parse("1 -> 0")
    goal = density_goal(phi, psi, chi, "p")
    result = prove_disjunction("IUMLm", goal)
    assert result.status == "proved"
    out = density_transform("IUMLm", [], phi, psi, chi, "p", result.certificate)
    assert out.disjuncts == (parse("1 -> 0"), parse("1 -> 0"))
    assert any(out.certificate.lambdas)


def test_transform_zero_weight_edges():
    # a certificate that never uses the fresh variable passes through
    phi, psi, chi = parse("q"), parse("r"), parse("q -> q")
    cert = ToACertificate((0, 0, 1), LinearWitness((), 1))
    out = density_transform("A", [], phi, psi, chi, "p", cert)
    assert out.certificate.lambdas == (0, 1)
    assert out.disjuncts == (parse("q -> r"), parse("q -> q"))


def test_transform_output_reproves():
    phi, psi = parse("q * q"), parse("q * q")
    goal = density_goal(phi, psi, parse("~r + r"), "p")
    result = prove_disjunction("A", goal)
    assert result.status == "proved"
    out = density_transform(
        "A", [], phi, psi, parse("~r + r"), "p", result.certificate
    )
    combo = combination_formula(out.certificate.lambdas, out.disjuncts)
    assert decide("A", [], combo).status == "proved"


def test_transform_rejects_stale_variable():
    phi = parse("p -> q")  # contains the would-be fresh variable
    cert = ToACertificate((1, 1), LinearWitness((), 1))
    with pytest.raises(PreconditionFailedError):
        density_transform("A", [], phi, parse("q"), None, "p", cert)


@pytest.mark.parametrize("fresh", ["", "1", "P", "x y"])
def test_fresh_name_must_be_a_variable(fresh):
    # Var("1") printed as the constant, and Var("") as nothing at all
    phi = psi = parse("q")
    with pytest.raises(PreconditionFailedError):
        density_goal(phi, psi, None, fresh)
    cert = ToACertificate((1, 1), LinearWitness((), 1))
    with pytest.raises(PreconditionFailedError):
        density_transform("A", [], phi, psi, None, fresh, cert)


def test_transform_rejects_logic_without_one_to_zero():
    cert = ToACertificate((1, 1), LinearWitness((), 1))
    with pytest.raises(PreconditionFailedError):
        density_transform("RMt", [], parse("q"), parse("q"), None, "p", cert)


def test_transform_rejects_invalid_certificate():
    phi = psi = parse("q")
    with pytest.raises(InvalidCertificateError):
        density_transform(
            "A", [], phi, psi, None, "p",
            ToACertificate((1, 1, 1), LinearWitness((), 1)),
        )
    with pytest.raises(InvalidCertificateError):
        # weights that do not certify the input goal
        density_transform(
            "A", [], parse("q"), parse("q * q"), None, "p",
            ToACertificate((1, 0), LinearWitness((), 1)),
        )


def test_transform_checks_the_input_certificate_not_its_combination():
    # q -> p + p -> q is provable in A, but a derivation is no witness the
    # Abelian procedure makes, and an empty one proves nothing
    phi = psi = parse("q")
    with pytest.raises(InvalidCertificateError):
        density_transform(
            "A", [], phi, psi, None, "p", ToACertificate((1, 1), DerivationWitness(()))
        )


def test_density_property_sampling():
    report = check_density_property("A", 40, seed=11)
    assert report.ok and report.transformed == 40
    report = check_density_property("IUMLm", 25, seed=11)
    assert report.ok and report.transformed == 25
    with pytest.raises(PreconditionFailedError):
        check_density_property("RMt", 5)
