"""The certificate checker ``gordian.check``: its import boundary, and
malformed evidence, which it rejects rather than accepts or crashes on."""

import ast
from pathlib import Path

import pytest

from gordian.check import (
    DerivationLine,
    DerivationWitness,
    LinearWitness,
    ProofResult,
    ToACertificate,
    check_result,
)
from gordian.engine import prove_consequence
from gordian.errors import InvalidCertificateError
from gordian.linalg import LinForm, translate_abelian
from gordian.oracles import one_target
from gordian.syntax import Fuse, Var, parse, power

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gordian"

# the modules that decide, or call what decides, and the LP's entry points
DECISION_MODULES = {"oracles", "engine", "mix", "density", "interpolate", "cli"}
DECISION_NAMES = {"linear_alternative", "feasible_point_or_farkas"}


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules that ``module``'s import statements name,
    anywhere in the file, and the names they import."""
    modules, names = set(), set()
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gordian.")}
        elif isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            package = source in (".", "gordian")
            if package:  # from . import x: x is a module
                modules |= {a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists()}
            elif source.startswith(".") or source.startswith("gordian."):
                modules.add(source.lstrip(".").removeprefix("gordian.").split(".")[0])
            names |= {a.name for a in node.names}
    return modules, names


def test_check_imports_no_decision_procedure():
    own_modules, own_names = _imports("check")
    assert not own_names & DECISION_NAMES
    seen, stack = set(), list(own_modules)
    while stack:
        module = stack.pop()
        if module not in seen:
            seen.add(module)
            stack += _imports(module)[0]
    assert not seen & DECISION_MODULES, sorted(seen & DECISION_MODULES)
    # the walk read the evaluators the checks ask
    assert {"chains", "linalg", "logics", "syntax"} <= seen


def _power_of_two_p(exponent: int):
    """p squared by fusion ``exponent`` times: its linear reading is
    2**exponent * p, in as many distinct nodes."""
    f = Var("p")
    for _ in range(exponent):
        f = power(f, 2)
    return f


def test_float_entries_forge_no_proof():
    # 2**53 + 1 rounds to 2**53 as a float, so a float weight, linear
    # witness entry or scale would balance either direction between these
    # two, although A refutes both
    big = _power_of_two_p(53)
    assert translate_abelian(big) == LinForm({"p": 2**53})
    assert translate_abelian(parse("((((p^65536)^65536)^65536)^32)")) == translate_abelian(big)
    p, q = Var("p"), Var("q")
    h, d = Fuse(Fuse(big, p), q), Fuse(big, q)
    assert prove_consequence("A", [h], d).status == "refuted"
    assert prove_consequence("A", [d], h).status == "refuted"
    forgeries = [
        ([h], d, (1,), LinearWitness((1.0,), 1)),
        ([d], h, (1.0,), LinearWitness((1,), 1)),
        ([d], h, (1,), LinearWitness((1,), 1.0)),
    ]
    for sigma, phi, lambdas, witness in forgeries:
        cert = ToACertificate(lambdas, witness)
        with pytest.raises(InvalidCertificateError):
            check_result("A", ProofResult("proved", one_target(sigma, phi), certificate=cert))


def test_malformed_derivation_lines_are_rejected():
    phi = parse("p -> p")
    goal = one_target([], phi)
    for lines in [
        ("junk",),
        (phi,),  # a formula where its line belongs
        (DerivationLine(1, "p -> p", "axiom identity"),),
        (),
    ]:
        cert = ToACertificate((1,), DerivationWitness(lines))
        with pytest.raises(InvalidCertificateError):
            check_result("MLL", ProofResult("proved", goal, certificate=cert))
    cert = ToACertificate((1,), DerivationWitness((DerivationLine(1, phi, "axiom identity"),)))
    assert check_result("MLL", ProofResult("proved", goal, certificate=cert)).status == "proved"
