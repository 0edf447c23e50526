"""Certificate, countermodel and declaration checks hold under ``python -O``.

``-O`` strips ``assert`` statements, so each check below must be an
explicit test that raises InvalidCertificateError (UnsoundModelClassError
for a logic's declared model classes).  The scenarios run in a child
interpreter started with ``-O``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import sys
from fractions import Fraction

from gordian import chains, check, engine, linalg, mix, oracles
from gordian.errors import InvalidCertificateError, UnsoundModelClassError
from gordian.logics import lookup_logic
from gordian.normalize import Goal
from gordian.syntax import Fuse, parse

assert False, "asserts are live: this interpreter is not running with -O"


def goal(hyps, disjuncts):
    return Goal.of([parse(h) for h in hyps], [parse(d) for d in disjuncts])


def rejected(label, action, error=InvalidCertificateError):
    try:
        action()
    except error:
        print("rejected:", label)
    else:
        print("ACCEPTED:", label)


# Forged LP weights that do not balance: the Abelian procedure re-checks
# them for the engine and for the one-target question alike.
transitive = goal(["p -> q", "q -> r"], ["p -> r"])
alternative = oracles.abelian_alternative
oracles.abelian_alternative = lambda sigma, disjuncts, memo=None: linalg.Combination((1,), (1, 0))
rejected(
    "abelian weights that do not sum to the combination",
    lambda: engine.prove_disjunction("A", transitive),
)
rejected(
    "one-target abelian weights that do not sum to the target",
    lambda: oracles.decide("A", transitive.hypotheses, parse("p -> r")),
)
oracles.abelian_alternative = alternative

# A goal settled by an earlier goal's countermodel is re-checked like any
# other: a reuse test that takes every earlier valuation gives the proved
# goal p -> p the countermodel p = -1 of the goal p.
refuting = oracles.AbelianMemo.refuting
oracles.AbelianMemo.refuting = lambda memo, d_forms, h_forms, variables: (
    {v: memo.countermodels[0].get(v, 0) for v in variables} if memo.countermodels else None
)
rejected(
    "earlier countermodel that does not refute a later goal",
    lambda: engine.prove_consequence("A", [], parse("p & (p -> p)")),
)
oracles.AbelianMemo.refuting = refuting

# A derivation whose one line, the target, is no axiom instance: from the
# saturation, which reaches p * p from p in a knotted logic (it declares no
# Z, so no LP proposes weights there), and from the search in MLL with mix,
# which proves p * q -> q * p, and p -> q -> q * p, the curried target of
# p, q |- q * p, whose hypothesis lines modus ponens then takes off.
reconstruct = oracles._reconstruct
oracles._reconstruct = lambda phi, parents: (check.DerivationLine(1, phi, "axiom identity"),)
rejected(
    "Hilbert derivation with an unjustified line",
    lambda: engine.prove_disjunction("knotted(1,1,1:1:1:1)", goal(["p"], ["p * p"])),
)
oracles._reconstruct = reconstruct
search = mix.mix_derivation
mix.mix_derivation = lambda phi, up, down: {phi: ("axiom", up)}
rejected(
    "derivation from the search in MLL with mix with an unjustified line",
    lambda: engine.prove_disjunction("BIULm", goal([], ["p * q -> q * p"])),
)
rejected(
    "curried derivation from the search in MLL with mix with an unjustified line",
    lambda: engine.prove_disjunction("BIULm", goal(["p", "q"], ["q * p"])),
)
mix.mix_derivation = search

# A forged one-line derivation whose line is no balance member: the check
# builds only the members whose n a side's power fixes.
forged_power = parse("p^1000 -> q")
rejected(
    "one-line derivation of p^1000 -> q as a balance axiom",
    lambda: check.check_result(
        "BIULm",
        check.ProofResult(
            "proved",
            goal([], ["p^1000 -> q"]),
            certificate=check.ToACertificate(
                (1,),
                check.DerivationWitness(
                    (check.DerivationLine(1, forged_power, "axiom balance_down_1000"),)
                ),
            ),
        ),
    ),
)

# a valid goal, so every point of a chain designates a disjunct
excluded_middle = goal([], ["p", "~p"])
scan = oracles.find_chain_countermodel
oracles.find_chain_countermodel = lambda chains, sigma, disjuncts: check.Countermodel.of(
    chains[0].name, {"p": 1}
)
rejected(
    "chain countermodel that does not refute",
    lambda: engine.prove_disjunction("RMt", excluded_middle),
)
# a value outside the chain's carrier
oracles.find_chain_countermodel = lambda chains, sigma, disjuncts: check.Countermodel.of(
    "sugihara_even_2", {"p": 0}
)
rejected(
    "chain countermodel off its carrier",
    lambda: engine.prove_disjunction("RMt", excluded_middle),
)
oracles.find_chain_countermodel = scan

subset = chains.LevelSearch.largest_valid_subset
chains.LevelSearch.largest_valid_subset = lambda search, chain_list: {0}
rejected(
    "subset whose combination is not designated",
    lambda: engine.prove_disjunction("IUMLm", excluded_middle),
)
chains.LevelSearch.largest_valid_subset = subset

scan = oracles.find_chain_countermodel
oracles.find_chain_countermodel = lambda chains, sigma, disjuncts: check.Countermodel.of(
    "sugihara_odd_2", {"p": 1}
)
rejected(
    "oracle countermodel that does not refute",
    lambda: oracles.sugihara_decide("IUMLm", [], parse("p -> p")),
)
rejected(
    "chain countermodel that does not refute a BIULm goal",
    lambda: engine.prove_disjunction("BIULm", goal([], ["p -> p"])),
)
# p -> q fails at p = 50, q = -50 there, but no decision on two variables
# uses a chain wider than half-width 4
oracles.find_chain_countermodel = lambda chains, sigma, disjuncts: check.Countermodel.of(
    "sugihara_odd_50", {"p": 50, "q": -50}
)
rejected(
    "chain countermodel on a chain wider than any decision chain",
    lambda: engine.prove_disjunction("RMt", goal([], ["p -> q"])),
)
oracles.find_chain_countermodel = scan

# A chain-exhaustive witness must name every decision chain: the odd
# chain designates 1 -> 0, but RMt's even chains refute it.
subsets = engine.prove_subsets
engine.prove_subsets = lambda logic, g: check.ProofResult(
    "proved",
    g,
    certificate=check.ToACertificate((1,), check.ChainExhaustiveWitness(("sugihara_odd_1",))),
)
rejected(
    "RMt proof of 1 -> 0 on the odd chain alone",
    lambda: engine.prove_disjunction("RMt", goal([], ["1 -> 0"])),
)
engine.prove_subsets = subsets

# The one Abelian LP: a point that solves nothing, then a Farkas vector
# that separates nothing, must be caught by every reader of the LP.
solve = linalg.feasible_point_or_farkas
single = goal([], ["p"])
for label, fake, matrix, hyps in [
    (
        "LP point that solves nothing",
        lambda rows, rhs: ([1] * len(rows[0]), None, 1),
        [[1, 1]],
        [],
    ),
    (
        "Farkas vector that separates nothing",
        lambda rows, rhs: (None, [1] * len(rows), 1),
        [[1, -1]],
        [parse("p")],
    ),
]:
    linalg.feasible_point_or_farkas = fake
    rejected(f"gordan: {label}", lambda: linalg.gordan(linalg.IntMatrix.of(matrix)))
    rejected(f"one-target Abelian question: {label}", lambda: oracles.decide("A", hyps, parse("p")))
    rejected(f"abelian engine: {label}", lambda: engine.prove_disjunction("A", single))
linalg.feasible_point_or_farkas = solve

# The model classes refuted on before the Hilbert search: a declaration is
# checked before a refutation rests on it, and a Z separation is re-checked
# like any countermodel.
def replace(record, **changes):
    return type(record)(**{name: getattr(record, name) for name in record._fields} | changes)


knotted_in_z = replace(lookup_logic("knotted(1,1,1:1:1:1)"), model_classes=("Z", "sugihara_odd"))
rejected(
    "knotted logic declaring Z, where p -> p^2 fails",
    lambda: engine.prove_disjunction(knotted_in_z, goal([], ["p * q -> p"])),
    UnsoundModelClassError,
)
separate = oracles.linear_alternative
oracles.linear_alternative = lambda forms, hyps: linalg.Separation((1,) * len(forms[0]))
rejected(
    "Z separation that does not refute a BIULm goal",
    lambda: engine.prove_disjunction("BIULm", goal(["p"], ["p"])),
)
oracles.linear_alternative = separate

# A Z countermodel is checked by evaluation: a valuation that misses a goal
# variable or holds a non-integer refutes nothing.
for label, g, valuation in [
    ("Z countermodel without a disjunct variable", goal([], ["p -> q"]), {"p": 1}),
    ("Z countermodel without a hypothesis variable", goal(["q"], ["p"]), {"p": -1}),
    ("Z countermodel with a fractional value", goal([], ["p"]), {"p": Fraction(-1, 2)}),
]:
    forged = check.ProofResult("refuted", g, countermodel=check.Countermodel.of("Z", valuation))
    rejected(label, lambda: check.check_result("A", forged))

# Float entries: 2**53 + 1 rounds to 2**53, so a float weight, linear
# witness entry or scale would balance either direction between h and d,
# whose linear readings differ by p; A refutes both.
big = parse("p")
for _ in range(53):
    big = Fuse(big, big)
h, d = Fuse(Fuse(big, parse("p")), parse("q")), Fuse(big, parse("q"))
for label, sigma, phi, lambdas, witness in [
    ("float linear witness entry", [h], d, (1,), check.LinearWitness((1.0,), 1)),
    ("float weight", [d], h, (1.0,), check.LinearWitness((1,), 1)),
    ("float scale", [d], h, (1,), check.LinearWitness((1,), 1.0)),
]:
    forged = check.ProofResult(
        "proved", oracles.one_target(sigma, phi), certificate=check.ToACertificate(lambdas, witness)
    )
    rejected(label, lambda: check.check_result("A", forged))

# Evidence of the wrong shape is rejected before any of it is read.
p_goal = goal([], ["p"])
for label, forged in [
    ("weights not a tuple", check.ProofResult(
        "proved", p_goal, certificate=check.ToACertificate(1, check.LinearWitness((), 1))
    )),
    ("linear witness entries not a tuple", check.ProofResult(
        "proved", p_goal, certificate=check.ToACertificate((1,), check.LinearWitness(None, 1))
    )),
    ("valuation not a tuple", check.ProofResult(
        "refuted", p_goal, countermodel=check.Countermodel("Z", 5)
    )),
    ("chain not a string", check.ProofResult(
        "refuted", p_goal, countermodel=check.Countermodel(None, (("p", -1),))
    )),
    ("valuation entry not a pair", check.ProofResult(
        "refuted", p_goal, countermodel=check.Countermodel("Z", (("p",),))
    )),
    ("status bogus", check.ProofResult("bogus", p_goal)),
    ("status Proved", check.ProofResult("Proved", p_goal)),
    ("status None", check.ProofResult(None, p_goal)),
]:
    rejected(label, lambda: check.check_result("A", forged))
'''


def test_certificate_checks_survive_optimize():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 36 and all(line.startswith("rejected:") for line in lines), lines
