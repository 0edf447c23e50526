"""Seeded problem generation for the four workloads.

A run is a sequence of rounds (see :func:`round_problems`); every round of
a workload holds the same number of problems of each kind, and the same
seed gives the same problems.  The program only ever sees the generated
text.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random

import check as C

# Caps of the engine's default budget (normalize.DEFAULT_LITERAL_CAP and
# DEFAULT_GOAL_CAP).  Inputs whose decomposition could exceed them are
# dropped before the program sees them.
LITERAL_CAP = 4096
GOAL_CAP = 4096

# The fixed small budget of the hilbert workload: EngineBudget(lambda_cap=2,
# hilbert=HilbertBudget(max_lines=400)).
HILBERT_LAMBDA_CAP = 2
HILBERT_MAX_LINES = 400

# Class-enumeration depth of the mingle interpolation tasks.  The library
# default, 4, costs about 15 s per task over two shared variables.
MINGLE_INTERPOLATION_DEPTH = 3


@dataclass
class Problem:
    kind: str  # consequence | gordan | interpolate | density
    logic: str
    label: str  # where in the mix the problem comes from
    hyps: list = field(default_factory=list)
    concl: tuple | None = None
    expected: str | None = None  # verdict known from the paper
    rows: list | None = None  # gordan matrix
    x_vars: list | None = None  # interpolation variables
    phi: tuple | None = None  # density endpoints, side disjunct, fresh name
    psi: tuple | None = None
    chi: tuple | None = None
    fresh: str = "pfresh"
    text: str | None = None  # conclusion text, when not to_text(concl)


# --- formulas -------------------------------------------------------------------


def mult_formula(rng: Random, names, depth: int, constants: float = 0.15) -> tuple:
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < constants:
            return rng.choice([C.ONE, C.ZERO])
        return C.var(rng.choice(names))
    op = rng.choice(["->", "*"])
    return (op, mult_formula(rng, names, depth - 1, constants), mult_formula(rng, names, depth - 1, constants))


def full_formula(rng: Random, names, depth: int, lattice: float = 0.35) -> tuple:
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.15:
            return rng.choice([C.ONE, C.ZERO])
        return C.var(rng.choice(names))
    op = rng.choice(["&", "|"]) if rng.random() < lattice else rng.choice(["->", "*"])
    return (op, full_formula(rng, names, depth - 1, lattice), full_formula(rng, names, depth - 1, lattice))


def disjunction(formulas) -> tuple:
    out = formulas[0]
    for f in formulas[1:]:
        out = ("|", out, f)
    return out


# --- the decomposition bound ------------------------------------------------------

_HUGE = 1 << 40


def _cap(n: int) -> int:
    return min(n, _HUGE)


def _forms(f: tuple):
    """Upper bounds ((clauses, clause length), (terms, term length)) on the
    conjunctive and disjunctive normal forms that pushing fusion and
    implication through the lattice connectives produces, before any
    duplicate or subsumed clause is removed."""
    tag = f[0]
    if tag not in C.BINARY:
        return (1, 1), (1, 1)
    (ca, la), (ta, ma) = _forms(f[1])
    (cb, lb), (tb, mb) = _forms(f[2])
    if tag == "&":
        return (ca + cb, max(la, lb)), (_cap(ta * tb), ma + mb)
    if tag == "|":
        return (_cap(ca * cb), la + lb), (ta + tb, max(ma, mb))
    if tag == "*":
        # the left operand's lattice tree, each leaf carrying the right's
        return (_cap(ca * cb ** min(la, 64)), la * lb), (_cap(ta * tb ** min(ma, 64)), ma * mb)
    # implication: the antecedent's dual tree, each leaf carrying the consequent's
    return (_cap(ta * cb ** min(ma, 64)), ma * lb), (_cap(ca * tb ** min(la, 64)), la * mb)


def decomposition_bound(hyps, concl) -> tuple[int, int]:
    """Upper bounds on the literals in any one formula's clause form and on
    the number of goals that ``hyps |- concl`` decomposes into."""
    literals, goals = 0, 1
    for h in hyps:
        (clauses, length), _ = _forms(h)
        literals = max(literals, clauses * length)
        goals = _cap(goals * length ** min(clauses, 64))
    (clauses, length), _ = _forms(concl)
    return max(literals, clauses * length), _cap(goals * clauses)


def within_caps(hyps, concl) -> bool:
    literals, goals = decomposition_bound(hyps, concl)
    return literals <= LITERAL_CAP and goals <= GOAL_CAP


# --- hand-written problems with answers from the paper ----------------------------

P = C.var("p")
Q = C.var("q")
R = C.var("r")


def known_answers(logic: str) -> list[Problem]:
    """``p | ~p`` and ``0 -> 1`` hold in every logic with a theorem of
    alternatives; ``1 -> 0`` holds in IUMLm and fails in RMt."""
    out = [
        Problem("consequence", logic, "paper", concl=("|", P, C.neg(P)), expected="proved"),
        Problem("consequence", logic, "paper", concl=C.imp(C.ZERO, C.ONE), expected="proved"),
    ]
    if logic in ("IUMLm", "RMt"):
        out.append(
            Problem(
                "consequence", logic, "paper", concl=C.imp(C.ONE, C.ZERO),
                expected="proved" if logic == "IUMLm" else "refuted",
            )
        )
    return out


# --- abelian ----------------------------------------------------------------------


def abelian_round(rng: Random) -> list[Problem]:
    out = known_answers("A")
    names = ["p", "q", "r", "s"]
    while len(out) < 10:
        hyps = [full_formula(rng, names, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        concl = full_formula(rng, names, rng.randint(3, 5))
        if within_caps(hyps, concl):
            out.append(Problem("consequence", "A", "lattice", hyps=hyps, concl=concl))
    for with_hyps in (False, True):
        n = rng.randint(20, 40)
        names = [f"x{i}" for i in range(n)]
        disjuncts = [mult_formula(rng, names, rng.randint(3, 4), 0.05) for _ in range(rng.randint(3, 6))]
        hyps = [mult_formula(rng, names, rng.randint(2, 3), 0.05) for _ in range(n // 4)] if with_hyps else []
        out.append(Problem("consequence", "A", "wide", hyps=hyps, concl=disjunction(disjuncts)))
    m, n = rng.randint(10, 20), rng.randint(10, 20)
    out.append(
        Problem("gordan", "A", "gordan", rows=[[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    )
    names = ["p", "q", "r", "s", "t"]
    hyps = [mult_formula(rng, names, rng.randint(1, 2), 0.0) for _ in range(rng.randint(3, 5))]
    if rng.random() < 0.5:
        hyps[0] = ("|", hyps[0], mult_formula(rng, names, 1, 0.0))
    present = C.variables(hyps)
    x_vars = sorted(rng.sample(present, min(len(present), rng.randint(2, 3))))
    out.append(Problem("interpolate", "A", "interpolate", hyps=hyps, x_vars=x_vars))
    out.append(density_problem(rng, "A"))
    return out


def density_problem(rng: Random, logic: str, names=("x", "y", "z")) -> Problem:
    """A density instance whose three-disjunct goal is provable: the right
    endpoint is the left one, possibly rewritten to an equivalent form."""
    phi = mult_formula(rng, names, rng.randint(1, 3))
    psi = rng.choice([phi, ("*", phi, C.ONE), C.imp(C.ONE, phi), C.neg(C.neg(phi))])
    chi = mult_formula(rng, names, rng.randint(1, 2))
    sigma = [mult_formula(rng, names, rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
    return Problem("density", logic, "density", hyps=sigma, phi=phi, psi=psi, chi=chi)


# --- mingle -----------------------------------------------------------------------


# (disjuncts, hypotheses) of the goals in every mingle round, per logic.
# A fixed mix keeps the rounds alike in cost.
MINGLE_SLOTS = [(3, 0), (4, 1), (5, 2), (6, 0), (3, 1), (4, 2)]


def mingle_round(rng: Random) -> list[Problem]:
    out = known_answers("RMt")[0::2] + known_answers("IUMLm")[1:]
    names = ["p", "q", "r", "s"]
    for logic in ("RMt", "IUMLm"):
        for n_disjuncts, n_hyps in MINGLE_SLOTS * 2:
            disjuncts = [mult_formula(rng, names, rng.randint(1, 2)) for _ in range(n_disjuncts)]
            hyps = [mult_formula(rng, names, rng.randint(1, 2)) for _ in range(n_hyps)]
            out.append(Problem("consequence", logic, "goal", hyps=hyps, concl=disjunction(disjuncts)))
    out += [density_problem(rng, "IUMLm") for _ in range(2)]
    hyps = []
    while len(C.variables(hyps)) < 2:
        hyps = [mult_formula(rng, ["p", "q", "r"], rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
    x_vars = sorted(rng.sample(C.variables(hyps), 2))
    out.append(Problem("interpolate", "IUMLm", "interpolate", hyps=hyps, x_vars=x_vars))
    return out


# --- hilbert ----------------------------------------------------------------------

HILBERT_THEOREMS = [
    C.imp(P, P),
    C.imp(("*", P, Q), ("*", Q, P)),
    C.imp(C.plus(P, P), ("*", P, P)),
    C.imp(("*", P, P), C.plus(P, P)),
    C.imp(P, C.imp(Q, ("*", P, Q))),
]

# Theorems of BIULm that the search does not reach under the workload budget.
HILBERT_MISSED = [
    C.imp(("*", P, ("*", Q, R)), ("*", ("*", P, Q), R)),
    ("|", C.imp(P, Q), C.imp(Q, P)),
]


def hilbert_round(rng: Random) -> list[Problem]:
    out = known_answers("BIULm")
    out += [Problem("consequence", "BIULm", "theorem", concl=f) for f in HILBERT_THEOREMS]
    out += [Problem("consequence", "BIULm", "missed", concl=f) for f in HILBERT_MISSED]
    names = ["p", "q"]
    for _ in range(8):
        disjuncts = [mult_formula(rng, names, rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        hyps = [mult_formula(rng, names, 1) for _ in range(rng.randint(0, 1))]
        out.append(Problem("consequence", "BIULm", "seeded", hyps=hyps, concl=disjunction(disjuncts)))
    return out


# --- cli --------------------------------------------------------------------------

DEEP_SCALAR = "400*p -> p"
DEEP_POWER = "p^600 -> p"


def cli_round(rng: Random) -> list[Problem]:
    """One process per problem, each with tiny solver work, so that start-up,
    import and output dominate.  The two deep formulas stay in every round:
    both are refuted in A at p = 1, which the checker confirms on its own."""
    out = []
    for logic, names in (("A", ["p", "q", "r"]), ("RMt", ["p", "q"]), ("IUMLm", ["p", "q"])):
        disjuncts = [mult_formula(rng, names, rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        hyps = [mult_formula(rng, names, 1) for _ in range(rng.randint(0, 1))]
        out.append(Problem("consequence", logic, "prove", hyps=hyps, concl=disjunction(disjuncts)))
    out.append(Problem("consequence", "BIULm", "prove", concl=rng.choice(HILBERT_THEOREMS[:3])))
    out.append(rng.choice(known_answers(rng.choice(["A", "RMt", "IUMLm", "BIULm"]))))
    m, n = rng.randint(3, 6), rng.randint(3, 6)
    out.append(Problem("gordan", "A", "gordan", rows=[[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]))
    hyps = [mult_formula(rng, ["p", "q", "r"], rng.randint(1, 2), 0.0) for _ in range(rng.randint(2, 3))]
    out.append(Problem("interpolate", "A", "interpolate", hyps=hyps, x_vars=sorted(rng.sample(C.variables(hyps), 1))))
    out.append(density_problem(rng, rng.choice(["A", "IUMLm"]), ("x", "y")))
    for concl, text in ((C.imp(C.scalar(400, P), P), DEEP_SCALAR), (C.imp(C.power(P, 600), P), DEEP_POWER)):
        expected = "refuted" if C.refutes(C.Integers, {"p": 1}, [], [concl]) else "proved"
        out.append(Problem("consequence", "A", "deep", concl=concl, text=text, expected=expected))
    return out


ROUNDS = {
    "abelian": abelian_round,
    "mingle": mingle_round,
    "hilbert": hilbert_round,
    "cli": cli_round,
}

# Rounds per second of --seconds.  A run does a fixed amount of work, so its
# figures do not depend on how many rounds happen to fit into the time; at
# these rates a run's loop takes about --seconds on a 2-core 2.1 GHz Xeon
# virtual machine.
ROUNDS_PER_SECOND = {"abelian": 3.3, "mingle": 0.43, "hilbert": 0.45, "cli": 0.47}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


# The logics each workload uses, for the warm-up problems of the set-up.
LOGICS = {
    "abelian": ["A"],
    "mingle": ["RMt", "IUMLm"],
    "hilbert": ["BIULm"],
    "cli": ["A", "RMt", "IUMLm", "BIULm"],
}


def disjuncts_of(f: tuple) -> list[tuple]:
    return disjuncts_of(f[1]) + disjuncts_of(f[2]) if f[0] == "|" else [f]


def reorder(problem: Problem, mix: Random) -> Problem:
    """The same problem with its hypotheses and the top-level disjuncts of
    its conclusion in another order."""
    if problem.text is not None:
        return problem
    hyps = list(problem.hyps)
    mix.shuffle(hyps)
    if problem.concl is None:
        return replace(problem, hyps=hyps)
    parts = disjuncts_of(problem.concl)
    mix.shuffle(parts)
    return replace(problem, hyps=hyps, concl=disjunction(parts))


def round_problems(workload: str, seed: int, index: int) -> list[Problem]:
    """Round ``index`` of the workload's corpus, reordered by the seed.

    The corpus, ``Random(f"{workload}:{index}")``, is the same for every
    seed.  The seed shuffles the problems of the round, the hypotheses of
    each problem and the top-level disjuncts of its conclusion, so every
    seed sends different text that asks the same questions."""
    mix = Random(f"{workload}:{seed}:{index}")
    problems = [reorder(p, mix) for p in ROUNDS[workload](Random(f"{workload}:{index}"))]
    mix.shuffle(problems)
    return problems
