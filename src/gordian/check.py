"""The certificate checker: what evidence proves a verdict, re-checked
from the goal alone.

A verdict on a goal ``sigma |- d_1 | ... | d_n`` is a :class:`ProofResult`.
:func:`check_result` returns it once its evidence holds and raises
InvalidCertificateError otherwise, an explicit test that ``python -O``
keeps.  A refutation's countermodel must lie in a model class the logic
declares and refute the goal (:func:`countermodel_refutes`).  A proof's
weights must be nonnegative and not all zero, and its witness must be of
the one kind the logic's procedure makes (:data:`WITNESS`) and prove the
disjuncts' weighted sum (:func:`combination_formula`): a linear witness
balances it on the linear readings (:func:`verify_linear_witness`), a
derivation derives it line by line (:func:`verify_derivation`), and a
chain-exhaustive witness names the sum's decision chains, on which the
level search finds no countermodel to it.  Evidence must have its
records' declared types, and every weight, linear-witness entry and
valuation value must be an int, since float arithmetic rounds a forged
sum into balance.

A Z value is a formula's linear reading (:func:`linalg.linear_coefficients`)
at the valuation.  The reading is kept on the formula's node once read, so
a literal is folded once for every goal and check that reads it.  It is a
function of the immutable node, like the ``size`` and ``multiplicative``
fields that :func:`verify_derivation` trusts: only ``linear_coefficients``
stores it, and the mapping it returns refuses writes, so nothing that a
decision procedure does with a reading changes what the check reads.

This module imports no decision procedure, which a test enforces: the
checks read the goal, the logic's axioms, the linear readings and the
chain evaluators.  The Sugihara witness check asks
:class:`chains.LevelSearch`, which is also the decision's evaluator.
"""

from __future__ import annotations

from functools import reduce

from .chains import CLASS_MARGINS, chain_from_name, decision_chains, eval_formula, level_search
from .errors import InvalidCertificateError, MissingVariableError
from .linalg import linear_coefficients
from .logics import LogicSpec, matching_axiom, resolve_logic
from .normalize import Goal
from .syntax import Formula, Imp, Record, plus, render, scalar, scalar_count, variables_of


# --- evidence and results -----------------------------------------------------


class LinearWitness(Record):
    """Nonnegative integer combination: sum(mu_j * hyp_j) = scale * target
    on the linear readings; the scale is discharged by the unperforated rule."""

    mu: tuple[int, ...]
    scale: int

    kind = "linear"


class ChainExhaustiveWitness(Record):
    """Every valuation into the named decision chains designates the target."""

    chains: tuple[str, ...]

    kind = "chain_exhaustive"


class DerivationLine(Record):
    index: int
    formula: Formula
    justification: str


class DerivationWitness(Record):
    lines: tuple[DerivationLine, ...]

    kind = "derivation"


MultWitness = LinearWitness | ChainExhaustiveWitness | DerivationWitness


class Countermodel(Record):
    """A refuting valuation into a named chain ("Z" = the integers)."""

    chain: str
    valuation: tuple[tuple[str, int], ...]

    @staticmethod
    def of(chain: str, valuation: dict[str, int]) -> "Countermodel":
        return Countermodel(chain, tuple(sorted(valuation.items())))

    @property
    def mapping(self) -> dict[str, int]:
        return dict(self.valuation)


class ToACertificate(Record):
    """Not-all-zero weights on the disjuncts plus the witness for their
    weighted sum (:func:`combination_formula`)."""

    lambdas: tuple[int, ...]
    witness: MultWitness


class ProofResult(Record):
    """What a procedure settled a goal with: a certificate, a countermodel
    or the reason it stopped."""

    status: str  # proved / refuted / unknown
    goal: Goal
    certificate: ToACertificate | None = None
    countermodel: Countermodel | None = None
    reason: str | None = None


def _weighted(lambdas, disjuncts) -> list[tuple[int, Formula]]:
    """The positive weights with their disjuncts, in disjunct order; raises
    InvalidCertificateError unless the weights are ints, one per disjunct,
    nonnegative and not all zero."""
    if len(lambdas) != len(disjuncts):
        raise InvalidCertificateError(
            f"expected {len(disjuncts)} weights, got {len(lambdas)}"
        )
    if not all(type(l) is int for l in lambdas):
        raise InvalidCertificateError(f"weights must be ints, not {lambdas}")
    if any(l < 0 for l in lambdas):
        raise InvalidCertificateError("weights must be nonnegative")
    support = [(l, d) for l, d in zip(lambdas, disjuncts) if l > 0]
    if not support:
        raise InvalidCertificateError("weights must not all be zero")
    return support


def combination_formula(lambdas, disjuncts) -> Formula:
    """The weighted sum ``l1*f1 + ... + ln*fn`` over the support of
    ``lambdas``, folded right-nested in disjunct order; the weights must
    pass :func:`_weighted`."""
    terms = [scalar(l, d) for l, d in _weighted(lambdas, disjuncts)]
    return reduce(lambda acc, t: plus(t, acc), reversed(terms[:-1]), terms[-1])


def countermodel_refutes(cm: Countermodel, sigma, disjuncts) -> bool:
    """Exact re-check: the valuation gives every variable of the goal an
    integer of the named chain's carrier (any integer in Z), designates
    every hypothesis and none of the disjuncts.  A name that resolves to no
    chain refutes nothing, and neither does a chain wider than any the
    decisions use (:data:`chains.CLASS_MARGINS` past the variable count),
    which is never built.  A Z value is the dot product of the formula's
    linear reading with the valuation.  A refutation evaluates every
    formula of the goal, and a reading keeps its zero coefficients, so a
    valuation missing a goal variable fails there."""
    val = cm.mapping
    try:
        chain = None if cm.chain == "Z" else chain_from_name(
            cm.chain,
            len(variables_of(tuple(sigma) + tuple(disjuncts))) + max(CLASS_MARGINS.values()),
        )
    except ValueError:
        return False
    well_formed = all(
        type(v) is int and (chain is None or v in chain.carrier) for v in val.values()
    )
    if chain is None:
        designated = lambda f: sum(c * val[v] for v, c in linear_coefficients(f).items()) >= 0
    else:
        designated = lambda f: eval_formula(chain, val, f) >= chain.unit
    try:
        return well_formed and all(map(designated, sigma)) and not any(map(designated, disjuncts))
    except (KeyError, MissingVariableError):
        return False


def checked_countermodel(cm: Countermodel, sigma, disjuncts, classes) -> Countermodel:
    """``cm`` itself, once it lies in one of ``classes`` and refutes the
    goal; raises InvalidCertificateError otherwise (a check ``python -O``
    keeps)."""
    declared = cm is not None and cm.chain.rsplit("_", 1)[0] in classes
    if not (declared and countermodel_refutes(cm, sigma, disjuncts)):
        raise InvalidCertificateError(f"countermodel {cm} does not refute the goal in {classes}")
    return cm


def verify_linear_witness(witness: LinearWitness, sigma, lambdas, disjuncts) -> bool:
    """Whether ``sum(mu_j * h_j) = scale * sum(l_i * d_i)`` on the linear
    readings, ``mu`` nonnegative ints and the scale a positive int, for
    weights that pass :func:`_weighted`; the sum is never built as a
    formula, so a weight may exceed :data:`syntax.MAX_REPEAT`."""
    weighted = _weighted(lambdas, disjuncts)
    if (
        len(witness.mu) != len(sigma)
        or any(type(v) is not int or v < 0 for v in (*witness.mu, witness.scale))
        or witness.scale < 1
    ):
        return False
    balance: dict[str, int] = {}
    for k, f in [*zip(witness.mu, sigma), *((-witness.scale * l, d) for l, d in weighted)]:
        if k:
            for v, c in linear_coefficients(f).items():
                balance[v] = balance.get(v, 0) + k * c
    return not any(balance.values())


# --- derivation checking -------------------------------------------------------


class DerivationCheck(Record):
    ok: bool
    bad_index: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_derivation(logic: LogicSpec | str, lines, hypotheses=()) -> DerivationCheck:
    """Independent line-by-line check in the system the searches derive
    in, the logic's multiplicative fragment: each line must be a
    multiplicative formula that is a hypothesis, an instance of a
    multiplicative axiom schema or family member, or follows from earlier
    lines by modus ponens (or the unperforated rule where the fragment has
    it).  A line that is no formula is unjustified.  The stated
    justifications are not trusted."""
    logic = resolve_logic(logic)
    formulas = [line.formula if isinstance(line, DerivationLine) else line for line in lines]
    hypotheses = set(hypotheses)
    use_u = "u_n" in logic.mult_rules
    earlier: set[Formula] = set()
    # the earlier implications by consequent: mp and u_n conclude from these
    implications: dict[Formula, list[Imp]] = {}
    for i, f in enumerate(formulas):
        if not isinstance(f, Formula):
            return DerivationCheck(False, i + 1, f"line {i + 1} is no formula: {f!r}")
        concluding = implications.get(f, ())
        ok = f in hypotheses or any(g.left in earlier for g in concluding)
        if not ok and use_u:
            ok = any((scalar_count(g, f) or 0) >= 2 for g in concluding)
        # the axiom match last: it tries every schema in turn
        if not (f.multiplicative and (ok or matching_axiom(logic, f))):
            return DerivationCheck(False, i + 1, f"line {i + 1} unjustified: {f}")
        earlier.add(f)
        if isinstance(f, Imp):
            implications.setdefault(f.right, []).append(f)
    return DerivationCheck(True)


# --- the one certificate check -------------------------------------------------


WITNESS = dict(abelian=LinearWitness, sugihara=ChainExhaustiveWitness, hilbert=DerivationWitness)

# the tuple field of each witness record
_WITNESS_FIELD = {LinearWitness: "mu", ChainExhaustiveWitness: "chains", DerivationWitness: "lines"}


def _well_shaped(result) -> bool:
    """Whether ``result`` is a :class:`ProofResult` on a :class:`Goal` whose
    status is ``proved``, ``refuted`` or ``unknown`` and whose evidence for
    it has the records' declared types: a countermodel's chain a string and
    its valuation a tuple of (name, value) pairs; a certificate's weights
    and its witness's entries tuples.  The values themselves are checked
    where they are read."""
    if type(result) is not ProofResult or type(result.goal) is not Goal:
        return False
    cm, cert = result.countermodel, result.certificate
    if result.status == "refuted":
        return (
            type(cm) is Countermodel
            and type(cm.chain) is str
            and type(cm.valuation) is tuple
            and all(type(e) is tuple and len(e) == 2 and type(e[0]) is str for e in cm.valuation)
        )
    if result.status == "proved":
        field = _WITNESS_FIELD.get(type(getattr(cert, "witness", None)))
        return (
            type(cert) is ToACertificate
            and type(cert.lambdas) is tuple
            and field is not None
            and type(getattr(cert.witness, field)) is tuple
        )
    return result.status == "unknown"


def check_result(logic: LogicSpec | str, result: ProofResult) -> ProofResult:
    """``result`` itself, once its evidence re-checks against its goal alone,
    else InvalidCertificateError: evidence of the records' declared types
    (:func:`_well_shaped`), and then a countermodel in a declared model
    class that refutes the goal, or a witness of the logic's own kind for
    the disjuncts' weighted sum, which a linear witness reads without
    building.  A derivation's lines must each be a :class:`DerivationLine`
    holding a formula.  A chain-exhaustive witness names the sum's
    decision chains, on which the level search finds no countermodel to
    the sum."""
    logic = resolve_logic(logic)
    if not _well_shaped(result):
        raise InvalidCertificateError("the evidence is not of its records' declared types")
    hyps, disjuncts = result.goal.hypotheses, result.goal.clause.disjuncts
    if result.status == "refuted":
        checked_countermodel(result.countermodel, hyps, disjuncts, logic.model_classes)
    if result.status != "proved":
        return result
    witness = result.certificate.witness
    if type(witness) is not WITNESS[logic.oracle_kind]:
        raise InvalidCertificateError(f"{logic.name} certifies no proof by {witness}")
    lambdas = result.certificate.lambdas
    if witness.kind == "linear":
        if verify_linear_witness(witness, hyps, lambdas, disjuncts):
            return result
        raise InvalidCertificateError(f"the linear witness does not balance the weights {lambdas}")
    combo = combination_formula(lambdas, disjuncts)
    if witness.kind == "derivation":
        lines = witness.lines
        ok = (
            lines
            and all(type(x) is DerivationLine and isinstance(x.formula, Formula) for x in lines)
            and lines[-1].formula == combo
            and verify_derivation(logic, lines, hyps)
        )
    else:
        search = level_search(hyps, (combo,))
        chains = decision_chains(logic, len(search.variables))
        ok = witness.chains == tuple(c.name for c in chains) and all(
            search.countermodel(c) is None for c in chains
        )
    if not ok:
        raise InvalidCertificateError(f"the {witness.kind} witness does not prove {render(combo)}")
    return result
