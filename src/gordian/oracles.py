"""The decision procedures of the multiplicative fragment, one per oracle kind.

Each procedure settles a goal ``sigma |- d_1 | ... | d_n`` of
multiplicative formulas with machine-checkable evidence, unchecked.  The
engine reads them for its disjunction goals, and :func:`decide`, the
one-target entry, asks each the one-disjunct question ``sigma |- phi``:

* ``abelian``: :func:`prove_abelian` on :func:`abelian_alternative`, the
  package's one exact LP on the linear readings: weights on the disjuncts
  and hypotheses that balance, or else its separation, an integer
  countermodel in Z.  A literal's reading is kept on its node
  (:func:`linalg.linear_coefficients`), so it is folded once.  The goals of
  one consequence share an :class:`AbelianMemo`: an earlier goal's
  countermodel that refutes a goal answers it before the LP.
* ``sugihara`` (the mingle logics): :func:`prove_subsets`, weights over 0/1
  vectors.  The goal is compiled once for the level search
  (:class:`chains.LevelSearch`, which places the variables a level of
  absolute values at a time, from the top), which holds both halves of
  Avron's dichotomy on the decision chains: a canonical valuation
  designating every hypothesis and no disjunct is the countermodel;
  otherwise the largest valid subset of the disjuncts proves.
* ``hilbert``: :func:`refute_or_propose` first.  Where the logic declares
  Z and no class refutes the goal, the Z LP's combination proposes the
  weights on the disjuncts and the hypotheses, and :func:`hilbert_search`
  searches for that one weighted sum in MLL with mix (:mod:`mix`) only,
  the hypotheses curried into the target and taken off by modus ponens.
  Otherwise, and where that search fails, :func:`hilbert_search` for one
  target at a time: the search in MLL with mix for a target without
  hypotheses where the logic's units coincide, then budgeted forward
  saturation over axiom-schema instances with modus ponens and the
  unperforated rule; proved by a derivation, or unknown.

Every answer of :func:`decide` and the engine passes one checker,
:func:`check.check_result`, which imports none of these procedures.
Before a Hilbert search a goal is refuted in the model classes a logic
declares sound (:func:`class_refutation`) with the two complete
procedures above: the LP's separation for Z and the chain scan
(:func:`find_chain_countermodel`) for the Sugihara classes.  A
declaration is checked against the logic's multiplicative axioms
(:func:`check_model_classes`; every class preserves designation under the
rules) once a refutation rests on it.  A class
countermodel is checked once: as the evidence of a refuted verdict, or by
:func:`check_model_classes` before it reports an unsound class.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import chains
from .chains import class_chains, decision_chains, level_search
from .check import (
    ChainExhaustiveWitness,
    Countermodel,
    DerivationLine,
    DerivationWitness,
    LinearWitness,
    ProofResult,
    ToACertificate,
    check_result,
    checked_countermodel,
    combination_formula,
    countermodel_refutes,  # bench/tracing.py wraps it under this module's name
)
from .errors import UnsoundModelClassError, UnsupportedLogicError
from .linalg import Combination, linear_alternative, linear_coefficients
from .logics import LogicSpec, instantiate, matching_axiom, resolve_logic
from .normalize import Goal, MultClause, structural_order
from .syntax import (
    MAX_REPEAT,
    ONE,
    ZERO,
    Formula,
    Imp,
    Record,
    Var,
    power,
    scalar,
    scalar_count,
    subformulas,
    variables_of,
)


def one_target(sigma, phi: Formula) -> Goal:
    """The one-disjunct goal ``sigma |- phi``, hypotheses in the given order
    (a linear witness weights them in that order)."""
    return Goal(tuple(sigma), MultClause((phi,)))


# --- Abelian ------------------------------------------------------------------


class AbelianMemo:
    """What the Abelian goals of one consequence share: the Z countermodels
    found so far, the latest hit first."""

    __slots__ = ("countermodels",)

    def __init__(self):
        self.countermodels: list[dict[str, int]] = []

    def refuting(self, d_forms, h_forms, variables) -> dict[str, int] | None:
        """An earlier countermodel, restricted to ``variables``, under which
        every hypothesis reads >= 0 and every disjunct < 0, moved to the
        front; ``None`` when none does.  One lacking a goal variable is
        skipped."""
        for i, val in enumerate(self.countermodels):
            if not variables <= val.keys():
                continue
            read = lambda f: sum(c * val[v] for v, c in f.items())
            if all(read(f) < 0 for f in d_forms) and all(read(f) >= 0 for f in h_forms):
                self.countermodels.insert(0, self.countermodels.pop(i))
                return {v: val[v] for v in variables}
        return None


def abelian_alternative(
    sigma, disjuncts, memo: AbelianMemo | None = None
) -> Combination | Countermodel:
    """:func:`linalg.linear_alternative` on the linear readings of
    ``sigma |- disjuncts``: the combination of the disjuncts that weights on
    the hypotheses match, or else its separation, which makes every
    disjunct negative and no hypothesis negative, as a countermodel in Z.

    An earlier countermodel of ``memo`` (a fresh one by default) that
    refutes the goal is returned without the LP, restricted to the goal's
    variables."""
    memo = AbelianMemo() if memo is None else memo
    d_forms = list(map(linear_coefficients, disjuncts))
    h_forms = list(map(linear_coefficients, sigma))
    goal_variables = set().union(*d_forms, *h_forms)
    earlier = memo.refuting(d_forms, h_forms, goal_variables)
    if earlier is not None:
        return Countermodel.of("Z", earlier)
    variables = sorted({v for f in d_forms + h_forms for v, c in f.items() if c})
    result = linear_alternative(
        [[f.get(v, 0) for v in variables] for f in d_forms],
        [[f.get(v, 0) for v in variables] for f in h_forms],
    )
    if isinstance(result, Combination):
        return result
    full = dict.fromkeys(goal_variables, 0)
    full.update(zip(variables, result.y))
    memo.countermodels.insert(0, full)
    return Countermodel.of("Z", full)


def prove_abelian(goal: Goal, memo: AbelianMemo | None = None) -> ProofResult:
    """The Abelian logic's procedure: :func:`abelian_alternative` with the
    consequence's ``memo``, its combination as the weights and a linear
    witness of scale 1."""
    result = abelian_alternative(goal.hypotheses, goal.clause.disjuncts, memo)
    if isinstance(result, Countermodel):
        return ProofResult("refuted", goal, countermodel=result)
    cert = ToACertificate(tuple(result.lambdas), LinearWitness(tuple(result.mu), 1))
    return ProofResult("proved", goal, certificate=cert)


# --- Sugihara -----------------------------------------------------------------


def find_chain_countermodel(chains, sigma, disjuncts) -> Countermodel | None:
    """A canonical valuation into the first of the given chains that has
    one designating all of ``sigma`` and none of ``disjuncts``, found by the
    level search (:meth:`chains.LevelSearch.countermodel`), which reads
    only a chain's parity: one narrower than half-width k (odd) or k+1
    (even) for k variables may not hold it.  None when there is none."""
    search = level_search(tuple(sigma), tuple(disjuncts))
    for chain in chains:
        valuation = search.countermodel(chain)
        if valuation is not None:
            return Countermodel.of(chain.name, valuation)
    return None


def prove_subsets(logic: LogicSpec, goal: Goal) -> ProofResult:
    """The mingle logics' procedure, Avron's dichotomy on the decision
    chains: a valuation designating every hypothesis and no disjunct
    (:func:`find_chain_countermodel`, asked first) refutes; otherwise the
    largest subset of the disjuncts whose sum is valid
    (:meth:`chains.LevelSearch.largest_valid_subset`), which is then
    nonempty, proves with 0/1 weights.  The sum's decision chains, which
    the certificate names, are those of its own variables and the
    hypotheses'."""
    hyps, disjuncts = goal.hypotheses, goal.clause.disjuncts
    search = level_search(hyps, disjuncts)
    chains = decision_chains(logic, len(search.variables))
    cm = find_chain_countermodel(chains, hyps, disjuncts)
    if cm is not None:
        return ProofResult("refuted", goal, countermodel=cm)
    support = search.largest_valid_subset(chains)
    lambdas = tuple(int(i in support) for i in range(len(disjuncts)))
    k = len(variables_of(hyps + tuple(disjuncts[i] for i in support)))
    witness = ChainExhaustiveWitness(tuple(c.name for c in decision_chains(logic, k)))
    return ProofResult("proved", goal, certificate=ToACertificate(lambdas, witness))


def sugihara_decide(logic: LogicSpec | str, sigma, phi: Formula) -> ProofResult:
    """:func:`decide`, for the mingle logics only."""
    logic = resolve_logic(logic)
    if logic.oracle_kind != "sugihara":
        raise UnsupportedLogicError(f"no chain decision procedure for {logic.name}")
    return decide(logic, sigma, phi)


# --- sound model classes -------------------------------------------------------

MODEL_CLASSES = ("Z", "sugihara_odd", "sugihara_even")


def class_countermodel(classes, sigma, disjuncts) -> Countermodel | None:
    """A valuation in one of the named model classes that designates every
    formula of ``sigma`` and none of ``disjuncts``, unchecked, or ``None``
    when the classes have none: :func:`_class_answer` without its
    combination."""
    answer = _class_answer(classes, sigma, disjuncts)
    return answer if isinstance(answer, Countermodel) else None


def _class_answer(classes, sigma, disjuncts) -> Countermodel | Combination | None:
    """The countermodel of :func:`class_countermodel`, or else the Z LP's
    combination where Z was asked, or else ``None``.

    Z goes first, through :func:`abelian_alternative`; it is skipped for a
    question without variables, whose one valuation reads every formula as
    the designated 0.  The Sugihara classes follow, in their order, through
    :func:`find_chain_countermodel` on the chains of
    :func:`chains.class_chains`.  Both searches are complete for their
    class.  The chain scan is asked only up to :data:`chains.VARIABLE_CAP`
    variables, read at call time, past which the level search refuses a
    question; so past it only Z may refute, and a caller that searches for
    a proof goes on to decide the question."""
    sigma, disjuncts = tuple(sigma), tuple(disjuncts)
    k = len(variables_of(sigma + disjuncts))
    answer = abelian_alternative(sigma, disjuncts) if "Z" in classes and k else None
    scanned = class_chains(classes, k) if k <= chains.VARIABLE_CAP else ()
    if not isinstance(answer, Countermodel) and scanned:
        answer = find_chain_countermodel(scanned, sigma, disjuncts) or answer
    return answer


@lru_cache(maxsize=64)
def check_model_classes(logic: LogicSpec) -> tuple[str, ...]:
    """The model classes ``logic`` declares, once each is shown sound for
    its multiplicative fragment; raises UnsoundModelClassError naming an
    unknown class, or the first axiom that fails in a class.  A passed
    check is kept per spec.

    :func:`class_countermodel`, complete for each class, looks for a
    countermodel to every multiplicative axiom template, its metavariables
    read as variables, and to every family member up to
    :data:`FAMILY_BOUND` (each family's docstring says why the rest hold
    too).  No rule needs a check: modus ponens and u_n preserve
    designation in each of :data:`MODEL_CLASSES` (in Z ``p -> q`` reads
    ``q - p`` and ``n*p`` n times ``p``; on a Sugihara chain
    ``e <= p -> q`` is ``p <= q``, and ``n*p`` reads ``p``).  A
    countermodel found is checked before it is reported."""
    checks = [
        (s.name, instantiate(s, {v: Var(v.lower()) for v in s.occurrences}))
        for s in logic.mult_axiom_schemas() + logic.family_schemas(FAMILY_BOUND)
    ]
    for model_class in logic.model_classes:
        if model_class not in MODEL_CLASSES:
            raise UnsoundModelClassError(f"{logic.name}: unknown model class {model_class!r}")
        for name, target in checks:
            cm = class_countermodel((model_class,), (), (target,))
            if cm is not None:
                checked_countermodel(cm, (), (target,), (model_class,))
                raise UnsoundModelClassError(
                    f"{logic.name} declares {model_class}, where axiom {name} fails"
                )
    return logic.model_classes


def class_refutation(logic: LogicSpec, goal: Goal) -> Countermodel | Combination | None:
    """The countermodel to ``goal`` in the model classes ``logic`` declares,
    unchecked, or else the combination of their Z LP (:func:`_class_answer`),
    which the ``hilbert`` procedure proposes as its weights, or ``None``.
    The declaration is checked only once a refutation rests on it, so
    theorems, which no class refutes, never pay for that.  A refuted
    verdict built on it is checked by :func:`check.check_result`."""
    answer = _class_answer(logic.model_classes, goal.hypotheses, goal.clause.disjuncts)
    if isinstance(answer, Countermodel):
        check_model_classes(logic)
    return answer


# --- Hilbert ------------------------------------------------------------------


class HilbertBudget(Record):
    """The search's settable limit: the lines derived past the seeds."""

    max_lines: int = 4000


# The fixed limits of the instance stream: the subterms it draws arguments
# from, the largest n of a family's members in it and the instances it holds.
POOL_LIMIT = 28
FAMILY_BOUND = 8
MAX_INSTANCES = 12000

# The largest n_max of :func:`check_toa_condition`, whose run time grows
# faster than n_max: BIULm took 1.5 s at 200 and 5.5 s at 400 on one Xeon
# core, and A 0.46 s and 0.78 s.
N_MAX_CAP = 200

# The largest weighted size of a proposal (:func:`refute_or_propose`): the
# size of each disjunct times its weight plus that of each hypothesis times
# its weight.  A derivation from the search in MLL with mix grows with the
# square of it: (p^6)^6 |- p, of weighted size 107 at the weight 36, took
# 22,310 lines and 0.47 s with the check on one Xeon core, and (p^20)^20
# |- p, 1,199, took 46 s.  The benchmark's proposals stay under 30.
PROPOSAL_CAP = 100


def _axiom_instances(schemas, pool, max_size):
    """Deterministic stream of schema instances over the term pool, larger
    metavariable counts drawing from a shorter prefix of the pool, at most
    :data:`MAX_INSTANCES` of them.

    An instance's size is the template's plus, per metavariable, its number
    of occurrences times its argument's size less one, so combinations over
    ``max_size`` are skipped before they are built."""
    produced = 0
    for schema in schemas:
        mvars = sorted(schema.occurrences)
        if not mvars:
            yield schema.name, schema.template
            produced += 1
            continue
        counts = [schema.occurrences[v] for v in mvars]
        fixed = schema.template.size - sum(counts)
        source = pool[: max(8, 2 * len(pool) // 2 ** len(mvars))]
        for combo in itertools.product(source, repeat=len(mvars)):
            if fixed + sum(c * f.size for c, f in zip(counts, combo)) > max_size:
                continue
            yield schema.name, instantiate(schema, dict(zip(mvars, combo)))
            produced += 1
            if produced >= MAX_INSTANCES:
                return


def hilbert_search(
    logic: LogicSpec | str,
    sigma,
    phi: Formula,
    budget: HilbertBudget | None = None,
    mu: tuple[int, ...] | None = None,
) -> ProofResult:
    """Budgeted proof search in the logic's multiplicative fragment.

    A target that is a hypothesis, or an instance of one of the logic's
    axiom schemas (a family's members of every n), is its own one-line
    derivation; every instance the stream below could build is such a
    match, so nothing is lost by looking no further.  Next, a proposal
    (``mu``, the hypotheses' weights from the Z LP) or a target without
    hypotheses (``mu = ()``) is searched for in MLL with mix
    (:func:`_mix_with_hypotheses`); a proposal ends there, unknown where
    that search fails.  Otherwise, forward saturation: hypotheses and
    axiom-schema instances built from the first :data:`POOL_LIMIT`
    subterms in the structural order (:func:`normalize.structural_order`,
    smallest first) are closed under modus ponens and the unperforated
    rule (from ``n*g`` infer ``g``, every n >= 2) until the target appears
    or the budget runs out.  Both routes justify formulas in one format,
    which :func:`_reconstruct` turns into lines.  A proof carries a
    derivation of ``phi`` under the weight (1,), unchecked (see
    :func:`check.check_result`); no answer is refuted.
    """
    logic = resolve_logic(logic)
    budget = budget or HilbertBudget()
    goal = one_target(sigma, phi)
    sigma = list(goal.hypotheses)

    schemas = logic.mult_axiom_schemas() + logic.family_schemas(FAMILY_BOUND)
    use_u = "u_n" in logic.mult_rules

    parents: dict[Formula, tuple] = {}
    queue: list[Formula] = []
    by_antecedent: dict[Formula, list[Imp]] = {}

    def add(f: Formula, justification: tuple) -> None:
        if f in parents:
            return
        parents[f] = justification
        queue.append(f)

    for h in sigma:
        add(h, ("hyp",))
    if phi not in parents:
        axiom = matching_axiom(logic, phi)
        if axiom is not None:
            add(phi, ("axiom", axiom))
        else:
            if mu is not None or not sigma:
                lines = _mix_with_hypotheses(logic, sigma, mu or (), phi)
                if lines:
                    cert = ToACertificate((1,), DerivationWitness(lines))
                    return ProofResult("proved", goal, certificate=cert)
                if mu is not None:
                    reason = "no proof of the proposal in MLL with mix"
                    return ProofResult("unknown", goal, reason=reason)
            subterms = {g for f in sigma + [phi, ONE, ZERO] for g in subformulas(f)}
            pool = sorted(subterms, key=structural_order(subterms))[:POOL_LIMIT]
            for name, instance in _axiom_instances(schemas, pool, max(2 * phi.size + 8, 24)):
                add(instance, ("axiom", name))

    seeded = len(parents)
    head = 0
    while head < len(queue) and phi not in parents:
        if len(parents) > seeded + budget.max_lines:
            return ProofResult("unknown", goal, reason="line budget exhausted")
        f = queue[head]
        head += 1
        if isinstance(f, Imp):
            by_antecedent.setdefault(f.left, []).append(f)
            if f.left in parents:
                add(f.right, ("mp", f.left, f))
        for implication in by_antecedent.get(f, ()):
            add(implication.right, ("mp", f, implication))
        if use_u and isinstance(f, Imp):
            # from n*g conclude g: n*g for n >= 2 is ~(...) -> g
            n = scalar_count(f, f.right)
            if n is not None:
                add(f.right, ("u", n, f))

    if phi not in parents:
        reason = "saturation exhausted without reaching the target"
        return ProofResult("unknown", goal, reason=reason)
    lines = _reconstruct(phi, parents)
    return ProofResult("proved", goal, certificate=ToACertificate((1,), DerivationWitness(lines)))


def _mix_with_hypotheses(
    logic: LogicSpec, sigma, mu, phi: Formula
) -> tuple[DerivationLine, ...] | None:
    """The lines of :func:`mix_lines` for the curried target ``h_1 -> ...
    -> h_1 -> h_2 -> ... -> phi``, each hypothesis ``h_j`` repeated
    ``mu_j`` times, then one hypothesis line per ``h_j`` with ``mu_j > 0``
    and the modus ponens lines that take the copies off in turn, down to
    ``phi``; None when the search fails.  With no copies the target is
    ``phi`` itself."""
    copies = [h for h, m in zip(sigma, mu) for _ in range(m)]
    curried = phi
    for h in reversed(copies):
        curried = Imp(h, curried)
    lines = mix_lines(logic, curried)
    if not lines:
        return None
    out = list(lines)
    cited: dict[Formula, int] = {}
    for h in copies:
        if h not in cited:
            out.append(DerivationLine(len(out) + 1, h, "hypothesis"))
            cited[h] = len(out)
    at = len(lines)  # the line of the implication that the next copy leaves
    for h in copies:
        curried = curried.right
        out.append(DerivationLine(len(out) + 1, curried, f"mp {cited[h]},{at}"))
        at = len(out)
    return tuple(out)


def mix_lines(logic: LogicSpec, phi: Formula) -> tuple[DerivationLine, ...] | None:
    """The lines of :func:`mix.mix_derivation` for the hypothesis-free
    multiplicative ``phi``, or None.  It runs only where the logic matches
    both ``0 -> 1`` and ``1 -> 0`` as axioms (:func:`_unit_axioms`), so
    that its units coincide."""
    units = _unit_axioms(logic)
    if units is None or not phi.multiplicative:
        return None
    from . import mix  # imported on first use: compiling it costs a process about 7 ms

    proof = mix.mix_derivation(phi, *units)
    return proof and _reconstruct(phi, proof)


@lru_cache(maxsize=64)
def _unit_axioms(logic: LogicSpec) -> tuple[str, str] | None:
    """The names of the axioms of ``logic`` that ``0 -> 1`` and ``1 -> 0``
    match, kept per spec, or None unless both match."""
    up, down = matching_axiom(logic, Imp(ZERO, ONE)), matching_axiom(logic, Imp(ONE, ZERO))
    return None if up is None or down is None else (up, down)


def _reconstruct(goal: Formula, parents: dict[Formula, tuple]) -> tuple[DerivationLine, ...]:
    """The lines that derive ``goal`` from the saturation's or the search
    in MLL with mix's justifications (``("hyp",)``, ``("axiom", name)``,
    ``("mp", premise, implication)`` or ``("u", n, premise)``): a
    depth-first postorder from ``goal``, premises in the order they are
    cited, so every line but the last is cited by a later one."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(goal, False)]  # (formula, its premises are done)
    while stack:
        f, premises_done = stack.pop()
        if premises_done:
            order.append(f)
            continue
        if f in seen:
            continue
        seen.add(f)
        info = parents[f]
        stack.append((f, True))
        premises = info[1:] if info[0] == "mp" else info[2:] if info[0] == "u" else ()
        stack += [(p, False) for p in reversed(premises)]
    index = {f: i + 1 for i, f in enumerate(order)}
    lines = []
    for f in order:
        info = parents[f]
        if info[0] == "hyp":
            just = "hypothesis"
        elif info[0] == "axiom":
            just = f"axiom {info[1]}"
        elif info[0] == "mp":
            just = f"mp {index[info[1]]},{index[info[2]]}"
        else:
            just = f"u_{info[1]} {index[info[2]]}"
        lines.append(DerivationLine(index[f], f, just))
    return tuple(lines)


# --- dispatch ---------------------------------------------------------------------


def prove_one_target(logic: LogicSpec, goal: Goal, budget: HilbertBudget | None) -> ProofResult:
    """The one-disjunct ``goal`` asked of the logic's procedure, unchecked.
    A proof's certificate has the weight (1,) and a witness for the
    disjunct itself; an Abelian one carries the LP's weight as its scale."""
    if logic.oracle_kind == "sugihara":
        return prove_subsets(logic, goal)
    if logic.oracle_kind != "abelian":
        return hilbert_search(logic, goal.hypotheses, goal.clause.disjuncts[0], budget=budget)
    verdict = prove_abelian(goal)
    if verdict.status != "proved":
        return verdict
    cert = verdict.certificate
    witness = LinearWitness(cert.witness.mu, cert.lambdas[0])
    return ProofResult("proved", goal, certificate=ToACertificate((1,), witness))


def refute_or_propose(
    logic: LogicSpec, goal: Goal, budget: HilbertBudget | None
) -> ProofResult | None:
    """The first step of the ``hilbert`` procedure, unchecked: the goal
    refuted by :func:`class_refutation`, or proved at the weights of its Z
    LP's combination, or ``None`` for the caller to go on.

    Where Z is sound, a derivable weighted sum reads >= 0 wherever the
    hypotheses do, so by Farkas' lemma some weights balance it against
    them on the linear readings; the LP's vertex ``sum(lambda_i d_i) =
    sum(mu_j h_j)`` proposes such weights, and :func:`hilbert_search` is
    asked for that sum with the hypotheses' weights ``mu`` and searches it
    in MLL with mix only.
    No proposal is made past :data:`PROPOSAL_CAP`, so weights that no
    formula can hold are never built."""
    answer = class_refutation(logic, goal)
    if isinstance(answer, Countermodel):
        return ProofResult("refuted", goal, countermodel=answer)
    if answer is None:
        return None
    weighted = [*zip(answer.lambdas, goal.clause.disjuncts), *zip(answer.mu, goal.hypotheses)]
    if sum(w * f.size for w, f in weighted) > PROPOSAL_CAP:
        return None
    target = combination_formula(answer.lambdas, goal.clause.disjuncts)
    verdict = hilbert_search(logic, goal.hypotheses, target, budget, mu=answer.mu)
    if verdict.status != "proved":
        return None
    cert = ToACertificate(answer.lambdas, verdict.certificate.witness)
    return ProofResult("proved", goal, certificate=cert)


def decide(
    logic: LogicSpec | str, sigma, phi: Formula, budget: HilbertBudget | None = None
) -> ProofResult:
    """The one-target question ``sigma |- phi``: for the ``hilbert`` kind
    first :func:`refute_or_propose`, the engine's first step, whose proof
    of ``n*phi`` is read as a proof of ``phi`` by one closing ``u_n`` line;
    otherwise, or where it does not settle the question,
    :func:`prove_one_target`.  The answer passes :func:`check.check_result`."""
    logic = resolve_logic(logic)
    goal = one_target(sigma, phi)
    verdict = refute_or_propose(logic, goal, budget) if logic.oracle_kind == "hilbert" else None
    n = verdict.certificate.lambdas[0] if verdict and verdict.certificate else 1
    if n > 1:  # a derivation of n*phi, and phi from it where the logic has u_n
        lines = verdict.certificate.witness.lines
        lines += (DerivationLine(len(lines) + 1, phi, f"u_{n} {len(lines)}"),)
        cert = ToACertificate((1,), DerivationWitness(lines))
        verdict = ProofResult("proved", goal, certificate=cert) if "u_n" in logic.mult_rules else None
    return check_result(logic, verdict or prove_one_target(logic, goal, budget))


# --- the scaling side condition ----------------------------------------------


class ToAConditionEntry(Record):
    n: int
    k: int
    m: int
    status: str  # proved / refuted / unknown
    countermodel: Countermodel | None = None  # a refuted entry's checked countermodel


class ToAConditionReport(Record):
    logic: str
    entries: tuple[ToAConditionEntry, ...]

    @property
    def all_proved(self) -> bool:
        return all(e.status == "proved" for e in self.entries)


def check_toa_condition(
    logic: LogicSpec | str,
    n_max: int,
    witnesses: dict[int, tuple[int, int]] | None = None,
    budget: HilbertBudget | None = None,
) -> ToAConditionReport:
    """For each n <= n_max check derivability of (n*p)^k -> m*(p^n) in the
    logic's multiplicative fragment, with candidate (k, m) per n (default
    (1, 1)), under the Hilbert ``budget``, each by :func:`decide`; budget
    exhaustion is never a failure, only unknown.  A target that is a
    family member past :data:`FAMILY_BOUND` is still matched in one line,
    its n read off the target (:func:`logics.matching_axiom`).  Before the
    first entry is decided, ValueError refuses an n_max outside
    1..:data:`N_MAX_CAP`, a witness for an n outside 1..n_max, which would
    go unchecked, and one whose k or m lies outside 0..MAX_REPEAT or
    1..MAX_REPEAT, which no formula could hold.
    """
    logic = resolve_logic(logic)
    if not 1 <= n_max <= N_MAX_CAP:  # no entry would read as "all proved"; past it, a long run
        raise ValueError(f"n_max must lie in 1..{N_MAX_CAP}, not {n_max}")
    witnesses = witnesses or {}
    for n, (k, m) in sorted(witnesses.items()):
        if not 1 <= n <= n_max:
            raise ValueError(f"witness for n={n} lies outside 1..{n_max}")
        if not (0 <= k <= MAX_REPEAT and 1 <= m <= MAX_REPEAT):
            raise ValueError(f"witness for n={n} needs k in 0..{MAX_REPEAT} and m in 1..{MAX_REPEAT}")
    p = Var("p")
    entries = []
    for n in range(1, n_max + 1):
        k, m = witnesses.get(n, (1, 1))
        target = Imp(power(scalar(n, p), k), scalar(m, power(p, n)))
        verdict = decide(logic, [], target, budget=budget)
        entries.append(ToAConditionEntry(n, k, m, verdict.status, verdict.countermodel))
    return ToAConditionReport(logic.name, tuple(entries))
