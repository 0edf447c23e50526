"""Axiom systems, named logics and schema machinery.

Templates are ordinary formula trees whose leaves may be metavariables
(uppercase names, a namespace disjoint from object variables).  A logic is
a base system plus extra axiom schemas; the registry carries the standard
presets and parametric knotted extensions.  The decision layer derives
only in a logic's multiplicative fragment: its multiplicative axiom
schemas and families, modus ponens and, where :attr:`LogicSpec.mult_rules`
has it, the unperforated rule.  Each preset also records which
multiplicative-fragment decision procedure applies to it, and the model
classes its multiplicative fragment is sound for, which the decision layer
checks (:func:`oracles.check_model_classes`); this module imports nothing
from it.  A schema stores the postorder that :func:`instantiate` runs when
it is built, and :func:`match_template` keeps a stack of node pairs.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Callable, Iterable
from functools import lru_cache

from .errors import MissingMetavariableError, UnknownLogicError
from .syntax import (
    MAX_REPEAT,
    Binary,
    Formula,
    Fuse,
    Imp,
    MVar,
    Record,
    parse_template,
    postorder,
    power,
    replace_leaves,
    scalar,
)


class AxiomSchema(Record):
    """A named template.  When built, it stores the template's
    :func:`syntax.postorder` with the metavariables as its named leaves,
    which :func:`instantiate` runs, and ``occurrences``: metavariable name
    -> number of its leaves in the template's tree."""

    name: str
    template: Formula

    def __init__(self, name: str, template: Formula):
        Record.__init__(self, name, template)
        entries = postorder(template, lambda leaf: isinstance(leaf, MVar))
        # how often each entry occurs in the tree, parents before children
        count = [0] * len(entries)
        count[-1] = 1
        for k in range(len(entries) - 1, -1, -1):
            if type(entries[k]) is tuple:
                count[entries[k][1]] += count[k]
                count[entries[k][2]] += count[k]
        object.__setattr__(self, "postorder", entries)
        occurrences = {e: count[k] for k, e in enumerate(entries) if type(e) is str}
        object.__setattr__(self, "occurrences", occurrences)


_PHI = MVar("PHI")


class AxiomFamily(Record):
    """An axiom-schema family indexed by a natural number.  ``indices(f)``
    holds every n whose members the formula ``f`` could instantiate."""

    name: str
    schemas: Callable[[int], tuple[AxiomSchema, ...]]
    indices: Callable[[Formula], Iterable[int]]

    def _key(self) -> tuple:  # families compare and hash by name only
        return (self.name,)


def _ax(name: str, text: str) -> AxiomSchema:
    return AxiomSchema(name, parse_template(text))


_MLL_CORE = (
    _ax("suffixing", "(PHI -> PSI) -> ((PSI -> CHI) -> (PHI -> CHI))"),
    _ax("uncurry", "(PHI -> (PSI -> CHI)) -> ((PHI * PSI) -> CHI)"),
    _ax("exchange", "(PHI -> (PSI -> CHI)) -> (PSI -> (PHI -> CHI))"),
    _ax("fusion_intro", "PHI -> (PSI -> (PHI * PSI))"),
    _ax("identity", "PHI -> PHI"),
    _ax("unit_intro", "PHI -> (1 -> PHI)"),
    _ax("double_negation", "~~PHI -> PHI"),
    _ax("unit", "1"),
)

_ADDITIVE = (
    _ax("conj_left1", "(PHI & PSI) -> PHI"),
    _ax("conj_left2", "(PHI & PSI) -> PSI"),
    _ax("disj_right1", "PHI -> (PHI | PSI)"),
    _ax("disj_right2", "PSI -> (PHI | PSI)"),
    _ax("conj_intro", "((PHI -> PSI) & (PHI -> CHI)) -> (PHI -> (PSI & CHI))"),
    _ax("disj_elim", "((PHI -> CHI) & (PSI -> CHI)) -> ((PHI | PSI) -> CHI)"),
)

_PRELINEARITY = _ax("prelinearity", "((PHI -> PSI) & 1) | ((PSI -> PHI) & 1)")
_EXCLUDED_MIDDLE = _ax("excluded_middle", "PHI | ~PHI")
_ZERO_ONE = _ax("zero_one", "0 -> 1")
_ONE_ZERO = _ax("one_zero", "1 -> 0")
_COLLAPSE = _ax("collapse", "(PHI -> PHI) -> 0")
_MINGLE_IN = _ax("mingle_in", "PHI -> (PHI + PHI)")
_MINGLE_OUT = _ax("mingle_out", "(PHI + PHI) -> PHI")

_BASE_AXIOMS: dict[str, tuple[AxiomSchema, ...]] = {
    "MLL": _MLL_CORE,
    "MLL0": _MLL_CORE + (_ZERO_ONE,),
    "MLLu": _MLL_CORE,
    "MLL0u": _MLL_CORE + (_ZERO_ONE,),
    "MALLm": _MLL_CORE + _ADDITIVE,
    "IULm": _MLL_CORE + _ADDITIVE + (_PRELINEARITY,),
    "IULstar": _MLL_CORE + _ADDITIVE + (_PRELINEARITY, _EXCLUDED_MIDDLE, _ZERO_ONE),
}

@lru_cache(maxsize=128)
def _balance_schemas(n: int) -> tuple[AxiomSchema, ...]:
    """``n*PHI -> PHI^n`` and its converse.

    The whole family holds in the model classes BIULm declares, not only
    the members up to the bound that the declaration check reaches: in Z
    both sides read ``n*p``, and on an odd Sugihara chain, where fusion and
    its dual sum are idempotent, both read ``p`` (for n = 0, the constants
    1 and 0, which are equal there)."""
    return (
        AxiomSchema(f"balance_up_{n}", Imp(scalar(n, _PHI), power(_PHI, n))),
        AxiomSchema(f"balance_down_{n}", Imp(power(_PHI, n), scalar(n, _PHI))),
    )


def _balance_indices(f: Formula) -> set[int]:
    """0, 1 and, for each side of the implication ``f``, the n with that
    side ``power(g, n)`` for its last factor g: a member n >= 2 has
    ``PHI^n`` as one side, and none is built past MAX_REPEAT."""
    out = {0, 1}
    for side in (f.left, f.right) if isinstance(f, Imp) else ():
        n, node = 1, side
        while isinstance(node, Fuse) and node.right == side.right and n < MAX_REPEAT:
            n, node = n + 1, node.left
        out.add(n)
    return out


_BALANCE = AxiomFamily("balance", _balance_schemas, _balance_indices)


class LogicSpec(Record):
    """A named logic: base system, extra axiom schemas, capabilities."""

    name: str
    base: str
    extra_axioms: tuple[AxiomSchema, ...] = ()
    families: tuple[AxiomFamily, ...] = ()
    has_toa: bool = False
    oracle_kind: str = "hilbert"
    # Model classes the multiplicative fragment is sound for, refuted on in
    # this order: "Z" (the integers), "sugihara_odd", "sugihara_even".  A
    # mingle logic's Sugihara classes are also its decision chains.
    model_classes: tuple[str, ...] = ()

    def axiom_schemas(self) -> tuple[AxiomSchema, ...]:
        return _BASE_AXIOMS[self.base] + self.extra_axioms

    def family_schemas(self, max_n: int) -> tuple[AxiomSchema, ...]:
        out: list[AxiomSchema] = []
        for fam in self.families:
            for n in range(max_n + 1):
                out.extend(fam.schemas(n))
        return tuple(out)

    def mult_axiom_schemas(self) -> tuple[AxiomSchema, ...]:
        """Axiom basis of the multiplicative fragment: the multiplicative
        members of :meth:`axiom_schemas`, in order (families excluded; fetch
        those via family_schemas)."""
        return tuple(a for a in self.axiom_schemas() if a.template.multiplicative)

    @property
    def mult_rules(self) -> tuple[str, ...]:
        if self.has_toa or self.base in ("MLLu", "MLL0u"):
            return ("mp", "u_n")
        return ("mp",)


def _make_registry() -> dict[str, LogicSpec]:
    presets = [
        LogicSpec("MLL", "MLL"),
        LogicSpec("MLL0", "MLL0"),
        LogicSpec("MLLu", "MLLu"),
        LogicSpec("MLL0u", "MLL0u"),
        LogicSpec("MALLm", "MALLm"),
        LogicSpec("IULm", "IULm"),
        LogicSpec("IULstar", "IULstar"),
        LogicSpec(
            "A",
            "IULm",
            extra_axioms=(_COLLAPSE, _ZERO_ONE),
            has_toa=True,
            oracle_kind="abelian",
            model_classes=("Z",),
        ),
        LogicSpec(
            "RMt",
            "IULm",
            extra_axioms=(_MINGLE_IN, _MINGLE_OUT),
            has_toa=True,
            oracle_kind="sugihara",
            model_classes=("sugihara_even", "sugihara_odd"),
        ),
        LogicSpec(
            "IUMLm",
            "IULm",
            extra_axioms=(_MINGLE_IN, _MINGLE_OUT, _ONE_ZERO),
            has_toa=True,
            oracle_kind="sugihara",
            model_classes=("sugihara_odd",),
        ),
        LogicSpec(
            "BIULm",
            "IULm",
            families=(_BALANCE,),
            has_toa=True,
            oracle_kind="hilbert",
            model_classes=("Z", "sugihara_odd"),
        ),
    ]
    return {spec.name: spec for spec in presets}


_REGISTRY = _make_registry()

_KNOTTED_NAME = re.compile(r"knotted\((\d+),(\d+)((?:,\d+:\d+:\d+:\d+)+)\)$")


def knotted_logic(t: int, u: int, witnesses) -> LogicSpec:
    """Knotted extension: p^t -> p^(t+u) plus one scaling witness
    (r_i, k_i, m_i, s_i) per residue i < u, with r_i = s_i = i (mod u) and
    r_i, s_i >= t.  Registered with a theorem of alternatives; its
    side-condition check may still come back unknown under the Hilbert
    oracle.  Sound on Sugihara chains of both parities, where fusion and
    sum are idempotent: ``p^t -> p^(t+u)`` and each scaling axiom read
    ``p -> p``, and on an even chain, where ``|p| >= 1``, ``0 -> 1`` reads
    ``-1 -> 1 = 1``; ``1 -> 0``, which an even chain refutes, is no axiom.
    Not sound on Z: ``p^t -> p^(t+u)`` reads ``u*p >= 0``, which fails at
    p < 0.  Odd chains are declared first, so they are asked first."""
    witnesses = tuple(tuple(int(v) for v in w) for w in witnesses)
    if t < 1 or u < 1 or len(witnesses) != u:
        raise ValueError("need t,u >= 1 and exactly u witnesses")
    axioms = [AxiomSchema(f"knot_{t}_{t + u}", Imp(power(_PHI, t), power(_PHI, t + u)))]
    for i, (r, k, m, s) in enumerate(witnesses):
        if min(r, k, m, s) < 1 or r < t or s < t or r % u != i % u or s % u != i % u:
            raise ValueError(f"witness {i} violates the knotted parameter conditions")
        axioms.append(
            AxiomSchema(
                f"scaling_{r}_{k}_{m}_{s}",
                Imp(power(scalar(r, _PHI), k), scalar(m, power(_PHI, s))),
            )
        )
    name = f"knotted({t},{u}," + ",".join(":".join(map(str, w)) for w in witnesses) + ")"
    return LogicSpec(
        name,
        "IULstar",
        extra_axioms=tuple(axioms),
        has_toa=True,
        oracle_kind="hilbert",
        model_classes=("sugihara_odd", "sugihara_even"),
    )


def lookup_logic(name: str) -> LogicSpec:
    """Fetch a preset by name; knotted(t,u,r:k:m:s[,...]) is parsed."""
    if name in _REGISTRY:
        return _REGISTRY[name]
    m = _KNOTTED_NAME.match(name)
    if m:
        t, u = int(m.group(1)), int(m.group(2))
        witnesses = [w.split(":") for w in m.group(3).lstrip(",").split(",")]
        try:
            return knotted_logic(t, u, witnesses)
        except ValueError as exc:
            raise UnknownLogicError(f"{name}: {exc}") from exc
    raise UnknownLogicError(
        f"unknown logic {name!r}; available: {', '.join(sorted(_REGISTRY))}, "
        "knotted(t,u,r:k:m:s[,...])"
    )


def resolve_logic(logic: LogicSpec | str) -> LogicSpec:
    """A :class:`LogicSpec` as given, or the one registered under the name."""
    return lookup_logic(logic) if isinstance(logic, str) else logic


def registered_logics() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# --- schema instantiation and matching --------------------------------------


def instantiate(schema: AxiomSchema, args: dict[str, Formula]) -> Formula:
    """Uniformly replace every metavariable; all must be covered.  Runs the
    schema's stored postorder, so ground subtrees are shared, not rebuilt."""
    try:
        return replace_leaves(schema.postorder, args)
    except KeyError as missing:
        raise MissingMetavariableError(
            f"schema {schema.name}: metavariable {missing.args[0]} unbound"
        ) from None


def match_template(template: Formula, f: Formula) -> dict[str, Formula] | None:
    """One-way matching: an assignment with instantiate(template) == f."""
    assignment: dict[str, Formula] = {}
    pairs = [template, f]  # (template node, formula node) pairs still to match
    while pairs:
        g, t = pairs.pop(), pairs.pop()
        if isinstance(t, MVar):
            if assignment.setdefault(t.name, g) != g:
                return None
        elif type(t) is not type(g):
            return None
        elif isinstance(t, Binary):
            pairs += (t.right, g.right, t.left, g.left)
        elif t != g:
            return None
    return assignment


def matching_axiom(logic: LogicSpec, f: Formula) -> str | None:
    """The name of the first multiplicative axiom schema that the
    multiplicative ``f`` instantiates, or None: the base and extra schemas
    in order, then of each family the members of the n that its
    ``indices(f)`` holds, smallest n first.  Only the templates that could
    match are tried: multiplicative ones whose root is ``f``'s connective
    (or a metavariable)."""
    kind = type(f)
    members = (s for fam in logic.families for n in sorted(fam.indices(f)) for s in fam.schemas(n))
    for schema in itertools.chain(logic.axiom_schemas(), members):
        t = schema.template
        if type(t) in (kind, MVar) and t.multiplicative and match_template(t, f) is not None:
            return schema.name
    return None
