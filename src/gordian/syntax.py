"""Immutable records, and formula syntax: trees, parsing, printing, substitution.

The tree has exactly six node kinds: variables, the constants 1 and 0, the
lattice connectives ``&`` and ``|``, fusion ``*`` and implication ``->``.
A connective node stores its hash, size and multiplicative flag when it is
built, so no formula-keyed cache exists, and equality and the one walker
:func:`subformulas` use no recursion.
Negation, sum, scalar multiples and powers are input notation only; they
elaborate at construction time via

    ~f        = f -> 0
    f + g     = ~f -> g
    0*f = 0,  1*f = f,  (n+1)*f = n*f + f
    f^0 = 1,  f^1 = f,  f^(n+1) = f^n * f

so parsed trees never contain a derived connective.

Grammar: variables ``[a-z][a-zA-Z0-9_]*``, constants ``1`` and ``0``,
operators ``~`` (prefix), ``^n`` (postfix, integer n), ``*``, ``+``, ``->``
(right-associative), ``&``, ``|``.  A bare integer literal directly left of
``*`` is a scalar multiple and consumes the next factor.  Precedence, high
to low: ``~``/``^``  >  ``*``  >  ``+``  >  ``->``  >  ``&``  >  ``|``;
parentheses override.  ``^`` binds tighter than ``~``, so ``~p^2`` is
``~(p^2)``.
"""

from __future__ import annotations

import re
from operator import attrgetter

from .errors import ArityError, FormulaSyntaxError, NotMultiplicativeError

MAX_REPEAT = 1 << 16


class Record:
    """Base of every immutable value class.  A subclass lists its fields as
    annotations, in order, with any defaults as class attributes.  Records
    are built by position or keyword, refuse assignment and deletion,
    compare and hash by class and ``_key()`` (all fields unless overridden),
    print as ``Name(field=value, ...)``, pickle by being rebuilt from their
    fields and check their values in :meth:`_validate`."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        own, slots = tuple(cls.__annotations__), cls.__dict__.get("__slots__", ())
        cls._fields += own  # the annotations are this class's own, in order
        defaults = {n: cls.__dict__[n] for n in own if n in cls.__dict__ and n not in slots}
        cls._defaults = {**cls._defaults, **defaults}
        cls._values = _getter(cls._fields)
        cls._key = cls.__dict__.get("_key", cls._values)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _set(self, name, value)
        self._validate()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values, in order, from arguments and defaults."""
        rest = cls._fields[len(args) :]
        try:
            args += tuple([kwargs.pop(f) if f in kwargs else cls._defaults[f] for f in rest])
        except KeyError as missing:
            raise TypeError(f"{cls.__name__} is missing field {missing}") from None
        if kwargs or len(args) > len(cls._fields):  # unknown, repeated or too many
            raise TypeError(f"{cls.__name__} takes fields {cls._fields}, not {args} and {kwargs}")
        return args

    def _validate(self) -> None:
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _getter(names):
    """A method giving the tuple of the named attributes, by ``attrgetter``."""
    get = attrgetter(*names) if names else lambda self: ()
    return (lambda self: (get(self),)) if len(names) == 1 else lambda self: get(self)


_set = object.__setattr__


class Formula(Record):
    """Base class for formula nodes: immutable, hashable, with ``size``
    (nodes, repeats counted) and ``multiplicative`` (no ``&``/``|`` inside).

    Every node kind is a plain slotted :class:`Record` that also stores its
    hash when built.  Nodes compare by structure (:class:`Binary` without
    recursion) and pickle by being rebuilt from their fields, so the hash is
    recomputed in the loading process."""

    __slots__ = ()
    size = 1
    multiplicative = True

    def __init__(self, *args, **kwargs):
        Record.__init__(self, *args, **kwargs)
        _set(self, "_hash", hash((type(self).__name__, *self._values())))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return render(self)


class Var(Formula):
    __slots__ = ("name", "_hash")
    name: str


class MVar(Formula):
    """Schema metavariable.  Appears only in axiom/rule templates, never in
    parsed object formulas; the namespaces are disjoint (metavariable names
    start with an uppercase letter, object variables with a lowercase one).
    """

    __slots__ = ("name", "_hash")
    name: str


class One(Formula):
    __slots__ = ("_hash",)


class Zero(Formula):
    __slots__ = ("_hash",)


class Binary(Formula):
    """A connective applied to ``left`` and ``right``; its hash, ``size``
    and ``multiplicative`` are computed from the children's when it is built."""

    __slots__ = ("left", "right", "size", "multiplicative", "_hash")
    left: Formula
    right: Formula
    lattice = False

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "size", 1 + left.size + right.size)
        _set(self, "multiplicative", not self.lattice and left.multiplicative and right.multiplicative)
        _set(self, "_hash", hash((type(self).__name__, left, right)))

    __hash__ = Formula.__hash__  # defining __eq__ would unset it

    def __eq__(self, other) -> bool:
        # without recursion; unequal hashes settle most unequal pairs, and
        # pairs of big subtrees are compared once, so shared ones stay cheap
        pairs, seen = [self, other], set()
        while pairs:
            y, x = pairs.pop(), pairs.pop()
            if x is y:
                continue
            if type(x) is not type(y):
                return False
            if not isinstance(x, Binary):
                if x != y:
                    return False
            elif x._hash != y._hash:
                return False
            elif x.size < 64 or (id(x), id(y)) not in seen:
                if x.size >= 64:
                    seen.add((id(x), id(y)))
                pairs += (x.left, y.left, x.right, y.right)
        return True


class Conj(Binary):
    __slots__ = ()
    lattice = True


class Disj(Binary):
    __slots__ = ()
    lattice = True


class Fuse(Binary):
    __slots__ = ()


class Imp(Binary):
    __slots__ = ()


ONE = One()
ZERO = Zero()


def neg(f: Formula) -> Formula:
    return Imp(f, ZERO)


def plus(f: Formula, g: Formula) -> Formula:
    return Imp(neg(f), g)


def scalar(n: int, f: Formula) -> Formula:
    """n-fold sum n*f, left-nested: 3*f = (f + f) + f."""
    if n < 0 or n > MAX_REPEAT:
        raise ArityError(f"scalar multiple {n} out of range 0..{MAX_REPEAT}")
    if n == 0:
        return ZERO
    acc = f
    for _ in range(n - 1):
        acc = plus(acc, f)
    return acc


def power(f: Formula, n: int) -> Formula:
    """n-fold fusion f^n, left-nested: f^3 = (f * f) * f."""
    if n < 0 or n > MAX_REPEAT:
        raise ArityError(f"power {n} out of range 0..{MAX_REPEAT}")
    if n == 0:
        return ONE
    acc = f
    for _ in range(n - 1):
        acc = Fuse(acc, f)
    return acc


def subformulas(f: Formula) -> list[Formula]:
    """Each distinct subformula of ``f`` once, children before parents and
    left before right, in time linear in the number of distinct ones."""
    seen: dict[Formula, None] = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        if isinstance(node, Binary) and (node.left not in seen or node.right not in seen):
            stack += (node, node.right, node.left)
        else:
            seen[node] = None
    return list(seen)


def variables(f: Formula) -> frozenset[str]:
    """Object variables occurring in ``f`` (metavariables excluded)."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Var))


def variables_of(fs) -> frozenset[str]:
    return frozenset().union(*map(variables, fs))


def metavariables(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, MVar))


def require_multiplicative(formulas) -> None:
    for f in formulas:
        if not f.multiplicative:
            raise NotMultiplicativeError(f"not multiplicative: {f}")


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Homomorphic image of ``f``; variables outside ``mapping`` are fixed."""
    if isinstance(f, Var):
        return mapping.get(f.name, f)
    if isinstance(f, (One, Zero, MVar)):
        return f
    return type(f)(substitute(f.left, mapping), substitute(f.right, mapping))


# --- parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    r"|(?P<var>[a-z][a-zA-Z0-9_]*)"
    r"|(?P<mvar>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[~*+&|^()])"
)


def _tokenize(text: str, allow_meta: bool) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            if kind == "mvar" and not allow_meta:
                raise FormulaSyntaxError(
                    f"uppercase name {m.group()!r} is reserved for metavariables", pos
                )
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        kind, value, pos = self.peek()
        if kind == "op" and value == text:
            self.take()
            return
        raise FormulaSyntaxError(f"expected {text!r}", pos)

    def at_op(self, text: str) -> bool:
        kind, value, _ = self.peek()
        return (kind == "op" and value == text) or (kind == "arrow" and text == "->")

    # precedence levels, low to high: | & -> + * unary

    def parse_formula(self) -> Formula:
        f = self.parse_disj()
        kind, value, pos = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {value!r}", pos)
        return f

    def parse_disj(self) -> Formula:
        f = self.parse_conj()
        while self.at_op("|"):
            self.take()
            f = Disj(f, self.parse_conj())
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_imp()
        while self.at_op("&"):
            self.take()
            f = Conj(f, self.parse_imp())
        return f

    def parse_imp(self) -> Formula:
        f = self.parse_plus()
        if self.peek()[0] == "arrow":
            self.take()
            return Imp(f, self.parse_imp())
        return f

    def parse_plus(self) -> Formula:
        f = self.parse_fuse()
        while self.at_op("+"):
            self.take()
            f = plus(f, self.parse_fuse())
        return f

    def parse_fuse(self) -> Formula:
        f = self.parse_factor()
        while self.at_op("*"):
            self.take()
            f = Fuse(f, self.parse_factor())
        return f

    def parse_factor(self) -> Formula:
        # A bare integer directly left of '*' is a scalar multiple of the
        # next factor; elsewhere integers are the constants 0 and 1.
        kind, value, pos = self.peek()
        if kind == "int" and self.peek(1)[:2] == ("op", "*"):
            self.take()
            self.take()
            return scalar(int(value), self.parse_factor())
        return self.parse_unary()

    def parse_unary(self) -> Formula:
        if self.at_op("~"):
            self.take()
            return neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Formula:
        f = self.parse_atom()
        while self.at_op("^"):
            self.take()
            kind, value, pos = self.peek()
            if kind != "int":
                raise FormulaSyntaxError("expected integer exponent after '^'", pos)
            self.take()
            f = power(f, int(value))
        return f

    def parse_atom(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "var":
            return Var(value)
        if kind == "mvar":
            return MVar(value)
        if kind == "int":
            if value == "1":
                return ONE
            if value == "0":
                return ZERO
            raise FormulaSyntaxError(f"bare integer {value!r} is not a formula", pos)
        if kind == "op" and value == "(":
            f = self.parse_disj()
            self.expect_op(")")
            return f
        raise FormulaSyntaxError(f"unexpected {value or 'end of input'!r}", pos)


def parse(text: str) -> Formula:
    """Parse formula text; derived connectives elaborate away."""
    return _Parser(_tokenize(text, allow_meta=False)).parse_formula()


def parse_template(text: str) -> Formula:
    """Like :func:`parse` but uppercase names become metavariables."""
    return _Parser(_tokenize(text, allow_meta=True)).parse_formula()


# --- printing --------------------------------------------------------------

_PREC_DISJ, _PREC_CONJ, _PREC_IMP, _PREC_PLUS, _PREC_FUSE, _PREC_UNARY = range(6)


def render(f: Formula) -> str:
    """Minimal-parenthesis text; ``parse(render(f))`` equals ``f``.

    Negation and sum sugar is restored (``f -> 0`` prints as ``~f``,
    ``~f -> g`` as ``f + g``); scalar multiples and powers are not.
    Constants appearing as fusion operands are parenthesized so that the
    output never contains a digit directly left of ``*``, which would
    re-parse as a scalar multiple.
    """
    return _render(f, 0, False)


def _render(f: Formula, min_prec: int, fuse_operand: bool) -> str:
    if isinstance(f, (Var, MVar)):
        return f.name
    if isinstance(f, One):
        return "(1)" if fuse_operand else "1"
    if isinstance(f, Zero):
        return "(0)" if fuse_operand else "0"
    if isinstance(f, Imp):
        if isinstance(f.right, Zero):
            text = "~" + _render(f.left, _PREC_UNARY, False)
            prec = _PREC_UNARY
        elif isinstance(f.left, Imp) and isinstance(f.left.right, Zero):
            text = (
                _render(f.left.left, _PREC_PLUS, False)
                + " + "
                + _render(f.right, _PREC_PLUS + 1, False)
            )
            prec = _PREC_PLUS
        else:
            text = (
                _render(f.left, _PREC_IMP + 1, False)
                + " -> "
                + _render(f.right, _PREC_IMP, False)
            )
            prec = _PREC_IMP
    elif isinstance(f, Fuse):
        text = (
            _render(f.left, _PREC_FUSE, True)
            + " * "
            + _render(f.right, _PREC_FUSE + 1, True)
        )
        prec = _PREC_FUSE
    elif isinstance(f, Conj):
        text = (
            _render(f.left, _PREC_CONJ, False)
            + " & "
            + _render(f.right, _PREC_CONJ + 1, False)
        )
        prec = _PREC_CONJ
    elif isinstance(f, Disj):
        text = (
            _render(f.left, _PREC_DISJ, False)
            + " | "
            + _render(f.right, _PREC_DISJ + 1, False)
        )
        prec = _PREC_DISJ
    else:  # pragma: no cover
        raise TypeError(f"not a formula: {f!r}")
    if prec < min_prec:
        return "(" + text + ")"
    return text
