"""Immutable records, and formula syntax: trees, parsing, printing, substitution.

The tree has exactly six node kinds: variables, the constants 1 and 0, the
lattice connectives ``&`` and ``|``, fusion ``*`` and implication ``->``.
A connective node stores its hash, size and multiplicative flag when it is
built, and a node its linear reading once
:func:`linalg.linear_coefficients` has read it, so no formula-keyed cache
exists.  No walker recurses, so formulas of any depth are handled:
equality, :func:`subformulas` (each distinct subformula once, children
first) and :func:`fold` (a value per node, children first) keep explicit
stacks, substitution and schema instantiation run a :func:`postorder`
(:func:`replace_leaves`), and the parser and :func:`render` are loops.
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
    hash when built.  Nodes compare by structure and print as records, and
    they pickle and copy by being rebuilt (a :class:`Binary` from its
    postorder), so the hash is recomputed in the loading process; none of
    these recurse, so they take formulas of any depth.  The ``_linear`` slot,
    which only :func:`linalg.linear_coefficients` sets, is no field: it
    takes no part in any of these, and a rebuilt node has none."""

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

    def __repr__(self) -> str:
        # the record text, emitted as :func:`render` emits: from a stack of
        # strings and nodes still to write, last first
        out: list[str] = []
        stack: list = [self]
        while stack:
            piece = stack.pop()
            if type(piece) is str:
                out.append(piece)
            elif isinstance(piece, Binary):
                name = type(piece).__qualname__
                stack += (")", piece.right, ", right=", piece.left, f"{name}(left=")
            else:
                out.append(Record.__repr__(piece))
        return "".join(out)


class Var(Formula):
    __slots__ = ("name", "_hash", "_linear")
    name: str


class MVar(Formula):
    """Schema metavariable.  Appears only in axiom/rule templates, never in
    parsed object formulas; the namespaces are disjoint (metavariable names
    start with an uppercase letter, object variables with a lowercase one).
    """

    __slots__ = ("name", "_hash")
    name: str


class One(Formula):
    __slots__ = ("_hash", "_linear")


class Zero(Formula):
    __slots__ = ("_hash", "_linear")


class Binary(Formula):
    """A connective applied to ``left`` and ``right``; its hash, ``size``
    and ``multiplicative`` are computed from the children's when it is built."""

    __slots__ = ("left", "right", "size", "multiplicative", "_hash", "_linear")
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

    def __reduce__(self):
        # each distinct subformula once, children first, a connective by the
        # positions of its children: flat, so pickle and deepcopy do not recurse
        position: dict[Formula, int] = {}
        entries: list = []
        for node in subformulas(self):
            position[node] = len(entries)
            if isinstance(node, Binary):
                node = (type(node), position[node.left], position[node.right])
            entries.append(node)
        return replace_leaves, (tuple(entries), {})

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


def scalar_count(f: Formula, g: Formula) -> int | None:
    """Largest n with f == n*g (left-nested sums), or None."""
    n = 0
    current = f
    while True:
        if current == g:
            return n + 1
        if (
            isinstance(current, Imp)
            and isinstance(current.left, Imp)
            and isinstance(current.left.right, Zero)
            and current.right == g
        ):
            current = current.left.left
            n += 1
            continue
        return None


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


def fold(f: Formula, leaf, connective):
    """The value of ``f``, computed bottom-up: ``leaf(node)`` at a leaf, and
    at a connective node ``connective[type(node)]`` applied to its
    children's values, once per node object (a subtree shared by reference,
    as in ``n*f`` and ``f^n``, is computed once).  The stack holds the path
    from ``f`` to the node whose children are being computed."""
    if not isinstance(f, Binary):
        return leaf(f)
    values = {}  # by id: cheaper than hashing formulas
    path = [f]
    while path:
        node = path[-1]
        left, right = node.left, node.right
        if id(left) not in values:
            if isinstance(left, Binary):
                path.append(left)
                continue
            values[id(left)] = leaf(left)
        if id(right) not in values:
            if isinstance(right, Binary):
                path.append(right)
                continue
            values[id(right)] = leaf(right)
        path.pop()
        values[id(node)] = connective[type(node)](values[id(left)], values[id(right)])
    return values[id(f)]


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


def postorder(f: Formula, hole) -> tuple:
    """Each distinct subformula of ``f``, children before parents, as an
    entry for :func:`replace_leaves`: the name of a leaf for which
    ``hole(leaf)`` holds, a subtree without such a leaf as it is, or else a
    connective class with the positions of its children's entries."""
    position: dict[Formula, int] = {}
    entries: list = []
    for node in subformulas(f):
        position[node] = len(entries)
        if not isinstance(node, Binary):
            entries.append(node.name if hole(node) else node)
            continue
        i, j = position[node.left], position[node.right]
        ground = isinstance(entries[i], Formula) and isinstance(entries[j], Formula)
        entries.append(node if ground else (type(node), i, j))
    return tuple(entries)


def replace_leaves(entries, args: dict[str, Formula]) -> Formula:
    """The formula a :func:`postorder` describes, each named leaf replaced
    by its argument; raises KeyError naming a leaf without one."""
    values: list[Formula] = []
    for entry in entries:
        if type(entry) is tuple:
            build, i, j = entry
            values.append(build(values[i], values[j]))
        else:
            values.append(args[entry] if type(entry) is str else entry)
    return values[-1]


def substitute(f: Formula, mapping: dict[str, Formula]) -> Formula:
    """Homomorphic image of ``f``; variables outside ``mapping`` are fixed."""
    entries = postorder(f, lambda leaf: isinstance(leaf, Var) and leaf.name in mapping)
    return replace_leaves(entries, mapping)


# --- parsing ---------------------------------------------------------------

VARIABLE = re.compile(r"[a-z][a-zA-Z0-9_]*")  # the grammar's variable names

_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<arrow>->)"
    rf"|(?P<var>{VARIABLE.pattern})"
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


# binary operator -> (precedence, builder); "->" alone is right-associative
_BINARY = {"|": (0, Disj), "&": (1, Conj), "->": (2, Imp), "+": (3, plus), "*": (4, Fuse)}


def _parse(tokens: list[tuple[str, str, int]]) -> Formula:
    """One precedence loop over the tokens.  ``out`` holds operands and
    ``pending`` what waits for them: binary operators, ``(`` and the
    prefixes ``~`` and ``n*``, which apply once their operand and its
    ``^n`` suffixes are complete."""
    out: list[Formula] = []
    pending: list = []
    i = 0
    while True:
        # operand position: scalar prefixes, negations, then an atom or "("
        kind, value, pos = tokens[i]
        while kind == "int" and tokens[i + 1][:2] == ("op", "*"):
            pending.append(int(value))
            i += 2
            kind, value, pos = tokens[i]
        while (kind, value) == ("op", "~"):
            pending.append(neg)
            i += 1
            kind, value, pos = tokens[i]
        i += 1
        if (kind, value) == ("op", "("):
            pending.append("(")
            continue
        if kind in ("var", "mvar"):
            out.append((Var if kind == "var" else MVar)(value))
        elif kind == "int" and value in ("0", "1"):
            out.append(ONE if value == "1" else ZERO)
        elif kind == "int":
            raise FormulaSyntaxError(f"bare integer {value!r} is not a formula", pos)
        else:
            raise FormulaSyntaxError(f"unexpected {value or 'end of input'!r}", pos)
        # operator position: suffixes, prefixes, closed groups, then one operator
        while True:
            kind, value, pos = tokens[i]
            while (kind, value) == ("op", "^"):
                kind, value, pos = tokens[i + 1]
                if kind != "int":
                    raise FormulaSyntaxError("expected integer exponent after '^'", pos)
                out[-1] = power(out[-1], int(value))
                i += 2
                kind, value, pos = tokens[i]
            while pending and (pending[-1] is neg or type(pending[-1]) is int):
                prefix = pending.pop()
                out[-1] = neg(out[-1]) if prefix is neg else scalar(prefix, out[-1])
            op = "->" if kind == "arrow" else value if kind == "op" else None
            prec, build = _BINARY.get(op, (-1, None))
            while pending and type(pending[-1]) is tuple and (
                pending[-1][0] > prec or (pending[-1][0] == prec and op != "->")
            ):
                right = out.pop()
                out[-1] = pending.pop()[1](out[-1], right)
            if build is not None:
                pending.append((prec, build))
                i += 1
                break
            if pending and op == ")":  # the group is an operand: take its suffixes
                pending.pop()
                i += 1
                continue
            if pending:
                raise FormulaSyntaxError("expected ')'", pos)
            if kind != "end":
                raise FormulaSyntaxError(f"unexpected {value!r}", pos)
            return out[0]


def parse(text: str) -> Formula:
    """Parse formula text; derived connectives elaborate away."""
    return _parse(_tokenize(text, allow_meta=False))


def parse_template(text: str) -> Formula:
    """Like :func:`parse` but uppercase names become metavariables."""
    return _parse(_tokenize(text, allow_meta=True))


# --- printing --------------------------------------------------------------

_PREC_DISJ, _PREC_CONJ, _PREC_IMP, _PREC_PLUS, _PREC_FUSE, _PREC_UNARY = range(6)
# connective -> (operator text, precedence, left and right operand precedence)
_INFIX = {
    Disj: (" | ", _PREC_DISJ, _PREC_DISJ, _PREC_DISJ + 1),
    Conj: (" & ", _PREC_CONJ, _PREC_CONJ, _PREC_CONJ + 1),
    Imp: (" -> ", _PREC_IMP, _PREC_IMP + 1, _PREC_IMP),
    Fuse: (" * ", _PREC_FUSE, _PREC_FUSE, _PREC_FUSE + 1),
}


def render(f: Formula) -> str:
    """Minimal-parenthesis text; ``parse(render(f))`` equals ``f``.

    Negation and sum sugar is restored (``f -> 0`` prints as ``~f``,
    ``~f -> g`` as ``f + g``); scalar multiples and powers are not.
    Constants appearing as fusion operands are parenthesized so that the
    output never contains a digit directly left of ``*``, which would
    re-parse as a scalar multiple.

    The text is emitted from a stack of pieces still to write: strings and
    ``(subformula, least precedence without parentheses, fusion operand)``.
    """
    out: list[str] = []
    stack: list = [(f, 0, False)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        f, min_prec, fuse_operand = piece
        kind = type(f)
        if kind is Var or kind is MVar:
            out.append(f.name)
            continue
        if kind is One or kind is Zero:
            text = "1" if kind is One else "0"
            out.append(f"({text})" if fuse_operand else text)
            continue
        # the pieces of f's text, last first
        if kind is Imp and type(f.right) is Zero:
            prec, pieces = _PREC_UNARY, ((f.left, _PREC_UNARY, False), "~")
        elif kind is Imp and type(f.left) is Imp and type(f.left.right) is Zero:
            prec = _PREC_PLUS
            pieces = ((f.right, _PREC_PLUS + 1, False), " + ", (f.left.left, _PREC_PLUS, False))
        else:
            text, prec, left, right = _INFIX[kind]
            fuse = kind is Fuse
            pieces = ((f.right, right, fuse), text, (f.left, left, fuse))
        if prec < min_prec:
            stack += (")", *pieces, "(")
        else:
            stack += pieces
    return "".join(out)
