"""Proof search in multiplicative linear logic with both mix rules and one
unit, turned into Hilbert lines.

A logic whose multiplicative axioms include ``0 -> 1`` and ``1 -> 0``
besides the core (``logics._MLL_CORE``) proves every theorem of MLL with
the mix rules in which ``1`` and ``0`` are the same unit (Fleury and
Retoré, "The mix rule", MSCS 4(2), 1994).  :func:`mix_derivation` searches
for such a proof of a hypothesis-free target and returns it as the
justifications of a derivation by axiom instances and modus ponens, in the
saturation's format, which ``oracles._reconstruct`` turns into lines for
the derivation checker.

The search works on one-sided sequents: lists of signed formulas, ``(f,
True)`` for ``f`` asserted and ``(f, False)`` for ``f`` assumed.  A unit
goes first, since it can always be dropped, then a tensor (below) one of
whose parts is a unit, the rest of the sequent going with the other part.
A sequent whose atoms do not balance (each variable as often asserted as
assumed, read off the members' linear readings, which stay on their nodes
once read) has no proof.  Otherwise a formula both asserted and assumed is
first tried as one identity link, the rest proved beside it by mix; then
the first par (an asserted implication or an assumed fusion) is split into
its parts, which loses nothing; with no par left, each tensor (an asserted
fusion or an assumed implication) is tried with each split of the rest of
the sequent whose two sides balance.  Found and failed sequents are
memoized.  :data:`WORK_CAP` steps (sequents opened and splits tried) end
the search.

A proof of a sequent is read as a linear lambda term of type ``0`` with one
variable per member: ``f`` for ``(f, False)`` and ``~f`` for ``(f, True)``;
its constants are instances of ``fusion_intro``, ``uncurry``,
``double_negation``, ``unit_intro``, ``unit``, ``0 -> 1`` and ``1 -> 0``.
Each proof node is compiled once, after its premises, and each term as it
is built: into a derived theorem ``t_1 -> ... -> t_k -> t`` over the types
of its free variables, a variable being known by its type alone.  An
application joins two such theorems, and an abstraction moves a variable
to the back; each costs a few ``identity``, ``suffixing`` and ``exchange``
instances and modus ponens lines per variable it passes, so a derivation
grows with the proof times its widest sequent.  No function here calls
itself: the search and the compiler keep explicit stacks.
"""

from __future__ import annotations

from collections import Counter

from .linalg import linear_coefficients
from .syntax import ONE, ZERO, Formula, Fuse, Imp, One, Var, Zero, neg

# Sequents opened and splits tried before the search gives up.
WORK_CAP = 5000

_UNITS = (One, Zero)


def mix_derivation(phi: Formula, up: str, down: str) -> dict[Formula, tuple] | None:
    """The justifications ``("axiom", name)`` or ``("mp", premise,
    implication)`` of a derivation of the multiplicative ``phi`` from a
    proof in MLL with mix and one unit, each entered after its premises';
    ``up`` and ``down`` name the logic's axioms ``0 -> 1`` and ``1 -> 0``.
    None when the search takes more than :data:`WORK_CAP` steps."""
    root = (phi, True)
    proof = _search([root], [WORK_CAP])
    if not proof:
        return None
    c = _Compiler(up, down)
    done: dict = {}  # id of a proof node -> its compiled term
    stack = [proof]
    while stack:
        node = stack[-1]
        waiting = [p for p in node[1] if id(p) not in done]
        if waiting:
            stack += waiting
            continue
        stack.pop()
        if id(node) not in done:
            done[id(node)] = _combine(node, [done[id(p)] for p in node[1]], c)
    c.value(_var_type(root), done[id(proof)])
    return c.justified


# --- the sequent search --------------------------------------------------------


def _parts(f: Formula, sign: bool) -> tuple[tuple, tuple]:
    """The two signed parts of a fusion or implication: the left part is
    assumed exactly when ``f`` is an asserted implication or an assumed
    fusion; the right part keeps ``f``'s sign."""
    return (f.left, sign == (type(f) is Fuse)), (f.right, sign)


def _is_par(f: Formula, sign: bool) -> bool:
    return (type(f) is Imp) == sign


def _balanced(members) -> bool:
    """Whether each variable occurs in ``members`` as often asserted as
    assumed: their linear readings, the assumed ones negated, sum to 0."""
    total: dict = {}
    for f, sign in members:
        for name, n in linear_coefficients(f).items():
            total[name] = total.get(name, 0) + (n if sign else -n)
    return not any(total.values())


def _without(seq: list, *members) -> list:
    rest = list(seq)
    for m in members:
        rest.remove(m)
    return rest


def _alternatives(seq: list, work: list):
    """The rules that could end a proof of ``seq``, each as ``(rule,
    premises)``, in the order the search tries them; ``work[0]`` counts
    down the splits tried."""
    for i, (f, sign) in enumerate(seq):
        if type(f) in _UNITS:
            yield ("unit", (f, sign)), [seq[:i] + seq[i + 1 :]]
            return
    for i, (f, sign) in enumerate(seq):  # no unit is left in seq
        if type(f) is Var or _is_par(f, sign):
            continue
        first, second = _parts(f, sign)
        rest = seq[:i] + seq[i + 1 :]
        if type(second[0]) in _UNITS:
            yield ("tensor", (f, sign), tuple(rest)), [rest + [first], [second]]
            return
        if type(first[0]) in _UNITS:
            yield ("tensor", (f, sign), ()), [[first], rest + [second]]
            return
    if not seq:
        yield ("mix0",), []
        return
    if not _balanced(seq):
        return
    members = set(seq)
    linked = set()
    for f, sign in seq:
        if sign and (f, False) in members and f not in linked:
            linked.add(f)
            yield ("link", f), [_without(seq, (f, True), (f, False))]
    par = next((m for m in seq if type(m[0]) is not Var and _is_par(*m)), None)
    if par is not None:
        yield ("par", par), [_without(seq, par) + list(_parts(*par))]
        return
    tried = set()
    for i, member in enumerate(seq):
        if type(member[0]) is Var or member in tried:
            continue
        tried.add(member)
        first, second = _parts(*member)
        rest = seq[:i] + seq[i + 1 :]
        for mask in range(1 << len(rest)):
            work[0] -= 1
            if work[0] < 0:
                return
            left = [m for j, m in enumerate(rest) if mask >> j & 1]
            if _balanced(left + [first]):
                right = [m for j, m in enumerate(rest) if not mask >> j & 1]
                yield ("tensor", member, tuple(left)), [left + [first], right + [second]]


def _key(seq: list) -> frozenset:
    return frozenset(Counter(seq).items())


def _search(root: list, work: list):
    """A proof of the sequent ``root``: ``(rule, premise proofs)``, or a
    false value.  A frame holds a sequent, its key, its alternatives, the
    alternative being tried, that alternative's premises and the proofs
    found for them so far."""
    memo: dict = {}
    stack = [[root, _key(root), _alternatives(root, work), None, (), []]]
    returned = None  # what the last closed frame found
    while stack:
        frame = stack[-1]
        if returned is not None:
            if returned:
                frame[5].append(returned)
            else:
                frame[3] = None  # a premise failed: give up this alternative
            returned = None
        if frame[3] is None:
            alternative = next(frame[2], None)
            if work[0] < 0:
                return None
            if alternative is None:
                memo[frame[1]] = returned = False
                stack.pop()
                continue
            frame[3], frame[4], frame[5] = alternative[0], alternative[1], []
        if len(frame[5]) == len(frame[4]):
            memo[frame[1]] = returned = (frame[3], tuple(frame[5]))
            stack.pop()
            continue
        premise = frame[4][len(frame[5])]
        key = _key(premise)
        if key in memo:
            returned = memo[key]
            continue
        work[0] -= 1
        if work[0] < 0:
            return None
        stack.append([premise, key, _alternatives(premise, work), None, (), []])
    return returned


# --- compiled terms ----------------------------------------------------------
#
# A term is compiled as it is built, into a tuple (types, theorem, head):
# the derived theorem t_1 -> ... -> t_k -> t stands for a term of type t
# whose free variables have the types t_1, ..., t_k, and two free variables
# of one type are interchangeable.  head is "v" for a variable, (its type,
# the argument) for a variable applied to an argument, and None otherwise.


class _Compiler:
    """The lines of one derivation, each axiom instance and each modus
    ponens conclusion entered in ``justified`` as it is derived."""

    def __init__(self, up: str, down: str):
        self.justified: dict = {}
        self.down = down
        self.to_one = self.const(up, Imp(ZERO, ONE))
        self.unit_intro = self.const("unit_intro", Imp(ZERO, Imp(ONE, ZERO)))

    def axiom(self, name: str, f: Formula) -> Formula:
        self.justified.setdefault(f, ("axiom", name))
        return f

    def mp(self, premise: Formula, implication: Imp) -> Formula:
        self.justified.setdefault(implication.right, ("mp", premise, implication))
        return implication.right

    def compose(self, f: Imp, g: Imp) -> Formula:
        """``a -> c`` from ``f : a -> b`` and ``g : b -> c``."""
        s = self.axiom("suffixing", Imp(f, Imp(g, Imp(f.left, g.right))))
        return self.mp(g, self.mp(f, s))

    def prefixing(self, v: Formula, a: Formula, b: Formula) -> Formula:
        """``(a -> b) -> ((v -> a) -> (v -> b))``."""
        va, vb = Imp(v, a), Imp(v, b)
        s = self.axiom("suffixing", Imp(va, Imp(Imp(a, b), vb)))
        return self.mp(s, self.axiom("exchange", Imp(s, Imp(s.right.left, Imp(va, vb)))))

    def lift(self, v: Formula, k: Imp) -> Formula:
        """``(v -> a) -> (v -> b)`` from ``k : a -> b``."""
        return self.mp(k, self.prefixing(v, k.left, k.right))

    def under(self, types: tuple, theorem: Formula, k: Imp) -> Formula:
        """``types -> b`` from ``theorem : types -> a`` and ``k : a -> b``."""
        for v in reversed(types[1:]):
            k = self.lift(v, k)
        return self.compose(theorem, k) if types else self.mp(theorem, k)

    def inserted(self, types: tuple, theorem: Formula, ab: Imp) -> Formula:
        """``types[:-1] -> ((a -> b) -> (types[-1] -> b))`` from ``theorem :
        types -> a``, for at least one type."""
        last = types[-1]
        s = self.axiom("suffixing", Imp(Imp(last, ab.left), Imp(ab, Imp(last, ab.right))))
        return self.under(types[:-1], theorem, s)

    def feeding(self, types: tuple, theorem: Formula, ab: Imp) -> Formula:
        """``(a -> b) -> (types -> b)`` from ``theorem : types -> a``."""
        if not types:  # a -> ((a -> b) -> b), from the identity on a -> b
            i = self.axiom("identity", Imp(ab, ab))
            e = self.axiom("exchange", Imp(i, Imp(ab.left, Imp(ab, ab.right))))
            return self.mp(theorem, self.mp(i, e))
        if len(types) <= 2:  # inserted, then a -> b exchanged to the front
            t = self.inserted(types, theorem, ab)
            if len(types) == 1:
                return t
            e = self.axiom("exchange", Imp(t, Imp(ab, Imp(types[0], t.right.right))))
            return self.mp(t, e)
        # (a -> b) -> ((types -> a) -> (types -> b)), one prefixing per type
        q = self.prefixing(types[-1], ab.left, ab.right)
        for v in reversed(types[:-1]):
            q = self.compose(q, self.prefixing(v, q.right.left, q.right.right))
        swap = self.axiom("exchange", Imp(q, Imp(q.right.left, Imp(ab, q.right.right))))
        return self.mp(theorem, self.mp(q, swap))

    def const(self, name: str, f: Formula) -> tuple:
        return (), self.axiom(name, f), None

    def var(self, t: Formula) -> tuple:
        return (t,), self.axiom("identity", Imp(t, t)), "v"

    def app(self, f: tuple, x: tuple) -> tuple:
        """``f x`` over ``f``'s variables, then ``x``'s, except that a
        variable applied to a term over three or more goes before its last."""
        (fs, ft, fh), (xs, xt, xh) = f, x
        if xh == "v":  # ft reads the argument as its last variable already
            out = fs + xs, ft
        elif not fs:
            out = xs, self.under(xs, xt, ft)
        else:
            ab = ft
            for _ in fs:
                ab = ab.right
            if fh == "v" and len(xs) > 2:  # the variable goes before xs[-1]
                out = xs[:-1] + fs + xs[-1:], self.inserted(xs, xt, ab)
            else:
                k = self.feeding(xs, xt, ab)
                out = fs + xs, k if fh == "v" else self.under(fs, ft, k)
        return (*out, (fs[0], x) if fh == "v" else None)

    def abstract(self, t: Formula, m: tuple) -> tuple:
        """The term of type ``t -> type(m)`` whose theorem moves the last
        variable of type ``t`` in ``m`` to the back, past one exchange per
        variable behind it."""
        types, theorem = m[0], m[1]
        i = len(types) - 1 - types[::-1].index(t)
        suffixes = [theorem]  # suffixes[j] : types[j:] -> type(m)
        for _ in types:
            suffixes.append(suffixes[-1].right)
        b = None  # (t -> suffixes[j]) -> (types[j:] -> t -> type(m))
        for j in range(len(types) - 1, i, -1):
            e = Imp(Imp(t, suffixes[j]), Imp(types[j], Imp(t, suffixes[j + 1])))
            e = self.axiom("exchange", e)
            b = e if b is None else self.compose(e, self.lift(types[j], b))
        rest = types[:i] + types[i + 1 :]
        return rest, theorem if b is None else self.under(types[:i], theorem, b), None

    def value(self, t: Formula, m: tuple) -> tuple:
        """A term of ``a`` from ``m : 0`` over a variable of type ``t = ~a``:
        double negation, unless ``m`` applies such a variable to a term of
        ``a`` already."""
        if type(m[2]) is tuple and m[2][0] == t:
            return m[2][1]
        return self.app(self.const("double_negation", Imp(neg(t), t.left)), self.abstract(t, m))

    def mix(self, t1: tuple, t2: tuple) -> tuple:
        # two proofs of 0 make one: unit_intro t2 : 1 -> 0, applied to 1
        return self.app(self.app(self.unit_intro, t2), self.app(self.to_one, t1))


def _var_type(member: tuple) -> Formula:
    f, sign = member
    return neg(f) if sign else f


def _combine(proof: tuple, values: list, c: _Compiler) -> tuple:
    """The compiled term of type ``0`` for ``proof``, over one variable per
    member of its sequent (``f`` for ``(f, False)``, ``~f`` for ``(f,
    True)``), from the terms of its premises in ``values``."""
    (rule, premises), kind = proof, proof[0][0]
    if kind == "mix0":
        return c.app(c.const(c.down, Imp(ONE, ZERO)), c.const("unit", ONE))
    if kind == "link":
        pair = c.app(c.var(neg(rule[1])), c.var(rule[1]))
        return pair if premises[0][0] == ("mix0",) else c.mix(pair, values[0])
    (f, sign), x = rule[1], c.var(_var_type(rule[1]))
    if kind == "unit":
        t = values[0]
        if type(f) is One:
            return c.app(x, c.app(c.to_one, t)) if sign else c.app(c.app(c.unit_intro, t), x)
        return c.app(x, t) if sign else c.mix(t, x)
    first, second = _parts(f, sign)
    y, z = _var_type(first), _var_type(second)
    if kind == "par":
        t = values[0]
        if sign:  # x : ~(a -> b), y : a, z : ~b
            return c.app(x, c.abstract(y, c.value(z, t)))
        uncurry = c.const("uncurry", Imp(Imp(f.left, Imp(f.right, ZERO)), Imp(f, ZERO)))
        return c.app(c.app(uncurry, c.abstract(y, c.abstract(z, t))), x)
    first_term, second_term = values
    if sign:  # x : ~(a * b), y : ~a, z : ~b
        fusion = c.const("fusion_intro", Imp(f.left, Imp(f.right, f)))
        return c.app(x, c.app(c.app(fusion, c.value(y, first_term)), c.value(z, second_term)))
    # x : a -> b, y : ~a, z : b: the second premise consumes x's value of b
    return c.app(c.abstract(z, second_term), c.app(x, c.value(y, first_term)))
