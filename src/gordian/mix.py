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
memoized.  :data:`WORK_CAP` steps (sequents opened, splits tried and
combinators built by the abstraction below) end the work.

A proof of a sequent is read as a linear lambda term of type ``0`` with one
variable per member: ``f`` for ``(f, False)`` and ``~f`` for ``(f, True)``;
its constants are instances of ``fusion_intro``, ``uncurry``,
``double_negation``, ``unit_intro``, ``unit``, ``0 -> 1`` and ``1 -> 0``.
Each lambda is replaced, as it is built, by the bracket abstraction of its
body with ``identity``, ``suffixing`` and ``exchange``, so the term is
constants, each an axiom line, and applications, each a modus ponens line.
No function here calls itself: the search, the term builder and the
abstraction keep explicit stacks.
"""

from __future__ import annotations

from collections import Counter
from itertools import count

from .linalg import linear_coefficients
from .syntax import ONE, ZERO, Formula, Fuse, Imp, One, Var, Zero, neg

# Sequents opened, splits tried and combinator applications built before
# the search gives up.
WORK_CAP = 5000

_UNITS = (One, Zero)
_NO_VARIABLES = frozenset()


class _OutOfWork(Exception):
    """The abstraction passed :data:`WORK_CAP`."""


def mix_derivation(phi: Formula, up: str, down: str) -> dict[Formula, tuple] | None:
    """The justifications ``("axiom", name)`` or ``("mp", premise,
    implication)`` of a derivation of the multiplicative ``phi`` from a
    proof in MLL with mix and one unit, each entered after its premises';
    ``up`` and ``down`` name the logic's axioms ``0 -> 1`` and ``1 -> 0``.
    None when the search and the abstraction take more than
    :data:`WORK_CAP` steps."""
    root = (phi, True)
    work = [WORK_CAP]
    proof = _search([root], work)
    try:
        return _justifications(_term(proof, root, up, down, work)) if proof else None
    except _OutOfWork:
        return None


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


# --- lambda terms ----------------------------------------------------------------
#
# A term is a tuple (kind, a, b, type, free variables): ("v", id, None, ...)
# for a variable, ("c", axiom name, None, ...) for an axiom instance of its
# type and ("a", function, argument, ...) for an application.  A lambda is
# never built: its bracket abstraction (_abstract) stands in for it.


def _var(ids, t: Formula) -> tuple:
    n = next(ids)
    return ("v", n, None, t, frozenset((n,)))


def _const(name: str, t: Formula) -> tuple:
    return ("c", name, None, t, _NO_VARIABLES)


def _app(f: tuple, x: tuple) -> tuple:
    return ("a", f, x, f[3].right, f[4] | x[4])


def _var_type(member: tuple) -> Formula:
    f, sign = member
    return neg(f) if sign else f


def _term(proof: tuple, root: tuple, up: str, down: str, work: list) -> tuple:
    """The closed abstraction-free term of type ``phi`` for the proof of
    ``[root]``, ``root = (phi, True)``, built from an explicit stack of
    visits and combination steps over a stack of finished terms."""
    ids = count()
    unit_intro = _const("unit_intro", Imp(ZERO, Imp(ONE, ZERO)))
    to_one = _const(up, Imp(ZERO, ONE))

    def dn(a: Formula) -> tuple:
        return _const("double_negation", Imp(neg(neg(a)), a))

    def mix(t1: tuple, t2: tuple) -> tuple:
        # two proofs of 0 make one: unit_intro t2 : 1 -> 0, applied to 1
        return _app(_app(unit_intro, t2), _app(to_one, t1))

    x = _var(ids, _var_type(root))
    values: list = []
    todo: list = [("combine", "root", x), ("visit", proof, {root: [x]})]
    while todo:
        step = todo.pop()
        if step[0] == "visit":
            (rule, premises), env = step[1], step[2]
            kind = rule[0]
            if kind == "mix0":
                values.append(_app(_const(down, Imp(ONE, ZERO)), _const("unit", ONE)))
            elif kind == "link":
                f = rule[1]
                pair = _app(env[(f, True)].pop(), env[(f, False)].pop())
                if premises[0][0] == ("mix0",):
                    values.append(pair)
                else:
                    todo += [("combine", "mix", pair), ("visit", premises[0], env)]
            elif kind == "unit":
                todo += [("combine", rule, env[rule[1]].pop()), ("visit", premises[0], env)]
            else:  # a par or a tensor: variables y and z for its parts
                member = rule[1]
                x = env[member].pop()
                first, second = _parts(*member)
                y, z = _var(ids, _var_type(first)), _var(ids, _var_type(second))
                # a tensor's first premise takes its left members and y
                first_env = env if kind == "par" else {}
                for m in rule[2] if kind == "tensor" else ():
                    first_env.setdefault(m, []).append(env[m].pop())
                first_env.setdefault(first, []).append(y)
                env.setdefault(second, []).append(z)
                todo.append(("combine", rule, x, y, z))
                todo += [("visit", p, e) for p, e in zip(premises[::-1], (env, first_env))]
        else:
            values.append(_combine(step, values, work, dn, mix, unit_intro, to_one))
    return values[-1]


def _combine(step, values, work, dn, mix, unit_intro, to_one) -> tuple:
    """The term a combination step makes from the finished terms of its
    premises, taken off ``values``; each lambda in it is abstracted at
    once, against ``work``."""

    def value(x: tuple, t: tuple) -> tuple:
        # a term of a, from t : 0 over x : ~a: double negation, unless t
        # applies x to such a term already
        if t[0] == "a" and t[1] is x and x[1] not in t[2][4]:
            return t[2]
        return _app(dn(x[3].left), _abstract(x, t, work))

    rule = step[1]
    if rule == "root":
        return value(step[2], values.pop())
    if rule == "mix":
        return mix(step[2], values.pop())
    kind, (f, sign) = rule[0], rule[1]
    x = step[2]
    if kind == "unit":
        t = values.pop()
        if type(f) is One:
            return _app(x, _app(to_one, t)) if sign else _app(_app(unit_intro, t), x)
        return _app(x, t) if sign else mix(t, x)
    y, z = step[3], step[4]
    if kind == "par":
        t = values.pop()
        if sign:  # x : ~(a -> b), y : a, z : ~b
            return _app(x, _abstract(y, value(z, t), work))
        uncurry = _const("uncurry", Imp(Imp(f.left, Imp(f.right, ZERO)), Imp(f, ZERO)))
        return _app(_app(uncurry, _abstract(y, _abstract(z, t, work), work)), x)
    second, first = values.pop(), values.pop()
    if sign:  # x : ~(a * b), y : ~a, z : ~b
        fusion = _const("fusion_intro", Imp(f.left, Imp(f.right, f)))
        return _app(x, _app(_app(fusion, value(y, first)), value(z, second)))
    # x : a -> b, y : ~a, z : b: the second premise consumes x's value of b
    return _app(_abstract(z, second, work), _app(x, value(y, first)))


def _abstract(v: tuple, body: tuple, work: list) -> tuple:
    """A term of type ``a -> type(body)`` without the variable ``v`` (of
    type ``a``), which occurs once in the abstraction-free ``body``:
    ``[v]v = identity``, ``[v](M N) = exchange([v]M) N`` when ``v`` is in
    ``M``, else ``suffixing([v]N) M``, and ``[v](M v) = M``.  Raises
    _OutOfWork once ``work[0]``, less two per application on the path to
    ``v`` (as many as the abstraction adds), falls below 0."""
    var, a = v[1], v[3]
    path = []
    node = body
    while node[0] == "a":
        path.append(node)
        node = node[1] if var in node[1][4] else node[2]
    work[0] -= 2 * len(path)
    if work[0] < 0:
        raise _OutOfWork
    out = None  # [v]v, the identity on a, until an application wraps it
    for f, x in ((n[1], n[2]) for n in reversed(path)):
        inner = out or _const("identity", Imp(a, a))
        if var in f[4]:  # inner : a -> (b -> c), x : b
            b, c = f[3].left, f[3].right
            exchange = _const("exchange", Imp(inner[3], Imp(b, Imp(a, c))))
            out = _app(_app(exchange, inner), x)
        elif out is None:  # f v: the function itself
            out = f
        else:  # inner : a -> b, f : b -> c
            suffixing = _const("suffixing", Imp(inner[3], Imp(f[3], Imp(a, f[3].right))))
            out = _app(_app(suffixing, inner), f)
    return out or _const("identity", Imp(a, a))


def _justifications(term: tuple) -> dict[Formula, tuple]:
    """Each formula of the closed abstraction-free ``term`` with the
    justification of its first node in postorder: an axiom instance for a
    constant, modus ponens for an application, so each is entered after
    its premises.  A premise is cited as the object entered for it, so
    reading the map compares no two equal formulas again."""
    justified: dict = {}
    entered: dict = {}  # each formula of justified to that object
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        f = node[3]
        if f in entered:
            continue
        if node[0] == "c":
            justified[f] = ("axiom", node[1])
        elif not ready:
            stack += [(node, True), (node[2], False), (node[1], False)]
            continue
        else:
            justified[f] = ("mp", entered[node[2][3]], entered[node[1][3]])
        entered[f] = f
    return justified
