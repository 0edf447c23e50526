"""Finite chain algebras and their evaluation.

These totally ordered algebras are the independent semantic layer every
other component is tested against.  A :class:`ChainAlgebra` is a Sugihara
chain on signed integers, its operations in closed form: fusion returns
the argument of strictly larger absolute value and breaks ties with the
meet, its residual ``a -> b`` is ``-a | b`` when ``a <= b`` and ``-a & b``
otherwise, and negation is ``-a``.  A chain checks nothing when it is
built; the test suite checks these forms against the algebra laws,
residuation included, on every chain of at most 16 elements.  Odd chains
contain the self-inverting element 0, which is both the monoid unit and
the interpretation of the constant 0; even chains interpret the unit as 1
and the constant 0 as -1.

The decision procedures ask multiplicative questions of the Sugihara
chains through one search (:class:`LevelSearch`): a formula's absolute
value is the highest level among its variables', so the search places the
variables a level at a time from the top, and each formula is settled at
the first level that meets its variables.  It holds both halves of Avron's
dichotomy for the mingle logics, a countermodel or else the largest subset
of the disjuncts whose sum is valid, and finds the points at which
interpolation keeps a class, with a few integer operations per level,
whatever the number of valuations.  Its cost grows about fivefold per
variable, so it takes at most :data:`VARIABLE_CAP` of them and raises
SizeBudgetExceededError past that.

The evaluators are one :func:`syntax.fold` with their own operation
tables: at a point of a chain and on columns of point values
(:func:`eval_vector`, the test suite's reference).  A multiplicative
formula's value in the integers, the Abelian model, is its linear reading
(:func:`linalg.linear_coefficients`) at the point.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import MissingVariableError, SizeBudgetExceededError, UnsupportedLogicError
from .logics import LogicSpec, resolve_logic
from .syntax import Conj, Disj, Formula, Fuse, Imp, One, Var, Zero, fold, subformulas, variables

# Read at call time: the most variables one level search takes.
VARIABLE_CAP = 10


class ChainAlgebra:
    """The Sugihara chain of half-width ``k``: on {-k,...,0,...,k} when
    odd, the element 0 both unit and constant 0; on {-k,...,-1,1,...,k}
    when even, unit 1 and constant 0 read as -1."""

    __slots__ = ("name", "carrier", "unit", "zero", "_operations")

    def __init__(self, k: int, odd: bool):
        if k < 1:
            raise ValueError("half-width must be at least 1")
        self.name = f"sugihara_{'odd' if odd else 'even'}_{k}"
        self.carrier = tuple(v for v in range(-k, k + 1) if odd or v)
        self.unit, self.zero = (0, 0) if odd else (1, -1)
        # the connectives' operations, as :func:`eval_formula` applies them
        self._operations = {Conj: min, Disj: max, Fuse: self.fuse, Imp: self.imp}

    def fuse(self, a: int, b: int) -> int:
        """The argument of larger absolute value, ties to the meet."""
        if abs(a) != abs(b):
            return a if abs(a) > abs(b) else b
        return min(a, b)

    def imp(self, a: int, b: int) -> int:
        """``-a | b`` when ``a <= b``, else ``-a & b``."""
        return max(-a, b) if a <= b else min(-a, b)

    def neg(self, a: int) -> int:
        return -a

    def designated(self, a: int) -> bool:
        return a >= self.unit

    def __repr__(self) -> str:
        return f"ChainAlgebra({self.name}, size={len(self.carrier)})"


# each chain is built once per process
sugihara_chain = lru_cache(maxsize=None)(ChainAlgebra)

_CHAIN_NAME = re.compile(r"sugihara_(odd|even)_([1-9][0-9]*)")


def chain_from_name(name: str, widest: int) -> ChainAlgebra:
    """The chain named exactly ``name``, of half-width at most ``widest``;
    raises ValueError, before building anything, for any other string."""
    match = _CHAIN_NAME.fullmatch(name)
    if match is None:
        raise ValueError(f"unknown chain {name!r}")
    k = int(match[2])
    if k > widest:
        raise ValueError(f"{name} is wider than {widest}")
    return sugihara_chain(k, odd=match[1] == "odd")


# The half-width, past a question's variable count, of the chain that
# stands for each Sugihara class (:func:`class_chains`).
CLASS_MARGINS = {"sugihara_odd": 1, "sugihara_even": 2}


def class_chains(classes, k: int) -> list[ChainAlgebra]:
    """One chain per Sugihara class among ``classes``, in their order, that
    stands for the whole class on a k-variable question: the odd chain of
    half-width k+1 and the even chain of half-width k+2.  A k-variable
    valuation into any chain of a class uses at most k absolute-value
    levels, so its subalgebra embeds in that chain (see
    :class:`LevelSearch`), and the chain refutes the question exactly when
    the class does."""
    return [
        sugihara_chain(k + CLASS_MARGINS[c], odd=c == "sugihara_odd")
        for c in classes
        if c in CLASS_MARGINS
    ]


def decision_chains(logic: LogicSpec | str, k: int) -> list[ChainAlgebra]:
    """Decision chains for a k-variable question: the chains of a mingle
    logic's declared Sugihara classes (:func:`class_chains`), which are
    complete for it.  The odd chains suffice for the odd-unit logic; the
    mingle logic with separate unit also needs the even ones, since neither
    parity's chains embed in the other's."""
    logic = resolve_logic(logic)
    if logic.oracle_kind != "sugihara":
        raise UnsupportedLogicError(f"no chain decision procedure for {logic.name}")
    chains = class_chains(logic.model_classes, k)
    if not chains:
        raise UnsupportedLogicError(f"{logic.name} declares no Sugihara class")
    return chains


def _evaluate(f: Formula, valuation, unit, zero, connective):
    """The value of ``f`` at ``valuation``, the constants read as ``unit``
    and ``zero``, in the algebra whose operations ``connective`` gives."""

    def leaf(node: Formula) -> int:
        if isinstance(node, Var):
            try:
                return valuation[node.name]
            except KeyError:
                raise MissingVariableError(f"valuation missing {node.name!r}") from None
        if isinstance(node, One):
            return unit
        if isinstance(node, Zero):
            return zero
        raise TypeError(f"cannot evaluate {node!r}")

    return fold(f, leaf, connective)


def eval_formula(chain: ChainAlgebra, valuation, f: Formula) -> int:
    """Homomorphic evaluation; designated iff ``chain.unit <= value``."""
    return _evaluate(f, valuation, chain.unit, chain.zero, chain._operations)


def eval_vector(chain: ChainAlgebra, f: Formula, var_order, grid) -> list[int]:
    """Values of ``f`` at every valuation in ``grid`` (tuples over
    ``var_order``): :func:`eval_formula` on columns of values, a column per
    node."""
    used = variables(f)
    columns = {v: [point[i] for point in grid] for i, v in enumerate(var_order) if v in used}
    operations = {
        Conj: lambda a, b: list(map(min, a, b)),
        Disj: lambda a, b: list(map(max, a, b)),
        Fuse: lambda a, b: list(map(chain.fuse, a, b)),
        Imp: lambda a, b: list(map(chain.imp, a, b)),
    }
    n = len(grid)
    return _evaluate(f, columns, [chain.unit] * n, [chain.zero] * n, operations)


# --- the level search ----------------------------------------------------------


def _levels(rest: int):
    """0 (the base), then the nonempty subsets of ``rest``, largest first."""
    yield 0
    top = rest
    while top:
        yield top
        top = (top - 1) & rest


def _digit(point: int, bit: int) -> int:
    """Variable ``bit``'s digit at ``point``: 0 below the level, 1 positive
    on it, 2 negative on it."""
    return point // 3**bit % 3


class LevelSearch:
    """The question ``sigma |- d_1 | ... | d_n`` of multiplicative formulas,
    compiled once for a search down the Sugihara chains' absolute values.

    A Sugihara operation returns an argument, its negation or a constant,
    so a bijection between the levels of two valuations that keeps their
    order and the signs (and, on even chains, level 1) is an isomorphism
    of the subalgebras they generate, which keeps designation.  So a
    question is answered alike at all valuations of one canonical form,
    their levels renumbered ``1..m`` (0 kept, and level 1 on even chains),
    which every chain of half-width k (odd) or k+1 (even) holds for k
    variables: all those chains of a parity answer alike.  The form is a
    sequence of nonempty sets of signed variables, one per level from the
    top, and the rest on the base: 0 on odd chains, where all is
    designated, and level 1 with the constants (1 = +1, 0 = -1) on even
    ones.

    A state of the search is the bit mask R of the variables still
    unplaced.  A formula's absolute value is the highest level among its
    variables' and the constants', so when a subset T of R takes the
    highest level left, every formula within R that meets T takes it too,
    with a sign that T's signs alone fix, and the others depend only on
    the levels below.  So a state's answers depend on R alone, and states
    are computed in increasing order of R.  The signs are bit masks over
    the 3**k points that give each variable a digit (:func:`_digit`), the
    same for every state and every search on the question: a formula's
    masks hold its sign on a level, for every T and every choice of T's
    signs at once, and its sign on an even chain's base.
    """

    __slots__ = ("variables", "disjunct_vars", "_full", "_digits", "_hyps", "_disjuncts", "_supports", "_ways")

    def __init__(self, sigma, disjuncts):
        # one postorder over every formula: a node is its kind, its
        # children's positions (a variable's bit instead) and its variables
        names: dict[str, int] = {}
        position: dict[Formula, int] = {}
        nodes: list[tuple] = []
        for node in (g for f in (*sigma, *disjuncts) for g in subformulas(f)):
            if node in position:
                continue
            kind = type(node)
            if kind is Fuse or kind is Imp:
                i, j = position[node.left], position[node.right]
                nodes.append((kind, i, j, nodes[i][3] | nodes[j][3]))
            elif kind is Var:
                bit = names.setdefault(node.name, len(names))
                nodes.append((Var, bit, 0, 1 << bit))
            elif kind is One or kind is Zero:
                nodes.append((kind, 0, 0, 0))
            else:
                raise TypeError(f"cannot evaluate {node!r} on a Sugihara chain")
            position[node] = len(nodes) - 1
        if len(names) > VARIABLE_CAP:
            raise SizeBudgetExceededError(
                f"a Sugihara question with {len(names)} variables,"
                f" past the level search's cap of {VARIABLE_CAP}"
            )
        full = self._full = (1 << 3 ** len(names)) - 1
        self._digits = []  # per variable, the points where its digit is 1 and where it is 2
        for bit in range(len(names)):
            run = 3**bit
            repeat = full // ((1 << 3 * run) - 1)
            self._digits.append((repeat * ((1 << run) - 1) << run, repeat * ((1 << run) - 1) << 2 * run))
        # per node, its variables, (positive, negative) on a level and positive on the even base
        values: list[tuple] = []
        for kind, i, j, mask in nodes:
            if kind is Var:
                values.append((mask, self._digits[i], self._digits[i][0]))
                continue
            if kind is One or kind is Zero:  # below every level, and +1 or -1 on the even base
                values.append((mask, (0, 0), full if kind is One else 0))
                continue
            (ap, an), a = values[i][1:]
            (bp, bn), b = values[j][1:]
            if kind is Fuse:  # the argument of larger absolute value, ties to the meet
                values.append((mask, (ap & (bp | ~(bp | bn)) | bp & ~(ap | an), an | bn), a & b))
            else:  # a -> b is ~(a * ~b)
                negative = ap & bn | bn & ~(ap | an) | ap & ~(bp | bn)
                values.append((mask, (an | bp, negative), full ^ a | b))
        self.variables = tuple(names)
        self._hyps = [values[position[f]] for f in sigma]
        self._disjuncts = [values[position[f]] for f in disjuncts]
        self.disjunct_vars = tuple(mask for mask, _, _ in self._disjuncts)
        self._supports: dict[int, int] = {}
        self._ways: dict[tuple, list] = {}

    def _level(self, odd: bool, rest: int, top: int, wanted: int) -> tuple[int, int, int]:
        """In state ``rest``, with ``top`` on the highest level left (the
        base when 0): the points designating every open hypothesis on the
        level, the bit mask of the open disjuncts of ``wanted`` on it, and
        the points at which, besides, none of those is designated; the
        points are those whose nonzero digits are the level's variables."""
        if odd and not top:  # everything on 0 is designated
            open_ = [not m & ~rest for m in self.disjunct_vars]
            closing = sum(1 << d for d, ok in enumerate(open_) if ok and wanted >> d & 1)
            return 1, closing, int(not closing)
        placed = top or rest
        kept = self._supports.get(placed)
        if kept is None:
            kept = self._full
            for bit, (positive, negative) in enumerate(self._digits):
                kept &= positive | negative if placed >> bit & 1 else ~(positive | negative)
            self._supports[placed] = kept
        for mask, (positive, _), one in self._hyps:
            if not mask & ~rest and (mask & top or not top):
                kept &= positive if top else one
        closing, refuting = 0, kept
        for d, (mask, (_, negative), one) in enumerate(self._disjuncts):
            if wanted >> d & 1 and not mask & ~rest and (mask & top or not top):
                closing |= 1 << d
                refuting &= negative if top else ~one
        return kept, closing, refuting

    def _placements(self, odd: bool, wanted: int) -> list:
        """Per state R, a way to designate every open hypothesis and no open
        disjunct of the bit mask ``wanted``: ``(T, c, h)``, T on level h
        with the signs of point c (all of R on the base when T is 0), or
        None.  Kept per parity and ``wanted``."""
        ways = self._ways.get((odd, wanted))
        if ways is None:
            ways = self._ways[odd, wanted] = []
            for rest in range(1 << len(self.variables)):
                ways.append(None)
                for top in _levels(rest):
                    refuting = (not top or ways[rest ^ top]) and self._level(odd, rest, top, wanted)[2]
                    if refuting:
                        height = ways[rest ^ top][2] + 1 if top else 1 - odd
                        ways[rest] = (top, (refuting & -refuting).bit_length() - 1, height)
                        break
        return ways

    def countermodel(self, chain: ChainAlgebra) -> dict[str, int] | None:
        """A canonical valuation into ``chain`` that designates every
        hypothesis and no disjunct, or None; its levels are 1..m on odd
        chains and 2..m+1 on even ones."""
        ways = self._placements(chain.unit == 0, (1 << len(self.disjunct_vars)) - 1)
        valuation, rest = {}, len(ways) - 1
        while ways[rest] is not None:
            top, point, height = ways[rest]
            for bit, name in enumerate(self.variables):
                if (top or rest) >> bit & 1:
                    valuation[name] = height if _digit(point, bit) == 1 else -height
            if not top:
                return valuation
            rest ^= top
        return None

    def largest_valid_subset(self, chains) -> set[int]:
        """The union of all subsets of the disjuncts whose sum is designated
        at every valuation into ``chains`` designating every hypothesis:
        the largest valid subset, which Avron's dichotomy for the mingle
        logics makes nonempty when :meth:`countermodel` finds none there.

        On a Sugihara chain the sum of a subset S at a point is its
        dominant value: ``a + b = ~(~a * ~b)`` is the argument of larger
        absolute value, ties to the larger.  Elimination keeps a set T
        holding every valid subset, from all disjuncts.  Where a valuation
        x designating every hypothesis gives T an undesignated sum v, the
        disjuncts of T on the first level any of them takes are all
        negative, and they are the ones taking v; a subset of T holding one
        of them has the sum v at x too, so it is not valid.  A round drops
        them for every such x on every chain at once: it walks down the
        levels that designate the hypotheses they settle and hold no
        disjunct of T, and at a level holding some drops them where they
        can all be negative and the levels below can designate the other
        hypotheses.  When a round drops nothing, T is valid, and so it is
        the largest valid subset: the union of two valid subsets is valid,
        since at each point its sum is one of theirs."""
        support = (1 << len(self.disjunct_vars)) - 1
        while support:
            dropped = 0
            for chain in chains:
                odd = chain.unit == 0
                kept = self._placements(odd, 0)
                reached = [False] * len(kept)
                reached[-1] = True
                for rest in range(len(kept) - 1, -1, -1):
                    for top in _levels(rest) if reached[rest] else ():
                        designated, closing, refuting = self._level(odd, rest, top, support)
                        if top and designated and not closing:
                            reached[rest ^ top] = True
                        elif refuting and (not top or kept[rest ^ top]):
                            dropped |= closing
            if not dropped:
                break
            support &= ~dropped
        return {d for d in range(len(self.disjunct_vars)) if support >> d & 1}

    def projections(self, chain: ChainAlgebra, names) -> set[tuple[int, ...]]:
        """The restrictions to ``names`` of the valuations into ``chain``
        designating every hypothesis, relabelled to their canonical form.
        Built per state from those below, variables not yet placed None."""
        odd = chain.unit == 0
        bits = [self.variables.index(name) for name in names]
        found: list[set] = []
        for rest in range(1 << len(self.variables)):
            found.append(set())
            for top in _levels(rest):
                below = found[rest ^ top] if top else [(None,) * len(bits)]
                designated = self._level(odd, rest, top, 0)[0] if below else 0
                placed, signs = top or rest, set()
                while designated:
                    c = (designated & -designated).bit_length() - 1
                    designated &= designated - 1
                    signs.add(tuple(None if not placed >> b & 1 else 1 if _digit(c, b) == 1 else -1 for b in bits))
                for point in below:  # a level holding none of names leaves it as it is
                    levels = [abs(v) for v in point if v is not None]
                    height = max(levels, default=1 - odd) + 1 if top else 1 - odd
                    found[rest].update(
                        tuple(v if s is None else s * height for v, s in zip(point, sign)) for sign in signs
                    )
        return found[-1]


# a question is compiled once: the elimination follows the scan and the
# certificate's check the proof
level_search = lru_cache(maxsize=64)(LevelSearch)
