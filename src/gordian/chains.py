"""Finite chain algebras and their evaluation.

These totally ordered algebras are the independent semantic layer every
other component is tested against.  A :class:`ChainAlgebra` is a Sugihara
chain on signed integers, its operations in closed form: fusion returns
the argument of strictly larger absolute value and breaks ties with the
meet, its residual ``a -> b`` is ``-a | b`` when ``a <= b`` and ``-a & b``
otherwise, and negation is ``-a``.  Small chains check these forms against
the algebra laws, residuation included, when they are built.  Odd chains
contain the self-inverting element 0, which is both the monoid unit and
the interpretation of the constant 0; even chains interpret the unit as 1
and the constant 0 as -1.

The decision procedures evaluate multiplicative formulas on a chain's
canonical grid (:func:`canonical_grid`), which is its variables' planes: a
formula's planes map each value it takes to a Python integer whose bit j
is set iff it takes that value at grid point j, and fusion and implication
are a few integer operations per level of absolute values
(:func:`eval_planes`), whatever the number of points.

The integers themselves (with fusion as addition and both constants as 0)
serve as the reference model for the Abelian reading; they are exposed here
through :func:`eval_abelian`.  The evaluators are one :func:`syntax.fold`
with their own operation tables: at a point of a chain, on planes of a
canonical grid, on columns of point values (:func:`eval_vector`, the test
suite's reference) and in the integers.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import lru_cache

from .errors import MissingVariableError
from .syntax import Conj, Disj, Formula, Fuse, Imp, One, Var, Zero, fold, variables

LAW_CHECK_MAX_SIZE = 16


class ChainAlgebra:
    """The Sugihara chain of half-width ``k``: on {-k,...,0,...,k} when
    odd, the element 0 both unit and constant 0; on {-k,...,-1,1,...,k}
    when even, unit 1 and constant 0 read as -1.  For carriers of size
    <= 16 the algebra laws (involution, residuation, commutative monoid,
    order compatibility) are verified exhaustively at construction and a
    violation raises ``ValueError``."""

    __slots__ = ("name", "carrier", "unit", "zero", "_operations")

    def __init__(self, k: int, odd: bool):
        if k < 1:
            raise ValueError("half-width must be at least 1")
        self.name = f"sugihara_{'odd' if odd else 'even'}_{k}"
        self.carrier = tuple(v for v in range(-k, k + 1) if odd or v)
        self.unit, self.zero = (0, 0) if odd else (1, -1)
        # the connectives' operations, as :func:`eval_formula` applies them
        self._operations = {Conj: min, Disj: max, Fuse: self.fuse, Imp: self.imp}
        if len(self.carrier) <= LAW_CHECK_MAX_SIZE:
            self.check_laws()

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

    def check_laws(self) -> None:
        """Exhaustively verify involution, residuation, the commutative
        monoid laws and order compatibility; raises ValueError on failure."""
        els = self.carrier
        for a in els:
            if self.fuse(self.unit, a) != a or self.fuse(a, self.unit) != a:
                raise ValueError(f"{self.name}: {self.unit} is not a unit at {a}")
            if self.neg(self.neg(a)) != a:
                raise ValueError(f"{self.name}: involution fails at {a}")
            if self.neg(a) != self.imp(a, self.zero):
                raise ValueError(f"{self.name}: negation is not {a} -> {self.zero}")
        for a, b in itertools.product(els, repeat=2):
            if self.fuse(a, b) != self.fuse(b, a):
                raise ValueError(f"{self.name}: fusion not commutative at {a},{b}")
        for a, b, c in itertools.product(els, repeat=3):
            if self.fuse(self.fuse(a, b), c) != self.fuse(a, self.fuse(b, c)):
                raise ValueError(f"{self.name}: fusion not associative")
            if (self.fuse(a, b) <= c) != (b <= self.imp(a, c)):
                raise ValueError(f"{self.name}: residuation fails at {a},{b},{c}")
            if a <= b and self.fuse(a, c) > self.fuse(b, c):
                raise ValueError(f"{self.name}: fusion not order-preserving")

    def __repr__(self) -> str:
        return f"ChainAlgebra({self.name}, size={len(self.carrier)})"


# each chain is built (and its laws checked) once per process
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


def _evaluate(f: Formula, valuation, unit, zero, connective, values=None):
    """The value of ``f`` at ``valuation``, the constants read as ``unit``
    and ``zero``, in the algebra whose operations ``connective`` gives
    (``values`` as in :func:`syntax.fold`)."""

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

    return fold(f, leaf, connective, values)


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


# Grids over at most this many variables are kept for the life of the
# process, so a check reuses the grids its decision built (the odd and even
# grids for 6 variables hold about 11 MB); larger ones (8.6M points on the
# odd chain at k = 7) are rebuilt on each call.
CACHED_GRID_MAX_VARS = 6


class CanonicalGrid:
    """The canonical points of a Sugihara chain for ``k`` variables, in
    order, bit-sliced: point j is bit j of every mask.  ``planes[i]`` maps
    each value variable i takes to the mask of the points where it takes
    it, and ``full`` has a bit per point.  As a sequence, the grid reads as
    the points' value tuples, each read off the planes.  Grids of up to
    ``CACHED_GRID_MAX_VARS`` variables are shared, so no caller changes
    their planes (the plane operations build new ones)."""

    __slots__ = ("size", "full", "planes")

    def __init__(self, size: int, planes):
        self.size, self.full, self.planes = size, (1 << size) - 1, tuple(planes)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.size:
            raise IndexError(j)
        bit = 1 << j
        return tuple(next(v for v, points in p.items() if points & bit) for p in self.planes)

    def __iter__(self):
        return map(self.__getitem__, range(self.size))


def canonical_grid(chain: ChainAlgebra, k: int) -> CanonicalGrid:
    """Valuations of ``k`` variables into a Sugihara chain, one per class
    of valuations equal up to relabelling the absolute-value levels.

    A Sugihara operation returns one of its arguments, its negation or a
    constant, so the values a valuation uses, with their negations and the
    constants, form a subalgebra.  Any bijection between two such level sets
    that keeps the order of the levels and the signs (and, on even chains,
    level 1, which holds the constants 1 and -1; on odd chains level 0 is
    both) is an isomorphism of the subalgebras, and it preserves
    designation.  So every valuation takes each formula to a designated
    value exactly when its relabelling does, and a consequence holds on the
    chain iff it holds at the canonical points: those whose levels, with 1
    added on even chains, are exactly ``1..m`` (plus 0) for some ``m``.

    The level patterns are generated directly, pruning any prefix whose
    skipped levels outnumber the variables left to fill them; each pattern
    owns a block of points, one per choice of signs, and each variable's
    masks are read off those blocks without visiting a point.
    """
    odd, half_width = chain.unit == 0, chain.carrier[-1]
    if k <= CACHED_GRID_MAX_VARS:
        return _cached_sugihara_grid(half_width, odd, k)
    return _sugihara_grid(half_width, odd, k)


def _sugihara_grid(half_width: int, odd: bool, k: int) -> CanonicalGrid:
    # Level patterns first (absolute values, in lexicographic order), then
    # every choice of signs for each.  A pattern's state is the bit mask of
    # its levels >= 1 (level 1 preset on even chains) and its highest level.
    levels = range(0 if odd else 1, half_width + 1)
    patterns = [((), 0 if odd else 0b10, 0 if odd else 1)]
    for left in range(k - 1, -1, -1):
        extended = []
        for prefix, mask, top in patterns:
            for level in levels:
                grown = mask | (1 << level) if level else mask
                highest = max(top, level)
                if highest - grown.bit_count() <= left:  # skipped levels
                    extended.append((prefix + (level,), grown, highest))
        patterns = extended
    # A pattern with z nonzero levels owns 2**z points, in the order of
    # their signs with negative first, its first signed variable's sign the
    # most significant bit of the point's place in the block.
    pieces: list[list[bytes]] = [[] for _ in range(k)]
    size = 0
    for pattern, _, _ in patterns:
        z = k - pattern.count(0)
        bit = z
        for level, piece in zip(pattern, pieces):
            if level:
                bit -= 1
            piece.append(_sign_block(z, bit, level, half_width))
        size += 1 << z
    # the codes, one byte per point, only feed the masks and are dropped
    carrier = sugihara_chain(half_width, odd=odd).carrier
    planes = [_value_planes(b"".join(piece), carrier, half_width) for piece in pieces]
    return CanonicalGrid(size, planes)


_cached_sugihara_grid = lru_cache(maxsize=None)(_sugihara_grid)


@lru_cache(maxsize=None)
def _sign_block(z: int, bit: int, level: int, offset: int) -> bytes:
    """A variable's codes over a pattern's block of 2**z points: ``level``
    where the block index has ``bit`` set, ``-level`` where not."""
    return bytes(offset + (level if s >> bit & 1 else -level) for s in range(1 << z))


def _value_planes(code: bytes, values, offset: int) -> dict[int, int]:
    """The mask of each value in ``code``: one mask per bit of the codes,
    read as a binary numeral (last point first), then one intersection per
    value."""
    full = (1 << len(code)) - 1
    bits = []
    for b in range((values[-1] + offset).bit_length()):
        digit = bytes(48 + (c >> b & 1) for c in range(256))  # code -> "0" or "1"
        bits.append(int(code.translate(digit)[::-1], 2))
    planes = {}
    for value in values:
        points = full
        for b, plane in enumerate(bits):
            points &= plane if (value + offset) >> b & 1 else ~plane
        if points:
            planes[value] = points
    return planes


# --- bit-sliced evaluation -----------------------------------------------------
#
# A formula's planes on a canonical grid map each value it takes to the mask
# of the points where it takes it.  The Sugihara operations work on the
# masks a value (or a level of absolute values) at a time, against running
# masks of the points where an argument lies below it.


def fuse_planes(a: dict, b: dict) -> dict:
    """Fusion: the argument of larger absolute value, ties to the meet."""
    out = {}
    a_below = b_below = 0
    for level in sorted({abs(v) for v in a.keys() | b.keys()}):
        an, bn = a.get(-level, 0), b.get(-level, 0)
        ap, bp = (a.get(level, 0), b.get(level, 0)) if level else (0, 0)
        a_upto, b_upto = a_below | an | ap, b_below | bn | bp
        negative = an & b_upto | bn & a_upto
        positive = ap & (b_below | bp) | bp & a_below
        if negative:
            out[-level] = negative
        if positive:
            out[level] = positive
        a_below, b_below = a_upto, b_upto
    return out


def _negate(a: dict) -> dict:
    return {-v: points for v, points in a.items()}


def imp_planes(a: dict, b: dict) -> dict:
    """``a -> b`` is ``~(a * ~b)``, and negation maps v to -v."""
    return _negate(fuse_planes(a, _negate(b)))


def sum_planes(a: dict, b: dict) -> dict:
    """``a + b`` is ``~(~a * ~b)``: the argument of larger absolute value,
    ties to the join."""
    return _negate(fuse_planes(_negate(a), _negate(b)))


PLANE_OPERATIONS = {Fuse: fuse_planes, Imp: imp_planes}


def eval_planes(chain: ChainAlgebra, f: Formula, var_order, grid: CanonicalGrid, values=None):
    """The planes of the multiplicative formula ``f`` on ``grid``, the
    canonical grid of ``chain`` over ``var_order``: :func:`eval_formula` on
    masks, O(levels) integer operations per node.  ``values`` is
    :func:`syntax.fold`'s memo, shared by the caller across formulas built
    from one another."""
    columns = dict(zip(var_order, grid.planes))
    unit, zero = {chain.unit: grid.full}, {chain.zero: grid.full}
    return _evaluate(f, columns, unit, zero, PLANE_OPERATIONS, values)


def designated_mask(chain: ChainAlgebra, planes: dict) -> int:
    """The points at which ``planes`` take a designated value."""
    mask = 0
    for value, points in planes.items():
        if value >= chain.unit:
            mask |= points
    return mask


def kept_mask(chain: ChainAlgebra, sigma, var_order, grid: CanonicalGrid) -> int:
    """The points of ``grid`` at which every formula of ``sigma`` is
    designated."""
    kept = grid.full
    for h in sigma:
        kept &= designated_mask(chain, eval_planes(chain, h, var_order, grid))
    return kept


# --- the Abelian reference model ---------------------------------------------


_Z_OPERATIONS = {Conj: min, Disj: max, Fuse: operator.add, Imp: lambda a, b: b - a}


def eval_abelian(f: Formula, valuation) -> int:
    """Evaluate over the integers: fusion is addition, implication is
    right-minus-left, both constants are 0; designated iff >= 0."""
    return _evaluate(f, valuation, 0, 0, _Z_OPERATIONS)
