"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision integers; there is no rational
or floating-point value anywhere, so every certificate re-verifies
bit-exactly.  The pieces are: linear readings of multiplicative formulas
(homogeneous forms, since both constants read 0), each folded once and
kept on its node, a phase-1 simplex that pivots an integer tableau
(fraction-free) to either a feasible point or a Farkas infeasibility
certificate, in integers over its basis determinant, by Dantzig's entering
rule with the lexicographic ratio test, which terminates, the one
theorem-of-alternatives LP over it (read by the strict-dual/kernel
dichotomy and the Abelian procedure), which a zero form answers without
the simplex, and Fourier-Motzkin projection on coefficient mappings, which
prunes by deduplication alone and refuses an elimination past
:data:`FM_ROW_CAP` rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from math import gcd
from types import MappingProxyType

from .errors import InvalidCertificateError, NotMultiplicativeError, SizeBudgetExceededError
from .syntax import Formula, Fuse, Imp, MVar, Record, Var, fold


def linear_coefficients(f: Formula) -> Mapping[str, int]:
    """The linear reading of the multiplicative ``f`` over the integers, one
    coefficient per variable of ``f``, zeros included: variables read as
    themselves, both constants as 0, fusion as addition and implication as
    the difference right-minus-left.

    The first call folds ``f`` once and keeps the reading on the node, as a
    read-only mapping; every later call returns that mapping.  Nodes are
    immutable, so the reading is a function of the node, and this is the
    one place that stores it."""
    reading = getattr(f, "_linear", None)
    if reading is None:
        if not f.multiplicative:
            raise NotMultiplicativeError(f"not multiplicative: {f}")
        folded = fold(f, _linear_leaf, {Fuse: _combine, Imp: lambda a, b: _combine(b, a, -1)})
        reading = MappingProxyType(folded)
        object.__setattr__(f, "_linear", reading)
    return reading


def _linear_leaf(f: Formula) -> dict[str, int]:
    if isinstance(f, MVar):
        raise NotMultiplicativeError(f"metavariable {f.name} has no linear reading")
    return {f.name: 1} if isinstance(f, Var) else {}


def _combine(a: dict[str, int], b: dict[str, int], sign: int = 1) -> dict[str, int]:
    """The coefficients of ``a + sign * b``."""
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) + sign * c
    return out


# --- exact phase-1 simplex ---------------------------------------------------


def feasible_point_or_farkas(
    rows: list[list[int]], rhs: list[int]
) -> tuple[list[int] | None, list[int] | None, int]:
    """Decide ``{A x = b, x >= 0}`` exactly over the rationals, answering in
    integers over the final basis determinant ``d >= 1``.

    Returns ``(x, None, d)`` with an integer ``x >= 0`` and ``A x = d b``,
    so ``x / d`` is a feasible point, or ``(None, y, d)`` with an integer
    Farkas certificate satisfying ``y^T A <= 0`` componentwise and
    ``y^T b > 0``, conditions that hold at any positive scale.  With no
    rows the answer is ``([], None, 1)``.  The rows must have one length,
    ``rhs`` one entry per row, and every entry must be an ``int``
    (``ValueError`` otherwise).

    Phase 1 pivots a fraction-free integer tableau (Edmonds 1967, Bareiss
    1968) whose last row holds the reduced costs.  Every entry is the
    rational tableau's times ``D``, the previous pivot (the basis
    determinant): pivoting on ``piv = T[r][e]`` keeps row ``r``, sets every
    other entry to ``(piv * T[i][j] - T[i][e] * T[r][j]) // D``, exact by
    Sylvester's identity, then ``D = piv``.  Pivots are positive, so signs,
    the order of the reduced costs (one denominator ``D``) and
    cross-multiplied ratios read as in the rational tableau, whose pivots
    these are.

    The entering column is Dantzig's: the most negative reduced cost, the
    lowest index on ties.  The leaving row is the lexicographic minimum of
    ``(b_i, (B^-1)_i) / a_i`` over the rows with ``a_i > 0``, ``B^-1`` read
    off the artificial block (Dantzig, Orden and Wolfe 1955).  The rows of
    ``B^-1`` are independent, so there are no ties; every row starts
    lexicographically positive (``b >= 0``, ``B^-1 = I``) and stays so.
    Hence the cost row's ``(b, B^-1)`` entries rise lexicographically at
    each pivot: no basis repeats, and the simplex terminates whatever the
    entering rule.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    if len(rhs) != m or any(len(row) != n for row in rows):
        raise ValueError("rows and right-hand side of different sizes")
    if not all(isinstance(v, int) for row in [*rows, rhs] for v in row):
        raise ValueError("feasible_point_or_farkas needs integer entries")
    if m == 0:
        return [], None, 1
    flip = [-1 if b < 0 else 1 for b in rhs]
    # columns: n original, m artificial, then b; row m: reduced costs
    tab = [
        [s * a for a in row] + [int(k == i) for k in range(m)] + [s * b]
        for i, (row, b, s) in enumerate(zip(rows, rhs, flip))
    ]
    tab.append([-sum(col) for col in zip(*tab)])
    tab[m][n : n + m] = [0] * m
    basis = [n + i for i in range(m)]
    # the ratio test reads b, then the artificial block B^-1
    lex = [n + m, *range(n, n + m)]
    det = 1
    for _ in range(100_000):
        costs = tab[m]
        entering = min(range(n + m), key=costs.__getitem__)
        if costs[entering] >= 0:
            break
        leaving = -1
        for i, row in enumerate(tab[:m]):
            a = row[entering]
            if a <= 0:
                continue
            if leaving >= 0:
                # row i's vector / a against the best's / a_k, cross-multiplied
                best = tab[leaving]
                a_k = best[entering]
                if next((d for j in lex if (d := row[j] * a_k - best[j] * a)), 0) >= 0:
                    continue
            leaving = i
        if leaving < 0:  # pragma: no cover - phase-1 objective is bounded
            raise RuntimeError("unbounded phase-1 objective")
        prow = tab[leaving]
        piv = prow[entering]
        for i, row in enumerate(tab):
            f = row[entering]
            if i != leaving and (f or piv != det):
                tab[i] = [(c * piv - f * d) // det for c, d in zip(row, prow)]
        det = piv
        basis[leaving] = entering
    else:  # pragma: no cover
        raise RuntimeError("simplex iteration limit exceeded")

    if tab[m][-1] == 0:  # the objective, the sum of the artificials, is 0
        x = [0] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = tab[i][-1]
        return x, None, det
    # y_i = flip_i * (1 - reduced cost of artificial i), times det
    return None, [flip[i] * (det - tab[m][n + i]) for i in range(m)], det


# --- the theorem of alternatives ---------------------------------------------


class Combination(Record):
    """Integers ``lambdas, mu >= 0``, ``lambdas`` not all zero, with
    ``sum(lambdas * forms) == sum(mu * hyps)``."""

    lambdas: tuple[int, ...]
    mu: tuple[int, ...]


class Separation(Record):
    """Integer ``y`` with ``<y, f> < 0`` for every form and ``<y, h> >= 0``
    for every hypothesis."""

    y: tuple[int, ...]


def linear_alternative(forms, hyps) -> Combination | Separation:
    """Gordan's theorem with hypotheses on integer columns of one length:
    exactly one of a :class:`Combination` or a :class:`Separation`.

    Decided by exact feasibility of ``{sum(lambda_i f_i) - sum(mu_j h_j) = 0,
    sum(lambda) = 1, lambda, mu >= 0}``.  The simplex's point ``x / d``,
    as ``x // gcd(*x, d)``, the smallest integer multiple, is the
    combination; a Farkas vector ``y`` has ``<y, f> <= -y_sum < 0`` and
    ``<y, h> >= 0``, so its coordinate part, divided by its gcd, is the
    separation.  Both are checked before they are returned.  The first form
    that is zero is the combination alone, without the LP.
    """
    n, columns = len(forms), list(forms) + [[-v for v in h] for h in hyps]
    m = len(columns[0]) if columns else 0
    if any(len(c) != m for c in columns):
        raise ValueError("column vectors of different lengths")
    zero = next((i for i, f in enumerate(forms) if not any(f)), None)
    if zero is not None:
        return Combination(tuple(int(i == zero) for i in range(n)), (0,) * len(hyps))
    rows = [[c[i] for c in columns] for i in range(m)]
    rows.append([1] * n + [0] * len(hyps))
    x, y, d = feasible_point_or_farkas(rows, [0] * m + [1])
    if x is not None:
        g = gcd(*x, d)  # d >= 1
        ints = [v // g for v in x]
        if (
            len(ints) != len(columns)
            or not any(ints[:n])
            or any(v < 0 for v in ints)
            or any(_dot(ints, row) for row in rows[:m])
        ):
            raise InvalidCertificateError("combination fails its check")
        return Combination(tuple(ints[:n]), tuple(ints[n:]))
    if y is None:
        raise InvalidCertificateError("the LP returned neither a point nor a Farkas vector")
    g = gcd(*y[:m]) or 1  # the primitive multiple: coprime entries, same signs
    sep = tuple(v // g for v in y[:m])
    if (
        len(sep) != m
        or any(_dot(sep, f) >= 0 for f in forms)
        or any(_dot(sep, h) < 0 for h in hyps)
    ):
        raise InvalidCertificateError("separating vector fails its check")
    return Separation(sep)


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


# --- the dichotomy -----------------------------------------------------------


class IntMatrix(Record):
    rows: tuple[tuple[int, ...], ...]

    def _validate(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged matrix")

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @staticmethod
    def of(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(v) for v in row) for row in rows))


class StrictDual(Record):
    """Certificate ``y`` with every entry of ``y^T M`` strictly positive."""

    y: tuple[int, ...]


class Kernel(Record):
    """Certificate ``x`` in the nonnegative integer kernel, not all zero."""

    x: tuple[int, ...]


def gordan(matrix: IntMatrix) -> StrictDual | Kernel:
    """Exactly one of: a strictly positive dual row vector, or a nonzero
    nonnegative integer kernel vector.

    The matrix's columns are the forms of :func:`linear_alternative`, with
    no hypotheses: its combination is the kernel vector and its separation,
    negated, the strict dual.
    """
    result = linear_alternative(list(zip(*matrix.rows)), [])
    if isinstance(result, Combination):
        return Kernel(result.lambdas)
    return StrictDual(tuple(-v for v in result.y))


# --- Fourier-Motzkin projection ----------------------------------------------

# Read at call time: the rows one elimination may hold.
FM_ROW_CAP = 4096


def project_fm(inequalities, keep) -> list[dict[str, int]]:
    """Project the solution set of ``{form >= 0}`` onto the ``keep`` variables.

    Each inequality is a coefficient mapping, as
    :func:`linear_coefficients` returns; so is each row returned, without
    zero coefficients, divided by the gcd of its coefficients, in the order
    of its sorted items.  Eliminates the other variables one at a time,
    combining each positive occurrence with each negative one; redundant
    rows are pruned by gcd normalization and deduplication.  An elimination
    that would hold more than :data:`FM_ROW_CAP` rows raises
    SizeBudgetExceededError before it is built.
    """
    keep = set(keep)
    rows = [_normalized(f) for f in inequalities]
    eliminate = sorted(
        {v for f in rows for v in f} - keep,
        key=lambda v: _elimination_cost(rows, v),
    )
    for var in eliminate:
        pos = [f for f in rows if f.get(var, 0) > 0]
        neg = [f for f in rows if f.get(var, 0) < 0]
        rest = [f for f in rows if var not in f]
        if len(rest) + len(pos) * len(neg) > FM_ROW_CAP:
            raise SizeBudgetExceededError(
                f"eliminating {var} would make more than {FM_ROW_CAP} rows"
            )
        for p, q in itertools.product(pos, neg):
            a, b = -q[var], p[var]
            rest.append(_normalized({v: a * p.get(v, 0) + b * q.get(v, 0) for v in p.keys() | q.keys()}))
        rows = _prune(rest)
    return _prune(rows)


def _normalized(form) -> dict[str, int]:
    """``form`` without its zero coefficients, divided by their positive gcd."""
    g = gcd(*form.values()) or 1
    return {v: c // g for v, c in form.items() if c}


def _elimination_cost(rows: list[dict[str, int]], var: str) -> tuple[int, str]:
    pos = sum(1 for f in rows if f.get(var, 0) > 0)
    neg = sum(1 for f in rows if f.get(var, 0) < 0)
    return (pos * neg - pos - neg, var)


def _prune(rows: list[dict[str, int]]) -> list[dict[str, int]]:
    """The distinct nonzero rows of the normalized ``rows``, in the order of
    their sorted items; the zero row holds trivially."""
    return [dict(key) for key in sorted({tuple(sorted(f.items())) for f in rows if f})]
