"""Exact integer/rational linear algebra.

Everything here runs on arbitrary-precision integers and fractions; there is
no floating point anywhere, so every certificate re-verifies bit-exactly.
The pieces are: linear readings of multiplicative formulas, a phase-1
simplex that returns either a feasible point or a Farkas infeasibility
certificate, the strict-dual/kernel dichotomy for integer matrices,
Fourier-Motzkin projection, and nonnegative-combination solving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidCertificateError, NotMultiplicativeError
from .syntax import Formula, Fuse, Imp, MVar, One, Var, Zero


class LinForm:
    """An integer linear form ``sum(coeffs[v] * v) + constant``.

    Zero coefficients are never stored.  Instances are immutable and support
    ``+``, ``-`` and integer scaling.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: dict[str, int] | None = None, constant: int = 0):
        cleaned = {v: c for v, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "constant", constant)

    def __setattr__(self, name, value):  # immutability by convention
        raise AttributeError("LinForm is immutable")

    def get(self, var: str) -> int:
        return self.coeffs.get(var, 0)

    def variables(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs and self.constant == 0

    def __add__(self, other: "LinForm") -> "LinForm":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return LinForm(coeffs, self.constant + other.constant)

    def __neg__(self) -> "LinForm":
        return LinForm({v: -c for v, c in self.coeffs.items()}, -self.constant)

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def __mul__(self, k: int) -> "LinForm":
        return LinForm({v: k * c for v, c in self.coeffs.items()}, k * self.constant)

    __rmul__ = __mul__

    def evaluate(self, valuation) -> int | Fraction:
        return sum((c * valuation[v] for v, c in self.coeffs.items()), self.constant)

    def normalized(self) -> "LinForm":
        """Divide by the positive gcd of all entries; the zero form is fixed."""
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, c)
        g = gcd(g, self.constant)
        if g in (0, 1):
            return self
        return LinForm({v: c // g for v, c in self.coeffs.items()}, self.constant // g)

    def _key(self):
        return (tuple(sorted(self.coeffs.items())), self.constant)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinForm) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in sorted(self.coeffs.items())]
        if self.constant or not parts:
            parts.append(str(self.constant))
        return "LinForm(" + " + ".join(parts) + ")"


def translate_abelian(f: Formula) -> LinForm:
    """Linear reading of a multiplicative formula over the integers.

    Variables map to themselves, both constants to 0, fusion to addition and
    implication to the difference right-minus-left; the constant part is
    always 0.
    """
    if isinstance(f, Var):
        return LinForm({f.name: 1})
    if isinstance(f, (One, Zero)):
        return LinForm()
    if isinstance(f, Fuse):
        return translate_abelian(f.left) + translate_abelian(f.right)
    if isinstance(f, Imp):
        return translate_abelian(f.right) - translate_abelian(f.left)
    if isinstance(f, MVar):
        raise NotMultiplicativeError(f"metavariable {f.name} has no linear reading")
    raise NotMultiplicativeError(f"not multiplicative: {f}")


# --- exact phase-1 simplex ---------------------------------------------------


def feasible_point_or_farkas(
    rows: list[list[int | Fraction]], rhs: list[int | Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Decide ``{A x = b, x >= 0}`` exactly over the rationals.

    Returns ``(x, None)`` with a feasible point, or ``(None, y)`` with a
    Farkas certificate satisfying ``y^T A <= 0`` componentwise and
    ``y^T b > 0``.  Uses a phase-1 tableau with Bland's rule, so it always
    terminates.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [], None
    flip = [Fraction(-1) if Fraction(b) < 0 else Fraction(1) for b in rhs]
    # columns: n original, m artificial, then b
    tab = [
        [flip[i] * Fraction(rows[i][j]) for j in range(n)]
        + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        + [flip[i] * Fraction(rhs[i])]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * n + [Fraction(1)] * m

    def reduced_cost(j: int) -> Fraction:
        return cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))

    for _ in range(100_000):
        entering = -1
        for j in range(n + m):
            if reduced_cost(j) < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best: Fraction | None = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:  # pragma: no cover - phase-1 objective is bounded
            raise RuntimeError("unbounded phase-1 objective")
        piv = tab[leaving][entering]
        tab[leaving] = [c / piv for c in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                factor = tab[i][entering]
                tab[i] = [c - factor * d for c, d in zip(tab[i], tab[leaving])]
        basis[leaving] = entering
    else:  # pragma: no cover
        raise RuntimeError("simplex iteration limit exceeded")

    objective = sum(cost[basis[i]] * tab[i][-1] for i in range(m))
    if objective == 0:
        x = [Fraction(0)] * n
        for i, b in enumerate(basis):
            if b < n:
                x[b] = tab[i][-1]
        return x, None
    # y_i = flip_i * (1 - reduced cost of artificial i)
    y = [flip[i] * (Fraction(1) - reduced_cost(n + i)) for i in range(m)]
    return None, y


def _clear_denominators(values: list[Fraction]) -> tuple[list[int], int]:
    denom = lcm(*(v.denominator for v in values)) if values else 1
    ints = [int(v * denom) for v in values]
    g = 0
    for v in ints:
        g = gcd(g, v)
    g = gcd(g, denom)
    if g > 1:
        ints = [v // g for v in ints]
        denom //= g
    return ints, denom


def _primitive(values: list[Fraction]) -> list[int]:
    """Integer multiple of ``values`` with coprime entries, same signs."""
    ints, _ = _clear_denominators(values)
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g > 1 else ints


# --- the dichotomy -----------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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


@dataclass(frozen=True)
class StrictDual:
    """Certificate ``y`` with every entry of ``y^T M`` strictly positive."""

    y: tuple[int, ...]


@dataclass(frozen=True)
class Kernel:
    """Certificate ``x`` in the nonnegative integer kernel, not all zero."""

    x: tuple[int, ...]


GordanResult = StrictDual | Kernel


def gordan(matrix: IntMatrix) -> GordanResult:
    """Exactly one of: a strictly positive dual row vector, or a nonzero
    nonnegative integer kernel vector.

    Decided by exact feasibility of ``{Mx = 0, x >= 0, sum(x) = 1}``; the
    kernel branch clears denominators, the other branch reads the strict
    dual off the phase-1 Farkas certificate.  Both certificates are checked
    before being returned.
    """
    m, n = matrix.m, matrix.n
    rows: list[list[int | Fraction]] = [list(r) for r in matrix.rows]
    rows.append([1] * n)
    rhs: list[int | Fraction] = [0] * m + [1]
    x, y = feasible_point_or_farkas(rows, rhs)
    if x is not None:
        ints, _ = _clear_denominators(x)
        if not (any(ints) and all(v >= 0 for v in ints)) or any(
            sum(row[j] * ints[j] for j in range(n)) != 0 for row in matrix.rows
        ):
            raise InvalidCertificateError("kernel vector fails its check")
        return Kernel(tuple(ints))
    if y is None:
        raise InvalidCertificateError("the LP returned neither a point nor a Farkas vector")
    dual = _primitive([-v for v in y[:m]])
    if any(sum(dual[i] * matrix.rows[i][j] for i in range(m)) <= 0 for j in range(n)):
        raise InvalidCertificateError("strict dual vector fails its check")
    return StrictDual(tuple(dual))


# --- Fourier-Motzkin projection ----------------------------------------------


def project_fm(inequalities: list[LinForm], keep) -> list[LinForm]:
    """Project the solution set of ``{form >= 0}`` onto the ``keep`` variables.

    Eliminates the other variables one at a time, combining each positive
    occurrence with each negative one; redundant rows are pruned by gcd
    normalization, exact duplication and pairwise dominance (equal
    coefficients, weaker constant).
    """
    keep = set(keep)
    rows = [f.normalized() for f in inequalities]
    eliminate = sorted(
        {v for f in rows for v in f.variables()} - keep,
        key=lambda v: _elimination_cost(rows, v),
    )
    for var in eliminate:
        pos = [f for f in rows if f.get(var) > 0]
        neg = [f for f in rows if f.get(var) < 0]
        rest = [f for f in rows if f.get(var) == 0]
        for p, q in itertools.product(pos, neg):
            combined = (-q.get(var)) * p + p.get(var) * q
            rest.append(combined.normalized())
        rows = _prune(rest)
    return _prune(rows)


def _elimination_cost(rows: list[LinForm], var: str) -> tuple[int, str]:
    pos = sum(1 for f in rows if f.get(var) > 0)
    neg = sum(1 for f in rows if f.get(var) < 0)
    return (pos * neg - pos - neg, var)


def _prune(rows: list[LinForm]) -> list[LinForm]:
    best: dict[tuple, int] = {}
    for f in rows:
        f = f.normalized()
        if not f.coeffs and f.constant >= 0:
            continue  # trivially true
        key = tuple(sorted(f.coeffs.items()))
        if key not in best or f.constant < best[key]:
            best[key] = f.constant
    return sorted(
        (LinForm(dict(k), c) for k, c in best.items()),
        key=lambda f: f._key(),
    )


# --- nonnegative combinations -------------------------------------------------


@dataclass(frozen=True)
class ConeMembership:
    """``sum(mu[j] * generators[j]) == scale * target`` with mu >= 0 integral."""

    mu: tuple[int, ...]
    scale: int


def cone_solve(
    target: LinForm, generators: list[LinForm]
) -> ConeMembership | dict[str, int]:
    """Decide membership of ``target`` in the rational cone of ``generators``.

    Returns a :class:`ConeMembership` witness, or a separating integer
    valuation ``y`` with ``<y, g> >= 0`` for every generator and
    ``<y, target> < 0``.  All forms must have constant part 0.
    """
    if target.constant != 0 or any(g.constant != 0 for g in generators):
        raise ValueError("cone membership needs forms with constant part 0")
    variables = sorted(
        frozenset().union(target.variables(), *(g.variables() for g in generators))
    )
    if not variables:
        return ConeMembership(mu=(0,) * len(generators), scale=1)
    rows: list[list[int | Fraction]] = [
        [g.get(v) for g in generators] for v in variables
    ]
    rhs: list[int | Fraction] = [target.get(v) for v in variables]
    x, y = feasible_point_or_farkas(rows, rhs)
    if x is not None:
        mu, scale = _clear_denominators(x)
        combination = LinForm()
        for m_j, g in zip(mu, generators):
            combination = combination + m_j * g
        if scale < 1 or combination != scale * target:
            raise InvalidCertificateError("cone combination fails its check")
        return ConeMembership(mu=tuple(mu), scale=scale)
    if y is None:
        raise InvalidCertificateError("the LP returned neither a point nor a Farkas vector")
    dual = _primitive([-v for v in y])
    valuation = dict(zip(variables, dual))
    if any(g.evaluate(valuation) < 0 for g in generators) or target.evaluate(valuation) >= 0:
        raise InvalidCertificateError("separating valuation fails its check")
    return valuation


def nonneg_combination(
    target: LinForm, generators: list[LinForm]
) -> ConeMembership | None:
    """Nonnegative integer combination of ``generators`` matching ``target``
    up to a positive integer scale, or ``None`` if no rational one exists."""
    result = cone_solve(target, generators)
    return result if isinstance(result, ConeMembership) else None
