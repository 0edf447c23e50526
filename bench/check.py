"""Independent checker for the benchmark's outputs.

Nothing here calls into ``gordian``.  Formulas are plain tuples

    ("v", name)   ("1",)   ("0",)   (op, left, right)   op in "->", "*", "&", "|"

built by the workload generator, converted from the program's formula
objects by :func:`from_program`, or read back from the CLI's rendered text
by :func:`parse`.  The checker brings its own models: the integers
(fusion ``+``, implication right minus left, ``&``/``|`` as min/max, both
constants 0) and the Sugihara chains in closed form (the odd chain has unit
0; the even chain has unit 1 and interprets the constant 0 as -1).  Every
evaluator is iterative, so formulas nested thousands deep evaluate too.
"""

from __future__ import annotations

import itertools
import re
from random import Random

ONE = ("1",)
ZERO = ("0",)
BINARY = ("->", "*", "&", "|")

# Exhaust the decision chains when their grids hold at most this many
# points; otherwise check a seeded sample that also covers a wider chain.
GRID_LIMIT = 4000
SAMPLE_POINTS = 400
Z_RANGE = 5


def var(name: str) -> tuple:
    return ("v", name)


def imp(a: tuple, b: tuple) -> tuple:
    return ("->", a, b)


def neg(a: tuple) -> tuple:
    return ("->", a, ZERO)


def plus(a: tuple, b: tuple) -> tuple:
    return ("->", neg(a), b)


def scalar(n: int, f: tuple) -> tuple:
    """``n*f`` as the left-nested sum the formula grammar defines."""
    acc = f
    for _ in range(n - 1):
        acc = plus(acc, f)
    return acc


def power(f: tuple, n: int) -> tuple:
    acc = f
    for _ in range(n - 1):
        acc = ("*", acc, f)
    return acc


def variables(formulas) -> list[str]:
    out: set[str] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if f[0] == "v":
            out.add(f[1])
        elif f[0] in BINARY:
            stack.append(f[1])
            stack.append(f[2])
    return sorted(out)


def is_multiplicative(f: tuple) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] in ("&", "|"):
            return False
        if g[0] in BINARY:
            stack.append(g[1])
            stack.append(g[2])
    return True


def to_text(f: tuple) -> str:
    """Fully parenthesised input text; constants are always wrapped so
    that no digit stands directly left of ``*``."""
    if f[0] == "v":
        return f[1]
    if f[0] in ("1", "0"):
        return f"({f[0]})"
    return f"({to_text(f[1])} {f[0]} {to_text(f[2])})"


_PROGRAM_TAGS = {"Conj": "&", "Disj": "|", "Fuse": "*", "Imp": "->"}


def from_program(f) -> tuple:
    """Tuple form of one of the program's formula objects, read through its
    class name and fields only."""
    out: list[tuple] = []
    stack = [(f, False)]
    while stack:
        node, done = stack.pop()
        kind = type(node).__name__
        if kind == "Var":
            out.append(("v", node.name))
        elif kind == "One":
            out.append(ONE)
        elif kind == "Zero":
            out.append(ZERO)
        elif kind not in _PROGRAM_TAGS:
            raise ValueError(f"not an object formula: {node!r}")
        elif done:
            right = out.pop()
            out.append((_PROGRAM_TAGS[kind], out.pop(), right))
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
    return out[0]


# --- reading rendered text ----------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[a-z][a-zA-Z0-9_]*|[01]|[~*+&|()])")


def parse(text: str) -> tuple:
    """Read the program's rendered formulas: ``~``, ``*``, ``+``, ``->``
    (right-associative), ``&``, ``|``, the constants and parentheses."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def peek() -> str:
        return tokens[i]

    def take(expected: str | None = None) -> str:
        nonlocal i
        tok = tokens[i]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r} in {text!r}")
        i += 1
        return tok

    def binary_left(op: str, tag: str, inner):
        def level():
            f = inner()
            while peek() == op:
                take()
                f = (tag, f, inner()) if tag else plus(f, inner())
            return f
        return level

    def atom():
        tok = take()
        if tok == "(":
            f = disj()
            take(")")
            return f
        if tok == "~":
            return neg(atom())
        if tok in ("0", "1"):
            return (tok,)
        if tok and tok[0].isalpha():
            return ("v", tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    fuse = binary_left("*", "*", atom)
    summ = binary_left("+", None, fuse)

    def implication():
        f = summ()
        if peek() == "->":
            take()
            return ("->", f, implication())
        return f

    conj = binary_left("&", "&", implication)
    disj = binary_left("|", "|", conj)
    f = disj()
    take("")
    return f


# --- models -------------------------------------------------------------------


class Integers:
    """The integers read as a model of Abelian logic; designated iff >= 0."""

    name = "Z"
    unit = 0
    one = 0
    zero = 0

    @staticmethod
    def fuse(a: int, b: int) -> int:
        return a + b

    @staticmethod
    def imp(a: int, b: int) -> int:
        return b - a


def sugihara_fuse(a: int, b: int) -> int:
    if abs(a) != abs(b):
        return a if abs(a) > abs(b) else b
    return min(a, b)


def sugihara_imp(a: int, b: int) -> int:
    return max(-a, b) if a <= b else min(-a, b)


class Sugihara:
    """Sugihara chain of half-width ``k`` in closed form."""

    def __init__(self, k: int, odd: bool):
        self.k = k
        self.odd = odd
        self.name = f"sugihara_{'odd' if odd else 'even'}_{k}"
        self.carrier = [v for v in range(-k, k + 1) if odd or v != 0]
        self.unit = self.one = 0 if odd else 1
        self.zero = 0 if odd else -1
        self._fuse = {(a, b): sugihara_fuse(a, b) for a in self.carrier for b in self.carrier}
        self._imp = {(a, b): sugihara_imp(a, b) for a in self.carrier for b in self.carrier}

    def fuse(self, a: int, b: int) -> int:
        return self._fuse[a, b]

    def imp(self, a: int, b: int) -> int:
        return self._imp[a, b]


_CHAINS: dict[tuple[int, bool], Sugihara] = {}


def sugihara(k: int, odd: bool) -> Sugihara:
    key = (k, odd)
    if key not in _CHAINS:
        _CHAINS[key] = Sugihara(k, odd)
    return _CHAINS[key]


def model_from_name(name: str):
    if name == "Z":
        return Integers
    m = re.fullmatch(r"sugihara_(odd|even)_(\d+)", name)
    if m is None:
        raise ValueError(f"unknown model {name!r}")
    return sugihara(int(m.group(2)), m.group(1) == "odd")


def evaluate_columns(model, f: tuple, columns: dict[str, list[int]], n: int) -> list[int]:
    """Values of ``f`` at ``n`` points, given one value column per variable;
    a variable without a column takes the unit."""
    out: list[list[int]] = []
    stack = [(f, False)]
    fuse, implies = model.fuse, model.imp
    while stack:
        node, done = stack.pop()
        tag = node[0]
        if tag == "v":
            out.append(columns.get(node[1]) or [model.unit] * n)
        elif tag == "1":
            out.append([model.one] * n)
        elif tag == "0":
            out.append([model.zero] * n)
        elif done:
            right = out.pop()
            left = out.pop()
            if tag == "&":
                out.append(list(map(min, left, right)))
            elif tag == "|":
                out.append(list(map(max, left, right)))
            elif tag == "*":
                out.append(list(map(fuse, left, right)))
            else:
                out.append(list(map(implies, left, right)))
        else:
            stack.append((node, True))
            stack.append((node[2], False))
            stack.append((node[1], False))
    return out[0]


def evaluate(model, f: tuple, valuation: dict[str, int]) -> int:
    return evaluate_columns(model, f, {v: [x] for v, x in valuation.items()}, 1)[0]


def refutes(model, valuation: dict[str, int], hyps, conclusions) -> bool:
    """The valuation designates every hypothesis and no conclusion."""
    if model is not Integers and any(x not in model.carrier for x in valuation.values()):
        return False
    return all(evaluate(model, h, valuation) >= model.unit for h in hyps) and not any(
        evaluate(model, c, valuation) >= model.unit for c in conclusions
    )


def first_counterexample(model, names, points, hyps, target):
    """First point where every hypothesis is designated and ``target`` is
    not, or ``None``."""
    if not points:
        return None
    n = len(points)
    columns = {v: [p[i] for p in points] for i, v in enumerate(names)}
    live = [True] * n
    for h in hyps:
        live = [ok and x >= model.unit for ok, x in zip(live, evaluate_columns(model, h, columns, n))]
    values = evaluate_columns(model, target, columns, n)
    for idx in range(n):
        if live[idx] and values[idx] < model.unit:
            return dict(zip(names, points[idx]))
    return None


def model_points(models, names, rng: Random):
    """(model, points) pairs: every point of the decision chains when their
    grids are small, otherwise a seeded sample of each chain plus a sample
    of a chain two steps wider.  The integers are always sampled."""
    k = len(names)
    chains = [m for m in models if m is not Integers]
    exhaustive = sum(len(c.carrier) ** k for c in chains) <= GRID_LIMIT
    out = []
    for m in models:
        if m is Integers:
            values = range(-Z_RANGE, Z_RANGE + 1)
            out.append((m, [tuple(rng.choice(values) for _ in names) for _ in range(SAMPLE_POINTS)]))
        elif exhaustive:
            out.append((m, list(itertools.product(m.carrier, repeat=k))))
        else:
            for c in (m, sugihara(m.k + 2, m.odd)):
                out.append((c, [tuple(rng.choice(c.carrier) for _ in names) for _ in range(SAMPLE_POINTS)]))
    return out


def sound_on_models(models, hyps, target, rng: Random) -> bool:
    """``target`` is designated wherever ``hyps`` are, on :func:`model_points`."""
    names = variables(list(hyps) + [target])
    for model, points in model_points(models, names, rng):
        if first_counterexample(model, names, points, hyps, target) is not None:
            return False
    return True


def decision_models(logic: str, k: int) -> list:
    """The models each logic is checked against, for ``k`` variables."""
    if logic == "A":
        return [Integers]
    if logic == "IUMLm":
        return [sugihara(k + 1, True)]
    if logic == "RMt":
        return [sugihara(k + 2, False), sugihara(k + 1, True)]
    if logic == "BIULm":
        return [Integers, sugihara(k + 1, True)]
    raise ValueError(f"no models for {logic}")


def conj_all(formulas) -> tuple:
    out = formulas[0]
    for f in formulas[1:]:
        out = ("&", out, f)
    return out


# --- certificates ---------------------------------------------------------------


def linear(f: tuple) -> dict[str, int]:
    """Linear reading over the integers of a multiplicative formula."""
    coeffs: dict[str, int] = {}
    stack = [(f, 1)]
    while stack:
        g, sign = stack.pop()
        tag = g[0]
        if tag == "v":
            coeffs[g[1]] = coeffs.get(g[1], 0) + sign
        elif tag == "*":
            stack.append((g[1], sign))
            stack.append((g[2], sign))
        elif tag == "->":
            stack.append((g[1], -sign))
            stack.append((g[2], sign))
        elif tag not in ("1", "0"):
            raise ValueError("lattice connective has no linear reading")
    return {v: c for v, c in coeffs.items() if c}


def combination(lambdas, disjuncts) -> tuple:
    """The weighted sum of the disjuncts over the support of ``lambdas``."""
    terms = [scalar(l, d) for l, d in zip(lambdas, disjuncts) if l > 0]
    acc = terms[-1]
    for t in reversed(terms[:-1]):
        acc = plus(t, acc)
    return acc


def weights_ok(lambdas, n: int) -> bool:
    return (
        len(lambdas) == n
        and all(isinstance(l, int) and l >= 0 for l in lambdas)
        and any(lambdas)
    )


def abelian_proof_ok(hyps, disjuncts, lambdas, mu, scale) -> bool:
    """sum(mu_j * lin(h_j)) == scale * sum(lambda_i * lin(d_i)), with
    lambda, mu >= 0, lambda not all zero and scale >= 1."""
    if not weights_ok(lambdas, len(disjuncts)) or scale < 1:
        return False
    if len(mu) != len(hyps) or any(m < 0 for m in mu):
        return False
    left: dict[str, int] = {}
    for m, h in zip(mu, hyps):
        for v, c in linear(h).items():
            left[v] = left.get(v, 0) + m * c
    right: dict[str, int] = {}
    for l, d in zip(lambdas, disjuncts):
        for v, c in linear(d).items():
            right[v] = right.get(v, 0) + scale * l * c
    names = set(left) | set(right)
    return all(left.get(v, 0) == right.get(v, 0) for v in names)


def semantic_proof_ok(logic: str, hyps, disjuncts, lambdas, rng: Random, subset: bool) -> bool:
    """Soundness of a chain or Hilbert certificate: the certified weighted
    sum is designated wherever the hypotheses are."""
    if not weights_ok(lambdas, len(disjuncts)):
        return False
    if subset and any(l > 1 for l in lambdas):
        return False
    target = combination(lambdas, disjuncts)
    k = len(variables(list(hyps) + [target]))
    return sound_on_models(decision_models(logic, k), hyps, target, rng)


def gordan_ok(rows, branch: str, vector) -> bool:
    """Kernel: Mx = 0, x >= 0, x != 0.  Strict dual: every entry of y^T M > 0."""
    m, n = len(rows), len(rows[0])
    if branch == "kernel":
        return (
            len(vector) == n
            and all(x >= 0 for x in vector)
            and any(vector)
            and all(sum(r[j] * vector[j] for j in range(n)) == 0 for r in rows)
        )
    if branch == "strict_dual":
        return len(vector) == m and all(
            sum(vector[i] * rows[i][j] for i in range(m)) > 0 for j in range(n)
        )
    return False


def density_weights(a: int, b: int, c: int) -> tuple[int, int]:
    """The paper's weight rule for the density transform."""
    if a > 0 and b > 0:
        return (a * b, a * c)
    if a == 0:
        return (b, c)
    return (a, c)


def interpolant_ok(logic: str, hyps, interpolant, x_vars, rng: Random) -> bool:
    """The interpolant speaks only of X and holds in every sampled model of
    the hypotheses."""
    if set(variables(interpolant)) - set(x_vars):
        return False
    if not interpolant:
        return True
    target = conj_all(list(interpolant))
    k = len(variables(list(hyps) + [target]))
    return sound_on_models(decision_models(logic, k), hyps, target, rng)
