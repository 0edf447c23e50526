"""Seeded random formula generators for property tests and sampling."""

from __future__ import annotations

from random import Random

from .syntax import ONE, ZERO, Conj, Disj, Formula, Fuse, Imp, Var


def random_mult_formula(
    rng: Random,
    variables: list[str],
    max_depth: int,
    constant_weight: float = 0.2,
) -> Formula:
    """Random multiplicative formula (->, *, 1, 0 and variables only)."""
    connective = lambda: rng.choice([Imp, Fuse])
    return _random_tree(rng, variables, max_depth, 0.3, constant_weight, connective)


def random_formula(
    rng: Random,
    variables: list[str],
    max_depth: int,
    lattice_weight: float = 0.35,
) -> Formula:
    """Random formula over the full language."""
    connective = lambda: rng.choice(
        [Conj, Disj] if rng.random() < lattice_weight else [Imp, Fuse]
    )
    return _random_tree(rng, variables, max_depth, 0.25, 0.2, connective)


def _random_tree(rng, variables, max_depth, leaf_weight, constant_weight, connective) -> Formula:
    """A tree drawn node by node in preorder, left before right: below
    ``max_depth`` a leaf with probability ``leaf_weight`` (a constant with
    probability ``constant_weight``, else a variable), otherwise a
    ``connective()``; then built from the reversed preorder."""
    preorder: list = []
    depths = [max_depth]
    while depths:
        depth = depths.pop()
        if depth and rng.random() >= leaf_weight:
            preorder.append(connective())
            depths += (depth - 1, depth - 1)
        elif rng.random() < constant_weight:
            preorder.append(rng.choice([ONE, ZERO]))
        else:
            preorder.append(Var(rng.choice(variables)))
    built: list[Formula] = []
    for item in reversed(preorder):
        built.append(item if isinstance(item, Formula) else item(built.pop(), built.pop()))
    return built[0]
