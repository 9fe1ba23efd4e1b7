"""Pseudo-random group elements by product replacement.

A cell of candidate elements is seeded from the generators and mutated by
random replacement steps; after a burn-in the slot values approximate the
uniform-and-independent element stream the centralizer algorithms assume.
The random source is a seeded stdlib Mersenne Twister, fixed per release,
so every draw sequence is a pure function of (seed, cell_size, burn_in).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidBackendSpec
from .oracle import Element, GroupOracle

DEFAULT_CELL_SIZE = 10
DEFAULT_BURN_IN = 50
_MIN_EXTRA = 2
_MIN_CELL = 5


@dataclass
class ReplacementCell:
    """Single-owner mutable sampling state; use one cell per worker."""

    oracle: GroupOracle
    slots: list[Element]
    rng: random.Random
    steps_taken: int = 0


def seed_cell(
    oracle: GroupOracle,
    cell_size: int = DEFAULT_CELL_SIZE,
    burn_in: int = DEFAULT_BURN_IN,
    seed: int = 0,
) -> ReplacementCell:
    """Fill a cell with the generators (repeated cyclically) and burn it in.

    cell_size below the structural minimum max(generators + 2, 5) is padded
    up; below the generator count it is an error.
    """
    gens = oracle.generators
    if not gens:
        raise InvalidBackendSpec("cannot sample from an empty generator list")
    if cell_size < len(gens):
        raise InvalidBackendSpec(
            f"cell size {cell_size} is below the generator count {len(gens)}"
        )
    if burn_in < 0:
        raise InvalidBackendSpec("burn-in must be nonnegative")
    size = max(cell_size, len(gens) + _MIN_EXTRA, _MIN_CELL)
    slots = [gens[i % len(gens)] for i in range(size)]
    cell = ReplacementCell(oracle, slots, random.Random(seed))
    for _ in range(burn_in):
        _step(cell)
    return cell


def draw(cell: ReplacementCell) -> Element:
    """One replacement step; returns the freshly replaced slot value."""
    return _step(cell)


def _step(cell: ReplacementCell) -> Element:
    rng = cell.rng
    n = len(cell.slots)
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    other = cell.slots[j]
    if rng.getrandbits(1):
        other = cell.oracle.inv(other)
    if rng.getrandbits(1):
        new = cell.oracle.mul(cell.slots[i], other)
    else:
        new = cell.oracle.mul(other, cell.slots[i])
    cell.slots[i] = new
    cell.steps_taken += 1
    return new
