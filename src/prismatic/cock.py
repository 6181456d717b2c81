"""Direct construction of square-pattern de Bruijn colorings.

The construction stacks rotated copies of an order-2 de Bruijn sequence:
row 0 is the sequence itself rotated by ``start``, and each later row i
rotates the previous one by ``sigma[i]``, a permutation of ``1..n**2``.
Reading the rows onto an ``(n**2+1) x (n**2+1)`` grid, with the first
symbol of every row repeated in the last column, yields a coloring in
which every n-coloring of the 2x2 square occurs exactly once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .debruijn import enumerate_all_cyclic, is_cyclic_debruijn, rotated
from .lattice import ColoredPolyomino


class CockError(Exception):
    pass


class InvalidParamsError(CockError):
    pass


class InvalidColorError(CockError):
    pass


@dataclass(frozen=True)
class CockParams:
    """Parameters of one construction run.

    ``r0`` is a cyclic order-2 de Bruijn sequence over ``1..n``; ``start``
    rotates it into place as the top row; ``sigma`` is the permutation of
    ``1..n**2`` used as successive row rotations.
    """

    n: int
    r0: tuple[int, ...]
    start: int
    sigma: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidParamsError("need n >= 1")
        size = self.n * self.n
        if not is_cyclic_debruijn(self.r0, self.n, 2):
            raise InvalidParamsError("r0 must be a cyclic de Bruijn sequence of order 2")
        if not 0 <= self.start < size:
            raise InvalidParamsError(f"start must lie in 0..{size - 1}")
        if sorted(self.sigma) != list(range(1, size + 1)):
            raise InvalidParamsError(f"sigma must be a permutation of 1..{size}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r0": list(self.r0),
            "start": self.start,
            "sigma": list(self.sigma),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CockParams":
        """Parse a parameter object.  ``n`` and ``start`` must be JSON
        integers and ``r0`` and ``sigma`` lists of them; bools, floats
        and strings are rejected rather than coerced."""
        if not isinstance(doc, dict):
            raise InvalidParamsError("parameters must be a JSON object")
        for key in ("n", "r0", "start", "sigma"):
            if key not in doc:
                raise InvalidParamsError(f"missing parameter field {key!r}")
        for key in ("n", "start"):
            if type(doc[key]) is not int:
                raise InvalidParamsError(f"{key!r} must be an integer, got {doc[key]!r}")
        for key in ("r0", "sigma"):
            value = doc[key]
            if not isinstance(value, list) or any(type(v) is not int for v in value):
                raise InvalidParamsError(
                    f"{key!r} must be a list of integers, got {value!r}"
                )
        return cls(doc["n"], tuple(doc["r0"]), doc["start"], tuple(doc["sigma"]))


def rows(params: CockParams) -> list[tuple[int, ...]]:
    """The ``n**2 + 1`` cyclic row words, top row first."""
    size = params.n * params.n
    out = [rotated(params.r0, params.start)]
    for i in range(size):
        out.append(rotated(out[-1], params.sigma[i]))
    return out


def cock_construct(params: CockParams) -> ColoredPolyomino:
    """Build the ``(n**2+1) x (n**2+1)`` colored square grid.

    Row i of :func:`rows` colors the lattice row ``y = n**2 - i``; the
    cell in the last column repeats the first symbol of its row.
    """
    size = params.n * params.n
    words = rows(params)
    mapping = {}
    for i, word in enumerate(words):
        y = size - i
        for x in range(size + 1):
            mapping[(x, y)] = word[x % size]
    return ColoredPolyomino.from_mapping(mapping, params.n)


def _pair_position(word: tuple[int, ...], first: int, second: int) -> int:
    size = len(word)
    for t in range(size):
        if word[t] == first and word[(t + 1) % size] == second:
            return t
    raise CockError(f"pair ({first},{second}) does not occur, r0 is not de Bruijn")


def cock_locate(params: CockParams, w: int, x: int, y: int, z: int) -> tuple[int, int]:
    """Locate the 2x2 square colored ``w x`` over ``y z`` without search.

    Returns ``(i, j)``: the square's top row is row i (0-based, top row
    is 0) and its left column is column j (1-based).  Works because each
    row is a rotation of the top row: the pair ``(y, z)`` sits some d
    positions to the right of ``(w, x)`` in the cycle, and exactly one
    row-to-row rotation equals d.
    """
    size = params.n * params.n
    for c in (w, x, y, z):
        if not 1 <= c <= params.n:
            raise InvalidColorError(f"color {c} outside 1..{params.n}")
    top = rotated(params.r0, params.start)
    d = (_pair_position(top, y, z) - _pair_position(top, w, x)) % size
    i = params.sigma.index(d if d else size)
    row_i = rotated(top, sum(params.sigma[:i]) % size)
    j = 1 + _pair_position(row_i, w, x)
    return i, j


def cock_count(n: int) -> int:
    """Number of distinct parameter tuples: ``n!**n * (n**2)!``."""
    if n < 1:
        raise InvalidParamsError("need n >= 1")
    return math.factorial(n) ** n * math.factorial(n * n)


def cock_count_log10(n: int) -> float:
    """``log10`` of :func:`cock_count` from ``lgamma``, without building
    the count; ``inf`` past the float range."""
    if n < 1:
        raise InvalidParamsError("need n >= 1")
    try:
        return (n * math.lgamma(n + 1) + math.lgamma(n * n + 1)) / math.log(10)
    except OverflowError:
        return math.inf


def all_params(n: int) -> Iterator[CockParams]:
    """Yield every valid parameter tuple for a given n, lazily.

    One rotation class representative per :func:`enumerate_all_cyclic`,
    crossed with every start offset and every rotation permutation; this
    realizes each of the :func:`cock_count` tuples exactly once.
    """
    size = n * n
    for seq in enumerate_all_cyclic(n, 2):
        for start in range(size):
            for sigma in itertools.permutations(range(1, size + 1)):
                yield CockParams(n, seq.symbols, start, tuple(sigma))
