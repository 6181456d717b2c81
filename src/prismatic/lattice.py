"""Cells, fixed polyominoes, colorings and integer lattice geometry.

Conventions used throughout the package:

* a cell is an ``(x, y)`` pair naming the closed unit square
  ``[x, x+1] x [y, y+1]``; y grows upward,
* fixed polyominoes are considered up to translation only,
* the canonical translate of a cell set has ``min x == min y == 0`` and
  its cells are listed in lexicographic ``(x, y)`` order,
* colors are the integers ``1..n``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Collection, Container, Iterable, Mapping

Cell = tuple[int, int]
Vec = tuple[int, int]

NEIGHBOR_STEPS: tuple[Vec, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


class LatticeError(Exception):
    """Base class for lattice-level errors."""


class EmptySetError(LatticeError):
    pass


class DisconnectedError(LatticeError):
    pass


class UnknownMapError(LatticeError):
    pass


def is_connected(cells: Iterable[Cell]) -> bool:
    """True iff the cell set is edge-connected (empty sets are not)."""
    todo = set(cells)
    if not todo:
        return False
    seed = next(iter(todo))
    todo.discard(seed)
    queue = deque([seed])
    while queue:
        x, y = queue.popleft()
        for dx, dy in NEIGHBOR_STEPS:
            nb = (x + dx, y + dy)
            if nb in todo:
                todo.discard(nb)
                queue.append(nb)
    return not todo


@dataclass(frozen=True)
class Polyomino:
    """A non-empty edge-connected cell set in canonical position.

    ``cells`` is sorted lexicographically by ``(x, y)`` and satisfies
    ``min x == min y == 0``.  Use :func:`normalize` to build one from an
    arbitrary translate.
    """

    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise EmptySetError("polyomino needs at least one cell")
        if list(self.cells) != sorted(set(self.cells)):
            raise LatticeError("cells must be sorted and duplicate free")
        if min(x for x, _ in self.cells) != 0 or min(y for _, y in self.cells) != 0:
            raise LatticeError("cells must be in canonical position")
        if not is_connected(self.cells):
            raise DisconnectedError("cells must be edge-connected")
        object.__setattr__(self, "_cellset", frozenset(self.cells))

    @property
    def cell_set(self) -> frozenset[Cell]:
        return self._cellset  # type: ignore[attr-defined]

    @property
    def width(self) -> int:
        return max(x for x, _ in self.cells) + 1

    @property
    def height(self) -> int:
        return max(y for _, y in self.cells) + 1

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cellset  # type: ignore[attr-defined]


def normalize(cells: Iterable[Cell]) -> Polyomino:
    """Canonical translate of ``cells`` as a :class:`Polyomino`.

    Raises :class:`EmptySetError` on empty input and
    :class:`DisconnectedError` when the set is not edge-connected.
    """
    cs = set(cells)
    if not cs:
        raise EmptySetError("cannot normalize an empty cell set")
    return Polyomino(tuple(sorted(_to_origin(cs))))


def _to_origin(cells: Collection[Cell]) -> list[Cell]:
    """``cells`` translated to min x = min y = 0, in input order."""
    mx = min(x for x, _ in cells)
    my = min(y for _, y in cells)
    return [(x - mx, y - my) for x, y in cells]


def instances_of(pattern: Polyomino, cells: Iterable[Cell]) -> list[Vec]:
    """All vectors v with ``pattern + v`` contained in ``cells``, sorted.

    ``cells`` may be any cell set, canonical or not, with or without holes.
    """
    cellset = cells.cell_set if isinstance(cells, Polyomino) else frozenset(cells)
    pcells = pattern.cells
    anchor = pcells[0]
    rest = [(x - anchor[0], y - anchor[1]) for x, y in pcells[1:]]
    found = []
    for cx, cy in cellset:
        if all((cx + dx, cy + dy) in cellset for dx, dy in rest):
            found.append((cx - anchor[0], cy - anchor[1]))
    found.sort()
    return found


def instance_cells(pattern: Polyomino, shape: Polyomino) -> list[tuple[int, ...]]:
    """The instance table: which cells of ``shape`` each instance covers.

    One tuple per instance, in :func:`instances_of` order; entry ``i``
    is the index in ``shape.cells`` of the cell covering
    ``pattern.cells[i]``.
    """
    index_of = {cell: i for i, cell in enumerate(shape.cells)}.get
    ax, ay = pattern.cells[0]
    offsets = [(x - ax, y - ay) for x, y in pattern.cells]
    table = []
    # shape.cells is sorted, so anchors come in sorted vector order.
    for cx, cy in shape.cells:
        ids = []
        for dx, dy in offsets:
            i = index_of((cx + dx, cy + dy))
            if i is None:
                break
            ids.append(i)
        else:
            table.append(tuple(ids))
    return table


@dataclass(frozen=True)
class ColoredPolyomino:
    """A polyomino whose cells each carry one of the colors ``1..n``."""

    shape: Polyomino
    n: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != len(self.shape.cells):
            raise LatticeError("one color per cell required")
        self.check_colors(self.n, self.colors)

    @staticmethod
    def check_colors(n: int, colors: Iterable[int]) -> None:
        """Raise unless ``n >= 1`` and every color lies in ``1..n``."""
        if n < 1:
            raise LatticeError("need at least one color")
        colors = tuple(colors)
        if colors and (min(colors) < 1 or max(colors) > n):
            raise LatticeError("colors must lie in 1..n")

    @classmethod
    def from_mapping(cls, mapping: Mapping[Cell, int], n: int) -> "ColoredPolyomino":
        """Build from a cell->color mapping, normalizing the translate."""
        shape = normalize(mapping)
        # A translate keeps the (x, y) order, so sorted keys follow shape.cells.
        return cls(shape, n, tuple(map(mapping.__getitem__, sorted(mapping))))

    def mapping(self) -> dict[Cell, int]:
        return dict(zip(self.shape.cells, self.colors))


@dataclass(frozen=True)
class PickQuantities:
    """Lattice point counts of the closed region covered by a cell set."""

    area: int
    boundary: int
    interior: int
    holes: int


def pick_quantities(cells: Iterable[Cell]) -> PickQuantities:
    """Area, boundary points, interior points and holes of a cell union.

    Counts the cells' V distinct corners, E distinct unit sides and C
    components (cells joined at a side or a corner), in time linear in
    the cells.  A corner is interior when all four cells around it are
    covered; every other corner ends a boundary edge, so the boundary
    holds ``V - interior`` points.  Holes are the bounded components of
    the complement, and Euler's formula for a union of closed cells,
    ``V - E + area == C - holes``, gives their number.

    A pinch is a lattice point whose four incident cells are covered
    exactly on one diagonal, so two cells meet there only at a corner.
    When the shape has no pinch its boundary decomposes into ``holes +
    1`` disjoint simple loops, each loop visits as many points as it has
    unit edges, and the counts satisfy
    ``boundary / 2 == area + 1 - interior - holes``.  At a pinch the
    boundary revisits a point, the point count drops below the edge
    count, and the identity can be off by half the number of pinches.
    The interior count equals the number of square-tetromino instances
    regardless of pinches.
    """
    cellset = frozenset(cells)
    if not cellset:
        raise EmptySetError("cannot measure an empty cell set")
    corners = {(x + dx, y + dy) for x, y in cellset for dx in (0, 1) for dy in (0, 1)}
    # A unit side is named by its lower-left end and whether it is upright.
    sides = {
        side
        for x, y in cellset
        for side in ((x, y, 0), (x, y + 1, 0), (x, y, 1), (x + 1, y, 1))
    }
    # Corner (x + 1, y + 1) is interior iff cell (x, y) starts a covered 2x2.
    interior = sum(
        (x + 1, y) in cellset and (x, y + 1) in cellset and (x + 1, y + 1) in cellset
        for x, y in cellset
    )
    components = 0
    todo = set(cellset)
    while todo:
        components += 1
        stack = [todo.pop()]
        while stack:
            x, y = stack.pop()
            near = todo & {(x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
            todo -= near
            stack.extend(near)
    holes = components - (len(corners) - len(sides) + len(cellset))
    return PickQuantities(len(cellset), len(corners) - interior, interior, holes)


# Named lattice maps.  Each entry is the matrix (a, b, c, d) of the map
# (x, y) -> (a x + b y, c x + d y); all three are invertible over Z.
LATTICE_MAPS: dict[str, tuple[int, int, int, int]] = {
    "row-shift": (1, -1, 0, 1),
    "skew-rotate": (0, 1, -1, -1),
    "transpose": (0, 1, 1, 0),
}


def apply_lattice_map(obj, name: str):
    """Apply a named lattice map cellwise, carrying colors along.

    ``obj`` may be an iterable of cells (returns a frozenset), a mapping
    cell -> color (returns a dict) or a :class:`ColoredPolyomino`
    (returns a dict keyed by mapped cells).  The image is not
    re-normalized.  Raises :class:`UnknownMapError` for unknown names.
    """
    try:
        m = LATTICE_MAPS[name]
    except KeyError:
        raise UnknownMapError(
            f"unknown lattice map {name!r}; known: {sorted(LATTICE_MAPS)}"
        ) from None
    if isinstance(obj, ColoredPolyomino):
        obj = obj.mapping()
    image = _map_cells(obj, m)
    if isinstance(obj, Mapping):
        return dict(zip(image, obj.values()))
    return frozenset(image)


def _map_cells(cells: Iterable[Cell], m: tuple[int, int, int, int]) -> list[Cell]:
    """The images of ``cells`` under the matrix ``m``, in input order."""
    a, b, c, d = m
    return [(a * x + b * y, c * x + d * y) for x, y in cells]


def _moved(cells: Iterable[Cell], m: tuple[int, int, int, int]) -> tuple[Cell, ...]:
    """The image of ``cells`` under the matrix ``m``, translated to the
    origin and sorted: the canonical cells of the image."""
    return tuple(sorted(_to_origin(_map_cells(cells, m))))


_IDENTITY = (1, 0, 0, 1)
# The 8 isometries of the square lattice that fix the origin, as
# matrices in the LATTICE_MAPS convention: one entry +-1 in each row and
# column.
_ISOMETRIES = tuple(
    (a, b, c, d)
    for a, b, c, d in itertools.product((-1, 0, 1), repeat=4)
    if a * b == c * d == 0 and abs(a * d - b * c) == 1
)


@functools.lru_cache(maxsize=16)
def _stabilizer(pattern: Polyomino) -> tuple[tuple[int, int, int, int], ...]:
    """The integer matrices of determinant +-1, in the :data:`LATTICE_MAPS`
    convention, that carry ``pattern`` onto a translate of itself; the
    identity first.  The coloring search of :mod:`prismatic.search`
    breaks symmetry with them, and its census shares counts along them.

    Such a map sends instances of ``pattern`` to instances, so it carries
    de Bruijn colorings of a shape to de Bruijn colorings of the image.
    A pattern with a cell c that has a horizontal neighbour h and a
    vertical one v (every pattern two or more cells wide and high has
    one) spans the lattice from c, and a map in the group sends c, h and
    v to three pattern cells, which fix it; so every choice of three is
    tried.  The group then holds more than isometries: the row-shift
    conjugates of the square's 8 symmetries fix the zee.  A one-row or
    one-column pattern is fixed by infinitely many shears; only the
    isometries among its maps are kept.
    """
    cells = pattern.cell_set
    if pattern.width == 1 or pattern.height == 1:
        maps = list(_ISOMETRIES)
    else:
        cx, cy = next(
            (x, y)
            for x, y in pattern.cells
            if {(x - 1, y), (x + 1, y)} & cells and {(x, y - 1), (x, y + 1)} & cells
        )
        sx = 1 if (cx + 1, cy) in cells else -1
        sy = 1 if (cx, cy + 1) in cells else -1
        maps = []
        for (x1, y1), (x2, y2), (x3, y3) in itertools.permutations(pattern.cells, 3):
            a, c, b, d = sx * (x2 - x1), sx * (y2 - y1), sy * (x3 - x1), sy * (y3 - y1)
            if abs(a * d - b * c) == 1:
                maps.append((a, b, c, d))
    kept = {m for m in maps if _moved(pattern.cells, m) == pattern.cells}
    return tuple(sorted(kept, key=lambda m: (m != _IDENTITY, m)))


def _corner_only(cells: Container[Cell], x: int, y: int) -> bool:
    """True when some cell of ``cells`` meets (x, y) only at a corner."""
    for dx in (-1, 1):
        for dy in (-1, 1):
            if (
                (x + dx, y + dy) in cells
                and (x + dx, y) not in cells
                and (x, y + dy) not in cells
            ):
                return True
    return False


def random_polyomino(rng: random.Random, size: int) -> Polyomino:
    """Seeded random growth of a connected ``size``-cell shape.

    Growth never lets two cells meet only at a corner, so the boundary
    of the result decomposes into disjoint simple loops and the
    quantities of :func:`pick_quantities` satisfy the half-boundary
    identity exactly.  There is always a safe cell to add (the cell
    above a topmost cell is one), hence no dead ends.  Not uniform over
    polyominoes; intended for randomized testing.
    """
    if size < 1:
        raise EmptySetError("size must be positive")

    cells = {(0, 0)}
    frontier = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    # The safe frontier cells, those no cell meets only at a corner,
    # sorted.  A pick changes the cells and the
    # frontier only inside the 3x3 block around it, and safety reads only
    # a cell's 3x3 block, so only the frontier cells of that block are
    # tested again.
    safe = sorted(frontier)
    while len(cells) < size:
        pick = rng.choice(safe)
        del safe[bisect.bisect_left(safe, pick)]
        cells.add(pick)
        frontier.discard(pick)
        x, y = pick
        for dx, dy in NEIGHBOR_STEPS:
            nb = (x + dx, y + dy)
            if nb not in cells:
                frontier.add(nb)
        for cell in [(x + dx, y + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]:
            if cell in frontier:
                i = bisect.bisect_left(safe, cell)
                listed = i < len(safe) and safe[i] == cell
                if _corner_only(cells, *cell) == listed:
                    if listed:
                        del safe[i]
                    else:
                        safe.insert(i, cell)
    return normalize(cells)
