"""Parametric shape families, fixed patterns and structural profiles."""

from __future__ import annotations

from dataclasses import dataclass

from .formats import ASCII_CELL_LIMIT
from .lattice import Cell, Polyomino, instances_of, is_connected, normalize


class ShapeError(Exception):
    pass


class BadHeightError(ShapeError):
    pass


class BadTrimError(ShapeError):
    pass


class UnknownPatternError(ShapeError):
    pass


# The fixed pattern orientations used throughout; translations only, so
# the orientation matters.
SQUARE = Polyomino(((0, 0), (0, 1), (1, 0), (1, 1)))
ZEE = Polyomino(((0, 1), (1, 0), (1, 1), (2, 0)))
TEE = Polyomino(((0, 0), (1, 0), (1, 1), (2, 0)))
ELL = Polyomino(((0, 0), (0, 1), (1, 0), (2, 0)))
LTROMINO = Polyomino(((0, 0), (0, 1), (1, 0)))


def _check_cells(count: int) -> None:
    """Refuse, before building it, a shape too large to render."""
    if count > ASCII_CELL_LIMIT:
        raise ShapeError(f"a shape of {count} cells is past the {ASCII_CELL_LIMIT}-cell limit")


def straight(k: int) -> Polyomino:
    """Horizontal bar of k cells."""
    if k < 1:
        raise ShapeError("need k >= 1")
    _check_cells(k)
    return Polyomino(tuple((i, 0) for i in range(k)))


_NAMED_PATTERNS = {
    "square": SQUARE,
    "zee": ZEE,
    "tee": TEE,
    "ell": ELL,
    "ltromino": LTROMINO,
}


def pattern_from_name(name: str) -> Polyomino:
    """Look up a built-in pattern; ``straight:K`` takes a length."""
    if name in _NAMED_PATTERNS:
        return _NAMED_PATTERNS[name]
    if name.startswith("straight:"):
        try:
            return straight(int(name.split(":", 1)[1]))
        except ValueError:
            raise UnknownPatternError(f"bad straight length in {name!r}") from None
    raise UnknownPatternError(
        f"unknown pattern {name!r}; known: {sorted(_NAMED_PATTERNS)} or straight:K"
    )


def rectangle(width: int, height: int) -> Polyomino:
    if width < 1 or height < 1:
        raise ShapeError("rectangle sides must be positive")
    _check_cells(width * height)
    return Polyomino(tuple((x, y) for x in range(width) for y in range(height)))


def ziggurat(n: int) -> Polyomino:
    """Centered tower of odd rows 1, 3, ..., 2n-1, one cell at the top.

    Row y holds the 2(n-y)-1 cells from x = y to x = 2(n-1)-y, so the
    shape has n**2 cells in an (2n-1) x n box.
    """
    if n < 1:
        raise BadHeightError("need n >= 1")
    _check_cells(n * n)
    return Polyomino(
        tuple(
            sorted((x, y) for y in range(n) for x in range(y, 2 * n - 1 - y))
        )
    )


def pyramid(n: int) -> Polyomino:
    """Left-aligned staircase with rows n, n-1, ..., 1 from the bottom."""
    if n < 1:
        raise BadHeightError("need n >= 1")
    _check_cells(n * (n + 1) // 2)
    return Polyomino(
        tuple(sorted((x, y) for y in range(n) for x in range(n - y)))
    )


# Trim runs for pyramid_trimmed: each name maps the step index t to the
# t-th removed cell of a pyramid of height n.
TRIM_CORNERS = (
    "bottom-right",
    "bottom-left",
    "left-bottom",
    "left-top",
    "top-left-diag",
    "bottom-right-diag",
)


def _trim_cell(name: str, n: int, t: int) -> Cell:
    if name == "bottom-right":
        return (n - 1 - t, 0)
    if name == "bottom-left":
        return (t, 0)
    if name == "left-bottom":
        return (0, t)
    if name == "left-top":
        return (0, n - 1 - t)
    if name == "top-left-diag":
        return (t, n - 1 - t)
    if name == "bottom-right-diag":
        return (n - 1 - t, t)
    raise BadTrimError(f"unknown trim corner {name!r}; known: {TRIM_CORNERS}")


def pyramid_trimmed(n: int, corner: str, k: int) -> Polyomino:
    """Pyramid of height n with k cells trimmed along one boundary run.

    The run starts at a corner and, removed one cell at a time, follows
    the bottom row, the left column or the diagonal.  Requires
    ``0 <= k < n`` so the run never exhausts its line.
    """
    if not 0 <= k < n:
        raise BadTrimError(f"trim count must lie in 0..{n - 1}")
    cells = set(pyramid(n).cells)
    for t in range(k):
        cells.discard(_trim_cell(corner, n, t))
    if not is_connected(cells):
        raise BadTrimError("trim disconnected the shape")
    return normalize(cells)


@dataclass(frozen=True)
class RowProfile:
    """Per-row cell counts and tee-top counts, top row first.

    ``cells_per_row[i]`` counts the cells of row i (row 0 at the top);
    ``top_counts[i]`` counts cells of row i sitting atop a tee instance,
    meaning the three cells below and beside-below are all present.
    Rows are 0-indexed here; the bottom row supports no tee tops and is
    omitted from ``top_counts``.
    """

    cells_per_row: tuple[int, ...]
    top_counts: tuple[int, ...]


def row_profile(shape: Polyomino) -> RowProfile:
    height = shape.height
    per_row = [0] * height
    tops = [0] * height
    cellset = shape.cell_set
    for x, y in shape.cells:
        per_row[height - 1 - y] += 1
        if (
            (x - 1, y - 1) in cellset
            and (x, y - 1) in cellset
            and (x + 1, y - 1) in cellset
        ):
            tops[height - 1 - y] += 1
    return RowProfile(tuple(per_row), tuple(tops[:-1] if height > 1 else ()))


@dataclass(frozen=True)
class RolePartition:
    """How each cell participates in ell-tromino instances.

    An instance places a central cell, the cell to its right and the cell
    above it.  The seven non-empty role combinations partition the cells
    that appear in at least one instance; ``role_free`` collects the rest
    instead of failing, so the partition doubles as a diagnostic.
    """

    central_only: frozenset[Cell]
    right_only: frozenset[Cell]
    top_only: frozenset[Cell]
    central_right: frozenset[Cell]
    central_top: frozenset[Cell]
    top_right: frozenset[Cell]
    all_roles: frozenset[Cell]
    role_free: frozenset[Cell]

    @property
    def x_central(self) -> frozenset[Cell]:
        return self.central_only | self.central_right | self.central_top | self.all_roles

    @property
    def x_right(self) -> frozenset[Cell]:
        return self.right_only | self.central_right | self.top_right | self.all_roles

    @property
    def x_top(self) -> frozenset[Cell]:
        return self.top_only | self.central_top | self.top_right | self.all_roles

    def classes(self) -> dict[str, frozenset[Cell]]:
        return {
            "central": self.central_only,
            "right": self.right_only,
            "top": self.top_only,
            "central+right": self.central_right,
            "central+top": self.central_top,
            "top+right": self.top_right,
            "central+top+right": self.all_roles,
            "free": self.role_free,
        }


def role_partition(shape: Polyomino) -> RolePartition:
    central: set[Cell] = set()
    right: set[Cell] = set()
    top: set[Cell] = set()
    for vx, vy in instances_of(LTROMINO, shape):
        central.add((vx, vy))
        right.add((vx + 1, vy))
        top.add((vx, vy + 1))

    def pick(in_c: bool, in_r: bool, in_t: bool) -> frozenset[Cell]:
        return frozenset(
            cell
            for cell in shape.cells
            if (cell in central) == in_c
            and (cell in right) == in_r
            and (cell in top) == in_t
        )

    return RolePartition(
        central_only=pick(True, False, False),
        right_only=pick(False, True, False),
        top_only=pick(False, False, True),
        central_right=pick(True, True, False),
        central_top=pick(True, False, True),
        top_right=pick(False, True, True),
        all_roles=pick(True, True, True),
        role_free=pick(False, False, False),
    )
