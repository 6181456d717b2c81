"""Parametric shape families and fixed patterns."""

from __future__ import annotations

from .formats import ASCII_CELL_LIMIT
from .lattice import Cell, Polyomino, is_connected, normalize


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


# Most digits a number in a shape, pattern, box or trim spec may have: a
# box only bounds its shapes and a family shape stops at 10**6 cells.
SPEC_DIGITS = 9


def _spec_int(text: str) -> int:
    """A number of a shape, pattern, box or trim spec.  ASCII digits only:
    str.isdigit also accepts digits such as '²' that int() refuses."""
    if not (text.isascii() and text.isdigit()) or len(text) > SPEC_DIGITS:
        raise ShapeError(f"bad number {text!r}, want 1 to {SPEC_DIGITS} ASCII digits")
    return int(text)


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
        return straight(_spec_int(name.removeprefix("straight:")))
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
