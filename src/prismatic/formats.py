"""JSON and ASCII interchange for cell sets and colorings.

JSON layout: ``{"n": 2, "cells": [{"x": 0, "y": 0, "color": 1}, ...]}``
with cells sorted by ``(x, y)``; uncolored shapes drop the ``n`` key and
the ``color`` fields.  ASCII grids print one text row per lattice row
from max y down to min y, digit characters for colors and ``.`` for
absent cells.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .lattice import Cell, ColoredPolyomino, LatticeError, Polyomino


def to_json(obj, n: int | None = None) -> dict:
    """JSON-ready dict for a shape, coloring or cell->color mapping."""
    if isinstance(obj, ColoredPolyomino):
        return {
            "n": obj.n,
            "cells": [
                {"x": x, "y": y, "color": c}
                for (x, y), c in zip(obj.shape.cells, obj.colors)
            ],
        }
    if isinstance(obj, Mapping):
        return {
            "n": n if n is not None else max(obj.values()),
            "cells": [
                {"x": x, "y": y, "color": c} for (x, y), c in sorted(obj.items())
            ],
        }
    cells = obj.cells if isinstance(obj, Polyomino) else sorted(obj)
    return {"cells": [{"x": x, "y": y} for x, y in cells]}


def _int(record: dict, key: str) -> int:
    """``record[key]`` when it is a JSON integer; bools, floats and
    strings are rejected rather than coerced."""
    value = record.get(key)
    if type(value) is not int:
        raise LatticeError(f"{key!r} must be an integer, got {value!r}")
    return value


def parse_json(doc: dict) -> tuple[frozenset[Cell] | dict[Cell, int], int | None]:
    """Inverse of :func:`to_json`, kept in absolute coordinates.

    Returns ``(cells, None)`` for uncolored shapes and
    ``(mapping, n)`` for colorings.  ``n`` defaults to the largest color
    present when the document does not carry it.  ``x``, ``y``,
    ``color`` and ``n`` must be integers.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise LatticeError("document needs a 'cells' list")
    records = doc["cells"]
    if not records:
        raise LatticeError("document lists no cells")
    if not all(isinstance(r, dict) for r in records):
        raise LatticeError("every cell must be a JSON object")
    colored = any("color" in r for r in records)
    if colored:
        if not all("color" in r for r in records):
            raise LatticeError("either all cells carry a color or none")
        mapping = {(_int(r, "x"), _int(r, "y")): _int(r, "color") for r in records}
        if len(mapping) != len(records):
            raise LatticeError("duplicate cells in document")
        n = _int(doc, "n") if "n" in doc else max(mapping.values())
        return mapping, n
    cells = frozenset((_int(r, "x"), _int(r, "y")) for r in records)
    if len(cells) != len(records):
        raise LatticeError("duplicate cells in document")
    return cells, None


def colored_from_json(doc: dict) -> ColoredPolyomino:
    """Parse a colored document into a canonical :class:`ColoredPolyomino`."""
    mapping, n = parse_json(doc)
    if n is None:
        raise LatticeError("document carries no colors")
    return ColoredPolyomino.from_mapping(mapping, n)


# Most grid positions (bounding box width times height) an ASCII
# rendering may print; the 10x10 cock grid for n = 3 uses 100.
ASCII_CELL_LIMIT = 10**6


def ascii_render(obj) -> str:
    """ASCII grid of a shape or coloring, top lattice row first.

    Colored cells print their color digit (colors above 9 are rejected),
    uncolored cells print ``#`` and absent cells ``.``.  Grids of more than
    :data:`ASCII_CELL_LIMIT` positions are rejected.
    """
    if isinstance(obj, ColoredPolyomino):
        mapping: Mapping[Cell, int] | None = obj.mapping()
    elif isinstance(obj, Mapping):
        mapping = obj
    else:
        mapping = None
    cells: Iterable[Cell] = mapping if mapping is not None else (
        obj.cells if isinstance(obj, Polyomino) else obj
    )
    cells = set(cells)
    if not cells:
        raise LatticeError("nothing to render")
    if mapping is not None and any(c > 9 for c in mapping.values()):
        raise LatticeError("ASCII rendering supports colors 1..9 only")
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    left, top = min(xs), max(ys)
    width, height = max(xs) - left + 1, top - min(ys) + 1
    if width * height > ASCII_CELL_LIMIT:
        raise LatticeError(
            f"a {width}x{height} grid is too large to render as ASCII "
            f"(at most {ASCII_CELL_LIMIT} positions)"
        )
    glyphs = mapping if mapping is not None else dict.fromkeys(cells, "#")
    return "\n".join(
        "".join(str(glyphs.get((x, y), ".")) for x in range(left, left + width))
        for y in range(top, top - height, -1)
    )
