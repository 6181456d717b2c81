"""JSON and ASCII serialization round trips."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prismatic import (
    ColoredPolyomino,
    ascii_render,
    colored_from_json,
    parse_json,
    random_polyomino,
    to_json,
)
from prismatic.formats import json_lines
from prismatic.lattice import LatticeError
from prismatic.shapes import LTROMINO, SQUARE, rectangle

from goldens import COCK3_GRID, SQUARE5_SHAPE, SQUARE5_TWOS, two_coloring


def test_json_round_trip_colored():
    fig = two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS)
    doc = to_json(fig)
    assert colored_from_json(doc) == fig


def test_json_layout():
    cp = ColoredPolyomino.from_mapping({(0, 0): 2, (1, 0): 1}, 2)
    doc = to_json(cp)
    assert doc["n"] == 2
    assert doc["cells"] == [
        {"x": 0, "y": 0, "color": 2},
        {"x": 1, "y": 0, "color": 1},
    ]


def test_json_uncolored_shape():
    doc = to_json(SQUARE)
    assert "n" not in doc
    assert all(set(c) == {"x", "y"} for c in doc["cells"])
    cells, n = parse_json(doc)
    assert n is None
    assert set(cells) == SQUARE.cell_set


def test_json_rejects_duplicates():
    doc = {
        "n": 2,
        "cells": [
            {"x": 0, "y": 0, "color": 1},
            {"x": 0, "y": 0, "color": 2},
            {"x": 1, "y": 0, "color": 1},
        ],
    }
    with pytest.raises(LatticeError):
        colored_from_json(doc)


def test_json_rejects_color_out_of_range():
    doc = {
        "n": 2,
        "cells": [{"x": 0, "y": 0, "color": 3}, {"x": 1, "y": 0, "color": 1}],
    }
    with pytest.raises(LatticeError):
        colored_from_json(doc)


def test_colored_from_json_normalizes():
    doc = {
        "n": 2,
        "cells": [{"x": 5, "y": 7, "color": 2}, {"x": 6, "y": 7, "color": 1}],
    }
    cp = colored_from_json(doc)
    assert cp.shape.cells == ((0, 0), (1, 0))
    assert cp.mapping()[(0, 0)] == 2


def test_ascii_render_golden_grid():
    from prismatic.cock import CockParams, cock_construct

    from goldens import COCK3_R0

    grid = cock_construct(CockParams(3, COCK3_R0, 0, tuple(range(1, 10))))
    assert ascii_render(grid) == COCK3_GRID


def test_ascii_render_uncolored_uses_hash_and_dot():
    art = ascii_render(LTROMINO)
    assert art == "#.\n##"


def test_ascii_render_top_row_first():
    cp = ColoredPolyomino.from_mapping({(0, 0): 1, (0, 1): 2}, 2)
    assert ascii_render(cp) == "2\n1"


def test_ascii_render_rejects_wide_palettes():
    cells = rectangle(10, 1)
    cp = ColoredPolyomino(cells, 10, tuple(range(1, 11)))
    with pytest.raises(LatticeError):
        ascii_render(cp)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 14), st.integers(1, 4))
def test_json_round_trip_random(seed, size, n):
    rng = random.Random(seed)
    shape = random_polyomino(rng, size)
    cp = ColoredPolyomino(shape, n, tuple(rng.randint(1, n) for _ in range(size)))
    assert colored_from_json(to_json(cp)) == cp


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 14), st.integers(1, 12), st.integers(0, 5))
@example(0, 12, 12, 3)
def test_json_lines_are_dumps_of_to_json(seed, size, n, count):
    # Colors past 9 take two digits in the line, as in json.dumps.
    rng = random.Random(seed)
    shape = random_polyomino(rng, size)
    colorings = [tuple(rng.randint(1, n) for _ in range(size)) for _ in range(count)]
    want = [json.dumps(to_json(ColoredPolyomino(shape, n, c))) for c in colorings]
    assert list(json_lines(shape, n, colorings)) == want
    assert list(json_lines(shape, n, iter(colorings))) == want


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 14))
def test_ascii_round_trip_shape_only(seed, size):
    # the uncolored render encodes the cell set exactly
    shape = random_polyomino(random.Random(seed), size)
    art = ascii_render(shape)
    rows = art.split("\n")
    height = len(rows)
    cells = {
        (x, height - 1 - r)
        for r, row in enumerate(rows)
        for x, ch in enumerate(row)
        if ch == "#"
    }
    assert cells == shape.cell_set
