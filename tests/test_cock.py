"""Parameterized grid construction, instance location, and counting."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismatic import (
    all_params,
    ascii_render,
    cock_construct,
    cock_count,
    cock_locate,
    enumerate_all_cyclic,
    instances_of,
    is_debruijn_coloring,
)
from prismatic.cock import (
    CockParams,
    InvalidColorError,
    InvalidParamsError,
    rows,
)
from prismatic.shapes import SQUARE

from goldens import COCK3_GRID, COCK3_R0

PARAMS2 = CockParams(2, (1, 1, 2, 2), 0, (1, 2, 3, 4))
PARAMS3 = CockParams(3, COCK3_R0, 0, tuple(range(1, 10)))


def brute_locate(params, w, x, y, z):
    """Independent oracle: scan the grid for the one matching instance."""
    grid = cock_construct(params)
    size = params.n * params.n
    hits = []
    m = grid.mapping()
    for vx, vy in instances_of(SQUARE, grid.shape):
        if (m[(vx, vy + 1)], m[(vx + 1, vy + 1)], m[(vx, vy)], m[(vx + 1, vy)]) == (
            w,
            x,
            y,
            z,
        ):
            hits.append((size - 1 - vy, vx + 1))
    assert len(hits) == 1
    return hits[0]


def test_three_color_grid_renders_exactly():
    assert ascii_render(cock_construct(PARAMS3)) == COCK3_GRID


def test_three_color_grid_verifies():
    assert is_debruijn_coloring(cock_construct(PARAMS3), SQUARE).valid


def test_two_color_grid_verifies():
    assert is_debruijn_coloring(cock_construct(PARAMS2), SQUARE).valid


def test_grid_shape_and_last_column():
    grid = cock_construct(PARAMS3)
    assert (grid.shape.width, grid.shape.height) == (10, 10)
    m = grid.mapping()
    for y in range(10):
        assert m[(9, y)] == m[(0, y)]  # last column repeats the first


def test_rows_are_rotations():
    words = rows(PARAMS3)
    assert len(words) == 10
    assert words[0] == COCK3_R0
    offset = 0
    for i, w in enumerate(words[1:], start=1):
        offset = (offset + PARAMS3.sigma[i - 1]) % 9
        assert w == tuple(COCK3_R0[(offset + j) % 9] for j in range(9))


def test_locate_golden_query():
    assert cock_locate(PARAMS3, 1, 2, 2, 1) == (6, 8)


def test_locate_matches_brute_force_everywhere():
    for params in (PARAMS2, PARAMS3):
        n = params.n
        for w, x, y, z in itertools.product(range(1, n + 1), repeat=4):
            assert cock_locate(params, w, x, y, z) == brute_locate(params, w, x, y, z)


def test_locate_single_color_grid():
    params = CockParams(1, (1,), 0, (1,))
    assert cock_locate(params, 1, 1, 1, 1) == (0, 1)


def test_locate_rejects_bad_colors():
    with pytest.raises(InvalidColorError):
        cock_locate(PARAMS2, 1, 2, 3, 1)
    with pytest.raises(InvalidColorError):
        cock_locate(PARAMS2, 0, 1, 1, 1)


def test_locate_vector_inverts_locate():
    params = PARAMS2
    grid = cock_construct(params)
    m = grid.mapping()
    for w, x, y, z in itertools.product((1, 2), repeat=4):
        i, j = cock_locate(params, w, x, y, z)
        vx, vy = j - 1, params.n * params.n - i - 1
        assert (m[(vx, vy + 1)], m[(vx + 1, vy + 1)], m[(vx, vy)], m[(vx + 1, vy)]) == (
            w,
            x,
            y,
            z,
        )


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        CockParams(2, (1, 2, 1, 2), 0, (1, 2, 3, 4))  # r0 not de Bruijn
    with pytest.raises(InvalidParamsError):
        CockParams(2, (1, 1, 2, 2), 4, (1, 2, 3, 4))  # start out of range
    with pytest.raises(InvalidParamsError):
        CockParams(2, (1, 1, 2, 2), 0, (1, 2, 3))  # sigma wrong length
    with pytest.raises(InvalidParamsError):
        CockParams(2, (1, 1, 2, 2), 0, (1, 2, 2, 4))  # sigma not a permutation


def test_params_json_round_trip():
    doc = PARAMS3.to_json()
    assert CockParams.from_json(doc) == PARAMS3


def test_count_values():
    assert cock_count(1) == 1
    assert cock_count(2) == 96
    assert cock_count(3) == 78382080


def test_param_family_size_and_distinctness():
    family = list(all_params(2))
    assert len(family) == cock_count(2) == 96
    assert len(set(family)) == 96


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_random_params_construct_valid_colorings(seed, n):
    rng = random.Random(seed)
    r0 = rng.choice(enumerate_all_cyclic(n, 2)).symbols
    size = n * n
    start = rng.randrange(size)
    sigma = tuple(rng.sample(range(1, size + 1), size))
    params = CockParams(n, r0, start, sigma)
    grid = cock_construct(params)
    assert is_debruijn_coloring(grid, SQUARE).valid
    # locate agrees with the grid on a few random queries
    for _ in range(5):
        w, x, y, z = (rng.randint(1, n) for _ in range(4))
        assert cock_locate(params, w, x, y, z) == brute_locate(params, w, x, y, z)
