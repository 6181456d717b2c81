"""Cells, polyominoes, colorings, lattice geometry and lattice maps."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismatic import (
    ColoredPolyomino,
    Polyomino,
    apply_lattice_map,
    instance_cells,
    instances_of,
    is_connected,
    normalize,
    pick_quantities,
    random_polyomino,
)
from prismatic import lattice
from prismatic.lattice import (
    DisconnectedError,
    EmptySetError,
    LATTICE_MAPS,
    LatticeError,
    UnknownMapError,
)
from prismatic.shapes import LTROMINO, SQUARE, TEE, rectangle, straight, ziggurat

from goldens import SQUARE5_SHAPE, SQUARE5_TWOS, two_coloring


def random_shapes(max_size=16):
    """Strategy: seeded random connected shapes (pinch-free growth)."""
    return st.builds(
        lambda seed, size: random_polyomino(random.Random(seed), size),
        st.integers(0, 2**32 - 1),
        st.integers(1, max_size),
    )


def test_normalize_translates_to_origin_corner():
    p = normalize([(3, 5), (4, 5), (3, 6)])
    assert p.cells == ((0, 0), (0, 1), (1, 0))


def test_normalize_orders_cells_lexicographically():
    p = normalize([(1, 1), (0, 0), (0, 1), (1, 0)])
    assert p.cells == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_empty_set_rejected():
    with pytest.raises(EmptySetError):
        normalize([])
    with pytest.raises(EmptySetError):
        Polyomino(())


def test_disconnected_set_rejected():
    with pytest.raises(DisconnectedError):
        Polyomino(((0, 0), (2, 0)))
    assert not is_connected({(0, 0), (2, 0)})
    assert is_connected({(0, 0), (1, 0), (2, 0)})


def test_diagonal_contact_is_not_connected():
    assert not is_connected({(0, 0), (1, 1)})


def test_constructor_requires_canonical_cells():
    with pytest.raises(LatticeError):
        Polyomino(((0, 0), (0, 0), (1, 0)))  # duplicate
    with pytest.raises(LatticeError):
        Polyomino(((1, 0), (0, 0)))  # unsorted


def test_dimensions_and_len():
    p = normalize([(0, 0), (1, 0), (2, 0), (2, 1)])
    assert (p.width, p.height) == (3, 2)
    assert len(p) == 4
    assert (2, 1) in p


def test_square_instances_in_square_grid():
    # an (N+1) x (N+1) square holds N^2 square-tetromino instances
    for n in range(1, 5):
        grid = rectangle(n + 1, n + 1)
        vecs = instances_of(SQUARE, grid)
        assert len(vecs) == n * n
        assert vecs == sorted(vecs)


def test_straight_instances_count():
    assert len(instances_of(straight(3), straight(7))) == 5
    assert len(instances_of(straight(3), rectangle(7, 2))) == 10


def test_instance_vectors_are_actual_translates():
    shape = ziggurat(3)
    for vx, vy in instances_of(TEE, shape):
        assert {(x + vx, y + vy) for x, y in TEE.cells} <= shape.cell_set


def test_pattern_not_present():
    assert instances_of(SQUARE, straight(9)) == []


def test_instance_cells_reads_pattern_order():
    fig = two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS)
    table = instance_cells(SQUARE, fig.shape)
    ids = table[instances_of(SQUARE, fig.shape).index((0, 3))]
    assert [fig.shape.cells[i] for i in ids] == [(0, 3), (0, 4), (1, 3), (1, 4)]
    assert tuple(fig.colors[i] for i in ids) == (1, 2, 2, 1)


def test_colored_polyomino_validation():
    with pytest.raises(LatticeError):
        ColoredPolyomino(SQUARE, 2, (1, 2, 3, 1))  # color out of range
    with pytest.raises(LatticeError):
        ColoredPolyomino(SQUARE, 2, (1, 2, 1))  # wrong length


@pytest.mark.parametrize(
    "n, colors, ok",
    [(2, (1, 2), True), (2, (0, 1), False), (2, (2, 3), False), (3, (), True), (1, (1,), True)],
)
def test_check_colors_reads_any_iterable_once(n, colors, ok):
    mapping = dict(enumerate(colors))
    for given in (colors, list(colors), iter(colors), (c for c in colors), mapping.values()):
        if ok:
            ColoredPolyomino.check_colors(n, given)
        else:
            with pytest.raises(LatticeError, match=r"^colors must lie in 1\.\.n$"):
                ColoredPolyomino.check_colors(n, given)
    with pytest.raises(LatticeError, match="^need at least one color$"):
        ColoredPolyomino.check_colors(0, colors)


def test_colored_from_mapping_normalizes():
    cp = ColoredPolyomino.from_mapping({(5, 5): 1, (6, 5): 2}, 2)
    assert cp.shape.cells == ((0, 0), (1, 0))
    assert cp.mapping() == {(0, 0): 1, (1, 0): 2}


@settings(max_examples=100, deadline=None)
@given(
    random_shapes(),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
    st.integers(-40, -1),
    st.integers(-40, 40),
)
def test_colored_from_mapping_undoes_shuffle_and_translate(p, n, rng, dx, dy):
    colors = tuple(rng.randint(1, n) for _ in p.cells)
    items = [((x + dx, y + dy), c) for (x, y), c in zip(p.cells, colors)]
    rng.shuffle(items)
    cp = ColoredPolyomino.from_mapping(dict(items), n)
    assert (cp.shape, cp.n, cp.colors) == (p, n, colors)


def _ring(ox, oy):
    return [(x + ox, y + oy) for x in range(3) for y in range(3) if (x, y) != (1, 1)]


PICK_CASES = {
    "single-cell": ([(0, 0)], (1, 4, 0, 0)),
    "ring-with-hole": (_ring(0, 0), (8, 16, 0, 1)),
    "holed-square": (
        [(x, y) for x in range(6) for y in range(6) if not (2 <= x <= 3 and 2 <= y <= 3)],
        (32, 32, 16, 1),
    ),
    "checkerboard": (
        [(x, y) for x in range(5) for y in range(5) if (x + y) % 2 == 0],
        (13, 36, 0, 4),
    ),
    "rings-apart": (_ring(0, 0) + _ring(5, 0), (16, 32, 0, 2)),
    "rings-at-corner": (_ring(0, 0) + _ring(3, 3), (16, 31, 0, 2)),
    "far-pair": ([(0, 0), (1000, 1000)], (2, 8, 0, 0)),
}


@pytest.mark.parametrize("cells, expected", PICK_CASES.values(), ids=PICK_CASES.keys())
def test_pick_quantities(cells, expected):
    start = time.perf_counter()
    q = pick_quantities(cells)
    # the work grows with the cells, not with their bounding box
    assert time.perf_counter() - start < 0.5
    assert (q.area, q.boundary, q.interior, q.holes) == expected


def test_pick_quantities_straight_closed_form():
    for k in range(1, 12):
        q = pick_quantities(straight(k).cells)
        assert q.boundary == 2 * k + 2
        assert (q.interior, q.holes) == (0, 0)


def _bounded_complement_components(cells, lo, hi):
    """Brute force: 4-connected components of the uncovered cells of the
    box lo..hi (one wider than the cells all round) that miss its edge."""
    free = {(x, y) for x in range(lo, hi + 1) for y in range(lo, hi + 1)} - set(cells)
    bounded = 0
    while free:
        stack = [free.pop()]
        touches_edge = False
        while stack:
            x, y = stack.pop()
            touches_edge |= x in (lo, hi) or y in (lo, hi)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if (x + dx, y + dy) in free:
                    free.remove((x + dx, y + dy))
                    stack.append((x + dx, y + dy))
        bounded += not touches_edge
    return bounded


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1))
def test_pick_quantities_on_box_subsets(cells):
    q = pick_quantities(cells)
    assert q.area == len(cells)
    assert q.interior == len(instances_of(SQUARE, cells))
    assert q.holes == _bounded_complement_components(cells, -1, 6)


def test_pick_quantities_rejects_empty():
    with pytest.raises(EmptySetError):
        pick_quantities([])


def test_pinched_shape_documented_behavior():
    # at a pinch the boundary revisits a point: the point count drops one
    # below the edge count per pinch, and the half-boundary identity is
    # off by exactly half a pinch; the interior count stays exact
    pinched = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (2, 2), (1, 2)]
    q = pick_quantities(pinched)
    assert (q.area, q.boundary, q.interior, q.holes) == (7, 15, 0, 1)
    assert q.boundary / 2 == q.area + 1 - q.interior - q.holes + 0.5
    assert q.interior == len(instances_of(SQUARE, pinched))


@settings(max_examples=200, deadline=None)
@given(random_shapes())
def test_pick_identity_on_random_shapes(p):
    q = pick_quantities(p.cells)
    assert q.boundary / 2 == q.area + 1 - q.interior - q.holes


@settings(max_examples=200, deadline=None)
@given(random_shapes())
def test_interior_equals_square_instances(p):
    q = pick_quantities(p.cells)
    assert q.interior == len(instances_of(SQUARE, p))


@settings(max_examples=200, deadline=None)
@given(random_shapes(), st.integers(-7, 7), st.integers(-7, 7))
def test_pick_quantities_translation_invariant(p, dx, dy):
    moved = [(x + dx, y + dy) for x, y in p.cells]
    assert pick_quantities(moved) == pick_quantities(p.cells)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24))
def test_random_polyomino_contract(seed, size):
    p = random_polyomino(random.Random(seed), size)
    assert len(p) == size
    assert is_connected(p.cell_set)
    assert not any(lattice._corner_only(p.cell_set, x, y) for x, y in p.cells)


def test_random_polyomino_deterministic_per_seed():
    a = random_polyomino(random.Random(7), 12)
    b = random_polyomino(random.Random(7), 12)
    assert a == b


def _random_polyomino_rebuilt(rng, size):
    """Reference growth: rebuilds the sorted safe-cell list every step."""
    cells = {(0, 0)}
    frontier = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    while len(cells) < size:
        safe = [
            (x, y)
            for x, y in sorted(frontier)
            if not any(
                (x + dx, y + dy) in cells
                and (x + dx, y) not in cells
                and (x, y + dy) not in cells
                for dx in (-1, 1)
                for dy in (-1, 1)
            )
        ]
        pick = rng.choice(safe)
        cells.add(pick)
        frontier.discard(pick)
        x, y = pick
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (x + dx, y + dy)
            if nb not in cells:
                frontier.add(nb)
    return normalize(cells)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_random_polyomino_matches_rebuilt_reference(seed, size):
    fast, slow = random.Random(seed), random.Random(seed)
    assert random_polyomino(fast, size) == _random_polyomino_rebuilt(slow, size)
    # The same draws were made, so a shared stream stays in step.
    assert fast.getstate() == slow.getstate()


def test_unknown_lattice_map_rejected():
    with pytest.raises(UnknownMapError):
        apply_lattice_map({(0, 0)}, "rotate-90")


def test_row_shift_of_square_is_zee():
    from prismatic.shapes import ZEE

    assert normalize(apply_lattice_map(SQUARE.cell_set, "row-shift")) == ZEE


def test_row_shift_of_tee_is_ell():
    from prismatic.shapes import ELL

    assert normalize(apply_lattice_map(TEE.cell_set, "row-shift")) == ELL


def test_row_shift_fixes_rows():
    cells = ziggurat(4).cell_set
    shifted = apply_lattice_map(cells, "row-shift")
    for y in range(4):
        assert sum(1 for _, cy in cells if cy == y) == sum(
            1 for _, cy in shifted if cy == y
        )


def test_row_shift_carries_colors():
    cp = ColoredPolyomino(straight(3), 2, (1, 2, 1))
    image = apply_lattice_map(cp, "row-shift")
    assert image == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_skew_rotate_has_order_three():
    cells = frozenset(ziggurat(3).cells)
    out = cells
    for _ in range(3):
        out = apply_lattice_map(out, "skew-rotate")
    assert out == cells


def test_transpose_is_an_involution():
    cells = frozenset(LTROMINO.cells)
    assert apply_lattice_map(apply_lattice_map(cells, "transpose"), "transpose") == cells


@settings(max_examples=100, deadline=None)
@given(random_shapes(12))
def test_lattice_maps_are_cell_bijections(p):
    for name in LATTICE_MAPS:
        image = apply_lattice_map(p.cell_set, name)
        assert len(image) == len(p)
