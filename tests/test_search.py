"""Verifier, exhaustive coloring search, census, min-size and transport."""

import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prismatic import (
    ColoredPolyomino,
    bijection_check,
    count_acyclic,
    enumerate_prismatic_colorings,
    has_prismatic_coloring,
    instance_cells,
    instance_graph,
    instances_of,
    is_acyclic_debruijn,
    is_connected,
    is_debruijn_coloring,
    min_size_with_instances,
    normalize,
    random_polyomino,
    transport_coloring,
)
from prismatic.cli import run
from prismatic.lattice import _moved
from prismatic.search import (
    DEFAULT_NODE_LIMIT,
    MISSING_SHOWN,
    BudgetExceededError,
    NoWitnessError,
    SearchError,
    _cell_table,
    _growth_box,
    _least_size,
    _node_limit,
    _redelmeier_witnesses,
    _run_search,
    _shape_group,
    _stabilizer,
    shape_census,
)
from prismatic.shapes import (
    ELL,
    LTROMINO,
    SQUARE,
    TEE,
    ZEE,
    pyramid_trimmed,
    rectangle,
    straight,
    ziggurat,
)

from goldens import (
    BAR19_TWO_POSITIONS,
    CENSUS13_COUNTS,
    CENSUS13_ROWSPANS,
    CYC16,
    ELL_STAIR_SHAPE,
    ELL_STAIR_TWOS,
    HOLED_ONES,
    HOLED_SHAPE,
    SQUARE5_SHAPE,
    SQUARE5_TWOS,
    TRUNC13_SHAPE,
    TRUNC13_TWOS,
    ZEE_STAIR_SHAPE,
    ZIG5_SHAPE,
    ZIG5_TEE_TWOS,
    shape_from_rows,
    two_coloring,
)

SHAPE_A = shape_from_rows(CENSUS13_ROWSPANS["A"])
SHAPE_B = shape_from_rows(CENSUS13_ROWSPANS["B"])


def test_verifier_accepts_known_colorings():
    cases = [
        (two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS), SQUARE),
        (two_coloring(ZIG5_SHAPE, ZIG5_TEE_TWOS), TEE),
        (two_coloring(ELL_STAIR_SHAPE, ELL_STAIR_TWOS), ELL),
        (two_coloring(TRUNC13_SHAPE, TRUNC13_TWOS), LTROMINO),
    ]
    for colored, pattern in cases:
        res = is_debruijn_coloring(colored, pattern)
        assert res.valid
        assert bool(res)
        assert res.instance_count == colored.n ** len(pattern)
        assert res.missing == () and res.duplicated == ()


def test_verifier_accepts_holed_shape():
    colored = ColoredPolyomino(
        HOLED_SHAPE,
        2,
        tuple(1 if c in HOLED_ONES else 2 for c in HOLED_SHAPE.cells),
    )
    assert is_debruijn_coloring(colored, SQUARE).valid


def test_verifier_accepts_bar_coloring():
    bar = straight(19)
    colored = ColoredPolyomino(
        bar,
        2,
        tuple(2 if i + 1 in BAR19_TWO_POSITIONS else 1 for i in range(19)),
    )
    assert is_debruijn_coloring(colored, straight(4)).valid
    word = colored.colors
    assert is_acyclic_debruijn(word, 2, 4)
    assert word == CYC16 + CYC16[:3]


def test_verifier_certificate_on_broken_coloring():
    fig = two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS)
    flipped = tuple(
        3 - c if i == 0 else c for i, c in enumerate(fig.colors)
    )
    res = is_debruijn_coloring(ColoredPolyomino(fig.shape, 2, flipped), SQUARE)
    assert not res.valid
    assert not bool(res)
    assert res.missing and res.duplicated


def test_verifier_counts_instances_when_count_is_wrong():
    colored = ColoredPolyomino(rectangle(3, 3), 2, (1,) * 9)
    res = is_debruijn_coloring(colored, SQUARE)
    assert not res.valid
    assert res.instance_count == 4


def test_enumerate_small_exact_counts():
    assert len(enumerate_prismatic_colorings(SHAPE_A, LTROMINO, 2)) == 8
    assert len(enumerate_prismatic_colorings(SHAPE_B, LTROMINO, 2)) == 28


def test_enumerate_returns_lexicographic_row_major_order():
    sols = enumerate_prismatic_colorings(SHAPE_A, LTROMINO, 2)
    order = sorted(range(len(SHAPE_A.cells)), key=lambda i: (-SHAPE_A.cells[i][1], SHAPE_A.cells[i][0]))
    words = [tuple(s.colors[i] for i in order) for s in sols]
    assert words == sorted(words)


def test_enumerate_solutions_all_verify_and_are_distinct():
    sols = enumerate_prismatic_colorings(SHAPE_A, LTROMINO, 2)
    assert len(set(sols)) == len(sols)
    for s in sols:
        assert is_debruijn_coloring(s, LTROMINO).valid


def test_enumerate_short_circuits_on_instance_count():
    # 4x4 square has 9 L-tromino instances, not 2^3 = 8
    assert enumerate_prismatic_colorings(rectangle(4, 4), LTROMINO, 2) == []
    assert not has_prismatic_coloring(rectangle(4, 4), LTROMINO, 2)
    assert has_prismatic_coloring(SHAPE_A, LTROMINO, 2)


def test_enumerate_trivial_single_color():
    # n = 1: the all-1 coloring works iff the instance count is 1
    sols = enumerate_prismatic_colorings(SQUARE, SQUARE, 1)
    assert len(sols) == 1
    assert sols[0].colors == (1, 1, 1, 1)


def test_straight_bridge_counts():
    sols = enumerate_prismatic_colorings(straight(10), straight(3), 2)
    assert len(sols) == count_acyclic(2, 3) == 16
    for s in sols:
        assert is_acyclic_debruijn(s.colors, 2, 3)


def test_search_budget_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_prismatic_colorings(SQUARE5_SHAPE, SQUARE, 2, node_limit=50)


def test_search_config_env_override(monkeypatch):
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "12345")
    assert _node_limit(None) == 12345
    assert _node_limit(50) == 50
    monkeypatch.delenv("PRISMATIC_NODE_LIMIT")
    assert _node_limit(None) == 200_000_000


def test_min_size_square_single_instance():
    size, witnesses = min_size_with_instances(SQUARE, 1, 6)
    assert size == 4
    assert witnesses == [SQUARE]


def test_min_size_square_four_instances():
    size, witnesses = min_size_with_instances(SQUARE, 4, 10)
    assert size == 9
    assert witnesses == [rectangle(3, 3)]


def test_min_size_tee():
    size, witnesses = min_size_with_instances(TEE, 1, 6)
    assert (size, witnesses) == (4, [TEE])
    size, witnesses = min_size_with_instances(TEE, 4, 10)
    assert (size, witnesses) == (9, [ziggurat(3)])


def test_min_size_straight_formula():
    # k-cell bar with N instances needs N + k - 1 cells, bar witness
    for k, n_inst in [(2, 3), (3, 4), (4, 4)]:
        size, witnesses = min_size_with_instances(straight(k), n_inst, n_inst + k + 1)
        assert size == n_inst + k - 1
        assert straight(size) in witnesses


def test_min_size_no_witness_below_cap():
    with pytest.raises(NoWitnessError):
        min_size_with_instances(SQUARE, 4, 8)


def test_instance_graph_connected():
    g = instance_graph(rectangle(3, 3), SQUARE)
    assert len(g.vectors) == 4
    assert g.is_connected()


def test_instance_graph_disconnected():
    dumbbell = normalize(
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (4, 0), (5, 0), (4, 1), (5, 1)]
    )
    g = instance_graph(dumbbell, SQUARE)
    assert len(g.vectors) == 2
    assert not g.is_connected()


def test_instance_graph_edges_share_cells():
    g = instance_graph(rectangle(3, 3), SQUARE)
    for i, j in g.edges:
        a, b = g.vectors[i], g.vectors[j]
        cells_a = {(x + a[0], y + a[1]) for x, y in SQUARE.cells}
        cells_b = {(x + b[0], y + b[1]) for x, y in SQUARE.cells}
        assert cells_a & cells_b


def test_transport_coloring_preserves_validity():
    fig = two_coloring(ZIG5_SHAPE, ZIG5_TEE_TWOS)
    image = transport_coloring(fig, "row-shift")
    assert is_debruijn_coloring(image, ELL).valid


def test_transport_pair_matches_stored_coloring():
    fig = two_coloring(ZIG5_SHAPE, ZIG5_TEE_TWOS)
    assert transport_coloring(fig, "row-shift") == two_coloring(
        ELL_STAIR_SHAPE, ELL_STAIR_TWOS
    )


def test_bijection_check_small():
    sols = enumerate_prismatic_colorings(SHAPE_A, LTROMINO, 2)
    # transpose fixes the L tromino, so it must carry solutions to
    # solutions of the transposed shape, distinctly
    assert bijection_check("transpose", sols, LTROMINO, LTROMINO)
    assert bijection_check("skew-rotate", sols, LTROMINO, LTROMINO)


def test_transpose_carries_square_solutions_onto_square_solutions():
    # transpose fixes SQUARE and the 5x5 box, so it permutes the 800
    # colorings of rect:5x5 among themselves
    sols = enumerate_prismatic_colorings(rectangle(5, 5), SQUARE, 2)
    assert len(sols) == 800
    images = [transport_coloring(c, "transpose") for c in sols]
    assert set(images) == set(sols)
    assert images != sols
    assert bijection_check("transpose", sols, SQUARE, SQUARE)


@pytest.mark.parametrize(
    "pattern, n, size, box, expected",
    [
        # one color: a shape qualifies iff it has exactly one instance
        (SQUARE, 1, 4, (2, 2), [(SQUARE, 1)]),
        # the bar's colorings are the 4 acyclic de Bruijn sequences
        (straight(2), 2, 5, (5, 1), [(straight(5), count_acyclic(2, 2))]),
        # the box only bounds the shapes; no 5-cell shape is wider than 5
        (straight(2), 2, 5, (1000, 1000), [(straight(5), count_acyclic(2, 2))]),
    ],
    ids=["one-color", "bar", "bar-in-huge-box"],
)
def test_census_and_minimal_shapes(pattern, n, size, box, expected):
    assert shape_census(pattern, n, size, box) == expected


def test_census_empty_when_no_shape_qualifies():
    # the 3x3 square has 4 square instances, 2 colors need 16
    assert shape_census(SQUARE, 2, 9, (3, 3)) == []


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4))
def test_bar_enumeration_matches_acyclic_count(k):
    # straight pattern of length k over n=2 on the bar of matching size
    total = 2**k + k - 1
    sols = enumerate_prismatic_colorings(straight(total), straight(k), 2)
    assert len(sols) == count_acyclic(2, k)


SMALL_PATTERNS = [straight(2), normalize([(0, 0), (0, 1)]), straight(3), LTROMINO]


@st.composite
def grown_shapes(draw, min_size=3, max_size=9):
    """A polyomino grown cell by cell from the origin."""
    cells = {(0, 0)}
    for _ in range(draw(st.integers(min_size, max_size)) - 1):
        frontier = sorted(
            {(x + dx, y + dy) for x, y in cells for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
            - cells
        )
        cells.add(draw(st.sampled_from(frontier)))
    return normalize(cells)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.sampled_from(SMALL_PATTERNS + [SQUARE, TEE]))
def test_instance_cells_agree_with_instances_of(seed, size, pattern):
    shape = random_polyomino(random.Random(seed), size)
    table = instance_cells(pattern, shape)
    vecs = instances_of(pattern, shape)
    assert len(table) == len(vecs)
    for ids, (vx, vy) in zip(table, vecs):
        assert [shape.cells[i] for i in ids] == [(x + vx, y + vy) for x, y in pattern.cells]


BOUND_PATTERNS = [
    SQUARE, ZEE, TEE, ELL, LTROMINO, straight(2), straight(3), straight(4), normalize([(0, 0), (0, 1)])
]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from(BOUND_PATTERNS))
def test_instances_leave_a_cell_per_row_and_column(seed, size, pattern):
    # The growth box clamp: a pattern two or more cells wide never puts
    # the left cell of its side-by-side pair on the last cell of a row,
    # and a connected shape has no empty row; columns likewise.
    shape = random_polyomino(random.Random(seed), size)
    count = len(instances_of(pattern, shape))
    if pattern.width > 1:
        assert count <= size - shape.height
    if pattern.height > 1:
        assert count <= size - shape.width
    # The counting bound min-size starts from: past the last anchor lie
    # the other cells of its instance.
    assert not count or count <= len(shape) - len(pattern) + 1


def _fitting_pattern(shape, n):
    """The first small pattern with exactly n**k instances in ``shape``."""
    return next(
        (p for p in SMALL_PATTERNS if len(instances_of(p, shape)) == n ** len(p)),
        SMALL_PATTERNS[0],
    )


@settings(max_examples=40, deadline=None)
@given(grown_shapes())
@example(SHAPE_A)
def test_search_matches_brute_force(shape):
    pattern = _fitting_pattern(shape, 2)
    order = sorted(range(len(shape.cells)), key=lambda i: (-shape.cells[i][1], shape.cells[i][0]))
    expected = []
    for word in itertools.product((1, 2), repeat=len(shape.cells)):
        colors = [0] * len(word)
        for i, c in zip(order, word):
            colors[i] = c
        colored = ColoredPolyomino(shape, 2, tuple(colors))
        if is_debruijn_coloring(colored, pattern).valid:
            expected.append(colored)
    assert enumerate_prismatic_colorings(shape, pattern, 2) == expected


@settings(max_examples=40, deadline=None)
@given(grown_shapes(max_size=12), st.integers(1, 3))
@example(straight(10), 3)
@example(normalize([(x, 0) for x in range(6)] + [(x, 1) for x in range(5)]), 3)
def test_solutions_closed_under_color_permutation(shape, n):
    pattern = _fitting_pattern(shape, n)
    sols = enumerate_prismatic_colorings(shape, pattern, n)
    assert len(sols) % math.factorial(n) == 0
    found = set(sols)
    for perm in itertools.permutations(range(1, n + 1)):
        image = {ColoredPolyomino(s.shape, n, tuple(perm[c - 1] for c in s.colors)) for s in sols}
        assert image == found


@pytest.mark.parametrize(
    "shape, pattern, count, nodes",
    [
        (rectangle(5, 5), SQUARE, 800, 13_061),
        (ziggurat(5), TEE, 168, 17_163),
        (ZEE_STAIR_SHAPE, ZEE, 800, 13_061),
    ],
)
def test_search_node_count_regression(shape, pattern, count, nodes):
    # 223,978 and 238,994 nodes without the color-symmetry and
    # prefix-count cuts; the color symmetry alone halves them at n = 2,
    # to 40,271 (the square and the zee) and 32,381.  The lattice maps cut
    # the rest, in either orientation.
    for g in (SYMMETRIES[0], TRANSPOSE):
        turned, turned_pattern = _turned(g, shape), _turned(g, pattern)
        assert _run_search(turned, turned_pattern, 2, 10**9)[1] == nodes
        assert len(enumerate_prismatic_colorings(turned, turned_pattern, 2)) == count


# The 8 symmetries of the square lattice, as matrices (a, b, c, d) of
# (x, y) -> (a x + b y, c x + d y); the last is the transpose.
SYMMETRIES = [
    (1, 0, 0, 1),
    (0, -1, 1, 0),
    (-1, 0, 0, -1),
    (0, 1, -1, 0),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, -1, -1, 0),
    (0, 1, 1, 0),
]
TRANSPOSE = SYMMETRIES[-1]


def _turned(g, shape):
    a, b, c, d = g
    return normalize((a * x + b * y, c * x + d * y) for x, y in shape.cells)


def _turned_coloring(g, colored):
    a, b, c, d = g
    mapping = {(a * x + b * y, c * x + d * y): col for (x, y), col in colored.mapping().items()}
    return ColoredPolyomino.from_mapping(mapping, colored.n)


def _row_major_word(colored):
    top_first = sorted(colored.mapping().items(), key=lambda kv: (-kv[0][1], kv[0][0]))
    return [col for _, col in top_first]


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        lambda seed, size: random_polyomino(random.Random(seed), size),
        st.integers(0, 2**32 - 1),
        st.integers(2, 11),
    ),
    st.integers(1, 3),
)
@example(SHAPE_A, 2)
@example(straight(10), 3)
@example(normalize([(x, 0) for x in range(6)] + [(x, 1) for x in range(5)]), 3)
def test_enumeration_commutes_with_orientation(shape, n):
    # Each orientation may be searched in its own scan order; the
    # colorings are the turned ones, in row-major lexicographic order.
    pattern = _fitting_pattern(shape, n)
    sols = enumerate_prismatic_colorings(shape, pattern, n)
    for g in SYMMETRIES:
        turned = enumerate_prismatic_colorings(_turned(g, shape), _turned(g, pattern), n)
        assert set(turned) == {_turned_coloring(g, s) for s in sols}
        assert turned == sorted(turned, key=_row_major_word)


@pytest.mark.parametrize("g", SYMMETRIES)
def test_three_color_rect_4x10_is_cheap_in_every_orientation(g):
    # Row-major order took 1,799,006 nodes on rect(4, 10) and 529,148 on
    # its transpose; the estimated cheapest order takes 155 on both.
    assert has_prismatic_coloring(
        _turned(g, rectangle(4, 10)), _turned(g, LTROMINO), 3, node_limit=1000
    )


def test_transposed_ziggurat_search_node_count():
    # 37,751 nodes in row-major order, 32,381 with the color symmetry
    # alone.
    shape, pattern = _turned(TRANSPOSE, ziggurat(5)), _turned(TRANSPOSE, TEE)
    words, nodes, _ = _run_search(shape, pattern, 2, 10**9)
    assert (len(enumerate_prismatic_colorings(shape, pattern, 2)), nodes) == (168, 17_163)
    # The colorings come back in cell order, whatever order the search took.
    for word in words:
        assert is_debruijn_coloring(ColoredPolyomino(shape, 2, word), pattern)


def test_census_search_node_total():
    # The 196 census shapes of 14 cells in 5x5 took 129,394 nodes in
    # row-major order, and 110,826 before the lattice maps cut.
    shapes, _ = _redelmeier_witnesses(LTROMINO, 14, (5, 5), 8, 8, DEFAULT_NODE_LIMIT)
    assert len(shapes) == 196
    assert sum(_run_search(s, LTROMINO, 2, 10**9)[1] for s in shapes) == 108_404


ALL_ISOMETRIES = set(SYMMETRIES)


@pytest.mark.parametrize(
    "pattern, size",
    [(SQUARE, 8), (TEE, 2), (ZEE, 8), (ELL, 2), (LTROMINO, 6), (straight(1), 8), (straight(3), 4)],
    ids=["square", "tee", "zee", "ell", "ltromino", "straight-1", "straight-3"],
)
def test_pattern_stabilizer(pattern, size):
    maps = _stabilizer(pattern)
    assert len(maps) == len(set(maps)) == size
    assert maps[0] == (1, 0, 0, 1)
    for m in maps:
        a, b, c, d = m
        assert abs(a * d - b * c) == 1
        # The image of the pattern is a translate of it, so it is connected.
        assert _turned(m, pattern) == pattern
    # No other map with small entries fixes the pattern; a bar is fixed by
    # shears too, and only its isometries are kept.
    small = itertools.product(range(-3, 4), repeat=4)
    fixing = {m for m in small if abs(m[0] * m[3] - m[1] * m[2]) == 1 and _fixes(m, pattern)}
    if pattern.height == 1:
        fixing &= ALL_ISOMETRIES
    assert set(maps) == fixing


def _fixes(m, pattern):
    a, b, c, d = m
    image = [(a * x + b * y, c * x + d * y) for x, y in pattern.cells]
    mx, my = min(x for x, _ in image), min(y for _, y in image)
    return sorted((x - mx, y - my) for x, y in image) == list(pattern.cells)


def test_zee_stair_has_the_squares_group():
    # The row-shift conjugates of the square's 8 symmetries fix the zee
    # stair, the row-shift image of the 5x5 box.
    assert len(_shape_group(rectangle(5, 5), SQUARE)) == 7
    assert len(_shape_group(ZEE_STAIR_SHAPE, ZEE)) == 7
    assert len(_shape_group(ziggurat(5), TEE)) == 1


def _census_shapes(size):
    return _redelmeier_witnesses(LTROMINO, size, (5, 5), 8, 8, DEFAULT_NODE_LIMIT)[0]


def _brute_force(shape, pattern, n):
    """Every n-coloring of ``shape`` whose instances read distinct words,
    in row-major order; with exactly n**k instances those are the de
    Bruijn ones."""
    table = instance_cells(pattern, shape)
    if len(table) != n ** len(pattern):
        return []
    reads = [operator.itemgetter(*ids) for ids in table]
    found = [
        colors
        for colors in itertools.product(range(1, n + 1), repeat=len(shape))
        if len({read(colors) for read in reads}) == len(reads)
    ]
    return sorted(
        (ColoredPolyomino(shape, n, colors) for colors in found), key=_row_major_word
    )


def test_symmetric_shapes_match_brute_force():
    shapes = _census_shapes(13) + [s for s in _census_shapes(14) if _shape_group(s, LTROMINO)]
    cases = [(s, LTROMINO) for s in shapes] + [(straight(10), straight(3))]
    assert len(cases) == 9 + 18 + 1
    for shape, pattern in cases:
        expected = _brute_force(shape, pattern, 2)
        assert enumerate_prismatic_colorings(shape, pattern, 2) == expected
        assert all(is_debruijn_coloring(c, pattern) for c in expected)


def _symmetrized(shape, axis):
    """``shape`` together with its mirror image in the line x = 0
    (axis 0) or y = 0 (axis 1); the two share that column or row."""
    if axis == 0:
        return normalize(set(shape.cells) | {(-x, y) for x, y in shape.cells})
    return normalize(set(shape.cells) | {(x, -y) for x, y in shape.cells})


@settings(max_examples=40, deadline=None)
@given(st.builds(_symmetrized, grown_shapes(max_size=7), st.integers(0, 1)), st.integers(1, 3))
@example(rectangle(5, 5), 2)
@example(ZEE_STAIR_SHAPE, 2)
@example(ziggurat(5), 2)
@example(ELL_STAIR_SHAPE, 2)
@example(straight(10), 3)
@example(next(s for s in _census_shapes(14) if _shape_group(s, LTROMINO)), 2)
def test_enumeration_is_closed_under_the_shapes_maps(shape, n):
    patterns = [ZEE, TEE, ELL, *SMALL_PATTERNS, SQUARE]
    pattern = next((p for p in patterns if len(instances_of(p, shape)) == n ** len(p)), SQUARE)
    found = set(enumerate_prismatic_colorings(shape, pattern, n))
    for m in _stabilizer(pattern):
        if _fixes(m, shape):
            assert {_turned_coloring(m, c) for c in found} == found
    for perm in itertools.permutations(range(1, n + 1)):
        renamed = {ColoredPolyomino(shape, n, tuple(perm[c - 1] for c in s.colors)) for s in found}
        assert renamed == found


@pytest.mark.parametrize(
    "shape, pattern, kept, nodes, count",
    [(rectangle(5, 5), SQUARE, 50, 13_061, 800), (ziggurat(5), TEE, 42, 17_163, 168)],
)
def test_search_keeps_one_word_per_orbit(shape, pattern, kept, nodes, count):
    # The lex-leader cut left 62 words on the 5x5; the leaf test keeps
    # one per orbit, tries no more nodes, and leaves the first word as it
    # was.
    words, tried, orbits = _run_search(shape, pattern, 2, 10**9)
    assert (len(words), tried, sum(orbits)) == (kept, nodes, count)
    assert _run_search(shape, pattern, 2, 10**9, solution_cap=1)[0] == words[:1]


@settings(max_examples=40, deadline=None)
@given(st.builds(_symmetrized, grown_shapes(max_size=7), st.integers(0, 1)), st.integers(2, 3))
@example(rectangle(5, 5), 2)
@example(ZEE_STAIR_SHAPE, 2)
@example(ziggurat(5), 2)
@example(ELL_STAIR_SHAPE, 2)
@example(straight(10), 3)
@example(next(s for s in _census_shapes(14) if _shape_group(s, LTROMINO)), 2)
def test_kept_words_are_the_least_of_distinct_orbits(shape, n):
    patterns = [ZEE, TEE, ELL, *SMALL_PATTERNS, SQUARE]
    pattern = next((p for p in patterns if len(instances_of(p, shape)) == n ** len(p)), SQUARE)
    words, _, orbits = _run_search(shape, pattern, n, 10**9)
    table = _cell_table(shape, pattern, n)
    order = table[0] if table else []
    # Brute force: every map of the pattern that fixes the shape, then
    # every color permutation.
    maps = [m for m in _stabilizer(pattern) if _fixes(m, shape)]
    perms = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    for word, size in zip(words, orbits):
        moved = {_turned_coloring(m, ColoredPolyomino(shape, n, word)).colors for m in maps}
        orbit = {tuple(p[c - 1] for c in w) for w in moved for p in perms}
        scan = [tuple(w[i] for i in order) for w in orbit]
        assert min(scan) == tuple(word[i] for i in order)
        assert not orbit & seen
        assert size == len(orbit)
        seen |= orbit
    found = enumerate_prismatic_colorings(shape, pattern, n)
    assert sum(orbits) == len(found)
    assert seen == {c.colors for c in found}


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(grown_shapes(), st.builds(_symmetrized, grown_shapes(max_size=7), st.integers(0, 1))),
    st.sampled_from([SQUARE, ZEE, TEE, ELL, LTROMINO, straight(1), straight(3)]),
)
@example(rectangle(5, 5), SQUARE)
@example(ZEE_STAIR_SHAPE, ZEE)
@example(ziggurat(5), TEE)
@example(straight(10), straight(3))
def test_shape_group_permutations(shape, pattern):
    expected = set()
    for m in _stabilizer(pattern):
        if _fixes(m, shape):
            a, b, c, d = m
            image = [(a * x + b * y, c * x + d * y) for x, y in shape.cells]
            # The image is a translate of the shape, so its least cell
            # lands on the shape's least cell.
            ix, iy = min(image)
            tx, ty = shape.cells[0][0] - ix, shape.cells[0][1] - iy
            expected.add(tuple(shape.cells.index((x + tx, y + ty)) for x, y in image))
    expected.discard(tuple(range(len(shape.cells))))
    assert _shape_group(shape, pattern) == tuple(sorted(expected))


@pytest.mark.parametrize("size", [13, 14])
def test_census_counts_match_direct_enumeration(size):
    census = shape_census(LTROMINO, 2, size, (5, 5))
    assert [s for s, _ in census] == _census_shapes(size)
    for shape, count in census:
        assert count == len(enumerate_prismatic_colorings(shape, LTROMINO, 2))


def test_three_color_square_ten_by_ten_exists():
    assert has_prismatic_coloring(rectangle(10, 10), SQUARE, 3)


@pytest.mark.parametrize("threads", [1, 2])
def test_node_budget_is_exact_for_every_thread_count(threads, capsys, monkeypatch):
    # 13,061 colors are tried on the 5x5 square; --threads leaves the count as it is.
    argv = ["enumerate", "--shape", "rect:5x5", "--pattern", "square", "--colors", "2", "--threads", str(threads)]
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "13061")
    assert run(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 800
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "13060")
    assert run(argv) == 3
    assert capsys.readouterr() == ("", "budget exceeded: search exceeded the 13060 node budget\n")


def test_verifier_lists_the_first_missing_words():
    fig = two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS)
    flipped = tuple(3 - c if i == 0 else c for i, c in enumerate(fig.colors))
    colored = ColoredPolyomino(fig.shape, 2, flipped)
    res = is_debruijn_coloring(colored, SQUARE)
    color = colored.mapping()
    seen = {
        tuple(color[(px + vx, py + vy)] for px, py in SQUARE.cells)
        for vx, vy in instances_of(SQUARE, colored.shape)
    }
    missing = [w for w in itertools.product((1, 2), repeat=4) if w not in seen]
    assert res.missing_count == len(missing) > 0
    assert list(res.missing) == missing[:MISSING_SHOWN]


def test_verifier_counts_missing_words_without_building_them():
    # 60**4 = 12,960,000 square colorings, none realized by a domino.
    colored = ColoredPolyomino(straight(2), 60, (1, 2))
    res = is_debruijn_coloring(colored, SQUARE)
    assert not res.valid
    assert res.missing_count == 12_960_000
    assert res.missing == tuple((1, 1, 1, c) for c in range(1, MISSING_SHOWN + 1))


@pytest.mark.parametrize("n", [0, -1])
def test_searches_reject_nonpositive_colors(n):
    calls = [
        lambda: enumerate_prismatic_colorings(SHAPE_A, LTROMINO, n),
        lambda: has_prismatic_coloring(SHAPE_A, LTROMINO, n),
        lambda: shape_census(LTROMINO, n, 3, (2, 2)),
    ]
    for call in calls:
        with pytest.raises(SearchError, match="need n >= 1"):
            call()


def _scan_candidates(pattern, size, bbox, need, most):
    """Oracle for growth: every size-cell subset of the box as a bitmask,
    kept when it holds ``need`` to ``most`` instances and is connected."""
    width, height = bbox
    vec_masks = [
        sum(1 << (px + vx + width * (py + vy)) for px, py in pattern.cells)
        for vy in range(height - pattern.height + 1)
        for vx in range(width - pattern.width + 1)
    ]
    forms = set()
    for comb in itertools.combinations(range(width * height), size):
        mask = sum(1 << b for b in comb)
        if need <= sum(mask & im == im for im in vec_masks) <= most:
            cells = [(b % width, b // width) for b in comb]
            if is_connected(cells):
                forms.add(normalize(cells))
    return sorted(forms, key=lambda s: s.cells)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL_PATTERNS),
    st.integers(1, 2),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 16),
)
@example(LTROMINO, 2, 4, 4, 14)
@example(straight(3), 2, 4, 4, 16)
@example(SMALL_PATTERNS[1], 2, 3, 4, 8)
@example(LTROMINO, 1, 3, 2, 4)
@example(LTROMINO, 2, 4, 4, 11)
@example(LTROMINO, 1, 4, 4, 4)
def test_growth_matches_subset_scan(pattern, n, width, height, size):
    target = n ** len(pattern)
    expected = _scan_candidates(pattern, size, (width, height), target, target)
    grown, _ = _redelmeier_witnesses(
        pattern, size, (width, height), target, target, DEFAULT_NODE_LIMIT
    )
    assert grown == expected
    admitting = [s for s in expected if has_prismatic_coloring(s, pattern, n)]
    assert [s for s, _ in shape_census(pattern, n, size, (width, height))] == admitting


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_PATTERNS + [SQUARE, TEE]),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(1, 16),
    st.integers(0, 12),
    st.integers(0, 12),
)
# The dead-cell cut fires in each of these, and in each it also ends a
# level: the cells occupied and banned before a failing child fail alone.
@example(SQUARE, 4, 4, 12, 6, 48)
@example(SQUARE, 4, 4, 13, 9, 9)
@example(TEE, 4, 4, 11, 4, 4)
@example(TEE, 4, 4, 12, 5, 48)
@example(LTROMINO, 4, 4, 13, 8, 39)
@example(straight(3), 4, 4, 12, 6, 6)
@example(TEE, 3, 4, 10, 3, 3)
@example(TEE, 4, 3, 11, 2, 5)
@example(SMALL_PATTERNS[1], 4, 4, 8, 5, 7)
@example(straight(3), 4, 3, 12, 6, 12)
@example(SQUARE, 3, 4, 11, 4, 5)
@example(LTROMINO, 3, 4, 9, 4, 20)
# Row ends alone cut a branch in each of these: its dead cells pass the
# test, their union with the rows' rightmost cells fails it.
@example(straight(2), 3, 4, 7, 3, 3)
@example(LTROMINO, 3, 3, 5, 2, 2)
@example(SQUARE, 3, 3, 6, 2, 4)
@example(TEE, 4, 2, 6, 2, 3)
# Here row ends also end a level that the dead cells alone would not.
@example(LTROMINO, 3, 4, 6, 2, 2)
def test_growth_matches_subset_scan_for_any_instance_range(pattern, width, height, size, a, b):
    need, most = sorted((a, b))
    grown, _ = _redelmeier_witnesses(pattern, size, (width, height), need, most, DEFAULT_NODE_LIMIT)
    assert grown == _scan_candidates(pattern, size, (width, height), need, most)


def test_growth_with_no_instance_bound_counts_fixed_polyominoes():
    # With one-cell instances and need 0 nothing is cut: growth lists
    # every fixed polyomino once (OEIS A001168).
    counts = [
        len(_redelmeier_witnesses(straight(1), s, (s, s), 0, s, DEFAULT_NODE_LIMIT)[0])
        for s in range(1, 10)
    ]
    assert counts == [1, 2, 6, 19, 63, 216, 760, 2725, 9910]


def _min_size(pattern, count, cap):
    return lambda limit: min_size_with_instances(pattern, count, cap, node_limit=limit)


def _grown(size):
    return lambda limit: _redelmeier_witnesses(LTROMINO, size, (5, 5), 8, 8, limit)


def _grown_at_first_size(pattern, count, size):
    # Growth at min-size's first size: for the L-tromino, the search
    # that the closed form stands in for.
    return lambda limit: _redelmeier_witnesses(
        pattern, size, (size, size), count, len(pattern) * size, limit
    )


@pytest.mark.parametrize(
    "query, cells",
    [
        (_grown_at_first_size(LTROMINO, 8, 13), 1_809),
        (_grown_at_first_size(LTROMINO, 9, 14), 1_814),
        (_min_size(SQUARE, 4, 10), 158),
        (_min_size(TEE, 3, 10), 453),
        (_min_size(TEE, 4, 10), 454),
        (_min_size(_turned(TRANSPOSE, TEE), 4, 10), 547),
        (_grown(13), 1_809),
        (_grown(14), 10_890),
    ],
    ids=["ltromino-8", "ltromino-9", "square-4", "tee-3", "tee-4", "tee-4-transposed", "census-13", "census-14"],
)
def test_growth_cells_are_pinned(query, cells):
    # Grown cells with the clamp alone: 180,561, 314,505, 13,057, 12,856
    # (both tee orientations), 170,157 and 409,701.
    query(cells)
    with pytest.raises(BudgetExceededError):
        query(cells - 1)


def _staircase(s):
    """The least m with m(m + 1)/2 >= s."""
    m = 0
    while m * (m + 1) // 2 < s:
        m += 1
    return m


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40),
    st.sampled_from([(1, 1), (-1, 1), (1, -1), (-1, -1)]),
)
def test_row_ends_and_column_tops_bound_any_cell_set(cells, flip):
    # The staircase lemma of _least_size holds for any cell set, holes and
    # gaps included, whichever ends of the rows and columns are taken.
    sx, sy = flip
    moved = {(sx * x, sy * y) for x, y in cells}
    ends = {max(c for c in moved if c[1] == y) for _, y in moved}
    tops = {max(c for c in moved if c[0] == x) for x, _ in moved}
    m = len(ends | tops)
    assert len(cells) <= m * (m + 1) // 2


def _root_bound(s):
    """s + 1 - ceil(2 sqrt(s)): the most instances of a 2x2 block in s
    connected cells, and of a three-neighbour cell in any s cells."""
    t = math.isqrt(4 * s)
    return s + 1 - t - (t * t < 4 * s)


def _line_ends(cells, d):
    """The cells with no cell of ``cells`` further along the unit step d
    in their row or column."""
    dx, dy = d
    best = {}
    for x, y in cells:
        line, at = (y, dx * x) if dy == 0 else (x, dy * y)
        if line not in best or at > best[line][0]:
            best[line] = (at, (x, y))
    return {cell for _, cell in best.values()}


# The patterns that take the A + 1 - ceil(2 sqrt(A)) bound: the square
# has a 2x2 block, the tee a cell with three neighbours.
ROOT_PATTERNS = {SQUARE.cells, TEE.cells, _turned(TRANSPOSE, TEE).cells}


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40),
    st.sampled_from(SYMMETRIES[:4]),
)
def test_three_neighbour_cells_bound_any_cell_set(cells, turn):
    # The tee lemma of _least_size, holes and gaps included: a cell that
    # plays the tee's three-neighbour cell j ends no row or column on
    # the sides of j's neighbours, and those ends number at least
    # ceil(2 sqrt(A)) - 1.
    pattern = _turned(turn, TEE)
    pcells = set(pattern.cells)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    x, y = next(c for c in pcells if sum((c[0] + dx, c[1] + dy) in pcells for dx, dy in steps) == 3)
    ends = set().union(*(_line_ends(cells, d) for d in steps if (x + d[0], y + d[1]) in pcells))
    count = len(instances_of(pattern, cells))
    assert count <= len(cells) - len(ends) <= _root_bound(len(cells))


P_PENTOMINO = normalize([(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.sampled_from([SQUARE] + [_turned(g, P_PENTOMINO) for g in SYMMETRIES]),
)
def test_two_by_two_blocks_bound_any_polyomino(seed, size, pattern):
    # The square bound of _least_size: at most A + 1 - (W + H) <= A + 1 -
    # ceil(2 sqrt(A)) instances of a pattern with a 2x2 block.
    shape = random_polyomino(random.Random(seed), size)
    count = len(instances_of(pattern, shape))
    assert count <= size + 1 - shape.width - shape.height <= _root_bound(size)
    assert _growth_box(pattern, size, (size, size), count) is not None


def test_root_bound_is_the_square_and_tee_maximum():
    # Over every fixed polyomino of 1 to 10 cells (OEIS A001168), the most
    # square instances and the most tee instances are A + 1 - ceil(2 sqrt(A)).
    for s in range(1, 11):
        fixed, _ = _redelmeier_witnesses(straight(1), s, (s, s), 0, s, DEFAULT_NODE_LIMIT)
        for pattern in (SQUARE, TEE):
            assert max(len(instances_of(pattern, shape)) for shape in fixed) == _root_bound(s)


@pytest.mark.parametrize("pattern", [SQUARE, P_PENTOMINO], ids=["square", "p-pentomino"])
def test_growth_box_clamp_keeps_every_shape_that_qualifies(pattern):
    # With need 0 the clamp W + ceil(A / W) <= A + 1 - need admits every
    # width up to A, so growth lists every fixed polyomino with its
    # instances; each must fit the box _growth_box gives for its count.
    fixed = [1, 2, 6, 19, 63, 216, 760, 2725, 9910, 36446]
    for s in range(len(pattern), 11):
        shapes, _ = _redelmeier_witnesses(pattern, s, (s, s), 0, s, DEFAULT_NODE_LIMIT)
        assert len(shapes) == fixed[s - 1]
        for shape in shapes:
            count = len(instances_of(pattern, shape))
            if count:
                width, height = _growth_box(pattern, s, (s, s), count)
                assert shape.width <= width and shape.height <= height


def test_least_size_is_the_first_size_every_bound_admits():
    # A walk one size at a time: the least s >= count + k - 1, for a
    # pattern two or more cells wide and high with s - m(s) >= count, and
    # for the square and the tee with s + 1 - ceil(2 sqrt(s)) >= count.
    # The least size only grows with count, so one walk serves them all.
    for pattern in BOUND_PATTERNS + [_turned(TRANSPOSE, p) for p in BOUND_PATTERNS]:
        rooted = pattern.cells in ROOT_PATTERNS
        s = 0
        for count in range(1, 2001):
            s = max(s, count + len(pattern) - 1)
            while min(pattern.width, pattern.height) > 1 and s - _staircase(s) < count:
                s += 1
            while rooted and _root_bound(s) < count:
                s += 1
            assert _least_size(pattern, count) == s
        # Past any walk: s is the least size exactly when s - m(s) = count
        # and m(s - 1) = m(s), m = s - count read off the staircase; for
        # the square and the tee, when s + 1 - ceil(2 sqrt(s)) = count and
        # one cell less falls short.
        count = 10**20
        s = _least_size(pattern, count)
        if rooted:
            assert _root_bound(s - 1) < _root_bound(s) == count
        elif min(pattern.width, pattern.height) > 1:
            m = s - count
            assert (m - 1) * m // 2 < s - 1 < s <= m * (m + 1) // 2
        else:
            assert s == count + len(pattern) - 1
        # No instances: every shape, down to one cell, carries none.
        assert _least_size(pattern, 0) <= 1


def test_least_size_of_the_ltromino_powers():
    assert [_least_size(LTROMINO, n**3) for n in range(2, 7)] == [13, 35, 76, 142, 238]
    assert _growth_box(straight(3), 1, (1, 1), 0) == (1, 1)


STAIRCASE_PATTERNS = [p for p in BOUND_PATTERNS if min(p.width, p.height) > 1]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 40),
    st.sampled_from(STAIRCASE_PATTERNS + [_turned(TRANSPOSE, p) for p in STAIRCASE_PATTERNS]),
)
def test_staircase_bound_holds_for_every_pattern_two_wide_and_high(seed, size, pattern):
    shape = random_polyomino(random.Random(seed), size)
    count = len(instances_of(pattern, shape))
    assert count <= size - _staircase(size)
    assert _growth_box(pattern, size, (size, size), count) is not None


def test_staircase_bound_is_the_ltromino_maximum():
    # Over every fixed polyomino of s cells (OEIS A001168), the most
    # L-tromino instances is the most _growth_box admits, s - m(s).
    for s in range(3, 10):
        fixed, _ = _redelmeier_witnesses(straight(1), s, (s, s), 0, s, DEFAULT_NODE_LIMIT)
        most = max(len(instances_of(LTROMINO, shape)) for shape in fixed)
        assert most == s - _staircase(s)
        assert _growth_box(LTROMINO, s, (s, s), most) is not None
        assert _growth_box(LTROMINO, s, (s, s), most + 1) is None


def test_ltromino_four_colors_need_exactly_76_cells():
    # 4**3 = 64 instances: 75 - m(75) = 63 rules out 75 cells and below,
    # and a trimmed pyramid of 76 cells carries a verified coloring.
    assert _growth_box(LTROMINO, 75, (75, 75), 64) is None
    shape = pyramid_trimmed(12, "bottom-right-diag", 2)
    assert len(shape) == 76
    words, nodes, _ = _run_search(shape, LTROMINO, 4, DEFAULT_NODE_LIMIT, solution_cap=1)
    assert nodes == 78_368
    assert is_debruijn_coloring(ColoredPolyomino(shape, 4, words[0]), LTROMINO)


LTROMINO_TURNS = sorted({_turned(g, LTROMINO).cells for g in SYMMETRIES})


@pytest.mark.parametrize("cells", LTROMINO_TURNS, ids=lambda cs: "-".join(f"{x}{y}" for x, y in cs))
def test_ltromino_closed_form_matches_growth(cells):
    # Every count whose first size is at most 28 cells, and 27 at 35.
    pattern = normalize(cells)
    counts = [count for count in range(1, 29) if _least_size(pattern, count) <= 28] + [27]
    for count in counts:
        size = _least_size(pattern, count)
        grown, _ = _grown_at_first_size(pattern, count, size)(DEFAULT_NODE_LIMIT)
        assert min_size_with_instances(pattern, count, size) == (size, grown)


def test_ltromino_extremal_polyominoes_are_the_closed_form():
    # Over every fixed polyomino of s <= 9 cells, grown with no cut, the
    # shapes with s - m(s) instances, wherever T_m - s <= m - 2.
    for s in (3, 5, 6, 8, 9):
        m = _staircase(s)
        assert m * (m + 1) // 2 - s <= m - 2
        fixed, _ = _redelmeier_witnesses(straight(1), s, (s, s), 0, s, DEFAULT_NODE_LIMIT)
        extremal = [shape for shape in fixed if len(instances_of(LTROMINO, shape)) == s - m]
        assert min_size_with_instances(LTROMINO, s - m, s) == (s, extremal)


def test_ltromino_witnesses_count_partition_triples():
    # T_m - j cells with j = m - 2: p3(j), the coefficient of x**j in
    # prod (1 - x**k)**-3 (OEIS A000716).
    for j, count in enumerate([1, 3, 9, 22, 51, 108, 221]):
        m = j + 2
        size = m * (m + 1) // 2 - j
        found, shapes = min_size_with_instances(LTROMINO, size - m, size)
        assert (found, len(shapes)) == (size, count)


def test_every_ltromino_four_color_witness_colors():
    # The 9 shapes of 76 cells fall into 2 orbits of the L-tromino's
    # maps, which carry colorings to colorings; one shape per orbit colors.
    _, shapes = min_size_with_instances(LTROMINO, 64, 76)
    cells = {shape.cells for shape in shapes}
    orbits = {frozenset(_moved(c, g) for g in _stabilizer(LTROMINO)) for c in cells}
    assert set().union(*orbits) == cells and len(orbits) == 2
    nodes = []
    for orbit in orbits:
        shape = normalize(min(orbit))
        words, spent, _ = _run_search(shape, LTROMINO, 4, DEFAULT_NODE_LIMIT, solution_cap=1)
        assert is_debruijn_coloring(ColoredPolyomino(shape, 4, words[0]), LTROMINO)
        nodes.append(spent)
    assert sorted(nodes) == [17_205, 78_368]
