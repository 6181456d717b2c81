"""Verifier, exhaustive coloring search, census, min-size and transport."""

import itertools
import math
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
from prismatic.search import (
    DEFAULT_NODE_LIMIT,
    MISSING_SHOWN,
    BudgetExceededError,
    NoWitnessError,
    SearchConfig,
    SearchError,
    _redelmeier_witnesses,
    _run_search,
    find_minimal_shapes,
    shape_census,
)
from prismatic.shapes import (
    ELL,
    LTROMINO,
    SQUARE,
    TEE,
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
    cfg = SearchConfig(threads=1, node_limit=50)
    with pytest.raises(BudgetExceededError):
        enumerate_prismatic_colorings(SQUARE5_SHAPE, SQUARE, 2, cfg)


def test_search_config_env_override(monkeypatch):
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "12345")
    assert SearchConfig.default().node_limit == 12345
    monkeypatch.delenv("PRISMATIC_NODE_LIMIT")
    assert SearchConfig.default().node_limit == 200_000_000


def test_threads_do_not_change_results():
    serial = enumerate_prismatic_colorings(SHAPE_B, LTROMINO, 2, SearchConfig(threads=1))
    pooled = enumerate_prismatic_colorings(SHAPE_B, LTROMINO, 2, SearchConfig(threads=3))
    assert serial == pooled


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
    census = shape_census(pattern, n, size, box)
    assert census == expected
    assert find_minimal_shapes(pattern, n, size, box) == [shape for shape, _ in census]


def test_find_minimal_shapes_negative():
    # the 3x3 square has 4 square instances, 2 colors need 16
    assert find_minimal_shapes(SQUARE, 2, 9, (3, 3)) == []


def test_census_empty_when_no_shape_qualifies():
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
    "shape, pattern, count, cap",
    [(rectangle(5, 5), SQUARE, 800, 45_000), (ziggurat(5), TEE, 168, 35_000)],
)
def test_search_node_count_regression(shape, pattern, count, cap):
    # 223,978 and 238,994 nodes without the color-symmetry and
    # prefix-count cuts; the symmetry alone halves them at n = 2.
    words, nodes = _run_search(shape, pattern, 2, 10**9)
    assert len(words) * 2 == count
    assert nodes <= cap


def test_three_color_square_ten_by_ten_exists():
    assert has_prismatic_coloring(rectangle(10, 10), SQUARE, 3)


@pytest.mark.parametrize("threads", [1, 2])
def test_node_budget_is_exact_for_every_thread_count(threads):
    # 40,271 colors are tried on the 5x5 square, whatever the fan-out.
    ok = SearchConfig(threads=threads, node_limit=40_271)
    assert len(enumerate_prismatic_colorings(SQUARE5_SHAPE, SQUARE, 2, ok)) == 800
    short = SearchConfig(threads=threads, node_limit=40_270)
    with pytest.raises(BudgetExceededError):
        enumerate_prismatic_colorings(SQUARE5_SHAPE, SQUARE, 2, short)


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
        lambda: find_minimal_shapes(LTROMINO, n, 3, (2, 2)),
        lambda: shape_census(LTROMINO, n, 3, (2, 2)),
    ]
    for call in calls:
        with pytest.raises(SearchError, match="need n >= 1"):
            call()


def _scan_candidates(pattern, n, size, bbox):
    """Oracle for the census candidates: every size-cell subset of the
    box as a bitmask, kept when it holds exactly n**|p| instances and is
    connected."""
    width, height = bbox
    target = n ** len(pattern)
    vec_masks = [
        sum(1 << (px + vx + width * (py + vy)) for px, py in pattern.cells)
        for vy in range(height - pattern.height + 1)
        for vx in range(width - pattern.width + 1)
    ]
    forms = set()
    for comb in itertools.combinations(range(width * height), size):
        mask = sum(1 << b for b in comb)
        if sum(mask & im == im for im in vec_masks) == target:
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
def test_growth_matches_subset_scan(pattern, n, width, height, size):
    expected = _scan_candidates(pattern, n, size, (width, height))
    target = n ** len(pattern)
    grown, _ = _redelmeier_witnesses(
        pattern, size, (width, height), target, target, DEFAULT_NODE_LIMIT
    )
    assert grown == expected
    admitting = [s for s in expected if has_prismatic_coloring(s, pattern, n)]
    assert find_minimal_shapes(pattern, n, size, (width, height)) == admitting
