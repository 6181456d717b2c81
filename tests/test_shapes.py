"""Shape families and trims."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismatic import instances_of, is_connected, normalize
from prismatic.shapes import (
    ELL,
    LTROMINO,
    SQUARE,
    TEE,
    TRIM_CORNERS,
    ZEE,
    BadHeightError,
    BadTrimError,
    ShapeError,
    UnknownPatternError,
    pattern_from_name,
    pyramid,
    pyramid_trimmed,
    rectangle,
    straight,
    ziggurat,
)


def test_fixed_orientations():
    assert SQUARE.cells == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert ZEE.cells == ((0, 1), (1, 0), (1, 1), (2, 0))
    assert TEE.cells == ((0, 0), (1, 0), (1, 1), (2, 0))
    assert ELL.cells == ((0, 0), (0, 1), (1, 0), (2, 0))
    assert LTROMINO.cells == ((0, 0), (0, 1), (1, 0))


def test_straight():
    assert straight(1).cells == ((0, 0),)
    assert straight(4).cells == ((0, 0), (1, 0), (2, 0), (3, 0))
    with pytest.raises(ShapeError):
        straight(0)


def test_rectangle():
    r = rectangle(3, 2)
    assert len(r) == 6
    assert (r.width, r.height) == (3, 2)
    with pytest.raises(ShapeError):
        rectangle(0, 3)


def test_pattern_from_name():
    assert pattern_from_name("square") == SQUARE
    assert pattern_from_name("zee") == ZEE
    assert pattern_from_name("tee") == TEE
    assert pattern_from_name("ell") == ELL
    assert pattern_from_name("ltromino") == LTROMINO
    assert pattern_from_name("straight:5") == straight(5)
    with pytest.raises(UnknownPatternError):
        pattern_from_name("plus")
    # int() reads all but the first; a spec number is 1 to 9 ASCII digits.
    for bad in ("straight:x", "straight:1_0", "straight:\u0663", "straight: 4", "straight:+2"):
        with pytest.raises(ShapeError, match="^bad number "):
            pattern_from_name(bad)


def test_ziggurat_structure():
    z = ziggurat(3)
    assert len(z) == 9
    assert (z.width, z.height) == (5, 3)
    # centered odd rows: 5, 3, 1 from the bottom
    assert [sum(1 for _, y in z.cells if y == r) for r in range(3)] == [5, 3, 1]
    assert TEE == ziggurat(2)
    with pytest.raises(BadHeightError):
        ziggurat(0)


def test_ziggurat_tee_instance_count():
    # height N carries (N-1)^2 tee instances
    for n in range(2, 7):
        assert len(instances_of(TEE, ziggurat(n))) == (n - 1) ** 2


def test_pyramid_structure():
    p = pyramid(4)
    assert len(p) == 10
    assert [sum(1 for _, y in p.cells if y == r) for r in range(4)] == [4, 3, 2, 1]
    with pytest.raises(BadHeightError):
        pyramid(0)


def test_pyramid_trimmed_golden():
    t = pyramid_trimmed(8, "bottom-right", 1)
    assert len(t) == 35
    assert len(instances_of(LTROMINO, t)) == 27


def test_pyramid_trimmed_validation():
    with pytest.raises(BadTrimError):
        pyramid_trimmed(4, "bottom-right", 4)  # k out of range
    with pytest.raises(BadTrimError):
        pyramid_trimmed(4, "north", 1)  # unknown corner


def test_pyramid_trims_that_disconnect():
    # removing the last cell of these runs strands the far corner
    for corner in ("bottom-left", "left-bottom"):
        with pytest.raises(BadTrimError):
            pyramid_trimmed(4, corner, 3)
        with pytest.raises(BadTrimError):
            pyramid_trimmed(6, corner, 5)


def test_every_trim_removes_one_instance_per_cell():
    for n in (3, 5, 7):
        base = len(instances_of(LTROMINO, pyramid(n)))
        for corner in TRIM_CORNERS:
            for k in range(n):
                try:
                    t = pyramid_trimmed(n, corner, k)
                except BadTrimError:
                    assert corner in ("bottom-left", "left-bottom") and k == n - 1
                    continue
                assert len(t) == n * (n + 1) // 2 - k
                assert len(instances_of(LTROMINO, t)) == base - k
                assert is_connected(t.cell_set)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9))
def test_ziggurat_cell_count(n):
    assert len(ziggurat(n)) == n * n


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9))
def test_pyramid_cell_count(n):
    assert len(pyramid(n)) == n * (n + 1) // 2
    assert normalize(pyramid(n).cells) == pyramid(n)
