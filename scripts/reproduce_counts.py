"""Recompute every headline number from scratch and compare.

Run from the repository root:

    python3 scripts/reproduce_counts.py

Each line reports the quantity, the freshly computed value and the
expected value. Exit status is nonzero on any mismatch.
"""

import argparse
import sys
import time

from prismatic import (
    all_params,
    cock_construct,
    cock_count,
    count_acyclic,
    count_cyclic,
    enumerate_all_cyclic,
    enumerate_prismatic_colorings,
    is_debruijn_coloring,
    min_size_with_instances,
    shape_census,
)
from prismatic.shapes import LTROMINO, SQUARE, TEE, rectangle, straight, ziggurat


# The 8 symmetries of the square lattice, as (x, y) -> (a x + b y, c x + d y).
ISOMETRIES = [
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (-1, 0, 0, 1), (1, 0, 0, -1), (0, -1, -1, 0), (0, 1, 1, 0),
]


def orbit_count(colorings) -> int:
    """Orbits of colorings of one shape under the lattice symmetries that
    fix the shape, together with the color permutations: each orbit is
    named by its least image, as a sorted cell -> color list with colors
    renamed in order of first appearance."""
    shape = set(colorings[0].shape.cells)
    least = set()
    for colored in colorings:
        names = []
        pairs = colored.mapping().items()
        for a, b, c, d in ISOMETRIES:
            image = [((a * x + b * y, c * x + d * y), col) for (x, y), col in pairs]
            mx, my = min(x for (x, _), _ in image), min(y for (_, y), _ in image)
            moved = sorted(((x - mx, y - my), col) for (x, y), col in image)
            if {cell for cell, _ in moved} != shape:
                continue
            rename: dict[int, int] = {}
            names.append([(cell, rename.setdefault(col, len(rename) + 1)) for cell, col in moved])
        least.add(tuple(min(names)))
    return len(least)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-census",
        action="store_true",
        help="skip the 13-cell shape census",
    )
    args = parser.parse_args()

    failures = 0

    def check(label, got, want):
        nonlocal failures
        ok = got == want
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} (expected {want})")

    t0 = time.time()
    square5 = enumerate_prismatic_colorings(rectangle(5, 5), SQUARE, 2)
    check("square tetromino colorings of the 5x5 square, 2 colors", len(square5), 800)
    check("  orbits under the box's 8 symmetries and the color swap", orbit_count(square5), 50)
    zig5 = enumerate_prismatic_colorings(ziggurat(5), TEE, 2)
    check("tee tetromino colorings of ziggurat(5), 2 colors", len(zig5), 168)
    check("  orbits under the mirror and the color swap", orbit_count(zig5), 42)

    grids = [cock_construct(p) for p in all_params(2)]
    check("parameterized 2-color constructions", len(grids), cock_count(2))
    check(
        "constructions that verify",
        sum(1 for g in grids if is_debruijn_coloring(g, SQUARE).valid),
        96,
    )
    check("distinct constructions", len(set(grids)), 96)
    check("construction count formula at 3 colors", cock_count(3), 78382080)

    for (n, k), expected in {(2, 2): 1, (2, 3): 2, (2, 4): 16, (3, 2): 24}.items():
        check(
            f"cyclic de Bruijn sequences n={n} k={k}",
            len(enumerate_all_cyclic(n, k)),
            count_cyclic(n, k),
        )
        check(f"  against the fixed value", len(enumerate_all_cyclic(n, k)), expected)

    check(
        "bar colorings = acyclic sequences (n=2, k=3)",
        len(enumerate_prismatic_colorings(straight(10), straight(3), 2)),
        count_acyclic(2, 3),
    )

    check("smallest shape with 4 square instances", min_size_with_instances(SQUARE, 4, 10)[0], 9)
    check("smallest shape with 4 tee instances", min_size_with_instances(TEE, 4, 10)[0], 9)
    size, witnesses = min_size_with_instances(LTROMINO, 8, 13)
    check("smallest shape with 8 L-tromino instances", size, 13)
    check("  number of minimal shapes", len(witnesses), 9)

    if not args.skip_census:
        census = shape_census(LTROMINO, 2, 13, (5, 5))
        check("13-cell census shapes", len(census), 9)
        check(
            "  census coloring counts",
            sorted(c for _, c in census),
            [8, 8, 8, 28, 28, 28, 28, 28, 28],
        )

    print(f"done in {time.time() - t0:.1f}s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
