"""Brute-force reference answers, written without importing prismatic.

Every check here is the slow, obvious version of what the program does:
it scans all translates, builds grids cell by cell and compares whole
cell maps, so a defect in the program cannot hide in shared code.
Cells are ``(x, y)`` pairs with y growing upward, as in the program.
"""

from __future__ import annotations

import hashlib
import random

Cell = tuple[int, int]

SQUARE = ((0, 0), (0, 1), (1, 0), (1, 1))
ZEE = ((0, 1), (1, 0), (1, 1), (2, 0))
TEE = ((0, 0), (1, 0), (1, 1), (2, 0))
ELL = ((0, 0), (0, 1), (1, 0), (2, 0))
LTROMINO = ((0, 0), (0, 1), (1, 0))
PATTERNS = {"square": SQUARE, "zee": ZEE, "tee": TEE, "ell": ELL, "ltromino": LTROMINO}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def normalized(cells) -> tuple[Cell, ...]:
    cells = list(cells)
    mx = min(x for x, _ in cells)
    my = min(y for _, y in cells)
    return tuple(sorted((x - mx, y - my) for x, y in cells))


def transposed(cells) -> tuple[Cell, ...]:
    return normalized((y, x) for x, y in cells)


def shape_doc(cells) -> dict:
    return {"cells": [{"x": x, "y": y} for x, y in sorted(cells)]}


def colored_doc(mapping: dict[Cell, int], n: int) -> dict:
    return {
        "n": n,
        "cells": [{"x": x, "y": y, "color": c} for (x, y), c in sorted(mapping.items())],
    }


def mapping_of(doc: dict) -> dict[Cell, int]:
    return {(r["x"], r["y"]): r["color"] for r in doc["cells"]}


def connected(cells) -> bool:
    todo = set(cells)
    if not todo:
        return False
    stack = [todo.pop()]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in todo:
                todo.remove(nb)
                stack.append(nb)
    return not todo


def instance_count(cells, pattern) -> int:
    """Translates of ``pattern`` inside ``cells``, by scanning every offset."""
    cellset = set(cells)
    xs = [x for x, _ in cellset]
    ys = [y for _, y in cellset]
    return sum(
        all((px + vx, py + vy) in cellset for px, py in pattern)
        for vx in range(min(xs), max(xs) + 1)
        for vy in range(min(ys), max(ys) + 1)
    )


def is_debruijn(mapping: dict[Cell, int], n: int, pattern) -> bool:
    """True iff the translates of ``pattern`` show every n-coloring exactly once."""
    if not connected(mapping):
        return False
    xs = [x for x, _ in mapping]
    ys = [y for _, y in mapping]
    words = []
    for vx in range(min(xs), max(xs) + 1):
        for vy in range(min(ys), max(ys) + 1):
            cells = [(px + vx, py + vy) for px, py in pattern]
            if all(c in mapping for c in cells):
                words.append(tuple(mapping[c] for c in cells))
    return len(words) == n ** len(pattern) and len(set(words)) == len(words)


def random_cyclic_order2(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random cyclic de Bruijn sequence of order 2 over ``1..n``.

    Hierholzer's algorithm on the complete digraph with loops, with the
    out-edges of each vertex in random order: every Eulerian circuit
    spells one such sequence.
    """
    out = {a: rng.sample(range(1, n + 1), n) for a in range(1, n + 1)}
    stack, circuit = [1], []
    while stack:
        v = stack[-1]
        if out[v]:
            stack.append(out[v].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    return tuple(circuit[:-1])


def random_cock_params(rng: random.Random, n: int) -> dict:
    size = n * n
    return {
        "n": n,
        "r0": list(random_cyclic_order2(rng, n)),
        "start": rng.randrange(size),
        "sigma": rng.sample(range(1, size + 1), size),
    }


def _rot(word, k):
    k %= len(word)
    return tuple(word[k:]) + tuple(word[:k])


def cock_grid(params: dict) -> dict[Cell, int]:
    """The rotated-row grid: row i sits at y = n*n - i, last column wraps."""
    n = params["n"]
    size = n * n
    words = [_rot(params["r0"], params["start"])]
    for s in params["sigma"]:
        words.append(_rot(words[-1], s))
    return {
        (x, size - i): word[x % size]
        for i, word in enumerate(words)
        for x in range(size + 1)
    }


def cock_locate(params: dict, w: int, x: int, y: int, z: int) -> tuple[int, int]:
    """Row (0 = top) and 1-based column of the 2x2 block ``w x`` over ``y z``."""
    grid = cock_grid(params)
    size = params["n"] ** 2
    hits = [
        (size - 1 - vy, vx + 1)
        for vx in range(size)
        for vy in range(size)
        if (grid[(vx, vy + 1)], grid[(vx + 1, vy + 1)], grid[(vx, vy)], grid[(vx + 1, vy)])
        == (w, x, y, z)
    ]
    if len(hits) != 1:
        raise ValueError(f"block {(w, x, y, z)} occurs {len(hits)} times")
    return hits[0]


def row_shift_normalized(mapping: dict[Cell, int]) -> dict[Cell, int]:
    image = {(x - y, y): c for (x, y), c in mapping.items()}
    mx = min(x for x, _ in image)
    my = min(y for _, y in image)
    return {(x - mx, y - my): c for (x, y), c in image.items()}


def relabel(mapping: dict[Cell, int], perm: list[int]) -> dict[Cell, int]:
    return {cell: perm[c - 1] for cell, c in mapping.items()}


def transpose_map(mapping: dict[Cell, int]) -> dict[Cell, int]:
    return {(y, x): c for (x, y), c in mapping.items()}


def swap_two(rng: random.Random, mapping: dict[Cell, int]) -> dict[Cell, int]:
    """Swap the colors of two seed-chosen cells that differ in color."""
    cells = sorted(mapping)
    while True:
        a, b = rng.sample(cells, 2)
        if mapping[a] != mapping[b]:
            out = dict(mapping)
            out[a], out[b] = mapping[b], mapping[a]
            return out


def census_counts_ok(lines: list[dict], pattern, n: int, size: int, bbox) -> bool:
    """Each census line is a connected size-cell shape in the box with n**k instances."""
    width, height = bbox
    seen = set()
    for doc in lines:
        cells = tuple((r["x"], r["y"]) for r in doc["cells"])
        if (
            len(cells) != size
            or normalized(cells) != cells
            or not connected(cells)
            or max(x for x, _ in cells) >= width
            or max(y for _, y in cells) >= height
            or instance_count(cells, pattern) != n ** len(pattern)
            or doc["colorings"] < 1
            or cells in seen
        ):
            return False
        seen.add(cells)
    return True


def witnesses_ok(witnesses: list[dict], pattern, need: int, size: int) -> bool:
    """Distinct connected canonical ``size``-cell shapes with >= ``need`` instances."""
    seen = set()
    for doc in witnesses:
        cells = tuple((r["x"], r["y"]) for r in doc["cells"])
        if (
            len(cells) != size
            or normalized(cells) != cells
            or not connected(cells)
            or instance_count(cells, pattern) < need
            or cells in seen
        ):
            return False
        seen.add(cells)
    return True
