"""Verification and exhaustive search for de Bruijn colorings.

A coloring of a shape S is de Bruijn for a pattern p when the translates
of p inside S pick up every n-coloring of p exactly once.  The searches
here assign colors cell by cell in row-major order (top row first), so
results come out in lexicographic order of the row-major color word.
Two exact cuts shrink the tree:

* color symmetry: a de Bruijn coloring uses every color, so the n!
  color permutations act freely on the solutions and the search keeps
  only canonical words, in which color c + 1 never comes before color c
  (value precedence); callers expand each word by the permutations;
* prefix counts: every pattern coloring occurs once, so at most
  ``n**(k - j)`` instances may read the same first j colors (k pattern
  cells, in row-major order); a branch dies as soon as one prefix passes
  its cap, which at ``j = k`` is the duplicate check.

Candidate shapes, for the census and for minimal-size witnesses, come
from one rooted polyomino growth, :func:`_redelmeier_witnesses`.  The
unit of fan-out (:func:`_fan_out`) is one shape, searched whole.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

from .lattice import (
    ColoredPolyomino,
    Polyomino,
    Vec,
    apply_lattice_map,
    instance_cells,
    normalize,
)

ENV_NODE_LIMIT = "PRISMATIC_NODE_LIMIT"
DEFAULT_NODE_LIMIT = 200_000_000


class SearchError(Exception):
    pass


class BudgetExceededError(SearchError):
    pass


class NoWitnessError(SearchError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    """Shared search knobs.

    ``threads`` is how many processes share the shape searches of a
    census; one shape is always searched in one process.  ``node_limit``
    bounds the color assignments one shape's search may try, whatever
    ``threads`` is, and the cells a shape growth may try.
    """

    threads: int = 1
    node_limit: int = DEFAULT_NODE_LIMIT

    @classmethod
    def default(cls) -> "SearchConfig":
        raw = os.environ.get(ENV_NODE_LIMIT)
        if raw is None:
            return cls()
        try:
            return cls(node_limit=int(raw))
        except ValueError:
            raise SearchError(f"{ENV_NODE_LIMIT} must be an integer, got {raw!r}") from None


# Missing pattern colorings a VerifyResult lists; the count is exact.
MISSING_SHOWN = 8


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a de Bruijn check with its failure certificate.

    ``missing_count`` is the number of pattern colorings that no
    instance realizes and ``missing`` lists the lexicographically first
    of them (in pattern cell order), at most :data:`MISSING_SHOWN`;
    ``duplicated`` pairs each repeated coloring with its multiplicity.
    All stay empty on success.
    """

    valid: bool
    instance_count: int
    missing_count: int
    missing: tuple[tuple[int, ...], ...]
    duplicated: tuple[tuple[tuple[int, ...], int], ...]

    def __bool__(self) -> bool:
        return self.valid


def is_debruijn_coloring(colored: ColoredPolyomino, pattern: Polyomino) -> VerifyResult:
    """Check whether every pattern coloring occurs exactly once.

    The work grows with the shape, not with ``n**|pattern|``: the
    missing colorings are counted, and only the first few are listed.
    """
    n = colored.n
    counts: dict[tuple[int, ...], int] = {}
    table = instance_cells(pattern, colored.shape)
    for ids in table:
        word = tuple([colored.colors[i] for i in ids])
        counts[word] = counts.get(word, 0) + 1
    missing_count = n ** len(pattern.cells) - len(counts)
    # The product meets at most len(counts) realized words before it has
    # found the first MISSING_SHOWN missing ones.
    missing = tuple(
        itertools.islice(
            (
                word
                for word in itertools.product(range(1, n + 1), repeat=len(pattern.cells))
                if word not in counts
            ),
            min(missing_count, MISSING_SHOWN),
        )
    )
    duplicated = tuple(
        (word, c) for word, c in sorted(counts.items()) if c > 1
    )
    return VerifyResult(
        valid=not missing_count and not duplicated,
        instance_count=len(table),
        missing_count=missing_count,
        missing=missing,
        duplicated=duplicated,
    )


def _row_major_steps(shape: Polyomino) -> list[int]:
    """``steps[i]``: the search step, in row-major order (top row first),
    that colors ``shape.cells[i]``."""
    order = sorted(shape.cells, key=lambda cell: (-cell[1], cell[0]))
    step = {cell: t for t, cell in enumerate(order)}
    return [step[cell] for cell in shape.cells]


def _cell_table(shape: Polyomino, pattern: Polyomino) -> list[list[int]]:
    """Per search step, the instances through the cell it colors.

    A translate keeps the row-major order of the pattern's cells, so the
    cell colored at step ``t`` is the next uncolored cell of every
    instance in ``through[t]``, and it is a different pattern cell, hence
    a different prefix length, for each of them.
    """
    steps = _row_major_steps(shape)
    through: list[list[int]] = [[] for _ in steps]
    for inst, ids in enumerate(instance_cells(pattern, shape)):
        for i in ids:
            through[steps[i]].append(inst)
    return through


def _need_colors(n: int) -> None:
    if n < 1:
        raise SearchError("need n >= 1")


def _run_search(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    node_limit: int,
    solution_cap: int | None = None,
) -> tuple[list[tuple[int, ...]], int]:
    """Backtracking core; returns (canonical words, nodes tried).

    Words are color tuples in row-major order, emitted lexicographically,
    and canonical: color c + 1 never appears before color c.  With
    exactly ``n**|pattern|`` instances every solution uses all n colors,
    so each solution is one color permutation of exactly one canonical
    word; a shape with any other instance count admits none and returns
    ``([], 0)`` without searching.  ``solution_cap`` stops after so many
    results.
    """
    through = _cell_table(shape, pattern)
    k = len(pattern.cells)
    if sum(map(len, through)) != k * n**k:
        return [], 0
    # A prefix of j colors is coded in bijective base n: the empty prefix
    # is 0 and appending color c maps code to code * n + c.  Each word
    # occurs once, so at most n**(k - j) instances may share a j-color
    # prefix; room[code] is what is left of that cap.
    room: list[int] = []
    for j in range(k + 1):
        room += [n ** (k - j)] * n**j
    # keys[i] codes the colors instance i has so far.
    keys = [0] * n**k
    colors = [0] * len(through)
    results: list[tuple[int, ...]] = []
    nodes = 0

    def place(t: int, top: int) -> bool:
        nonlocal nodes
        if t == len(through):
            results.append(tuple(colors))
            return solution_cap is None or len(results) < solution_cap
        ids = through[t]
        for c in range(1, min(n, top + 1) + 1):
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(
                    f"search exceeded the {node_limit} node budget"
                )
            # Prefixes of different lengths never share a code, so no two
            # instances in ``ids`` draw on the same room entry.
            for i in ids:
                if not room[keys[i] * n + c]:
                    break
            else:
                colors[t] = c
                for i in ids:
                    code = keys[i] * n + c
                    room[code] -= 1
                    keys[i] = code
                alive = place(t + 1, c if c > top else top)
                for i in ids:
                    code = keys[i]
                    room[code] += 1
                    keys[i] = (code - 1) // n
                if not alive:
                    return False
        return True

    place(0, 0)
    return results, nodes


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fan_out(search: Callable[[Polyomino], object], shapes: list[Polyomino], threads: int) -> list:
    """Apply ``search`` to every shape, in a process pool when there are
    threads, shapes and CPUs to share; results keep the shape order.  One
    shape is the unit of fan-out; the pool has no more workers than shapes
    or usable CPUs."""
    workers = min(threads, len(shapes), _usable_cpus())
    if workers <= 1:
        return list(map(search, shapes))
    chunk = max(1, len(shapes) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(search, shapes, chunksize=chunk))


def enumerate_prismatic_colorings(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    config: SearchConfig | None = None,
) -> list[ColoredPolyomino]:
    """Every de Bruijn n-coloring of ``shape`` for ``pattern``.

    Returns colorings ordered lexicographically by their row-major color
    word.  A shape whose instance count differs from ``n**|pattern|``
    admits none and yields an empty list without searching.
    """
    config = config or SearchConfig.default()
    _need_colors(n)
    found, _ = _run_search(shape, pattern, n, config.node_limit)
    perms = list(itertools.permutations(range(1, n + 1)))
    words = sorted(tuple(p[c - 1] for c in word) for word in found for p in perms)
    steps = _row_major_steps(shape)
    return [
        ColoredPolyomino(shape, n, tuple(word[t] for t in steps)) for word in words
    ]


def has_prismatic_coloring(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    config: SearchConfig | None = None,
) -> bool:
    """Existence version of :func:`enumerate_prismatic_colorings`."""
    config = config or SearchConfig.default()
    _need_colors(n)
    words, _ = _run_search(shape, pattern, n, config.node_limit, solution_cap=1)
    return bool(words)


def _census(
    pattern: Polyomino,
    n: int,
    size: int,
    bbox: tuple[int, int],
    config: SearchConfig,
    solution_cap: int | None,
) -> list[tuple[Polyomino, list[tuple[int, ...]]]]:
    """Size-cell shapes in the box that admit a de Bruijn n-coloring, each
    with its canonical words, at most ``solution_cap`` of them.

    :func:`_redelmeier_witnesses` grows the candidates, the shapes with
    exactly ``n**|pattern|`` instances, and :func:`_fan_out` searches each.
    """
    _need_colors(n)
    if size < 1 or min(bbox) < 1:
        raise SearchError("size and box sides must be positive")
    # A size-cell shape is at most size cells wide and high: the box only
    # bounds the shapes, and growth never needs more of it than that.
    width, height = min(bbox[0], size), min(bbox[1], size)
    target = n ** len(pattern.cells)
    translates = max(0, width - pattern.width + 1) * max(0, height - pattern.height + 1)
    if size > width * height or translates < target:
        return []
    shapes, _ = _redelmeier_witnesses(
        pattern, size, (width, height), target, target, config.node_limit
    )
    search = functools.partial(
        _run_search, pattern=pattern, n=n, node_limit=config.node_limit, solution_cap=solution_cap
    )
    found = _fan_out(search, shapes, config.threads)
    return [(shape, words) for shape, (words, _) in zip(shapes, found) if words]


def find_minimal_shapes(
    pattern: Polyomino,
    n: int,
    size: int,
    bbox: tuple[int, int],
    config: SearchConfig | None = None,
) -> list[Polyomino]:
    """All size-cell shapes in the box that admit a de Bruijn n-coloring.

    Canonical forms, sorted by their cell tuples.
    """
    return [s for s, _ in _census(pattern, n, size, bbox, config or SearchConfig.default(), 1)]


def shape_census(
    pattern: Polyomino,
    n: int,
    size: int,
    bbox: tuple[int, int],
    config: SearchConfig | None = None,
) -> list[tuple[Polyomino, int]]:
    """Like :func:`find_minimal_shapes` but with full coloring counts."""
    return [
        (shape, len(words) * math.factorial(n))
        for shape, words in _census(pattern, n, size, bbox, config or SearchConfig.default(), None)
    ]


def _redelmeier_witnesses(
    pattern: Polyomino,
    size: int,
    box: tuple[int, int],
    need: int,
    most: int,
    node_limit: int,
) -> tuple[list[Polyomino], int]:
    """Shapes of exactly ``size`` cells that fit a ``box`` of (W, H) cells
    and carry ``need <= instances <= most`` pattern instances.

    Canonical fixed-polyomino enumeration by rooted growth (Redelmeier,
    "Counting polyominoes: yet another attack", 1981): the first cell is
    the leftmost cell of the bottom row, candidate cells join in discovery
    order and each is either taken or permanently skipped, so every fixed
    polyomino appears exactly once.  Growth stays in the H rows from the
    root's row up and within W - 1 columns either side of the root.  A
    cell that would make the shape wider than W, or push its instance
    count past ``most``, is skipped: every superset of such a shape fails
    the same way.  Subtrees that cannot reach ``need`` instances are cut;
    each new cell adds at most ``|pattern|`` instances.  Returns the
    canonical shapes sorted by their cells and the cells tried, which
    count against ``node_limit``.
    """
    width, height = box
    gain = len(pattern.cells)
    x0 = width - 1
    span = 2 * width - 1
    # The growth region is ``height`` rows of ``span`` cells, less the
    # cells left of the root (x0, 0); each row is followed by
    # ``pattern.width`` blocked cells so that no step or instance wraps.
    stride = span + pattern.width
    total = stride * height
    allowed = bytearray(total)
    for y in range(height):
        allowed[stride * y : stride * y + span] = b"\x01" * span
    allowed[:x0] = bytes(x0)
    cols = [i % stride for i in range(total)]
    neighbors = [
        tuple(j for j in (i - 1, i + 1, i - stride, i + stride) if 0 <= j < total and allowed[j])
        for i in range(total)
    ]
    # completes[c]: the other cells of each instance that c can complete.
    completes: list[list[tuple[int, ...]]] = [[] for _ in range(total)]
    offsets = [px + stride * py for px, py in pattern.cells]
    for v in range(total - max(offsets)):
        cells = [v + off for off in offsets]
        if all(map(allowed.__getitem__, cells)):
            for i, c in enumerate(cells):
                completes[c].append(tuple(cells[:i] + cells[i + 1 :]))

    occupied = bytearray(total)
    reached = bytearray(total)
    stack_cells: list[int] = []
    found: list[tuple[int, ...]] = []
    nodes = 0

    def grow(untried: list[int], sofar: int, inst: int, lo: int, hi: int) -> None:
        nonlocal nodes
        last = sofar + 1 == size
        # Fewest instances a next cell may leave and still reach ``need``.
        floor = need - gain * (size - sofar - 1)
        while untried:
            c = untried.pop()
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(
                    f"shape enumeration exceeded the {node_limit} node budget"
                )
            x = cols[c]
            left = x if x < lo else lo
            right = x if x > hi else hi
            if right - left >= width:
                continue
            newinst = inst
            for others in completes[c]:
                for j in others:
                    if not occupied[j]:
                        break
                else:
                    newinst += 1
            if not floor <= newinst <= most:
                continue
            if last:
                found.append((*stack_cells, c))
                continue
            occupied[c] = 1
            stack_cells.append(c)
            fresh = []
            for nb in neighbors[c]:
                if not reached[nb]:
                    reached[nb] = 1
                    fresh.append(nb)
            grow(untried + fresh, sofar + 1, newinst, left, right)
            for nb in fresh:
                reached[nb] = 0
            occupied[c] = 0
            stack_cells.pop()

    reached[x0] = 1
    grow([x0], 0, 0, x0, x0)

    shapes = [normalize((i % stride, i // stride) for i in idxs) for idxs in found]
    shapes.sort(key=lambda s: s.cells)
    return shapes, nodes


def min_size_with_instances(
    pattern: Polyomino,
    count: int,
    size_cap: int,
    config: SearchConfig | None = None,
) -> tuple[int, list[Polyomino]]:
    """Smallest cell count of a connected shape with >= ``count`` instances.

    Returns that size together with every witness shape of that size.
    Sizes are tried in increasing order up to ``size_cap``; raises
    :class:`NoWitnessError` when the cap is reached without a witness.
    """
    config = config or SearchConfig.default()
    if count < 1:
        raise SearchError("need count >= 1")
    spent = 0
    for cap in range(len(pattern.cells), size_cap + 1):
        witnesses, nodes = _redelmeier_witnesses(
            pattern, cap, (cap, cap), count, len(pattern.cells) * cap, config.node_limit - spent
        )
        spent += nodes
        if witnesses:
            return cap, witnesses
    raise NoWitnessError(
        f"no shape of size <= {size_cap} holds {count} instances"
    )


@dataclass(frozen=True)
class InstanceGraph:
    """Instances of a pattern in a shape, adjacent when they share a cell."""

    vectors: tuple[Vec, ...]
    edges: tuple[tuple[int, int], ...]

    def is_connected(self) -> bool:
        if len(self.vectors) <= 1:
            return True
        adj: dict[int, list[int]] = {i: [] for i in range(len(self.vectors))}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.vectors)


def instance_graph(shape: Polyomino, pattern: Polyomino) -> InstanceGraph:
    table = instance_cells(pattern, shape)
    by_cell: dict[int, list[int]] = {}
    for inst, ids in enumerate(table):
        for i in ids:
            by_cell.setdefault(i, []).append(inst)
    edges = set()
    for owners in by_cell.values():
        for i, j in itertools.combinations(owners, 2):
            edges.add((i, j))
    ax, ay = pattern.cells[0]
    vecs = tuple((x - ax, y - ay) for x, y in (shape.cells[ids[0]] for ids in table))
    return InstanceGraph(vecs, tuple(sorted(edges)))


def transport_coloring(colored: ColoredPolyomino, map_name: str) -> ColoredPolyomino:
    """Apply a named lattice map and renormalize.

    Raises :class:`~prismatic.lattice.DisconnectedError` when the image
    is not edge-connected.
    """
    return ColoredPolyomino.from_mapping(apply_lattice_map(colored, map_name), colored.n)


def bijection_check(
    map_name: str,
    colorings: Iterable[ColoredPolyomino],
    pattern_src: Polyomino,
    pattern_dst: Polyomino,
) -> bool:
    """Check that a lattice map carries a solution set onto valid solutions.

    True iff every input is de Bruijn for the source pattern and the
    mapped colorings are pairwise distinct, connected and de Bruijn for
    the destination pattern.  Propagates
    :class:`~prismatic.lattice.DisconnectedError` on a disconnected image.
    """
    transported = set()
    total = 0
    for colored in colorings:
        if not is_debruijn_coloring(colored, pattern_src).valid:
            return False
        image = transport_coloring(colored, map_name)
        if not is_debruijn_coloring(image, pattern_dst).valid:
            return False
        transported.add(image)
        total += 1
    return len(transported) == total
