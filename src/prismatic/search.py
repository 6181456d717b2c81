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
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lattice import (
    Cell,
    ColoredPolyomino,
    Polyomino,
    Vec,
    apply_lattice_map,
    instances_of,
)

ENV_NODE_LIMIT = "PRISMATIC_NODE_LIMIT"
DEFAULT_NODE_LIMIT = 200_000_000
DEFAULT_SUBSET_LIMIT = 20_000_000


class SearchError(Exception):
    pass


class BudgetExceededError(SearchError):
    pass


class NoWitnessError(SearchError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    """Shared search knobs.

    ``node_limit`` bounds color assignments tried per search call; a
    call fanned out over ``threads`` workers spends one budget, the same
    as the serial search.  ``subset_limit`` bounds the number of
    bounding-box subsets a shape scan may visit.
    """

    threads: int = 1
    node_limit: int = DEFAULT_NODE_LIMIT
    subset_limit: int = DEFAULT_SUBSET_LIMIT

    @classmethod
    def default(cls) -> "SearchConfig":
        raw = os.environ.get(ENV_NODE_LIMIT)
        if raw is None:
            return cls()
        try:
            return cls(node_limit=int(raw))
        except ValueError:
            raise SearchError(f"{ENV_NODE_LIMIT} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a de Bruijn check with its failure certificate.

    ``missing`` lists pattern colorings (in pattern cell order) that no
    instance realizes; ``duplicated`` pairs each repeated coloring with
    its multiplicity.  Both stay empty on success.
    """

    valid: bool
    instance_count: int
    missing: tuple[tuple[int, ...], ...]
    duplicated: tuple[tuple[tuple[int, ...], int], ...]

    def __bool__(self) -> bool:
        return self.valid


def is_debruijn_coloring(colored: ColoredPolyomino, pattern: Polyomino) -> VerifyResult:
    """Check whether every pattern coloring occurs exactly once."""
    n = colored.n
    counts: dict[tuple[int, ...], int] = {}
    vecs = instances_of(pattern, colored.shape)
    for vx, vy in vecs:
        word = tuple(colored.color_at((px + vx, py + vy)) for px, py in pattern.cells)
        counts[word] = counts.get(word, 0) + 1
    missing = tuple(
        word
        for word in itertools.product(range(1, n + 1), repeat=len(pattern.cells))
        if word not in counts
    )
    duplicated = tuple(
        (word, c) for word, c in sorted(counts.items()) if c > 1
    )
    return VerifyResult(
        valid=not missing and not duplicated,
        instance_count=len(vecs),
        missing=missing,
        duplicated=duplicated,
    )


def _row_major(cell: Cell) -> tuple[int, int]:
    return (-cell[1], cell[0])


def _cell_table(shape: Polyomino, pattern: Polyomino):
    """Assignment order plus, per step, the instances through that cell.

    A translate keeps the row-major order of the pattern's cells, so the
    cell assigned at step ``t`` is the next uncolored cell of every
    instance in ``through[t]``, and it is a different pattern cell, hence
    a different prefix length, for each of them.
    """
    order = sorted(shape.cells, key=_row_major)
    index = {c: i for i, c in enumerate(order)}
    through: list[list[int]] = [[] for _ in order]
    for i, (vx, vy) in enumerate(instances_of(pattern, shape)):
        for px, py in pattern.cells:
            through[index[(px + vx, py + vy)]].append(i)
    return order, through


def _over_budget(node_limit: int) -> BudgetExceededError:
    return BudgetExceededError(f"search exceeded the {node_limit} node budget")


def _run_search(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    node_limit: int,
    prefix: Sequence[int] = (),
    depth_stop: int | None = None,
    solution_cap: int | None = None,
) -> tuple[list[tuple[int, ...]], int]:
    """Backtracking core; returns (canonical words, nodes tried).

    Words are color tuples in row-major order, emitted lexicographically,
    and canonical: color c + 1 never appears before color c.  With
    exactly ``n**|pattern|`` instances every solution uses all n colors,
    so each solution is one color permutation of exactly one canonical
    word.  ``prefix`` pins the first assignments (still checked),
    ``depth_stop`` truncates the search to partial words of that length
    and ``solution_cap`` stops after so many results.
    """
    order, through = _cell_table(shape, pattern)
    k = len(pattern.cells)
    stop = len(order) if depth_stop is None else min(depth_stop, len(order))
    # A prefix of j colors is coded in bijective base n: the empty prefix
    # is 0 and appending color c maps code to code * n + c.  Each word
    # occurs once, so at most n**(k - j) instances may share a j-color
    # prefix; room[code] is what is left of that cap.
    room: list[int] = []
    for j in range(k + 1):
        room += [n ** (k - j)] * n**j
    # keys[i] codes the colors instance i has so far.
    keys = [0] * (sum(map(len, through)) // k)
    colors = [0] * len(order)
    results: list[tuple[int, ...]] = []
    nodes = 0

    def place(t: int, top: int) -> bool:
        nonlocal nodes
        if t == stop:
            results.append(tuple(colors[:stop]))
            return solution_cap is None or len(results) < solution_cap
        choices = (prefix[t],) if t < len(prefix) else range(1, min(n, top + 1) + 1)
        ids = through[t]
        for c in choices:
            nodes += 1
            if nodes > node_limit:
                raise _over_budget(node_limit)
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


def _search_job(job) -> tuple[list[tuple[int, ...]], int]:
    shape_cells, pattern_cells, n, node_limit, prefix, solution_cap = job
    return _run_search(
        Polyomino(shape_cells),
        Polyomino(pattern_cells),
        n,
        node_limit,
        prefix=prefix,
        solution_cap=solution_cap,
    )


def _fan_out(jobs: list[tuple], threads: int) -> list[tuple[list[tuple[int, ...]], int]]:
    """Run :func:`_search_job` on every job, in a process pool when
    there are threads and jobs to share; results keep the job order."""
    if threads <= 1 or len(jobs) <= 1:
        return [_search_job(job) for job in jobs]
    chunk = max(1, len(jobs) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_search_job, jobs, chunksize=chunk))


def _split_depth(shape: Polyomino) -> int:
    rows = sorted({y for _, y in shape.cells}, reverse=True)
    top = set(rows[:2])
    return sum(1 for _, y in shape.cells if y in top)


def _search_words(
    shape: Polyomino, pattern: Polyomino, n: int, config: SearchConfig
) -> list[tuple[int, ...]]:
    """Canonical words of the full search, fanned out over the
    survivors of the top two rows when ``config.threads > 1``.

    The budget is global: each worker walks its prefix again, so the
    prefix phase plus every worker's nodes beyond its prefix is exactly
    the serial node count, and the search fails for every thread count
    exactly when that count passes ``config.node_limit``.
    """
    limit = config.node_limit
    depth = _split_depth(shape)
    if config.threads <= 1 or depth >= len(shape.cells):
        words, _ = _run_search(shape, pattern, n, limit)
        return words
    prefixes, spent = _run_search(shape, pattern, n, limit, depth_stop=depth)
    jobs = [
        (shape.cells, pattern.cells, n, limit - spent + depth, pf, None)
        for pf in prefixes
    ]
    try:
        parts = _fan_out(jobs, config.threads)
    except BudgetExceededError:
        raise _over_budget(limit) from None
    spent += sum(nodes - depth for _, nodes in parts)
    if spent > limit:
        raise _over_budget(limit)
    return [word for words, _ in parts for word in words]


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
    if n < 1:
        raise SearchError("need n >= 1")
    if len(instances_of(pattern, shape)) != n ** len(pattern.cells):
        return []
    perms = list(itertools.permutations(range(1, n + 1)))
    words = sorted(
        tuple(p[c - 1] for c in word)
        for word in _search_words(shape, pattern, n, config)
        for p in perms
    )
    position = {cell: i for i, cell in enumerate(sorted(shape.cells, key=_row_major))}
    perm = [position[cell] for cell in shape.cells]
    return [
        ColoredPolyomino(shape, n, tuple(word[i] for i in perm)) for word in words
    ]


def has_prismatic_coloring(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    config: SearchConfig | None = None,
) -> bool:
    """Existence version of :func:`enumerate_prismatic_colorings`."""
    config = config or SearchConfig.default()
    if len(instances_of(pattern, shape)) != n ** len(pattern.cells):
        return False
    words, _ = _run_search(
        shape, pattern, n, config.node_limit, solution_cap=1
    )
    return bool(words)


def _mask_connected(mask: int, width: int) -> bool:
    first = (mask & -mask).bit_length() - 1
    seen = 1 << first
    stack = [first]
    while stack:
        i = stack.pop()
        x = i % width
        steps = []
        if x > 0:
            steps.append(i - 1)
        if x < width - 1:
            steps.append(i + 1)
        steps.append(i - width)
        steps.append(i + width)
        for j in steps:
            if j >= 0 and (mask >> j) & 1 and not (seen >> j) & 1:
                seen |= 1 << j
                stack.append(j)
    return seen == mask


def _bbox_candidates(
    pattern: Polyomino,
    n: int,
    size: int,
    bbox: tuple[int, int],
    config: SearchConfig,
) -> list[Polyomino]:
    """Connected size-cell shapes in the box with exactly n**|p| instances.

    Scans every size-cell subset of the box as a bitmask, cheapest
    filters first: instance count, then canonical deduplication, then
    connectivity.  Results are canonical and sorted.
    """
    width, height = bbox
    if size < 1 or width < 1 or height < 1:
        raise SearchError("size and box sides must be positive")
    total = width * height
    if size > total:
        return []
    if math.comb(total, size) > config.subset_limit:
        raise BudgetExceededError(
            f"{math.comb(total, size)} subsets exceed the {config.subset_limit} budget"
        )
    target = n ** len(pattern.cells)
    vec_masks = []
    for vy in range(height - pattern.height + 1):
        for vx in range(width - pattern.width + 1):
            m = 0
            for px, py in pattern.cells:
                m |= 1 << ((px + vx) + width * (py + vy))
            vec_masks.append(m)
    if len(vec_masks) < target:
        return []

    forms: set[tuple[Cell, ...]] = set()
    for comb in itertools.combinations(range(total), size):
        m = 0
        for b in comb:
            m |= 1 << b
        cnt = 0
        for im in vec_masks:
            if m & im == im:
                cnt += 1
                if cnt > target:
                    break
        if cnt != target:
            continue
        cells = [(b % width, b // width) for b in comb]
        mx = min(x for x, _ in cells)
        my = min(y for _, y in cells)
        forms.add(tuple(sorted((x - mx, y - my) for x, y in cells)))

    out = []
    for form in sorted(forms):
        mask = 0
        for x, y in form:
            mask |= 1 << (x + width * y)
        if _mask_connected(mask, width):
            out.append(Polyomino(form))
    return out


def _candidate_words(
    candidates: list[Polyomino],
    pattern: Polyomino,
    n: int,
    config: SearchConfig,
    solution_cap: int | None,
) -> list[list[tuple[int, ...]]]:
    """Canonical words of each candidate, one search per shape."""
    jobs = [
        (s.cells, pattern.cells, n, config.node_limit, (), solution_cap)
        for s in candidates
    ]
    return [words for words, _ in _fan_out(jobs, config.threads)]


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
    config = config or SearchConfig.default()
    candidates = _bbox_candidates(pattern, n, size, bbox, config)
    found = _candidate_words(candidates, pattern, n, config, solution_cap=1)
    return [shape for shape, words in zip(candidates, found) if words]


def shape_census(
    pattern: Polyomino,
    n: int,
    size: int,
    bbox: tuple[int, int],
    config: SearchConfig | None = None,
) -> list[tuple[Polyomino, int]]:
    """Like :func:`find_minimal_shapes` but with full coloring counts."""
    config = config or SearchConfig.default()
    candidates = _bbox_candidates(pattern, n, size, bbox, config)
    found = _candidate_words(candidates, pattern, n, config, solution_cap=None)
    orbit = math.factorial(n)
    return [(shape, len(words) * orbit) for shape, words in zip(candidates, found) if words]


def _redelmeier_witnesses(
    pattern: Polyomino, need: int, cap: int, node_limit: int
) -> tuple[list[Polyomino], int]:
    """Shapes of exactly ``cap`` cells carrying >= ``need`` instances.

    Canonical fixed-polyomino enumeration by rooted growth: the first
    cell is the leftmost cell of the bottom row, candidate cells join in
    discovery order and each is either taken or permanently skipped, so
    every fixed polyomino of size <= cap appears exactly once.  Subtrees
    that cannot reach ``need`` instances are cut; each new cell adds at
    most ``|pattern|`` instances.
    """
    pw, ph = pattern.width, pattern.height
    width = 2 * cap - 1 + 2 * pw
    height = cap + 2 * ph
    x0, y0 = pw + cap - 1, ph
    origin = x0 + width * y0

    allowed = bytearray(width * height)
    for y in range(y0, y0 + cap):
        for x in range(pw, pw + 2 * cap - 1):
            if y == y0 and x < x0:
                continue
            allowed[x + width * y] = 1
    neighbors: list[tuple[int, ...]] = [()] * (width * height)
    for i in range(width * height):
        if allowed[i]:
            neighbors[i] = tuple(
                j for j in (i - 1, i + 1, i - width, i + width) if allowed[j]
            )

    anchor_offsets = []
    for ax, ay in pattern.cells:
        anchor_offsets.append(
            tuple(
                (px - ax) + width * (py - ay)
                for px, py in pattern.cells
                if (px, py) != (ax, ay)
            )
        )
    maxgain = len(pattern.cells)

    occupied = bytearray(width * height)
    reached = bytearray(width * height)
    stack_cells: list[int] = []
    found: list[tuple[Cell, ...]] = []
    nodes = 0

    def grow(untried: list[int], sofar: int, inst: int) -> None:
        nonlocal nodes
        while untried:
            c = untried.pop()
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(
                    f"shape enumeration exceeded the {node_limit} node budget"
                )
            occupied[c] = 1
            stack_cells.append(c)
            newinst = inst
            for offs in anchor_offsets:
                hit = True
                for off in offs:
                    if not occupied[c + off]:
                        hit = False
                        break
                if hit:
                    newinst += 1
            if sofar + 1 == cap:
                if newinst >= need:
                    found.append(tuple(stack_cells))
            elif newinst + maxgain * (cap - sofar - 1) >= need:
                fresh = []
                for nb in neighbors[c]:
                    if not reached[nb]:
                        reached[nb] = 1
                        fresh.append(nb)
                grow(untried + fresh, sofar + 1, newinst)
                for nb in fresh:
                    reached[nb] = 0
            occupied[c] = 0
            stack_cells.pop()

    reached[origin] = 1
    grow([origin], 0, 0)

    shapes = []
    for idxs in found:
        cells = [(i % width, i // width) for i in idxs]
        mx = min(x for x, _ in cells)
        my = min(y for _, y in cells)
        shapes.append(Polyomino(tuple(sorted((x - mx, y - my) for x, y in cells))))
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
            pattern, count, cap, config.node_limit - spent
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
    vecs = instances_of(pattern, shape)
    by_cell: dict[Cell, list[int]] = {}
    for i, (vx, vy) in enumerate(vecs):
        for px, py in pattern.cells:
            by_cell.setdefault((px + vx, py + vy), []).append(i)
    edges = set()
    for owners in by_cell.values():
        for i, j in itertools.combinations(owners, 2):
            edges.add((i, j))
    return InstanceGraph(tuple(vecs), tuple(sorted(edges)))


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
