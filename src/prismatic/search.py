"""Verification and exhaustive search for de Bruijn colorings.

A coloring of a shape S is de Bruijn for a pattern p when the translates
of p inside S pick up every n-coloring of p exactly once.  The searches
here assign colors cell by cell in one of the 8 row- or column-major
scan orders, the one with the smallest estimated tree for the shape
(:func:`_cell_table`); results still come out in lexicographic order of
the row-major (top row first) color word.  Three exact cuts shrink the
tree:

* color symmetry: a de Bruijn coloring uses every color, so the n!
  color permutations act freely on the solutions and the search keeps
  only canonical words, in which color c + 1 never comes before color c
  (value precedence);
* lattice symmetry: an integer map of determinant +-1 that carries both
  the pattern and the shape onto translates of themselves carries
  de Bruijn colorings to de Bruijn colorings (``lattice._stabilizer``
  lists the pattern's maps, which for the zee are the row-shift
  conjugates of the square's 8 symmetries, and :func:`_shape_group`
  those that also fix the shape).  The search keeps a word w only while
  w <= pi(g w) for every such map g and color permutation pi, the last
  comparisons made at the leaf, so it keeps exactly the least word of
  each orbit of the maps and the permutations together (lex-leader
  constraints, Crawford, Ginsberg, Luks and Roy, KR 1996, which value
  precedence joins soundly, Law and Lee, CP 2004), with the orbit's
  size; :func:`_colorings` expands the kept words by both groups;
* prefix counts: every pattern coloring occurs once, so at most
  ``n**(k - j)`` instances may read the same first j colors (k pattern
  cells, in scan order); a branch dies as soon as one prefix passes its
  cap, which at ``j = k`` is the duplicate check.

Every cut removes only words that are not the least of their orbit, so
the least de Bruijn word of a shape is still the first one found.

Candidate shapes, for the census and for minimal-size witnesses, come
from one rooted polyomino growth, :func:`_redelmeier_witnesses`, but for
the L-tromino's minimal-size witnesses, which are built in closed form
(:func:`_ltromino_witnesses`); the census searches one shape per orbit
of the pattern's maps.  Every search runs whole in the calling process,
one shape at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Iterable

from .lattice import (
    _IDENTITY,
    _ISOMETRIES,
    ColoredPolyomino,
    Polyomino,
    Vec,
    _map_cells,
    _moved,
    _stabilizer,
    _to_origin,
    apply_lattice_map,
    instance_cells,
    normalize,
)
from .shapes import LTROMINO, pyramid


def __getattr__(name: str):
    # ProcessPoolExecutor, unused here: perfbench/spans.py counts process
    # pools by patching this name.  Resolved on first use, since importing
    # it loads multiprocessing.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


ENV_NODE_LIMIT = "PRISMATIC_NODE_LIMIT"
DEFAULT_NODE_LIMIT = 200_000_000


class SearchError(Exception):
    pass


class BudgetExceededError(SearchError):
    pass


class NoWitnessError(SearchError):
    pass


def _node_limit(node_limit: int | None) -> int:
    """The node budget: ``node_limit`` when given, else
    :data:`ENV_NODE_LIMIT` or :data:`DEFAULT_NODE_LIMIT`.  The budget
    bounds the color assignments one shape's search may try, and the
    cells a shape growth may try."""
    if node_limit is not None:
        return node_limit
    raw = os.environ.get(ENV_NODE_LIMIT)
    if raw is None:
        return DEFAULT_NODE_LIMIT
    # ASCII digits only: int() also reads '1_000', ' 5' and '٣'.
    try:
        limit = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # past Python's digit limit
        limit = 0
    if limit < 1:
        raise SearchError(f"{ENV_NODE_LIMIT} must be a positive integer, got {raw!r}")
    return limit


# Missing pattern colorings a VerifyResult lists; the count is exact.
MISSING_SHOWN = 8


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a de Bruijn check with its failure certificate.

    ``missing_count`` is the number of pattern colorings that no
    instance realizes and ``missing`` lists the lexicographically first
    of them (in pattern cell order), at most :data:`MISSING_SHOWN`;
    ``duplicated`` pairs each repeated coloring with its multiplicity.
    All stay empty on success.  ``tally`` is (n, |pattern|, distinct
    colorings realized); the count is built from it only when read, as
    ``n**|pattern|`` may have millions of digits.
    """

    valid: bool
    instance_count: int
    missing: tuple[tuple[int, ...], ...]
    duplicated: tuple[tuple[tuple[int, ...], int], ...]
    tally: tuple[int, int, int]

    @property
    def missing_count(self) -> int:
        n, k, realized = self.tally
        return n**k - realized

    def __bool__(self) -> bool:
        return self.valid


def is_debruijn_coloring(colored: ColoredPolyomino, pattern: Polyomino) -> VerifyResult:
    """Check whether every pattern coloring occurs exactly once.

    The work grows with the shape, not with ``n**|pattern|``: the
    missing colorings are counted, and only the first few are listed.
    """
    n, k = colored.n, len(pattern.cells)
    counts: dict[tuple[int, ...], int] = {}
    table = instance_cells(pattern, colored.shape)
    for ids in table:
        word = tuple([colored.colors[i] for i in ids])
        counts[word] = counts.get(word, 0) + 1
    # Words no instance realizes, or MISSING_SHOWN when there are surely
    # some: n**k may have millions of digits.
    unseen = MISSING_SHOWN if _surely_more_words(n, k, len(counts)) else n**k - len(counts)
    # The first MISSING_SHOWN missing words use only the first ``pool``
    # colors: a word with a color past them comes after the ``pool``
    # words that share its prefix, put one of those colors in its place
    # and color 1 after it, and at most len(counts) of those occur.  The
    # product meets at most len(counts) realized words before it has
    # found them.
    pool = min(n, len(counts) + MISSING_SHOWN)
    missing = tuple(
        itertools.islice(
            (
                word
                for word in itertools.product(range(1, pool + 1), repeat=k)
                if word not in counts
            ),
            min(unseen, MISSING_SHOWN),
        )
    )
    duplicated = tuple(
        (word, c) for word, c in sorted(counts.items()) if c > 1
    )
    return VerifyResult(
        valid=not unseen and not duplicated,
        instance_count=len(table),
        missing=missing,
        duplicated=duplicated,
        tally=(n, k, len(counts)),
    )


def _scan_orders(shape: Polyomino) -> list[list[int]]:
    """The 8 translation-invariant scan orders of ``shape``, each a list of
    indices into ``shape.cells``: row- or column-major, each axis in
    either direction.  The first is row-major, top row first, each row
    left to right."""
    rows: list[list[int]] = [[] for _ in range(shape.height)]
    cols: list[list[int]] = [[] for _ in range(shape.width)]
    for i, (x, y) in enumerate(shape.cells):
        rows[y].append(i)
        cols[x].append(i)
    rows.reverse()
    # Each order and its reverse; shape.cells is column-major already.
    orders = [
        [i for row in rows for i in row],
        [i for row in rows for i in row[::-1]],
        list(range(len(shape.cells))),
        [i for col in cols for i in col[::-1]],
    ]
    return orders + [order[::-1] for order in orders]


@functools.lru_cache(maxsize=16)
def _last_cells(pattern: Polyomino) -> tuple[int, ...]:
    """Per scan order, the index of the pattern cell it colors last."""
    return tuple(order[-1] for order in _scan_orders(pattern))


@functools.lru_cache(maxsize=16)
def _distinct_shares(words: int) -> tuple[float, ...]:
    """``shares[m]``: the chance that m uniform random words of ``words``
    are distinct, over the chance that all ``words`` are.  Taken in log
    space and capped at e**600, so that no term of an estimate overflows."""
    logs = list(itertools.accumulate((math.log1p(-i / words) for i in range(words)), initial=0.0))
    return tuple(math.exp(min(log - logs[-1], 600.0)) for log in logs)


def _cell_table(
    shape: Polyomino, pattern: Polyomino, n: int
) -> tuple[list[int], list[int], list[list[int]]] | None:
    """Where the search colors each cell, and what it checks there, as
    ``(order, step, through)``: ``order[t]`` is the index in
    ``shape.cells`` of the cell colored at step t, ``step`` is its
    inverse and ``through[t]`` lists the instances through that cell.
    ``None`` when the shape does not carry exactly ``n**|pattern|``
    instances, so admits no coloring.

    Any translation-invariant order keeps the order of a translate's
    cells, so the cell colored at step ``t`` is the next uncolored cell of
    every instance in ``through[t]``, and it is a different pattern cell,
    hence a different prefix length, for each of them.

    Of the 8 orders of :func:`_scan_orders` the table takes the one with
    the smallest expected tree under the duplicate cut alone (Knuth,
    "Estimating the efficiency of backtrack programs", 1975): the sum
    over steps t of ``n**(t+1) * prod_{i<m_t} (1 - i/n**k)``, the color
    prefixes of t + 1 cells whose m_t complete instances read distinct
    words.  Every order ends on the same last term, and each term is
    taken relative to it, as a power of n times a :func:`_distinct_shares`
    entry; on a tie the first order is kept.
    """
    table = instance_cells(pattern, shape)
    if _surely_more_words(n, len(pattern.cells), len(table)):
        return None
    words = n ** len(pattern.cells)
    if len(table) != words:
        return None
    orders = _scan_orders(shape)
    order, best = orders[0], math.inf
    # powers[t] = n**(t + 1 - len(shape)), the last term's power of n
    # taken out.
    falls = itertools.repeat(1 / n, len(shape.cells) - 1)
    powers = list(itertools.accumulate(falls, operator.mul, initial=1.0))[::-1]
    shares = _distinct_shares(words)
    for scan, last in zip(orders, _last_cells(pattern)):
        # An instance is complete once its last pattern cell is colored.
        ends = [0] * len(scan)
        for ids in table:
            ends[ids[last]] += 1
        complete = itertools.accumulate(map(ends.__getitem__, scan))
        estimate = sum(map(operator.mul, powers, map(shares.__getitem__, complete)))
        if estimate < best:
            best, order = estimate, scan
    step = [0] * len(order)
    for t, c in enumerate(order):
        step[c] = t
    through: list[list[int]] = [[] for _ in order]
    for inst, ids in enumerate(table):
        for i in ids:
            through[step[i]].append(inst)
    return order, step, through


def _surely_more_words(n: int, k: int, count: int) -> bool:
    """Whether ``n**k > count`` follows without building ``n**k``, which
    may have millions of digits: n**k >= 2**(b k) for b one less than
    n's bit length, and 2**(b k) passes ``count`` once b k reaches its
    bit length."""
    return (n.bit_length() - 1) * k >= count.bit_length()


@functools.lru_cache(maxsize=16)
def _shape_group(shape: Polyomino, pattern: Polyomino) -> tuple[tuple[int, ...], ...]:
    """The maps of :func:`_stabilizer` that also carry ``shape`` onto a
    translate of itself, as permutations of cell indices: ``g[i]`` is
    the index of the image of ``shape.cells[i]``.  Distinct permutations
    other than the identity only."""
    index_of = {cell: i for i, cell in enumerate(shape.cells)}
    group = set()
    for m in _stabilizer(pattern)[1:]:
        image = _to_origin(_map_cells(shape.cells, m))
        if tuple(sorted(image)) == shape.cells:
            group.add(tuple(map(index_of.__getitem__, image)))
    group.discard(tuple(range(len(shape.cells))))
    return tuple(sorted(group))


def _lex_leader_checks(
    order: list[int], step: list[int], group: tuple[tuple[int, ...], ...], n: int
) -> tuple[list[list[tuple[int, list[int], tuple[tuple[int, int], ...]]]], int]:
    """The lex-leader comparisons, as ``(due, every)``, for the scan
    ``order`` and its inverse ``step`` of :func:`_cell_table`.

    ``due[t]`` lists the comparisons step t makes possible, as ``(bit,
    labels, pairs)``: ``bit`` names the map, ``pairs`` the (position,
    source) pairs of scan-order word positions it compares there, and
    ``labels`` is the map's own color relabeling, filled in as the
    search goes.  ``every`` has the bits of all maps.

    The word w read through g, its image under the inverse of g (also in
    ``group``), holds ``w[src[p]]`` at position p.  Position p can be
    compared once the search has colored both p and ``src[p]``, and only
    after every earlier position, so at the step ``max(q, src[q] for
    q <= p)``.  Every position is compared by the last step, so at the
    leaf the bits still set name the maps tied with the word.
    """
    due: list[list] = [[] for _ in step]
    for index, g in enumerate(group):
        src = [step[g[i]] for i in order]
        ready = itertools.accumulate(map(max, range(len(src)), src), max)
        at: dict[int, list[tuple[int, int]]] = {}
        for p, t in enumerate(ready):
            at.setdefault(t, []).append((p, src[p]))
        labels = [0] * (n + 1)
        for t, pairs in at.items():
            due[t].append((1 << index, labels, tuple(pairs)))
    return due, (1 << len(group)) - 1


def _need_colors(n: int) -> None:
    if n < 1:
        raise SearchError("need n >= 1")


def _run_search(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    node_limit: int,
    solution_cap: int | None = None,
) -> tuple[list[tuple[int, ...]], int, list[int]]:
    """Backtracking core, in the scan order :func:`_cell_table` picks;
    returns (canonical colorings, nodes tried, orbit sizes), or ``([], 0,
    [])`` without searching when the instance count is not ``n**|pattern|``.

    Colorings are color tuples in ``shape.cells`` order, emitted in
    lexicographic order of their scan-order word w, and canonical: in
    scan order color c + 1 never appears before color c, and w is no
    greater than pi(g w) for any map g of :func:`_shape_group` and color
    permutation pi.  There are exactly ``n**k`` instances, so every
    solution uses all n colors, and w is the least of its orbit, which
    holds |G| n! / |Stab(w)| colorings (G the maps with the identity):
    for one g just one pi can carry g w back to w, so Stab(w) is the
    identity and the maps still tied with w at the leaf.  ``solution_cap``
    stops after so many results.

    For one g the least pi(g w) is g w with its colors renamed in order
    of first appearance, so one relabeling per map stands for all n!
    permutations.  While w is tied with it, ``labels[x]`` is the name of
    image color x and ``labels[0]`` the number named; w is canonical, so
    a color new to the image is tied only with a color new to w.
    """
    table = _cell_table(shape, pattern, n)
    if table is None:
        return [], 0, []
    order, step, through = table
    k = len(pattern.cells)
    # A prefix of j colors is coded in bijective base n: the empty prefix
    # is 0 and appending color c maps code to code * n + c.  Each word
    # occurs once, so at most n**(k - j) instances may share a j-color
    # prefix; room[code] is what is left of that cap.
    room: list[int] = []
    for j in range(k + 1):
        room += [n ** (k - j)] * n**j
    # keys[i] is n times the code of the colors instance i has so far.
    keys = [0] * n**k
    colors = [0] * len(step)
    results: list[tuple[int, ...]] = []
    orbits: list[int] = []
    nodes = 0
    group = _shape_group(shape, pattern) if n > 1 else ()
    size = (len(group) + 1) * math.factorial(n)
    checks, every = _lex_leader_checks(order, step, group, n)
    steps = list(zip(through, checks))
    # hues[top]: the colors a step may take once colors 1..top are used.
    hues = [range(1, min(n, top + 1) + 1) for top in range(n + 1)]
    # wrote: the label writes, as (step, labels, color), in the order made.
    wrote: list[tuple[int, list[int], int]] = []

    def lead(t: int, due: list, live: int) -> int:
        """Make the comparisons ``due`` at step t for the maps still tied,
        the bits of ``live``; returns the maps still tied after them, or
        -1 when the word is past an image."""
        # Writes from step t on belong to branches the search has left.
        # Earlier ones belong to this branch: a step that skips lead has
        # no map tied, and neither has any step below it, so no read
        # meets a write left behind.
        while wrote and wrote[-1][0] >= t:
            _, labels, x = wrote.pop()
            labels[x] = 0
            labels[0] -= 1
        for bit, labels, pairs in due:
            if live & bit:
                for p, s in pairs:
                    y, x = colors[p], colors[s]
                    z = labels[x]
                    if not z:
                        # x is new in the image, so relabeled it is the next
                        # color; y is at most that, and equal when new too.
                        z = labels[0] + 1
                        if y == z:
                            labels[x] = labels[0] = z
                            wrote.append((t, labels, x))
                            continue
                    if y != z:
                        if y > z:
                            return -1
                        live ^= bit
                        break
        return live

    def place(t: int, top: int, tied: int) -> bool:
        """Color step t on, with colors 1..top used so far and the maps
        still tied with the word, one bit each, in ``tied``."""
        nonlocal nodes
        if t == len(steps):
            results.append(tuple(map(colors.__getitem__, step)))
            orbits.append(size // (tied.bit_count() + 1))
            return solution_cap is None or len(results) < solution_cap
        ids, due = steps[t]
        for c in hues[top]:
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(
                    f"search exceeded the {node_limit} node budget"
                )
            # Prefixes of different lengths never share a code, so no two
            # instances in ``ids`` draw on the same room entry.
            for i in ids:
                if not room[keys[i] + c]:
                    break
            else:
                colors[t] = c
                live = tied
                if due and tied:
                    live = lead(t, due, tied)
                    if live < 0:
                        continue
                for i in ids:
                    code = keys[i] + c
                    room[code] -= 1
                    keys[i] = code * n
                alive = place(t + 1, c if c > top else top, live)
                for i in ids:
                    code = keys[i] // n
                    room[code] += 1
                    keys[i] = code - c
                if not alive:
                    return False
        return True

    try:
        place(0, 0, every)
    except RecursionError:
        raise _too_deep("coloring search", len(through)) from None
    return results, nodes, orbits


def _too_deep(what: str, cells: int) -> SearchError:
    return SearchError(
        f"{what} of {cells} cells passes the recursion limit of {sys.getrecursionlimit()}"
    )


def enumerate_prismatic_colorings(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    node_limit: int | None = None,
) -> list[ColoredPolyomino]:
    """Every de Bruijn n-coloring of ``shape`` for ``pattern``.

    Returns colorings ordered lexicographically by their row-major color
    word.  A shape whose instance count differs from ``n**|pattern|``
    admits none and yields an empty list without searching.
    """
    colorings = _colorings(shape, pattern, n, node_limit)
    return [ColoredPolyomino(shape, n, colors) for colors in colorings]


def _colorings(
    shape: Polyomino, pattern: Polyomino, n: int, node_limit: int | None = None
) -> list[tuple[int, ...]]:
    """:func:`enumerate_prismatic_colorings` as color tuples in
    ``shape.cells`` order: each word :func:`_run_search` keeps, under
    every color permutation and every map of the shape's group, in
    row-major words so that one plain sort orders them."""
    node_limit = _node_limit(node_limit)
    _need_colors(n)
    words, _, _ = _run_search(shape, pattern, n, node_limit)
    # One color leaves one coloring; two or more need two or more cells,
    # so every itemgetter below returns a tuple.
    if n == 1 or not words:
        return words
    row = _scan_orders(shape)[0]
    # at[i]: the row-major position of cell i.
    at = sorted(range(len(row)), key=row.__getitem__)
    # Each g in the group comes with its inverse, so reading a word
    # through g gives the same images as moving it by g.
    maps = [operator.itemgetter(*[at[g[i]] for i in row]) for g in _shape_group(shape, pattern)]
    # The shape carries n**k instances, so n is at most its cell count.
    perms = [(0, *p).__getitem__ for p in itertools.permutations(range(1, n + 1))]
    images = set()
    for word in map(operator.itemgetter(*row), words):
        renamed = [tuple(map(p, word)) for p in perms]
        images.update(renamed)
        for g in maps:
            images.update(map(g, renamed))
    return list(map(operator.itemgetter(*at), sorted(images)))


def has_prismatic_coloring(
    shape: Polyomino,
    pattern: Polyomino,
    n: int,
    node_limit: int | None = None,
) -> bool:
    """Existence version of :func:`enumerate_prismatic_colorings`."""
    node_limit = _node_limit(node_limit)
    _need_colors(n)
    words, _, _ = _run_search(shape, pattern, n, node_limit, solution_cap=1)
    return bool(words)


def shape_census(
    pattern: Polyomino,
    n: int,
    size: int,
    bbox: tuple[int, int],
    node_limit: int | None = None,
) -> list[tuple[Polyomino, int]]:
    """Size-cell shapes in the box that admit a de Bruijn n-coloring, each
    with its coloring count; canonical forms, sorted by their cell tuples.

    :func:`_redelmeier_witnesses` grows the candidates, the shapes with
    exactly ``n**|pattern|`` instances, and :func:`_run_search` searches
    the first of each orbit under :func:`_stabilizer`, in shape order.
    """
    node_limit = _node_limit(node_limit)
    _need_colors(n)
    if size < 1 or min(bbox) < 1:
        raise SearchError("size and box sides must be positive")
    # By the counting bound of :func:`_least_size` a shape holds at most
    # ``size`` instances; n**|pattern| may have millions of digits.
    if _surely_more_words(n, len(pattern.cells), size):
        return []
    target = n ** len(pattern.cells)
    shapes, _ = _redelmeier_witnesses(pattern, size, bbox, target, target, node_limit)
    # A map of the pattern's stabilizer carries the colorings of a shape
    # one to one onto those of its image, so one search counts the images
    # on the list too.  The maps cost |pattern|**3 to find, and with one
    # color a shape has one coloring, so they are found only when needed.
    maps = _stabilizer(pattern) if shapes and n > 1 else (_IDENTITY,)
    counts: dict[tuple[Vec, ...], int] = {}
    for shape in shapes:
        if shape.cells in counts:
            continue
        count = sum(_run_search(shape, pattern, n, node_limit)[2])
        for m in maps:
            counts.setdefault(_moved(shape.cells, m), count)
    return [(shape, counts[shape.cells]) for shape in shapes if counts[shape.cells]]


def _least_size(pattern: Polyomino, count: int) -> int:
    """The fewest cells a shape needs to carry ``count`` instances of
    ``pattern``; 1, which every shape meets, when ``count <= 0``.

    Counting bound: the instance whose anchor (its translate of
    ``pattern.cells[0]``) comes last in cell order has its other
    ``|pattern| - 1`` cells past every anchor, so ``count >= 1``
    instances need ``count + |pattern| - 1`` cells.

    A pattern two or more cells wide and high allows at most ``size -
    m(size)`` instances, m(s) the least m with m(m + 1)/2 >= s (a
    staircase bound, met by the L-tromino's trimmed pyramids).  In a cell
    set S let R hold the rightmost cell of each occupied row, T the
    topmost (largest y) cell of each occupied column, and m = |R | T|;
    then |S| <= m(m + 1)/2.  Send the cell (x, y) to the pair (end of
    row y, top of column x): the pair gives y and x back, so the map is
    one to one.  Were (x, y) sent to (a, b) and another cell to (b, a),
    with a = (X_a, y) and b = (x, Y_b), that cell would be (X_a, Y_b) in
    S; a ends row y and tops column X_a, b tops column x and ends row
    Y_b, so x <= X_a <= x and y <= Y_b <= y, and a = b = (x, y).  So
    each unordered pair of R | T, and each diagonal pair, is hit at
    most once.  Such a pattern has a cell j with a horizontal and a
    vertical neighbour (see :func:`_stabilizer`); reflected so that
    they lie right of and above it, a shape cell playing j has shape
    cells right of and above it, so it lies outside R | T, and distinct
    instances have distinct such cells: instances <= s - m <= s - m(s),
    as s <= m(m + 1)/2 gives m >= m(s).

    Inverted: s - m(s) climbs by 0 or 1 per cell, and s = count + j has
    s - m(s) >= count, or count + j <= j(j + 1)/2, exactly when
    j(j - 1)/2 >= count, that is from j = m(count) + 1 on.
    """
    if count <= 0:
        return 1
    # m(s) = (isqrt(8s) + 1) // 2: m(m + 1)/2 >= s means (2m + 1)**2 > 8s.
    stair = (math.isqrt(8 * count) + 1) // 2 + 1 if min(pattern.width, pattern.height) > 1 else 0
    return count + max(len(pattern.cells) - 1, stair)


def _partitions(n: int, most: int) -> Iterable[tuple[int, ...]]:
    """The partitions of ``n`` into parts of at most ``most``, largest
    part first."""
    if n == 0:
        yield ()
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _ltromino_witnesses(
    size: int, turn: tuple[int, int, int, int], node_limit: int
) -> list[Polyomino]:
    """Every shape of ``size = _least_size(p, count)`` cells with
    ``count`` instances of p, the image of the L-tromino under ``turn``,
    sorted by cells.  With m = m(size) and T_m = m(m + 1)/2, they are the
    staircase T_m = {(x, y): x, y >= 0, x + y <= m - 1} less D(lam) |
    g_B(D(mu)) | g_C(D(nu)), one for each triple of partitions with |lam|
    + |mu| + |nu| = j = T_m - size: D(lam) = {(x, y): x < lam_y}, g_B(x,
    y) = (m - 1 - x - y, y) and g_C(x, y) = (x, m - 1 - x - y).  The
    linear parts of g_B and g_C fix the L-tromino; with the transpose
    they permute T_m's corners and sides and carry bites to bites.

    Every witness S is extremal, and j <= m - 2: s = size has s - m(s) =
    count (see :func:`_least_size`), the most s cells allow, and s - m(s)
    is the same at T_{m-1} + 1 as at T_{m-1}, so s >= T_{m-1} + 2.

    S lies in a translate of T_m.  An instance is its corner cell, which
    has a right and an upper neighbour; so with R | T as in
    :func:`_least_size`, S holds s - |R | T| instances less one per other
    cell that lacks either, and |R | T| <= m.  Let (x1, y1) in S have x1 +
    y1 largest, and x0, y0 be S's least x and y.  The rows y0..y1 have an
    end each and the columns x0..x1 a top, and only (x1, y1) is both:
    another such cell lies below and left of it, and the empty rays right
    of and above that cell would cut it off.  So m >= x1 + y1 - x0 - y0 +
    1.

    X = T_m - S is bites.  |X| = j, and S holds s - m = T_{m-1} - j of
    T_m's T_{m-1} instances: X spoils j.  Any X of at most m - 1 cells
    spoils at least |X|, by the staircase bound; by induction on m, one
    of at most m - 2 cells that spoils just |X| is bites.  Were X
    nonempty and off the bottom row and the hypotenuse, it would spoil
    the instance at each of its cells less (0, 1), and the one at its top
    cell too; so a map puts a cell of X on row 0.  The m - 1 instances at
    row 0's cells then lose at least |X_0| through their row 0 cells, X_0
    = X on row 0, and just |X_0| only if X_0 is a prefix of p cells and a
    suffix of q, p + q <= m - 2.  The rows above, a T_{m-1}, lose at least
    |X - X_0| <= m - 3, and just that only if X - X_0 is bites (lam', mu',
    nu') of it.  Nothing more is spoiled only if no instance with both row
    0 cells kept has its top in X: lam'_0 <= p and mu'_0 <= q, so lam =
    (p, lam'), mu = (q, mu') and nu = nu'.

    Conversely, with at most m - 1 cells in all, no instance holds cells
    of two bites, and D(lam), closed leftward and downward, spoils just
    the instances at its own cells, as does each bite by symmetry.  So
    each triple gives an extremal set, and each nonempty bite is the part
    of X linked to its corner through shared instances: distinct triples
    give distinct sets.  An extremal set of T_{m-1} + 2 cells or more is
    connected: parts with m(s1) = m1 and m(s2) = m2 need m1 + m2 <= m, and
    T_{m-1} < s <= T_{m1} + T_{m2} = T_{m1+m2} - m1 m2 leaves only a
    one-cell part, at s = T_{m-1} + 1.

    p3(i), the number of triples with |lam| + |mu| + |nu| = i, is the
    coefficient of x**i in prod (1 - x**k)**-3: i p3(i) = 3 sum sigma(k)
    p3(i - k).  The shapes cost p3(j) * size of ``node_limit``, which is
    checked before any is built; :func:`shapes.pyramid` then refuses a
    staircase past the shape cell limit before building it.
    """
    m = (math.isqrt(8 * size) + 1) // 2
    j = m * (m + 1) // 2 - size
    p3, sigma = [1], [0]
    while len(p3) <= j and p3[-1] * size <= node_limit:
        i = len(p3)
        sigma.append(sum(d for d in range(1, i + 1) if i % d == 0))
        p3.append(3 * sum(sigma[k] * p3[i - k] for k in range(1, i + 1)) // i)
    if p3[-1] * size > node_limit:
        raise BudgetExceededError(
            f"shape enumeration exceeded the {node_limit} node budget at size {size}"
        )
    stair = pyramid(m).cells
    corners = (
        lambda x, y: (x, y),
        lambda x, y: (m - 1 - x - y, y),
        lambda x, y: (x, m - 1 - x - y),
    )
    shapes = []
    for a in range(j + 1):
        for b in range(j - a + 1):
            c = j - a - b
            for bites in itertools.product(_partitions(a, a), _partitions(b, b), _partitions(c, c)):
                gone = {
                    g(x, y)
                    for g, lam in zip(corners, bites)
                    for y, row in enumerate(lam)
                    for x in range(row)
                }
                shapes.append(Polyomino(_moved([cell for cell in stair if cell not in gone], turn)))
    shapes.sort(key=lambda s: s.cells)
    return shapes


def _growth_box(
    pattern: Polyomino, size: int, box: tuple[int, int], need: int
) -> tuple[int, int] | None:
    """The (W, H) box growth may use for shapes of ``size`` cells in
    ``box`` with ``need`` instances, or ``None`` when no such shape fits.

    A shape is at most ``size`` wide and high.  A pattern two or more
    cells wide has two cells side by side, each instance puts the left
    one on its own cell, never the last of a row, and a connected shape
    has no empty row, so instances <= size - H (<= size - W for a pattern
    two or more cells high).  The clamped box must still hold ``size``
    cells and ``need`` translates, and :func:`_least_size` bounds ``size``.
    """
    width = min(box[0], size - need if pattern.height > 1 else size)
    height = min(box[1], size - need if pattern.width > 1 else size)
    translates = max(0, width - pattern.width + 1) * max(0, height - pattern.height + 1)
    if min(width, height) < 1 or size > width * height or translates < need:
        return None
    if size < _least_size(pattern, need):
        return None
    return width, height


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
    the leftmost cell of the bottom row, the untried candidate with the
    highest index (row-major from the root) is popped first, and each is
    either taken or permanently skipped, so every fixed polyomino appears
    exactly once; that holds for any pop order, and so do the cuts below.
    The box is clamped on entry by :func:`_growth_box`.  Growth stays in
    the H rows from the root's row up and within W - 1 columns either
    side of the root.  A cell that would make the
    shape wider than W, or push its instance count past ``most``, is
    skipped: every superset of such a shape fails the same way.  Subtrees
    that cannot reach ``need`` instances are cut; each new cell adds at
    most ``|pattern|`` instances.  Returns the canonical shapes sorted by
    their cells and the cells tried, which count against ``node_limit``.

    Dead cells cut the rest.  In a branch, a cell is *banned* when no
    completion can hold it: it lies outside the region, it was popped
    earlier at this level or at an ancestor's (and so was skipped for
    good), or it lies in a column that a W-wide shape with the branch's
    span cannot reach.  Fix a pattern cell j.  Each instance has exactly
    one shape cell that plays j, and distinct instances have distinct
    such cells, since the cell fixes the translate; the translate of the
    pattern that puts j on that cell lies in the shape.  An occupied cell
    whose translate holds a banned cell is *dead for j*: it plays j in
    no instance of any completion.  So every completion of ``size``
    cells holds at most ``size - dead_j`` instances, and a branch with
    ``dead_j > size - need`` for some j is cut.

    Row ends tighten the count for a pattern cell j whose right-hand
    neighbour (x + 1, y) is in the pattern too: the last cell of a row
    of a finished shape has no shape cell to its right, so it plays j in
    no instance.  Each occupied row's last cell in a completion is
    either the row's rightmost occupied cell now or a cell not yet
    grown; either way it lies outside ``dead_j`` unless it is that
    rightmost cell and dead already, and distinct rows give distinct
    cells.  So with ``ends`` the rightmost occupied cell of each row, a
    completion holds at most ``size - |dead_j | ends|`` instances, and
    the branch is cut once ``|dead_j | ends| > size - need``.  This is
    the ``size - H`` bound of :func:`_growth_box` applied to the rows
    grown so far.

    The test also ends a level: when a child fails it and the cells
    occupied before the child, with those banned by then and that
    occupancy's row ends, fail it alone, every later sibling fails too,
    since each of its completions holds those cells and avoids the
    banned ones.
    """
    clamped = _growth_box(pattern, size, box, need)
    if clamped is None:
        return [], 0
    # Growth recurses once per cell.
    if size > sys.getrecursionlimit():
        raise _too_deep("shape growth", size)
    width, height = clamped
    gain = len(pattern.cells)
    x0 = width - 1
    span = 2 * width - 1
    # Every cell set is an int with bit i for cell i = x + stride * y.  The
    # growth region is ``height`` rows of ``span`` cells, less the cells
    # left of the root (x0, 0); each row is followed by ``pattern.width``
    # blocked cells so that no step or instance wraps.
    stride = span + pattern.width
    total = stride * height
    rows = sum(1 << stride * y for y in range(height))
    region = ((1 << span) - 1) * rows & ~((1 << x0) - 1)
    # ``around << c >> stride``: the cells c - stride, c - 1, c + 1 and
    # c + stride.
    around = 1 | 5 << stride - 1 | 1 << 2 * stride
    # completes[c]: an (anchor, rest) pair for each instance c completes,
    # with bit i of ``rest`` its cell anchor + i other than c.
    offsets = [px + stride * py for px, py in pattern.cells]
    pad = max(offsets)
    whole = sum(1 << off for off in offsets)
    rests = [(off, whole ^ 1 << off) for off in offsets]
    completes: list[list[tuple[int, int]]] = [[] for _ in range(total)]
    anchors = functools.reduce(operator.and_, (region >> off for off in offsets))
    for v, b in enumerate(bin(anchors)[:1:-1]):
        if b == "1":
            for off, rest in rests:
                completes[v + off].append((v, rest))

    # Banned cells are kept as the anchors they spoil: bit v + pad of
    # ``bad`` marks the anchor v, from -pad up, whose pattern translate
    # holds a banned cell.  Cell c plays pattern cell j through the anchor
    # c - offsets[j]: bit c of ``bad >> shifts[j]``.  Banning cell c spoils
    # ``spread << c``, banning column x ``column << x``.
    shifts = [pad - off for off in offsets]
    # Pattern cells with a right-hand neighbour also count the row ends:
    # bit x + stride * y of ``ends`` marks row y's rightmost occupied cell.
    rowed = [pad - off for off in offsets if off + 1 in offsets]
    plain = [sh for sh in shifts if sh not in rowed]
    rowmask = (1 << stride) - 1
    slack = size - need
    # The cut needs more than ``slack`` occupied cells, so with ``slack >=
    # size - 1`` (need <= 1) it never fires and the ints stay 0.
    spread = column = bad = 0
    if slack < size - 1:
        spread = sum(1 << s for s in shifts)
        column = functools.reduce(operator.or_, (spread << (stride * y) for y in range(height)))
        # Bit i + pad: cell i, from -pad up, lies outside the region.
        outside = ~(region << pad) & (1 << total + 2 * pad) - 1
        bad = functools.reduce(operator.or_, (outside >> off for off in offsets))

    found: list[int] = []
    nodes = 0

    def grow(
        untried: int,
        reached: int,
        sofar: int,
        inst: int,
        lo: int,
        hi: int,
        occ: int,
        bad: int,
        ends: int,
    ) -> None:
        nonlocal nodes
        last = sofar + 1 == size
        # Fewest instances a next cell may leave and still reach ``need``.
        floor = need - gain * (size - sofar - 1)
        # The pattern cells whose dead cells are counted, alone and with
        # the row ends: none while no more cells are occupied than ``slack``.
        bare, ended = (plain, rowed) if sofar + 1 > slack else ((), ())
        while untried:
            # Pop the highest untried cell.
            c = untried.bit_length() - 1
            untried ^= 1 << c
            nodes += 1
            if nodes > node_limit:
                raise BudgetExceededError(
                    f"shape enumeration exceeded the {node_limit} node budget"
                )
            x = c % stride
            left = x if x < lo else lo
            right = x if x > hi else hi
            # A cell this far out lies in a column banned already.
            if right - left >= width:
                continue
            # Taking c keeps ``kept``; every later sibling has c banned.
            kept, bad = bad, bad | spread << c
            # A shape spanning columns lo..hi stays within hi - x0 ..
            # lo + x0; c widens the span by at most one column.
            if right > hi:
                kept |= column << (hi - x0)
            elif left < lo:
                kept |= column << (lo + x0)
            taken = occ | 1 << c
            for s in bare:
                if (kept >> s & taken).bit_count() > slack:
                    break
            else:
                # c becomes its row's end unless that end lies right of it.
                base = c - x
                e = ends >> base & rowmask
                tends = ends if e >> x else ends ^ e << base | 1 << c
                for s in ended:
                    if (kept >> s & taken | tends).bit_count() > slack:
                        break
                else:
                    newinst = inst
                    for v, rest in completes[c]:
                        if occ >> v & rest == rest:
                            newinst += 1
                    if not floor <= newinst <= most:
                        continue
                    if last:
                        found.append(taken)
                        continue
                    fresh = around << c >> stride & region & ~reached
                    # A cell the span has put out of reach is banned
                    # already, and the span only widens below here.  Only
                    # c - 1 and c + 1 leave c's column, and only a span
                    # already W wide puts them out of reach.
                    if right - left == x0:
                        if x == right:
                            fresh &= ~(2 << c)
                        if x == left:
                            fresh &= ~(1 << c >> 1)
                    grow(untried | fresh, reached | fresh, sofar + 1, newinst, left, right, taken, kept, tends)
                    continue
            # c failed the dead-cell test.  Every later sibling keeps a
            # superset of ``bad`` and takes a superset of ``occ``: once
            # those alone fail, so do all of them.
            for r in bare:
                if (bad >> r & occ).bit_count() > slack:
                    return
            for r in ended:
                if (bad >> r & occ | ends).bit_count() > slack:
                    return

    try:
        grow(1 << x0, 1 << x0, 0, 0, x0, x0, 0, bad, 0)
    except RecursionError:
        raise _too_deep("shape growth", size) from None

    # Bit i of a found mask, bin()'s i-th digit from the end, is cell i.
    cells = ([i for i, b in enumerate(bin(m)[:1:-1]) if b == "1"] for m in found)
    shapes = [normalize((i % stride, i // stride) for i in idxs) for idxs in cells]
    shapes.sort(key=lambda s: s.cells)
    return shapes, nodes


def min_size_with_instances(
    pattern: Polyomino,
    count: int,
    size_cap: int,
    node_limit: int | None = None,
) -> tuple[int, list[Polyomino]]:
    """Smallest cell count of a connected shape with >= ``count`` instances.

    Returns that size together with every witness shape of that size,
    sorted by cells.  For the L-tromino and its rotations the first size
    :func:`_least_size` gives always has witnesses, built in closed form
    by :func:`_ltromino_witnesses`.  Any other pattern grows the sizes in
    increasing order from there up to ``size_cap``.  Raises
    :class:`NoWitnessError` when the cap is reached without a witness.
    One node budget covers every size.
    """
    node_limit = _node_limit(node_limit)
    if count < 1:
        raise SearchError("need count >= 1")
    start = _least_size(pattern, count)
    turn = next((g for g in _ISOMETRIES if _moved(LTROMINO.cells, g) == pattern.cells), None)
    if turn is not None and start <= size_cap:
        return start, _ltromino_witnesses(start, turn, node_limit)
    spent = 0
    for cap in range(start, size_cap + 1):
        try:
            witnesses, nodes = _redelmeier_witnesses(
                pattern, cap, (cap, cap), count, len(pattern.cells) * cap, node_limit - spent
            )
        except BudgetExceededError:
            raise BudgetExceededError(
                f"shape enumeration exceeded the {node_limit} node budget at size {cap}"
            ) from None
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
