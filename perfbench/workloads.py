"""Seeded query lists for the four workloads, each query with its answer check.

A workload is one *round*: a fixed list of queries that the runner plays
in a freshly seeded order, as many rounds as fit its time.  The seed
decides everything random about the inputs (the tee's orientation,
grids, mutations, locate targets) and the order; the program only ever
sees argv strings, with shapes and colorings passed as inline JSON.

Every check returns ``None`` for a correct answer and a short reason
otherwise.  Counts are the paper's values where the paper gives one and
the answers recorded at the commit that introduced this benchmark where
it does not (``RECORDED``); everything else is compared with the
brute-force oracle in ``oracle.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

Check = Callable[[str, object], "str | None"]


@dataclass
class Query:
    """One closed-loop request: CLI ``argv``, or a library ``call``."""

    label: str
    check: Check
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


@dataclass
class Workload:
    queries: list[Query]
    warmup: Query


# sha256 of stdout, recorded at the commit that introduced this benchmark,
# for queries whose output the paper does not give byte for byte.
RECORDED = {
    "census 13": "3cf02273b77512874befa1c64f23aed8278f2a2c5cd07f887e6312aba8bb7bec",
    "census 14": "d8fa0167f89ca591dcd77c4d8d735f793742cacb0fe553f7235218c51c5e46a5",
    "min-size ltromino 8": "41888767642787cc6758e0398446cfd21d8122d766e6799de8e04155c93aee22",
    "min-size ltromino 9": "5a6e624f8f8d29c5e9566a12967cf2a4827a85da224f4fb73943f0109b2b1a8d",
    "min-size square 4": "4c17fe69ed8f829be33a1b7d892e3ccbf663cd6326833dbab5bdcb854a01c196",
    "min-size tee 4": "f2e49976add64d92ba3802e8e420615286e5a34347b27643b7c8353aea0f012b",
}


def _js(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _exit_ok(code, want: int = 0) -> str | None:
    return None if code == want else f"exit code {code!r}, want {want}"


# --------------------------------------------------------------------- search


def _zee_stair():
    return oracle.normalized((x - y, y) for x in range(5) for y in range(5))


def _ell_stair():
    return oracle.normalized((x, y) for y in range(5) for x in range(9 - 2 * y))


def _ziggurat5():
    return oracle.normalized((x, y) for y in range(5) for x in range(y, 9 - y))


def _rect(w, h):
    return oracle.normalized((x, y) for x in range(w) for y in range(h))


def _bar(k):
    return tuple((i, 0) for i in range(k))


# (label, shape cells, shape spec, pattern cells, pattern spec, count,
# copies per orientation per round).  Counts: 800 and 168 are the
# paper's; the zee and ell staircases are the row-shift images of the 5x5
# square and ziggurat 5 and carry the same counts; bars of n**k + k - 1
# cells carry the acyclic de Bruijn sequences, 16 for (2, 3) and 256 for
# (2, 4).  The paper's headline query, the 5x5 square, is most of the
# round, so the median is its median rather than a point between pairs
# of different cost.
SEARCH_PAIRS = [
    ("rect5x5/square", _rect(5, 5), "rect:5x5", oracle.SQUARE, "square", 800, 20),
    ("ziggurat5/tee", _ziggurat5(), "ziggurat:5", oracle.TEE, "tee", 168, 2),
    ("zee-stair/zee", _zee_stair(), None, oracle.ZEE, "zee", 800, 2),
    ("ell-stair/ell", _ell_stair(), None, oracle.ELL, "ell", 168, 2),
    ("bar19/straight4", _bar(19), "rect:19x1", _bar(4), "straight:4", 256, 2),
    ("bar10/straight3", _bar(10), "rect:10x1", _bar(3), "straight:3", 16, 2),
]
# Pairs that also run with --threads 2; the first is the base query of
# search.fanout.t2_over_t1.
THREADED = ("rect5x5/square", "ziggurat5/tee")


def _enumerate_check(shape, pattern, count, digests: dict, key) -> Check:
    """Count, distinct lines, oracle on the first and last coloring, and
    byte-identical output for every repeat of the same query, serial or
    ``--threads 2``."""
    cells = set(shape)

    def check(out: str, code) -> str | None:
        if code != 0:
            return _exit_ok(code)
        lines = out.splitlines()
        if len(lines) != count:
            return f"{len(lines)} colorings, want {count}"
        if len(set(lines)) != count:
            return "repeated colorings"
        for line in (lines[0], lines[-1]):
            mapping = oracle.mapping_of(json.loads(line))
            if set(mapping) != cells or not oracle.is_debruijn(mapping, 2, pattern):
                return "oracle rejects a coloring"
        d = oracle.digest(out)
        if digests.setdefault(key, d) != d:
            return "output differs from an earlier run of the same query"
        return None

    return check


def build_search(rng: random.Random) -> Workload:
    """Exhaustive enumeration: the backtracking core (`_run_search`), the
    coloring-to-JSON path and, for the ``--threads 2`` share, process
    fan-out.  The only workload with 3 colors (the library call).

    Every pair runs as often as given as with shape and pattern both
    transposed.  Counts are invariant under transpose, but the node
    count is not (185k to 331k), so a seeded choice of orientation would
    make the work, and every timing, depend on the seed.  The seed sets
    the order."""
    from prismatic import search, shapes

    digests: dict = {}
    queries = []
    for label, shape, shape_spec, pattern, pattern_spec, count, copies in SEARCH_PAIRS:
        for flip in (False, True):
            cells, pcells = shape, pattern
            sspec, pspec = shape_spec, pattern_spec
            if flip:
                cells, pcells = oracle.transposed(shape), oracle.transposed(pattern)
                sspec, pspec = None, _js(oracle.shape_doc(pcells))
            argv = [
                "enumerate",
                "--shape", sspec or _js(oracle.shape_doc(cells)),
                "--pattern", pspec,
                "--colors", "2",
            ]
            check = _enumerate_check(cells, pcells, count, digests, (label, flip))
            tag = f"enumerate {label}{' T' if flip else ''}"
            queries += [Query(tag, check, argv=argv)] * copies
            if label in THREADED:
                queries.append(Query(tag + " t2", check, argv=argv + ["--threads", "2"]))
    # One fixed orientation: this box finds a coloring after about 8.5M
    # nodes, its transpose needs more than 20M.
    queries.append(
        Query(
            "has_prismatic_coloring rect4x10/ltromino n=3",
            lambda out, code: _exit_ok(code) or (None if out == "True" else f"returned {out}"),
            call=lambda: search.has_prismatic_coloring(shapes.rectangle(4, 10), shapes.LTROMINO, 3),
        )
    )
    warmup = Query(
        "warmup",
        _enumerate_check(_bar(10), _bar(3), 16, {}, None),
        argv=["enumerate", "--shape", "rect:10x1", "--pattern", "straight:3", "--colors", "2"],
    )
    return Workload(queries, warmup)


# --------------------------------------------------------------------- census


def _census_check(size: int) -> Check:
    def check(out: str, code) -> str | None:
        if code != 0:
            return _exit_ok(code)
        docs = [json.loads(line) for line in out.splitlines()]
        if size == 13:
            counts = sorted(d["colorings"] for d in docs)
            if counts != [8] * 3 + [28] * 6:
                return f"census counts {counts}, want 3x8 and 6x28"
        elif len(docs) != 196:
            return f"{len(docs)} shapes, want 196"
        if not oracle.census_counts_ok(docs, oracle.LTROMINO, 2, size, (5, 5)):
            return "oracle rejects a census shape"
        if oracle.digest(out) != RECORDED[f"census {size}"]:
            return "output differs from the recorded census"
        return None

    return check


def build_census(rng: random.Random) -> Workload:
    """The 13- and 14-cell L-tromino census in a 5x5 box: the
    C(25, size) subset scan dominates; at 14 cells the survivors'
    coloring search takes a visible share.  The box and the pattern are
    transpose-symmetric, so the seed only orders the queries."""
    queries = [
        Query(
            f"shape-census ltromino size {size}",
            _census_check(size),
            argv=[
                "shape-census", "--pattern", "ltromino", "--colors", "2",
                "--size", str(size), "--bbox", "5x5",
            ],
        )
        for size in (13, 14)
    ]
    warmup = Query(
        "warmup",
        lambda out, code: _exit_ok(code) or (None if out.count("\n") == 1 else "warmup census"),
        argv=["shape-census", "--pattern", "ltromino", "--colors", "1", "--size", "3", "--bbox", "2x2"],
    )
    return Workload(queries, warmup)


# -------------------------------------------------------------------- witness


# (pattern name, instances, cap, size, witness count).  13 with 9
# witnesses is the paper's L-tromino threshold; the rest are recorded.
WITNESS_QUERIES = [
    ("ltromino", 8, 13, 13, 9),
    ("ltromino", 8, 13, 13, 9),
    ("ltromino", 8, 13, 13, 9),
    ("ltromino", 9, 16, 14, 3),
    ("square", 4, 10, 9, 1),
    ("tee", 4, 10, 9, 1),
]


def _witness_check(pattern, need, size, count, recorded) -> Check:
    def check(out: str, code) -> str | None:
        if code != 0:
            return _exit_ok(code)
        doc = json.loads(out)
        if doc["size"] != size or len(doc["witnesses"]) != count:
            return f"size {doc['size']} with {len(doc['witnesses'])} witnesses, want {size}/{count}"
        if not oracle.witnesses_ok(doc["witnesses"], pattern, need, size):
            return "oracle rejects a witness"
        if recorded is not None and oracle.digest(out) != recorded:
            return "output differs from the recorded witnesses"
        return None

    return check


def build_witness(rng: random.Random) -> Workload:
    """`min-size` queries: rooted polyomino growth
    (`_redelmeier_witnesses`) does the work.  Half the round is the
    8-instance L-tromino query, so the median is its median.  The seed
    decides whether the tee is transposed."""
    queries = []
    for name, need, cap, size, count in WITNESS_QUERIES:
        pattern = oracle.PATTERNS[name]
        spec, recorded = name, RECORDED[f"min-size {name} {need}"]
        if name == "tee" and rng.random() < 0.5:
            pattern = oracle.transposed(pattern)
            spec, recorded = _js(oracle.shape_doc(pattern)), None
        argv = ["min-size", "--pattern", spec, "--instances", str(need), "--cap", str(cap)]
        label = f"min-size {name} {need}{' T' if recorded is None else ''}"
        queries.append(Query(label, _witness_check(pattern, need, size, count, recorded), argv=argv))
    warmup = Query(
        "warmup",
        _witness_check(oracle.LTROMINO, 2, 5, 3, None),
        argv=["min-size", "--pattern", "ltromino", "--instances", "2", "--cap", "5"],
    )
    return Workload(queries, warmup)


# --------------------------------------------------------------------- verify


def _grid(rng: random.Random, n: int) -> dict:
    """A rotated-row grid from seed-drawn parameters, maybe relabelled,
    maybe transposed; both keep it de Bruijn for the square."""
    mapping = oracle.cock_grid(oracle.random_cock_params(rng, n))
    if rng.random() < 0.5:
        mapping = oracle.relabel(mapping, rng.sample(range(1, n + 1), n))
    if rng.random() < 0.5:
        mapping = oracle.transpose_map(mapping)
    return mapping


def _verify_query(rng: random.Random, n: int) -> Query:
    mapping = _grid(rng, n)
    mutated = rng.random() < 0.5
    if mutated:
        mapping = oracle.swap_two(rng, mapping)
    doc = oracle.colored_doc(mapping, n)
    answer = []

    def check(out: str, code) -> str | None:
        if not answer:
            answer.append(oracle.is_debruijn(mapping, n, oracle.SQUARE))
        valid = answer[0]
        want = f"de Bruijn: {'true' if valid else 'false'}\n"
        return _exit_ok(code, 0 if valid else 1) or (None if out == want else f"printed {out!r}")

    side = n * n + 1
    label = f"verify {side}x{side}{' mutated' if mutated else ''}"
    return Query(label, check, argv=["verify", "--input", _js(doc), "--pattern", "square"])


def _construct_query(rng: random.Random, n: int) -> Query:
    params = oracle.random_cock_params(rng, n)
    want = oracle.cock_grid(params)

    def check(out: str, code) -> str | None:
        if code != 0:
            return _exit_ok(code)
        doc = json.loads(out)
        return None if doc["n"] == params["n"] and oracle.mapping_of(doc) == want else "grid differs"

    return Query(f"cock n={params['n']}", check, argv=["cock", "--params", _js(params)])


def _locate_query(rng: random.Random) -> Query:
    params = oracle.random_cock_params(rng, 3)
    block = [rng.randint(1, 3) for _ in range(4)]
    want = "%d %d\n" % oracle.cock_locate(params, *block)

    def check(out: str, code) -> str | None:
        return _exit_ok(code) or (None if out == want else f"printed {out!r}, want {want!r}")

    argv = ["cock", "--params", _js(params), "--locate", *map(str, block)]
    return Query("cock --locate n=3", check, argv=argv)


def _transform_query(rng: random.Random) -> Query:
    mapping = _grid(rng, 2)
    want = oracle.row_shift_normalized(mapping)

    def check(out: str, code) -> str | None:
        if code != 0:
            return _exit_ok(code)
        doc = json.loads(out)
        return None if doc["n"] == 2 and oracle.mapping_of(doc) == want else "image differs"

    doc = oracle.colored_doc(mapping, 2)
    argv = ["transform", "--input", _js(doc), "--map", "row-shift", "--normalize"]
    return Query("transform row-shift", check, argv=argv)


# Per round: 5x5 verifies outnumber everything else, so the median sits
# inside the 5x5 group rather than on the gap between 5x5 and 10x10.
VERIFY_MIX = {
    "verify5": 104, "verify10": 48, "cock5": 8, "cock10": 8, "locate": 16, "transform": 16,
}


def build_verify(rng: random.Random) -> Workload:
    """Thousands of millisecond queries with no backtracking: argument
    parsing, JSON decoding, instance tables and the de Bruijn check, the
    reading side of the instance-word kernel.  Thousands of samples a
    run make its tail percentile a real tail."""
    makers = {
        "verify5": lambda: _verify_query(rng, 2),
        "verify10": lambda: _verify_query(rng, 3),
        "cock5": lambda: _construct_query(rng, 2),
        "cock10": lambda: _construct_query(rng, 3),
        "locate": lambda: _locate_query(rng),
        "transform": lambda: _transform_query(rng),
    }
    queries = [makers[kind]() for kind, count in VERIFY_MIX.items() for _ in range(count)]
    return Workload(queries, _verify_query(rng, 2))


BUILDERS = {
    "search": build_search,
    "census": build_census,
    "witness": build_witness,
    "verify": build_verify,
}
