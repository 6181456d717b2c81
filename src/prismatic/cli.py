"""Command line front end.

Machine-readable payloads go to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 a verification answered false, 2 usage or data
errors, 3 search budget exceeded or a MemoryError.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cock as cockmod
from . import debruijn, formats, lattice, search, shapes


def _read_doc(spec: str) -> dict:
    """Load a JSON document from a path, inline text or stdin ('-')."""
    try:
        if spec == "-":
            return json.load(sys.stdin)
        if spec.lstrip().startswith("{"):
            return json.loads(spec)
        with open(spec) as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # an integer past Python's digit limit, or not UTF-8
        raise lattice.LatticeError(f"unreadable JSON: {exc}") from None


def _pattern_arg(spec: str) -> lattice.Polyomino:
    try:
        return shapes.pattern_from_name(spec)
    except shapes.UnknownPatternError:
        pass
    cells, _ = formats.parse_json(_read_doc(spec))
    if isinstance(cells, dict):
        cells = frozenset(cells)
    return lattice.normalize(cells)


def _shape_arg(spec: str) -> lattice.Polyomino:
    """A shape from a family spec (rect:5x5, ziggurat:5, pyramid:4) or JSON."""
    head, _, tail = spec.partition(":")
    if head == "rect" and tail:
        return shapes.rectangle(*_bbox_arg(tail))
    if head == "ziggurat" and tail:
        return shapes.ziggurat(shapes._spec_int(tail))
    if head == "pyramid" and tail:
        return shapes.pyramid(shapes._spec_int(tail))
    try:
        return _pattern_arg(spec)
    except (OSError, json.JSONDecodeError):
        raise shapes.ShapeError(f"cannot read shape {spec!r}") from None


def _bbox_arg(spec: str) -> tuple[int, int]:
    w, x, h = spec.partition("x")
    if not x:
        raise search.SearchError(f"want WxH, got {spec!r}")
    return shapes._spec_int(w), shapes._spec_int(h)


def _int_arg(text: str) -> int:
    """argparse type of every integer option: ASCII digits with an optional
    leading '-'.  int() alone also reads '٢', '1_0' and ' 13'."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than Python reads
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


THREADS_HELP = "accepted, at least 1, no effect: every search runs in this process"


def _check_threads(args) -> None:
    if args.threads < 1:
        raise search.SearchError(f"--threads must be at least 1, got {args.threads}")


def _emit(obj, ascii_out: bool, n: int | None = None) -> None:
    """Print a shape, coloring or cell set as an ASCII grid or one JSON line."""
    if ascii_out:
        print(formats.ascii_render(obj))
    else:
        print(json.dumps(formats.to_json(obj, n)))


def _cmd_seq(args) -> int:
    if args.all and args.acyclic:
        raise debruijn.SequenceError("--all enumerates cyclic sequences; drop --acyclic")
    if args.start is not None and not args.acyclic:
        raise debruijn.SequenceError("--start applies to --acyclic only")
    if args.all and (args.method is not None or args.seed is not None):
        raise debruijn.SequenceError("--all enumerates every sequence; drop --method and --seed")
    if args.seed is not None and args.method != "eulerian":
        raise debruijn.SequenceError("--seed applies to --method eulerian only")
    if args.all:
        for seq in debruijn.enumerate_all_cyclic(args.colors, args.order):
            print(json.dumps(seq.to_json()) if args.json else seq.text())
        return 0
    seq = debruijn.generate_cyclic(
        args.colors, args.order, method=args.method or "greedy-least", seed=args.seed or 0
    )
    if args.acyclic:
        seq = debruijn.acyclic_from_cyclic(seq, args.start or 0)
    print(json.dumps(seq.to_json()) if args.json else seq.text())
    return 0


def _cmd_cock(args) -> int:
    params = cockmod.CockParams.from_json(_read_doc(args.params))
    if args.locate:
        w, x, y, z = args.locate
        i, j = cockmod.cock_locate(params, w, x, y, z)
        print(f"{i} {j}")
        return 0
    _emit(cockmod.cock_construct(params), args.ascii)
    return 0


def _cmd_shapes(args) -> int:
    if args.trim:
        if args.family != "pyramid":
            raise shapes.BadTrimError(f"--trim applies to pyramid only, not {args.family}")
        corner, _, k = args.trim.rpartition(":")
        if not corner:
            raise shapes.BadTrimError(f"bad trim spec {args.trim!r}, want CORNER:K")
        shape = shapes.pyramid_trimmed(shapes._spec_int(args.size), corner, shapes._spec_int(k))
    else:
        shape = _shape_arg(f"{args.family}:{args.size}")
    _emit(shape, args.ascii)
    return 0


def _cmd_verify(args) -> int:
    pattern = _pattern_arg(args.pattern)
    try:
        colored = formats.colored_from_json(_read_doc(args.input))
    except lattice.DisconnectedError:
        print("de Bruijn: false")
        print("input cell set is disconnected", file=sys.stderr)
        return 1
    result = search.is_debruijn_coloring(colored, pattern)
    print(f"de Bruijn: {'true' if result.valid else 'false'}")
    if not result.valid:
        limit = sys.get_int_max_str_digits()
        n, k, realized = result.tally
        missing = f">=10**{limit}"
        # A count known to pass 16**limit > 10**limit is not built, let
        # alone printed.
        if not limit or not search._surely_more_words(n, k, (1 << 4 * limit) + realized):
            try:
                missing = f"={result.missing_count}"
            except ValueError:  # more digits than Python prints
                pass
        print(
            f"instances={result.instance_count} "
            f"missing{missing} duplicated={len(result.duplicated)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_enumerate(args) -> int:
    shape = _shape_arg(args.shape)
    pattern = _pattern_arg(args.pattern)
    _check_threads(args)
    found = search._colorings(shape, pattern, args.colors)
    lines = (line + "\n" for line in formats.json_lines(shape, args.colors, found))
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.writelines(lines)
        print(len(found))
    else:
        sys.stdout.writelines(lines)
    return 0


def _cmd_min_size(args) -> int:
    size, witnesses = search.min_size_with_instances(
        _pattern_arg(args.pattern), args.instances, args.cap
    )
    print(
        json.dumps(
            {"size": size, "witnesses": [formats.to_json(w) for w in witnesses]}
        )
    )
    return 0


def _cmd_shape_census(args) -> int:
    pattern, bbox = _pattern_arg(args.pattern), _bbox_arg(args.bbox)
    _check_threads(args)
    census = search.shape_census(pattern, args.colors, args.size, bbox)
    for shape, count in census:
        doc = formats.to_json(shape)
        doc["colorings"] = count
        print(json.dumps(doc))
    return 0


def _cmd_transform(args) -> int:
    cells, n = formats.parse_json(_read_doc(args.input))
    image = lattice.apply_lattice_map(cells, args.map)
    if args.normalize:
        moved = lattice._to_origin(image)
        image = dict(zip(moved, image.values())) if n is not None else frozenset(moved)
    print(json.dumps(formats.to_json(image, n)))
    return 0


# Python prints ints of at most 4300 digits, so counts from 10**4299 on
# are refused, on their logarithm and before they are built.
PRINT_LOG10 = 4299


def _cmd_count(args) -> int:
    n, k = args.colors, args.order
    if (k is None) == (args.what != "cock"):
        need = "needs" if k is None else "takes no"
        raise debruijn.SequenceError(f"count {args.what} {need} --order")
    if args.what == "cyclic":
        log10, count = debruijn.count_log10(n, k), lambda: debruijn.count_cyclic(n, k)
    elif args.what == "acyclic":
        log10 = debruijn.count_log10(n, k, cyclic=False)
        count = lambda: debruijn.count_acyclic(n, k)
    else:
        log10, count = cockmod.cock_count_log10(n), lambda: cockmod.cock_count(n)
    if log10 >= PRINT_LOG10:
        raise debruijn.TooLargeError(
            f"the {args.what} count is at least 10**{PRINT_LOG10}, too large to print"
        )
    print(count())
    return 0


def _cmd_render(args) -> int:
    cells, n = formats.parse_json(_read_doc(args.input))
    _emit(cells, not args.json, n)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prismatic",
        description="de Bruijn colorings of polyominoes: construct, verify, search",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="generate or enumerate de Bruijn sequences")
    p.add_argument("-n", "--colors", type=_int_arg, required=True)
    p.add_argument("-k", "--order", type=_int_arg, required=True)
    p.add_argument("--method", choices=("greedy-least", "eulerian"), help="default greedy-least")
    p.add_argument("--seed", type=_int_arg, help="for --method eulerian; default 0")
    p.add_argument("--acyclic", action="store_true", help="emit the acyclic form")
    p.add_argument("--start", type=_int_arg, help="cycle start for --acyclic")
    p.add_argument("--all", action="store_true", help="enumerate every cyclic sequence")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("cock", help="rotated-row construction on a square grid")
    p.add_argument("--params", required=True, help="JSON file, inline JSON or -")
    p.add_argument("--ascii", action="store_true")
    p.add_argument(
        "--locate",
        nargs=4,
        type=_int_arg,
        metavar=("W", "X", "Y", "Z"),
        help="locate the square colored W X over Y Z; prints 'i j'",
    )
    p.set_defaults(func=_cmd_cock)

    p = sub.add_parser("shapes", help="emit a parametric shape family member")
    p.add_argument("family", choices=("ziggurat", "pyramid", "rect"))
    p.add_argument("size", help="row count, or WxH for rect")
    p.add_argument("--trim", help="pyramid trim as CORNER:K")
    p.add_argument("--ascii", action="store_true")
    p.set_defaults(func=_cmd_shapes)

    p = sub.add_parser("verify", help="check a coloring for the de Bruijn property")
    p.add_argument("--input", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="list every de Bruijn coloring of a shape")
    p.add_argument("--shape", required=True, help="JSON file or rect:WxH, ziggurat:N, pyramid:N")
    p.add_argument("--pattern", required=True)
    p.add_argument("--colors", type=_int_arg, required=True)
    p.add_argument("--emit", help="write JSONL here and print the count instead")
    p.add_argument("--threads", type=_int_arg, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("min-size", help="smallest shape carrying N pattern instances")
    p.add_argument("--pattern", required=True)
    p.add_argument("--instances", type=_int_arg, required=True)
    p.add_argument("--cap", type=_int_arg, required=True, help="largest size to try")
    p.set_defaults(func=_cmd_min_size)

    p = sub.add_parser("shape-census", help="all fixed-size shapes admitting a coloring")
    p.add_argument("--pattern", required=True)
    p.add_argument("--colors", type=_int_arg, required=True)
    p.add_argument("--size", type=_int_arg, required=True)
    p.add_argument("--bbox", required=True, help="bounding box as WxH")
    p.add_argument("--threads", type=_int_arg, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_shape_census)

    p = sub.add_parser("transform", help="apply a named lattice map to a cell set")
    p.add_argument("--input", required=True)
    p.add_argument("--map", required=True, choices=sorted(lattice.LATTICE_MAPS))
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("count", help="closed-form counts")
    p.add_argument("what", choices=("cyclic", "acyclic", "cock"))
    p.add_argument("-n", "--colors", type=_int_arg, required=True)
    p.add_argument("-k", "--order", type=_int_arg)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("render", help="render a JSON cell set")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_render)

    return top


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except search.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # What the command built is freed by now, so the line prints.
        print("budget exceeded: out of memory", file=sys.stderr)
        return 3
    except (
        lattice.LatticeError,
        debruijn.SequenceError,
        cockmod.CockError,
        shapes.ShapeError,
        search.SearchError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
