"""Command line front end.

Machine-readable payloads go to stdout, diagnostics to stderr.  Exit
codes: 0 success, 1 a verification answered false, 2 usage or data
errors, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
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


# Most digits a number in a shape, box or trim spec may have: a box only
# bounds its shapes and a family shape stops at 10**6 cells.
SPEC_DIGITS = 9


def _spec_int(text: str) -> int:
    """A number of a shape, box or trim spec.  ASCII digits only:
    str.isdigit also accepts digits such as '²' that int() refuses."""
    if not (text.isascii() and text.isdigit()) or len(text) > SPEC_DIGITS:
        raise shapes.ShapeError(f"bad number {text!r}, want 1 to {SPEC_DIGITS} ASCII digits")
    return int(text)


def _shape_arg(spec: str) -> lattice.Polyomino:
    """A shape from a family spec (rect:5x5, ziggurat:5, pyramid:4) or JSON."""
    head, _, tail = spec.partition(":")
    if head == "rect" and tail:
        return shapes.rectangle(*_bbox_arg(tail))
    if head == "ziggurat" and tail:
        return shapes.ziggurat(_spec_int(tail))
    if head == "pyramid" and tail:
        return shapes.pyramid(_spec_int(tail))
    try:
        return _pattern_arg(spec)
    except (OSError, json.JSONDecodeError):
        raise shapes.ShapeError(f"cannot read shape {spec!r}") from None


def _bbox_arg(spec: str) -> tuple[int, int]:
    w, x, h = spec.partition("x")
    if not x:
        raise search.SearchError(f"want WxH, got {spec!r}")
    return _spec_int(w), _spec_int(h)


def _config(args) -> search.SearchConfig:
    threads = getattr(args, "threads", 1)
    if threads < 1:
        raise search.SearchError(f"--threads must be at least 1, got {threads}")
    return dataclasses.replace(search.SearchConfig.default(), threads=threads)


def _emit_colored(colored, ascii_out: bool) -> None:
    if ascii_out:
        print(formats.ascii_render(colored))
    else:
        print(json.dumps(formats.to_json(colored)))


def _cmd_seq(args) -> int:
    if args.all:
        for seq in debruijn.enumerate_all_cyclic(args.colors, args.order):
            print(json.dumps(seq.to_json()) if args.json else seq.text())
        return 0
    seq = debruijn.generate_cyclic(
        args.colors, args.order, method=args.method, seed=args.seed
    )
    if args.acyclic:
        seq = debruijn.acyclic_from_cyclic(seq, args.start)
    print(json.dumps(seq.to_json()) if args.json else seq.text())
    return 0


def _cmd_cock(args) -> int:
    params = cockmod.CockParams.from_json(_read_doc(args.params))
    if args.locate:
        w, x, y, z = args.locate
        i, j = cockmod.cock_locate(params, w, x, y, z)
        print(f"{i} {j}")
        return 0
    _emit_colored(cockmod.cock_construct(params), args.ascii)
    return 0


def _cmd_shapes(args) -> int:
    if args.family == "pyramid" and args.trim:
        corner, _, k = args.trim.rpartition(":")
        if not corner:
            raise shapes.BadTrimError(f"bad trim spec {args.trim!r}, want CORNER:K")
        shape = shapes.pyramid_trimmed(_spec_int(args.size), corner, _spec_int(k))
    else:
        shape = _shape_arg(f"{args.family}:{args.size}")
    if args.ascii:
        print(formats.ascii_render(shape))
    else:
        print(json.dumps(formats.to_json(shape)))
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
        print(
            f"instances={result.instance_count} "
            f"missing={result.missing_count} duplicated={len(result.duplicated)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_enumerate(args) -> int:
    shape = _shape_arg(args.shape)
    pattern = _pattern_arg(args.pattern)
    found = search.enumerate_prismatic_colorings(
        shape, pattern, args.colors, _config(args)
    )
    lines = (json.dumps(formats.to_json(c)) for c in found)
    if args.emit:
        with open(args.emit, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        print(len(found))
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_min_size(args) -> int:
    size, witnesses = search.min_size_with_instances(
        _pattern_arg(args.pattern), args.instances, args.cap, _config(args)
    )
    print(
        json.dumps(
            {"size": size, "witnesses": [formats.to_json(w) for w in witnesses]}
        )
    )
    return 0


def _cmd_shape_census(args) -> int:
    census = search.shape_census(
        _pattern_arg(args.pattern),
        args.colors,
        args.size,
        _bbox_arg(args.bbox),
        _config(args),
    )
    for shape, count in census:
        doc = formats.to_json(shape)
        doc["colorings"] = count
        print(json.dumps(doc))
    return 0


def _cmd_transform(args) -> int:
    cells, n = formats.parse_json(_read_doc(args.input))
    image = lattice.apply_lattice_map(cells, args.map)
    if args.normalize:
        mx = min(x for x, _ in image)
        my = min(y for _, y in image)
        if isinstance(image, dict):
            image = {(x - mx, y - my): c for (x, y), c in image.items()}
        else:
            image = frozenset((x - mx, y - my) for x, y in image)
    print(json.dumps(formats.to_json(image, n)))
    return 0


# Python prints ints of at most 4300 digits, so counts from 10**4299 on
# are refused, on their logarithm and before they are built.
PRINT_LOG10 = 4299


def _cmd_count(args) -> int:
    n, k = args.colors, args.order
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
    if args.json:
        print(json.dumps(formats.to_json(cells, n)))
    else:
        print(formats.ascii_render(cells))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="prismatic",
        description="de Bruijn colorings of polyominoes: construct, verify, search",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="generate or enumerate de Bruijn sequences")
    p.add_argument("-n", "--colors", type=int, required=True)
    p.add_argument("-k", "--order", type=int, required=True)
    p.add_argument("--method", choices=("greedy-least", "eulerian"), default="greedy-least")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--acyclic", action="store_true", help="emit the acyclic form")
    p.add_argument("--start", type=int, default=0, help="cycle start for --acyclic")
    p.add_argument("--all", action="store_true", help="enumerate every cyclic sequence")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("cock", help="rotated-row construction on a square grid")
    p.add_argument("--params", required=True, help="JSON file, inline JSON or -")
    p.add_argument("--ascii", action="store_true")
    p.add_argument(
        "--locate",
        nargs=4,
        type=int,
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
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--emit", help="write JSONL here and print the count instead")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted; enumerate searches one shape in one process",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("min-size", help="smallest shape carrying N pattern instances")
    p.add_argument("--pattern", required=True)
    p.add_argument("--instances", type=int, required=True)
    p.add_argument("--cap", type=int, required=True, help="largest size to try")
    p.set_defaults(func=_cmd_min_size)

    p = sub.add_parser("shape-census", help="all fixed-size shapes admitting a coloring")
    p.add_argument("--pattern", required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--bbox", required=True, help="bounding box as WxH")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_shape_census)

    p = sub.add_parser("transform", help="apply a named lattice map to a cell set")
    p.add_argument("--input", required=True)
    p.add_argument("--map", required=True, choices=sorted(lattice.LATTICE_MAPS))
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("count", help="closed-form counts")
    p.add_argument("what", choices=("cyclic", "acyclic", "cock"))
    p.add_argument("-n", "--colors", type=int, required=True)
    p.add_argument("-k", "--order", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("render", help="render a JSON cell set")
    p.add_argument("--input", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_render)

    return top


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "count" and args.what in ("cyclic", "acyclic") and args.order is None:
        print("count cyclic/acyclic needs --order", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except search.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
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
