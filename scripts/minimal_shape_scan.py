"""Scan minimal shapes carrying N instances of a pattern.

For each N in the requested range, find the smallest cell count that
fits N instances of the pattern, list the witness shapes, and report
whether each witness admits a de Bruijn coloring at the given color
count. Example:

    python3 scripts/minimal_shape_scan.py --pattern ltromino --colors 2 --max-instances 8
"""

import argparse
import sys
import time

from prismatic import (
    ascii_render,
    enumerate_prismatic_colorings,
    has_prismatic_coloring,
    instance_graph,
    min_size_with_instances,
)
from prismatic.shapes import pattern_from_name


def scan(cfg: argparse.Namespace) -> None:
    pattern = pattern_from_name(cfg.pattern)
    want = cfg.colors ** len(pattern)
    for n_inst in range(1, cfg.max_instances + 1):
        cap = len(pattern) + n_inst + cfg.cap_slack
        t0 = time.time()
        size, witnesses = min_size_with_instances(pattern, n_inst, cap)
        dt = time.time() - t0
        print(f"N={n_inst}: size {size}, {len(witnesses)} shape(s) ({dt:.1f}s)")
        for w in witnesses:
            connected = instance_graph(w, pattern).is_connected()
            notes = [f"instance graph {'connected' if connected else 'split'}"]
            if n_inst == want:
                count = len(enumerate_prismatic_colorings(w, pattern, cfg.colors))
                notes.append(f"{count} colorings with {cfg.colors} colors")
            elif has_prismatic_coloring(w, pattern, cfg.colors):
                notes.append("colorable")
            print("  " + "; ".join(notes))
            if cfg.show_shapes:
                print("\n".join("    " + line for line in ascii_render(w).split("\n")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pattern", default="ltromino")
    parser.add_argument("--colors", type=int, default=2)
    parser.add_argument("--max-instances", type=int, default=8)
    parser.add_argument(
        "--cap-slack",
        type=int,
        default=6,
        help="search sizes up to pattern size + N + this slack",
    )
    parser.add_argument("--show-shapes", action="store_true")
    scan(parser.parse_args())
    return 0


if __name__ == "__main__":
    sys.exit(main())
