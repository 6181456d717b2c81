"""prismatic benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  Queries go
through ``prismatic.cli.run(argv)`` with stdout captured (the README
path), plus one library call per round on ``search``.  The client is a
closed loop: one query at a time, the next only after the previous one
returned.  Whole rounds (see ``workloads.py``) are played, as many as
fit ``--seconds`` best and at least one, so every run sees the same
query mix.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` plays each
round twice, untraced then traced (``spans.py``), and prints per-layer
self times and call counts per traced round, deterministic counts and
the tracing overhead.  Every answer is checked; a wrong answer, a wrong
exit code or an exception counts as a failed query and makes the run
exit 1.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8

END_TO_END = {
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layer spans reported per traced round: (span name, report call count).
LAYER_SPANS = [
    ("search.enumerate_prismatic_colorings", True),
    ("search.has_prismatic_coloring", False),
    ("search.shape_census", False),
    ("search.min_size_with_instances", False),
    ("search.is_debruijn_coloring", True),
    ("lattice.instances_of", True),
    ("formats.colored_from_json", False),
    ("lattice.normalize", True),
    ("cli.run", False),
    ("formats.to_json", True),
    ("cock.cock_construct", True),
    ("cock.cock_locate", False),
    ("debruijn.is_cyclic_debruijn", True),
]
DETERMINISTIC = [
    ("search.solutions", "count"),
    ("search.census_shapes", "count"),
    ("search.witnesses", "count"),
    ("search.instances_checked", "count"),
    ("search.fanout.pools", "count"),
    ("formats.stdout_bytes", "bytes"),
]
PER_LAYER = (
    [
        (f"{span}.{stat}", unit)
        for span, with_calls in LAYER_SPANS
        for stat, unit in ((("calls", "count"),) if with_calls else ()) + (("self_s", "s"),)
    ]
    + DETERMINISTIC
    + [("search.fanout.t2_over_t1", "ratio"), ("trace.overhead_s", "s")]
)


class SetupError(Exception):
    pass


def load_program():
    """Import prismatic from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "prismatic" / "__init__.py").is_file():
        raise SetupError(f"no prismatic sources under {src}")
    sys.path.insert(0, str(src))
    import prismatic
    from prismatic import cli

    if not Path(prismatic.__file__).resolve().is_relative_to(src):
        raise SetupError(f"imported prismatic from {prismatic.__file__}, not {src}")
    return prismatic, cli


def run_query(cli, query) -> tuple[float, str, object]:
    """Time one query; returns (seconds, stdout, exit code or error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            if query.call is None:
                code = cli.run(query.argv)
            else:
                print(query.call(), end="")
                code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted as a failed query, never fatal
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, out.getvalue(), code


def setup(workload: str, seed: int):
    """Import, generate the seeded inputs and answer one warm-up query."""
    start = perf_counter()
    prismatic, cli = load_program()
    wl = workloads.BUILDERS[workload](random.Random(seed))
    _, out, code = run_query(cli, wl.warmup)
    reason = wl.warmup.check(out, code)
    if reason:
        raise SetupError(f"warm-up query failed: {reason}")
    return prismatic, cli, wl, perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as printed by ``--setup-probe``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


class Tally:
    """Latencies and failures of the queries played so far."""

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.all: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def play(self, cli, order, tracer: Tracer | None = None) -> tuple[float, int]:
        """Play one round; returns (seconds inside the program, stdout bytes)."""
        busy = 0.0
        nbytes = 0
        for query in order:
            if tracer is not None:
                tracer.query_id = self.attempted
            elapsed, out, code = run_query(cli, query)
            self.attempted += 1
            reason = query.check(out, code)
            if reason:
                self.failures.append(f"{query.label}: {reason}")
            else:
                self.latency[query.label].append(elapsed)
                self.all.append(elapsed)
            busy += elapsed
            nbytes += len(out)
        return busy, nbytes


def another_round_overshoots(start: float, rounds: int, seconds: float) -> bool:
    """True when one more round would end further from ``seconds`` than now."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / rounds / 2 >= seconds


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least ten samples above it.

    With ten or fewer samples no such percentile exists; the maximum is
    reported instead, and the percentile printed beside it is 100.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    lat = tally.all
    tail_value, tail_pct, samples = tail(lat)
    metrics = {
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"latency_tail_ms is p{tail_pct:.2f} of {samples} samples")
    print(f"setup_s is the median of {len(setup_times)} set-ups: "
          + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"fail_ratio {len(tally.failures) / tally.attempted:.6f} "
          f"({len(tally.failures)} of {tally.attempted})")
    for label, values in sorted(tally.latency.items()):
        print(f"  {label:52s} n={len(values):5d} p50={1000 * statistics.median(values):10.3f} ms")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def layered(prismatic, cli, wl, rng, seconds, tally: Tally, out_path: Path) -> dict:
    """Untraced and traced copies of each round; per-layer figures per traced round."""
    tracer = Tracer()
    plain = Tally()
    overheads = []
    rounds = []
    start = perf_counter()
    while True:
        before = (tracer.calls.copy(), tracer.counts.copy())
        overhead = 0.0
        # Each query runs untraced, then traced, back to back, so both
        # copies see the same machine state.
        for query in rng.sample(wl.queries, len(wl.queries)):
            busy_plain, _ = plain.play(cli, [query])
            tracer.install(prismatic)
            try:
                busy_traced, nbytes = tally.play(cli, [query], tracer)
            finally:
                tracer.uninstall()
            tracer.counts["formats.stdout_bytes"] += nbytes
            overhead += busy_traced - busy_plain
        rounds.append((tracer.calls - before[0], tracer.counts - before[1]))
        overheads.append(overhead)
        if another_round_overshoots(start, len(rounds), seconds):
            break
    tally.attempted += plain.attempted
    tally.failures += plain.failures
    if any(r != rounds[0] for r in rounds):
        tally.failures.append("call or result counts differ between identical rounds")
    tracer.write(out_path)

    n = len(rounds)
    values = {}
    for span, with_calls in LAYER_SPANS:
        if with_calls:
            values[f"{span}.calls"] = tracer.calls[span] / n
        values[f"{span}.self_s"] = tracer.self_s[span] / n
    for name, _ in DETERMINISTIC:
        values[name] = tracer.counts[name] / n
    base = f"enumerate {workloads.THREADED[0]}"
    if base + " t2" in plain.latency:
        values["search.fanout.t2_over_t1"] = statistics.median(
            plain.latency[base + " t2"]
        ) / statistics.median(plain.latency[base])
        print(f"search.fanout.t2_over_t1 base query: {base}")
    else:
        values["search.fanout.t2_over_t1"] = 0.0
        print("search.fanout.t2_over_t1: no --threads 2 query in this workload, reported as 0")
    values["trace.overhead_s"] = statistics.median(overheads)

    plain_s = sum(plain.all)
    traced_s = sum(tally.all)
    print(f"{n} traced rounds; spans written to {out_path.relative_to(ROOT)}")
    print(f"queries_per_s untraced {len(plain.all) / plain_s:.4f}, traced "
          f"{len(tally.all) / traced_s:.4f}; tracing overhead "
          f"{values['trace.overhead_s']:.4f} s per round ({100 * (traced_s / plain_s - 1):.1f}%)")
    for span, _ in LAYER_SPANS:
        calls = tracer.calls[span]
        per_call = 1000 * tracer.self_s[span] / calls if calls else 0.0
        print(f"  {span:40s} calls/round={calls / n:10.1f} self/round={tracer.self_s[span] / n:9.4f} s"
              f"  self/call={per_call:8.4f} ms")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        prismatic, cli, wl, own_setup = setup(args.workload, args.seed)
        if args.setup_probe:
            print(f"{own_setup:.9f}")
            return 0
        setup_times = [own_setup]
        if not args.trace:
            setup_times += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(f"order-{args.seed}")
    tally = Tally()
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        out_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = layered(prismatic, cli, wl, rng, args.seconds, tally, out_path)
    else:
        start = perf_counter()
        rounds = 0
        while True:
            tally.play(cli, rng.sample(wl.queries, len(wl.queries)))
            rounds += 1
            if another_round_overshoots(start, rounds, args.seconds):
                break
        metrics = end_to_end(tally, setup_times)

    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
