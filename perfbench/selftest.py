"""Self-test of the benchmark itself; takes about fifteen seconds.

    python3 perfbench/selftest.py

Checks that a tiny run prints every metric named in BENCHMARK.json with
its unit, in both modes; that a corrupted expected answer, and an
oracle that disagrees with the program, each trip the correctness gate;
and that the command fails without printing a result when the program's
sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracle
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def command(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def tiny_run_prints_every_metric(spec: dict) -> None:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = command("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", trace)
        expect(done.returncode == 0, f"tiny --trace {trace} run exits 0")
        result = json.loads(done.stdout.splitlines()[-1])
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result keys")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"tiny --trace {trace} run is correct")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"--trace {trace} prints every {key} metric with its unit")
        expect(all(isinstance(m["value"], float) for m in result["metrics"].values()),
               f"--trace {trace} values are numbers")


def in_process(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def corrupted_answers_trip_the_gate() -> None:
    good = workloads.RECORDED["min-size square 4"]
    workloads.RECORDED["min-size square 4"] = good[::-1]
    try:
        code, result = in_process(["--workload", "witness", "--seed", "1", "--seconds", "0"])
    finally:
        workloads.RECORDED["min-size square 4"] = good
    expect(code == 1 and not result["correct"] and result["failed"] == 1,
           "a corrupted recorded answer fails exactly its query and the run")

    honest = oracle.cock_locate
    oracle.cock_locate = lambda *args: tuple(v + 1 for v in honest(*args))
    try:
        code, result = in_process(["--workload", "verify", "--seed", "1", "--seconds", "0"])
    finally:
        oracle.cock_locate = honest
    expect(code == 1 and result["failed"] == workloads.VERIFY_MIX["locate"],
           "an oracle that disagrees fails every --locate query")


def refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = command("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "without src/ the command fails and prints no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.py")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS),
           "BENCHMARK.json workloads match workloads.py")
    tiny_run_prints_every_metric(spec)
    corrupted_answers_trip_the_gate()
    refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
