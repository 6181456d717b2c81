"""The scripts under scripts/ still run against the library."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )


def test_reproduce_counts_without_census():
    proc = run_script("reproduce_counts.py", "--skip-census")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failures" in proc.stdout


def test_minimal_shape_scan():
    proc = run_script("minimal_shape_scan.py", "--max-instances", "4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "N=4: size" in proc.stdout
