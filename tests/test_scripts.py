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


def test_reproduce_counts_with_census():
    proc = run_script("reproduce_counts.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok   13-cell census shapes: 9" in proc.stdout
    assert "0 failures" in proc.stdout


def test_minimal_shape_scan():
    # The documented default, --max-instances 8, reaches the 13-cell
    # threshold of the 2-colour L-tromino.
    proc = run_script("minimal_shape_scan.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "N=8: size 13, 9 shape(s)" in proc.stdout
