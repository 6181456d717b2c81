"""The library imports nothing outside the standard library."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Imports every prismatic module with only the source tree added to the
# standard path, then prints the top-level modules the imports loaded
# that are neither prismatic nor in the standard library.
PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import prismatic
for info in pkgutil.iter_modules(prismatic.__path__):
    importlib.import_module("prismatic." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - sys.stdlib_module_names - {"prismatic"}))
"""


def test_every_module_imports_with_the_standard_library_alone():
    # -S skips site-packages, -I ignores PYTHONPATH and the user site.
    proc = subprocess.run(
        [sys.executable, "-S", "-I", "-c", PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
