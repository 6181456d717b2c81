"""Command line interface: payload on stdout, diagnostics on stderr."""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prismatic import (
    enumerate_prismatic_colorings,
    instances_of,
    normalize,
    random_polyomino,
    to_json,
)
from prismatic import cli
from prismatic.cli import run
from prismatic.shapes import LTROMINO, SQUARE, TEE, rectangle, straight, ziggurat

from goldens import CENSUS13_ROWSPANS, COCK3_GRID, COCK3_R0, shape_from_rows, two_coloring
from goldens import SQUARE5_SHAPE, SQUARE5_TWOS

PARAMS3 = json.dumps(
    {"n": 3, "r0": list(COCK3_R0), "start": 0, "sigma": list(range(1, 10))}
)
ENUMERATE5 = ("enumerate", "--shape", "rect:5x5", "--pattern", "square", "--colors", "2")
CENSUS13 = ("shape-census", "--pattern", "ltromino", "--colors", "2", "--size", "13", "--bbox", "5x5")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_text(capsys):
    code, out, err = invoke(capsys, "seq", "-n", "2", "-k", "2")
    assert code == 0
    assert out == "(1,1,2,2)\n"


def test_seq_json(capsys):
    code, out, _ = invoke(capsys, "seq", "-n", "2", "-k", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["k"] == 3 and doc["form"] == "cyclic"
    assert len(doc["symbols"]) == 8


def test_seq_acyclic(capsys):
    code, out, _ = invoke(capsys, "seq", "-n", "2", "-k", "2", "--acyclic", "--start", "1")
    assert code == 0
    word = out.strip()
    assert word.count(",") == 4  # five symbols


def test_seq_all(capsys):
    code, out, _ = invoke(capsys, "seq", "-n", "2", "-k", "4", "--all")
    assert code == 0
    assert len(out.splitlines()) == 16


def test_seq_eulerian(capsys):
    code, out, _ = invoke(capsys, "seq", "-n", "3", "-k", "2", "--method", "eulerian", "--seed", "5")
    assert code == 0
    again, out2, _ = invoke(capsys, "seq", "-n", "3", "-k", "2", "--method", "eulerian", "--seed", "5")
    assert out == out2


def test_seq_eulerian_seed_defaults_to_zero(capsys):
    code, out, err = invoke(capsys, "seq", "-n", "2", "-k", "3", "--method", "eulerian")
    assert (code, out, err) == (0, "(2,2,2,1,2,1,1,1)\n", "")
    assert invoke(capsys, "seq", "-n", "2", "-k", "3", "--method", "eulerian", "--seed", "0") == (
        code, out, err
    )


def test_cock_ascii_golden(capsys):
    code, out, _ = invoke(capsys, "cock", "--params", PARAMS3, "--ascii")
    assert code == 0
    assert out == COCK3_GRID + "\n"


def test_cock_json_verifies(capsys):
    code, out, _ = invoke(capsys, "cock", "--params", PARAMS3)
    assert code == 0
    doc = json.loads(out)
    code, out, _ = invoke(capsys, "verify", "--input", json.dumps(doc), "--pattern", "square")
    assert code == 0
    assert out == "de Bruijn: true\n"


def test_cock_locate(capsys):
    code, out, _ = invoke(capsys, "cock", "--params", PARAMS3, "--locate", "1", "2", "2", "1")
    assert code == 0
    assert out == "6 8\n"


def test_cock_bad_params_exit_2(capsys):
    bad = json.dumps({"n": 2, "r0": [1, 2, 1, 2], "start": 0, "sigma": [1, 2, 3, 4]})
    code, out, err = invoke(capsys, "cock", "--params", bad)
    assert code == 2
    assert not out
    assert err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", "a"),
        ("n", 2.9),
        ("n", True),
        ("start", "0"),
        ("start", None),
        ("r0", 5),
        ("r0", [1, 1, 2, 2.0]),
        ("sigma", "1234"),
        ("sigma", [1, 2, 3, "4"]),
    ],
)
def test_cock_params_must_be_real_ints(capsys, field, value):
    doc = {"n": 2, "r0": [1, 1, 2, 2], "start": 0, "sigma": [1, 2, 3, 4]}
    doc[field] = value
    code, out, err = invoke(capsys, "cock", "--params", json.dumps(doc))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: '{field}' must be") and err.count("\n") == 1


def test_cock_params_missing_field_exit_2(capsys):
    doc = {"n": 2, "r0": [1, 1, 2, 2], "start": 0}
    code, out, err = invoke(capsys, "cock", "--params", json.dumps(doc))
    assert (code, out, err) == (2, "", "error: missing parameter field 'sigma'\n")


def test_shapes_ziggurat_ascii(capsys):
    code, out, _ = invoke(capsys, "shapes", "ziggurat", "3", "--ascii")
    assert code == 0
    assert out == "..#..\n.###.\n#####\n"


def test_shapes_rect_json(capsys):
    code, out, _ = invoke(capsys, "shapes", "rect", "2x3")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 6


def test_shapes_pyramid_trim(capsys):
    code, out, _ = invoke(capsys, "shapes", "pyramid", "8", "--trim", "bottom-right:1")
    assert code == 0
    assert len(json.loads(out)["cells"]) == 35


@pytest.mark.parametrize("family, size", [("ziggurat", "2"), ("rect", "2x3")])
def test_shapes_trim_only_on_pyramid(capsys, family, size):
    code, out, err = invoke(capsys, "shapes", family, size, "--trim", "bottom-right:1")
    assert (code, out) == (2, "")
    assert err == f"error: --trim applies to pyramid only, not {family}\n"


def test_shapes_bad_trim_exit_2(capsys):
    code, _, err = invoke(capsys, "shapes", "pyramid", "4", "--trim", "bottom-left:3")
    assert code == 2
    assert err


def test_verify_false_exit_1(capsys):
    colored = {"n": 2, "cells": [
        {"x": x, "y": y, "color": 1} for x in range(5) for y in range(5)
    ]}
    code, out, err = invoke(capsys, "verify", "--input", json.dumps(colored), "--pattern", "square")
    assert code == 1
    assert out == "de Bruijn: false\n"
    assert "missing" in err


def test_verify_disconnected_exit_1(capsys):
    colored = {"n": 2, "cells": [
        {"x": 0, "y": 0, "color": 1},
        {"x": 2, "y": 0, "color": 2},
    ]}
    code, out, err = invoke(capsys, "verify", "--input", json.dumps(colored), "--pattern", "square")
    assert code == 1
    assert out == "de Bruijn: false\n"
    assert "disconnected" in err


def test_verify_malformed_json_exit_2(capsys):
    code, _, err = invoke(capsys, "verify", "--input", "{not json", "--pattern", "square")
    assert code == 2
    assert err


def test_verify_string_coordinate_exit_2(capsys):
    doc = to_json(two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS))
    doc["cells"][0]["x"] = "a"
    code, out, err = invoke(capsys, "verify", "--input", json.dumps(doc), "--pattern", "square")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value", [("x", 1.7), ("y", True), ("color", 1.0), ("color", "1")]
)
def test_render_rejects_non_integer_fields(capsys, field, value):
    cell = {"x": 1, "y": 0, "color": 1}
    cell[field] = value
    doc = json.dumps({"n": 1, "cells": [cell]})
    code, out, err = invoke(capsys, "render", "--input", doc, "--json")
    assert code == 2
    assert out == ""
    assert field in err


def test_render_rejects_non_integer_n(capsys):
    doc = json.dumps({"n": 2.5, "cells": [{"x": 0, "y": 0, "color": 1}]})
    code, out, _ = invoke(capsys, "render", "--input", doc, "--json")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", [("render", "--json"), ("transform", "--map", "row-shift")])
@pytest.mark.parametrize(
    "n, colors",
    [(1, [5]), (-3, [-1]), (0, [1]), (2, [0, 1]), (None, [0, -2])],
    ids=["above-n", "negative-n", "zero-n", "zero-color", "no-n-nonpositive"],
)
def test_render_and_transform_reject_colors_outside_1_to_n(capsys, command, n, colors):
    cells = [{"x": x, "y": 0, "color": c} for x, c in enumerate(colors)]
    doc = {"cells": cells} if n is None else {"n": n, "cells": cells}
    code, out, err = invoke(capsys, command[0], "--input", json.dumps(doc), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_known_good_from_file(tmp_path, capsys):
    doc = to_json(two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS))
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "verify", "--input", str(path), "--pattern", "square")
    assert code == 0
    assert out == "de Bruijn: true\n"


def test_enumerate_jsonl(capsys):
    shape = json.dumps(to_json(shape_from_rows(CENSUS13_ROWSPANS["A"])))
    code, out, _ = invoke(
        capsys, "enumerate", "--shape", shape, "--pattern", "ltromino", "--colors", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    for line in lines:
        doc = json.loads(line)
        assert doc["n"] == 2 and len(doc["cells"]) == 13


def test_enumerate_emit_prints_count(tmp_path, capsys):
    shape = json.dumps(to_json(shape_from_rows(CENSUS13_ROWSPANS["A"])))
    outfile = tmp_path / "solutions.jsonl"
    code, out, _ = invoke(
        capsys,
        "enumerate",
        "--shape", shape,
        "--pattern", "ltromino",
        "--colors", "2",
        "--emit", str(outfile),
    )
    assert code == 0
    assert out == "8\n"
    assert len(outfile.read_text().splitlines()) == 8


@settings(max_examples=30, deadline=None)
@given(
    st.builds(
        lambda seed, size: random_polyomino(random.Random(seed), size),
        st.integers(0, 2**32 - 1),
        st.integers(2, 11),
    ),
    st.integers(1, 3),
)
@example(shape_from_rows(CENSUS13_ROWSPANS["A"]), 2)
@example(straight(10), 3)
@example(rectangle(5, 5), 2)
@example(ziggurat(5), 2)
def test_enumerate_lines_are_dumps_of_to_json(shape, n):
    # The first pattern with n**k instances, so that most shapes have
    # colorings to print.
    patterns = [straight(2), normalize([(0, 0), (0, 1)]), straight(3), LTROMINO, SQUARE, TEE]
    pattern = next((p for p in patterns if len(instances_of(p, shape)) == n ** len(p)), LTROMINO)
    argv = [
        "enumerate",
        "--shape", json.dumps(to_json(shape)),
        "--pattern", json.dumps(to_json(pattern)),
        "--colors", str(n),
    ]
    code, out, _ = run_on_stdin(argv, "")
    assert code == 0
    want = [json.dumps(to_json(c)) for c in enumerate_prismatic_colorings(shape, pattern, n)]
    assert out.splitlines() == want
    with tempfile.TemporaryDirectory() as tmp:
        emit = os.path.join(tmp, "out.jsonl")
        code, count, _ = run_on_stdin(argv + ["--emit", emit], "")
        with open(emit) as fh:
            assert (code, count, fh.read()) == (0, f"{len(want)}\n", out)


@pytest.mark.parametrize("args", [ENUMERATE5, CENSUS13], ids=["enumerate", "shape-census"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(capsys, args, threads):
    code, out, err = invoke(capsys, *args, "--threads", threads)
    assert (code, out) == (2, "")
    assert err == f"error: --threads must be at least 1, got {threads}\n"


def test_enumerate_threads_identical(capsys):
    args = ("enumerate", "--shape", "ziggurat:3", "--pattern", "tee", "--colors", "1")
    code1, out1, _ = invoke(capsys, *args, "--threads", "1")
    code8, out8, _ = invoke(capsys, *args, "--threads", "8")
    assert code1 == code8 == 0
    assert out1 == out8


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("enumerate", "--shape", "rect:2x2", "--pattern", "straight:2", "--colors", "\u0662"), "\u0662"),
        (("count", "cyclic", "-n", "\uff12", "-k", "3"), "\uff12"),
        (("min-size", "--pattern", "square", "--instances", "1_0", "--cap", "13"), "1_0"),
        (("min-size", "--pattern", "square", "--instances", "4", "--cap", " 13"), " 13"),
        (("seq", "-n", "2", "-k", "+3"), "+3"),
        (("seq", "-n", "2", "-k", "3", "--seed=-"), "-"),
        (("shape-census", *CENSUS13[1:], "--threads", "2 "), "2 "),
        (("cock", "--params", PARAMS3, "--locate", "1", "2", "2", "\u00b9"), "\u00b9"),
    ],
    ids=["arabic-indic", "fullwidth", "underscore", "space", "plus", "lone-minus", "trailing-space", "superscript"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, bad):
    # int() alone reads every one of these; argparse must refuse them as it
    # refuses "abc".
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"invalid int value: {bad!r}\n")


def test_integer_options_keep_the_sign_and_every_digit(capsys):
    code, out, err = invoke(capsys, "seq", "-n", "2", "-k", "3", "--method", "eulerian", "--seed", "-1")
    assert (code, out, err) == (0, "(1,2,1,2,2,2,1,1)\n", "")
    code, out, err = invoke(capsys, "count", "cyclic", "-n", "-1", "-k", "2")
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, _ = invoke(capsys, "min-size", "--pattern", "square", "--instances", "04", "--cap", "0010")
    assert (code, json.loads(out)["size"]) == (0, 9)


def test_enumerate_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "40")
    code, out, err = invoke(
        capsys, "enumerate", "--shape", "rect:5x5", "--pattern", "square", "--colors", "2"
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("limit", ["-5", "0", "1_000", "\u0663"])
def test_malformed_node_limit_exits_2_with_one_line(capsys, monkeypatch, limit):
    # int() alone reads '1_000' as 1000 and the Arabic-Indic digit as 3.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", limit)
    min_size = ("min-size", "--pattern", "ltromino", "--instances", "8", "--cap", "13")
    for argv in (ENUMERATE5, min_size, CENSUS13):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: PRISMATIC_NODE_LIMIT must be a positive integer, got {limit!r}\n"


@pytest.mark.parametrize(
    "bbox, threads, limit, message",
    [
        ("5xx", "0", "0", "bad number 'x'"),
        ("5x5", "0", "0", "--threads must be at least 1"),
        ("5x5", "1", "0", "PRISMATIC_NODE_LIMIT must be"),
        ("5x5", "1", "1000", "need n >= 1"),
    ],
    ids=["spec", "threads", "limit", "colors"],
)
def test_census_errors_come_in_order(capsys, monkeypatch, bbox, threads, limit, message):
    # Specs, then --threads, then the node limit, then n: each case mends
    # the error of the case before it, and --colors stays 0.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", limit)
    argv = ("--pattern", "ltromino", "--colors", "0", "--size", "13", "--bbox", bbox, "--threads", threads)
    code, out, err = invoke(capsys, "shape-census", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("limit, code", [(10_000, 3), (13_060, 3), (13_061, 0)])
def test_enumerate_budget_is_global_across_threads(capsys, monkeypatch, limit, code):
    # The search of rect:5x5 tries 13,061 colors.  enumerate runs it in
    # one process for every --threads, so the budget fails below 13,061
    # and passes at it whatever the thread count.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", str(limit))
    args = ("enumerate", "--shape", "rect:5x5", "--pattern", "square", "--colors", "2")
    code1, out1, _ = invoke(capsys, *args, "--threads", "1")
    code2, out2, _ = invoke(capsys, *args, "--threads", "2")
    assert code1 == code2 == code
    assert out1 == out2
    assert len(out1.splitlines()) == (800 if code == 0 else 0)


def test_min_size_json(capsys):
    code, out, _ = invoke(
        capsys, "min-size", "--pattern", "square", "--instances", "1", "--cap", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4
    assert len(doc["witnesses"]) == 1


def test_min_size_straight_pattern(capsys):
    code, out, _ = invoke(
        capsys, "min-size", "--pattern", "straight:3", "--instances", "4", "--cap", "8"
    )
    assert code == 0
    assert json.loads(out)["size"] == 6


def test_shape_census_small(capsys):
    code, out, _ = invoke(
        capsys,
        "shape-census",
        "--pattern", "straight:2",
        "--colors", "2",
        "--size", "5",
        "--bbox", "5x1",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 1
    assert rows[0]["colorings"] == 4


@pytest.mark.parametrize("command", ["enumerate", "shape-census"])
@pytest.mark.parametrize("colors", ["0", "-1"])
def test_search_commands_reject_nonpositive_colors(capsys, command, colors):
    where = ["--shape", "rect:2x2"] if command == "enumerate" else ["--size", "3", "--bbox", "2x2"]
    code, out, err = invoke(capsys, command, "--pattern", "ltromino", "--colors", colors, *where)
    assert (code, out, err) == (2, "", "error: need n >= 1\n")


CENSUS14 = ("shape-census", "--pattern", "ltromino", "--colors", "2", "--size", "14")


def test_shape_census_budget_exit_3_for_every_thread_count(capsys, monkeypatch):
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "1000")
    args = (*CENSUS14[:-1], "13", "--bbox", "5x5")
    code1, out1, err1 = invoke(capsys, *args, "--threads", "1")
    code2, out2, err2 = invoke(capsys, *args, "--threads", "2")
    assert code1 == code2 == 3
    assert out1 == out2 == ""
    assert err1 == err2 == "budget exceeded: shape enumeration exceeded the 1000 node budget\n"


def test_min_size_growth_node_regression(capsys, monkeypatch):
    # The clamped box (5x5 at 13 cells) and the dead-cell cut grow 1,809
    # cells at size 13, the staircase bound skipping size 12; the clamp
    # alone needs 180,561 and a size x size box 596,894, past this budget.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "25000")
    code, out, _ = invoke(capsys, "min-size", "--pattern", "ltromino", "--instances", "8", "--cap", "13")
    assert code == 0
    doc = json.loads(out)
    assert (doc["size"], len(doc["witnesses"])) == (13, 9)


def test_min_size_budget_names_the_budget_and_size(capsys, monkeypatch):
    # The budget runs out at 9 cells, the tee's answer, after size 8, the
    # first the staircase bound admits; the message gives the budget as set.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "300")
    code, out, err = invoke(capsys, "min-size", "--pattern", "tee", "--instances", "4", "--cap", "10")
    assert (code, out) == (3, "")
    assert err == "budget exceeded: shape enumeration exceeded the 300 node budget at size 9\n"


def test_min_size_builds_the_ltromino_witnesses_without_growth(capsys):
    # Growth ran out of the default budget after 372 s at 76 cells.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "min-size", "--pattern", "ltromino", "--instances", "64", "--cap", "76")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["size"], len(doc["witnesses"])) == (76, 9)
    code, out, err = invoke(capsys, "min-size", "--pattern", "ltromino", "--instances", "125", "--cap", "142")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["size"], len(doc["witnesses"])) == (142, 4_599)


def test_min_size_skips_the_sizes_no_box_admits():
    # 10**8 square instances need 10**8 + 3 cells by the counting bound,
    # past the cap, so no size is tried.
    proc = subprocess.run(
        [sys.executable, "-m", "prismatic.cli", "min-size", "--pattern", "square",
         "--instances", "100000000", "--cap", "100000000"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: no shape of size <= 100000000 holds 100000000 instances\n"


def test_min_size_starts_at_the_first_admitted_size():
    # 10**12 square instances: the first size the bounds admit, s =
    # 10**12 + 1 + ceil(2 sqrt(10**12)) = (10**6 + 1)**2, lies about 2 *
    # 10**6 sizes past the counting bound; a walk over them took seconds.
    argv = ["min-size", "--pattern", "square", "--instances", str(10**12), "--cap", str(2 * 10**12)]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "prismatic.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert time.perf_counter() - start < 3
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: shape growth of {10**12 + 2_000_001} cells passes ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--shape", "rect:2x1"],
        ["shape-census", "--size", "3", "--bbox", "3x3"],
    ],
    ids=["enumerate", "shape-census"],
)
def test_searches_skip_a_power_past_the_shapes_cells(capsys, argv):
    # n**2000 with a 4001-digit n took seconds to build; 2**2000 already
    # passes every instance count these shapes can hold.
    colors = str(10**4000)
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--pattern", "straight:2000", "--colors", colors)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "", "")


def test_min_size_answers_under_a_cap_past_sys_maxsize(capsys):
    # The sizes are walked as a range of more than sys.maxsize ints,
    # which is iterated and never asked for its len().
    code, out, err = invoke(
        capsys, "min-size", "--pattern", "square", "--instances", "4", "--cap", str(10**20)
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["size"] == 9
    code, out, err = invoke(
        capsys, "min-size", "--pattern", "square", "--instances", str(10**20), "--cap", str(10**24)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: shape growth of ") and err.count("\n") == 1


def run_capped(*argv, address_space=1_500_000 * 1024):
    """Run the CLI in a child process held to ``address_space`` bytes (1.5
    GB unless given) and 30 s, so that a runaway table or recursion fails
    there and only there."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space,) * 2)

    return subprocess.run(
        [sys.executable, "-m", "prismatic.cli", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--shape", "rect:1002x1", "--pattern", "straight:3", "--colors", "10"),
        ("min-size", "--pattern", "straight:2", "--instances", "2000", "--cap", "2001"),
        ("min-size", "--pattern", "square", "--instances", "1000000", "--cap", "2000000"),
        ("min-size", "--pattern", "square", "--instances", "100000000", "--cap", "200000000"),
    ],
    ids=["enumerate-1002", "min-size-2000", "min-size-10^6", "min-size-10^8"],
)
def test_searches_past_the_recursion_limit_exit_2_with_one_line(argv):
    # Both searches recurse once per cell; a growth of more cells than
    # the recursion limit is refused before its tables are built.
    proc = run_capped(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "recursion limit" in proc.stderr


@pytest.mark.parametrize("count", [1_000_000, 1000])
def test_runaway_ltromino_counts_exit_3_at_once(count):
    # The witnesses' number is counted before any is built: p3(405) and
    # p3(35) shapes of 1,001,415 and 1,046 cells pass the budget.
    start = time.perf_counter()
    proc = run_capped("min-size", "--pattern", "ltromino", "--instances", str(count), "--cap", str(2 * count))
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("budget exceeded: ") and proc.stderr.count("\n") == 1


def test_ltromino_staircase_past_the_cell_limit_exits_2_at_once():
    # 50,005,000 instances pass the budget as one staircase of 50,015,001
    # cells (p3(0) = 1), past the shape cell limit: it is refused before
    # it is built, and so never outgrows the cap.
    argv = ("min-size", "--pattern", "ltromino", "--instances", "50005000", "--cap", "60000000")
    start = time.perf_counter()
    proc = run_capped(*argv, address_space=400 * 1024 * 1024)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_wide_census_growth_tables_fit_300_mb(monkeypatch):
    # The instance table holds an (anchor, rest) pair per pattern cell of
    # each region cell, not a mask as wide as the 80,200-cell region, so
    # this growth reaches its node budget well inside the cap.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "20000")
    argv = ("shape-census", "--pattern", "ltromino", "--colors", "2", "--size", "200", "--bbox", "200x200")
    proc = run_capped(*argv, address_space=300 * 1024 * 1024)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "budget exceeded: shape enumeration exceeded the 20000 node budget\n"


def test_running_out_of_memory_exits_3_with_one_line():
    # The 9-color bar's colorings outgrow 100 MB well inside the node
    # budget; a traceback with exit 1 it was.
    argv = ("enumerate", "--shape", "rect:731x1", "--pattern", "straight:3", "--colors", "9")
    proc = run_capped(*argv, address_space=100 * 1024 * 1024)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "budget exceeded: out of memory\n"


def test_memory_error_from_any_command_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.search, "min_size_with_instances", exhausted)
    code, out, err = invoke(capsys, "min-size", "--pattern", "straight:1", "--instances", "30", "--cap", "40")
    assert (code, out, err) == (3, "", "budget exceeded: out of memory\n")


def test_one_color_sequences_of_any_order():
    # 1**k = 1, so k alone bounds the work: generation loops rather than
    # recursing, and a k past the budget is refused before any list of k
    # symbols is built.
    proc = run_capped("seq", "-n", "1", "-k", "2000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "(1)\n", "")
    for extra in ([], ["--method", "eulerian"], ["--all"]):
        proc = run_capped("seq", "-n", "1", "-k", str(10**9), *extra)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_enumerate_without_a_coloring_builds_no_permutations():
    # rect:3x3 holds 4 square instances, not 12**4, so there is nothing
    # to print; the 12! color permutations would pass the memory cap.
    proc = run_capped("enumerate", "--shape", "rect:3x3", "--pattern", "square", "--colors", "12")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


@pytest.mark.parametrize(
    "n, pattern, missing",
    [(10**9, "square", f"={10**36}"), (1000, "straight:2000", ">=10**")],
    ids=["a-billion-colors", "unprintable-count"],
)
def test_verify_huge_counts_exit_1_with_one_line(n, pattern, missing):
    # The missing words listed use only the first colors; a count past
    # Python's digit limit is given as a bound.
    doc = json.dumps({"n": n, "cells": [{"x": 0, "y": 0, "color": 1}]})
    proc = run_capped("verify", "--input", doc, "--pattern", pattern)
    assert (proc.returncode, proc.stdout) == (1, "de Bruijn: false\n")
    assert proc.stderr.startswith(f"instances=0 missing{missing}")
    assert proc.stderr.endswith(" duplicated=0\n") and proc.stderr.count("\n") == 1


def test_verify_builds_no_count_past_the_digit_limit(capsys):
    # n**2000 for a 4001-digit n has 8 million digits and took 9.5 s to
    # build; n's bit length alone shows the count passes 10**4300.
    cells = [{"x": 0, "y": 0, "color": 1}, {"x": 1, "y": 0, "color": 2}]
    doc = json.dumps({"n": 10**4000, "cells": cells})
    start = time.perf_counter()
    code, out, err = invoke(capsys, "verify", "--input", doc, "--pattern", "straight:2000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "de Bruijn: false\n")
    assert err == f"instances=0 missing>=10**{sys.get_int_max_str_digits()} duplicated=0\n"


def test_dense_census_settles_without_growth(capsys, monkeypatch):
    # 16 square instances in 20 cells leave at most 4 rows and columns,
    # and a 4x4 box holds 16 cells, so nothing is grown.
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "1")
    code, out, err = invoke(
        capsys, "shape-census", "--pattern", "square", "--colors", "2", "--size", "20", "--bbox", "5x5"
    )
    assert (code, out, err) == (0, "", "")


def test_shape_census_six_by_six_box(capsys):
    # C(36, 14), about 3.8e9 box subsets, is past any subset scan; shape
    # growth tries 84,778 cells.
    code, out, _ = invoke(capsys, *CENSUS14, "--bbox", "6x6")
    assert code == 0
    lines = out.splitlines()
    for line in lines:
        shape = normalize((c["x"], c["y"]) for c in json.loads(line)["cells"])
        assert shape.width <= 6 and shape.height <= 6
        assert len(instances_of(LTROMINO, shape)) == 8
    code, out5, _ = invoke(capsys, *CENSUS14, "--bbox", "5x5")
    assert code == 0
    assert len(out5.splitlines()) == 196
    assert set(out5.splitlines()) <= set(lines)


def test_shape_census_box_only_bounds_the_shapes(capsys):
    # Growth needs no more of the box than a 3-cell shape can span.
    args = ("shape-census", "--pattern", "ltromino", "--colors", "1", "--size", "3")
    start = time.perf_counter()
    code, out, _ = invoke(capsys, *args, "--bbox", "1000x1000")
    assert time.perf_counter() - start < 2
    assert (code, out) == invoke(capsys, *args, "--bbox", "3x3")[:2]
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "number", ["1" * 5000, "\u00b2", "x"], ids=["5000-digits", "superscript-two", "letter"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--shape", "rect:{}x5", "--pattern", "square", "--colors", "2"),
        ("enumerate", "--shape", "pyramid:{}", "--pattern", "square", "--colors", "2"),
        ("shape-census", "--pattern", "ltromino", "--colors", "2", "--size", "13", "--bbox", "{}x5"),
        ("shapes", "ziggurat", "{}"),
        ("shapes", "pyramid", "4", "--trim", "bottom-right:{}"),
        ("enumerate", "--shape", "rect:5x5", "--pattern", "straight:{}", "--colors", "2"),
    ],
    ids=["rect", "pyramid", "bbox", "ziggurat", "trim", "straight"],
)
def test_bad_spec_numbers_exit_2_with_one_line(capsys, argv, number):
    code, out, err = invoke(capsys, *(arg.format(number) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: bad number ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--shape", "rect:100000x100000", "--pattern", "square", "--colors", "2"),
        ("enumerate", "--shape", "rect:5x5", "--pattern", "straight:999999999", "--colors", "2"),
        ("shapes", "ziggurat", "100000"),
    ],
    ids=["rect", "straight", "ziggurat"],
)
def test_huge_family_shapes_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_counts_missing_colorings_at_once(capsys):
    doc = {"n": 60, "cells": [{"x": 0, "y": 0, "color": 1}, {"x": 1, "y": 0, "color": 2}]}
    code, out, err = invoke(capsys, "verify", "--input", json.dumps(doc), "--pattern", "square")
    assert (code, out) == (1, "de Bruijn: false\n")
    assert err == "instances=0 missing=12960000 duplicated=0\n"


def test_transform_row_shift(capsys):
    doc = json.dumps(to_json(LTROMINO))
    code, out, _ = invoke(capsys, "transform", "--input", doc, "--map", "row-shift", "--normalize")
    assert code == 0
    cells = {(c["x"], c["y"]) for c in json.loads(out)["cells"]}
    assert cells == {(1, 0), (2, 0), (0, 1)}


def test_transform_normalize_keeps_a_disconnected_image(capsys):
    doc = json.dumps({"cells": [{"x": 0, "y": 0}, {"x": 0, "y": 1}]})
    code, out, _ = invoke(capsys, "transform", "--input", doc, "--map", "row-shift", "--normalize")
    assert code == 0
    assert json.loads(out) == {"cells": [{"x": 0, "y": 1}, {"x": 1, "y": 0}]}


@pytest.mark.parametrize(
    "cells, n, want",
    [
        # the L-tromino colored 3, 1, 2: each color stays on its cell's image
        ([(0, 0, 3), (0, 1, 1), (1, 0, 2)], 4, [(0, 1, 1), (1, 0, 3), (2, 0, 2)]),
        # a vertical domino off the origin; its image is disconnected
        ([(7, -3, 2), (7, -2, 1)], 5, [(0, 1, 1), (1, 0, 2)]),
    ],
    ids=["ltromino", "disconnected-image"],
)
def test_transform_normalize_carries_colors(capsys, cells, n, want):
    doc = {"n": n, "cells": [{"x": x, "y": y, "color": c} for x, y, c in cells]}
    code, out, _ = invoke(
        capsys, "transform", "--input", json.dumps(doc), "--map", "row-shift", "--normalize"
    )
    assert code == 0
    assert json.loads(out) == {
        "n": n, "cells": [{"x": x, "y": y, "color": c} for x, y, c in want]
    }


def test_transform_unknown_map_exit_2(capsys):
    doc = json.dumps(to_json(LTROMINO))
    with pytest.raises(SystemExit):
        run(["transform", "--input", doc, "--map", "spin"])
    capsys.readouterr()


def test_count_commands(capsys):
    code, out, _ = invoke(capsys, "count", "cyclic", "-n", "2", "-k", "4")
    assert (code, out) == (0, "16\n")
    code, out, _ = invoke(capsys, "count", "acyclic", "-n", "2", "-k", "3")
    assert (code, out) == (0, "16\n")
    code, out, _ = invoke(capsys, "count", "cock", "-n", "3")
    assert (code, out) == (0, "78382080\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "cyclic", "-n", "7", "-k", "5"),
        ("count", "acyclic", "-n", "7", "-k", "5"),
        ("count", "cock", "-n", "40"),
        ("count", "cyclic", "-n", "10", "-k", "8"),
        ("seq", "--all", "-n", "6", "-k", "7"),
        ("seq", "--all", "-n", "10", "-k", "8"),
        ("seq", "-n", "2", "-k", "1000000"),
    ],
)
def test_huge_counts_exit_2_at_once(capsys, argv):
    # Each count has thousands to millions of digits; the guards read its
    # logarithm, so none is built, printed or enumerated.
    start = time.monotonic()
    code, out, err = invoke(capsys, *argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_largest_printable_cock_count(capsys):
    code, out, _ = invoke(capsys, "count", "cock", "-n", "33")
    assert (code, len(out)) == (0, 4057)  # 4056 digits and a newline
    code, _, err = invoke(capsys, "count", "cock", "-n", "34")
    assert code == 2
    assert "too large to print" in err


def test_count_needs_order(capsys):
    code, _, err = invoke(capsys, "count", "cyclic", "-n", "2")
    assert code == 2
    assert "order" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "-n", "2", "-k", "2", "--all", "--acyclic"),
        ("seq", "-n", "2", "-k", "2", "--start", "3"),
        ("seq", "-n", "2", "-k", "2", "--all", "--start", "1"),
        ("seq", "-n", "2", "-k", "3", "--seed", "9"),
        ("seq", "-n", "2", "-k", "3", "--method", "greedy-least", "--seed", "0"),
        ("seq", "-n", "2", "-k", "3", "--all", "--method", "eulerian"),
        ("seq", "-n", "2", "-k", "3", "--all", "--method", "greedy-least"),
        ("seq", "-n", "2", "-k", "3", "--all", "--seed", "4"),
        ("count", "cock", "-n", "3", "-k", "9"),
        ("count", "cyclic", "-n", "2"),
        ("count", "acyclic", "-n", "2"),
    ],
)
def test_ignored_or_missing_options_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, spec",
    [
        (("min-size", "--instances", "4", "--cap", "10"), "squre"),
        (("enumerate", "--shape", "rect:2x2", "--colors", "2"), "Square"),
        (("shape-census", "--colors", "2", "--size", "4", "--bbox", "3x3"), "squre"),
    ],
    ids=["min-size", "enumerate", "shape-census"],
)
def test_unknown_pattern_name_exits_2_with_the_known_names(capsys, argv, spec):
    # A name that is neither a built-in pattern nor a file is reported as
    # a pattern, not as a missing file.
    code, out, err = invoke(capsys, *argv, "--pattern", spec)
    assert (code, out) == (2, "")
    assert err == (
        f"error: unknown pattern {spec!r}; known: ['ell', 'ltromino', 'square', 'tee', 'zee'] or straight:K\n"
    )


def test_unknown_shape_name_keeps_its_own_line(capsys):
    code, out, err = invoke(capsys, "enumerate", "--shape", "squre", "--pattern", "square", "--colors", "2")
    assert (code, out, err) == (2, "", "error: cannot read shape 'squre'\n")


def test_render_round_trip(capsys):
    doc = json.dumps(to_json(ziggurat(2)))
    code, out, _ = invoke(capsys, "render", "--input", doc)
    assert code == 0
    assert out == ".#.\n###\n"
    code, out, _ = invoke(capsys, "render", "--input", doc, "--json")
    assert code == 0
    assert json.loads(out) == to_json(ziggurat(2))


def test_one_parser_serves_a_sequence_of_commands(capsys, monkeypatch):
    # The parser is built once per process; every call through it gives
    # the stdout bytes and exit code of the same command run on its own.
    good = json.dumps(to_json(two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS)))
    mutated = json.loads(good)
    first, other = mutated["cells"][0], next(
        c for c in mutated["cells"] if c["color"] != mutated["cells"][0]["color"]
    )
    first["color"], other["color"] = other["color"], first["color"]
    steps = [
        ((), ("verify", "--input", good, "--pattern", "square"), 0),
        ((), ("verify", "--input", json.dumps(mutated), "--pattern", "square"), 1),
        ((), ("enumerate", *ENUMERATE5[1:-1], "abc"), 2),
        ((("PRISMATIC_NODE_LIMIT", "40"),), ENUMERATE5, 3),
        ((), ("min-size", "--pattern", "square", "--instances", "4", "--cap", "10"), 0),
        ((), ("verify", "--input", good, "--pattern", "square"), 0),
    ]
    assert cli._build_parser() is cli._build_parser()
    for env, argv, want in steps:
        alone = subprocess.run(
            [sys.executable, "-m", "prismatic.cli", *argv],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, **dict(env)},
        )
        with monkeypatch.context() as m:
            for key, value in env:
                m.setenv(key, value)
            try:
                code = run(list(argv))
            except SystemExit as exc:
                code = exc.code
        assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout)
        assert code == want


def test_import_loads_no_process_pool():
    # The pool name in prismatic.search resolves on first use only, so
    # that importing the CLI loads no multiprocessing.
    probe = (
        "import sys, prismatic, prismatic.cli\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
        "import concurrent.futures\n"
        "print(prismatic.search.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor)\n"
        "try:\n"
        "    prismatic.search.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=30
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "[]\nTrue\nmodule 'prismatic.search' has no attribute 'no_such_name'\n"
    )


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "prismatic.cli", "count", "cock", "-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "96\n"


# Any JSON value that is not an integer.
NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
NOT_LIST = st.one_of(
    st.none(), st.integers(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers())
)
NOT_OBJECT = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2))


@st.composite
def malformed_documents(draw):
    """A valid coloring document with one field of the wrong JSON type,
    a missing key or a cell that is not an object."""
    doc = to_json(two_coloring(SQUARE5_SHAPE, SQUARE5_TWOS))
    cell = doc["cells"][draw(st.integers(0, len(doc["cells"]) - 1))]
    kind = draw(st.sampled_from(["doc", "cells", "no cells", "cell", "field", "no field", "n"]))
    if kind == "doc":
        doc = draw(NOT_OBJECT)
    elif kind == "cells":
        doc["cells"] = draw(NOT_LIST)
    elif kind == "no cells":
        del doc["cells"]
    elif kind == "cell":
        doc["cells"][doc["cells"].index(cell)] = draw(NOT_OBJECT)
    elif kind == "field":
        cell[draw(st.sampled_from(["x", "y", "color"]))] = draw(NOT_INT)
    elif kind == "no field":
        del cell[draw(st.sampled_from(["x", "y", "color"]))]
    else:
        doc["n"] = draw(NOT_INT)
    return doc


@st.composite
def malformed_params(draw):
    doc = {"n": 2, "r0": [1, 1, 2, 2], "start": 0, "sigma": [1, 2, 3, 4]}
    key = draw(st.sampled_from(sorted(doc)))
    kind = draw(st.sampled_from(["doc", "missing", "value", "element"]))
    if kind == "doc":
        return draw(NOT_OBJECT)
    if kind == "missing":
        del doc[key]
    elif kind == "element" and key in ("r0", "sigma"):
        doc[key][draw(st.integers(0, 3))] = draw(NOT_INT)
    else:
        doc[key] = draw(NOT_LIST if key in ("r0", "sigma") else NOT_INT)
    return doc


def run_on_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            code = run(argv)
        finally:
            sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.sampled_from(
                [
                    ("verify", "--input", "-", "--pattern", "square"),
                    ("render", "--input", "-"),
                    ("render", "--input", "-", "--json"),
                    ("transform", "--input", "-", "--map", "row-shift"),
                ]
            ),
            malformed_documents(),
        ),
        st.tuples(st.just(("cock", "--params", "-")), malformed_params()),
    )
)
def test_malformed_documents_exit_2_with_one_line(case):
    argv, doc = case
    code, out, err = run_on_stdin(list(argv), json.dumps(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


HUGE = "1" * 5000


@pytest.mark.parametrize(
    "argv, text",
    [
        (("verify", "--input", "-", "--pattern", "square"),
         '{"n": 2, "cells": [{"x": ' + HUGE + ', "y": 0, "color": 1}]}'),
        (("render", "--input", "-"), '{"cells": [{"x": ' + HUGE + ', "y": 0}]}'),
        (("cock", "--params", "-"),
         '{"n": ' + HUGE + ', "r0": [1], "start": 0, "sigma": [1]}'),
    ],
    ids=["verify", "render", "cock"],
)
def test_huge_json_integer_exit_2_with_one_line(argv, text):
    code, out, err = run_on_stdin(list(argv), text)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_ascii_render_refuses_a_huge_grid_at_once(capsys):
    doc = json.dumps({"cells": [{"x": 0, "y": 0}, {"x": 3_000_000_000, "y": 0}]})
    start = time.perf_counter()
    code, out, err = invoke(capsys, "render", "--input", doc)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_census_past_the_staircase_bound_answers_at_once(capsys):
    # 3**3 = 27 L-tromino instances need 35 cells: 34 - m(34) = 26 with
    # m(34) = 8, so no 34-cell shape is grown.
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "shape-census", "--pattern", "ltromino", "--colors", "3", "--size", "34", "--bbox", "9x9"
    )
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "", "")
