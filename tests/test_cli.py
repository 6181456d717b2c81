"""Command line interface: payload on stdout, diagnostics on stderr."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismatic import instances_of, normalize, to_json
from prismatic import search
from prismatic.cli import run
from prismatic.shapes import LTROMINO, ziggurat

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


@pytest.mark.parametrize("args", [ENUMERATE5, CENSUS13], ids=["enumerate", "shape-census"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(capsys, args, threads):
    code, out, err = invoke(capsys, *args, "--threads", threads)
    assert (code, out) == (2, "")
    assert err == f"error: --threads must be at least 1, got {threads}\n"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "threads, cpus, sizes", [(8, 3, [3]), (2, 3, [2]), (16, 16, [9]), (8, 1, [])]
)
def test_pool_is_sized_from_jobs_and_cpus(capsys, monkeypatch, tmp_path, threads, cpus, sizes):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
    emit = str(tmp_path / "out.jsonl")
    code, out, _ = invoke(capsys, *ENUMERATE5, "--emit", emit, "--threads", str(threads))
    assert (code, out) == (0, "800\n")
    # enumerate searches its one shape in this process.
    assert RecordingPool.sizes == []
    # The 13-cell census searches 9 candidates, one job each.
    code, out, _ = invoke(capsys, *CENSUS13, "--threads", str(threads))
    assert code == 0 and len(out.splitlines()) == 9
    assert RecordingPool.sizes == sizes


def test_enumerate_threads_identical(capsys):
    args = ("enumerate", "--shape", "ziggurat:3", "--pattern", "tee", "--colors", "1")
    code1, out1, _ = invoke(capsys, *args, "--threads", "1")
    code8, out8, _ = invoke(capsys, *args, "--threads", "8")
    assert code1 == code8 == 0
    assert out1 == out8


def test_enumerate_budget_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("PRISMATIC_NODE_LIMIT", "40")
    code, out, err = invoke(
        capsys, "enumerate", "--shape", "rect:5x5", "--pattern", "square", "--colors", "2"
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("limit, code", [(20_000, 3), (40_270, 3), (40_271, 0)])
def test_enumerate_budget_is_global_across_threads(capsys, monkeypatch, limit, code):
    # The search of rect:5x5 tries 40,271 colors.  enumerate runs it in
    # one process for every --threads, so the budget fails below 40,271
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


def test_shape_census_six_by_six_box(capsys):
    # C(36, 14), about 3.8e9 box subsets, is past any subset scan; shape
    # growth tries about 1.2M cells.
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


@pytest.mark.parametrize("number", ["1" * 5000, "\u00b2"], ids=["5000-digits", "superscript-two"])
@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--shape", "rect:{}x5", "--pattern", "square", "--colors", "2"),
        ("enumerate", "--shape", "pyramid:{}", "--pattern", "square", "--colors", "2"),
        ("shape-census", "--pattern", "ltromino", "--colors", "2", "--size", "13", "--bbox", "{}x5"),
        ("shapes", "ziggurat", "{}"),
        ("shapes", "pyramid", "4", "--trim", "bottom-right:{}"),
    ],
    ids=["rect", "pyramid", "bbox", "ziggurat", "trim"],
)
def test_bad_spec_numbers_exit_2_with_one_line(capsys, argv, number):
    code, out, err = invoke(capsys, *(arg.format(number) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--shape", "rect:100000x100000", "--pattern", "square", "--colors", "2"),
        ("enumerate", "--shape", "rect:5x5", "--pattern", "straight:10000000000", "--colors", "2"),
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


def test_render_round_trip(capsys):
    doc = json.dumps(to_json(ziggurat(2)))
    code, out, _ = invoke(capsys, "render", "--input", doc)
    assert code == 0
    assert out == ".#.\n###\n"
    code, out, _ = invoke(capsys, "render", "--input", doc, "--json")
    assert code == 0
    assert json.loads(out) == to_json(ziggurat(2))


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
