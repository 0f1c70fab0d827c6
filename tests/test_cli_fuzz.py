"""Fuzz the CLI boundary: random argv and mutated definition files must end
with exit status 0, 1 or 2, never with an uncaught exception (a traceback
when run as `superalg`)."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superalg.cli import _COMMAND_TABLE, COMMANDS, main
from superalg.liealg import build_gl, dump_definition

FUZZ = settings(derandomize=True, deadline=None, max_examples=100, database=None)

# Counts stay small so that every suite on gl(1|1) runs in well under a second.
NUMERIC = ["--samples", "--seed", "--degree-cap", "--points", "--weights", "--order"]
junk = st.text(max_size=6)
small_int = st.integers(-3, 5).map(str)
number = st.one_of(small_int, junk)
algebra = st.one_of(st.sampled_from(["gl:1,1", "gl:0,1", "gl:1"]), junk)
kind = st.one_of(st.sampled_from(["casimir2", "gelfand"]), junk)
ideal = st.one_of(st.sampled_from(["0", "1,2", "9"]), junk)
# file names below the fuzz directory: a valid definition, bytes that are
# not UTF-8, a directory, a missing file, an unwritable output
file_name = st.sampled_from(["gl11.json", "latin1.json", ".", "missing.json"])
output_name = st.sampled_from(["out.json", "missing/out.json"])
argv_option = st.one_of(
    st.tuples(st.sampled_from(NUMERIC), number),
    st.tuples(st.just("--algebra"), algebra),
    st.tuples(st.just("--kind"), kind),
    st.tuples(st.just("--ideal"), ideal),
    st.tuples(st.just("--check-central")),
    st.tuples(st.just("--file"), file_name),
    st.tuples(st.just("--output"), output_name),
)
# the values after each option's flag, keyed by the RunConfig field it sets
OPTION_VALUES = {
    **{f: (number,) for f in ("samples", "seed", "degree_cap", "points", "weights", "order")},
    "algebra": (algebra,),
    "kind": (kind,),
    "ideal": (ideal,),
    "check_central": (),
    "file": (file_name,),
    "output": (output_name,),
}


def declared_option(command):
    """(flag, *values) of an option the command declares."""
    fields = ("algebra", "file", *_COMMAND_TABLE[command][1], "output")
    return st.sampled_from(fields).flatmap(
        lambda f: st.tuples(st.just("--" + f.replace("_", "-")), *OPTION_VALUES[f])
    )


def _paths(node, prefix=()):
    """Every (path, value) below a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


GL11 = dump_definition(*build_gl(1, 1))
PATHS = [path for path, _ in _paths(GL11)]
WRONG_TYPES = [None, "x", 1.5, True, {}, [], [[]], {"a": 1}]


def run_cli(argv):
    """Exit status of `superalg argv`; uncaught exceptions propagate."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            status = exc.code
    assert "Traceback" not in err.getvalue()
    return status


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "gl11.json").write_text(json.dumps(GL11))
    text = json.dumps({"name": "\u00e9"}, ensure_ascii=False)
    (path / "latin1.json").write_bytes(text.encode("latin-1"))
    return path


@FUZZ
@given(st.sampled_from(COMMANDS), st.lists(argv_option, max_size=4))
def test_random_argv_exits_cleanly(fuzz_dir, command, options):
    argv = [command]
    for name, *value in options:
        if name in ("--file", "--output"):
            value = [str(fuzz_dir / value[0])]
        argv += [name, *value]
    assert run_cli(argv) in (0, 1, 2)


@FUZZ
@given(st.sampled_from(COMMANDS).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(declared_option(c), max_size=4))
))
def test_declared_argv_exits_cleanly(fuzz_dir, drawn):
    # options the command declares pass argparse, so runs reach the command body
    command, options = drawn
    argv = [command]
    for name, *value in options:
        if name in ("--file", "--output"):
            value = [str(fuzz_dir / value[0])]
        argv += [name, *value]
    assert run_cli(argv) in (0, 1, 2)


@st.composite
def mutated_definition(draw):
    data = copy.deepcopy(GL11)
    path = draw(st.sampled_from(PATHS))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kinds = ["wrong-type"]
    if isinstance(parent, dict):
        kinds.append("delete")
    if isinstance(value, list) and value:
        kinds.append("truncate")
    if isinstance(value, int) and not isinstance(value, bool):
        kinds.append("index")
    kind = draw(st.sampled_from(kinds))
    if kind == "delete":
        del parent[key]
    elif kind == "truncate":
        parent[key] = value[: draw(st.integers(0, len(value) - 1))]
    elif kind == "index":
        parent[key] = draw(st.sampled_from([-1, 0, 4, 9, 10**6]))
    else:
        parent[key] = draw(st.sampled_from(WRONG_TYPES))
    return data


@FUZZ
@given(st.sampled_from(COMMANDS), mutated_definition())
def test_mutated_definition_file_exits_cleanly(fuzz_dir, command, data):
    path = fuzz_dir / "mutated.json"
    path.write_text(json.dumps(data))
    small = {"samples": "3", "points": "2"}
    reads = _COMMAND_TABLE[command][1]
    counts = [a for f, v in small.items() if f in reads for a in ("--" + f, v)]
    status = run_cli([command, "--file", str(path), *counts])
    assert status in (0, 1, 2)
