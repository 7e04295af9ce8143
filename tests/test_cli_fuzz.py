"""Fuzzing `lnpi.cli.main` in-process: every input ends in a documented exit code.

Each case runs `main` in this process, starting no process or thread, on
short process text, random cycle strings, or a file one edit away from
one that `step --deriv`, `trace --deriv` or a user writes.  It must return
an exit code in 0..5 (an argparse usage error exits 2) and let no
exception escape.  The inputs stay shallow: deep nesting is a separate,
known limit of the recursive parser, printer and traversals.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnpi.cli import main

SERVER = "*( new n. c?(x). x!n. 0 )"
FUZZ = settings(derandomize=True, deadline=None, max_examples=150)


def exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:  # argparse usage errors
            return e.code


names = st.sampled_from("cnmx")
processes = st.recursive(
    st.just("0"),
    lambda sub: st.one_of(
        st.builds("{}!{}. {}".format, names, names, sub),
        st.builds("{}?({}). {}".format, names, names, sub),
        st.builds("{} | {}".format, sub, sub),
        st.builds("new {}. {}".format, names, sub),
        st.builds("*({})".format, sub),
        st.builds(lambda es, d: f"sum [{', '.join(es)}; {d}]", st.lists(sub, max_size=2), sub),
    ),
    max_leaves=4,
)
# Well-formed text and arbitrary text over the grammar's characters.
process_text = st.one_of(processes, st.text("cnmx0!?(). |*;[],new sum", max_size=24))


@FUZZ
@given(st.sampled_from(["fmt", "supp", "lc", "step"]), process_text, st.lists(names, max_size=2),
       st.integers(0, 3))
def test_process_commands_exit_with_a_documented_code(command, text, env, fuel) -> None:
    argv = [command, text, *(x for n in env for x in ("-e", n))]
    if command == "step":
        argv += ["--fuel", str(fuel)]
    assert exit_code(argv) in range(6)


# Up to 30 nested binders: lc walks one opening of each binder body and
# checks the others by equivariance, so a case costs depth times size.
binders = st.lists(st.one_of(st.builds("new {}. ".format, names), st.builds("{}?({}). ".format, names, names)),
                   max_size=30)


@FUZZ
@given(binders, processes)
def test_lc_on_nested_binders_exits_with_a_documented_code(prefix, body) -> None:
    assert exit_code(["lc", "".join(prefix) + body]) == 0


cycle_lists = st.lists(st.lists(st.sampled_from("nmpq"), max_size=3), max_size=3).map(
    lambda cycles: "".join(f"({' '.join(c)})" for c in cycles))


@FUZZ
@given(st.one_of(cycle_lists, st.text("nmpq() ,", max_size=14)))
def test_perm_exits_with_a_documented_code(cycles) -> None:
    assert exit_code(["perm", cycles, "n!m. p!q. 0"]) in range(6)


JUNK = [None, True, 1.5, -1, 0, 7, "x", "c?y1", [], {}, {"tag": "nil"}, {"atom": 0}]


@st.composite
def one_edit(draw, value):
    """value with one key of one object dropped, renamed or retyped, or one array item replaced."""
    value = json.loads(json.dumps(value))
    places = []
    todo = [value]
    while todo:
        x = todo.pop()
        if isinstance(x, dict) and x:
            places.append(x)
            todo.extend(x.values())
        elif isinstance(x, list) and x:
            places.append(x)
            todo.extend(x)
    place = draw(st.sampled_from(places))
    if isinstance(place, list):
        place[draw(st.integers(0, len(place) - 1))] = draw(st.sampled_from(JUNK))
        return value
    key = draw(st.sampled_from(sorted(place)))
    edit = draw(st.sampled_from(["drop", "rename", "retype"]))
    if edit == "drop":
        del place[key]
    elif edit == "rename":
        place[key + "_"] = place.pop(key)
    else:
        place[key] = draw(st.sampled_from(JUNK))
    return value


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The small files each file-reading command reads, as JSON values."""
    d = tmp_path_factory.mktemp("fuzz")
    acts = ["c?y1", "(n1)y1!n1"]
    (d / "acts.json").write_text(json.dumps(acts))
    assert exit_code(["step", "-e", "n", "new c. n!c. 0 | n?(x). 0", "--deriv", str(d / "d.json")]) == 0
    assert exit_code(["trace", "-e", "c", "--fuel", "2", SERVER, str(d / "acts.json"),
                      "--deriv", str(d / "t.json")]) == 0
    return d, {
        "check-deriv": json.loads((d / "d.json").read_text()),
        "rename": json.loads((d / "t.json").read_text()),
        "trace": acts,
    }


@FUZZ
@given(data=st.data(), command=st.sampled_from(["check-deriv", "rename", "trace"]))
def test_mutated_files_exit_with_a_documented_code(files, data, command) -> None:
    d, values = files
    path = d / "mutant.json"
    path.write_text(json.dumps(data.draw(one_edit(values[command]))))
    argv = {
        "check-deriv": ["check-deriv", str(path)],
        "rename": ["rename", str(path), "n1", "m"],
        "trace": ["trace", "-e", "c", "--fuel", "2", SERVER, str(path)],
    }[command]
    assert exit_code(argv) in range(6)
