import inspect
import json
import sys
import time

import pytest

from lnpi.atoms import Atom
from lnpi.cli import main
from lnpi.lts import Config, Derivation, step
from lnpi.namesets import NameSet
from lnpi.parsing import parse

SERVER = "*( new n. c?(x). x!n. 0 )"
DERIVATION_KEYS = '["cofinite", "conclusion", "premises", "rule", "side"]'


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------- fmt / supp / lc -------------


def test_fmt_prints_the_canonical_form(capsys) -> None:
    code, out, _ = run(capsys, "fmt", "new a. a!a. 0 | 0")
    assert code == 0
    assert out == "new x0. x0!x0. 0 | 0\n"


def test_fmt_forgets_bound_identifier_spelling(capsys) -> None:
    _, out1, _ = run(capsys, "fmt", "new u. n!u. 0")
    _, out2, _ = run(capsys, "fmt", "new v. n!v. 0")
    assert out1 == out2 == "new x1. n!x1. 0\n"


def test_supp_lists_free_names(capsys) -> None:
    code, out, _ = run(capsys, "supp", "n!m.0")
    assert code == 0
    assert out == "{n, m}\n"


def test_supp_excludes_bound_names(capsys) -> None:
    _, out, _ = run(capsys, "supp", "new c. n!c. 0")
    assert out == "{n}\n"


def test_lc_accepts_parsed_processes(capsys) -> None:
    code, out, _ = run(capsys, "lc", "new c. n!c. c?(x). 0")
    assert code == 0
    assert out == "true\n"


@pytest.mark.parametrize(
    "command, printed",
    [
        ("fmt", '{"body": {"chan": {"free": 0}, "cont": {"tag": "nil"}, "msg": {"bound": 0}, "tag": "out"}, "tag": "res"}'),
        ("supp", '{"add": [0], "mod": 1, "remove": [], "res": []}'),
        ("lc", '{"lc": true}'),
    ],
)
def test_json_output_of_a_process(capsys, command, printed) -> None:
    assert run(capsys, command, "new c. n!c. 0", "--json") == (0, printed + "\n", "")


@pytest.mark.parametrize("command", ["fmt", "lc"])
def test_fmt_and_lc_on_a_ten_thousand_component_parallel(capsys, command) -> None:
    # The printer walks a "|" spine with a loop and term_lc with an explicit
    # stack, so no depth limit applies to either.
    n = 10_000
    printed = " | ".join(["c!c. 0"] * n) if command == "fmt" else "true"
    assert run(capsys, command, " | ".join(["c!c.0"] * n)) == (0, printed + "\n", "")


def test_lc_on_30_nested_binders(capsys) -> None:
    # term_lc walks one opening of each binder body and checks the others by
    # equivariance: walking into all four would take time 4^30.
    nested = "".join(f"new x{i}. " for i in range(30)) + " | ".join(f"x{i}!x0.0" for i in range(30))
    start = time.perf_counter()
    assert run(capsys, "lc", nested) == (0, "true\n", "")
    assert time.perf_counter() - start < 0.5


# ------------- step -------------


def test_step_extrusion(capsys) -> None:
    code, out, _ = run(capsys, "step", "-e", "n", "new c. n!c. 0")
    assert code == 0
    assert out == "<{n}; new x1. n!x1. 0>\n  (x1)n!x1 => <{n, x1}; 0> [Open]\n"


def test_step_on_a_dead_process_prints_only_the_config(capsys) -> None:
    code, out, _ = run(capsys, "step", "-e", "c", "0")
    assert code == 0
    assert out == "<{c}; 0>\n"


def test_step_replicated_server_with_low_fuel(capsys) -> None:
    code, out, _ = run(capsys, "step", "-e", "c", "--fuel", "1", SERVER)
    assert code == 0
    assert out == (
        "<{c}; *(new x1. c?(x2). x2!x1. 0)>\n"
        "  c?c => <{c}; new x1. c!x1. 0 | *(new x1. c?(x2). x2!x1. 0)> [Rep]\n"
        "  c?x1 => <{c, x1}; new x2. x1!x2. 0 | *(new x1. c?(x2). x2!x1. 0)> [Rep]\n"
        "  (fuel exhausted: some replication branches were cut)\n"
    )


def test_step_env_flag_accepts_commas_and_repeats(capsys) -> None:
    _, out1, _ = run(capsys, "step", "-e", "n,m", "n!m. 0")
    _, out2, _ = run(capsys, "step", "-e", "n", "-e", "m", "n!m. 0")
    assert out1 == out2
    assert "n!m => <{n, m}; 0> [Out]" in out1


def test_step_json_output_is_deterministic(capsys) -> None:
    code, out1, _ = run(capsys, "step", "-e", "c", "--fuel", "1", "--json", SERVER)
    assert code == 0
    _, out2, _ = run(capsys, "step", "-e", "c", "--fuel", "1", "--json", SERVER)
    assert out1 == out2
    data = json.loads(out1)
    assert data["complete"] is False
    assert [t["action"]["tag"] for t in data["transitions"]] == ["in", "in"]


@pytest.mark.parametrize("command", ["step", "trace"])
def test_negative_fuel_is_rejected_by_the_argument_parser(capsys, tmp_path, command) -> None:
    extra = [write_actions(tmp_path, ["c!c"])] if command == "trace" else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, "-e", "c", "--fuel", "-1", "*(c!c.0)", *extra])
    assert exit_info.value.code == 2
    assert "argument --fuel: must be a natural number, got '-1'" in capsys.readouterr().err


def test_step_on_a_500_prefix_chain(capsys) -> None:
    # Hashing the memo key once recursed through the whole chain and raised
    # RecursionError here; a term's hash is now stored, computed without recursion.
    chain = "c!c. " * 500 + "0"
    code, out, err = run(capsys, "step", "-e", "c", "--fuel", "1", chain)
    assert (code, err) == (0, "")
    assert out == f"<{{c}}; {chain}>\n  c!c => <{{c}}; {'c!c. ' * 499}0> [Out]\n"


DEEP = [("250", "*(c!c.0)", False), ("1", " | ".join(["c!c.0"] * 330), False), ("165", "*(c!c.0)", True)]


@pytest.mark.parametrize("fuel, proc, deriv", DEEP, ids=[f"{f}-{p}" + "-deriv" * d for f, p, d in DEEP])
def test_stepping_past_the_recursion_limit_is_a_syntax_error(
    capsys, monkeypatch, request, tmp_path, fuel, proc, deriv
) -> None:
    # _derivs recurses per unfolding and per Par, and the encoder per record;
    # their depth limits are reported as a file's is, with no traceback, and
    # no file is written.  How many frames a level takes depends on the
    # interpreter, so each case lowers the limit to 100 frames above where it
    # stands, which every input here passes at one frame per level.  With
    # --deriv, step enumerates under the usual limit and only the encoder
    # meets the lowered one.
    limit = sys.getrecursionlimit()
    request.addfinalizer(lambda: sys.setrecursionlimit(limit))

    def lower_the_limit() -> None:
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)

    def step_then_lower_the_limit(cfg, fuel):
        result = step(cfg, fuel)
        lower_the_limit()
        return result

    if deriv:
        monkeypatch.setattr("lnpi.cli.step", step_then_lower_the_limit)
    else:
        lower_the_limit()
    want = (1, "", f"syntax error: the process is nested too deeply to step at fuel {fuel} (at position 0)\n")
    out = tmp_path / "d.json"
    assert run(capsys, "step", "-e", "c", "--fuel", fuel, proc, *(["--deriv", str(out)] if deriv else [])) == want
    assert not out.exists()
    if not deriv:
        actions = write_actions(tmp_path, ["c!c"])
        assert run(capsys, "trace", "-e", "c", "--fuel", fuel, proc, actions) == want


NESTED = "new x. " * 1000 + "0"
TOO_DEEP = {
    "fmt": ["fmt", NESTED],
    "supp": ["supp", NESTED],
    "lc": ["lc", NESTED],
    "perm": ["perm", "(c d)", NESTED],
    "perm-wide": ["perm", "(c d)", " | ".join(["c!d.0"] * 1000)],
    "step": ["step", "-e", "c", NESTED],
    "trace": ["trace", "-e", "c", NESTED],
}


@pytest.mark.parametrize("case", TOO_DEEP)
def test_every_command_reports_a_process_past_the_recursion_limit_in_one_line(
    capsys, request, tmp_path, case
) -> None:
    # The parser takes frames per binder and map_names per `|`.  With the
    # limit lowered to 100 frames above this test, 1000 of either is too
    # deep on any interpreter; main reports it as one syntax error.
    argv = TOO_DEEP[case] + ([write_actions(tmp_path, ["c!c"])] if case == "trace" else [])
    limit = sys.getrecursionlimit()
    request.addfinalizer(lambda: sys.setrecursionlimit(limit))
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    stepping = " to step at fuel 8" if case in ("step", "trace") else ""
    want = f"syntax error: the process is nested too deeply{stepping} (at position 0)\n"
    assert run(capsys, *argv) == (1, "", want)


# ------------- derivation files and check-deriv -------------


def test_step_writes_derivations_that_check(capsys, tmp_path) -> None:
    deriv = tmp_path / "derivs.json"
    code, _, _ = run(capsys, "step", "-e", "n", "new c. n!c. 0", "--deriv", str(deriv))
    assert code == 0
    code, out, _ = run(capsys, "check-deriv", str(deriv))
    assert code == 0
    assert out == "ok [Open] (x1)x0!x1\n"


def test_check_deriv_rejects_a_corrupted_file(capsys, tmp_path) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "n", "new c. n!c. 0", "--deriv", str(deriv))
    data = json.loads(deriv.read_text())
    # leak the extruded atom into the source environment
    data[0]["conclusion"]["src"]["env"]["add"].append(
        data[0]["conclusion"]["action"]["n"]
    )
    deriv.write_text(json.dumps(data))
    code, _, err = run(capsys, "check-deriv", str(deriv))
    assert code == 5
    assert err == "check failed: FreshnessViolated at root: extruded name already known to the observer\n"


def test_check_deriv_rejects_a_wrong_shape_file(capsys, tmp_path) -> None:
    # valid JSON, but a trace file rather than a derivation file
    wrong = tmp_path / "trace.json"
    wrong.write_text(json.dumps({"start": {}, "steps": []}))
    code, _, err = run(capsys, "check-deriv", str(wrong))
    assert code == 1
    assert err == (f"syntax error: {wrong} is not a derivation file: at /: expected the keys"
                   f' {DERIVATION_KEYS}, got ["start", "steps"] (at position 0)\n')


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda env: env["add"].append(-1),  # a negative atom index
         "at /0/conclusion/src/env/add/1: expected a natural number, got -1"),
        (lambda env: env.update(mod=100_000_000, res=[0]),  # a modulus past the bound
         "at /0/conclusion/src/env/mod: expected a modulus in 1..64, got 100000000"),
    ],
    ids=["negative-index", "huge-modulus"],
)
def test_check_deriv_rejects_a_bad_name_set(capsys, tmp_path, corrupt, message) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "n", "new c. n!c. 0", "--deriv", str(deriv))
    data = json.loads(deriv.read_text())
    corrupt(data[0]["conclusion"]["src"]["env"])
    deriv.write_text(json.dumps(data))
    code, _, err = run(capsys, "check-deriv", str(deriv))
    assert code == 1
    assert err == f"syntax error: {deriv} is not a derivation file: {message} (at position 0)\n"


@pytest.mark.parametrize(
    "name",
    [{"bound": -1}, {"bound": "x"}],  # a negative index: not locally closed; not a number
    ids=["negative-bound", "string-bound"],
)
def test_check_deriv_rejects_a_bad_name(capsys, tmp_path, name) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "n", "n!n. 0 | 0", "--deriv", str(deriv))
    data = json.loads(deriv.read_text())
    assert data[0]["rule"] == "Par-L"
    idle = {"tag": "out", "chan": name, "msg": name, "cont": {"tag": "nil"}}
    for end in ("src", "dst"):  # the idle right component, on both sides of the step
        data[0]["conclusion"][end]["proc"]["right"] = idle
    deriv.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-deriv", str(deriv))
    assert (code, out) == (1, "")
    assert err == (f"syntax error: {deriv} is not a derivation file: at /0/conclusion/src/proc/right/chan/bound:"
                   f" expected a natural number, got {json.dumps(name['bound'])} (at position 0)\n")


@pytest.mark.parametrize("value", [True, 1.0, -1, "1"], ids=["bool", "float", "negative", "string"])
@pytest.mark.parametrize(
    "process, where, expected",
    [
        ("new c. n!c. 0", ("side", "atom"), "an atom index"),  # Open: the extruded atom
        ("sum[n!n. 0; 0]", ("side",), "a natural number"),  # Sum: the entry index
        ("new c. n!n. 0", ("cofinite", "witness"), "an atom index"),  # Res: the cofinite witness
        ("new c. n!c. 0", ("conclusion", "action", "c"), "an atom index"),
        ("new c. n!c. 0", ("conclusion", "action", "n"), "an atom index"),
    ],
    ids=["open-side", "sum-side", "witness", "action-c", "action-n"],
)
def test_check_deriv_rejects_a_non_natural_index(capsys, tmp_path, process, where, expected, value) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "n", process, "--deriv", str(deriv))
    data = json.loads(deriv.read_text())
    slot = data[0]
    for key in where[:-1]:
        slot = slot[key]
    slot[where[-1]] = value
    deriv.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-deriv", str(deriv))
    assert (code, out) == (1, "")
    assert err == (f"syntax error: {deriv} is not a derivation file: at /0/{'/'.join(where)}:"
                   f" expected {expected}, got {json.dumps(value)} (at position 0)\n")


def test_check_deriv_decodes_every_entry_before_checking_any(capsys, tmp_path) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "c", "--fuel", "1", SERVER, "--deriv", str(deriv))
    data = json.loads(deriv.read_text())
    assert len(data) == 2
    data[1]["extra"] = None  # an unknown key on the second entry only
    deriv.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-deriv", str(deriv))
    assert (code, out) == (1, "")
    assert err == (f"syntax error: {deriv} is not a derivation file: at /1: expected the keys {DERIVATION_KEYS},"
                   ' got ["cofinite", "conclusion", "extra", "premises", "rule", "side"] (at position 0)\n')


WITNESS_IN_ITS_AVOID_SET = {"L": {"mod": 1, "res": [], "add": [5], "remove": []}, "witness": 5}


@pytest.mark.parametrize(
    "process, rule, key, value, message",
    [
        ("new n. c!n. 0 | c?(x). x!x. 0", "Close-L", "side", {"atom": 7}, "takes no side data"),
        ("new n. c!n. 0 | c?(x). x!x. 0", "Par-L", "side", 3, "takes no side data"),
        ("new n. c!n. 0 | c?(x). x!x. 0", "Par-L", "cofinite", WITNESS_IN_ITS_AVOID_SET,
         "takes no cofinite witness record"),
        ("new n. c!n. 0", "Open", "cofinite", WITNESS_IN_ITS_AVOID_SET, "takes no cofinite witness record"),
    ],
    ids=["close-side", "par-side", "par-cofinite", "open-cofinite"],
)
def test_check_deriv_rejects_data_the_rule_takes_none_of(capsys, tmp_path, process, rule, key, value,
                                                        message) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "c", process, "--deriv", str(deriv))
    node = next(d for d in json.loads(deriv.read_text()) if d["rule"] == rule)
    deriv.write_text(json.dumps([node]))
    assert run(capsys, "check-deriv", str(deriv))[0] == 0
    node[key] = value
    deriv.write_text(json.dumps([node]))
    code, out, err = run(capsys, "check-deriv", str(deriv))
    assert (code, out) == (5, "")
    assert err == f"check failed: RuleShape at root: rule {rule} {message}\n"


def test_step_writes_compact_json_with_sorted_keys(capsys, tmp_path) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "c", "--fuel", "2", SERVER, "--deriv", str(deriv))
    proc, _ = parse(SERVER, {"c": Atom(0)})
    result = step(Config(NameSet.finite([Atom(0)]), proc), 2)
    assert len(result.results) > 1
    assert deriv.read_text() == json.dumps([d.to_json() for _, d in result.results], sort_keys=True)


def test_readers_accept_indented_json(capsys, tmp_path) -> None:
    # Files written with json.dumps(indent=2) still read the same.
    deriv, traced = tmp_path / "derivs.json", tmp_path / "trace.json"
    run(capsys, "step", "-e", "c", "--fuel", "2", SERVER, "--deriv", str(deriv))
    acts = write_actions(tmp_path, ["c?y1", "(n1)y1!n1"])
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts, "--deriv", str(traced))
    compact = [run(capsys, "check-deriv", str(deriv)), run(capsys, "rename", str(traced), "n1", "m")]
    for path in (deriv, traced):
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    indented = [run(capsys, "check-deriv", str(deriv)), run(capsys, "rename", str(traced), "n1", "m")]
    assert indented == compact
    assert [code for code, _, _ in indented] == [0, 0]


CONFIG_JSON = '{"env": {"mod": 1, "res": [], "add": [0], "remove": []}, "proc": {"tag": "nil"}}'
TAU_JSON = f'{{"src": {CONFIG_JSON}, "action": {{"tag": "tau"}}, "dst": {CONFIG_JSON}}}'


def nested_derivation(depth: int) -> str:
    """A derivation text of depth Rep nodes, each the one premise of the node above.
    Every record has all the keys of one, so only its depth can reject it."""
    leaf = f'{{"rule": "Out", "conclusion": {TAU_JSON}, "cofinite": null, "side": null, "premises": []}}'
    node = f'{{"rule": "Rep", "conclusion": {TAU_JSON}, "cofinite": null, "side": null, "premises": ['
    return node * depth + leaf + "]}" * depth


def test_deeply_nested_files_are_syntax_errors(capsys, tmp_path) -> None:
    deep = tmp_path / "deep.json"
    deep.write_text(nested_derivation(2000))
    code, out, err = run(capsys, "check-deriv", str(deep))
    assert (code, out, err) == (1, "", f"syntax error: {deep} is nested too deeply (at position 0)\n")
    step_json = f'{{"action": {{"tag": "tau"}}, "config": {CONFIG_JSON}, "deriv": {nested_derivation(2000)}}}'
    deep.write_text(f'{{"start": {CONFIG_JSON}, "steps": [{step_json}], "names": {{}}}}')
    code, out, err = run(capsys, "rename", str(deep), "n", "m")
    assert (code, out, err) == (1, "", f"syntax error: {deep} is nested too deeply (at position 0)\n")


def test_too_deep_decoding_is_a_syntax_error(capsys, tmp_path, monkeypatch) -> None:
    # A file the JSON decoder takes can still recurse too deeply in from_json.
    def too_deep(cls, data, table=None):
        raise RecursionError("maximum recursion depth exceeded")

    deriv = tmp_path / "derivs.json"
    deriv.write_text(nested_derivation(1))
    monkeypatch.setattr(Derivation, "from_json", classmethod(too_deep))
    code, out, err = run(capsys, "check-deriv", str(deriv))
    assert (code, out, err) == (1, "", f"syntax error: {deriv} is nested too deeply (at position 0)\n")


# ------------- trace and rename -------------


def write_actions(tmp_path, actions: list[str]) -> str:
    path = tmp_path / "actions.json"
    path.write_text(json.dumps(actions))
    return str(path)


def test_trace_replays_user_named_fresh_actions(capsys, tmp_path) -> None:
    acts = write_actions(tmp_path, ["c?y1", "(n1)y1!n1"])
    code, out, _ = run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts)
    assert code == 0
    assert out == (
        "<{c}; *(new x3. c?(x4). x4!x3. 0)>\n"
        "  c?y1 => <{c, y1}; new x3. y1!x3. 0 | *(new x3. c?(x4). x4!x3. 0)>\n"
        "  (n1)y1!n1 => <{c, y1, n1}; 0 | *(new x3. c?(x4). x4!x3. 0)>\n"
    )


def test_trace_with_no_actions_prints_the_start(capsys, tmp_path) -> None:
    acts = write_actions(tmp_path, [])
    code, out, _ = run(capsys, "trace", "-e", "c", SERVER, acts)
    assert code == 0
    assert out == "<{c}; *(new x1. c?(x2). x2!x1. 0)>\n"


def test_trace_unmatched_action_exits_3(capsys, tmp_path) -> None:
    acts = write_actions(tmp_path, ["c!c"])
    code, _, err = run(capsys, "trace", "-e", "c", SERVER, acts)
    assert code == 3
    assert err.startswith("no transition:")
    assert "step 0" in err


def test_rename_swaps_a_trace_fresh_name(capsys, tmp_path) -> None:
    acts = write_actions(tmp_path, ["c?y1", "(n1)y1!n1"])
    trace_file = tmp_path / "trace.json"
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts, "--deriv", str(trace_file))
    code, out, _ = run(capsys, "rename", str(trace_file), "n1", "m")
    assert code == 0
    # the binder display shifts one atom up: m now occupies an index
    assert out == (
        "<{c}; *(new x4. c?(x5). x5!x4. 0)>\n"
        "  c?y1 => <{c, y1}; new x4. y1!x4. 0 | *(new x4. c?(x5). x5!x4. 0)>\n"
        "  (m)y1!m => <{c, y1, m}; 0 | *(new x4. c?(x5). x5!x4. 0)>\n"
    )


def test_rename_of_a_start_name_exits_4(capsys, tmp_path) -> None:
    acts = write_actions(tmp_path, ["c?y1"])
    trace_file = tmp_path / "trace.json"
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts, "--deriv", str(trace_file))
    code, _, err = run(capsys, "rename", str(trace_file), "c", "m")
    assert code == 4
    # the message uses the user's spellings, not the interned atoms
    assert err == "not fresh at start: 'c' and 'm' must both be fresh for the start configuration\n"


def test_rename_rejects_a_non_trace_file(capsys, tmp_path) -> None:
    deriv = tmp_path / "derivs.json"
    run(capsys, "step", "-e", "n", "new c. n!c. 0", "--deriv", str(deriv))
    code, _, err = run(capsys, "rename", str(deriv), "n1", "m")
    assert code == 1
    assert err == (f"syntax error: {deriv} is not a trace file: at /: expected an object,"
                   " got an array (at position 0)\n")


@pytest.mark.parametrize(
    "start_env, message",
    [
        ({"mod": 1, "res": [], "add": [0, -3], "remove": []},  # a negative atom index
         "at /start/env/add/1: expected a natural number, got -3"),
        ({"mod": 100_000_000, "res": [0], "add": [], "remove": []},  # a modulus past the bound
         "at /start/env/mod: expected a modulus in 1..64, got 100000000"),
        ({"mod": 2, "res": [0], "add": [], "remove": []},  # the even atoms: not finite
         "at /start/env: expected a finite environment"),
    ],
    ids=["negative-index", "huge-modulus", "periodic"],
)
def test_rename_rejects_a_bad_start_environment(capsys, tmp_path, start_env, message) -> None:
    acts = write_actions(tmp_path, ["c?y1"])
    trace_file = tmp_path / "trace.json"
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts, "--deriv", str(trace_file))
    data = json.loads(trace_file.read_text())
    data["start"]["env"] = start_env
    trace_file.write_text(json.dumps(data))
    code, _, err = run(capsys, "rename", str(trace_file), "n1", "m")
    assert code == 1
    assert err == f"syntax error: {trace_file} is not a trace file: {message} (at position 0)\n"


@pytest.mark.parametrize("value", [True, 1.0, -1, "1", None], ids=["bool", "float", "negative", "string", "null"])
def test_rename_rejects_a_non_natural_names_entry(capsys, tmp_path, value) -> None:
    acts = write_actions(tmp_path, ["c?y1"])
    trace_file = tmp_path / "trace.json"
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts, "--deriv", str(trace_file))
    data = json.loads(trace_file.read_text())
    data["names"]["y1"] = value
    trace_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "rename", str(trace_file), "n1", "m")
    assert (code, out) == (1, "")
    assert err == (f"syntax error: {trace_file} is not a trace file: at /names/y1:"
                   f" expected an atom index, got {json.dumps(value)} (at position 0)\n")


def test_trace_and_rename_write_the_json_they_print(capsys, tmp_path) -> None:
    acts = write_actions(tmp_path, ["c?y1", "(n1)y1!n1"])
    traced, renamed = tmp_path / "trace.json", tmp_path / "renamed.json"
    _, out, _ = run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, acts,
                    "--deriv", str(traced), "--json")
    assert traced.read_text() + "\n" == out
    _, out, _ = run(capsys, "rename", str(traced), "n1", "m", "--deriv", str(renamed), "--json")
    assert renamed.read_text() + "\n" == out


# ------------- perm -------------


def test_perm_applies_cycles_to_free_names(capsys) -> None:
    code, out, _ = run(capsys, "perm", "(n m)", "n!m. 0")
    assert code == 0
    assert out == "m!n. 0\n"


def test_perm_json_output(capsys) -> None:
    printed = '{"chan": {"free": 1}, "cont": {"tag": "nil"}, "msg": {"free": 0}, "tag": "out"}\n'
    assert run(capsys, "perm", "(n m)", "--json", "n!m. 0") == (0, printed, "")


def test_perm_three_cycle(capsys) -> None:
    _, out, _ = run(capsys, "perm", "(n m q)", "n!m. q!q. 0")
    assert out == "m!q. n!n. 0\n"


def test_perm_rejects_malformed_cycles(capsys) -> None:
    code, _, err = run(capsys, "perm", "(n", "n!n. 0")
    assert code == 1
    assert err.startswith("syntax error:")


@pytest.mark.parametrize(
    "cycles, twice",
    [("(n m)(m p)", "m"), ("(n m n)", "n"), ("(n n)", "n")],
    ids=["across-cycles", "within-a-cycle", "a-name-with-itself"],
)
def test_perm_rejects_a_name_that_occurs_twice(capsys, cycles, twice) -> None:
    code, out, err = run(capsys, "perm", cycles, "n!m. p!p. 0")
    assert (code, out) == (1, "")
    assert err == f"syntax error: {twice} occurs twice in the cycles {cycles!r} (at position 0)\n"


def test_perm_applies_disjoint_cycles(capsys) -> None:
    assert run(capsys, "perm", "(n m)(p q)", "n!m. p!q. 0") == (0, "m!n. q!p. 0\n", "")


# ------------- selftest -------------


def test_selftest_reports_cases_and_checks(capsys) -> None:
    code, out, _ = run(capsys, "selftest", "perm-laws", "50")
    assert code == 0
    assert out == "suite perm-laws: 50 cases, 900 checks, 0 failures\n"


def test_selftest_seed_flag_overrides_the_positional(capsys) -> None:
    _, out1, _ = run(capsys, "selftest", "binder-axioms", "20", "7")
    _, out2, _ = run(capsys, "selftest", "binder-axioms", "20", "--seed", "7")
    assert out1 == out2


def test_selftest_runs_every_registered_suite(capsys) -> None:
    for suite in ("perm-laws", "binder-axioms", "support-lemmas", "lts-lemmas"):
        code, out, _ = run(capsys, "selftest", suite, "20", "3")
        assert code == 0, suite
        assert out.endswith("0 failures\n"), suite


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["selftest", "perm-laws", "-5", "1"], "cases"),
        (["check-deriv", "--witnesses", "-3", "derivs.json"], "--witnesses"),
        (["rename", "--witnesses", "-3", "trace.json", "n1", "m"], "--witnesses"),
    ],
    ids=["selftest-cases", "check-deriv-witnesses", "rename-witnesses"],
)
def test_negative_counts_are_rejected_by_the_argument_parser(capsys, argv, flag) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    bad = next(x for x in argv if x.startswith("-") and x[1:].isdigit())
    assert f"argument {flag}: must be a natural number, got '{bad}'" in capsys.readouterr().err


# ------------- error reporting -------------


def test_syntax_error_exits_1(capsys) -> None:
    code, _, err = run(capsys, "fmt", "new . 0")
    assert code == 1
    assert err == "syntax error: expected an identifier, found '.' (at position 3)\n"


def test_unreadable_file_exits_1(capsys, tmp_path) -> None:
    code, _, err = run(capsys, "check-deriv", str(tmp_path / "missing.json"))
    assert code == 1
    assert err.startswith("syntax error: cannot read")


@pytest.mark.parametrize(
    "argv",
    [["check-deriv", "FILE"], ["trace", "-e", "c", SERVER, "FILE"], ["rename", "FILE", "n1", "m"]],
    ids=["check-deriv", "trace", "rename"],
)
def test_a_file_that_is_not_utf8_exits_1(capsys, tmp_path, argv) -> None:
    bad = tmp_path / "b.json"
    bad.write_bytes(b"\xff")
    code, out, err = run(capsys, *[str(bad) if x == "FILE" else x for x in argv])
    assert (code, out) == (1, "")
    assert err == (f"syntax error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in position 0:"
                   " invalid start byte (at position 0)\n")
