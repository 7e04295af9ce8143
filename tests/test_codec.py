"""The JSON codec derived from the records' declarations (lnpi.codec)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnpi import codec, lts, props
from lnpi.atoms import Atom, is_natural
from lnpi.cli import main
from lnpi.codec import DecodeError
from lnpi.gen import rand_term
from lnpi.lts import (
    Action,
    BoundOutput,
    CheckError,
    Cofinite,
    Config,
    Derivation,
    Input,
    Output,
    Tau,
    Trace,
    TraceStep,
    Transition,
    rename_trace,
    replay,
    step,
)
from lnpi.namesets import MAX_JSON_MODULUS, NameSet
from lnpi.parsing import parse
from lnpi.permtypes import IndexedFamily
from lnpi.pisyntax import (
    Bound,
    Free,
    Inp,
    Nil,
    Out,
    Par,
    Rep,
    Res,
    Sum,
    Name,
    Term,
)

# ------------- the hand-written codecs the derived one replaced -------------

# Kept as the reference: on every value lnpi writes, the derived codec must
# encode and decode as these did, and sort in the order their keys gave.


def ref_name_to_json(n):
    return {"free": n.atom.index} if isinstance(n, Free) else {"bound": n.level}


def ref_name_from_json(data: dict):
    if isinstance(data, dict) and len(data) == 1:
        (kind, value), = data.items()
        if is_natural(value):
            if kind == "free":
                return Free(Atom(value))
            if kind == "bound":
                return Bound(value)
    raise ValueError(f"not a name: {data!r}")


def ref_term_to_json(t: Term) -> dict:
    match t:
        case Nil():
            return {"tag": "nil"}
        case Sum(f):
            return {
                "tag": "sum",
                "entries": [ref_term_to_json(e) for e in f.entries],
                "default": ref_term_to_json(f.default),
            }
        case Inp(c, b):
            return {"tag": "inp", "chan": ref_name_to_json(c), "body": ref_term_to_json(b)}
        case Out(c, m, k):
            return {"tag": "out", "chan": ref_name_to_json(c), "msg": ref_name_to_json(m),
                    "cont": ref_term_to_json(k)}
        case Par(l, r):
            return {"tag": "par", "left": ref_term_to_json(l), "right": ref_term_to_json(r)}
        case Res(b):
            return {"tag": "res", "body": ref_term_to_json(b)}
        case Rep(b):
            return {"tag": "rep", "body": ref_term_to_json(b)}
    raise TypeError(f"not a term: {t!r}")


def ref_term_from_json(data: dict) -> Term:
    match data["tag"]:
        case "nil":
            return Nil()
        case "sum":
            return Sum(IndexedFamily(tuple(ref_term_from_json(e) for e in data["entries"]),
                                     ref_term_from_json(data["default"])))
        case "inp":
            return Inp(ref_name_from_json(data["chan"]), ref_term_from_json(data["body"]))
        case "out":
            return Out(ref_name_from_json(data["chan"]), ref_name_from_json(data["msg"]),
                       ref_term_from_json(data["cont"]))
        case "par":
            return Par(ref_term_from_json(data["left"]), ref_term_from_json(data["right"]))
        case "res":
            return Res(ref_term_from_json(data["body"]))
        case "rep":
            return Rep(ref_term_from_json(data["body"]))
    raise ValueError(f"unknown term tag: {data['tag']!r}")


def ref_name_key(n):
    return ("free", n.atom.index) if isinstance(n, Free) else ("bound", n.level)


def ref_term_key(t: Term):
    match t:
        case Nil():
            return ("nil",)
        case Sum(f):
            return ("sum", tuple(ref_term_key(e) for e in f.entries), ref_term_key(f.default))
        case Inp(c, b):
            return ("inp", ref_name_key(c), ref_term_key(b))
        case Out(c, m, k):
            return ("out", ref_name_key(c), ref_name_key(m), ref_term_key(k))
        case Par(l, r):
            return ("par", ref_term_key(l), ref_term_key(r))
        case Res(b):
            return ("res", ref_term_key(b))
        case Rep(b):
            return ("rep", ref_term_key(b))
    raise TypeError(f"not a term: {t!r}")


def ref_nameset_from_json(data: dict) -> NameSet:
    mod = data.get("mod", 1)
    if not (is_natural(mod) and 1 <= mod <= MAX_JSON_MODULUS):
        raise ValueError(f"mod must be an integer in 1..{MAX_JSON_MODULUS}, got {mod!r}")
    res, add, remove = (list(data.get(key, [])) for key in ("res", "add", "remove"))
    if not all(map(is_natural, res + add + remove)):
        raise ValueError("residues and atom indices must be natural numbers")
    exc = [(a, True) for a in add] + [(a, False) for a in remove]
    return NameSet.of(mod, frozenset(res), tuple(exc))


def ref_atom_from_json(x) -> Atom:
    if not is_natural(x):
        raise ValueError(f"an atom index must be a natural number, got {x!r}")
    return Atom(x)


def ref_action_to_json(a: Action) -> dict:
    if isinstance(a, Tau):
        return {"tag": a.tag}
    return {"tag": a.tag, "c": a.chan.index, "n": a.name.index}


def ref_action_key(a: Action):
    data = ref_action_to_json(a)
    return (data["tag"], data.get("c", -1), data.get("n", -1))


def ref_action_from_json(data: dict) -> Action:
    for cls in (Tau, Input, Output, BoundOutput):
        if cls.tag == data["tag"]:
            return cls() if cls is Tau else cls(ref_atom_from_json(data["c"]), ref_atom_from_json(data["n"]))
    raise ValueError(f"unknown action tag: {data['tag']!r}")


def ref_config_to_json(c: Config) -> dict:
    return {"env": c.env.to_json(), "proc": ref_term_to_json(c.proc)}


def ref_config_from_json(data: dict) -> Config:
    return Config(ref_nameset_from_json(data["env"]), ref_term_from_json(data["proc"]))


def ref_config_key(c: Config):
    s = c.env
    return ((s.modulus, tuple(sorted(s.residues)), s.exceptions), ref_term_key(c.proc))


def ref_transition_to_json(t: Transition) -> dict:
    return {"src": ref_config_to_json(t.src), "action": ref_action_to_json(t.action),
            "dst": ref_config_to_json(t.dst)}


def ref_transition_from_json(data: dict) -> Transition:
    return Transition(ref_config_from_json(data["src"]), ref_action_from_json(data["action"]),
                      ref_config_from_json(data["dst"]))


def ref_derivation_to_json(d: Derivation) -> dict:
    side = d.side
    if isinstance(side, Atom):
        side = {"atom": side.index}
    return {
        "rule": d.rule,
        "conclusion": ref_transition_to_json(d.conclusion),
        "premises": [ref_derivation_to_json(q) for q in d.premises],
        "cofinite": (
            {"L": d.cofinite.avoid.to_json(), "witness": d.cofinite.witness.index}
            if d.cofinite
            else None
        ),
        "side": side,
    }


def ref_derivation_from_json(data: dict) -> Derivation:
    cof = data.get("cofinite")
    side = data.get("side")
    if isinstance(side, dict):
        side = ref_atom_from_json(side["atom"])
    elif not (side is None or is_natural(side)):
        raise ValueError(f"side must be null, an entry index or an atom, got {side!r}")
    return Derivation(
        data["rule"],
        ref_transition_from_json(data["conclusion"]),
        tuple(ref_derivation_from_json(q) for q in data["premises"]),
        Cofinite(ref_nameset_from_json(cof["L"]), ref_atom_from_json(cof["witness"])) if cof else None,
        side,
    )


def ref_trace_to_json(t: Trace) -> dict:
    return {
        "start": ref_config_to_json(t.start),
        "steps": [
            {"action": ref_action_to_json(s.action), "config": ref_config_to_json(s.config),
             "deriv": ref_derivation_to_json(s.deriv)}
            for s in t.steps
        ],
    }


def ref_trace_from_json(data: dict) -> Trace:
    return Trace(
        ref_config_from_json(data["start"]),
        tuple(
            TraceStep(ref_action_from_json(s["action"]), ref_config_from_json(s["config"]),
                      ref_derivation_from_json(s["deriv"]))
            for s in data["steps"]
        ),
    )


# ------------- the corpus: the lts-lemmas suite and ROADMAP's process -------------


def parsed_config(env: str, text: str) -> Config:
    symtab = {ident: Atom(i) for i, ident in enumerate(env.split())}
    proc, _ = parse(text, dict(symtab))
    return Config(NameSet.finite(symtab.values()), proc)


ROADMAP_PROCESS = parsed_config("c", "*(new n. c!n.0) | *(c?(x). x!x.0)")
SERVER = "*( new n. c?(x). x!n. 0 )"


def corpus_steps(monkeypatch) -> list:
    """The step results of every (configuration, fuel) the lts-lemmas suite
    steps at one seed, and of ROADMAP's process at fuel 1 to 8."""
    seen = []

    def recording_step(cfg, fuel=8):
        seen.append((cfg, fuel))
        return step(cfg, fuel)

    with monkeypatch.context() as m:
        m.setattr(props, "step", recording_step)
        assert props.lts_lemmas(25, 42).ok
    seen += [(ROADMAP_PROCESS, fuel) for fuel in range(1, 9)]
    return [(cfg, fuel, step(cfg, fuel)) for cfg, fuel in seen]


def corpus_traces(steps) -> list[Trace]:
    """A replay of each configuration's last transition, and of the one after
    it where the replay's destination can step."""
    out = []
    for cfg, fuel, result in steps:
        if result.results:
            tr = replay(cfg, [result.results[-1][0].action], fuel)
            after = step(tr.steps[0].config, fuel).results
            out += [tr] + [replay(cfg, [tr.steps[0].action, t.action], fuel) for t, _ in after[:1]]
    return out


def test_derived_codec_matches_the_hand_written_one(monkeypatch) -> None:
    steps = corpus_steps(monkeypatch)
    derivs = [d for _, _, r in steps for _, d in r.results]
    assert len(derivs) > 400
    nodes, rules = list(derivs), set()
    while nodes:
        d = nodes.pop()
        rules.add(d.rule)
        nodes += d.premises
    assert {"Res", "Open", "Close-L", "Close-R", "Sum", "Comm-R"} <= rules
    for d in derivs:
        data = ref_derivation_to_json(d)
        assert d.to_json() == data
        assert Derivation.from_json(data) == ref_derivation_from_json(data) == d
        t = d.conclusion
        assert t.to_json() == ref_transition_to_json(t)
        assert Transition.from_json(ref_transition_to_json(t)) == t
        for cfg in (t.src, t.dst):
            assert cfg.to_json() == ref_config_to_json(cfg)
            assert Config.from_json(ref_config_to_json(cfg)) == cfg
            assert Term.from_json(ref_term_to_json(cfg.proc)) == cfg.proc
        assert Action.from_json(ref_action_to_json(t.action)) == t.action
    traces = corpus_traces(steps)
    assert len(traces) > 50
    for tr in traces:
        data = ref_trace_to_json(tr)
        assert tr.to_json() == data
        assert Trace.from_json(data) == ref_trace_from_json(data) == tr


def test_derived_sort_keys_order_as_the_hand_written_ones(monkeypatch) -> None:
    steps = corpus_steps(monkeypatch)
    for _, _, result in steps:
        ts = [t for t, _ in result.results]
        ref = sorted(ts, key=lambda t: (ref_action_key(t.action), ref_config_key(t.dst)))
        assert sorted(ts, key=lambda t: t.key()) == ref
    rng = random.Random(83)
    terms = [rand_term(rng) for _ in range(300)]
    for s, t in zip(terms, terms[1:] + terms[:1]):
        assert (Term.key(s) < Term.key(t)) == (ref_term_key(s) < ref_term_key(t))
        assert (Term.key(s) == Term.key(t)) == (s == t)
    actions = [Tau(), Input(Atom(0), Atom(1)), Input(Atom(1), Atom(0)), Output(Atom(0), Atom(0)),
               BoundOutput(Atom(0), Atom(2))]
    assert sorted(actions, key=Action.key) == sorted(actions, key=ref_action_key)


def test_a_record_holding_a_union_has_no_sort_key() -> None:
    # Derivation's cofinite and side fields are unions, which are not ordered.
    t, n = parse("new c. n!c. 0")[0], Atom(0)
    d = step(Config(NameSet.finite([n]), t), 1).results[0][1]
    for x in (d, TraceStep(d.conclusion.action, d.conclusion.dst, d)):
        with pytest.raises(TypeError, match="^Derivation has no sort key: its field cofinite is a union$"):
            x.key()


# ------------- round trips -------------

atoms = st.integers(0, 80).map(Atom)
names = st.one_of(atoms.map(Free), st.integers(0, 4).map(Bound))
namesets = st.builds(
    NameSet.of,
    st.integers(1, MAX_JSON_MODULUS),
    st.frozensets(st.integers(0, MAX_JSON_MODULUS - 1), max_size=4),
    st.lists(st.tuples(st.integers(0, 90), st.booleans()), max_size=4).map(tuple),
)


def families(sub):
    # Trailing entries equal to the default collapse into it.
    return st.builds(lambda es, d, k: Sum(IndexedFamily(tuple(es) + (d,) * k, d)),
                     st.lists(sub, max_size=3), sub, st.integers(0, 2))


terms = st.recursive(
    st.just(Nil()),
    lambda sub: st.one_of(
        st.builds(Inp, names, sub), st.builds(Out, names, names, sub), st.builds(Par, sub, sub),
        st.builds(Res, sub), st.builds(Rep, sub), families(sub),
    ),
    max_leaves=10,
)
actions = st.one_of(st.just(Tau()), *(st.builds(c, atoms, atoms) for c in (Input, Output, BoundOutput)))
configs = st.builds(Config, namesets, terms)
transitions = st.builds(Transition, configs, actions, configs)
derivations = st.recursive(
    st.builds(Derivation, st.text(max_size=6), transitions),
    lambda sub: st.builds(
        Derivation, st.sampled_from(["Res", "Open", "Sum", "x"]), transitions,
        st.lists(sub, max_size=2).map(tuple),
        st.none() | st.builds(Cofinite, namesets, atoms),
        st.none() | st.integers(0, 5) | atoms,
    ),
    max_leaves=4,
)
traces = st.builds(Trace, configs, st.lists(st.builds(TraceStep, actions, configs, derivations),
                                            max_size=2).map(tuple))


def through_text(v):
    return json.loads(json.dumps(v.to_json(), sort_keys=True))


@settings(max_examples=150, deadline=None)
@given(terms)
def test_terms_round_trip(t) -> None:
    assert Term.from_json(through_text(t)) == t


@settings(max_examples=60, deadline=None)
@given(st.one_of(configs, transitions, derivations, traces))
def test_records_round_trip(v) -> None:
    assert type(v).from_json(through_text(v)) == v


# ------------- malformed files exit 1 -------------


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_files(capsys, tmp_path) -> dict:
    """The files the README's step --deriv and trace --deriv examples write,
    with the command that reads each."""
    deriv, traced = tmp_path / "out.json", tmp_path / "tr.json"
    run(capsys, "step", "-e", "n", "new c. n!c. 0", "--deriv", str(deriv))
    acts = tmp_path / "acts.json"
    acts.write_text('["c?y1", "(n1)y1!n1"]')
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, str(acts), "--deriv", str(traced))
    return {deriv: ["check-deriv"], traced: ["rename", "n1", "m"]}


def json_objects(value, path=()):
    """Every JSON object in value, with the path of keys and indices to it."""
    if type(value) is dict:
        yield path, value
        for k, x in value.items():
            yield from json_objects(x, path + (k,))
    elif type(value) is list:
        for i, x in enumerate(value):
            yield from json_objects(x, path + (i,))


RETYPED = [[], {}, 0, "x", None]


def well_formed_still(path, key, value) -> bool:
    """Mutants that keep the file's shape: the optional names table gone or
    empty, a side that is null or an entry index, a cofinite record that is null."""
    if path == () and key == "names":
        return value in ("dropped", {})
    return (key == "side" and (value is None or value == 0)) or (key == "cofinite" and value is None)


def mutants(data):
    for path, obj in json_objects(data):
        if path == ("names",):
            continue  # its keys are identifiers: dropping or renaming one keeps the file well formed
        for key, old in obj.items():
            for how, value in [("dropped", "dropped"), ("renamed", "renamed")] + [
                ("retyped", v) for v in RETYPED if type(v) is not type(old)
            ]:
                if well_formed_still(path, key, value):
                    continue
                out = json.loads(json.dumps(data))
                target = out
                for step_ in path:
                    target = target[step_]
                if how == "retyped":
                    target[key] = value
                else:
                    moved = target.pop(key)
                    if how == "renamed":
                        target["zz_" + key] = moved
                yield f"{how} {'/'.join(map(str, path + (key,)))} {value!r}", out


def test_every_mutant_of_the_readme_files_exits_1(capsys, tmp_path) -> None:
    mutant = tmp_path / "mutant.json"
    count = 0
    for path, command in readme_files(capsys, tmp_path).items():
        assert run(capsys, command[0], str(path), *command[1:])[0] == 0
        for what, data in mutants(json.loads(path.read_text())):
            mutant.write_text(json.dumps(data))
            code, _, err = run(capsys, command[0], str(mutant), *command[1:])
            assert (code, err.startswith("syntax error: ")) == (1, True), (path.name, what, err)
            count += 1
    assert count > 1000


def open_file(capsys, tmp_path):
    deriv = tmp_path / "out.json"
    run(capsys, "step", "-e", "n", "new c. n!c. 0", "--deriv", str(deriv))
    data = json.loads(deriv.read_text())
    assert [d["rule"] for d in data] == ["Open"] and data[0]["premises"][0]["rule"] == "Out"
    return deriv, data


def unknown_key(d):
    d["extra"] = 1


def no_side(d):
    del d["premises"][0]["side"]


def env_without_mod(d):
    del d["conclusion"]["src"]["env"]["mod"]


def rule_in_a_list(d):
    d["rule"] = ["Open"]


def premises_object(d):
    d["premises"] = {}


def tau_with_a_channel(d):
    d["premises"][0]["conclusion"]["action"] = {"tag": "tau", "c": 1}


def nil_with_a_body(d):
    d["conclusion"]["src"]["proc"]["body"]["cont"] = {"tag": "nil", "body": {"tag": "nil"}}


DERIVATION_KEYS = '["cofinite", "conclusion", "premises", "rule", "side"]'
MALFORMED = [
    (unknown_key, f"at /0: expected the keys {DERIVATION_KEYS},"
                  ' got ["cofinite", "conclusion", "extra", "premises", "rule", "side"]'),
    (no_side, f"at /0/premises/0: expected the keys {DERIVATION_KEYS},"
              ' got ["cofinite", "conclusion", "premises", "rule"]'),
    (env_without_mod, 'at /0/conclusion/src/env: expected the keys ["add", "mod", "remove", "res"],'
                      ' got ["add", "remove", "res"]'),
    (rule_in_a_list, "at /0/rule: expected a string, got an array"),
    (premises_object, "at /0/premises: expected an array, got an object"),
    (tau_with_a_channel, 'at /0/premises/0/conclusion/action: expected the keys ["tag"], got ["c", "tag"]'),
    (nil_with_a_body, 'at /0/conclusion/src/proc/body/cont: expected the keys ["tag"], got ["body", "tag"]'),
]


@pytest.mark.parametrize("corrupt, message", MALFORMED, ids=[corrupt.__name__ for corrupt, _ in MALFORMED])
def test_check_deriv_rejects_a_malformed_shape(capsys, tmp_path, corrupt, message) -> None:
    # Each read as well formed before the codec checked shapes: exit 0 or 5.
    deriv, data = open_file(capsys, tmp_path)
    corrupt(data[0])
    deriv.write_text(json.dumps(data))
    code, out, err = run(capsys, "check-deriv", str(deriv))
    assert (code, out, err) == (1, "", f"syntax error: {deriv} is not a derivation file: {message} (at position 0)\n")


@pytest.mark.parametrize(
    "path, data, message",
    [
        ((), [], "at /: expected an object, got an array"),
        (("conclusion", "action"), {"tag": "zap"}, "at /conclusion/action: no Action has the tag \"zap\""),
        (("conclusion", "src", "proc", "body", "msg"), {"free": 1, "bound": 0},
         'at /conclusion/src/proc/body/msg: no Name has the keys ["bound", "free"]'),
        (("premises", 0, "conclusion", "dst", "env", "mod"), 65,
         "at /premises/0/conclusion/dst/env/mod: expected a modulus in 1..64, got 65"),
        (("side", "atom"), -1, "at /side/atom: expected an atom index, got -1"),
        (("premises", 0, "rule"), None, "at /premises/0/rule: expected a string, got null"),
    ],
)
def test_decode_errors_name_the_json_path(capsys, tmp_path, path, data, message) -> None:
    _, entries = open_file(capsys, tmp_path)
    d = entries[0]
    if path:
        slot = d
        for step_ in path[:-1]:
            slot = slot[step_]
        slot[path[-1]] = data
    else:
        d = data
    with pytest.raises(DecodeError) as err:
        Derivation.from_json(d)
    assert str(err.value) == message


def test_name_decoding_names_the_key_set() -> None:
    with pytest.raises(DecodeError, match="no Name has the keys"):
        Name.from_json({"atom": 1})


# ------------- trace files: the names table and the chain of steps -------------


def trace_file(capsys, tmp_path):
    traced = tmp_path / "tr.json"
    acts = tmp_path / "acts.json"
    acts.write_text('["c?y1", "(n1)y1!n1"]')
    run(capsys, "trace", "-e", "c", "--fuel", "2", SERVER, str(acts), "--deriv", str(traced))
    data = json.loads(traced.read_text())
    assert data["names"] == {"c": 0, "y1": 1, "n1": 2}
    return traced, data


NOT_AN_IDENTIFIER = "expected an identifier as the key"


@pytest.mark.parametrize(
    "names, message",
    [({"c": 0, "y1": 0, "n1": 2}, "/y1: atom 0 is already named c"),
     ({"c": 0, "y1": 1, "n1": 1}, "/n1: atom 1 is already named y1"),
     ({"c": 0, "x y": 1, "n1": 2}, f"/x y: {NOT_AN_IDENTIFIER}"),
     ({"c": 0, "y1": 1, "2n": 2}, f"/2n: {NOT_AN_IDENTIFIER}"),
     # A key is one step of the path, escaped as JSON Pointer escapes it (RFC 6901).
     ({"c": 0, "a/b": 1, "n1": 2}, f"/a~1b: {NOT_AN_IDENTIFIER}"),
     ({"c": 0, "a~1": 1, "n1": 2}, f"/a~01: {NOT_AN_IDENTIFIER}"), ([], ": expected an object, got an array")],
    ids=["shared-atom", "shared-atom-later", "space", "leading-digit", "slash", "tilde", "list"],
)
def test_rename_rejects_a_bad_names_table(capsys, tmp_path, names, message) -> None:
    traced, data = trace_file(capsys, tmp_path)
    data["names"] = names
    traced.write_text(json.dumps(data))
    code, out, err = run(capsys, "rename", str(traced), "n1", "m")
    assert (code, out, err) == (1, "", f"syntax error: {traced} is not a trace file: at /names{message} (at position 0)\n")


def action_replaced(data):
    data["steps"][0]["action"] = {"tag": "out", "c": 0, "n": 0}


def config_is_the_start(data):
    data["steps"][0]["config"] = data["start"]


def steps_reversed(data):
    data["steps"].reverse()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (action_replaced, "step 0: the derivation's action is not the trace's"),
        (config_is_the_start, "step 0: the derivation's destination is not the trace's"),
        (steps_reversed, "step 0: the derivation's source is not the trace's"),
    ],
)
def test_rename_rejects_a_trace_whose_steps_do_not_chain(capsys, tmp_path, corrupt, message) -> None:
    traced, data = trace_file(capsys, tmp_path)
    corrupt(data)
    traced.write_text(json.dumps(data))
    code, out, err = run(capsys, "rename", str(traced), "n1", "m")
    assert (code, out, err) == (5, "", f"check failed: TraceMismatch at root: {message}\n")


def test_rename_trace_checks_the_chain_before_renaming() -> None:
    start = parsed_config("c", SERVER)
    tr = replay(start, [Input(Atom(0), Atom(1))], 2)
    (s,) = tr.steps
    cut = Trace(start, (TraceStep(s.action, start, s.deriv),))
    for n, m in ((Atom(5), Atom(6)), (Atom(5), Atom(5))):
        with pytest.raises(CheckError) as err:
            rename_trace(cut, n, m)
        assert (err.value.reason, err.value.path) == ("TraceMismatch", ())
    assert rename_trace(tr, Atom(5), Atom(6)).steps[0].config == s.config


# ------------- sharing within one call -------------


class NeverStores(dict):
    """A sharing table that forgets everything: every record is built and encoded anew."""

    def __setitem__(self, key, value) -> None:
        pass


def fuel_6_file(capsys, tmp_path):
    path = tmp_path / "r6.json"
    run(capsys, "step", "-e", "c", "--fuel", "6", "*(new n. c!n.0) | *(c?(x). x!x.0)", "--deriv", str(path))
    return path


def occurrences(derivs) -> list:
    """Every node of derivs, a shared one once per place it occurs."""
    out, todo = [], list(derivs)
    while todo:
        d = todo.pop()
        out.append(d)
        todo += d.premises
    return out


def test_shared_decoding_builds_each_distinct_node_once(capsys, tmp_path) -> None:
    data = json.loads(fuel_6_file(capsys, tmp_path).read_text())
    table: dict = {}
    derivs = [Derivation.from_json(e, table) for e in data]
    plain = [codec._kind(Derivation).dec(e, NeverStores()) for e in data]
    assert derivs == plain
    # ROADMAP: the fuel-6 file holds 816 derivation nodes, 107 of them distinct.
    nodes = occurrences(derivs)
    assert len(nodes) == len(occurrences(plain)) == 816
    assert len({id(d) for d in occurrences(plain)}) == 816
    ids_by_value: dict = {}
    for d in nodes:
        ids_by_value.setdefault(json.dumps(d.to_json(NeverStores()), sort_keys=True), set()).add(id(d))
    assert len(ids_by_value) == 107
    assert all(len(ids) == 1 for ids in ids_by_value.values())
    # Below the nodes too: equal configurations and tuples are one object.
    configs = [c for d in nodes for c in (d.conclusion.src, d.conclusion.dst)]
    assert len({id(c) for c in configs}) == len({json.dumps(c.to_json(), sort_keys=True) for c in configs})
    empty = [d.premises for d in nodes if not d.premises]
    assert empty and all(p is empty[0] for p in empty)


def test_a_table_shares_across_calls_and_each_call_has_its_own_by_default(capsys, tmp_path) -> None:
    entry = json.loads(fuel_6_file(capsys, tmp_path).read_text())[0]
    first, second = Derivation.from_json(entry), Derivation.from_json(entry)
    assert first == second and first is not second
    table: dict = {}
    assert Derivation.from_json(entry, table) is Derivation.from_json(entry, table)


def test_shared_decoding_keeps_leaf_ints_apart_from_identities() -> None:
    # Bound(i) is keyed by the value i and Free(a) by the atom, so no
    # identity of a shared child can stand in for either.
    table: dict = {}
    names = [Name.from_json(x, table) for x in ({"bound": 0}, {"free": 0}, {"bound": 0}, {"bound": 1})]
    assert names == [Bound(0), Free(Atom(0)), Bound(0), Bound(1)]
    assert names[0] is names[2] and names[3] is not names[0]
    terms = [Term.from_json(x) for x in ({"tag": "rep", "body": {"tag": "nil"}}, {"tag": "res", "body": {"tag": "nil"}})]
    assert terms == [Rep(Nil()), Res(Nil())]


def test_shared_encoding_writes_the_plain_json(capsys, tmp_path) -> None:
    path = fuel_6_file(capsys, tmp_path)
    data = json.loads(path.read_text())
    decoding: dict = {}
    derivs = [Derivation.from_json(e, decoding) for e in data]
    encoding: dict = {}
    encoded = [d.to_json(encoding) for d in derivs]
    plain = [d.to_json(NeverStores()) for d in derivs]
    assert encoded == plain == data
    assert path.read_text() == json.dumps(plain, sort_keys=True)
    dicts, todo = [], list(encoded)
    while todo:
        x = todo.pop()
        if type(x) is dict:
            dicts.append(x)
            todo += x.values()
        elif type(x) is list:
            todo += x
    assert len({id(x) for x in dicts}) < len(dicts) / 4  # each distinct record encoded once


def test_no_sharing_table_outlives_its_call(capsys, tmp_path) -> None:
    path = fuel_6_file(capsys, tmp_path)
    data = json.loads(path.read_text())
    derivs = [Derivation.from_json(e) for e in data]
    run(capsys, "check-deriv", str(path))

    def module_state():
        return {(mod.__name__, name): len(value) for mod in (codec, lts) for name, value in vars(mod).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")}

    before = module_state()
    table: dict = {}
    Derivation.from_json(data[0], table)
    with pytest.raises(DecodeError):
        Derivation.from_json({"rule": 1}, table)
    checking = lts.check_each(derivs, 2)
    assert list(checking) == derivs and checking.gi_frame is None  # its tables went with its frame
    traced, _ = trace_file(capsys, tmp_path)
    assert run(capsys, "rename", str(traced), "n1", "m")[0] == 0
    assert run(capsys, "check-deriv", str(path))[0] == 0
    assert run(capsys, "step", "-e", "c", "--fuel", "3", SERVER, "--deriv", str(path))[0] == 0
    assert module_state() == before
