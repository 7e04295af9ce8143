"""Batch command-line front end.

Processes arrive as inline grammar text, actions and traces as JSON
files.  Identifiers are interned to atoms in first-occurrence order
(environment first, then the process, then any action names), so equal
invocations produce byte-identical output.  Exit codes: 1 syntax error,
2 ill-formed configuration, 3 unmatched trace action, 4 rename atoms not
fresh, 5 failed check or failed property suite.  Commands raise; `main` is
the one place where a failure becomes its exit code and one stderr line.
A file of the wrong shape, and input nested past the interpreter's
recursion limit, are syntax errors there.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .atoms import Atom, Permutation, is_natural
from .codec import DecodeError, shown
from .lts import (
    Action,
    BoundOutput,
    CheckError,
    Config,
    Derivation,
    IllFormedConfig,
    Input,
    NoSuchTransition,
    NotFreshAtStart,
    Output,
    Tau,
    Trace,
    check_each,
    rename_trace,
    replay,
    step,
)
from .namesets import NameSet
from .parsing import Naming, ParseError, free_indices, intern, parse, print_term, render_nameset
from .pisyntax import free_names, term_lc
from .props import SUITES, run_suite

Symtab = dict[str, Atom]

_ID = r"[A-Za-z_][A-Za-z_0-9]*"
_ACTION = re.compile(
    rf"^\s*(?:(?P<tau>tau)"
    rf"|\((?P<bn>{_ID})\)(?P<bc>{_ID})!(?P<bm>{_ID})"
    rf"|(?P<ic>{_ID})\?(?P<inm>{_ID})"
    rf"|(?P<oc>{_ID})!(?P<onm>{_ID}))\s*$"
)


def _session(args) -> tuple[Config, Symtab]:
    symtab: Symtab = {}
    fresh, env_atoms = free_indices(symtab), []
    for chunk in args.env or []:
        for ident in chunk.split(","):
            ident = ident.strip()
            if ident:
                env_atoms.append(intern(symtab, ident, fresh=fresh))
    proc, symtab = parse(args.process, symtab)
    return Config(NameSet.finite(env_atoms), proc), symtab


def _parse_action(text: str, symtab: Symtab) -> Action:
    m = _ACTION.match(text)
    if not m:
        raise ParseError(f"not an action: {text!r}", 0)
    if m.group("tau"):
        return Tau()
    if m.group("bn"):
        if m.group("bn") != m.group("bm"):
            raise ParseError(f"bound output must emit its own name: {text!r}", 0)
        return BoundOutput(intern(symtab, m.group("bc")), intern(symtab, m.group("bn")))
    if m.group("ic"):
        return Input(intern(symtab, m.group("ic")), intern(symtab, m.group("inm")))
    return Output(intern(symtab, m.group("oc")), intern(symtab, m.group("onm")))


def _action_str(a: Action, symtab: Symtab) -> str:
    name = Naming(symtab)
    match a:
        case Tau():
            return "tau"
        case Input(c, n):
            return f"{name[c]}?{name[n]}"
        case Output(c, n):
            return f"{name[c]}!{name[n]}"
        case BoundOutput(c, n):
            return f"({name[n]}){name[c]}!{name[n]}"
    raise TypeError(f"not an action: {a!r}")


def _config_str(cfg: Config, symtab: Symtab) -> str:
    return f"<{render_nameset(cfg.env, symtab)}; {print_term(cfg.proc, symtab)}>"


def _json_text(data) -> str:
    # Compact: json.dumps with indent= always takes the pure-Python encoder.
    return json.dumps(data, sort_keys=True)


def _emit_json(data) -> None:
    print(_json_text(data))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError as e:
        raise ParseError(f"{path} is nested too deeply", 0) from e
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}", 0) from e


def _names_json(symtab: Symtab) -> dict[str, int]:
    return {ident: atom.index for ident, atom in symtab.items()}


def _names_from_json(data) -> Symtab:
    """A trace file's names table: identifiers, each naming its own atom."""
    if type(data) is not dict:
        raise DecodeError(f"expected an object, got {shown(data)}").at("names")
    named: dict[int, str] = {}
    for ident, i in data.items():
        if not re.fullmatch(_ID, ident):
            problem = "expected an identifier as the key"
        elif not is_natural(i):
            problem = f"expected an atom index, got {shown(i)}"
        elif i in named:
            problem = f"atom {i} is already named {named[i]}"
        else:
            named[i] = ident
            continue
        raise DecodeError(problem).at(ident).at("names")
    return {ident: Atom(i) for ident, i in data.items()}


# ------------- commands -------------


def cmd_fmt(args) -> int:
    cfg, symtab = _session(args)
    if args.json:
        _emit_json(cfg.proc.to_json())
    else:
        print(print_term(cfg.proc, symtab))
    return 0


def cmd_supp(args) -> int:
    cfg, symtab = _session(args)
    names = free_names(cfg.proc)
    if args.json:
        _emit_json(names.to_json())
    else:
        print(render_nameset(names, symtab))
    return 0


def cmd_lc(args) -> int:
    cfg, _ = _session(args)
    ok = term_lc(cfg.proc)
    if args.json:
        _emit_json({"lc": ok})
    else:
        print("true" if ok else "false")
    return 0


def cmd_step(args) -> int:
    cfg, symtab = _session(args)
    result, table = step(cfg, args.fuel), {}  # one table: what the derivations share is encoded once
    if args.deriv:  # the whole file is encoded before it is opened
        _write_text(args.deriv, _json_text([d.to_json(table) for _, d in result.results]))
    if args.json:
        _emit_json(
            {
                "complete": result.complete,
                "transitions": [t.to_json() for t, _ in result.results],
            }
        )
        return 0
    print(_config_str(cfg, symtab))
    for t, d in result.results:
        print(f"  {_action_str(t.action, symtab)} => {_config_str(t.dst, symtab)} [{d.rule}]")
    if not result.complete:
        print("  (fuel exhausted: some replication branches were cut)")
    return 0


def cmd_trace(args) -> int:
    cfg, symtab = _session(args)
    listed = _load_json(args.actions)
    if not isinstance(listed, list) or not all(isinstance(x, str) for x in listed):
        raise ParseError(f"{args.actions} must hold a JSON list of action strings", 0)
    actions = [_parse_action(x, symtab) for x in listed]
    return _report_trace(args, replay(cfg, actions, args.fuel), symtab)


def cmd_rename(args) -> int:
    data = _load_json(args.file)
    # The names table is the CLI's, beside the trace that the library writes.
    names = data.pop("names", {}) if type(data) is dict else {}
    trace = Trace.from_json(data)
    if not trace.start.env.is_finite():
        raise DecodeError("expected a finite environment").at("env").at("start")
    symtab, reserved = _names_from_json(names), trace.start.support().atoms()
    n = intern(symtab, args.old, reserved)
    m = intern(symtab, args.new, reserved)
    try:
        renamed = rename_trace(trace, n, m, args.witnesses)
    except NotFreshAtStart:
        # report the user's spellings, not the interned atoms
        raise NotFreshAtStart(
            f"{args.old!r} and {args.new!r} must both be fresh for the start configuration"
        ) from None
    return _report_trace(args, renamed, symtab)


def _report_trace(args, trace: Trace, symtab: Symtab) -> int:
    if args.deriv or args.json:
        data = trace.to_json()
        data["names"] = _names_json(symtab)
        if args.deriv:
            _write_text(args.deriv, _json_text(data))
        if args.json:
            _emit_json(data)
            return 0
    print(_config_str(trace.start, symtab))
    for s in trace.steps:
        print(f"  {_action_str(s.action, symtab)} => {_config_str(s.config, symtab)}")
    return 0


def cmd_perm(args) -> int:
    cfg, symtab = _session(args)
    cycles: list[list[int]] = []
    idents: list[str] = []
    rest = args.cycles.strip()
    if rest and not re.fullmatch(r"(\([^()]*\)\s*)+", rest):
        raise ParseError(f"not a cycle list: {args.cycles!r}", 0)
    for group in re.findall(r"\(([^()]*)\)", rest):
        cycle = group.replace(",", " ").split()
        if len(cycle) < 2:
            raise ParseError(f"a cycle needs at least two names: ({group})", 0)
        cycles.append([intern(symtab, i).index for i in cycle])
        idents += cycle
    try:
        p = Permutation.from_cycles(cycles)
    except ValueError:
        twice = next(i for k, i in enumerate(idents) if i in idents[:k])
        raise ParseError(f"{twice} occurs twice in the cycles {args.cycles!r}", 0) from None
    moved = cfg.proc.perm_apply(p)
    if args.json:
        _emit_json(moved.to_json())
    else:
        print(print_term(moved, symtab))
    return 0


def cmd_check_deriv(args) -> int:
    data = _load_json(args.file)
    listed = data if isinstance(data, list) else [data]
    # Every entry is decoded before any is checked, so a malformed file prints
    # no "ok".  One table and one check_each decode and check each
    # sub-derivation the entries repeat once.
    table, derivs = {}, []
    try:
        for entry in listed:
            derivs.append(Derivation.from_json(entry, table))
    except DecodeError as e:
        raise e.at(len(derivs)) if listed is data else e
    for d in check_each(derivs, args.witnesses):
        print(f"ok [{d.rule}] {_action_str(d.conclusion.action, {})}")
    return 0


def cmd_selftest(args) -> int:
    seed = args.seed if args.seed is not None else args.seed_pos
    result = run_suite(args.suite, args.cases, seed)
    print(
        f"suite {result.name}: {result.cases} cases, "
        f"{result.checks} checks, {len(result.failures)} failures"
    )
    for line in result.failures:
        print(f"  FAIL {line}")
    return 5 if result.failures else 0


# ------------- wiring -------------


def _natural(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {text!r}")
    return n


def _add_process_args(sp) -> None:
    sp.add_argument("process", help="process text in the concrete grammar")
    sp.add_argument(
        "-e",
        "--env",
        action="append",
        metavar="IDS",
        help="observer-known channel names (comma separated, repeatable)",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lnpi",
        description="Locally nameless pi-calculus: print, step, trace, check.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fmt", help="parse a process and print its canonical form")
    _add_process_args(sp)
    sp.set_defaults(fn=cmd_fmt)

    sp = sub.add_parser("supp", help="free names of a process")
    _add_process_args(sp)
    sp.set_defaults(fn=cmd_supp)

    sp = sub.add_parser("lc", help="is the process locally closed?")
    _add_process_args(sp)
    sp.set_defaults(fn=cmd_lc)

    sp = sub.add_parser("step", help="enumerate one-step transitions")
    _add_process_args(sp)
    sp.add_argument("--fuel", type=_natural, default=8, help="replication unfolding budget")
    sp.add_argument("--deriv", metavar="FILE", help="write derivations as JSON")
    sp.set_defaults(fn=cmd_step)

    sp = sub.add_parser("trace", help="replay a list of actions from a start process")
    _add_process_args(sp)
    sp.add_argument("actions", help="JSON file: list of action strings")
    sp.add_argument("--fuel", type=_natural, default=8, help="replication unfolding budget")
    sp.add_argument("--deriv", metavar="FILE", help="write the checked trace as JSON")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("rename", help="swap two start-fresh names through a trace")
    sp.add_argument("file", metavar="trace", help="trace JSON written by the trace command")
    sp.add_argument("old", help="name to rename (must be fresh for the start)")
    sp.add_argument("new", help="replacement name (must be fresh for the start)")
    sp.add_argument("--witnesses", type=_natural, default=2, help="extra fresh witnesses per re-check")
    sp.add_argument("--deriv", metavar="FILE", help="write the renamed trace as JSON")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(fn=cmd_rename, decodes="trace file")

    sp = sub.add_parser("perm", help="apply a permutation, written as cycles, to a process")
    sp.add_argument("cycles", help='cycle notation, e.g. "(n m)(p q)"')
    _add_process_args(sp)
    sp.set_defaults(fn=cmd_perm)

    sp = sub.add_parser("check-deriv", help="validate a derivation file")
    sp.add_argument("file", help="derivation JSON (one object or a list)")
    sp.add_argument("--witnesses", type=_natural, default=2, help="extra fresh witnesses per cofinite node")
    sp.set_defaults(fn=cmd_check_deriv, decodes="derivation file")

    sp = sub.add_parser("selftest", help="run a built-in property suite")
    sp.add_argument("suite", choices=sorted(SUITES), help="which suite to run")
    sp.add_argument("cases", type=_natural, nargs="?", default=200, help="random cases (default 200)")
    sp.add_argument("seed_pos", type=int, nargs="?", default=0, metavar="seed", help="RNG seed")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (overrides the positional)")
    sp.set_defaults(fn=cmd_selftest)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except DecodeError as e:  # only the commands that set `decodes` decode a file
            raise ParseError(f"{args.file} is not a {args.decodes}: {e}", 0) from e
        except RecursionError as e:  # a walk that still takes a frame per level met the limit
            where = args.file if "decodes" in args else "the process"
            stepping = f" to step at fuel {args.fuel}" if "fuel" in args else ""
            raise ParseError(f"{where} is nested too deeply{stepping}", 0) from e
    except ParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return 1
    except IllFormedConfig as e:
        print(f"ill-formed configuration: {e}", file=sys.stderr)
        return 2
    except NoSuchTransition as e:
        print(f"no transition: {e}", file=sys.stderr)
        return 3
    except NotFreshAtStart as e:
        print(f"not fresh at start: {e}", file=sys.stderr)
        return 4
    except CheckError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
