"""Environmental labelled transition system with explicit derivations.

Configurations pair a process with the finite set of channels the
observer knows.  The enumerator returns every transition derivable under
a finite policy (inputs range over the environment plus one canonical
fresh representative; restriction, extrusion and close witnesses are
picked least-fresh) together with a derivation tree that an independent
checker validates node by node.  Cofinite premises are recorded as an
avoid set plus the witness they were derived at; the checker re-derives
them at extra fresh witnesses as equivariance evidence.

The checker is one walk with an explicit stack, so a derivation's depth
costs it no frames of its own (the term traversals still recurse).
``_check`` validates a single node: guards driven by a table of each
rule's premise count and whether it takes side data or a cofinite record,
then the rule's case, which compares the node with its premises'
conclusions.  ``check`` visits a node, then its premises.  A cofinite
node is checked again at each extra fresh witness, with the same
conclusion over its premises' conclusions swapped to that witness; a
failure there is reported at the node.  Every test in ``_check`` is
equivariant, so the swapped premise subtrees pass as the originals do
and are not walked.

The enumerator ``_derivs`` is a pure function of (environment, process,
fuel, avoid set), and replication makes it meet the same arguments many
times over.  It therefore looks each argument tuple up in a memo table,
a plain dict passed down explicitly that ``step`` creates per call.
``replay`` steps through ``step`` and so takes a new table per step: each
visible action widens the environment, which is part of every key, so a
later step would find little of an earlier one's table.

Derivations share sub-derivations: the memo hands one premise to many
parents, and a file decoded through one table shares what it repeats (see
``lnpi.codec``).  Every record is a ``PermValue``, so the walks of
``lnpi.permtypes`` move and support a derivation, visiting each distinct
part once; a caller that moves several keeps one ``apply`` table per
permutation, so a shared premise is moved once and its copy is shared.
Weakening walks each distinct node once too.  The checker skips a (node,
extra witnesses) that passed before, with its subtree: ``check`` keeps that
table for one derivation, ``check_each`` for all those it checks.  Every
table lives for one call, is keyed by identity and holds what it keys, so
importing the module keeps no cache state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby

from .atoms import Atom, Permutation, is_natural, swap
from .codec import Record
from .namesets import NameSet, fresh, union_all
from .permtypes import PermValue, apply, is_fresh
from .pisyntax import (
    Bound,
    Free,
    Inp,
    Nil,
    Out,
    Par,
    Rep,
    Res,
    Sum,
    Term,
    free_atoms,
    free_names,
    term_atom_list,
    term_size,
)


class IllFormedConfig(Exception):
    """Environment not finite, or process not locally closed."""


class ExtrusionClash(Exception):
    """Weakening would add the extruded name to the environment."""


class InternalWitnessClash(Exception):
    """Re-derivation after weakening failed; signals an enumerator bug."""


class NotFreshAtStart(Exception):
    """Trace renaming requires both atoms fresh for the start configuration."""


class NoSuchTransition(Exception):
    def __init__(self, index: int, action):
        super().__init__(f"no enumerated transition matches {action!r} at step {index}")
        self.index = index


class CheckError(Exception):
    # Not a frozen dataclass: re-raising sets __traceback__, which that refuses.
    def __init__(self, reason: str, path: tuple[int, ...], message: str) -> None:
        super().__init__(reason, path, message)
        self.reason = reason  # WitnessInL | FreshnessViolated | EnvMismatch | RuleShape | TraceMismatch
        self.path = path  # premise indices from the root
        self.message = message

    def __eq__(self, other):
        return self.args == other.args if type(other) is CheckError else NotImplemented

    def __hash__(self) -> int:
        return hash(self.args)

    def __str__(self) -> str:
        where = "/".join(map(str, self.path)) or "root"
        return f"{self.reason} at {where}: {self.message}"


# ------------- actions -------------


class Action(PermValue, Record):
    tag: str  # the JSON tag, one per subclass; all but Tau carry a channel and a name
    json_keys = {"chan": "c", "name": "n"}


@dataclass(frozen=True)
class Tau(Action):
    tag = "tau"


@dataclass(frozen=True)
class Input(Action):
    tag = "in"
    chan: Atom
    name: Atom


@dataclass(frozen=True)
class Output(Action):
    tag = "out"
    chan: Atom
    name: Atom


@dataclass(frozen=True)
class BoundOutput(Action):
    tag = "bout"
    chan: Atom
    name: Atom  # the extruded name; never equals the channel


def extr(a: Action) -> NameSet:
    """The names the action turns from bound to free."""
    if isinstance(a, BoundOutput):
        return NameSet.finite([a.name])
    return NameSet.empty()


# ------------- configurations, transitions, derivations -------------


@dataclass(frozen=True)
class Config(PermValue, Record):
    env: NameSet
    proc: Term

    def support(self) -> NameSet:
        # The environment itself, not its support: they differ on infinite sets.
        return self.env.union(free_names(self.proc))


@dataclass(frozen=True)
class Transition(PermValue, Record):
    src: Config
    action: Action
    dst: Config

    def key(self):
        # Every caller orders transitions of one source, so the source is left out.
        return (self.action.key(), self.dst.key())


@dataclass(frozen=True)
class Cofinite(PermValue, Record):
    json_keys = {"avoid": "L"}
    avoid: NameSet  # the finite set the quantified name must stay out of
    witness: Atom

    def support(self) -> NameSet:
        # The avoid set itself, not its support: they differ on infinite sets.
        return self.avoid.union(NameSet.finite([self.witness]))


@dataclass(frozen=True)
class Derivation(PermValue, Record):
    rule: str
    conclusion: Transition
    premises: tuple[Derivation, ...] = ()
    cofinite: Cofinite | None = None
    side: int | Atom | None = None  # Sum: entry index; Open: extruded atom, written {"atom": i}


@dataclass(frozen=True)
class TraceStep(PermValue, Record):
    action: Action
    config: Config
    deriv: Derivation


@dataclass(frozen=True)
class Trace(Record):
    start: Config
    steps: tuple[TraceStep, ...] = ()


@dataclass(frozen=True)
class StepResult:
    results: tuple[tuple[Transition, Derivation], ...]
    complete: bool  # False when fuel cut off a replication unfolding

    def transitions(self) -> list[Transition]:
        return [t for t, _ in self.results]


# ------------- the enumerator -------------


def step(cfg: Config, fuel: int = 8) -> StepResult:
    """All transitions of cfg derivable under the enumeration policy."""
    if fuel < 0:
        raise ValueError(f"fuel must be a natural number, got {fuel}")
    return _step(cfg, fuel, {})


def _step(cfg: Config, fuel: int, memo: dict) -> StepResult:
    """step() with a caller-supplied memo table for _derivs."""
    if not cfg.env.is_finite():
        raise IllFormedConfig("environment must be a finite set")
    if not cfg.proc.lc_at(0):
        raise IllFormedConfig("process must be locally closed")
    derivs, complete = _derivs(cfg.env, cfg.proc, fuel, NameSet.empty(), memo=memo)
    base = cfg.support()
    moves: dict = {}  # apply's tables: premises the memo shares stay shared
    canon = [_canonicalize(d, base, moves) for d in derivs]
    keyed = sorted((((d.rule, t.key()), (t, d)) for t, d in canon), key=lambda kp: kp[0])
    # Order by (rule, transition), then by the derivation's JSON; ties on the
    # first are rare, so only they pay for serialising.
    pairs: list[tuple[Transition, Derivation]] = []
    for _, run in groupby(keyed, key=lambda kp: kp[0]):
        run = [td for _, td in run]
        if len(run) > 1:
            run.sort(key=lambda td: json.dumps(td[1].to_json(), sort_keys=True))
        pairs += run
    return StepResult(tuple(pairs), complete)


def _derivs(
    env: NameSet, proc: Term, fuel: int, avoid: NameSet, *, memo: dict
) -> tuple[list[Derivation], bool]:
    # A pure function of its four arguments, so each is derived once per memo
    # table.  The positional arguments are exactly the key; the table is
    # keyword-only to keep it apart from them at every call site.
    key = (env, proc, fuel, avoid)
    found = memo.get(key)
    if found is not None:
        return found
    src = Config(env, proc)
    match proc:
        case Out(Free(c), Free(m), cont) if env.member(c):
            dst = Config(env.union(NameSet.finite([m])), cont)
            found = [Derivation("Out", Transition(src, Output(c, m), dst))], True

        case Inp(Free(c), body) if env.member(c):
            rep = fresh(union_all(env, free_names(proc), avoid))
            out = []
            for n in list(env.atoms()) + [rep]:
                dst = Config(env.union(NameSet.finite([n])), body.open_at(0, n))
                out.append(Derivation("Inp", Transition(src, Input(c, n), dst)))
            found = out, True

        case Sum(f):
            # Witnesses picked inside one branch must still avoid the other
            # branches: they stay visible in the source of the conclusion.
            sum_avoid = avoid.union(free_names(proc))
            out, complete = [], True
            for k, entry in enumerate(f.parts()):  # default witnessed at index = entry count
                inner, ok = _derivs(env, entry, fuel, sum_avoid, memo=memo)
                complete = complete and ok
                for d in inner:
                    concl = Transition(src, d.conclusion.action, d.conclusion.dst)
                    out.append(Derivation("Sum", concl, (d,), side=k))
            found = out, complete

        case Par(left, right):
            found = _par_derivs(env, proc, left, right, fuel, avoid, memo)

        case Res(body):
            found = _res_derivs(env, proc, body, fuel, avoid, memo)

        case Rep() if fuel == 0:
            found = [], False

        case Rep(body):
            inner, complete = _derivs(env, Par(body, Rep(body)), fuel - 1, avoid, memo=memo)
            out = [
                Derivation("Rep", Transition(src, d.conclusion.action, d.conclusion.dst), (d,))
                for d in inner
            ]
            found = out, complete

        # Nil, a prefix on a channel the observer does not know, or a
        # dangling channel index (unreachable from lc configs): no step.
        case Nil() | Out() | Inp():
            found = [], True

        case _:
            raise TypeError(f"not a term: {proc!r}")
    memo[key] = found
    return found


def _par_derivs(env, proc, left, right, fuel, avoid, memo):
    src = Config(env, proc)
    parts = (left, right)
    fns = (free_names(left), free_names(right))
    # Communication premises run with the sibling's free names added to the
    # environment: each component is the other's observer.
    comm_env = (env.union(fns[1]), env.union(fns[0]))
    plain = [_derivs(env, parts[k], fuel, avoid.union(fns[1 - k]), memo=memo) for k in (0, 1)]
    comm = [_derivs(comm_env[k], parts[k], fuel, avoid.union(fns[1 - k]), memo=memo) for k in (0, 1)]
    complete = all(ok for _, ok in plain + comm)
    close_avoid = union_all(env, fns[0], fns[1], avoid)
    pars: list[Derivation] = []
    comms: list[Derivation] = []
    closes: list[Derivation] = []
    # Side k is the one that moves (Par) or sends (Comm, Close); premises
    # and components are always listed left, then right.
    for k, side in enumerate("LR"):
        other = parts[1 - k]

        def placed(mine, theirs):
            return (mine, theirs) if k == 0 else (theirs, mine)

        for d in plain[k][0]:
            t = d.conclusion
            dst = Config(t.dst.env, Par(*placed(t.dst.proc, other)))
            pars.append(Derivation("Par-" + side, Transition(src, t.action, dst), (d,)))
        for do in comm[k][0]:
            a = do.conclusion.action
            if isinstance(a, Output):
                receivers = comm[1 - k][0]
            elif isinstance(a, BoundOutput):
                w = NameSet.finite([a.name])
                receivers, ok = _derivs(comm_env[1 - k].union(w), other, fuel,
                                        union_all(avoid, fns[k], w), memo=memo)
                complete = complete and ok
            else:
                continue
            want = Input(a.chan, a.name)
            for di in receivers:
                if di.conclusion.action != want:
                    continue
                procs = placed(do.conclusion.dst.proc, di.conclusion.dst.proc)
                if isinstance(a, Output):
                    dst = Config(env, Par(*procs))
                    comms.append(Derivation("Comm-" + side, Transition(src, Tau(), dst), placed(do, di)))
                else:
                    dst = Config(env, Res(Par(*(q.close_at(0, a.name) for q in procs))))
                    closes.append(Derivation("Close-" + side, Transition(src, Tau(), dst),
                                             placed(do, di), Cofinite(close_avoid, a.name)))
    return pars + comms + closes, complete


def _res_derivs(env, proc, body, fuel, avoid, memo):
    src = Config(env, proc)
    avoid_here = union_all(free_names(proc), env, avoid)
    w = fresh(avoid_here)
    inner, complete = _derivs(
        env, body.open_at(0, w), fuel, avoid.union(NameSet.finite([w])), memo=memo
    )
    out = []
    for d in inner:
        t = d.conclusion
        a = t.action
        if isinstance(a, Output) and a.name == w and a.chan != w:
            # The restricted name escapes: the binder is opened, not re-closed.
            out.append(Derivation("Open", Transition(src, BoundOutput(a.chan, w), t.dst), (d,), side=w))
        elif not a.support().member(w) and not t.dst.env.member(w):
            dst = Config(t.dst.env, Res(t.dst.proc.close_at(0, w)))
            out.append(Derivation("Res", Transition(src, a, dst), (d,), Cofinite(avoid_here, w)))
    return out, complete


# ------------- canonical witnesses -------------


def _visible_fresh(t: Transition, base: NameSet) -> list[Atom]:
    order = []
    a = t.action
    if not isinstance(a, Tau):
        order += [a.chan, a.name]
    order += term_atom_list(t.dst.proc)
    if t.dst.env.is_finite():
        order += list(t.dst.env.atoms())
    return list(dict.fromkeys(x for x in order if not base.member(x)))  # first occurrences, in order


def _renaming(t: Transition, base: NameSet) -> Permutation | None:
    """The permutation taking the fresh atoms visible in t, in order of
    appearance, to the least atoms outside base; None if they already are."""
    sources = _visible_fresh(t, base)
    targets = base.least_outside(len(sources))
    if sources == targets:
        return None
    pairs = {x.index: y.index for x, y in zip(sources, targets)}
    extra_src = sorted(set(pairs) - set(pairs.values()))
    extra_tgt = sorted(set(pairs.values()) - set(pairs))
    # Complete the injection to a bijection on its carrier.
    pairs.update(zip(extra_tgt, extra_src))
    return Permutation(tuple(pairs.items()))


def normalize_transition(t: Transition) -> Transition:
    """Rename the fresh atoms visible in the conclusion to least-fresh order."""
    p = _renaming(t, t.src.support())
    return t if p is None else t.perm_apply(p)


def _canonicalize(d: Derivation, base: NameSet, moves: dict) -> tuple[Transition, Derivation]:
    p = _renaming(d.conclusion, base)
    if p is not None:
        d = apply(p, d, moves.setdefault(p.pairs, {}))
    return d.conclusion, d


# ------------- the checker -------------

# Each rule's shape: its premise count, whether it records side data (Sum:
# the entry index; Open: the extruded atom) and whether it records a
# cofinite witness.
_SHAPES = {
    "Out": (0, False, False), "Inp": (0, False, False), "Sum": (1, True, False),
    "Par-L": (1, False, False), "Par-R": (1, False, False), "Res": (1, False, True),
    "Open": (1, True, False), "Comm-L": (2, False, False), "Comm-R": (2, False, False),
    "Close-L": (2, False, True), "Close-R": (2, False, True), "Rep": (1, False, False),
}


def check(d: Derivation, extra_witnesses: int = 0) -> None:
    """Validate every node; raises CheckError on the first violation."""
    _walk(d, extra_witnesses, {}, {})


def check_each(derivs, extra_witnesses: int = 0):
    """Yield each derivation once it passed check, in order.  One success
    table and one set of apply's tables serve them all, so a sub-derivation
    they share is checked once, and a premise conclusion moved once."""
    done: dict = {}
    moves: dict = {}
    for d in derivs:
        _walk(d, extra_witnesses, done, moves)
        yield d


def _walk(d: Derivation, extra_witnesses: int, done: dict, moves: dict) -> None:
    # Entries are (node, path).  A cofinite node is checked again at each
    # extra witness w2 as one node: witness w2, and its premises cut down to
    # their conclusions moved by swap(w, w2) through moves' table for that
    # swap (see the module docstring).  done, the success table, maps
    # id(node) to the node once its checks passed; met again, it is skipped
    # with its subtree.  A table serves one extra_witnesses count only (check
    # and check_each make it per call), so the id alone is the key.  That is
    # sound because the stack is LIFO: the subtree is popped before anything
    # pushed before the node, and a failure in it ends the walk.
    todo = [(d, ())]
    while todo:
        d, path = todo.pop()
        if id(d) in done:
            continue
        _check(d, path)
        if extra_witnesses and d.cofinite:
            for w2 in d.support().least_outside(extra_witnesses):
                sw = swap(d.cofinite.witness, w2)
                table = moves.setdefault(sw.pairs, {})
                tops = tuple(Derivation(p.rule, apply(sw, p.conclusion, table)) for p in d.premises)
                node = Derivation(d.rule, d.conclusion, tops, Cofinite(d.cofinite.avoid, w2), d.side)
                try:
                    _check(node, path)
                except CheckError as e:
                    _fail("FreshnessViolated", path, f"premises not re-derivable at witness {w2!r}: {e}")
        done[id(d)] = d
        for i in range(len(d.premises) - 1, -1, -1):
            todo.append((d.premises[i], path + (i,)))


def _fail(reason: str, path: tuple[int, ...], message: str):
    raise CheckError(reason, path, message)


def _require_config(cfg: Config, path, what: str) -> None:
    if not cfg.env.is_finite():
        _fail("RuleShape", path, f"{what} environment is not finite")
    if not cfg.proc.lc_at(0):
        _fail("RuleShape", path, f"{what} process is not locally closed")


def _occurs(w: Atom, t: Transition) -> bool:
    """w is in the support of t, read off its parts without building a set."""
    a = t.action
    return (t.src.env.member(w) or t.dst.env.member(w)
            or (not isinstance(a, Tau) and w in (a.chan, a.name))
            or w.index in free_atoms(t.src.proc) or w.index in free_atoms(t.dst.proc))


def _check(d: Derivation, path: tuple[int, ...]) -> None:
    """Validate the node d against its rule; its premises are compared with
    it but not checked themselves."""
    t = d.conclusion
    w = d.cofinite and d.cofinite.witness
    shape = _SHAPES.get(d.rule)
    if shape is None:
        _fail("RuleShape", path, f"unknown rule {d.rule!r}")
    count, takes_side, takes_cofinite = shape
    if d.side is not None and not takes_side:
        _fail("RuleShape", path, f"rule {d.rule} takes no side data")
    if d.cofinite is not None and not takes_cofinite:
        _fail("RuleShape", path, f"rule {d.rule} takes no cofinite witness record")
    _require_config(t.src, path, "source")
    _require_config(t.dst, path, "destination")
    if isinstance(t.action, BoundOutput) and t.action.chan == t.action.name:
        _fail("RuleShape", path, "bound output must extrude a name other than its channel")
    if len(d.premises) != count:
        _fail("RuleShape", path, f"rule {d.rule} expects {count} premise(s), got {len(d.premises)}")
    if takes_cofinite:
        if d.cofinite is None:
            _fail("RuleShape", path, f"rule {d.rule} needs a cofinite witness record")
        if not d.cofinite.avoid.is_finite():
            _fail("RuleShape", path, "the avoid set must be finite")
        if d.cofinite.avoid.member(w):
            _fail("WitnessInL", path, f"witness {w!r} lies in the avoid set")
        if _occurs(w, t):
            _fail("FreshnessViolated", path, f"witness {w!r} occurs in the conclusion")
    env, proc = t.src.env, t.src.proc

    match d.rule:
        case "Out":
            if not (isinstance(proc, Out) and isinstance(proc.chan, Free) and isinstance(proc.msg, Free)):
                _fail("RuleShape", path, "source process is not a free output prefix")
            c, m = proc.chan.atom, proc.msg.atom
            if t.action != Output(c, m):
                _fail("RuleShape", path, "action does not match the output prefix")
            if not env.member(c):
                _fail("EnvMismatch", path, "output channel unknown to the observer")
            if t.dst.env != env.union(NameSet.finite([m])):
                _fail("EnvMismatch", path, "destination environment must add the emitted name")
            if t.dst.proc != proc.cont:
                _fail("RuleShape", path, "destination process must be the continuation")

        case "Inp":
            if not (isinstance(proc, Inp) and isinstance(proc.chan, Free)):
                _fail("RuleShape", path, "source process is not an input prefix")
            c = proc.chan.atom
            if not isinstance(t.action, Input) or t.action.chan != c:
                _fail("RuleShape", path, "action does not match the input prefix")
            n = t.action.name  # any name: the checker is permissive here
            if not env.member(c):
                _fail("EnvMismatch", path, "input channel unknown to the observer")
            if t.dst.env != env.union(NameSet.finite([n])):
                _fail("EnvMismatch", path, "destination environment must add the received name")
            if t.dst.proc != proc.body.open_at(0, n):
                _fail("RuleShape", path, "destination process must be the body opened with the name")

        case "Sum":
            if not isinstance(proc, Sum):
                _fail("RuleShape", path, "source process is not a sum")
            if not is_natural(d.side):
                _fail("RuleShape", path, "sum derivation must record its entry index")
            p = d.premises[0].conclusion
            want = Transition(Config(env, proc.procs.get(d.side)), t.action, t.dst)
            if p != want:
                _fail("RuleShape", path, "premise must step the selected branch to the same result")

        case "Par-L" | "Par-R":
            if not isinstance(proc, Par):
                _fail("RuleShape", path, "source process is not a parallel composition")
            mine, other = (proc.left, proc.right) if d.rule == "Par-L" else (proc.right, proc.left)
            p = d.premises[0].conclusion
            if p.src != Config(env, mine):
                _fail("RuleShape", path, "premise must start from the stepping component")
            if p.action != t.action:
                _fail("RuleShape", path, "premise action must match the conclusion")
            if p.dst.env != t.dst.env:
                _fail("EnvMismatch", path, "conclusion environment must come from the premise")
            want = Par(p.dst.proc, other) if d.rule == "Par-L" else Par(other, p.dst.proc)
            if t.dst.proc != want:
                _fail("RuleShape", path, "non-stepping component must be preserved")
            if isinstance(t.action, BoundOutput) and not is_fresh(t.action.name, other):
                _fail("FreshnessViolated", path, "extruded name occurs free in the sibling")

        case "Res":
            if not (isinstance(proc, Res) and isinstance(t.dst.proc, Res)):
                _fail("RuleShape", path, "restriction must step to a restriction")
            want = Transition(Config(env, proc.body.open_at(0, w)), t.action,
                              Config(t.dst.env, t.dst.proc.body.open_at(0, w)))
            if d.premises[0].conclusion != want:
                _fail("RuleShape", path, "premise does not match the opened conclusion at the witness")

        case "Open":
            if not isinstance(proc, Res):
                _fail("RuleShape", path, "source process is not a restriction")
            if not isinstance(t.action, BoundOutput):
                _fail("RuleShape", path, "extrusion must be a bound output")
            n = t.action.name
            if d.side != n:
                _fail("RuleShape", path, "extruded atom must be recorded as side data")
            if env.member(n):
                _fail("FreshnessViolated", path, "extruded name already known to the observer")
            if not is_fresh(n, proc.body):
                _fail("FreshnessViolated", path, "extruded name occurs free under the binder")
            if t.dst.env != env.union(NameSet.finite([n])):
                _fail("EnvMismatch", path, "destination environment must add the extruded name")
            p = d.premises[0].conclusion
            want = Transition(
                Config(env, proc.body.open_at(0, n)), Output(t.action.chan, n), t.dst
            )
            if p != want:
                _fail("RuleShape", path, "premise must output the opened name to the same result")

        case "Comm-L" | "Comm-R":
            if not isinstance(proc, Par):
                _fail("RuleShape", path, "source process is not a parallel composition")
            if t.action != Tau():
                _fail("RuleShape", path, "communication is silent")
            if t.dst.env != env:
                _fail("EnvMismatch", path, "silent steps leak nothing to the observer")
            pl, pr = d.premises[0].conclusion, d.premises[1].conclusion
            env_l = env.union(free_names(proc.right))
            env_r = env.union(free_names(proc.left))
            if pl.src != Config(env_l, proc.left) or pr.src != Config(env_r, proc.right):
                _fail("EnvMismatch", path, "premises must extend the environment with sibling names")
            sender, receiver = (pl, pr) if d.rule == "Comm-L" else (pr, pl)
            if not isinstance(sender.action, Output) or not isinstance(receiver.action, Input):
                _fail("RuleShape", path, "communication needs one output and one input premise")
            if (sender.action.chan, sender.action.name) != (receiver.action.chan, receiver.action.name):
                _fail("RuleShape", path, "premise actions must agree on channel and name")
            if t.dst.proc != Par(pl.dst.proc, pr.dst.proc):
                _fail("RuleShape", path, "destination must combine both premise results")

        case "Close-L" | "Close-R":
            if not isinstance(proc, Par):
                _fail("RuleShape", path, "source process is not a parallel composition")
            if t.action != Tau():
                _fail("RuleShape", path, "scope-closing communication is silent")
            if t.dst.env != env:
                _fail("EnvMismatch", path, "silent steps leak nothing to the observer")
            pl, pr = d.premises[0].conclusion, d.premises[1].conclusion
            extruder, receiver = (pl, pr) if d.rule == "Close-L" else (pr, pl)
            ext_proc, recv_proc = (
                (proc.left, proc.right) if d.rule == "Close-L" else (proc.right, proc.left)
            )
            if not isinstance(extruder.action, BoundOutput) or extruder.action.name != w:
                _fail("RuleShape", path, "extruding premise must emit the cofinite witness")
            if receiver.action != Input(extruder.action.chan, w):
                _fail("RuleShape", path, "receiving premise must input the extruded name")
            env_ext = env.union(free_names(recv_proc))
            env_recv = env.union(free_names(ext_proc)).union(NameSet.finite([w]))
            if extruder.src != Config(env_ext, ext_proc):
                _fail("EnvMismatch", path, "extruder premise environment is wrong")
            if receiver.src != Config(env_recv, recv_proc):
                _fail("EnvMismatch", path, "receiver premise environment must already hold the name")
            cl = pl.dst.proc.close_at(0, w)
            cr = pr.dst.proc.close_at(0, w)
            if t.dst.proc != Res(Par(cl, cr)):
                _fail("RuleShape", path, "destination must re-bind the extruded name over both results")

        case "Rep":
            if not isinstance(proc, Rep):
                _fail("RuleShape", path, "source process is not a replication")
            p = d.premises[0].conclusion
            want = Transition(Config(env, Par(proc.body, Rep(proc.body))), t.action, t.dst)
            if p != want:
                _fail("RuleShape", path, "premise must step one unfolding to the same result")


# ------------- weakening -------------


def weaken(d: Derivation, extra_env: NameSet, extra_witnesses: int = 1) -> Derivation:
    """Add extra_env to every environment in the derivation.

    Follows the inductive proof: every avoid set grows by extra_env, and
    any cofinite witness that clashes with the new environment is renamed
    to a fresher atom before the environments are extended.
    """
    if not extra_env.is_finite():
        raise ValueError("weakening environment must be finite")
    if not extr(d.conclusion.action).inter(extra_env).is_empty():
        raise ExtrusionClash("the extruded name cannot be already known")
    out = _weaken(d, extra_env)
    try:
        check(out, extra_witnesses)
    except CheckError as e:
        raise InternalWitnessClash(str(e)) from e
    return out


def _weaken(d: Derivation, xe: NameSet) -> Derivation:
    # Each distinct node once, premises first, with an explicit stack: done
    # maps id(q) to (q, q weakened), so shared premises stay shared.  A node
    # whose witness w clashes with xe is re-witnessed first, moved whole by
    # swap(w, w2): that keeps its conclusion and avoid set, for which both
    # witnesses are fresh.
    moves: dict = {}  # apply's tables, one per swap
    done: dict = {}
    todo = [(d, None)]
    while todo:
        q, r = todo.pop()
        if id(q) in done:
            continue
        if r is None:  # first visit: the premises go above q, so they are weakened first
            r = q
            if q.cofinite and xe.member(q.cofinite.witness):
                sw = swap(q.cofinite.witness, fresh(q.support().union(xe)))
                r = apply(sw, q, moves.setdefault(sw.pairs, {}))
            todo.append((q, r))
            todo += [(p, None) for p in r.premises]
            continue
        t = r.conclusion
        concl = Transition(
            Config(t.src.env.union(xe), t.src.proc), t.action, Config(t.dst.env.union(xe), t.dst.proc)
        )
        cof = Cofinite(r.cofinite.avoid.union(xe), r.cofinite.witness) if r.cofinite else None
        done[id(q)] = q, Derivation(r.rule, concl, tuple(done[id(p)][1] for p in r.premises), cof, r.side)
    return done[id(d)][1]


# ------------- traces -------------


def replay(start: Config, actions: list[Action], fuel: int = 8) -> Trace:
    """Drive `start` through the listed actions.

    A requested action whose name is fresh for the current configuration
    may match the enumerator's canonical fresh witness up to renaming;
    of several matches the one with the smallest destination wins.
    """
    if fuel < 0:
        raise ValueError(f"fuel must be a natural number, got {fuel}")
    cfg = start
    steps: list[TraceStep] = []
    for idx, want in enumerate(actions):
        result = step(cfg, fuel)
        cands = [(t, dv) for t, dv in result.results if t.action == want]
        if not cands and isinstance(want, (Input, BoundOutput)):
            base = cfg.support()
            if not base.member(want.name):
                for t, dv in result.results:
                    a = t.action
                    if type(a) is type(want) and a.chan == want.chan and not base.member(a.name):
                        sw = swap(a.name, want.name)
                        t2, dv2 = apply(sw, (t, dv))
                        if t2.action == want and t2.src == cfg:
                            cands.append((t2, dv2))
        if not cands:
            raise NoSuchTransition(idx, want)
        t, dv = min(cands, key=lambda td: (term_size(td[0].dst.proc), td[0].key()))
        steps.append(TraceStep(want, t.dst, dv))
        cfg = t.dst
    return Trace(start, tuple(steps))


def rename_trace(t: Trace, n: Atom, m: Atom, extra_witnesses: int = 1) -> Trace:
    """Swap n and m through t, after checking that its steps chain: each
    step's derivation goes from the previous configuration, by the step's
    action, to the step's configuration."""
    cfg = t.start
    for i, s in enumerate(t.steps):
        concl = s.deriv.conclusion
        for what, got, want in (("source", concl.src, cfg), ("action", concl.action, s.action),
                                ("destination", concl.dst, s.config)):
            if got != want:
                _fail("TraceMismatch", (), f"step {i}: the derivation's {what} is not the trace's")
        cfg = s.config
    if n == m:
        return t
    base = t.start.support()
    if base.member(n) or base.member(m):
        raise NotFreshAtStart(f"{n!r} and {m!r} must both be fresh for the start configuration")
    # One apply and one check_each: what the steps share is moved and checked once.
    steps = apply(swap(n, m), t.steps)
    for _ in check_each([s.deriv for s in steps], extra_witnesses):
        pass
    return Trace(t.start, steps)


# ------------- the freshness counterexample -------------


@dataclass(frozen=True)
class ExtrusionCounterexample:
    config: Config
    transition: Transition
    derivation: Derivation
    atom: Atom  # fresh for the source process, free in the destination


def extrusion_counterexample() -> ExtrusionCounterexample:
    """Refutes "bound output preserves freshness": extrusion turns a fresh
    name into a free one, so the naive convention cannot be an invariant."""
    a0 = Atom(0)
    proc = Res(Out(Free(a0), Bound(0), Out(Bound(0), Bound(0), Nil())))
    cfg = Config(NameSet.finite([a0]), proc)
    for t, dv in step(cfg, 1).results:
        if isinstance(t.action, BoundOutput):
            m = t.action.name
            assert is_fresh(m, proc) and free_names(t.dst.proc).member(m)
            check(dv, 2)
            return ExtrusionCounterexample(cfg, t, dv, m)
    raise AssertionError("extrusion transition not enumerated")
