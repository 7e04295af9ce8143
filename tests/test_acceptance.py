"""The acceptance gate: one test per shipped guarantee.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them all) and then asserts.  Randomized criteria use fixed seeds, so the
gate is reproducible bit for bit.
"""

import random

import pytest

from lnpi.atoms import Atom
from lnpi.gen import rand_config, rand_perm
from lnpi.lts import (
    BoundOutput,
    Config,
    ExtrusionClash,
    Input,
    Trace,
    TraceStep,
    Transition,
    check,
    extr,
    extrusion_counterexample,
    normalize_transition,
    rename_trace,
    replay,
    step,
    weaken,
)
from lnpi.namesets import NameSet, fresh, union_all
from lnpi.permtypes import apply, is_fresh
from lnpi.pisyntax import (
    Bound,
    Free,
    Inp,
    Nil,
    Out,
    Rep,
    Res,
    free_names,
    par_factors,
    term_lc,
)
from lnpi.props import run_suite

SEED = 2026

a = [Atom(i) for i in range(8)]


def fin(*idx: int) -> NameSet:
    return NameSet.finite([a[i] for i in idx])


def report(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def transition_corpus(cases: int, seed: int, fuel: int = 2):
    """The shared random corpus: configs with all their transitions."""
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        cfg = rand_config(rng, depth=3)
        out.append((cfg, step(cfg, fuel)))
    return out


# 1 ---------------------------------------------------------------


def test_permutation_action_laws_all_instances() -> None:
    result = run_suite("perm-laws", cases=1000, seed=SEED)
    # 9 value kinds, identity and composition each: 18 checks per case
    ok = result.failures == [] and result.checks == 18000
    report(1, ok, "identity and composition laws on every value kind (1000 cases each)")


# 2 ---------------------------------------------------------------


def test_even_odd_support_exact_values() -> None:
    odd = NameSet.periodic(2, [1])
    even = NameSet.periodic(2, [0])
    ok = (
        odd.union(even).support() == NameSet.empty()
        and odd.support() == NameSet.all_atoms()
        and odd.support().member(a[0])
    )
    report(2, ok, "support of odd/even residue sets comes out exactly")


# 3 ---------------------------------------------------------------


def test_support_lemma_suite_and_oracle() -> None:
    result = run_suite("support-lemmas", cases=1000, seed=SEED)
    ok = result.failures == [] and result.checks > 0
    report(3, ok, f"support lemma suite with brute-force oracle ({result.checks} checks)")


# 4 ---------------------------------------------------------------


def test_binder_axiom_suite() -> None:
    result = run_suite("binder-axioms", cases=1000, seed=SEED)
    ok = result.failures == [] and result.checks > 0
    report(4, ok, f"binder axiom suite on lc and open terms ({result.checks} checks)")


# 5 ---------------------------------------------------------------


def test_single_extrusion_transition() -> None:
    cfg = Config(fin(0), Res(Out(Free(a[0]), Bound(0), Nil())))
    result = step(cfg)
    ok = len(result.results) == 1
    if ok:
        t, d = result.results[0]
        ok = (
            t.action == BoundOutput(a[0], a[1])
            and t.dst == Config(fin(0, 1), Nil())
            and d.rule == "Open"
        )
        check(d, extra_witnesses=3)
    report(5, ok, "restricted output yields exactly one bound-output transition")


# 6 ---------------------------------------------------------------


def test_replicated_server_trace_replay() -> None:
    body = Res(Inp(Free(a[0]), Out(Bound(0), Bound(1), Nil())))
    start = Config(fin(0), Rep(body))
    actions = [
        Input(a[0], a[1]),
        BoundOutput(a[1], a[2]),
        Input(a[0], a[3]),
        BoundOutput(a[3], a[4]),
    ]
    trace = replay(start, actions, fuel=2)
    for s in trace.steps:
        check(s.deriv, extra_witnesses=2)

    def busy(cfg: Config) -> list:
        # parallel factors modulo the trailing nils replication unfolding leaves
        return sorted((f for f in par_factors(cfg.proc) if f != Nil()), key=repr)

    after_first = busy(trace.steps[0].config)
    want_first = sorted([Res(Out(Free(a[1]), Bound(0), Nil())), Rep(body)], key=repr)
    ok = (
        [s.action for s in trace.steps] == actions
        and after_first == want_first
        and trace.steps[0].config.env == fin(0, 1)
        and busy(trace.steps[-1].config) == [Rep(body)]
        and trace.steps[-1].config.env == fin(0, 1, 2, 3, 4)
    )
    report(6, ok, "request/response replay against the replicated server (fuel 2)")


# 7 ---------------------------------------------------------------


def test_weakening_constructive() -> None:
    rng = random.Random(SEED)
    weakened = clashes = 0
    ok = True
    for cfg, result in transition_corpus(200, SEED):
        for t, d in result.results:
            for _ in range(5):
                raw = NameSet.finite([Atom(rng.randrange(16)) for _ in range(rng.randrange(1, 4))])
                grown = raw.difference(extr(t.action))
                wd = weaken(d, grown, extra_witnesses=3)
                check(wd, extra_witnesses=3)
                weakened += 1
                if not (
                    wd.conclusion.src.env == t.src.env.union(grown)
                    and wd.conclusion.dst.env == t.dst.env.union(grown)
                    and wd.conclusion.action == t.action
                ):
                    ok = False
            if isinstance(t.action, BoundOutput):
                with pytest.raises(ExtrusionClash):
                    weaken(d, NameSet.finite([t.action.name]))
                clashes += 1
    ok = ok and weakened > 0 and clashes > 0
    report(7, ok, f"environment weakening re-derives every transition ({weakened} weakenings, {clashes} clashes rejected)")


# 8 ---------------------------------------------------------------


def test_step_preserves_local_closure() -> None:
    checked = 0
    ok = True
    for cfg, result in transition_corpus(200, SEED):
        for t in result.transitions():
            checked += 1
            if not (term_lc(t.dst.proc) and t.dst.proc.lc_at(0) and t.dst.env.is_finite()):
                ok = False
    ok = ok and checked > 0
    report(8, ok, f"every reachable process stays locally closed ({checked} transitions)")


# 9 ---------------------------------------------------------------


def _random_trace(rng: random.Random) -> Trace | None:
    cfg = rand_config(rng, depth=3)
    start = cfg
    steps = []
    for _ in range(3):
        results = step(cfg, 2).results
        if not results:
            return None
        t, d = results[rng.randrange(len(results))]
        steps.append(TraceStep(t.action, t.dst, d))
        cfg = t.dst
    return Trace(start, tuple(steps))


def test_trace_renaming_recheck() -> None:
    rng = random.Random(SEED)
    done = 0
    attempts = 0
    ok = True
    while done < 100 and attempts < 3000:
        attempts += 1
        trace = _random_trace(rng)
        if trace is None:
            continue
        everything = union_all(
            trace.start.support(), *(s.deriv.support() for s in trace.steps)
        )
        # prefer an atom the trace actually introduced, so the renaming bites
        introduced = [
            s.action.name
            for s in trace.steps
            if hasattr(s.action, "name") and not trace.start.support().member(s.action.name)
        ]
        n = introduced[0] if introduced else fresh(everything)
        m = fresh(everything.union(NameSet.finite([n])))
        renamed = rename_trace(trace, n, m, extra_witnesses=2)
        for s in renamed.steps:
            check(s.deriv, extra_witnesses=1)
        if renamed.start != trace.start or len(renamed.steps) != 3:
            ok = False
        done += 1
    ok = ok and done == 100
    report(9, ok, f"renaming start-fresh atoms keeps 3-step traces checkable ({done} traces)")


# 10 --------------------------------------------------------------


def test_bound_output_breaks_naive_freshness() -> None:
    ce = extrusion_counterexample()
    check(ce.derivation, extra_witnesses=2)
    ok = (
        is_fresh(ce.atom, ce.config.proc)
        and isinstance(ce.transition.action, BoundOutput)
        and ce.transition.action.name == ce.atom
        and free_names(ce.transition.dst.proc).member(ce.atom)
    )
    report(10, ok, "a fresh name becomes free across a derivable bound output")


# 11 --------------------------------------------------------------


def test_step_equivariance_canonical_witnesses() -> None:
    rng = random.Random(SEED)
    compared = 0
    ok = True
    for _ in range(200):
        cfg = rand_config(rng, depth=3)
        p = rand_perm(rng, max_swaps=4)
        direct = sorted(
            step(Config(cfg.env.perm_apply(p), apply(p, cfg.proc)), 2).transitions(),
            key=Transition.key,
        )
        mapped = sorted(
            (normalize_transition(t.perm_apply(p)) for t in step(cfg, 2).transitions()),
            key=Transition.key,
        )
        compared += len(direct)
        if direct != mapped:
            ok = False
    report(11, ok, f"stepping commutes with renaming up to canonical witnesses ({compared} transitions)")
