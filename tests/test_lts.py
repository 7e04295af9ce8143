import contextlib
import itertools
import json
import random
from functools import reduce

import pytest

from lnpi import cli, lts, props
from lnpi.atoms import Atom, Permutation, is_natural, swap
from lnpi.gen import rand_atom, rand_config, rand_family, rand_perm, rand_term_set
from lnpi.lts import (
    Action,
    BoundOutput,
    CheckError,
    Cofinite,
    Config,
    Derivation,
    ExtrusionClash,
    IllFormedConfig,
    Input,
    NoSuchTransition,
    NotFreshAtStart,
    Output,
    Tau,
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
from lnpi.parsing import parse
from lnpi.permtypes import FiniteTermSet, IndexedFamily, apply, is_fresh, supp
from lnpi.pisyntax import Bound, Free, Inp, Nil, Out, Par, Rep, Res, Sum, free_names

a = [Atom(i) for i in range(12)]


def F(i: int) -> Free:
    return Free(a[i])


def fin(*idx: int) -> NameSet:
    return NameSet.finite([a[i] for i in idx])


def only(result) -> tuple[Transition, Derivation]:
    assert len(result.results) == 1
    return result.results[0]


# ------------- actions -------------


def test_action_support_and_extrusion() -> None:
    assert Tau().support() == NameSet.empty()
    assert Output(a[0], a[1]).support() == fin(0, 1)
    assert extr(BoundOutput(a[0], a[1])) == fin(1)
    assert extr(Input(a[0], a[1])) == NameSet.empty()


def test_action_permutation_and_json() -> None:
    acts = [Tau(), Input(a[0], a[1]), Output(a[2], a[2]), BoundOutput(a[0], a[3])]
    p = swap(a[0], a[3])
    for act in acts:
        assert Action.from_json(act.to_json()) == act
        assert Action.from_json(act.perm_apply(p).to_json()) == act.perm_apply(p)
    assert BoundOutput(a[0], a[3]).perm_apply(p) == BoundOutput(a[3], a[0])
    with pytest.raises(ValueError):
        Action.from_json({"tag": "zap"})


# ------------- configurations -------------


def test_config_support_joins_env_and_free_names() -> None:
    cfg = Config(fin(0), Out(F(1), F(1), Nil()))
    assert cfg.support() == fin(0, 1)


def test_step_rejects_infinite_environments() -> None:
    with pytest.raises(IllFormedConfig):
        step(Config(NameSet.cofinite([a[0]]), Nil()))


def test_step_rejects_open_processes() -> None:
    with pytest.raises(IllFormedConfig):
        step(Config(fin(0), Out(Bound(0), F(0), Nil())))


# ------------- single-rule enumeration -------------


def test_nil_has_no_transitions() -> None:
    r = step(Config(fin(0), Nil()))
    assert r.results == () and r.complete


def test_output_emits_and_extends_the_environment() -> None:
    t, d = only(step(Config(fin(0), Out(F(0), F(1), Nil()))))
    assert d.rule == "Out" and d.premises == ()
    assert t.action == Output(a[0], a[1])
    assert t.dst == Config(fin(0, 1), Nil())


def test_output_on_unknown_channel_is_silent_dead() -> None:
    # the observer cannot interact on a channel it does not know
    r = step(Config(NameSet.empty(), Out(F(0), F(1), Nil())))
    assert r.results == () and r.complete


def test_input_enumerates_known_names_plus_one_fresh() -> None:
    body = Out(Bound(0), F(0), Nil())  # x!c. 0
    r = step(Config(fin(0), Inp(F(0), body)))
    assert [t.action for t in r.transitions()] == [Input(a[0], a[0]), Input(a[0], a[1])]
    got_known, got_fresh = r.transitions()
    # the body opens with whichever name was received
    assert got_known.dst == Config(fin(0), Out(F(0), F(0), Nil()))
    assert got_fresh.dst == Config(fin(0, 1), Out(F(1), F(0), Nil()))


def test_sum_steps_a_chosen_entry_and_records_the_index() -> None:
    t = Sum(IndexedFamily((Out(F(0), F(0), Nil()),), Nil()))
    tr, d = only(step(Config(fin(0), t)))
    assert d.rule == "Sum" and d.side == 0
    assert d.premises[0].rule == "Out"
    assert tr.dst == Config(fin(0), Nil())


def test_sum_default_branch_can_fire() -> None:
    t = Sum(IndexedFamily((), Out(F(0), F(0), Nil())))
    tr, d = only(step(Config(fin(0), t)))
    assert d.rule == "Sum" and d.side == 0
    assert tr.action == Output(a[0], a[0])


def test_parallel_steps_each_side_independently() -> None:
    t = Par(Out(F(0), F(0), Nil()), Out(F(0), F(1), Nil()))
    r = step(Config(fin(0, 1), t))
    rules = sorted(d.rule for _, d in r.results)
    assert rules == ["Par-L", "Par-R"]
    for tr, d in r.results:
        if d.rule == "Par-L":
            assert tr.dst.proc == Par(Nil(), Out(F(0), F(1), Nil()))
        else:
            assert tr.dst.proc == Par(Out(F(0), F(0), Nil()), Nil())


def test_communication_needs_no_observer_knowledge() -> None:
    # neither prefix is observable (empty env), yet the two halves can talk:
    # each premise runs with the sibling's free names added
    t = Par(Out(F(0), F(1), Nil()), Inp(F(0), Out(Bound(0), Bound(0), Nil())))
    tr, d = only(step(Config(NameSet.empty(), t)))
    assert d.rule == "Comm-L"
    assert tr.action == Tau()
    assert tr.dst == Config(NameSet.empty(), Par(Nil(), Out(F(1), F(1), Nil())))
    # premises carry the extended environments
    assert d.premises[0].conclusion.src.env == fin(0)
    assert d.premises[1].conclusion.src.env == fin(0, 1)


def test_scope_closing_communication_rebinds_the_name() -> None:
    t = Par(Res(Out(F(0), Bound(0), Nil())), Inp(F(0), Nil()))
    tr, d = only(step(Config(NameSet.empty(), t)))
    assert d.rule == "Close-L"
    assert tr.action == Tau()
    # the extruded name ends up bound again over both components
    assert tr.dst == Config(NameSet.empty(), Res(Par(Nil(), Nil())))
    assert d.cofinite == Cofinite(fin(0), a[1])
    assert d.premises[0].conclusion.action == BoundOutput(a[0], a[1])
    assert d.premises[1].conclusion.action == Input(a[0], a[1])


def test_restriction_hides_its_name_from_the_action() -> None:
    t = Res(Inp(F(0), Nil()))  # new q. c?(x). 0, q unused
    r = step(Config(fin(0), t))
    assert [tr.action for tr in r.transitions()] == [Input(a[0], a[0]), Input(a[0], a[1])]
    for tr, d in r.results:
        assert d.rule == "Res"
        assert tr.dst.proc == Res(Nil())
        assert d.cofinite is not None and d.cofinite.avoid == fin(0)


def test_extrusion_opens_the_binder() -> None:
    t = Res(Out(F(0), Bound(0), Nil()))  # new c. n!c. 0
    tr, d = only(step(Config(fin(0), t)))
    assert d.rule == "Open"
    assert tr.action == BoundOutput(a[0], a[1])
    assert tr.dst == Config(fin(0, 1), Nil())
    assert d.side == a[1] and d.cofinite is None
    assert d.premises[0].conclusion.action == Output(a[0], a[1])


def test_restricted_output_on_its_own_channel_is_stuck() -> None:
    # new c. c!c. 0 cannot extrude: the channel itself is the secret
    t = Res(Out(Bound(0), Bound(0), Nil()))
    r = step(Config(fin(0), t))
    assert r.results == () and r.complete


def test_replication_unfolds_once_per_fuel_unit() -> None:
    t = Rep(Out(F(0), F(0), Nil()))
    r0 = step(Config(fin(0), t), fuel=0)
    assert r0.results == () and not r0.complete
    r1 = step(Config(fin(0), t), fuel=1)
    tr, d = only(r1)
    assert d.rule == "Rep" and d.premises[0].rule == "Par-L"
    assert tr.dst.proc == Par(Nil(), t)
    assert not r1.complete  # the inner copy was cut off at fuel 0


def test_fuel_exhaustion_is_reported_even_without_transitions() -> None:
    t = Rep(Out(F(1), F(1), Nil()))  # channel unknown, nothing fires
    r = step(Config(fin(0), t), fuel=8)
    assert r.results == () and not r.complete


def test_step_is_deterministic() -> None:
    rng = random.Random(53)
    for _ in range(40):
        cfg = rand_config(rng)
        r1, r2 = step(cfg, 2), step(cfg, 2)
        assert r1 == r2


def test_negative_fuel_is_rejected() -> None:
    cfg = Config(fin(0), Rep(Out(F(0), F(0), Nil())))
    with pytest.raises(ValueError):
        step(cfg, -1)
    with pytest.raises(ValueError):
        replay(cfg, [], fuel=-1)


# ------------- the memo table -------------


class NeverStores(dict):
    """A memo table that forgets everything: every _derivs call recomputes."""

    def __setitem__(self, key, value) -> None:
        pass


def parsed_config(env: str, text: str) -> Config:
    symtab = {ident: Atom(i) for i, ident in enumerate(env.split())}
    proc, _ = parse(text, dict(symtab))
    return Config(NameSet.finite(symtab.values()), proc)


ROADMAP_PROCESS = parsed_config("c", "*(new n. c!n.0) | *(c?(x). x!x.0)")
SERVER = parsed_config("c", "*( new n. c?(x). x!n. 0 )")
README_CONFIGS = [
    (parsed_config("", "new a. a!a. 0 | 0"), 8),
    (parsed_config("", "n!m.0"), 8),
    (parsed_config("n", "new c. n!c. 0"), 8),
    *((SERVER, fuel) for fuel in range(1, 6)),
]


def lts_lemmas_configs(monkeypatch) -> list[tuple[Config, int]]:
    """Every (configuration, fuel) the lts-lemmas suite steps at one seed."""
    seen = []

    def recording_step(cfg, fuel=8):
        seen.append((cfg, fuel))
        return step(cfg, fuel)

    with monkeypatch.context() as m:
        m.setattr(props, "step", recording_step)
        assert props.lts_lemmas(25, 42).ok
    return seen


# The same input prefix stepped twice: beside the restriction, and under it,
# where the restriction's witness joins the avoid set and so changes the
# input's fresh representative.  A memo key without the avoid set fails here.
SHADOWED = parsed_config("c", "c?(x).0 | new n. (n!n.0 | c?(x).0)")


def test_memo_table_changes_no_step_result(monkeypatch) -> None:
    corpus = lts_lemmas_configs(monkeypatch) + README_CONFIGS + [(SHADOWED, 1)]
    corpus += [(ROADMAP_PROCESS, fuel) for fuel in range(1, 8)]
    assert len(corpus) > 80
    for cfg, fuel in corpus:
        assert lts._step(cfg, fuel, NeverStores()) == step(cfg, fuel), (cfg, fuel)


def test_memo_holds_one_entry_per_distinct_subproblem() -> None:
    # ROADMAP: 3263 _derivs calls at fuel 5 share 107 distinct argument tuples.
    memo: dict = {}
    result = lts._step(ROADMAP_PROCESS, 5, memo)
    assert len(memo) == 107
    assert len(result.results) == 40


# ------------- derivation support -------------


def recursive_support(d: Derivation) -> NameSet:
    """Derivation.support() as the recursive union of every node's parts."""
    parts = [d.conclusion.support(), *map(recursive_support, d.premises)]
    if d.cofinite:
        parts.append(d.cofinite.support())
    if isinstance(d.side, Atom):
        parts.append(NameSet.finite([d.side]))
    return reduce(NameSet.union, parts, NameSet.empty())


def test_support_walk_matches_the_recursive_union(monkeypatch) -> None:
    rng = random.Random(61)
    corpus = [(rand_config(rng), 2) for _ in range(150)] + lts_lemmas_configs(monkeypatch)
    derivs = [d for cfg, fuel in corpus for _, d in step(cfg, fuel).results]
    assert len(derivs) > 500
    assert {"Res", "Open", "Close-L", "Close-R", "Sum"} <= {q.rule for d in derivs for q in walk(d)}
    fresh_atoms = map(Atom, itertools.count(100))
    for d in derivs:
        assert d.support() == recursive_support(d), d
        moved = relabelled(d, fresh_atoms)  # the parts of different nodes no longer overlap
        assert moved.support() == recursive_support(moved), moved
    # Conclusion parts that share no atom, as in no enumerated derivation.
    apart = Derivation("Out", Transition(Config(fin(0), Nil()), Output(a[1], a[2]),
                                         Config(fin(3), Out(F(4), F(5), Nil()))))
    assert apart.support() == fin(0, 1, 2, 3, 4, 5)
    # An infinite environment sends the one union through union_all's fold.
    d = derivs[0]
    t = d.conclusion
    wide = Derivation(d.rule, Transition(Config(NameSet.periodic(2, [1]), t.src.proc), t.action, t.dst),
                      d.premises, d.cofinite, d.side)
    assert wide.support() == recursive_support(wide)
    # Two premises that are one object: the node under them counts once.
    twice = Derivation("Comm-L", d.conclusion, (moved, moved))
    assert twice.support() == recursive_support(twice)


def relabelled(d: Derivation, fresh_atoms) -> Derivation:
    """d with each node's side atom, witness and avoid set replaced by new atoms."""
    side = next(fresh_atoms) if isinstance(d.side, Atom) else d.side
    cof = Cofinite(NameSet.finite([next(fresh_atoms)]), next(fresh_atoms)) if d.cofinite else None
    return Derivation(d.rule, d.conclusion, tuple(relabelled(q, fresh_atoms) for q in d.premises), cof, side)


def walk(d: Derivation):
    yield d
    for q in d.premises:
        yield from walk(q)


# ------------- the derived permutation action and support -------------

# The records' hand-written perm_apply/support bodies from before PermValue
# derived them from the fields: the reference the derived methods must match.


def ref_action_perm(act: Action, p: Permutation) -> Action:
    match act:
        case Tau():
            return act
        case Input(c, n):
            return Input(p(c), p(n))
        case Output(c, n):
            return Output(p(c), p(n))
        case BoundOutput(c, n):
            return BoundOutput(p(c), p(n))
    raise TypeError(f"not an action: {act!r}")


def ref_action_support(act: Action) -> NameSet:
    if isinstance(act, Tau):
        return NameSet.empty()
    return NameSet.finite([act.chan, act.name])


def ref_config_perm(cfg: Config, p: Permutation) -> Config:
    return Config(cfg.env.perm_apply(p), cfg.proc.perm_apply(p))


def ref_transition_perm(t: Transition, p: Permutation) -> Transition:
    return Transition(ref_config_perm(t.src, p), ref_action_perm(t.action, p), ref_config_perm(t.dst, p))


def ref_transition_support(t: Transition) -> NameSet:
    return union_all(t.src.support(), ref_action_support(t.action), t.dst.support())


def ref_cofinite_perm(c: Cofinite, p: Permutation) -> Cofinite:
    return Cofinite(c.avoid.perm_apply(p), p(c.witness))


def ref_derivation_perm(d: Derivation, p: Permutation) -> Derivation:
    return Derivation(
        d.rule,
        ref_transition_perm(d.conclusion, p),
        tuple(ref_derivation_perm(q, p) for q in d.premises),
        ref_cofinite_perm(d.cofinite, p) if d.cofinite else None,
        p(d.side) if isinstance(d.side, Atom) else d.side,
    )


def ref_trace_step_perm(s: TraceStep, p: Permutation) -> TraceStep:
    return TraceStep(ref_action_perm(s.action, p), ref_config_perm(s.config, p), ref_derivation_perm(s.deriv, p))


def perm_corpus(monkeypatch, seed: int) -> tuple[list[Derivation], list[Permutation]]:
    """The fuel-2 rand_config and lts-lemmas derivations, each with a random
    permutation and a swap of one of its atoms with an atom of the pool."""
    rng = random.Random(seed)
    corpus = [(rand_config(rng), 2) for _ in range(150)] + lts_lemmas_configs(monkeypatch)
    derivs = [d for cfg, fuel in corpus for _, d in step(cfg, fuel).results]
    assert len(derivs) > 500
    perms = [rand_perm(rng) for _ in derivs]
    swaps = [swap(rng.choice(d.support().atoms()), rand_atom(rng)) for d in derivs]
    return derivs + derivs, perms + swaps


def test_derived_action_and_support_match_the_hand_written_ones(monkeypatch) -> None:
    derivs, perms = perm_corpus(monkeypatch, 71)
    assert {q.rule for d in derivs for q in walk(d)} >= {"Res", "Open", "Close-L", "Close-R", "Sum"}
    for d, p in zip(derivs, perms):
        assert d.perm_apply(p) == ref_derivation_perm(d, p), (d, p)
        s = TraceStep(d.conclusion.action, d.conclusion.dst, d)
        assert s.perm_apply(p) == ref_trace_step_perm(s, p)
        for q in walk(d):
            assert q.conclusion.support() == ref_transition_support(q.conclusion)
            assert q.conclusion.action.support() == ref_action_support(q.conclusion.action)


def test_support_is_equivariant_on_every_record(monkeypatch) -> None:
    derivs, perms = perm_corpus(monkeypatch, 73)
    rng = random.Random(73)
    seen = set()
    for d, p in zip(derivs, perms):
        t = d.conclusion
        values = [d, t, t.src, t.action, TraceStep(t.action, t.dst, d), d.cofinite]
        values += [rand_family(rng, rand_atom), rand_term_set(rng)]
        for v in filter(None, values):
            seen.add(type(v))
            assert supp(apply(p, v)) == apply(p, supp(v)), (v, p)
    assert seen == {Tau, Input, Output, BoundOutput, Config, Transition, Cofinite, Derivation, TraceStep,
                    IndexedFamily, FiniteTermSet}


def test_config_and_cofinite_support_is_the_set_itself() -> None:
    # Not the set's support: that is every atom for a periodic set and the
    # complement for a cofinite one.
    odd = NameSet.periodic(2, [1])
    assert supp(odd) == NameSet.all_atoms()
    assert Config(odd, Nil()).support() == odd
    co = NameSet.cofinite([a[0]])
    assert supp(co) == fin(0)
    assert Cofinite(co, a[1]).support() == co


# ------------- canonical fresh witnesses -------------


def test_fresh_witnesses_are_least_available_atoms() -> None:
    # the fresh input target skips the occupied atoms a0, a1 and lands on a2
    body = Inp(F(0), Nil())
    r = step(Config(fin(0, 1), body))
    assert [t.action.name for t in r.transitions()] == [a[0], a[1], a[2]]


def test_normalize_transition_renames_visible_fresh_atoms() -> None:
    src = Config(fin(0), Inp(F(0), Nil()))
    messy = Transition(src, Input(a[0], a[7]), Config(fin(0, 7), Nil()))
    tidy = normalize_transition(messy)
    assert tidy == Transition(src, Input(a[0], a[1]), Config(fin(0, 1), Nil()))
    # already-canonical transitions are untouched
    assert normalize_transition(tidy) == tidy


def test_canonicalization_keeps_derivations_valid() -> None:
    # the second input below uses the canonical fresh name a1, which forces
    # the internal restriction witness to move out of its way
    t = Res(Inp(F(0), Nil()))
    r = step(Config(fin(0), t))
    fresh_input = r.results[1]
    assert fresh_input[0].action == Input(a[0], a[1])
    assert fresh_input[1].cofinite.witness == a[2]
    for _, d in r.results:
        check(d, extra_witnesses=2)


# ------------- the checker: acceptance -------------


def test_enumerated_derivations_check_with_extra_witnesses() -> None:
    rng = random.Random(59)
    for _ in range(60):
        cfg = rand_config(rng)
        for _, d in step(cfg, 2).results:
            check(d, extra_witnesses=3)


# ------------- the checker: rejection -------------


def res_example() -> Derivation:
    # the known-name input under a restriction: one cofinitely-witnessed node
    results = step(Config(fin(0), Res(Inp(F(0), Nil())))).results
    return results[0][1]


def open_example() -> Derivation:
    return only(step(Config(fin(0), Res(Out(F(0), Bound(0), Nil())))))[1]


def test_checker_rejects_unknown_rules() -> None:
    d = open_example()
    bad = Derivation("Frob", d.conclusion, d.premises, d.cofinite, d.side)
    with pytest.raises(CheckError) as err:
        check(bad)
    assert err.value.reason == "RuleShape"
    assert "unknown rule" in str(err.value)


def test_checker_rejects_wrong_premise_count() -> None:
    t, d = only(step(Config(fin(0), Out(F(0), F(1), Nil()))))
    bad = Derivation("Out", t, (d,))
    with pytest.raises(CheckError) as err:
        check(bad)
    assert err.value.reason == "RuleShape"


def test_checker_rejects_witness_inside_the_avoid_set() -> None:
    d = res_example()
    w = d.cofinite.witness
    bad = Derivation(d.rule, d.conclusion, d.premises, Cofinite(d.cofinite.avoid.union(NameSet.finite([w])), w), d.side)
    with pytest.raises(CheckError) as err:
        check(bad)
    assert err.value.reason == "WitnessInL"


def test_checker_rejects_an_infinite_avoid_set() -> None:
    # An avoid set that covers every atom but the witness leaves no fresh
    # atom to re-derive at; the checker must reject it, not search forever.
    _, d = only(step(Config(fin(0), Res(Out(F(0), F(0), Nil())))))
    assert d.rule == "Res"
    w = d.cofinite.witness
    bad = Derivation(d.rule, d.conclusion, d.premises, Cofinite(NameSet.cofinite([w]), w), d.side)
    with pytest.raises(CheckError) as err:
        check(bad, extra_witnesses=2)
    assert err.value.reason == "RuleShape"


def test_checker_rejects_extruded_name_already_known() -> None:
    d = open_example()
    t = d.conclusion
    leaky = Transition(Config(t.src.env.union(fin(1)), t.src.proc), t.action, t.dst)
    bad = Derivation(d.rule, leaky, d.premises, d.cofinite, d.side)
    with pytest.raises(CheckError) as err:
        check(bad)
    assert err.value.reason == "FreshnessViolated"
    assert "already known" in err.value.message


def test_checker_rejects_missing_environment_extension() -> None:
    t, _ = only(step(Config(fin(0), Out(F(0), F(1), Nil()))))
    clipped = Transition(t.src, t.action, Config(fin(0), t.dst.proc))
    with pytest.raises(CheckError) as err:
        check(Derivation("Out", clipped))
    assert err.value.reason == "EnvMismatch"


def test_checker_rejects_bound_output_of_the_channel_itself() -> None:
    src = Config(fin(0), Res(Out(F(0), Bound(0), Nil())))
    t = Transition(src, BoundOutput(a[0], a[0]), Config(fin(0), Nil()))
    with pytest.raises(CheckError) as err:
        check(Derivation("Open", t, (), None, a[0]))
    assert err.value.reason == "RuleShape"


def test_checker_rejects_extrusion_captured_by_a_sibling() -> None:
    # Par-L whose bound output collides with a free name on the right:
    # hand-built, since the enumerator never produces it
    extruder = Res(Out(F(0), Bound(0), Nil()))
    inner_t, inner_d = only(step(Config(fin(0), extruder)))
    w = inner_t.action.name
    sibling = Out(F(0), Free(w), Nil())
    src = Config(fin(0), Par(extruder, sibling))
    t = Transition(src, inner_t.action, Config(inner_t.dst.env, Par(inner_t.dst.proc, sibling)))
    with pytest.raises(CheckError) as err:
        check(Derivation("Par-L", t, (inner_d,)))
    assert err.value.reason == "FreshnessViolated"
    assert "sibling" in err.value.message


def test_checker_reports_the_failing_premise_path() -> None:
    t, d = only(step(Config(fin(0, 1), Par(Out(F(0), F(1), Nil()), Nil()))))
    assert d.rule == "Par-L"
    inner = d.premises[0]
    bad = Derivation(d.rule, d.conclusion, (Derivation("Frob", inner.conclusion),), d.cofinite, d.side)
    with pytest.raises(CheckError) as err:
        check(bad)
    assert err.value.path == (0,)
    assert str(err.value) == "RuleShape at 0: unknown rule 'Frob'"


def test_checker_requires_a_natural_sum_entry_index() -> None:
    # True is an int equal to 1: it used to pass as entry 1.
    cfg = Config(fin(0), Sum(IndexedFamily((Out(F(0), F(0), Nil()), Out(F(0), F(0), Nil())), Nil())))
    d = next(d for _, d in step(cfg).results if d.side == 1)
    check(d)
    for side in (True, a[1], -1, None):
        with pytest.raises(CheckError) as err:
            check(Derivation(d.rule, d.conclusion, d.premises, d.cofinite, side))
        assert (err.value.reason, err.value.message) == ("RuleShape", "sum derivation must record its entry index")


def test_checker_rejects_side_data_and_cofinite_records_a_rule_takes_none_of() -> None:
    d = res_example()
    with pytest.raises(CheckError) as err:
        check(Derivation(d.rule, d.conclusion, d.premises, d.cofinite, 0))
    assert (err.value.reason, err.value.message) == ("RuleShape", "rule Res takes no side data")
    t, _ = only(step(Config(fin(0), Out(F(0), F(1), Nil()))))
    with pytest.raises(CheckError) as err:
        check(Derivation("Out", t, (), Cofinite(fin(3), a[3])))
    assert (err.value.reason, err.value.message) == ("RuleShape", "rule Out takes no cofinite witness record")


def test_checker_accepts_any_received_name_in_inputs() -> None:
    # the enumerator samples two input targets, but the rule allows any
    # name; a hand-built derivation for a third name must also check
    src = Config(fin(0), Inp(F(0), Nil()))
    n = a[9]
    t = Transition(src, Input(a[0], n), Config(fin(0, 9), Nil()))
    check(Derivation("Inp", t))


# ------------- the checker walk against the recursive checker -------------

# The recursive checker from before check became one explicit-stack walk over
# node-local rule checks, with its two witness helpers: the reference the walk
# must agree with.


def ref_check(d: Derivation, extra_witnesses: int = 0) -> None:
    ref_check_tree(d, extra_witnesses, ())


def ref_fail(reason: str, path: tuple[int, ...], message: str):
    raise CheckError(reason, path, message)


def ref_require_config(cfg: Config, path, what: str) -> None:
    if not cfg.env.is_finite():
        ref_fail("RuleShape", path, f"{what} environment is not finite")
    if not cfg.proc.lc_at(0):
        ref_fail("RuleShape", path, f"{what} process is not locally closed")


def ref_premise_count(d: Derivation, n: int, path) -> None:
    if len(d.premises) != n:
        ref_fail("RuleShape", path, f"rule {d.rule} expects {n} premise(s), got {len(d.premises)}")


def ref_check_cofinite_node(d: Derivation, path) -> tuple[NameSet, Atom]:
    if d.cofinite is None:
        ref_fail("RuleShape", path, f"rule {d.rule} needs a cofinite witness record")
    w = d.cofinite.witness
    if not d.cofinite.avoid.is_finite():
        ref_fail("RuleShape", path, "the avoid set must be finite")
    if d.cofinite.avoid.member(w):
        ref_fail("WitnessInL", path, f"witness {w!r} lies in the avoid set")
    if d.conclusion.support().member(w):
        ref_fail("FreshnessViolated", path, f"witness {w!r} occurs in the conclusion")
    return d.cofinite.avoid, w


# Every rule, and the ones that record side data (Sum: the entry index; Open:
# the extruded atom) or a cofinite record; the other rules take neither.
REF_RULES = ("Out", "Inp", "Sum", "Par-L", "Par-R", "Res", "Open",
             "Comm-L", "Comm-R", "Close-L", "Close-R", "Rep")
REF_SIDE_RULES = ("Sum", "Open")
REF_COFINITE_RULES = ("Res", "Close-L", "Close-R")


def ref_check_tree(d: Derivation, extra: int, path: tuple[int, ...]) -> None:
    if d.rule not in REF_RULES:
        ref_fail("RuleShape", path, f"unknown rule {d.rule!r}")
    if d.side is not None and d.rule not in REF_SIDE_RULES:
        ref_fail("RuleShape", path, f"rule {d.rule} takes no side data")
    if d.cofinite is not None and d.rule not in REF_COFINITE_RULES:
        ref_fail("RuleShape", path, f"rule {d.rule} takes no cofinite witness record")
    t = d.conclusion
    ref_require_config(t.src, path, "source")
    ref_require_config(t.dst, path, "destination")
    if isinstance(t.action, BoundOutput) and t.action.chan == t.action.name:
        ref_fail("RuleShape", path, "bound output must extrude a name other than its channel")
    env, proc = t.src.env, t.src.proc

    match d.rule:
        case "Out":
            ref_premise_count(d, 0, path)
            if not (isinstance(proc, Out) and isinstance(proc.chan, Free) and isinstance(proc.msg, Free)):
                ref_fail("RuleShape", path, "source process is not a free output prefix")
            c, m = proc.chan.atom, proc.msg.atom
            if t.action != Output(c, m):
                ref_fail("RuleShape", path, "action does not match the output prefix")
            if not env.member(c):
                ref_fail("EnvMismatch", path, "output channel unknown to the observer")
            if t.dst.env != env.union(NameSet.finite([m])):
                ref_fail("EnvMismatch", path, "destination environment must add the emitted name")
            if t.dst.proc != proc.cont:
                ref_fail("RuleShape", path, "destination process must be the continuation")

        case "Inp":
            ref_premise_count(d, 0, path)
            if not (isinstance(proc, Inp) and isinstance(proc.chan, Free)):
                ref_fail("RuleShape", path, "source process is not an input prefix")
            c = proc.chan.atom
            if not isinstance(t.action, Input) or t.action.chan != c:
                ref_fail("RuleShape", path, "action does not match the input prefix")
            n = t.action.name  # any name: the checker is permissive here
            if not env.member(c):
                ref_fail("EnvMismatch", path, "input channel unknown to the observer")
            if t.dst.env != env.union(NameSet.finite([n])):
                ref_fail("EnvMismatch", path, "destination environment must add the received name")
            if t.dst.proc != proc.body.open_at(0, n):
                ref_fail("RuleShape", path, "destination process must be the body opened with the name")

        case "Sum":
            ref_premise_count(d, 1, path)
            if not isinstance(proc, Sum):
                ref_fail("RuleShape", path, "source process is not a sum")
            if not is_natural(d.side):
                ref_fail("RuleShape", path, "sum derivation must record its entry index")
            p = d.premises[0].conclusion
            want = Transition(Config(env, proc.procs.get(d.side)), t.action, t.dst)
            if p != want:
                ref_fail("RuleShape", path, "premise must step the selected branch to the same result")
            ref_check_tree(d.premises[0], extra, path + (0,))

        case "Par-L" | "Par-R":
            ref_premise_count(d, 1, path)
            if not isinstance(proc, Par):
                ref_fail("RuleShape", path, "source process is not a parallel composition")
            mine, other = (proc.left, proc.right) if d.rule == "Par-L" else (proc.right, proc.left)
            p = d.premises[0].conclusion
            if p.src != Config(env, mine):
                ref_fail("RuleShape", path, "premise must start from the stepping component")
            if p.action != t.action:
                ref_fail("RuleShape", path, "premise action must match the conclusion")
            if p.dst.env != t.dst.env:
                ref_fail("EnvMismatch", path, "conclusion environment must come from the premise")
            want = Par(p.dst.proc, other) if d.rule == "Par-L" else Par(other, p.dst.proc)
            if t.dst.proc != want:
                ref_fail("RuleShape", path, "non-stepping component must be preserved")
            if isinstance(t.action, BoundOutput) and not is_fresh(t.action.name, other):
                ref_fail("FreshnessViolated", path, "extruded name occurs free in the sibling")
            ref_check_tree(d.premises[0], extra, path + (0,))

        case "Res":
            if not (isinstance(proc, Res) and isinstance(t.dst.proc, Res)):
                ref_fail("RuleShape", path, "restriction must step to a restriction")
            ref_premise_count(d, 1, path)
            avoid, w = ref_check_cofinite_node(d, path)
            want = Transition(
                Config(env, proc.body.open_at(0, w)),
                t.action,
                Config(t.dst.env, t.dst.proc.body.open_at(0, w)),
            )
            ref_check_at_witness(d, want, extra, path)

        case "Open":
            ref_premise_count(d, 1, path)
            if not isinstance(proc, Res):
                ref_fail("RuleShape", path, "source process is not a restriction")
            if not isinstance(t.action, BoundOutput):
                ref_fail("RuleShape", path, "extrusion must be a bound output")
            n = t.action.name
            if d.side != n:
                ref_fail("RuleShape", path, "extruded atom must be recorded as side data")
            if env.member(n):
                ref_fail("FreshnessViolated", path, "extruded name already known to the observer")
            if not is_fresh(n, proc.body):
                ref_fail("FreshnessViolated", path, "extruded name occurs free under the binder")
            if t.dst.env != env.union(NameSet.finite([n])):
                ref_fail("EnvMismatch", path, "destination environment must add the extruded name")
            p = d.premises[0].conclusion
            want = Transition(
                Config(env, proc.body.open_at(0, n)), Output(t.action.chan, n), t.dst
            )
            if p != want:
                ref_fail("RuleShape", path, "premise must output the opened name to the same result")
            ref_check_tree(d.premises[0], extra, path + (0,))

        case "Comm-L" | "Comm-R":
            ref_premise_count(d, 2, path)
            if not isinstance(proc, Par):
                ref_fail("RuleShape", path, "source process is not a parallel composition")
            if t.action != Tau():
                ref_fail("RuleShape", path, "communication is silent")
            if t.dst.env != env:
                ref_fail("EnvMismatch", path, "silent steps leak nothing to the observer")
            pl, pr = d.premises[0].conclusion, d.premises[1].conclusion
            env_l = env.union(free_names(proc.right))
            env_r = env.union(free_names(proc.left))
            if pl.src != Config(env_l, proc.left) or pr.src != Config(env_r, proc.right):
                ref_fail("EnvMismatch", path, "premises must extend the environment with sibling names")
            sender, receiver = (pl, pr) if d.rule == "Comm-L" else (pr, pl)
            if not isinstance(sender.action, Output) or not isinstance(receiver.action, Input):
                ref_fail("RuleShape", path, "communication needs one output and one input premise")
            if (sender.action.chan, sender.action.name) != (receiver.action.chan, receiver.action.name):
                ref_fail("RuleShape", path, "premise actions must agree on channel and name")
            if t.dst.proc != Par(pl.dst.proc, pr.dst.proc):
                ref_fail("RuleShape", path, "destination must combine both premise results")
            ref_check_tree(d.premises[0], extra, path + (0,))
            ref_check_tree(d.premises[1], extra, path + (1,))

        case "Close-L" | "Close-R":
            ref_premise_count(d, 2, path)
            if not isinstance(proc, Par):
                ref_fail("RuleShape", path, "source process is not a parallel composition")
            if t.action != Tau():
                ref_fail("RuleShape", path, "scope-closing communication is silent")
            if t.dst.env != env:
                ref_fail("EnvMismatch", path, "silent steps leak nothing to the observer")
            avoid, w = ref_check_cofinite_node(d, path)
            pl, pr = d.premises[0].conclusion, d.premises[1].conclusion
            extruder, receiver = (pl, pr) if d.rule == "Close-L" else (pr, pl)
            ext_proc, recv_proc = (
                (proc.left, proc.right) if d.rule == "Close-L" else (proc.right, proc.left)
            )
            if not isinstance(extruder.action, BoundOutput) or extruder.action.name != w:
                ref_fail("RuleShape", path, "extruding premise must emit the cofinite witness")
            if receiver.action != Input(extruder.action.chan, w):
                ref_fail("RuleShape", path, "receiving premise must input the extruded name")
            env_ext = env.union(free_names(recv_proc))
            env_recv = env.union(free_names(ext_proc)).union(NameSet.finite([w]))
            if extruder.src != Config(env_ext, ext_proc):
                ref_fail("EnvMismatch", path, "extruder premise environment is wrong")
            if receiver.src != Config(env_recv, recv_proc):
                ref_fail("EnvMismatch", path, "receiver premise environment must already hold the name")
            cl = pl.dst.proc.close_at(0, w)
            cr = pr.dst.proc.close_at(0, w)
            if t.dst.proc != Res(Par(cl, cr)):
                ref_fail("RuleShape", path, "destination must re-bind the extruded name over both results")
            ref_check_close_witnesses(d, extra, path)

        case "Rep":
            ref_premise_count(d, 1, path)
            if not isinstance(proc, Rep):
                ref_fail("RuleShape", path, "source process is not a replication")
            p = d.premises[0].conclusion
            want = Transition(Config(env, Par(proc.body, Rep(proc.body))), t.action, t.dst)
            if p != want:
                ref_fail("RuleShape", path, "premise must step one unfolding to the same result")
            ref_check_tree(d.premises[0], extra, path + (0,))


def ref_check_at_witness(d: Derivation, want: Transition, extra: int, path) -> None:
    # Restriction: the stored premise must match the opened template, and the
    # same must be re-derivable at further fresh witnesses (equivariance
    # evidence for the cofinite quantifier).
    p = d.premises[0]
    if p.conclusion != want:
        ref_fail("RuleShape", path, "premise does not match the opened conclusion at the witness")
    ref_check_tree(p, extra, path + (0,))
    w = d.cofinite.witness
    t = d.conclusion
    env, proc = t.src.env, t.src.proc
    for w2 in d.support().least_outside(extra) if extra else ():  # 0 on moved copies
        moved = p.perm_apply(swap(w, w2))
        want2 = Transition(
            Config(env, proc.body.open_at(0, w2)),
            t.action,
            Config(t.dst.env, t.dst.proc.body.open_at(0, w2)),
        )
        if moved.conclusion != want2:
            ref_fail("FreshnessViolated", path, f"premise is not re-derivable at fresh witness {w2!r}")
        ref_check_tree(moved, 0, path + (0,))


def ref_check_close_witnesses(d: Derivation, extra: int, path) -> None:
    ref_check_tree(d.premises[0], extra, path + (0,))
    ref_check_tree(d.premises[1], extra, path + (1,))
    w = d.cofinite.witness
    for w2 in d.support().least_outside(extra) if extra else ():  # 0 on moved copies
        sw = swap(w, w2)
        moved = Derivation(
            d.rule,
            d.conclusion,  # fixed: w and w2 are both fresh for it
            tuple(q.perm_apply(sw) for q in d.premises),
            Cofinite(d.cofinite.avoid, w2),
            d.side,
        )
        try:
            ref_check_tree(moved, 0, path)
        except CheckError as e:
            ref_fail("FreshnessViolated", path, f"premises not re-derivable at witness {w2!r}: {e}")


def check_outcome(checker, d: Derivation, extra: int) -> CheckError | None:
    try:
        checker(d, extra)
    except CheckError as e:
        return e
    return None


def readme_file_derivations(tmp_path) -> list[Derivation]:
    """The derivations in the files the README's commands write."""
    out, acts, tr, renamed = (tmp_path / f for f in ("out.json", "acts.json", "tr.json", "m.json"))
    acts.write_text('["c?y1", "(n1)y1!n1"]')
    assert cli.main(["step", "-e", "n", "new c. n!c. 0", "--deriv", str(out)]) == 0
    assert cli.main(["trace", "-e", "c", "--fuel", "2", "*( new n. c?(x). x!n. 0 )", str(acts),
                     "--deriv", str(tr)]) == 0
    assert cli.main(["rename", str(tr), "n1", "m", "--deriv", str(renamed)]) == 0
    derivs = [Derivation.from_json(e) for e in json.loads(out.read_text())]
    for trace in (tr, renamed):
        data = json.loads(trace.read_text())
        del data["names"]
        derivs += [s.deriv for s in Trace.from_json(data).steps]
    return derivs


def lemma_configs_at_fuel_2(monkeypatch) -> list[tuple[Config, int]]:
    return [(cfg, 2) for cfg in dict.fromkeys(cfg for cfg, _ in lts_lemmas_configs(monkeypatch))]


def test_walk_and_recursive_checker_accept_the_same_corpus(monkeypatch, tmp_path, capsys) -> None:
    corpus = lemma_configs_at_fuel_2(monkeypatch)
    corpus += [(cfg, fuel) for cfg in (ROADMAP_PROCESS, SERVER) for fuel in range(1, 9)]
    derivs = [d for cfg, fuel in corpus for _, d in step(cfg, fuel).results]
    derivs += readme_file_derivations(tmp_path)
    capsys.readouterr()
    assert {"Res", "Open", "Close-L", "Close-R", "Sum", "Rep"} <= {q.rule for d in derivs for q in walk(d)}
    for extra in range(4):
        for d in derivs:
            assert check_outcome(check, d, extra) is None
            assert check_outcome(ref_check, d, extra) is None


MIRRORS = {"Par-L": "Par-R", "Comm-L": "Comm-R", "Close-L": "Close-R"}
MIRRORS.update({v: k for k, v in MIRRORS.items()})


def node_mutants(q: Derivation):
    """q with one defect each: the last premise dropped, the rule swapped with
    its mirror, the witness moved into the avoid set, side data on a rule that
    takes none, and the destination environment replaced by the source's plus
    a fresh atom."""
    t = q.conclusion
    if q.premises:
        yield Derivation(q.rule, t, q.premises[:-1], q.cofinite, q.side)
    if q.rule in MIRRORS:
        yield Derivation(MIRRORS[q.rule], t, q.premises, q.cofinite, q.side)
    if q.cofinite and not q.cofinite.avoid.is_empty():
        inside = min(q.cofinite.avoid.atoms())
        yield Derivation(q.rule, t, q.premises, Cofinite(q.cofinite.avoid, inside), q.side)
    if q.rule not in REF_SIDE_RULES:
        yield Derivation(q.rule, t, q.premises, q.cofinite, 0)
    dst = Config(t.src.env.union(NameSet.finite([fresh(q.support())])), t.dst.proc)
    yield Derivation(q.rule, Transition(t.src, t.action, dst), q.premises, q.cofinite, q.side)


def mutated(d: Derivation, path: tuple[int, ...], q: Derivation) -> Derivation:
    """d with the node at path replaced by q."""
    if not path:
        return q
    i, rest = path[0], path[1:]
    premises = d.premises[:i] + (mutated(d.premises[i], rest, q),) + d.premises[i + 1:]
    return Derivation(d.rule, d.conclusion, premises, d.cofinite, d.side)


def paths(d: Derivation, path: tuple[int, ...] = ()):
    yield path, d
    for i, q in enumerate(d.premises):
        yield from paths(q, path + (i,))


def test_single_node_mutants_fail_as_in_the_recursive_checker(monkeypatch) -> None:
    corpus = lemma_configs_at_fuel_2(monkeypatch)
    corpus += [(cfg, fuel) for cfg in (ROADMAP_PROCESS, SERVER) for fuel in range(1, 4)]
    derivs = [d for cfg, fuel in corpus for _, d in step(cfg, fuel).results] + [res_example()]
    reasons = set()
    for d in derivs:
        for path, q in paths(d):
            for m in node_mutants(q):
                bad = mutated(d, path, m)
                want = check_outcome(ref_check, bad, 2)
                assert check_outcome(check, bad, 2) == want, (path, m)
                reasons.add(want and want.reason)
    assert {"RuleShape", "WitnessInL", "EnvMismatch"} <= reasons


def test_a_moved_node_still_compares_its_premises_at_the_new_witness(monkeypatch) -> None:
    # The restricted name occurs in the premise, so an unpermuted premise
    # does not match the template opened at the new witness.
    cfg = Config(fin(0), Res(Par(Out(Bound(0), Bound(0), Nil()), Inp(F(0), Nil()))))
    d = next(d for _, d in step(cfg).results if d.rule == "Res")
    check(d, 2)
    monkeypatch.setattr(lts, "apply", lambda p, x, table=None: x)  # the walk leaves the conclusions unmoved
    w2 = d.support().least_outside(1)[0]
    with pytest.raises(CheckError) as err:
        check(d, 1)
    assert err.value == CheckError("FreshnessViolated", (), f"premises not re-derivable at witness {w2!r}: "
                                   "RuleShape at root: premise does not match the opened conclusion at the witness")


def test_a_check_error_passes_through_a_context_manager() -> None:
    # Leaving a @contextmanager block by an exception sets its __traceback__.
    @contextlib.contextmanager
    def block():
        yield

    raised = CheckError("RuleShape", (0, 1), "premise does not match")
    with pytest.raises(CheckError) as err:
        with block():
            raise raised
    assert err.value is raised
    assert (err.value.reason, err.value.path, err.value.message) == ("RuleShape", (0, 1), "premise does not match")
    assert str(err.value) == "RuleShape at 0/1: premise does not match"
    assert err.value == CheckError("RuleShape", (0, 1), "premise does not match")
    assert err.value != CheckError("RuleShape", (0,), "premise does not match")
    assert hash(err.value) == hash(CheckError("RuleShape", (0, 1), "premise does not match"))


def replicated_output(unfoldings: int) -> Derivation:
    """The derivation of *(c!c.0) emitting c on c after `unfoldings` Rep/Par-R
    unfoldings: 3 + 2 * unfoldings nodes, built in a loop since _derivs recurses."""
    env, body, act = fin(0), Out(F(0), F(0), Nil()), Output(a[0], a[0])
    rep = Rep(body)
    dst = Par(Nil(), rep)
    d = Derivation("Out", Transition(Config(env, body), act, Config(env, Nil())))
    d = Derivation("Par-L", Transition(Config(env, Par(body, rep)), act, Config(env, dst)), (d,))
    d = Derivation("Rep", Transition(Config(env, rep), act, Config(env, dst)), (d,))
    for _ in range(unfoldings):
        dst = Par(body, dst)
        d = Derivation("Par-R", Transition(Config(env, Par(body, rep)), act, Config(env, dst)), (d,))
        d = Derivation("Rep", Transition(Config(env, rep), act, Config(env, dst)), (d,))
    return d


def test_check_walks_a_thousand_node_derivation() -> None:
    small = replicated_output(3)
    assert small in [d for _, d in step(Config(fin(0), Rep(Out(F(0), F(0), Nil()))), 4).results]
    deep, nodes = replicated_output(500), 1
    q = deep
    while q.premises:
        q, nodes = q.premises[0], nodes + 1
    assert nodes == 1003
    check(deep, 2)


def ref_moved(d: Derivation, w2: Atom, moves: dict) -> Derivation:
    """d re-derived at witness w2: the same conclusion, for which both
    witnesses are fresh, over the premises with the witnesses swapped.
    moves maps each permutation's pairs to apply's table for it.  The
    reference that _weaken's re-witnessing, a permutation of the whole
    node, must equal."""
    sw = swap(d.cofinite.witness, w2)
    return Derivation(d.rule, d.conclusion, apply(sw, d.premises, moves.setdefault(sw.pairs, {})),
                      Cofinite(d.cofinite.avoid, w2), d.side)


def test_moving_a_cofinite_node_permutes_it_whole() -> None:
    # _weaken re-witnesses a node by permuting it whole.  That equals
    # ref_moved, which keeps the conclusion and avoid set, since both
    # witnesses are fresh for them.
    corpus = [(rand_config(random.Random(seed)), 2) for seed in range(400)]
    corpus += [(ROADMAP_PROCESS, 6), (SERVER, 6)]
    moves = 0
    for cfg, fuel in corpus:
        for _, d in step(cfg, fuel).results:
            for q in walk(d):
                if q.cofinite:
                    for w2 in q.support().least_outside(3):
                        assert ref_moved(q, w2, {}) == q.perm_apply(swap(q.cofinite.witness, w2))
                        moves += 1
    assert moves > 400


def test_moved_copies_pass_the_guards_too(monkeypatch) -> None:
    # The checker checks a node re-witnessed at w2, guards included: they
    # pass, since the new witness lies outside the node's support, which
    # holds its avoid set and every atom of its conclusion.
    corpus = lemma_configs_at_fuel_2(monkeypatch) + [(ROADMAP_PROCESS, 6), (SERVER, 6)]
    nodes = {id(q): q for cfg, fuel in corpus for _, d in step(cfg, fuel).results for q in walk(d) if q.cofinite}
    assert {"Res", "Close-L", "Close-R"} <= {q.rule for q in nodes.values()}
    for q in nodes.values():
        for w2 in q.support().least_outside(3):
            lts._check(ref_moved(q, w2, {}), ())


def equivariance_perms(d: Derivation, rng: random.Random) -> list[Permutation]:
    """A random permutation, and for each cofinite node of d, the swaps of
    its witness with an atom of the node's support and with one outside it.
    The atoms range past those of the corpus, up to index 30 or so."""
    perms = [rand_perm(rng, 20)]
    for q in {id(q): q for q in walk(d) if q.cofinite}.values():
        w, support = q.cofinite.witness, q.support()
        perms.append(swap(w, rng.choice([x for x in support.atoms() if x != w])))
        perms.append(swap(w, rng.choice(support.least_outside(20))))
    return perms


def test_checking_is_equivariant(monkeypatch) -> None:
    # The checker does not walk the moved copies of a cofinite node's
    # premises, since every test it makes is equivariant: a moved derivation
    # passes or fails as its original does, at the same path.
    rng = random.Random(18)
    corpus = lemma_configs_at_fuel_2(monkeypatch)
    corpus += [(cfg, fuel) for cfg in (ROADMAP_PROCESS, SERVER) for fuel in range(1, 7)]
    derivs = list(dict.fromkeys(d for cfg, fuel in corpus for _, d in step(cfg, fuel).results))
    swaps = failures = 0
    for d in derivs:
        perms = equivariance_perms(d, rng)
        swaps += len(perms) - 1
        for p in perms:
            moved = apply(p, d)
            for extra in range(4):
                check(moved, extra)
        for path, q in paths(d):
            for m in node_mutants(q):
                bad = mutated(d, path, m)
                want = check_outcome(check, bad, 2)
                got = check_outcome(check, apply(rng.choice(perms), bad), 2)
                assert (got and (got.reason, got.path)) == (want and (want.reason, want.path)), (path, m)
                failures += want is not None
    assert swaps > 100 and failures > 3000


# ------------- the share-aware walk -------------


class ValueKeys:
    """One canonical object per derivation value met, found once per object:
    a node's key is its rule, its conclusion's canonical object, its
    premises' keys, its cofinite record and its side data."""

    def __init__(self) -> None:
        self.canon: dict = {}
        self.keys: dict = {}  # id(node) -> (node, canonical node)

    def __call__(self, d: Derivation) -> Derivation:
        found = self.keys.get(id(d))
        if found is None:
            t = self.canon.setdefault(d.conclusion, d.conclusion)
            parts = (d.rule, id(t), tuple(id(self(q)) for q in d.premises), d.cofinite, d.side)
            found = self.keys[id(d)] = d, self.canon.setdefault(parts, d)
        return found[1]


def checked_nodes(monkeypatch, run, keys: ValueKeys) -> tuple[set, int]:
    """The distinct node values run() hands to _check, as canonical node
    ids, and the number of _check calls it makes."""
    seen = set()
    calls = 0
    real = lts._check

    def recording(d, path):
        nonlocal calls
        calls += 1
        seen.add(id(keys(d)))
        real(d, path)

    with monkeypatch.context() as m:
        m.setattr(lts, "_check", recording)
        run()
    return seen, calls


def test_the_shared_walk_checks_what_a_table_that_never_stores_checks(monkeypatch) -> None:
    corpus = lemma_configs_at_fuel_2(monkeypatch)
    corpus += [(cfg, fuel) for cfg in (ROADMAP_PROCESS, SERVER) for fuel in range(1, 13)]
    # Each distinct derivation once: more fuel mostly repeats those of less.
    derivs = list(dict.fromkeys(d for cfg, fuel in corpus for _, d in step(cfg, fuel).results))
    keys = ValueKeys()
    for extra in range(4):
        plain, plain_calls = checked_nodes(
            monkeypatch, lambda: [lts._walk(d, extra, NeverStores(), {}) for d in derivs], keys)
        shared, shared_calls = checked_nodes(monkeypatch, lambda: list(lts.check_each(derivs, extra)), keys)
        assert shared == plain
        assert shared_calls < plain_calls


def test_single_node_mutants_after_their_original_fail_as_in_the_recursive_checker(monkeypatch) -> None:
    # The original's nodes fill the table first; the mutant shares every
    # node but the mutated one and its ancestors.
    corpus = lemma_configs_at_fuel_2(monkeypatch)
    corpus += [(cfg, fuel) for cfg in (ROADMAP_PROCESS, SERVER) for fuel in range(1, 4)]
    derivs = [d for cfg, fuel in corpus for _, d in step(cfg, fuel).results] + [res_example()]
    count = 0
    for d in derivs:
        for path, q in paths(d):
            for m in node_mutants(q):
                bad = mutated(d, path, m)
                want = check_outcome(ref_check, bad, 2)
                assert check_outcome(lambda x, k: list(lts.check_each([d, x], k)), bad, 2) == want, (path, m)
                count += want is not None
    assert count > 1000


def restricted(d: Derivation) -> Derivation:
    """d under a restriction its processes do not use: a Res node at the
    least atom outside d's support."""
    t = d.conclusion
    w = fresh(d.support())
    src = Config(t.src.env, Res(t.src.proc.close_at(0, w)))
    dst = Config(t.dst.env, Res(t.dst.proc.close_at(0, w)))
    avoid = union_all(t.src.env, free_names(t.src.proc))
    return Derivation("Res", Transition(src, t.action, dst), (d,), Cofinite(avoid, w))


@pytest.mark.parametrize("unfoldings", [300, 500])
def test_a_restriction_over_a_long_chain_checks_and_weakens(unfoldings) -> None:
    # 603 and 1003 Rep/Par-R nodes under one Res node: checking it at extra
    # witnesses moves only the chain's top conclusion, and weakening walks it.
    d = restricted(replicated_output(unfoldings))
    check(d, 2)
    out = weaken(d, fin(5))
    assert out.conclusion.src.env == fin(0, 5) and out.cofinite == Cofinite(fin(0, 5), a[1])
    q = out
    while q.premises:
        q = q.premises[0]
    assert q.conclusion.dst.env == fin(0, 5)


def test_weaken_re_witnesses_a_restriction_over_a_long_chain() -> None:
    d = restricted(replicated_output(300))
    out = weaken(d, fin(1))  # the witness itself: the Res node moves the chain to a2
    assert out.cofinite == Cofinite(fin(0, 1), a[2])
    assert out.premises[0].conclusion.src.env == fin(0, 1)


def test_the_mover_keeps_sharing_and_moves_each_node_once() -> None:
    d = open_example()
    twice = Derivation("Comm-L", d.conclusion, (d, d))
    sw = swap(a[0], a[9])
    table: dict = {}
    out = apply(sw, twice, table)
    assert out == ref_derivation_perm(twice, sw)
    assert out.premises[0] is out.premises[1]
    assert apply(sw, d, table) is out.premises[0]
    assert len([k for k in table if k in (id(d), id(twice))]) == 2


def test_derivations_inherit_the_generic_action_and_support() -> None:
    # Derivation declares neither method: PermValue's, over permtypes' walks, serve it.
    assert "perm_apply" not in vars(Derivation) and "support" not in vars(Derivation)
    d = open_example()
    twice = Derivation("Comm-L", d.conclusion, (d, d))
    sw = swap(a[0], a[9])
    moved = twice.perm_apply(sw)
    assert moved == ref_derivation_perm(twice, sw)
    assert moved.premises[0] is moved.premises[1]
    assert twice.support() == supp(twice) == recursive_support(twice)
    # Moved to another witness, a cofinite node's two premises that are one object stay one object.
    q = Derivation("Close-L", d.conclusion, (d, d), Cofinite(fin(0), a[5]))
    rewitnessed = apply(swap(a[5], a[7]), q, {})
    assert rewitnessed.premises[0] is rewitnessed.premises[1]
    assert rewitnessed.premises[0] == ref_derivation_perm(d, swap(a[5], a[7]))


# ------------- weakening -------------


def test_weaken_extends_every_environment() -> None:
    t, d = only(step(Config(fin(0), Out(F(0), F(1), Nil()))))
    out = weaken(d, fin(5), extra_witnesses=2)
    assert out.conclusion.src.env == fin(0, 5)
    assert out.conclusion.dst.env == fin(0, 1, 5)
    assert out.conclusion.action == t.action
    check(out, extra_witnesses=3)


def test_weaken_reaches_the_premises() -> None:
    d = only(step(Config(NameSet.empty(), Par(Out(F(0), F(1), Nil()), Inp(F(0), Nil())))))[1]
    assert d.rule == "Comm-L"
    out = weaken(d, fin(7))
    assert out.premises[0].conclusion.src.env == fin(0, 7)
    assert out.premises[1].conclusion.src.env == fin(0, 1, 7)


def test_weaken_rejects_environments_containing_the_extrusion() -> None:
    d = open_example()
    extruded = d.conclusion.action.name
    with pytest.raises(ExtrusionClash):
        weaken(d, NameSet.finite([extruded]))


def test_weaken_renames_clashing_internal_witnesses() -> None:
    d = only(step(Config(NameSet.empty(), Par(Res(Out(F(0), Bound(0), Nil())), Inp(F(0), Nil())))))[1]
    assert d.rule == "Close-L" and d.cofinite.witness == a[1]
    # a1 is internal to the derivation, so weakening by {a1} must move it
    out = weaken(d, fin(1), extra_witnesses=2)
    assert out.cofinite.witness != a[1]
    assert out.conclusion.src.env == fin(1)
    check(out, extra_witnesses=2)


def test_weaken_requires_a_finite_environment() -> None:
    d = res_example()
    with pytest.raises(ValueError):
        weaken(d, NameSet.periodic(2, [1]))


def test_weaken_by_nothing_changes_only_nothing() -> None:
    d = res_example()
    out = weaken(d, NameSet.empty())
    assert out == d


def ref_weaken(d: Derivation, xe: NameSet) -> Derivation:
    """_weaken as it recursed before it walked with an explicit stack."""
    if d.cofinite and xe.member(d.cofinite.witness):
        w2 = fresh(d.support().union(xe))
        sw = swap(d.cofinite.witness, w2)
        d = Derivation(d.rule, d.conclusion, tuple(ref_derivation_perm(q, sw) for q in d.premises),
                       Cofinite(d.cofinite.avoid, w2), d.side)
    t = d.conclusion
    concl = Transition(
        Config(t.src.env.union(xe), t.src.proc), t.action, Config(t.dst.env.union(xe), t.dst.proc)
    )
    cof = Cofinite(d.cofinite.avoid.union(xe), d.cofinite.witness) if d.cofinite else None
    return Derivation(d.rule, concl, tuple(ref_weaken(p, xe) for p in d.premises), cof, d.side)


def test_weaken_walk_matches_the_recursive_one(monkeypatch) -> None:
    corpus = lemma_configs_at_fuel_2(monkeypatch) + [(ROADMAP_PROCESS, 6), (SERVER, 6)]
    corpus += [(rand_config(random.Random(seed)), 2) for seed in range(200)]
    derivs = [d for cfg, fuel in corpus for _, d in step(cfg, fuel).results]
    clashes = 0
    for d in derivs:
        witnesses = [q.cofinite.witness for q in walk(d) if q.cofinite]
        for xe in [fin(11), NameSet.finite([fresh(d.support())]), NameSet.finite(witnesses)]:
            assert lts._weaken(d, xe) == ref_weaken(d, xe), (d, xe)
        clashes += bool(witnesses)
    assert clashes > 100
    # Two premises that are one object stay one object.
    d = res_example()
    twice = Derivation("Comm-L", d.conclusion, (d, d))
    for xe in [fin(11), NameSet.finite([d.cofinite.witness])]:
        out = lts._weaken(twice, xe)
        assert out == ref_weaken(twice, xe)
        assert out.premises[0] is out.premises[1]


def test_weaken_keeps_shared_premises_shared() -> None:
    d = res_example()
    twice = Derivation("Comm-L", d.conclusion, (d, d))
    out = lts._weaken(twice, NameSet.finite([d.cofinite.witness]))
    assert out.premises[0] is out.premises[1]
    assert out.premises[0] == ref_weaken(d, NameSet.finite([d.cofinite.witness]))


# ------------- replay -------------


def test_replay_follows_exact_actions() -> None:
    start = Config(fin(0), Out(F(0), F(1), Out(F(1), F(0), Nil())))
    tr = replay(start, [Output(a[0], a[1]), Output(a[1], a[0])])
    assert tr.start == start
    assert [s.action for s in tr.steps] == [Output(a[0], a[1]), Output(a[1], a[0])]
    assert tr.steps[-1].config == Config(fin(0, 1), Nil())


def test_replay_with_no_actions_is_the_start() -> None:
    start = Config(fin(0), Nil())
    assert replay(start, []) == Trace(start, ())


def test_replay_repairs_fresh_names_by_renaming() -> None:
    # the enumerator offers c?x1; asking for c?x9 succeeds because both
    # names are fresh and the transitions differ only by a swap
    start = Config(fin(0), Inp(F(0), Out(Bound(0), Bound(0), Nil())))
    tr = replay(start, [Input(a[0], a[9])])
    s = tr.steps[0]
    assert s.action == Input(a[0], a[9])
    assert s.config == Config(fin(0, 9), Out(F(9), F(9), Nil()))
    check(s.deriv)


def test_replay_does_not_repair_known_names() -> None:
    # a8 known to the observer: the request must match exactly, and cannot
    start = Config(fin(0, 8), Res(Out(F(0), Bound(0), Nil())))
    with pytest.raises(NoSuchTransition) as err:
        replay(start, [BoundOutput(a[0], a[8])])
    assert err.value.index == 0


def test_replay_failure_reports_the_step_index() -> None:
    start = Config(fin(0), Out(F(0), F(1), Nil()))
    with pytest.raises(NoSuchTransition) as err:
        replay(start, [Output(a[0], a[1]), Output(a[0], a[1])])
    assert err.value.index == 1


def test_replay_prefers_the_smallest_destination() -> None:
    # both components can emit c!c; the tie on destination size breaks
    # toward the nil-headed result, deterministically
    t = Par(Out(F(0), F(0), Nil()), Out(F(0), F(0), Out(F(0), F(0), Nil())))
    tr = replay(Config(fin(0), t), [Output(a[0], a[0])])
    assert tr.steps[0].config.proc == Par(Nil(), Out(F(0), F(0), Out(F(0), F(0), Nil())))
    assert tr.steps[0].deriv.rule == "Par-L"


# ------------- trace renaming -------------


def trace_example() -> Trace:
    start = Config(fin(0), Inp(F(0), Out(Bound(0), Bound(0), Nil())))
    return replay(start, [Input(a[0], a[1]), Output(a[1], a[1])])


def test_rename_trace_swaps_fresh_names_throughout() -> None:
    tr = trace_example()
    out = rename_trace(tr, a[1], a[6], extra_witnesses=2)
    assert out.start == tr.start
    assert [s.action for s in out.steps] == [Input(a[0], a[6]), Output(a[6], a[6])]
    assert out.steps[0].config == Config(fin(0, 6), Out(F(6), F(6), Nil()))


def test_rename_trace_requires_both_atoms_fresh_at_start() -> None:
    tr = trace_example()
    with pytest.raises(NotFreshAtStart):
        rename_trace(tr, a[0], a[6])
    with pytest.raises(NotFreshAtStart):
        rename_trace(tr, a[6], a[0])


def test_rename_trace_identity_is_a_no_op() -> None:
    tr = trace_example()
    # even a non-fresh atom is fine when nothing actually changes
    assert rename_trace(tr, a[0], a[0]) == tr


# ------------- serialization -------------


def test_transition_json_round_trip() -> None:
    t, _ = only(step(Config(fin(0), Out(F(0), F(1), Nil()))))
    assert Transition.from_json(t.to_json()) == t


def test_derivation_json_round_trip_keeps_witness_records() -> None:
    for d in (res_example(), open_example()):
        data = d.to_json()
        assert Derivation.from_json(data) == d
        # byte-stable under dump/parse/dump
        once = json.dumps(data, sort_keys=True)
        assert json.dumps(json.loads(once), sort_keys=True) == once


def test_trace_json_round_trip() -> None:
    tr = trace_example()
    assert Trace.from_json(tr.to_json()) == tr


# ------------- the freshness counterexample -------------


def test_extrusion_turns_a_fresh_name_free() -> None:
    ce = extrusion_counterexample()
    assert is_fresh(ce.atom, ce.config.proc)
    assert isinstance(ce.transition.action, BoundOutput)
    assert ce.transition.action.name == ce.atom
    assert free_names(ce.transition.dst.proc).member(ce.atom)
    check(ce.derivation, extra_witnesses=2)
