import random

import pytest

from lnpi.atoms import Atom, swap
from lnpi.gen import rand_term
from lnpi.namesets import NameSet
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
    free_names,
    name_from_json,
    par_factors,
    term_from_json,
    term_key,
    term_lc,
    term_size,
    term_to_json,
)

a = [Atom(i) for i in range(10)]

# new c. n!c. 0  with n = a0
EXTRUDER = Res(Out(Free(a[0]), Bound(0), Nil()))
# c?(x). x!m. 0  with c = a0, m = a1
FORWARDER = Inp(Free(a[0]), Out(Bound(0), Free(a[1]), Nil()))


def sum_of(*entries: object) -> Sum:
    return Sum(IndexedFamily(tuple(entries), Nil()))


# ------------- opening and closing shift under binders -------------


def test_open_shifts_level_under_input_binder() -> None:
    # the Inp binder occupies level 0 inside its body, so an outer level 0
    # index appears as level 1 there
    t = Inp(Free(a[0]), Out(Bound(1), Bound(0), Nil()))
    got = t.open_at(0, a[5])
    assert got == Inp(Free(a[0]), Out(Free(a[5]), Bound(0), Nil()))


def test_open_shifts_level_under_restriction() -> None:
    t = Res(Out(Bound(1), Bound(0), Nil()))
    assert t.open_at(0, a[5]) == Res(Out(Free(a[5]), Bound(0), Nil()))


def test_open_leaves_unrelated_levels_alone() -> None:
    t = Par(Out(Bound(0), Bound(2), Nil()), Nil())
    got = t.open_at(0, a[3])
    assert got == Par(Out(Free(a[3]), Bound(2), Nil()), Nil())


def test_close_is_the_mirror_of_open() -> None:
    t = Inp(Free(a[2]), Out(Bound(0), Free(a[2]), Nil()))
    # closing a2 at level 0: the Inp channel becomes Bound(0); under the
    # binder the same atom becomes Bound(1)
    assert t.close_at(0, a[2]) == Inp(Bound(0), Out(Bound(0), Bound(1), Nil()))


def test_open_then_close_on_the_extruder() -> None:
    opened = EXTRUDER.body.open_at(0, a[7])
    assert opened == Out(Free(a[0]), Free(a[7]), Nil())
    assert opened.close_at(0, a[7]) == EXTRUDER.body


def test_replication_does_not_bind() -> None:
    t = Rep(Out(Bound(0), Bound(0), Nil()))
    assert t.open_at(0, a[1]) == Rep(Out(Free(a[1]), Free(a[1]), Nil()))


def test_sum_entries_open_pointwise_without_shift() -> None:
    t = sum_of(Out(Bound(0), Bound(0), Nil()))
    got = t.open_at(0, a[2])
    assert got == sum_of(Out(Free(a[2]), Free(a[2]), Nil()))
    # An entry that opening or closing makes equal to the default is dropped.
    done, dangling = Out(Free(a[2]), Free(a[2]), Nil()), Out(Bound(0), Bound(0), Nil())
    opened = Sum(IndexedFamily((Out(Bound(0), Free(a[2]), Nil()),), done)).open_at(0, a[2])
    assert opened.procs.entries == () and opened == Sum(IndexedFamily((), done))
    closed = Sum(IndexedFamily((done,), Out(Bound(0), Free(a[2]), Nil()))).close_at(0, a[2])
    assert closed.procs.entries == () and closed == Sum(IndexedFamily((), dangling))


# ------------- local closure -------------


def test_extruder_is_locally_closed() -> None:
    assert EXTRUDER.lc_at(0)
    assert term_lc(EXTRUDER)
    assert FORWARDER.lc_at(0)
    assert term_lc(FORWARDER)


def test_dangling_index_is_not_locally_closed() -> None:
    t = Out(Bound(0), Free(a[0]), Nil())
    assert not t.lc_at(0)
    assert t.lc_at(1)
    assert not term_lc(t)


def test_inductive_lc_requires_free_prefix_subjects() -> None:
    # a bound channel in subject position can be lc_at(1) but never lc
    t = Inp(Bound(0), Nil())
    assert t.lc_at(1)
    assert not term_lc(t)


def test_inductive_and_level_lc_agree_on_random_terms() -> None:
    rng = random.Random(37)
    for _ in range(300):
        t = rand_term(rng)
        assert term_lc(t) == t.lc_at(0)


# ------------- alpha-canonicity: one tree per alpha-class -------------


def test_alpha_equivalent_sources_build_equal_trees() -> None:
    # new c. n!c. 0 written with witness a5 or witness a7: closing either
    # way yields the same tree
    body5 = Out(Free(a[0]), Free(a[5]), Nil())
    body7 = Out(Free(a[0]), Free(a[7]), Nil())
    assert Res(body5.close_at(0, a[5])) == Res(body7.close_at(0, a[7])) == EXTRUDER


# ------------- free names, size, factors -------------


def test_free_names_collects_only_free_occurrences() -> None:
    assert free_names(EXTRUDER) == NameSet.finite([a[0]])
    assert free_names(FORWARDER) == NameSet.finite([a[0], a[1]])
    assert free_names(Nil()) == NameSet.empty()


def test_free_names_of_sum_includes_the_default() -> None:
    t = Sum(IndexedFamily((Out(Free(a[2]), Free(a[2]), Nil()),), Out(Free(a[4]), Free(a[4]), Nil())))
    assert free_names(t) == NameSet.finite([a[2], a[4]])


def test_term_size_counts_constructors() -> None:
    assert term_size(Nil()) == 1
    # Res + Out + Nil
    assert term_size(EXTRUDER) == 3
    assert term_size(Par(Nil(), Nil())) == 3


def test_par_factors_flattens_nested_parallel() -> None:
    t = Par(Par(Nil(), EXTRUDER), Par(FORWARDER, Nil()))
    assert par_factors(t) == [Nil(), EXTRUDER, FORWARDER, Nil()]
    assert par_factors(EXTRUDER) == [EXTRUDER]


# ------------- permutation action and support -------------


def test_action_renames_free_atoms_only() -> None:
    got = EXTRUDER.perm_apply(swap(a[0], a[3]))
    assert got == Res(Out(Free(a[3]), Bound(0), Nil()))


def test_support_is_free_names() -> None:
    rng = random.Random(41)
    for _ in range(200):
        t = rand_term(rng)
        assert t.support() == free_names(t)


# ------------- a total order on terms -------------


def test_term_key_orders_constructors_and_contents() -> None:
    ts = [EXTRUDER, Nil(), FORWARDER, Par(Nil(), Nil())]
    ordered = sorted(ts, key=term_key)
    assert set(map(term_key, ts)) == set(map(term_key, ordered))
    assert sorted(map(term_key, ts)) == list(map(term_key, ordered))


def test_term_key_distinguishes_free_and_bound() -> None:
    assert term_key(Out(Free(a[0]), Free(a[0]), Nil())) != term_key(Out(Free(a[0]), Bound(0), Nil()))


# ------------- JSON -------------


def test_json_round_trip_on_fixed_terms() -> None:
    for t in (Nil(), EXTRUDER, FORWARDER, Rep(Par(EXTRUDER, Nil())), sum_of(Nil(), FORWARDER)):
        assert term_from_json(term_to_json(t)) == t


def test_json_round_trip_on_random_terms() -> None:
    rng = random.Random(43)
    for _ in range(200):
        t = rand_term(rng)
        assert term_from_json(term_to_json(t)) == t


def test_json_tags_are_stable() -> None:
    data = term_to_json(EXTRUDER)
    assert data["tag"] == "res"
    assert data["body"]["tag"] == "out"


def test_json_rejects_unknown_tags() -> None:
    with pytest.raises((KeyError, ValueError)):
        term_from_json({"tag": "bang"})


@pytest.mark.parametrize(
    "data",
    [{}, {"bound": -1}, {"bound": "x"}, {"free": True}, {"free": 1, "bound": 0}, {"atom": 1}, [0]],
)
def test_name_json_needs_exactly_one_natural_field(data) -> None:
    with pytest.raises(ValueError):
        name_from_json(data)
