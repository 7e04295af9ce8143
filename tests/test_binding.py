import random

import pytest

from lnpi.atoms import Atom
from lnpi.binding import close_at, lc, lc_at, lc_cofinite, open_at
from lnpi.gen import rand_open_term, rand_term
from lnpi.permtypes import FiniteTermSet, IndexedFamily
from lnpi.pisyntax import Bound, Free, Inp, Nil, Out, Res

a = [Atom(i) for i in range(10)]


# ------------- dispatch across value shapes -------------


def test_open_close_on_names() -> None:
    assert open_at(0, a[3], Bound(0)) == Free(a[3])
    assert open_at(0, a[3], Bound(1)) == Bound(1)
    assert close_at(0, a[3], Free(a[3])) == Bound(0)
    assert close_at(0, a[3], Free(a[4])) == Free(a[4])


def test_open_close_are_pointwise_on_tuples_and_lists() -> None:
    t = (Bound(0), [Free(a[1]), Bound(2)])
    assert open_at(0, a[5], t) == (Free(a[5]), [Free(a[1]), Bound(2)])
    assert close_at(0, a[1], t) == (Bound(0), [Bound(0), Bound(2)])


def test_containers_do_not_shift_the_level() -> None:
    # only Inp/Res bodies shift; a family is a plain container
    f = IndexedFamily((Bound(1),), Bound(0))
    assert open_at(1, a[2], f) == IndexedFamily((Free(a[2]),), Bound(0))
    assert open_at(0, a[2], f) == IndexedFamily((Bound(1),), Free(a[2]))


def test_binding_rejects_unknown_types() -> None:
    with pytest.raises(TypeError):
        open_at(0, a[0], 42)
    with pytest.raises(TypeError):
        lc_at(0, "zap")


# ------------- local closure levels -------------


def test_lc_at_counts_dangling_levels() -> None:
    assert lc_at(1, Bound(0))
    assert not lc_at(1, Bound(1))
    assert lc_at(0, Free(a[0]))
    assert lc(Free(a[0]))
    assert not lc(Bound(0))


def test_lc_at_on_containers_is_the_conjunction() -> None:
    assert lc_at(2, (Bound(0), [Bound(1)]))
    assert not lc_at(2, (Bound(0), [Bound(2)]))
    assert lc_at(1, FiniteTermSet.of([Bound(0)]))
    assert not lc_at(0, FiniteTermSet.of([Bound(0)]))


def test_opening_lowers_the_required_level() -> None:
    # one dangling index at level 0: opening it yields a closed value
    t = (Bound(0), Free(a[1]))
    assert not lc(t)
    assert lc(open_at(0, a[2], t))


# ------------- inductive vs level-indexed local closure -------------


def test_lc_cofinite_agrees_with_lc_on_terms() -> None:
    rng = random.Random(31)
    for _ in range(400):
        t = rand_term(rng) if rng.random() < 0.5 else rand_open_term(rng)
        assert lc_cofinite(t) == lc(t)


def test_lc_cofinite_handles_plain_containers() -> None:
    closed = Res(Out(Free(a[0]), Bound(0), Nil()))
    assert lc_cofinite((closed, [closed]))
    assert lc_cofinite(IndexedFamily((closed,), Nil()))
    assert lc_cofinite(FiniteTermSet.of([closed]))
    assert not lc_cofinite((Out(Bound(0), Free(a[0]), Nil()),))


def test_lc_cofinite_sees_through_binders() -> None:
    # new c. c?(x). x!c. 0 is closed; dropping the Res leaves a dangling index
    t = Res(Inp(Bound(0), Out(Bound(0), Bound(1), Nil())))
    assert lc_cofinite(t)
    assert not lc_cofinite(t.body)
