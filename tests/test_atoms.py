import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lnpi.atoms import Atom, Permutation, _bijection, compose, identity, swap
from lnpi.gen import rand_perm


# ------------- Atoms: construction and ordering -------------


def test_atom_is_ordered_by_index() -> None:
    assert Atom(0) < Atom(1) < Atom(5)
    assert Atom(3) == Atom(3)


def test_atom_rejects_negative_index() -> None:
    with pytest.raises(ValueError):
        Atom(-1)


def test_atom_repr_is_compact() -> None:
    assert repr(Atom(7)) == "a7"


def test_atom_support_is_the_singleton() -> None:
    assert Atom(4).support().atoms() == (Atom(4),)


# ------------- Permutations: canonical form -------------


def test_identity_has_no_pairs() -> None:
    assert identity().pairs == ()


def test_self_maps_are_dropped() -> None:
    # (3 3) records nothing; (1 2)(2 1) stays
    assert Permutation(((3, 3),)) == identity()
    assert Permutation(((2, 1), (1, 2), (5, 5))).pairs == ((1, 2), (2, 1))


def test_pairs_are_sorted_by_source() -> None:
    p = Permutation(((9, 4), (4, 9), (1, 2), (2, 1)))
    assert p.pairs == ((1, 2), (2, 1), (4, 9), (9, 4))


def test_non_injective_mapping_is_rejected() -> None:
    with pytest.raises(ValueError):
        Permutation(((1, 3), (2, 3)))


def test_non_bijective_mapping_is_rejected() -> None:
    # 1 -> 2 alone never closes into a finite bijection
    with pytest.raises(ValueError):
        Permutation(((1, 2),))


# ------------- Application, inverse, composition -------------


def test_swap_exchanges_exactly_its_two_atoms() -> None:
    s = swap(Atom(0), Atom(1))
    assert s(Atom(0)) == Atom(1)
    assert s(Atom(1)) == Atom(0)
    assert s(Atom(2)) == Atom(2)


def test_perm_apply_function_matches_call() -> None:
    s = swap(Atom(2), Atom(5))
    assert Atom(2).perm_apply(s) == s(Atom(2)) == Atom(5)


def test_compose_applies_right_factor_first() -> None:
    # compose(p1, p2)(a) = p1(p2(a)): a2 -(1 2)-> a1 -(0 1)-> a0
    p = compose(swap(Atom(0), Atom(1)), swap(Atom(1), Atom(2)))
    assert p(Atom(2)) == Atom(0)
    assert p(Atom(1)) == Atom(2)
    assert p(Atom(0)) == Atom(1)


def test_compose_with_inverse_is_identity() -> None:
    p = compose(swap(Atom(0), Atom(1)), swap(Atom(1), Atom(2)))
    assert compose(p, p.inverse()) == identity()
    assert compose(p.inverse(), p) == identity()


def test_swap_is_its_own_inverse() -> None:
    s = swap(Atom(3), Atom(8))
    assert s.inverse() == s
    assert compose(s, s) == identity()


def test_moved_lists_the_disturbed_atoms() -> None:
    p = compose(swap(Atom(0), Atom(1)), swap(Atom(4), Atom(7)))
    assert p.moved() == (Atom(0), Atom(1), Atom(4), Atom(7))
    assert p.support().atoms() == p.moved()


# ------------- Permutations acting on permutations -------------


def test_action_on_permutations_is_conjugation() -> None:
    # Conjugating the swap (0 1) by (0 2) relabels 0 as 2: result is (2 1).
    conj = swap(Atom(0), Atom(1)).perm_apply(swap(Atom(0), Atom(2)))
    assert conj == swap(Atom(2), Atom(1))
    assert conj.pairs == ((1, 2), (2, 1))


def test_conjugation_by_disjoint_swap_changes_nothing() -> None:
    s = swap(Atom(0), Atom(1))
    assert s.perm_apply(swap(Atom(5), Atom(6))) == s


# ------------- Cycle notation -------------


def test_cycles_of_a_swap() -> None:
    assert swap(Atom(1), Atom(4)).cycles() == [[1, 4]]


def test_cycles_start_at_least_index_and_are_disjoint() -> None:
    # (0 1 2) as a mapping: 0->1, 1->2, 2->0, plus the swap (5 7)
    p = Permutation.from_cycles([[0, 1, 2], [7, 5]])
    assert p(Atom(0)) == Atom(1)
    assert p(Atom(2)) == Atom(0)
    assert p.cycles() == [[0, 1, 2], [5, 7]]


def test_from_cycles_round_trips_through_cycles() -> None:
    rng = random.Random(7)
    for _ in range(200):
        p = identity()
        for _ in range(rng.randrange(4)):
            i, j = rng.sample(range(10), 2)
            p = compose(p, swap(Atom(i), Atom(j)))
        assert Permutation.from_cycles(p.cycles()) == p


def test_singleton_cycle_is_the_identity() -> None:
    assert Permutation.from_cycles([[3]]) == identity()


@pytest.mark.parametrize("cycles", [[[0, 1], [1, 2]], [[0, 1, 0]], [[4, 4]]], ids=["across", "within", "self"])
def test_from_cycles_rejects_an_index_that_occurs_twice(cycles) -> None:
    with pytest.raises(ValueError, match="occurs twice"):
        Permutation.from_cycles(cycles)


def test_the_boundaries_check_what_the_operations_do_not() -> None:
    # swap, inverse, compose and conjugation build their results unchecked;
    # the public constructor and from_cycles still reject what is no bijection.
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(((1, 2),))
    with pytest.raises(ValueError, match="occurs twice"):
        Permutation.from_cycles([[1, 2], [2, 3]])


# ------------- Group laws (randomized) -------------


@st.composite
def permutations(draw) -> Permutation:
    p = identity()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, 9))
        j = draw(st.integers(0, 9))
        if i != j:
            p = compose(p, swap(Atom(i), Atom(j)))
    return p


@given(permutations(), permutations(), st.integers(0, 9))
def test_composition_is_pointwise(p1: Permutation, p2: Permutation, i: int) -> None:
    assert compose(p1, p2)(Atom(i)) == p1(p2(Atom(i)))


@given(permutations(), permutations(), permutations())
def test_composition_is_associative(p1, p2, p3) -> None:
    assert compose(compose(p1, p2), p3) == compose(p1, compose(p2, p3))


@given(permutations())
def test_identity_is_neutral(p: Permutation) -> None:
    assert compose(p, identity()) == p
    assert compose(identity(), p) == p


# ------------- The operations against their checked definitions -------------
# The definitions from before a permutation stored its mapping: a linear scan
# for application, atom-wise composition, conjugation by two compositions and
# an inverse, every result built by the public, checked constructor.


def ref_call(p: Permutation, a: Atom) -> Atom:
    for s, t in p.pairs:
        if s == a.index:
            return Atom(t)
    return a


def ref_swap(a: Atom, b: Atom) -> Permutation:
    return Permutation(((a.index, b.index), (b.index, a.index)))


def ref_inverse(p: Permutation) -> Permutation:
    return Permutation(tuple((t, s) for s, t in p.pairs))


def ref_compose(p1: Permutation, p2: Permutation) -> Permutation:
    carrier = {s for s, _ in p1.pairs} | {s for s, _ in p2.pairs}
    return Permutation(tuple((s, ref_call(p1, ref_call(p2, Atom(s))).index) for s in carrier))


def ref_conjugate(sigma: Permutation, p: Permutation) -> Permutation:
    return ref_compose(p, ref_compose(sigma, ref_inverse(p)))


def assert_same(new: Permutation, ref: Permutation) -> None:
    assert new == ref
    assert hash(new) == hash(ref)
    assert repr(new) == repr(ref)
    assert new.pairs == ref.pairs
    assert new.mapping == dict(ref.pairs)


# A shuffle of a few indices, built by the checked constructor: often the
# identity or a swap, sometimes with fixed points among its pairs.
shuffles = st.lists(st.integers(0, 12), unique=True, max_size=6).flatmap(
    lambda xs: st.permutations(xs).map(lambda ys: dict(zip(xs, ys)))
)
checked = st.one_of(
    st.just(identity()),
    st.just(ref_swap(Atom(3), Atom(3))),
    shuffles.map(lambda m: Permutation(tuple(m.items()))),
)


def test_swap_matches_the_checked_definition() -> None:
    for i, j in itertools.product(range(5), repeat=2):
        assert_same(swap(Atom(i), Atom(j)), ref_swap(Atom(i), Atom(j)))
    assert swap(Atom(2), Atom(2)) == identity()


@given(checked, checked, st.integers(0, 14))
def test_operations_match_their_checked_definitions(p: Permutation, q: Permutation, i: int) -> None:
    assert p(Atom(i)) == ref_call(p, Atom(i))
    assert_same(p.inverse(), ref_inverse(p))
    assert_same(compose(p, q), ref_compose(p, q))
    assert_same(q.perm_apply(p), ref_conjugate(q, p))


@given(shuffles)
def test_the_unchecked_constructor_builds_what_the_checked_one_does(mapping: dict) -> None:
    assert_same(_bijection(mapping), Permutation(tuple(mapping.items())))


def test_conjugation_returns_the_permutation_that_p_fixes() -> None:
    # The fast path against the plain conjugation p . q . p^-1: a p that moves
    # none of q's atoms hands q back itself.
    rng = random.Random(17)
    kept = 0
    for _ in range(3000):
        p, q = rand_perm(rng, hi=14), rand_perm(rng, hi=14)
        got = q.perm_apply(p)
        assert_same(got, compose(p, compose(q, p.inverse())))
        fixed = not set(p.mapping) & set(q.mapping)
        assert (got is q) == fixed, (p, q)
        kept += fixed
    assert 300 < kept < 2700
