import random
import time

import pytest

from lnpi.atoms import Atom, compose, identity, swap
from lnpi.binding import close_at, lc_at, lc_cofinite, open_at
from lnpi.gen import rand_atom, rand_family, rand_nameset, rand_open_term, rand_perm
from lnpi.namesets import NameSet, union_all
from lnpi.permtypes import FiniteTermSet, IndexedFamily, PermValue, apply, is_fresh, supp
from lnpi.pisyntax import Bound, Free, Inp, Nil, Out

a = [Atom(i) for i in range(10)]


# ------------- the generic action -------------


def test_apply_delegates_to_perm_apply_methods() -> None:
    assert apply(swap(a[0], a[1]), a[0]) == a[1]
    s = NameSet.finite([a[0]])
    assert apply(swap(a[0], a[1]), s) == NameSet.finite([a[1]])


def test_apply_is_pointwise_on_pairs_and_lists() -> None:
    p = swap(a[0], a[1])
    assert apply(p, (a[0], a[2])) == (a[1], a[2])
    assert apply(p, [a[0], [a[1]]]) == [a[1], [a[0]]]


def test_primitives_carry_the_trivial_action() -> None:
    p = swap(a[0], a[1])
    assert apply(p, 7) == 7
    assert apply(p, "seven") == "seven"
    assert apply(p, True) is True
    assert apply(p, None) is None
    assert supp(3).is_empty()


@pytest.mark.parametrize(
    "x",
    [a[0], a[5], swap(a[0], a[3]), NameSet.finite([a[0], a[2]]), Inp(Free(a[0]), Out(Bound(0), Free(a[1]), Nil())),
     7, None, (a[0], NameSet.finite([a[3]]))],
    ids=["atom", "fixed-atom", "permutation", "nameset", "term", "int", "none", "tuple"],
)
def test_apply_without_a_table_is_apply_with_one(x) -> None:
    # A lone leaf or trivial value is moved at once, without a walk and a table.
    p = compose(swap(a[0], a[1]), swap(a[1], a[3]))
    table: dict = {}
    assert apply(p, x) == apply(p, x, table)
    assert id(x) in table


def test_apply_rejects_unknown_types() -> None:
    with pytest.raises(TypeError):
        apply(identity(), 1.5)
    with pytest.raises(TypeError):
        supp({a[0]})


# ------------- the walks: depth and sharing -------------


def test_apply_and_supp_walk_a_tuple_nested_10000_deep() -> None:
    t = a[0]
    for i in range(10_000):
        t = (t, a[i % 3])
    moved = apply(swap(a[0], a[5]), t)
    assert supp(t) == NameSet.finite(a[:3])
    assert supp(moved) == NameSet.finite([a[1], a[2], a[5]])
    for _ in range(10_000):
        moved = moved[0]
    assert moved == a[5]


def test_a_shared_half_is_visited_once() -> None:
    # 60 levels of a pair of one object: 2^60 leaves as a tree, 61 distinct parts.
    t = (a[0], a[1])
    for _ in range(60):
        t = (t, t)
    start = time.perf_counter()
    assert supp(t) == NameSet.finite([a[0], a[1]])
    assert time.perf_counter() - start < 0.5
    moved = apply(swap(a[1], a[7]), t)
    for _ in range(60):
        assert moved[0] is moved[1]
        moved = moved[0]
    assert moved == (a[0], a[7])


def test_one_table_moves_a_shared_part_once() -> None:
    p, shared = swap(a[0], a[1]), (a[0], NameSet.finite([a[0]]))
    table: dict = {}
    first = apply(p, [shared, (shared,)], table)
    assert first[0] is first[1][0] is apply(p, shared, table)
    assert table[id(shared)] == (shared, first[0])


# ------------- supp and freshness -------------


def test_supp_of_containers_is_the_union() -> None:
    assert supp((a[1], a[4])) == NameSet.finite([a[1], a[4]])
    assert supp([a[2], (a[2], a[3])]) == NameSet.finite([a[2], a[3]])


def test_is_fresh_is_absence_from_support() -> None:
    assert is_fresh(a[5], (a[1], a[2]))
    assert not is_fresh(a[1], (a[1], a[2]))


# ------------- IndexedFamily -------------


def test_family_get_falls_back_to_default() -> None:
    f = IndexedFamily((a[3], a[4]), a[0])
    assert f.get(0) == a[3]
    assert f.get(1) == a[4]
    assert f.get(2) == a[0]
    assert f.get(99) == a[0]


def test_family_trims_trailing_defaults() -> None:
    # equal denotations compare equal even when built with padding
    padded = IndexedFamily((a[3], a[0], a[0]), a[0])
    assert padded == IndexedFamily((a[3],), a[0])
    assert padded.entries == (a[3],)


def test_family_of_only_defaults_is_the_constant_family() -> None:
    assert IndexedFamily((a[0], a[0]), a[0]) == IndexedFamily((), a[0])


def test_family_action_hits_entries_and_default() -> None:
    f = IndexedFamily((a[0],), a[1])
    g = f.perm_apply(swap(a[0], a[1]))
    assert g.get(0) == a[1] and g.get(7) == a[0]


def test_family_action_commutes_with_lookup() -> None:
    # injectivity of the action keeps the trimmed shape stable, so acting
    # then looking up equals looking up then acting at every index
    f = IndexedFamily((a[2], a[0]), a[1])
    p = swap(a[0], a[1])
    g = f.perm_apply(p)
    for n in range(5):
        assert g.get(n) == apply(p, f.get(n))


def test_family_support_includes_the_default() -> None:
    f = IndexedFamily((a[2],), a[5])
    assert f.support() == NameSet.finite([a[2], a[5]])


def test_family_parts_exposes_entries_plus_default() -> None:
    assert IndexedFamily((a[1],), a[9]).parts() == (a[1], a[9])


# ------------- FiniteTermSet -------------


def test_term_set_deduplicates() -> None:
    s = FiniteTermSet.of([a[1], a[1], a[2]])
    assert s.elements == frozenset({a[1], a[2]})


def test_term_set_action_is_elementwise() -> None:
    s = FiniteTermSet.of([a[0], a[2]])
    assert s.perm_apply(swap(a[0], a[1])) == FiniteTermSet.of([a[1], a[2]])


def test_term_set_action_can_merge_elements() -> None:
    # (a0 a1) sends {a0, a1} to itself
    s = FiniteTermSet.of([a[0], a[1]])
    assert s.perm_apply(swap(a[0], a[1])) == s


def test_term_set_support_is_the_union() -> None:
    s = FiniteTermSet.of([(a[0], a[3]), (a[3],)])
    assert s.support() == NameSet.finite([a[0], a[3]])


# ------------- action laws on mixed values (randomized) -------------


def test_action_laws_on_nested_containers() -> None:
    rng = random.Random(23)
    for _ in range(300):
        t = (
            rand_nameset(rng),
            [Atom(rng.randrange(8)), rng.randrange(5)],
            IndexedFamily((Atom(rng.randrange(8)),), Atom(rng.randrange(8))),
        )
        p1, p2 = rand_perm(rng), rand_perm(rng)
        assert apply(identity(), t) == t
        assert apply(compose(p1, p2), t) == apply(p1, apply(p2, t))


def test_support_is_equivariant_on_containers() -> None:
    rng = random.Random(29)
    for _ in range(300):
        t = (rand_nameset(rng), (Atom(rng.randrange(8)),))
        p = rand_perm(rng)
        assert supp(apply(p, t)) == supp(t).perm_apply(p)


def test_frozensets_are_containers_and_sets_are_not() -> None:
    p = swap(a[0], a[1])
    assert apply(p, frozenset({a[0], a[2]})) == frozenset({a[1], a[2]})
    assert supp(frozenset({a[0], (a[2], a[3])})) == NameSet.finite([a[0], a[2], a[3]])
    opened = open_at(0, a[3], frozenset({Out(Bound(0), Free(a[1]), Nil())}))
    assert opened == frozenset({Out(Free(a[3]), Free(a[1]), Nil())})
    for generic in (lambda v: apply(p, v), supp, lambda v: open_at(0, a[3], v)):
        with pytest.raises(TypeError):
            generic({a[0]})


# ------------- the derived structure of the containers -------------

# IndexedFamily's and FiniteTermSet's hand-written methods from before
# PermValue derived them from the fields: the reference the derived ones must match.


def ref_family(f: IndexedFamily, each) -> IndexedFamily:
    return IndexedFamily(tuple(each(e) for e in f.entries), each(f.default))


def ref_term_set(s: FiniteTermSet, each) -> FiniteTermSet:
    return FiniteTermSet(frozenset(each(e) for e in s.elements))


def test_derived_container_structure_matches_the_hand_written_one() -> None:
    rng = random.Random(31)
    for _ in range(300):
        fam = rand_family(rng, lambda r: rand_open_term(r, depth=1))
        terms = FiniteTermSet.of(rand_open_term(rng, depth=1) for _ in range(rng.randrange(4)))
        p, x, i = rand_perm(rng), rand_atom(rng), rng.randrange(3)
        for v, ref, elems in ((fam, ref_family, fam.parts()), (terms, ref_term_set, terms.elements)):
            assert v.perm_apply(p) == ref(v, lambda e: apply(p, e))
            assert open_at(i, x, v) == ref(v, lambda e: open_at(i, x, e))
            assert close_at(i, x, v) == ref(v, lambda e: close_at(i, x, e))
            assert v.support() == union_all(*(supp(e) for e in elems))
            assert lc_at(i, v) == all(lc_at(i, e) for e in elems)
            assert lc_cofinite(v) == all(lc_cofinite(e) for e in elems)


def ref_apply(p, v):
    """p . v rebuilding every container, as apply did before it kept the fixed ones."""
    if type(v) in (tuple, list, frozenset):
        return type(v)(ref_apply(p, x) for x in v)
    if isinstance(v, PermValue):
        return type(v)(*(ref_apply(p, getattr(v, f)) for f in v.__match_args__))
    return apply(p, v)


def test_apply_hands_back_what_p_fixes() -> None:
    # A tuple, frozenset or PermValue whose moved parts are its own parts is
    # kept, so a p that moves no atom of its support hands it back; a list is
    # mutable, so it is always a new one.
    rng = random.Random(43)
    kept = 0
    for _ in range(600):
        p = rand_perm(rng, hi=14)
        # Equal images of these are the same object; a set's image can equal
        # it with its elements moved onto one another.
        exact = [(rand_atom(rng), rand_nameset(rng, hi=12), rand_open_term(rng, depth=1)),
                 rand_family(rng, rand_atom)]
        sets = [FiniteTermSet.of(rand_open_term(rng, depth=1) for _ in range(rng.randrange(4))),
                frozenset({rand_atom(rng), (rand_atom(rng),)})]
        for k, v in enumerate(exact + sets):
            got = apply(p, v)
            assert got == ref_apply(p, v), (p, v)
            s = supp(v)
            if s.is_finite() and p.mapping.keys().isdisjoint(x.index for x in s.atoms()):
                assert got is v, (p, v)
                kept += 1
            if k < len(exact):
                assert (got is v) == (got == v), (p, v)
            lst = [v]
            assert apply(p, lst) is not lst and apply(p, lst) == [got]
            assert apply(p, (lst,))[0] is not lst
    assert kept > 300
