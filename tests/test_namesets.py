import math
import random
from functools import reduce

import pytest

from lnpi.atoms import Atom, Permutation, swap
from lnpi.gen import rand_finite_nameset, rand_nameset, rand_perm
from lnpi.namesets import (
    MAX_JSON_MODULUS,
    AllNamesAvoided,
    NameSet,
    fresh,
    union_all,
)

a = [Atom(i) for i in range(12)]

ODD = NameSet.periodic(2, [1])
EVEN = NameSet.periodic(2, [0])


def members_upto(s: NameSet, n: int) -> set[int]:
    return {i for i in range(n) if s.member(Atom(i))}


# ------------- construction and canonical form -------------


def test_empty_and_all_atoms() -> None:
    assert NameSet.empty().is_empty()
    assert not NameSet.empty().member(a[0])
    assert NameSet.all_atoms().member(a[9])
    assert NameSet.all_atoms().complement() == NameSet.empty()


def test_finite_set_membership() -> None:
    s = NameSet.finite([a[1], a[4]])
    assert s.member(a[1]) and s.member(a[4])
    assert not s.member(a[0])
    assert a[4] in s  # __contains__ goes through member


def test_cofinite_set_membership() -> None:
    s = NameSet.cofinite([a[2]])
    assert not s.member(a[2])
    assert s.member(a[0]) and s.member(Atom(100))


def test_modulus_is_minimized() -> None:
    # residues {0, 2} mod 4 are exactly the evens: canonical form is mod 2
    s = NameSet.periodic(4, [0, 2])
    assert s == EVEN
    assert s.modulus == 2 and s.residues == frozenset({0})


def test_full_residue_set_collapses_to_all_atoms() -> None:
    assert NameSet.periodic(3, [0, 1, 2]) == NameSet.all_atoms()


def test_redundant_exceptions_are_dropped() -> None:
    # adding an atom already in the base records nothing
    s = NameSet.of(2, frozenset({0}), ((4, True), (3, False)))
    assert s.exceptions == ()
    assert s == EVEN


def test_later_exception_entries_win() -> None:
    s = NameSet.of(1, frozenset(), ((5, True), (5, False)))
    assert not s.member(a[5])
    assert s == NameSet.empty()


def test_modulus_must_be_positive() -> None:
    with pytest.raises(ValueError):
        NameSet.of(0, frozenset())


# ------------- classification -------------


def test_finite_cofinite_periodic_classification() -> None:
    assert NameSet.finite([a[0]]).is_finite()
    assert NameSet.cofinite([a[0]]).is_cofinite()
    assert not NameSet.cofinite([a[0]]).is_finite()
    assert not ODD.is_finite() and not ODD.is_cofinite()
    assert NameSet.all_atoms() == NameSet.cofinite([])


# ------------- enumeration and choice -------------


def test_enumerate_yields_least_members_first() -> None:
    assert ODD.enumerate(3) == [a[1], a[3], a[5]]
    assert NameSet.finite([a[7], a[2]]).enumerate(5) == [a[2], a[7]]
    assert NameSet.cofinite([a[0], a[2]]).enumerate(3) == [a[1], a[3], a[4]]


def test_least_outside_yields_least_non_members_first() -> None:
    assert NameSet.finite([a[0], a[2]]).least_outside(3) == [a[1], a[3], a[4]]
    assert NameSet.cofinite([a[7], a[2]]).least_outside(5) == [a[2], a[7]]
    assert ODD.union(NameSet.finite([a[0]])).least_outside(2) == [a[2], a[4]]
    assert NameSet.all_atoms().least_outside(1) == []


def test_least_outside_equals_the_plain_scan_on_every_kind_of_set() -> None:
    # A finite set scans its flips; the plain scan asks member() of each
    # atom.  200 atoms hold every answer here: exceptions lie below 40, and
    # a non-cofinite modulus is at most 6, so 10 non-members lie below 100.
    def plain(s: NameSet, k: int) -> list[Atom]:
        return [Atom(i) for i in range(200) if not s.member(Atom(i))][:k]

    rng = random.Random(11)
    sets = [rand_nameset(rng, 40) for _ in range(400)]
    sets += [NameSet.empty(), NameSet.all_atoms(), NameSet.finite(a[:5]), NameSet.finite([a[1], a[3], a[9]])]
    sets += [NameSet.cofinite([a[0], a[4]]), NameSet.cofinite([]), ODD, EVEN, NameSet.periodic(5, [0, 1, 3])]
    sets += [ODD.union(NameSet.finite([a[0], a[2]])), EVEN.difference(NameSet.finite([a[4]]))]
    assert {s.is_finite() for s in sets} == {True, False} and any(s.is_cofinite() for s in sets)
    for s in sets:
        for k in (0, 1, 3, 10):
            assert s.least_outside(k) == plain(s, k), (s, k)


def test_atoms_requires_a_finite_set() -> None:
    assert NameSet.finite([a[3], a[1]]).atoms() == (a[1], a[3])
    with pytest.raises(ValueError):
        ODD.atoms()


def test_fresh_picks_least_atom_outside() -> None:
    assert fresh(NameSet.finite([a[0], a[1]])) == a[2]
    assert fresh(NameSet.finite([a[1]])) == a[0]
    assert fresh(EVEN) == a[1]


def test_fresh_fails_when_everything_is_avoided() -> None:
    with pytest.raises(AllNamesAvoided):
        fresh(NameSet.all_atoms())


# ------------- boolean algebra -------------


def test_union_inter_difference_small_examples() -> None:
    s = NameSet.finite([a[0], a[1]])
    t = NameSet.finite([a[1], a[2]])
    assert s.union(t) == NameSet.finite([a[0], a[1], a[2]])
    assert s.inter(t) == NameSet.finite([a[1]])
    assert s.difference(t) == NameSet.finite([a[0]])


def test_odd_union_even_is_everything() -> None:
    assert ODD.union(EVEN) == NameSet.all_atoms()
    assert ODD.inter(EVEN) == NameSet.empty()


def test_complement_involution() -> None:
    for s in (ODD, NameSet.finite([a[3]]), NameSet.cofinite([a[5]]), NameSet.empty()):
        assert s.complement().complement() == s


def test_subset_of() -> None:
    assert NameSet.finite([a[1], a[3]]).subset_of(ODD)
    assert not ODD.subset_of(NameSet.finite([a[1], a[3]]))
    assert ODD.subset_of(NameSet.all_atoms())


def test_union_all_folds_left() -> None:
    got = union_all(NameSet.finite([a[0]]), NameSet.finite([a[2]]), ODD)
    assert got == ODD.union(NameSet.finite([a[0], a[2]]))


def test_boolean_ops_agree_with_pointwise_membership() -> None:
    # structural results must match membership computed index by index
    rng = random.Random(11)

    def rand_set() -> NameSet:
        base = NameSet.periodic(rng.randrange(1, 5), [r for r in range(4) if rng.random() < 0.4])
        for _ in range(rng.randrange(3)):
            one = NameSet.finite([Atom(rng.randrange(10))])
            base = base.union(one) if rng.random() < 0.5 else base.difference(one)
        return base

    for _ in range(300):
        s, t = rand_set(), rand_set()
        upto = 40  # covers several periods of any lcm of moduli <= 4
        assert members_upto(s.union(t), upto) == members_upto(s, upto) | members_upto(t, upto)
        assert members_upto(s.inter(t), upto) == members_upto(s, upto) & members_upto(t, upto)
        assert members_upto(s.difference(t), upto) == members_upto(s, upto) - members_upto(t, upto)
        assert members_upto(s.complement(), upto) == set(range(upto)) - members_upto(s, upto)


def ref_binary(s: NameSet, t: NameSet, op) -> NameSet:
    """The residue scan every boolean operation ran before finite sets took
    the frozenset operations on their flips, kept as the reference."""
    mod = math.lcm(s.modulus, t.modulus)
    res = frozenset(r for r in range(mod) if op(s._base(r), t._base(r)))
    flips = frozenset(a for a in s.flips | t.flips
                      if op(s._member_index(a), t._member_index(a)) != ((a % mod) in res))
    return NameSet(mod, res, flips)


def test_the_finite_path_agrees_with_the_residue_scan() -> None:
    rng = random.Random(61)
    ops = [(NameSet.union, lambda x, y: x or y), (NameSet.inter, lambda x, y: x and y),
           (NameSet.difference, lambda x, y: x and not y)]
    for k in range(600):
        # Two finite sets take the frozenset path; the rest check the scan is still taken.
        s = rand_finite_nameset(rng, size=6)
        t = rand_finite_nameset(rng, size=6) if k % 2 else rand_nameset(rng)
        for method, op in ops:
            got, want = method(s, t), ref_binary(s, t, op)
            assert got == want and got.flips == want.flips and got.key() == want.key()
            got, want = method(t, s), ref_binary(t, s, op)
            assert got == want and got.key() == want.key()


def _mod2(s: NameSet) -> NameSet:
    """A finite or cofinite s, built again with modulus 2: the general path."""
    return NameSet.of(2, frozenset({0, 1}) if s.residues else frozenset(), s.exceptions)


def _pointwise(s: NameSet, t: NameSet, op, upto: int = 16) -> NameSet:
    # Membership op(i in s, i in t) at every i, built with modulus 2.
    base = frozenset({0, 1}) if op(s.member(Atom(upto)), t.member(Atom(upto))) else frozenset()
    exc = tuple((i, op(s.member(Atom(i)), t.member(Atom(i)))) for i in range(upto))
    return NameSet.of(2, base, exc)


def test_finite_fast_path_matches_the_general_path() -> None:
    # Finite and cofinite sets (modulus 1) skip the residue algebra; their
    # results must equal the same sets built through it.
    rng = random.Random(5)

    def rand_set() -> NameSet:
        atoms = [Atom(rng.randrange(12)) for _ in range(rng.randrange(5))]
        return NameSet.finite(atoms) if rng.random() < 0.5 else NameSet.cofinite(atoms)

    for _ in range(300):
        s, t = rand_set(), rand_set()
        assert s.modulus == 1 and _mod2(s) == s
        assert s.union(t) == _pointwise(s, t, lambda x, y: x or y)
        assert s.inter(t) == _pointwise(s, t, lambda x, y: x and y)
        assert s.difference(t) == _pointwise(s, t, lambda x, y: x and not y)
        assert s.complement() == _pointwise(s, s, lambda x, _: not x)
        outside = [Atom(i) for i in range(20) if not _mod2(s).member(Atom(i))]
        assert s.least_outside(3) == outside[:3]
        if outside:
            assert fresh(s) == outside[0]
        else:
            with pytest.raises(AllNamesAvoided):
                fresh(s)


def test_finite_union_all_matches_the_pairwise_fold() -> None:
    # union_all merges all-finite operands in one construction; any other
    # operand sends it down the fold, which must give the same set.
    rng = random.Random(11)

    def rand_set() -> NameSet:
        atoms = [Atom(rng.randrange(12)) for _ in range(rng.randrange(5))]
        kind = rng.random()
        if kind < 0.8:
            return NameSet.finite(atoms)
        return NameSet.cofinite(atoms) if kind < 0.9 else ODD.union(NameSet.finite(atoms))

    for _ in range(2000):
        sets = [rand_set() for _ in range(rng.randrange(5))]
        assert union_all(*sets) == reduce(NameSet.union, sets, NameSet.empty()), sets


# ------------- permutation action -------------


def _image(s: NameSet, p: Permutation) -> NameSet:
    """p . s by the general formula: a moved atom b is in the image iff p^-1(b) is in s."""
    inv = p.inverse()
    exc = {b.index: s.member(inv(b)) for b in p.moved()}
    exc.update((x, v) for x, v in s.exceptions if x not in exc)
    return NameSet.of(s.modulus, s.residues, tuple(sorted(exc.items())))


def test_perm_apply_fast_path_matches_the_general_formula() -> None:
    # Finite and cofinite sets move each exception with its atom, with no
    # inverse and no membership scans.
    rng = random.Random(13)
    for _ in range(2000):
        atoms = [Atom(rng.randrange(12)) for _ in range(rng.randrange(6))]
        s = NameSet.finite(atoms) if rng.random() < 0.5 else NameSet.cofinite(atoms)
        cycle = rng.sample(range(14), rng.choice((2, 3)))  # a swap or a 3-cycle
        p = Permutation.from_cycles([cycle])
        assert s.modulus == 1
        assert s.perm_apply(p) == _image(s, p), (s, cycle)




def test_perm_apply_is_the_image() -> None:
    s = NameSet.finite([a[0], a[2]])
    assert s.perm_apply(swap(a[0], a[1])) == NameSet.finite([a[1], a[2]])


def test_perm_apply_membership_characterization() -> None:
    # a in S  iff  p(a) in p . S, for atoms inside and outside the moved region
    p = swap(a[1], a[6])
    for s in (ODD, NameSet.cofinite([a[1]]), NameSet.finite([a[1], a[2]])):
        moved = s.perm_apply(p)
        for i in range(12):
            assert s.member(Atom(i)) == moved.member(p(Atom(i)))


def test_perm_apply_on_periodic_set_records_boundary_crossings() -> None:
    # swapping 1 (odd) with 2 (even) adds 2 and removes 1
    got = ODD.perm_apply(swap(a[1], a[2]))
    assert got.member(a[2]) and not got.member(a[1])
    assert got.member(a[3]) and not got.member(a[4])


def ref_perm_apply(s: NameSet, p: Permutation) -> NameSet:
    """p . s as built before the fast path: the new flips through the checked
    constructor, which minimises the modulus again."""
    moved = p.mapping
    flips = {x for x in s.flips if x not in moved}
    flips.update(y for x, y in moved.items() if s.member(Atom(x)) != s._base(y))
    return NameSet(s.modulus, s.residues, frozenset(flips))


def test_perm_apply_matches_the_checked_construction() -> None:
    # The image skips minimising its unchanged base, and a p that fixes s
    # hands s back itself.
    rng = random.Random(29)
    kept = 0
    for _ in range(3000):
        s = rand_nameset(rng, hi=14)
        p = rand_perm(rng, hi=14)
        got, ref = s.perm_apply(p), ref_perm_apply(s, p)
        assert (got.modulus, got.residues, got.flips) == (ref.modulus, ref.residues, ref.flips), (s, p)
        assert got == ref and hash(got) == hash(ref)
        assert (got is s) == (ref == s), (s, p)
        kept += got is s
    assert 300 < kept < 2700


# ------------- support -------------


def test_support_of_finite_set_is_itself() -> None:
    s = NameSet.finite([a[0], a[5]])
    assert s.support() == s


def test_support_of_cofinite_set_is_the_complement() -> None:
    s = NameSet.cofinite([a[2], a[4]])
    assert s.support() == NameSet.finite([a[2], a[4]])


def test_support_of_genuinely_periodic_set_is_all_atoms() -> None:
    assert ODD.support() == NameSet.all_atoms()
    assert EVEN.support() == NameSet.all_atoms()
    assert a[0] in ODD.support()


def test_support_of_odd_union_even_is_empty() -> None:
    # the union is everything, and swapping inside everything changes nothing
    assert ODD.union(EVEN).support() == NameSet.empty()


# ------------- serialization -------------


def test_json_round_trip_small_examples() -> None:
    for s in (
        NameSet.empty(),
        NameSet.finite([a[1], a[4]]),
        NameSet.cofinite([a[2]]),
        ODD.union(NameSet.finite([a[0]])).difference(NameSet.finite([a[3]])),
    ):
        assert NameSet.from_json(s.to_json()) == s


@pytest.mark.parametrize(
    "data",
    [
        {"mod": 1, "res": [], "add": [-1], "remove": []},
        {"mod": 1, "res": [0], "add": [], "remove": [2, -5]},
        {"mod": 2, "res": [-1], "add": [], "remove": []},
        {"mod": 1, "res": [], "add": ["3"], "remove": []},
        {"mod": 1, "res": [], "add": [True], "remove": []},
        {"mod": 1, "res": [], "add": [1.5], "remove": []},
    ],
)
def test_json_rejects_non_natural_indices(data) -> None:
    with pytest.raises(ValueError):
        NameSet.from_json(data)


@pytest.mark.parametrize("mod", [0, -2, MAX_JSON_MODULUS + 1, 100_000_000, 2.0, True])
def test_json_rejects_a_modulus_outside_the_bound(mod) -> None:
    with pytest.raises(ValueError):
        NameSet.from_json({"mod": mod, "res": [0], "add": [], "remove": []})


def test_json_accepts_the_largest_modulus() -> None:
    s = NameSet.from_json({"mod": MAX_JSON_MODULUS, "res": [1], "add": [], "remove": []})
    assert s.modulus == MAX_JSON_MODULUS and s.member(Atom(MAX_JSON_MODULUS + 1))


def test_json_shape_splits_exceptions_by_sign() -> None:
    s = ODD.union(NameSet.finite([a[0]])).difference(NameSet.finite([a[3]]))
    assert s.to_json() == {"mod": 2, "res": [1], "add": [0], "remove": [3]}


# ------------- the pair-based canonical form, as a reference -------------

# Flips and moved atoms stay below BOUND, and every modulus divides PERIOD.
BOUND, PERIOD = 16, 60


def pair_form(member) -> tuple[int, frozenset[int], tuple[tuple[int, bool], ...]]:
    """The canonical (modulus, residues, exceptions) of the set with this
    membership predicate, derived from membership alone: the least period of
    the base it shows from BOUND on, and the sorted (atom, member?) pairs
    below BOUND that disagree with that base."""
    base = [member(BOUND + (r - BOUND) % PERIOD) for r in range(PERIOD)]
    mod = next(d for d in range(1, PERIOD + 1)
               if PERIOD % d == 0 and all(base[r] == base[r % d] for r in range(PERIOD)))
    exc = tuple((i, member(i)) for i in range(BOUND) if member(i) != base[i % PERIOD])
    return mod, frozenset(r for r in range(mod) if base[r]), exc


def assert_pair_form(s: NameSet, member) -> None:
    mod, res, exc = pair_form(member)
    assert s.exceptions == exc
    assert s.key() == (mod, tuple(sorted(res)), exc)
    assert s.to_json() == {"mod": mod, "res": sorted(res), "add": [a for a, v in exc if v],
                           "remove": [a for a, v in exc if not v]}


def test_every_set_and_result_has_the_pair_based_canonical_form() -> None:
    rng = random.Random(17)

    def rand_set():
        """A random set and its membership, computed without NameSet."""
        atoms = [rng.randrange(BOUND) for _ in range(rng.randrange(5))]
        kind = rng.randrange(3)
        if kind == 0:
            return NameSet.finite(map(Atom, atoms)), set(atoms).__contains__
        if kind == 1:
            return NameSet.cofinite(map(Atom, atoms)), lambda i: i not in atoms
        mod = rng.randrange(1, 7)
        res = frozenset(r for r in range(mod) if rng.random() < 0.5)
        pairs = [(a, rng.random() < 0.5) for a in atoms]
        last = dict(pairs)  # later pairs win
        return NameSet.of(mod, res, pairs), lambda i: last.get(i, (i % mod) in res)

    for _ in range(400):
        (s, x), (t, y) = rand_set(), rand_set()
        assert_pair_form(s, x)
        assert_pair_form(s.union(t), lambda i: x(i) or y(i))
        assert_pair_form(s.inter(t), lambda i: x(i) and y(i))
        assert_pair_form(s.difference(t), lambda i: x(i) and not y(i))
        assert_pair_form(s.complement(), lambda i: not x(i))
        assert_pair_form(union_all(s, t), lambda i: x(i) or y(i))
        cycle = rng.sample(range(BOUND), rng.choice((2, 3)))
        inverse = {b: a for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        assert_pair_form(s.perm_apply(Permutation.from_cycles([cycle])), lambda i: x(inverse.get(i, i)))
