import inspect
import operator
import random
import sys

import pytest

from lnpi import props
from lnpi.atoms import Atom, swap
from lnpi.gen import rand_open_term, rand_perm, rand_term
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
    Name,
    Sum,
    Term,
    LC_EXTRA_WITNESSES,
    _parts,
    free_atoms,
    free_names,
    map_names,
    name_levels,
    par_factors,
    term_lc,
    term_size,
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


def test_term_size_and_par_factors_take_no_frame_per_level(request) -> None:
    # Built first; then the limit is lowered to 200 frames above this test,
    # which a walk that takes a frame per level of 10 000 cannot stay under.
    n = 10_000
    prefixes = Nil()
    for _ in range(n):
        prefixes = Out(Free(a[0]), Free(a[0]), prefixes)
    factors = [Out(Free(a[i % 10]), Free(a[i // 10 % 10]), Nil()) for i in range(n)]
    left, right = factors[0], factors[-1]
    for i in range(1, n):
        left, right = Par(left, factors[i]), Par(factors[n - 1 - i], right)
    limit = sys.getrecursionlimit()
    request.addfinalizer(lambda: sys.setrecursionlimit(limit))
    sys.setrecursionlimit(len(inspect.stack(0)) + 200)
    assert term_size(prefixes) == n + 1
    # each factor is an Out and its Nil, joined by n - 1 Pars
    assert term_size(left) == term_size(right) == 3 * n - 1
    assert par_factors(left) == par_factors(right) == factors
    assert par_factors(prefixes) == [prefixes]


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
    ordered = sorted(ts, key=Term.key)
    assert set(map(Term.key, ts)) == set(map(Term.key, ordered))
    assert sorted(map(Term.key, ts)) == list(map(Term.key, ordered))


def test_term_key_distinguishes_free_and_bound() -> None:
    assert Out(Free(a[0]), Free(a[0]), Nil()).key() != Out(Free(a[0]), Bound(0), Nil()).key()


# ------------- JSON -------------


def test_json_round_trip_on_fixed_terms() -> None:
    for t in (Nil(), EXTRUDER, FORWARDER, Rep(Par(EXTRUDER, Nil())), sum_of(Nil(), FORWARDER)):
        assert Term.from_json(t.to_json()) == t


def test_json_round_trip_on_random_terms() -> None:
    rng = random.Random(43)
    for _ in range(200):
        t = rand_term(rng)
        assert Term.from_json(t.to_json()) == t


def test_json_tags_are_stable() -> None:
    data = EXTRUDER.to_json()
    assert data["tag"] == "res"
    assert data["body"]["tag"] == "out"


def test_json_rejects_unknown_tags() -> None:
    with pytest.raises((KeyError, ValueError)):
        Term.from_json({"tag": "bang"})


@pytest.mark.parametrize(
    "data",
    [{}, {"bound": -1}, {"bound": "x"}, {"free": True}, {"free": 1, "bound": 0}, {"atom": 1}, [0]],
)
def test_name_json_needs_exactly_one_natural_field(data) -> None:
    with pytest.raises(ValueError):
        Name.from_json(data)


# ------------- cached facts, hashes, skips and equality -------------

# The plain paths the derived traversals, the cached facts and the skips
# replace, kept as the reference: one match ladder per operation, each
# stating which constructors bind, so none reads a constructor's binds.


def ref_subterms(t) -> tuple:
    match t:
        case Nil():
            return ()
        case Sum(fam):
            return fam.parts()
        case Inp(_, b) | Res(b) | Rep(b) | Out(_, _, b):
            return (b,)
        case Par(l, r):
            return (l, r)
    raise TypeError(f"not a term: {t!r}")


def ref_name_levels(t, i: int = 0, out: list | None = None) -> list:
    """The names of t in preorder, each with i plus the binders above it."""
    if out is None:
        out = []
    match t:
        case Nil():
            pass
        case Sum(fam):
            for e in fam.parts():
                ref_name_levels(e, i, out)
        case Inp(c, b):
            out.append((c, i))
            ref_name_levels(b, i + 1, out)
        case Out(c, m, k):
            out += ((c, i), (m, i))
            ref_name_levels(k, i, out)
        case Par(l, r):
            ref_name_levels(l, i, out)
            ref_name_levels(r, i, out)
        case Res(b):
            ref_name_levels(b, i + 1, out)
        case Rep(b):
            ref_name_levels(b, i, out)
        case _:
            raise TypeError(f"not a term: {t!r}")
    return out


def ref_map_names(t, f, i: int = 0):
    """t with each name under d binders replaced by f(n, i + d), every
    subterm walked; a subterm whose names map to themselves is kept."""
    match t:
        case Nil():
            return t
        case Sum(fam):
            entries = tuple(ref_map_names(e, f, i) for e in fam.entries)
            default = ref_map_names(fam.default, f, i)
            if default is fam.default and all(x is y for x, y in zip(entries, fam.entries)):
                return t
            return Sum(IndexedFamily(entries, default))
        case Inp(c, b):
            c2, b2 = f(c, i), ref_map_names(b, f, i + 1)
            return t if c2 is c and b2 is b else Inp(c2, b2)
        case Out(c, m, k):
            c2, m2, k2 = f(c, i), f(m, i), ref_map_names(k, f, i)
            return t if c2 is c and m2 is m and k2 is k else Out(c2, m2, k2)
        case Par(l, r):
            l2, r2 = ref_map_names(l, f, i), ref_map_names(r, f, i)
            return t if l2 is l and r2 is r else Par(l2, r2)
        case Res(b):
            b2 = ref_map_names(b, f, i + 1)
            return t if b2 is b else Res(b2)
        case Rep(b):
            b2 = ref_map_names(b, f, i)
            return t if b2 is b else Rep(b2)
    raise TypeError(f"not a term: {t!r}")


def ref_free_atoms(t) -> frozenset[int]:
    return frozenset(n.atom.index for n, _ in ref_name_levels(t) if isinstance(n, Free))


def ref_lc_at(t, i: int) -> bool:
    return all(n.lc_at(d) for n, d in ref_name_levels(t, i))


def ref_term_lc(t) -> bool:
    """Local closure by the inductive definition, each binder body opened
    with ref_map_names at witnesses picked from ref_free_atoms."""

    def opened(b) -> list:
        fresh = NameSet.finite(map(Atom, ref_free_atoms(b))).least_outside(1 + LC_EXTRA_WITNESSES)
        return [ref_map_names(b, lambda n, d: n.open_at(d, w), 0) for w in fresh]

    match t:
        case Nil():
            return True
        case Sum(fam):
            return all(ref_term_lc(e) for e in fam.parts())
        case Inp(c, b):
            return isinstance(c, Free) and all(map(ref_term_lc, opened(b)))
        case Out(c, m, k):
            return isinstance(c, Free) and isinstance(m, Free) and ref_term_lc(k)
        case Par(l, r):
            return ref_term_lc(l) and ref_term_lc(r)
        case Res(b):
            return all(map(ref_term_lc, opened(b)))
        case Rep(b):
            return ref_term_lc(b)
    raise TypeError(f"not a term: {t!r}")


def every_witness_term_lc(t) -> bool:
    """term_lc as it was before it used equivariance: the walk goes on into
    each binder body opened at every witness, so its time is exponential in
    the nesting of binders."""
    todo = [t]
    while todo:
        for x, d in _parts(todo.pop(), 0):
            if type(x) is Bound:
                return False
            if d:  # a binder body, opened at level 0
                todo += [x.open_at(0, w) for w in free_names(x).least_outside(1 + LC_EXTRA_WITNESSES)]
            elif isinstance(x, Term):
                todo.append(x)
    return True


def nested_binders(rng: random.Random, k: int) -> Term:
    """k nested new and input binders over one or two outputs.  A name under
    j binders is a free atom or an index up to j, so the index j dangles."""

    def name(j: int) -> Name:
        i = rng.randrange(j + 2)
        return Free(a[rng.randrange(4)]) if i > j else Bound(i)

    body = Nil()
    for _ in range(rng.randrange(1, 3)):
        body = Par(Out(name(k), name(k), Nil()), body)
    for j in reversed(range(k)):
        body = Res(body) if rng.random() < 0.5 else Inp(name(j), body)
    return body


def test_term_lc_agrees_with_the_walk_into_every_witness() -> None:
    rng = random.Random(67)
    nested = [nested_binders(rng, k) for k in range(8) for _ in range(max(1, 48 >> k))]
    assert {term_lc(t) for t in nested if t.binds} == {True, False}
    for t in corpus() + nested:
        assert term_lc(t) == every_witness_term_lc(t) == t.lc_at(0), t


def test_term_lc_notices_an_opening_broken_at_one_witness(monkeypatch) -> None:
    # EXTRUDER's body holds a0: it is walked opened at a1 and checked opened
    # at a2, a3 and a4.  The opening at a3 is broken: it opens nothing, or it
    # opens at a9, which the walk into every witness does not notice.
    opened = Term.open_at
    for broken, walked_all in ((lambda u: u, False), (lambda u: opened(u, 0, a[9]), True)):
        monkeypatch.setattr(Term, "open_at", lambda u, i, x: broken(u) if x == a[3] else opened(u, i, x))
        assert term_lc(EXTRUDER) is False
        assert every_witness_term_lc(EXTRUDER) is walked_all
    monkeypatch.undo()
    assert term_lc(EXTRUDER) is every_witness_term_lc(EXTRUDER) is True


def all_subterms(t) -> list:
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        out.append(u)
        todo += ref_subterms(u)
    return out


def fields_hash(u) -> int:
    # What a dataclass's __hash__ computes: the hash of the field tuple.
    return hash(tuple(getattr(u, name) for name in u.__match_args__))


def corpus() -> list:
    """Generated terms, the binder-axiom suite's terms, and their openings,
    closings and permutations, as that suite builds them."""
    rng = random.Random(53)
    out = [EXTRUDER, FORWARDER, Nil()]
    for _ in range(150):
        out += [rand_term(rng), rand_open_term(rng, depth=3)]
        for label, v in props._ln_instances(rng):
            if label == "term":
                x = a[rng.randrange(6)]
                out += [v, v.open_at(rng.randrange(3), x), v.close_at(rng.randrange(3), x), v.perm_apply(rand_perm(rng))]
    return out


def fresh_copy(t):
    """An equal term built anew, so that no node of it holds facts."""
    copy = Term.from_json(t.to_json())
    assert copy == t and not any(hasattr(u, "_lc") or hasattr(u, "_hash") for u in all_subterms(copy))
    return copy


def ladder_disagreements(terms) -> list[tuple[str, Term]]:
    """Each (operation, subterm) at which the layout-derived subterms, facts,
    name_levels, term_lc or map_names (opening, closing, permuting) differ
    from the ladders, over every subterm of terms, built afresh so that its
    facts are computed here."""
    rng = random.Random(61)
    out = []
    for t in terms:
        x, p, i = a[rng.randrange(6)], rand_perm(rng), rng.randrange(3)
        maps = [(lambda n, d: n.open_at(d, x), i), (lambda n, d: n.close_at(d, x), i),
                (lambda n, _: n.perm_apply(p), 0)]
        for u in all_subterms(fresh_copy(t)):
            subs, want = u.subterms(), ref_subterms(u)
            mapped = [(map_names(u, f, lambda v, d: False, j), ref_map_names(u, f, j)) for f, j in maps]
            checks = {
                "subterms": len(subs) == len(want) and all(map(operator.is_, subs, want)),
                "free atoms": free_atoms(u) == ref_free_atoms(u),
                "closure level": [u.lc_at(j) for j in range(6)] == [ref_lc_at(u, j) for j in range(6)],
                "name_levels": all(name_levels(u, j) == ref_name_levels(u, j) for j in range(3)),
                "term_lc": term_lc(u) == ref_term_lc(u),
                "map_names": all(got == w and (got is u) == (w is u) for got, w in mapped),
            }
            out += [(name, u) for name, ok in checks.items() if not ok]
    return out


def test_the_derived_traversals_match_the_ladders() -> None:
    assert ladder_disagreements(corpus()) == []


def test_the_ladder_comparison_notices_a_binder_declared_away(monkeypatch) -> None:
    terms = corpus()
    monkeypatch.setattr(Res, "binds", 0)
    found = {name for name, _ in ladder_disagreements(terms)}
    assert found == {"closure level", "name_levels", "term_lc", "map_names"}


def test_cached_facts_match_the_name_walk() -> None:
    for t in corpus():
        for u in all_subterms(fresh_copy(t)):
            assert free_atoms(u) == ref_free_atoms(u)
            assert free_names(u) == NameSet.finite(Atom(i) for i in ref_free_atoms(u))
            levels = [i for i in range(8) if ref_lc_at(u, i)]
            assert u._lc == levels[0]
            assert [u.lc_at(i) for i in range(8)] == [ref_lc_at(u, i) for i in range(8)]


def test_the_stored_hash_is_the_hash_of_the_fields() -> None:
    for t in corpus():
        for u in all_subterms(fresh_copy(t)):
            assert hash(u) == fields_hash(u) == u._hash
    # The field hash of atoms and levels is the same in every process, so it can be pinned.
    assert hash(Nil()) == hash(())
    assert hash(EXTRUDER) == hash((Out(Free(a[0]), Bound(0), Nil()),)) == hash(((Free(a[0]), Bound(0), Nil()),))


def test_each_skip_returns_what_the_plain_traversal_returns() -> None:
    rng = random.Random(59)
    for t in corpus():
        x, p = a[rng.randrange(6)], rand_perm(rng)
        i = rng.randrange(3)
        cases = [
            (lambda u: u.open_at(i, x), lambda n, d: n.open_at(d, x), i),
            (lambda u: u.close_at(i, x), lambda n, d: n.close_at(d, x), i),
            (lambda u: u.perm_apply(p), lambda n, _: n.perm_apply(p), 0),
        ]
        hash(t), free_names(t)  # t holds its facts, its fresh copy none
        for op, f, level in cases:
            for u in (fresh_copy(t), t):
                got, want = op(u), ref_map_names(u, f, level)
                assert got == want
                assert (got is u) == (want is u)


def test_skips_read_only_the_facts_a_node_holds() -> None:
    t = fresh_copy(Par(EXTRUDER, FORWARDER))
    t.open_at(0, a[5])
    t.close_at(0, a[5])
    t.perm_apply(swap(a[0], a[5]))
    assert not any(hasattr(u, "_lc") for u in all_subterms(t))
    # Once t holds its facts, a closed subterm is kept whole, not walked.
    free_names(t)
    assert t.open_at(0, a[5]) is t and t.close_at(0, a[5]) is t
    assert t.perm_apply(swap(a[5], a[6])) is t
    moved = t.perm_apply(swap(a[1], a[5]))
    assert moved.left is t.left and moved.right != t.right


def chain(n: int, leaf) -> Term:
    # n nested Pars, built bottom-up: Par(c!c.0, Par(c!c.0, ... leaf)).
    t = leaf
    for _ in range(n):
        t = Par(Out(Free(a[0]), Free(a[0]), Nil()), t)
    return t


@pytest.mark.parametrize("depth", [400, 10_000])
@pytest.mark.parametrize("hashed", [False, True], ids=["unhashed", "hashed"])
def test_equality_of_deep_chains_takes_no_frames(depth, hashed) -> None:
    leaf, other = Out(Free(a[1]), Free(a[1]), Nil()), Out(Free(a[1]), Free(a[2]), Nil())
    s, t, u = chain(depth, leaf), chain(depth, leaf), chain(depth, other)
    if hashed:
        assert hash(s) == hash(t) != hash(u)
    assert s is not t and s == t and not s != t
    assert s != u and not s == u
    assert len({s, t, u}) == 2


def test_equality_with_another_type_is_false() -> None:
    assert Nil() != Res(Nil()) and Par(Nil(), Nil()) != (Nil(), Nil())
    assert Nil() == Nil() and Nil() != 0
