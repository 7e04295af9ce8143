import random

import pytest

from lnpi.atoms import Atom
from lnpi.gen import rand_term
from lnpi.namesets import NameSet
from lnpi.parsing import (
    ParseError,
    UnboundedSumSyntax,
    free_indices,
    intern,
    parse,
    print_term,
    render_atom,
    render_nameset,
)
from lnpi.permtypes import IndexedFamily
from lnpi.pisyntax import Bound, Free, Inp, Nil, Out, Par, Rep, Res, Sum, free_names

a = [Atom(i) for i in range(10)]


# ------------- parsing: shapes -------------


def test_parse_nil() -> None:
    assert parse("0") == (Nil(), {})


def test_parse_restriction_binds_by_index() -> None:
    t, symtab = parse("new c. n!c. 0")
    assert t == Res(Out(Free(a[0]), Bound(0), Nil()))
    assert symtab == {"n": a[0]}


def test_parse_input_binds_its_parameter() -> None:
    t, symtab = parse("c?(x). x!n. 0")
    # free identifiers intern in first-occurrence order: c then n
    assert symtab == {"c": a[0], "n": a[1]}
    assert t == Inp(Free(a[0]), Out(Bound(0), Free(a[1]), Nil()))


def test_intern_picks_the_least_atom_not_taken_or_reserved() -> None:
    symtab = {"c": a[0], "n": a[2]}
    assert intern(symtab, "n") == a[2]
    assert intern(symtab, "m", reserved=(a[1], a[3])) == a[4]
    assert intern(symtab, "k") == a[1]
    assert symtab == {"c": a[0], "n": a[2], "m": a[4], "k": a[1]}


def test_intern_with_a_shared_fresh_iterator_picks_the_same_atoms() -> None:
    plain = {"c": a[0], "n": a[2]}
    shared = dict(plain)
    fresh = free_indices(shared, reserved=(a[3],))
    for ident in ("m", "n", "k", "j", "m"):
        assert intern(shared, ident, fresh=fresh) == intern(plain, ident, reserved=(a[3],))
    assert shared == plain == {"c": a[0], "n": a[2], "m": a[1], "k": a[4], "j": a[5]}


def test_parse_interns_many_identifiers_in_first_occurrence_order() -> None:
    text = " | ".join(f"n{i}!m{i}. 0" for i in range(1000))
    _, symtab = parse(text, {"m0": Atom(1), "z": Atom(4)})
    taken = sorted(x.index for x in symtab.values())
    assert taken == list(range(2001))
    assert [symtab[f"n{i}"].index for i in range(4)] == [0, 2, 5, 7]


def test_parse_resolves_innermost_binder_first() -> None:
    t, _ = parse("new x. new x. x!x. 0")
    # both occurrences refer to the inner binder
    assert t == Res(Res(Out(Bound(0), Bound(0), Nil())))


def test_parse_nested_binders_count_levels_outward() -> None:
    t, _ = parse("new n. c?(x). x!n. 0")
    assert t == Res(Inp(Free(a[0]), Out(Bound(0), Bound(1), Nil())))


def test_parse_parallel_associates_left() -> None:
    t, _ = parse("0 | 0 | 0")
    assert t == Par(Par(Nil(), Nil()), Nil())


def test_parse_parentheses_override_grouping() -> None:
    t, _ = parse("0 | (0 | 0)")
    assert t == Par(Nil(), Par(Nil(), Nil()))


def test_parse_prefix_binds_tighter_than_parallel() -> None:
    t, symtab = parse("n!m. 0 | 0")
    n, m = symtab["n"], symtab["m"]
    assert t == Par(Out(Free(n), Free(m), Nil()), Nil())


def test_parse_replication_takes_one_prefix() -> None:
    t, _ = parse("*(n!n. 0) | 0")
    n = Free(a[0])
    assert t == Par(Rep(Out(n, n, Nil())), Nil())


def test_parse_sum_with_entries_and_default() -> None:
    t, _ = parse("sum [n!n. 0, 0; n!n. 0]")
    o = Out(Free(a[0]), Free(a[0]), Nil())
    assert t == Sum(IndexedFamily((o, Nil()), o))


def test_parse_sum_with_empty_entry_list() -> None:
    t, _ = parse("sum [; 0]")
    assert t == Sum(IndexedFamily((), Nil()))


def test_parse_with_preloaded_symbol_table() -> None:
    t, symtab = parse("n!m. 0", {"m": a[0]})
    # m keeps its atom; n interns to the least unused index
    assert symtab == {"m": a[0], "n": a[1]}
    assert t == Out(Free(a[1]), Free(a[0]), Nil())


# ------------- parsing: errors -------------


def test_parse_error_carries_the_position() -> None:
    with pytest.raises(ParseError) as err:
        parse("new . 0")
    assert err.value.position == 3
    assert "expected an identifier" in str(err.value)


def test_parse_rejects_trailing_input() -> None:
    with pytest.raises(ParseError, match="trailing input"):
        parse("0 0")


def test_parse_rejects_stray_characters() -> None:
    with pytest.raises(ParseError, match="unexpected character"):
        parse("n!m. 0 @")


def test_parse_rejects_missing_operator() -> None:
    with pytest.raises(ParseError, match="expected '\\?' or '!'"):
        parse("n . 0")


def test_sum_requires_a_default_branch() -> None:
    with pytest.raises(UnboundedSumSyntax):
        parse("sum [0, 0]")


def test_keywords_cannot_be_channel_names() -> None:
    with pytest.raises(ParseError):
        parse("new!m. 0")


# ------------- printing -------------


def test_print_opens_binders_with_fresh_display_names() -> None:
    t, symtab = parse("new c. n!c. 0")
    # a0 shows as n; the binder reopens with a1, displayed x1
    assert print_term(t, symtab) == "new x1. n!x1. 0"


def test_print_without_symbol_table_numbers_from_zero() -> None:
    t, _ = parse("new a. a!a. 0 | 0")
    assert print_term(t) == "new x0. x0!x0. 0 | 0"


def test_print_parenthesizes_right_nested_parallel() -> None:
    t, _ = parse("(0 | 0) | 0")
    assert print_term(t) == "0 | 0 | 0"
    t2, _ = parse("0 | (0 | 0)")
    assert print_term(t2) == "0 | (0 | 0)"


def test_print_replication_always_parenthesizes() -> None:
    t, symtab = parse("*n!n. 0")
    assert print_term(t, symtab) == "*(n!n. 0)"


def test_print_sum() -> None:
    t, symtab = parse("sum [n!n. 0; 0]")
    assert print_term(t, symtab) == "sum [n!n. 0; 0]"


def test_print_rejects_dangling_indices() -> None:
    with pytest.raises(ValueError, match="dangling"):
        print_term(Out(Bound(0), Bound(0), Nil()))


def test_alpha_equal_inputs_print_identically() -> None:
    s1 = print_term(*parse("new u. n!u. 0"))
    s2 = print_term(*parse("new v. n!v. 0"))
    assert s1 == s2 == "new x1. n!x1. 0"


# ------------- round trips -------------


def test_parse_print_parse_is_stable_on_sources() -> None:
    sources = [
        "0",
        "new c. n!c. 0",
        "c?(x). x!n. 0 | *(c!c. 0)",
        "sum [n!m. 0; new q. q!n. 0]",
        "new n. c?(x). x!n. 0",
    ]
    for src in sources:
        t, symtab = parse(src)
        printed = print_term(t, symtab)
        t2, _ = parse(printed, symtab)
        assert t2 == t, src


def test_print_parse_round_trips_random_closed_terms() -> None:
    rng = random.Random(47)
    done = 0
    while done < 200:
        t = rand_term(rng)
        if not t.lc_at(0):
            continue
        symtab = {f"n{x.index}": x for x in free_names(t).atoms()}
        printed = print_term(t, symtab)
        assert parse(printed, symtab)[0] == t, printed
        done += 1


# ------------- rendering atoms and name sets -------------


def test_render_atom_prefers_user_names() -> None:
    symtab = {"n": a[0]}
    assert render_atom(a[0], symtab) == "n"
    assert render_atom(a[3], symtab) == "x3"


def test_render_atom_steps_aside_on_collision() -> None:
    # the user took the name x3 for a different atom, so atom 3 gets a suffix
    symtab = {"x3": a[0]}
    assert render_atom(a[0], symtab) == "x3"
    assert render_atom(a[3], symtab) == "x3_1"


def test_render_nameset_finite_and_cofinite() -> None:
    symtab = {"n": a[0]}
    assert render_nameset(NameSet.finite([a[0], a[2]]), symtab) == "{n, x2}"
    assert render_nameset(NameSet.cofinite([a[1]]), symtab) == "all \\ {x1}"


def test_render_nameset_periodic_with_exceptions() -> None:
    odd = NameSet.periodic(2, [1])
    s = odd.union(NameSet.finite([a[0]])).difference(NameSet.finite([a[3]]))
    assert render_nameset(s) == "mod 2 residues {1} + {x0} - {x3}"
