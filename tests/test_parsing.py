import random

import pytest

from lnpi.atoms import Atom
from lnpi.cli import _action_str
from lnpi.gen import rand_action, rand_nameset, rand_term
from lnpi.lts import BoundOutput, Config, Input, Output, Tau, step
from lnpi.namesets import NameSet
from lnpi.parsing import (
    Naming,
    ParseError,
    UnboundedSumSyntax,
    free_indices,
    intern,
    parse,
    print_term,
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


def test_naming_prefers_user_names() -> None:
    name = Naming({"n": a[0]})
    assert name[a[0]] == "n"
    assert name[a[3]] == "x3"


def test_naming_steps_aside_on_collision() -> None:
    # the user took the name x3 for a different atom, so atom 3 gets a suffix
    name = Naming({"x3": a[0], "x3_1": a[1]})
    assert name[a[0]] == "x3"
    assert name[a[3]] == "x3_2"


def test_naming_takes_the_first_identifier_of_an_atom() -> None:
    name = Naming({"m": a[1], "n": a[0], "k": a[1]})
    assert (name[a[0]], name[a[1]]) == ("n", "m")


def test_render_nameset_finite_and_cofinite() -> None:
    symtab = {"n": a[0]}
    assert render_nameset(NameSet.finite([a[0], a[2]]), symtab) == "{n, x2}"
    assert render_nameset(NameSet.cofinite([a[1]]), symtab) == "all \\ {x1}"


def test_render_nameset_periodic_with_exceptions() -> None:
    odd = NameSet.periodic(2, [1])
    s = odd.union(NameSet.finite([a[0]])).difference(NameSet.finite([a[3]]))
    assert render_nameset(s) == "mod 2 residues {1} + {x0} - {x3}"


# ------------- the naming table against the scanning printer -------------
# The printer before the naming table: it scanned the symbol table for each
# name, and searched for a binder atom whose display name no free atom of
# the body has.  It stays here as the reference.


def ref_render_atom(x: Atom, symtab: dict[str, Atom]) -> str:
    for ident, atom in symtab.items():
        if atom == x:
            return ident
    candidate = f"x{x.index}"
    k = 0
    while candidate in symtab:
        k += 1
        candidate = f"x{x.index}_{k}"
    return candidate


def ref_binder_atom(body, symtab: dict[str, Atom]) -> Atom:
    fn = free_names(body).atoms()
    taken_names = {ref_render_atom(x, symtab) for x in fn}
    return next(w for w in map(Atom, free_indices(symtab, fn)) if ref_render_atom(w, symtab) not in taken_names)


def ref_print_term(t, symtab: dict[str, Atom]) -> str:
    def name(n) -> str:
        assert isinstance(n, Free)
        return ref_render_atom(n.atom, symtab)

    def par_level(t) -> str:
        parts = []
        while isinstance(t, Par):
            parts.append(prefix_level(t.right))
            t = t.left
        parts.append(prefix_level(t))
        return " | ".join(reversed(parts))

    def prefix_level(t) -> str:
        match t:
            case Nil():
                return "0"
            case Par():
                return f"({par_level(t)})"
            case Rep(b):
                return f"*({par_level(b)})"
            case Res(b):
                w = ref_binder_atom(b, symtab)
                return f"new {ref_render_atom(w, symtab)}. {prefix_level(b.open_at(0, w))}"
            case Inp(c, b):
                w = ref_binder_atom(b, symtab)
                return f"{name(c)}?({ref_render_atom(w, symtab)}). {prefix_level(b.open_at(0, w))}"
            case Out(c, m, k):
                return f"{name(c)}!{name(m)}. {prefix_level(k)}"
            case Sum(f):
                entries = ", ".join(par_level(e) for e in f.entries)
                return f"sum [{entries}; {par_level(f.default)}]"
        raise TypeError(t)

    return par_level(t)


def ref_render_nameset(s: NameSet, symtab: dict[str, Atom]) -> str:
    if s.is_finite():
        return "{" + ", ".join(ref_render_atom(x, symtab) for x in s.atoms()) + "}"
    if s.is_cofinite():
        return "all \\ " + ref_render_nameset(s.complement(), symtab)
    base = f"mod {s.modulus} residues {{{', '.join(map(str, sorted(s.residues)))}}}"
    added = [x for x, v in s.exceptions if v]
    removed = [x for x, v in s.exceptions if not v]
    if added:
        base += " + {" + ", ".join(ref_render_atom(Atom(x), symtab) for x in added) + "}"
    if removed:
        base += " - {" + ", ".join(ref_render_atom(Atom(x), symtab) for x in removed) + "}"
    return base


def ref_action_str(act, symtab: dict[str, Atom]) -> str:
    match act:
        case Tau():
            return "tau"
        case Input(c, n):
            return f"{ref_render_atom(c, symtab)}?{ref_render_atom(n, symtab)}"
        case Output(c, n):
            return f"{ref_render_atom(c, symtab)}!{ref_render_atom(n, symtab)}"
        case BoundOutput(c, n):
            return f"({ref_render_atom(n, symtab)}){ref_render_atom(c, symtab)}!{ref_render_atom(n, symtab)}"
    raise TypeError(act)


def assert_prints_as_reference(cfg: Config, symtab: dict[str, Atom], fuel: int) -> int:
    """Compare every output that printing cfg and its transitions makes; the count of them."""
    assert print_term(cfg.proc, symtab) == ref_print_term(cfg.proc, symtab)
    for s in (cfg.env, free_names(cfg.proc)):
        assert render_nameset(s, symtab) == ref_render_nameset(s, symtab)
    compared = 3
    for t, _ in step(cfg, fuel).results:
        assert _action_str(t.action, symtab) == ref_action_str(t.action, symtab)
        assert print_term(t.dst.proc, symtab) == ref_print_term(t.dst.proc, symtab)
        assert render_nameset(t.dst.env, symtab) == ref_render_nameset(t.dst.env, symtab)
        compared += 3
    return compared


# The README's processes, ROADMAP's, and one whose -e names collide with auto names.
PRINTED_PROCESSES = [
    ("", "new a. a!a. 0 | 0", 8),
    ("", "n!m.0", 8),
    ("", "new c. n!c. 0", 8),
    ("n", "new c. n!c. 0", 8),
    ("c", "*( new n. c?(x). x!n. 0 )", 2),
    ("c", "*(new n. c!n.0) | *(c?(x). x!x.0)", 4),
    ("x3,x1_1", "new a. x1!a. c?(y). y!x2. new b. b!x1.0", 2),
]


@pytest.mark.parametrize("env, text, fuel", PRINTED_PROCESSES)
def test_printing_equals_the_reference_on_the_readme_processes(env: str, text: str, fuel: int) -> None:
    symtab: dict[str, Atom] = {}
    for ident in filter(None, env.split(",")):
        intern(symtab, ident)
    proc, symtab = parse(text, symtab)
    assert assert_prints_as_reference(Config(NameSet.finite(symtab.values()), proc), symtab, fuel) >= 3


IDENTS = ("n", "c", "x0", "x1", "x2", "x3", "x3_1", "x3_2", "x1_1", "x10", "x4_1")


def rand_symtab(rng: random.Random) -> dict[str, Atom]:
    """Identifiers that collide with auto names, some naming one atom twice."""
    symtab = {ident: Atom(rng.randrange(12)) for ident in rng.sample(IDENTS, rng.randrange(len(IDENTS)))}
    if symtab and rng.random() < 0.5:
        symtab["alias"] = rng.choice(list(symtab.values()))
    return symtab


def test_printing_equals_the_reference_on_random_symbol_tables() -> None:
    rng = random.Random(2021)
    for _ in range(400):
        symtab = rand_symtab(rng)
        pool = tuple(Atom(i) for i in rng.sample(range(10), 4))
        t = rand_term(rng, pool, depth=4)
        assert print_term(t, symtab) == ref_print_term(t, symtab), (t, symtab)
        s = rand_nameset(rng)
        assert render_nameset(s, symtab) == ref_render_nameset(s, symtab), (s, symtab)
        act = rand_action(rng)
        assert _action_str(act, symtab) == ref_action_str(act, symtab), (act, symtab)
    for _ in range(40):
        symtab = rand_symtab(rng)
        pool = tuple(Atom(i) for i in rng.sample(range(10), 3))
        env = NameSet.finite(rng.sample(pool, rng.randrange(1, 4)))
        assert_prints_as_reference(Config(env, rand_term(rng, pool, depth=3)), symtab, 2)


class CountingSymtab(dict):
    """A symbol table that counts how often its entries are read in bulk."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()


def test_each_print_call_reads_the_symbol_table_a_bounded_number_of_times() -> None:
    def reads(symtab: CountingSymtab, call, *args) -> int:
        before = symtab.reads
        call(*args)
        return symtab.reads - before

    for n in (10, 400):
        symtab = CountingSymtab((f"n{i}", Atom(i)) for i in range(n))
        atoms = list(dict.values(symtab))
        text = " | ".join(f"new b. c?(x). n{i}!b. x!n{n - 1 - i}. 0" for i in range(n))
        t, _ = parse(text, dict(symtab))
        # n names, 2n binders and n auto names in one output: two reads
        assert reads(symtab, print_term, t, symtab) == 2
        for s in (NameSet.finite(atoms), NameSet.cofinite(atoms)):
            assert reads(symtab, render_nameset, s, symtab) == 1
        assert reads(symtab, _action_str, BoundOutput(Atom(0), Atom(n)), symtab) == 1
