import random

import pytest

from lnpi import gen
from lnpi.atoms import Atom, swap
from lnpi.namesets import NameSet
from lnpi.oracle import PROBE, THRESHOLD, in_supp, supp_disagreements
from lnpi.permtypes import apply, supp
from lnpi.pisyntax import Bound, Free, Nil, Out, Res
from lnpi.props import SUITES, run_suite

a = [Atom(i) for i in range(10)]


# ------------- the brute-force support oracle -------------


def test_oracle_window_straddles_the_index_threshold() -> None:
    assert THRESHOLD < PROBE


def test_oracle_agrees_on_atoms() -> None:
    assert in_supp(a[3], a[3])
    assert not in_supp(a[2], a[3])


def test_oracle_agrees_on_permutations() -> None:
    # a swap is changed by relabeling either endpoint, nothing else
    p = swap(a[0], a[1])
    assert in_supp(a[0], p) and in_supp(a[1], p)
    assert not in_supp(a[2], p)
    assert supp_disagreements(p, supp(p)) == []


def test_oracle_agrees_on_terms() -> None:
    t = Res(Out(Free(a[0]), Bound(0), Nil()))
    assert in_supp(a[0], t)
    assert not in_supp(a[1], t)  # the binder hides its name
    assert supp_disagreements(t, supp(t)) == []


def test_oracle_agrees_on_periodic_sets() -> None:
    odd = NameSet.periodic(2, [1])
    assert in_supp(a[0], odd) and in_supp(a[1], odd)
    assert not in_supp(a[0], odd.union(odd.complement()))
    assert supp_disagreements(odd, supp(odd)) == []


def test_oracle_flags_wrong_support_claims() -> None:
    t = (a[0], a[1])
    assert supp_disagreements(t, NameSet.finite([a[0]])) == [1]
    assert supp_disagreements(t, NameSet.finite([a[0], a[1], a[2]])) == [2]


def ref_in_supp(a: Atom, t) -> bool:
    """The oracle before it kept its probes in a table: a new swap per probe."""
    return any(b != a.index and apply(swap(a, Atom(b)), t) != t for b in range(THRESHOLD + 1, PROBE))


def test_the_probe_table_decides_what_new_swaps_decide() -> None:
    # Candidates below the threshold, past it, and inside the window (20).
    rng = random.Random(37)
    hits = 0
    for _ in range(40):
        for v in (
            gen.rand_atom(rng),
            gen.rand_perm(rng),
            gen.rand_term(rng, depth=2),
            gen.rand_nameset(rng, hi=12),
            (gen.rand_atom(rng), gen.rand_nameset(rng, hi=12)),
            [gen.rand_atom(rng)],
            gen.rand_family(rng, gen.rand_atom),
            gen.rand_term_set(rng),
            Atom(20),
            (Atom(20), Atom(rng.randrange(12))),
        ):
            for i in (*range(16), 20, 40, 63, 64, 70):
                got = in_supp(Atom(i), v)
                assert got == ref_in_supp(Atom(i), v), (i, v)
                hits += got
    assert hits > 100


# ------------- the suites -------------


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_smoke_size(name: str) -> None:
    result = run_suite(name, cases=60, seed=1)
    assert result.failures == []
    assert result.cases == 60
    assert result.checks > 0


def test_suites_are_deterministic_per_seed() -> None:
    r1 = run_suite("binder-axioms", 30, seed=5)
    r2 = run_suite("binder-axioms", 30, seed=5)
    assert (r1.checks, r1.failures) == (r2.checks, r2.failures)


def test_unknown_suite_name_is_an_error() -> None:
    with pytest.raises(KeyError):
        run_suite("no-such-suite", 10, 0)


# ------------- spot values the suites rely on -------------


def test_support_of_a_swap_is_its_endpoints() -> None:
    assert supp(swap(a[0], a[1])) == NameSet.finite([a[0], a[1]])


def test_lts_suite_exercises_every_rule() -> None:
    # regenerate the suite's configurations and count which rules the
    # enumerator used; a missing rule means the generators went stale
    from lnpi.gen import rand_config
    from lnpi.lts import step

    rng = random.Random(0)
    seen: set[str] = set()
    for _ in range(400):
        cfg = rand_config(rng)
        for _, d in step(cfg, 2).results:
            seen.add(d.rule)
    assert seen == {
        "Out", "Inp", "Sum", "Par-L", "Par-R",
        "Comm-L", "Comm-R", "Close-L", "Close-R",
        "Res", "Open", "Rep",
    }
