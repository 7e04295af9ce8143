"""Brute-force support oracle.

The definition of support quantifies over all atoms: a is in supp(t)
when infinitely many b satisfy (a b)t != t.  For the values the test
generators build, whether (a b)t != t is eventually periodic in b:
every explicitly stored index is below 12, and the periodic bases a
value combines have moduli whose lcm is at most 30 (single bases are
canonical with modulus <= 6).  Past index 12 the outcome therefore
depends only on b's residue class, and the window 13..63 contains a
full period, so probing it decides the infinite set exactly.  The
probes of a candidate a, the swaps (a b) for b in the window other than
a in ascending order, are built once and kept in a bounded table; no
answer is kept, and the structural supp is never read.  A probe that
fixes t gets t itself back, so it costs an identity test, not a
comparison.
"""

from __future__ import annotations

from functools import lru_cache

from .atoms import Atom, Permutation, swap
from .namesets import NameSet
from .permtypes import apply

THRESHOLD = 12
PROBE = 64


@lru_cache(maxsize=PROBE)  # bounded: a caller may ask any candidate
def _probes(index: int) -> tuple[Permutation, ...]:
    a = Atom(index)
    return tuple(swap(a, Atom(b)) for b in range(THRESHOLD + 1, PROBE) if b != index)


def in_supp(a: Atom, t) -> bool:
    """Does the definition put a in supp(t)?"""
    return any((moved := apply(p, t)) is not t and moved != t for p in _probes(a.index))


def supp_disagreements(t, computed: NameSet, candidates: int = THRESHOLD) -> list[int]:
    """Indices below `candidates` where the structural supp disagrees
    with the definition; empty means agreement on the window."""
    return [
        i
        for i in range(candidates)
        if computed.member(Atom(i)) != in_supp(Atom(i), t)
    ]
