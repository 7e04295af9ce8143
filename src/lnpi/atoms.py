"""Atoms (countable names) and finitely-supported permutations.

Atoms are bare natural indices; display names live in the CLI symbol
table, never here.  Permutations are stored as finite bijections in
canonical form (no fixed points recorded), so equality is structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Atom:
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"atom index must be a natural number, got {self.index}")

    def __repr__(self) -> str:
        return f"a{self.index}"

    def perm_apply(self, p: Permutation) -> Atom:
        return p(self)

    def support(self):
        from .namesets import NameSet

        return NameSet.finite([self])


def is_natural(x) -> bool:
    """The rule for every index read from JSON: an int (not a bool) that is >= 0."""
    return type(x) is int and x >= 0


@dataclass(frozen=True)
class Permutation:
    """A bijection on atoms moving only finitely many of them.

    ``pairs`` holds (source index, target index) entries sorted by source,
    self-maps dropped.  Built via ``swap``/``compose``/``identity`` rather
    than directly.
    """

    pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        mapping = {s: t for s, t in self.pairs if s != t}
        if len(mapping) != len({t for t in mapping.values()}):
            raise ValueError("permutation mapping is not injective")
        if set(mapping) != set(mapping.values()):
            raise ValueError("permutation domain and image differ (not a bijection)")
        object.__setattr__(self, "pairs", tuple(sorted(mapping.items())))

    def __call__(self, a: Atom) -> Atom:
        for s, t in self.pairs:
            if s == a.index:
                return Atom(t)
        return a

    def inverse(self) -> Permutation:
        return Permutation(tuple((t, s) for s, t in self.pairs))

    def moved(self) -> tuple[Atom, ...]:
        return tuple(Atom(s) for s, _ in self.pairs)

    def perm_apply(self, p: Permutation) -> Permutation:
        # A permutation is itself a permutation value: p acts by conjugation.
        return compose(p, compose(self, p.inverse()))

    def support(self):
        from .namesets import NameSet

        return NameSet.finite(self.moved())

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles of the moved atoms, each rotated to start at its least index."""
        mapping = dict(self.pairs)
        seen: set[int] = set()
        out: list[list[int]] = []
        for start in sorted(mapping):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = mapping[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = mapping[nxt]
            out.append(cyc)
        return out

    @classmethod
    def from_cycles(cls, cycles: list[list[int]]) -> Permutation:
        """The permutation of disjoint cycles; raises ValueError if an index
        occurs twice, within one cycle or across two."""
        pairs, seen = [], set()
        for cyc in cycles:
            for i, s in enumerate(cyc):
                if s in seen:
                    raise ValueError(f"atom {s} occurs twice in the cycles")
                seen.add(s)
                pairs.append((s, cyc[(i + 1) % len(cyc)]))
        return cls(tuple(pairs))


def identity() -> Permutation:
    return Permutation()


def swap(a: Atom, b: Atom) -> Permutation:
    return Permutation(((a.index, b.index), (b.index, a.index)))


def compose(p1: Permutation, p2: Permutation) -> Permutation:
    """p2 first, then p1: compose(p1, p2)(a) = p1(p2(a))."""
    carrier = {s for s, _ in p1.pairs} | {s for s, _ in p2.pairs}
    return Permutation(tuple((s, p1(p2(Atom(s))).index) for s in carrier))
