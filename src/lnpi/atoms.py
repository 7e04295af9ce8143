"""Atoms (countable names) and finitely-supported permutations.

Atoms are bare natural indices; display names live in the CLI symbol
table, never here.  Permutations are stored as finite bijections in
canonical form (no fixed points recorded), so equality is structural.
Only the public constructor and ``from_cycles`` check bijectivity.
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
    self-maps dropped; ``mapping``, not a field and never changed, holds them
    as a dict.  Built via ``swap``/``compose``/``identity``, not directly.
    """

    pairs: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        mapping = {s: t for s, t in self.pairs if s != t}
        if len(mapping) != len({t for t in mapping.values()}):
            raise ValueError("permutation mapping is not injective")
        if set(mapping) != set(mapping.values()):
            raise ValueError("permutation domain and image differ (not a bijection)")
        self.__dict__.update(pairs=tuple(sorted(mapping.items())), mapping=mapping)

    def __call__(self, a: Atom) -> Atom:
        t = self.mapping.get(a.index)
        return a if t is None else Atom(t)

    def inverse(self) -> Permutation:
        return _bijection({t: s for s, t in self.mapping.items()})

    def moved(self) -> tuple[Atom, ...]:
        return tuple(Atom(s) for s, _ in self.pairs)

    def perm_apply(self, p: Permutation) -> Permutation:
        # p acts on a permutation by conjugation, which maps p(s) to p(self(s));
        # a p that moves none of self's atoms leaves self as it is.
        if p.mapping.keys().isdisjoint(self.mapping):
            return self
        move = p.mapping.get
        return _bijection({move(s, s): move(t, t) for s, t in self.mapping.items()})

    def support(self):
        from .namesets import NameSet

        return NameSet.finite(self.moved())

    def cycles(self) -> list[list[int]]:
        """Disjoint cycles of the moved atoms, each rotated to start at its least index."""
        seen: set[int] = set()
        out: list[list[int]] = []
        for start in sorted(self.mapping):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.mapping[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.mapping[nxt]
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


def _bijection(mapping: dict[int, int], pairs: tuple | None = None) -> Permutation:
    """The permutation with this mapping, a bijection by construction, left
    unchecked; fixed points are dropped unless its sorted pairs are given."""
    if pairs is None:
        mapping = {s: t for s, t in mapping.items() if s != t}
        pairs = tuple(sorted(mapping.items()))
    p = object.__new__(Permutation)
    p.__dict__.update(pairs=pairs, mapping=mapping)
    return p


def identity() -> Permutation:
    return Permutation()


def swap(a: Atom, b: Atom) -> Permutation:
    i, j = (a.index, b.index) if a.index < b.index else (b.index, a.index)
    return _bijection({i: j, j: i}, ((i, j), (j, i))) if i != j else identity()


def compose(p1: Permutation, p2: Permutation) -> Permutation:
    """p2 first, then p1: compose(p1, p2)(a) = p1(p2(a))."""
    m1 = p1.mapping
    return _bijection({**m1, **{s: m1.get(t, t) for s, t in p2.mapping.items()}})
