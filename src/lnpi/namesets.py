"""Decidable sets of atoms: a periodic base plus the atoms that flip it.

The representation covers every set this project needs — finite
environments, cofinite complements, and residue-class sets such as the
even and odd atoms — and is closed under the boolean operations,
permutation action, and support.  A set is a base (atoms by residue
modulo a modulus) and the finite set of atoms whose membership differs
from it.  Once the modulus is minimised the base is unique, so every set
of flips is canonical and structural equality is extensional equality.
A finite set is its members flipped out of the empty base, so the boolean
operations on two finite sets are the frozenset operations on their flips;
only a periodic or cofinite operand costs a scan of the residues.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count, filterfalse, islice
from typing import Iterable

from .atoms import Atom, Permutation
from .codec import DecodeError, Record


class AllNamesAvoided(Exception):
    """fresh() was asked to avoid every atom."""


def _min_modulus(modulus: int, residues: frozenset[int]) -> tuple[int, frozenset[int]]:
    # Smallest divisor d of modulus whose classes the residues are a union of.
    for d in range(1, modulus + 1):
        if modulus % d:
            continue
        classes = {c: (c in residues) for c in range(d)}
        if all((r in residues) == classes[r % d] for r in range(modulus)):
            return d, frozenset(c for c in range(d) if classes[c])
    return modulus, residues  # unreachable: d = modulus always fits


_NONE = frozenset()
_ALL = frozenset({0})


@dataclass(frozen=True)
class NameSet:
    modulus: int = 1
    residues: frozenset[int] = _NONE
    # The atoms whose membership differs from the base's.
    flips: frozenset[int] = _NONE

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if self.modulus == 1:  # the base is a constant: nothing to minimise
            res = _ALL if self.residues else _NONE
        else:
            mod, res = _min_modulus(self.modulus, frozenset(r % self.modulus for r in self.residues))
            object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "residues", res)
        if not self.flips:
            object.__setattr__(self, "flips", _NONE)

    # ------------- constructors -------------

    @classmethod
    def of(cls, modulus: int, residues: Iterable[int], overrides: Iterable[tuple[int, bool]] = ()) -> NameSet:
        """The base of modulus and residues with each (atom index, member?)
        override applied in turn, so a later override of an atom wins."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        res = frozenset(r % modulus for r in residues)
        return cls(modulus, res, frozenset(a for a, v in dict(overrides).items() if v != ((a % modulus) in res)))

    @classmethod
    def empty(cls) -> NameSet:
        return cls()

    @classmethod
    def all_atoms(cls) -> NameSet:
        return cls(1, _ALL)

    @classmethod
    def finite(cls, atoms: Iterable[Atom]) -> NameSet:
        return cls(1, _NONE, frozenset(a.index for a in atoms))

    @classmethod
    def cofinite(cls, excluded: Iterable[Atom]) -> NameSet:
        return cls(1, _ALL, frozenset(a.index for a in excluded))

    @classmethod
    def periodic(cls, modulus: int, residues: Iterable[int]) -> NameSet:
        return cls(modulus, frozenset(residues))

    # ------------- queries -------------

    def _base(self, index: int) -> bool:
        return (index % self.modulus) in self.residues

    def _member_index(self, index: int) -> bool:
        return self._base(index) != (index in self.flips)

    def member(self, a: Atom) -> bool:
        return self._member_index(a.index)

    def __contains__(self, a: Atom) -> bool:
        return self.member(a)

    @property
    def exceptions(self) -> tuple[tuple[int, bool], ...]:
        """The flips as (atom index, member?) pairs, ascending."""
        return tuple((a, not self._base(a)) for a in sorted(self.flips))

    def is_finite(self) -> bool:
        return not self.residues

    def is_empty(self) -> bool:
        return not self.residues and not self.flips

    def is_cofinite(self) -> bool:
        return len(self.residues) == self.modulus

    def enumerate(self, k: int) -> list[Atom]:
        """The k least members (fewer if the set is smaller)."""
        return self.complement().least_outside(k)

    def least_outside(self, k: int) -> list[Atom]:
        """The k least atoms not in the set (fewer if its complement is smaller)."""
        if self.is_cofinite():  # the complement is the flips: a scan would not end
            return [Atom(a) for a in sorted(self.flips)[:k]]
        # A finite set's members are its flips, so its scan runs in C.
        member = self._member_index if self.residues else self.flips.__contains__
        return [Atom(n) for n in islice(filterfalse(member, count()), k)]

    def atoms(self) -> tuple[Atom, ...]:
        """All members of a finite set, ascending."""
        if not self.is_finite():
            raise ValueError("atoms() requires a finite set")
        return tuple(Atom(a) for a in sorted(self.flips))

    # ------------- boolean algebra -------------

    def _binary(self, other: NameSet, op, flips_op) -> NameSet:
        # op combines memberships; flips_op is the same operation on the
        # flips, which are the members of a finite set.
        if not self.residues and not other.residues:
            return NameSet(flips=flips_op(self.flips, other.flips))
        mod = math.lcm(self.modulus, other.modulus)
        res = frozenset(r for r in range(mod) if op(self._base(r), other._base(r)))
        flips = frozenset(
            a for a in self.flips | other.flips
            if op(self._member_index(a), other._member_index(a)) != ((a % mod) in res)
        )
        return NameSet(mod, res, flips)

    def union(self, other: NameSet) -> NameSet:
        return self._binary(other, operator.or_, operator.or_)

    def inter(self, other: NameSet) -> NameSet:
        return self._binary(other, operator.and_, operator.and_)

    def difference(self, other: NameSet) -> NameSet:
        return self._binary(other, lambda x, y: x and not y, operator.sub)

    def complement(self) -> NameSet:
        return NameSet(self.modulus, frozenset(range(self.modulus)) - self.residues, self.flips)

    def subset_of(self, other: NameSet) -> bool:
        return self.difference(other).is_empty()

    # ------------- permutation action and support -------------

    def perm_apply(self, p: Permutation) -> NameSet:
        """The image {p(a) | a in S}, S itself if p fixes it; the periodic base survives."""
        # p(a) is in the image iff a is in S: a moved target flips iff a's
        # membership differs from the base at p(a); any other atom keeps its flip.
        moved = p.mapping
        hits = {b for a, b in moved.items() if self._member_index(a) != self._base(b)}
        if hits == moved.keys() & self.flips:  # p moves atoms onto atoms of the same membership
            return self
        # The base is unchanged, so it is still minimal and is not minimised again.
        image = object.__new__(NameSet)
        image.__dict__.update(modulus=self.modulus, residues=self.residues,
                              flips=self.flips.difference(moved).union(hits) or _NONE)
        return image

    def support(self) -> NameSet:
        # Finite sets are their own support, cofinite sets are supported by
        # their complement, and a genuinely periodic set (both it and its
        # complement infinite) is moved by swapping any atom across the
        # membership boundary, so every atom is in the support.
        if self.is_finite():
            return self
        if self.is_cofinite():
            return self.complement()
        return NameSet.all_atoms()

    # ------------- serialization -------------

    def to_json(self) -> dict:
        exc = self.exceptions
        return {
            "mod": self.modulus,
            "res": sorted(self.residues),
            "add": [a for a, v in exc if v],
            "remove": [a for a, v in exc if not v],
        }

    @classmethod
    def from_json(cls, data) -> NameSet:
        """Decode to_json output: exactly its four keys, natural numbers
        throughout and a modulus in 1..MAX_JSON_MODULUS; raises DecodeError
        on anything else."""
        j = _Json.from_json(data)
        if not 1 <= j.mod <= MAX_JSON_MODULUS:
            raise DecodeError(f"expected a modulus in 1..{MAX_JSON_MODULUS}, got {j.mod}").at("mod")
        return cls.of(j.mod, j.res, [(a, True) for a in j.add] + [(a, False) for a in j.remove])

    def key(self) -> tuple:
        return (self.modulus, tuple(sorted(self.residues)), self.exceptions)


# Bounds the moduli a name-set file may carry: combining two periodic sets
# scans the lcm of their moduli, and minimising a modulus is quadratic in it.
MAX_JSON_MODULUS = 64


@dataclass(frozen=True)
class _Json(Record):  # the JSON form of a NameSet, which from_json decodes through
    mod: int
    res: tuple[int, ...]
    add: tuple[int, ...]
    remove: tuple[int, ...]


def union_all(*sets: NameSet) -> NameSet:
    # A finite set's flips are its members: the finite sets are merged in
    # one step, and only the others go through union.
    out = NameSet(flips=_NONE.union(*(s.flips for s in sets if not s.residues)))
    for s in sets:
        if s.residues:
            out = out.union(s)
    return out


def fresh(avoid: NameSet) -> Atom:
    """The least atom not in avoid."""
    found = avoid.least_outside(1)
    if not found:
        raise AllNamesAvoided("every atom is avoided")
    return found[0]
