"""Decidable sets of atoms: periodic base plus finite exceptions.

The representation covers every set this project needs — finite
environments, cofinite complements, and residue-class sets such as the
even and odd atoms — and is closed under the boolean operations,
permutation action, and support.  Canonical form (minimal modulus,
exceptions that genuinely disagree with the base) makes structural
equality extensional equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, filterfalse, islice
from typing import Iterable

from .atoms import Atom, Permutation
from .codec import DecodeError, Record


class AllNamesAvoided(Exception):
    """fresh() was asked to avoid every atom."""


class Exhausted(Exception):
    """pick_outside() found nothing: the set minus the avoided atoms is empty."""


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
    residues: frozenset[int] = field(default=frozenset())
    # (atom index, member?) overrides, each disagreeing with the base.
    exceptions: tuple[tuple[int, bool], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if self.modulus == 1:
            # Finite or cofinite: the base is a constant, nothing to minimise.
            mod, res = 1, _ALL if self.residues else _NONE
        else:
            res = frozenset(r % self.modulus for r in self.residues)
            mod, res = _min_modulus(self.modulus, res)
            if len(res) == mod:  # full base collapses to modulus 1
                mod, res = 1, _ALL
        exc = dict(self.exceptions)  # later entries win
        exc = {a: v for a, v in exc.items() if v != ((a % mod) in res)}
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "exceptions", tuple(sorted(exc.items())))

    # ------------- constructors -------------

    @classmethod
    def empty(cls) -> NameSet:
        return cls()

    @classmethod
    def all_atoms(cls) -> NameSet:
        return cls(1, frozenset({0}))

    @classmethod
    def finite(cls, atoms: Iterable[Atom]) -> NameSet:
        return cls(1, frozenset(), tuple((a.index, True) for a in atoms))

    @classmethod
    def cofinite(cls, excluded: Iterable[Atom]) -> NameSet:
        return cls(1, frozenset({0}), tuple((a.index, False) for a in excluded))

    @classmethod
    def periodic(cls, modulus: int, residues: Iterable[int]) -> NameSet:
        return cls(modulus, frozenset(residues))

    # ------------- queries -------------

    def _base(self, index: int) -> bool:
        return (index % self.modulus) in self.residues

    def _member_index(self, index: int) -> bool:
        for a, v in self.exceptions:
            if a == index:
                return v
        return self._base(index)

    def member(self, a: Atom) -> bool:
        return self._member_index(a.index)

    def __contains__(self, a: Atom) -> bool:
        return self.member(a)

    def is_finite(self) -> bool:
        return not self.residues

    def is_infinite(self) -> bool:
        return bool(self.residues)

    def is_empty(self) -> bool:
        return not self.residues and not any(v for _, v in self.exceptions)

    def is_all(self) -> bool:
        return self.complement().is_empty()

    def is_cofinite(self) -> bool:
        return self.complement().is_finite()

    def enumerate(self, k: int) -> list[Atom]:
        """The k least members (fewer if the set is smaller)."""
        return self.complement().least_outside(k)

    def least_outside(self, k: int) -> list[Atom]:
        """The k least atoms not in the set (fewer if its complement is smaller)."""
        if self.modulus == 1 and self.residues:  # cofinite: the removed atoms
            return [Atom(a) for a, v in self.exceptions if not v][:k]
        if self.modulus == 1:  # finite: its exceptions are its members
            inside = {a for a, _ in self.exceptions}.__contains__
        else:  # genuinely periodic: the complement is infinite, so the scan ends
            inside = self._member_index
        return [Atom(n) for n in islice(filterfalse(inside, count()), k)]

    def atoms(self) -> tuple[Atom, ...]:
        """All members of a finite set, ascending."""
        if not self.is_finite():
            raise ValueError("atoms() requires a finite set")
        return tuple(Atom(a) for a, v in self.exceptions if v)

    def pick_outside(self, avoid: NameSet) -> Atom:
        """Least member of self not in avoid."""
        rest = self.difference(avoid)
        if rest.is_empty():
            raise Exhausted("no atom of the set lies outside the avoided one")
        return rest.enumerate(1)[0]

    # ------------- boolean algebra -------------

    def _binary(self, other: NameSet, op) -> NameSet:
        if self.modulus == 1 and other.modulus == 1:
            # Finite and cofinite sets: each base is a constant.
            x, y = bool(self.residues), bool(other.residues)
            xs, ys = dict(self.exceptions), dict(other.exceptions)
            exc = tuple((a, op(xs.get(a, x), ys.get(a, y))) for a in sorted(xs.keys() | ys.keys()))
            return NameSet(1, _ALL if op(x, y) else _NONE, exc)
        mod = math.lcm(self.modulus, other.modulus)
        res = frozenset(r for r in range(mod) if op(self._base(r), other._base(r)))
        touched = {a for a, _ in self.exceptions} | {a for a, _ in other.exceptions}
        exc = tuple((a, op(self._member_index(a), other._member_index(a))) for a in sorted(touched))
        return NameSet(mod, res, exc)

    def union(self, other: NameSet) -> NameSet:
        return self._binary(other, lambda x, y: x or y)

    def inter(self, other: NameSet) -> NameSet:
        return self._binary(other, lambda x, y: x and y)

    def difference(self, other: NameSet) -> NameSet:
        return self._binary(other, lambda x, y: x and not y)

    def complement(self) -> NameSet:
        res = frozenset(r for r in range(self.modulus) if r not in self.residues)
        return NameSet(self.modulus, res, tuple((a, not v) for a, v in self.exceptions))

    def subset_of(self, other: NameSet) -> bool:
        return self.difference(other).is_empty()

    # ------------- permutation action and support -------------

    def perm_apply(self, p: Permutation) -> NameSet:
        """The image {p(a) | a in S}; the periodic base survives because p moves finitely many atoms."""
        if self.modulus == 1:
            # The base is a constant, so each exception moves with its atom.
            move = dict(p.pairs)
            return NameSet(1, self.residues, tuple((move.get(a, a), v) for a, v in self.exceptions))
        inv = p.inverse()
        exc = {b.index: self.member(inv(b)) for b in p.moved()}
        for a, v in self.exceptions:
            if a not in exc:
                exc[a] = v
        return NameSet(self.modulus, self.residues, tuple(sorted(exc.items())))

    def support(self) -> NameSet:
        # Finite sets are their own support, cofinite sets are supported by
        # their complement, and a genuinely periodic set (both it and its
        # complement infinite) is moved by swapping any atom across the
        # membership boundary, so every atom is in the support.
        if self.is_finite():
            return self
        comp = self.complement()
        if comp.is_finite():
            return comp
        return NameSet.all_atoms()

    # ------------- serialization -------------

    def to_json(self) -> dict:
        return {
            "mod": self.modulus,
            "res": sorted(self.residues),
            "add": [a for a, v in self.exceptions if v],
            "remove": [a for a, v in self.exceptions if not v],
        }

    @classmethod
    def from_json(cls, data) -> NameSet:
        """Decode to_json output: exactly its four keys, natural numbers
        throughout and a modulus in 1..MAX_JSON_MODULUS; raises DecodeError
        on anything else."""
        j = _Json.from_json(data)
        if not 1 <= j.mod <= MAX_JSON_MODULUS:
            raise DecodeError(f"expected a modulus in 1..{MAX_JSON_MODULUS}, got {j.mod}").at("mod")
        exc = [(a, True) for a in j.add] + [(a, False) for a in j.remove]
        return cls(j.mod, frozenset(j.res), tuple(exc))

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
    if all(s.is_finite() for s in sets):
        # All finite: each set's exceptions are its members, so one
        # construction merges them.
        return NameSet(1, _NONE, tuple(e for s in sets for e in s.exceptions))
    out = NameSet.empty()
    for s in sets:
        out = out.union(s)
    return out


def supp_of_set(s: NameSet) -> NameSet:
    return s.support()


def fresh(avoid: NameSet) -> Atom:
    """The least atom not in avoid."""
    found = avoid.least_outside(1)
    if not found:
        raise AllNamesAvoided("every atom is avoided")
    return found[0]
