"""Locally nameless pi-calculus syntax.

Bound occurrences are de Bruijn indices counting enclosing binders
(input prefix and restriction each bind one level), free occurrences are
atoms.  Alpha-equivalence is therefore plain structural equality.

Only ``Inp`` and ``Res`` shift the level, and that rule lives in two
traversals (the generic scheme of Charguéraud, *The Locally Nameless
Representation*, JAR 2012): ``map_names`` rebuilds a term with each name
replaced by a function of the name and its level, and ``name_levels``
lists the names with their levels in preorder.  The methods
``Term.open_at``, ``close_at``, ``perm_apply`` and ``lc_at``, and the free
atoms, are one line each over these two, with the per-name cases as
methods of ``Free``/``Bound``.

Two local-closure deciders are exposed: ``Term.lc_at`` compares each
bound index with its level, ``term_lc`` follows the inductive definition,
opening each binder body with fresh witnesses.  They agree (tested
property).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from .atoms import Atom, Permutation
from .codec import Record
from .namesets import NameSet
from .permtypes import IndexedFamily


class Name(Record):
    """A channel or message occurrence: ``Free`` or ``Bound``, written
    ``{"free": atom}`` or ``{"bound": level}``."""


@dataclass(frozen=True)
class Free(Name):
    json_keys = {"atom": "free"}
    atom: Atom

    def open_at(self, i: int, x: Atom) -> Name:
        return self

    def close_at(self, i: int, x: Atom) -> Name:
        return Bound(i) if self.atom == x else self

    def lc_at(self, i: int) -> bool:
        return True

    def perm_apply(self, p: Permutation) -> Name:
        moved = p(self.atom)
        return self if moved is self.atom else Free(moved)

    def support(self) -> NameSet:
        return NameSet.finite([self.atom])


@dataclass(frozen=True)
class Bound(Name):
    json_keys = {"level": "bound"}
    level: int

    def open_at(self, i: int, x: Atom) -> Name:
        return Free(x) if self.level == i else self

    def close_at(self, i: int, x: Atom) -> Name:
        return self

    def lc_at(self, i: int) -> bool:
        return self.level < i

    def perm_apply(self, p: Permutation) -> Name:
        return self

    def support(self) -> NameSet:
        return NameSet.empty()


name_from_json = Name.from_json


class Term(Record):
    def open_at(self, i: int, x: Atom) -> Term:
        return map_names(self, lambda n, d: n.open_at(d, x), i)

    def close_at(self, i: int, x: Atom) -> Term:
        return map_names(self, lambda n, d: n.close_at(d, x), i)

    def lc_at(self, i: int) -> bool:
        return all(n.lc_at(d) for n, d in name_levels(self, i))

    def lc_cofinite(self) -> bool:
        return term_lc(self)

    def perm_apply(self, p: Permutation) -> Term:
        return map_names(self, lambda n, _: n.perm_apply(p))

    def support(self) -> NameSet:
        return free_names(self)


@dataclass(frozen=True)
class Nil(Term):
    tag = "nil"


@dataclass(frozen=True)
class Sum(Term):
    tag = "sum"
    json_keys = {"procs": {"entries": tuple[Term, ...], "default": Term}}
    procs: IndexedFamily  # countable choice: finite prefix + default


@dataclass(frozen=True)
class Inp(Term):
    tag = "inp"
    chan: Name
    body: Term  # binds one level


@dataclass(frozen=True)
class Out(Term):
    tag = "out"
    chan: Name
    msg: Name
    cont: Term


@dataclass(frozen=True)
class Par(Term):
    tag = "par"
    left: Term
    right: Term


@dataclass(frozen=True)
class Res(Term):
    tag = "res"
    body: Term  # binds one level


@dataclass(frozen=True)
class Rep(Term):
    tag = "rep"
    body: Term


def map_names(t: Term, f: Callable[[Name, int], Name], i: int = 0) -> Term:
    """t with each name n found under d binders replaced by f(n, i + d).  A
    subterm whose names all map to themselves is kept, not rebuilt, so equal
    parts stay one object and compare by identity."""
    match t:
        case Nil():
            return t
        case Sum(fam):
            entries = tuple(map_names(e, f, i) for e in fam.entries)
            default = map_names(fam.default, f, i)
            if default is fam.default and all(map(operator.is_, entries, fam.entries)):
                return t
            return Sum(IndexedFamily(entries, default))
        case Inp(c, b):
            c2, b2 = f(c, i), map_names(b, f, i + 1)
            return t if c2 is c and b2 is b else Inp(c2, b2)
        case Out(c, m, k):
            c2, m2, k2 = f(c, i), f(m, i), map_names(k, f, i)
            return t if c2 is c and m2 is m and k2 is k else Out(c2, m2, k2)
        case Par(l, r):
            l2, r2 = map_names(l, f, i), map_names(r, f, i)
            return t if l2 is l and r2 is r else Par(l2, r2)
        case Res(b):
            b2 = map_names(b, f, i + 1)
            return t if b2 is b else Res(b2)
        case Rep(b):
            b2 = map_names(b, f, i)
            return t if b2 is b else Rep(b2)
    raise TypeError(f"not a term: {t!r}")


def name_levels(t: Term, i: int = 0, out: list | None = None) -> list[tuple[Name, int]]:
    """The names of t in preorder, each paired with i plus the binders above
    it (appended to out when given)."""
    if out is None:
        out = []
    match t:
        case Nil():
            pass
        case Sum(fam):
            for e in fam.parts():
                name_levels(e, i, out)
        case Inp(c, b):
            out.append((c, i))
            name_levels(b, i + 1, out)
        case Out(c, m, k):
            out += ((c, i), (m, i))
            name_levels(k, i, out)
        case Par(l, r):
            name_levels(l, i, out)
            name_levels(r, i, out)
        case Res(b):
            name_levels(b, i + 1, out)
        case Rep(b):
            name_levels(b, i, out)
        case _:
            raise TypeError(f"not a term: {t!r}")
    return out


def term_atom_list(t: Term) -> list[Atom]:
    """Free atoms in preorder, with repeats."""
    return [n.atom for n, _ in name_levels(t) if isinstance(n, Free)]


def free_names(t: Term) -> NameSet:
    """The support of a term: its free atoms (always a finite set)."""
    return NameSet.finite(term_atom_list(t))


# The fresh atoms beyond the first that term_lc opens each binder body at.
LC_EXTRA_WITNESSES = 3


def term_lc(t: Term) -> bool:
    """Local closure by the inductive definition: every binder body must be
    locally closed once opened with any sufficiently fresh atom."""
    match t:
        case Nil():
            return True
        case Sum(f):
            return all(term_lc(e) for e in f.parts())
        case Inp(c, b):
            return isinstance(c, Free) and all(
                term_lc(b.open_at(0, w)) for w in free_names(b).least_outside(1 + LC_EXTRA_WITNESSES)
            )
        case Out(c, m, k):
            return isinstance(c, Free) and isinstance(m, Free) and term_lc(k)
        case Par(l, r):
            return term_lc(l) and term_lc(r)
        case Res(b):
            return all(
                term_lc(b.open_at(0, w)) for w in free_names(b).least_outside(1 + LC_EXTRA_WITNESSES)
            )
        case Rep(b):
            return term_lc(b)
    raise TypeError(f"not a term: {t!r}")


def term_size(t: Term) -> int:
    match t:
        case Nil():
            return 1
        case Sum(f):
            return 1 + sum(term_size(e) for e in f.parts())
        case Inp(_, b) | Res(b) | Rep(b):
            return 1 + term_size(b)
        case Out(_, _, k):
            return 1 + term_size(k)
        case Par(l, r):
            return 1 + term_size(l) + term_size(r)
    raise TypeError(f"not a term: {t!r}")


def par_factors(t: Term) -> list[Term]:
    """The leaves of the parallel-composition spine, left to right."""
    if isinstance(t, Par):
        return par_factors(t.left) + par_factors(t.right)
    return [t]


# The codec's entry points under their names from before it derived them.
term_key, term_to_json, term_from_json = Term.key, Term.to_json, Term.from_json
