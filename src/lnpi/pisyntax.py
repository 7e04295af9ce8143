"""Locally nameless pi-calculus syntax.

Bound occurrences are de Bruijn indices counting enclosing binders
(input prefix and restriction each bind one level), free occurrences are
atoms.  Alpha-equivalence is therefore plain structural equality.

Every term node holds three facts, each stored when first needed and
computed from its children's with an explicit stack: its free atoms (a
frozenset of indices), the least level at which it is locally closed, and
its hash.  ``free_names`` and ``Term.lc_at`` read them in O(1), and
``__hash__`` returns the stored hash, which equals the hash of the node's
field tuple as a dataclass computes it, so sets of terms iterate as they
always did.  Equality walks with an explicit stack too, and rejects two
nodes that hold differing hashes without looking further.  Neither it nor
construction computes facts, so parsing and printing pay for facts only
where they read them.

Only ``Inp`` and ``Res`` shift the level, and that rule lives in two
traversals (the generic scheme of Charguéraud, *The Locally Nameless
Representation*, JAR 2012): ``map_names`` rebuilds a term with each name
replaced by a function of the name and its level, and ``name_levels``
lists the names with their levels in preorder.  ``map_names`` keeps a
subterm that its skip predicate says the function leaves alone, judged
from the facts the subterm already holds (the predicates never compute
facts): ``open_at`` keeps a subterm locally closed at its level, since
opening it does nothing (Charguéraud), ``close_at`` one that does not hold
the atom, and ``perm_apply`` one whose free atoms the permutation fixes
(Pitts, *Nominal Sets*, CUP 2013).  These methods are one line each over
``map_names``, with the per-name cases as methods of ``Free``/``Bound``.

Two local-closure deciders are exposed: ``Term.lc_at`` compares the level
with the least one at which the term is closed, ``term_lc`` follows the
inductive definition, opening each binder body with fresh witnesses.  They
agree (tested property).
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

    __slots__ = ()


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


class Term(Record):
    """A process.  Each constructor lists its subterms (``subterms``) and
    derives its free atoms and closure level from theirs (``_derive``)."""

    # The facts of the module docstring, unset until first needed: _facts
    # stores _fv and _lc, __hash__ stores _hash.
    __slots__ = ("_fv", "_lc", "_hash")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            return _fill(self, "_hash", _store_hash)._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            s, o = todo.pop()
            if s is o:
                continue
            if type(s) is not type(o):
                return False
            hs, ho = getattr(s, "_hash", None), getattr(o, "_hash", None)
            if hs is not None and ho is not None and hs != ho:
                return False
            for field in s.__match_args__:
                x, y = getattr(s, field), getattr(o, field)
                if isinstance(x, Term):
                    todo.append((x, y))
                elif type(x) is IndexedFamily is type(y):
                    if len(x.entries) != len(y.entries):
                        return False
                    todo += zip(x.parts(), y.parts())
                elif x != y:
                    return False
        return True

    def open_at(self, i: int, x: Atom) -> Term:
        return map_names(self, lambda n, d: n.open_at(d, x), _closed_at, i)

    def close_at(self, i: int, x: Atom) -> Term:
        k = x.index
        # A node without facts reads as holding x, so it is walked.
        return map_names(self, lambda n, d: n.close_at(d, x), lambda u, _: k not in getattr(u, "_fv", (k,)), i)

    def lc_at(self, i: int) -> bool:
        return _facts(self)._lc <= i

    def lc_cofinite(self) -> bool:
        return term_lc(self)

    def perm_apply(self, p: Permutation) -> Term:
        moved = {s for s, _ in p.pairs}
        # A node without facts reads as holding every moved atom, so it is walked.
        return map_names(self, lambda n, _: n.perm_apply(p), lambda u, _: moved.isdisjoint(getattr(u, "_fv", moved)))

    def support(self) -> NameSet:
        return free_names(self)


_NO_ATOMS: frozenset[int] = frozenset()


@dataclass(frozen=True, slots=True, eq=False)
class Nil(Term):
    tag = "nil"

    def subterms(self) -> tuple[Term, ...]:
        return ()

    def _derive(self) -> tuple[frozenset[int], int]:
        return _NO_ATOMS, 0


@dataclass(frozen=True, slots=True, eq=False)
class Sum(Term):
    tag = "sum"
    json_keys = {"procs": {"entries": tuple[Term, ...], "default": Term}}
    procs: IndexedFamily  # countable choice: finite prefix + default

    def subterms(self) -> tuple[Term, ...]:
        return self.procs.parts()

    def _derive(self) -> tuple[frozenset[int], int]:
        parts = self.procs.parts()
        return _NO_ATOMS.union(*(p._fv for p in parts)), max(p._lc for p in parts)


@dataclass(frozen=True, slots=True, eq=False)
class Inp(Term):
    tag = "inp"
    chan: Name
    body: Term  # binds one level

    def subterms(self) -> tuple[Term, ...]:
        return (self.body,)

    def _derive(self) -> tuple[frozenset[int], int]:
        return _with_name(self.chan, self.body._fv, max(self.body._lc - 1, 0))


@dataclass(frozen=True, slots=True, eq=False)
class Out(Term):
    tag = "out"
    chan: Name
    msg: Name
    cont: Term

    def subterms(self) -> tuple[Term, ...]:
        return (self.cont,)

    def _derive(self) -> tuple[frozenset[int], int]:
        return _with_name(self.chan, *_with_name(self.msg, self.cont._fv, self.cont._lc))


@dataclass(frozen=True, slots=True, eq=False)
class Par(Term):
    tag = "par"
    left: Term
    right: Term

    def subterms(self) -> tuple[Term, ...]:
        return (self.left, self.right)

    def _derive(self) -> tuple[frozenset[int], int]:
        a, b = self.left._fv, self.right._fv
        # a | b, reusing an operand that holds the other: nested terms share their sets.
        return (a if b <= a else b if a <= b else a | b), max(self.left._lc, self.right._lc)


@dataclass(frozen=True, slots=True, eq=False)
class Res(Term):
    tag = "res"
    body: Term  # binds one level

    def subterms(self) -> tuple[Term, ...]:
        return (self.body,)

    def _derive(self) -> tuple[frozenset[int], int]:
        return self.body._fv, max(self.body._lc - 1, 0)


@dataclass(frozen=True, slots=True, eq=False)
class Rep(Term):
    tag = "rep"
    body: Term

    def subterms(self) -> tuple[Term, ...]:
        return (self.body,)

    def _derive(self) -> tuple[frozenset[int], int]:
        return self.body._fv, self.body._lc


def _with_name(n: Name, fv: frozenset[int], lc: int) -> tuple[frozenset[int], int]:
    # The facts fv, lc of a node's subterm, joined with a name at the node's level.
    if type(n) is Free:
        i = n.atom.index
        return (fv if i in fv else fv | {i}), lc
    return fv, max(lc, n.level + 1)


def _fill(t: Term, fact: str, store: Callable[[Term], None]) -> Term:
    """t, once it and each of its subterms hold the attribute fact: store(u)
    sets it on each u lacking it, after u's subterms, with an explicit stack.
    A node is expanded once, however often it is shared."""
    todo = [t]
    while todo:
        u = todo.pop()
        if u is None:  # the node below holds the subterms it was waiting for
            u = todo.pop()
            if not hasattr(u, fact):
                store(u)
        elif not hasattr(u, fact):
            todo += (u, None)
            todo += u.subterms()
    return t


def _store_facts(u: Term) -> None:
    fv, lc = u._derive()
    object.__setattr__(u, "_fv", fv)
    object.__setattr__(u, "_lc", lc)


def _store_hash(u: Term) -> None:
    # The dataclass hash: that of the field tuple, whose subterms hold theirs.
    object.__setattr__(u, "_hash", hash(tuple(map(u.__getattribute__, u.__match_args__))))


def _facts(t: Term) -> Term:
    """t, once it holds its free atoms and closure level."""
    return t if hasattr(t, "_lc") else _fill(t, "_lc", _store_facts)


def _closed_at(u: Term, d: int) -> bool:
    # Opening at level d leaves u alone if it is locally closed at d.
    return getattr(u, "_lc", d + 1) <= d


def map_names(t: Term, f: Callable[[Name, int], Name], keep: Callable[[Term, int], bool], i: int = 0) -> Term:
    """t with each name n found under d binders replaced by f(n, i + d).  A
    subterm u at level j with keep(u, j) is kept: keep says, from the facts u
    already holds, that f changes none of its names.  A subterm whose names
    all map to themselves is kept too, not rebuilt, so equal parts stay one
    object and compare by identity."""
    if keep(t, i):
        return t
    match t:
        case Nil():
            return t
        case Sum(fam):
            entries = tuple(map_names(e, f, keep, i) for e in fam.entries)
            default = map_names(fam.default, f, keep, i)
            if default is fam.default and all(map(operator.is_, entries, fam.entries)):
                return t
            return Sum(IndexedFamily(entries, default))
        case Inp(c, b):
            c2, b2 = f(c, i), map_names(b, f, keep, i + 1)
            return t if c2 is c and b2 is b else Inp(c2, b2)
        case Out(c, m, k):
            c2, m2, k2 = f(c, i), f(m, i), map_names(k, f, keep, i)
            return t if c2 is c and m2 is m and k2 is k else Out(c2, m2, k2)
        case Par(l, r):
            l2, r2 = map_names(l, f, keep, i), map_names(r, f, keep, i)
            return t if l2 is l and r2 is r else Par(l2, r2)
        case Res(b):
            b2 = map_names(b, f, keep, i + 1)
            return t if b2 is b else Res(b2)
        case Rep(b):
            b2 = map_names(b, f, keep, i)
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


def free_atoms(t: Term) -> frozenset[int]:
    """The indices of t's free atoms, as t holds them."""
    return _facts(t)._fv


def free_names(t: Term) -> NameSet:
    """The support of a term: its free atoms (always a finite set)."""
    return NameSet(flips=free_atoms(t))


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
    return 1 + sum(map(term_size, t.subterms()))


def par_factors(t: Term) -> list[Term]:
    """The leaves of the parallel-composition spine, left to right."""
    if isinstance(t, Par):
        return par_factors(t.left) + par_factors(t.right)
    return [t]
