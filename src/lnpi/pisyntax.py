"""Locally nameless pi-calculus syntax.

Bound occurrences are de Bruijn indices counting enclosing binders, free
occurrences are atoms.  Alpha-equivalence is therefore plain structural
equality.

A constructor says that it binds in one place, its ``binds`` attribute:
1 for ``Inp`` and ``Res``, 0 (``Term``'s) for the rest.  Each of its fields
is a name, a term or an ``IndexedFamily`` of terms, as its annotation says,
read once per class.  Its names sit at the node's level and its terms
``binds`` levels below it.  From that layout alone come the generic
definitions of the locally nameless scheme (Charguéraud, *The Locally
Nameless Representation*, JAR 2012): ``Term.subterms``, the facts below,
``map_names``, which rebuilds a term with each name replaced by a function
of the name and its level, ``name_levels``, which lists the names with
their levels in preorder, and ``term_lc``.

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

``map_names`` keeps a subterm that its skip predicate says the function
leaves alone, judged from the facts the subterm already holds (the
predicates never compute facts): ``open_at`` keeps a subterm locally closed
at its level, since opening it does nothing (Charguéraud), ``close_at`` one
that does not hold the atom, and ``perm_apply`` one whose free atoms the
permutation fixes (Pitts, *Nominal Sets*, CUP 2013).  These methods are one
line each over ``map_names``, with the per-name cases as methods of
``Free``/``Bound``.

Two local-closure deciders are exposed: ``Term.lc_at`` compares the level
with the least one at which the term is closed, ``term_lc`` follows the
inductive definition, opening each binder body with fresh witnesses and
recursing into one opening, in time linear in depth times size.  They
agree (tested property).  ``name_levels`` and ``term_lc`` walk with an
explicit stack; ``map_names`` recurses.
"""

from __future__ import annotations

import operator
import typing
from dataclasses import dataclass
from typing import Callable

from .atoms import Atom, Permutation, swap
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


# The kinds of a constructor's fields.
_NAME, _TERM, _FAMILY = "name", "term", "family"


class Term(Record):
    """A process.  A constructor declares the levels it binds (``binds``);
    its subterms, facts and traversals derive from that and its fields."""

    # The facts of the module docstring, unset until first needed: _facts
    # stores _fv and _lc, __hash__ stores _hash.
    __slots__ = ("_fv", "_lc", "_hash")
    binds = 0

    def __init_subclass__(cls, **kwargs) -> None:
        # _layout: the constructor's fields with their kinds, in declaration order.
        super().__init_subclass__(**kwargs)
        kinds = {Name: _NAME, Term: _TERM, IndexedFamily: _FAMILY}
        cls._layout = tuple((field, kinds[tp]) for field, tp in typing.get_type_hints(cls).items())

    def subterms(self) -> list[Term]:
        """The subterms in declaration order, a family's parts in its order."""
        out = []
        for field, kind in self._layout:
            if kind is _TERM:
                out.append(getattr(self, field))
            elif kind is _FAMILY:
                out += getattr(self, field).parts()
        return out

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
        moved = p.mapping.keys()
        # A node without facts reads as holding every moved atom, so it is walked.
        return map_names(self, lambda n, _: n.perm_apply(p), lambda u, _: moved.isdisjoint(getattr(u, "_fv", moved)))

    def support(self) -> NameSet:
        return free_names(self)


@dataclass(frozen=True, slots=True, eq=False)
class Nil(Term):
    tag = "nil"


@dataclass(frozen=True, slots=True, eq=False)
class Sum(Term):
    tag = "sum"
    json_keys = {"procs": {"entries": tuple[Term, ...], "default": Term}}
    procs: IndexedFamily  # countable choice: finite prefix + default


@dataclass(frozen=True, slots=True, eq=False)
class Inp(Term):
    tag = "inp"
    binds = 1
    chan: Name
    body: Term


@dataclass(frozen=True, slots=True, eq=False)
class Out(Term):
    tag = "out"
    chan: Name
    msg: Name
    cont: Term


@dataclass(frozen=True, slots=True, eq=False)
class Par(Term):
    tag = "par"
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False)
class Res(Term):
    tag = "res"
    binds = 1
    body: Term


@dataclass(frozen=True, slots=True, eq=False)
class Rep(Term):
    tag = "rep"
    body: Term


def _parts(u: Term, d: int) -> list[tuple[Name | Term, int]]:
    """u's names and subterms in declaration order, a family's parts in its
    order, each with its level when u is at level d."""
    out: list[tuple[Name | Term, int]] = []
    below = d + u.binds
    for field, kind in u._layout:
        x = getattr(u, field)
        if kind is _NAME:
            out.append((x, d))
        elif kind is _TERM:
            out.append((x, below))
        else:
            out += [(s, below) for s in x.parts()]
    return out


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


# One empty set for every node without free atoms: frozenset() builds a new one each call.
_NO_ATOMS: frozenset[int] = frozenset()


def _store_facts(u: Term) -> None:
    # The free atoms are the union over the names and subterms.  The closure
    # level is the max of level + 1 over the Bound names and of a subterm's
    # less the binders above it, floored at 0.
    fv, lc = _NO_ATOMS, 0
    for x, d in _parts(u, 0):
        if type(x) is Free:
            if x.atom.index not in fv:
                fv = fv | {x.atom.index}
        elif type(x) is Bound:
            lc = max(lc, x.level + 1)
        else:
            b = x._fv
            # fv | b, reusing an operand that holds the other: nested terms share their sets.
            fv = fv if b <= fv else b if fv <= b else fv | b
            lc = max(lc, x._lc - d)
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
    j, vals, changed = i + t.binds, [], False
    for field, kind in t._layout:
        x = getattr(t, field)
        if kind is _NAME:
            y = f(x, i)
        elif kind is _TERM:
            y = map_names(x, f, keep, j)
        else:
            old = x.parts()
            parts = [map_names(s, f, keep, j) for s in old]
            y = x if all(map(operator.is_, parts, old)) else IndexedFamily(tuple(parts[:-1]), parts[-1])
        vals.append(y)
        changed = changed or y is not x
    return type(t)(*vals) if changed else t


def name_levels(t: Term, i: int = 0) -> list[tuple[Name, int]]:
    """The names of t in preorder, each paired with i plus the binders above it."""
    out, todo = [], [(t, i)]
    while todo:
        x, d = todo.pop()
        if isinstance(x, Name):
            out.append((x, d))
        else:
            todo += reversed(_parts(x, d))
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
    """Local closure by the inductive definition: every name outside the
    binders is free, and every binder body must be locally closed once
    opened with any sufficiently fresh atom.  Local closure is equivariant
    (Pitts, *Nominal Sets*, CUP 2013), so only the opening at the least
    fresh w0 is walked; each other is checked to be its image under (w0 w)."""
    todo = [t]
    while todo:
        for x, d in _parts(todo.pop(), 0):
            if type(x) is Bound:
                return False
            if d:  # a binder body, opened at level 0
                w0, *extra = free_names(x).least_outside(1 + LC_EXTRA_WITNESSES)
                todo.append(opened := x.open_at(0, w0))
                if any(x.open_at(0, w) != opened.perm_apply(swap(w0, w)) for w in extra):
                    return False
            elif isinstance(x, Term):
                todo.append(x)
    return True


def term_size(t: Term) -> int:
    """The number of term nodes, each occurrence of a shared one counted."""
    size, todo = 0, [t]
    while todo:
        todo += todo.pop().subterms()
        size += 1
    return size


def par_factors(t: Term) -> list[Term]:
    """The leaves of the parallel-composition spine, left to right."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, Par):
            todo += t.right, t.left
        else:
            out.append(t)
    return out
