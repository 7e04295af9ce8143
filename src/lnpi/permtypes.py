"""The permutation-type interface: apply a permutation, compute support.

Only the leaves (atoms, permutations, name sets, names, terms) implement
``perm_apply``/``support`` themselves.  A composite is a frozen dataclass
deriving from ``PermValue``, acted on and supported pointwise over the
fields named in ``__match_args__``: the generic definition of the Nominal
approach, written once.  Tuples, lists and frozensets are containers with
the same pointwise structure; primitives (ints, strings, booleans, None)
carry the trivial action with empty support.  ``apply`` and ``supp`` are
each one walk with an explicit stack over a value's distinct parts, so
depth costs them no frames and a shared part is visited once; a walk stops
at a leaf and at a composite with the method of its own, which therefore
must not call ``PermValue``'s (``Config`` and ``Cofinite`` support
themselves by their sets).  Like the leaves, ``apply`` hands back what p
fixes: a tuple, frozenset or PermValue whose moved parts are all its own
parts is kept, not rebuilt (a list is mutable, so it is always copied).
``apply``'s table maps ``id(x)`` to ``(x, p . x)``, holding each part it
keys, so no identity is reused while it lives; one table passed to
several calls with one permutation moves what they share once and
shares the copy.  ``components`` and
``map_components`` list and rebuild a container's parts, which is all
``lnpi.binding`` needs to open, close and decide local closure of one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .atoms import Atom, Permutation
from .namesets import NameSet, union_all

_TRIVIAL = (bool, int, str, type(None))
_CONTAINERS = (tuple, list, frozenset)


class PermValue:
    """A composite permutation value: a dataclass whose fields are
    permutation values, acted on and supported pointwise."""

    def perm_apply(self, p: Permutation) -> Any:
        return apply(p, self)

    def support(self) -> NameSet:
        return supp(self)


def components(t) -> list | tuple | frozenset:
    """The parts of a container: the fields of a PermValue, in declaration
    order, or the elements of a tuple, list or frozenset."""
    if isinstance(t, PermValue):
        return [getattr(t, name) for name in t.__match_args__]
    if type(t) in _CONTAINERS:
        return t
    raise TypeError(f"no pointwise structure on {type(t).__name__}")


def map_components(f: Callable, t):
    """The container t rebuilt with each of its components x replaced by f(x)."""
    parts = map(f, components(t))
    return type(t)(*parts) if isinstance(t, PermValue) else type(t)(parts)


# Shapes besides None (a primitive) and field names (a PermValue): a leaf, a
# container, an atom (supp adds its index).  _BUILD: a part's parts are moved.
_LEAF, _ITEMS, _ATOM, _BUILD = object(), object(), object(), object()


class _Shapes(dict):
    """Each class's shape for the walk by the method named, found when first met."""

    def __init__(self, method: str):
        self.method = method

    def __missing__(self, cls: type):
        if issubclass(cls, _TRIVIAL):
            shape = None
        elif issubclass(cls, PermValue) and getattr(cls, self.method) is getattr(PermValue, self.method):
            shape = cls.__match_args__
        elif cls in _CONTAINERS:
            shape = _ITEMS
        elif hasattr(cls, self.method):
            shape = _LEAF
        else:
            raise TypeError(f"no pointwise structure on {cls.__name__}")
        self[cls] = shape
        return shape


_APPLY = _Shapes("perm_apply")
_SUPP = _Shapes("support")
_SUPP[Atom] = _ATOM


def apply(p: Permutation, t, table: dict | None = None):
    """p . t for any permutation value, each distinct part moved once, its
    parts first.  table maps id(x) to (x, p . x) for each part x moved so
    far; one passed to several calls with p serves them all."""
    shape = _APPLY[type(t)]
    if table is None and (shape is None or shape is _LEAF):  # a lone leaf needs no stack, no table
        return t if shape is None else t.perm_apply(p)
    table = {} if table is None else table
    todo = [t]
    while todo:
        x = todo.pop()
        if x is _BUILD:  # below it: the parts of the value below them, all moved
            parts, x = todo.pop(), todo.pop()
            moved = [table[id(y)][1] for y in parts]
            if type(x) is not list and all(map(operator.is_, moved, parts)):  # p fixes x: keep it
                table[id(x)] = x, x
            else:
                table[id(x)] = x, type(x)(moved) if _APPLY[type(x)] is _ITEMS else type(x)(*moved)
        elif id(x) not in table:
            shape = _APPLY[type(x)]
            if shape is None:
                table[id(x)] = x, x
            elif shape is _LEAF:
                table[id(x)] = x, x.perm_apply(p)
            else:
                parts = x if shape is _ITEMS else [*map(x.__getattribute__, shape)]
                todo += (x, parts, _BUILD)
                todo += parts
    return table[id(t)][1]


def supp(t) -> NameSet:
    """The support of any permutation value, each distinct part visited once."""
    atoms: set[int] = set()
    sets: list[NameSet] = []
    seen: set[int] = set()  # ids of parts of t, which holds them all while it runs
    todo = [t]
    while todo:
        x = todo.pop()
        shape = _SUPP[type(x)]
        if shape is _ATOM:
            atoms.add(x.index)
        elif shape is not None and id(x) not in seen:
            seen.add(id(x))
            if shape is _LEAF:
                sets.append(x.support())
            else:
                todo += x if shape is _ITEMS else map(x.__getattribute__, shape)
    return union_all(NameSet(flips=frozenset(atoms)), *sets)


def is_fresh(a: Atom, t) -> bool:
    """a # t."""
    return not supp(t).member(a)


@dataclass(frozen=True)
class IndexedFamily(PermValue):
    """A map from naturals to values with finite support: an explicit
    prefix of entries and a default for every index past it.

    Trailing entries equal to the default are dropped, so equality of
    families is equality of the functions they denote.
    """

    entries: tuple
    default: Any

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        while entries and entries[-1] == self.default:
            entries = entries[:-1]
        object.__setattr__(self, "entries", entries)

    def get(self, n: int):
        return self.entries[n] if n < len(self.entries) else self.default

    def parts(self) -> tuple:
        return self.entries + (self.default,)


@dataclass(frozen=True)
class FiniteTermSet(PermValue):
    """A finite set of permutation values (hashable, canonical, duplicate-free)."""

    elements: frozenset = field(default=frozenset())

    @classmethod
    def of(cls, elems: Iterable) -> FiniteTermSet:
        return cls(frozenset(elems))
