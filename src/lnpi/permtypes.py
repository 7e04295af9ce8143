"""The permutation-type interface: apply a permutation, compute support.

Only the leaves (atoms, permutations, name sets, names, terms) implement
``perm_apply``/``support`` themselves.  A composite is a frozen dataclass
deriving from ``PermValue``, which defines its permutation action and its
support pointwise over the fields named in ``__match_args__``: the generic
definition of the Nominal approach, written once.  Tuples, lists and
frozensets are containers with the same pointwise structure;
``components`` lists the parts of any container and ``map_components``
rebuilds one from mapped parts, which is all ``lnpi.binding`` needs to
open, close and decide local closure of a composite.  The module-level
``apply``/``supp`` give atoms-free primitives (ints, strings, booleans,
None) the trivial action with empty support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from .atoms import Atom, Permutation
from .namesets import NameSet, union_all

_TRIVIAL = (bool, int, str, type(None))
_CONTAINERS = (tuple, list, frozenset)


class PermValue:
    """A composite permutation value: a dataclass whose fields are
    permutation values, acted on and supported pointwise."""

    def perm_apply(self, p: Permutation) -> Any:
        return map_components(partial(apply, p), self)

    def support(self) -> NameSet:
        # The atom components go into one finite set, not one set each.
        parts = components(self)
        sets = [supp(x) for x in parts if type(x) is not Atom]
        atoms = [x for x in parts if type(x) is Atom]
        if atoms:
            sets.append(NameSet.finite(atoms))
        return sets[0] if len(sets) == 1 else union_all(*sets)


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
    if isinstance(t, PermValue):
        return type(t)(*[f(getattr(t, name)) for name in t.__match_args__])
    return type(t)(map(f, components(t)))


def apply(p: Permutation, t):
    """p . t for any permutation value."""
    if isinstance(t, _TRIVIAL):
        return t
    if hasattr(t, "perm_apply"):
        return t.perm_apply(p)
    return map_components(partial(apply, p), t)


def supp(t) -> NameSet:
    if isinstance(t, _TRIVIAL):
        return NameSet.empty()
    if hasattr(t, "support"):
        return t.support()
    return union_all(*map(supp, components(t)))


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
