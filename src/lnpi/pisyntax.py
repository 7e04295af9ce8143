"""Locally nameless pi-calculus syntax.

Bound occurrences are de Bruijn indices counting enclosing binders
(input prefix and restriction each bind one level), free occurrences are
atoms.  Alpha-equivalence is therefore plain structural equality.

Two local-closure deciders are exposed: ``term_lc_at`` counts binder
depth directly, ``term_lc`` follows the inductive definition, opening
each binder body with fresh witnesses.  They agree (tested property).
"""

from __future__ import annotations

from dataclasses import dataclass

from .atoms import Atom, Permutation
from .namesets import NameSet
from .permtypes import IndexedFamily


class Name:
    def open_at(self, i: int, x: Atom) -> Name:
        if isinstance(self, Bound) and self.level == i:
            return Free(x)
        return self

    def close_at(self, i: int, x: Atom) -> Name:
        if isinstance(self, Free) and self.atom == x:
            return Bound(i)
        return self

    def lc_at(self, i: int) -> bool:
        return isinstance(self, Free) or self.level < i

    def perm_apply(self, p: Permutation) -> Name:
        if isinstance(self, Free):
            return Free(p(self.atom))
        return self

    def support(self) -> NameSet:
        if isinstance(self, Free):
            return NameSet.finite([self.atom])
        return NameSet.empty()

    def to_json(self):
        if isinstance(self, Free):
            return {"free": self.atom.index}
        return {"bound": self.level}


@dataclass(frozen=True)
class Free(Name):
    atom: Atom


@dataclass(frozen=True)
class Bound(Name):
    level: int


def name_from_json(data: dict) -> Name:
    if "free" in data:
        return Free(Atom(data["free"]))
    return Bound(data["bound"])


class Term:
    def open_at(self, i: int, x: Atom) -> Term:
        return term_open_at(i, x, self)

    def close_at(self, i: int, x: Atom) -> Term:
        return term_close_at(i, x, self)

    def lc_at(self, i: int) -> bool:
        return term_lc_at(i, self)

    def lc_cofinite(self, extra: int = 3) -> bool:
        return term_lc(self, extra)

    def perm_apply(self, p: Permutation) -> Term:
        return term_perm(p, self)

    def support(self) -> NameSet:
        return free_names(self)

    def to_json(self) -> dict:
        return term_to_json(self)


@dataclass(frozen=True)
class Nil(Term):
    pass


@dataclass(frozen=True)
class Sum(Term):
    procs: IndexedFamily  # countable choice: finite prefix + default


@dataclass(frozen=True)
class Inp(Term):
    chan: Name
    body: Term  # binds one level


@dataclass(frozen=True)
class Out(Term):
    chan: Name
    msg: Name
    cont: Term


@dataclass(frozen=True)
class Par(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Res(Term):
    body: Term  # binds one level


@dataclass(frozen=True)
class Rep(Term):
    body: Term


def term_open_at(i: int, x: Atom, t: Term) -> Term:
    match t:
        case Nil():
            return t
        case Sum(f):
            return Sum(f.open_at(i, x))
        case Inp(c, b):
            return Inp(c.open_at(i, x), term_open_at(i + 1, x, b))
        case Out(c, m, k):
            return Out(c.open_at(i, x), m.open_at(i, x), term_open_at(i, x, k))
        case Par(l, r):
            return Par(term_open_at(i, x, l), term_open_at(i, x, r))
        case Res(b):
            return Res(term_open_at(i + 1, x, b))
        case Rep(b):
            return Rep(term_open_at(i, x, b))
    raise TypeError(f"not a term: {t!r}")


def term_close_at(i: int, x: Atom, t: Term) -> Term:
    match t:
        case Nil():
            return t
        case Sum(f):
            return Sum(f.close_at(i, x))
        case Inp(c, b):
            return Inp(c.close_at(i, x), term_close_at(i + 1, x, b))
        case Out(c, m, k):
            return Out(c.close_at(i, x), m.close_at(i, x), term_close_at(i, x, k))
        case Par(l, r):
            return Par(term_close_at(i, x, l), term_close_at(i, x, r))
        case Res(b):
            return Res(term_close_at(i + 1, x, b))
        case Rep(b):
            return Rep(term_close_at(i, x, b))
    raise TypeError(f"not a term: {t!r}")


def term_lc_at(i: int, t: Term) -> bool:
    match t:
        case Nil():
            return True
        case Sum(f):
            return all(term_lc_at(i, e) for e in f.parts())
        case Inp(c, b):
            return c.lc_at(i) and term_lc_at(i + 1, b)
        case Out(c, m, k):
            return c.lc_at(i) and m.lc_at(i) and term_lc_at(i, k)
        case Par(l, r):
            return term_lc_at(i, l) and term_lc_at(i, r)
        case Res(b):
            return term_lc_at(i + 1, b)
        case Rep(b):
            return term_lc_at(i, b)
    raise TypeError(f"not a term: {t!r}")


def term_lc(t: Term, extra: int = 3) -> bool:
    """Local closure by the inductive definition: every binder body must be
    locally closed once opened with any sufficiently fresh atom."""
    match t:
        case Nil():
            return True
        case Sum(f):
            return all(term_lc(e, extra) for e in f.parts())
        case Inp(c, b):
            return isinstance(c, Free) and all(
                term_lc(term_open_at(0, w, b), extra)
                for w in free_names(b).least_outside(1 + extra)
            )
        case Out(c, m, k):
            return isinstance(c, Free) and isinstance(m, Free) and term_lc(k, extra)
        case Par(l, r):
            return term_lc(l, extra) and term_lc(r, extra)
        case Res(b):
            return all(
                term_lc(term_open_at(0, w, b), extra)
                for w in free_names(b).least_outside(1 + extra)
            )
        case Rep(b):
            return term_lc(b, extra)
    raise TypeError(f"not a term: {t!r}")


def term_perm(p: Permutation, t: Term) -> Term:
    match t:
        case Nil():
            return t
        case Sum(f):
            return Sum(f.perm_apply(p))
        case Inp(c, b):
            return Inp(c.perm_apply(p), term_perm(p, b))
        case Out(c, m, k):
            return Out(c.perm_apply(p), m.perm_apply(p), term_perm(p, k))
        case Par(l, r):
            return Par(term_perm(p, l), term_perm(p, r))
        case Res(b):
            return Res(term_perm(p, b))
        case Rep(b):
            return Rep(term_perm(p, b))
    raise TypeError(f"not a term: {t!r}")


def free_names(t: Term) -> NameSet:
    """The support of a term: its free atoms (always a finite set)."""
    return NameSet.finite(term_atom_list(t))


def term_atom_list(t: Term) -> list[Atom]:
    """Free atoms in preorder, with repeats."""
    match t:
        case Nil():
            return []
        case Sum(f):
            out: list[Atom] = []
            for e in f.parts():
                out += term_atom_list(e)
            return out
        case Inp(c, b):
            return _name_atoms(c) + term_atom_list(b)
        case Out(c, m, k):
            return _name_atoms(c) + _name_atoms(m) + term_atom_list(k)
        case Par(l, r):
            return term_atom_list(l) + term_atom_list(r)
        case Res(b) | Rep(b):
            return term_atom_list(b)
    raise TypeError(f"not a term: {t!r}")


def _name_atoms(n: Name) -> list[Atom]:
    return [n.atom] if isinstance(n, Free) else []


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


def term_key(t: Term):
    """A total-order key: the preorder walk as nested tuples."""
    match t:
        case Nil():
            return ("nil",)
        case Sum(f):
            return ("sum", tuple(term_key(e) for e in f.entries), term_key(f.default))
        case Inp(c, b):
            return ("inp", _name_key(c), term_key(b))
        case Out(c, m, k):
            return ("out", _name_key(c), _name_key(m), term_key(k))
        case Par(l, r):
            return ("par", term_key(l), term_key(r))
        case Res(b):
            return ("res", term_key(b))
        case Rep(b):
            return ("rep", term_key(b))
    raise TypeError(f"not a term: {t!r}")


def _name_key(n: Name):
    return ("free", n.atom.index) if isinstance(n, Free) else ("bound", n.level)


def term_to_json(t: Term) -> dict:
    match t:
        case Nil():
            return {"tag": "nil"}
        case Sum(f):
            return {
                "tag": "sum",
                "entries": [term_to_json(e) for e in f.entries],
                "default": term_to_json(f.default),
            }
        case Inp(c, b):
            return {"tag": "inp", "chan": c.to_json(), "body": term_to_json(b)}
        case Out(c, m, k):
            return {"tag": "out", "chan": c.to_json(), "msg": m.to_json(), "cont": term_to_json(k)}
        case Par(l, r):
            return {"tag": "par", "left": term_to_json(l), "right": term_to_json(r)}
        case Res(b):
            return {"tag": "res", "body": term_to_json(b)}
        case Rep(b):
            return {"tag": "rep", "body": term_to_json(b)}
    raise TypeError(f"not a term: {t!r}")


def term_from_json(data: dict) -> Term:
    match data["tag"]:
        case "nil":
            return Nil()
        case "sum":
            return Sum(
                IndexedFamily(
                    tuple(term_from_json(e) for e in data["entries"]),
                    term_from_json(data["default"]),
                )
            )
        case "inp":
            return Inp(name_from_json(data["chan"]), term_from_json(data["body"]))
        case "out":
            return Out(
                name_from_json(data["chan"]),
                name_from_json(data["msg"]),
                term_from_json(data["cont"]),
            )
        case "par":
            return Par(term_from_json(data["left"]), term_from_json(data["right"]))
        case "res":
            return Res(term_from_json(data["body"]))
        case "rep":
            return Rep(term_from_json(data["body"]))
    raise ValueError(f"unknown term tag: {data['tag']!r}")
