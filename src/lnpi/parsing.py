"""Concrete syntax for processes.

    P ::= "0" | ID "?" "(" ID ")" "." P | ID "!" ID "." P | P "|" P
        | "new" ID "." P | "*" P | "sum" "[" P ("," P)* ";" P "]"

Prefixes bind tighter than "|", "|" associates left, parentheses group.
Parsing resolves binder identifiers to bound indices with a scope stack
and interns free identifiers in first-occurrence order; the symbol table
(identifier -> atom, a bijection) travels with the text, never as shared
state.  Printing names each atom through one table per output: the first
identifier that the symbol table maps to it, else x<i>, with _<k> appended
while a user name takes it.  A binder opens at the least atom outside the
table and the body's free atoms.  Its auto name is no identifier in the
table and no other atom's name, so it captures no free name of the body.
"""

from __future__ import annotations

import re
from itertools import count, filterfalse
from typing import Iterable, Iterator

from .atoms import Atom
from .namesets import NameSet, fresh
from .permtypes import IndexedFamily
from .pisyntax import (
    Bound,
    Free,
    Inp,
    Name,
    Nil,
    Out,
    Par,
    Rep,
    Res,
    Sum,
    Term,
    free_names,
)

KEYWORDS = {"new", "sum"}

_TOKEN = re.compile(r"\s*(?:(?P<id>[A-Za-z_][A-Za-z_0-9]*)|(?P<zero>0)|(?P<punct>[?!.|*(),;\[\]]))")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundedSumSyntax(ParseError):
    """A sum without its mandatory default branch."""


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        pos = m.end()
        if m.group("id"):
            word = m.group("id")
            tokens.append(("kw" if word in KEYWORDS else "id", word, m.start()))
        elif m.group("zero"):
            tokens.append(("zero", "0", m.start()))
        else:
            tokens.append(("punct", m.group("punct"), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def intern(
    symtab: dict[str, Atom], ident: str, reserved: Iterable[Atom] = (), fresh: Iterator[int] | None = None
) -> Atom:
    """The atom of ident; a new identifier gets the least atom that is
    neither in symtab nor reserved, and is added to symtab.  A caller that
    interns many identifiers passes fresh=free_indices(symtab, reserved) each
    time, and adds to symtab only through intern, so no call rescans symtab."""
    if ident not in symtab:
        symtab[ident] = Atom(next(fresh or free_indices(symtab, reserved)))
    return symtab[ident]


def free_indices(symtab: dict[str, Atom], reserved: Iterable[Atom] = ()) -> Iterator[int]:
    """The indices of the atoms neither in symtab nor reserved, ascending."""
    taken = {a.index for a in symtab.values()} | {a.index for a in reserved}
    return filterfalse(taken.__contains__, count())


class _Parser:
    def __init__(self, text: str, symtab: dict[str, Atom]):
        self.tokens = tokenize(text)
        self.pos = 0
        self.symtab = dict(symtab)
        self.fresh = free_indices(self.symtab)
        self.bound: list[str] = []  # innermost binder last

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        kind, got, at = self.next()
        if got != text or kind == "eof":
            raise ParseError(f"expected {text!r}, found {got or 'end of input'!r}", at)

    def expect_id(self) -> str:
        kind, got, at = self.next()
        if kind != "id":
            raise ParseError(f"expected an identifier, found {got or 'end of input'!r}", at)
        return got

    def resolve(self, ident: str) -> Name:
        for depth, binder in enumerate(reversed(self.bound)):
            if binder == ident:
                return Bound(depth)
        return Free(intern(self.symtab, ident, fresh=self.fresh))

    def proc(self) -> Term:
        t = self.prefix()
        while self.peek()[1] == "|":
            self.next()
            t = Par(t, self.prefix())
        return t

    def prefix(self) -> Term:
        kind, text, at = self.next()
        if kind == "zero":
            return Nil()
        if text == "(":
            t = self.proc()
            self.expect(")")
            return t
        if text == "*":
            return Rep(self.prefix())
        if text == "new":
            binder = self.expect_id()
            self.expect(".")
            self.bound.append(binder)
            body = self.prefix()
            self.bound.pop()
            return Res(body)
        if text == "sum":
            return self.sum_body(at)
        if kind == "id":
            chan = self.resolve(text)
            kind2, op, at2 = self.next()
            if op == "?":
                self.expect("(")
                binder = self.expect_id()
                self.expect(")")
                self.expect(".")
                self.bound.append(binder)
                body = self.prefix()
                self.bound.pop()
                return Inp(chan, body)
            if op == "!":
                msg = self.resolve(self.expect_id())
                self.expect(".")
                return Out(chan, msg, self.prefix())
            raise ParseError(f"expected '?' or '!', found {op or 'end of input'!r}", at2)
        raise ParseError(f"expected a process, found {text or 'end of input'!r}", at)

    def sum_body(self, at: int) -> Term:
        self.expect("[")
        entries: list[Term] = []
        if self.peek()[1] not in (";", "]"):
            entries.append(self.proc())
            while self.peek()[1] == ",":
                self.next()
                entries.append(self.proc())
        if self.peek()[1] != ";":
            raise UnboundedSumSyntax("sum needs a default branch after ';'", at)
        self.next()
        default = self.proc()
        self.expect("]")
        return Sum(IndexedFamily(tuple(entries), default))


def parse(text: str, symtab: dict[str, Atom] | None = None) -> tuple[Term, dict[str, Atom]]:
    p = _Parser(text, symtab or {})
    t = p.proc()
    kind, text_, at = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text_!r}", at)
    return t, p.symtab


class Naming(dict):
    """Atom -> display name, for one printed output.  Build one per output:
    the symbol table grows as a session interns names."""

    def __init__(self, symtab: dict[str, Atom]):
        super().__init__((a, ident) for ident, a in reversed(symtab.items()))  # the first identifier wins
        self.symtab = symtab

    def __missing__(self, a: Atom) -> str:
        name, k = f"x{a.index}", 0
        while name in self.symtab:  # user name wins, the auto name steps aside
            k += 1
            name = f"x{a.index}_{k}"
        self[a] = name
        return name


def print_term(t: Term, symtab: dict[str, Atom] | None = None) -> str:
    symtab = symtab or {}
    name, taken = Naming(symtab), NameSet.finite(symtab.values())

    def shown(n: Name) -> str:
        if isinstance(n, Free):
            return name[n.atom]
        raise ValueError(f"cannot print a dangling bound index {n.level}")

    def opened(b: Term) -> tuple[str, Term]:
        w = fresh(taken.union(free_names(b)))
        return name[w], b.open_at(0, w)

    def par_level(t: Term) -> str:
        # "|" associates left: the spine runs down the left operands.
        parts = []
        while isinstance(t, Par):
            parts.append(prefix_level(t.right))
            t = t.left
        parts.append(prefix_level(t))
        return " | ".join(reversed(parts))

    def prefix_level(t: Term) -> str:
        match t:
            case Nil():
                return "0"
            case Par():
                return f"({par_level(t)})"
            case Rep(b):
                return f"*({par_level(b)})"
            case Res(b):
                w, body = opened(b)
                return f"new {w}. {prefix_level(body)}"
            case Inp(c, b):
                w, body = opened(b)
                return f"{shown(c)}?({w}). {prefix_level(body)}"
            case Out(c, m, k):
                return f"{shown(c)}!{shown(m)}. {prefix_level(k)}"
            case Sum(f):
                entries = ", ".join(par_level(e) for e in f.entries)
                return f"sum [{entries}; {par_level(f.default)}]"
        raise TypeError(f"not a term: {t!r}")

    return par_level(t)


def render_nameset(s: NameSet, symtab: dict[str, Atom] | None = None) -> str:
    name = Naming(symtab or {})

    def listed(atoms: Iterable[Atom]) -> str:
        return "{" + ", ".join(map(name.__getitem__, atoms)) + "}"

    if s.is_finite():
        return listed(s.atoms())
    if s.is_cofinite():
        return "all \\ " + listed(s.complement().atoms())
    base = f"mod {s.modulus} residues {{{', '.join(map(str, sorted(s.residues)))}}}"
    added = [Atom(a) for a, v in s.exceptions if v]
    removed = [Atom(a) for a, v in s.exceptions if not v]
    if added:
        base += " + " + listed(added)
    if removed:
        base += " - " + listed(removed)
    return base
