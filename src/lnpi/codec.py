"""One JSON codec for every record, derived from its declared fields.

A record is a dataclass deriving from ``Record``: an object with a key per
field in ``__match_args__``, and ``"tag"`` if the class declares one.
``json_keys`` gives each key that differs from its field: a name, or a
dict laying a dataclass-valued field's fields out under their own names.
A ``Record`` base that is not a dataclass is the union of its dataclass
subclasses, told apart by tag or else by key set.  Field kinds come from
the annotations, resolved once per class: ``str``, a natural ``int``,
``Atom``, ``tuple[X, ...]``, a union (bare for its first alternative but
None, ``{"atom": i}`` for a later ``Atom``), a record, or a leaf class
with its own ``to_json``/``from_json``/``key``.  Decoding checks the tag,
the exact key set and each kind, raising ``DecodeError`` with the JSON
path; ``key()`` orders by the tag (or key set), then each field's key,
and raises ``TypeError`` on a record that holds a union.

Both directions keep sharing within one outermost call through a table
that lives that long only: a plain dict, which a caller passes to several
``to_json`` or several ``from_json`` calls to share across them.  The
decoder builds nodes bottom-up, and a record or tuple equal to one already
built is that object: its key is the kind, the identities of its children
(themselves shared already) and the values of its leaves (``Atom``,
``NameSet``, ``int``, ``str``, ``None``).  Whether a field is keyed by
identity or by value is fixed by its kind, so an identity is never
compared with a leaf int, and the table holds every object it keys, so no
identity is reused while it lives.  The encoder encodes each distinct
record once and puts its JSON value wherever the record recurs;
``json.dumps`` writes a shared dict as often as it occurs.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import is_dataclass
from functools import partial
from itertools import islice
from operator import attrgetter

from .atoms import Atom

# How values of one annotation are encoded, decoded and keyed (enc, dec, key);
# a record's kind also holds its resolved fields, a union's its members.  A
# kind that shares (records, tuples, unions of records) takes the call's
# table as a second argument to enc and dec; a leaf kind takes none.
class _Kind(types.SimpleNamespace):
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: it heads the table's keys


class DecodeError(ValueError):
    """A JSON value of another shape than the declared one; str() names its path."""

    path = ""

    def at(self, step: str | int) -> DecodeError:
        """This error one level further out, under key or index step, which
        the path spells as JSON Pointer does (RFC 6901: "~" as "~0", "/" as "~1")."""
        self.path = f"/{str(step).replace('~', '~0').replace('/', '~1')}{self.path}"
        return self

    def __str__(self) -> str:
        return f"at {self.path or '/'}: {self.args[0]}"


def shown(x) -> str:
    """x as a JSON file spells it, for a message: a scalar as JSON writes it,
    an array or an object by its type."""
    if type(x) is list:
        return "an array"
    if type(x) is dict:
        return "an object"
    return json.dumps(x)


class Record:
    """A value whose JSON form and sort key derive from its declaration.  Each
    of to_json, from_json and key takes one Python frame per record."""

    __slots__ = ()

    def to_json(self, table: dict | None = None) -> dict:
        """self's JSON value.  table, passed by the encoder to the records
        inside, maps id(record) to (record, JSON value) for those encoded."""
        if table is None:
            table = {}
        found = table.get(id(self))
        if found is not None:
            return found[1]
        kind = _KINDS.get(type(self)) or _kind(type(self))
        out = {"tag": kind.tag} if kind.tag else {}
        for key, get, enc, shares in kind.encs:
            out[key] = enc(get(self), table) if shares else enc(get(self))
        table[id(self)] = self, out
        return out

    @classmethod
    def from_json(cls, data, table: dict | None = None):
        """The cls value that data writes; raises DecodeError on any other shape.
        table maps each key (see above) to the object decoded for it."""
        return _kind(cls).dec(data, {} if table is None else table)

    def key(self) -> tuple:
        """self's sort key.  A record with a union field has none: a union is
        not ordered, so key raises TypeError naming the field."""
        kind = _KINDS.get(type(self)) or _kind(type(self))
        if kind.unkeyed:
            raise TypeError(f"{kind.cls.__name__} has no sort key: its field {kind.unkeyed} is a union")
        out = [kind.first]
        for get, key in kind.sorts:
            out.append(key(get(self)))
        return tuple(out)


def _decode(kind: _Kind, data, table: dict):  # a union's member is picked here, in the same frame
    if type(data) is not dict:
        raise DecodeError(f"expected an object, got {shown(data)}")
    if kind.members is not None:
        try:
            found = kind.members.get(data.get("tag") or frozenset(data))
        except TypeError:  # an unhashable tag
            found = None
        if found is None:
            what = f"tag {shown(data['tag'])}" if "tag" in data else f"keys {json.dumps(sorted(data))}"
            raise DecodeError(f"no {kind.cls.__name__} has the {what}")
        kind = found
    elif kind.tag and data.get("tag") != kind.tag:
        raise DecodeError(f"expected the tag {shown(kind.tag)}").at("tag")
    vals, ident = [], [kind]
    try:  # every key read is there, and no other: exactly the keys
        if len(data) != len(kind.keys):
            raise KeyError
        for key, dec, shares in kind.decs:
            if shares:
                x = dec(data[key], table)
                ident.append(id(x))
            else:
                x = dec(data[key])
                ident.append(x)
            vals.append(x)
    except DecodeError as e:
        raise e.at(kind.decs[len(vals)][0]) from None
    except KeyError:
        raise DecodeError(f"expected the keys {json.dumps(sorted(kind.keys))}, got {json.dumps(sorted(data))}") from None
    ident = tuple(ident)
    found = table.get(ident)
    if found is None:
        found = table[ident] = kind.build(*vals)
    return found


def _string(x) -> str:
    if type(x) is str:
        return x
    raise DecodeError(f"expected a string, got {shown(x)}")


def _natural(x) -> int:
    if type(x) is int and x >= 0:  # atoms.is_natural, inlined here and in _atom: every index passes
        return x
    raise DecodeError(f"expected a natural number, got {shown(x)}")


# Decoded atoms of a small index are shared: a file names few atoms, many times.
_ATOMS = tuple(map(Atom, range(64)))


def _atom(x) -> Atom:
    if type(x) is int and x >= 0:
        return _ATOMS[x] if x < 64 else Atom(x)
    raise DecodeError(f"expected an atom index, got {shown(x)}")


_index = attrgetter("index")
# Every kind, by annotation: derived from the classes alone, so one table serves every caller.
# str and int encode and key their own values as themselves, without a Python frame.
_KINDS: dict = {
    str: _Kind(enc=str, dec=_string, key=str, shares=False),
    int: _Kind(enc=int, dec=_natural, key=int, shares=False),
    Atom: _Kind(enc=_index, dec=_atom, key=_index, shares=False),
}


def _kind(tp) -> _Kind:
    kind = _KINDS.get(tp)
    if kind is not None:
        return kind
    if isinstance(tp, type) and issubclass(tp, Record):
        # Registered before its fields resolve, since a record may hold itself.
        kind = _KINDS[tp] = _Kind(enc=Record.to_json, key=Record.key, members=None, shares=True)
        kind.dec = partial(_decode, kind)
        (_record if is_dataclass(tp) else _union_of)(tp, kind)
        return kind
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[1:] == (...,):
        kind = _array(_kind(args[0]))
    elif origin in (typing.Union, types.UnionType):
        kind = _union([a for a in args if a is not type(None)], type(None) in args)
    elif isinstance(tp, type) and hasattr(tp, "from_json"):
        kind = _Kind(enc=tp.to_json, dec=tp.from_json, key=tp.key, shares=False)
    else:
        raise TypeError(f"no JSON form for {tp!r}")
    _KINDS[tp] = kind
    return kind


def _array(item: _Kind) -> _Kind:
    # A tuple's key is its kind and its items, by identity if they share.
    def dec(data, table: dict) -> tuple:
        if type(data) is not list:
            raise DecodeError(f"expected an array, got {shown(data)}")
        out = []
        try:
            for x in data:
                out.append(item.dec(x, table) if item.shares else item.dec(x))
        except DecodeError as e:
            raise e.at(len(out)) from None
        ident = (kind, *map(id, out)) if item.shares else (kind, *out)
        found = table.get(ident)
        if found is None:
            found = table[ident] = tuple(out)
        return found

    def enc(xs, table: dict) -> list:
        return [item.enc(x, table) for x in xs] if item.shares else list(map(item.enc, xs))

    kind = _Kind(enc=enc, dec=dec, key=lambda xs: tuple(map(item.key, xs)), shares=True)  # dec's keys start with it
    return kind


def _union(alts: list, optional: bool) -> _Kind:
    # A union has no sort key (see Record.key).  It shares if one of its
    # alternatives does; it then passes the table to those that do.
    first = _kind(alts[0])
    wrapped = {a.__name__.lower(): (a, _kind(a)) for a in alts[1:]}

    def enc(x, table=None):
        for name, (a, kind) in wrapped.items():
            if isinstance(x, a):
                return {name: kind.enc(x, table) if kind.shares else kind.enc(x)}
        if x is None:
            return None
        return first.enc(x, table) if first.shares else first.enc(x)

    def dec(data, table=None):
        if data is None and optional:
            return None
        if type(data) is dict and len(data) == 1 and next(iter(data)) in wrapped:
            (name, value), = data.items()
            kind = wrapped[name][1]
            try:
                return kind.dec(value, table) if kind.shares else kind.dec(value)
            except DecodeError as e:
                raise e.at(name) from None
        return first.dec(data, table) if first.shares else first.dec(data)

    shares = first.shares or any(kind.shares for _, kind in wrapped.values())
    return _Kind(enc=enc, dec=dec, key=None, shares=shares)


def _record(cls: type, kind: _Kind) -> None:
    hints, declared = typing.get_type_hints(cls), getattr(cls, "json_keys", {})
    fields, layout = [], []  # (key, attribute path, annotation); per argument, what gathers it
    for name in cls.__match_args__:
        key = declared.get(name, name)
        if isinstance(key, dict):  # the field's own fields, each under its name
            fields += [(k, f"{name}.{k}", tp) for k, tp in key.items()]
            layout.append((hints[name], len(key)))
        else:
            fields.append((key, name, hints[name]))
            layout.append((None, 1))
    # The tag and keys come first: a union resolving among the fields looks them up.
    kind.cls, kind.build, kind.tag = cls, cls, getattr(cls, "tag", None)
    kind.keys = frozenset(k for k, _, _ in fields) | ({"tag"} if kind.tag else set())
    kind.first = kind.tag or tuple(sorted(kind.keys))
    kinds = [_kind(tp) for _, _, tp in fields]
    kind.encs = [(key, attrgetter(path), f.enc, f.shares) for (key, path, _), f in zip(fields, kinds)]
    kind.decs = [(key, f.dec, f.shares) for (key, _, _), f in zip(fields, kinds)]
    kind.sorts = [(attrgetter(path), f.key) for (_, path, _), f in zip(fields, kinds)]
    kind.unkeyed = next((path for (_, path, _), f in zip(fields, kinds) if f.key is None), None)
    if any(make for make, _ in layout):
        def build(*vals):
            rest = iter(vals)
            return cls(*[next(rest) if make is None else make(*islice(rest, n)) for make, n in layout])

        kind.build = build


def _union_of(base: type, kind: _Kind) -> None:
    # A dataclass made with slots=True replaces the class it was declared as,
    # which stays among the base's subclasses, listed before its replacement:
    # the replacement's entry, made later, is the one kept.
    kind.cls, kind.members, todo = base, {}, [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if is_dataclass(sub):
                member = _kind(sub)
                kind.members[member.tag or member.keys] = member
