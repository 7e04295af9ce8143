"""The locally nameless interface: opening, closing, local closure.

A locally nameless value implements ``open_at``, ``close_at`` and
``lc_at`` (levels are plain naturals).  Tuples, lists, frozensets and
every ``PermValue`` are instances pointwise over their components (the
helpers of ``permtypes``), with no level shift — only genuine binders (in
the process syntax) shift the level.

``lc`` is the everyday decision procedure lc_at(0).  ``lc_cofinite``
decides the inductive definition instead, checking each binder body at a
fresh witness plus a few extra fresh atoms; the two must agree, and that
agreement is a tested property, not an assumption.
"""

from __future__ import annotations

from functools import partial

from .atoms import Atom
from .permtypes import components, map_components


def open_at(i: int, x: Atom, t):
    """Replace dangling index i by the free atom x."""
    if hasattr(t, "open_at"):
        return t.open_at(i, x)
    return map_components(partial(open_at, i, x), t)


def close_at(i: int, x: Atom, t):
    """Replace the free atom x by the bound index i."""
    if hasattr(t, "close_at"):
        return t.close_at(i, x)
    return map_components(partial(close_at, i, x), t)


def lc_at(i: int, t) -> bool:
    """No dangling indices at or above level i."""
    if hasattr(t, "lc_at"):
        return t.lc_at(i)
    return all(map(partial(lc_at, i), components(t)))


def lc(t) -> bool:
    return lc_at(0, t)


def lc_cofinite(t) -> bool:
    """Local closure by the inductive binder-by-binder definition."""
    if hasattr(t, "lc_cofinite"):
        return t.lc_cofinite()
    return all(map(lc_cofinite, components(t)))
