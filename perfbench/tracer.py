"""Per-layer tracing of lnpi, installed from outside the package.

Every function and method defined in ``src/lnpi`` is replaced, in every
lnpi module namespace and class that refers to it, by a wrapper that
counts the call.  A *component* is a module (a layer), except that
``lts`` is split into the parts an optimisation targets (enumeration,
canonical witnesses, JSON, checker, weakening) and ``parsing`` into
parsing and printing.  A span opens only when a call enters a component
from a different one; re-entrant calls within a component are counted
but not spanned, which keeps the recursive traversals cheap to trace.
A component's self time is the duration of its spans minus the time
covered by their child spans.

The benchmark installs the tracer for one operation at a time and
removes it afterwards, so untraced operations run the original code.
"""

from __future__ import annotations

import json
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("atoms", "namesets", "permtypes", "binding", "pisyntax", "parsing",
          "lts", "props", "gen", "oracle", "cli")

_LTS_PARTS = {
    "lts.derivs": {"_derivs", "_par_derivs", "_res_derivs"},
    "lts.canon": {"_canonicalize", "_visible_fresh", "_fresh_targets", "_renaming",
                  "normalize_transition"},
    "lts.json": {"to_json", "from_json", "action_from_json", "dumps"},
    "lts.check": {"check", "_check", "_check_at_witness", "_check_close_witnesses",
                  "_check_cofinite_node", "_require_config", "_premise_count",
                  "_extra_fresh", "_fail"},
    "lts.weaken": {"weaken", "_weaken"},
}
_PRINTING = {"print_term", "render_atom", "_render_name", "_binder_atom", "render_nameset"}

# Components whose self time is reported, and the metric name for each.
SELF_TIME_METRICS = {
    "lts.derivs": "lts.derivs.self_s",
    "lts.canon": "lts.canon.self_s",
    "lts.json": "lts.json.self_s",
    "lts.check": "lts.check.self_s",
    "lts.weaken": "lts.weaken.self_s",
    "lts": "lts.self_s",
    "namesets": "namesets.self_s",
    "atoms": "atoms.self_s",
    "permtypes": "permtypes.self_s",
    "binding": "binding.self_s",
    "pisyntax": "pisyntax.self_s",
    "parsing.parse": "parsing.parse_s",
    "parsing.print": "parsing.print_s",
    "props": "props.self_s",
    "gen": "gen.self_s",
    "oracle": "oracle.self_s",
    "cli": "cli.self_s",
}

# Counters reported per operation: metric name -> the calls it counts.
CALL_METRICS = {
    "lts.derivs.calls": ("lnpi.lts:_derivs",),
    "lts.check.nodes": ("lnpi.lts:_check",),
    "namesets.new": ("lnpi.namesets:NameSet.__post_init__",),
    "namesets.binop": ("lnpi.namesets:NameSet._binary",),
    "namesets.fresh": ("lnpi.namesets:fresh",),
    "atoms.perm_new": ("lnpi.atoms:Permutation.__post_init__",),
    "atoms.perm_call": ("lnpi.atoms:Permutation.__call__",),
    "props.checks": ("lnpi.props:SuiteResult.that",),
}
# Counters over every call into a layer.
LAYER_CALL_METRICS = {"permtypes.calls": "permtypes", "pisyntax.nodes": "pisyntax"}

# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = ("lts.derivs.calls", "lts.transitions", "lts.deriv_nodes",
                 "lts.check.nodes", "pisyntax.nodes")


def component(module: str, name: str) -> str:
    layer = module.rsplit(".", 1)[-1]
    if layer == "lts":
        for part, names in _LTS_PARTS.items():
            if name in names:
                return part
    if layer == "parsing":
        return "parsing.print" if name in _PRINTING else "parsing.parse"
    return layer


class Tracer:
    """Counts calls and accumulates self time per component."""

    def __init__(self, modules: dict[str, types.ModuleType]):
        self.bind(modules)
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.current: str | None = None
        self.child = 0.0
        self.derivs_args: list[tuple] = []
        self.step_results: list = []
        self.tokens = 0
        self.ops = 0
        self.per_op: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def bind(self, modules: dict[str, types.ModuleType]) -> None:
        """Trace these modules from now on (lnpi imported afresh); the counters carry on."""
        self.modules = modules
        self.src = Path(modules["lnpi"].__file__).resolve().parent
        self._wrappers: dict[int, object] = {}
        self._files: dict[str, bool] = {}

    # ------------- installation -------------

    def _ours(self, fn) -> bool:
        if not isinstance(fn, types.FunctionType):
            return False
        name = fn.__code__.co_filename
        if name not in self._files:
            self._files[name] = Path(name).resolve().parent == self.src
        return self._files[name]

    def _wrap(self, fn, key: str, comp: str):
        found = self._wrappers.get(id(fn))
        if found is not None:
            return found
        tr, calls = self, self.calls
        if key == "lnpi.lts:_derivs":
            def pre(args):
                tr.derivs_args.append(args)
        else:
            pre = None
        if key == "lnpi.lts:step":
            def post(res):
                tr.step_results.append(res)
        elif key == "lnpi.parsing:tokenize":
            def post(res):
                tr.tokens += len(res)
        else:
            post = None

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if pre is not None:
                pre(args)
            if tr.current == comp:
                res = fn(*args, **kwargs)
            else:
                prev, outer_child = tr.current, tr.child
                tr.current, tr.child = comp, 0.0
                t0 = perf_counter()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    tr.self_s[comp] += dur - tr.child
                    tr.current, tr.child = prev, outer_child + dur
            if post is not None:
                post(res)
            return res

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__wrapped__ = fn
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if self._ours(val):
                    key = f"{val.__module__}:{val.__qualname__}"
                    self._set(mod, attr, self._wrap(val, key, component(val.__module__, val.__name__)))
                elif (isinstance(val, type) and val.__module__ == mod.__name__
                      and not getattr(val, "_is_protocol", False)):
                    self._install_class(val)
        # The sort key in lts.step serialises derivations with json.dumps.
        lts = self.modules["lnpi.lts"]
        proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in ("dumps", "loads", "dump", "load")})
        proxy.dumps = self._wrap(json.dumps, "lnpi.lts:json.dumps", "lts.json")
        self._set(lts, "json", proxy)

    def _install_class(self, cls: type) -> None:
        for attr, val in list(vars(cls).items()):
            fn = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
            if not self._ours(fn):
                continue
            key = f"{cls.__module__}:{fn.__qualname__}"
            wrapped = self._wrap(fn, key, component(cls.__module__, fn.__name__))
            if isinstance(val, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(val, classmethod):
                wrapped = classmethod(wrapped)
            self._set(cls, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # ------------- per-operation counters -------------

    def finish_op(self) -> None:
        """Fold the values captured during one operation into the counters."""
        self.ops += 1
        self.per_op["lts.derivs.distinct"] += len(set(self.derivs_args))
        for res in self.step_results:
            self.per_op["lts.transitions"] += len(res.results)
            self.per_op["lts.deriv_nodes"] += sum(deriv_nodes(d) for _, d in res.results)
        self.derivs_args.clear()
        self.step_results.clear()

    def metrics(self) -> dict[str, float]:
        """Counts and self times per traced operation."""
        n = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, keys in CALL_METRICS.items():
            out[name] = sum(self.calls[k] for k in keys) / n
        for name, layer in LAYER_CALL_METRICS.items():
            prefix = f"lnpi.{layer}:"
            out[name] = sum(v for k, v in self.calls.items() if k.startswith(prefix)) / n
        calls = self.calls["lnpi.lts:_derivs"]
        out["lts.derivs.distinct"] = self.per_op["lts.derivs.distinct"] / n
        out["lts.derivs.useful_ratio"] = self.per_op["lts.derivs.distinct"] / calls if calls else 0.0
        out["lts.transitions"] = self.per_op["lts.transitions"] / n
        out["lts.deriv_nodes"] = self.per_op["lts.deriv_nodes"] / n
        out["parsing.tokens"] = self.tokens / n
        for comp, name in SELF_TIME_METRICS.items():
            out[name] = self.self_s[comp] / n
        return out


def deriv_nodes(d) -> int:
    count, stack = 0, [d]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


def lnpi_modules() -> dict[str, types.ModuleType]:
    return {name: mod for name, mod in sys.modules.items()
            if (name == "lnpi" or name.startswith("lnpi.")) and mod is not None}
