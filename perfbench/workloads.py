"""The benchmark's workloads: their inputs, operations and references.

Each workload draws the inputs of one round from the seed, builds the
operations of that round, and names for every operation the references
its output is checked against.  A run repeats the same round, so every
round does the same work.  None of the references comes from the code
under test, except the digest of the seed commit's output (``refs.json``,
written by ``make_refs.py``): the roadmap requires byte-identical output,
so a changed output is a failed operation.

Inputs that need a seed-commit digest are drawn from a fixed pool, one
digest per pool entry; the workload seed chooses the entries and their
order.  The replicated-fuel corpus is fixed, so there the seed chooses
the spelling of every identifier and the order of the operations.

Warm-up operations run on inputs that no round draws (pool entries kept
for the warm-up, or a process outside the replicated-fuel corpus), so a
cache the warm-up fills cannot answer a timed operation, and the warm-up
does the same work whatever the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from tracer import deriv_nodes


@dataclass
class Op:
    kind: str
    ref: str | None  # key of the seed commit's output digest in refs.json
    call: Callable[[], Any]  # the timed part
    check: Callable[[Any], str | None]  # independent references: a failure reason or None
    digest: Callable[[Any], str]
    keep: Callable[[Any], Any] = lambda result: None  # what the run keeps once the output is checked


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class CliOut:
    rc: int | str | None
    out: str


def cli_call(L: SimpleNamespace, argv: list[str]) -> Callable[[], CliOut]:
    def call() -> CliOut:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = L.cli.main(argv)
            except SystemExit as e:  # argparse usage errors exit 2, a documented code
                rc = e.code
        return CliOut(rc, buf.getvalue())

    return call


def expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def respell(text: str, mapping: dict[str, str]) -> str:
    """Replace whole identifiers by their spelling in mapping."""
    return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


def fresh_spellings(rng: random.Random, count: int) -> list[str]:
    """Distinct identifiers that are no keyword and no printer-chosen name (x<k>)."""
    out: list[str] = []
    while len(out) < count:
        w = (rng.choice("abdefghjkpqrstuvwz") + rng.choice("abcdefghijklmnopqrstuvwz")
             + str(rng.randrange(10)) + rng.choice("abcdefghijklmnopqrstuvwz"))
        if w not in out:
            out.append(w)
    return out


# ------------- replicated-fuel -------------

# The corpus, spelled as in ROADMAP.md and README.md.
RF_PROCS = {
    "roadmap": ("c", "*(new n. c!n.0) | *(c?(x). x!x.0)", range(1, 7)),
    "server": ("c", "*( new n. c?(x). x!n. 0 )", range(1, 9)),
    "extrusion": ("n", "new c. n!c. 0", range(1, 9)),  # no replication: every fuel prints the same
    "warm": ("n", "new c. n!c. c?(y). y!c. 0", ()),  # the warm-up's, not in the round
}
# Traces: environment, process, actions, the name rename replaces.
RF_TRACES = {
    "server": ("c", "*( new n. c?(x). x!n. 0 )", ["c?y1", "(n1)y1!n1"], "n1"),
    "warm": ("n", "new c. n!c. c?(y). y!c. 0", ["(k)n!k"], "k"),
}
RF_TRACE_FUELS = range(1, 6)  # the replay prints the same at every fuel
RF_WARM_FUEL = 2
RF_NAMES = ("c", "n", "x", "y1", "n1", "m")

# Hand-written outputs from README.md.
README_SERVER_FUEL1 = """\
<{c}; *(new x1. c?(x2). x2!x1. 0)>
  c?c => <{c}; new x1. c!x1. 0 | *(new x1. c?(x2). x2!x1. 0)> [Rep]
  c?x1 => <{c, x1}; new x2. x1!x2. 0 | *(new x1. c?(x2). x2!x1. 0)> [Rep]
  (fuel exhausted: some replication branches were cut)
"""
README_EXTRUSION = "<{n}; new x1. n!x1. 0>\n  (x1)n!x1 => <{n, x1}; 0> [Open]\n"
README_EXTRUSION_CHECK = "ok [Open] (x1)x0!x1\n"
README_TRACE = """\
<{c}; *(new x3. c?(x4). x4!x3. 0)>
  c?y1 => <{c, y1}; new x3. y1!x3. 0 | *(new x3. c?(x4). x4!x3. 0)>
  (n1)y1!n1 => <{c, y1, n1}; 0 | *(new x3. c?(x4). x4!x3. 0)>
"""
README_RENAME = """\
<{c}; *(new x4. c?(x5). x5!x4. 0)>
  c?y1 => <{c, y1}; new x4. y1!x4. 0 | *(new x4. c?(x5). x5!x4. 0)>
  (m)y1!m => <{c, y1, m}; 0 | *(new x4. c?(x5). x5!x4. 0)>
"""
# Transition counts of the roadmap process, from ROADMAP.md.
ROADMAP_COUNTS = {5: 40, 7: 70, 8: 88}


class ReplicatedFuel:
    """In-process CLI calls: step --deriv and check-deriv across a fuel
    sweep, then trace and rename of the replicated server."""

    name = "replicated-fuel"

    def items(self, seed: int, scale: str, refs: dict) -> dict:
        rng = random.Random(seed)
        spelling = dict(zip(RF_NAMES, fresh_spellings(rng, len(RF_NAMES))))
        units = self._units(scale)
        rng.shuffle(units)
        return {"spelling": spelling, "units": units}

    def pool(self) -> dict:
        return {"spelling": {n: n for n in RF_NAMES}, "units": self._units("full")}

    @staticmethod
    def _units(scale: str) -> list[tuple]:
        """54 operations at full scale, so even two rounds hold the 100 samples a p90 tail
        needs, and the median falls among operations of similar cost."""
        n = None if scale == "full" else 1
        units = [("step", proc, fuel) for proc, (_, _, fuels) in RF_PROCS.items() for fuel in fuels[:n]]
        return units + [("trace", "server", fuel) for fuel in RF_TRACE_FUELS[:n]]

    def warm(self, items: dict) -> dict:
        return {**items, "units": [("step", "warm", RF_WARM_FUEL), ("trace", "warm", RF_WARM_FUEL)]}

    def ops(self, L, items: dict, work: Path) -> list[Op]:
        sp = items["spelling"]
        back = {v: k for k, v in sp.items()}
        ops: list[Op] = []
        for kind, proc, fuel in items["units"]:
            if kind == "step":
                ops += self._step_unit(L, sp, back, proc, fuel, work)
            else:
                ops += self._trace_unit(L, sp, back, proc, fuel, work)
        return ops

    @staticmethod
    def _digest(back: dict, path: Path | None = None) -> Callable[[CliOut], str]:
        def digest(r: CliOut) -> str:
            # The file is compared as JSON: its key order follows the spelling.
            files = json.loads(respell(path.read_text(encoding="utf-8"), back)) if path else None
            return sha(respell(r.out, back) + "\0" + json.dumps(files, sort_keys=True))

        return digest

    def _step_unit(self, L, sp, back, proc, fuel, work) -> list[Op]:
        env, text, _ = RF_PROCS[proc]
        deriv = work / f"step-{proc}-{fuel}.json"
        argv = ["step", "-e", sp[env], "--fuel", str(fuel), respell(text, sp), "--deriv", str(deriv)]

        def check_step(r: CliOut) -> str | None:
            if r.rc != 0:
                return f"exit code {r.rc}"
            n = r.out.count(" => ")
            if len(json.loads(deriv.read_text(encoding="utf-8"))) != n:
                return "derivation file does not hold one derivation per transition"
            if proc == "server" and fuel == 1:
                return expect(r.out == respell(README_SERVER_FUEL1, sp), "differs from README")
            if proc == "extrusion":
                return expect(r.out == respell(README_EXTRUSION, sp), "differs from README")
            if proc == "roadmap" and fuel in ROADMAP_COUNTS:
                return expect(n == ROADMAP_COUNTS[fuel], f"{n} transitions, ROADMAP says {ROADMAP_COUNTS[fuel]}")
            return None

        def check_deriv(r: CliOut) -> str | None:
            if r.rc != 0:
                return f"exit code {r.rc}"
            lines = r.out.splitlines()
            if len(lines) != len(json.loads(deriv.read_text(encoding="utf-8"))):
                return "check-deriv did not report every derivation"
            if not all(line.startswith("ok [") for line in lines):
                return "a derivation failed its check"
            if proc == "extrusion":
                return expect(r.out == README_EXTRUSION_CHECK, "differs from README")
            return None

        ref = None if proc == "warm" else f"rf/step/{proc}/{fuel}"
        return [
            Op("step", ref, cli_call(L, argv), check_step, self._digest(back, deriv),
               keep=lambda r: r.out.count(" => ")),
            Op("check-deriv", ref and f"rf/check-deriv/{proc}/{fuel}", cli_call(L, ["check-deriv", str(deriv)]),
               check_deriv, self._digest(back)),
        ]

    def _trace_unit(self, L, sp, back, proc, fuel, work) -> list[Op]:
        env, text, actions, old = RF_TRACES[proc]
        acts = work / f"acts-{proc}-{fuel}.json"
        acts.write_text(json.dumps([respell(a, sp) for a in actions]), encoding="utf-8")
        tr = work / f"trace-{proc}-{fuel}.json"
        out = work / f"rename-{proc}-{fuel}.json"
        trace_argv = ["trace", "-e", sp[env], "--fuel", str(fuel), respell(text, sp), str(acts), "--deriv", str(tr)]
        rename_argv = ["rename", str(tr), sp.get(old, old), sp["m"], "--deriv", str(out)]

        def readme_check(readme: str) -> Callable[[CliOut], str | None]:
            def check(r: CliOut) -> str | None:
                if r.rc != 0:
                    return f"exit code {r.rc}"
                if proc == "warm":
                    return None
                return expect(r.out == respell(readme, sp), "differs from README")

            return check

        ref = None if proc == "warm" else f"rf/trace/{fuel}"
        ops = [Op("trace", ref, cli_call(L, trace_argv), readme_check(README_TRACE), self._digest(back, tr))]
        return ops + [Op("rename", ref and f"rf/rename/{fuel}", cli_call(L, rename_argv),
                         readme_check(README_RENAME), self._digest(back, out))]

    @staticmethod
    def extra(records: list) -> dict:
        def p50(kind):
            xs = [r.scaled for r in records if r.kind == kind and r.ok]
            return (statistics.median(xs) * 1e3, len(xs)) if xs else (None, 0)

        steps = [r for r in records if r.kind == "step" and r.ok]
        transitions = sum(r.result for r in steps)
        step_s = sum(r.scaled for r in steps)
        return {
            "step_p50_ms": p50("step"),
            "check_p50_ms": p50("check-deriv"),
            "trace_p50_ms": p50("trace"),
            "transitions_per_s": (transitions / step_s if step_s else None, len(steps)),
        }


# ------------- random-shallow -------------

RS_POOL = 4096
RS_WARM = (0, 1, 2)  # pool entries kept for the warm-up
RS_ROUND = 2000
RS_XE = 16


@dataclass
class RsOut:
    result: Any  # StepResult
    step_s: float
    check_s: list[float]
    weakened: list


class RandomShallow:
    """Library calls on small random configurations: step(cfg, 2), then
    check(d, 3) and weaken(d, xe) for every derivation."""

    name = "random-shallow"

    def items(self, seed: int, scale: str, refs: dict) -> list[int]:
        """One configuration from each of RS_ROUND strata of the pool, ordered by
        the derivation nodes the seed commit enumerated for them, so every seed
        draws a round of about the same work."""
        rng = random.Random(seed)
        drawn = range(len(RS_WARM), RS_POOL)
        if scale != "full":
            return rng.sample(drawn, 5)
        order = sorted(drawn, key=lambda i: (refs[f"rs-work/{i}"], i))
        picked = [rng.choice(order[k * len(order) // RS_ROUND:(k + 1) * len(order) // RS_ROUND])
                  for k in range(RS_ROUND)]
        rng.shuffle(picked)
        return picked

    def pool(self) -> list[int]:
        return list(range(RS_POOL))

    @staticmethod
    def work(r: RsOut) -> int:
        """Derivation nodes enumerated: the stratification key of the pool."""
        return sum(deriv_nodes(d) for _, d in r.result.results)

    def warm(self, items: list[int]) -> list[int]:
        return list(RS_WARM)

    def ops(self, L, items: list[int], work: Path) -> list[Op]:
        return [self._op(L, i) for i in items]

    @staticmethod
    def _op(L, i: int) -> Op:
        cfg = L.gen.rand_config(random.Random(i), depth=3)
        xrng = random.Random(f"xe/{i}")
        xes = [L.gen.rand_finite_nameset(xrng) for _ in range(RS_XE)]
        lts = L.lts  # looked up at call time, so the tracer sees these calls

        def call() -> RsOut:
            t0 = perf_counter()
            res = lts.step(cfg, 2)
            step_s = perf_counter() - t0
            check_s, weakened = [], []
            for j, (t, d) in enumerate(res.results):
                c0 = perf_counter()
                lts.check(d, 3)
                check_s.append(perf_counter() - c0)
                weakened.append(lts.weaken(d, xes[j % RS_XE].difference(lts.extr(t.action))))
            return RsOut(res, step_s, check_s, weakened)

        def check_out(r: RsOut) -> str | None:
            for j, ((t, _), wd) in enumerate(zip(r.result.results, r.weakened)):
                xe = set(xes[j % RS_XE].atoms()) - set(lts.extr(t.action).atoms())
                src = set(wd.conclusion.src.env.atoms())
                dst = set(wd.conclusion.dst.env.atoms())
                if src != set(t.src.env.atoms()) | xe or dst != set(t.dst.env.atoms()) | xe:
                    return "weakening did not add the extra names to both environments"
            return None

        def digest(r: RsOut) -> str:
            data = [r.result.complete, [[t.to_json(), d.to_json()] for t, d in r.result.results],
                    [w.to_json() for w in r.weakened]]
            return sha(json.dumps(data, sort_keys=True))

        return Op("config", f"rs/{i}", call, check_out, digest,
                  keep=lambda r: (r.step_s, r.check_s, len(r.result.results)))

    @staticmethod
    def extra(records: list) -> dict:
        kept = [(r.scale, r.result) for r in records if r.ok]
        steps = [k * step_s for k, (step_s, _, _) in kept]
        checks = [k * c for k, (_, check_s, _) in kept for c in check_s]
        transitions = sum(n for _, (_, _, n) in kept)
        return {
            "step_p50_ms": (statistics.median(steps) * 1e3 if steps else None, len(steps)),
            "check_p50_ms": (statistics.median(checks) * 1e3 if checks else None, len(checks)),
            "transitions_per_s": (transitions / sum(steps) if steps else None, len(steps)),
        }


# ------------- nominal-suites -------------

NS_POOL = 256
NS_WARM = 0  # the pool entry kept for the warm-up
# Cases per operation.  A suite also fails when one of its lemmas was never
# exercised, which fewer than three support-lemmas cases cannot always do.
NS_CASES = {"perm-laws": 4, "binder-axioms": 2, "support-lemmas": 3}
NS_PER_SUITE = 40
PERM_LAW_CHECKS_PER_CASE = 18  # nine value kinds, two laws each


class NominalSuites:
    """In-process `lnpi selftest` of the three nominal property suites."""

    name = "nominal-suites"

    def items(self, seed: int, scale: str, refs: dict) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        per = NS_PER_SUITE if scale == "full" else 1
        out = [(suite, s) for suite in NS_CASES for s in rng.sample(range(NS_WARM + 1, NS_POOL), per)]
        rng.shuffle(out)
        return out

    def pool(self) -> list[tuple[str, int]]:
        return [(suite, s) for suite in NS_CASES for s in range(NS_POOL)]

    def warm(self, items: list) -> list:
        return [(suite, NS_WARM) for suite in NS_CASES]

    def ops(self, L, items: list, work: Path) -> list[Op]:
        return [self._op(L, suite, s) for suite, s in items]

    @staticmethod
    def _op(L, suite: str, s: int) -> Op:
        cases = NS_CASES[suite]
        line = re.compile(rf"suite {suite}: {cases} cases, (\d+) checks, 0 failures\n")

        def check(r: CliOut) -> str | None:
            if r.rc != 0:
                return f"exit code {r.rc}"
            m = line.fullmatch(r.out)
            if not m:
                return "suite reported failures or an unexpected summary"
            if suite == "perm-laws" and int(m.group(1)) != PERM_LAW_CHECKS_PER_CASE * cases:
                return f"{m.group(1)} checks, expected {PERM_LAW_CHECKS_PER_CASE * cases}"
            return None

        return Op(suite, f"ns/{suite}/{s}", cli_call(L, ["selftest", suite, str(cases), str(s)]),
                  check, lambda r: sha(r.out))

    @staticmethod
    def extra(records: list) -> dict:
        return {}


# ------------- large-terms and deep-chain -------------

LT_POOL = 16  # text variants per shape and size
LT_WARM = 0  # the variant kept for the warm-up
# Variants of each shape and size in one round.  The operations faster than
# the wide 100-component ones (32) are as many as the slower ones (32), so
# the median falls in the middle of that group, not at the edge of a gap.
LT_VARIANTS = {("wide", 10): 4, ("wide", 100): 8, ("wide", 1000): 6, ("deep", 10): 4, ("deep", 100): 4}
LT_SIZES = tuple(LT_VARIANTS)
COMMANDS = ("fmt", "supp", "lc", "perm")


@dataclass(frozen=True)
class Text:
    text: str
    free: tuple[str, ...]  # free identifiers in first-occurrence order
    swap: tuple[str, str]  # the transposition the perm command applies


def make_text(shape: str, size: int, k: int) -> Text:
    """Process text of `size` components (wide) or prefixes (deep).

    The wide shape is a balanced parallel composition of small
    processes with shallow binders; the deep shape is one chain of
    alternating inputs and restrictions.  The generator records the
    free identifiers it places, in text order.
    """
    rng = random.Random(f"{shape}/{size}/{k}")
    names = fresh_spellings(rng, 6)
    placed: list[str] = []

    def free() -> str:
        # The first two placements differ, so the perm command swaps two free names.
        w = names[len(placed)] if len(placed) < 2 else rng.choice(names)
        if w not in placed:
            placed.append(w)
        return w

    if shape == "wide":
        templates = (
            lambda: f"{free()}!{free()}. 0",
            lambda: f"{free()}?(y). y!{free()}. 0",
            lambda: f"new z. {free()}!z. 0",
            lambda: f"new z. {free()}?(y). y!z. 0",
            lambda: f"*({free()}?(y). {free()}!y. 0)",
            lambda: (lambda c, d: f"sum [{c}!{d}. 0, {d}?(y). 0; 0]")(free(), free()),
        )
        parts = [rng.choice(templates)() for _ in range(size)]

        def balanced(lo: int, hi: int) -> str:
            if hi - lo == 1:
                return parts[lo]
            mid = (lo + hi) // 2
            return f"({balanced(lo, mid)}) | ({balanced(mid, hi)})"

        text = balanced(0, size)
    else:
        binders: list[str] = []
        chunks = []
        for i in range(size):
            if i % 2 == 0:
                chan = rng.choice(binders) if binders and rng.random() < 0.5 else free()
                chunks.append(f"{chan}?(v{i}). ")
            else:
                chunks.append(f"new v{i}. ")
            binders.append(f"v{i}")
        chunks.append(f"{binders[-1]}!{free()}. 0")
        text = "".join(chunks)
    return Text(text, tuple(placed), (placed[0], placed[1]))


class LargeTerms:
    """In-process `lnpi fmt|supp|lc|perm` on generated text of sizes 10,
    100 and 1000, in a wide and a deep shape."""

    name = "large-terms"
    has_refs = True  # the seed commit's digests exist for these operations
    sizes = LT_SIZES
    commands = {shape_size: COMMANDS if shape_size[0] == "wide" else ("fmt", "supp", "perm")
                for shape_size in LT_SIZES}

    def items(self, seed: int, scale: str, refs: dict) -> list[tuple]:
        rng = random.Random(seed)
        out = []
        for shape, size in self.sizes:
            if scale != "full" and size > 10:
                continue
            for k in rng.sample(range(LT_WARM + 1, LT_POOL), LT_VARIANTS[shape, size] if scale == "full" else 1):
                out += [(shape, size, k, cmd) for cmd in self.commands[shape, size]]
        rng.shuffle(out)
        return out

    def pool(self) -> list[tuple]:
        return [(shape, size, k, cmd) for shape, size in self.sizes for k in range(LT_POOL)
                for cmd in self.commands[shape, size]]

    def warm(self, items: list) -> list:
        """Every command on the warm-up's size-10 variant of each shape."""
        return [(shape, 10, LT_WARM, cmd) for shape in ("wide", "deep") for cmd in self.commands[shape, 10]]

    def ops(self, L, items: list, work: Path) -> list[Op]:
        texts: dict[tuple, Text] = {}
        ops = []
        for shape, size, k, cmd in items:
            if (shape, size, k) not in texts:
                texts[shape, size, k] = make_text(shape, size, k)
            ops.append(self._op(L, texts[shape, size, k], f"{shape}/{size}/{k}", cmd))
        return ops

    def _op(self, L, t: Text, key: str, cmd: str) -> Op:
        argv = [cmd, t.text] if cmd != "perm" else ["perm", f"({t.swap[0]} {t.swap[1]})", t.text]

        def fmt(text: str) -> str:
            term, symtab = L.parsing.parse(text)
            return L.parsing.print_term(term, symtab) + "\n"

        def check(r: CliOut) -> str | None:
            if r.rc != 0:
                return f"exit code {r.rc}"
            if cmd == "fmt":
                return expect(fmt(r.out) == r.out, "printed form does not survive a parse/print round trip")
            if cmd == "supp":
                return expect(r.out == "{" + ", ".join(t.free) + "}\n", "free names differ from the generator's")
            if cmd == "lc":
                return expect(r.out == "true\n", "generated text is locally closed")
            a, b = t.swap
            moved = respell(t.text, {a: b, b: a})
            return expect(r.out == fmt(moved), "permuting differs from printing the permuted text")

        ref = f"lt/{key}/{cmd}" if self.has_refs else None
        return Op(cmd, ref, cli_call(L, argv), check, lambda r: sha(r.out))

    @staticmethod
    def extra(records: list) -> dict:
        return {}


class DeepChain(LargeTerms):
    """The deep-chain operations that fail at the seed: `lc` opens every
    binder at four witnesses (4^depth), and a 1000-deep chain exceeds
    the interpreter's recursion limit.  BENCHMARK.json does not list it,
    because its operations fail; `run.py --workload all` reports it."""

    name = "deep-chain"
    has_refs = False  # every operation fails at the seed commit
    sizes = (("deep", 10), ("deep", 100), ("deep", 1000))
    commands = {("deep", 10): ("lc",), ("deep", 100): ("lc",), ("deep", 1000): COMMANDS}

    def items(self, seed: int, scale: str, refs: dict) -> list[tuple]:
        rng = random.Random(seed)
        if scale != "full":
            return [("deep", 1000, rng.randrange(LT_POOL), "supp")]
        out = [(shape, size, rng.randrange(LT_POOL), cmd)
               for shape, size in self.sizes for cmd in self.commands[shape, size]]
        rng.shuffle(out)
        return out

    def warm(self, items: list) -> list:
        return []


WORKLOADS = {w.name: w for w in (ReplicatedFuel(), RandomShallow(), NominalSuites(), LargeTerms(), DeepChain())}
# The workloads BENCHMARK.json lists.
LISTED_WORKLOADS = ("replicated-fuel", "random-shallow", "nominal-suites", "large-terms")
