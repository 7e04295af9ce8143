#!/usr/bin/env python3
"""Benchmark of the lnpi workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: lnpi is imported from ``src/`` next to this
directory.  The run repeats the workload's round of operations until S
seconds have passed.  Every round starts with set-ups: lnpi is imported
afresh, so no module-level state carries over from one round to the
next, the round's inputs are built from the seed, and a few warm-up
operations run on inputs no round draws.  The reported set-up time is
the median over all set-ups of the run.  Every operation is timed in
wall time, runs under a time limit, and its output is checked against
references that do not come from the code under test, plus the digest
of the seed commit's output.

The host's speed drifts by as much as half within seconds, as other
work on it comes and goes, so every timing is scaled to a reference
speed.  A fixed pure-Python kernel, which runs no lnpi code, is timed
between operations, after every stretch of about CAL_EVERY_S, and inside
operations and set-ups, every CAL_EVERY_S of process CPU time (SIGPROF);
the wall time those readings take is left out of the timings.  A wall
time is multiplied by CAL_REF_S over the kernel's mean time from the
reading before it to the reading after it.  The kernel is timed in
thread CPU time, so a thread the program under test leaves running
cannot make the machine look slower.

With ``--trace 0`` the last line of output is one JSON object with the
end-to-end metrics; with ``--trace 1`` every operation runs once untraced
and once with the per-layer tracer installed, and the metrics are the
per-layer counts and self times per operation plus the tracing overhead.
``--workload all`` runs every workload in its own process and prints one
row per workload (or, traced, one column per workload).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time
from types import SimpleNamespace
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from tracer import LAYERS, Tracer, lnpi_modules  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

# Set-ups per round, the last of which the round runs: the samples of the
# set-up time are spread over the run, as the machine's speed drifts.
SETUP_PER_ROUND = 3
OP_LIMIT_S = 5.0  # per operation; the slowest seed operation takes about 1.7 s
TRACED_LIMIT_S = 4 * OP_LIMIT_S  # tracing slows an operation about threefold
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
# The kernel's thread CPU time at the reference speed: about its median on a
# 2-core shared host while the benchmark runs, so scaled times read near wall times.
CAL_REF_S = 0.00085
CAL_EVERY_S = 0.025
# The end-to-end metrics BENCHMARK.json lists and bounds.
LISTED_METRICS = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "fail_ratio": "ratio", "peak_rss_mb": "MB", "step_p50_ms": "ms", "check_p50_ms": "ms",
    "trace_p50_ms": "ms", "transitions_per_s": "1/s",
}


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in lnpi swallows it."""


def _alarm(signum, frame):
    raise OpTimeout


@contextlib.contextmanager
def op_timer():
    """Let run_op interrupt an operation at its limit (main thread only)."""
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, old)


@dataclass
class Record:
    kind: str
    ref: str | None
    seconds: float
    ok: bool
    reason: str | None
    result: Any
    scale: float = 1.0  # reference speed over the machine's speed while the operation ran

    @property
    def scaled(self) -> float:
        """The operation's wall time at the reference speed."""
        return self.seconds * self.scale


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def meet(self, other: "_Pair") -> "_Pair":
        return _Pair(self.b, other.a) if self.a < other.b else other


def _kernel() -> int:
    """Interpreter work of the kinds lnpi does: small objects, method calls,
    tuples, strings, dicts, sets and frozensets."""
    d: dict = {}
    seen: set = set()
    n = 0
    pairs = [_Pair(i & 15, (i * 7) & 15) for i in range(200)]
    for i in range(1, 600):
        k = (i & 63, str(i & 255))
        d[k] = d.get(k, 0) + 1
        n += len(frozenset((i & 7, i & 3)))
        p = pairs[i % 200].meet(pairs[(i - 1) % 200])
        seen.add((p.a, p.b))
    return n + len(d) + len(seen)


def kernel_s() -> float:
    """Thread CPU time of the calibration kernel, the least of two runs.  The
    collector is off meanwhile, so the program's heap cannot slow the kernel."""
    best = math.inf
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            t0 = thread_time()
            _kernel()
            best = min(best, thread_time() - t0)
    finally:
        if collecting:
            gc.enable()
    return best


class Speed:
    """Readings of the machine's speed (the kernel's times), taken as the run
    goes: between operations by take(), and while armed every CAL_EVERY_S of
    process CPU time by SIGPROF.  `spent` tallies the wall time the SIGPROF
    readings took, for the timings to leave out."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0
        self.at = 0.0
        self.take()

    def take(self) -> int:
        """Read the speed; returns the reading's index."""
        self.readings.append(kernel_s())
        self.at = perf_counter()
        return len(self.readings) - 1

    def _on_prof(self, signum, frame) -> None:
        t0 = perf_counter()
        with contextlib.suppress(RecursionError):  # deep in the program's recursion: no reading
            self.take()
        self.spent += perf_counter() - t0

    @contextlib.contextmanager
    def handler(self):
        old = signal.signal(signal.SIGPROF, self._on_prof)
        try:
            yield
        finally:
            self.disarm()
            signal.signal(signal.SIGPROF, old)

    def arm(self) -> None:
        if signal.getsignal(signal.SIGPROF) != self._on_prof:  # SIGPROF would end the process
            raise RuntimeError("Speed.arm() outside Speed.handler()")
        signal.setitimer(signal.ITIMER_PROF, CAL_EVERY_S, CAL_EVERY_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def due(self) -> bool:
        return perf_counter() - self.at >= CAL_EVERY_S

    def scale(self, first: int) -> float:
        """Reference speed over the machine's mean speed since reading `first`."""
        return CAL_REF_S / statistics.fmean(self.readings[first:])


def load_lnpi() -> SimpleNamespace:
    """Import lnpi afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "lnpi" or n.startswith("lnpi.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"lnpi.{layer}") for layer in LAYERS}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "lnpi":
        raise ImportError(f"lnpi was not imported from {SRC}")
    return SimpleNamespace(**mods)


def run_op(op: Op, refs: dict | None, limit: float, tracer: Tracer | None = None,
           speed: Speed | None = None) -> Record:
    """Time one operation under the limit, then check its output (against
    the seed commit's digest too, unless refs is None).  With speed, the
    speed is read inside the operation too, and the reading time is left
    out; the record's scale is left at 1 for the caller to set."""
    if tracer:
        tracer.install()
    result, reason = None, None
    spent = speed.spent if speed else 0.0
    t0 = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if speed:
                speed.arm()
            result = op.call()
        finally:
            if speed:
                speed.disarm()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        reason = f"exceeded the {limit:g} s limit"
    except Exception as e:  # any exception is a failed operation; the run goes on
        reason = f"raised {type(e).__name__}"
    seconds = perf_counter() - t0 - ((speed.spent - spent) if speed else 0.0)
    if tracer:
        tracer.remove()
        tracer.finish_op()
    if reason is None:
        try:
            reason = op.check(result)
            if reason is None and op.ref is not None and refs is not None:
                want = refs.get(op.ref)
                if want is None:
                    reason = f"no seed-commit digest for {op.ref}"
                elif op.digest(result) != want:
                    reason = "output differs from the seed commit's"
        except Exception as e:  # a check that cannot run counts against the output
            reason = f"check raised {type(e).__name__}: {e}"
    return Record(op.kind, op.ref, seconds, reason is None, reason, result)


def slim(op: Op, record: Record) -> Record:
    """Drop the operation's output, keeping what the metrics need."""
    record.result = op.keep(record.result) if record.ok else None
    return record


def percentile(sorted_xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(p / 100 * len(sorted_xs)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), 100.0)


def load_refs() -> dict:
    return json.loads((HERE / "refs.json").read_text(encoding="utf-8"))


def set_up(wl, seed: int, scale: str, refs: dict, work: Path, speed: Speed) -> tuple[list[Op], float]:
    """Import lnpi afresh, build the round's operations from the seed and run
    the warm-up operations, on inputs no round draws; returns the round's
    operations and the wall time taken, less the speed readings."""
    gc.collect()  # garbage of earlier rounds is not set-up work
    spent = speed.spent
    t0 = perf_counter()
    speed.arm()
    try:
        L = load_lnpi()
        items = wl.items(seed, scale, refs)
        ops = wl.ops(L, items, work)
        for op in wl.ops(L, wl.warm(items), work):
            run_op(op, refs, OP_LIMIT_S)
    finally:
        speed.disarm()
    return ops, perf_counter() - t0 - (speed.spent - spent)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            refs: dict | None = None) -> dict:
    """Run one workload; returns the record of the run."""
    wl = WORKLOADS[name]
    refs = load_refs() if refs is None else refs
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        speed = Speed()
        with op_timer(), speed.handler():
            tracer: Tracer | None = None
            setups: list[float] = []
            records: list[Record] = []
            traced: list[Record] = []
            start = perf_counter()
            rounds = 0
            while True:
                for _ in range(SETUP_PER_ROUND):
                    ops = None  # earlier inputs are garbage before the next set-up
                    first = speed.take()
                    ops, setup_s = set_up(wl, seed, scale, refs, work, speed)
                    speed.take()
                    setups.append(setup_s * speed.scale(first))
                if tracer:
                    tracer.bind(lnpi_modules())
                elif trace:
                    tracer = Tracer(lnpi_modules())
                gc.collect()
                # A stretch: the operations between two readings taken by take().
                first, stretch = speed.take(), []
                for i, op in enumerate(ops):
                    stretch.append(slim(op, run_op(op, refs, OP_LIMIT_S, speed=speed)))
                    if tracer:  # the traced repeat is neither timed nor read
                        traced.append(slim(op, run_op(op, refs, TRACED_LIMIT_S, tracer)))
                    if speed.due() or i == len(ops) - 1:
                        last = speed.take()
                        k = speed.scale(first)
                        for r in stretch:
                            r.scale = k
                        records += stretch
                        first, stretch = last, []
                rounds += 1
                if perf_counter() - start >= seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()

    run = {"workload": name, "seed": seed, "rounds": rounds, "records": records + traced,
           "scale": CAL_REF_S / statistics.median(speed.readings)}
    if tracer:
        untraced_s = sum(r.seconds for r in records)
        layer = tracer.metrics()
        layer["trace.overhead"] = sum(r.seconds for r in traced) / untraced_s
        run["per_layer"] = layer
    run["end_to_end"] = end_to_end(wl, records, setups)
    return run


def end_to_end(wl, records: list[Record], setups: list[float]) -> dict:
    """metric -> (value, sample count), timings at the reference speed.
    ops_per_s divides the operations completed by the summed time of all
    operations attempted: the rounds less set-up, speed readings and the
    benchmark's own checking and bookkeeping."""
    lat = sorted(r.scaled for r in records)
    ok = sum(r.ok for r in records)
    p = tail_percentile(len(lat))
    out = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (ok / sum(lat), len(lat)),
        "op_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
        "op_tail_ms": (percentile(lat, p) * 1e3, len(lat)),
        "fail_ratio": ((len(lat) - ok) / len(lat), len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    out.update(wl.extra(records))
    out["tail_percentile"] = (p, len(lat))
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/op"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    return "count/op"


def summary(run: dict, trace: bool) -> dict:
    records = run["records"]
    failed = sum(not r.ok for r in records)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in run["per_layer"].items()}
    else:
        e2e = run["end_to_end"]
        metrics = {k: {"value": e2e[k][0], "unit": UNITS[k]} for k in LISTED_METRICS}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def describe(run: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric with unit and sample count, and failures."""
    e2e = run["end_to_end"]
    p = e2e["tail_percentile"][0]
    parts = []
    for k, (v, n) in e2e.items():
        if k == "tail_percentile" or v is None:
            continue
        label = f"op_tail_ms[p{p:g}]" if k == "op_tail_ms" else k
        parts.append(f"{label}={v:.6g} {UNITS[k]} (n={n})")
    lines = [f"{run['workload']} seed={run['seed']} rounds={run['rounds']} "
             f"scale={run['scale']:.3f}: " + "  ".join(parts)]
    reasons: dict[tuple[str, str], int] = {}
    for r in run["records"]:
        if not r.ok:
            reasons[r.kind, r.reason] = reasons.get((r.kind, r.reason), 0) + 1
    for (kind, reason), count in sorted(reasons.items()):
        lines.append(f"  failed {count}x {kind}: {reason}")
    return lines


def detail(run: dict) -> dict:
    out = {"workload": run["workload"], "seed": run["seed"], "rounds": run["rounds"],
           "scale": run["scale"],
           "end_to_end": {k: {"value": v, "n": n, "unit": UNITS.get(k, "")}
                          for k, (v, n) in run["end_to_end"].items()}}
    if "per_layer" in run:
        out["per_layer"] = run["per_layer"]
    return out


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process: one row per workload."""
    details = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        found = [json.loads(x[len("detail "):]) for x in lines if x.startswith("detail ")]
        if proc.returncode != 0 or not found:
            print(f"{name}: run failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        details.append(found[0])
        for line in lines:
            if line.startswith("  failed"):
                print(f"{name}{line}")
    names = [k for k in UNITS]
    head = ["workload"] + [f"{k} [{UNITS[k]}]" for k in names] + ["tail"]
    rows = [head]
    for d in details:
        e2e = d["end_to_end"]
        cells = [d["workload"]]
        for k in names:
            v = e2e.get(k, {}).get("value")
            cells.append("-" if v is None else f"{v:.4g} (n={e2e[k]['n']})")
        cells.append(f"p{e2e['tail_percentile']['value']:g}")
        rows.append(cells)
    _table(rows)
    if trace:
        print()
        metrics = list(details[0]["per_layer"])
        rows = [["metric [unit]"] + [d["workload"] for d in details]]
        for m in metrics:
            rows.append([f"{m} [{layer_unit(m)}]"] + [f"{d['per_layer'][m]:.4g}" for d in details])
        _table(rows)
    return 0


def _table(rows: list[list[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lnpi" / "__init__.py").is_file():
        print(f"no lnpi sources at {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in describe(run):
        print(line)
    print("detail " + json.dumps(detail(run)))
    print(json.dumps(summary(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
