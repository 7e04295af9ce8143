#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py collect BASE HEAD OUT [--pairs 10]
    python3 perfbench/compare.py report OUT

``collect`` runs every workload BENCHMARK.json lists in two checkouts,
BASE and HEAD, pair by pair with a new seed per pair, alternating which
side runs first; it saves each run's output under OUT/base and OUT/head.
The first three pairs also make traced runs (their counters repeat
exactly, so three suffice for the self-time medians).  Every run lasts
``run_seconds`` from BENCHMARK.json, the same on both sides.

``report`` reads those outputs and prints, per workload and end-to-end
metric, each side's median and quartiles, the share of pairs the head
won, and a verdict:

- improved: the head won at least nine tenths of the pairs (ties count
  for neither), the medians differ by more than the base's own spread
  (the distance between its quartiles), and the head failed no more
  operations than the base (otherwise the gain does not count and the
  metric is unresolved);
- worse: the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: neither, and the base's spread is wider than the bound,
  unless every head run reads better than every base run;
- unchanged: otherwise.

Then it prints, per workload, the change of every per-layer self time
(median of the traced runs) and every counter that moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import LISTED_WORKLOADS  # noqa: E402

HIGHER_IS_BETTER = {"ops_per_s", "transitions_per_s"}
TRACED_PAIRS = 3
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def collect(base: Path, head: Path, out: Path, pairs: int) -> int:
    for side in ("base", "head"):
        (out / side).mkdir(parents=True, exist_ok=True)
    for i in range(pairs):
        seed = 1000 + i
        order = [("base", base), ("head", head)] if i % 2 == 0 else [("head", head), ("base", base)]
        for workload in LISTED_WORKLOADS:
            for trace in (0, 1) if i < TRACED_PAIRS else (0,):
                for side, checkout in order:
                    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
                    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
                    if proc.returncode != 0:
                        print(f"{side} {workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}",
                              file=sys.stderr)
                        return 1
                    (out / side / f"{workload}.{seed}.t{trace}.txt").write_text(proc.stdout, encoding="utf-8")
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return 0


def load(side: Path) -> list[dict]:
    runs = []
    for path in sorted(side.glob("*.txt")):
        lines = path.read_text(encoding="utf-8").splitlines()
        detail = next(json.loads(x[len("detail "):]) for x in lines if x.startswith("detail "))
        detail["result"] = json.loads(lines[-1])
        runs.append(detail)
    return runs


def bounds() -> dict[str, float]:
    out = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    # Workload-specific latencies and rates take the bound of their general form.
    for name in ("step_p50_ms", "check_p50_ms", "trace_p50_ms"):
        out.setdefault(name, out["op_p50_ms"])
    out.setdefault("transitions_per_s", out["ops_per_s"])
    return out


def verdict(metric: str, base: list[float], head: list[float], pairs: list[tuple[float, float]],
            bound: float, failed: tuple[int, int]) -> tuple[str, float]:
    """The verdict and the share of pairs won; failed is (base, head) failed operations."""
    sign = 1 if metric in HIGHER_IS_BETTER else -1
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    share = wins / len(pairs) if pairs else 0.0
    mb, mh = statistics.median(base), statistics.median(head)
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [mb, mb, mb]
    spread = q[2] - q[0]
    if share >= 0.9 and sign * (mh - mb) > spread:
        return ("improved" if failed[1] <= failed[0] else "unresolved (head failed more operations)"), share
    if mb and -sign * (mh - mb) / abs(mb) > bound:
        return "worse", share
    if mb and spread / abs(mb) > bound and not min(sign * h for h in head) > max(sign * b for b in base):
        return "unresolved", share
    return "unchanged", share


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return f"{xs[0]:.4g}"
    q = statistics.quantiles(xs, n=4)
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report(out: Path) -> int:
    base, head = load(out / "base"), load(out / "head")
    limits = bounds()
    for workload in LISTED_WORKLOADS:
        b_runs = {r["seed"]: r for r in base if r["workload"] == workload and "per_layer" not in r}
        h_runs = {r["seed"]: r for r in head if r["workload"] == workload and "per_layer" not in r}
        seeds = sorted(set(b_runs) & set(h_runs))
        if not seeds:
            continue
        failed = (sum(b_runs[s]["result"]["failed"] for s in seeds),
                  sum(h_runs[s]["result"]["failed"] for s in seeds))
        print(f"{workload}: {len(seeds)} pairs, failed operations base {failed[0]}, head {failed[1]}")
        for metric, info in b_runs[seeds[0]]["end_to_end"].items():
            if metric == "tail_percentile" or info["value"] is None or metric not in limits:
                continue
            pairs = [(b_runs[s]["end_to_end"][metric]["value"], h_runs[s]["end_to_end"][metric]["value"])
                     for s in seeds]
            pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
            bs, hs = [b for b, _ in pairs], [h for _, h in pairs]
            v, share = verdict(metric, bs, hs, pairs, limits[metric], failed)
            print(f"  {metric:18s} [{info['unit']}] base {quartiles(bs)}  head {quartiles(hs)}  "
                  f"won {share:.0%}  {v}")
        b_tr = [r["per_layer"] for r in base if r["workload"] == workload and "per_layer" in r]
        h_tr = [r["per_layer"] for r in head if r["workload"] == workload and "per_layer" in r]
        if b_tr and h_tr:
            print("  per layer (median of traced runs, per operation):")
            for metric in b_tr[0]:
                mb = statistics.median(r[metric] for r in b_tr)
                mh = statistics.median(r[metric] for r in h_tr)
                if metric.endswith("_s") or mb != mh:
                    rel = f" ({(mh - mb) / mb:+.1%})" if mb else ""
                    print(f"    {metric:26s} {mb:.4g} -> {mh:.4g}{rel}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run both checkouts pair by pair")
    c.add_argument("base", type=Path)
    c.add_argument("head", type=Path)
    c.add_argument("out", type=Path)
    c.add_argument("--pairs", type=int, default=10)
    r = sub.add_parser("report", help="compare the collected runs")
    r.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    if args.command == "collect":
        return collect(args.base, args.head, args.out, args.pairs)
    return report(args.out)


if __name__ == "__main__":
    sys.exit(main())
