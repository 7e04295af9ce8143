#!/usr/bin/env python3
"""Write refs.json: the digest of the seed commit's output for every input
a workload listed in BENCHMARK.json can draw.

    python3 perfbench/make_refs.py

Run it at the commit whose output later commits must reproduce byte for
byte; every operation must pass its independent checks there.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

from run import HERE, OP_LIMIT_S, ROOT, load_lnpi, op_timer, run_op
from workloads import LISTED_WORKLOADS, WORKLOADS


def main() -> int:
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    refs: dict[str, str] = {}
    L = load_lnpi()
    try:
        with op_timer():
            for name in LISTED_WORKLOADS:
                wl = WORKLOADS[name]
                ops = wl.ops(L, wl.pool(), work)
                for op in ops:
                    rec = run_op(op, None, OP_LIMIT_S)
                    if not rec.ok:
                        print(f"{op.ref}: {rec.reason}", file=sys.stderr)
                        return 1
                    refs[op.ref] = op.digest(rec.result)
                    if name == "random-shallow":
                        refs[op.ref.replace("rs/", "rs-work/")] = wl.work(rec.result)
                print(f"{name}: {len(ops)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    (HERE / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
