"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run every workload at its smallest size, so they take under a
minute; the repository's own tests do not collect them.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys

import pytest

import run
import workloads
from tracer import DETERMINISTIC, Tracer, lnpi_modules
from workloads import LISTED_WORKLOADS, Op


@pytest.fixture(scope="module")
def refs() -> dict:
    return run.load_refs()


def smoke(name: str, refs: dict, trace: bool = False, seed: int = 3) -> dict:
    return run.measure(name, seed, 0, trace, scale="smoke", refs=refs)


@pytest.mark.parametrize("name", LISTED_WORKLOADS)
def test_every_workload_runs_at_its_smallest_size(name, refs) -> None:
    result = smoke(name, refs)
    failed = [(r.kind, r.reason) for r in result["records"] if not r.ok]
    assert not failed
    summary = run.summary(result, trace=False)
    assert summary["correct"] and summary["attempted"] == len(result["records"]) > 0
    assert set(summary["metrics"]) == set(run.LISTED_METRICS)
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_deep_chain_runs_and_reports_its_operations(refs) -> None:
    result = smoke("deep-chain", refs)
    assert len(result["records"]) == 1
    record = result["records"][0]
    # At the seed the 1000-deep chain exceeds the recursion limit; a fix
    # must still produce the generator's free names.
    assert record.ok or record.reason == "raised RecursionError"


def test_a_corrupted_seed_digest_fails_that_operation_only(refs) -> None:
    key = "rf/step/extrusion/1"
    bad = {**refs, key: "0" * 16}
    result = smoke("replicated-fuel", bad)
    failed = [r for r in result["records"] if not r.ok]
    assert [r.ref for r in failed] == [key]
    assert failed[0].reason == "output differs from the seed commit's"
    assert len(result["records"]) > 1


def test_a_corrupted_readme_output_fails_the_operation(refs, monkeypatch) -> None:
    monkeypatch.setattr(workloads, "README_EXTRUSION", workloads.README_EXTRUSION.replace("Open", "Res"))
    result = smoke("replicated-fuel", refs)
    failed = {r.ref: r.reason for r in result["records"] if not r.ok}
    assert failed == {"rf/step/extrusion/1": "differs from README"}


def _inputs(name: str, items) -> set:
    """What a round's operations are drawn from, without the command run on it."""
    if name == "replicated-fuel":
        return {proc for _, proc, _ in items["units"]}
    if name == "large-terms":
        return {item[:3] for item in items}
    return set(items)


@pytest.mark.parametrize("name", LISTED_WORKLOADS)
def test_warm_up_passes_on_inputs_outside_the_round(name, refs, tmp_path) -> None:
    wl = workloads.WORKLOADS[name]
    items = wl.items(3, "full", refs)
    warm = wl.warm(items)
    assert _inputs(name, warm) and not _inputs(name, warm) & _inputs(name, items)
    with run.op_timer():
        records = [run.run_op(op, refs, run.OP_LIMIT_S) for op in wl.ops(run.load_lnpi(), warm, tmp_path)]
    assert [r.reason for r in records if not r.ok] == []


def test_every_timed_operation_is_scaled_by_a_calibration(refs) -> None:
    result = smoke("nominal-suites", refs)
    records = result["records"]
    assert records and all(r.scale != 1.0 and r.scale > 0 for r in records)
    assert all(r.scaled == r.seconds * r.scale for r in records)
    lat = sorted(r.scaled for r in records)
    assert result["end_to_end"]["op_p50_ms"][0] == run.statistics.median(lat) * 1e3


def test_speed_readings_inside_an_operation_are_left_out_of_its_time() -> None:
    speed = run.Speed()

    def busy() -> int:
        end = run.thread_time() + 0.3
        while run.thread_time() < end:
            pass
        return 0

    with run.op_timer(), speed.handler():
        before = len(speed.readings)
        t0 = run.perf_counter()
        record = run.run_op(_op(busy), None, 5.0, speed=speed)
        wall = run.perf_counter() - t0
    assert record.ok and len(speed.readings) - before >= 3  # one per CAL_EVERY_S of CPU time
    assert 0 < record.seconds <= wall - speed.spent
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_every_set_up_imports_lnpi_afresh(refs, tmp_path) -> None:
    wl = workloads.WORKLOADS["nominal-suites"]
    speed = run.Speed()
    with run.op_timer(), speed.handler():
        run.set_up(wl, 3, "smoke", refs, tmp_path, speed)
        first = sys.modules["lnpi.cli"]
        run.set_up(wl, 3, "smoke", refs, tmp_path, speed)
    assert sys.modules["lnpi.cli"] is not first


def _op(call) -> Op:
    return Op("probe", None, call, lambda r: None if r == 0 else f"exit code {r}", str)


def _spin() -> int:
    while True:
        pass


def _recurse(n: int = 0) -> int:
    return _recurse(n + 1)


def test_raising_timing_out_and_bad_exit_codes_are_failures() -> None:
    with run.op_timer():
        records = [run.run_op(_op(call), None, 0.2) for call in (_recurse, _spin, lambda: 7, lambda: 0)]
    assert [r.reason for r in records] == [
        "raised RecursionError", "exceeded the 0.2 s limit", "exit code 7", None,
    ]
    assert 0.2 <= records[1].seconds < 1.0  # wall time of a busy loop stopped at 0.2 s


@pytest.mark.parametrize("name", ["replicated-fuel", "random-shallow", "large-terms"])
def test_traced_counters_repeat_exactly(name, refs) -> None:
    first = smoke(name, refs, trace=True)["per_layer"]
    second = smoke(name, refs, trace=True)["per_layer"]
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
    assert first["pisyntax.nodes"] > 0
    if name != "large-terms":
        assert first["lts.transitions"] > 0 and first["lts.check.nodes"] > 0


def test_traced_run_reports_every_per_layer_metric(refs) -> None:
    result = smoke("nominal-suites", refs, trace=True)
    assert not [r for r in result["records"] if not r.ok]
    layer = result["per_layer"]
    assert layer["props.checks"] > 0 and layer["atoms.perm_new"] > 0 and layer["oracle.self_s"] > 0
    assert layer["trace.overhead"] > 1
    assert layer["lts.derivs.calls"] == 0  # no transition system runs here


def _trace_step(fuel: int) -> Tracer:
    L = run.load_lnpi()
    proc, symtab = L.parsing.parse(workloads.RF_PROCS["roadmap"][1])
    cfg = L.lts.Config(L.namesets.NameSet.finite([symtab["c"]]), proc)
    tracer = Tracer(lnpi_modules())
    tracer.install()
    try:
        L.lts.step(cfg, fuel)
    finally:
        tracer.remove()
        tracer.finish_op()
    return tracer


def test_derivs_calls_match_the_roadmap_at_fuel_5() -> None:
    m = _trace_step(5).metrics()
    assert m["lts.derivs.calls"] == 3263
    assert m["lts.derivs.distinct"] == 107
    assert m["lts.transitions"] == workloads.ROADMAP_COUNTS[5]


def test_roadmap_transition_count_at_fuel_7() -> None:
    assert _trace_step(7).metrics()["lts.transitions"] == workloads.ROADMAP_COUNTS[7]


def test_tracer_removal_restores_the_original_functions() -> None:
    L = run.load_lnpi()
    before = (L.lts.step, L.namesets.NameSet.__dict__["finite"], L.lts.json)
    tracer = Tracer(lnpi_modules())
    tracer.install()
    assert L.lts.step is not before[0]
    tracer.remove()
    assert (L.lts.step, L.namesets.NameSet.__dict__["finite"], L.lts.json) == before


def test_tail_is_the_highest_percentile_with_ten_samples_beyond() -> None:
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 75.0) == 3.0


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path) -> None:
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-terms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_gain_does_not_count_when_the_head_fails_more_operations() -> None:
    import compare

    base, head = [10.0 + i / 10 for i in range(10)], [5.0 + i / 10 for i in range(10)]
    pairs = list(zip(base, head))
    assert compare.verdict("op_p50_ms", base, head, pairs, 0.25, (0, 0))[0] == "improved"
    assert compare.verdict("op_p50_ms", base, head, pairs, 0.25, (0, 3))[0].startswith("unresolved")
