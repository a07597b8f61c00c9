"""The benchmark's own tests: smoke runs, metric names, determinism.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, checks
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, OpRecord
from perfbench.yardstick import REFERENCE_SECONDS, Yardstick

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: a seed no pin, note or tuning run used
UNSEEN_SEED = 90001


def run_cli(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_names_match_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)


def test_per_layer_names_match_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.per_layer_names()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_unseen_seed_emits_every_end_to_end_metric(workload):
    result = run_cli(workload, UNSEEN_SEED, 1, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_default_seed_traced_run_emits_every_per_layer_metric(workload):
    result = run_cli(workload, DEFAULT_SEED, 3, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["trace.unaccounted_share"]["value"] <= bench.MAX_UNACCOUNTED


def counts_after(workload_name, seed, ops):
    """The counters a same-seed rerun must reproduce exactly."""
    workload = bench.fresh(workload_name, seed)
    try:
        records, _ = bench.drive(workload, 0, count=ops)
        facts = bench.check_outputs(workload, records, seed)
        from repro.core.tagspath import EXTRACTION_STATS

        if workload_name == "cluster":
            return facts
        db = workload.sheriff.db
        stats = workload.sheriff.measurement_stats()
        return {
            "rows": facts["rows"],
            "reasons": facts["reasons"],
            "page_cache_hits": stats.page_cache_hits,
            "memo_hits": EXTRACTION_STATS.memo_hits,
            "pages_parsed": EXTRACTION_STATS.pages_parsed,
            "shard_rows": (
                db.shard_row_counts() if hasattr(db, "shard_row_counts") else None
            ),
            "outline": facts["outline"],
        }
    finally:
        bench.dispose(workload)


@pytest.mark.parametrize("workload,ops", [("live", 25), ("crawl", 25), ("cluster", 1)])
def test_same_seed_runs_give_identical_counts(workload, ops):
    first = counts_after(workload, 7, ops)
    assert first == counts_after(workload, 7, ops)


class _FixedStick:
    """A yardstick that always reads twice the reference time."""

    def sample(self):
        return 2 * REFERENCE_SECONDS


class _FixedOp:
    name = "live"

    def op(self):
        return OpRecord(seconds=0.010, ok=True, query_seconds=0.002)


def test_replay_scales_timings_by_the_yardstick():
    records, samples = bench.replay(_FixedOp(), 25, _FixedStick())
    # before operations 0, 10 and 20, and after the last
    assert len(samples) == 4
    assert [r.seconds for r in records] == pytest.approx([0.005] * 25)
    assert [r.query_seconds for r in records] == pytest.approx([0.001] * 25)


def test_yardstick_samples_are_positive_and_repeatable():
    stick = Yardstick()
    first, second = stick.sample(), stick.sample()
    assert first > 0 and second > 0
    assert 0.5 < first / second < 2


def test_fastest_takes_each_operations_best_replay():
    def rec(seconds, query=None):
        return OpRecord(seconds=seconds, ok=True, query_seconds=query)

    passes = [[rec(3.0, 1.0), rec(1.0)], [rec(2.0, None), rec(4.0)]]
    assert bench.fastest(passes, "seconds") == [2.0, 1.0]
    # an operation with no query in any replay is left out
    assert bench.fastest(passes, "query_seconds") == [1.0]


def test_vantage_balance_catches_a_lost_row():
    workload = bench.fresh("live", 3)
    try:
        bench.drive(workload, 0, count=10)
        sheriff = workload.sheriff
        report = sheriff.fault_report()
        reasons = checks.drop_reasons(sheriff.db, report, workload.quorum_miss_vantages)
        assert checks.vantage_balance(workload.requested_vantages, reasons)
        victim = sheriff.db.sp_all_responses()[-1]["_id"]
        sheriff.db.delete_rows("responses", [victim])
        reasons = checks.drop_reasons(sheriff.db, report, workload.quorum_miss_vantages)
        assert not checks.vantage_balance(workload.requested_vantages, reasons)
    finally:
        bench.dispose(workload)


def test_check_with_no_online_server_counts_as_failed():
    # at this seed the lossy profile has every Measurement server offline
    # when the 394th check is assigned
    workload = bench.fresh("live", 703)
    try:
        records, _ = bench.drive(workload, 0, count=394)
        assert type(records[-1].error).__name__ == "NoServerAvailable"
        bench.check_outputs(workload, records, 703)
    finally:
        bench.dispose(workload)


def test_bare_directory_fails_without_a_result(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    (bench_dir / "run.py").write_text((ROOT / "perfbench" / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
