"""Run one workload, check its outputs and report its metrics.

``--trace 0`` measures the end-to-end metrics with no tracing: the
workload's seeded sequence of operations is replayed ``PASSES`` times,
each time in a closed loop on a fresh deployment, sized so that the
replays fill about ``--seconds``.  Every replay must leave the same
outputs.  The host's speed swings by up to 1.7x, so every timing is
scaled by the yardstick timed next to it (``yardstick.py``), and each
operation counts with its fastest scaled replay.  ``setup_s`` is the
median of ``SETUPS_PER_PASS`` scaled set-ups before each replay.

``--trace 1`` measures the per-layer metrics: an untraced pass runs for a
share of ``--seconds``; a fresh deployment from the same seed then runs
the same number of operations with every layer entry point traced.  The
ratio of the two loop times is the tracing overhead, and both passes
must leave the same outputs (every row outside its quoted price; see
``checks.OUTLINE_FIELDS``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report, including the workload-specific
metrics (check, query and round latencies, failure and loss ratios).
"""

from __future__ import annotations

import gc
import json
from collections import Counter
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.tagspath import EXTRACTION_STATS
from repro.profiles.kmeans import lloyd_kmeans

from perfbench import checks
from perfbench.trace import LAYERS, Tracer
from perfbench.workloads import (
    CLUSTER_HALT_THRESHOLD,
    CLUSTER_MAX_ITERATIONS,
    CLUSTER_QUANTIZATION,
    DEFAULT_SEED,
    WORKLOADS,
    OpRecord,
)
from perfbench.yardstick import REFERENCE_SECONDS, Yardstick

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

#: replays of the operation sequence per end-to-end run
PASSES = 4
#: operations per replay for each second of --seconds (200 checks or 2
#: rounds at 30 s), and at least MIN_OPS; fixed, so a faster program is
#: not given more work
OPS_PER_SECOND = {"live": 20 / 3, "crawl": 20 / 3, "cluster": 1 / 15}
MIN_OPS = {"live": 20, "crawl": 20, "cluster": 1}
#: set-ups timed before each replay (the last one is replayed); setup_s
#: is the median of all of them, spread over the whole run
SETUPS_PER_PASS = 2
#: operations between two yardstick samples
YARDSTICK_EVERY = {"live": 10, "crawl": 10, "cluster": 1}
#: untimed operations before the clock starts in a traced run
WARMUP = {"live": 3, "crawl": 3, "cluster": 0}
#: the gated end-to-end metrics (BENCHMARK.json), with their units.  The
#: median latency is printed under its per-workload name but not gated:
#: a live check's latency has two humps (near 25 and 40 ms), so the
#: median jumps between them when the mix or the host's speed shifts.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: share of --seconds the untraced pass of a traced run measures
TRACE_BASELINE_SHARE = 0.4
#: the traced run fails when more wall time than this escapes the layers
MAX_UNACCOUNTED = 0.10


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    named = [
        ("world.ms_per_check", "ms"),
        ("world.fetches_per_check", "count"),
        ("web.html.parse_ms_per_check", "ms"),
        ("web.html.parses_per_check", "count"),
        ("web.html.parse_errors", "count"),
        ("core.tagspath.extract_ms_per_check", "ms"),
        ("core.tagspath.memo_hit_ratio", "ratio"),
        ("currency.detect_ms_per_check", "ms"),
        ("currency.unknown_rows", "count"),
        ("core.diffstorage.ms_per_check", "ms"),
        ("core.diffstorage.bytes_held", "B"),
        ("core.database.write_ms_per_check", "ms"),
        ("core.database.read_ms_per_query", "ms"),
        ("storage.shard_spread", "ratio"),
        ("storage.rows", "count"),
        ("net.transport.calls_per_check", "count"),
        ("net.transport.ms_per_call", "ms"),
        ("net.transport.bytes_per_call", "B"),
        ("core.engine.page_cache_hit_ratio", "ratio"),
        ("core.jobqueue.submit_ms_per_check", "ms"),
        ("core.jobqueue.steals", "count"),
        ("core.jobqueue.shed", "count"),
        ("core.coordinator.assign_ms_per_check", "ms"),
        ("core.coordinator.retries", "count"),
        ("core.coordinator.failovers", "count"),
        ("net.faults.injected", "count"),
        ("clients.ipc_retries", "count"),
        ("clients.ppc_lost", "count"),
        ("core.measurement.self_ms_per_check", "ms"),
        ("crypto.encrypt_ms_per_profile", "ms"),
        ("crypto.mask_ms_per_round", "ms"),
        ("crypto.distance_ms_per_iter", "ms"),
        ("crypto.assign_ms_per_iter", "ms"),
        ("crypto.update_ms_per_iter", "ms"),
        ("crypto.iterations_per_round", "count"),
        ("profiles.choose_k_ms", "ms"),
        ("profiles.doppelganger_build_ms", "ms"),
    ]
    named += [(f"{layer}.self_ms_per_op", "ms") for layer in LAYERS]
    named += [
        ("trace.unaccounted_share", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return named


class BenchFailure(Exception):
    """An output check failed."""


# -- statistics ------------------------------------------------------------

def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method; max of tiny samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, as the OS reports it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the closed loop -------------------------------------------------------

def drive(workload, seconds: float, count: Optional[int] = None,
          tracer: Optional[Tracer] = None) -> Tuple[List[OpRecord], float]:
    """Run operations for ``seconds`` (or exactly ``count`` of them).

    Returns the records and the time the clock started.
    """
    records: List[OpRecord] = []
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        if tracer is None:
            record = workload.op()
        else:
            with tracer.root(workload.name):
                record = workload.op()
        record.finished = time.perf_counter()
        records.append(record)
        if count is not None:
            if len(records) >= count:
                break
        elif record.finished >= deadline:
            break
    return records, started


def fresh(name: str, seed: int):
    workload = WORKLOADS[name](seed)
    workload.setup()
    return workload


def warm_up(workload) -> None:
    """Untimed operations before the clock starts."""
    for _ in range(WARMUP[workload.name]):
        workload.op()


def dispose(workload) -> None:
    workload.close()
    gc.collect()


# -- output checks ---------------------------------------------------------

def load_pins() -> Dict[str, Any]:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload, records: List[OpRecord], seed: int) -> Dict[str, Any]:
    """Run every output check; raise BenchFailure on the first failure.

    Returns the facts the report and the tests use (counts, digests).
    """
    pins = load_pins()
    if workload.name == "cluster":
        return _check_cluster(workload, pins, seed)
    return _check_checks(workload, records, pins, seed)


def _check_checks(workload, records, pins, seed) -> Dict[str, Any]:
    sheriff = workload.sheriff
    report = sheriff.fault_report()
    reasons = checks.drop_reasons(sheriff.db, report, workload.quorum_miss_vantages)
    requested = workload.requested_vantages
    if not checks.vantage_balance(requested, reasons):
        raise BenchFailure(
            f"vantage balance broken: requested {requested} != "
            f"{sum(reasons.values())} accounted {dict(reasons)}"
        )
    honest = set(workload.honest_domains())
    flagged = checks.honest_flags(workload.results, honest, sheriff.world.geodb)
    if flagged:
        raise BenchFailure(f"detector flagged honest stores in {flagged[:5]}")
    mismatches = getattr(workload, "query_mismatches", 0)
    if mismatches:
        raise BenchFailure(f"{mismatches} analyst reads differ from the stored rows")
    pin = pins[workload.name]
    facts: Dict[str, Any] = {
        "requested_vantages": requested,
        "reasons": dict(reasons),
        "honest_checks": sum(r.domain in honest for r in workload.results),
        "failures": dict(Counter(
            type(r.error).__name__ for r in records if not r.ok
        )),
        "rows": sheriff.db.count("responses"),
        "outline": checks.outline_digest(sheriff.db),
    }
    jobs = sheriff.db.count("requests")
    if jobs >= pin["jobs"]:
        facts["digest_pinned_prefix"] = checks.rows_digest(sheriff.db, pin["jobs"])
        if seed == DEFAULT_SEED and facts["digest_pinned_prefix"] != pin["sha256"]:
            raise BenchFailure(
                f"row digest of the first {pin['jobs']} jobs at seed {seed} is "
                f"{facts['digest_pinned_prefix']}, pinned {pin['sha256']}"
            )
    elif seed == DEFAULT_SEED:
        raise BenchFailure(f"only {jobs} jobs ran; the pin needs {pin['jobs']}")
    return facts


def _check_cluster(workload, pins, seed) -> Dict[str, Any]:
    sheriff = workload.sheriff
    points = checks.cluster_points(
        sheriff.addons, workload.reference, CLUSTER_QUANTIZATION
    )
    for index, done in enumerate(workload.rounds):
        outcome = done["outcome"]
        # the plaintext mirror of the secure protocol's integer rules
        replay = lloyd_kmeans(
            points,
            k=len(done["initial"]),
            initial_centroids=done["initial"],
            halt_threshold=CLUSTER_HALT_THRESHOLD,
            max_iterations=CLUSTER_MAX_ITERATIONS,
            quantize=True,
        )
        got = [list(c.quantized) for c in outcome.centroids]
        if outcome.mapping != replay.assignments or got != replay.centroids:
            raise BenchFailure(
                f"round {index + 1}: secure k-means differs from the plaintext replay"
            )
    first = checks.round_digest(workload.rounds[0]["outcome"])
    if seed == DEFAULT_SEED and first != pins["cluster"]["sha256"]:
        raise BenchFailure(
            f"first-round digest at seed {seed} is {first}, "
            f"pinned {pins['cluster']['sha256']}"
        )
    return {
        "rounds": len(workload.rounds),
        "digest_pinned_prefix": first,
        "outline": checks.digest(
            [checks.round_digest(r["outcome"]) for r in workload.rounds]
        ),
        "k": workload.rounds[0]["outcome"].k,
        "silhouette_k": [r["chosen_k"] for r in workload.rounds],
    }


# -- end-to-end run -------------------------------------------------------

def replay(workload, ops: int,
           yardstick: Yardstick) -> Tuple[List[OpRecord], List[float]]:
    """Run ``ops`` operations, each timed on its own, and scale every
    timing to the reference host speed.  Returns the records and the
    yardstick samples."""
    every = YARDSTICK_EVERY[workload.name]
    records: List[OpRecord] = []
    samples: List[float] = []
    for index in range(ops):
        if index % every == 0:
            samples.append(yardstick.sample())
        started = time.perf_counter()
        record = workload.op()
        record.wall = time.perf_counter() - started
        records.append(record)
    samples.append(yardstick.sample())
    for index, record in enumerate(records):
        # the samples that bracket the operation's stretch, and one more
        # on each side
        chunk = index // every
        near = samples[max(0, chunk - 1):chunk + 3]
        scale = REFERENCE_SECONDS / statistics.mean(near)
        record.wall *= scale
        record.seconds *= scale
        if record.query_seconds is not None:
            record.query_seconds *= scale
    return records, samples


def timed_setup(name: str, seed: int, yardstick: Yardstick):
    """A fresh deployment, its set-up time at the reference speed and the
    yardstick samples around it."""
    before = yardstick.sample()
    started = time.perf_counter()
    workload = fresh(name, seed)
    seconds = time.perf_counter() - started
    after = yardstick.sample()
    return workload, seconds * REFERENCE_SECONDS * 2 / (before + after), [before, after]


def fastest(passes: List[List[OpRecord]], field: str) -> List[float]:
    """Each operation's fastest replay of ``field`` (None values skipped;
    operations with none are left out)."""
    out = []
    for replays in zip(*passes):
        values = [getattr(r, field) for r in replays if getattr(r, field) is not None]
        if values:
            out.append(min(values))
    return out


def run_end_to_end(name: str, seed: int, seconds: float):
    ops = max(MIN_OPS[name], round(seconds * OPS_PER_SECOND[name]))
    yardstick = Yardstick()
    setup_times: List[float] = []
    samples: List[float] = []
    passes: List[List[OpRecord]] = []
    facts: Dict[str, Any] = {}
    rss = 0.0
    for index in range(PASSES):
        workload = None
        try:
            for _ in range(SETUPS_PER_PASS):
                if workload is not None:
                    dispose(workload)
                workload, setup_seconds, around = timed_setup(name, seed, yardstick)
                setup_times.append(setup_seconds)
                samples += around
            records, during = replay(workload, ops, yardstick)
            samples += during
            if index == 0:
                # read after a fixed amount of work, before later replays
                # can grow the heap
                rss = peak_rss_mb()
            replay_facts = check_outputs(workload, records, seed)
        finally:
            if workload is not None:
                dispose(workload)
        if index == 0:
            facts = replay_facts
        elif replay_facts["outline"] != facts["outline"]:
            raise BenchFailure(f"replay {index + 1} left other outputs than replay 1")
        passes.append(records)
    walls = fastest(passes, "wall")
    latencies = fastest(passes, "seconds")
    # on crawl an operation's wall time includes the analyst's read and
    # the tally; the latency is the price check's alone
    timings = {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p95_ms": percentile(latencies, 95) * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
        "yardstick_ms": statistics.median(samples) * 1e3,
    }
    metrics = {metric: (timings[metric], unit) for metric, unit in END_TO_END}
    report = workload_report(name, passes, timings, setup_times, facts)
    attempted = sum(len(records) for records in passes)
    failed = sum(not r.ok for records in passes for r in records)
    return metrics, report, attempted, failed


def workload_report(name, passes, timings, setup_times, facts):
    """The end-to-end metrics under their per-workload names, each with
    unit and sample count, plus the failure and loss ratios."""
    lines = []
    records = passes[0]
    n = len(records)
    rate, p50, p95 = (timings[k] for k in ("ops_per_s", "op_p50_ms", "op_p95_ms"))

    def add(metric, value, unit, samples=None):
        tail = f"  (n={samples})" if samples is not None else ""
        lines.append(f"{metric:<22} {value:>14.6g} {unit}{tail}")

    lines.append(f"{'replays':<22} {len(passes)} x {n} operations; each timed by "
                 f"its fastest replay, scaled to a {REFERENCE_SECONDS * 1e3:g} ms yardstick")
    if name == "cluster":
        add("round_p50_s", p50 / 1e3, "s", n)
        add("rounds_per_s", rate, "1/s", n)
    else:
        requested = facts["requested_vantages"]
        priced = facts["reasons"].get("priced", 0)
        add("checks_per_s", rate, "1/s", n)
        add("check_p50_ms", p50, "ms", n)
        add("check_p95_ms", p95, "ms", n)
        add("check_fail_ratio", sum(not r.ok for r in records) / n, "ratio", n)
        add("vantage_loss_ratio", (requested - priced) / requested, "ratio", requested)
        queries = fastest(passes, "query_seconds")
        if queries:
            add("query_p50_ms", statistics.median(queries) * 1e3, "ms", len(queries))
            add("query_p95_ms", percentile(queries, 95) * 1e3, "ms", len(queries))
    add("setup_s", timings["setup_s"], "s", len(setup_times))
    add("peak_rss_mb", timings["peak_rss_mb"], "MB")
    add("yardstick_ms", timings["yardstick_ms"], "ms")
    for key in ("reasons", "failures", "rows", "honest_checks", "rounds", "k",
                "silhouette_k", "digest_pinned_prefix"):
        if key in facts:
            lines.append(f"{key:<22} {facts[key]}")
    return lines


# -- traced run -------------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float):
    baseline = fresh(name, seed)
    try:
        warm_up(baseline)
        base_records, base_started = drive(baseline, seconds * TRACE_BASELINE_SHARE)
        base_wall = base_records[-1].finished - base_started
        base_facts = check_outputs(baseline, base_records, seed)
    finally:
        dispose(baseline)
    count = len(base_records)

    tracer = Tracer()
    tracer.install()
    try:
        workload = fresh(name, seed)
        if getattr(workload.sheriff, "transport", None) is not None:
            tracer.instrument_transport(workload.sheriff.transport)
        warm_up(workload)
        before = EXTRACTION_STATS.snapshot()
        records, started = drive(workload, seconds, count=count, tracer=tracer)
        wall = records[-1].finished - started
        extraction = {
            key: value - before[key]
            for key, value in EXTRACTION_STATS.snapshot().items()
        }
    finally:
        tracer.uninstall()
    try:
        facts = check_outputs(workload, records, seed)
        if facts["outline"] != base_facts["outline"]:
            raise BenchFailure("traced and untraced runs left different outputs")
        metrics = layer_metrics(
            tracer, workload, records, wall, base_wall, facts, extraction
        )
    finally:
        dispose(workload)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}.json", {
        "workload": name, "seed": seed, "ops": count,
        "traced_wall_s": wall, "untraced_wall_s": base_wall,
    })
    unaccounted = metrics["trace.unaccounted_share"][0]
    if unaccounted > MAX_UNACCOUNTED:
        raise BenchFailure(
            f"layers cover only {1 - unaccounted:.1%} of traced wall time"
        )
    report = [
        f"{layer + ' self':<28} {metrics[layer + '.self_ms_per_op'][0]:>10.4f} ms/op"
        for layer in LAYERS
    ]
    report.append(f"{'unaccounted':<28} {unaccounted:>10.2%}")
    return metrics, report, len(records), sum(not r.ok for r in records)


def layer_metrics(tracer: Tracer, workload, records, wall: float,
                  base_wall: float, facts,
                  extraction: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    spans = tracer.spans
    self_ns = tracer.self_times()
    ops = len(records)
    checks_n = ops if workload.name != "cluster" else 0
    by_id = {s[0]: s for s in spans}

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    def total_ms(layer=None, op=None, outermost=False) -> Tuple[float, int]:
        """Inclusive ms and count of matching spans (outermost: skip spans
        nested in another span with the same op, e.g. router -> shard)."""
        ns = count = 0
        for s in spans:
            if (layer is None or s[3] == layer) and (op is None or s[4] == op):
                if outermost and _has_ancestor_op(by_id, s, op):
                    continue
                ns += s[6] - s[5]
                count += 1
        return ns / 1e6, count

    out: Dict[str, float] = {}
    _, visits = total_ms("world", "visit")
    out["world.ms_per_check"] = per(self_ns.get("world", 0) / 1e6, checks_n)
    out["world.fetches_per_check"] = per(visits, checks_n)
    parse_ms, parses = total_ms("web.html", "parse")
    out["web.html.parse_ms_per_check"] = per(parse_ms, checks_n)
    out["web.html.parses_per_check"] = per(parses, checks_n)
    out["web.html.parse_errors"] = sum(
        1 for s in spans if s[4] == "parse" and s[7] == "HTMLParseError"
    )
    out["core.tagspath.extract_ms_per_check"] = per(
        self_ns.get("core.tagspath", 0) / 1e6, checks_n)
    memo_hits = extraction["memo_hits"]
    out["core.tagspath.memo_hit_ratio"] = per(
        memo_hits, memo_hits + extraction["pages_parsed"])
    out["currency.detect_ms_per_check"] = per(self_ns.get("currency", 0) / 1e6, checks_n)
    reasons = facts.get("reasons", {})
    out["currency.unknown_rows"] = reasons.get("unknown_currency", 0)
    out["core.diffstorage.ms_per_check"] = per(
        self_ns.get("core.diffstorage", 0) / 1e6, checks_n)
    diffstore = getattr(workload.sheriff, "diffstore", None)
    out["core.diffstorage.bytes_held"] = diffstore.stored_chars() if checks_n else 0
    write_ms, _ = total_ms(op="write", outermost=True)
    read_ms, reads = total_ms(op="read", outermost=True)
    out["core.database.write_ms_per_check"] = per(write_ms, checks_n)
    out["core.database.read_ms_per_query"] = per(read_ms, reads)
    db = workload.sheriff.db
    counts = db.shard_row_counts() if hasattr(db, "shard_row_counts") else {"db": db.count("responses")}
    mean = sum(counts.values()) / len(counts)
    out["storage.shard_spread"] = max(counts.values()) / mean if mean else 0.0
    out["storage.rows"] = sum(counts.values())
    call_ms, calls = total_ms("net.transport", "call")
    out["net.transport.calls_per_check"] = per(calls, checks_n)
    out["net.transport.ms_per_call"] = per(call_ms, calls)
    out["net.transport.bytes_per_call"] = per(tracer.frame_bytes, calls)
    stats = workload.sheriff.measurement_stats()
    out["core.engine.page_cache_hit_ratio"] = per(stats.page_cache_hits, stats.ipc_fetches)
    submit_ms, _ = total_ms("core.jobqueue", "submit")
    out["core.jobqueue.submit_ms_per_check"] = per(submit_ms, checks_n)
    tier = workload.sheriff.job_queue
    tier_stats = tier.stats() if tier is not None else {"steals": {}, "shed": 0}
    out["core.jobqueue.steals"] = sum(tier_stats["steals"].values())
    out["core.jobqueue.shed"] = tier_stats["shed"]
    assign_ms, _ = total_ms("core.coordinator", "assign")
    out["core.coordinator.assign_ms_per_check"] = per(assign_ms, checks_n)
    report = workload.sheriff.fault_report()
    out["core.coordinator.retries"] = report["jobs_reassigned"]
    out["core.coordinator.failovers"] = report["failovers"]
    out["net.faults.injected"] = report["faults_injected"]
    out["clients.ipc_retries"] = report["ipc_retries"]
    out["clients.ppc_lost"] = (
        report["ppc_dropped"] + report["ppc_timeouts"] + report["ppc_corrupt"]
    )
    out["core.measurement.self_ms_per_check"] = per(
        self_ns.get("core.measurement", 0) / 1e6, checks_n)
    rounds = ops if workload.name == "cluster" else 0
    encrypt_ms, encrypts = total_ms("crypto", "encrypt")
    out["crypto.encrypt_ms_per_profile"] = per(encrypt_ms, encrypts)
    mask_ms, iterations = total_ms("crypto", "mask")
    out["crypto.mask_ms_per_round"] = per(mask_ms, rounds)
    out["crypto.distance_ms_per_iter"] = per(total_ms("crypto", "distance")[0], iterations)
    out["crypto.assign_ms_per_iter"] = per(total_ms("crypto", "assign")[0], iterations)
    out["crypto.update_ms_per_iter"] = per(total_ms("crypto", "update")[0], iterations)
    out["crypto.iterations_per_round"] = per(iterations, rounds)
    out["profiles.choose_k_ms"] = per(total_ms("profiles", "choose_k")[0], rounds)
    out["profiles.doppelganger_build_ms"] = per(
        total_ms("profiles", "doppelganger")[0], rounds)
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = per(self_ns.get(layer, 0) / 1e6, ops)
    covered = sum(self_ns.values()) / 1e9
    out["trace.unaccounted_share"] = max(0.0, 1.0 - covered / wall)
    out["trace.overhead_ratio"] = wall / base_wall - 1.0
    units = dict(per_layer_names())
    return {name: (float(out[name]), units[name]) for name in units}


def _has_ancestor_op(by_id, span, op) -> bool:
    parent = by_id.get(span[1])
    while parent is not None:
        if parent[4] == op:
            return True
        parent = by_id.get(parent[1])
    return False


# -- entry point ------------------------------------------------------------

def main(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_end_to_end
    try:
        metrics, report, attempted, failed = runner(
            args.workload, args.seed, float(args.seconds)
        )
    except BenchFailure as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    for line in report:
        print(line)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0
