"""Crypto fast-path benchmark: naive vs fastexp, 1 vs N workers.

Fig. 8(c) of the paper is a *performance* figure — wall-clock time per
privacy-preserving k-means iteration — and the protocol's cost is pure
group arithmetic.  This workload quantifies what the fast path of
:mod:`repro.crypto.fastexp` buys over the naive textbook implementation
(``use_fastexp=False``), phase by phase:

* **encrypt** — every client encrypts its encoded profile under the
  Coordinator's public keys (fixed-base comb tables for g and h_i);
* **distance** — the Aggregator masks every ciphertext (cheap
  re-randomization vs full mask encryption) and the Coordinator
  evaluates every centroid's function key against it (sign-split
  small-exponent evaluation + ephemeral α tables + batch inversion);
* **unmask** — the Aggregator strips the masks (Montgomery
  batch-inverted g^ν factors) and discrete-logs the distances (LRU-
  cached BSGS contexts);
* **update** — homomorphic cluster aggregation (single-pass
  ``add_many``) and centroid decryption (batched component decrypt).

Both paths run the same protocol on the same inputs from the same
seed; the report records that their ciphertexts, assignments, and
centroids matched (``lockstep_ok``) — fast math that produced different
bits would be a correctness bug, not a speedup.  The sweep covers the
64-bit :data:`TEST_GROUP` plus a pinned 256-bit group (and optionally
RFC 3526 at 2048 bits), each at 1 and N worker processes.

``run_cryptobench`` returns a JSON-ready report; the CLI command
``repro cryptobench`` writes it to ``BENCH_crypto.json`` and the CI
perf-smoke job gates on ``gate_speedup`` (encrypt+distance, TEST_GROUP,
single worker) staying above 3x.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.dlog import clear_dlog_cache
from repro.crypto.fastexp import clear_fastexp_cache, fastexp_cache_info
from repro.crypto.group import (
    BENCH_GROUP_256,
    RFC3526_GROUP_2048,
    SchnorrGroup,
    TEST_GROUP,
)
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    ProfileClient,
)

#: resolvable names for the --groups CLI flag
NAMED_GROUPS: Dict[str, SchnorrGroup] = {
    "test": TEST_GROUP,
    "bench256": BENCH_GROUP_256,
    "rfc3526": RFC3526_GROUP_2048,
}

PHASES = ("encrypt", "distance", "unmask", "update")


@dataclass
class CryptoBenchConfig:
    """Knobs of one benchmark run."""

    seed: int = 2017
    #: clients contributing encrypted profiles
    n_clients: int = 96
    #: profile dimensionality (the paper's Fig. 8(c) uses m ∈ {50, 100})
    m: int = 24
    #: number of centroids
    k: int = 6
    #: coordinate range [0, value_bound]
    value_bound: int = 25
    #: group parameter sets to sweep (names from NAMED_GROUPS)
    groups: Tuple[str, ...] = ("test", "bench256")
    #: worker-process counts for the parallel phases
    worker_counts: Tuple[int, ...] = (1, 4)
    #: best-of repeats for every timed pass
    repeats: int = 2

    @classmethod
    def smoke_scale(cls) -> "CryptoBenchConfig":
        """A reduced instance for CI perf-smoke and unit tests.

        Keeps ``repeats=2`` so the gated pass measures steady-state
        arithmetic (tables built during the first pass) rather than
        charging the one-off precomputation to a single tiny run.
        """
        return cls(n_clients=48, m=12, k=4, groups=("test",), repeats=2)


def _make_points(config: CryptoBenchConfig) -> Dict[str, List[int]]:
    """Deterministic sparse profiles, independent of the protocol RNG."""
    rng = random.Random(config.seed ^ 0x5EED)
    return {
        f"u{i}": [
            rng.randint(0, config.value_bound) if rng.random() < 0.4 else 0
            for _ in range(config.m)
        ]
        for i in range(config.n_clients)
    }


@dataclass
class _PassOutput:
    """What one protocol pass produced — compared across modes."""

    ciphertexts: list
    assignments: Dict[str, int]
    centroids: List[List[int]]
    rng_state: tuple


def _run_phases(
    group: SchnorrGroup,
    config: CryptoBenchConfig,
    points: Dict[str, List[int]],
    use_fastexp: bool,
    n_workers: int,
) -> Tuple[Dict[str, float], _PassOutput]:
    """One full protocol pass, timed phase by phase."""
    rng = random.Random(config.seed)
    timings: Dict[str, float] = {}
    with KMeansCoordinator(
        group, m=config.m, value_bound=config.value_bound, rng=rng,
        n_workers=n_workers, use_fastexp=use_fastexp,
    ) as coordinator, KMeansAggregator(
        group, coordinator, rng=rng,
        n_workers=n_workers, use_fastexp=use_fastexp,
    ) as aggregator:
        started = time.perf_counter()
        for client_id, point in points.items():
            client = ProfileClient(client_id, point, config.value_bound)
            aggregator.submit(
                client_id,
                client.encrypt_profile(
                    coordinator.scheme, coordinator.public_keys, rng
                ),
            )
        timings["encrypt"] = time.perf_counter() - started

        ids = sorted(points)
        coordinator.set_centroids(
            [points[ids[i % len(ids)]] for i in range(config.k)]
        )

        started = time.perf_counter()
        masked_batch, g_nus = aggregator.mask_all()
        gamma_map = coordinator.distance_elements_batch(masked_batch)
        timings["distance"] = time.perf_counter() - started

        started = time.perf_counter()
        assignments, _ = aggregator.choose_clusters(gamma_map, g_nus)
        timings["unmask"] = time.perf_counter() - started

        started = time.perf_counter()
        for cluster, (aggregate, card) in aggregator.aggregate_clusters().items():
            coordinator.update_centroid(cluster, aggregate, card)
        timings["update"] = time.perf_counter() - started

        timings["total"] = sum(timings[p] for p in PHASES)
        output = _PassOutput(
            ciphertexts=[aggregator._ciphertexts[i] for i in ids],
            assignments=assignments,
            centroids=[list(c) for c in coordinator.centroids],
            rng_state=rng.getstate(),
        )
    return timings, output


def _best_of(
    group: SchnorrGroup,
    config: CryptoBenchConfig,
    points: Dict[str, List[int]],
    use_fastexp: bool,
    n_workers: int,
) -> Tuple[Dict[str, float], _PassOutput]:
    """Best-of-``repeats`` per phase; cold caches before the first pass."""
    clear_fastexp_cache()
    clear_dlog_cache()
    best: Dict[str, float] = {}
    output: Optional[_PassOutput] = None
    for _ in range(max(1, config.repeats)):
        timings, output = _run_phases(
            group, config, points, use_fastexp, n_workers
        )
        for phase, seconds in timings.items():
            best[phase] = min(best.get(phase, float("inf")), seconds)
    return best, output


def _round_timings(timings: Dict[str, float]) -> Dict[str, float]:
    return {f"{k}_s": round(v, 6) for k, v in timings.items()}


def _speedups(naive: Dict[str, float], fast: Dict[str, float]) -> Dict[str, float]:
    out = {
        phase: round(naive[phase] / max(fast[phase], 1e-12), 2)
        for phase in (*PHASES, "total")
    }
    joint = naive["encrypt"] + naive["distance"]
    out["encrypt_distance"] = round(
        joint / max(fast["encrypt"] + fast["distance"], 1e-12), 2
    )
    return out


def bench_group(
    config: CryptoBenchConfig, group_name: str
) -> Dict[str, object]:
    """Sweep naive-vs-fast × worker counts on one parameter set."""
    group = NAMED_GROUPS[group_name]
    points = _make_points(config)
    rows: List[Dict[str, object]] = []
    lockstep_ok = True
    reference: Optional[_PassOutput] = None
    for n_workers in config.worker_counts:
        naive_t, naive_out = _best_of(group, config, points, False, n_workers)
        fast_t, fast_out = _best_of(group, config, points, True, n_workers)
        # the whole point: fast bits == naive bits, every mode, every
        # worker count (phases below PARALLEL_MIN_WORK run in-process)
        for out in (naive_out, fast_out):
            if reference is None:
                reference = out
                continue
            lockstep_ok = lockstep_ok and (
                out.ciphertexts == reference.ciphertexts
                and out.assignments == reference.assignments
                and out.centroids == reference.centroids
                and out.rng_state == reference.rng_state
            )
        rows.append({
            "n_workers": n_workers,
            "naive": _round_timings(naive_t),
            "fast": _round_timings(fast_t),
            "speedup": _speedups(naive_t, fast_t),
        })
    return {
        "group": group_name,
        "bits": group.bits,
        "workers": rows,
        "lockstep_ok": lockstep_ok,
    }


def run_cryptobench(
    config: Optional[CryptoBenchConfig] = None,
) -> Dict[str, object]:
    """Run the full sweep; return the ``BENCH_crypto.json`` report dict."""
    config = config if config is not None else CryptoBenchConfig()
    group_reports = [bench_group(config, name) for name in config.groups]

    # CI gate: encrypt+distance speedup on the test group, single worker
    gate = None
    for report in group_reports:
        if report["group"] != "test":
            continue
        for row in report["workers"]:
            if row["n_workers"] == 1:
                gate = row["speedup"]["encrypt_distance"]
    return {
        "benchmark": "crypto fastexp (naive vs fast, 1 vs N workers)",
        "config": {
            **asdict(config),
            "groups": list(config.groups),
            "worker_counts": list(config.worker_counts),
        },
        "groups": group_reports,
        "lockstep_ok": all(r["lockstep_ok"] for r in group_reports),
        "gate_speedup": gate,
        "fastexp_cache": fastexp_cache_info(),
    }
