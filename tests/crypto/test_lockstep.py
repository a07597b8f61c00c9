"""Lockstep proof: the fast crypto path is bit-identical to the naive one.

``use_fastexp=True`` (the default) must be a pure performance change:
for a fixed seed, both paths must produce byte-identical ciphertexts,
identical assignments and centroids, and — the strictest check — consume
the random stream draw-for-draw, so that mixing fast and naive parties
mid-protocol can never diverge.  Worker pools must not perturb any of
this, and must leave no stray child processes behind.  The pool tests
force every phase onto the pool (``fan_out``): at these sizes the
break-even threshold would otherwise keep them in-process.
"""

import math
import multiprocessing
import random

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.crypto import dlog, fastexp, secure_kmeans
from repro.crypto.dlog import clear_dlog_cache
from repro.crypto.elgamal import VectorElGamal
from repro.crypto.fastexp import clear_fastexp_cache
from repro.crypto.fe import InnerProductFE
from repro.crypto.group import BENCH_GROUP_256, TEST_GROUP
from repro.crypto.obs import unbind_crypto_telemetry
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    ProfileClient,
    WorkerPool,
    run_secure_kmeans,
)
from repro.obs import Telemetry
from repro.web.internet import ContentSite


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_fastexp_cache()
    clear_dlog_cache()
    yield
    clear_fastexp_cache()
    clear_dlog_cache()


@pytest.fixture
def fan_out(monkeypatch):
    """Send every phase to the pool, however small the round, and count
    the pool's calls so a test can tell the parallel path really ran."""
    monkeypatch.setattr(secure_kmeans, "PARALLEL_MIN_WORK", 0)
    calls = []
    original = WorkerPool.map

    def counting_map(pool, fn, args):
        calls.append(fn.__name__)
        return original(pool, fn, args)

    monkeypatch.setattr(WorkerPool, "map", counting_map)
    return calls


def _points(n=14, m=5, bound=20, seed=99):
    rng = random.Random(seed)
    return {
        f"u{i}": [rng.randint(0, bound) for _ in range(m)] for i in range(n)
    }


class TestSchemeLockstep:
    def test_encrypt_bit_identical_and_same_rng_draws(self):
        plaintext = [3, 1, 0, 17, 4]
        results = []
        for use_fastexp in (False, True):
            rng = random.Random(42)
            scheme = VectorElGamal(TEST_GROUP, 5, use_fastexp=use_fastexp)
            secret, public = scheme.keygen(rng)
            ct = scheme.encrypt(public, plaintext, rng)
            results.append((secret, public, ct, rng.getstate()))
        assert results[0] == results[1]

    def test_rerandomize_equals_add_of_mask_encryption(self):
        rng = random.Random(7)
        scheme = VectorElGamal(TEST_GROUP, 4, use_fastexp=True)
        _, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, [5, 0, 2, 9], rng)

        rng_a = random.Random(13)
        fast = scheme.rerandomize(public, ct, rng_a, add_at={0: 77})

        rng_b = random.Random(13)
        r = TEST_GROUP.random_exponent(rng_b)
        mask = scheme.encrypt(public, [77, 0, 0, 0], _FixedDraw(r))
        naive = scheme.add(ct, mask)

        assert fast == naive
        assert rng_a.getstate() == rng_b.getstate()

    def test_rerandomize_with_fast_equals_naive(self):
        rng = random.Random(7)
        fast = VectorElGamal(TEST_GROUP, 4, use_fastexp=True)
        naive = VectorElGamal(TEST_GROUP, 4, use_fastexp=False)
        _, public = fast.keygen(rng)
        ct = fast.encrypt(public, [5, 0, 2, 9], rng)
        r = TEST_GROUP.random_exponent(rng)
        scale_at = {0: TEST_GROUP.gexp(77), 3: TEST_GROUP.gexp(5)}
        assert (fast.rerandomize_with(public, ct, r, scale_at)
                == naive.rerandomize_with(public, ct, r, scale_at))

    def test_fe_eval_matches_naive(self):
        rng = random.Random(5)
        fast = InnerProductFE(TEST_GROUP, use_fastexp=True)
        naive = InnerProductFE(TEST_GROUP, use_fastexp=False)
        scheme = VectorElGamal(TEST_GROUP, 6, use_fastexp=True)
        secret, public = scheme.keygen(rng)
        ct = scheme.encrypt(public, [4, 1, 0, 7, 2, 3], rng)
        s_vectors = [
            [1, 9, -2, 0, -8, 1],
            [1, 0, 0, 0, 0, 0],
            [0, -1, 5, -5, 1, 0],
        ]
        f_keys = [fast.function_key(secret, s) for s in s_vectors]
        for s, f in zip(s_vectors, f_keys):
            assert fast.eval_element(ct, s, f) == naive.eval_element(ct, s, f)
        assert fast.eval_elements(ct, s_vectors, f_keys) == [
            naive.eval_element(ct, s, f) for s, f in zip(s_vectors, f_keys)
        ]

    def test_decrypt_components_matches_naive(self):
        rng = random.Random(11)
        plaintext = [6, 0, 13, 2, 21]
        outs = []
        for use_fastexp in (False, True):
            r = random.Random(11)
            scheme = VectorElGamal(TEST_GROUP, 5, use_fastexp=use_fastexp)
            secret, public = scheme.keygen(r)
            ct = scheme.encrypt(public, plaintext, r)
            outs.append(scheme.decrypt(secret, ct, bound=30))
        assert outs[0] == outs[1] == plaintext


class _FixedDraw:
    """An 'rng' that replays one predetermined exponent draw."""

    def __init__(self, value):
        self._value = value

    def randrange(self, *args):
        return self._value


class TestProtocolLockstep:
    def _run(self, use_fastexp, n_workers=1):
        return run_secure_kmeans(
            _points(), k=3, value_bound=20, rng=random.Random(2017),
            use_fastexp=use_fastexp, n_workers=n_workers,
        )

    def test_fast_and_naive_agree_exactly(self):
        naive = self._run(False)
        fast = self._run(True)
        assert naive.assignments == fast.assignments
        assert naive.centroids == fast.centroids
        assert naive.iterations == fast.iterations
        assert naive.converged == fast.converged

    def test_rng_stream_consumed_identically(self):
        states = []
        for use_fastexp in (False, True):
            rng = random.Random(2017)
            run_secure_kmeans(
                _points(), k=3, value_bound=20, rng=rng,
                use_fastexp=use_fastexp,
            )
            states.append(rng.getstate())
        assert states[0] == states[1]

    def test_worker_pool_does_not_change_results(self, fan_out):
        single = self._run(True, n_workers=1)
        pooled = self._run(True, n_workers=2)
        assert fan_out  # the pooled run used its workers
        assert single.assignments == pooled.assignments
        assert single.centroids == pooled.centroids
        assert single.iterations == pooled.iterations


def _parties(n_clients, use_fastexp, n_workers, m=4, bound=20):
    """Coordinator + Aggregator holding ``n_clients`` ciphertexts."""
    rng = random.Random(31)
    coordinator = KMeansCoordinator(
        TEST_GROUP, m=m, value_bound=bound, rng=rng,
        n_workers=n_workers, use_fastexp=use_fastexp,
    )
    aggregator = KMeansAggregator(
        TEST_GROUP, coordinator, rng=rng,
        n_workers=n_workers, use_fastexp=use_fastexp,
    )
    for cid, point in _points(n=n_clients, m=m, bound=bound).items():
        client = ProfileClient(cid, point, bound)
        aggregator.submit(cid, client.encrypt_profile(
            coordinator.scheme, coordinator.public_keys, rng
        ))
    return coordinator, aggregator, rng


class TestParallelMaskLockstep:
    """Parallel mask == serial fast mask == naive mask, draw for draw:
    the same masked batch, the same g^ν list (so the same ν), and the
    same RNG state afterwards."""

    @pytest.mark.parametrize("n_clients", [7, 12])
    def test_mask_all_identical_across_paths(self, fan_out, n_clients):
        outcomes = {}
        for label, use_fastexp, n_workers in (
            ("naive", False, 1), ("serial", True, 1),
            ("two", True, 2), ("three", True, 3),
        ):
            coordinator, aggregator, rng = _parties(
                n_clients, use_fastexp, n_workers
            )
            with coordinator, aggregator:
                masked, g_nus = aggregator.mask_all()
                assert aggregator.pool.started == (n_workers > 1)
                outcomes[label] = (masked, g_nus, rng.getstate())
        assert outcomes["naive"] == outcomes["serial"]
        assert outcomes["serial"] == outcomes["two"] == outcomes["three"]
        assert fan_out.count("_mask_chunk") == 2

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_unmask_reuses_mask_g_nu(self, fan_out, n_workers):
        """The g^ν the mask chunks return unmask to the same clusters
        as the naive path's own exponentiations."""
        results = []
        for use_fastexp, workers in ((False, 1), (True, n_workers)):
            coordinator, aggregator, rng = _parties(7, use_fastexp, workers)
            with coordinator, aggregator:
                coordinator.set_centroids([[0, 0, 0, 0], [20, 20, 20, 20]])
                masked, g_nus = aggregator.mask_all()
                gammas = coordinator.distance_elements_batch(masked)
                results.append(
                    (aggregator.choose_clusters(gammas, g_nus), rng.getstate())
                )
        assert results[0] == results[1]

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_full_run_parallel_equals_naive(self, fan_out, n_workers):
        outs = []
        for use_fastexp, workers in ((False, 1), (True, n_workers)):
            rng = random.Random(2017)
            result = run_secure_kmeans(
                _points(n=11), k=3, value_bound=20, rng=rng,
                use_fastexp=use_fastexp, n_workers=workers,
            )
            outs.append((result.assignments, result.centroids,
                         result.iterations, rng.getstate()))
        assert outs[0] == outs[1]
        assert "_mask_chunk" in fan_out and "_unmask_chunk" in fan_out

    def test_tables_and_bsgs_built_before_first_fork(self, fan_out, monkeypatch):
        coordinator, aggregator, _ = _parties(7, True, 2)
        # drop what encryption left behind: the prewarm must rebuild it
        clear_fastexp_cache()
        clear_dlog_cache()
        bound = coordinator.m * coordinator.value_bound ** 2
        seen = []
        pool_map = WorkerPool.map

        def checking_map(pool, fn, args):
            if pool is aggregator.pool and not pool.started:
                p, g = TEST_GROUP.p, TEST_GROUP.g
                seen.append((
                    all(fastexp.cached_table(p, b) is not None
                        for b in (g, *coordinator.public_keys)),
                    (p, g, math.isqrt(bound) + 1) in dlog._TABLE_CACHE,
                ))
            return pool_map(pool, fn, args)

        monkeypatch.setattr(WorkerPool, "map", checking_map)
        with coordinator, aggregator:
            aggregator.mask_all()
        assert seen == [(True, True)]


class TestPooledCounters:
    """Workers hand their counter increments back to the parent."""

    COUNTERS = (
        "sheriff_crypto_fastexp_pows_total",
        "sheriff_crypto_fastexp_table_builds_total",
        "sheriff_crypto_batch_inversions_total",
        "sheriff_crypto_dlog_calls_total",
    )

    def _counts(self, n_workers):
        clear_fastexp_cache()
        clear_dlog_cache()
        telemetry = Telemetry()
        try:
            run_secure_kmeans(
                _points(n=12, m=5), k=3, value_bound=20,
                rng=random.Random(4), max_iterations=2,
                halt_threshold=0.0, n_workers=n_workers, telemetry=telemetry,
            )
        finally:
            unbind_crypto_telemetry()
        registry = telemetry.registry
        return {name: registry.get(name).total for name in self.COUNTERS}

    def test_counters_match_at_any_worker_count(self, fan_out):
        serial = self._counts(1)
        assert not fan_out
        assert all(serial.values())
        for n_workers in (2, 3):
            assert self._counts(n_workers) == serial
        assert {"_mask_chunk", "_distance_chunk", "_unmask_chunk"} <= set(fan_out)


class TestFanOutThreshold:
    def test_distance_and_unmask_work_counts_centroids(self, fan_out, monkeypatch):
        """The mask's work is clients × t; the distance's and unmask's is
        clients × k × t, so a threshold between the two sends only the
        latter two to the pools."""
        # 8 clients, t = 6, k = 3: mask 48, distance and unmask 144
        monkeypatch.setattr(secure_kmeans, "PARALLEL_MIN_WORK", 100)
        coordinator, aggregator, _ = _parties(8, True, 2)
        with coordinator, aggregator:
            coordinator.set_centroids([[0] * 4, [10] * 4, [20] * 4])
            aggregator.assign_all()
        assert fan_out == ["_distance_chunk", "_unmask_chunk"]

    def test_fig8c_default_fans_out_distance_but_not_mask(self):
        # 120 clients, t = 52, k = 20, 64-bit group
        group, t = TEST_GROUP, 52
        assert not secure_kmeans._fans_out(4, 120, 120 * t, group)
        assert secure_kmeans._fans_out(4, 120, 120 * 20 * t, group)
        assert not secure_kmeans._fans_out(1, 120, 120 * 20 * t, group)
        assert not secure_kmeans._fans_out(4, 1, 10 ** 9, group)

    def test_cluster_workload_fans_out_and_smoke_stays_serial(self):
        # perfbench cluster: 150 clients, t=52, k=4, 256-bit group
        assert secure_kmeans._fans_out(2, 150, 150 * 52, BENCH_GROUP_256)
        # cryptobench smoke: 48 clients, t=14, k=4, 64-bit group
        assert not secure_kmeans._fans_out(4, 48, 48 * 4 * 14, TEST_GROUP)


class TestPoolHygiene:
    def test_run_leaves_no_stray_children(self, fan_out):
        multiprocessing.active_children()  # reap any leftovers first
        run_secure_kmeans(
            _points(n=8, m=4), k=2, value_bound=20,
            rng=random.Random(1), n_workers=2,
        )
        assert fan_out
        assert multiprocessing.active_children() == []

    def test_sheriff_round_leaves_no_stray_children(self, fan_out):
        multiprocessing.active_children()
        world = SheriffWorld.create(seed=42)
        domains = ("news.example", "sports.example", "cooking.example")
        for domain in domains:
            world.internet.register(ContentSite(domain))
        sheriff = PriceSheriff(world, ipc_sites=(("ES", "Madrid", 1.0),))
        for i in range(6):
            browser = world.make_browser("ES", "Madrid")
            browser.visit(f"http://{domains[i % 3]}/a")
            sheriff.install_addon(browser)
        try:
            sheriff.run_doppelganger_clustering(
                list(domains), k=2, max_iterations=2, n_workers=2
            )
        finally:
            sheriff.shutdown()
        # both parties used their pools, and neither left a worker behind
        assert "_mask_chunk" in fan_out and "_distance_chunk" in fan_out
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent_and_reaps_workers(self):
        rng = random.Random(3)
        coordinator = KMeansCoordinator(
            TEST_GROUP, m=4, value_bound=20, rng=rng, n_workers=2
        )
        aggregator = KMeansAggregator(
            TEST_GROUP, coordinator, rng=rng, n_workers=2
        )
        # force the pools to actually start
        aggregator.pool.map(_identity, [1, 2, 3])
        coordinator.pool.map(_identity, [4, 5])
        assert aggregator.pool.started and coordinator.pool.started
        aggregator.close()
        coordinator.close()
        aggregator.close()  # second close is a no-op
        assert multiprocessing.active_children() == []
        assert not aggregator.pool.started

    def test_unstarted_pool_close_never_forks(self):
        rng = random.Random(3)
        with KMeansCoordinator(
            TEST_GROUP, m=4, value_bound=20, rng=rng, n_workers=4
        ) as coordinator:
            assert not coordinator.pool.started
        assert multiprocessing.active_children() == []


def _identity(x):
    return x
