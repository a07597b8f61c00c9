"""The three seeded workloads the benchmark drives.

Each workload builds its deployment from the seed in ``setup()`` and then
performs one user-visible operation per ``op()`` call, from the calling
thread, with one operation outstanding (a closed loop):

* ``live``    -- one price check of the Sect. 6 deployment under the
  ``lossy`` chaos profile (memory storage, sim transport, direct dispatch,
  page cache off);
* ``crawl``   -- one Sect. 7.1 crawler check on a parallel back-end (queued
  tier, sqlite storage in 4 domain-keyed shards, socket transport, 30 s
  page cache), followed by the analyst's read of that job's rows;
* ``cluster`` -- one doppelganger clustering round over the live
  population (256-bit group, top-50 reference domains, 2 workers).

Inputs come only from the seed; the program sees the generated URLs,
users and centroids, never the seed-derived choices behind them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.clients.crawler import SystematicCrawler
from repro.core.addon import PriceCheckFailed, PriceSelectionError
from repro.core.coordinator import RequestRejected
from repro.core.database import DatabaseClient
from repro.core.errors import NoServerAvailable, QuorumNotMet
from repro.core.measurement import MeasurementServer
from repro.core.sheriff import PriceSheriff
from repro.core.tagspath import EXTRACTION_STATS, clear_extraction_memo
from repro.crypto.group import BENCH_GROUP_256
from repro.net.events import SECONDS_PER_DAY
from repro.net.socket_transport import SocketTransport
from repro.workloads.deployment import DeploymentConfig, LiveDeployment

#: the seed whose output digests are pinned in ``pins.json``
DEFAULT_SEED = 2017

#: honest long-tail stores are the ones with these generated domains
HONEST_PREFIX = "shop-"

#: what a user's check can end in instead of a result page.  The first
#: assignment of a job raises NoServerAvailable when every Measurement
#: server is offline (a flap under chaos); a later reassignment turns the
#: same condition into PriceCheckFailed.
CHECK_FAILURES = (
    RequestRejected, PriceSelectionError, PriceCheckFailed, NoServerAvailable,
)


@dataclass
class OpRecord:
    """What one operation produced, for the metrics and the checks."""

    seconds: float
    ok: bool
    result: Any = None
    error: Optional[BaseException] = None
    #: analyst read latency after a crawl check (None elsewhere)
    query_seconds: Optional[float] = None
    #: perf_counter() when the operation (and its read) completed
    finished: float = 0.0
    #: wall time of the whole operation (on crawl with read and tally)
    wall: float = 0.0


def reset_process_caches() -> None:
    """Forget process-wide extraction state so a rebuilt deployment in
    the same process starts from the same cold caches as the first."""
    clear_extraction_memo()
    EXTRACTION_STATS.reset()


class _CheckWorkload:
    """Shared accounting of the two price-check workloads."""

    name = ""
    sheriff: PriceSheriff

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: requested vantages per executed job: initiator + IPCs + PPCs
        self.requested_vantages = 0
        #: vantages of jobs that ran but missed the result quorum
        self.quorum_miss_vantages = 0
        self.results: List[Any] = []

    def _count_requested(self, server: MeasurementServer) -> None:
        """Count each fan-out's requested vantages where it is submitted."""
        submit = server.submit

        def counting_submit(job):
            self.requested_vantages += 1 + len(server.ipcs) + len(job.ppc_ids)
            return submit(job)

        server.submit = counting_submit

    def _run_check(self, check) -> OpRecord:
        started = time.perf_counter()
        try:
            result = check()
        except CHECK_FAILURES as exc:
            seconds = time.perf_counter() - started
            cause = exc.__cause__
            if isinstance(cause, QuorumNotMet):
                self.quorum_miss_vantages += cause.got
            return OpRecord(seconds=seconds, ok=False, error=exc)
        seconds = time.perf_counter() - started
        self.results.append(result)
        return OpRecord(seconds=seconds, ok=True, result=result)

    def honest_domains(self) -> List[str]:
        return [
            d for d in self.sheriff.world.internet.domains()
            if d.startswith(HONEST_PREFIX)
        ]


class LiveWorkload(_CheckWorkload):
    """Sect. 6 replay: Zipf-popular stores, 150 users, lossy network."""

    name = "live"

    def setup(self) -> None:
        reset_process_caches()
        config = DeploymentConfig(
            seed=self.seed,
            chaos_profile="lossy",
            chaos_seed=self.seed,
            db_backend="memory",
            transport="sim",
            job_queue=False,
            page_cache_ttl=0.0,
        )
        self.deployment = LiveDeployment(config)
        self.deployment.population.build()
        self.sheriff = self.deployment.sheriff
        self.world = self.deployment.world
        for server in self.sheriff.measurement_servers.values():
            self._count_requested(server)
        self._rng = random.Random(f"live-requests:{self.seed}")
        self._specs = self.deployment.specs
        self._weights = [s.popularity for s in self._specs]
        self._gap = config.duration_days * SECONDS_PER_DAY / config.n_requests

    def op(self) -> OpRecord:
        rng = self._rng
        self.world.clock.advance(self._gap * rng.uniform(0.5, 1.5))
        addon = self.deployment.population.pick_user(rng)
        spec = rng.choices(self._specs, weights=self._weights, k=1)[0]
        store = self.deployment.stores[spec.domain]
        product = store.catalog.sample(rng, 1)[0]
        url = store.product_url(product.product_id)
        return self._run_check(lambda: addon.check_price(url))

    def close(self) -> None:
        self.sheriff.shutdown()


#: the Sect. 7.3 case-study retailers plus two honest control stores
CRAWL_DOMAINS = ("chegg.com", "jcpenney.com", "amazon.com")
CRAWL_CONTROLS = 2
CRAWL_PRODUCTS_PER_DOMAIN = 25
CRAWL_COUNTRIES = ("ES", "FR", "GB", "DE")
#: the analyst takes the per-domain request tally every this many checks
TALLY_EVERY = 20


class CrawlWorkload(_CheckWorkload):
    """Sect. 7.1 crawl: four country crawlers take turns on each product."""

    name = "crawl"

    def setup(self) -> None:
        reset_process_caches()
        # the live deployment supplies the world and the shared PPC overlay
        live = LiveDeployment(DeploymentConfig(
            seed=self.seed, db_backend="memory", transport="sim",
        ))
        live.population.build()
        self.live = live
        self.world = live.world
        self.transport = SocketTransport(handler_workers=1)
        self.sheriff = PriceSheriff(
            live.world,
            n_measurement_servers=2,
            overlay=live.sheriff.overlay,
            max_ppcs_per_request=3,
            job_queue=True,
            db_backend="sqlite",
            db_shards=4,
            transport=self.transport,
            page_cache_ttl=30.0,
        )
        for server in self.sheriff.measurement_servers.values():
            self._count_requested(server)
        self.crawlers = [
            SystematicCrawler(
                self.sheriff, country,
                rng=random.Random(f"crawler:{self.seed}:{country}"),
            )
            for country in CRAWL_COUNTRIES
        ]
        self.transport.register_client("analyst")
        self.analyst = DatabaseClient(self.transport, src="analyst")
        rng = random.Random(f"crawl-products:{self.seed}")
        controls = sorted(self.honest_domains())
        domains = list(CRAWL_DOMAINS) + rng.sample(controls, CRAWL_CONTROLS)
        per_domain = []
        for domain in domains:
            store = self.world.internet.site(domain)
            n = min(CRAWL_PRODUCTS_PER_DOMAIN, len(store.catalog))
            per_domain.append([
                store.product_url(p.product_id)
                for p in store.catalog.sample(rng, n)
            ])
        # interleave the domains so every one is checked early in a run
        self.urls: List[str] = [
            urls[i]
            for i in range(max(len(urls) for urls in per_domain))
            for urls in per_domain
            if i < len(urls)
        ]
        self._n = 0
        #: analyst reads (job rows, tallies) that disagree with the truth
        self.query_mismatches = 0

    def op(self) -> OpRecord:
        url = self.urls[(self._n // len(self.crawlers)) % len(self.urls)]
        crawler = self.crawlers[self._n % len(self.crawlers)]
        self._n += 1
        record = self._run_check(lambda: crawler.check(url))
        if record.ok:
            started = time.perf_counter()
            rows = self.analyst.sp_responses_for_job(record.result.job_id)
            record.query_seconds = time.perf_counter() - started
            if not _rows_match(rows, record.result.rows):
                self.query_mismatches += 1
        if self._n % TALLY_EVERY == 0:
            tally = self.sheriff.db.sp_requests_by_domain()
            if sum(tally.values()) != self.sheriff.db.count("requests"):
                self.query_mismatches += 1
        return record

    def close(self) -> None:
        self.sheriff.shutdown()
        self.live.sheriff.shutdown()


def _rows_match(db_rows: List[Dict[str, Any]], result_rows) -> bool:
    """The analyst's read returns exactly the rows of the result page."""
    if len(db_rows) != len(result_rows):
        return False
    for stored, row in zip(db_rows, result_rows):
        if (
            stored["proxy_id"] != row.proxy_id
            or stored["amount_eur"] != row.amount_eur
            or stored["error"] != row.error
        ):
            return False
    return True


#: clustering round parameters (Fig. 8c operating point).  k is pinned
#: and early halting is off (a negative threshold never triggers), so
#: every round does the same work at every seed: the silhouette's pick of
#: k and the data's convergence speed would otherwise swing the round's
#: cost by up to 2x between seeds.
CLUSTER_REFERENCE_DOMAINS = 50
CLUSTER_K = 4
CLUSTER_MAX_ITERATIONS = 4
CLUSTER_HALT_THRESHOLD = -1.0
CLUSTER_WORKERS = 2
CLUSTER_QUANTIZATION = 100


class ClusterWorkload:
    """Doppelganger clustering rounds over the live population."""

    name = "cluster"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds: List[Dict[str, Any]] = []

    def setup(self) -> None:
        reset_process_caches()
        self.deployment = LiveDeployment(DeploymentConfig(
            seed=self.seed, db_backend="memory", transport="sim",
        ))
        self.sheriff = self.deployment.sheriff
        # LiveDeployment has no crypto-group knob: swap the pinned 256-bit
        # group in before any clustering state exists
        self.sheriff.crypto_group = BENCH_GROUP_256
        self.sheriff.aggregator.group = BENCH_GROUP_256
        self.deployment.population.build()
        web = self.deployment.content_web
        self.reference = web.alexa_top(
            min(CLUSTER_REFERENCE_DOMAINS, len(web.domains))
        )
        # record the private initial centroids so the round can be
        # replayed in plaintext by the output check
        draw = self.sheriff._sparse_random_centroids
        self._initial: List[List[List[int]]] = []

        def recording_draw(k, m, quantization):
            centroids = draw(k, m, quantization)
            self._initial.append([list(c) for c in centroids])
            return centroids

        self.sheriff._sparse_random_centroids = recording_draw

    def op(self) -> OpRecord:
        started = time.perf_counter()
        try:
            # the silhouette sweep a round runs when k is left unset; its
            # pick is recorded, the round itself runs at the pinned k
            chosen_k = self.sheriff.choose_k_from_donors(self.reference)
            outcome = self.sheriff.run_doppelganger_clustering(
                self.reference,
                k=CLUSTER_K,
                quantization=CLUSTER_QUANTIZATION,
                halt_threshold=CLUSTER_HALT_THRESHOLD,
                max_iterations=CLUSTER_MAX_ITERATIONS,
                n_workers=CLUSTER_WORKERS,
            )
        finally:
            seconds = time.perf_counter() - started
            self._close_pools()
        self.rounds.append({
            "outcome": outcome,
            "initial": self._initial[-1],
            "chosen_k": chosen_k,
        })
        return OpRecord(seconds=seconds, ok=True, result=outcome)

    def _close_pools(self) -> None:
        """Stop the round's worker processes; the sheriff never does."""
        kmeans = self.sheriff.aggregator._kmeans
        if kmeans is not None:
            kmeans.close()
            kmeans.coordinator.close()

    def close(self) -> None:
        self._close_pools()
        self.sheriff.shutdown()


WORKLOADS = {
    "live": LiveWorkload,
    "crawl": CrawlWorkload,
    "cluster": ClusterWorkload,
}
