"""The Coordinator (Sect. 3.1.1, 3.2, 3.4).

The Coordinator is the front door of the back-end.  For every price
check request it:

1. validates the target against the whitelist (and the PII URL
   blacklist), logging rejected requests for manual inspection;
2. mints a globally unique job ID and assigns the job to the online
   Measurement server with the fewest pending jobs (Fig. 6);
3. hands the selected Measurement server the list of PPCs residing in
   the initiator's location (step 1.1 of Fig. 1) — same city first,
   padded with same-country peers, never including the initiator.

It also runs three monitoring subsystems (Measurement servers, PPCs,
doppelganger clients), serves doppelganger client-side state against
256-bit bearer tokens (through an anonymity channel, so it cannot map
peers to doppelgangers), and hosts the doppelganger manager.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.dispatch import NoServerAvailable, RequestDistributor
from repro.core.errors import (
    AdmissionDenied,
    ConfigurationError,
    PriceCheckFailed,
    RequestRejected,
    RetryBudgetExhausted,
    RetryExhausted,
    UnknownJob,
)
from repro.core.whitelist import Whitelist
from repro.net.faults import ROLE_SERVER, BackoffPolicy, FaultPlan
from repro.net.geo import GeoDatabase, Location
from repro.net.p2p import PeerOverlay
from repro.obs.metrics import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER
from repro.profiles.doppelganger import DoppelgangerManager
from repro.web.internet import parse_url

__all__ = [
    "AdmissionDenied",
    "Coordinator",
    "JobRecord",
    "RequestRejected",
    "RequestTicket",
    "RetryBudgetExhausted",
    "RetryExhausted",
]


@dataclass(frozen=True)
class RequestTicket:
    """What the add-on receives in step 2 of Fig. 6."""

    job_id: str
    server_name: str
    server_url: str
    server_port: int


@dataclass
class JobRecord:
    job_id: str
    peer_id: str
    url: str
    domain: str
    server_name: str
    completed: bool = False
    #: how many servers this job has been assigned to (1 = no failover)
    attempts: int = 1
    failed: bool = False
    failure_reason: Optional[str] = None
    #: world-clock time the request was admitted (telemetry: the
    #: assign→complete turnaround histogram measures from here)
    started_at: float = 0.0

    @property
    def resolved(self) -> bool:
        """Terminal: either completed or explicitly reported failed."""
        return self.completed or self.failed


class Coordinator:
    """Whitelisting, job dispatch, peer tracking, doppelganger serving."""

    def __init__(
        self,
        whitelist: Whitelist,
        distributor: RequestDistributor,
        overlay: PeerOverlay,
        geodb: GeoDatabase,
        clock,
        dopp_manager: Optional[DoppelgangerManager] = None,
        max_ppcs_per_request: int = 5,
        rng: Optional[random.Random] = None,
        faults: Optional[FaultPlan] = None,
        retry_budget: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        metrics=None,
        transport_label: str = "sim",
    ) -> None:
        self.whitelist = whitelist
        #: which messaging backend the deployment runs over ("sim",
        #: "socket", "direct"); stamped on journey spans so a trace
        #: reads the same in sim and mesh runs
        self.transport_label = transport_label
        self.distributor = distributor
        self.overlay = overlay
        self.geodb = geodb
        self.clock = clock
        self.dopp_manager = dopp_manager
        self.max_ppcs_per_request = max_ppcs_per_request
        self._rng = rng if rng is not None else random.Random(1099)
        #: dedicated jitter stream for retry backoff.  Backoff draws must
        #: not share the PPC-selection RNG: a failover would then shift
        #: every later select_ppcs() shuffle, and a healed chaos run
        #: could never be row-identical to a fault-free one (the
        #: restart-equivalence property tests/ops pins down).
        self._backoff_rng = random.Random(2029)
        self._job_seq = itertools.count(1)
        self.jobs: Dict[str, JobRecord] = {}
        #: chaos schedule; None means a clean network
        self.faults = faults
        #: how many server assignments one job may consume in total
        self.retry_budget = retry_budget
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.failovers = 0
        self.jobs_failed = 0
        self.jobs_reassigned = 0
        #: total simulated seconds callers were told to back off
        self.backoff_seconds = 0.0
        self.tracer = NULL_TRACER
        #: job_id -> span_id of the job's latest Coordinator-side journey
        #: stage (assign / retry); the queue tier roots its chain here
        self.journey_spans: Dict[str, int] = {}
        self._bind_registry(metrics if metrics is not None else NULL_REGISTRY)

    def bind_telemetry(self, telemetry) -> None:
        """Attach the deployment's telemetry plane (unified convention)."""
        self._bind_registry(telemetry.registry)
        self.tracer = getattr(telemetry, "tracer", NULL_TRACER)

    def _bind_registry(self, registry) -> None:
        #: telemetry: recovery counters + the per-server turnaround
        #: histogram (admission → completion report, world clock)
        self.metrics = registry
        self._m_recovery = self.metrics.counter(
            "sheriff_coordinator_recovery_total",
            "Failover / reassignment / terminal-failure events",
            labelnames=("event",),
        )
        self._m_rejected = self.metrics.counter(
            "sheriff_requests_rejected_total",
            "Price-check requests refused at admission",
        )
        self._m_backoff = self.metrics.counter(
            "sheriff_backoff_seconds_total",
            "Simulated seconds callers were told to back off",
        )
        self._m_retry_budget = self.metrics.counter(
            "sheriff_retry_budget_spent_total",
            "Server assignments consumed beyond each job's first",
        )
        self._m_turnaround = self.metrics.histogram(
            "sheriff_job_turnaround_seconds",
            "Admission-to-completion-report time per server (world clock)",
            labelnames=("server",),
        )

    # -- PPC tracking ----------------------------------------------------------
    def select_ppcs(self, initiator_peer_id: str, location: Location) -> List[str]:
        """PPC IDs in the initiator's location (step 1.1 of Fig. 1).

        Same-city peers take priority; within each tier the choice is
        randomized so that repeated checks spread over the peer pool
        (Sect. 7.1: repetitions are timed "to maximize the number of
        different PPCs used").
        """
        same_city = [
            p.peer_id
            for p in self.overlay.peers_in_city(location.country, location.city)
            if p.peer_id != initiator_peer_id
        ]
        same_country = [
            p.peer_id
            for p in self.overlay.peers_in_country(location.country)
            if p.peer_id != initiator_peer_id and p.peer_id not in same_city
        ]
        self._rng.shuffle(same_city)
        self._rng.shuffle(same_country)
        return (same_city + same_country)[: self.max_ppcs_per_request]

    # -- the request protocol (Fig. 6) ------------------------------------------
    def new_request(
        self, peer_id: str, url: str, location: Location
    ) -> Tuple[RequestTicket, List[str]]:
        """Steps 1–2 of the distribution protocol.

        Raises :class:`RequestRejected` for non-whitelisted domains or
        PII-blacklisted URLs, and :class:`PriceCheckFailed` (the job
        recorded failed) when no Measurement server is online.  Returns
        the ticket plus the PPC list that is forwarded to the selected
        Measurement server.
        """
        self.chaos_tick()
        domain, path = parse_url(url)
        allowed, reason = self.whitelist.check(url, domain, path, self.clock.now)
        if not allowed:
            self._m_rejected.inc()
            raise RequestRejected(url, reason)
        job_id = f"job-{next(self._job_seq)}"
        try:
            server = self.distributor.assign_job(job_id)
        except NoServerAvailable as exc:
            # every server is offline: the job is reported failed, as a
            # reassignment does under the same condition
            self.jobs[job_id] = JobRecord(
                job_id=job_id, peer_id=peer_id, url=url, domain=domain,
                server_name="", attempts=0, started_at=self.clock.now,
            )
            self.fail_job(job_id, str(exc))
            raise PriceCheckFailed(job_id, str(exc)) from exc
        self.jobs[job_id] = JobRecord(
            job_id=job_id, peer_id=peer_id, url=url, domain=domain,
            server_name=server.name, started_at=self.clock.now,
        )
        if self.tracer.enabled:
            # the journey's root: every later stage (queue admission,
            # steal, dispatch, the fan-out) chains under this span
            with self.tracer.span(
                "assign", trace_id=job_id, server=server.name, url=url,
                transport=self.transport_label,
            ) as span:
                pass
            self.journey_spans[job_id] = span.span_id
        ppcs = self.select_ppcs(peer_id, location)
        return (
            RequestTicket(
                job_id=job_id,
                server_name=server.name,
                server_url=server.url,
                server_port=server.port,
            ),
            ppcs,
        )

    def job_completed(self, job_id: str) -> None:
        """Step 4: the Measurement server reports completion.

        Late completions — a server that finished a job the Coordinator
        already failed over or reported failed — are ignored rather than
        double-counted (App. 10.3's lost-message reconciliation).
        """
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        if record.resolved:
            return
        record.completed = True
        self.distributor.complete_job(job_id)
        self.journey_spans.pop(job_id, None)
        self._m_turnaround.observe(
            self.clock.now - record.started_at, server=record.server_name
        )

    # -- failover (heartbeat expiry + dead-server reassignment) -----------------
    def chaos_tick(self) -> List[str]:
        """One heartbeat/expiry sweep at the current simulated time.

        Live servers heartbeat implicitly; servers inside a fault-plan
        flap window miss theirs.  Whoever exceeds the heartbeat timeout
        is marked offline ("absence of heartbeat messages … results in
        the Measurement server being marked as offline") and its pending
        jobs are reassigned to the survivors.  Returns the names of the
        servers that expired this tick.

        Without a fault plan this is a no-op: on a clean network every
        heartbeat arrives and nothing ever expires.
        """
        if self.faults is None:
            return []
        now = self.clock.now
        for record in self.distributor.servers():
            flapped = (
                self.faults is not None
                and self.faults.host_down(record.name, now, role=ROLE_SERVER)
            )
            if not flapped:
                self.distributor.heartbeat(record.name, now)
        expired = self.distributor.expire_stale(now)
        for name in expired:
            self._requeue_jobs_of(name)
        return expired

    def _requeue_jobs_of(self, server_name: str) -> None:
        for job_id in self.distributor.jobs_on(server_name):
            try:
                self.reassign_job(job_id)
            except (RetryBudgetExhausted, NoServerAvailable) as exc:
                self.fail_job(job_id, str(exc))

    def handle_server_failure(
        self, server_name: str, exclude_job: Optional[str] = None
    ) -> None:
        """A send to this server failed: mark it offline immediately and
        move its pending jobs elsewhere (dead-server failover).

        ``exclude_job`` is the job whose send just failed — its owner
        re-sends via :meth:`reassign_job` itself and must not be moved
        twice.
        """
        self.failovers += 1
        self._m_recovery.inc(event="failover")
        try:
            job_ids = self.distributor.mark_offline(server_name)
        except KeyError:
            return
        for job_id in job_ids:
            if job_id == exclude_job:
                continue
            try:
                self.reassign_job(job_id)
            except (RetryBudgetExhausted, NoServerAvailable) as exc:
                self.fail_job(job_id, str(exc))

    def reassign_job(self, job_id: str) -> RequestTicket:
        """Move a job to a new Measurement server, within its retry budget.

        Raises :class:`RetryBudgetExhausted` once the job has consumed
        ``retry_budget`` assignments, or :class:`NoServerAvailable` when
        no online server remains.  The caller is expected to back off
        (capped exponential, jittered) between attempts —
        :meth:`next_backoff` computes the wait.
        """
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        if record.resolved:
            # the ticket already reached a terminal state; its pending
            # count was released, so there is nothing left to move
            raise UnknownJob(f"job {job_id!r} is already resolved")
        if record.attempts >= self.retry_budget:
            raise RetryBudgetExhausted(job_id, record.attempts)
        server = self.distributor.reassign_job(job_id)
        record.attempts += 1
        record.server_name = server.name
        self.jobs_reassigned += 1
        self._m_recovery.inc(event="reassigned")
        self._m_retry_budget.inc()
        if self.tracer.enabled:
            with self.tracer.span(
                "retry", trace_id=job_id,
                parent_id=self.journey_spans.get(job_id),
                attempt=record.attempts, server=server.name,
            ) as span:
                pass
            self.journey_spans[job_id] = span.span_id
        return RequestTicket(
            job_id=job_id,
            server_name=server.name,
            server_url=server.url,
            server_port=server.port,
        )

    def transfer_job(self, job_id: str, server_name: str) -> RequestTicket:
        """Work stealing: move a queued job onto a less loaded server.

        Free of retry-budget charges — the old owner is healthy, merely
        backlogged — and counted as a ``stolen`` recovery event so the
        queue tier's rebalancing is visible in telemetry.
        """
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        if record.resolved:
            raise UnknownJob(f"job {job_id!r} is already resolved")
        server = self.distributor.transfer_job(job_id, server_name)
        record.server_name = server.name
        self._m_recovery.inc(event="stolen")
        return RequestTicket(
            job_id=job_id,
            server_name=server.name,
            server_url=server.url,
            server_port=server.port,
        )

    def next_backoff(self, attempt: int) -> float:
        """Jittered, capped-exponential wait before retry ``attempt``."""
        delay = self.backoff.delay(attempt, self._backoff_rng)
        self.backoff_seconds += delay
        self._m_backoff.inc(delay)
        return delay

    def fail_job(self, job_id: str, reason: str) -> None:
        """Terminal failure: report the job failed, exactly once."""
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        if record.resolved:
            return
        record.failed = True
        record.failure_reason = reason
        if record.attempts:  # it holds a server's pending slot
            self.distributor.fail_job(job_id)
        self.journey_spans.pop(job_id, None)
        self.jobs_failed += 1
        self._m_recovery.inc(event="job_failed")

    def failed_jobs(self) -> List[JobRecord]:
        return [j for j in self.jobs.values() if j.failed]

    # -- doppelganger state service (steps 3.3/3.4 of Fig. 1) -------------------
    def doppelganger_client_state(self, token: str) -> Dict[str, Dict[str, str]]:
        """Bearer-token state request, arriving via an anonymity network.

        The Coordinator grants the client-side state "only to those who
        submit the correct token" — it never learns which peer asked.
        """
        if self.dopp_manager is None:
            raise ConfigurationError("no doppelganger manager configured")
        return self.dopp_manager.client_state_for(token)

    #: network identities seen on doppelganger state requests — with the
    #: anonymity channel in place these are exit-relay names, never peers
    state_request_sources: List[str]

    def handle_anonymous_state_request(self, request) -> Dict[str, Dict[str, str]]:
        """Serve a state request delivered over the anonymity network.

        ``request`` is an :class:`repro.net.anonymity.AnonymousRequest`;
        the payload carries only the bearer token.  The source identity
        available to the Coordinator is the exit relay.
        """
        if not hasattr(self, "state_request_sources"):
            self.state_request_sources = []
        self.state_request_sources.append(request.exit_relay)
        token = request.payload.decode("utf-8")
        return self.doppelganger_client_state(token)

    def record_doppelganger_serve(self, token: str, domain: str) -> Optional[str]:
        """Account one doppelganger use; returns the fresh token if the
        budget triggered a regeneration, else None."""
        if self.dopp_manager is None:
            raise ConfigurationError("no doppelganger manager configured")
        dopp = self.dopp_manager.get(token)
        cluster = dopp.cluster_index
        self.dopp_manager.record_serve(token, domain)
        fresh = self.dopp_manager.id_for_cluster(cluster)
        return fresh if fresh != token else None

    def update_doppelganger_state(
        self, token: str, client_state: Dict[str, Dict[str, str]]
    ) -> None:
        """Persist the client-side state a PPC accumulated for a dopp."""
        if self.dopp_manager is None:
            raise ConfigurationError("no doppelganger manager configured")
        try:
            self.dopp_manager.get(token).client_state = client_state
        except KeyError:
            pass  # the doppelganger was regenerated meanwhile

    # -- monitoring --------------------------------------------------------------
    def pending_jobs(self) -> int:
        return self.distributor.pending_jobs

    def open_jobs(self) -> List[JobRecord]:
        return [j for j in self.jobs.values() if not j.completed]
