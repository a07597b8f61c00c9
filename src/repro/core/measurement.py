"""The Measurement server (Sect. 3.1.1, 3.2; App. 10.5).

One server handles one price-check job end to end:

1. fan the page request out to **all** IPCs (step 3.1) and to the PPC
   list the Coordinator selected (step 3.2) — in the simulation these
   fetches happen at the same simulated instant, which is exactly the
   paper's requirement that all vantage points fetch "at the same time
   in order to factor out temporal price variations";
2. run the Tags Path extractor over every returned page;
3. run the currency detection/conversion algorithm, converting
   everything into the currency requested by the initiating user;
4. persist the results through the shared Database server, storing the
   initiator page in full and every other page as a diff (DiffStorage);
5. report completion to the Coordinator and return the result rows.

Per the production note in Sect. 5, a per-proxy timeout bounds how long
a slow (PlanetLab) node can hold up a job; in the simulation the
slowdown factor stands in for wall-clock delay and responses from nodes
whose slowdown exceeds the timeout budget are dropped the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.coordinator import Coordinator
from repro.core.database import DatabaseServer
from repro.core.diffstorage import DiffStorage
from repro.core.engine import (
    CACHE_HIT_SECONDS,
    EngineJob,
    JobHandle,
    PriceCheckEngine,
)
from repro.core.errors import QuorumNotMet, UnknownJob
from repro.core.pricecheck import PriceCheckResult, ResultRow
from repro.core.tagspath import TagsPath, extract_price_text
from repro.currency.detect import Confidence, CurrencyDetectionError, detect_price
from repro.currency.rates import ExchangeRateProvider, UnknownCurrencyError
from repro.net.events import Clock
from repro.net.faults import PeerTimeout, ProxyFetchError
from repro.net.geo import Location
from repro.net.p2p import PeerOverlay
from repro.net.sim import LatencyModel, fetch_duration
from repro.obs import NULL_TELEMETRY
from repro.web.internet import parse_url

if TYPE_CHECKING:  # avoid a core ↔ clients import cycle at runtime
    from repro.clients.ipc import InfrastructureProxyClient

__all__ = [
    "MeasurementServer",
    "MeasurementStats",
    "PriceCheckJob",
    "QuorumNotMet",
]

#: one fetch timeline entry: (simulated duration, produced a result row)
FetchTask = Tuple[float, bool]


@dataclass
class MeasurementStats:
    """Per-server retry/degradation counters (Fig. 7-style panel)."""

    ipc_fetches: int = 0
    ipc_failures: int = 0
    ipc_retries: int = 0
    ppc_ok: int = 0
    ppc_dropped: int = 0
    ppc_timeouts: int = 0
    ppc_corrupt: int = 0
    degraded_jobs: int = 0
    quorum_failures: int = 0
    page_cache_hits: int = 0

    def add(self, other: "MeasurementStats") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))

    def rows(self) -> List[Dict[str, int]]:
        return [
            {"Counter": name, "Value": getattr(self, name)}
            for name in self.__dataclass_fields__
        ]


@dataclass
class PriceCheckJob:
    """What the add-on sends in step 3 of Fig. 6 (plus server context)."""

    job_id: str
    url: str
    tags_path: TagsPath
    requested_currency: str
    initiator_peer_id: str
    initiator_html: str
    initiator_location: Location
    initiator_os: str
    initiator_browser: str
    ppc_ids: Sequence[str] = ()
    third_party_domains: Tuple[str, ...] = ()


class MeasurementServer:
    """One price-check worker of the back-end."""

    #: proxies slower than this factor are treated as timed out (the
    #: production system kills proxy requests after 2 minutes, Sect. 5).
    PROXY_SLOWDOWN_TIMEOUT = 4.0

    def __init__(
        self,
        name: str,
        coordinator: Coordinator,
        db: DatabaseServer,
        rates: ExchangeRateProvider,
        ipcs: Sequence["InfrastructureProxyClient"],
        overlay: PeerOverlay,
        clock: Clock,
        diffstore: Optional[DiffStorage] = None,
        quorum: int = 1,
        engine: Optional[PriceCheckEngine] = None,
        pipelined: bool = True,
        latency_model: Optional[LatencyModel] = None,
        telemetry=None,
        transport_label: str = "sim",
        use_fast_extract: bool = True,
    ) -> None:
        self.name = name
        #: which messaging backend carried this server's traffic;
        #: stamped on the price_check root span for sim/mesh trace parity
        self.transport_label = transport_label
        self.coordinator = coordinator
        self.db = db
        self.rates = rates
        self.ipcs = list(ipcs)
        self.overlay = overlay
        self.clock = clock
        self.diffstore = diffstore if diffstore is not None else DiffStorage()
        #: minimum number of vantage points (initiator included) that
        #: must return a page; below it the job is reported failed
        #: instead of producing a one-sided comparison
        self.quorum = max(1, quorum)
        #: the shared pipelined engine (None = every job completes
        #: instantly in simulated time, the pre-engine behavior)
        self.engine = engine
        self.pipelined = pipelined and engine is not None
        #: per-server latency model with a *dedicated* RNG: duration
        #: draws must never perturb the world/fault RNG streams, or
        #: serial and pipelined runs would diverge
        self._latency = (
            latency_model
            if latency_model is not None
            else LatencyModel(rng=random.Random(f"lat:{name}"))
        )
        #: where the server machine sits (the paper's back-end ran at
        #: UPC Barcelona); only used to compute fetch round trips
        self.location = Location(
            country="ES", region="Catalonia", city="Barcelona",
            ip=f"10.250.1.{sum(name.encode()) % 200 + 1}",
        )
        #: telemetry is observational only — spans read the sim clock
        #: and never consume any RNG stream, so serial and pipelined
        #: runs stay byte-identical with tracing on or off
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: escape hatch mirroring the crypto fast path: False falls back
        #: to the legacy per-candidate Tags-Path walk (the executable
        #: reference the equivalence tests compare against)
        self.use_fast_extract = use_fast_extract
        self.jobs_processed = 0
        self.stats = MeasurementStats()
        #: live job handles of the unified submit/poll/result API
        self._handles: Dict[str, JobHandle] = {}

    @property
    def pending_handles(self) -> int:
        """Jobs submitted but not yet 'request finish'-ed — the ops
        layer's per-server in-flight gauge."""
        return len(self._handles)

    # -- price extraction + conversion on one page -----------------------------
    def _row_from_page(
        self,
        job: PriceCheckJob,
        html: str,
        kind: str,
        proxy_id: str,
        location_fields: Tuple[str, str, str],
        ua: Tuple[Optional[str], Optional[str]] = (None, None),
        used_doppelganger: bool = False,
    ) -> ResultRow:
        country, region, city = location_fields
        base = dict(
            kind=kind, proxy_id=proxy_id, country=country, region=region,
            city=city, ua_os=ua[0], ua_browser=ua[1],
            used_doppelganger=used_doppelganger,
        )
        text = extract_price_text(
            html, job.tags_path, use_fast_extract=self.use_fast_extract
        )
        if text is None:
            return ResultRow(
                original_text=None, detected_amount=None, detected_currency=None,
                converted_value=None, amount_eur=None,
                error="price not found on page", **base,
            )
        try:
            detected = detect_price(text)
        except CurrencyDetectionError as exc:
            return ResultRow(
                original_text=text, detected_amount=None, detected_currency=None,
                converted_value=None, amount_eur=None, error=str(exc), **base,
            )
        if detected.amount is None:
            return ResultRow(
                original_text=text, detected_amount=None,
                detected_currency=detected.currency, converted_value=None,
                amount_eur=None, error="no numeric amount", **base,
            )
        converted = eur = None
        if detected.currency is not None:
            try:
                converted = self.rates.convert(
                    detected.amount, detected.currency,
                    job.requested_currency, self.clock.now,
                )
                eur = self.rates.to_eur(detected.amount, detected.currency, self.clock.now)
            except UnknownCurrencyError:
                pass
        return ResultRow(
            original_text=text,
            detected_amount=detected.amount,
            detected_currency=detected.currency,
            converted_value=None if converted is None else round(converted, 2),
            amount_eur=None if eur is None else round(eur, 2),
            low_confidence=detected.confidence is Confidence.LOW,
            currency_candidates=tuple(detected.candidates),
            error=None if converted is not None else "unknown currency",
            **base,
        )

    #: a locale-based candidate must land within this factor of the
    #: anchor price to be trusted; beyond it we fall back to the
    #: scale-closest candidate.
    RECONCILE_LOCALE_FACTOR = 2.0

    def _reconcile_ambiguous_rows(self, rows: List[ResultRow],
                                  requested_currency: str) -> List[ResultRow]:
        """Job-level disambiguation of symbol-only currencies (Sect. 3.5).

        ``$`` could be a dozen dollars and ``¥`` two currencies.  The
        Measurement server holds the whole job, so it can reconcile:

        * rows whose currency was detected unambiguously anchor the
          product's price scale (their median EUR value);
        * for each ambiguous row, prefer the *vantage point's national
          currency* when it is a candidate AND its implied EUR value
          sits within ``RECONCILE_LOCALE_FACTOR`` of the anchor —
          retailers that geo-localize currencies quote in the visitor's
          money, but a cross-border markup can legitimately exceed the
          anchor, hence the tolerance rather than equality;
        * otherwise pick the candidate whose implied value is closest
          to the anchor on a log scale;
        * with no anchor at all (a store showing the same bare symbol
          to everyone), keep the detector's default guess — consistent
          across all rows, so no *relative* difference is fabricated.

        Rows keep their low-confidence flag either way: the result page
        still shows the red asterisk.
        """
        import math
        from dataclasses import replace

        anchors = [
            r.amount_eur for r in rows
            if r.ok and not r.low_confidence and r.amount_eur is not None
        ]
        if not anchors:
            return rows
        anchors.sort()
        anchor = anchors[len(anchors) // 2]
        if anchor <= 0:
            return rows

        out: List[ResultRow] = []
        for row in rows:
            if (
                not row.low_confidence
                or row.detected_amount is None
                or len(row.currency_candidates) < 2
            ):
                out.append(row)
                continue
            try:
                locale_code = self.coordinator.geodb.country(row.country).currency
            except KeyError:
                locale_code = None

            def eur_for(code: str) -> Optional[float]:
                try:
                    return self.rates.to_eur(
                        row.detected_amount, code, self.clock.now
                    )
                except UnknownCurrencyError:
                    return None

            chosen = None
            if locale_code in row.currency_candidates:
                value = eur_for(locale_code)
                if value is not None and value > 0 and (
                    max(value / anchor, anchor / value)
                    <= self.RECONCILE_LOCALE_FACTOR
                ):
                    chosen = locale_code
            if chosen is None:
                best = None
                for code in row.currency_candidates:
                    value = eur_for(code)
                    if value is None or value <= 0:
                        continue
                    distance = abs(math.log(value / anchor))
                    if best is None or distance < best[0]:
                        best = (distance, code)
                chosen = best[1] if best is not None else row.detected_currency
            if chosen == row.detected_currency:
                out.append(row)
                continue
            eur = eur_for(chosen)
            converted = self.rates.convert(
                row.detected_amount, chosen, requested_currency, self.clock.now
            )
            out.append(replace(
                row,
                detected_currency=chosen,
                amount_eur=None if eur is None else round(eur, 2),
                converted_value=round(converted, 2),
            ))
        return out

    # -- the registration probe (App. 10.2.1) ------------------------------
    def self_test(self) -> bool:
        """Prove this machine runs working Measurement server code.

        Runs the two critical pipelines on a canned page with a known
        answer: Tags Path extraction must find the product price (not
        the decoy) and currency detection must convert USD 699 into the
        exact EUR value of the current rate table.
        """
        from repro.core.tagspath import TagsPath
        from repro.net.geo import Location

        html = (
            "<html><head><title>probe</title></head><body>"
            '<div class="banner"><span class="price">$9</span></div>'
            '<div class="product"><span class="price">USD699</span></div>'
            "</body></html>"
        )
        job = PriceCheckJob(
            job_id="probe", url="http://probe.internal/product/x",
            tags_path=TagsPath(entries=("html", "body", "div.product"),
                               target="span.price"),
            requested_currency="EUR",
            initiator_peer_id="probe",
            initiator_html=html,
            initiator_location=Location(country="ES", region="Spain",
                                        city="Madrid", ip="10.0.0.1"),
            initiator_os="Linux", initiator_browser="Firefox",
        )
        row = self._row_from_page(
            job, html, kind="You", proxy_id="probe",
            location_fields=("ES", "Spain", "Madrid"),
        )
        if not row.ok or row.detected_currency != "USD":
            return False
        expected = round(self.rates.to_eur(699.0, "USD", self.clock.now), 2)
        return row.converted_value == expected

    # -- the unified job lifecycle (submit → poll → result) ---------------------
    #
    # "At this point the browser executes AJAX requests to the
    # Measurement server to receive any result updates until the
    # measurement server replies with a 'request finish' response."
    # submit() performs the fan-out and returns a JobHandle; poll()
    # hands back rows that have *landed* on the engine's simulated
    # timeline since the last poll plus the finished flag; result()
    # drives the handle to its terminal state and returns (or raises)
    # the outcome.  The same three methods — the JobAPI protocol
    # (:mod:`repro.core.jobapi`) — are offered by the engine and the
    # queued measurement tier.

    def submit(self, job: PriceCheckJob) -> JobHandle:
        """Run the fan-out and return the handle tracking its delivery.

        The fetches themselves execute eagerly in the canonical serial
        order — that is what keeps every RNG stream identical between
        serial and pipelined runs — while the *timing* of each fetch is
        delegated to the engine's worker pool (``engine.submit``), so
        concurrent jobs overlap on the simulated timeline.
        """
        result, tasks, error = self._execute(job)
        if error is None and self.pipelined and self.engine is not None:
            handle = self.engine.submit(EngineJob(
                job_id=job.job_id, server_name=self.name,
                tasks=tasks, result=result,
            ))
        else:
            # serial mode (or a failed job): everything lands at once
            handle = JobHandle(job.job_id, self.name)
            handle._result = result
            handle.error = error
            handle.service_seconds = sum(d for d, _ in tasks)
            handle.rows_arrived = handle.total_rows
            handle.state = "failed" if error is not None else "done"
            if error is None and self.engine is not None:
                # account the check in the latency histogram under
                # mode="serial" — the pipelined path records its own
                # observation when the engine finishes the handle
                self.engine.observe_serial_check(
                    self.name, handle.service_seconds
                )
        self._handles[job.job_id] = handle
        return handle

    def _resolve(self, handle: Union[JobHandle, str]) -> JobHandle:
        job_id = handle.job_id if isinstance(handle, JobHandle) else handle
        found = self._handles.get(job_id)
        if found is None or (isinstance(handle, JobHandle) and found is not handle):
            raise UnknownJob(f"unknown or finished job {job_id!r}")
        return found

    def poll(self, handle: Union[JobHandle, str]):
        """One AJAX poll: (rows landed since last poll, finished flag).

        Rows are delivered a few per poll, in canonical row order, as
        their fetches complete on the simulated timeline (IPCs and PPCs
        respond at different speeds).  After the final ('request
        finish') poll the job is gone: further polls raise
        :class:`UnknownJob`.
        """
        h = self._resolve(handle)
        if h.error is not None:
            self._handles.pop(h.job_id, None)
            raise h.error
        if self.engine is not None:
            batch, finished = self.engine.poll(h)
        else:
            available = h.rows_arrived - h.rows_delivered
            batch = h._result.rows[
                h.rows_delivered : h.rows_delivered + min(8, available)
            ]
            h.rows_delivered += len(batch)
            finished = h.finished and h.rows_delivered >= h.total_rows
        if finished:
            del self._handles[h.job_id]  # 'request finish'
        return list(batch), finished

    def result(self, handle: Union[JobHandle, str]) -> PriceCheckResult:
        """Drive the job to its terminal state and return the outcome.

        Raises the job's error (e.g. :class:`QuorumNotMet`) when it
        ended in an explicit failure report.
        """
        h = self._resolve(handle)
        self._handles.pop(h.job_id, None)
        if self.engine is not None:
            result = self.engine.result(h)
        else:
            h.rows_delivered = h.total_rows
            if h.error is not None:
                raise h.error
            result = h._result
        assert result is not None
        return result

    # -- the fan-out --------------------------------------------------------------
    def _fetch_page_cached(self, job: PriceCheckJob, ipc) -> Tuple[Any, int, bool]:
        """One IPC fetch through the engine's page cache.

        Returns ``(fetch, retries, was_cache_hit)``.  Only IPC fetches
        are cacheable — their client state is always ``"fresh"`` — and
        only within the cache TTL (simulated seconds on the world
        clock), so simultaneous checks of the same product reuse the
        page instead of re-fetching.
        """
        cache = self.engine.cache if self.engine is not None else None
        if cache is None or not cache.enabled:
            fetch, retries = ipc.fetch_with_retry(
                job.url, timeout_slowdown=self.PROXY_SLOWDOWN_TIMEOUT
            )
            return fetch, retries, False
        key = (job.url, ipc.ipc_id, "fresh")
        cached = cache.get(key, self.clock.now)
        if cached is not None:
            return cached, 0, True
        fetch, retries = ipc.fetch_with_retry(
            job.url, timeout_slowdown=self.PROXY_SLOWDOWN_TIMEOUT
        )
        cache.put(key, fetch, self.clock.now)
        return fetch, retries, False

    def _execute(
        self, job: PriceCheckJob
    ) -> Tuple[Optional[PriceCheckResult], List[FetchTask], Optional[Exception]]:
        """The fan-out: returns (result, fetch timeline, error).

        Exactly one of result/error is non-None.  The timeline carries
        one ``(duration, produced_row)`` entry per fetch attempt — a
        failed fetch still occupies a worker for its timeout — plus the
        zero-cost entry for the initiator's own page.

        The whole fan-out runs under one ``price_check`` root span keyed
        by the job id.  Child ``fetch`` spans all start at the same
        simulated instant — the paper's "at the same time" requirement —
        and carry their duration explicitly, because the fetches execute
        eagerly while the world clock is frozen.
        """
        tr = self.telemetry.tracer
        with tr.span(
            "price_check", trace_id=job.job_id, job_id=job.job_id,
            url=job.url, server=self.name, transport=self.transport_label,
        ):
            try:
                return self._execute_fanout(job, tr)
            finally:
                self.diffstore.release_index(job.job_id)

    def _fetch_span(
        self, tr, duration: float, vantage: str, proxy_id: str,
        ok: bool, **attrs: Any,
    ) -> None:
        """Record one completed fetch attempt as a zero-body span."""
        with tr.span("fetch", duration=duration, vantage=vantage,
                     proxy_id=proxy_id, ok=ok, **attrs):
            pass

    def _execute_fanout(
        self, job: PriceCheckJob, tr
    ) -> Tuple[Optional[PriceCheckResult], List[FetchTask], Optional[Exception]]:
        domain, _ = parse_url(job.url)
        result = PriceCheckResult(
            job_id=job.job_id,
            url=job.url,
            domain=domain,
            requested_currency=job.requested_currency,
            time=self.clock.now,
            third_party_domains=tuple(job.third_party_domains),
        )
        tasks: List[FetchTask] = []

        # The initiator's own observation ("You") — the page arrived
        # with the request, so it costs the pool nothing.
        self.diffstore.store_reference(job.job_id, job.initiator_html)
        loc = job.initiator_location
        result.rows.append(
            self._row_from_page(
                job, job.initiator_html, kind="You",
                proxy_id=job.initiator_peer_id,
                location_fields=(loc.country, loc.region, loc.city),
                ua=(job.initiator_os, job.initiator_browser),
            )
        )
        tasks.append((0.0, True))
        self._fetch_span(tr, 0.0, "You", job.initiator_peer_id, ok=True)

        # Step 3.1: all IPCs fetch the page.  Each fetch carries its own
        # bounded retry budget; an IPC that still fails is dropped from
        # this job — counted, never silently (Sect. 5's per-proxy
        # timeout, applied per fetch instead of statically).
        for ipc in self.ipcs:
            duration = fetch_duration(
                self._latency, self.location, ipc.location,
                slowdown=min(ipc.slowdown, self.PROXY_SLOWDOWN_TIMEOUT),
            )
            try:
                fetch, retries, cache_hit = self._fetch_page_cached(job, ipc)
            except ProxyFetchError:
                self.stats.ipc_failures += 1
                tasks.append((duration, False))
                self._fetch_span(tr, duration, "IPC", ipc.ipc_id, ok=False)
                continue
            if cache_hit:
                self.stats.page_cache_hits += 1
                duration = CACHE_HIT_SECONDS
            self.stats.ipc_fetches += 1
            self.stats.ipc_retries += retries
            self.diffstore.store_response(job.job_id, ipc.ipc_id, fetch.html)
            result.rows.append(
                self._row_from_page(
                    job, fetch.html, kind="IPC", proxy_id=ipc.ipc_id,
                    location_fields=(
                        fetch.location.country, fetch.location.region,
                        fetch.location.city,
                    ),
                    ua=(fetch.ua_os, fetch.ua_browser),
                )
            )
            tasks.append((duration, True))
            self._fetch_span(tr, duration, "IPC", ipc.ipc_id, ok=True,
                             cache_hit=cache_hit)

        # Step 3.2: the selected PPCs fetch the page.  Volunteer peers
        # are the least reliable vantage points: a peer may be gone,
        # time out, answer with an error, or return a mangled reply.
        # Every outcome is accounted — the price check degrades to fewer
        # vantage points, it never mistakes a lost reply for data.
        for peer_id in job.ppc_ids:
            duration = fetch_duration(
                self._latency, self.location, self.overlay.location_of(peer_id)
            )
            try:
                channel = self.overlay.connect(peer_id, src=self.name)
                reply = channel.send({"type": "remote_page_request", "url": job.url})
            except PeerTimeout:
                self.stats.ppc_timeouts += 1
                tasks.append((duration, False))
                self._fetch_span(tr, duration, "PPC", peer_id, ok=False)
                continue
            except ConnectionError:
                self.stats.ppc_dropped += 1
                tasks.append((duration, False))
                self._fetch_span(tr, duration, "PPC", peer_id, ok=False)
                continue
            if not self._valid_ppc_reply(reply):
                self.stats.ppc_corrupt += 1
                tasks.append((duration, False))
                self._fetch_span(tr, duration, "PPC", peer_id, ok=False)
                continue
            if "error" in reply:
                self.stats.ppc_dropped += 1
                tasks.append((duration, False))
                self._fetch_span(tr, duration, "PPC", peer_id, ok=False)
                continue
            self.stats.ppc_ok += 1
            self.diffstore.store_response(job.job_id, peer_id, reply["html"])
            result.rows.append(
                self._row_from_page(
                    job, reply["html"], kind="PPC", proxy_id=peer_id,
                    location_fields=(
                        reply["country"], reply["region"], reply["city"],
                    ),
                    ua=(reply.get("os"), reply.get("browser")),
                    used_doppelganger=reply.get("used_doppelganger", False),
                )
            )
            tasks.append((duration, True))
            self._fetch_span(tr, duration, "PPC", peer_id, ok=True)

        expected = 1 + len(self.ipcs) + len(job.ppc_ids)
        result.vantage_expected = expected
        result.degraded = len(result.rows) < expected
        if result.degraded:
            self.stats.degraded_jobs += 1
        if len(result.rows) < self.quorum:
            # Degrading below the quorum turns the job into an explicit
            # failure: the Coordinator releases it and the add-on shows
            # an error instead of a one-point "comparison".
            self.stats.quorum_failures += 1
            self.coordinator.fail_job(
                job.job_id,
                f"quorum not met ({len(result.rows)}/{self.quorum})",
            )
            return None, tasks, QuorumNotMet(
                job.job_id, len(result.rows), self.quorum
            )

        with tr.span("parse", rows=len(result.rows)):
            result.rows = self._reconcile_ambiguous_rows(
                result.rows, job.requested_currency
            )
        with tr.span("persist", rows=len(result.rows)):
            self._persist(job, result)
        self.coordinator.job_completed(job.job_id)
        self.jobs_processed += 1
        return result, tasks, None

    @staticmethod
    def _valid_ppc_reply(reply) -> bool:
        """Schema check against corrupt replies: a usable observation
        needs a page and a resolvable location (or an explicit error)."""
        if not isinstance(reply, dict):
            return False
        if "error" in reply:
            return True
        return all(k in reply for k in ("html", "country", "region", "city"))

    # -- persistence ---------------------------------------------------------------
    def _persist(self, job: PriceCheckJob, result: PriceCheckResult) -> None:
        """Land one job's rows in a single batched write.

        The connection is held once per job and the responses go out as
        one multi-row insert — under pipelined load the connection pool
        is the next bottleneck after the fetches, so a job must not pay
        one round trip per vantage point.
        """
        with self.db.connection() as db:
            db.sp_record_request(
                job_id=job.job_id,
                user_id=job.initiator_peer_id,
                url=job.url,
                domain=result.domain,
                time=self.clock.now,
            )
            db.sp_record_responses(
                job.job_id,
                [
                    dict(
                        proxy_id=row.proxy_id,
                        kind=row.kind,
                        country=row.country,
                        region=row.region,
                        city=row.city,
                        original_text=row.original_text,
                        amount=row.detected_amount,
                        currency=row.detected_currency,
                        amount_eur=row.amount_eur,
                        low_confidence=row.low_confidence,
                        used_doppelganger=row.used_doppelganger,
                        error=row.error,
                        time=self.clock.now,
                    )
                    for row in result.rows
                ],
            )
