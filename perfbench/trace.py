"""Host wall-clock spans around each layer's entry points.

The program is not modified: :class:`Tracer` replaces each entry point
*where its caller looks it up* (a class attribute, a module global a
caller imported by name, or an instance attribute) with a wrapper that
records one span, and puts the original back on :meth:`Tracer.uninstall`.

A span is ``(span_id, parent_id, root_id, layer, op, start_ns, end_ns,
error)``.  Spans are kept only inside a root span that the benchmark
opens around each operation (a price check, an analyst query, a
clustering round), so set-up work is never recorded; the root's trace id
is the job id of the check (or the round number).  A layer's self time
is its spans' durations minus the time covered by their child spans.

One global span stack serves every thread: the workloads keep one call
outstanding, so a socket handler thread only runs while the driving
thread waits inside the ``net.transport`` span that caused it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.browser.browser import Browser
from repro.clients.crawler import SystematicCrawler
from repro.clients.ipc import InfrastructureProxyClient
from repro.core import addon as addon_mod
from repro.core import measurement as measurement_mod
from repro.core import tagspath as tagspath_mod
from repro.core.coordinator import Coordinator
from repro.core.database import DatabaseServer
from repro.core.diffstorage import DiffStorage
from repro.core.engine import PriceCheckEngine
from repro.core.jobqueue import QueuedMeasurementTier
from repro.core.measurement import MeasurementServer
from repro.core.sheriff import PriceSheriff
from repro.crypto.elgamal import VectorElGamal
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    ProfileClient,
)
from repro.currency.rates import ExchangeRateProvider
from repro.net import socket_transport as socket_mod
from repro.net import transport as transport_mod
from repro.net.p2p import PeerChannel
from repro.profiles import vector as vector_mod
from repro.profiles.doppelganger import DoppelgangerManager
from repro.storage.memory import MemoryBackend
from repro.storage.sharding import ShardedDatabase
from repro.storage.sqlite import SqliteBackend

Span = Tuple[int, int, int, str, str, int, int, Optional[str]]

#: (owner, attribute, layer, op) of every traced entry point.  Module
#: globals are patched in the module of the *caller* that imported them.
ENTRY_POINTS: Tuple[Tuple[Any, str, str, str], ...] = (
    # simulated world: browsers, store rendering and pricing, sim latency
    (Browser, "visit", "world", "visit"),
    (Browser, "fetch_raw", "world", "visit"),
    (measurement_mod, "fetch_duration", "world", "latency"),
    # HTML parsing, wherever the system parses a page
    (tagspath_mod, "parse", "web.html", "parse"),
    (addon_mod, "parse", "web.html", "parse"),
    (addon_mod, "find_all", "web.html", "find"),
    # Tags-Path extraction (self time excludes the parse it triggers)
    (measurement_mod, "extract_price_text", "core.tagspath", "extract"),
    (addon_mod, "build_tags_path", "core.tagspath", "build"),
    # currency detection and conversion
    (measurement_mod, "detect_price", "currency", "detect"),
    (addon_mod, "detect_price", "currency", "detect"),
    (ExchangeRateProvider, "convert", "currency", "convert"),
    (ExchangeRateProvider, "to_eur", "currency", "convert"),
    (MeasurementServer, "_reconcile_ambiguous_rows", "currency", "reconcile"),
    # DiffStorage
    (DiffStorage, "store_reference", "core.diffstorage", "store"),
    (DiffStorage, "store_response", "core.diffstorage", "store"),
    # the Database server's stored procedures
    (DatabaseServer, "sp_record_request", "core.database", "write"),
    (DatabaseServer, "sp_record_responses", "core.database", "write"),
    (DatabaseServer, "sp_responses_for_job", "core.database", "read"),
    (DatabaseServer, "sp_requests_by_domain", "core.database", "tally"),
    # storage: the shard router and the engines below the server
    (ShardedDatabase, "sp_record_request", "storage", "write"),
    (ShardedDatabase, "sp_record_responses", "storage", "write"),
    (ShardedDatabase, "sp_responses_for_job", "storage", "read"),
    (ShardedDatabase, "sp_requests_by_domain", "storage", "tally"),
    (MemoryBackend, "insert", "storage", "insert"),
    (MemoryBackend, "insert_many", "storage", "insert"),
    (MemoryBackend, "lookup", "storage", "lookup"),
    (MemoryBackend, "group_count", "storage", "lookup"),
    (SqliteBackend, "insert", "storage", "insert"),
    (SqliteBackend, "insert_many", "storage", "insert"),
    (SqliteBackend, "lookup", "storage", "lookup"),
    (SqliteBackend, "group_count", "storage", "lookup"),
    # the pipelined engine and the queued tier
    (PriceCheckEngine, "submit", "core.engine", "submit"),
    (PriceCheckEngine, "result", "core.engine", "result"),
    (QueuedMeasurementTier, "submit", "core.jobqueue", "submit"),
    (QueuedMeasurementTier, "result", "core.jobqueue", "result"),
    # the Coordinator
    (Coordinator, "new_request", "core.coordinator", "assign"),
    (Coordinator, "reassign_job", "core.coordinator", "assign"),
    (Coordinator, "handle_server_failure", "core.coordinator", "failover"),
    (Coordinator, "job_completed", "core.coordinator", "complete"),
    (Coordinator, "fail_job", "core.coordinator", "complete"),
    # vantage clients: IPC fetches, PPC requests, crawler profile resets
    (InfrastructureProxyClient, "fetch_with_retry", "clients", "ipc"),
    (PeerChannel, "send", "clients", "ppc"),
    (SystematicCrawler, "_reset_profile", "clients", "reset"),
    # the Measurement server's fan-out
    (MeasurementServer, "submit", "core.measurement", "fanout"),
    # secure k-means
    (ProfileClient, "encrypt_profile", "crypto", "encrypt"),
    (VectorElGamal, "keygen", "crypto", "keygen"),
    (KMeansAggregator, "mask_all", "crypto", "mask"),
    (KMeansCoordinator, "distance_elements_batch", "crypto", "distance"),
    (KMeansAggregator, "choose_clusters", "crypto", "assign"),
    (KMeansAggregator, "aggregate_clusters", "crypto", "update"),
    (KMeansCoordinator, "update_centroid", "crypto", "update"),
    (KMeansAggregator, "close", "crypto", "pool"),
    (KMeansCoordinator, "close", "crypto", "pool"),
    # profiles: vectors, the k sweep, doppelganger training
    (vector_mod, "profile_from_counts", "profiles", "vector"),
    (PriceSheriff, "choose_k_from_donors", "profiles", "choose_k"),
    (DoppelgangerManager, "build_from_centroids", "profiles", "doppelganger"),
)

#: every layer a span can belong to, in report order
LAYERS = (
    "world", "web.html", "core.tagspath", "currency", "core.diffstorage",
    "core.database", "storage", "net.transport", "core.engine",
    "core.jobqueue", "core.coordinator", "clients", "core.measurement",
    "crypto", "profiles",
)

#: frame encoders whose output length is the bytes a transport carries
_FRAME_ENCODERS = ((transport_mod, "encode"), (socket_mod, "pack_frame"))


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: Dict[int, Tuple[str, str]] = {}  # root id -> (kind, trace id)
        self.frame_bytes = 0
        self._stack: List[int] = []
        self._root = 0
        self._next_id = 1
        self._trace_id: Optional[str] = None
        self._root_ns: Dict[int, int] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------
    def _call(self, fn: Callable, layer: str, op: str, args, kwargs):
        stack = self._stack
        if not stack:
            return fn(*args, **kwargs)  # outside any operation: set-up
        span_id = self._next_id
        self._next_id = span_id + 1
        parent = stack[-1]
        stack.append(span_id)
        error = None
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                (span_id, parent, self._root, layer, op, start, end, error)
            )

    def root(self, kind: str):
        """Context manager for one operation's root span."""
        return _Root(self, kind)

    def set_trace_id(self, trace_id: str) -> None:
        """Name the open root's trace (the job id, once it is known)."""
        if self._stack and self._trace_id is None:
            self._trace_id = trace_id

    # -- patching ------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, op: str) -> Callable:
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(fn, layer, op, args, kwargs)

        return traced

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        had_own = name in vars(owner)
        original = vars(owner)[name] if had_own else None
        self._patches.append((owner, name, original, had_own))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        for owner, name, layer, op in ENTRY_POINTS:
            traced = self._wrap(getattr(owner, name), layer, op)
            if owner is Coordinator and name == "new_request":
                traced = self._naming(traced)
            self._patch(owner, name, traced)
        for module, name in _FRAME_ENCODERS:
            self._patch(module, name, self._counting(getattr(module, name)))

    def _naming(self, new_request: Callable) -> Callable:
        """Name the open trace after the job id the Coordinator issued."""

        @functools.wraps(new_request)
        def naming_new_request(*args, **kwargs):
            ticket, ppcs = new_request(*args, **kwargs)
            self.set_trace_id(ticket.job_id)
            return ticket, ppcs

        return naming_new_request

    def instrument_transport(self, transport) -> None:
        """Trace one transport instance's calls (what DatabaseClient uses)."""
        self._patch(
            transport, "call",
            self._wrap(transport.call, "net.transport", "call"),
        )

    def _counting(self, encoder: Callable) -> Callable:
        @functools.wraps(encoder)
        def counted(*args, **kwargs):
            frame = encoder(*args, **kwargs)
            if self._stack:
                self.frame_bytes += len(frame)
            return frame

        return counted

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- analysis --------------------------------------------------------------
    def self_times(self) -> Dict[str, int]:
        """Nanoseconds of self time per layer (children subtracted)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span_id, parent, _, _, _, start, end, _ in self.spans:
            child_ns[parent] += end - start
        out: Dict[str, int] = defaultdict(int)
        for span_id, _, _, layer, _, start, end, _ in self.spans:
            out[layer] += end - start - child_ns.get(span_id, 0)
        return dict(out)

    def dump(self, path, meta: Dict[str, Any]) -> None:
        """Write every span as JSON (one array per span)."""
        names = {rid: tid for rid, (_, tid) in self.roots.items()}
        payload = {
            "meta": meta,
            "fields": ["span_id", "parent_id", "trace_id", "layer", "op",
                       "start_ns", "end_ns", "error"],
            "roots": [
                [rid, kind, tid, self._root_ns.get(rid, 0)]
                for rid, (kind, tid) in self.roots.items()
            ],
            "spans": [
                [sid, parent, names.get(root, ""), layer, op, start, end, err]
                for sid, parent, root, layer, op, start, end, err in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _Root:
    """One operation: opens the stack, names the trace, times the root.

    The trace id is the job id the Coordinator issued during the
    operation, or ``<kind>-<ordinal>`` when there is none (a round).
    """

    def __init__(self, tracer: Tracer, kind: str) -> None:
        self.tracer = tracer
        self.kind = kind

    def __enter__(self) -> "_Root":
        tr = self.tracer
        self.root_id = tr._next_id
        tr._next_id += 1
        tr._root = self.root_id
        tr._trace_id = None
        tr._stack.append(self.root_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr._root_ns[self.root_id] = time.perf_counter_ns() - self.start
        tr._stack.pop()
        trace_id = tr._trace_id or f"{self.kind}-{len(tr.roots) + 1}"
        tr.roots[self.root_id] = (self.kind, trace_id)
        tr._trace_id = None
