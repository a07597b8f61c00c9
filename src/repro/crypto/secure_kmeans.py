"""Privacy-preserving k-means between the Coordinator and the Aggregator.

Protocol of Sect. 3.8 / App. 10.4.  Roles and what each one learns:

* **ProfileClient** — owns a private browsing-profile point
  ``a = (a_1 … a_m)`` with integer coordinates in ``[0, Q]``.  It encrypts
  ``c = (Σ a_i², 1, a_1, …, a_m)`` under the Coordinator's public keys,
  hands the ciphertext to the Aggregator, and goes offline.
* **KMeansCoordinator** — holds the ``t = m + 2`` ElGamal secret keys and
  the cluster centroids.  It learns the centroids (that is the point:
  they become the doppelganger profiles) and the cluster cardinalities,
  but never a client point nor the client→cluster mapping.
* **KMeansAggregator** — holds the encrypted client points.  It learns
  the squared distance between every client and every centroid (hence
  the mapping) but neither the points nor the centroids.

**Distance phase** (Fig. 17).  For centroid ``b`` the Coordinator's
private function vector is ``s = (1, Σ b_i², −2·b_1, …, −2·b_m)`` so that
``⟨c, s⟩ = Σa² + Σb² − 2Σab = d²(a, b)``.  To keep the Coordinator from
learning ``d²``, the Aggregator first re-randomizes the ciphertext and
homomorphically adds a random mask ν to the *first* coordinate; since
``s_1 = 1`` for every centroid, the Coordinator's evaluation returns
``g^{d² + ν}``, which only the Aggregator can unmask and discrete-log.

**Centroid-update phase** (Fig. 18).  The Aggregator multiplies the
ciphertexts of a cluster's members component-wise over positions
``[3, t]`` (the raw coordinates) and forwards the aggregate plus the
cardinality; the Coordinator decrypts the dimension-wise sums, divides
by the cardinality, and re-quantizes to integers.

Halting: iteration stops when the fraction of clients whose cluster
changed falls below ``halt_threshold`` (observed by the Aggregator), or
after ``max_iterations``.

The heavy group arithmetic is parallelizable (Fig. 8(c) compares 1 vs 4
workers); ``n_workers > 1`` fans the per-client work out to worker
*processes* — each inside the boundary of the party doing the work, so
parallelism never moves private data across roles.  Each party owns a
persistent, lazily-started fork pool (:class:`WorkerPool`): workers are
forked once, inherit the fixed-base exponentiation tables and BSGS
contexts copy-on-write, and survive across phases and iterations, so a
multi-iteration run no longer pays pool startup per phase per iteration.
Both parties are context managers; ``close()`` (or ``with``) shuts the
pools down deterministically.

Three phases use the pools: the Aggregator's mask (its costliest, 1 + t
fixed-base exponentiations per client per iteration) and unmask on the
Aggregator's pool, the distance evaluation on the Coordinator's.  The
mask's random draws never leave the parent: it draws ν then r for each
client in client order, exactly as the serial path does, and ships only
the exponents to :func:`_mask_chunk`, which also returns each ``g^ν``;
the Aggregator carries those to the unmask in place of ν, so the unmask
needs no exponentiation of its own.  The Aggregator's pool forks at its
first pooled phase, after the parent has built the ``g``/``h_i`` comb
tables and the BSGS context.  A phase fans out only when its work —
clients × t for the mask, clients × k × t for the distance and unmask,
each times (group bits / 64)² — reaches :data:`PARALLEL_MIN_WORK`
(30,000, where 2 workers measured even with 1); smaller phases run
in-process.  Workers hand their ``sheriff_crypto_*`` counter increments
back with each chunk, so the parent's counters read the same at any
worker count.

Fast-path crypto (default; ``use_fastexp=False`` restores the naive
textbook arithmetic, bit-for-bit and RNG-draw-for-draw identical):

* all fixed-base exponentiations route through comb tables
  (:mod:`repro.crypto.fastexp`);
* the mask is a cheap re-randomization — ``α·g^r``, ``β_i·h_i^r``,
  ``β_1·g^ν`` — instead of a full encryption of a mostly-zero vector,
  and all 1 + t powers of the shared r come from one digit pass
  (:func:`repro.crypto.fastexp.pow_many`);
* the per-client ``g^ν`` unmask factors are inverted together with one
  Montgomery batch inversion instead of one ``pow(·, p-2, p)`` each.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto import dlog as _dlog
from repro.crypto import fastexp
from repro.crypto import obs as _crypto_obs
from repro.crypto.dlog import discrete_log
from repro.crypto.elgamal import Ciphertext, VectorElGamal
from repro.crypto.fe import InnerProductFE
from repro.crypto.group import SchnorrGroup, TEST_GROUP

#: a phase goes to the worker pool only when its work reaches this:
#: clients × t for the mask (1 + t fixed-base powers per client),
#: clients × k × t for the distance (one FE evaluation per centroid) and
#: the unmask (one discrete log per centroid), each scaled by
#: (group bits / 64)².  Below it fork and pickling cost more than the
#: second core saves.  Measured on a 2-vCPU host (CPython 3.11), each
#: phase alone in the first iteration of fresh parties, so including the
#: pool's start-up (ms, best of 3-4, 1 vs 2 workers):
#:
#: * 64-bit mask (clients × t): 10,400 49 vs 72; 20,800 109 vs 122;
#:   31,200 117 vs 110; 41,600 226 vs 192;
#: * 64-bit distance (clients × k × t): 21,504 29 vs 39; 24,960 36 vs
#:   34; 31,200 32-45 vs 28-46; 124,800 (Fig. 8(c), k=20) 123 vs 84;
#:   unmask at the same sizes 8-16 vs 11-16, then 72 vs 61;
#: * 256-bit mask: 1,248 40 vs 57; 2,496 83 vs 88; 4,992 209 vs 150;
#:   distance 2,688 41 vs 40, 7,488 52 vs 42;
#: * 2048-bit: 8 clients, m=12 (mask 112) already gain: mask 1,007 vs
#:   683, distance 814 vs 455.
#:
#: The (bits/64)² scale puts the 256-bit threshold at 1,875 units,
#: slightly early for the mask (break-even 2,500-5,000) and about right
#: for the distance; at 2048 bits it is 29 units, so every real round
#: fans out.  ``cryptobench --scale smoke`` (48 clients, t=14, k=4, 64
#: bits: mask 672, distance 2,688) stays serial; Fig. 8(c) at default
#: scale (120 clients, t=52 or 102, k=20-60, 64 bits) keeps its mask
#: in-process (6,240 or 12,240) and fans out its distance and unmask
#: (124,800 and up), which at m=50, k=60 takes 0.73 s per iteration
#: with 1 worker and 0.61 s with 4 (median of 5 runs, each the best of 3
#: iterations); perfbench ``cluster`` (150 clients, t=52, k=4, 256 bits:
#: mask 124,800, distance 499,200) fans out every phase.
PARALLEL_MIN_WORK = 30_000


def profile_to_plaintext(point: Sequence[int]) -> List[int]:
    """Build the encoded vector c = (Σ a_i², 1, a_1, …, a_m)."""
    return [sum(a * a for a in point), 1, *point]


def centroid_function_vector(centroid: Sequence[int]) -> List[int]:
    """Build the function vector s = (1, Σ b_i², −2 b_1, …, −2 b_m)."""
    return [1, sum(b * b for b in centroid), *(-2 * b for b in centroid)]


class WorkerPool:
    """A persistent, lazily-started fork pool owned by one party.

    The previous implementation spawned a fresh ``multiprocessing.Pool``
    inside every parallel phase — twice per k-means iteration — so
    multi-iteration runs spent a fixed fork+teardown tax per phase.
    This pool forks its workers on first use and keeps them until
    :meth:`close`; because the start method is ``fork``, workers inherit
    every fixed-base comb table and BSGS baby-step table the parent
    built before that first use, copy-on-write and for free.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._pool = None

    @property
    def started(self) -> bool:
        return self._pool is not None

    def map(self, fn, args: Sequence) -> list:
        """``[fn(a) for a in args]`` on the workers; each worker's
        ``sheriff_crypto_*`` counter increments are added to this
        process's counters."""
        if self._pool is None:
            self._pool = multiprocessing.get_context("fork").Pool(self.n_workers)
        out = []
        for result, counts in self._pool.map(_counted, [(fn, a) for a in args]):
            _crypto_obs.add_counts(counts)
            out.append(result)
        return out

    def close(self) -> None:
        """Shut the workers down and reap them (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProfileClient:
    """A PPC that contributes its encrypted browsing profile."""

    def __init__(self, client_id: str, point: Sequence[int], value_bound: int) -> None:
        if any(a < 0 or a > value_bound for a in point):
            raise ValueError(f"profile coordinates must lie in [0, {value_bound}]")
        self.client_id = client_id
        self._point = list(point)
        self.value_bound = value_bound

    @property
    def dimensions(self) -> int:
        return len(self._point)

    def encrypt_profile(
        self,
        scheme: VectorElGamal,
        public_keys: Sequence[int],
        rng: random.Random,
    ) -> Ciphertext:
        """Encrypt and hand over; after this the client can go offline."""
        return scheme.encrypt(public_keys, profile_to_plaintext(self._point), rng)


class KMeansCoordinator:
    """Key holder; learns centroids and cardinalities only."""

    def __init__(
        self,
        group: SchnorrGroup,
        m: int,
        value_bound: int,
        rng: random.Random,
        n_workers: int = 1,
        use_fastexp: bool = True,
    ) -> None:
        self.group = group
        self.m = m
        self.t = m + 2
        self.value_bound = value_bound
        self.n_workers = n_workers
        self.use_fastexp = use_fastexp
        self.scheme = VectorElGamal(group, self.t, use_fastexp=use_fastexp)
        self._secret, self.public_keys = self.scheme.keygen(rng)
        self._fe = InnerProductFE(group, use_fastexp=use_fastexp)
        self.centroids: List[List[int]] = []
        self.pool = WorkerPool(n_workers)
        self._m_phase = None

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool."""
        self.pool.close()

    def __enter__(self) -> "KMeansCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def bind_telemetry(self, telemetry) -> None:
        """Attach the deployment's telemetry plane (phase latencies)."""
        self._m_phase = _phase_histogram(telemetry.registry)

    def _observe_phase(self, phase: str, seconds: float) -> None:
        if self._m_phase is not None:
            self._m_phase.observe(seconds, phase=phase)

    # -- centroid state -----------------------------------------------------
    def set_centroids(self, centroids: Sequence[Sequence[int]]) -> None:
        for c in centroids:
            if len(c) != self.m:
                raise ValueError("centroid dimensionality mismatch")
        self.centroids = [list(c) for c in centroids]

    @property
    def k(self) -> int:
        return len(self.centroids)

    def _function_data(self) -> Tuple[List[List[int]], List[int]]:
        s_vectors = [centroid_function_vector(b) for b in self.centroids]
        f_keys = [self._fe.function_key(self._secret, s) for s in s_vectors]
        return s_vectors, f_keys

    # -- distance phase (Coordinator side) -------------------------------
    def distance_elements_batch(
        self, masked: Sequence[Tuple[int, int, Tuple[int, ...]]]
    ) -> Dict[int, List[int]]:
        """For each masked ciphertext, return γ_k = g^{d²_k + ν} per centroid.

        ``masked`` is a list of (client_index, α, βs).  The Coordinator
        sees only masked ciphertexts, so the returned elements reveal
        nothing to it.
        """
        started = time.perf_counter()
        s_vectors, f_keys = self._function_data()
        if not _fans_out(
            self.n_workers, len(masked), len(masked) * self.k * self.t, self.group
        ):
            out = dict(
                _distance_chunk(
                    (self.group.p, self.group.q, self.group.g,
                     s_vectors, f_keys, list(masked), self.use_fastexp)
                )
            )
            self._observe_phase("distance", time.perf_counter() - started)
            return out
        chunks = _split(list(masked), self.n_workers)
        args = [
            (self.group.p, self.group.q, self.group.g,
             s_vectors, f_keys, chunk, self.use_fastexp)
            for chunk in chunks
            if chunk
        ]
        out: Dict[int, List[int]] = {}
        for partial in self.pool.map(_distance_chunk, args):
            out.update(partial)
        self._observe_phase("distance", time.perf_counter() - started)
        return out

    # -- update phase (Coordinator side) -----------------------------------
    def update_centroid(
        self, cluster_index: int, aggregate: Ciphertext, cardinality: int
    ) -> List[int]:
        """Decrypt the aggregated sums, average, re-quantize, store."""
        if cardinality <= 0:
            return self.centroids[cluster_index]  # empty cluster: keep it
        started = time.perf_counter()
        bound = cardinality * self.value_bound
        sums = self.scheme.decrypt_components(
            self._secret, aggregate, range(2, self.t), bound
        )
        centroid = [int(round(s / cardinality)) for s in sums]
        self.centroids[cluster_index] = centroid
        self._observe_phase("update", time.perf_counter() - started)
        return centroid


class KMeansAggregator:
    """Holds encrypted points; learns distances and the mapping only."""

    def __init__(
        self,
        group: SchnorrGroup,
        coordinator: KMeansCoordinator,
        rng: random.Random,
        n_workers: int = 1,
        use_fastexp: bool = True,
    ) -> None:
        self.group = group
        self.coordinator = coordinator
        self._rng = rng
        self.n_workers = n_workers
        self.use_fastexp = use_fastexp
        self.scheme = VectorElGamal(group, coordinator.t, use_fastexp=use_fastexp)
        self._ciphertexts: Dict[str, Ciphertext] = {}
        self._order: List[str] = []
        self.assignments: Dict[str, int] = {}
        self.pool = WorkerPool(n_workers)
        self._m_phase = None

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool."""
        self.pool.close()

    def __enter__(self) -> "KMeansAggregator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def bind_telemetry(self, telemetry) -> None:
        """Attach the deployment's telemetry plane (phase latencies)."""
        self._m_phase = _phase_histogram(telemetry.registry)

    def _observe_phase(self, phase: str, seconds: float) -> None:
        if self._m_phase is not None:
            self._m_phase.observe(seconds, phase=phase)

    # -- intake ---------------------------------------------------------------
    def submit(self, client_id: str, ciphertext: Ciphertext) -> None:
        if ciphertext.dimensions != self.coordinator.t:
            raise ValueError("ciphertext dimensionality mismatch")
        if client_id not in self._ciphertexts:
            self._order.append(client_id)
        self._ciphertexts[client_id] = ciphertext

    @property
    def n_clients(self) -> int:
        return len(self._ciphertexts)

    # -- distance phase (Aggregator side) -------------------------------------
    def _mask(self, ct: Ciphertext) -> Tuple[Ciphertext, int]:
        """Naive mask: add a full encryption of (ν, 0, …, 0).

        Returns (masked, g^ν).  Draws ν then r, the same draws as the
        fast path of :meth:`mask_all`.
        """
        nu = self.group.random_exponent(self._rng)
        mask_plain = [nu] + [0] * (self.coordinator.t - 1)
        mask_ct = self.scheme.encrypt(
            self.coordinator.public_keys, mask_plain, self._rng
        )
        return self.scheme.add(ct, mask_ct), self.group.gexp(nu)

    def mask_all(self) -> Tuple[List[Tuple[int, int, Tuple[int, ...]]], List[int]]:
        """Mask every held ciphertext; returns (masked batch, g^ν list).

        :meth:`choose_clusters` strips the masks with the ``g^ν`` list,
        so ν itself is never needed again.  Fast path: the parent draws ν
        then r for each client, in client order (the same draws as the
        naive :meth:`_mask`), and only the exponentiations run in
        :func:`_mask_chunk` — on the worker pool when the round is large
        enough (:func:`_fans_out`), in-process otherwise.
        """
        started = time.perf_counter()
        masked_batch: List[Tuple[int, int, Tuple[int, ...]]] = []
        g_nus: List[int] = []
        if not self.use_fastexp:
            for idx, client_id in enumerate(self._order):
                masked, g_nu = self._mask(self._ciphertexts[client_id])
                masked_batch.append((idx, masked.alpha, masked.betas))
                g_nus.append(g_nu)
            self._observe_phase("mask", time.perf_counter() - started)
            return masked_batch, g_nus
        draw = self.group.random_exponent
        rng = self._rng
        items = []
        for idx, client_id in enumerate(self._order):
            ct = self._ciphertexts[client_id]
            nu = draw(rng)
            items.append((idx, ct.alpha, ct.betas, nu, draw(rng)))
        args = [(self.group, self.coordinator.public_keys, chunk)
                for chunk in _split(items, self.n_workers)]
        work = len(items) * self.coordinator.t
        if _fans_out(self.n_workers, len(items), work, self.group):
            self._warm_before_fork()
            partials = self.pool.map(_mask_chunk, args)
        else:
            partials = [_mask_chunk(a) for a in args]
        for partial in partials:
            for idx, alpha, betas, g_nu in partial:
                masked_batch.append((idx, alpha, betas))
                g_nus.append(g_nu)
        self._observe_phase("mask", time.perf_counter() - started)
        return masked_batch, g_nus

    def _warm_before_fork(self) -> None:
        """Build the g/h_i comb tables and the BSGS context in the parent.

        Called before every pool use; only the first, which forks the
        workers, does anything, and the workers inherit both structures
        copy-on-write.
        """
        if not self.pool.started:
            self.scheme.key_tables(self.coordinator.public_keys)
            _dlog.prewarm(self.group, self._distance_bound())

    def _distance_bound(self) -> int:
        """Largest squared distance: m · value_bound²."""
        return self.coordinator.m * self.coordinator.value_bound ** 2

    def _unmask_factors(self, g_nus: Sequence[int]) -> List[int]:
        """The per-client g^{-ν} factors, batch-inverted on the fast path."""
        if self.use_fastexp:
            return fastexp.batch_invert(self.group.p, g_nus)
        return [self.group.inv(g_nu) for g_nu in g_nus]

    def choose_clusters(
        self, gamma_map: Dict[int, List[int]], g_nus: Sequence[int]
    ) -> Tuple[Dict[str, int], int]:
        """Unmask the γs with :meth:`mask_all`'s ``g^ν`` list,
        discrete-log, pick each client's nearest centroid."""
        started = time.perf_counter()
        bound = self._distance_bound()
        unmask_factors = self._unmask_factors(g_nus)
        unmask_items = [
            (idx, unmask_factors[idx], gamma_map[idx])
            for idx in range(len(self._order))
        ]
        work = len(unmask_items) * self.coordinator.k * self.coordinator.t
        if not _fans_out(self.n_workers, len(unmask_items), work, self.group):
            results = _unmask_chunk(
                (self.group.p, self.group.q, self.group.g, bound, unmask_items)
            )
        else:
            self._warm_before_fork()
            chunks = _split(unmask_items, self.n_workers)
            args = [
                (self.group.p, self.group.q, self.group.g, bound, chunk)
                for chunk in chunks
                if chunk
            ]
            results = []
            for partial in self.pool.map(_unmask_chunk, args):
                results.extend(partial)

        changed = 0
        new_assignments: Dict[str, int] = {}
        for idx, cluster in results:
            client_id = self._order[idx]
            new_assignments[client_id] = cluster
            if self.assignments.get(client_id) != cluster:
                changed += 1
        self.assignments = new_assignments
        self._observe_phase("unmask", time.perf_counter() - started)
        return dict(new_assignments), changed

    def assign_all(self) -> Tuple[Dict[str, int], int]:
        """One client→cluster mapping pass; returns (mapping, n_changed)."""
        masked_batch, g_nus = self.mask_all()
        gamma_map = self.coordinator.distance_elements_batch(masked_batch)
        return self.choose_clusters(gamma_map, g_nus)

    # -- update phase (Aggregator side) ---------------------------------------
    def aggregate_clusters(self) -> Dict[int, Tuple[Ciphertext, int]]:
        """Homomorphically sum each cluster's ciphertexts."""
        started = time.perf_counter()
        groups: Dict[int, List[Ciphertext]] = {}
        for client_id, cluster in self.assignments.items():
            groups.setdefault(cluster, []).append(self._ciphertexts[client_id])
        out = {
            cluster: (self.scheme.add_many(cts), len(cts))
            for cluster, cts in groups.items()
        }
        self._observe_phase("aggregate", time.perf_counter() - started)
        return out


# -- worker functions (module level so they fork+pickle cleanly) -----------

def _split(items: list, n: int) -> List[list]:
    size = max(1, (len(items) + n - 1) // n)
    return [items[i: i + size] for i in range(0, len(items), size)]


def _fans_out(
    n_workers: int, n_items: int, work: int, group: SchnorrGroup
) -> bool:
    """Whether a phase of ``work`` units over ``n_items`` clients goes to
    the worker pool (see :data:`PARALLEL_MIN_WORK`)."""
    return (
        n_workers > 1
        and n_items >= 2
        and work * (group.bits / 64) ** 2 >= PARALLEL_MIN_WORK
    )


def _counted(job) -> Tuple[object, Tuple[float, ...]]:
    """Run ``fn(args)`` in a worker; also return the crypto counter
    increments it made there, for the parent to add to its own."""
    fn, args = job
    before = _crypto_obs.counter_totals()
    result = fn(args)
    after = _crypto_obs.counter_totals()
    return result, tuple(a - b for a, b in zip(after, before))


def _mask_chunk(args) -> List[Tuple[int, int, Tuple[int, ...], int]]:
    """Mask a chunk with exponents the parent drew: per client
    (idx, α·g^r, (β_1·h_1^r·g^ν, β_i·h_i^r …), g^ν)."""
    group, public, chunk = args
    scheme = VectorElGamal(group, len(public))
    out = []
    for idx, alpha, betas, nu, r in chunk:
        g_nu = scheme.gexp(nu)
        masked = scheme.rerandomize_with(
            public, Ciphertext(alpha=alpha, betas=betas), r, {0: g_nu}
        )
        out.append((idx, masked.alpha, masked.betas, g_nu))
    return out


def _distance_chunk(args) -> List[Tuple[int, List[int]]]:
    p, q, g, s_vectors, f_keys, chunk, use_fastexp = args
    group = SchnorrGroup(p=p, q=q, g=g)
    fe = InnerProductFE(group, use_fastexp=use_fastexp)
    out = []
    for idx, alpha, betas in chunk:
        ct = Ciphertext(alpha=alpha, betas=tuple(betas))
        out.append((idx, fe.eval_elements(ct, s_vectors, f_keys)))
    return out


def _unmask_chunk(args) -> List[Tuple[int, int]]:
    p, q, g, bound, chunk = args
    group = SchnorrGroup(p=p, q=q, g=g)
    out = []
    for idx, g_nu_inv, gammas in chunk:
        best_cluster, best_distance = 0, None
        for cluster, gamma in enumerate(gammas):
            d2 = discrete_log(group, group.mul(gamma, g_nu_inv), bound)
            if best_distance is None or d2 < best_distance:
                best_cluster, best_distance = cluster, d2
        out.append((idx, best_cluster))
    return out


def _phase_histogram(registry):
    """The shared per-phase latency histogram (one per registry)."""
    return registry.histogram(
        "sheriff_crypto_phase_seconds",
        "Wall-clock seconds per secure k-means protocol phase",
        labelnames=("phase",),
        buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                 30.0, 60.0, 120.0),
    )


# -- top-level driver --------------------------------------------------------

@dataclass
class SecureKMeansResult:
    """Outcome of a full secure clustering run."""

    centroids: List[List[int]]
    assignments: Dict[str, int]
    iterations: int
    converged: bool
    iteration_seconds: List[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.iteration_seconds)


def run_secure_kmeans(
    points: Dict[str, Sequence[int]],
    k: int,
    value_bound: int = 100,
    group: Optional[SchnorrGroup] = None,
    rng: Optional[random.Random] = None,
    initial_centroids: Optional[Sequence[Sequence[int]]] = None,
    halt_threshold: float = 0.02,
    max_iterations: int = 15,
    n_workers: int = 1,
    use_fastexp: bool = True,
    telemetry=None,
) -> SecureKMeansResult:
    """Run the full protocol over a set of client profiles.

    ``points`` maps client id → integer profile vector (all the same
    length, coordinates in [0, value_bound]).  Initial centroids default
    to a deterministic sample of the client points — chosen by the
    Aggregator's RNG, mirroring a Forgy initialization.

    ``use_fastexp=False`` switches every party to the naive textbook
    arithmetic; the result (and the RNG draw sequence) is identical
    either way.  Pass a :class:`repro.obs.Telemetry` to record the
    ``sheriff_crypto_*`` counters and per-phase latency histograms.
    """
    if not points:
        raise ValueError("no client points")
    if k < 1:
        raise ValueError("k must be positive")
    group = group if group is not None else TEST_GROUP
    rng = rng if rng is not None else random.Random(2017)
    dims = {len(v) for v in points.values()}
    if len(dims) != 1:
        raise ValueError("all profiles must share a dimensionality")
    m = dims.pop()

    coordinator = KMeansCoordinator(group, m=m, value_bound=value_bound, rng=rng,
                                    n_workers=n_workers, use_fastexp=use_fastexp)
    aggregator = KMeansAggregator(group, coordinator, rng=rng,
                                  n_workers=n_workers, use_fastexp=use_fastexp)
    if telemetry is not None:
        from repro.crypto.obs import bind_crypto_telemetry

        bind_crypto_telemetry(telemetry)
        coordinator.bind_telemetry(telemetry)
        aggregator.bind_telemetry(telemetry)

    try:
        # Clients encrypt and go offline.
        encrypt_started = time.perf_counter()
        for client_id, point in points.items():
            client = ProfileClient(client_id, point, value_bound)
            aggregator.submit(
                client_id, client.encrypt_profile(coordinator.scheme,
                                                  coordinator.public_keys, rng)
            )
        aggregator._observe_phase("encrypt",
                                  time.perf_counter() - encrypt_started)

        if initial_centroids is None:
            ids = sorted(points)
            chosen = rng.sample(ids, min(k, len(ids)))
            initial_centroids = [list(points[c]) for c in chosen]
            while len(initial_centroids) < k:
                initial_centroids.append(list(points[rng.choice(ids)]))
        coordinator.set_centroids(initial_centroids)

        iteration_seconds: List[float] = []
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            started = time.perf_counter()
            _, changed = aggregator.assign_all()
            for cluster, (aggregate, cardinality) in aggregator.aggregate_clusters().items():
                coordinator.update_centroid(cluster, aggregate, cardinality)
            iteration_seconds.append(time.perf_counter() - started)
            if changed / len(points) <= halt_threshold:
                converged = True
                break

        return SecureKMeansResult(
            centroids=[list(c) for c in coordinator.centroids],
            assignments=dict(aggregator.assignments),
            iterations=iterations,
            converged=converged,
            iteration_seconds=iteration_seconds,
        )
    finally:
        aggregator.close()
        coordinator.close()
