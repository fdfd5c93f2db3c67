"""Plan cache: amortise TileSpMV preprocessing across constructions.

The paper's preprocessing (tiling, per-tile format selection, payload
encoding, warp scheduling) is paid once and amortised over many SpMVs
(§III, Fig 11).  Iterative workloads push the same idea one level up:
a solver factors the *pattern* once and streams new values through it,
and a serving system sees the same matrices over and over.  The
:class:`PlanCache` is an LRU keyed by a **structural fingerprint** —
``(indptr, indices, tile, selection thresholds, tbalance)`` — holding
everything that depends on structure only:

* the :class:`~repro.core.tiling.TileSet` (tile decomposition),
* the ADPT format vector,
* the built :class:`~repro.core.storage.TileMatrix` payloads and the
  DeferredCOO split per strategy,
* the :class:`~repro.core.scheduler.WarpSchedule`.

A second ``TileSpMV`` construction with the same pattern is a cache hit
and skips re-tiling entirely; if the *values* changed, the cached plan
is refreshed through the same value routes as ``update_values``
(:meth:`MethodPlan.value_routes`: one gather per half into the
executor operand — no sort, no selection, no extraction, no payload
re-encode until a consumer reads the payloads).  Hit/miss/eviction
counters are exposed via :meth:`PlanCache.stats` / :meth:`describe` and
surfaced by the CLI and ``TileSpMV.describe``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.baselines.csr5 import Csr5SpMV
from repro.core.scheduler import WarpSchedule
from repro.core.storage import TileMatrix
from repro.core.tiling import TileSet

__all__ = [
    "PlanCache",
    "CachedPlan",
    "MethodPlan",
    "canonical_csr",
    "compose_route",
    "structural_fingerprint",
    "take_route",
    "value_digest",
]


def canonical_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """CSR with merged duplicates and sorted indices.

    The canonical form anchors both the structural fingerprint and the
    value order that ``update_values`` / plan refreshes rely on.
    """
    csr = matrix.tocsr()
    if not csr.has_sorted_indices:
        csr = csr.sorted_indices()
    return csr


def structural_fingerprint(
    csr: sp.csr_matrix, tile: int, selection, tbalance: int, extra: str = ""
) -> str:
    """Digest of everything the preprocessing depends on except values.

    Two matrices with equal fingerprints produce byte-identical tile
    structure, format vectors and schedules, so their plans are
    interchangeable up to values.  The value *dtype* is part of the key:
    a float32 matrix must not silently reuse payloads cached for a
    float64 twin of the same pattern (their value digests are computed
    after a float64 cast and can collide).  ``extra`` folds additional
    plan-shaping inputs into the key — the reorder tag and the per-tile
    format-override digest of a tuned plan — so a re-tuned plan never
    aliases the plan it was derived from (the serving layer keys
    circuit breakers and live-migration bookkeeping on this).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(
        np.array([csr.shape[0], csr.shape[1], tile, tbalance], dtype=np.int64).tobytes()
    )
    h.update(str(np.dtype(csr.dtype)).encode())
    h.update(repr(selection).encode())
    if extra:
        h.update(extra.encode())
    h.update(np.ascontiguousarray(csr.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(csr.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def value_digest(data: np.ndarray) -> str:
    """Digest of the value array (decides artifact sharing vs refresh)."""
    return hashlib.blake2b(
        np.ascontiguousarray(data, dtype=np.float64).tobytes(), digest_size=16
    ).hexdigest()


def compose_route(n: int, *steps: np.ndarray | None) -> np.ndarray | None:
    """Fold a chain of gathers into one: ``data[s0][s1]... == data[route]``.

    ``n`` is the length of ``data``; ``None`` steps are skipped.  Returns
    ``None`` when the composed gather is the identity on ``n`` entries.
    """
    route = None
    for step in steps:
        if step is not None:
            route = step if route is None else route[step]
    if route is None or (route.size == n and np.array_equal(route, np.arange(n))):
        return None
    return route


def take_route(data: np.ndarray, route: np.ndarray | None) -> np.ndarray:
    """``data[route]`` in a new array (a copy for the identity route)."""
    return data.copy() if route is None else np.take(data, route)


@dataclass
class MethodPlan:
    """Built artifacts for one resolved strategy of a plan.

    ``deferred_src`` / ``tiled_src`` (DeferredCOO only) map the two
    halves' value slots back to the full tileset's view order so a
    value refresh never re-runs selection or extraction.
    """

    method: str
    tiled: TileMatrix | None
    deferred: Csr5SpMV | None
    schedule: WarpSchedule | None
    deferred_src: np.ndarray | None = None
    tiled_src: np.ndarray | None = None
    build_seconds: float = 0.0
    _routes: tuple | None = field(default=None, repr=False)

    def value_routes(self, entry_perm: np.ndarray) -> tuple:
        """Per half (tiled, deferred), canonical CSR position -> executor order.

        The tileset's ``entry_perm``, the DeferredCOO source map and the
        tiled half's :meth:`TileMatrix.value_route
        <repro.core.storage.TileMatrix.value_route>` composed into one
        gather (:func:`compose_route`): ``csr.data[route]`` is the half's
        operand data (the tiled operand's, or the deferred CSR's).
        ``None`` for the identity or an absent half.  Structural: built
        on first use and carried into every :meth:`with_values` clone.
        """
        if self._routes is None:
            n = entry_perm.size
            self._routes = (
                None if self.tiled is None else compose_route(
                    n, entry_perm, self.tiled_src, self.tiled.value_route()
                ),
                None if self.deferred is None else compose_route(
                    n, entry_perm, self.deferred_src
                ),
            )
        return self._routes

    def with_values(self, csr_data: np.ndarray, entry_perm: np.ndarray) -> "MethodPlan":
        """Same structure, new values (canonical CSR order), one gather per half."""
        tiled_route, deferred_route = self.value_routes(entry_perm)
        return replace(
            self,
            tiled=None if self.tiled is None
            else self.tiled.with_values(take_route(csr_data, tiled_route)),
            deferred=None if self.deferred is None
            else self.deferred.with_values(take_route(csr_data, deferred_route)),
        )


@dataclass
class CachedPlan:
    """Everything reusable across constructions sharing one pattern."""

    key: str
    tileset: TileSet
    values_digest: str
    formats: np.ndarray | None = None  # ADPT selection vector (lazy)
    schedule: WarpSchedule | None = None  # full-tileset schedule (lazy)
    methods: dict = field(default_factory=dict)  # build method -> MethodPlan
    tilings_saved: int = 0  # constructions served without re-tiling

    def refresh_values(self, csr_data: np.ndarray, digest: str) -> None:
        """Swap in a new value array, keeping every structural artifact.

        Existing method artifacts are *replaced*, never mutated —
        engines holding the previous generation keep working on it.
        """
        entry_perm = self.tileset.entry_perm
        if entry_perm is None:
            raise ValueError("plan tileset lacks entry_perm; cannot refresh values")
        data = np.asarray(csr_data, dtype=np.float64)
        # The tileset's values seed any strategy built from it later.
        self.tileset = self.tileset.with_values(data[entry_perm])
        for name, mp in list(self.methods.items()):
            self.methods[name] = mp.with_values(data, entry_perm)
        self.values_digest = digest


class PlanCache:
    """LRU cache of :class:`CachedPlan` with hit/miss/eviction counters.

    Lookups, inserts and invalidations take an internal ``RLock`` so a
    sharded engine can prepare its per-shard plans from worker threads
    against one shared cache.  The lock covers the map and the counters,
    not plan construction: two threads missing on the same key may both
    build and the second ``put`` wins — wasted work, never corruption.
    """

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, CachedPlan] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: str) -> CachedPlan | None:
        """Look up a plan; counts a hit or a miss and refreshes LRU order."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                if tele.ENABLED:
                    tele.count("plan_cache_misses_total")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            plan.tilings_saved += 1
            if tele.ENABLED:
                tele.count("plan_cache_hits_total")
            return plan

    def peek(self, key: str) -> CachedPlan | None:
        """Look up a plan without touching counters or the LRU order.

        The serving runtime's degradation ladder uses this to ask "could
        this request be served from an already-built plan?" while
        deciding a tier — an admission probe, not a service, so it must
        not inflate the hit rate or refresh recency.
        """
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, plan: CachedPlan) -> None:
        """Insert (or replace) a plan, evicting the least recently used."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if tele.ENABLED:
                    tele.count("plan_cache_evictions_total")
            if tele.ENABLED:
                tele.set_gauge("plan_cache_size", len(self._entries))

    def invalidate(self, key: str) -> bool:
        """Drop one plan — e.g. artifacts a checksum failure implicated.

        Returns whether the key was present.  The reliability layer's
        retry path calls this before re-preparing, so a corrupted cached
        payload cannot poison the fresh plan.
        """
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.invalidations += 1
            if tele.ENABLED:
                tele.count("plan_cache_invalidations_total")
                tele.set_gauge("plan_cache_size", len(self._entries))
            return True

    def clear(self) -> None:
        """Drop every plan; counters keep accumulating."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"PlanCache[{s['size']}/{s['capacity']} plans] "
            f"hits={s['hits']} misses={s['misses']} evictions={s['evictions']} "
            f"hit_rate={s['hit_rate']:.0%}"
        )
