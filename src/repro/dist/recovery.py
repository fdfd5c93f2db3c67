"""Shard-level recovery ladder for the multi-device engine.

:class:`RecoverableShardedSpMV` is a
:class:`~repro.dist.sharded.ShardedSpMV` whose per-shard execution
points — :meth:`~repro.dist.sharded.ShardedSpMV._run_shards` and the
verified-stream :meth:`~repro.dist.sharded.ShardedSpMV._replay` — run
inside the fault-containment ladder a multi-device deployment needs,
each rung strictly cheaper than the one below it.  Products, guards
and combines stay the parent's:

1. **Localize** — every shard's contribution is verified independently
   with a per-shard Huang-Abraham column checksum
   (:class:`ShardCheck`): ``sum(y_p) = c_p . x_p`` where ``c_p`` is the
   column-sum vector of shard ``p``'s block.  A corrupted partial, a
   corrupted halo window or a lost device is attributed to exactly one
   shard; the P-1 clean shards are never re-executed.
2. **Retry** — only the faulty shard re-executes, behind deterministic
   exponential backoff (seed-derived jitter, virtual clock, optional
   deadline budget).  A transient fault costs one shard's work, not P
   shards'.
3. **Reconstruct** — with an optional parity shard armed
   (``RecoveryConfig(parity=True)``), a single persistently-lost
   row-block shard's contribution is rebuilt *without recompute*:
   the parity device holds ``A_par = sum_p shift(A_p)`` (every block
   translated to local row 0 — the Huang-Abraham checksum row extended
   to a full checksum *device*), so ``y_q = y_par - sum_{p != q}
   shift(y_p)``.  The subtraction re-rounds, so reconstruction is
   verified against a cross-device roundoff tolerance and the result is
   flagged inexact (:attr:`last_exact`) rather than silently blessed.
4. **Quarantine + repartition** — a device whose per-shard circuit
   breaker trips (``failure_threshold`` consecutive failures) is
   quarantined for good and the engine repartitions itself in place
   over the P-1 survivor ranks, then runs the product again.  Only
   this rung rebuilds the shard plans; the rebuilt product is again
   bit-for-bit the single-device one.

Exactness: rungs 1, 2 and 4 keep the sharded engine's exactness guarantee
— a recovered run equals the single-device product *exactly*, because
retried shards re-emit the same canonical streams/blocks and the
combine (concatenation or ordered replay) is unchanged.  Only parity
reconstruction (rung 3) is roundoff-grade, and it says so.

The modelled price of all of this — parity compute, parity traffic,
retry makespan, rebuild cost — lands in
:meth:`RecoverableShardedSpMV.multi_device_cost` via the recovery terms
of :class:`~repro.gpu.costmodel.MultiDeviceRunCost`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.tilespmv import TileSpMV
from repro.dist.faults import DeviceLostError
from repro.dist.sharded import ShardedSpMV
from repro.gpu.costmodel import MultiDeviceRunCost, RunCost
from repro.reliability.abft import CHECK_SLACK
from repro.serving.breaker import BreakerConfig, BreakerState, CircuitBreaker

__all__ = [
    "ShardCheck",
    "RecoveryConfig",
    "ShardRecoveryError",
    "RecoverableShardedSpMV",
]


class ShardRecoveryError(RuntimeError):
    """The ladder ran out of rungs: no survivors left to repartition."""


@dataclass(frozen=True)
class RecoveryConfig:
    """Tuning knobs of the recovery ladder.

    Attributes
    ----------
    max_shard_retries:
        Localized re-executions of one faulty shard before escalating.
    backoff_base_s / backoff_factor / backoff_jitter / backoff_seed:
        Retry ``r`` waits ``base * factor**r * (1 + jitter * u)``
        modelled seconds, where ``u`` in [0, 1) is derived from
        ``(backoff_seed, device, r)`` — deterministic, so identical
        seeds give byte-identical retry schedules at any worker count.
    deadline_s:
        Total virtual-clock budget for recovery (backoff waits plus
        straggler delays).  ``None`` is unbounded; an exhausted budget
        skips remaining retries and escalates.
    parity:
        Build the sum-of-blocks parity engine (row-disjoint partitions
        only) enabling rung 3.
    breaker:
        Per-device circuit breaker config; ``failure_threshold``
        consecutive failures quarantine the device.  The default never
        half-opens (infinite cooldown): quarantine is permanent for the
        engine's lifetime, matching the repartition semantics.
    """

    max_shard_retries: int = 2
    backoff_base_s: float = 1e-4
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    backoff_seed: int = 0
    deadline_s: float | None = None
    parity: bool = False
    breaker: BreakerConfig = field(
        default_factory=lambda: BreakerConfig(
            failure_threshold=3, cooldown_seconds=float("inf"), probe_successes=1
        )
    )


@dataclass
class ShardCheck:
    """Per-shard Huang-Abraham column checksum, in local coordinates.

    ``col_sum``/``col_abs_sum`` span the shard block's local column
    extent (the full ``n`` for 1D shards, ``block_cols`` for grid
    cells), so verification is ``sum(contribution) = col_sum . x_local``
    against the roundoff tolerance built from ``col_abs_sum`` — the
    global ABFT invariant restricted to one shard's block, which is
    what lets a detection *localize*.
    """

    col_sum: np.ndarray
    col_abs_sum: np.ndarray
    rows: int
    nnz: int

    def expected(self, x_local: np.ndarray) -> np.ndarray:
        """``c_p . x_p``: scalar for spmv, (k,) for spmm."""
        return self.col_sum @ x_local

    def tolerance(self, x_local: np.ndarray, terms: int | None = None) -> np.ndarray:
        """Roundoff bound; ``terms`` overrides the summand count (used
        with the cross-device total for parity reconstruction)."""
        scale = np.abs(x_local).T @ self.col_abs_sum
        n_terms = max(terms if terms is not None else self.nnz + self.rows, 1)
        eps = np.finfo(np.float64).eps
        return CHECK_SLACK * n_terms * eps * np.maximum(scale, 1e-300)

    def verify_sum(self, x_local: np.ndarray, observed,
                   terms: int | None = None) -> bool:
        """Does the observed contribution sum satisfy the invariant?"""
        observed = np.asarray(observed, dtype=np.float64)
        if not np.isfinite(observed).all():
            return False
        resid = np.abs(observed - self.expected(x_local))
        return bool(np.all(resid <= self.tolerance(x_local, terms)))


class _Repartitioned(Exception):
    """Internal: a quarantine rebuilt the partition; the product restarts."""


class RecoverableShardedSpMV(ShardedSpMV):
    """A :class:`ShardedSpMV` whose shard execution runs the recovery ladder.

    Construction is ``ShardedSpMV``'s (same partitioning, same per-shard
    plans, same plan cache) plus a :class:`RecoveryConfig`, on the
    thread backend only.  The products, their guards and their combines
    are the parent's; this class wraps the two points where shards
    execute.  :meth:`_run_shards` (row-disjoint and ``auto`` blocks)
    runs every shard — concurrently whenever the parent would — then
    verifies each block independently and walks the ladder for the
    failures.  :meth:`_replay` does the same for a column-cut
    fixed-method ``spmv``/``spmm``'s canonical streams, then replays
    the verified streams.  ``spmv_transpose`` passes through both
    unprotected (every shard contributes to overlapping output ranges;
    protecting it per-shard is future work, see docs/RELIABILITY.md).

    Counters (:attr:`counters`): ``shard_detected``, ``shard_retry``,
    ``shard_reconstruct``, ``device_quarantine``, ``repartitions``,
    ``verified_ok``.  :attr:`retry_log` records every localized retry —
    ``(device, shard, retry, delay_s, reason, op)`` — which is what the
    backoff-determinism suite snapshots.  :attr:`last_exact` reports
    whether the most recent product is bit-for-bit (False only after a
    parity reconstruction).
    """

    def __init__(self, matrix: sp.spmatrix, *args,
                 config: RecoveryConfig | None = None, **kwargs) -> None:
        self.config = config or RecoveryConfig()
        self.counters = {
            "shard_detected": 0,
            "shard_retry": 0,
            "shard_reconstruct": 0,
            "device_quarantine": 0,
            "repartitions": 0,
            "verified_ok": 0,
        }
        self.retry_log: list[dict] = []
        self.quarantined: list[int] = []
        self.clock = 0.0  # virtual recovery clock (backoff + stragglers)
        self.last_exact = True
        self._breakers: dict[int, CircuitBreaker] = {}
        self._rebuild_costs: list[RunCost] = []
        self._depth = 0  # repartitions within the current product
        super().__init__(matrix, *args, **kwargs)

    def _build(self, csr, grid, shards, device_ranks=None) -> None:
        """The parent's partition, plus its checksums and parity device."""
        super()._build(csr, grid, shards, device_ranks)
        self._csr = csr
        self._init_checks()
        self._build_parity()

    # -- per-shard checksums ----------------------------------------------

    def _breaker(self, rank: int) -> CircuitBreaker:
        """The device's breaker (created on first use, survives repartition)."""
        br = self._breakers.get(rank)
        if br is None:
            br = CircuitBreaker(self.config.breaker, key=f"device:{rank}")
            self._breakers[rank] = br
        return br

    def _init_checks(self) -> None:
        """One :class:`ShardCheck` per shard of the current partition."""
        data = np.asarray(self._csr.data, dtype=np.float64)
        checks = []
        for s, sel in zip(self.partition.shards, self._value_selectors()):
            cols = self._indices[sel] - self._col_offset(s)
            vals = data[sel]
            width = s.block_cols if self.grid is not None else self._n
            checks.append(
                ShardCheck(
                    col_sum=np.bincount(cols, weights=vals, minlength=width)[:width],
                    col_abs_sum=np.bincount(
                        cols, weights=np.abs(vals), minlength=width
                    )[:width],
                    rows=s.rows,
                    nnz=int(vals.size),
                )
            )
        self._checks = checks

    def _x_local(self, s, x: np.ndarray) -> np.ndarray:
        """The x window shard ``s``'s check reads (no halo fault hook)."""
        return x[s.col_lo:s.col_hi] if self.grid is not None else x

    def _build_parity(self) -> None:
        """The parity device's matrix: every row block shifted to row 0.

        Only built with ``RecoveryConfig(parity=True)`` on row-disjoint
        partitions (1D or C=1 grids); a column-cut grid silently skips
        parity — rung 3 is documented as row-block-only.
        """
        self._parity_engine = None
        self._parity_rows = 0
        if not self.config.parity or self.grid_cols > 1 or self.shards < 2:
            return
        csr = self._csr
        m, n = csr.shape
        rows = np.repeat(
            np.arange(m, dtype=np.int64), np.diff(csr.indptr).astype(np.int64)
        )
        # Translate each global row to its shard-local index.
        row_lo = np.zeros(m, dtype=np.int64)
        heights = []
        for s in self.partition.shards:
            row_lo[s.row_lo:s.row_hi] = s.row_lo
            heights.append(s.rows)
        self._parity_rows = max(heights) if heights else 0
        if self._parity_rows == 0:
            return
        local = rows - row_lo[rows] if rows.size else rows
        parity = sp.csr_matrix(
            (csr.data.astype(np.float64), (local, csr.indices)),
            shape=(self._parity_rows, n),
        )
        self._parity_engine = TileSpMV(
            parity, method=self.method, tile=self._tile,
            plan_cache=self.plan_cache, validation="trust",
            **self._tile_kwargs,
        )

    @property
    def plan_keys(self) -> list[str]:
        keys = super().plan_keys
        if self._parity_engine is not None and self._parity_engine.plan_key:
            keys.append(self._parity_engine.plan_key)
        return keys

    # -- the ladder --------------------------------------------------------

    def _backoff_delay(self, rank: int, retry: int) -> float:
        """Deterministic exponential backoff with seed-derived jitter."""
        cfg = self.config
        h = hashlib.blake2b(
            f"{cfg.backoff_seed}:backoff:{rank}:{retry}".encode(), digest_size=8
        )
        u = int.from_bytes(h.digest(), "little") / 2.0 ** 64
        return cfg.backoff_base_s * cfg.backoff_factor ** retry * (
            1.0 + cfg.backoff_jitter * u
        )

    def _charge_stragglers(self, before: list[float]) -> None:
        """Add this pass's modelled straggler makespan to the clock."""
        delta = max(
            (a - b for a, b in zip(self.shard_delay_s, before)), default=0.0
        )
        if delta > 0:
            self.clock += delta

    def _recover_shard(self, op: str, i: int, runner, checker, reason: str):
        """Rung 2: localized retry with deadline-budgeted backoff.

        Returns the verified result, or ``None`` if the shard stayed
        faulty (escalation: parity, then quarantine).
        """
        cfg = self.config
        rank = self.device_ranks[i]
        breaker = self._breaker(rank)
        self.counters["shard_detected"] += 1
        if tele.ENABLED:
            tele.count("shard_detections_total", reason=reason)
        breaker.record_failure(self.clock, reason)
        for r in range(cfg.max_shard_retries):
            if breaker.state is BreakerState.OPEN:
                break  # persistently failing: stop burning retries
            delay = self._backoff_delay(rank, r)
            if cfg.deadline_s is not None and self.clock + delay > cfg.deadline_s:
                self.retry_log.append(
                    {"device": rank, "shard": i, "retry": r, "delay_s": delay,
                     "reason": "deadline_exhausted", "op": op}
                )
                break
            self.clock += delay
            self.counters["shard_retry"] += 1
            self.retry_log.append(
                {"device": rank, "shard": i, "retry": r, "delay_s": delay,
                 "reason": reason, "op": op}
            )
            if tele.ENABLED:
                tele.count("shard_retries_total")
            with tele.span("shard_retry", cat="dist", shard=i, device=rank,
                           retry=r, op=op):
                try:
                    result = runner(i)
                except DeviceLostError:
                    reason = "device_loss"
                    breaker.record_failure(self.clock, reason)
                    continue
            if checker(i, result):
                breaker.record_success(self.clock)
                return result
            reason = "abft"
            breaker.record_failure(self.clock, reason)
        return None

    def _reconstruct(self, x, failed: int, blocks: list):
        """Rung 3: rebuild one lost row block from the parity product.

        ``blocks`` holds the P verified shard blocks (``None`` at
        ``failed``).  No recompute: the parity product was part of the
        normal pass, and the survivors' blocks are already in hand.
        Verified against the cross-device roundoff tolerance; the
        result is roundoff-grade, so :attr:`last_exact` drops.
        """
        if self._parity_engine is None:
            return None
        shards = self.partition.shards
        with tele.span("shard_reconstruct", cat="dist", shard=failed):
            par = self._parity_engine
            acc = (par.spmv(x) if x.ndim == 1 else par.spmm(x)).astype(
                np.float64, copy=True
            )
            for j, blk in enumerate(blocks):
                if j != failed and blk is not None:
                    acc[:shards[j].rows] -= blk
            y_q = acc[:shards[failed].rows]
        # Cross-device tolerance: the reconstruction sums every block's
        # roundoff, so the summand count is the whole matrix's.
        ok = self._checks[failed].verify_sum(
            self._x_local(shards[failed], x), np.sum(y_q, axis=0),
            terms=self.nnz + self.shape[0],
        )
        if not ok:
            return None
        self.counters["shard_reconstruct"] += 1
        self.last_exact = False
        if tele.ENABLED:
            tele.count("shard_reconstructs_total")
        return y_q

    def _quarantine(self, ranks: list[int]) -> None:
        """Rung 4a: retire the devices; repartition in place over the survivors."""
        for rank in ranks:
            if rank not in self.quarantined:
                self.quarantined.append(rank)
                self.counters["device_quarantine"] += 1
                if tele.ENABLED:
                    tele.count("device_quarantines_total")
                with tele.span("device_quarantine", cat="dist", device=rank):
                    pass
        survivors = [r for r in self.device_ranks if r not in self.quarantined]
        if not survivors:
            raise ShardRecoveryError(
                "every device is quarantined; no survivors to repartition over"
            )
        # Repartition 1D over the survivor count: a grid whose factor
        # no longer matches P-1 degrades canonically to row blocks.  The
        # old pool is sized for the old shards; the next product starts
        # a fresh one.
        self.close()
        self._build(self._csr, None, len(survivors), survivors)
        self.counters["repartitions"] += 1
        self._rebuild_costs.append(super().run_cost())

    def _ladder(self, op: str, x, runner, checker) -> list:
        """Run every shard, verify each, recover the failures.

        ``runner(i)`` executes shard ``i`` once (through
        :meth:`shard_call`); ``checker(i, result)`` verifies it.  The
        first pass runs through the parent's :meth:`_map_shards`, so it
        threads exactly when the parent would.  Returns the per-shard
        verified results.  When a shard stays unrecovered (and parity
        cannot rebuild it), its device is quarantined, the engine
        repartitions, and :class:`_Repartitioned` tells :meth:`spmv` /
        :meth:`spmm` to run the product again.
        """
        def first(i: int):
            try:
                return ("ok", runner(i))
            except DeviceLostError as exc:
                return ("lost", exc)

        before = list(self.shard_delay_s)
        outcomes = self._map_shards(op, first)
        self._charge_stragglers(before)
        blocks: list = [None] * self.shards
        failures: list[tuple[int, str]] = []
        for i, (status, payload) in enumerate(outcomes):
            if status == "lost":
                failures.append((i, "device_loss"))
            elif checker(i, payload):
                blocks[i] = payload
                self._breaker(self.device_ranks[i]).record_success(self.clock)
            else:
                failures.append((i, "abft"))
        for i, reason in failures:
            blocks[i] = self._recover_shard(op, i, runner, checker, reason)
        unrecovered = [i for i in range(self.shards) if blocks[i] is None]
        if not unrecovered:
            self.counters["verified_ok"] += 1
            return blocks
        # Rung 3: one lost row block, everything else verified (only
        # reachable with the parity engine armed, i.e. row-disjoint).
        if len(unrecovered) == 1:
            y_q = self._reconstruct(x, unrecovered[0], blocks)
            if y_q is not None:
                blocks[unrecovered[0]] = y_q
                # The device is still bad: quarantine it for *future*
                # calls, but this product is already complete.
                rank = self.device_ranks[unrecovered[0]]
                if self._breaker(rank).state is BreakerState.OPEN:
                    self._quarantine([rank])
                self.counters["verified_ok"] += 1
                return blocks
        # Rung 4: quarantine + repartition + full recompute on survivors.
        if self._depth >= len(self._breakers) + self.shards + 1:
            raise ShardRecoveryError(
                "recovery ladder failed to converge; matrix or substrate "
                "is persistently corrupting every repartition"
            )
        self._quarantine([self.device_ranks[i] for i in unrecovered])
        raise _Repartitioned

    # -- the wrapped execution points ----------------------------------------

    def _run_shards(self, op: str, x: np.ndarray) -> list[np.ndarray]:
        """Every shard's block, verified: :class:`ShardCheck` on its sum."""
        if op == "spmv_transpose":
            return super()._run_shards(op, x)

        def check(i: int, blk) -> bool:
            x_local = self._x_local(self.partition.shards[i], x)
            return self._checks[i].verify_sum(x_local, np.sum(blk, axis=0))

        return self._ladder(op, x, lambda i: self._shard_block(op, i, x), check)

    def _replay(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Column-cut fixed-method ``spmv``/``spmm`` from verified streams.

        Each shard hands over its canonical streams — gathered
        contributions for ``spmv`` (halo-corruptible), raw local
        streams for ``spmm`` — checked as ``sum(vals * x_gather)``
        against its :class:`ShardCheck`; the verified list replays
        through :meth:`replay_contribs` / :meth:`replay_spmm_streams`,
        bit-for-bit the single-device product.
        """
        if transpose:
            return super()._replay(x, transpose=True)
        batched = x.ndim == 2

        def check(i: int, streams) -> bool:
            x_local = self._x_local(self.partition.shards[i], x)
            observed = 0.0
            for half in streams:
                if half is None:
                    continue
                _, xg, vals = half
                if batched:
                    xg = x_local[xg]  # raw streams carry local columns
                if not (np.isfinite(xg).all() and np.isfinite(vals).all()):
                    return False
                observed = observed + vals @ xg
            return self._checks[i].verify_sum(x_local, observed)

        blocks = self._ladder("spmm" if batched else "spmv", x,
                              lambda i: self._shard_streams(i, x), check)
        if batched:
            return self.replay_spmm_streams(blocks, x)
        return self.replay_contribs(blocks, self._m, transpose=False)

    def _restarting(self, product, x):
        """``product(x)``, re-run on the rebuilt partition after a quarantine."""
        self._depth = 0
        while True:
            try:
                return product(x)
            except _Repartitioned:
                self._depth += 1

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x with per-shard verification and localized recovery."""
        self.last_exact = True
        with tele.span("recoverable_spmv", cat="dist", shards=self.shards):
            return self._restarting(super().spmv, x)

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X with per-shard verification and localized recovery."""
        x = np.asarray(x, dtype=np.float64)
        self.last_exact = True
        with tele.span("recoverable_spmm", cat="dist", shards=self.shards,
                       k=x.shape[1] if x.ndim == 2 else None):
            return self._restarting(super().spmm, x)

    def _apply_values(self, data: np.ndarray) -> None:
        """The parent's value routing, then re-arm checks and parity.

        Keeps a copy of ``data``: the caller may reuse its array.
        """
        super()._apply_values(data)
        self._csr = sp.csr_matrix(
            (data.copy(), self._indices, self._indptr), shape=self.shape
        )
        self._init_checks()
        self._build_parity()

    # -- accounting --------------------------------------------------------

    def run_cost(self) -> RunCost:
        """Single-device pricing of the protected engine (parity included)."""
        cost = super().run_cost()
        if self._parity_engine is not None:
            cost = cost + self._parity_engine.run_cost()
        cost.label = f"RecoverableShardedSpMV_{self.method}[P={self.shards}]"
        return cost

    def spmm_cost(self, k: int) -> RunCost:
        cost = self.run_cost().batched(k)
        cost.label = (
            f"RecoverableShardedSpMV_{self.method}[P={self.shards},k={k}]"
        )
        return cost

    def nbytes_model(self) -> int:
        total = super().nbytes_model()
        if self._parity_engine is not None:
            total += self._parity_engine.nbytes_model()
        return total

    def multi_device_cost(self, links: int = 0) -> MultiDeviceRunCost:
        """P-device pricing including the recovery and parity terms.

        Parity adds the checksum device's compute plus the pairwise
        parity traffic (every shard's padded block crossing one link);
        the retry terms replay this engine's actual recovery history
        (recorded backoff waits + the retried shards' kernel costs), and
        the rebuild term prices each repartition's full re-execution.
        A fresh engine with no faults prices identically to the plain
        :meth:`ShardedSpMV.multi_device_cost` plus parity (if armed).
        """
        mdc = super().multi_device_cost(links=links)
        mdc.label = mdc.label.replace("ShardedSpMV", "RecoverableShardedSpMV")
        if self._parity_engine is not None:
            mdc.parity_cost = self._parity_engine.run_cost()
            mdc.parity_bytes = float(
                self.shards * self._parity_rows * self.partition.itemsize
            )
        retried = [
            ev for ev in self.retry_log if ev["reason"] != "deadline_exhausted"
        ]
        mdc.retry_backoff_s = float(sum(ev["delay_s"] for ev in retried))
        last = len(mdc.shard_costs) - 1
        mdc.retry_costs = [
            mdc.shard_costs[min(ev["shard"], last)] for ev in retried
        ] or None
        for rc in self._rebuild_costs:
            mdc.rebuild_cost = rc if mdc.rebuild_cost is None else mdc.rebuild_cost + rc
        return mdc

    def describe(self) -> str:
        c = self.counters
        lines = [super().describe()]
        lines.append(
            "recovery: "
            + ("parity armed" if self._parity_engine is not None else "no parity")
            + f", quarantined={self.quarantined}; "
            f"verified_ok={c['verified_ok']} detected={c['shard_detected']} "
            f"retries={c['shard_retry']} reconstructs={c['shard_reconstruct']} "
            f"quarantines={c['device_quarantine']} "
            f"repartitions={c['repartitions']}"
        )
        return "\n".join(lines)
