"""Sharded multi-device SpMV engine.

:class:`ShardedSpMV` partitions a matrix into P tile-snapped shards —
1D row blocks (:func:`~repro.dist.partition.partition_rows`) or a 2D
R x C tile grid (:func:`~repro.dist.partition.partition_grid`) — and
prepares one :class:`~repro.core.tilespmv.TileSpMV` plan per shard.
All shards may share one :class:`~repro.core.plancache.PlanCache`,
which is lock-protected for exactly this, and row-disjoint products
execute concurrently through a
:class:`~concurrent.futures.ThreadPoolExecutor`.  The shard kernels are
each engine's CSR operand (scipy matvecs) and numpy gathers, which
release the GIL, so on a multi-core host the shards genuinely overlap;
the modelled multi-GPU story comes from
:meth:`multi_device_cost`, whose
:class:`~repro.gpu.costmodel.MultiDeviceRunCost` makespan combines each
shard's kernel time with the interconnect traffic the partitioner
measured (x window in, y block out, partial-y tree reduction for column
cuts).

Execution degrades to a sequential loop whenever the telemetry tracer
or a **GPU-substrate** fault-injection campaign
(:mod:`repro.gpu.faults`) is armed: both are deliberately
process-global and order-dependent (byte-deterministic traces, one RNG
stream), so threading them would corrupt exactly the determinism they
exist to provide.  Shard-level campaigns (:mod:`repro.dist.faults`)
derive every fault from ``(seed, device, attempt)`` instead of a
consumed stream, so they run on the real concurrent path — the
recovery ladder in :mod:`repro.dist.recovery` is exercised under the
same threading it must survive in production.  Results are identical
either way — concurrency never decides a combine order (see below).

Exactness: shard boundaries never split a 16 x 16 tile, so each shard's
plan is the unsharded plan restricted to its block — same tile
decomposition, same per-tile format selection, same DeferredCOO
extraction, same decode order.  For the fixed strategies
(``csr``/``adpt``/``deferred_coo``) every product is **bit-for-bit**
the single-engine product, on every grid shape:

* Row-disjoint outputs (:meth:`spmv`/:meth:`spmm` on 1D partitions or
  single-column grids) concatenate shard blocks — trivially exact.
* Overlapping outputs (column-cut :meth:`spmv`/:meth:`spmm`, every
  :meth:`spmv_transpose`) run the **replay operand**: per half, the
  shards' cached CSR operands stacked in grid order into one
  whole-matrix operand.  Tile-snapped cuts keep each row's entries in
  the single-device order, so ``op @ x`` and ``op @ X`` are the
  single-device products, and ``op.T @ x`` is the single-device
  transpose (scipy's CSC matvec sums each column in ascending row
  order, the canonical transpose order).  Its structure is built once
  per plan; its values are refilled after :meth:`update_values`.
* Calls with a shard-level or GPU-substrate campaign armed, and the
  recovery ladder's verified streams, instead take **ordered
  contribution replay** (:meth:`replay_contribs`,
  :meth:`replay_spmm_streams`): the shards hand over their
  canonical-order ``(index, value)`` streams
  (:meth:`~repro.core.tilespmv.TileSpMV.decode_streams`), which the
  campaign corrupts, and one accumulation pass per half in grid order
  replays the exact single-device summation sequence.  A transposed
  replay puts each shard's streams in (col, row) order with the
  engine's cached permutation
  (:meth:`~repro.core.tilespmv.TileSpMV.transpose_orders`).  The
  process backend's worker path replays the same way.  Summing rounded
  per-shard partials could never do this — float addition is not
  associative.

``auto`` may arbitrate ADPT vs DeferredCOO differently per shard (that
is its job), which rules replay out; its partial vectors are combined
by the fixed-shape binary tree (:func:`~repro.dist.reduce.tree_reduce`)
instead, whose pairing order is a pure function of the grid shape —
never of thread completion order — so ``auto`` results are still
byte-stable across runs and worker counts, just not bit-equal to the
single-device ``auto`` engine.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core.plancache import PlanCache
from repro.core.storage import stream_structure
from repro.core.tilespmv import METHODS, TileSpMV
from repro.dist import faults as shard_faults
from repro.dist.partition import (
    GridPartition,
    RowPartition,
    default_grid,
    partition_grid,
    partition_rows,
)
from repro.dist.reduce import replay_reduce, tree_reduce
from repro.formats import FormatID
from repro.gpu import faults
from repro.gpu.costmodel import MultiDeviceRunCost, RunCost
from repro.gpu.device import A100, DeviceSpec
from repro.reliability.validation import ValidationPolicy, canonicalize_csr

__all__ = ["ShardedSpMV", "modelled_shard_sweep", "best_shard_count"]


def sum_halves(ys: list[np.ndarray], shape) -> np.ndarray:
    """Combine per-half results the way the single engine does.

    ``ys`` holds the present halves in (tiled, deferred) order; the
    deferred half is added into the tiled one (``yt += yd``), and no
    present half gives zeros of ``shape``.
    """
    if not ys:
        return np.zeros(shape)
    y = ys[0]
    for other in ys[1:]:
        y += other
    return y


def _coerce_grid(grid, shards: int) -> tuple[int, int] | None:
    """Normalise the ``grid`` argument: None, "auto", int, or (R, C)."""
    if grid is None:
        return None
    if grid == "auto":
        return default_grid(shards)
    if isinstance(grid, int):
        return default_grid(grid)
    r, c = int(grid[0]), int(grid[1])
    if r < 1 or c < 1:
        raise ValueError(f"grid must be >= 1 on both axes, got {grid!r}")
    return (r, c)


class ShardedSpMV:
    """A sparse matrix partitioned into P shards, one plan each.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; canonicalized once, then sliced into
        shards by cheap ``indptr`` arithmetic (no per-shard sort).
    shards:
        Shard count P.  ``shards=1`` is a working single-device engine
        with zero modelled interconnect traffic.  Ignored when ``grid``
        names an explicit shape.
    method:
        TileSpMV strategy per shard.  Default ``adpt`` (not ``auto``):
        fixed strategies keep the sharded product bit-for-bit equal to
        the unsharded one, while ``auto`` may legitimately pick
        different strategies per shard.
    grid:
        2D partition shape: an explicit ``(R, C)``, ``"auto"`` (the
        most-square factorization of ``shards``), or an integer to
        factor.  ``None`` (default) keeps the 1D row partition.  With
        ``C > 1`` each shard's x window is bounded by its column block
        — the scattered-graph broadcast fix — at the price of a
        partial-y reduction per row block.
    plan_cache:
        Optional shared :class:`~repro.core.plancache.PlanCache`; each
        shard's structural fingerprint is looked up/stored individually.
    max_workers:
        Thread count for concurrent execution (default: one per shard).
    validation:
        Canonicalization policy for the input gate (applied once, before
        partitioning; shards are built with ``trust``).
    backend:
        ``"thread"`` (default) executes shards on the inherited
        thread-pool path; ``"process"`` dispatches construction to
        :class:`~repro.dist.procpool.ProcessShardedSpMV`, whose shards
        run in supervised worker processes over shared memory.
    **tile_kwargs:
        Forwarded to every shard's :class:`TileSpMV` (``tile``,
        ``selection``, ``tbalance``, ``params``, ``auto_device``).
    """

    _process_capable = False

    def __new__(cls, *args, backend: str = "thread", **kwargs):
        if backend == "process" and cls is ShardedSpMV:
            from repro.dist.procpool import ProcessShardedSpMV

            return super().__new__(ProcessShardedSpMV)
        return super().__new__(cls)

    def __init__(
        self,
        matrix: sp.spmatrix,
        shards: int = 2,
        method: str = "adpt",
        tile: int = 16,
        plan_cache: PlanCache | None = None,
        max_workers: int | None = None,
        validation: ValidationPolicy | str = ValidationPolicy.REPAIR,
        grid: tuple[int, int] | str | int | None = None,
        device_ranks: list[int] | None = None,
        backend: str = "thread",
        **tile_kwargs,
    ) -> None:
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        if backend == "process" and not type(self)._process_capable:
            raise ValueError(
                "backend='process' is only supported on ShardedSpMV itself "
                "(the process backend carries its own supervisor ladder); "
                f"{type(self).__name__} runs on the thread backend"
            )
        self.backend = backend
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {method!r}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.method = method
        self.plan_cache = plan_cache
        self.grid = _coerce_grid(grid, shards)
        if self.grid is not None:
            shards = self.grid[0] * self.grid[1]
        with tele.span("canonicalize", cat="build", policy=str(validation)):
            csr, self.validation_report = canonicalize_csr(matrix, validation)
        self._m, self._n = csr.shape
        self._nnz = int(csr.nnz)
        # The prepared pattern, for update_values' pattern check.
        self._indptr, self._indices = csr.indptr, csr.indices
        self.partition: RowPartition | GridPartition
        if self.grid is None:
            self.partition = partition_rows(csr, shards, tile)
        else:
            self.partition = partition_grid(csr, self.grid, tile)
        self.engines: list[TileSpMV] = []
        # Per-shard gather into the canonical CSR value array, for the
        # update_values routing.  1D shards own contiguous slices; grid
        # cells own a scattered subset of their row block's entries.
        self._nnz_idx: list[np.ndarray] | None = None
        indptr = np.asarray(csr.indptr, dtype=np.int64)
        with tele.span("sharded_build", cat="build", shards=shards, nnz=self._nnz):
            if self.grid is None:
                for s in self.partition.shards:
                    block = sp.csr_matrix(
                        (
                            csr.data[s.nnz_lo:s.nnz_hi],
                            csr.indices[s.nnz_lo:s.nnz_hi],
                            csr.indptr[s.row_lo:s.row_hi + 1] - csr.indptr[s.row_lo],
                        ),
                        shape=(s.rows, self._n),
                    )
                    self._build_engine(s, block, tile, **tile_kwargs)
            else:
                self._nnz_idx = []
                for s in self.partition.shards:
                    lo, hi = int(indptr[s.row_lo]), int(indptr[s.row_hi])
                    cols = csr.indices[lo:hi]
                    sel = np.arange(lo, hi, dtype=np.int64)[
                        (cols >= s.col_lo) & (cols < s.col_hi)
                    ]
                    self._nnz_idx.append(sel)
                    local_rows = np.searchsorted(indptr, sel, side="right") - 1 - s.row_lo
                    block_indptr = np.concatenate(
                        [[0], np.cumsum(np.bincount(local_rows, minlength=s.rows))]
                    ).astype(np.int64)
                    block = sp.csr_matrix(
                        (
                            csr.data[sel],
                            csr.indices[sel] - s.col_lo,
                            block_indptr,
                        ),
                        shape=(s.rows, s.block_cols),
                    )
                    self._build_engine(s, block, tile, **tile_kwargs)
        self.build_seconds = sum(e.build_seconds for e in self.engines)
        self.arbitration_seconds = sum(e.arbitration_seconds for e in self.engines)
        self.preprocessing_seconds = self.build_seconds + self.arbitration_seconds
        self._executor: ThreadPoolExecutor | None = None
        self._max_workers = max_workers or len(self.engines)
        # Model-device identity per shard: the shard-level fault model
        # and the recovery ladder's quarantine bookkeeping key on the
        # *device rank*, which survives a repartition (the recovery
        # engine rebuilds over the P-1 survivor ranks), while shard
        # indices are renumbered.
        if device_ranks is not None and len(device_ranks) != len(self.engines):
            raise ValueError(
                f"device_ranks must name one device per shard, got "
                f"{len(device_ranks)}/{len(self.engines)}"
            )
        self.device_ranks = (
            list(device_ranks)
            if device_ranks is not None
            else list(range(len(self.engines)))
        )
        # Per-shard execution counter: incremented on every shard task
        # (product, stream collection).  Doubles as the fault model's
        # attempt number and as the recovery suite's proof that a
        # localized retry re-executed *only* the faulty shard.
        self.shard_exec_counts = [0] * len(self.engines)
        # Modelled straggler seconds accumulated per shard (virtual
        # clock; the recovery ladder charges them to its deadline).
        self.shard_delay_s = [0.0] * len(self.engines)
        # The replay operand (see _replay_operand): per half, the stack
        # structure (kept for the plan's life) and the operands (dropped
        # by update_values, refilled on the next overlapping product).
        self._stack: list | None = None
        self._operand: list | None = None
        if tele.ENABLED:
            tele.count("sharded_builds_total", shards=shards, method=method)
            tele.set_gauge("sharded_imbalance", self.partition.imbalance())

    def _build_engine(self, s, block: sp.csr_matrix, tile: int, **tile_kwargs) -> None:
        with tele.span("shard_build", cat="build", shard=s.index,
                       rows=s.rows, nnz=s.nnz):
            self.engines.append(
                TileSpMV(
                    block, method=self.method, tile=tile,
                    plan_cache=self.plan_cache, validation="trust",
                    **tile_kwargs,
                )
            )

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self._m, self._n)

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def shards(self) -> int:
        return self.partition.p

    @property
    def grid_cols(self) -> int:
        """Column blocks of the partition (1 for 1D row sharding)."""
        return self.grid[1] if self.grid is not None else 1

    @property
    def grid_rows(self) -> int:
        """Row blocks of the partition (= shards for 1D row sharding)."""
        return self.grid[0] if self.grid is not None else self.partition.p

    @property
    def plan_keys(self) -> list[str]:
        """Every shard's structural fingerprint (empty without a cache)."""
        return [e.plan_key for e in self.engines if e.plan_key is not None]

    @property
    def plan_key(self) -> str | None:
        """One fingerprint for the whole sharded plan.

        A digest over the per-shard fingerprints plus the shard count
        and grid shape — the serving layer keys circuit breakers and
        cache-warm probes on this.  ``None`` without a plan cache, like
        ``TileSpMV``.
        """
        keys = self.plan_keys
        if not keys:
            return None
        h = hashlib.blake2b(digest_size=16)
        if self.grid is None:
            h.update(f"sharded:{self.shards}".encode())
        else:
            h.update(f"sharded:{self.shards}:{self.grid[0]}x{self.grid[1]}".encode())
        for k in keys:
            h.update(k.encode())
        return h.hexdigest()

    @property
    def resolved_methods(self) -> list[str]:
        """Per-shard strategy after ``auto`` arbitration."""
        return [e.method for e in self.engines]

    # -- execution ---------------------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self._max_workers, len(self.engines)),
                thread_name_prefix="shard",
            )
        return self._executor

    def _sequential(self) -> bool:
        """Thread only when process-global state cannot be corrupted.

        The telemetry tracer (virtual clock, ordered span stack) and the
        **GPU-substrate** fault injector (single RNG stream consumed in
        execution order) are process-global by design; running shards
        concurrently under either would destroy the byte-determinism
        they guarantee.  A shard-level campaign
        (:mod:`repro.dist.faults`) deliberately does **not** force the
        sequential loop: its faults are pure functions of
        ``(seed, device, attempt)``, schedule-independent by
        construction, so campaigns exercise the real concurrent path.
        """
        return (
            len(self.engines) == 1
            or self._max_workers == 1
            or tele.ENABLED
            or faults.active_injector() is not None
        )

    def shard_call(self, op: str, s, engine, fn):
        """One shard execution through the shard-level fault hooks.

        Increments the shard's execution counter (= the fault model's
        attempt number), then consults the armed
        :class:`~repro.dist.faults.ShardFaultInjector`, if any: the
        device may be lost (raises
        :class:`~repro.dist.faults.DeviceLostError`), straggle
        (modelled delay recorded in :attr:`shard_delay_s`), or hand
        back a corrupted partial.  Halo corruption hits inside
        :meth:`_x_block` / the stream gather, where the x window is
        actually sliced.  The recovery ladder calls this directly to
        re-execute exactly one shard.
        """
        attempt = self.shard_exec_counts[s.index]
        self.shard_exec_counts[s.index] = attempt + 1
        inj = shard_faults.active_injector()
        if inj is None:
            return fn(s, engine)
        rank = self.device_ranks[s.index]
        inj.raise_if_lost(rank, attempt)
        delay = inj.straggler_delay(rank, attempt)
        if delay:
            self.shard_delay_s[s.index] += delay
        out = fn(s, engine)
        if isinstance(out, np.ndarray):
            out = inj.corrupt_partial(rank, attempt, out)
        return out

    def _run_shards(self, op: str, fn) -> list[np.ndarray]:
        """Apply ``fn(shard, engine)`` per shard, concurrently when safe.

        Results come back in shard order regardless of completion order,
        so every combine downstream sees a schedule-independent input.
        Every task routes through :meth:`shard_call`, so the shard-level
        fault hooks apply on both the sequential and concurrent paths.
        """
        pairs = list(zip(self.partition.shards, self.engines))
        if self._sequential():
            parts = []
            for s, engine in pairs:
                with tele.span("shard_execute", cat="kernel", op=op,
                               shard=s.index, rows=s.rows, nnz=s.nnz):
                    parts.append(self.shard_call(op, s, engine, fn))
            return parts
        return list(
            self._pool().map(lambda pair: self.shard_call(op, *pair, fn), pairs)
        )

    def _col_offset(self, s) -> int:
        """Global column of the shard block's first column (0 for 1D)."""
        return s.col_lo if self.grid is not None else 0

    def _x_block(self, s, x: np.ndarray) -> np.ndarray:
        """The slice of x a shard's engine consumes.

        An armed shard-level campaign corrupts the window here — the
        modelled halo exchange is exactly this slice crossing the
        interconnect.  The corrupted copy is private to the shard; the
        caller's ``x`` is never mutated.
        """
        blk = x[s.col_lo:s.col_hi] if self.grid is not None else x
        inj = shard_faults.active_injector()
        if inj is not None:
            attempt = max(self.shard_exec_counts[s.index] - 1, 0)
            blk = inj.corrupt_halo(self.device_ranks[s.index], attempt, blk)
        return blk

    def _shard_raw_streams(self, s, e):
        """One shard's decode streams, through the partial-fault hook.

        Per half either ``None`` or ``(rows, cols, vals)`` in the
        shard's local coordinates.  An armed shard-level campaign
        corrupts the value stream — the shard's contribution *is* its
        partial under replay reduction, so this is what "corrupted
        shard partial" means on the replay path.
        """
        inj = shard_faults.active_injector()
        attempt = max(self.shard_exec_counts[s.index] - 1, 0)
        out = []
        for salt, stream in zip(("tiled", "deferred"), e.decode_streams()):
            if stream is None:
                out.append(None)
                continue
            rows, cols, vals = stream
            if inj is not None:
                vals = inj.corrupt_partial(
                    self.device_ranks[s.index], attempt, vals, salt=salt
                )
            out.append((rows, cols, vals))
        return tuple(out)

    def _stream_contrib(self, s, e, x: np.ndarray, transpose: bool):
        """One shard's replay contribution: per half, (idx, x_gather, vals).

        Indices are global output positions; the gather is the slice of
        ``x`` the shard's entries touch (halo-corruptible, like
        :meth:`_x_block`).  Called inside :meth:`shard_call` so the
        device-loss/straggler hooks and the execution counter apply.
        """
        inj = shard_faults.active_injector()
        attempt = max(self.shard_exec_counts[s.index] - 1, 0)
        off = self._col_offset(s)
        orders = e.transpose_orders() if transpose else (None, None)
        out = []
        for salt, stream, o in zip(
            ("tiled", "deferred"), self._shard_raw_streams(s, e), orders
        ):
            if stream is None:
                out.append(None)
                continue
            rows, cols, vals = stream
            if transpose:
                idx, xg = off + cols, x[s.row_lo + rows]
            else:
                idx, xg = s.row_lo + rows, x[off + cols]
            if inj is not None:
                xg = inj.corrupt_halo(
                    self.device_ranks[s.index], attempt, xg, salt=salt
                )
            if transpose:
                # Canonical (col, row) accumulation order, matching the
                # single-device transpose: shards own contiguous ascending
                # row/column blocks, so grid-order concatenation of sorted
                # shard streams replays the global order per output entry.
                idx, xg, vals = idx[o], xg[o], vals[o]
            out.append((idx, xg, vals))
        return tuple(out)

    def _collect_streams(self, transpose: bool, x: np.ndarray):
        """Per-shard replay contributions, in grid order.

        One :meth:`shard_call`-guarded :meth:`_stream_contrib` per
        shard.  Streams are read live from the engines at call time — a
        preceding :meth:`update_values` swapped the value arrays, not
        the structure.
        """
        return [
            self.shard_call(
                "stream_collect", s, e,
                lambda s_, e_: self._stream_contrib(s_, e_, x, transpose),
            )
            for s, e in zip(self.partition.shards, self.engines)
        ]

    def replay_contribs(self, contribs, length: int, transpose: bool) -> np.ndarray:
        """Combine per-shard contributions by ordered replay (bit-for-bit).

        Concatenating the shards' canonical-order streams in grid order
        reconstructs, per output entry, the exact accumulation sequence
        of the single-device kernels (tile-major for the tiled half,
        CSR-entry order for the deferred half); one
        :func:`~repro.dist.reduce.replay_reduce` pass per half then
        replays the same left-to-right summation, and the halves combine
        by the same branch the single engine uses.  A GPU-substrate fault
        campaign corrupts the concatenated value stream exactly once per
        half, mirroring the unsharded kernels.  The recovery ladder calls
        this with its *verified* contribution list, so a recovered
        product replays the same clean streams.
        """
        inj = faults.active_injector()
        ys = []
        for half in (0, 1):
            parts = [c[half] for c in contribs if c[half] is not None]
            if not parts:
                continue
            idx, xg, vals = (np.concatenate(arrs) for arrs in zip(*parts))
            # The single-device tiled kernel injects on spmv only.
            if inj is not None and half == 0 and not transpose:
                vals = inj.corrupt_payload(vals, kind="tile_payload")
            w = vals * xg
            if inj is not None and half == 1:
                w = inj.corrupt_payload(w, kind="csr5_payload")
            ys.append(replay_reduce([(idx, w)], length))
        return sum_halves(ys, length)

    def _replay(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Bit-for-bit overlapping product of a fixed strategy.

        Fault-free calls run the replay operand (:meth:`_replay_operand`)
        per half — ``op @ x``, ``op @ X`` or ``op.T @ x`` — and still
        advance every shard's execution counter once, so fault-model
        attempt numbers never depend on which path ran.  An armed
        campaign corrupts fresh per-shard streams, so those calls
        collect the streams and replay them (:meth:`replay_contribs`,
        :meth:`replay_spmm_streams`).
        """
        length = self._n if transpose else self._m
        if (
            shard_faults.active_injector() is not None
            or faults.active_injector() is not None
        ):
            if x.ndim == 2:
                streams = [
                    self.shard_call("stream_collect", s, e, self._shard_raw_streams)
                    for s, e in zip(self.partition.shards, self.engines)
                ]
                return self.replay_spmm_streams(streams, x)
            return self.replay_contribs(self._collect_streams(transpose, x),
                                        length, transpose)
        for i in range(len(self.engines)):
            self.shard_exec_counts[i] += 1
        ys = [
            np.asarray(op.T @ x if transpose else op @ x)
            for op in self._replay_operand()
            if op is not None
        ]
        return sum_halves(ys, (length,) + x.shape[1:])

    def _shard_operands(self, half: int) -> list:
        """Per shard, ``None`` or one half's cached CSR ``(indptr, indices, data)``.

        Shard-local coordinates: the tiled half's
        :class:`~repro.core.storage.TileMatrix` operand, or the deferred
        engine's CSR arrays — the :meth:`TileSpMV.decode_streams` entries,
        each row in the order its single-device kernel sums it.
        """
        out = []
        for e in self.engines:
            stream = e.decode_streams()[half]
            if stream is None:
                out.append(None)
            else:
                op = e.tiled._op if half == 0 else e.deferred_engine
                out.append((op.indptr, op.indices, op.data))
        return out

    def _stack_structure(self, parts: list) -> tuple | None:
        """``(indptr, indices, gather)`` of one half's whole-matrix stack.

        The stack lists each global row's entries cell by cell in grid
        order, each cell's row in its operand order.  Cells split rows
        only at tile boundaries, so that is the single-device operand's
        row order.  ``gather`` maps stack slots to positions in the
        grid-order concatenation of the shards' ``data``.  Row-disjoint
        partitions (1D, C=1 grids) stack row blocks whole: the stack is
        that concatenation, and ``gather`` is ``None``.
        """
        live = [(s, p) for s, p in zip(self.partition.shards, parts) if p is not None]
        if not live:
            return None
        nnz = sum(p[1].size for _, p in live)
        dtype = np.int32 if max(self._m, self._n, nnz) < 2**31 else np.int64
        if self.grid_cols == 1:
            row_nnz = np.zeros(self._m, dtype=np.int64)
            for s, (indptr, _, _) in live:
                row_nnz[s.row_lo:s.row_hi] = np.diff(indptr)
            indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(dtype)
            indices = np.concatenate([p[1] for _, p in live]).astype(dtype, copy=False)
            return indptr, indices, None
        rows = np.concatenate([
            s.row_lo + np.repeat(np.arange(s.rows), np.diff(p[0])) for s, p in live
        ])
        cols = np.concatenate([s.col_lo + p[1] for s, p in live])
        structure = stream_structure(rows, cols, self.shape)
        return structure.indptr, structure.indices, structure.data

    def _replay_operand(self) -> list:
        """Per half (tiled, deferred), ``None`` or the whole-matrix operand.

        The shards' cached operands stacked in grid order
        (:meth:`_stack_structure`): within each row it holds the
        single-device order, so ``op @ x`` and ``op @ X`` are bit-for-bit
        the single-device products, and ``op.T @ x`` too — scipy's CSC
        matvec sums each column in ascending row order, the canonical
        transpose order.  The structure is built once per plan; the
        values are refilled on the first product after
        :meth:`update_values`.  Only the fault-free path builds or runs
        it, so it never holds corrupted values.
        """
        if self._operand is None:
            if self._stack is None:
                self._stack = [
                    self._stack_structure(self._shard_operands(h)) for h in (0, 1)
                ]
            ops = []
            for half, stack in enumerate(self._stack):
                if stack is None:
                    ops.append(None)
                    continue
                indptr, indices, gather = stack
                vals = np.concatenate(
                    [p[2] for p in self._shard_operands(half) if p is not None]
                )
                if gather is not None:
                    vals = vals[gather]
                ops.append(sp.csr_matrix((vals, indices, indptr), shape=self.shape))
            self._operand = ops
        return self._operand

    def replay_spmm_streams(self, streams, x: np.ndarray) -> np.ndarray:
        """Combine per-cell raw streams into the batched product.

        Per row block, the cells' streams assemble one CSR operand per
        half — scipy's stable COO->CSR conversion keeps each row's
        entries in grid order, which is exactly the (row, col) order the
        single-device operand holds, so each block product equals the
        corresponding row slice of the unsharded :meth:`TileSpMV.spmm`
        bit-for-bit.  A half present anywhere but empty in this row
        block gets a zero operand that still joins the final add,
        preserving the reference's bit pattern.  An armed GPU-substrate
        campaign corrupts each operand's concatenated values.  Like
        :meth:`replay_contribs`, the recovery ladder feeds this its
        verified stream list.
        """
        inj = faults.active_injector()
        part: GridPartition = self.partition
        grid_r, grid_c = part.grid
        k = x.shape[1]
        has_half = [any(st[half] is not None for st in streams) for half in (0, 1)]
        kinds = ("tile_payload", "csr5_payload")
        out = []
        for r in range(grid_r):
            rows_r = int(part.row_bounds[r + 1] - part.row_bounds[r])
            cells = range(r * grid_c, (r + 1) * grid_c)
            ys = []
            for half in (0, 1):
                if not has_half[half]:
                    continue
                live = [(part.shards[i], streams[i][half]) for i in cells
                        if streams[i][half] is not None]
                if live:
                    v = np.concatenate([st[2] for _, st in live])
                    if inj is not None:
                        v = inj.corrupt_payload(v, kind=kinds[half])
                    rows = np.concatenate([st[0] for _, st in live])
                    cols = np.concatenate([s.col_lo + st[1] for s, st in live])
                    op = sp.csr_matrix((v, (rows, cols)), shape=(rows_r, self._n))
                else:
                    op = sp.csr_matrix((rows_r, self._n))
                ys.append(np.asarray(op @ x))
            out.append(sum_halves(ys, (rows_r, k)))
        return np.concatenate(out, axis=0) if out else np.zeros((0, k))

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x.

        Row-disjoint partitions (1D, or C=1 grids) concatenate the
        shard blocks, computed concurrently.  Column-cut grids combine
        overlapping partials: the replay operand for the fixed
        strategies (bit-for-bit; ordered stream replay under a
        campaign), the fixed-shape tree per row block for ``auto``
        (deterministic).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"x must have shape ({self._n},)")
        with tele.span("sharded_spmv", cat="kernel", shards=self.shards,
                       nnz=self._nnz):
            if self.grid_cols > 1:
                if self.method == "auto":
                    parts = self._run_shards(
                        "spmv", lambda s, e: e.spmv(self._x_block(s, x))
                    )
                    c = self.grid_cols
                    y = np.concatenate(
                        [
                            tree_reduce(parts[r * c:(r + 1) * c])
                            for r in range(self.grid_rows)
                        ]
                    )
                else:
                    y = self._replay(x)
            else:
                parts = self._run_shards(
                    "spmv", lambda s, e: e.spmv(self._x_block(s, x))
                )
                y = np.concatenate(parts) if parts else np.zeros(0)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X, each shard running its native batched product.

        Same combine contract as :meth:`spmv`: concatenation when row
        blocks are disjoint, the replay operand (fixed strategies) or
        per-row-block tree (``auto``) under column cuts.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self._n:
            raise ValueError(f"X must have shape ({self._n}, k)")
        if x.shape[1] == 0:
            return np.zeros((self._m, 0))
        if x.shape[1] == 1:
            # Degenerate batch: the exact spmv combine (concatenation /
            # replay operand / tree), bit-for-bit a standalone product.
            return self.spmv(x[:, 0]).reshape(self._m, 1)
        with tele.span("sharded_spmm", cat="kernel", shards=self.shards,
                       nnz=self._nnz, k=x.shape[1]):
            if self.grid_cols > 1:
                if self.method == "auto":
                    parts = self._run_shards(
                        "spmm", lambda s, e: e.spmm(self._x_block(s, x))
                    )
                    c = self.grid_cols
                    out = np.concatenate(
                        [
                            tree_reduce(parts[r * c:(r + 1) * c])
                            for r in range(self.grid_rows)
                        ],
                        axis=0,
                    )
                else:
                    out = self._replay(x)
            else:
                parts = self._run_shards(
                    "spmm", lambda s, e: e.spmm(self._x_block(s, x))
                )
                out = (
                    np.concatenate(parts, axis=0)
                    if parts
                    else np.zeros((0, x.shape[1]))
                )
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return out

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x — bit-for-bit with the single device, at every P.

        Every shard contributes to overlapping output ranges, so this is
        always a cross-shard reduction.  Fixed strategies run the
        replay operand transposed (ordered stream replay under a
        campaign) — the exact single-device accumulation sequence, hence
        bit-for-bit equality (this used to be allclose-only when rounded
        per-shard partials were summed).  ``auto`` partials combine
        through the fixed-shape tree per column block: deterministic,
        schedule-independent, equal to rounding.  An empty partition
        contributes nothing and the result is a typed float64 zero
        vector of the full column extent.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._m,):
            raise ValueError(f"x must have shape ({self._m},)")
        with tele.span("sharded_spmv_transpose", cat="kernel",
                       shards=self.shards, nnz=self._nnz):
            if self.method == "auto":
                parts = self._run_shards(
                    "spmv_transpose",
                    lambda s, e: e.spmv_transpose(x[s.row_lo:s.row_hi]),
                )
                if self.grid is None:
                    y = tree_reduce(parts) if parts else np.zeros(self._n)
                else:
                    grid_r, grid_c = self.grid
                    y = np.concatenate(
                        [
                            tree_reduce(
                                [parts[r * grid_c + c] for r in range(grid_r)]
                            )
                            for c in range(grid_c)
                        ]
                    )
            else:
                y = self._replay(x, transpose=True)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    def update_values(self, values) -> "ShardedSpMV":
        """Stream new values through every shard's prepared plan.

        Accepts a same-pattern sparse matrix or the length-``nnz`` value
        array in canonical CSR order.  A sparse matrix must match the
        prepared ``indptr``/``indices`` exactly, as in
        :meth:`TileSpMV.update_values` (the shards only ever see value
        slices, so no shard can check it).  1D shards take their
        contiguous slice (``nnz_lo:nnz_hi``); grid cells gather their
        scattered subset of the row block's entries (the per-cell index
        map built at partition time).  Either way each shard takes the
        :meth:`TileSpMV.update_values` fast path.
        """
        if sp.issparse(values):
            csr = canonicalize_csr(values, ValidationPolicy.TRUST)[0]
            if (
                csr.shape != self.shape
                or int(csr.nnz) != self._nnz
                or not np.array_equal(csr.indptr, self._indptr)
                or not np.array_equal(csr.indices, self._indices)
            ):
                raise ValueError(
                    "sparsity pattern differs from the prepared matrix; "
                    "build a new ShardedSpMV instead of update_values"
                )
            data = np.asarray(csr.data, dtype=np.float64)
        else:
            data = np.asarray(values, dtype=np.float64)
            if data.shape != (self._nnz,):
                raise ValueError(f"expected {self._nnz} values, got {data.shape}")
        with tele.span("sharded_update_values", cat="build", shards=self.shards):
            if self._nnz_idx is not None:
                for sel, engine in zip(self._nnz_idx, self.engines):
                    engine.update_values(data[sel])
            else:
                for s, engine in zip(self.partition.shards, self.engines):
                    engine.update_values(data[s.nnz_lo:s.nnz_hi])
        # The replay operand holds the old values; its structure stays.
        self._operand = None
        return self

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
        except Exception:
            pass

    # -- accounting --------------------------------------------------------

    def run_cost(self) -> RunCost:
        """Single-device pricing: the shard kernels run back-to-back.

        This is what one device executing all shards sequentially would
        pay — the honest admission price for the serving runtime, which
        models one device.  The multi-device story is
        :meth:`multi_device_cost`.
        """
        parts = [e.run_cost() for e in self.engines]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        total.label = f"ShardedSpMV_{self.method}[P={self.shards}]"
        return total

    def spmm_cost(self, k: int) -> RunCost:
        """Single-device cost of one k-vector :meth:`spmm`."""
        cost = self.run_cost().batched(k)
        cost.label = f"ShardedSpMV_{self.method}[P={self.shards},k={k}]"
        return cost

    def multi_device_cost(self, links: int = 0) -> MultiDeviceRunCost:
        """P-device pricing: per-shard compute plus interconnect traffic.

        ``shards=1`` carries zero communication — a single device owns
        ``x`` and ``y`` outright, so its makespan equals the plain
        engine's time and modelled efficiency is 1 by construction.
        Column-cut grids additionally price the per-row-block partial-y
        tree reduction: ``ceil(log2 C)`` rounds, each a block-sized
        exchange, after which only each row block's tree root gathers
        ``y`` back.  ``links > 0`` models a shared interconnect with
        that many physical links (bandwidth contention); 0 keeps the
        legacy dedicated-link assumption.
        """
        costs = [e.run_cost() for e in self.engines]
        reduce_bytes = None
        reduce_depth = 0
        if self.shards == 1:
            halo = [0.0]
            ybytes = [0.0]
        else:
            halo = [s.halo_bytes for s in self.partition.shards]
            if self.grid_cols > 1:
                ybytes = [
                    s.y_bytes if s.c == 0 else 0.0 for s in self.partition.shards
                ]
                reduce_bytes = [s.y_bytes for s in self.partition.shards]
                reduce_depth = self.partition.reduce_depth
            else:
                ybytes = [s.y_bytes for s in self.partition.shards]
        label = f"ShardedSpMV_{self.method}[P={self.shards}"
        if self.grid is not None:
            label += f",grid={self.grid[0]}x{self.grid[1]}"
        label += "]"
        return MultiDeviceRunCost(
            shard_costs=costs,
            halo_bytes=halo,
            y_bytes=ybytes,
            label=label,
            links=links,
            reduce_bytes=reduce_bytes,
            reduce_depth=reduce_depth,
        )

    def predicted_time(self, device: DeviceSpec) -> float:
        """Modelled multi-device makespan seconds on P ``device``s."""
        return self.multi_device_cost().time(device)

    def nbytes_model(self) -> int:
        """Modelled footprint summed over all shard representations."""
        return sum(e.nbytes_model() for e in self.engines)

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Tile/nnz counts per format, merged across shards."""
        out = {f: {"tiles": 0, "nnz": 0} for f in FormatID}
        for e in self.engines:
            for fmt, h in e.format_histogram().items():
                out[fmt]["tiles"] += h["tiles"]
                out[fmt]["nnz"] += h["nnz"]
        return out

    def describe(self) -> str:
        """Human-readable summary: partition, methods, modelled scaling."""
        shape = (
            f"P={self.shards}"
            if self.grid is None
            else f"grid={self.grid[0]}x{self.grid[1]}"
        )
        lines = [
            f"ShardedSpMV[{self.method}, {shape}] "
            f"{self._m}x{self._n}, nnz={self._nnz}, "
            f"imbalance={self.partition.imbalance():.2f}",
        ]
        mdc = self.multi_device_cost()
        lines.append(
            f"modelled makespan on A100s: {mdc.time(A100) * 1e6:.1f} us "
            f"(compute {mdc.compute_time(A100) * 1e6:.1f} us, "
            f"comm {mdc.total_comm_bytes() / 1e3:.1f} KB total)"
        )
        for s, e in zip(self.partition.shards, self.engines):
            cols = (
                f" cols [{s.col_lo}, {s.col_hi})" if self.grid is not None else ""
            )
            lines.append(
                f"  shard {s.index}: rows [{s.row_lo}, {s.row_hi}){cols} "
                f"nnz={s.nnz} method={e.method} "
                f"x_window={s.x_window_cols}"
            )
        if self.plan_cache is not None:
            lines.append(self.plan_cache.describe())
        return "\n".join(lines)


def modelled_shard_sweep(
    matrix: sp.spmatrix,
    counts: tuple[int, ...] = (1, 2, 4, 8),
    device: DeviceSpec = A100,
    method: str = "adpt",
    grid: str | None = None,
    links: int = 0,
    **kwargs,
) -> list[dict]:
    """Strong-scaling table: modelled makespan/speedup/efficiency per P.

    The baseline is the P=1 engine's single-device :class:`RunCost`; each
    row prices the same matrix at one shard count, exactly how ``auto``
    prices ADPT vs DeferredCOO — build the candidates, believe the model.
    ``grid="auto"`` prices each count's most-square 2D factorization
    instead of the 1D row partition; ``links`` passes shared-link
    contention into the cost.
    """
    baseline_engine = TileSpMV(matrix, method=method, **kwargs)
    baseline = baseline_engine.run_cost()
    rows = []
    for p in counts:
        engine = ShardedSpMV(matrix, shards=p, method=method, grid=grid, **kwargs)
        mdc = engine.multi_device_cost(links=links)
        rows.append(
            {
                "shards": p,
                "grid": engine.grid,
                "makespan_s": mdc.time(device),
                "compute_s": mdc.compute_time(device),
                "comm_bytes": mdc.total_comm_bytes(),
                "halo_bytes": float(sum(mdc.halo_bytes)),
                "speedup": mdc.speedup(baseline, device),
                "efficiency": mdc.efficiency(baseline, device),
                "imbalance": engine.partition.imbalance(),
            }
        )
        engine.close()
    return rows


def best_shard_count(
    matrix: sp.spmatrix,
    counts: tuple[int, ...] = (1, 2, 4, 8),
    device: DeviceSpec = A100,
    method: str = "adpt",
    grid: str | None = None,
    links: int = 0,
    **kwargs,
) -> int:
    """The shard count with the smallest modelled makespan on ``device``."""
    rows = modelled_shard_sweep(matrix, counts, device, method, grid=grid,
                                links=links, **kwargs)
    return int(min(rows, key=lambda r: r["makespan_s"])["shards"])
