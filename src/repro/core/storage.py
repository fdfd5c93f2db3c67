"""The two-level TileSpMV storage container.

A :class:`TileMatrix` owns the level-1 tile structure (from
:mod:`repro.core.tiling`), the per-tile format assignment (from
:mod:`repro.core.selection`) and the seven format payloads (from
:mod:`repro.formats`).  At build time it decodes the payloads into
gather streams and compiles them into one CSR operand that executes
every product — the inspector-executor split: payloads are the stored
truth, the operand is the compiled kernel.

The operand keeps, within each row, the canonical tile-major order of
the decode streams, so ``op @ x`` sums each output row in exactly that
order; ``op.T @ x`` (a CSC matvec over the same arrays) sums each
output column in ascending row order, the canonical (col, row)
transpose order.  Its ``indptr``/``indices`` and the permutation
from stream to operand order are structural, built once per structure
and shared by every :meth:`TileMatrix.with_values` clone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro.core.kernels.costs import TileKernelCost, costs_for_format
from repro.core.kernels.params import KernelCostParams
from repro.core.scheduler import DEFAULT_TBALANCE, WarpSchedule, build_schedule
from repro.core.tiling import TileSet
from repro.formats import (
    FormatID,
    encode_bitmap,
    encode_coo,
    encode_csr,
    encode_dns,
    encode_dnscol,
    encode_dnsrow,
    encode_ell,
    encode_hyb,
)
from repro.gpu import faults
from repro.gpu.costmodel import RunCost
from repro.util.segments import repeat_offsets

__all__ = ["TileMatrix", "stream_operand", "stream_structure"]

_ENCODERS = {
    FormatID.CSR: encode_csr,
    FormatID.COO: encode_coo,
    FormatID.ELL: encode_ell,
    FormatID.HYB: encode_hyb,
    FormatID.DNS: encode_dns,
    FormatID.DNSROW: encode_dnsrow,
    FormatID.DNSCOL: encode_dnscol,
    FormatID.BITMAP: encode_bitmap,
}


def _decode_with_tiles(fmt: FormatID, payload) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform (format-local tile, lrow, lcol, val) decode across formats."""
    if fmt in (FormatID.CSR, FormatID.COO):
        lrow, lcol, val = payload.decode()
        t = repeat_offsets(payload.offsets)
        return t, lrow, lcol, val
    return payload.decode()


def _tile_major_order(gid_parts: list[np.ndarray]) -> np.ndarray:
    """Stable sort of the concatenated per-format decode streams by tile id."""
    return np.argsort(np.concatenate(gid_parts), kind="stable")


def stream_structure(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR structure of a ``(rows, cols)`` contribution stream.

    scipy's COO->CSR conversion is a stable counting sort by row (it
    sorts a row's columns only when they do not already ascend), so a
    stream whose rows ascend in column, like the tile-major decode
    order, keeps its order within each row.  ``data`` holds each entry's
    position in the stream: :func:`stream_operand` gathers values
    through it, and ``.tocsc().data`` (another stable counting sort)
    lists the stream positions in (col, row) order.
    """
    dtype = np.int32 if rows.size < 2**31 else np.int64
    return sp.csr_matrix((np.arange(rows.size, dtype=dtype), (rows, cols)), shape=shape)


def stream_operand(structure: sp.csr_matrix, vals: np.ndarray) -> sp.csr_matrix:
    """The executor operand: ``structure`` filled with stream-order ``vals``.

    Shares ``indptr``/``indices`` with ``structure``; only ``data`` is new.
    """
    return sp.csr_matrix(
        (vals[structure.data], structure.indices, structure.indptr),
        shape=structure.shape,
    )


@dataclass
class TileMatrix:
    """A sparse matrix in the two-level TileSpMV representation."""

    tileset: TileSet
    formats: np.ndarray  # uint8 FormatID per tile
    payloads: dict = field(default_factory=dict)  # FormatID -> payload
    tile_ids: dict = field(default_factory=dict)  # FormatID -> global tile idx
    # Precomputed gathers (set by _build_gathers).
    _y_idx: np.ndarray | None = field(default=None, repr=False)
    _x_idx: np.ndarray | None = field(default=None, repr=False)
    _vals: np.ndarray | None = field(default=None, repr=False)
    # The executor: stream_structure of the gathers (structural, shared
    # by value clones) and the operand filled from _vals.
    _structure: sp.csr_matrix | None = field(default=None, repr=False)
    _op: sp.csr_matrix | None = field(default=None, repr=False)
    # Structural maps driving the with_values fast path, built lazily on
    # the first call and shared by every value-only clone.
    _value_maps: dict | None = field(default=None, repr=False)
    _decode_perm: np.ndarray | None = field(default=None, repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        tileset: TileSet,
        formats: np.ndarray,
        hyb_widths: np.ndarray | None = None,
    ) -> "TileMatrix":
        """Encode every tile into its assigned format.

        ``hyb_widths`` (per-HYB-tile split widths) lets the DeferredCOO
        strategy pin widths decided before extraction; by default the
        paper's space search chooses them.
        """
        formats = np.asarray(formats, dtype=np.uint8)
        if formats.size != tileset.n_tiles:
            raise ValueError("one format per tile required")
        payloads: dict = {}
        tile_ids: dict = {}
        for fmt in FormatID:
            idx = np.flatnonzero(formats == fmt)
            if idx.size == 0:
                continue
            view = tileset.view.select(idx)
            if fmt == FormatID.HYB and hyb_widths is not None:
                payloads[fmt] = encode_hyb(view, widths=hyb_widths)
            else:
                payloads[fmt] = _ENCODERS[fmt](view)
            tile_ids[fmt] = idx
        self = cls(tileset=tileset, formats=formats, payloads=payloads, tile_ids=tile_ids)
        self._build_gathers()
        return self

    def _value_slot_maps(self) -> tuple[dict, np.ndarray]:
        """Structural maps from view entries to payload value slots.

        Every decoder drops its padding slots (``validate`` checks the
        decoded sizes against the level-1 counts), so the decoded stream
        is a pure permutation of the view entries.  Decoding each
        payload's *index* arrays once recovers, per format, which stored
        value slot holds which view entry; concatenated across payloads
        the same map is the permutation that refills ``_vals`` straight
        from a view-ordered value array.  Built lazily, carried into
        every :meth:`with_values` clone, never rebuilt for a fixed
        structure.
        """
        if self._value_maps is not None:
            return self._value_maps, self._decode_perm
        tile = self.tileset.tile
        view = self.tileset.view
        # View entries are sorted by (tile, lrow, lcol), so this key is
        # strictly increasing over the view — searchsorted inverts it.
        view_keys = (
            view.tile_of_entry() * (tile * tile)
            + view.lrow.astype(np.int64) * tile
            + view.lcol.astype(np.int64)
        )
        maps: dict = {}
        perm_parts, gid_parts = [], []
        for fmt, payload in self.payloads.items():
            t_local, lrow, lcol, _ = _decode_with_tiles(fmt, payload)
            gid = self.tile_ids[fmt][t_local]
            keys = gid * (tile * tile) + lrow.astype(np.int64) * tile + lcol.astype(np.int64)
            vidx = np.searchsorted(view_keys, keys)
            perm_parts.append(vidx)
            gid_parts.append(gid)
            if fmt == FormatID.HYB:
                # HYB decodes its ELL part (mask-compacted) then its COO
                # part (dense); split the map at the seam.
                n_ell = int(np.count_nonzero(payload.ell.valid))
                maps[fmt] = ("hyb", np.flatnonzero(payload.ell.valid), vidx[:n_ell], vidx[n_ell:])
            elif fmt in (FormatID.ELL, FormatID.DNS):
                maps[fmt] = ("masked", np.flatnonzero(payload.valid), vidx)
            else:
                maps[fmt] = ("dense", vidx)
        # The gathers are in canonical tile-major order (_build_gathers);
        # the view->gather-slot permutation must follow.
        perm = (
            np.concatenate(perm_parts)[_tile_major_order(gid_parts)]
            if perm_parts
            else np.zeros(0, dtype=np.int64)
        )
        self._value_maps, self._decode_perm = maps, perm
        return maps, perm

    def with_values(self, new_view_val: np.ndarray) -> "TileMatrix":
        """Same structure with new entry values — no re-encode.

        ``new_view_val`` is in the tile-sorted (tileset view) order.
        The tile decomposition, format assignment and every index array
        are shared by reference; only the payload value slots, the
        ``_vals`` gather and the operand's ``data`` are refilled, through
        the maps from :meth:`_value_slot_maps` — the ``update_values``
        fast path for iterative workloads where the sparsity pattern is
        fixed but the numbers change.  The clone shares the operand's
        structure with this matrix.  Returns a new object (cached plans
        may share the old payloads and operand).
        """
        tileset = self.tileset.with_values(new_view_val)
        new_view_val = tileset.view.val  # canonical float64, size-checked
        maps, perm = self._value_slot_maps()
        payloads: dict = {}
        for fmt, payload in self.payloads.items():
            entry = maps[fmt]
            if entry[0] == "hyb":
                _, ell_slots, ell_vidx, coo_vidx = entry
                ell_val = np.zeros_like(payload.ell.val)
                ell_val[ell_slots] = new_view_val[ell_vidx]
                payloads[fmt] = replace(
                    payload,
                    ell=replace(payload.ell, val=ell_val),
                    coo=replace(payload.coo, val=new_view_val[coo_vidx]),
                )
            elif entry[0] == "masked":
                _, slots, vidx = entry
                val = np.zeros_like(payload.val)
                val[slots] = new_view_val[vidx]
                payloads[fmt] = replace(payload, val=val)
            else:
                payloads[fmt] = replace(payload, val=new_view_val[entry[1]])
        clone = TileMatrix(
            tileset=tileset,
            formats=self.formats,
            payloads=payloads,
            tile_ids=self.tile_ids,
        )
        clone._y_idx = self._y_idx
        clone._x_idx = self._x_idx
        clone._vals = new_view_val[perm]
        clone._value_maps = maps
        clone._decode_perm = perm
        clone._structure = self._structure
        clone._op = stream_operand(self._structure, clone._vals)
        return clone

    def _build_gathers(self) -> None:
        """Precompute global (row, col, val) gathers from the payloads.

        Decoding *from the encoded arrays* (rather than keeping the
        original entries) means every SpMV result exercises the real
        format round-trip.

        The concatenated streams are put in **canonical tile-major
        order** (stable sort by global tile id; within a tile the
        format's decode order stands).  Per output row, the accumulation
        order of :meth:`spmv` is then a pure function of the tile grid —
        tiles ascend by (strip, column) — and *not* of which formats the
        selector happened to assign.  Any tile-snapped partition of the
        matrix (rows, columns, or both) decodes the identical
        per-tile sequences, so a sharded engine can replay the exact
        single-device summation order from its shards' streams.  That
        invariant is what `repro.dist` builds its bit-for-bit reduction
        on.  The operand is compiled from these streams here, once per
        structure.  Gather indices are int32 whenever the shape allows,
        halving their footprint.
        """
        ys, xs, vs, gs = [], [], [], []
        tile = self.tileset.tile
        for fmt, payload in self.payloads.items():
            t_local, lrow, lcol, val = _decode_with_tiles(fmt, payload)
            gid = self.tile_ids[fmt][t_local]
            ys.append(self.tileset.tile_rowidx[gid] * tile + lrow.astype(np.int64))
            xs.append(self.tileset.tile_colidx[gid] * tile + lcol.astype(np.int64))
            vs.append(val)
            gs.append(gid)
        idx_dtype = np.int32 if max(self.shape) < 2**31 else np.int64
        if ys:
            order = _tile_major_order(gs)
            self._y_idx = np.concatenate(ys)[order].astype(idx_dtype)
            self._x_idx = np.concatenate(xs)[order].astype(idx_dtype)
            self._vals = np.concatenate(vs)[order]
        else:
            self._y_idx = np.zeros(0, dtype=idx_dtype)
            self._x_idx = np.zeros(0, dtype=idx_dtype)
            self._vals = np.zeros(0)
        self._structure = stream_structure(self._y_idx, self._x_idx, self.shape)
        self._op = stream_operand(self._structure, self._vals)

    # -- basic properties ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.tileset.m, self.tileset.n)

    @property
    def nnz(self) -> int:
        return self.tileset.nnz

    @property
    def n_tiles(self) -> int:
        return self.tileset.n_tiles

    # -- numerics ------------------------------------------------------------

    def _operand(self) -> sp.csr_matrix:
        """The operand a product runs on.

        An armed GPU-substrate campaign corrupts the decode-order values
        (so injection draws are independent of the operand layout) and
        runs them through a throwaway operand sharing the structure; the
        cached operand never holds injected values.
        """
        inj = faults.active_injector()
        if inj is not None:
            vals = inj.corrupt_payload(self._vals, kind="tile_payload")
            if vals is not self._vals:
                return stream_operand(self._structure, vals)
        return self._op

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """y = A @ x through the tiled representation."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.tileset.n,):
            raise ValueError(f"x must have shape ({self.tileset.n},)")
        return self._operand() @ x

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        """y = A.T @ x through the tiled representation.

        The same operand runs transposed — the benefit of keeping tiles
        as 2D objects rather than row fragments.  Each output column
        accumulates in **canonical (col, row) order**: per column the
        ELL/HYB slot-major decode interleaves rows, but the operand's
        CSC view visits rows in ascending order, so the transposed
        summation is a pure function of the sparsity structure and
        reordered and sharded plans can replay it bit-for-bit.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.tileset.m,):
            raise ValueError(f"x must have shape ({self.tileset.m},)")
        return self._op.T @ x

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block of vectors (tall-skinny X).

        The natural SpMV extension for block Krylov methods: the operand
        streams its structure once for all columns, and each column sums
        in the same order as a standalone :meth:`spmv`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.tileset.n:
            raise ValueError(f"X must have shape ({self.tileset.n}, k)")
        return np.asarray(self._operand() @ x)

    def to_csr(self) -> sp.csr_matrix:
        """Reconstruct a scipy CSR matrix from the encoded payloads.

        A copy of the operand, which :func:`stream_structure` built in
        canonical form (sorted, no duplicates).
        """
        mat = self._op.copy()
        # Padding slots decode as explicit zeros in ELL/Dns; drop them so
        # the round-trip compares structurally equal to the input.
        mat.eliminate_zeros()
        return mat

    # -- accounting ------------------------------------------------------------

    def nbytes_model(self) -> int:
        """Modelled device footprint: level-1 arrays + all payloads."""
        return self.tileset.level1_nbytes_model() + sum(
            p.nbytes_model() for p in self.payloads.values()
        )

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Per-format tile and nonzero counts (Fig 7's two ratios)."""
        counts = self.tileset.view.counts()
        out: dict[FormatID, dict[str, int]] = {}
        for fmt in FormatID:
            mask = self.formats == fmt
            out[fmt] = {
                "tiles": int(mask.sum()),
                "nnz": int(counts[mask].sum()),
            }
        return out

    # -- cost model --------------------------------------------------------------

    def kernel_costs(self, params: KernelCostParams | None = None) -> dict[FormatID, TileKernelCost]:
        """Per-format kernel cost accounting (vectorised over tiles)."""
        params = params or KernelCostParams()
        eff_w = self.tileset.view.eff_w
        out = {}
        for fmt, payload in self.payloads.items():
            out[fmt] = costs_for_format(FormatID(fmt), payload, params, eff_w[self.tile_ids[fmt]])
        return out

    def run_cost(
        self,
        params: KernelCostParams | None = None,
        tbalance: int = DEFAULT_TBALANCE,
        schedule: WarpSchedule | None = None,
    ) -> RunCost:
        """Device-independent cost of one SpMV with this representation."""
        params = params or KernelCostParams()
        costs = self.kernel_costs(params)
        per_tile_cycles = np.zeros(self.n_tiles)
        payload_bytes = float(self.tileset.level1_nbytes_model())
        x_sectors = 0
        executed_flops = 0.0
        atomic_ops = 0.0
        atomic_rounds = 0.0
        for fmt, cost in costs.items():
            per_tile_cycles[self.tile_ids[fmt]] = cost.cycles
            payload_bytes += cost.payload_bytes
            x_sectors += cost.x_sectors
            executed_flops += cost.flops
            atomic_ops += cost.atomic_ops
            atomic_rounds += cost.atomic_rounds
        schedule = schedule or build_schedule(self.tileset.tile_ptr, tbalance)
        warp_cycles = schedule.warp_cycle_totals(per_tile_cycles, params.warp_overhead)
        # Boundary tile rows are shorter than ``tile``; charge split-row
        # y-combining atomics for the rows that actually exist.
        ops, rounds = schedule.cross_warp_atomics(self.tileset.row_heights())
        atomic_ops += ops
        atomic_rounds += rounds
        return RunCost(
            payload_bytes=payload_bytes,
            x_gather_bytes=float(x_sectors * 32),
            x_footprint_bytes=float(self.tileset.n * 8),
            y_write_bytes=float(schedule.n_warps * self.tileset.tile * 8),
            warp_instructions=float(warp_cycles.sum()),
            warp_cycles_max=float(warp_cycles.max()) if warp_cycles.size else 0.0,
            n_warps=schedule.n_warps,
            atomic_ops=atomic_ops,
            atomic_rounds=atomic_rounds,
            useful_flops=2.0 * self.nnz,
            executed_flops=executed_flops,
            kernel_launches=1,
            label="TileSpMV",
        )

    def cost_attribution(self, params: KernelCostParams | None = None) -> dict[FormatID, dict[str, float]]:
        """Attribute the modelled kernel work to each format.

        For every format used: share of warp cycles, payload bytes and
        raw x-gather sectors.  The per-format cycle totals answer 'which
        format is this matrix actually spending its time in' — the
        companion of :meth:`format_histogram` on the time axis.
        """
        params = params or KernelCostParams()
        costs = self.kernel_costs(params)
        total_cycles = sum(float(c.cycles.sum()) for c in costs.values()) or 1.0
        total_bytes = sum(c.payload_bytes for c in costs.values()) or 1
        out: dict[FormatID, dict[str, float]] = {}
        for fmt, cost in costs.items():
            out[FormatID(fmt)] = {
                "cycles": float(cost.cycles.sum()),
                "cycle_share": float(cost.cycles.sum()) / total_cycles,
                "payload_bytes": float(cost.payload_bytes),
                "byte_share": cost.payload_bytes / total_bytes,
                "x_sectors": float(cost.x_sectors),
            }
        return out

    # -- invariants -----------------------------------------------------------------

    def validate(self) -> None:
        """Check the storage invariants; raises ``AssertionError`` on breakage."""
        ts = self.tileset
        assert np.all(np.diff(ts.tile_ptr) >= 0), "tilePtr must be monotone"
        assert np.all(np.diff(ts.tile_nnz) > 0), "occupied tiles must be nonempty"
        assert int(ts.tile_nnz[-1]) == ts.nnz, "tileNnz must cover all entries"
        assert self.formats.size == ts.n_tiles
        covered = np.concatenate([v for v in self.tile_ids.values()]) if self.tile_ids else np.zeros(0, np.int64)
        assert covered.size == ts.n_tiles and np.unique(covered).size == ts.n_tiles, (
            "every tile must belong to exactly one format payload"
        )
        # Decoded entry counts must match the level-1 nonzero counts.
        counts = ts.view.counts()
        for fmt, payload in self.payloads.items():
            t_local, lrow, lcol, val = _decode_with_tiles(fmt, payload)
            expected = int(counts[self.tile_ids[fmt]].sum())
            assert val.size == expected, (
                f"{FormatID(fmt).name}: decoded {val.size} != level-1 {expected}"
            )
        if self._y_idx.size:  # vacuous for 0-row/0-col/0-nnz matrices
            assert self._y_idx.min() >= 0 and self._y_idx.max() < ts.m
            assert self._x_idx.min() >= 0 and self._x_idx.max() < ts.n
