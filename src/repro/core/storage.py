"""The two-level TileSpMV storage container.

A :class:`TileMatrix` owns the level-1 tile structure (from
:mod:`repro.core.tiling`), the per-tile format assignment (from
:mod:`repro.core.selection`) and the seven format payloads (from
:mod:`repro.formats`).  It is built from payloads: at build time it
decodes them into gather streams and compiles those into one CSR
operand that executes every product — the inspector-executor split.

The operand keeps, within each row, the canonical tile-major order of
the decode streams, so ``op @ x`` sums each output row in exactly that
order; ``op.T @ x`` (a CSC matvec over the same arrays) sums each
output column in ascending row order, the canonical (col, row)
transpose order.  Its ``indptr``/``indices`` and the permutation
from stream to operand order are structural, built once per structure
and shared by every :meth:`TileMatrix.with_values` clone.

After a value update the operand holds the values: a
:meth:`TileMatrix.with_values` clone takes new operand data and
nothing else, and its payloads, view values and decode-order values
are re-encoded from the operand on first read.  Products read only
the operand, so a value refresh costs one gather.
"""

from __future__ import annotations

import copy
from dataclasses import replace

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


class TileMatrix:
    """A sparse matrix in the two-level TileSpMV representation.

    Built from payloads, the operand is compiled from them.  After
    :meth:`with_values` it is the other way round: the operand holds the
    values, and the decode-order values, the tileset's view values and
    the payload value slots are derived from it on first read
    (:meth:`_reencode`) and cached.  Products never read them.
    """

    def __init__(
        self,
        tileset: TileSet,
        formats: np.ndarray,
        payloads: dict | None = None,  # FormatID -> payload
        tile_ids: dict | None = None,  # FormatID -> global tile idx
    ) -> None:
        # Structure is always current; the view values and payload value
        # slots are current only while _encoded (read them through the
        # tileset/payloads properties).
        self._tileset = tileset
        self.formats = formats
        self._payloads = {} if payloads is None else payloads
        self.tile_ids = {} if tile_ids is None else tile_ids
        self._encoded = True
        # Precomputed gathers (set by _build_gathers); decode-order values
        # are derived from the operand when None.
        self._y_idx: np.ndarray | None = None
        self._x_idx: np.ndarray | None = None
        self._decode_vals: np.ndarray | None = None
        # The executor: stream_structure of the gathers (structural, shared
        # by value clones) and the operand holding the values.
        self._structure: sp.csr_matrix | None = None
        self._op: sp.csr_matrix | None = None
        # Structural maps from view entries to payload value slots, built
        # lazily and shared by every value clone.
        self._value_maps: dict | None = None
        self._decode_perm: np.ndarray | None = None

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

    @property
    def tileset(self) -> TileSet:
        """The level-1 structure with current view values."""
        if not self._encoded:
            self._reencode()
        return self._tileset

    @property
    def payloads(self) -> dict:
        """FormatID -> payload, value slots current."""
        if not self._encoded:
            self._reencode()
        return self._payloads

    @property
    def _vals(self) -> np.ndarray:
        """The operand's values in decode-stream order."""
        if self._decode_vals is None:
            vals = np.empty_like(self._op.data)
            vals[self._structure.data] = self._op.data
            self._decode_vals = vals
        return self._decode_vals

    def _value_slot_maps(self) -> tuple[dict, np.ndarray]:
        """Structural maps from view entries to payload value slots.

        Every decoder drops its padding slots (``validate`` checks the
        decoded sizes against the level-1 counts), so the decoded stream
        is a pure permutation of the view entries.  Decoding each
        payload's *index* arrays once recovers, per format, which stored
        value slot holds which view entry; concatenated across payloads
        the same map is the permutation from view order to decode
        order.  Built lazily, carried into every :meth:`with_values`
        clone, never rebuilt for a fixed structure.
        """
        if self._value_maps is not None:
            return self._value_maps, self._decode_perm
        tile = self._tileset.tile
        view = self._tileset.view
        # View entries are sorted by (tile, lrow, lcol), so this key is
        # strictly increasing over the view — searchsorted inverts it.
        view_keys = (
            view.tile_of_entry() * (tile * tile)
            + view.lrow.astype(np.int64) * tile
            + view.lcol.astype(np.int64)
        )
        maps: dict = {}
        perm_parts, gid_parts = [], []
        for fmt, payload in self._payloads.items():
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

    def value_route(self) -> np.ndarray:
        """View position of every operand entry: ``op.data == view.val[route]``.

        Structural; :meth:`MethodPlan.value_routes
        <repro.core.plancache.MethodPlan.value_routes>` composes it into
        the one gather that refills the operand.
        """
        return self._value_slot_maps()[1][self._structure.data]

    def with_values(self, op_vals: np.ndarray) -> "TileMatrix":
        """Same structure with new values in operand order — no re-encode.

        ``op_vals`` becomes the clone's operand ``data`` (the caller
        hands over a fresh array).  The tile decomposition, format
        assignment, gathers and operand structure are shared by
        reference; the payloads and view values are re-encoded from the
        operand only when read (:meth:`_reencode`).  Returns a new
        object, so cached plans and earlier clones keep their values.
        """
        op_vals = np.asarray(op_vals, dtype=np.float64)
        if op_vals.shape != self._op.data.shape:
            raise ValueError(f"expected {self._op.data.size} values, got {op_vals.size}")
        self._value_slot_maps()  # built once here, carried into the clone
        clone = TileMatrix(self._tileset, self.formats, self._payloads, self.tile_ids)
        clone._encoded = False
        clone._y_idx, clone._x_idx = self._y_idx, self._x_idx
        clone._structure = self._structure
        clone._value_maps, clone._decode_perm = self._value_maps, self._decode_perm
        # A shallow copy shares indptr/indices without re-validating them.
        clone._op = copy.copy(self._op)
        clone._op.data = op_vals
        return clone

    def _reencode(self) -> None:
        """Refill the view values and payload value slots from the operand.

        Pure copies through the structural maps of
        :meth:`_value_slot_maps`, so the payloads hold bit for bit what a
        fresh encode of the same values would.
        """
        maps, perm = self._value_slot_maps()
        view_val = np.empty_like(self._op.data)
        view_val[perm] = self._vals
        payloads: dict = {}
        for fmt, payload in self._payloads.items():
            entry = maps[fmt]
            if entry[0] == "hyb":
                _, ell_slots, ell_vidx, coo_vidx = entry
                ell_val = np.zeros_like(payload.ell.val)
                ell_val[ell_slots] = view_val[ell_vidx]
                payloads[fmt] = replace(
                    payload,
                    ell=replace(payload.ell, val=ell_val),
                    coo=replace(payload.coo, val=view_val[coo_vidx]),
                )
            elif entry[0] == "masked":
                _, slots, vidx = entry
                val = np.zeros_like(payload.val)
                val[slots] = view_val[vidx]
                payloads[fmt] = replace(payload, val=val)
            else:
                payloads[fmt] = replace(payload, val=view_val[entry[1]])
        self._tileset = self._tileset.with_values(view_val)
        self._payloads = payloads
        self._encoded = True

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
        tile = self._tileset.tile
        for fmt, payload in self._payloads.items():
            t_local, lrow, lcol, val = _decode_with_tiles(fmt, payload)
            gid = self.tile_ids[fmt][t_local]
            ys.append(self._tileset.tile_rowidx[gid] * tile + lrow.astype(np.int64))
            xs.append(self._tileset.tile_colidx[gid] * tile + lcol.astype(np.int64))
            vs.append(val)
            gs.append(gid)
        idx_dtype = np.int32 if max(self.shape) < 2**31 else np.int64
        if ys:
            order = _tile_major_order(gs)
            self._y_idx = np.concatenate(ys)[order].astype(idx_dtype)
            self._x_idx = np.concatenate(xs)[order].astype(idx_dtype)
            self._decode_vals = np.concatenate(vs)[order]
        else:
            self._y_idx = np.zeros(0, dtype=idx_dtype)
            self._x_idx = np.zeros(0, dtype=idx_dtype)
            self._decode_vals = np.zeros(0)
        self._structure = stream_structure(self._y_idx, self._x_idx, self.shape)
        self._op = stream_operand(self._structure, self._vals)


    # -- basic properties ----------------------------------------------------

    # Structural only: none of these (nor the products below) re-encode.

    @property
    def shape(self) -> tuple[int, int]:
        return (self._tileset.m, self._tileset.n)

    @property
    def nnz(self) -> int:
        return self._tileset.nnz

    @property
    def n_tiles(self) -> int:
        return self._tileset.n_tiles

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
        if x.shape != (self.shape[1],):
            raise ValueError(f"x must have shape ({self.shape[1]},)")
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
        if x.shape != (self.shape[0],):
            raise ValueError(f"x must have shape ({self.shape[0]},)")
        return self._op.T @ x

    def spmm(self, x: np.ndarray) -> np.ndarray:
        """Y = A @ X for a dense block of vectors (tall-skinny X).

        The natural SpMV extension for block Krylov methods: the operand
        streams its structure once for all columns, and each column sums
        in the same order as a standalone :meth:`spmv`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise ValueError(f"X must have shape ({self.shape[1]}, k)")
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
        """Modelled device footprint: level-1 arrays + all payloads.

        Array sizes only, so the payloads are not re-encoded for it.
        """
        return self._tileset.level1_nbytes_model() + sum(
            p.nbytes_model() for p in self._payloads.values()
        )

    def format_histogram(self) -> dict[FormatID, dict[str, int]]:
        """Per-format tile and nonzero counts (Fig 7's two ratios)."""
        counts = self._tileset.view.counts()
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
