"""Tile decomposition: CSR matrix -> level-1 tile structure.

Divides the matrix into square tiles (16x16 in the paper) and builds the
three level-1 arrays of §III.B: ``tilePtr`` (offsets of each tile row's
tiles), ``tileColIdx`` (tile column index of each tile) and ``tileNnz``
(per-tile nonzero offsets).  Only *occupied* tiles are materialised.
The nonzero entries come out sorted by (tile, local row, local column),
which every format encoder relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.formats.base import TilesView
from repro.util.segments import lengths_to_offsets

__all__ = ["TileSet", "tile_decompose"]


@dataclass
class TileSet:
    """Level-1 tile structure plus the tile-sorted nonzero entries.

    Attributes
    ----------
    m, n:
        Matrix dimensions.
    tile:
        Tile edge length.
    tile_ptr:
        ``int64 (tile_rows + 1)``: per-tile-row offsets into the tile
        list (the paper's ``tilePtr``).
    tile_colidx:
        ``int64 (n_tiles,)``: tile column of each occupied tile
        (``tileColIdx``).
    tile_rowidx:
        ``int64 (n_tiles,)``: tile row of each tile (implied by
        ``tile_ptr``; kept explicit for vectorised kernels).
    view:
        All tiles' entries as a :class:`~repro.formats.base.TilesView`;
        ``view.offsets`` is the paper's ``tileNnz``.
    entry_perm:
        ``int64 (nnz,)``: permutation mapping canonical-CSR entry order
        to the tile-sorted order (``view.val == csr.data[entry_perm]``).
        This is what lets a plan with the same sparsity pattern take new
        values without re-sorting (``None`` for hand-built tile sets).
    """

    m: int
    n: int
    tile: int
    tile_ptr: np.ndarray
    tile_colidx: np.ndarray
    tile_rowidx: np.ndarray
    view: TilesView
    entry_perm: np.ndarray | None = None

    @property
    def n_tiles(self) -> int:
        return self.tile_colidx.size

    @property
    def tile_rows(self) -> int:
        return self.tile_ptr.size - 1

    @property
    def tile_cols(self) -> int:
        return -(-self.n // self.tile)

    @property
    def nnz(self) -> int:
        return self.view.nnz

    @property
    def tile_nnz(self) -> np.ndarray:
        """The paper's ``tileNnz`` offsets array."""
        return self.view.offsets

    def level1_nbytes_model(self) -> int:
        """Device footprint of the level-1 arrays.

        ``tilePtr``/``tileColIdx``/``tileNnz`` as 4-byte integers plus
        one format byte per tile (needed by any multi-format variant).
        """
        return (
            4 * (self.tile_rows + 1)
            + 4 * self.n_tiles
            + 4 * (self.n_tiles + 1)
            + self.n_tiles
        )

    def row_heights(self) -> np.ndarray:
        """Effective height of every *tile row* (``tile`` except at the
        bottom boundary, where the matrix may end mid-tile)."""
        starts = np.arange(self.tile_rows, dtype=np.int64) * self.tile
        return np.minimum(self.tile, self.m - starts)

    def with_values(self, new_view_val: np.ndarray) -> "TileSet":
        """A structurally identical tile set carrying new entry values.

        ``new_view_val`` must be in the tile-sorted (view) order.  The
        level-1 arrays and local coordinates are shared by reference —
        only the value array is replaced: no sort, no tiling.
        """
        new_view_val = np.asarray(new_view_val, dtype=np.float64)
        if new_view_val.shape != self.view.val.shape:
            raise ValueError(
                f"expected {self.view.val.size} values, got {new_view_val.size}"
            )
        view = TilesView(
            lrow=self.view.lrow,
            lcol=self.view.lcol,
            val=new_view_val,
            offsets=self.view.offsets,
            eff_h=self.view.eff_h,
            eff_w=self.view.eff_w,
            tile=self.view.tile,
        )
        return TileSet(
            m=self.m,
            n=self.n,
            tile=self.tile,
            tile_ptr=self.tile_ptr,
            tile_colidx=self.tile_colidx,
            tile_rowidx=self.tile_rowidx,
            view=view,
            entry_perm=self.entry_perm,
        )

    def global_rows(self) -> np.ndarray:
        """Global row index of every entry (tile-sorted order)."""
        t = self.view.tile_of_entry()
        return self.tile_rowidx[t] * self.tile + self.view.lrow.astype(np.int64)

    def global_cols(self) -> np.ndarray:
        """Global column index of every entry (tile-sorted order)."""
        t = self.view.tile_of_entry()
        return self.tile_colidx[t] * self.tile + self.view.lcol.astype(np.int64)


def tile_decompose(
    matrix: sp.spmatrix, tile: int = 16, validation: str = "repair"
) -> TileSet:
    """Decompose a sparse matrix into the TileSpMV level-1 structure.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; converted to COO coordinates internally.
    tile:
        Tile edge length.  The paper fixes 16; 4/8/16 are supported (the
        4-bit index packing requires <= 16).
    validation:
        Input-gate policy (see
        :func:`repro.reliability.validation.canonicalize_csr`).  Callers
        holding an already-canonical matrix pass ``"trust"``.

    Returns
    -------
    TileSet
        Occupied tiles in (tile row, tile column) order with entries
        sorted by (tile, local row, local column).
    """
    if tile < 2 or tile > 16:
        raise ValueError("tile size must be in [2, 16] (4-bit packed indices)")
    from repro.reliability.validation import canonicalize_csr

    csr, _ = canonicalize_csr(matrix, validation)
    coo = csr.tocoo()
    m, n = coo.shape
    rows = coo.row.astype(np.int64)
    cols = coo.col.astype(np.int64)
    vals = coo.data.astype(np.float64)
    trow = rows // tile
    tcol = cols // tile
    lrow = (rows % tile).astype(np.uint8)
    lcol = (cols % tile).astype(np.uint8)
    tile_cols_total = -(-n // tile)
    tile_key = trow * tile_cols_total + tcol
    order = np.lexsort((lcol, lrow, tile_key))
    tile_key = tile_key[order]
    lrow = lrow[order]
    lcol = lcol[order]
    vals = vals[order]
    uniq_keys, counts = np.unique(tile_key, return_counts=True)
    offsets = lengths_to_offsets(counts)
    tile_rowidx = uniq_keys // tile_cols_total
    tile_colidx = uniq_keys % tile_cols_total
    tile_rows_total = -(-m // tile)
    tiles_per_row = np.bincount(tile_rowidx, minlength=tile_rows_total)
    tile_ptr = lengths_to_offsets(tiles_per_row)
    eff_h = np.minimum(tile, m - tile_rowidx * tile).astype(np.uint8)
    eff_w = np.minimum(tile, n - tile_colidx * tile).astype(np.uint8)
    view = TilesView(
        lrow=lrow,
        lcol=lcol,
        val=vals,
        offsets=offsets,
        eff_h=eff_h,
        eff_w=eff_w,
        tile=tile,
    )
    return TileSet(
        m=m,
        n=n,
        tile=tile,
        tile_ptr=tile_ptr,
        tile_colidx=tile_colidx,
        tile_rowidx=tile_rowidx,
        view=view,
        entry_perm=order,
    )
