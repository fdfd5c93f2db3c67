"""Plan-build counts equal their sort-based definitions.

The plan analytics count without sorting: per-tile ``bincount`` cells
for row/column counts, sectors and COO rounds, run boundaries of
canonical CSR order for row-gather sectors and the tile decomposition.
Each count is checked here against its defining form, kept as the
oracle: ``np.unique(key).size``, ``np.add.at`` into zeros, and
``np.lexsort`` order.  Over the zoo x tile {8, 16}, plus an empty
matrix, a view with zero tiles and a CSR holding duplicate entries
under ``validation="trust"``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.common import row_gather_sectors
from repro.core.kernels.costs import (
    X_SECTOR_DOUBLES,
    _distinct_sectors_per_tile,
    coo_costs,
    dnscol_costs,
)
from repro.core.kernels.params import KernelCostParams
from repro.core.tiling import tile_decompose
from repro.formats.tile_coo import encode_coo
from repro.formats.tile_dnscol import encode_dnscol
from repro.formats.tile_hyb import encode_hyb
from repro.reliability.validation import canonicalize_csr
from repro.util.segments import repeat_offsets

from tests.conftest import zoo

pytestmark = pytest.mark.properties

TILES = (8, 16)
PARAMS = KernelCostParams()


def _duplicates_csr() -> sp.csr_matrix:
    """Sorted indices with repeated entries, which ``trust`` keeps."""
    indptr = np.array([0, 4, 4, 9, 11])
    indices = np.array([1, 1, 2, 17, 0, 3, 3, 3, 30, 5, 5])
    data = np.arange(1.0, indices.size + 1)
    return sp.csr_matrix((data, indices, indptr), shape=(4, 33))


CASES = zoo() + [
    ("empty", sp.csr_matrix((37, 21))),
    ("trust_duplicates", _duplicates_csr()),
]


def _validation(name: str) -> str:
    return "trust" if name == "trust_duplicates" else "repair"


# -- oracles: the sort / ufunc.at definitions -------------------------------

def _unique_count(key: np.ndarray) -> int:
    return int(np.unique(key).size)


def _add_at_counts(view, local: np.ndarray) -> np.ndarray:
    counts = np.zeros((view.n_tiles, view.tile), dtype=np.int16)
    np.add.at(counts, (view.tile_of_entry(), local.astype(np.int64)), 1)
    return counts


def _assert_view_counts(view) -> None:
    for got, local in ((view.row_counts(), view.lrow), (view.col_counts(), view.lcol)):
        want = _add_at_counts(view, local)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    key = view.tile_of_entry() * 8 + view.lcol.astype(np.int64) // X_SECTOR_DOUBLES
    assert _distinct_sectors_per_tile(view.lcol, view.offsets) == _unique_count(key)


def _assert_coo_rounds(view) -> None:
    cost = coo_costs(encode_coo(view), PARAMS)
    per_row = np.zeros((view.n_tiles, 16), dtype=np.int64)
    np.add.at(per_row, (view.tile_of_entry(), view.lrow.astype(np.int64)), 1)
    rounds = per_row.max(axis=1)
    batches = -(-view.counts() // 32)
    want = PARAMS.coo_overhead + PARAMS.coo_per_batch * batches + rounds
    assert np.array_equal(cost.cycles, want)
    assert cost.atomic_rounds == float(rounds.sum())


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("name,matrix", CASES, ids=[n for n, _ in CASES])
def test_tile_decompose_matches_lexsort_unique(name, matrix, tile):
    ts = tile_decompose(matrix, tile=tile, validation=_validation(name))
    coo = canonicalize_csr(matrix, _validation(name))[0].tocoo()
    rows, cols = coo.row.astype(np.int64), coo.col.astype(np.int64)
    tile_key = (rows // tile) * -(-coo.shape[1] // tile) + cols // tile
    order = np.lexsort((cols % tile, rows % tile, tile_key))
    assert np.array_equal(ts.entry_perm, order)
    keys, counts = np.unique(tile_key, return_counts=True)
    assert np.array_equal(np.diff(ts.view.offsets), counts)
    assert ts.view.offsets.dtype == np.int64
    assert np.array_equal(ts.tile_rowidx * -(-coo.shape[1] // tile) + ts.tile_colidx, keys)


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("name,matrix", CASES, ids=[n for n, _ in CASES])
def test_tile_counts_match_add_at_and_unique(name, matrix, tile):
    view = tile_decompose(matrix, tile=tile, validation=_validation(name)).view
    _assert_view_counts(view)
    _assert_coo_rounds(view)
    # HYB split: the COO part's per-tile lengths.
    tile_of_entry = view.tile_of_entry()
    hyb = encode_hyb(view)
    to_coo = view.pos_in_row() >= hyb.ell.width.astype(np.int64)[tile_of_entry]
    lengths = np.zeros(view.n_tiles, dtype=np.int64)
    np.add.at(lengths, tile_of_entry[to_coo], 1)
    assert np.array_equal(np.diff(hyb.coo.offsets), lengths)
    # DnsCol sectors over the tiles whose occupied columns are all full.
    cc = view.col_counts()
    full = np.all((cc == 0) | (cc == view.eff_h.astype(np.int16)[:, None]), axis=1)
    dnscol = encode_dnscol(view.select(full))
    col_tile = repeat_offsets(dnscol.col_offsets)
    key = col_tile * 8 + dnscol.colidx.astype(np.int64) // X_SECTOR_DOUBLES
    want = _unique_count(key) if key.size else 0
    assert dnscol_costs(dnscol, PARAMS).x_sectors == want


@pytest.mark.parametrize("name,matrix", CASES, ids=[n for n, _ in CASES])
def test_row_gather_sectors_matches_unique(name, matrix):
    csr, _ = canonicalize_csr(matrix, _validation(name))
    want = 0
    if csr.nnz:
        rows = repeat_offsets(csr.indptr.astype(np.int64))
        n_sectors = int(csr.indices.max()) // X_SECTOR_DOUBLES + 1
        want = _unique_count(rows * n_sectors + csr.indices.astype(np.int64) // X_SECTOR_DOUBLES)
    assert row_gather_sectors(csr.indptr, csr.indices) == want


@pytest.mark.parametrize("tile", TILES)
def test_zero_tile_view(tile):
    view = tile_decompose(zoo()[0][1], tile=tile).view.select(np.zeros(0, dtype=np.int64))
    assert view.n_tiles == 0
    assert view.row_counts().shape == view.col_counts().shape == (0, tile)
    _assert_view_counts(view)
    _assert_coo_rounds(view)
    assert dnscol_costs(encode_dnscol(view), PARAMS).x_sectors == 0


def test_trust_keeps_duplicates():
    """The duplicate case really reaches the counts with its duplicates."""
    csr, _ = canonicalize_csr(_duplicates_csr(), "trust")
    assert csr.nnz == _duplicates_csr().nnz
    view = tile_decompose(csr, tile=8, validation="trust").view
    assert int(view.row_counts().max()) >= 2
    assert view.nnz == csr.nnz
