"""Lazy payload re-encode after ``update_values`` matches a fresh build.

After a value update the executor operand is the one value store; the
payloads, view values and decode-order values are re-encoded from it
on first read.  Over the zoo x method x reorder x tile grid, the
re-encoded state must be exactly what a fresh build on the new values
holds:

* the payloads decode to the operand's values bit for bit, and to the
  fresh build's decode;
* ``validate()`` passes;
* ``run_cost()`` is field-for-field the fresh build's;
* the lane-accurate per-tile executor (:mod:`repro.gpu.executor`),
  which reads the payloads directly, agrees with scipy.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.plancache import canonical_csr
from repro.core.storage import _decode_with_tiles, stream_structure
from repro.core.tilespmv import TileSpMV
from repro.gpu.executor import lane_accurate_spmv

pytestmark = pytest.mark.properties

METHODS = ("csr", "adpt", "deferred_coo", "auto")
REORDERS = (None, "rcm", "sell:32")
TILES = (8, 16)


def _decoded(tm):
    """The payloads' decode as a CSR matrix in global coordinates."""
    ts, tile = tm.tileset, tm.tileset.tile
    rows, cols, vals = [], [], []
    for fmt, payload in tm.payloads.items():
        t_local, lrow, lcol, val = _decode_with_tiles(fmt, payload)
        gid = tm.tile_ids[fmt][t_local]
        rows.append(ts.tile_rowidx[gid] * tile + lrow.astype(np.int64))
        cols.append(ts.tile_colidx[gid] * tile + lcol.astype(np.int64))
        vals.append(val)
    structure = stream_structure(np.concatenate(rows), np.concatenate(cols), tm.shape)
    return sp.csr_matrix(
        (np.concatenate(vals)[structure.data], structure.indices, structure.indptr),
        shape=tm.shape,
    )


def _assert_same_csr(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("tile", TILES)
@pytest.mark.parametrize("reorder", REORDERS)
@pytest.mark.parametrize("method", METHODS)
def test_reencode_matches_fresh_build(zoo_matrix, method, reorder, tile):
    if reorder == "rcm" and zoo_matrix.shape[0] != zoo_matrix.shape[1]:
        pytest.skip("rcm needs a square matrix")
    csr = canonical_csr(zoo_matrix)
    rng = np.random.default_rng(csr.nnz)
    # Nonzero values keep the pattern of a fresh build identical.
    new = rng.uniform(0.5, 1.5, csr.nnz) * rng.choice([-1.0, 1.0], csr.nnz)
    b = sp.csr_matrix((new, csr.indices, csr.indptr), shape=csr.shape)
    engine = TileSpMV(zoo_matrix, method=method, tile=tile, reorder=reorder)
    engine.update_values(new)
    fresh = TileSpMV(b, method=method, tile=tile, reorder=reorder)
    assert engine.method == fresh.method

    tm = engine.tiled
    if tm is not None and tm.nnz:
        decoded = _decoded(tm)
        _assert_same_csr(decoded, tm._op)
        _assert_same_csr(decoded, _decoded(fresh.tiled))
        assert tm.tileset.view.val.tobytes() == fresh.tiled.tileset.view.val.tobytes()
        tm.validate()
    assert engine.run_cost() == fresh.run_cost()

    x = rng.standard_normal(csr.shape[1])
    rp = engine.reorder
    xp = x if rp is None or rp.col_perm is None else x[rp.col_perm]
    y = np.zeros(csr.shape[0])
    if tm is not None:
        y += lane_accurate_spmv(tm, xp, tbalance=engine.tbalance, schedule=engine._schedule)
    if engine.deferred_engine is not None:
        y += engine.deferred_engine.spmv(xp)
    if rp is not None:
        y = y[rp.inv_row]
    np.testing.assert_allclose(y, b @ x, rtol=1e-12, atol=1e-12)
