"""update_values fast path and single-half kernel dispatch regressions.

Pins the hot-loop guarantees of the value-update path:

* ``update_values`` refills each half's operand with one gather — it
  must never call a format *encoder* again (the whole point of the fast
  path), and the refilled engine must be bit-for-bit a freshly built
  one.
* The payloads are re-encoded from the operand only when a consumer
  reads them (``run_cost``, ``serialize``, ...): products on the single
  engine and on 1D and grid sharded engines never trigger it, and the
  lazy state reads the engine's own operand, never the caller's array.
* :meth:`TileSpMV.spmv`/:meth:`spmm` return the single half's output
  array directly when the other half is absent — no zero-fill + add
  pass — and :meth:`spmv_transpose` is instrumented like its siblings.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp

from repro import telemetry as tele
from repro.core import storage
from repro.core.serialize import load_tile_matrix, save_tile_matrix
from repro.core.tilespmv import TileSpMV
from repro.dist.sharded import ShardedSpMV
from repro.matrices import fem_blocks, hypersparse, power_law, random_uniform


@pytest.fixture
def encode_counter(monkeypatch):
    """Count every format-encoder invocation."""
    calls = {"n": 0}

    def wrap(fn):
        def inner(view):
            calls["n"] += 1
            return fn(view)
        return inner

    for fmt, fn in list(storage._ENCODERS.items()):
        monkeypatch.setitem(storage._ENCODERS, fmt, wrap(fn))
    return calls


@pytest.fixture
def reencode_counter(monkeypatch):
    """Count every lazy payload re-encode (TileMatrix._reencode)."""
    calls = {"n": 0}
    reencode = storage.TileMatrix._reencode

    def counted(self):
        calls["n"] += 1
        return reencode(self)

    monkeypatch.setattr(storage.TileMatrix, "_reencode", counted)
    return calls


class TestWithValuesNoReencode:
    @pytest.mark.parametrize("method", ["adpt", "csr", "deferred_coo", "auto"])
    def test_update_values_never_reencodes(self, encode_counter, method, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = TileSpMV(a, method=method)
        built = encode_counter["n"]
        assert built > 0 or engine.tiled is None  # build went through encoders
        new = rng.standard_normal(a.nnz)
        engine.update_values(new)
        assert encode_counter["n"] == built, "with_values re-ran an encoder"

    def test_refilled_engine_is_bit_exact(self, zoo_matrix, rng):
        x = rng.standard_normal(zoo_matrix.shape[1])
        new = rng.standard_normal(zoo_matrix.nnz)
        csr = zoo_matrix.tocsr()
        fresh = csr.copy()
        fresh.data = new.copy()
        engine = TileSpMV(zoo_matrix, method="adpt").update_values(new)
        rebuilt = TileSpMV(fresh, method="adpt")
        assert np.array_equal(engine.spmv(x), rebuilt.spmv(x))

    def test_spmm_cache_invalidated_by_update(self, rng):
        a = random_uniform(150, 150, nnz_per_row=5, seed=2)
        engine = TileSpMV(a, method="adpt")
        block = rng.standard_normal((150, 3))
        engine.spmm(block)  # materialises the lazy spmm product
        new = rng.standard_normal(a.nnz)
        engine.update_values(new)
        fresh = a.copy()
        fresh.data = new.copy()
        np.testing.assert_allclose(engine.spmm(block), fresh @ block,
                                   rtol=1e-12, atol=1e-12)


def _engines():
    return {
        "single": lambda a: TileSpMV(a, method="adpt"),
        "sharded_1d": lambda a: ShardedSpMV(a, shards=2, method="adpt"),
        "sharded_grid": lambda a: ShardedSpMV(a, method="adpt", grid=(2, 2)),
    }


class TestLazyReencode:
    @pytest.mark.parametrize("kind", list(_engines()))
    def test_products_never_reencode(self, reencode_counter, kind, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = _engines()[kind](a)
        x = rng.standard_normal(a.shape[1])
        xt = rng.standard_normal(a.shape[0])
        X = rng.standard_normal((a.shape[1], 3))
        engine.spmv_transpose(xt)  # builds a sharded replay operand
        for _ in range(2):
            new = rng.uniform(0.5, 1.5, a.nnz)
            engine.update_values(new)
            b = sp.csr_matrix((new, a.indices, a.indptr), shape=a.shape)
            np.testing.assert_allclose(engine.spmv(x), b @ x, rtol=1e-12)
            np.testing.assert_allclose(engine.spmm(X), b @ X, rtol=1e-12)
            np.testing.assert_allclose(engine.spmv_transpose(xt), b.T @ xt, rtol=1e-12)
            assert engine.shape == a.shape and engine.nnz == a.nnz
        assert reencode_counter["n"] == 0
        if isinstance(engine, ShardedSpMV):
            engine.close()

    def test_run_cost_reencodes_once(self, reencode_counter, tmp_path, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        engine = TileSpMV(a, method="adpt")
        new = rng.uniform(0.5, 1.5, a.nnz)
        engine.update_values(new)
        cost = engine.run_cost()
        assert reencode_counter["n"] == 1
        assert engine.run_cost() == cost
        save_tile_matrix(tmp_path / "tm.npz", engine.tiled)
        assert reencode_counter["n"] == 1
        x = rng.standard_normal(a.shape[1])
        loaded = load_tile_matrix(tmp_path / "tm.npz")
        assert np.array_equal(loaded.spmv(x), engine.spmv(x))

    @pytest.mark.parametrize("reorder", [None, "rcm"])
    @pytest.mark.parametrize("method", ["adpt", "deferred_coo"])
    def test_lazy_state_reads_own_operand(self, tmp_path, method, reorder, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)  # both halves
        engine = TileSpMV(a, method=method, reorder=reorder)
        before = copy.copy(engine)
        x = rng.standard_normal(a.shape[1])
        xt = rng.standard_normal(a.shape[0])
        X = rng.standard_normal((a.shape[1], 3))
        old = (engine.spmv(x), engine.spmv_transpose(xt))
        vals = rng.uniform(0.5, 1.5, a.nnz)
        engine.update_values(vals)
        want = (engine.spmv(x), engine.spmm(X), engine.spmv_transpose(xt))
        csr = engine.tiled.to_csr()
        vals *= -3.0  # the caller reuses its array
        got = (engine.spmv(x), engine.spmm(X), engine.spmv_transpose(xt))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        after = engine.tiled.to_csr()
        assert (after != csr).nnz == 0
        save_tile_matrix(tmp_path / "tm.npz", engine.tiled)
        loaded = load_tile_matrix(tmp_path / "tm.npz")
        xp = x if engine.reorder is None or engine.reorder.col_perm is None \
            else x[engine.reorder.col_perm]
        assert loaded.spmv(xp).tobytes() == engine.tiled.spmv(xp).tobytes()
        # The engine copied before the update keeps its values.
        assert before.spmv(x).tobytes() == old[0].tobytes()
        assert before.spmv_transpose(xt).tobytes() == old[1].tobytes()

    def test_sharded_replay_operand_owns_its_values(self, rng):
        a = fem_blocks(200, block=3, avg_degree=8, seed=1)
        xt = rng.standard_normal(a.shape[0])
        with ShardedSpMV(a, shards=2, method="adpt") as engine:
            engine.spmv_transpose(xt)
            vals = rng.uniform(0.5, 1.5, a.nnz)
            engine.update_values(vals)
            want = engine.spmv_transpose(xt)
            vals[:] = 0.0
            assert engine.spmv_transpose(xt).tobytes() == want.tobytes()


class TestSingleHalfDispatch:
    def test_spmv_returns_tiled_output_directly(self, rng):
        a = random_uniform(180, 180, nnz_per_row=5, seed=3)
        engine = TileSpMV(a, method="adpt")
        assert engine.deferred_engine is None
        sentinel = np.arange(180, dtype=np.float64)
        engine.tiled.spmv = lambda x: sentinel
        assert engine.spmv(np.zeros(180)) is sentinel

    def test_spmm_returns_tiled_output_directly(self, rng):
        a = random_uniform(180, 180, nnz_per_row=5, seed=4)
        engine = TileSpMV(a, method="adpt")
        sentinel = np.zeros((180, 2))
        engine.tiled.spmm = lambda x: sentinel
        assert engine.spmm(np.zeros((180, 2))) is sentinel

    def test_fully_deferred_split_still_correct(self, rng):
        # Hypersparse: DeferredCOO extracts everything; the tiled half
        # is empty and the deferred kernel's output is returned as-is.
        a = hypersparse(640, nnz=80, seed=5)
        engine = TileSpMV(a, method="deferred_coo")
        x = rng.standard_normal(640)
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-12, atol=1e-12)
        if engine.tiled is None:  # the extraction took the whole matrix
            sentinel = np.zeros(640)
            engine.deferred_engine.spmv = lambda x: sentinel
            assert engine.spmv(x) is sentinel

    def test_mixed_split_still_adds_both_halves(self, rng):
        a = power_law(900, avg_degree=5, seed=6)
        engine = TileSpMV(a, method="deferred_coo")
        x = rng.standard_normal(900)
        np.testing.assert_allclose(engine.spmv(x), a @ x, rtol=1e-10, atol=1e-12)


class TestTransposeTelemetry:
    def test_spmv_transpose_records_span_and_counter(self, rng):
        a = random_uniform(200, 160, nnz_per_row=4, seed=7)
        x = rng.standard_normal(200)
        with tele.session() as (tracer, registry):
            engine = TileSpMV(a, method="adpt")
            engine.spmv_transpose(x)
            spans = [e for e in tracer.events
                     if e.name == "kernel_execute" and e.args.get("transpose")]
            assert len(spans) == 1
            assert spans[0].args["method"] == "adpt"
            assert registry.value("tilespmv_spmv_total", method="adpt") == 1.0

    def test_transpose_counts_like_spmv(self, rng):
        a = random_uniform(120, 120, nnz_per_row=4, seed=8)
        x = rng.standard_normal(120)
        with tele.session() as (_, registry):
            engine = TileSpMV(a, method="adpt")
            engine.spmv(x)
            engine.spmv_transpose(x)
            assert registry.value("tilespmv_spmv_total", method="adpt") == 2.0
