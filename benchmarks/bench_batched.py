"""Batched SpMM + plan cache perf smoke.

Runs the batched execution layer over a matrix set and reports, per
matrix:

* modelled GFlops of one SpMV vs one k-vector SpMM (k = 4 and 32) —
  the payload-amortisation win of ``RunCost.batched``,
* wall time of k sequential ``spmv`` calls vs one ``spmm`` (the Python
  numeric path benefits from the same single-pass structure),
* cold vs cache-hit construction time through the :class:`PlanCache`,
  and the ``update_values`` fast path vs a full rebuild,
* the warm ``update_values`` wall time (median of interleaved repeats)
  next to a plain ``data.copy()`` of the same nnz.

Results land in a JSON file (default ``BENCH_batched.json``) so CI can
archive them.  ``--quick`` uses two small synthetic matrices and is the
CI smoke; the full run sweeps the representative suite.  Exits non-zero
if no matrix reaches a 2x modelled GFlops gain at k=32, if the largest
matrix's ``update_values`` takes more than 4x its copy, or if any
numeric check fails.

    PYTHONPATH=src python benchmarks/bench_batched.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.plancache import PlanCache
from repro.core.tilespmv import TileSpMV
from repro.gpu.device import A100, TITAN_RTX

UPDATE_REPEATS = 21
MAX_UPDATE_COPY_RATIO = 4.0  # a value refresh is one gather per half


def _matrices(quick: bool):
    if quick:
        from repro.matrices import generators as g

        return [
            ("fem_quick", g.fem_blocks(600, block=3, avg_degree=12, seed=7)),
            ("powerlaw_quick", g.power_law(1500, avg_degree=8, seed=8)),
        ]
    from repro.matrices.representative import representative_suite

    return [(rec.name, rec.matrix) for rec in representative_suite()]


def bench_matrix(name, matrix, device, ks=(4, 32)) -> dict:
    rng = np.random.default_rng(0)
    cache = PlanCache()

    t0 = time.perf_counter()
    engine = TileSpMV(matrix, method="auto", auto_device=device, plan_cache=cache)
    cold_s = time.perf_counter() - t0

    spmv_cost = engine.run_cost()
    row = {
        "matrix": name,
        "m": matrix.shape[0],
        "n": matrix.shape[1],
        "nnz": int(matrix.nnz),
        "method": engine.method,
        "spmv_gflops": spmv_cost.gflops(device),
        "build_seconds": engine.build_seconds,
        "arbitration_seconds": engine.arbitration_seconds,
        "cold_construct_seconds": cold_s,
    }

    for k in ks:
        block = rng.standard_normal((matrix.shape[1], k))
        out = engine.spmm(block)
        if not np.allclose(out, matrix @ block, rtol=1e-10, atol=1e-12):
            raise AssertionError(f"{name}: spmm(k={k}) disagrees with scipy")
        cost = engine.spmm_cost(k)
        # Wall time: k sequential spmv vs one spmm on the numeric path.
        t0 = time.perf_counter()
        for j in range(k):
            engine.spmv(block[:, j])
        wall_seq = time.perf_counter() - t0
        t0 = time.perf_counter()
        engine.spmm(block)
        wall_bat = time.perf_counter() - t0
        row[f"spmm{k}_gflops"] = cost.gflops(device)
        row[f"spmm{k}_model_speedup"] = (
            spmv_cost.time(device) * k / cost.time(device)
        )
        row[f"spmm{k}_wall_speedup"] = wall_seq / wall_bat if wall_bat > 0 else 0.0

    # Plan cache: second construction must skip re-tiling.
    t0 = time.perf_counter()
    TileSpMV(matrix, method="auto", auto_device=device, plan_cache=cache)
    row["warm_construct_seconds"] = time.perf_counter() - t0
    row["cache"] = cache.stats()

    # update_values fast path vs full rebuild.
    fresh = matrix.tocsr().copy()
    fresh.data = rng.standard_normal(fresh.nnz)
    t0 = time.perf_counter()
    engine.update_values(fresh)
    row["first_update_seconds"] = time.perf_counter() - t0
    x = rng.standard_normal(matrix.shape[1])
    if not np.allclose(engine.spmv(x), fresh @ x, rtol=1e-10, atol=1e-12):
        raise AssertionError(f"{name}: spmv wrong after update_values")
    # Warm refresh (the first one built the value routes) vs a plain copy
    # of the same nnz, interleaved so both see the same machine state.
    data = fresh.data.copy()
    update_s, copy_s = [], []
    for _ in range(UPDATE_REPEATS):
        t0 = time.perf_counter()
        engine.update_values(data)
        update_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        data.copy()
        copy_s.append(time.perf_counter() - t0)
    row["update_values_seconds"] = float(np.median(update_s))
    row["copy_seconds"] = float(np.median(copy_s))
    row["update_copy_ratio"] = row["update_values_seconds"] / row["copy_seconds"]
    t0 = time.perf_counter()
    TileSpMV(fresh, method=engine.method)
    row["full_rebuild_seconds"] = time.perf_counter() - t0
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small synthetic set (CI smoke)")
    parser.add_argument("--out", default="BENCH_batched.json", help="JSON output path")
    parser.add_argument("--device", default="a100", choices=("a100", "titanrtx"))
    args = parser.parse_args(argv)
    device = {"a100": A100, "titanrtx": TITAN_RTX}[args.device]

    rows = []
    for name, matrix in _matrices(args.quick):
        row = bench_matrix(name, matrix, device)
        rows.append(row)
        print(
            f"{name:18s} {row['method']:12s} "
            f"spmv {row['spmv_gflops']:7.2f} GF  "
            f"spmm32 {row['spmm32_gflops']:8.2f} GF "
            f"({row['spmm32_model_speedup']:5.2f}x model, "
            f"{row['spmm32_wall_speedup']:5.2f}x wall)  "
            f"cache hit {row['warm_construct_seconds'] * 1e3:6.2f} ms "
            f"vs cold {row['cold_construct_seconds'] * 1e3:7.2f} ms"
        )

    best = max(r["spmm32_model_speedup"] for r in rows)
    largest = max(rows, key=lambda r: r["nnz"])
    ratio = largest["update_copy_ratio"]
    ok = best >= 2.0 and ratio <= MAX_UPDATE_COPY_RATIO
    payload = {
        "device": device.name,
        "quick": args.quick,
        "best_spmm32_model_speedup": best,
        "largest_update_copy_ratio": ratio,
        "pass": ok,
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nbest modelled spmm(32) speedup: {best:.2f}x -> {'PASS' if best >= 2.0 else 'FAIL'}")
    print(
        f"update_values on {largest['matrix']} ({largest['nnz']} nnz): "
        f"{largest['update_values_seconds'] * 1e6:.1f} us = {ratio:.2f}x a "
        f"{largest['copy_seconds'] * 1e6:.1f} us copy (gate <= "
        f"{MAX_UPDATE_COPY_RATIO:g}x) -> {'PASS' if ratio <= MAX_UPDATE_COPY_RATIO else 'FAIL'}"
    )
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
