"""Sharded multi-device SpMV perf smoke: exactness, wall clock, model.

Runs :class:`repro.dist.sharded.ShardedSpMV` over a matrix set at
P in {1, 2, 4, 8} — on the 1D row partition *and* the factored 2D tile
grid — and reports, per matrix and shard count:

* **exactness** — the sharded product (and on grids, the transposed
  product) must be *bit-for-bit* the single-device product (fixed
  method ``adpt``), not merely close,
* **wall time** — one concurrent sharded ``spmv`` vs the unsharded
  engine (median over repeats; threads only help on multi-core hosts),
  and the sharded ``spmv_transpose`` vs the unsharded one,
* **model** — the interconnect-aware multi-device makespan, speedup
  and efficiency from :class:`~repro.gpu.costmodel.MultiDeviceRunCost`,
  plus the modelled x-halo traffic on both partitions,
* **partition quality** — the nnz imbalance of the tile-snapped cuts.

Results land in a JSON file (default ``BENCH_sharding.json``) so CI can
archive them.  ``--quick`` uses two small synthetic matrices and is the
CI smoke; the full run adds a large banded matrix where sharding has
real work to spread.

The wall-clock gate is CPU-aware: the >1.5x speedup requirement at P=4
only applies when the host actually has >= 4 CPUs (the record carries
``cpu_limited: true`` otherwise, and the gate falls back to exactness +
a sanity bound on sharding overhead).  A second, host-independent gate
checks the 2D grid's reason to exist: for the scattered (power-law)
fixture the modelled halo bytes on the factored grid must *shrink*
versus the 1D row partition at every P >= 4.  A third, measured gate
holds the sharded ``spmv_transpose`` (median wall time) within 2x of
the single-device ``TileSpMV.spmv_transpose`` at every P on both
partitions.  The modelled efficiency table is deterministic on any
host.

    PYTHONPATH=src python benchmarks/bench_sharding.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.plancache import PlanCache
from repro.core.tilespmv import TileSpMV
from repro.dist import ShardedSpMV, default_grid, modelled_shard_sweep
from repro.gpu.device import A100, TITAN_RTX

COUNTS = (1, 2, 4, 8)
# Sharded spmv_transpose wall time must stay within this factor of the
# single-device transpose, at every P, on the 1D and the grid partition.
TRANSPOSE_GATE = 2.0


def _matrices(quick: bool):
    from repro.matrices import generators as g

    if quick:
        return [
            ("fem_quick", g.fem_blocks(600, block=3, avg_degree=12, seed=7)),
            ("powerlaw_quick", g.power_law(1500, avg_degree=8, seed=8)),
        ]
    return [
        ("fem_blocks", g.fem_blocks(3000, block=3, avg_degree=12, seed=7)),
        ("power_law", g.power_law(20000, avg_degree=8, seed=8)),
        ("banded_large", g.banded(60000, half_bandwidth=8, seed=9)),
    ]


def _median_wall(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _transpose_ratio(eng, base, xt, repeats: int) -> tuple[float, float]:
    """Sharded vs single-device ``spmv_transpose``: (median wall, ratio).

    Samples alternate between the two engines, so a slow spell on the
    host lands on both sides of the ratio instead of on one.
    """
    sharded, single = [], []
    for _ in range(repeats):
        for fn, out in ((eng.spmv_transpose, sharded), (base.spmv_transpose, single)):
            t0 = time.perf_counter()
            fn(xt)
            out.append(time.perf_counter() - t0)
    wall = float(np.median(sharded))
    return wall, wall / float(np.median(single))


def bench_matrix(name, matrix, device, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.shape[1])

    base = TileSpMV(matrix, method="adpt")
    y_ref = base.spmv(x)
    wall_base = _median_wall(lambda: base.spmv(x), repeats)

    row = {
        "matrix": name,
        "m": matrix.shape[0],
        "n": matrix.shape[1],
        "nnz": int(matrix.nnz),
        "wall_unsharded_s": wall_base,
        "shards": [],
    }

    xt = rng.standard_normal(matrix.shape[0])
    yt_ref = base.spmv_transpose(xt)

    sweep = {r["shards"]: r for r in modelled_shard_sweep(matrix, counts=COUNTS, device=device)}
    sweep_2d = {
        r["shards"]: r
        for r in modelled_shard_sweep(matrix, counts=COUNTS, device=device, grid="auto")
    }

    for p in COUNTS:
        cache = PlanCache()
        with ShardedSpMV(matrix, shards=p, method="adpt", plan_cache=cache) as eng:
            y = eng.spmv(x)
            if not np.array_equal(y, y_ref):
                raise AssertionError(f"{name}: P={p} sharded spmv is not bit-exact")
            if not np.array_equal(eng.spmv_transpose(xt), yt_ref):
                raise AssertionError(f"{name}: P={p} spmv_transpose is not bit-exact")
            wall = _median_wall(lambda: eng.spmv(x), repeats)
            wall_t, ratio_t = _transpose_ratio(eng, base, xt, 4 * repeats)
            model = sweep[p]
            record = {
                "shards": p,
                "wall_s": wall,
                "wall_speedup": wall_base / wall if wall > 0 else 0.0,
                "transpose_wall_s": wall_t,
                "transpose_ratio": ratio_t,
                "model_makespan_s": model["makespan_s"],
                "model_speedup": model["speedup"],
                "model_efficiency": model["efficiency"],
                "imbalance": model["imbalance"],
                "comm_bytes": model["comm_bytes"],
                "halo_bytes_1d": model["halo_bytes"],
            }

        # The factored 2D grid, same total P.  Exactness here covers the
        # column-cut replay *and* the transposed product — the two paths
        # this benchmark exists to keep honest.
        grid = default_grid(p)
        with ShardedSpMV(matrix, grid=grid, method="adpt") as eng2:
            if not np.array_equal(eng2.spmv(x), y_ref):
                raise AssertionError(f"{name}: grid={grid} spmv is not bit-exact")
            if not np.array_equal(eng2.spmv_transpose(xt), yt_ref):
                raise AssertionError(
                    f"{name}: grid={grid} spmv_transpose is not bit-exact"
                )
            wall_2d = _median_wall(lambda: eng2.spmv(x), repeats)
            wall_2d_t, ratio_2d_t = _transpose_ratio(eng2, base, xt, 4 * repeats)
        model_2d = sweep_2d[p]
        record["grid"] = {
            "grid": list(grid),
            "wall_s": wall_2d,
            "transpose_wall_s": wall_2d_t,
            "transpose_ratio": ratio_2d_t,
            "model_makespan_s": model_2d["makespan_s"],
            "model_efficiency": model_2d["efficiency"],
            "imbalance": model_2d["imbalance"],
            "halo_bytes": model_2d["halo_bytes"],
        }
        row["shards"].append(record)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small synthetic set (CI smoke)")
    parser.add_argument("--out", default="BENCH_sharding.json", help="JSON output path")
    parser.add_argument("--device", default="a100", choices=("a100", "titanrtx"))
    parser.add_argument("--repeats", type=int, default=5, help="wall-clock repeats (median)")
    args = parser.parse_args(argv)
    device = {"a100": A100, "titanrtx": TITAN_RTX}[args.device]

    cpus = os.cpu_count() or 1
    cpu_limited = cpus < 4

    rows = []
    for name, matrix in _matrices(args.quick):
        row = bench_matrix(name, matrix, device, args.repeats)
        rows.append(row)
        for s in row["shards"]:
            g = s["grid"]
            print(
                f"{name:16s} P={s['shards']:2d} "
                f"wall {s['wall_s'] * 1e3:8.3f} ms ({s['wall_speedup']:5.2f}x)  "
                f"model {s['model_makespan_s'] * 1e6:8.2f} us "
                f"({s['model_speedup']:5.2f}x, eff {s['model_efficiency']:.2f})  "
                f"imbalance {s['imbalance']:.2f}  "
                f"A.T 1D/grid {s['transpose_ratio']:.2f}x/"
                f"{g['transpose_ratio']:.2f}x  "
                f"halo 1D {s['halo_bytes_1d'] / 1e3:9.1f} kB -> "
                f"{g['grid'][0]}x{g['grid'][1]} {g['halo_bytes'] / 1e3:9.1f} kB"
            )

    best_wall_p4 = max(
        (s["wall_speedup"] for r in rows for s in r["shards"] if s["shards"] == 4),
        default=0.0,
    )
    worst_overhead = min(
        (s["wall_speedup"] for r in rows for s in r["shards"] if s["shards"] == 4),
        default=1.0,
    )
    if cpu_limited:
        # Single-core host: threads cannot beat sequential, so require
        # only that P=4 sharding overhead stays bounded (no 10x regression).
        wall_ok = worst_overhead > 0.1
        verdict = f"cpu_limited ({cpus} CPUs): overhead gate {'PASS' if wall_ok else 'FAIL'}"
    else:
        wall_ok = best_wall_p4 > 1.5
        verdict = f"best wall speedup at P=4: {best_wall_p4:.2f}x -> {'PASS' if wall_ok else 'FAIL'}"

    # Host-independent gate: on the scattered fixture the 2D grid's
    # modelled halo must shrink vs 1D wherever the grid has column cuts
    # (P >= 4 -> C >= 2).  If it doesn't, the grid is pure overhead.
    halo_checks = []
    for r in rows:
        if not r["matrix"].startswith("power"):
            continue
        for s in r["shards"]:
            if s["shards"] >= 4:
                halo_checks.append(
                    {
                        "matrix": r["matrix"],
                        "shards": s["shards"],
                        "halo_1d": s["halo_bytes_1d"],
                        "halo_2d": s["grid"]["halo_bytes"],
                        "shrinks": s["grid"]["halo_bytes"] < s["halo_bytes_1d"],
                    }
                )
    halo_ok = bool(halo_checks) and all(c["shrinks"] for c in halo_checks)
    halo_verdict = (
        "2D halo < 1D halo on scattered fixture at P>=4: "
        f"{'PASS' if halo_ok else 'FAIL'}"
    )

    # Measured gate: the sharded transpose runs the stacked replay
    # operand, so at every P and on both partitions it must stay within
    # 2x of the single-device transpose's wall time.
    transpose_ratios = [
        ratio
        for r in rows
        for s in r["shards"]
        for ratio in (s["transpose_ratio"], s["grid"]["transpose_ratio"])
    ]
    worst_transpose = max(transpose_ratios, default=0.0)
    transpose_ok = worst_transpose <= TRANSPOSE_GATE
    transpose_verdict = (
        f"worst sharded/single spmv_transpose wall ratio {worst_transpose:.2f}x "
        f"(<= {TRANSPOSE_GATE:g}x): {'PASS' if transpose_ok else 'FAIL'}"
    )

    ok = wall_ok and halo_ok and transpose_ok
    payload = {
        "device": device.name,
        "quick": args.quick,
        "cpu_count": cpus,
        "cpu_limited": cpu_limited,
        "best_wall_speedup_p4": best_wall_p4,
        "worst_wall_speedup_p4": worst_overhead,
        "halo_checks": halo_checks,
        "halo_gate_pass": halo_ok,
        "wall_gate_pass": bool(wall_ok),
        "worst_transpose_ratio": worst_transpose,
        "transpose_gate_pass": bool(transpose_ok),
        "pass": bool(ok),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{verdict}")
    print(halo_verdict)
    print(transpose_verdict)
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
