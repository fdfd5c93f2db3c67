"""Process-backend perf smoke: exactness, supervisor overhead, speedup.

Runs :class:`repro.dist.procpool.ProcessShardedSpMV` against the thread
backend on the same partitions and reports, per matrix:

* **exactness** — the process-backend product must be *bit-for-bit*
  the single-device product at every P (the wire format, the
  shared-memory payloads and the ordered combine must not change a
  single ulp),
* **P=1 supervisor overhead** — one supervised worker vs the thread
  backend at P=1: the shm + IPC round-trip must stay a bounded
  absolute cost per call (the "near-zero overhead" gate),
* **speedup** — thread vs process walls at P = min(4, cpus).  Worker
  processes dodge the GIL, so on a >= 4-core host the process backend
  must actually win (>= 1.05x); on smaller hosts the record carries
  ``cpu_limited: true`` and the gate is informational,
* **overlapping products** — ``spmv_transpose`` on 1D P=2 and
  column-cut ``spmv`` on a 2x2 grid run the same in-process path on
  both backends, so the process backend must stay within
  ``OVERLAP_GATE`` of the thread backend's median wall time (both
  bit-exact first),
* **model** — the spawn_s / shm_bytes terms the cost model now prices.

Results land in a JSON file (default ``BENCH_procpool.json``) so CI can
archive them.  ``--quick`` is the CI smoke.

    PYTHONPATH=src python benchmarks/bench_procpool.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.tilespmv import TileSpMV
from repro.dist import ShardedSpMV
from repro.gpu.device import A100, TITAN_RTX

# P=1 gate: the supervised round-trip (x into shm, one pipe command,
# y out of shm) is a fixed per-call cost, so it is gated in absolute
# seconds — a ratio would punish sub-millisecond baselines for an
# overhead that is already near-zero.  2.5 ms is an order of magnitude
# above the measured round-trip and an order of magnitude below the
# per-call cost of the failure modes this gate exists to catch
# (re-shipping the plan wire, pickling payloads through the pipe).
P1_OVERHEAD_LIMIT_S = 2.5e-3
SPEEDUP_FLOOR = 1.05
# Process vs thread median wall time of the overlapping products.
OVERLAP_GATE = 2.0
# (label, grid, product) of the overlapping-product gate, P=2 or 2x2.
OVERLAP_CASES = (
    ("transpose_1d", None, "spmv_transpose"),
    ("colcut_spmv_2x2", (2, 2), "spmv"),
)


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


def _paired_ratio(fn_a, fn_b, x, repeats: int) -> tuple[float, float]:
    """``fn_a`` vs ``fn_b`` wall time of one product: (median of ``fn_a``,
    ratio of medians).

    Samples alternate between the two engines, so a slow spell on the
    host lands on both sides of the ratio instead of on one.
    """
    a, b = [], []
    for _ in range(repeats):
        for fn, out in ((fn_a, a), (fn_b, b)):
            t0 = time.perf_counter()
            fn(x)
            out.append(time.perf_counter() - t0)
    wall = float(np.median(a))
    return wall, wall / float(np.median(b))


def bench_overlap(name, matrix, repeats: int) -> dict:
    """The overlapping-product gate's records for one matrix."""
    rng = np.random.default_rng(1)
    single = TileSpMV(matrix, method="adpt")
    out = {}
    for label, grid, op in OVERLAP_CASES:
        n = matrix.shape[0] if op == "spmv_transpose" else matrix.shape[1]
        x = rng.standard_normal(n)
        ref = getattr(single, op)(x)
        with ShardedSpMV(matrix, shards=2, grid=grid, method="adpt") as eng_t, \
                ShardedSpMV(matrix, shards=2, grid=grid, method="adpt",
                            backend="process") as eng_p:
            for backend, eng in (("thread", eng_t), ("process", eng_p)):
                if not np.array_equal(getattr(eng, op)(x), ref):
                    raise AssertionError(
                        f"{name}: {backend} {label} is not bit-exact"
                    )
            wall, ratio = _paired_ratio(
                getattr(eng_p, op), getattr(eng_t, op), x, repeats
            )
        out[label] = {"wall_process_s": wall, "ratio": ratio}
    return out


def bench_matrix(name, matrix, p_wide: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.shape[1])
    y_ref = TileSpMV(matrix, method="adpt").spmv(x)

    row = {
        "matrix": name,
        "m": matrix.shape[0],
        "n": matrix.shape[1],
        "nnz": int(matrix.nnz),
    }

    # P=1: supervisor overhead vs the thread backend.
    with ShardedSpMV(matrix, shards=1, method="adpt") as eng_t1:
        if not np.array_equal(eng_t1.spmv(x), y_ref):
            raise AssertionError(f"{name}: thread P=1 is not bit-exact")
        wall_t1 = _median_wall(lambda: eng_t1.spmv(x), repeats)
    with ShardedSpMV(matrix, shards=1, method="adpt",
                     backend="process") as eng_p1:
        if not np.array_equal(eng_p1.spmv(x), y_ref):
            raise AssertionError(f"{name}: process P=1 is not bit-exact")
        wall_p1 = _median_wall(lambda: eng_p1.spmv(x), repeats)
    row["wall_thread_p1_s"] = wall_t1
    row["wall_process_p1_s"] = wall_p1
    row["p1_overhead_s"] = max(0.0, wall_p1 - wall_t1)
    row["p1_overhead_ratio"] = wall_p1 / wall_t1 if wall_t1 > 0 else 0.0

    # P = min(4, cpus): the GIL-dodging gate.
    with ShardedSpMV(matrix, shards=p_wide, method="adpt") as eng_t:
        if not np.array_equal(eng_t.spmv(x), y_ref):
            raise AssertionError(f"{name}: thread P={p_wide} is not bit-exact")
        wall_t = _median_wall(lambda: eng_t.spmv(x), repeats)
    with ShardedSpMV(matrix, shards=p_wide, method="adpt",
                     backend="process") as eng_p:
        if not np.array_equal(eng_p.spmv(x), y_ref):
            raise AssertionError(f"{name}: process P={p_wide} is not bit-exact")
        wall_p = _median_wall(lambda: eng_p.spmv(x), repeats)
        cost = eng_p.multi_device_cost()
        st = eng_p.supervisor.stats()
    row["p_wide"] = p_wide
    row["wall_thread_s"] = wall_t
    row["wall_process_s"] = wall_p
    row["process_speedup"] = wall_t / wall_p if wall_p > 0 else 0.0
    row["model_spawn_s"] = cost.spawn_s
    row["model_shm_bytes"] = cost.shm_bytes
    row["worker_spawns"] = st["spawns"]
    row["worker_respawns"] = st["respawns"]
    row["overlap"] = bench_overlap(name, matrix, 4 * repeats)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small synthetic set (CI smoke)")
    parser.add_argument("--out", default="BENCH_procpool.json", help="JSON output path")
    parser.add_argument("--device", default="a100", choices=("a100", "titanrtx"))
    parser.add_argument("--repeats", type=int, default=5, help="wall-clock repeats (median)")
    args = parser.parse_args(argv)
    device = {"a100": A100, "titanrtx": TITAN_RTX}[args.device]

    cpus = os.cpu_count() or 1
    cpu_limited = cpus < 4
    p_wide = min(4, max(2, cpus)) if cpus > 1 else 2

    rows = []
    for name, matrix in _matrices(args.quick):
        row = bench_matrix(name, matrix, p_wide, args.repeats)
        rows.append(row)
        print(
            f"{row['matrix']:16s} "
            f"P=1 thread {row['wall_thread_p1_s'] * 1e3:8.3f} ms, "
            f"process {row['wall_process_p1_s'] * 1e3:8.3f} ms "
            f"(x{row['p1_overhead_ratio']:.2f})  "
            f"P={row['p_wide']} thread {row['wall_thread_s'] * 1e3:8.3f} ms, "
            f"process {row['wall_process_s'] * 1e3:8.3f} ms "
            f"({row['process_speedup']:.2f}x)  "
            f"spawn {row['model_spawn_s'] * 1e3:.1f} ms model, "
            f"shm {row['model_shm_bytes'] / 1e3:.1f} kB  "
            + "  ".join(
                f"{label} x{rec['ratio']:.2f}"
                for label, rec in row["overlap"].items()
            )
        )

    worst_p1 = max((r["p1_overhead_s"] for r in rows), default=0.0)
    p1_ok = worst_p1 <= P1_OVERHEAD_LIMIT_S
    p1_verdict = (
        f"P=1 supervisor overhead: worst {worst_p1 * 1e3:.3f} ms/call "
        f"(limit {P1_OVERHEAD_LIMIT_S * 1e3:.1f} ms) -> "
        f"{'PASS' if p1_ok else 'FAIL'}"
    )

    best_speedup = max((r["process_speedup"] for r in rows), default=0.0)
    if cpu_limited:
        # Too few cores for process parallelism to win; keep the gate
        # informational but still require the backend not to collapse.
        speedup_ok = best_speedup > 0.1
        speedup_verdict = (
            f"cpu_limited ({cpus} CPUs): process-vs-thread speedup "
            f"{best_speedup:.2f}x recorded, gate informational -> "
            f"{'PASS' if speedup_ok else 'FAIL'}"
        )
    else:
        speedup_ok = best_speedup >= SPEEDUP_FLOOR
        speedup_verdict = (
            f"best process-vs-thread speedup at P={p_wide}: "
            f"{best_speedup:.2f}x (floor {SPEEDUP_FLOOR}x) -> "
            f"{'PASS' if speedup_ok else 'FAIL'}"
        )

    worst_overlap = max(
        (rec["ratio"] for r in rows for rec in r["overlap"].values()),
        default=0.0,
    )
    overlap_ok = worst_overlap <= OVERLAP_GATE
    overlap_verdict = (
        f"overlapping products, process vs thread: worst "
        f"{worst_overlap:.2f}x (<= {OVERLAP_GATE:g}x) -> "
        f"{'PASS' if overlap_ok else 'FAIL'}"
    )

    ok = p1_ok and speedup_ok and overlap_ok
    payload = {
        "device": device.name,
        "quick": args.quick,
        "cpu_count": cpus,
        "cpu_limited": cpu_limited,
        "p_wide": p_wide,
        "p1_overhead_limit_s": P1_OVERHEAD_LIMIT_S,
        "worst_p1_overhead_s": worst_p1,
        "p1_gate_pass": bool(p1_ok),
        "best_process_speedup": best_speedup,
        "speedup_gate_pass": bool(speedup_ok),
        "overlap_gate": OVERLAP_GATE,
        "worst_overlap_ratio": worst_overlap,
        "overlap_gate_pass": bool(overlap_ok),
        "pass": bool(ok),
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{p1_verdict}")
    print(speedup_verdict)
    print(overlap_verdict)
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
