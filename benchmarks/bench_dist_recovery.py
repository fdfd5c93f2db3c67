"""Shard-level recovery benchmark: overhead and localization payoff.

Quantifies what the recovery ladder costs and what localization buys,
per matrix and shard count:

* modelled fault-free overhead: ``RecoverableShardedSpMV`` cost vs the
  bare ``ShardedSpMV`` (must be ~zero — ABFT checks are host-side and
  the recovery terms default to zero without faults),
* localized-retry speedup: modelled time of a seeded single-shard
  corruption recovered by retrying only the faulty shard, vs the naive
  strategy of paying the same detection + backoff but re-running the
  whole P-shard engine (the retry term in ``MultiDeviceRunCost`` prices
  one shard; the naive rebuild prices all of them),
* a recovery drill: one campaign per seed in ``FAULT_SEEDS``; the run
  fails unless every recovered product is bit-equal to the fault-free
  single-device reference and only the faulty shard re-executed,
* measured fault-free wall time, one row per matrix: the median
  ``RecoverableShardedSpMV.spmv`` over the median bare
  ``ShardedSpMV.spmv`` (alternating samples) on 1D P=2, 1D P=4 and a
  2x2 grid, as ``wall_ratio``.  Reported, not gated: it shows what the
  per-shard verification costs in wall time on this host.

Results land in a JSON file (default ``BENCH_dist_recovery.json``) so
CI can archive them.  ``--quick`` uses two small synthetic matrices at
P in {2, 4}; the full run sweeps the representative suite at
P in {2, 4, 8}.  Exits non-zero if any recovery is wrong, any retry
fails to localize, or the localized-retry speedup ever drops below 1x.

    PYTHONPATH=src python benchmarks/bench_dist_recovery.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.tilespmv import TileSpMV
from repro.dist import (
    RecoverableShardedSpMV,
    ShardedSpMV,
    ShardFaultPlan,
    shard_fault_injection,
)
from repro.gpu.device import A100, TITAN_RTX

from bench_procpool import _paired_ratio

FAULT_SEEDS = (0, 17, 4242)

# Partitions of the measured wall-time row.
WALL_PARTITIONS = (
    ("1d_p2", {"shards": 2}),
    ("1d_p4", {"shards": 4}),
    ("grid_2x2", {"grid": (2, 2)}),
)
# Alternating wall-clock samples per engine in that row (median).
WALL_REPEATS = 7


def _matrices(quick: bool):
    if quick:
        from repro.matrices import generators as g

        return [
            ("fem_quick", g.fem_blocks(600, block=3, avg_degree=12, seed=7)),
            ("powerlaw_quick", g.power_law(1500, avg_degree=8, seed=8)),
        ]
    from repro.matrices.representative import representative_suite

    return [(rec.name, rec.matrix) for rec in representative_suite()]


def bench_matrix(name, matrix, shards, device) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(matrix.shape[1])
    ref = TileSpMV(matrix, method="adpt", validation="trust").spmv(x)

    # Fault-free overhead: the ladder's price when nothing goes wrong.
    with ShardedSpMV(matrix, shards=shards) as bare:
        t_bare = bare.multi_device_cost().time(device)
    with RecoverableShardedSpMV(matrix, shards=shards) as clean:
        clean.spmv(x)
        t_clean = clean.multi_device_cost().time(device)
    faultfree_overhead = t_clean / t_bare - 1.0

    # Recovery drill: seeded single-shard corruption per campaign seed.
    # Localized retry must recover bit-for-bit and touch only one shard.
    recovered = 0
    localized = 0
    t_localized = 0.0
    t_naive = 0.0
    for seed in FAULT_SEEDS:
        faulty_rank = seed % shards
        with shard_fault_injection(
            ShardFaultPlan(seed=seed, corrupt_devices=(faulty_rank,))
        ):
            with RecoverableShardedSpMV(matrix, shards=shards) as eng:
                y = eng.spmv(x)
                counts = eng.shard_exec_counts
                if np.array_equal(y, ref):
                    recovered += 1
                if counts[faulty_rank] == 2 and sum(counts) == shards + 1:
                    localized += 1
                mdc = eng.multi_device_cost()
                t_loc = mdc.time(device)
                t_localized += t_loc
                # Naive alternative: same detection and backoff, but
                # throw the product away and re-run all P shards
                # instead of the one retried shard.
                t_retry = sum(rc.time(device) for rc in mdc.retry_costs or [])
                t_naive += t_loc - t_retry + t_bare
    t_localized /= len(FAULT_SEEDS)
    t_naive /= len(FAULT_SEEDS)
    speedup = t_naive / t_localized if t_localized > 0 else 0.0

    return {
        "matrix": name,
        "shards": shards,
        "m": matrix.shape[0],
        "n": matrix.shape[1],
        "nnz": int(matrix.nnz),
        "faultfree_overhead": faultfree_overhead,
        "localized_recovery_seconds": t_localized,
        "full_retry_seconds": t_naive,
        "localized_speedup": speedup,
        "campaigns": len(FAULT_SEEDS),
        "recovered": recovered,
        "localized": localized,
    }


def bench_wall(name, matrix) -> dict:
    """Measured fault-free ``spmv``: recoverable vs bare, per partition."""
    x = np.random.default_rng(1).standard_normal(matrix.shape[1])
    row = {"matrix": name, "nnz": int(matrix.nnz), "recoverable_ms": {},
           "wall_ratio": {}, "bit_exact": True}
    for label, part in WALL_PARTITIONS:
        with ShardedSpMV(matrix, **part) as bare, \
                RecoverableShardedSpMV(matrix, **part) as rec:
            # Also the warm-up: pools, replay operands.
            row["bit_exact"] &= rec.spmv(x).tobytes() == bare.spmv(x).tobytes()
            wall, ratio = _paired_ratio(rec.spmv, bare.spmv, x, WALL_REPEATS)
        row["recoverable_ms"][label] = wall * 1e3
        row["wall_ratio"][label] = ratio
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small synthetic set (CI smoke)")
    parser.add_argument("--out", default="BENCH_dist_recovery.json", help="JSON output path")
    parser.add_argument("--device", default="a100", choices=("a100", "titanrtx"))
    args = parser.parse_args(argv)
    device = {"a100": A100, "titanrtx": TITAN_RTX}[args.device]
    shard_counts = (2, 4) if args.quick else (2, 4, 8)

    rows = []
    wall = []
    for name, matrix in _matrices(args.quick):
        wall.append(bench_wall(name, matrix))
        print(
            f"{name:18s} fault-free wall, recoverable / bare spmv: "
            + "  ".join(f"{k} {v:5.2f}x" for k, v in wall[-1]["wall_ratio"].items())
        )
        for shards in shard_counts:
            row = bench_matrix(name, matrix, shards, device)
            rows.append(row)
            print(
                f"{name:18s} P={shards}  fault-free overhead "
                f"{row['faultfree_overhead'] * 100:6.2f}%  "
                f"localized retry {row['localized_speedup']:5.2f}x vs full  "
                f"recovered {row['recovered']}/{row['campaigns']}, "
                f"localized {row['localized']}/{row['campaigns']}"
            )

    all_recovered = all(r["recovered"] == r["campaigns"] for r in rows)
    all_localized = all(r["localized"] == r["campaigns"] for r in rows)
    min_speedup = min(r["localized_speedup"] for r in rows)
    wall_exact = all(w["bit_exact"] for w in wall)
    ok = all_recovered and all_localized and min_speedup >= 1.0 and wall_exact
    payload = {
        "device": device.name,
        "quick": args.quick,
        "seeds": list(FAULT_SEEDS),
        "all_recovered_bit_exact": all_recovered,
        "all_retries_localized": all_localized,
        "min_localized_speedup": min_speedup,
        "pass": ok,
        "rows": rows,
        "wall": wall,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\nrecovery {'bit-exact' if all_recovered else 'WRONG'}; "
        f"fault-free products {'bit-exact' if wall_exact else 'WRONG'}; "
        f"localization {'holds' if all_localized else 'BROKEN'}; "
        f"min localized speedup {min_speedup:.2f}x -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    print(f"results written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
