"""Measured wall-time benchmark of the repro stack.

    python3 perfbench/run.py --workload solve-stencil --seed 1 --seconds 20 --trace 0

Run from the repository root; ``src/`` is put on the import path.  The
workload's inputs come from ``--seed`` alone.  After the set-up (done
several times, median reported) ops run until the per-op time settles
(``bench.warmup_s``), then for ``--seconds`` of wall time, each op
interleaved with the same work on scipy CSR and checked against it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced ops and prints the per-layer metrics, derived from
spans the benchmark records around public calls into ``repro`` (see
``tracing.py``).  ``repro.telemetry`` stays off and the process
environment is left as found (``OPENBLAS_NUM_THREADS`` in particular).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment and working sets, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# name -> unit, printed with --trace 0 on every workload.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "gflops": "GFlop/s",
    "scipy_ratio": "ratio",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# name -> unit, printed with --trace 1 on every workload (0 where the
# layer does not run on that workload; the output says which).
PER_LAYER = {
    "core.build_s": "s",
    "core.spmv_us": "us",
    "core.spmm_us_per_col": "us",
    "core.update_values_ms": "ms",
    "core.flops": "count",
    "core.bytes_computed": "B",
    "core.flops_per_byte": "flop/B",
    "core.plan_cache.hits": "count",
    "core.plan_cache.misses": "count",
    "core.plan_cache.evictions": "count",
    "solvers.iterations": "count",
    "solvers.scalar_ms": "ms",
    "solvers.spmv_share": "frac",
    "reliability.verify_us": "us",
    "reliability.verified_ok": "count",
    "reliability.detected": "count",
    "reliability.retries": "count",
    "reliability.fallbacks": "count",
    "dist.spmv_ms": "ms",
    "dist.spmm_ms": "ms",
    "dist.transpose_ms": "ms",
    "dist.update_values_ms": "ms",
    "dist.overhead_ms": "ms",
    "dist.imbalance": "ratio",
    "procpool.call_ms": "ms",
    "procpool.round_trips_per_request": "ratio",
    "procpool.spawn_s": "s",
    "procpool.respawns": "count",
    "serving.offer_self_us": "us",
    "serving.coalesced_frac": "frac",
    "serving.batch_size_mean": "count",
    "serving.shed_frac": "frac",
    "serving.deadline_miss_frac": "frac",
    "serving.level_share.full": "frac",
    "serving.level_share.no_arbitration": "frac",
    "serving.level_share.cached_plan": "frac",
    "serving.level_share.scalar": "frac",
    "serving.virtual_latency_p99_ms": "ms",
    "bench.warmup_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.scipy_us": "us",
    "bench.unattributed_frac": "frac",
}

# Counts that must repeat exactly for a given seed (tested by
# test_determinism.py).  They are taken over the first ``count_ops`` ops,
# which always run, whatever the wall clock does.
EXACT = (
    "solvers.iterations", "core.flops", "core.bytes_computed",
    "core.plan_cache.hits", "core.plan_cache.misses",
    "core.plan_cache.evictions",
    "serving.shed_frac", "serving.coalesced_frac", "serving.batch_size_mean",
    "serving.deadline_miss_frac", "serving.virtual_latency_p99_ms",
    "serving.level_share.full", "serving.level_share.no_arbitration",
    "serving.level_share.cached_plan", "serving.level_share.scalar",
    "procpool.round_trips_per_request",
    "reliability.verified_ok", "reliability.detected",
    "reliability.retries", "reliability.fallbacks",
)

SETTLE = 0.15          # warm-up ends when a window's median is within 15% of the last


def median(xs, default=0.0) -> float:
    return float(statistics.median(xs)) if xs else default


def tail(samples, pct: float) -> tuple[float, int, int]:
    """Nearest-rank ``pct`` percentile; returns (value, beyond, count).

    Each workload fixes its tail percentile: the highest of p75/p90/p99
    with at least 10 samples beyond it in a ``run_seconds`` run on the
    reference box.  A percentile that moved with the sample count would
    jump between runs.  ``beyond`` is printed so a run with fewer than
    10 samples past it shows.
    """
    xs = sorted(samples)
    n = len(xs)
    if not n:
        return 0.0, 0, 0
    idx = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
    return xs[idx], n - 1 - idx, n


# -- environment -----------------------------------------------------------


def caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for d in sorted(base.glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def cache_bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else int(size or 0)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        b = cfg["Build Dependencies"]["blas"]
        blas = {k: b.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "caches": caches(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live worker child (VmHWM)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            for line in Path(f"/proc/{child.pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies over all CPUs since boot, from /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    vals = [int(v) for v in fields]
    return (vals[7] if len(vals) > 7 else 0), sum(vals[:8])


# -- harness ---------------------------------------------------------------


class Harness:
    """What a workload's op sees: timing, tracing, reporting."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.traced = False
        self.op_id = ""
        self.plan_bytes: dict = {}
        self.errors_seen = 0
        self.notes: list[str] = []

    def timed(self, fn):
        """Run ``fn``; return (result, wall seconds), spans if traced."""
        region = (self.recorder.region(self.op_id) if self.traced
                  else contextlib.nullcontext())
        with region:
            t0 = time.perf_counter()
            out = fn()
            t = time.perf_counter() - t0
        return out, t

    def report(self, msg: str) -> None:
        self.errors_seen += 1
        if self.errors_seen <= 20:
            print(f"# CHECK FAILED: {msg}", flush=True)

    def note(self, msg: str) -> None:
        self.notes.append(msg)


def run_op(wl, h, i, traced):
    from workloads import OpResult

    h.traced = traced
    h.op_id = f"op{i}"
    try:
        return wl.op(i, h)
    except Exception:  # one failing op is counted, the run goes on
        h.report(f"op {i} raised:\n{traceback.format_exc()}")
        return OpResult(wall=0.0, ref=0.0, outcomes=1, errors=1)
    finally:
        h.traced = False


def run(wl, seconds: float, recorder, seed: int) -> dict:
    h = Harness(recorder)
    setup_s = []
    last_setup_objs = {}
    for k in range(wl.setups):
        wl.close()
        region = contextlib.nullcontext()
        if recorder is not None:
            last_setup_objs = {n: len(v) for n, v in recorder.objects.items()}
            region = recorder.region(f"setup{k}", "bench.setup")
        with region:
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
    h.plan_bytes = wl.plan_bytes()
    if hasattr(wl, "make_trace"):
        wl.make_trace()

    def last_setup(name):
        refs = recorder.objects.get(name, []) if recorder is not None else []
        objs = (ref() for ref in refs[last_setup_objs.get(name, 0):])
        return [o for o in objs if o is not None]

    totals = {"attempted": 0, "failed": 0}
    window: list = []            # op results within the count window
    counts: dict = {}

    def account(r):
        totals["attempted"] += r.outcomes
        totals["failed"] += r.errors

    def snapshot_counts():
        c = dict(wl.counts())
        c["core.flops"] = sum(r.flops for r in window)
        c["core.bytes_computed"] = sum(r.bytes for r in window)
        rel = last_setup("reliability.build")
        for key in ("verified_ok", "detected", "retries", "fallbacks"):
            c[f"reliability.{key}"] = sum(e.counters[key] for e in rel)
        pools = last_setup("procpool.build")
        if pools and hasattr(wl, "window_served"):
            trips = sum(p.supervisor.stats()["round_trips"] for p in pools)
            c["procpool.round_trips_per_request"] = trips / max(wl.window_served("banded"), 1)
        return c

    # Warm-up: ops until a window's median time settles.  The count
    # window (the first count_ops ops) always falls inside it.
    W = wl.warm_window
    cap = max(3.0, 0.5 * seconds)
    walls: list[float] = []
    i = 0
    t_warm = time.perf_counter()
    while True:
        r = run_op(wl, h, i, traced=False)
        if r is None:
            break
        account(r)
        walls.append(r.wall)
        if i < wl.count_ops:
            window.append(r)
        i += 1
        if i == wl.count_ops:
            counts = snapshot_counts()
        if i >= max(wl.count_ops, 2 * W):
            prev, last = median(walls[-2 * W:-W]), median(walls[-W:])
            if prev > 0 and abs(last / prev - 1.0) <= SETTLE:
                break
        if time.perf_counter() - t_warm > cap and i >= wl.count_ops:
            h.note(f"warm-up stopped at its {cap:g} s cap before settling")
            break
    warmup_s = time.perf_counter() - t_warm
    h.note(f"warm-up: {i} ops")

    # Measured window.  With a recorder, half the ops are traced, picked
    # by a seeded coin: parity could line up with periodic structure in
    # the workload (bursts of 8).
    coin = random.Random(seed)
    plain, traced = [], []
    steal0, total0 = cpu_jiffies()
    t_meas = time.perf_counter()
    while time.perf_counter() - t_meas < seconds:
        is_traced = recorder is not None and coin.random() < 0.5
        r = run_op(wl, h, i, traced=is_traced)
        if r is None:
            h.note("trace exhausted before --seconds ran out")
            break
        account(r)
        (traced if is_traced else plain).append(r)
        i += 1
    if hasattr(wl, "finish"):
        r = wl.finish(h)
        account(r)
        plain.append(r)
    measured_s = time.perf_counter() - t_meas
    steal1, total1 = cpu_jiffies()
    if total1 > total0:
        h.note(f"CPU steal during the measured window: "
               f"{100.0 * (steal1 - steal0) / (total1 - total0):.1f}% "
               f"(time the host gave this VM's CPUs to others)")
    if hasattr(wl, "final_check"):
        totals["failed"] += wl.final_check(h)
    rss = peak_rss_mb()
    pools = last_setup("procpool.build")
    respawns = sum(p.supervisor.stats()["respawns"] for p in pools)
    shard_names = {
        id(engine): f"sharded{k}.shard{j}"
        for k, sharded in enumerate(last_setup("dist.build"))
        for j, engine in enumerate(sharded.engines)
    }
    wl.close()

    return {
        "setup_s": setup_s, "warmup_s": warmup_s, "measured_s": measured_s,
        "plain": plain, "traced": traced, "counts": counts, "totals": totals,
        "rss_mb": rss, "respawns": respawns, "notes": h.notes,
        "shard_names": shard_names,
        "plan_bytes": h.plan_bytes, "ops_run": i, "tail_pct": wl.tail_pct,
    }


# -- metrics ---------------------------------------------------------------


def end_to_end(res: dict) -> tuple[dict, dict]:
    ops = res["plain"]
    samples = [s for r in ops for s in r.samples]
    wall = sum(r.wall for r in ops)
    ref = sum(r.ref for r in ops)
    outcomes = sum(r.outcomes for r in ops)
    value, beyond, n = tail(samples, res["tail_pct"])
    metrics = {
        "setup_s": median(res["setup_s"]),
        "op_p50_ms": 1e3 * median(samples),
        "op_tail_ms": 1e3 * value,
        "gflops": sum(r.flops for r in ops) / wall / 1e9 if wall else 0.0,
        "scipy_ratio": wall / ref if ref else 0.0,
        "ok_frac": sum(r.ok for r in ops) / outcomes if outcomes else 0.0,
        "peak_rss_mb": res["rss_mb"],
    }
    info = {
        "op_tail_percentile": res["tail_pct"], "op_samples": n,
        "op_tail_beyond": beyond, "samples_ms": [1e3 * x for x in samples],
        "ops_measured": len(ops) + len(res["traced"]),
        "op_loop_wall_s": wall, "scipy_wall_s": ref,
        "setup_s_all": res["setup_s"],
    }
    return metrics, info


def per_layer(res: dict, recorder) -> tuple[dict, dict]:
    from tracing import attributed_seconds, children_of, self_seconds

    spans = recorder.spans
    kids = children_of(spans)
    ops = [s for s in spans if s.op.startswith("op")]
    by_name: dict = {}
    for s in ops:
        by_name.setdefault(s.name, []).append(s)

    def self_med(name, scale, per=None):
        xs = [self_seconds(s, kids) / (per(s) if per else 1) for s in by_name.get(name, [])]
        return scale * median(xs)

    def dur_med(name, scale):
        return scale * median([s.seconds for s in by_name.get(name, [])])

    def setup_sum(name):
        per = {}
        for s in spans:
            if s.name == name and s.op.startswith("setup"):
                per[s.op] = per.get(s.op, 0.0) + s.seconds
        return median(list(per.values()))

    # Per-shard busy time inside each thread-backend sharded call.
    overhead, imbalance = [], []
    shard_busy: dict = {}
    for name in ("dist.spmv", "dist.spmm", "dist.transpose", "dist.update_values"):
        for s in by_name.get(name, []):
            busy: dict = {}
            for c in kids.get(s.sid, ()):
                if c.name.startswith("core."):
                    busy[c.obj] = busy.get(c.obj, 0.0) + c.seconds
            for obj, sec in busy.items():
                label = res["shard_names"].get(obj, "unknown")
                shard_busy[label] = shard_busy.get(label, 0.0) + sec
            if name == "dist.update_values":
                continue
            overhead.append(s.seconds - max(busy.values(), default=0.0))
            if name != "dist.transpose" and len(busy) >= 2:
                imbalance.append(max(busy.values()) / (sum(busy.values()) / len(busy)))

    cg = by_name.get("solvers.conjugate_gradient", [])
    roots = by_name.get("bench.op", [])
    traced_samples = [x for r in res["traced"] for x in r.samples]
    plain_samples = [x for r in res["plain"] for x in r.samples]
    p50_plain = median(plain_samples)
    refs = [r.ref for r in res["plain"] + res["traced"] if r.ref > 0]

    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "core.build_s": setup_sum("core.build"),
        "core.spmv_us": self_med("core.spmv", 1e6),
        "core.spmm_us_per_col": self_med("core.spmm", 1e6, per=lambda s: s.meta or 1),
        "core.update_values_ms": self_med("core.update_values", 1e3),
        "solvers.scalar_ms": self_med("solvers.conjugate_gradient", 1e3),
        "solvers.spmv_share": median(
            [1.0 - self_seconds(s, kids) / s.seconds for s in cg if s.seconds > 0]),
        "reliability.verify_us": 1e6 * median(
            [self_seconds(s, kids) for n in ("reliability.spmv", "reliability.spmm")
             for s in by_name.get(n, [])]),
        "dist.spmv_ms": dur_med("dist.spmv", 1e3),
        "dist.spmm_ms": dur_med("dist.spmm", 1e3),
        "dist.transpose_ms": dur_med("dist.transpose", 1e3),
        "dist.update_values_ms": dur_med("dist.update_values", 1e3),
        "dist.overhead_ms": 1e3 * median(overhead),
        "dist.imbalance": median(imbalance),
        "procpool.call_ms": dur_med("procpool.call", 1e3),
        "procpool.spawn_s": setup_sum("procpool.spawn"),
        "procpool.respawns": res["respawns"],
        "serving.offer_self_us": self_med("serving.offer", 1e6),
        "bench.warmup_s": res["warmup_s"],
        "bench.trace_overhead": median(traced_samples) / p50_plain if p50_plain else 0.0,
        "bench.scipy_us": 1e6 * median(refs),
        "bench.unattributed_frac": (
            sum(self_seconds(s, kids) for s in roots) / sum(s.seconds for s in roots)
            if roots else 0.0
        ),
    })
    m.update({k: v for k, v in res["counts"].items() if k in PER_LAYER})
    if m["core.bytes_computed"]:
        m["core.flops_per_byte"] = m["core.flops"] / m["core.bytes_computed"]

    # Where a traced op's wall time went, per layer (mean ms per op).
    shares: dict = {}
    for root in roots:
        for name, sec in attributed_seconds(root, kids).items():
            shares[name] = shares.get(name, 0.0) + sec
    n_roots = max(len(roots), 1)
    table = {name: 1e3 * sec / n_roots for name, sec in sorted(shares.items())}
    plain_walls = [r.wall for r in res["plain"]]
    info = {
        "traced_samples_ms": [1e3 * x for x in traced_samples],
        "attributed_ms_per_op": table,
        "attributed_sum_ms": sum(table.values()),
        "untraced_mean_op_ms": 1e3 * statistics.fmean(plain_walls) if plain_walls else 0.0,
        "shard_busy_ms_per_op": {
            k: 1e3 * v / n_roots for k, v in sorted(shard_busy.items())},
        "traced_ops": len(roots),
        "zero": sorted(k for k, v in m.items() if v == 0.0),
        "exact_counts": {k: m[k] for k in EXACT},
    }
    return m, info


def working_set(wl, plan_bytes: dict, env: dict) -> dict:
    l2 = cache_bytes(env["caches"].get("L2", "0"))
    l3 = cache_bytes(env["caches"].get("L3", "0"))
    out = {}
    for name, a in wl.matrices().items():
        csr = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
        plan = plan_bytes.get(name, 0)
        out[name] = {
            "shape": list(a.shape), "nnz": int(a.nnz), "csr_bytes": csr,
            "plan_bytes_computed": plan,
            "plan_over_L2": plan / l2 if l2 else None,
            "plan_over_L3": plan / l3 if l3 else None,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from tracing import Recorder

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    wl = workloads.WORKLOADS[args.workload](args.seed)
    recorder = Recorder(trace_targets()) if args.trace else None
    try:
        res = run(wl, args.seconds, recorder, args.seed)
    finally:
        wl.close()
        stop_children()
        if recorder is not None:
            recorder.uninstall()

    e2e, e2e_info = end_to_end(res)
    record = {
        "workload": wl.name, "why": why.get(wl.name, ""), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "working_set": working_set(wl, res["plan_bytes"], env),
        "working_set_note": (
            "plan bytes are computed from nbytes_model, not measured; no "
            "bandwidth is claimed, since arrays of 4x the LLC would not fit "
            "in memory next to the rest of the run"),
        "loop": getattr(wl, "loop_note", "closed loop: one op at a time, "
                        "each op interleaved with the same work on scipy CSR"),
        "end_to_end": e2e, "end_to_end_info": e2e_info,
        "warmup_s": res["warmup_s"], "measured_s": res["measured_s"],
        "ops_run": res["ops_run"], "notes": res["notes"],
    }
    for line in (
        f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"# env {json.dumps(env)}",
        f"# working set {json.dumps(record['working_set'])}",
        f"# {record['working_set_note']}",
        f"# loop: {record['loop']}",
        f"# warm-up {res['warmup_s']:.3f} s, measured {res['measured_s']:.3f} s, "
        f"{e2e_info['ops_measured']} ops",
        f"# op_tail_ms is p{e2e_info['op_tail_percentile']:g} of "
        f"{e2e_info['op_samples']} samples, {e2e_info['op_tail_beyond']} beyond it",
        *(f"# note: {n}" for n in res["notes"]),
    ):
        print(line)
    for name, unit in END_TO_END.items():
        print(f"# {name} = {e2e[name]:.6g} {unit}")

    if args.trace:
        layers, layer_info = per_layer(res, recorder)
        record["per_layer"] = layers
        record["per_layer_info"] = layer_info
        for name, unit in PER_LAYER.items():
            print(f"# {name} = {layers[name]:.6g} {unit}")
        print(f"# zero here (layer not run on this workload, or a count of 0): "
              f"{', '.join(layer_info['zero'])}")
        print("# wall time of a traced op by innermost layer (mean ms/op):")
        for name, ms in layer_info["attributed_ms_per_op"].items():
            print(f"#   {name:32s} {ms:10.4f}")
        print(f"#   {'sum':32s} {layer_info['attributed_sum_ms']:10.4f}  "
              f"(untraced mean op {layer_info['untraced_mean_op_ms']:.4f} ms, "
              f"trace overhead at p50 {layers['bench.trace_overhead']:.3f}x)")
        print("# shard busy time inside thread-backend sharded calls (mean ms/op):")
        for name, ms in layer_info["shard_busy_ms_per_op"].items():
            print(f"#   {name:32s} {ms:10.4f}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if recorder is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            [[s.sid, s.parent, s.name, s.t0, s.t1, s.op, s.obj, s.meta]
             for s in recorder.spans]))

    failed = res["totals"]["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(res["totals"]["attempted"], 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Parked worker pools are shut down and any worker still alive is
    killed.  Creating a shared-memory segment starts multiprocessing's
    resource tracker; left alone it outlives this process by however
    long its own clean-up takes, so it is stopped and waited for here.
    The tracker only exits once every holder of its pipe has closed it,
    which is why the forked workers go first.
    """
    from multiprocessing import resource_tracker

    from repro.dist.procpool import shutdown_persistent_pools

    shutdown_persistent_pools()
    for child in multiprocessing.active_children():
        child.join(timeout=2.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def trace_targets():
    """Public layer boundaries the traced run wraps."""
    from repro.apps import solvers
    from repro.core.tilespmv import TileSpMV
    from repro.dist.procpool import ProcessShardedSpMV, WorkerSupervisor
    from repro.dist.sharded import ShardedSpMV
    from repro.reliability.reliable import ReliableSpMV
    from repro.serving.runtime import ServingRuntime

    def k(args):
        return args[1].shape[1]

    return [
        (TileSpMV, "__init__", "core.build", None),
        (TileSpMV, "spmv", "core.spmv", None),
        (TileSpMV, "spmm", "core.spmm", k),
        (TileSpMV, "update_values", "core.update_values", None),
        (solvers, "conjugate_gradient", "solvers.conjugate_gradient", None),
        (ReliableSpMV, "__init__", "reliability.build", None),
        (ReliableSpMV, "spmv", "reliability.spmv", None),
        (ReliableSpMV, "spmm", "reliability.spmm", k),
        (ShardedSpMV, "__init__", "dist.build", None),
        (ShardedSpMV, "spmv", "dist.spmv", None),
        (ShardedSpMV, "spmm", "dist.spmm", k),
        (ShardedSpMV, "spmv_transpose", "dist.transpose", None),
        (ShardedSpMV, "update_values", "dist.update_values", None),
        (ProcessShardedSpMV, "__init__", "procpool.build", None),
        (ProcessShardedSpMV, "spmv", "procpool.spmv", None),
        (ProcessShardedSpMV, "spmm", "procpool.spmm", k),
        (WorkerSupervisor, "start", "procpool.spawn", None),
        (WorkerSupervisor, "run", "procpool.call", None),
        (ServingRuntime, "offer", "serving.offer", None),
    ]


if __name__ == "__main__":
    sys.exit(main())
