"""The three workloads: inputs from a seed, the ops, their checks.

Each workload builds its inputs from ``--seed`` alone and hands the
program only those inputs.  ``op(i, h)`` runs op ``i`` through
``h.timed`` (which times the call into ``repro`` and, on traced ops,
records its spans), then runs the same work with scipy CSR as the
engine, and checks the program's output against it.  An output that
fails a check is counted and printed, never raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import ReliableSpMV, RuntimeConfig, ServingRuntime, ShardedSpMV, TileSpMV
from repro.apps import solvers
from repro.apps.solvers import ScipyOperator
from repro.matrices import banded, fem_blocks, power_law, random_uniform, stencil_2d
from repro.serving import CoalesceConfig, synthetic_trace

# Elementwise check against the scipy reference: |y - ref| <= ATOL*max|ref|
# + RTOL*|ref|.  Reassociated sums of this many terms differ by ~1e-15.
RTOL = 1e-9
ATOL = 1e-9

CG_RTOL = 1e-8          # solver tolerance, relative to ||b||
CG_SHIFT = 0.01         # diagonal boost of the Laplacian: ~133 CG iterations
CG_MAX_ITER = 2000
CG_X_RTOL = 1e-6        # two CG runs on reassociated spmvs agree to this


def rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def close(y: np.ndarray, ref: np.ndarray, rtol: float = RTOL) -> bool:
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    return bool(np.allclose(y, ref, rtol=rtol, atol=ATOL * scale))


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@dataclass
class OpResult:
    """One op's measurements.  ``samples`` holds one wall time per op
    in the end-to-end sense (solve, step, served request)."""

    wall: float                  # time spent in calls into repro
    ref: float                   # same work with scipy as the engine
    samples: list = field(default_factory=list)
    flops: int = 0               # 2*nnz per product column
    bytes: int = 0               # computed: plan nbytes_model + vectors
    outcomes: int = 0            # end-to-end ops that finished in this call
    ok: int = 0                  # ... correct and on time
    errors: int = 0              # exceptions + outputs failing a check


def vector_bytes(shape, k: int = 1) -> int:
    return 8 * (shape[0] + shape[1]) * k


class SolveStencil:
    name = "solve-stencil"
    setups = 5
    count_ops = 3
    warm_window = 2
    tail_pct = 75

    def __init__(self, seed: int) -> None:
        self.seed = seed
        a = stencil_2d(300, 5, seed=seed)
        off = (a - sp.diags(a.diagonal())).tocsr()
        off = ((off + off.T) * 0.5).tocsr()
        off.eliminate_zeros()
        degree = np.asarray(off.sum(axis=1)).ravel()
        self.A = (sp.diags(degree * (1.0 + CG_SHIFT)) - off).tocsr()
        self.ref_engine = ScipyOperator(self.A)
        self.engine = None
        self.iterations: list[int] = []

    def matrices(self) -> dict:
        return {"A": self.A}

    def setup(self) -> None:
        self.engine = TileSpMV(self.A, method="adpt")

    def plan_bytes(self) -> dict:
        return {"A": self.engine.nbytes_model()}

    def close(self) -> None:
        self.engine = None

    def op(self, i: int, h) -> OpResult:
        b = rng(self.seed, 1, i).standard_normal(self.A.shape[0])

        def ours():
            return h.timed(lambda: solvers.conjugate_gradient(
                self.engine, b, tol=CG_RTOL, max_iter=CG_MAX_ITER))

        def ref():
            return timed(lambda: solvers.conjugate_gradient(
                self.ref_engine, b, tol=CG_RTOL, max_iter=CG_MAX_ITER))

        # Alternate which engine runs first so cache state favours neither.
        if i % 2:
            (x_ref, t_ref), (res, t) = ref(), ours()
        else:
            (res, t), (x_ref, t_ref) = ours(), ref()
        self.iterations.append(res.iterations)
        true_res = np.linalg.norm(b - self.A @ res.x) / np.linalg.norm(b)
        ok = (
            res.converged and not res.breakdown
            and true_res <= 10 * CG_RTOL
            and close(res.x, x_ref.x, rtol=CG_X_RTOL)
        )
        if not ok:
            h.report(f"op {i}: CG converged={res.converged} iterations="
                     f"{res.iterations} true residual {true_res:.3g} "
                     f"differs from the scipy-operator solve")
        calls = res.spmv_calls
        return OpResult(
            wall=t, ref=t_ref, samples=[t],
            flops=2 * self.A.nnz * calls,
            bytes=calls * (h.plan_bytes["A"] + vector_bytes(self.A.shape)),
            outcomes=1, ok=int(ok), errors=int(not ok),
        )

    def counts(self) -> dict:
        return {"solvers.iterations": float(np.mean(self.iterations[:self.count_ops]))}


class TimestepFem:
    name = "timestep-fem"
    setups = 5
    count_ops = 3
    warm_window = 4
    tail_pct = 75
    k = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.A = fem_blocks(20000, block=3, seed=seed)
        self.engine = None
        # Single-device twin: sharded fixed-method products must equal it
        # bit for bit.  Built once, outside every timed region.
        self.single = TileSpMV(self.A, method="adpt")

    def matrices(self) -> dict:
        return {"A": self.A}

    def setup(self) -> None:
        self.engine = ShardedSpMV(self.A, shards=2, method="adpt", backend="thread")

    def plan_bytes(self) -> dict:
        return {"A": self.engine.nbytes_model()}

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def op(self, i: int, h) -> OpResult:
        A, e = self.A, self.engine
        g = rng(self.seed, 2, i)
        vals = g.uniform(0.5, 1.5, A.nnz)
        X = g.standard_normal((A.shape[1], self.k))
        x = g.standard_normal(A.shape[1])
        xt = g.standard_normal(A.shape[0])

        def step():
            e.update_values(vals)
            return e.spmm(X), e.spmv(x), e.spmv_transpose(xt)

        def ref():
            B = sp.csr_matrix((vals, A.indices, A.indptr), shape=A.shape)
            return B @ X, B @ x, B.T @ xt

        if i % 2:
            (want, t_ref), (got, t) = timed(ref), h.timed(step)
        else:
            (got, t), (want, t_ref) = h.timed(step), timed(ref)
        s = self.single.update_values(vals)
        twin = (s.spmm(X), s.spmv(x), s.spmv_transpose(xt))
        errors = 0
        for name, y, yr, y1 in zip(("spmm", "spmv", "spmv_transpose"), got, want, twin):
            if not close(y, yr):
                errors += 1
                h.report(f"op {i}: sharded {name} differs from scipy")
            if not np.array_equal(y, y1):
                errors += 1
                h.report(f"op {i}: sharded {name} is not bit-for-bit the "
                         f"single-device product")
        cols = self.k + 2
        plan = h.plan_bytes["A"]
        return OpResult(
            wall=t, ref=t_ref, samples=[t],
            flops=2 * A.nnz * cols,
            bytes=3 * plan + vector_bytes(A.shape, cols),
            outcomes=1, ok=int(errors == 0), errors=int(errors > 0),
        )

    def counts(self) -> dict:
        return {}


class ServeMixed:
    name = "serve-mixed"
    setups = 3
    count_ops = 400
    warm_window = 100
    tail_pct = 99
    n_requests = 30000
    bit_sample = 48

    def __init__(self, seed: int) -> None:
        # One matrix per serving path: single device, thread shards,
        # process shards.
        self.seed = seed
        self.mats = {
            "power_law": power_law(50000, 8, seed=seed),
            "uniform": random_uniform(20000, 20000, 8, seed=seed + 1),
            "banded": banded(40000, 8, seed=seed + 2),
        }
        self.register_kwargs = {
            "power_law": {},
            "uniform": {"shards": 2, "backend": "thread"},
            "banded": {"shards": 2, "backend": "process"},
        }
        self.rt: ServingRuntime | None = None
        self.trace = None
        self.window_outcomes: list = []   # (rid, matrix, latency) in count window
        self.kept: list = []              # coalesced (matrix, x, y) sample
        self.requests: dict = {}

    def matrices(self) -> dict:
        return self.mats

    def setup(self) -> None:
        rt = ServingRuntime(RuntimeConfig(coalesce=CoalesceConfig()))
        for mid, m in self.mats.items():
            rt.register(mid, m, method="adpt", **self.register_kwargs[mid])
        self.rt = rt

    def plan_bytes(self) -> dict:
        # Computed by standalone single-device plans; the served engines
        # hold the same tiles split across shards.
        return {mid: TileSpMV(m, method="adpt").nbytes_model()
                for mid, m in self.mats.items()}

    def close(self) -> None:
        if self.rt is not None:
            self.rt.close()
            self.rt = None

    def make_trace(self) -> None:
        """Open-loop arrivals on the virtual clock, load set from estimate()."""
        est = {mid: self.rt.estimate(mid) for mid in self.mats}
        fast = float(np.mean([e["cached_plan"] for e in est.values()]))
        full = float(np.mean([e["full"] for e in est.values()]))
        # Bursts carry ~2/3 of the requests, so the median served request
        # rides a fused batch instead of sitting between the solo and the
        # batched modes of the op-time distribution, where it would jump.
        gap = 1.4 * full
        self.trace = synthetic_trace(
            list(self.mats), n_requests=self.n_requests, seed=self.seed,
            mean_interarrival=gap, burst_prob=0.2, burst_len=8,
            deadline_range=(0.8 * fast, 1.2 * full),
        )
        self.requests = {r.rid: r for r in self.trace}
        pick = rng(self.seed, 3).permutation(self.n_requests)[: 8 * self.bit_sample]
        self.sample_rids = set(int(r) for r in pick)
        self.loop_note = (
            f"arrivals: open loop on the virtual clock, mean interarrival "
            f"{gap * 1e3:.3f} ms (1.4x the mean 'full' estimate), deadlines "
            f"U({0.8 * fast * 1e6:.1f} us, {1.2 * full * 1e3:.3f} ms), bursts of 8 "
            f"w.p. 0.2; driver: one client, closed loop in wall time over "
            f"offer()/flush(). The runtime never reads wall time, so a "
            f"wall-clock rate sweep would not change what it does."
        )

    def _reference(self, outs, h):
        """scipy over the same products and the checks against it.

        Returns (reference seconds, errors, ok outcomes, flops, bytes).
        """
        groups: dict = {}
        for o in outs:
            if o.status != "served":
                continue
            key = (o.matrix_id, o.start, o.completion) if o.batch_size > 1 else (o.rid,)
            groups.setdefault(key, []).append(o)
        t_ref, errors, ok, flops, nbytes = 0.0, 0, 0, 0, 0
        for members in groups.values():
            mid = members[0].matrix_id
            A = self.mats[mid]
            t0 = time.perf_counter()
            X = np.column_stack([
                np.random.default_rng(self.requests[o.rid].x_seed).standard_normal(A.shape[1])
                for o in members
            ])
            Y = A @ X
            t_ref += time.perf_counter() - t0
            flops += 2 * A.nnz * len(members)
            nbytes += h.plan_bytes[mid] + vector_bytes(A.shape, len(members))
            for j, o in enumerate(members):
                good = o.verified and close(o.y, Y[:, j])
                if not good:
                    errors += 1
                    h.report(f"request {o.rid} ({mid}): served output differs from scipy")
                ok += int(good and o.deadline_met)
                if (o.batch_size > 1 and o.rid in self.sample_rids
                        and len(self.kept) < self.bit_sample):
                    self.kept.append((mid, X[:, j], o.y))
        return t_ref, errors, ok, flops, nbytes

    def _result(self, outs, t, h, i) -> OpResult:
        t_ref, errors, ok, flops, nbytes = self._reference(outs, h)
        served = [o for o in outs if o.status == "served"]
        if i is not None and i < self.count_ops:
            self.window_outcomes += [(o.rid, o.matrix_id, o.latency) for o in served]
        return OpResult(
            wall=t, ref=t_ref, samples=[t] * len(served), flops=flops,
            bytes=nbytes, outcomes=len(outs), ok=ok, errors=errors,
        )

    def op(self, i: int, h) -> OpResult | None:
        if i >= len(self.trace):
            return None
        req = self.trace[i]
        outs, t = h.timed(lambda: self.rt.offer(req))
        return self._result(outs, t, h, i)

    def finish(self, h) -> OpResult:
        outs, t = h.timed(self.rt.flush)
        return self._result(outs, t, h, None)

    def final_check(self, h) -> int:
        """Coalesced columns vs standalone ReliableSpMV.spmv, bit for bit.

        Sharded fixed-method products equal the single-device plan bit
        for bit on every backend, so one single-device engine per matrix
        is the standalone reference.
        """
        errors = 0
        engines = {}
        for mid, x, y in self.kept:
            if mid not in engines:
                engines[mid] = ReliableSpMV(self.mats[mid], method="adpt")
            if not np.array_equal(engines[mid].spmv(x), y):
                errors += 1
                h.report(f"{mid}: coalesced column is not bit-for-bit the "
                         f"standalone ReliableSpMV.spmv")
        for e in engines.values():
            e.close()
        h.note(f"bit-for-bit sample: {len(self.kept)} coalesced columns checked, "
               f"{errors} mismatches")
        return errors

    def counts(self) -> dict:
        s = self.rt.stats()
        served = max(s["served"], 1)
        sizes = s["coalesce"]["batch_sizes"]
        n_batches = sum(sizes.values())
        lat = sorted(l for _, _, l in self.window_outcomes)
        out = {
            "serving.shed_frac": s["shed"] / max(s["submitted"], 1),
            "serving.deadline_miss_frac": s["deadline_misses"] / served,
            "serving.coalesced_frac": s["coalesced"] / served,
            "serving.batch_size_mean": (
                sum(k * n for k, n in sizes.items()) / n_batches if n_batches else 0.0
            ),
            "serving.virtual_latency_p99_ms": (
                1e3 * lat[min(len(lat) - 1, int(0.99 * len(lat)))] if lat else 0.0
            ),
            "core.plan_cache.hits": s["plan_cache"]["hits"],
            "core.plan_cache.misses": s["plan_cache"]["misses"],
            "core.plan_cache.evictions": s["plan_cache"]["evictions"],
        }
        for name, n in s["levels"].items():
            out[f"serving.level_share.{name}"] = n / served
        return out

    def window_served(self, matrix_id: str) -> int:
        """Requests on ``matrix_id`` served within the count window."""
        return sum(1 for _, mid, _ in self.window_outcomes if mid == matrix_id)


WORKLOADS = {w.name: w for w in (SolveStencil, TimestepFem, ServeMixed)}
