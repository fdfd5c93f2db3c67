"""Supervised process-pool execution backend.

:class:`ProcessShardedSpMV` is a :class:`~repro.dist.sharded.ShardedSpMV`
whose shards execute in real worker *processes* instead of threads — the
backend that makes "heavy traffic on a many-core host" real rather than
modelled.  Three mechanisms carry the design:

* **Plan wire format** — each shard's canonical CSR block plus its
  engine configuration is frozen once by
  :func:`~repro.core.serialize.pack_shard_plan` and shipped to the
  worker at spawn (and at every respawn).  The worker rebuilds its
  :class:`~repro.core.tilespmv.TileSpMV` from the wire
  deterministically, so worker results are bit-for-bit the parent's —
  the combine rules of the thread backend (concatenation, ordered
  replay, fixed-shape tree) apply unchanged.
* **Shared-memory payloads** — per-call inputs and outputs live in
  :mod:`multiprocessing.shared_memory` segments: the parent writes
  ``x`` once, every worker reads its window as a zero-copy numpy view,
  and each worker writes its block/weights into its own output segment.
  Nothing on the hot path is pickled; the pipes carry only small
  command/reply dicts.
* **Worker supervision** — :class:`WorkerSupervisor` owns the
  robustness story: heartbeat liveness probes, detection of crashed
  (exit code) and hung (missed deadline) workers, seed-deterministic
  respawn-with-backoff that replays *only* the lost shard (the same
  localization discipline as the PR 7 recovery ladder, with the backoff
  charged to the virtual clock), a per-worker circuit breaker whose
  trip quarantines the worker (its shard falls back to the in-process
  engine), and graceful degradation to the thread backend — and from
  there to sequential — when every worker is quarantined.

Real processes leak real resources, so segment lifecycle is owned by a
**janitor**: every segment this process creates is registered under a
recognisable name (``reproshm_<pid>_...``), released on
context-manager ``close()``, swept by an ``atexit`` hook on normal
interpreter exit, and — for the paths no hook can cover (SIGKILL of the
whole interpreter) — reclaimable by :func:`sweep_orphans`, which scans
for segments whose owning pid is dead.

Process-level faults (worker kill / worker hang / segment corruption)
are part of the deterministic shard fault model
(:mod:`repro.dist.faults`): the worker re-derives each decision from
the plan shipped inside the command, the parent re-derives it for
bookkeeping, and both sides agree without coordination because every
decision is a pure function of ``(seed, kind, device rank, attempt)``.
"""

from __future__ import annotations

import atexit
import itertools
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm

import numpy as np

from repro import telemetry as tele
from repro.core.serialize import pack_shard_plan, unpack_shard_plan
from repro.core.tilespmv import TileSpMV
from repro.dist import faults as shard_faults
from repro.dist.reduce import replay_reduce, tree_reduce
from repro.dist.sharded import ShardedSpMV, sum_halves
from repro.gpu import faults as gpu_faults
from repro.gpu.costmodel import MultiDeviceRunCost
from repro.serving.breaker import BreakerConfig, CircuitBreaker

__all__ = [
    "ProcessConfig",
    "ProcessShardedSpMV",
    "WorkerSupervisor",
    "WorkerCrash",
    "scan_owned_segments",
    "shutdown_persistent_pools",
    "sweep_orphans",
]

_SHM_PREFIX = "reproshm_"
_SHM_DIR = "/dev/shm"


class WorkerCrash(RuntimeError):
    """A worker process died or hung and could not be recovered."""


# -- shared-memory janitor -------------------------------------------------


def _untrack(seg: _shm.SharedMemory) -> None:
    """Opt a segment out of the resource tracker's implicit cleanup.

    Lifecycle is owned by the janitor (explicit release + atexit sweep +
    orphan scan); leaving the tracker armed as well double-unlinks and
    spams warnings when worker processes attach.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - CPython internals moved
        pass


def _unlink_quiet(seg: _shm.SharedMemory) -> None:
    """Close + unlink without a resource-tracker round trip.

    The janitor untracked the segment at creation, so the tracker's
    cache no longer holds it; ``SharedMemory.unlink()`` would send an
    unmatched UNREGISTER and the tracker daemon would print a KeyError
    traceback.  Unlinking at the OS level sends nothing.
    """
    try:
        seg.close()
    except (OSError, BufferError):  # pragma: no cover
        pass
    try:
        import _posixshmem

        _posixshmem.shm_unlink(seg._name)
    except FileNotFoundError:
        pass
    except (ImportError, AttributeError):  # pragma: no cover - non-POSIX
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


class _ShmJanitor:
    """Registry of every shared-memory segment this process created."""

    def __init__(self) -> None:
        self._segments: dict[str, _shm.SharedMemory] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count()

    def create(self, nbytes: int) -> _shm.SharedMemory:
        name = (
            f"{_SHM_PREFIX}{os.getpid()}_{next(self._seq)}_"
            f"{os.urandom(3).hex()}"
        )
        seg = _shm.SharedMemory(name=name, create=True, size=max(int(nbytes), 1))
        _untrack(seg)
        with self._lock:
            self._segments[seg.name] = seg
        return seg

    def release(self, seg: _shm.SharedMemory) -> None:
        with self._lock:
            self._segments.pop(seg.name, None)
        _unlink_quiet(seg)

    def close_all(self) -> list[str]:
        """Release every registered segment (the atexit sweep)."""
        with self._lock:
            segs = list(self._segments.values())
            self._segments.clear()
        names = []
        for seg in segs:
            names.append(seg.name)
            _unlink_quiet(seg)
        return names


_JANITOR = _ShmJanitor()
atexit.register(_JANITOR.close_all)


def scan_owned_segments(pid: int | None = None) -> list[str]:
    """Janitor-named segments on disk belonging to ``pid`` (default: us)."""
    pid = os.getpid() if pid is None else int(pid)
    prefix = f"{_SHM_PREFIX}{pid}_"
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def force_unlink(name: str) -> None:
    """Unlink one segment by name, ignoring absence."""
    try:
        seg = _shm.SharedMemory(name=name)
    except FileNotFoundError:
        return
    _untrack(seg)
    _unlink_quiet(seg)


def sweep_orphans() -> list[str]:
    """Unlink janitor-named segments whose owning process is dead.

    This is the reclamation path no in-process hook can cover: the
    owning interpreter was SIGKILL'd, so neither ``close()`` nor the
    atexit sweep ran.  Safe to call from any process at any time —
    segments of live owners are left alone.
    """
    removed = []
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return removed
    for entry in entries:
        if not entry.startswith(_SHM_PREFIX):
            continue
        rest = entry[len(_SHM_PREFIX):]
        pid_str = rest.split("_", 1)[0]
        if not pid_str.isdigit() or _pid_alive(int(pid_str)):
            continue
        force_unlink(entry)
        removed.append(entry)
    return removed


# -- worker side -----------------------------------------------------------


def _worker_main(wire: bytes, conn, rank: int) -> None:  # pragma: no cover
    """Worker process entry point: rebuild the shard plan, serve ops.

    Runs in a child process (excluded from parent-side coverage).  The
    final ``finally`` only closes *attachments* — segment lifetime is
    owned by the parent's janitor.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # A worker never owns segments, so its attaches must not register
    # with the resource tracker at all: under "fork" the tracker daemon
    # is shared with the parent (interleaved register/unregister would
    # corrupt its cache), under "spawn" the child's own tracker would
    # unlink live segments at worker exit.
    from multiprocessing import resource_tracker

    resource_tracker.register = lambda *a, **k: None
    block, config = unpack_shard_plan(wire)
    engine = TileSpMV(block, validation="trust", **config)
    attached: dict[str, _shm.SharedMemory] = {}

    def attach(name: str) -> _shm.SharedMemory:
        seg = attached.get(name)
        if seg is None:
            seg = _shm.SharedMemory(name=name)
            attached[name] = seg
        return seg

    try:
        while True:
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break
            op = cmd.get("op")
            if op == "shutdown":
                try:
                    conn.send({"ok": True, "op": "shutdown"})
                except (BrokenPipeError, OSError):
                    pass
                break
            if op == "ping":
                try:
                    conn.send({"ok": True, "op": "pong"})
                except (BrokenPipeError, OSError):
                    break
                continue
            try:
                reply = _worker_execute(engine, rank, cmd, attached, attach)
            except Exception:
                reply = {"ok": False, "error": traceback.format_exc()}
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        for seg in attached.values():
            try:
                seg.close()
            except OSError:
                pass
        try:
            conn.close()
        except OSError:
            pass


def _worker_execute(engine, rank, cmd, attached, attach):  # pragma: no cover
    """Execute one shard operation inside the worker (child process)."""
    for name in cmd.get("drop", ()):
        seg = attached.pop(name, None)
        if seg is not None:
            try:
                seg.close()
            except OSError:
                pass
    op = cmd["op"]
    attempt = int(cmd.get("attempt", 0))
    plan = cmd.get("plan")
    inj = shard_faults.ShardFaultInjector(plan) if plan is not None else None

    # Process-level faults first: a killed worker dies *mid-operation*
    # (after receiving the command, before replying), a hung one sleeps
    # past the supervisor's deadline.  Decisions are re-derived from the
    # shipped plan — identical to the parent's bookkeeping derivation.
    if inj is not None:
        if inj.kill_worker(rank, attempt):
            os.kill(os.getpid(), signal.SIGKILL)
        hang = inj.worker_hang_s(rank, attempt)
        if hang > 0.0:
            time.sleep(hang)

    x_seg = attach(cmd["x_seg"])

    if op == "update_values":
        count = int(cmd["count"])
        view = np.ndarray((count,), dtype=np.float64, buffer=x_seg.buf)
        engine.update_values(np.array(view))
        return {"ok": True, "op": "update_values"}

    x_len = int(cmd["x_len"])
    lo, hi = int(cmd["x_lo"]), int(cmd["x_hi"])
    k = cmd.get("k")
    if k is None:
        xfull = np.ndarray((x_len,), dtype=np.float64, buffer=x_seg.buf)
    else:
        xfull = np.ndarray((x_len, int(k)), dtype=np.float64, buffer=x_seg.buf)
    xwin = xfull[lo:hi]

    if op == "weights":
        transpose = bool(cmd["transpose"])
        halves, parts = [], []
        for salt, stream in zip(("tiled", "deferred"), engine.decode_streams()):
            if stream is None:
                halves.append(-1)
                continue
            rows, cols, vals = stream
            if inj is not None:
                vals = inj.corrupt_partial(rank, attempt, vals, salt=salt)
            xg = xwin[rows] if transpose else xwin[cols]
            if inj is not None:
                xg = inj.corrupt_halo(rank, attempt, xg, salt=salt)
            # A batched x block gathers (entries, k); the per-entry
            # weights are the same elementwise products, one column per
            # member of the batch.
            w = vals[:, None] * xg if xg.ndim == 2 else vals * xg
            halves.append(int(w.shape[0]))
            parts.append(w)
        out = (
            np.concatenate(parts)
            if parts
            else np.zeros(0, dtype=np.float64)
        )
        if inj is not None:
            out = inj.corrupt_segment(rank, attempt, out)
        out_seg = attach(cmd["out_seg"])
        view = np.ndarray((out.size,), dtype=np.float64, buffer=out_seg.buf)
        view[: out.size] = out.ravel()
        return {"ok": True, "op": op, "halves": halves}

    if inj is not None:
        xwin = inj.corrupt_halo(rank, attempt, xwin)
    if op == "spmv":
        out = engine.spmv(xwin)
    elif op == "spmm":
        out = engine.spmm(xwin)
    elif op == "spmv_transpose":
        out = engine.spmv_transpose(xwin)
    else:
        raise ValueError(f"unknown worker op {op!r}")
    if inj is not None:
        out = inj.corrupt_partial(rank, attempt, out)
        out = inj.corrupt_segment(rank, attempt, out)
    out = np.ascontiguousarray(out, dtype=np.float64)
    out_seg = attach(cmd["out_seg"])
    view = np.ndarray((out.size,), dtype=np.float64, buffer=out_seg.buf)
    view[: out.size] = out.ravel()
    return {"ok": True, "op": op, "shape": tuple(out.shape)}


# -- supervisor ------------------------------------------------------------


@dataclass(frozen=True)
class ProcessConfig:
    """Tuning knobs of the process backend and its supervisor.

    Attributes
    ----------
    heartbeat_timeout_s:
        Real seconds a liveness ping may take before the worker counts
        as unresponsive.  Heartbeats ride the same deadline machinery
        as operations, so a hung worker is detected identically either
        way.
    op_timeout_s:
        Real seconds one shard operation may take before the worker is
        declared hung, killed and respawned.  This is a *real-time*
        deadline (worker processes run on the wall clock); the respawn
        backoff it triggers is charged to the virtual clock like the
        recovery ladder's retries, keeping campaign accounting
        deterministic.
    poll_interval_s:
        Poll granularity while waiting on a worker reply.
    max_respawns:
        Respawns granted per worker before its circuit breaker trips
        and the worker is quarantined (its shard falls back to the
        in-process engine; when every worker is quarantined the whole
        backend degrades to threads).
    backoff_base_s / backoff_factor / backoff_jitter / backoff_seed:
        Respawn ``r`` of a worker charges ``base * factor**r *
        (1 + jitter * u)`` modelled seconds to the supervisor's virtual
        clock, ``u`` derived from ``(seed, rank, r)`` — the recovery
        ladder's deterministic backoff, applied to process respawn.
    spawn_cost_s:
        Modelled seconds one worker spawn (or respawn) costs in
        :class:`~repro.gpu.costmodel.MultiDeviceRunCost`.
    shm_gbps:
        Modelled cross-socket shared-memory bandwidth pricing the
        per-call x/y traffic in the cost model.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` where
        available (cheap respawn) and falls back to ``spawn``.
    """

    heartbeat_timeout_s: float = 5.0
    op_timeout_s: float = 30.0
    poll_interval_s: float = 0.005
    max_respawns: int = 2
    backoff_base_s: float = 1e-4
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    backoff_seed: int = 0
    spawn_cost_s: float = 2e-3
    shm_gbps: float = 25.0
    start_method: str | None = None


def _backoff_u(seed: int, rank: int, respawn: int) -> float:
    import hashlib

    h = hashlib.blake2b(
        f"{seed}:respawn:{rank}:{respawn}".encode(), digest_size=8
    )
    return int.from_bytes(h.digest(), "little") / 2.0**64


@dataclass
class _Worker:
    rank: int
    proc: object | None = None
    conn: object | None = None
    spawns: int = 0
    quarantined: bool = False
    pending_drop: list = field(default_factory=list)


class WorkerSupervisor:
    """Owns the worker processes, their segments, and their failures.

    One worker per shard.  ``wire_provider(i)`` supplies the current
    wire blob for shard ``i`` at every (re)spawn, so a preceding
    ``update_values`` is reflected in respawned workers.  All real-time
    waits (heartbeats, op deadlines) run on the wall clock — processes
    are real — while respawn backoff is *modelled* on the virtual clock
    (:attr:`clock_s`), mirroring the recovery ladder's deterministic
    accounting.
    """

    def __init__(
        self,
        wire_provider,
        ranks: list[int],
        x_capacity: int,
        out_capacities: list[int],
        config: ProcessConfig | None = None,
    ) -> None:
        self.config = config or ProcessConfig()
        self._wire_provider = wire_provider
        self.ranks = list(ranks)
        self._ctx = get_context(self._pick_start_method())
        self.workers = [_Worker(rank=r) for r in self.ranks]
        self._breakers = [
            CircuitBreaker(
                BreakerConfig(
                    failure_threshold=self.config.max_respawns + 1,
                    cooldown_seconds=float("inf"),
                    probe_successes=1,
                ),
                key=f"worker{i}",
            )
            for i in range(len(self.ranks))
        ]
        self.counters = {
            "spawns": 0,
            "respawns": 0,
            "crashes": 0,
            "hangs": 0,
            "replays": 0,
            "heartbeats": 0,
            "quarantines": 0,
            "round_trips": 0,
        }
        self.respawn_log: list[dict] = []
        self.clock_s = 0.0  # virtual seconds (respawn backoff)
        self.begin_attempt = None  # set by the engine: shard index -> attempt
        self.x_seg = _JANITOR.create(x_capacity)
        self.out_segs = [_JANITOR.create(c) for c in out_capacities]
        self._closed = False

    def _pick_start_method(self) -> str:
        if self.config.start_method is not None:
            return self.config.start_method
        import multiprocessing as mp

        return "fork" if "fork" in mp.get_all_start_methods() else "spawn"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        for i in range(len(self.workers)):
            self._spawn(i)
        self.heartbeat()

    def _spawn(self, i: int, respawn: bool = False) -> None:
        w = self.workers[i]
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._wire_provider(i), child, w.rank),
            daemon=True,
            name=f"repro-shard-{i}",
        )
        span = "worker_respawn" if respawn else "worker_spawn"
        with tele.span(span, cat="dist", worker=i, rank=w.rank):
            proc.start()
        child.close()
        w.proc, w.conn = proc, parent
        w.spawns += 1
        self.counters["spawns"] += 1
        if respawn:
            self.counters["respawns"] += 1
        if tele.ENABLED:
            tele.count("worker_spawn_total", rank=w.rank)
            if respawn:
                tele.count("worker_respawn_total", rank=w.rank)

    def _kill(self, w: _Worker) -> None:
        if w.proc is not None and w.proc.is_alive():
            w.proc.kill()
            w.proc.join(timeout=2.0)
        if w.conn is not None:
            try:
                w.conn.close()
            except OSError:
                pass
        w.proc, w.conn = None, None

    def healthy(self, i: int) -> bool:
        w = self.workers[i]
        return not self._closed and not w.quarantined and w.proc is not None

    def healthy_count(self) -> int:
        return sum(self.healthy(i) for i in range(len(self.workers)))

    @property
    def mode(self) -> str:
        if self._closed:
            return "closed"
        return "process" if self.healthy_count() > 0 else "degraded"

    def close(self) -> None:
        """Shut every worker down and release every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w in self.workers:
            if w.proc is None:
                continue
            try:
                if w.conn is not None:
                    w.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
            w.proc.join(timeout=1.0)
            self._kill(w)
        _JANITOR.release(self.x_seg)
        for seg in self.out_segs:
            _JANITOR.release(seg)

    # -- segments ----------------------------------------------------------

    def _grow(self, seg: _shm.SharedMemory, nbytes: int) -> _shm.SharedMemory:
        new = _JANITOR.create(max(nbytes, 2 * seg.size))
        old_name = seg.name
        _JANITOR.release(seg)
        for w in self.workers:
            w.pending_drop.append(old_name)
        return new

    def ensure_x(self, nbytes: int) -> _shm.SharedMemory:
        if self.x_seg.size < nbytes:
            self.x_seg = self._grow(self.x_seg, nbytes)
        return self.x_seg

    def ensure_out(self, i: int, nbytes: int) -> _shm.SharedMemory:
        if self.out_segs[i].size < nbytes:
            self.out_segs[i] = self._grow(self.out_segs[i], nbytes)
        return self.out_segs[i]

    # -- liveness ----------------------------------------------------------

    def heartbeat(self, budget_s: float | None = None) -> dict[int, bool]:
        """Ping every healthy worker; respawn the ones that miss.

        ``budget_s`` overrides the per-probe real-time deadline (the
        config's ``heartbeat_timeout_s``).  Returns rank → alive (after
        any respawns).
        """
        deadline = budget_s if budget_s is not None else self.config.heartbeat_timeout_s
        status: dict[int, bool] = {}
        for i, w in enumerate(self.workers):
            if not self.healthy(i):
                status[w.rank] = False
                continue
            self.counters["heartbeats"] += 1
            alive = False
            with tele.span("worker_heartbeat", cat="dist", worker=i, rank=w.rank):
                try:
                    w.conn.send({"op": "ping"})
                    if w.conn.poll(deadline):
                        reply = w.conn.recv()
                        alive = bool(reply.get("ok"))
                except (BrokenPipeError, EOFError, OSError):
                    alive = False
            if tele.ENABLED:
                tele.count("worker_heartbeat_total", rank=w.rank)
            if not alive:
                self._fail(i, "heartbeat")
                alive = self.healthy(i)
            status[w.rank] = alive
        return status

    # -- failure handling --------------------------------------------------

    def _fail(self, i: int, reason: str) -> bool:
        """Record one worker failure; respawn or quarantine.

        Returns True when the worker was respawned (the caller may
        replay), False when it was quarantined.
        """
        w = self.workers[i]
        if reason in ("crash", "hang"):
            self.counters["crashes" if reason == "crash" else "hangs"] += 1
        self._kill(w)
        breaker = self._breakers[i]
        breaker.record_failure(self.clock_s, reason=reason)
        if not breaker.allow_fast(self.clock_s):
            w.quarantined = True
            self.counters["quarantines"] += 1
            if tele.ENABLED:
                tele.count("worker_quarantines_total", rank=w.rank)
            return False
        respawn_idx = len(
            [r for r in self.respawn_log if r["worker"] == i]
        )
        cfg = self.config
        delay = (
            cfg.backoff_base_s
            * cfg.backoff_factor**respawn_idx
            * (1.0 + cfg.backoff_jitter * _backoff_u(cfg.backoff_seed, w.rank, respawn_idx))
        )
        self.clock_s += delay
        self.respawn_log.append(
            {"worker": i, "rank": w.rank, "reason": reason,
             "respawn": respawn_idx, "backoff_s": delay}
        )
        self._spawn(i, respawn=True)
        return True

    # -- operation dispatch ------------------------------------------------

    def _send(self, i: int, cmd: dict) -> bool:
        w = self.workers[i]
        if w.pending_drop:
            cmd = dict(cmd)
            cmd["drop"] = list(w.pending_drop)
            w.pending_drop.clear()
        try:
            w.conn.send(cmd)
            return True
        except (BrokenPipeError, OSError):
            return False

    def run(self, commands: list[tuple[int, dict]]) -> list[dict | None]:
        """Execute one command per (healthy) worker; survive failures.

        Commands are sent up front so workers overlap, then collected in
        list order.  A worker that crashes or hangs mid-operation is
        respawned (rebuilding its plan from the current wire) and *only
        its* command replayed, with a fresh attempt number from the
        engine; a worker whose breaker trips is quarantined and its slot
        returns ``None`` so the engine can fall back in-process.
        """
        self.counters["round_trips"] += len(commands)
        sent_ok = []
        for i, cmd in commands:
            sent_ok.append(self._send(i, cmd))
        out: list[dict | None] = []
        for (i, cmd), ok in zip(commands, sent_ok):
            out.append(self._collect(i, cmd, sent=ok))
        return out

    def _collect(self, i: int, cmd: dict, sent: bool = True) -> dict | None:
        cfg = self.config
        while True:
            w = self.workers[i]
            if w.quarantined or self._closed:
                return None
            failure = None
            if not sent:
                failure = "crash"
            else:
                deadline = time.monotonic() + cfg.op_timeout_s
                while True:
                    try:
                        if w.conn.poll(cfg.poll_interval_s):
                            reply = w.conn.recv()
                            break
                    except (EOFError, OSError):
                        failure = "crash"
                        break
                    if w.proc is None or not w.proc.is_alive():
                        failure = "crash"
                        break
                    if time.monotonic() >= deadline:
                        failure = "hang"
                        break
                if failure is None:
                    if not reply.get("ok"):
                        raise WorkerCrash(
                            f"worker {i} (rank {w.rank}) failed op "
                            f"{cmd.get('op')!r}:\n{reply.get('error')}"
                        )
                    self._breakers[i].record_success(self.clock_s)
                    return reply
            if not self._fail(i, failure):
                return None  # quarantined: caller falls back in-process
            # Replay only this shard, as a fresh attempt.
            self.counters["replays"] += 1
            cmd = dict(cmd)
            if self.begin_attempt is not None:
                cmd["attempt"] = self.begin_attempt(cmd["shard"])
                inj = shard_faults.active_injector()
                cmd["plan"] = inj.plan if inj is not None else None
            sent = self._send(i, cmd)

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "workers": len(self.workers),
            "healthy": self.healthy_count(),
            "quarantined": [i for i, w in enumerate(self.workers) if w.quarantined],
            "clock_s": self.clock_s,
            "respawn_log": list(self.respawn_log),
            **self.counters,
        }


# -- persistent pools ------------------------------------------------------
#
# Coalesced serving traffic constructs the same sharded engine over and
# over (one engine per generation, identical structure between retunes).
# Spawning workers and shipping wires each time would dominate the
# batching win, so a pool built under ``persistent=True`` is *parked*
# here on ``close()`` instead of shut down, keyed by the exact plan it
# holds (per-shard wire digests + device ranks + process config), and
# adopted by the next engine constructed with an identical plan — live
# workers, pre-registered segments, zero re-shipping.

_POOL_REGISTRY: dict[str, list[WorkerSupervisor]] = {}
_POOL_LOCK = threading.Lock()
pool_counters = {"parked": 0, "adopted": 0, "shutdown": 0}


def _pool_key(wires: list[bytes], ranks: list[int],
              config: ProcessConfig) -> str:
    """Digest of everything a parked pool's workers already hold."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for w in wires:
        h.update(hashlib.blake2b(w, digest_size=16).digest())
    h.update(repr((tuple(ranks), config)).encode())
    return h.hexdigest()


def shutdown_persistent_pools() -> int:
    """Close every parked worker pool; returns how many were shut down.

    Registered ``atexit`` (before the janitor's segment sweep, which
    runs after it under LIFO ordering); call explicitly in tests so the
    shared-memory hygiene checks see a clean slate.
    """
    with _POOL_LOCK:
        sups = [s for pool in _POOL_REGISTRY.values() for s in pool]
        _POOL_REGISTRY.clear()
    for sup in sups:
        sup.close()
    pool_counters["shutdown"] += len(sups)
    return len(sups)


atexit.register(shutdown_persistent_pools)


# -- the engine ------------------------------------------------------------


class ProcessShardedSpMV(ShardedSpMV):
    """:class:`ShardedSpMV` executing shards in supervised worker processes.

    Construct directly, or via ``ShardedSpMV(matrix, backend="process")``
    — the parent class dispatches here.  The parent engines are kept:
    they provide the cost model, the plan keys, the replay index
    streams, and the in-process fallback the degradation ladder lands
    on.  Execution state walks ``process → thread → sequential``:

    * ``process`` — shard ops dispatch to workers; a quarantined
      worker's shard (breaker tripped after ``max_respawns`` respawns)
      falls back to the in-process engine while the rest stay remote.
    * ``thread`` — entered when every worker is quarantined (or via
      :meth:`degrade`); the inherited thread-pool path takes over.
    * ``sequential`` — one more :meth:`degrade`: ``max_workers`` is
      pinned to 1 and the inherited sequential loop runs.

    Like the thread backend, an armed GPU-substrate fault campaign
    forces the inherited (sequential) path — its injector is a single
    consumed RNG stream that cannot be split across processes.  The
    column-cut fixed-method ``spmm`` replay also stays in-process (its
    combine consumes the full index streams); every other op ships to
    the workers.
    """

    _process_capable = True

    def __init__(
        self,
        matrix,
        *args,
        process_config: ProcessConfig | None = None,
        backend: str = "process",
        persistent: bool = False,
        **kwargs,
    ) -> None:
        self._pcfg = process_config or ProcessConfig()
        self._persistent = bool(persistent)
        self.pool_adopted = False
        self._shard_blocks: list = []
        self._shm_traffic_bytes = 0.0
        self._backend_state = "process"
        self._supervisor: WorkerSupervisor | None = None
        super().__init__(matrix, *args, backend="thread", **kwargs)
        self.backend = "process"
        n_local = [
            (s.col_hi - s.col_lo) if self.grid is not None else self._n
            for s in self.partition.shards
        ]
        x_cap = 8 * max(
            [self._m, self._n, 1]
            + [s.nnz for s in self.partition.shards]
        )
        out_caps = [
            8 * max(s.rows, n_local[i], s.nnz, 1)
            for i, s in enumerate(self.partition.shards)
        ]
        sup: WorkerSupervisor | None = None
        if self._persistent:
            key = _pool_key(
                [self._make_wire(i) for i in range(len(self.engines))],
                self.device_ranks,
                self._pcfg,
            )
            with _POOL_LOCK:
                pool = _POOL_REGISTRY.get(key)
                cand = pool.pop() if pool else None
                if pool is not None and not pool:
                    _POOL_REGISTRY.pop(key, None)
            if cand is not None:
                # The parked workers already hold this exact plan; only
                # the parent-side callbacks need rebinding.  A worker
                # that died while parked is respawned by the heartbeat.
                cand._wire_provider = self._make_wire
                cand.begin_attempt = self._begin_attempt
                cand.heartbeat()
                if (
                    cand.mode == "process"
                    and cand.healthy_count() == len(self.engines)
                ):
                    sup = cand
                else:
                    cand.close()
        if sup is not None:
            self._supervisor = sup
            self.pool_adopted = True
            pool_counters["adopted"] += 1
            if tele.ENABLED:
                tele.count("procpool_adoptions_total")
        else:
            sup = WorkerSupervisor(
                self._make_wire,
                self.device_ranks,
                x_cap,
                out_caps,
                self._pcfg,
            )
            sup.begin_attempt = self._begin_attempt
            self._supervisor = sup
            sup.start()

    def _build_engine(self, s, block, tile: int, **tile_kwargs) -> None:
        # Stash the canonical shard block: it is the payload of the
        # plan wire format and the source of truth for update_values.
        self._shard_blocks.append(block)
        self._wire_config = dict(tile_kwargs)
        self._wire_config.update(method=self.method, tile=tile)
        super()._build_engine(s, block, tile, **tile_kwargs)

    def _make_wire(self, i: int) -> bytes:
        return pack_shard_plan(self._shard_blocks[i], **self._wire_config)

    # -- state machine -----------------------------------------------------

    @property
    def supervisor(self) -> WorkerSupervisor:
        return self._supervisor

    def degrade(self) -> str:
        """Step the backend down one rung; returns the new state."""
        if self._backend_state == "process":
            self._backend_state = "thread"
            self.backend = "thread"
            if self._supervisor is not None:
                self._supervisor.close()
        elif self._backend_state == "thread":
            self._backend_state = "sequential"
            self.backend = "sequential"
            self._max_workers = 1
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
        return self._backend_state

    def _use_workers(self) -> bool:
        if self._backend_state != "process" or self._supervisor is None:
            return False
        if self._supervisor.mode != "process":
            # Every worker quarantined: degrade to the thread backend.
            self.degrade()
            return False
        # The GPU-substrate injector consumes one ordered RNG stream;
        # only the inherited sequential path preserves it.
        return gpu_faults.active_injector() is None

    # -- attempt bookkeeping ----------------------------------------------

    def _begin_attempt(self, shard_index: int) -> int:
        """Open one shard execution: counter + parent-side fault hooks.

        Mirrors :meth:`ShardedSpMV.shard_call`'s bookkeeping for the
        worker path: device loss raises here (before dispatch),
        straggler delay is charged here, and the process-level fault
        decisions are re-derived here so the parent's campaign counters
        match the worker's actions one-for-one.
        """
        attempt = self.shard_exec_counts[shard_index]
        self.shard_exec_counts[shard_index] = attempt + 1
        inj = shard_faults.active_injector()
        if inj is not None:
            rank = self.device_ranks[shard_index]
            inj.raise_if_lost(rank, attempt)
            delay = inj.straggler_delay(rank, attempt)
            if delay:
                self.shard_delay_s[shard_index] += delay
            inj.kill_worker(rank, attempt)
            inj.worker_hang_s(rank, attempt)
            inj.segment_fires(rank, attempt, record=True)
        return attempt

    # -- dispatch plumbing -------------------------------------------------

    def _write_x(self, x: np.ndarray) -> None:
        xb = np.ascontiguousarray(x, dtype=np.float64)
        seg = self._supervisor.ensure_x(xb.nbytes)
        view = np.ndarray((xb.size,), dtype=np.float64, buffer=seg.buf)
        view[: xb.size] = xb.ravel()
        self._count_shm(xb.nbytes)

    def _count_shm(self, nbytes: int | float) -> None:
        self._shm_traffic_bytes += float(nbytes)
        if tele.ENABLED:
            tele.count("shm_bytes_total", n=float(nbytes))

    def _x_bounds(self, s, transpose: bool) -> tuple[int, int]:
        if transpose:
            return s.row_lo, s.row_hi
        if self.grid is not None:
            return s.col_lo, s.col_hi
        return 0, self._n

    def _command(self, s, op: str, x_len: int, transpose: bool = False,
                 k: int | None = None) -> dict:
        attempt = self._begin_attempt(s.index)
        inj = shard_faults.active_injector()
        lo, hi = self._x_bounds(s, transpose)
        cmd = {
            "op": op,
            "shard": s.index,
            "rank": self.device_ranks[s.index],
            "attempt": attempt,
            "x_seg": self._supervisor.x_seg.name,
            "x_len": x_len,
            "x_lo": lo,
            "x_hi": hi,
            "out_seg": self._supervisor.out_segs[s.index].name,
            "plan": inj.plan if inj is not None else None,
        }
        if k is not None:
            cmd["k"] = k
        if op == "weights":
            cmd["transpose"] = transpose
        return cmd

    def _read_out(self, i: int, count: int) -> np.ndarray:
        seg = self._supervisor.out_segs[i]
        view = np.ndarray((count,), dtype=np.float64, buffer=seg.buf)
        self._count_shm(count * 8)
        return np.array(view)

    def _local_block(self, op: str, s, e, x: np.ndarray):
        """In-process fallback for one shard (quarantined worker)."""
        if op == "spmv":
            fn = lambda s_, e_: e_.spmv(self._x_block(s_, x))  # noqa: E731
        elif op == "spmm":
            fn = lambda s_, e_: e_.spmm(self._x_block(s_, x))  # noqa: E731
        else:
            fn = lambda s_, e_: e_.spmv_transpose(x[s_.row_lo:s_.row_hi])  # noqa: E731
        return self.shard_call(op, s, e, fn)

    def _proc_blocks(self, op: str, x: np.ndarray,
                     k: int | None = None) -> list[np.ndarray]:
        """Run one block op per shard in the workers; fall back per shard."""
        transpose = op == "spmv_transpose"
        sup = self._supervisor
        x_len = x.shape[0]
        self._write_x(x)
        parts: list = [None] * len(self.engines)
        commands = []
        for s, e in zip(self.partition.shards, self.engines):
            if not sup.healthy(s.index):
                parts[s.index] = self._local_block(op, s, e, x)
                continue
            if transpose:
                out_len = (
                    (s.col_hi - s.col_lo) if self.grid is not None else self._n
                )
            else:
                out_len = s.rows * (k or 1)
            sup.ensure_out(s.index, 8 * max(out_len, 1))
            commands.append(
                (s.index, self._command(s, op, x_len, transpose=transpose, k=k))
            )
        replies = sup.run(commands)
        for (i, _cmd), reply in zip(commands, replies):
            s, e = self.partition.shards[i], self.engines[i]
            if reply is None:  # quarantined mid-operation
                parts[i] = self._local_block(op, s, e, x)
                continue
            shape = tuple(reply["shape"])
            count = int(np.prod(shape)) if shape else 0
            parts[i] = self._read_out(i, count).reshape(shape)
        return parts

    # -- replay path (column cuts / transpose, fixed methods) --------------

    def _local_weight_contrib(self, s, e, x: np.ndarray, transpose: bool):
        contrib = self.shard_call(
            "stream_collect", s, e,
            lambda s_, e_: self._stream_contrib(s_, e_, x, transpose),
        )
        out = []
        for c in contrib:
            if c is None:
                out.append(None)
            else:
                idx, xg, vals = c
                w = vals[:, None] * xg if xg.ndim == 2 else vals * xg
                out.append((idx, w))
        return tuple(out)

    def _worker_weight_contrib(self, s, e, halves: list[int],
                               transpose: bool, k: int | None = None):
        """Pair the worker's weight buffer with the parent's index streams.

        Indices are structural (they never change between calls), so the
        parent's engine supplies them; the worker supplies the weights
        ``vals * x_gather`` it computed from shared memory.  Multiplying
        per shard is bit-identical to the thread backend's one big
        elementwise multiply — IEEE multiplication is per-element.  A
        batched call (``k``) ships one ``(entries, k)`` weight block per
        shard over the same single round trip.
        """
        off = self._col_offset(s)
        total = sum(h for h in halves if h > 0)
        if k is None:
            buf = self._read_out(s.index, total)
        else:
            buf = self._read_out(s.index, total * k).reshape(total, k)
        pos = 0
        out = []
        orders = e.transpose_orders() if transpose else (None, None)
        for stream, ln, o in zip(e.decode_streams(), halves, orders):
            if ln < 0 or stream is None:
                out.append(None)
                continue
            rows, cols, _vals = stream
            w = buf[pos:pos + ln]
            pos += ln
            if transpose:
                # Mirror _stream_contrib's canonical (col, row) order; the
                # worker multiplied element-wise in stream order, and IEEE
                # multiplication commutes with the permutation.
                idx, w = (off + cols)[o], w[o]
            else:
                idx = s.row_lo + rows
            out.append((idx, w))
        return tuple(out)

    def _proc_replay(self, x: np.ndarray, transpose: bool,
                     k: int | None = None) -> np.ndarray:
        sup = self._supervisor
        self._write_x(x)
        contribs: list = [None] * len(self.engines)
        commands = []
        for s, e in zip(self.partition.shards, self.engines):
            if not sup.healthy(s.index):
                contribs[s.index] = self._local_weight_contrib(s, e, x, transpose)
                continue
            sup.ensure_out(s.index, 8 * max(s.nnz * (k or 1), 1))
            commands.append(
                (s.index,
                 self._command(s, "weights", x.shape[0], transpose=transpose,
                               k=k))
            )
        replies = sup.run(commands)
        for (i, _cmd), reply in zip(commands, replies):
            s, e = self.partition.shards[i], self.engines[i]
            if reply is None:
                contribs[i] = self._local_weight_contrib(s, e, x, transpose)
            else:
                contribs[i] = self._worker_weight_contrib(
                    s, e, reply["halves"], transpose, k=k
                )
        length = self._n if transpose else self._m
        # A batched call replays each column over the shared structural
        # index stream: column j is bit-for-bit the spmv replay of x[:, j].
        ys = []
        for half in (0, 1):
            streams = [c[half] for c in contribs if c[half] is not None]
            if streams:
                ys.append(replay_reduce(streams, length))
        return sum_halves(ys, length if k is None else (length, k))

    # -- public ops --------------------------------------------------------

    def spmv(self, x: np.ndarray) -> np.ndarray:
        if not self._use_workers():
            return super().spmv(x)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise ValueError(f"x must have shape ({self._n},)")
        with tele.span("sharded_spmv", cat="kernel", shards=self.shards,
                       nnz=self._nnz, backend="process"):
            if self.grid_cols > 1:
                if self.method == "auto":
                    parts = self._proc_blocks("spmv", x)
                    c = self.grid_cols
                    y = np.concatenate(
                        [
                            tree_reduce(parts[r * c:(r + 1) * c])
                            for r in range(self.grid_rows)
                        ]
                    )
                else:
                    y = self._proc_replay(x, transpose=False)
            else:
                parts = self._proc_blocks("spmv", x)
                y = np.concatenate(parts) if parts else np.zeros(0)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    __matmul__ = spmv

    def spmm(self, x: np.ndarray) -> np.ndarray:
        if not self._use_workers():
            return super().spmm(x)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self._n:
            raise ValueError(f"X must have shape ({self._n}, k)")
        k = x.shape[1]
        if k == 0:
            return np.zeros((self._m, 0))
        if k == 1:
            return self.spmv(x[:, 0]).reshape(self._m, 1)
        if self.grid_cols > 1 and self.method != "auto":
            if shard_faults.active_injector() is not None:
                # Campaign replays consume the full per-call streams;
                # keep the inherited in-process path under injection.
                return super().spmm(x)
            # Batched replay: each worker ships one (entries, k) weight
            # block per round trip; the parent combines per column over
            # the shared structural index streams.
            with tele.span("sharded_spmm", cat="kernel", shards=self.shards,
                           nnz=self._nnz, k=k, backend="process"):
                out = self._proc_replay(x, transpose=False, k=k)
            if tele.ENABLED:
                tele.count("sharded_spmv_total", shards=self.shards)
            return out
        with tele.span("sharded_spmm", cat="kernel", shards=self.shards,
                       nnz=self._nnz, k=k, backend="process"):
            parts = self._proc_blocks("spmm", x, k=k)
            if self.grid_cols > 1:
                c = self.grid_cols
                out = np.concatenate(
                    [
                        tree_reduce(parts[r * c:(r + 1) * c])
                        for r in range(self.grid_rows)
                    ],
                    axis=0,
                )
            else:
                out = (
                    np.concatenate(parts, axis=0)
                    if parts
                    else np.zeros((0, k))
                )
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return out

    def spmv_transpose(self, x: np.ndarray) -> np.ndarray:
        if not self._use_workers():
            return super().spmv_transpose(x)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._m,):
            raise ValueError(f"x must have shape ({self._m},)")
        with tele.span("sharded_spmv_transpose", cat="kernel",
                       shards=self.shards, nnz=self._nnz, backend="process"):
            if self.method == "auto":
                parts = self._proc_blocks("spmv_transpose", x)
                if self.grid is None:
                    y = tree_reduce(parts) if parts else np.zeros(self._n)
                else:
                    grid_r, grid_c = self.grid
                    y = np.concatenate(
                        [
                            tree_reduce(
                                [parts[r * grid_c + c] for r in range(grid_r)]
                            )
                            for c in range(grid_c)
                        ]
                    )
            else:
                y = self._proc_replay(x, transpose=True)
        if tele.ENABLED:
            tele.count("sharded_spmv_total", shards=self.shards)
        return y

    def update_values(self, values) -> "ProcessShardedSpMV":
        super().update_values(values)
        # Refresh the canonical shard blocks (the wire payload for any
        # future respawn) and stream the new values to live workers.
        import scipy.sparse as sp

        from repro.reliability.validation import ValidationPolicy, canonicalize_csr

        if sp.issparse(values):
            data = np.asarray(
                canonicalize_csr(values, ValidationPolicy.TRUST)[0].data,
                dtype=np.float64,
            )
        else:
            data = np.asarray(values, dtype=np.float64)
        slices = []
        if self._nnz_idx is not None:
            for sel in self._nnz_idx:
                slices.append(data[sel])
        else:
            for s in self.partition.shards:
                slices.append(data[s.nnz_lo:s.nnz_hi])
        for block, vals in zip(self._shard_blocks, slices):
            block.data[:] = vals
        sup = self._supervisor
        if sup is None or self._backend_state != "process":
            return self
        for s in self.partition.shards:
            if not sup.healthy(s.index):
                continue
            vals = slices[s.index]
            seg = sup.ensure_x(max(vals.nbytes, 8))
            view = np.ndarray((vals.size,), dtype=np.float64, buffer=seg.buf)
            view[: vals.size] = vals
            self._count_shm(vals.nbytes)
            cmd = {
                "op": "update_values",
                "shard": s.index,
                "rank": self.device_ranks[s.index],
                "attempt": 0,
                "x_seg": seg.name,
                "count": int(vals.size),
                "plan": None,
            }
            sup.run([(s.index, cmd)])
        return self

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        sup = getattr(self, "_supervisor", None)
        self._supervisor = None
        if sup is not None:
            if (
                getattr(self, "_persistent", False)
                and self._backend_state == "process"
                and sup.mode == "process"
                and sup.healthy_count() == len(sup.workers)
            ):
                # Park the healthy pool for the next engine with the
                # same plan.  The key is recomputed from the *current*
                # wires so an update_values since construction can only
                # match an adopter holding those exact values.
                key = _pool_key(
                    [self._make_wire(i) for i in range(len(self.engines))],
                    self.device_ranks,
                    self._pcfg,
                )
                with _POOL_LOCK:
                    _POOL_REGISTRY.setdefault(key, []).append(sup)
                pool_counters["parked"] += 1
                if tele.ENABLED:
                    tele.count("procpool_parks_total")
            else:
                sup.close()
        super().close()

    def __del__(self) -> None:
        try:
            sup = getattr(self, "_supervisor", None)
            if sup is not None:
                sup.close()
        except Exception:
            pass
        super().__del__()

    # -- accounting --------------------------------------------------------

    def multi_device_cost(self, links: int = 0) -> MultiDeviceRunCost:
        """Thread-backend pricing plus the process backend's own costs.

        Worker spawns and respawns are charged serially (they gate the
        first/replayed execution), the deterministic respawn backoff is
        the supervisor's virtual-clock ledger, and the per-call x/y
        traffic is priced as cross-socket shared-memory transfers at
        ``ProcessConfig.shm_gbps``.  All three terms default to zero in
        :class:`~repro.gpu.costmodel.MultiDeviceRunCost`, so
        thread-backend prices are untouched.
        """
        mdc = super().multi_device_cost(links=links)
        sup = self._supervisor
        if sup is not None:
            mdc.spawn_s = (
                sup.counters["spawns"] * self._pcfg.spawn_cost_s + sup.clock_s
            )
        mdc.shm_bytes = float(sum(mdc.halo_bytes) + sum(mdc.y_bytes))
        mdc.shm_gbps = self._pcfg.shm_gbps
        mdc.label += "@process"
        return mdc

    def describe(self) -> str:
        lines = [super().describe()]
        if self._supervisor is not None:
            st = self._supervisor.stats()
            lines.append(
                f"process backend: state={self._backend_state} "
                f"workers={st['healthy']}/{st['workers']} "
                f"spawns={st['spawns']} respawns={st['respawns']} "
                f"crashes={st['crashes']} hangs={st['hangs']} "
                f"quarantined={st['quarantined']} "
                f"shm_traffic={self._shm_traffic_bytes / 1e3:.1f} kB"
            )
        return "\n".join(lines)
