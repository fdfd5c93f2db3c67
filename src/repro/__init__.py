"""TileSpMV reproduction.

A from-scratch Python implementation of *TileSpMV: A Tiled Algorithm for
Sparse Matrix-Vector Multiplication on GPUs* (Niu et al., IPDPS 2021):
the two-level tiled storage, the seven warp-level tile formats and
kernels, the adaptive per-tile format selection, the DeferredCOO
strategy, the Merge-SpMV / CSR5 / BSR baselines, and a simulated-GPU
substrate (warp interpreter + roofline cost model) standing in for the
paper's A100 and Titan RTX.

Quickstart
----------
>>> import numpy as np
>>> from repro import TileSpMV, A100
>>> from repro.matrices import fem_blocks
>>> a = fem_blocks(500, block=3, seed=1)
>>> engine = TileSpMV(a, method="adpt")
>>> y = engine.spmv(np.ones(a.shape[1]))
>>> bool(np.allclose(y, a @ np.ones(a.shape[1])))
True
>>> engine.gflops(A100) > 0
True
"""

from repro import telemetry
from repro.core import PlanCache, SelectionConfig, TileMatrix, TileSpMV, tile_spmv
from repro.dist import ShardedSpMV, partition_rows
from repro.formats import FormatID
from repro.gpu import (
    A100,
    TITAN_RTX,
    CostModel,
    DeviceSpec,
    KernelStats,
    MultiDeviceRunCost,
    RunCost,
)
from repro.reliability import (
    FaultPlan,
    MatrixValidationError,
    ValidationPolicy,
    canonicalize_csr,
    fault_injection,
)
from repro.reliability.reliable import ReliableSpMV
from repro.serving import (
    BreakerConfig,
    CheckpointConfig,
    CircuitBreaker,
    RuntimeConfig,
    ServingRuntime,
    VerifiedOperator,
    checkpointed_bicgstab,
    checkpointed_cg,
    checkpointed_pagerank,
    synthetic_trace,
)

__version__ = "1.9.0"

__all__ = [
    "TileSpMV",
    "tile_spmv",
    "TileMatrix",
    "PlanCache",
    "SelectionConfig",
    "FormatID",
    "DeviceSpec",
    "A100",
    "TITAN_RTX",
    "CostModel",
    "KernelStats",
    "RunCost",
    "MultiDeviceRunCost",
    "ShardedSpMV",
    "partition_rows",
    "ReliableSpMV",
    "ValidationPolicy",
    "MatrixValidationError",
    "canonicalize_csr",
    "FaultPlan",
    "fault_injection",
    "ServingRuntime",
    "RuntimeConfig",
    "CircuitBreaker",
    "BreakerConfig",
    "VerifiedOperator",
    "CheckpointConfig",
    "checkpointed_cg",
    "checkpointed_bicgstab",
    "checkpointed_pagerank",
    "synthetic_trace",
    "telemetry",
    "__version__",
]
