"""``repro.distributed`` — shared-nothing distributed training.

One per-rank worker step (sliced HDG aggregation + update, its own
backward, rank-order gradient reduction) run two ways: in one process
with an alpha-beta network model (workload balancing, batching, partial
aggregation and pipeline overlap all act on genuine quantities, §5), or
across real OS processes with wall-clock synchronization.
"""

from .cluster import ScalingPoint, flexgraph_scaling, model_baseline_scaling
from .fault_tolerance import (
    CheckpointManager,
    FaultTolerantTrainer,
    RecoveryEvent,
    WorkerFailure,
)
from .comm import Comm, CommConfig, ProcessComm, SimulatedComm
from .kvstore import KVStore, SharedArray
from .minibatch import DistributedMiniBatchTrainer
from .pipeline import CommPlan, DependencyStats, dependency_stats, plan_layer_comm
from .runtime import MultiprocessTrainer
from .trainer import DistributedEpochStats, DistributedTrainer
from .worker import Worker

__all__ = [
    "Comm", "CommConfig", "SimulatedComm", "ProcessComm",
    "KVStore", "SharedArray",
    "MultiprocessTrainer",
    "DependencyStats", "dependency_stats", "CommPlan", "plan_layer_comm",
    "Worker",
    "DistributedTrainer", "DistributedEpochStats",
    "DistributedMiniBatchTrainer",
    "ScalingPoint", "flexgraph_scaling", "model_baseline_scaling",
    "CheckpointManager", "FaultTolerantTrainer", "WorkerFailure",
    "RecoveryEvent",
]
