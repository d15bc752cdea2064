"""Distributed FlexGraph training over a simulated shared-nothing cluster.

Every worker runs the shared per-rank step (:class:`Worker`: sliced HDG
aggregation + update forward, its own backward, its own parameter-gradient
slab).  :class:`DistributedTrainer` drives the k ranks in turn inside one
process and reduces their slabs in rank order over :class:`SimulatedComm`;
:class:`~repro.distributed.runtime.MultiprocessTrainer` drives the same
step in k OS processes.  Compute is measured, network time is modeled by
:mod:`repro.distributed.pipeline`.  One epoch's simulated wall time is::

    selection / k
    + sum over layers of max over workers of layer_time(worker)
    + max over workers of that worker's backward seconds
    + loss / k + optimizer step
    + parameter allreduce time

where ``layer_time`` is ``max(compute, comm) + combine`` with pipeline
processing (overlap of partial aggregation and communication) or
``compute + comm`` without it.  This reproduces the quantities Figures 13
and 15b/c measure.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel, SelectionScope
from ..tensor.loss import cross_entropy
from ..tensor.optim import Optimizer
from ..tensor.plans import get_plan_cache
from ..tensor.tensor import Tensor
from .comm import CommConfig, SimulatedComm
from .fault_tolerance import WorkerFailure
from .pipeline import dependency_stats, plan_layer_comm
from .worker import Worker

__all__ = ["DistributedEpochStats", "DistributedTrainer"]

#: combining received partial aggregates costs a small multiple of the
#: transfer itself (one streaming add over the received values).
_COMBINE_FRACTION = 0.1


@dataclass
class DistributedEpochStats:
    """Timing and traffic of one distributed epoch, on either backend."""

    epoch: int
    loss: float
    seconds: float
    #: ``"simulated"`` (modeled cluster time) or ``"wall"`` (measured)
    time_basis: str
    compute_seconds: np.ndarray      # per worker, forward + backward
    comm_seconds: np.ndarray         # per worker (modeled or waited)
    total_bytes: float               # cross-partition traffic (accounted)
    total_messages: int
    #: the mode the layer plans actually used ("pipelined" / "batched" /
    #: "naive", or "mixed" when layers differed) — a non-commutative
    #: aggregator downgrades a requested pipelined plan to batched.
    comm_mode: str


class _PartitionedTrainer:
    """What every distributed trainer shares: the partition, its workers,
    the model HDG they slice, failure injection, and the data-parallel
    full-batch epoch (loss, reduced gradient, one optimizer step).

    Backends fill in ``_forward`` (full logits), ``_backward`` (the
    rank-order reduced flat parameter gradient; afterwards every
    ``Worker`` holds its epoch's compute and comm seconds) and
    ``_epoch_totals`` (seconds, bytes, messages, comm mode).
    """

    time_basis = "simulated"

    def __init__(self, model: NAUModel, graph, partition_labels: np.ndarray,
                 strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
                 comm_config: CommConfig | None = None, seed: int = 0):
        self.model = model
        self.graph = graph
        self.labels_part = np.asarray(partition_labels, dtype=np.int64)
        if self.labels_part.shape != (graph.num_vertices,):
            raise ValueError("partition labels must cover every vertex")
        self.k = int(self.labels_part.max()) + 1
        self.strategy = ExecutionStrategy.parse(strategy)
        self.comm_config = comm_config or CommConfig()
        self._rng = np.random.default_rng(seed)
        self._model_hdg: HDG | None = None
        self._hdg_epoch = -1
        # Worker root sets follow the global HDG root order (vertex id).
        self.workers = [
            Worker(w, np.flatnonzero(self.labels_part == w)) for w in range(self.k)
        ]
        self._die_next: set[int] = set()
        self._lost: set[int] = set()

    # ------------------------------------------------------------------
    def _ensure_hdg(self, epoch: int) -> HDG:
        scope = self.model.selection_scope
        stale = self._model_hdg is None or (
            scope is SelectionScope.PER_EPOCH and self._hdg_epoch != epoch
        )
        if stale:
            with obs.span("dist.neighbor_selection", epoch=epoch) as s_sel:
                self._model_hdg = self.model.neighbor_selection(self.graph, self._rng)
                obs.record_op("neighbor_selection.hdg",
                              bytes_read=self._model_hdg.nbytes)
            self._selection_wall = s_sel.duration
            self._hdg_epoch = epoch
            self._attach_hdg(self._model_hdg)
        else:
            self._selection_wall = 0.0
        return self._model_hdg

    def _attach_hdg(self, hdg: HDG) -> None:
        for worker in self.workers:
            worker.attach_hdg(hdg)

    # ------------------------------------------------------------------
    def inject_failure(self, worker_id: int) -> None:
        """Arrange for ``worker_id`` to die at the start of the next epoch,
        which then raises :class:`WorkerFailure`.  On the process backend
        the worker process really exits (``os._exit``); in one process the
        worker loses its HDG slice until :meth:`heal`."""
        if not (0 <= worker_id < self.k):
            raise ValueError("worker id out of range")
        self._die_next.add(worker_id)

    def heal(self) -> None:
        """Bring failed workers back: re-attach their HDG slices (a
        worker's shared-nothing state is derived from the global HDG)."""
        if self._model_hdg is not None:
            for w in self._lost:
                self.workers[w].attach_hdg(self._model_hdg)
        self._lost.clear()

    def _begin_epoch(self, feats, epoch: int) -> None:
        """In-process failure injection: a dead worker loses its slice and
        every epoch fails until :meth:`heal`."""
        for w in self._die_next:
            self.workers[w].sub_hdg = None
        self._lost |= self._die_next
        self._die_next.clear()
        if self._lost:
            raise WorkerFailure(min(self._lost), epoch)

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> DistributedEpochStats:
        """One data-parallel full-batch epoch."""
        t0 = time.perf_counter()
        self._begin_epoch(feats, epoch)
        self.model.train()
        self._ensure_hdg(epoch)
        work_mark = obs.work_snapshot()
        plan_cache = get_plan_cache()
        plan_mark = (plan_cache.hits, plan_cache.misses)

        logits = Tensor(self._forward(feats, epoch), requires_grad=True)
        with obs.span("dist.backward", epoch=epoch, stage="loss") as s_loss:
            loss = cross_entropy(logits, labels, mask)
            loss.backward()
        flat = self._backward(logits.grad, epoch)
        # Apply the reduced data-parallel gradient with the one optimizer.
        with obs.span("dist.backward", epoch=epoch, stage="step") as s_step:
            optimizer.zero_grad()
            off = 0
            for p in self.model.parameters():
                size = p.data.size
                p.grad = flat[off:off + size].reshape(p.data.shape).copy()
                off += size
            optimizer.step()
        seconds, total_bytes, total_messages, comm_mode = self._epoch_totals(
            time.perf_counter() - t0, s_loss.duration, s_step.duration)
        compute = np.array([w.compute_seconds for w in self.workers])
        comm = np.array([w.comm_seconds for w in self.workers])

        mean_compute = compute.mean()
        work = obs.work_since(work_mark)
        obs.epoch_log().log(
            epoch,
            loss=loss.item(),
            seconds=seconds,
            time_basis=self.time_basis,
            bytes=total_bytes,
            messages=total_messages,
            balance_factor=(
                float(compute.max() / mean_compute) if mean_compute > 0 else 1.0
            ),
            vertices_per_sec=(
                self.graph.num_vertices / seconds if seconds > 0 else 0.0
            ),
            comm_mode=comm_mode,
            workers=self.k,
            flops=work["flops"],
            work_bytes=work["bytes_read"] + work["bytes_written"],
            plan_hits=plan_cache.hits - plan_mark[0],
            plan_misses=plan_cache.misses - plan_mark[1],
        )
        return DistributedEpochStats(
            epoch=epoch,
            loss=loss.item(),
            seconds=seconds,
            time_basis=self.time_basis,
            compute_seconds=compute,
            comm_seconds=comm,
            total_bytes=total_bytes,
            total_messages=total_messages,
            comm_mode=comm_mode,
        )


class DistributedTrainer(_PartitionedTrainer):
    """Train a NAU model across ``k`` simulated shared-nothing workers.

    Parameters
    ----------
    model:
        The NAU program (same object the single-machine engine runs).
    graph, labels, feats:
        The training task, held globally; per-worker slices are views.
    partition_labels:
        Vertex -> worker assignment (from Hash/PuLP/ADB).
    strategy:
        Aggregation execution strategy per worker.
    pipeline:
        Enable partial aggregation + comm/compute overlap (Figure 15b/c's
        "w/ PP"); ``False`` degrades to batched-but-sequential sync.
    comm_config:
        Network cost model.
    """

    def __init__(
        self,
        model: NAUModel,
        graph,
        partition_labels: np.ndarray,
        strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
        pipeline: bool = True,
        comm_config: CommConfig | None = None,
        seed: int = 0,
        worker_speeds: np.ndarray | None = None,
    ):
        super().__init__(model, graph, partition_labels, strategy,
                         comm_config, seed)
        self.pipeline = pipeline
        self.comm = SimulatedComm(self.k, self.comm_config)
        # Relative compute speed per worker (1.0 = this machine); the
        # simulated layer time divides each worker's measured compute by
        # its speed, modeling heterogeneous clusters.
        if worker_speeds is None:
            self.worker_speeds = np.ones(self.k)
        else:
            self.worker_speeds = np.asarray(worker_speeds, dtype=np.float64)
            if self.worker_speeds.shape != (self.k,):
                raise ValueError(f"worker_speeds must have shape ({self.k},)")
            if (self.worker_speeds <= 0).any():
                raise ValueError("worker speeds must be positive")
        self._dep_stats = None

    def _attach_hdg(self, hdg: HDG) -> None:
        super()._attach_hdg(hdg)
        self._dep_stats = dependency_stats(hdg, self.labels_part, self.k)

    def _layer_commutative(self, layer) -> bool:
        """Partial aggregation needs a commutative bottom-level UDF (§5)."""
        if not layer.aggregators:
            return True
        return layer.aggregators[0].name in ("sum", "mean", "max", "min", "weighted_sum")

    # ------------------------------------------------------------------
    def _forward(self, feats, epoch: int, time_update: bool = True) -> np.ndarray:
        """Every rank's forward step, layer by layer; each rank's rows are
        written in place into the next (n, d) buffer."""
        data = feats.data if isinstance(feats, Tensor) else feats
        h = np.ascontiguousarray(data)
        n = h.shape[0]
        mode = "pipelined" if self.pipeline else "batched"
        num_params = len(self.model.parameters())
        for worker in self.workers:
            worker.reset_epoch(num_params)
        self._plans = []
        self._modeled_seconds = 0.0

        for index, layer in enumerate(self.model.layers):
            plan = plan_layer_comm(
                self._dep_stats, int(h.shape[1]) * h.dtype.itemsize,
                self.comm_config, mode, self._layer_commutative(layer),
            )
            self._plans.append(plan)

            out = None
            compute = np.zeros(self.k)
            for worker in self.workers:
                w = worker.worker_id
                # scale= divides measured time by the worker's modeled
                # speed, so the recorded span carries the effective
                # duration straggler analysis and histograms must see.
                rows, compute[w] = worker.forward_layer(
                    index, layer, h, self.strategy, epoch=epoch,
                    scale=1.0 / self.worker_speeds[w], time_update=time_update,
                )
                if out is None:
                    # float64, like the process backend's shared buffers
                    out = np.empty((n, rows.shape[1]), dtype=np.float64)
                out[worker.root_orders] = rows

            comm = plan.per_worker_seconds
            combine = _COMBINE_FRACTION * comm
            for worker in self.workers:
                w = worker.worker_id
                worker.comm_seconds += comm[w]
                obs.record_span("dist.comm", float(comm[w]), worker=w,
                                layer=index, epoch=epoch, mode=plan.mode)
                if plan.overlaps_compute:
                    obs.record_span("dist.combine", float(combine[w]),
                                    worker=w, layer=index, epoch=epoch)
            if plan.overlaps_compute:
                layer_times = np.maximum(compute, comm) + combine
            else:
                layer_times = compute + comm
            self._modeled_seconds += float(layer_times.max())
            h = out
        return h

    def _backward(self, grad_logits: np.ndarray, epoch: int) -> np.ndarray:
        """Every rank's backward step, layer by layer, with rank-order slab
        reductions; returns the reduced flat parameter gradient."""
        params = self.model.parameters()
        grad = grad_logits
        for index in range(len(self.model.layers) - 1, -1, -1):
            slabs = [
                worker.backward_layer(index, grad, params, epoch=epoch,
                                      scale=1.0 / self.worker_speeds[worker.worker_id])
                for worker in self.workers
            ]
            if index > 0:
                grad = np.empty_like(slabs[0])
                for rank in range(self.k):
                    self.comm.reduce_slabs(slabs, grad, rank)

        psize = sum(p.data.size for p in params)
        pslabs = [np.empty(psize) for _ in self.workers]
        for worker, slab in zip(self.workers, pslabs):
            worker.write_param_grads(params, slab)
        flat = np.empty(psize)
        for rank in range(self.k):
            self.comm.reduce_slabs(pslabs, flat, rank)

        param_bytes = sum(p.data.nbytes for p in params)
        allreduce = self.comm.allreduce_time(param_bytes)
        obs.record_span("dist.allreduce", allreduce, epoch=epoch,
                        bytes=param_bytes)
        self._modeled_seconds += (
            max(worker.backward_seconds for worker in self.workers) + allreduce
        )
        return flat

    def _epoch_totals(self, wall: float, loss_seconds: float,
                      step_seconds: float):
        # Selection is embarrassingly parallel across partitions (§5:
        # "FlexGraph constructs a subgraph of HDGs in parallel"), and so
        # is the loss (each rank owns its rows); every rank steps its
        # own replica.
        seconds = ((self._selection_wall + loss_seconds) / self.k
                   + self._modeled_seconds + step_seconds)
        # Report the mode the plans actually used: a non-commutative
        # aggregator silently downgrades pipelined -> batched (§5), and
        # models can mix commutative and non-commutative layers.
        modes = {plan.mode for plan in self._plans}
        comm_mode = next(iter(modes)) if len(modes) == 1 else "mixed"
        return (seconds, sum(plan.total_bytes for plan in self._plans),
                sum(plan.total_messages for plan in self._plans), comm_mode)

    def aggregation_epoch_time(self, feats: Tensor, epoch: int = 0) -> float:
        """Simulated seconds of the Aggregation stage only (Figures 15a-c
        measure Aggregation rather than end-to-end epochs): the training
        forward with each update left outside the timed span.

        The cyclic garbage collector is paused while measuring, as
        ``timeit`` does, so a collection of unrelated garbage is not billed
        to whichever worker's compute span it happens to land in."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._ensure_hdg(epoch)
            self._forward(feats, epoch, time_update=False)
            return self._modeled_seconds
        finally:
            if gc_was_enabled:
                gc.enable()
