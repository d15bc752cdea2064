"""Distributed FlexGraph training over a simulated shared-nothing cluster.

The trainer executes the *real* computation of every worker (sliced
per-partition HDG aggregation + update, measured with wall clocks) in one
process, and combines it with modeled network time from
:mod:`repro.distributed.pipeline`.  One epoch's simulated wall time is::

    sum over layers of max over workers of layer_time(worker)
    + backward time / k          (data-parallel backward)
    + parameter allreduce time

where ``layer_time`` is ``max(compute, comm) + combine`` with pipeline
processing (overlap of partial aggregation and communication) or
``compute + comm`` without it.  This reproduces the quantities Figures 13
and 15b/c measure.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel, SelectionScope
from ..tensor.loss import cross_entropy
from ..tensor.optim import Optimizer
from ..tensor.plans import get_plan_cache
from ..tensor.ops import concat
from ..tensor.tensor import Tensor
from .comm import CommConfig, SimulatedComm
from .pipeline import dependency_stats, plan_layer_comm
from .worker import Worker

__all__ = ["DistributedEpochStats", "DistributedTrainer"]

#: combining received partial aggregates costs a small multiple of the
#: transfer itself (one streaming add over the received values).
_COMBINE_FRACTION = 0.1


@dataclass
class DistributedEpochStats:
    """Simulated timing of one distributed epoch."""

    epoch: int
    loss: float
    simulated_seconds: float
    compute_seconds: np.ndarray      # per worker, summed over layers
    comm_seconds: np.ndarray         # per worker, summed over layers
    selection_seconds: float
    total_bytes: float
    total_messages: int
    #: the mode the layer plans actually used ("pipelined" / "batched" /
    #: "naive", or "mixed" when layers differed) — a non-commutative
    #: aggregator downgrades a requested pipelined plan to batched.
    comm_mode: str


class DistributedTrainer:
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
        self.model = model
        self.graph = graph
        self.labels_part = np.asarray(partition_labels, dtype=np.int64)
        if self.labels_part.shape != (graph.num_vertices,):
            raise ValueError("partition labels must cover every vertex")
        self.k = int(self.labels_part.max()) + 1
        self.strategy = ExecutionStrategy.parse(strategy)
        self.pipeline = pipeline
        self.comm_config = comm_config or CommConfig()
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
        self._rng = np.random.default_rng(seed)
        self._model_hdg: HDG | None = None
        self._hdg_epoch = -1
        self._dep_stats = None
        # Worker root sets follow the global HDG root order (vertex id).
        self.workers = [
            Worker(w, np.flatnonzero(self.labels_part == w)) for w in range(self.k)
        ]
        # The reassembly permutation (worker-concatenation order -> vertex
        # order) depends only on the fixed partition, so compute it once
        # instead of per layer per epoch.
        n = graph.num_vertices
        self._order = np.concatenate([w.root_orders for w in self.workers])
        self._inverse = np.empty(n, dtype=np.int64)
        self._inverse[self._order] = np.arange(n)

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
            for worker in self.workers:
                worker.attach_hdg(self._model_hdg)
            self._dep_stats = dependency_stats(
                self._model_hdg, self.labels_part, self.k
            )
        else:
            self._selection_wall = 0.0
        return self._model_hdg

    def _layer_commutative(self, layer) -> bool:
        """Partial aggregation needs a commutative bottom-level UDF (§5)."""
        if not layer.aggregators:
            return True
        return layer.aggregators[0].name in ("sum", "mean", "max", "min", "weighted_sum")

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats: Tensor,
        labels: np.ndarray,
        optimizer: Optimizer,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> DistributedEpochStats:
        """One data-parallel full-batch epoch with simulated-time accounting."""
        self.model.train()
        self._ensure_hdg(epoch)
        work_mark = obs.work_snapshot()
        plan_cache = get_plan_cache()
        plan_mark = (plan_cache.hits, plan_cache.misses)
        for worker in self.workers:
            worker.reset_epoch()
        # Selection is embarrassingly parallel across partitions (§5:
        # "FlexGraph constructs a subgraph of HDGs in parallel").
        selection_sim = self._selection_wall / self.k

        h = feats
        simulated = selection_sim
        total_bytes = 0.0
        total_messages = 0
        mode = "pipelined" if self.pipeline else "batched"
        effective_modes: set[str] = set()

        for layer_index, layer in enumerate(self.model.layers):
            feat_bytes = int(h.shape[1]) * h.data.dtype.itemsize
            commutative = self._layer_commutative(layer)
            plan = plan_layer_comm(
                self._dep_stats, feat_bytes, self.comm_config, mode, commutative
            )
            effective_modes.add(plan.mode)
            total_bytes += plan.total_bytes
            total_messages += plan.total_messages

            outputs = []
            compute = np.zeros(self.k)
            for worker in self.workers:
                # scale= divides measured time by the worker's modeled
                # speed, so the recorded span carries the effective
                # duration straggler analysis and histograms must see.
                with obs.span("dist.compute",
                              scale=1.0 / self.worker_speeds[worker.worker_id],
                              worker=worker.worker_id,
                              layer=layer_index, epoch=epoch) as s_cmp:
                    nbr = layer.aggregation(h, worker.sub_hdg, self.strategy)
                    h_w = layer.update(h[worker.root_orders], nbr)
                compute[worker.worker_id] = s_cmp.duration
                outputs.append(h_w)

            combine = (
                _COMBINE_FRACTION * plan.per_worker_seconds
                if plan.overlaps_compute
                else np.zeros(self.k)
            )
            for worker in self.workers:
                w = worker.worker_id
                obs.record_span("dist.comm", float(plan.per_worker_seconds[w]),
                                worker=w, layer=layer_index, epoch=epoch,
                                mode=plan.mode)
                if plan.overlaps_compute:
                    obs.record_span("dist.combine", float(combine[w]),
                                    worker=w, layer=layer_index, epoch=epoch)
            if plan.overlaps_compute:
                layer_times = np.maximum(compute, plan.per_worker_seconds) + combine
            else:
                layer_times = compute + plan.per_worker_seconds
            simulated += float(layer_times.max())
            for worker in self.workers:
                worker.compute_seconds += compute[worker.worker_id]
                worker.comm_seconds += plan.per_worker_seconds[worker.worker_id]

            # Reassemble the global feature matrix in vertex order
            # (differentiable permutation; self._inverse is fixed by the
            # partition, computed once in __init__).
            stacked = concat(outputs, axis=0)
            h = stacked[self._inverse]

        loss = cross_entropy(h, labels, mask)
        with obs.span("dist.backward", epoch=epoch) as s_back:
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        simulated += s_back.duration / self.k
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        allreduce = SimulatedComm(self.k, self.comm_config).allreduce_time(param_bytes)
        obs.record_span("dist.allreduce", allreduce, epoch=epoch,
                        bytes=param_bytes)
        simulated += allreduce

        # Report the mode the plans actually used: a non-commutative
        # aggregator silently downgrades pipelined -> batched (§5), and
        # models can mix commutative and non-commutative layers.
        if len(effective_modes) == 1:
            effective_mode = next(iter(effective_modes))
        elif effective_modes:
            effective_mode = "mixed"
        else:
            effective_mode = mode

        per_worker_compute = np.array([w.compute_seconds for w in self.workers])
        mean_compute = per_worker_compute.mean()
        balance = (
            float(per_worker_compute.max() / mean_compute)
            if mean_compute > 0 else 1.0
        )
        work = obs.work_since(work_mark)
        obs.epoch_log().log(
            epoch,
            loss=loss.item(),
            simulated_seconds=simulated,
            bytes=total_bytes,
            messages=total_messages,
            balance_factor=balance,
            vertices_per_sec=(
                self.graph.num_vertices / simulated if simulated > 0 else 0.0
            ),
            comm_mode=effective_mode,
            flops=work["flops"],
            work_bytes=work["bytes_read"] + work["bytes_written"],
            plan_hits=plan_cache.hits - plan_mark[0],
            plan_misses=plan_cache.misses - plan_mark[1],
        )

        return DistributedEpochStats(
            epoch=epoch,
            loss=loss.item(),
            simulated_seconds=simulated,
            compute_seconds=per_worker_compute,
            comm_seconds=np.array([w.comm_seconds for w in self.workers]),
            selection_seconds=selection_sim,
            total_bytes=total_bytes,
            total_messages=total_messages,
            comm_mode=effective_mode,
        )

    def aggregation_epoch_time(self, feats: Tensor, epoch: int = 0) -> float:
        """Simulated seconds of the Aggregation stage only (Figures 15a-c
        measure Aggregation rather than end-to-end epochs).

        The cyclic garbage collector is paused while measuring, as
        ``timeit`` does, so a collection of unrelated garbage is not billed
        to whichever worker's compute span it happens to land in."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._aggregation_seconds(feats, epoch)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _aggregation_seconds(self, feats: Tensor, epoch: int) -> float:
        self._ensure_hdg(epoch)
        h = feats
        simulated = 0.0
        mode = "pipelined" if self.pipeline else "batched"

        for layer_index, layer in enumerate(self.model.layers):
            feat_bytes = int(h.shape[1]) * h.data.dtype.itemsize
            plan = plan_layer_comm(
                self._dep_stats, feat_bytes, self.comm_config, mode,
                self._layer_commutative(layer),
            )
            compute = np.zeros(self.k)
            outputs = []
            for worker in self.workers:
                with obs.span("dist.compute",
                              scale=1.0 / self.worker_speeds[worker.worker_id],
                              worker=worker.worker_id,
                              layer=layer_index, epoch=epoch) as s_cmp:
                    nbr = layer.aggregation(h, worker.sub_hdg, self.strategy)
                compute[worker.worker_id] = s_cmp.duration
                # Update runs untimed: this method isolates Aggregation.
                outputs.append(layer.update(h[worker.root_orders], nbr))
            if plan.overlaps_compute:
                layer_times = (
                    np.maximum(compute, plan.per_worker_seconds)
                    + _COMBINE_FRACTION * plan.per_worker_seconds
                )
            else:
                layer_times = compute + plan.per_worker_seconds
            simulated += float(layer_times.max())
            stacked = concat(outputs, axis=0)
            h = stacked[self._inverse]
        return simulated
