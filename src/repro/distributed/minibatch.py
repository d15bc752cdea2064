"""Distributed sampled mini-batch training — synchronous data-parallel
rounds over the simulated cluster.

Combines the two extensions the paper leaves on the table: fan-out
sampling (``repro.core.sampling``) and the shared-nothing cluster model
(§5).  Rank ``w`` streams its partition's vertices through the loader
with plans drawn from ``SeedSequence([seed, epoch, w])``.  Each round
runs the next batch of every rank that still has seeds through the one
sampled train step (:func:`~repro.loader.train_step`): one loss, one
backward, one optimizer step — synchronous data-parallel SGD, and with
one partition :class:`~repro.core.sampling.MiniBatchTrainer` bit for
bit.  Per-rank compute (sample + gather + forward) is measured; remote
input rows cost one batched fetch per source rank at the source's wire
bytes per row, then a gradient allreduce.
"""

from __future__ import annotations

import time
from itertools import zip_longest

import numpy as np

from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..graph.graph import Graph
from ..loader.pipeline import StreamingLoader, train_step
from ..loader.source import as_source
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .comm import CommConfig, SimulatedComm
from .trainer import DistributedEpochStats, _PartitionedTrainer

__all__ = ["DistributedMiniBatchTrainer"]


class DistributedMiniBatchTrainer(_PartitionedTrainer):
    """Synchronous data-parallel sampled training over ``k`` workers.

    Parameters mirror :class:`~repro.core.sampling.MiniBatchTrainer` plus
    a partition assignment; requires flat-HDG models.
    """

    def __init__(
        self,
        model: NAUModel,
        data,
        partition_labels: np.ndarray,
        batch_size: int = 128,
        fanouts: list[int] | None = None,
        strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
        comm_config: CommConfig | None = None,
        seed: int = 0,
    ):
        # ``data`` is the input graph, or a dataset carrying one — an
        # in-RAM Dataset or an out-of-core OnDiskDataset.  With a
        # dataset, train_epoch can run without feats/labels: each
        # worker's features are gathered per batch from the dataset.
        self._dataset = data if hasattr(data, "graph") else None
        graph: Graph = data.graph if self._dataset is not None else data
        super().__init__(model, graph, partition_labels, strategy,
                         comm_config, seed)
        self.seed = int(seed)
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.fanouts = list(fanouts) if fanouts is not None else [10] * model.num_layers
        if len(self.fanouts) != model.num_layers:
            raise ValueError("need one fanout per layer")

    def _attach_hdg(self, hdg: HDG) -> None:
        # Rounds sample blocks from the global HDG; no per-worker slices.
        if hdg.depth != 1:
            raise ValueError("distributed mini-batch requires flat HDGs")

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats: Tensor | None = None,
        labels: np.ndarray | None = None,
        optimizer: Optimizer | None = None,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> DistributedEpochStats:
        """One synchronized pass over every worker's masked vertices.

        With ``feats=None`` the trainer must have been constructed with
        a dataset; each worker then gathers its batch's feature rows
        from the dataset (for ondisk data: only the touched memmap
        pages).
        """
        if optimizer is None:
            raise ValueError("train_epoch needs an optimizer")
        if feats is None and self._dataset is None:
            raise ValueError(
                "train_epoch needs feats unless the trainer was "
                "constructed with a dataset"
            )
        if feats is not None and labels is None:
            raise ValueError("train_epoch needs labels when feats is given")
        self._begin_epoch(feats, epoch)
        self.model.train()
        hdg = self._ensure_hdg(epoch)
        loader = StreamingLoader(
            as_source(self._dataset if feats is None else feats, labels),
            self.fanouts, batch_size=self.batch_size, prefetch_depth=0,
            transfer=False,
        )
        streams = []
        for worker in self.workers:
            pool = worker.root_orders
            if mask is not None:
                pool = pool[mask[pool]]
            streams.append(loader.epoch_batches(
                hdg, pool, epoch=epoch, seed=self.seed, rank=worker.worker_id))
        row_bytes = loader.source.wire_bytes_per_row
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        simulated = 0.0
        total_bytes = 0.0
        total_messages = 0
        compute_total = np.zeros(self.k)
        comm_total = np.zeros(self.k)
        losses = []
        for round_batches in zip_longest(*streams):
            ranks = [w for w, batch in enumerate(round_batches) if batch is not None]
            batches = [round_batches[w] for w in ranks]
            t0 = time.perf_counter()
            loss, _, forward = train_step(self.model, batches, optimizer,
                                          self.strategy)
            backward = time.perf_counter() - t0 - sum(forward)
            losses.append(loss.item())
            comm = SimulatedComm(self.k, self.comm_config)
            compute = np.zeros(self.k)
            for w, batch, forward_s in zip(ranks, batches, forward):
                compute[w] = batch.sample_seconds + batch.gather_seconds + forward_s
                # Remote feature fetches: input-block vertices owned by
                # other workers, one batched message per source worker.
                remote_rows = np.bincount(
                    self.labels_part[batch.compact.input_vertices],
                    minlength=self.k)
                remote_rows[w] = 0
                for src_w in np.flatnonzero(remote_rows):
                    comm.send(int(src_w), w, int(remote_rows[src_w]) * row_bytes,
                              messages=1)
            # Round wall time: slowest worker (compute + fetches), then a
            # gradient allreduce; backward parallelizes over workers.
            comm_times = comm.step_times()
            simulated += float((compute + comm_times).max())
            simulated += backward / self.k
            simulated += comm.allreduce_time(param_bytes)
            compute_total += compute
            comm_total += comm_times
            total_bytes += comm.total_bytes
            total_messages += comm.total_messages
        return DistributedEpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else 0.0,
            seconds=simulated,
            time_basis=self.time_basis,
            compute_seconds=compute_total,
            comm_seconds=comm_total,
            total_bytes=total_bytes,
            total_messages=total_messages,
            # one assembled feature fetch per (worker, source worker)
            comm_mode="batched",
        )
