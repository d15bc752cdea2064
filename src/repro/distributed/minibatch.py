"""Distributed sampled mini-batch training — synchronous data-parallel
rounds over the simulated cluster.

Combines the two extensions the paper leaves on the table: fan-out
sampling (``repro.core.sampling``) and the shared-nothing cluster model
(§5).  Each round, every worker draws a seed batch from *its own*
partition, builds sampled blocks against the global HDG, computes
locally (measured), fetches remote block features (modeled, batched per
worker pair) and joins a gradient allreduce (modeled).  The math is
exactly synchronous data-parallel SGD: one optimizer step per round on
the gradients of all workers' seeds together.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.hdg import HDG
from ..core.hybrid import ExecutionStrategy
from ..core.nau import NAUModel
from ..core.sampling import build_seed_blocks
from ..graph.graph import Graph
from ..tensor.loss import cross_entropy
from ..tensor.ops import concat, scatter_rows
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
        pages) and runs the forward in batch-local coordinates.
        """
        if optimizer is None:
            raise ValueError("train_epoch needs an optimizer")
        source = None
        if feats is None:
            from ..loader.source import as_source

            if self._dataset is None:
                raise ValueError(
                    "train_epoch needs feats unless the trainer was "
                    "constructed with a dataset"
                )
            source = as_source(self._dataset, labels)
        elif labels is None:
            raise ValueError("train_epoch needs labels when feats is given")
        self._begin_epoch(feats, epoch)
        self.model.train()
        hdg = self._ensure_hdg(epoch)
        n = self.graph.num_vertices
        pools = []
        for w in range(self.k):
            owned = self.workers[w].root_orders
            if mask is not None:
                owned = owned[mask[owned]]
            pools.append(self._rng.permutation(owned))
        num_rounds = max(
            int(np.ceil(pool.size / self.batch_size)) for pool in pools
        )
        param_bytes = sum(p.data.nbytes for p in self.model.parameters())
        simulated = 0.0
        total_bytes = 0.0
        total_messages = 0
        compute_total = np.zeros(self.k)
        comm_total = np.zeros(self.k)
        losses = []
        for round_no in range(num_rounds):
            comm = SimulatedComm(self.k, self.comm_config)
            compute = np.zeros(self.k)
            round_logits = []
            round_targets = []
            for w in range(self.k):
                pool = pools[w]
                seeds = pool[round_no * self.batch_size : (round_no + 1) * self.batch_size]
                if seeds.size == 0:
                    continue
                t0 = time.perf_counter()
                blocks = build_seed_blocks(hdg, seeds, self.fanouts, self._rng)
                if source is None:
                    h = feats
                    for layer, (block, out_vertices) in zip(self.model.layers, blocks):
                        nbr = layer.aggregation(h, block, self.strategy)
                        h_rows = layer.update(h[out_vertices], nbr)
                        h = scatter_rows(h_rows, out_vertices, n)
                    round_logits.append(h[seeds])
                    input_vertices = np.union1d(blocks[0][1], blocks[0][0].leaf_vertices)
                    feat_bytes = int(feats.shape[1]) * feats.data.dtype.itemsize
                else:
                    from ..loader.pipeline import compact_blocks, run_local_blocks

                    compact = compact_blocks(blocks, seeds)
                    input_vertices = compact.input_vertices
                    rows = source.gather_features(input_vertices)
                    h = run_local_blocks(self.model, compact, Tensor(rows),
                                         self.strategy)
                    round_logits.append(h[compact.seed_rows])
                    # Remote fetches move the storage tier's wire format
                    # (quantized codes + scales for a quantized source),
                    # not the dequantized compute rows.
                    wire_per_row = getattr(source, "wire_bytes_per_row", None)
                    feat_bytes = (int(wire_per_row) if wire_per_row is not None
                                  else int(source.feat_dim) * rows.dtype.itemsize)
                compute[w] = time.perf_counter() - t0
                round_targets.append(
                    labels[seeds] if labels is not None
                    else source.gather_labels(seeds)
                )
                # Remote feature fetches: input-block vertices owned by
                # other workers, one batched message per source worker.
                remote_rows = np.bincount(self.labels_part[input_vertices], minlength=self.k)
                remote_rows[w] = 0
                for src_w in np.flatnonzero(remote_rows):
                    comm.send(int(src_w), w, int(remote_rows[src_w]) * feat_bytes, messages=1)
            if not round_logits:
                continue
            logits = concat(round_logits, axis=0)
            targets = np.concatenate(round_targets)
            loss = cross_entropy(logits, targets)
            t0 = time.perf_counter()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            backward = time.perf_counter() - t0
            losses.append(loss.item())
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
