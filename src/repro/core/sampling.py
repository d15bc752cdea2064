"""Sampled mini-batch training over HDGs — the FlexGraph-native answer
to Euler/DistDGL-style training.

The paper trains full-batch and shows that mini-batch systems collapse
on GCN because they expand *full* k-hop neighborhoods per batch (§7.1).
The fix those systems actually deploy — and a natural FlexGraph
extension, since HDGs make neighborhoods first-class — is *fan-out
sampling*: cap each root's neighborhood at a fixed budget per layer
(GraphSAGE-style).  Because flat HDGs already group each root's
neighbors contiguously, sampling is a per-segment top-``fanout``
selection, and the per-layer blocks are just root-restricted sub-HDGs.

:class:`MiniBatchTrainer` supports any model whose HDGs are flat (DNFA
and INFA); hierarchical models bound work through
``max_instances_per_root`` at selection time instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..graph.graph import Graph
from ..tensor.loss import accuracy
from ..tensor.optim import Optimizer
from ..tensor.tensor import Tensor
from .hdg import HDG
from .hybrid import ExecutionStrategy
from .nau import NAUModel, SelectionScope

__all__ = [
    "sample_fanout",
    "build_block",
    "build_seed_blocks",
    "MiniBatchTrainer",
    "MiniBatchEpochStats",
]


def sample_fanout(hdg: HDG, fanout: int, rng: np.random.Generator) -> HDG:
    """Uniformly keep at most ``fanout`` leaves per root of a flat HDG.

    One ``argsort`` of ``owner + key`` (keys in [0, 1)) ranks every root's
    segment; the first ``fanout`` by rank are kept, in segment order.
    PinSage-style importance weights are renormalized over the kept edges
    so the weighted sum stays a proper average.
    """
    if hdg.depth != 1:
        raise ValueError(
            "fan-out sampling applies to flat HDGs; bound hierarchical "
            "models with max_instances_per_root at selection time"
        )
    if fanout <= 0:
        raise ValueError("fanout must be positive")
    counts = np.diff(hdg.leaf_offsets)
    if counts.size == 0 or counts.max() <= fanout:
        return hdg
    num_edges = hdg.leaf_vertices.size
    owner = np.repeat(np.arange(hdg.num_roots, dtype=np.int64), counts)
    keys = rng.random(num_edges)
    order = np.argsort(owner + keys)
    rank = np.arange(num_edges) - hdg.leaf_offsets[owner]
    keep = np.sort(order[rank < fanout])

    new_counts = np.minimum(counts, fanout)
    new_offsets = np.zeros(hdg.num_roots + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_offsets[1:])
    weights = None
    if hdg.leaf_weights is not None:
        kept_owner = owner[keep]
        raw = hdg.leaf_weights[keep]
        sums = np.bincount(kept_owner, weights=raw, minlength=hdg.num_roots)
        weights = raw / np.maximum(sums[kept_owner], 1e-12)
    return HDG(
        hdg.roots, hdg.schema, hdg.leaf_vertices[keep], new_offsets,
        instance_offsets=None, leaf_weights=weights,
        num_input_vertices=hdg.num_input_vertices,
    )


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` by sort and adjacent-difference mask, avoiding
    the slower hash pass ``np.unique`` makes on numpy 2.3+."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def build_block(hdg: HDG, vertices: np.ndarray, fanout: int | None = None,
                rng: np.random.Generator | None = None) -> HDG:
    """One layer's seed-restricted block: the sub-HDG rooted at
    ``vertices``, optionally fan-out sampled.

    Requires an HDG whose roots cover all input vertices in id order
    (so vertex ids double as root orders) — the layout every model-level
    NeighborSelection in this repo produces.  ``fanout=None`` keeps the
    full neighborhoods (exact inference); a positive ``fanout`` applies
    :func:`sample_fanout` (flat HDGs only) and needs ``rng``.
    """
    block = hdg.restrict_to_roots(np.asarray(vertices, dtype=np.int64))
    if fanout is not None:
        if rng is None:
            raise ValueError("fan-out sampling needs an rng")
        block = sample_fanout(block, fanout, rng)
    return block


def build_seed_blocks(
    hdg: HDG,
    seeds: np.ndarray,
    fanouts: list[int | None],
    rng: np.random.Generator | None = None,
) -> list[tuple[HDG, np.ndarray]]:
    """Per-layer ``(block HDG, output vertices)``, input layer first.

    Built top-down: the last layer needs the seeds; each earlier layer
    needs everything the next layer's block references.  Shared by
    :class:`MiniBatchTrainer` (sampled training) and
    :class:`repro.serve.InferenceSession` (exact or sampled serving);
    ``fanouts`` entries may be ``None`` for exact full-neighborhood
    blocks.
    """
    need = _sorted_unique(np.asarray(seeds, dtype=np.int64))
    reversed_blocks: list[tuple[HDG, np.ndarray]] = []
    for fanout in reversed(list(fanouts)):
        block = build_block(hdg, need, fanout, rng)
        reversed_blocks.append((block, need))
        need = _sorted_unique(np.concatenate([need, block.leaf_vertices]))
    return list(reversed(reversed_blocks))


@dataclass
class MiniBatchEpochStats:
    """Outcome of one sampled mini-batch epoch.

    The stage fields break the epoch down by pipeline stage: *sample*
    (block building and the :func:`~repro.loader.compact_blocks`
    relabel), *gather* and *transfer* are production work (overlappable
    with training when ``prefetch_depth > 0``), *train* is the sequential
    forward/backward/step, and *wait* is how long the training loop sat
    idle waiting for the next batch.  ``overlap_efficiency`` is
    ``1 - wait / (sample + gather + transfer)`` clamped to [0, 1]: 0
    means production was fully exposed (the synchronous baseline), 1
    means it hid entirely behind training.
    """

    epoch: int
    loss: float                # mean over batches
    seconds: float
    num_batches: int
    train_accuracy: float | None = None
    sample_seconds: float = 0.0
    gather_seconds: float = 0.0
    transfer_seconds: float = 0.0
    train_seconds: float = 0.0
    wait_seconds: float = 0.0
    overlap_efficiency: float = 0.0
    prefetch_depth: int = 0


class MiniBatchTrainer:
    """GraphSAGE-style sampled training for flat-HDG NAU models.

    Parameters
    ----------
    model:
        A DNFA or INFA NAU model (flat HDGs).
    data:
        The input graph, or a dataset carrying one — an in-RAM
        ``Dataset`` or an out-of-core
        :class:`~repro.storage.ondisk.OnDiskDataset`.  With a dataset,
        ``train_epoch`` can be called without ``feats``/``labels`` and
        features are gathered per batch from the dataset (for ondisk
        data: only the memmap pages the batch touches).
    batch_size:
        Seed vertices per batch.
    fanouts:
        Per-layer neighbor budgets, bottom layer first; must have one
        entry per model layer.
    prefetch_depth:
        Batches produced ahead of the training loop by background
        workers (see :class:`~repro.loader.StreamingLoader`).  ``0``
        (default) trains synchronously.  Epoch sampling is seeded per
        batch from ``(seed, epoch)``, so losses are identical across
        prefetch depths and worker counts.
    num_workers:
        Loader worker threads when ``prefetch_depth > 0``.
    modeled_transfer_gbps:
        Optional modeled device-link bandwidth for the loader's
        transfer stub (see :class:`~repro.loader.StreamingLoader`).
    feature_dtype:
        ``"float32"``/``"float16"``/``"int8"`` stores in-RAM features
        quantized (:class:`~repro.loader.QuantizedSource`, dequantize on
        gather).  Only valid for raw arrays and in-RAM datasets — an
        :class:`~repro.storage.ondisk.OnDiskDataset` carries its own
        storage codec and re-quantizing it here raises.
    """

    def __init__(self, model: NAUModel, data, batch_size: int = 256,
                 fanouts: list[int] | None = None,
                 strategy: ExecutionStrategy | str = ExecutionStrategy.HA,
                 seed: int = 0, prefetch_depth: int = 0,
                 num_workers: int = 2,
                 modeled_transfer_gbps: float | None = None,
                 feature_dtype: str | None = None):
        self.model = model
        self._dataset = data if hasattr(data, "graph") else None
        self.graph: Graph = data.graph if self._dataset is not None else data
        self.batch_size = int(batch_size)
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.fanouts = list(fanouts) if fanouts is not None else [10] * model.num_layers
        if len(self.fanouts) != model.num_layers:
            raise ValueError(
                f"need one fanout per layer ({model.num_layers}), got {len(self.fanouts)}"
            )
        self.strategy = ExecutionStrategy.parse(strategy)
        self.seed = int(seed)
        self.prefetch_depth = int(prefetch_depth)
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        self.num_workers = int(num_workers)
        self.modeled_transfer_gbps = modeled_transfer_gbps
        if feature_dtype is not None:
            from ..tensor.quant import resolve_codec

            feature_dtype = resolve_codec(feature_dtype)
        self.feature_dtype = feature_dtype
        self._source_cache: tuple | None = None
        self._rng = np.random.default_rng(seed)
        self._model_hdg: HDG | None = None
        self._hdg_epoch = -1

    # ------------------------------------------------------------------
    def _ensure_hdg(self, epoch: int) -> HDG:
        scope = self.model.selection_scope
        stale = self._model_hdg is None or (
            scope is SelectionScope.PER_EPOCH and self._hdg_epoch != epoch
        )
        if stale:
            self._model_hdg = self.model.neighbor_selection(self.graph, self._rng)
            if self._model_hdg.depth != 1:
                raise ValueError("MiniBatchTrainer requires flat HDGs")
            if not np.array_equal(
                self._model_hdg.roots,
                np.arange(self.graph.num_vertices, dtype=np.int64),
            ):
                raise ValueError("MiniBatchTrainer expects HDG roots to cover "
                                 "all vertices in id order")
            self._hdg_epoch = epoch
        return self._model_hdg

    def _build_blocks(self, hdg: HDG, seeds: np.ndarray) -> list[tuple[HDG, np.ndarray]]:
        """Per-layer (block HDG, output vertices) via the shared builder."""
        return build_seed_blocks(hdg, seeds, self.fanouts, self._rng)

    def _resolve_source(self, feats, labels):
        """Normalize ``train_epoch`` input into a loader source."""
        from ..loader.source import as_source

        if feats is None:
            if self._dataset is None:
                raise ValueError(
                    "train_epoch needs feats unless the trainer was "
                    "constructed with a dataset"
                )
            feats = self._dataset
        # Cache the source across epochs: a quantized tier encodes the
        # full feature table once, not once per train_epoch call.
        key = (id(feats), id(labels))
        if self._source_cache is None or self._source_cache[0] != key:
            self._source_cache = (key, as_source(
                feats, labels, feature_dtype=self.feature_dtype
            ))
        return self._source_cache[1]

    # ------------------------------------------------------------------
    def train_epoch(
        self,
        feats: Tensor | None = None,
        labels: np.ndarray | None = None,
        optimizer: Optimizer | None = None,
        mask: np.ndarray | None = None,
        epoch: int = 0,
    ) -> MiniBatchEpochStats:
        """One pass over the (masked) vertices in sampled mini-batches.

        Batches flow through the staged loader (sample → gather →
        transfer → train); with ``prefetch_depth > 0`` the first three
        stages run on background workers while earlier batches train.
        The per-batch RNG seeds are pre-drawn from ``(seed, epoch)``, so
        the losses do not depend on prefetch depth or worker count.
        """
        from .. import obs
        from ..loader.pipeline import StreamingLoader, train_step

        if optimizer is None:
            raise ValueError("train_epoch needs an optimizer")
        self.model.train()
        t0 = time.perf_counter()
        hdg = self._ensure_hdg(epoch)
        n = self.graph.num_vertices
        pool = np.flatnonzero(mask) if mask is not None else np.arange(n)
        loader = StreamingLoader(
            self._resolve_source(feats, labels), self.fanouts,
            batch_size=self.batch_size, prefetch_depth=self.prefetch_depth,
            num_workers=self.num_workers,
            modeled_transfer_gbps=self.modeled_transfer_gbps,
        )
        batches = iter(loader.epoch_batches(hdg, pool, epoch=epoch, seed=self.seed))
        losses = []
        correct = 0
        sample_s = gather_s = transfer_s = train_s = wait_s = 0.0
        while True:
            t_wait = time.perf_counter()
            batch = next(batches, None)
            wait_s += time.perf_counter() - t_wait
            if batch is None:
                break
            t_train = time.perf_counter()
            loss, logits, _ = train_step(self.model, [batch], optimizer,
                                         self.strategy)
            train_s += time.perf_counter() - t_train
            losses.append(loss.item())
            correct += int(
                (logits.numpy().argmax(axis=1) == batch.labels).sum()
            )
            sample_s += batch.sample_seconds
            gather_s += batch.gather_seconds
            transfer_s += batch.transfer_seconds
        hidden = sample_s + gather_s + transfer_s
        overlap = min(max(1.0 - wait_s / hidden, 0.0), 1.0) if hidden > 0 else 0.0
        seconds = time.perf_counter() - t0
        stats = MiniBatchEpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else 0.0,
            seconds=seconds,
            num_batches=len(losses),
            train_accuracy=correct / max(pool.size, 1),
            sample_seconds=sample_s,
            gather_seconds=gather_s,
            transfer_seconds=transfer_s,
            train_seconds=train_s,
            wait_seconds=wait_s,
            overlap_efficiency=overlap,
            prefetch_depth=self.prefetch_depth,
        )
        obs.epoch_log("minibatch").log(
            epoch,
            loss=stats.loss,
            seconds=seconds,
            train_accuracy=stats.train_accuracy,
            sample_seconds=sample_s,
            gather_seconds=gather_s,
            transfer_seconds=transfer_s,
            train_seconds=train_s,
            wait_seconds=wait_s,
            overlap_efficiency=overlap,
            prefetch_depth=self.prefetch_depth,
        )
        return stats

    def evaluate(self, feats: Tensor, labels: np.ndarray,
                 mask: np.ndarray | None = None) -> float:
        """Full-neighborhood inference accuracy (standard for sampled
        training: sample at train time, exact at eval time)."""
        from ..tensor.tensor import no_grad

        self.model.eval()
        hdg = self._ensure_hdg(self._hdg_epoch if self._hdg_epoch >= 0 else 0)
        with no_grad():
            h = feats
            for layer in self.model.layers:
                nbr = layer.aggregation(h, hdg, self.strategy)
                h = layer.update(h, nbr)
        self.model.train()
        return accuracy(h, labels, mask)
