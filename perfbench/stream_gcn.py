"""stream-gcn: sampled GCN training streamed from an int8 OnDiskDataset.

The producer (sample, compact, gather) costs three to four times the train
step, so this workload exercises ``core.sampling``, the loader,
``storage.ondisk`` and ``tensor.quant``, and does little aggregation.
"""

from __future__ import annotations

import os
import shutil
import time
from types import SimpleNamespace

import numpy as np

from checks import losses_bitwise
from common import (
    OP_SPAN, NullTracer, Tracer, WorkMeter, interleaved, median, peak_rss_mb,
    plan_hit_rate, report_hdg, report_layers, report_span_times, report_work,
    timed_setups, traced_layers,
)

NUM_VERTICES = 30_000
EDGES_PER_VERTEX = 20
FEAT_DIM = 64
NUM_CLASSES = 8
#: a weak class signal and a small training pool: loss falls slowly and
#: an epoch is ~10 batches, so a run holds enough epochs for a median
SIGNAL = 0.15
TRAIN_FRACTION = 0.15
BATCH_SIZE = 512
FANOUTS = [10, 10]
HIDDEN = 16
LR = 0.03
PREFETCH_DEPTH = 2
LOADER_WORKERS = 1
FINAL_EPOCH = 8
SETUPS = 5


def _spec(seed: int):
    from repro.datasets.synthetic import ShardedSyntheticSpec

    return ShardedSyntheticSpec(
        name="stream-gcn", num_vertices=NUM_VERTICES,
        num_edges=EDGES_PER_VERTEX * NUM_VERTICES, feat_dim=FEAT_DIM,
        num_classes=NUM_CLASSES, seed=seed,
        edges_per_chunk=EDGES_PER_VERTEX * NUM_VERTICES // 4,
        rows_per_shard=8192, train_fraction=TRAIN_FRACTION, val_fraction=0.1,
        feature_dtype="int8", signal=SIGNAL,
    )


def _model(ds, seed: int):
    from repro import models
    from repro.tensor import Adam

    # Mean aggregation: a plain sum over ten sampled neighbours drowns
    # each vertex's own features and the loss never leaves ln(classes).
    model = models.gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=seed,
                       aggregator="mean")
    return model, Adam(model.parameters(), lr=LR)


class _Setup(SimpleNamespace):
    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def build(seed: int, root: str) -> _Setup:
    """Write the dataset, open it, build the trainer, train epoch 0."""
    from repro.core.sampling import MiniBatchTrainer
    from repro.storage import OnDiskDataset, write_synthetic_ondisk
    from repro.tensor.plans import get_plan_cache

    get_plan_cache().clear()
    shutil.rmtree(root, ignore_errors=True)
    write_synthetic_ondisk(root, _spec(seed))
    ds = OnDiskDataset(root)
    model, optimizer = _model(ds, seed)
    trainer = MiniBatchTrainer(
        model, ds, batch_size=BATCH_SIZE, fanouts=FANOUTS, seed=seed,
        prefetch_depth=PREFETCH_DEPTH, num_workers=LOADER_WORKERS,
    )
    stats = trainer.train_epoch(optimizer=optimizer, mask=ds.train_mask, epoch=0)
    return _Setup(root=root, ds=ds, trainer=trainer, optimizer=optimizer,
                  losses=[stats.loss])


def _epoch(tracer, model, optimizer, hdg, source, pool, seed: int, epoch: int,
           meter: WorkMeter, blocks_seen: list) -> float:
    """One synchronous epoch driven through the loader's public stages:
    plan_epoch -> build_seed_blocks -> compact_blocks -> gather_features
    -> run_local_blocks -> loss, backward, step.  Same arithmetic as
    MiniBatchTrainer, so the losses match the prefetch run bit for bit."""
    from repro.core.hybrid import ExecutionStrategy
    from repro.core.sampling import build_seed_blocks
    from repro.loader.pipeline import compact_blocks, plan_epoch, run_local_blocks
    from repro.tensor import Tensor
    from repro.tensor.loss import cross_entropy

    losses = []
    with tracer.span(OP_SPAN, op=epoch):
        with tracer.span("obs.work"):
            meter.start()
        model.train()
        with tracer.span("loader.plan"):
            plans = plan_epoch(pool, BATCH_SIZE, seed=seed, epoch=epoch)
        for plan in plans:
            with tracer.span("sampling.sample"):
                rng = np.random.default_rng(plan.rng_seed)
                blocks = build_seed_blocks(hdg, plan.seeds, FANOUTS, rng)
            with tracer.span("loader.compact"):
                compact = compact_blocks(blocks, plan.seeds)
            with tracer.span("storage.gather"):
                rows = source.gather_features(compact.input_vertices)
                labels = source.gather_labels(plan.seeds)
            with tracer.span("loader.forward"):
                h = run_local_blocks(model, compact, Tensor(np.ascontiguousarray(rows)),
                                     ExecutionStrategy.HA)
                logits = h[compact.seed_rows]
            with tracer.span("tensor.loss"):
                loss = cross_entropy(logits, labels)
            with tracer.span("tensor.optim"):
                optimizer.zero_grad()
            with tracer.span("tensor.backward"):
                loss.backward()
            with tracer.span("tensor.optim"):
                optimizer.step()
            losses.append(loss.item())
            blocks_seen.append((blocks, compact.num_local))
        with tracer.span("obs.work"):
            meter.stop()
    return float(np.mean(losses))


def _replay(s, seed: int, trace: bool, ledger, trace_path: str) -> list[float]:
    """Synchronous re-run of epochs 0..FINAL_EPOCH from a fresh model.

    With ``trace``, epochs 1..FINAL_EPOCH alternate between traced and
    untraced, so the same replay gives the per-layer table and the
    tracing overhead.  Epoch 0 pays first-touch costs and is never
    traced."""
    from repro.loader.source import as_source

    model, optimizer = _model(s.ds, seed)
    hdg = model.neighbor_selection(s.ds.graph, np.random.default_rng(seed))
    source = as_source(s.ds)
    pool = np.flatnonzero(s.ds.train_mask)
    tracer, meters, counts, losses = Tracer(), [], [], []
    epochs = iter(range(FINAL_EPOCH + 1))

    def step(traced: bool) -> None:
        meter, blocks_seen = WorkMeter(), []
        args = (model, optimizer, hdg, source, pool, seed, next(epochs), meter,
                blocks_seen)
        if traced:
            with traced_layers(tracer, model.layers):
                losses.append(_epoch(tracer, *args))
            meters.append(meter)
            counts.append(_edge_counts(hdg, blocks_seen, s.ds.wire_bytes_per_row))
        else:
            losses.append(_epoch(NullTracer(), *args))

    step(False)
    if not trace:
        for _ in range(FINAL_EPOCH):
            step(False)
        return losses

    walls = interleaved(FINAL_EPOCH // 2, step)  # FINAL_EPOCH is even
    tracer.write(trace_path)
    report_layers(ledger, tracer.spans, walls)
    report_span_times(ledger, tracer.spans)
    report_work(ledger, meters)
    for i, (metric, unit) in enumerate((("sampling.edges_touched", "count"),
                                        ("sampling.edges_kept", "count"),
                                        ("loader.input_rows", "count"),
                                        ("storage.wire_bytes", "B"))):
        ledger.metric(metric, median(c[i] for c in counts), unit)
    ledger.metric("sampling.keep_ratio",
                  median(c[1] for c in counts) / median(c[0] for c in counts), "ratio")
    report_hdg(ledger, model, s.ds.graph)
    return losses


def _edge_counts(hdg, blocks_seen, wire_bytes_per_row) -> tuple:
    """Per epoch: in-edges of every block root (what sampling reads),
    leaves kept, input rows gathered and their wire bytes."""
    degree = np.diff(np.asarray(hdg.leaf_offsets))
    touched = kept = rows = 0
    for blocks, num_local in blocks_seen:
        for block, out_vertices in blocks:
            touched += int(degree[out_vertices].sum())
            kept += int(block.leaf_vertices.size)
        rows += num_local
    return touched, kept, rows, rows * wire_bytes_per_row


def run(seed: int, seconds: float, trace: bool, ledger, trace_path: str) -> None:
    from repro.tensor.plans import get_plan_cache

    data_dir = os.path.join(os.path.dirname(trace_path), f"stream-gcn-{os.getpid()}")
    roots = iter(os.path.join(data_dir, str(i)) for i in range(SETUPS))
    s = None
    try:
        s, setups = timed_setups(lambda: build(seed, next(roots)), SETUPS)
        ledger.metric("setup_s", median(setups), "s")

        plans = get_plan_cache()
        plan_mark = (plans.hits, plans.misses)
        epochs = []
        epoch = 1
        deadline = time.perf_counter() + seconds
        while epoch <= FINAL_EPOCH or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            stats = s.trainer.train_epoch(optimizer=s.optimizer,
                                          mask=s.ds.train_mask, epoch=epoch)
            epochs.append((time.perf_counter() - t0, stats))
            s.losses.append(stats.loss)
            ledger.op(count=stats.num_batches)
            if epoch == FINAL_EPOCH:
                # after a fixed amount of work: later epochs keep adding
                # one-off sampled-block plans to the plan cache
                ledger.metric("peak_rss_mb", peak_rss_mb(), "MB")
            epoch += 1
        hit_rate = plan_hit_rate(plan_mark, plans)
        walls = [w for w, _ in epochs]
        ledger.metric("op_ms.p50", median(walls) * 1e3, "ms")
        ledger.metric("final_loss", s.losses[FINAL_EPOCH], "nat")
        ledger.metric("goodput_per_s",
                      int(s.ds.train_mask.sum()) * len(walls) / sum(walls), "1/s")
        ledger.note(f"epoch_s median {median(walls):.4f} s over {len(walls)} epochs, "
                    f"{epochs[0][1].num_batches} batches each")

        sync = _replay(s, seed, trace, ledger, trace_path)
        ledger.check("prefetch-losses-bitwise-equal-sync",
                     losses_bitwise(s.losses[:FINAL_EPOCH + 1], sync))
        if trace:
            ledger.metric("tensor.plan_hit_rate", hit_rate, "ratio")
            ledger.metric("loader.wait_s", median(st.wait_seconds for _, st in epochs), "s")
            ledger.metric("loader.overlap",
                          median(st.overlap_efficiency for _, st in epochs), "ratio")
    finally:
        if s is not None:
            s.close()
        shutil.rmtree(data_dir, ignore_errors=True)
