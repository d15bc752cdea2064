"""dist-magnn: MAGNN trained by MultiprocessTrainer on two processes.

Depth-3 HDGs (metapath instances) under a hash partition, so this
workload exercises ``distributed`` and hierarchical three-level
aggregation; it bypasses sampling, the loader, storage and serve.
"""

from __future__ import annotations

import multiprocessing
import time
from types import SimpleNamespace

from checks import losses_close
from common import (
    OP_SPAN, NullTracer, Tracer, WorkMeter, engine_epoch, interleaved, median,
    peak_rss_mb, plan_hit_rate, process_peak_rss_mb, report_hdg, report_layers,
    report_span_times, report_work, timed_setups, traced_layers,
)

#: imdb_like at four times its default size: 4.5k vertices, ~133k leaves
NUM_MOVIES, NUM_DIRECTORS, NUM_ACTORS = 2400, 480, 1600
HIDDEN = 16
LR = 0.01
WORKERS = 2
FINAL_EPOCH = 16
SETUPS = 5
TRACED_EPOCHS = 8


class _Setup(SimpleNamespace):
    def close(self) -> None:
        self.trainer.close()


def _workers_peak_rss_mb() -> float:
    return sum(process_peak_rss_mb(p.pid) for p in multiprocessing.active_children())


def _inputs(seed: int):
    from repro import models
    from repro.datasets.synthetic import imdb_like
    from repro.tensor import Adam

    ds = imdb_like(num_movies=NUM_MOVIES, num_directors=NUM_DIRECTORS,
                   num_actors=NUM_ACTORS, seed=seed)
    model = models.magnn(ds.feat_dim, HIDDEN, ds.num_classes, seed=seed)
    return ds, model, Adam(model.parameters(), lr=LR)


def build(seed: int) -> _Setup:
    """Inputs, trainer, and epoch 0 (HDG build and worker spawn)."""
    from repro.distributed import MultiprocessTrainer
    from repro.graph import hash_partition
    from repro.tensor import Tensor
    from repro.tensor.plans import get_plan_cache

    get_plan_cache().clear()
    ds, model, optimizer = _inputs(seed)
    trainer = MultiprocessTrainer(model, ds.graph,
                                  hash_partition(ds.graph.num_vertices, WORKERS),
                                  seed=seed)
    feats = Tensor(ds.features)
    stats = trainer.train_epoch(feats, ds.labels, optimizer, ds.train_mask, 0)
    return _Setup(ds=ds, model=model, trainer=trainer, optimizer=optimizer,
                  feats=feats, losses=[stats.loss])


def _dist_epoch(tracer, s, epoch: int):
    with tracer.span(OP_SPAN, op=epoch):
        with tracer.span("distributed.train_epoch"):
            return s.trainer.train_epoch(s.feats, s.ds.labels, s.optimizer,
                                         s.ds.train_mask, epoch)


def _traced_pass(s, ledger, first_epoch: int, trace_path: str) -> None:
    """Distributed epochs, traced and untraced in turn.  From outside,
    one epoch is one call into ``distributed``; its per-rank split comes
    from the trainer's own epoch stats."""
    tracer = Tracer()
    epochs = iter(range(first_epoch, first_epoch + 2 * TRACED_EPOCHS))
    walls = interleaved(TRACED_EPOCHS, lambda traced: _dist_epoch(
        tracer if traced else NullTracer(), s, next(epochs)))
    tracer.write(trace_path)
    report_layers(ledger, tracer.spans, walls)


def _replay(seed: int, trace: bool, ledger, trace_path: str) -> list[float]:
    """Epochs 0..FINAL_EPOCH of the same model on one process.  With
    ``trace`` these epochs also give the aggregation/update/backward
    split that the worker processes hide."""
    from repro.core.engine import FlexGraphEngine
    from repro.tensor import Tensor

    ds, model, optimizer = _inputs(seed)
    s = SimpleNamespace(model=model, optimizer=optimizer, feats=Tensor(ds.features),
                        labels=ds.labels, mask=ds.train_mask,
                        engine=FlexGraphEngine(model, ds.graph, seed=seed))
    tracer = Tracer() if trace else NullTracer()
    losses, meters = [], []
    with traced_layers(tracer, model.layers):
        for epoch in range(FINAL_EPOCH + 1):
            meters.append(WorkMeter())
            losses.append(engine_epoch(tracer, s, epoch, meters[-1]))
    if trace:
        tracer.write(trace_path.replace(".json", "-replay.json"))
        report_span_times(ledger, tracer.spans)
        report_work(ledger, meters)
        report_hdg(ledger, model, ds.graph)
    return losses


def run(seed: int, seconds: float, trace: bool, ledger, trace_path: str) -> None:
    from repro.tensor.plans import get_plan_cache

    worker_rss = []

    def setup():
        s = build(seed)
        worker_rss.append(_workers_peak_rss_mb())
        return s

    s, setups = timed_setups(setup, SETUPS)
    try:
        ledger.metric("setup_s", median(setups), "s")
        plans = get_plan_cache()
        plan_mark = (plans.hits, plans.misses)
        epochs = []
        epoch = 1
        deadline = time.perf_counter() + seconds
        while epoch <= FINAL_EPOCH or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            stats = _dist_epoch(NullTracer(), s, epoch)
            epochs.append((time.perf_counter() - t0, stats))
            s.losses.append(stats.loss)
            ledger.op()
            if epoch == FINAL_EPOCH:
                # after a fixed amount of work; parent plus both workers
                worker_rss.append(_workers_peak_rss_mb())
                ledger.metric("peak_rss_mb", peak_rss_mb() + max(worker_rss), "MB")
            epoch += 1
        hit_rate = plan_hit_rate(plan_mark, plans)
        if trace:
            _traced_pass(s, ledger, epoch, trace_path)
    finally:
        s.close()

    walls = [w for w, _ in epochs]
    ledger.metric("op_ms.p50", median(walls) * 1e3, "ms")
    ledger.metric("final_loss", s.losses[FINAL_EPOCH], "nat")
    ledger.metric("goodput_per_s",
                  int(s.ds.train_mask.sum()) * len(walls) / sum(walls), "1/s")
    ledger.note(f"epoch_s median {median(walls):.4f} s over {len(walls)} epochs "
                f"on {WORKERS} processes")

    single = _replay(seed, trace, ledger, trace_path)
    ledger.check("process-losses-equal-single-process",
                 losses_close(s.losses[:FINAL_EPOCH + 1], single))
    if trace:
        ledger.metric("tensor.plan_hit_rate", hit_rate, "ratio")
        compute = [st.compute_seconds for _, st in epochs]
        comm = [st.comm_seconds for _, st in epochs]
        ledger.metric("distributed.compute_s", median(c.max() for c in compute), "s")
        ledger.metric("distributed.comm_s", median(c.max() for c in comm), "s")
        ledger.metric("distributed.skew",
                      median(c.max() / c.mean() for c in compute), "ratio")
        ledger.metric("distributed.bytes", median(st.total_bytes for _, st in epochs), "B")
        ledger.metric("distributed.messages",
                      median(st.total_messages for _, st in epochs), "count")
