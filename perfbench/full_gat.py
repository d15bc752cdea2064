"""full-gat: single-process full-graph GAT training via FlexGraphEngine.

Aggregation plus backward are ~95% of an epoch, so this workload
exercises the hybrid executor, the attention kernels and autograd; it
bypasses sampling, the loader, storage, distributed and serve.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from checks import logits_match
from common import (
    NullTracer, Tracer, WorkMeter, engine_epoch, interleaved, median, noisy_labels,
    peak_rss_mb, plan_hit_rate, report_hdg, report_layers, report_span_times,
    report_work, timed_setups, traced_layers,
)

NUM_VERTICES = 10_000
AVG_DEGREE = 20.0
HIDDEN = 16
LABEL_NOISE = 0.4
LR = 0.01
#: final_loss is the loss of this epoch; epoch 0 is the set-up warm-up
FINAL_EPOCH = 12
SETUPS = 5
TRACED_EPOCHS = 8


def build(seed: int) -> SimpleNamespace:
    """Inputs, model, engine and the warm-up epoch (epoch 0)."""
    from repro import models
    from repro.core.engine import FlexGraphEngine
    from repro.datasets.synthetic import twitter_like
    from repro.tensor import Adam, Tensor
    from repro.tensor.plans import get_plan_cache

    get_plan_cache().clear()  # every set-up pays its own plan builds
    ds = twitter_like(num_vertices=NUM_VERTICES, avg_degree=AVG_DEGREE, seed=seed)
    rng = np.random.default_rng([seed, 1])
    labels = noisy_labels(ds.labels, LABEL_NOISE, ds.num_classes, rng)
    model = models.gat(ds.feat_dim, HIDDEN, ds.num_classes, seed=seed)
    engine = FlexGraphEngine(model, ds.graph, strategy="ha", seed=seed)
    optimizer = Adam(model.parameters(), lr=LR)
    feats = Tensor(ds.features)
    stats = engine.train_epoch(feats, labels, optimizer, ds.train_mask, 0)
    return SimpleNamespace(ds=ds, labels=labels, mask=ds.train_mask, model=model,
                           engine=engine, optimizer=optimizer, feats=feats,
                           losses=[stats.loss])


def _traced_pass(s, ledger, first_epoch: int, trace_path: str) -> None:
    """Traced epochs interleaved with untraced runs of the same code."""
    tracer, meters = Tracer(), []
    epochs = iter(range(first_epoch, first_epoch + 2 * TRACED_EPOCHS))

    def step(traced: bool) -> None:
        meter = WorkMeter()
        if traced:
            with traced_layers(tracer, s.model.layers):
                engine_epoch(tracer, s, next(epochs), meter)
            meters.append(meter)
        else:
            engine_epoch(NullTracer(), s, next(epochs), meter)

    walls = interleaved(TRACED_EPOCHS, step)
    tracer.write(trace_path)
    report_layers(ledger, tracer.spans, walls)
    report_span_times(ledger, tracer.spans)
    report_work(ledger, meters)
    report_hdg(ledger, s.model, s.ds.graph)


def run(seed: int, seconds: float, trace: bool, ledger, trace_path: str) -> None:
    from repro.core.engine import FlexGraphEngine
    from repro.tensor.plans import get_plan_cache

    s, setups = timed_setups(lambda: build(seed), SETUPS)
    ledger.metric("setup_s", median(setups), "s")

    plans = get_plan_cache()
    plan_mark = (plans.hits, plans.misses)
    walls = []
    epoch = 1
    deadline = time.perf_counter() + seconds
    while epoch <= FINAL_EPOCH or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        stats = s.engine.train_epoch(s.feats, s.labels, s.optimizer, s.mask, epoch)
        walls.append(time.perf_counter() - t0)
        s.losses.append(stats.loss)
        ledger.op()
        if epoch == FINAL_EPOCH:
            # after a fixed amount of work, not after however many epochs
            # the time allowed
            ledger.metric("peak_rss_mb", peak_rss_mb(), "MB")
        epoch += 1
    hit_rate = plan_hit_rate(plan_mark, plans)

    ledger.metric("op_ms.p50", median(walls) * 1e3, "ms")
    ledger.metric("final_loss", s.losses[FINAL_EPOCH], "nat")
    ledger.metric("goodput_per_s", int(s.mask.sum()) * len(walls) / sum(walls), "1/s")
    ledger.note(f"epoch_s median {median(walls):.4f} s over {len(walls)} epochs")

    ha = s.engine.embed(s.feats)
    sa = FlexGraphEngine(s.model, s.ds.graph, strategy="sa", seed=seed).embed(s.feats)
    ledger.check("ha-logits-equal-sa", logits_match(ha, sa))

    if trace:
        ledger.metric("tensor.plan_hit_rate", hit_rate, "ratio")
        _traced_pass(s, ledger, epoch, trace_path)
