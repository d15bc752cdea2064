"""serve-mixed: an open loop of reads and writes against a GNNServer.

Poisson arrivals at a fixed rate.  Reads ``predict`` a few Zipf-popular
seeds through the server's one worker; writes add and remove a few
edges through ``InferenceSession.apply_edge_changes``, applied by the
generator at their due time while they hold the session lock.  This is
the one workload with writes beside reads: it exercises exact block
building (``core.sampling.build_block``), the serve caches and the
global plan cache.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

from checks import embeddings_close
from common import (
    OP_SPAN, NullTracer, Tracer, WorkMeter, median, noisy_labels, peak_rss_mb,
    percentile, plan_hit_rate, report_hdg, report_layers, report_span_times,
    report_work, tail_label, timed_setups, traced_layers,
)

NUM_VERTICES = 10_000
AVG_DEGREE = 20.0
HIDDEN = 16
LABEL_NOISE = 0.4
#: pre-training converges far enough that the served loss differs little
#: between seeds
PRETRAIN_LR = 0.1
PRETRAIN_EPOCHS = 10
#: open loop: Poisson arrivals, a fixed share of them writes.  A write
#: costs ~50 reads (removing an edge rebuilds the graph), so writes are
#: 2% of operations: at 120 ops/s they hold the session ~25% of the time
#: and reads ~30%, and a run still has ~1000 reads.
RATE_PER_S = 120.0
WRITE_SHARE = 0.02
SEEDS_PER_READ = 8
ZIPF_EXPONENT = 1.1
EDGES_ADDED_PER_WRITE = 2
EDGES_REMOVED_PER_WRITE = 2
#: a read answered later than this after its due time misses goodput
LATENCY_LIMIT_MS = 50.0
#: a read not answered this long after the schedule ends has failed
READ_TIMEOUT_S = 10.0
WARM_VERTICES = 256
CHECK_VERTICES = 1024
SETUPS = 5
TRACED_OPS = 400


class _Setup(SimpleNamespace):
    def close(self) -> None:
        self.server.stop()


def _popularity(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices in popularity order and their Zipf read probabilities."""
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return order, weights / weights.sum()


def schedule(seed: int, seconds: float, graph) -> list[tuple]:
    """The timed phase's operations: ``(due_s, "read", seeds)`` or
    ``(due_s, "write", added, removed)``.

    Poisson arrivals conditioned on their count (``RATE_PER_S * seconds``
    due times drawn uniformly); every ``1 / WRITE_SHARE``-th operation is
    a write, so runs with different seeds offer the same load.  Removed
    edges are distinct edges of the initial graph, so every removal
    finds its edge."""
    rng = np.random.default_rng([seed, 3])
    n = graph.num_vertices
    order, probs = _popularity(seed, n)
    src, dst = graph.edges()
    num_ops = round(RATE_PER_S * seconds)
    dues = np.sort(rng.uniform(0.0, seconds, size=num_ops))
    stride = round(1 / WRITE_SHARE)
    is_write = np.arange(num_ops) % stride == rng.integers(stride)
    removable = iter(rng.permutation(src.size).reshape(-1, EDGES_REMOVED_PER_WRITE))
    ops = []
    for due, write in zip(dues.tolist(), is_write):
        if write:
            added = rng.integers(0, n, size=(EDGES_ADDED_PER_WRITE, 2))
            idx = next(removable)
            ops.append((due, "write", added, np.stack([src[idx], dst[idx]], axis=1)))
        else:
            ops.append((due, "read", order[rng.choice(n, size=SEEDS_PER_READ, p=probs)]))
    return ops


def _inputs(seed: int):
    """Dataset with noisy labels and a GCN pre-trained on it."""
    from repro import models
    from repro.core.engine import FlexGraphEngine
    from repro.datasets.synthetic import twitter_like
    from repro.tensor import Adam, Tensor

    ds = twitter_like(num_vertices=NUM_VERTICES, avg_degree=AVG_DEGREE, seed=seed)
    labels = noisy_labels(ds.labels, LABEL_NOISE, ds.num_classes,
                          np.random.default_rng([seed, 1]))
    # mean aggregation keeps logits, and so the served loss, in range
    model = models.gcn(ds.feat_dim, HIDDEN, ds.num_classes, seed=seed,
                       aggregator="mean")
    engine = FlexGraphEngine(model, ds.graph, seed=seed)
    optimizer = Adam(model.parameters(), lr=PRETRAIN_LR)
    feats = Tensor(ds.features)
    for epoch in range(PRETRAIN_EPOCHS):
        engine.train_epoch(feats, labels, optimizer, ds.train_mask, epoch)
    model.eval()
    return ds, labels, model


def _session(ds, model, seed: int):
    from repro.serve import InferenceSession

    session = InferenceSession(model, ds.graph, ds.features, seed=seed)
    order, _ = _popularity(seed, ds.graph.num_vertices)
    for start in range(0, WARM_VERTICES, 64):  # cache warm-up
        session.predict(order[start:start + 64])
    return session


def build(seed: int) -> _Setup:
    """Inputs, pre-trained model, session with warm caches, started server."""
    from repro.serve import GNNServer
    from repro.tensor.plans import get_plan_cache

    get_plan_cache().clear()
    ds, labels, model = _inputs(seed)
    session = _session(ds, model, seed)
    server = GNNServer(session, num_workers=1).start()
    return _Setup(ds=ds, labels=labels, model=model, session=session, server=server)


def _open_loop(s, ops: list, ledger) -> SimpleNamespace:
    """Send every operation at its due time; time each from its due time."""
    from repro.serve import ServerOverloaded

    done: list[tuple] = []   # (due, answered, ok), appended by the server worker
    futures, writes, evicted, late = [], [], [], []
    shed = 0
    start = time.perf_counter() + 0.01
    for op in ops:
        due = start + op[0]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append(time.perf_counter() - due)
        if op[1] == "read":
            try:
                future = s.server.submit("predict", op[2])
            except ServerOverloaded:
                shed += 1
                continue
            future.add_done_callback(lambda f, due=due: done.append(
                (due, time.perf_counter(), f.exception() is None)))
            futures.append(future)
        else:
            evicted.append(s.session.apply_edge_changes(added=op[2], removed=op[3]))
            writes.append(time.perf_counter() - due)
    errors = 0
    for future in futures:
        try:
            future.result(timeout=READ_TIMEOUT_S)
        except Exception:  # a failed or timed-out read is a failed operation
            errors += 1
    reads = sum(op[1] == "read" for op in ops)
    ledger.op(count=reads - shed - errors)
    ledger.op(ok=False, count=shed + errors)
    ledger.op(count=len(writes))
    return SimpleNamespace(reads=[answered - due for due, answered, ok in done if ok],
                           writes=writes, evicted=evicted, late=late,
                           attempted_reads=reads)


def _replay(s, seed: int, ops: list, ledger, trace_path: str) -> None:
    """The first TRACED_OPS operations applied directly to a fresh
    session (no server, no schedule); reads and writes are each traced
    and untraced in turn."""
    import repro.serve.session as session_module

    session = _session(s.ds, s.model, seed)
    build_block = session_module.build_block
    tracer, meters = Tracer(), []
    walls = {(kind, traced): [] for kind in ("read", "write") for traced in (True, False)}
    seen = {"read": 0, "write": 0}
    for i, op in enumerate(ops[:TRACED_OPS]):
        traced = seen[op[1]] % 2 == 0  # alternate within each kind
        seen[op[1]] += 1
        t = tracer if traced else NullTracer()
        meter = WorkMeter()
        # the session calls build_block by its module-level name
        session_module.build_block = t.wrap("sampling.sample", build_block)
        t0 = time.perf_counter()
        try:
            with traced_layers(t, s.model.layers), t.span(OP_SPAN, op=i):
                with t.span("obs.work"):
                    meter.start()
                if op[1] == "read":
                    with t.span("serve.predict"):
                        session.predict(op[2])
                else:
                    with t.span("serve.apply_edge_changes"):
                        session.apply_edge_changes(added=op[2], removed=op[3])
                with t.span("obs.work"):
                    meter.stop()
        finally:
            session_module.build_block = build_block
        walls[(op[1], traced)].append(time.perf_counter() - t0)
        if traced and op[1] == "read":
            meters.append(meter)
    tracer.write(trace_path)
    report_layers(ledger, tracer.spans,
                  {traced: walls[("read", traced)] for traced in (True, False)})
    # Request costs are heavy-tailed (most reads hit the cache), so
    # per-request span times are means, not medians.
    report_span_times(ledger, tracer.spans, per_op=statistics.fmean)
    report_work(ledger, meters)
    report_hdg(ledger, s.model, s.ds.graph)
    ledger.metric("serve.embed_ms.p50", median(walls[("read", True)]) * 1e3, "ms")
    ledger.metric("serve.write_apply_ms.p50", median(walls[("write", True)]) * 1e3, "ms")


def check_served(session, model, features, vertices) -> tuple[np.ndarray, list[str]]:
    """Rows the session serves for ``vertices`` and the failures of
    comparing them with a full-graph forward on the session's graph."""
    from repro.core.engine import FlexGraphEngine
    from repro.tensor import Tensor

    served = session.embed(vertices)
    reference = FlexGraphEngine(model, session.graph).embed(Tensor(features), vertices)
    return served, embeddings_close(served, reference, vertices)


def _served_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    from repro.tensor import Tensor
    from repro.tensor.loss import cross_entropy

    return cross_entropy(Tensor(logits), labels).item()


def run(seed: int, seconds: float, trace: bool, ledger, trace_path: str) -> None:
    from repro.tensor.plans import get_plan_cache

    s, setups = timed_setups(lambda: build(seed), SETUPS)
    try:
        ledger.metric("setup_s", median(setups), "s")
        ops = schedule(seed, seconds, s.ds.graph)
        plans = get_plan_cache()
        plan_mark = (plans.hits, plans.misses)
        before = s.session.stats()
        loop = _open_loop(s, ops, ledger)
        ledger.metric("peak_rss_mb", peak_rss_mb(), "MB")
        after = s.session.stats()
        hit_rate = plan_hit_rate(plan_mark, plans)
    finally:
        s.close()

    reads, writes = loop.reads, loop.writes
    ledger.metric("op_ms.p50", median(reads) * 1e3, "ms")
    good = sum(lat * 1e3 <= LATENCY_LIMIT_MS for lat in reads)
    ledger.metric("goodput_per_s", good / seconds, "1/s")
    for kind, lats, attempted in (("read", reads, loop.attempted_reads),
                                  ("write", writes, len(writes))):
        q = tail_label(len(lats))
        tail = (f", {kind}_ms.p{q:g} {percentile(lats, q) * 1e3:.3f} ms" if q
                else " (too few for a tail)")
        ledger.note(f"{kind}_ms.p50 {median(lats) * 1e3:.3f} ms{tail} over "
                    f"{len(lats)} {kind}s answered of {attempted}")
    ledger.note(f"goodput {good / seconds:.2f} reads/s within {LATENCY_LIMIT_MS:g} ms "
                f"of due, offered {RATE_PER_S * (1 - WRITE_SHARE):g} reads/s")

    # Rows served after the last write against a full-graph forward on
    # the final graph: a cache row left stale by a write shows here.
    order, _ = _popularity(seed, s.ds.graph.num_vertices)
    written = np.concatenate([np.concatenate([op[2], op[3]]).ravel()
                              for op in ops if op[1] == "write"] or [[]])
    vertices = np.unique(np.concatenate([order[:CHECK_VERTICES], written]).astype(np.int64))
    served, failures = check_served(s.session, s.model, s.ds.features, vertices)
    ledger.check("served-rows-match-full-graph", failures)
    ledger.metric("final_loss", _served_loss(served, s.labels[vertices]), "nat")

    if trace:
        ledger.metric("tensor.plan_hit_rate", hit_rate, "ratio")
        for cache in ("embed_cache", "block_cache"):
            hits = after[cache]["hits"] - before[cache]["hits"]
            misses = after[cache]["misses"] - before[cache]["misses"]
            ledger.metric(f"serve.{cache}_hit_rate", hits / max(hits + misses, 1), "ratio")
        ledger.metric("serve.evicted_rows_per_write", float(np.mean(loop.evicted)), "count")
        ledger.metric("serve.generator_late_ms.p99", percentile(loop.late, 99) * 1e3, "ms")
        _replay(s, seed, ops, ledger, trace_path)
