"""Shared pieces of the benchmark: result ledger, span tracer, statistics.

The tracer records spans from the benchmark's own code around calls into
the program's layers; nothing inside the program is instrumented.  Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import time
from collections import defaultdict

#: the program's layers, named after its packages; self time is reported
#: per layer.  ``sampling`` is ``repro.core.sampling``, so it counts as core.
LAYERS = ("tensor", "core", "loader", "storage", "distributed", "serve", "obs")
_LAYER_OF_PREFIX = {layer: layer for layer in LAYERS}
_LAYER_OF_PREFIX["sampling"] = "core"

#: name of the root span of one traced operation (an epoch or a request)
OP_SPAN = "op"


class Tracer:
    """In-memory spans: name, start, end, parent and operation id.

    Children inherit the operation id of the root span they run under,
    so every span of one epoch or request shares an identifier.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        op = attrs.pop("op", None)
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "op": parent["op"] if parent is not None else op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


class NullTracer:
    """Same interface as :class:`Tracer`, recording nothing: the untraced
    half of the tracing-overhead comparison runs the same code."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn


@contextlib.contextmanager
def traced_layers(tracer, layers):
    """Record ``core.aggregate`` / ``core.update`` spans around each NAU
    layer's public calls by shadowing the bound methods on the instances
    (removed again on exit, so the class methods come back)."""
    for layer in layers:
        layer.aggregation = tracer.wrap("core.aggregate", layer.aggregation)
        layer.update = tracer.wrap("core.update", layer.update)
    try:
        yield
    finally:
        for layer in layers:
            del layer.aggregation
            del layer.update


class WorkMeter:
    """The program's own work profiler, read around one operation: FLOPs,
    bytes moved and the peak of materialized per-edge bytes."""

    def start(self) -> None:
        from repro import obs
        from repro.tensor.scatter import MATERIALIZED_BYTES_COUNTER

        self._obs = obs
        self._mark = obs.work_snapshot()
        self._mat = obs.counter(MATERIALIZED_BYTES_COUNTER)
        self._base = self._mat.current
        self._mat.peak = self._base

    def stop(self) -> None:
        work = self._obs.work_since(self._mark)
        self.flops = work["flops"]
        self.bytes_moved = work["bytes_read"] + work["bytes_written"]
        self.materialized_peak = self._mat.peak - self._base
        # Per-edge intermediates die with the tape after backward, as in
        # FlexGraphEngine.train_epoch.
        self._mat.release(self._mat.current - self._base)


def engine_epoch(tracer, s, epoch: int, meter: WorkMeter) -> float:
    """One full-batch training epoch through FlexGraphEngine's public
    calls, in the order ``FlexGraphEngine.train_epoch`` makes them, so
    the loss is the same to the last bit.  ``s`` carries ``engine``,
    ``model``, ``optimizer``, ``feats``, ``labels`` and ``mask``."""
    from repro.tensor.loss import cross_entropy

    with tracer.span(OP_SPAN, op=epoch):
        with tracer.span("obs.work"):
            meter.start()
        s.model.train()
        with tracer.span("core.forward"):
            logits = s.engine.forward(s.feats, epoch)
        with tracer.span("tensor.loss"):
            loss = cross_entropy(logits, s.labels, s.mask)
        with tracer.span("tensor.optim"):
            s.optimizer.zero_grad()
        with tracer.span("tensor.backward"):
            loss.backward()
        with tracer.span("tensor.optim"):
            s.optimizer.step()
        with tracer.span("obs.work"):
            meter.stop()
    return loss.item()


def plan_hit_rate(before: tuple[int, int], plans) -> float:
    """Plan-cache hits / lookups since ``before = (hits, misses)``."""
    hits, misses = plans.hits - before[0], plans.misses - before[1]
    return hits / max(hits + misses, 1)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict:
    """Per-layer self time, unattributed time and wall time of the traced
    operations, each summed over every operation.

    A span's self time is its duration minus its children's durations
    (children run nested on the same thread, so they never overlap).
    Root spans are the operations: their self time is the unattributed
    residual, so ``sum(layers) + unattributed == wall`` by construction.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration(s)
    layers = {layer: 0.0 for layer in LAYERS}
    unattributed = wall = 0.0
    for s in spans:
        own = duration(s) - covered[s["id"]]
        if s["parent"] is None:
            wall += duration(s)
            unattributed += own
        else:
            layers[_LAYER_OF_PREFIX[s["name"].split(".", 1)[0]]] += own
    return {"layers": layers, "unattributed": unattributed, "wall": wall}


def span_seconds(spans: list[dict], name: str) -> list[float]:
    """Summed duration of ``name`` spans per operation, in operation order."""
    per_op: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is None:
            per_op.setdefault(s["op"], 0.0)
        elif s["name"] == name:
            per_op[s["op"]] += duration(s)
    return list(per_op.values())


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_label(n: int) -> float | None:
    """Highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    for q in (99.9, 99, 90):
        if n * (1 - q / 100.0) >= 10:
            return q
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def noisy_labels(labels, fraction: float, num_classes: int, rng):
    """Replace ``fraction`` of the labels with uniform draws, so training
    loss stays well above zero and ``final_loss`` can still move."""
    labels = labels.copy()
    flip = rng.random(labels.size) < fraction
    labels[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return labels


def timed_setups(build, repeats: int):
    """Run ``build`` ``repeats`` times; return the last result and every
    set-up time.  Earlier results are closed (if they can be) before the
    next set-up starts."""
    seconds = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        t0 = time.perf_counter()
        state = build()
        seconds.append(time.perf_counter() - t0)
    return state, seconds


# ----------------------------------------------------------------------
# Per-layer reporting of a traced pass
# ----------------------------------------------------------------------
#: per-layer metric -> the span whose duration it reports
SPAN_METRICS = {
    "core.aggregate_s": "core.aggregate",
    "core.update_s": "core.update",
    "tensor.backward_s": "tensor.backward",
    "tensor.optim_s": "tensor.optim",
    "sampling.sample_s": "sampling.sample",
    "loader.compact_s": "loader.compact",
    "storage.gather_s": "storage.gather",
}


def interleaved(count: int, step) -> dict[bool, list[float]]:
    """Call ``step(traced)`` ``count`` times traced and ``count`` times
    untraced, alternating which goes first; return the wall times."""
    walls: dict[bool, list[float]] = {True: [], False: []}
    for i in range(count):
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            step(traced)
            walls[traced].append(time.perf_counter() - t0)
    return walls


def report_layers(ledger, spans: list[dict], walls: dict[bool, list[float]]) -> None:
    """Self time per layer, ``unattributed_s`` and ``traced_op_s`` per
    traced operation, and the tracing overhead (traced vs untraced runs
    of the same operations, ``walls[True]`` vs ``walls[False]``)."""
    times = self_times(spans)
    num_ops = max(sum(s["parent"] is None for s in spans), 1)
    for layer, seconds in times["layers"].items():
        ledger.metric(f"{layer}.self_s", seconds / num_ops, "s")
    ledger.metric("unattributed_s", times["unattributed"] / num_ops, "s")
    ledger.metric("traced_op_s", times["wall"] / num_ops, "s")
    ledger.metric("obs.trace_overhead",
                  median(walls[True]) / median(walls[False]) - 1, "ratio")


def report_span_times(ledger, spans: list[dict], per_op=median) -> None:
    """The :data:`SPAN_METRICS` present in ``spans``, reduced over
    operations by ``per_op``."""
    for metric, name in SPAN_METRICS.items():
        seconds = span_seconds(spans, name)
        if any(seconds):
            ledger.metric(metric, per_op(seconds), "s")


def report_work(ledger, meters: list) -> None:
    ledger.metric("tensor.flops", median(m.flops for m in meters), "count")
    ledger.metric("tensor.bytes_moved", median(m.bytes_moved for m in meters), "B")
    ledger.metric("tensor.materialized_bytes.peak",
                  median(m.materialized_peak for m in meters), "B")


def report_hdg(ledger, model, graph) -> None:
    """Time one model-level NeighborSelection and report the HDG's size."""
    import numpy as np

    t0 = time.perf_counter()
    hdg = model.neighbor_selection(graph, np.random.default_rng(0))
    ledger.metric("core.hdg_build_s", time.perf_counter() - t0, "s")
    ledger.metric("core.hdg_bytes", hdg.nbytes, "B")


class Ledger:
    """Operations attempted and failed, checks run, metrics and a
    human-readable report of one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def op(self, ok: bool = True, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def check(self, name: str, failures: list[str]) -> None:
        """Record one output check; every check is one operation."""
        self.op(ok=not failures)
        for msg in failures:
            self.check_failures.append(f"{name}: {msg}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.lines.append(text)

    @property
    def correct(self) -> bool:
        return not self.check_failures

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }
