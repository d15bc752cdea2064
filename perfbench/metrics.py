"""The metrics every workload reports, by name and unit.

``BENCHMARK.json`` at the repository root declares the same lists; the
self-tests check that the two agree.  End-to-end metrics are measured
with tracing off.  Per-layer metrics come from the traced run; a layer a
workload bypasses is reported as 0.
"""

from __future__ import annotations

#: name -> (unit, better, bound: the share of the parent's median by
#: which the metric may worsen before a change counts as a regression)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "op_ms.p50": ("ms", "lower", 0.25),
    "final_loss": ("nat", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "goodput_per_s": ("1/s", "higher", 0.25),
}

#: name -> unit.  Times and work counts are per traced operation (an
#: epoch, or a request on serve-mixed) unless the name says otherwise.
PER_LAYER = {
    # self time per layer; with unattributed_s they sum to traced_op_s
    "tensor.self_s": "s",
    "core.self_s": "s",
    "loader.self_s": "s",
    "storage.self_s": "s",
    "distributed.self_s": "s",
    "serve.self_s": "s",
    "obs.self_s": "s",
    "unattributed_s": "s",
    "traced_op_s": "s",
    "obs.trace_overhead": "ratio",
    # core + tensor
    "core.aggregate_s": "s",
    "core.update_s": "s",
    "core.hdg_build_s": "s",
    "core.hdg_bytes": "B",
    "tensor.backward_s": "s",
    "tensor.optim_s": "s",
    "tensor.flops": "count",
    "tensor.bytes_moved": "B",
    "tensor.materialized_bytes.peak": "B",
    "tensor.plan_hit_rate": "ratio",
    # sampling, loader, storage
    "sampling.sample_s": "s",
    "loader.compact_s": "s",
    "sampling.edges_touched": "count",
    "sampling.edges_kept": "count",
    "sampling.keep_ratio": "ratio",
    "storage.gather_s": "s",
    "storage.wire_bytes": "B",
    "loader.input_rows": "count",
    "loader.wait_s": "s",
    "loader.overlap": "ratio",
    # distributed
    "distributed.compute_s": "s",
    "distributed.comm_s": "s",
    "distributed.skew": "ratio",
    "distributed.bytes": "B",
    "distributed.messages": "count",
    # serve
    "serve.embed_ms.p50": "ms",
    "serve.write_apply_ms.p50": "ms",
    "serve.embed_cache_hit_rate": "ratio",
    "serve.block_cache_hit_rate": "ratio",
    "serve.evicted_rows_per_write": "count",
    "serve.generator_late_ms.p99": "ms",
}

