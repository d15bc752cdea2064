#!/usr/bin/env python3
"""Fixed-matrix perf baseline: writes ``BENCH_epoch_time.json``.

Runs a small, fixed model/dataset matrix (single-machine and simulated
distributed configs) and records, per configuration, the median and p90
epoch seconds, the peak concurrently materialized bytes, and the work
profile totals (FLOPs, bytes moved, peak achieved FLOP/s) — the numbers
every perf-oriented PR must not regress.  The output schema
(``repro.bench/2``) is::

    {
      "schema": "repro.bench/2",
      "mode": "smoke" | "full",
      "calibration_seconds": 0.0021,   # fixed numpy workload, this host
      "configs": [
        {"name", "model", "dataset", "scale", "kind", "workers"?,
         "pipeline"?, "strategy", "epochs",
         "median_epoch_seconds", "p90_epoch_seconds",
         "peak_materialized_bytes", "time_basis": "wall" | "simulated",
         "total_flops", "total_bytes", "peak_flops_per_sec"},
        ...
      ]
    }

Version 2 is a superset of version 1 (``validate_report`` accepts both;
the work-profile keys and ``calibration_seconds`` are new).

Usage::

    python tools/bench.py                      # full matrix -> repo root
    python tools/bench.py --smoke              # tiny/fast variant
    python tools/bench.py --kernels            # + per-reducer microbench rows
    python tools/bench.py --distributed        # scaling sweep (k=1/2/4,
                                               #   simulated vs multiprocess)
                                               #   -> BENCH_dist_scaling.json
    python tools/bench.py --check-against BENCH_epoch_time.json
    python tools/bench.py --output path.json --chrome-trace trace.json

``--check-against`` turns the run into a regression gate: the fresh
report is compared config-by-config against the given baseline and the
exit code is nonzero when any config's median epoch time regressed by
more than ``--tolerance`` (default 25%).  Medians are normalized by the
two reports' ``calibration_seconds`` when both carry one, so a slower
CI host does not read as a regression.  ``--chrome-trace`` merges every
configuration's spans into one Chrome Trace Event Format file (one
process-lane pair per config), loadable in chrome://tracing or
https://ui.perfetto.dev.  Every report is checked against its schema
(``validate_report``, ``validate_dist_report``, ...) before it is
written, and the Chrome trace by ``validate_chrome_trace``; a violation
exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import obs  # noqa: E402

SCHEMA = "repro.bench/2"
#: schema versions validate_report accepts; /1 lacks the work-profile keys
ACCEPTED_SCHEMAS = ("repro.bench/1", "repro.bench/2")
DIST_SCHEMA = "repro.dist-bench/1"
ONDISK_SCHEMA = "repro.ondisk-bench/1"
QUANT_SCHEMA = "repro.quant-bench/1"
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_epoch_time.json")
DIST_OUTPUT = os.path.join(REPO_ROOT, "BENCH_dist_scaling.json")
ONDISK_OUTPUT = os.path.join(REPO_ROOT, "BENCH_ondisk_stream.json")
QUANT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_quant.json")
#: codecs the --quantized bench trains with (float32 is the baseline)
QUANT_CODECS = ("float32", "float16", "int8")
#: gate: int8 gathers must move at least this factor fewer wire bytes
QUANT_MIN_BYTES_SHRINK = 3.0
#: gate: int8 final loss / accuracy may drift at most this (relative)
QUANT_MAX_DRIFT = 0.01
#: (num_vertices, num_edges, feat_dim) of the --ondisk streaming bench
ONDISK_SIZES = {"tiny": (20_000, 200_000, 32), "small": (60_000, 1_200_000, 64)}
#: modeled H2D-link bandwidth of the --ondisk bench's transfer stub
ONDISK_TRANSFER_GBPS = 0.5
#: gate: prefetch 2 must beat the synchronous epoch median by this factor
ONDISK_MIN_PREFETCH_SPEEDUP = 1.2
#: worker counts the --distributed scaling sweep measures
DIST_WORKER_COUNTS = (1, 2, 4)
#: default regression tolerance of the --check-against gate
DEFAULT_TOLERANCE = 0.25

#: the fixed matrix: strategy spread (HA vs SA exercises the hybrid
#: executor and the materialization counter), plus distributed runs with
#: and without pipeline processing (Figure 15b/c's comparison).
MATRIX = [
    {"name": "gcn-single-ha", "kind": "single", "model": "gcn",
     "dataset": "reddit", "strategy": "ha"},
    {"name": "gcn-single-sa", "kind": "single", "model": "gcn",
     "dataset": "reddit", "strategy": "sa"},
    {"name": "gat-single-ha", "kind": "single", "model": "gat",
     "dataset": "reddit", "strategy": "ha"},
    {"name": "gcn-dist4-pipelined", "kind": "distributed", "model": "gcn",
     "dataset": "reddit", "strategy": "ha", "workers": 4, "pipeline": True},
    {"name": "gcn-dist4-batched", "kind": "distributed", "model": "gcn",
     "dataset": "reddit", "strategy": "ha", "workers": 4, "pipeline": False},
]


def _build(config: dict, scale: str, seed: int):
    from repro import models
    from repro.datasets import load_dataset

    ds = load_dataset(config["dataset"], scale=scale, seed=seed)
    factory = getattr(models, config["model"])
    model = factory(ds.feat_dim, 16, ds.num_classes, seed=seed)
    return ds, model


def _run_single(config: dict, ds, model, epochs: int, seed: int) -> list[float]:
    from repro.core import FlexGraphEngine
    from repro.tensor import Adam, Tensor

    engine = FlexGraphEngine(model, ds.graph, strategy=config["strategy"],
                             seed=seed)
    optimizer = Adam(model.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    seconds = []
    for epoch in range(epochs):
        stats = engine.train_epoch(feats, ds.labels, optimizer,
                                   ds.train_mask, epoch)
        seconds.append(stats.times.total)
    return seconds


def _run_distributed(config: dict, ds, model, epochs: int,
                     seed: int) -> list[float]:
    from repro.distributed import DistributedTrainer
    from repro.graph import hash_partition
    from repro.tensor import Adam, Tensor

    labels = hash_partition(ds.graph.num_vertices, config["workers"])
    trainer = DistributedTrainer(
        model, ds.graph, labels, strategy=config["strategy"],
        pipeline=config["pipeline"], seed=seed,
    )
    optimizer = Adam(model.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    seconds = []
    for epoch in range(epochs):
        stats = trainer.train_epoch(feats, ds.labels, optimizer,
                                    ds.train_mask, epoch)
        seconds.append(stats.seconds)
    return seconds


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy-free for tiny lists)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def calibration_seconds(reps: int = 5) -> float:
    """Best-of-``reps`` seconds of a fixed numpy workload on this host.

    Used to normalize epoch times between machines: a baseline recorded
    on a fast workstation should not fail the gate on a slower CI
    runner.  The workload mixes dense matmul and an indexed scatter —
    the two kernels the benchmark configs actually spend time in.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    idx = rng.integers(0, 192, size=4096)
    vals = rng.standard_normal((4096, 16))
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        b = a @ a
        out = np.zeros((192, 16))
        np.add.at(out, idx, vals)
        b.sum()
        best = min(best, time.perf_counter() - start)
    return best


def run_matrix(scale: str, epochs: int, seed: int,
               chrome_trace: str | None = None) -> dict:
    """Run every config and return the bench report dict."""
    configs = []
    merged_events: list[dict] = []
    for index, config in enumerate(MATRIX):
        obs.reset()
        ds, model = _build(config, scale, seed)
        runner = _run_single if config["kind"] == "single" else _run_distributed
        seconds = runner(config, ds, model, epochs, seed)
        peak = obs.counter("scatter.materialized_bytes").peak
        work = obs.work_snapshot()
        rates = obs.peak_work_rates()
        row = {
            "name": config["name"],
            "model": config["model"],
            "dataset": config["dataset"],
            "scale": scale,
            "kind": config["kind"],
            "strategy": config["strategy"],
            "epochs": epochs,
            "median_epoch_seconds": statistics.median(seconds),
            "p90_epoch_seconds": _percentile(seconds, 90),
            "peak_materialized_bytes": peak,
            "time_basis": "wall" if config["kind"] == "single" else "simulated",
            "total_flops": work["flops"],
            "total_bytes": work["bytes_read"] + work["bytes_written"],
            "peak_flops_per_sec": rates["peak_flops_per_sec"],
        }
        if config["kind"] == "distributed":
            row["workers"] = config["workers"]
            row["pipeline"] = config["pipeline"]
        configs.append(row)
        print(f"  {row['name']:<22} median {row['median_epoch_seconds']:.4f}s  "
              f"p90 {row['p90_epoch_seconds']:.4f}s  "
              f"peak {row['peak_materialized_bytes'] / 1e6:.2f} MB  "
              f"{row['total_flops'] / 1e6:.1f} MFLOP  "
              f"{row['total_bytes'] / 1e6:.1f} MB moved  "
              f"peak {row['peak_flops_per_sec'] / 1e6:.1f} MFLOP/s "
              f"({row['time_basis']})")
        if chrome_trace:
            # Each config gets its own pid lane pair in the merged trace.
            merged_events.extend(
                obs.to_chrome_trace(pid_offset=index * 10)["traceEvents"]
            )
    report = {"schema": SCHEMA,
              "mode": "smoke" if scale == "tiny" else "full",
              "scale": scale,
              "calibration_seconds": calibration_seconds(),
              "configs": configs}
    if chrome_trace:
        with open(chrome_trace, "w") as fh:
            json.dump({"traceEvents": merged_events,
                       "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
        print(f"chrome trace written to {chrome_trace}")
    return report


def run_dist_scaling(scale: str, epochs: int, seed: int,
                     flight_dir: str | None = None) -> dict:
    """Distributed scaling sweep: wall-clock epoch seconds vs worker count,
    simulated backend next to the real multi-process backend.

    Writes rows for every ``(k, backend)`` pair in
    ``DIST_WORKER_COUNTS x {simulated, process}``.  Both backends run the
    same per-rank worker step on the same model/partition/seed, so their
    losses are bitwise equal (``final_loss`` is recorded per row for
    exactly that cross-check);
    the columns that differ are the *measured* wall seconds — the
    simulated backend also carries its modeled cluster seconds in
    ``median_modeled_seconds``.
    """
    from repro import models
    from repro.datasets import load_dataset
    from repro.distributed import DistributedTrainer, MultiprocessTrainer
    from repro.graph import hash_partition
    from repro.tensor import Adam, Tensor

    ds = load_dataset("reddit", scale=scale, seed=seed)
    feats = Tensor(ds.features)
    rows = []
    for k in DIST_WORKER_COUNTS:
        part = hash_partition(ds.graph.num_vertices, k)
        for backend in ("simulated", "process"):
            obs.reset()
            model = models.gcn(ds.feat_dim, 16, ds.num_classes, seed=seed)
            if backend == "simulated":
                trainer = DistributedTrainer(model, ds.graph, part, seed=seed)
            else:
                trainer = MultiprocessTrainer(model, ds.graph, part, seed=seed,
                                              flight_dir=flight_dir)
            optimizer = Adam(model.parameters(), lr=0.01)
            wall, modeled, total_bytes, loss = [], [], 0.0, float("nan")
            try:
                for epoch in range(epochs):
                    start = time.perf_counter()
                    stats = trainer.train_epoch(feats, ds.labels, optimizer,
                                                ds.train_mask, epoch)
                    wall.append(time.perf_counter() - start)
                    if backend == "simulated":
                        modeled.append(stats.seconds)
                    total_bytes += stats.total_bytes
                    loss = stats.loss
            finally:
                if backend == "process":
                    trainer.close()
            row = {
                "name": f"gcn-dist{k}-{backend}",
                "model": "gcn",
                "dataset": "reddit",
                "scale": scale,
                "kind": "dist-scaling",
                "backend": backend,
                "workers": k,
                "epochs": epochs,
                "median_epoch_seconds": statistics.median(wall),
                "p90_epoch_seconds": _percentile(wall, 90),
                "time_basis": "wall",
                "total_bytes": total_bytes,
                "final_loss": loss,
            }
            if modeled:
                row["median_modeled_seconds"] = statistics.median(modeled)
            rows.append(row)
            print(f"  {row['name']:<22} median {row['median_epoch_seconds']:.4f}s  "
                  f"p90 {row['p90_epoch_seconds']:.4f}s  "
                  f"{row['total_bytes'] / 1e6:.2f} MB moved  "
                  f"loss {row['final_loss']:.4f}")
    return {"schema": DIST_SCHEMA,
            "mode": "smoke" if scale == "tiny" else "full",
            "scale": scale,
            "calibration_seconds": calibration_seconds(),
            "configs": rows}


def validate_dist_report(report: dict) -> None:
    """Raise ValueError when the dist-scaling report violates its schema."""
    if report.get("schema") != DIST_SCHEMA:
        raise ValueError(f"bad schema: {report.get('schema')!r}")
    rows = {(r.get("workers"), r.get("backend")): r
            for r in report.get("configs", [])}
    for k in DIST_WORKER_COUNTS:
        for backend in ("simulated", "process"):
            row = rows.get((k, backend))
            if row is None:
                raise ValueError(f"missing dist-scaling row k={k} {backend}")
            if row["median_epoch_seconds"] <= 0:
                raise ValueError(f"row {row['name']!r} has non-positive median")
    # One per-rank worker step on both backends: losses must be bitwise
    # equal per worker count.
    for k in DIST_WORKER_COUNTS:
        sim = rows[(k, "simulated")]["final_loss"]
        proc = rows[(k, "process")]["final_loss"]
        if sim != proc:
            raise ValueError(
                f"k={k}: simulated loss {sim!r} != process loss {proc!r}"
            )


def run_ondisk_stream(scale: str, epochs: int, seed: int,
                      root: str | None = None) -> dict:
    """Streaming-loader benchmark over an out-of-core synthetic dataset.

    Generates a shard-by-shard ``repro.ondisk/1`` dataset (never
    materializing it in RAM), then trains identical sampled epochs with
    prefetch off (the synchronous baseline) and prefetch 2 (two loader
    workers producing batch N+1 while batch N trains).  Reports per-mode
    epoch medians, the measured overlap ratio, and the speedup — plus a
    loss-parity check, since the pre-drawn per-batch seeds make the two
    streams bitwise identical.

    The loader's device-transfer stub models the H2D link at
    ``ONDISK_TRANSFER_GBPS`` (a real blocking wait per batch, like
    SimulatedComm's modeled network time): with prefetch off the
    training loop eats every transfer, with prefetch on the transfers
    hide behind compute — the overlap a GPU pipeline would show.
    """
    import shutil
    import tempfile

    from repro import models
    from repro.core.sampling import MiniBatchTrainer
    from repro.datasets.synthetic import ShardedSyntheticSpec
    from repro.storage import OnDiskDataset, write_synthetic_ondisk
    from repro.tensor import Adam

    num_vertices, num_edges, feat_dim = ONDISK_SIZES[scale]
    tmp = None
    if root is None:
        tmp = tempfile.mkdtemp(prefix="ondisk-bench-")
        root = os.path.join(tmp, "ds")
    try:
        spec = ShardedSyntheticSpec(
            name=f"stream-{scale}", num_vertices=num_vertices,
            num_edges=num_edges, feat_dim=feat_dim, num_classes=16,
            seed=seed, edges_per_chunk=max(num_edges // 8, 1),
            rows_per_shard=8192,
        )
        t0 = time.perf_counter()
        write_synthetic_ondisk(root, spec)
        generate_seconds = time.perf_counter() - t0
        ds = OnDiskDataset(root)
        print(f"  generated {ds!r} in {generate_seconds:.2f}s")
        rows = []
        for prefetch, workers in ((0, 0), (2, 2)):
            model = models.gcn(ds.feat_dim, 16, ds.num_classes, seed=seed)
            trainer = MiniBatchTrainer(
                model, ds, batch_size=512, fanouts=[10, 10], seed=seed,
                prefetch_depth=prefetch, num_workers=workers,
                modeled_transfer_gbps=ONDISK_TRANSFER_GBPS,
            )
            optimizer = Adam(model.parameters(), lr=0.01)
            wall, overlaps, losses = [], [], []
            for epoch in range(epochs):
                stats = trainer.train_epoch(
                    optimizer=optimizer, mask=ds.train_mask, epoch=epoch,
                )
                wall.append(stats.seconds)
                overlaps.append(stats.overlap_efficiency)
                losses.append(stats.loss)
            row = {
                "name": f"ondisk-stream-prefetch{prefetch}",
                "model": "gcn",
                "dataset": spec.name,
                "scale": scale,
                "kind": "ondisk-stream",
                "prefetch_depth": prefetch,
                "num_workers": workers,
                "epochs": epochs,
                "median_epoch_seconds": statistics.median(wall),
                "p90_epoch_seconds": _percentile(wall, 90),
                "time_basis": "wall",
                "overlap_efficiency": statistics.median(overlaps),
                "final_loss": losses[-1],
            }
            rows.append(row)
            print(f"  {row['name']:<24} median "
                  f"{row['median_epoch_seconds']:.4f}s  "
                  f"overlap {row['overlap_efficiency']:.2f}  "
                  f"loss {row['final_loss']:.4f}")
        speedup = (rows[0]["median_epoch_seconds"]
                   / max(rows[1]["median_epoch_seconds"], 1e-12))
        print(f"  prefetch speedup: {speedup:.2f}x")
        return {
            "schema": ONDISK_SCHEMA,
            "mode": "smoke" if scale == "tiny" else "full",
            "scale": scale,
            "calibration_seconds": calibration_seconds(),
            "dataset": {"num_vertices": num_vertices,
                        "num_edges": num_edges,
                        "feat_dim": feat_dim,
                        "generate_seconds": generate_seconds,
                        "ondisk_bytes": _tree_bytes(root)},
            "modeled_transfer_gbps": ONDISK_TRANSFER_GBPS,
            "prefetch_speedup": speedup,
            "configs": rows,
        }
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def _tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def validate_ondisk_report(report: dict) -> None:
    """Raise ValueError when the ondisk-stream report violates its schema."""
    if report.get("schema") != ONDISK_SCHEMA:
        raise ValueError(f"bad schema: {report.get('schema')!r}")
    rows = {r.get("prefetch_depth"): r for r in report.get("configs", [])}
    for prefetch in (0, 2):
        row = rows.get(prefetch)
        if row is None:
            raise ValueError(f"missing ondisk-stream row prefetch={prefetch}")
        if row["median_epoch_seconds"] <= 0:
            raise ValueError(f"row {row['name']!r} has non-positive median")
        if not 0.0 <= row["overlap_efficiency"] <= 1.0:
            raise ValueError(f"row {row['name']!r} overlap out of range")
    # Pre-drawn per-batch seeds: the streams are identical, so losses
    # must match bitwise, not approximately.
    if rows[0]["final_loss"] != rows[2]["final_loss"]:
        raise ValueError(
            f"prefetch changed the training stream: loss "
            f"{rows[0]['final_loss']!r} != {rows[2]['final_loss']!r}"
        )
    speedup = report.get("prefetch_speedup")
    if speedup is None:
        raise ValueError("missing prefetch_speedup")
    if not speedup > ONDISK_MIN_PREFETCH_SPEEDUP:
        raise ValueError(
            f"prefetch speedup {speedup:.3f}x is not above the "
            f"{ONDISK_MIN_PREFETCH_SPEEDUP}x floor"
        )


def run_quantized(scale: str, epochs: int, seed: int) -> dict:
    """Quantized-tier benchmark: wire bytes, quality drift, cache hit rate.

    Three measurements, one report (``repro.quant-bench/1``):

    * **Training rows** — identical sampled mini-batch runs with the
      feature tier stored as float32 / float16 / int8
      (:class:`~repro.loader.QuantizedSource`, dequantize on gather).
      Per codec: epoch medians, final loss and train accuracy, and the
      gather traffic both as compute bytes (``loader.bytes_gathered``)
      and storage wire bytes (``loader.wire_bytes``) — int8 must move
      ``>= QUANT_MIN_BYTES_SHRINK``x fewer wire bytes than float32
      while its loss/accuracy stay within ``QUANT_MAX_DRIFT`` relative.
    * **Cache rows** — an :class:`~repro.serve.EmbeddingCache` at a
      fixed byte budget serving a Zipfian request stream, exact-fp32 vs
      int8 storage.  The int8 cache holds ~4x the vertices per byte,
      so its *warm* hit rate (second half of the stream) must come out
      strictly higher.
    """
    import numpy as np

    from repro import models
    from repro.core.sampling import MiniBatchTrainer
    from repro.datasets import load_dataset
    from repro.serve import EmbeddingCache
    from repro.tensor import Adam, Tensor
    from repro.tensor.quant import wire_bytes_per_row

    ds = load_dataset("reddit", scale=scale, seed=seed)
    # Quality drift is measured once the losses settle: run enough
    # steps for convergence (early-training noise — a handful of
    # optimizer steps — dominates the codec's error contribution
    # otherwise) and smooth the final loss over the last five epochs.
    epochs = max(epochs, 20)
    rows = []
    for codec in QUANT_CODECS:
        obs.reset()
        model = models.gcn(ds.feat_dim, 16, ds.num_classes, seed=seed)
        trainer = MiniBatchTrainer(
            model, ds, batch_size=64, fanouts=[10, 10], seed=seed,
            feature_dtype=codec,
        )
        optimizer = Adam(model.parameters(), lr=0.01)
        wall, losses, accs = [], [], []
        for epoch in range(epochs):
            stats = trainer.train_epoch(
                optimizer=optimizer, mask=ds.train_mask, epoch=epoch,
            )
            wall.append(stats.seconds)
            losses.append(stats.loss)
            accs.append(stats.train_accuracy)
        row = {
            "name": f"quant-train-{codec}",
            "model": "gcn",
            "dataset": "reddit",
            "scale": scale,
            "kind": "quant-train",
            "codec": codec,
            "epochs": epochs,
            "median_epoch_seconds": statistics.median(wall),
            "p90_epoch_seconds": _percentile(wall, 90),
            "time_basis": "wall",
            "final_loss": statistics.mean(losses[-5:]),
            "final_train_accuracy": statistics.mean(accs[-5:]),
            "val_accuracy": trainer.evaluate(
                Tensor(ds.features), ds.labels, ds.val_mask
            ),
            "wire_bytes_per_row": wire_bytes_per_row(codec, ds.feat_dim),
            "gather_wire_bytes": obs.counter("loader.wire_bytes").total,
            "gather_compute_bytes": obs.counter("loader.bytes_gathered").total,
            "dequantize_op_bytes":
                obs.counter("profile.op.feature.dequantize.bytes").total,
        }
        rows.append(row)
        print(f"  {row['name']:<22} median {row['median_epoch_seconds']:.4f}s  "
              f"loss {row['final_loss']:.4f}  "
              f"acc {row['final_train_accuracy']:.3f}  "
              f"wire {row['gather_wire_bytes'] / 1e6:.2f} MB "
              f"({row['wire_bytes_per_row']} B/row)")

    by_codec = {row["codec"]: row for row in rows}
    base = by_codec["float32"]
    derived = {
        "int8_wire_bytes_shrink":
            base["gather_wire_bytes"]
            / max(by_codec["int8"]["gather_wire_bytes"], 1.0),
        # Denominator floored at 1: near-converged losses sit well below
        # 1.0, where a pure ratio would amplify batch noise into the
        # gate; below the floor this is absolute drift in loss units.
        "int8_loss_drift": abs(by_codec["int8"]["final_loss"]
                               - base["final_loss"])
            / max(abs(base["final_loss"]), 1.0),
        # Accuracy drift over the deterministic full-batch validation
        # pass (no minibatch sampling noise in the measurement itself).
        "int8_accuracy_drift":
            abs(by_codec["int8"]["val_accuracy"] - base["val_accuracy"])
            / max(base["val_accuracy"], 1e-12),
    }
    print(f"  int8 vs float32: {derived['int8_wire_bytes_shrink']:.2f}x fewer "
          f"wire bytes, loss drift {derived['int8_loss_drift']:.2%}, "
          f"accuracy drift {derived['int8_accuracy_drift']:.2%}")

    # Embedding-cache comparison: same byte budget, Zipfian seeds.
    rng = np.random.default_rng(seed)
    num_vertices, dim = ds.graph.num_vertices, 64
    table = rng.standard_normal((num_vertices, dim)).astype(np.float32)
    budget = max(num_vertices // 10, 16) * dim * 4  # ~10% of vertices in fp32
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    popularity = ranks ** -1.1
    popularity /= popularity.sum()
    requests = rng.choice(num_vertices, size=4000, p=popularity)
    half = requests.size // 2
    for store_dtype in ("float32", "int8"):
        cache = EmbeddingCache(budget, store_dtype=store_dtype)
        warm_base = None
        for start in range(0, requests.size, 32):
            chunk = np.unique(requests[start : start + 32])
            hit_mask, _ = cache.lookup(0, chunk)
            missing = chunk[~hit_mask]
            if missing.size:
                cache.store(0, missing, table[missing], version=1)
            if warm_base is None and start + 32 >= half:
                warm_base = (cache.hits, cache.misses)
        warm_hits = cache.hits - warm_base[0]
        warm_misses = cache.misses - warm_base[1]
        stats = cache.stats()
        row = {
            "name": f"quant-cache-{store_dtype}",
            "model": "embedding-cache",
            "dataset": "zipf-1.1",
            "scale": scale,
            "kind": "quant-cache",
            "codec": store_dtype,
            "epochs": epochs,
            "budget_bytes": budget,
            "entries": stats["entries"],
            "resident_bytes": stats["bytes"],
            "hit_rate": stats["hit_rate"],
            "warm_hit_rate": warm_hits / max(warm_hits + warm_misses, 1),
        }
        rows.append(row)
        print(f"  {row['name']:<22} entries {row['entries']:5d}  "
              f"hit {row['hit_rate']:.1%}  warm hit {row['warm_hit_rate']:.1%}")
    return {
        "schema": QUANT_SCHEMA,
        "mode": "smoke" if scale == "tiny" else "full",
        "scale": scale,
        "calibration_seconds": calibration_seconds(),
        "derived": derived,
        "configs": rows,
    }


def validate_quant_report(report: dict) -> None:
    """Raise ValueError when the quantized-tier report violates its gates.

    Beyond schema shape this enforces the PR's acceptance criteria: the
    int8 path must move ``>= QUANT_MIN_BYTES_SHRINK``x fewer gather wire
    bytes than float32 at ``<= QUANT_MAX_DRIFT`` relative loss/accuracy
    drift, and the int8 embedding cache must beat the exact-fp32 cache's
    warm hit rate at the same byte budget.
    """
    if report.get("schema") != QUANT_SCHEMA:
        raise ValueError(f"bad schema: {report.get('schema')!r}")
    train = {r.get("codec"): r for r in report.get("configs", [])
             if r.get("kind") == "quant-train"}
    for codec in QUANT_CODECS:
        row = train.get(codec)
        if row is None:
            raise ValueError(f"missing quant-train row for codec {codec!r}")
        if row["median_epoch_seconds"] <= 0:
            raise ValueError(f"row {row['name']!r} has non-positive median")
    derived = report.get("derived", {})
    shrink = derived.get("int8_wire_bytes_shrink", 0.0)
    if shrink < QUANT_MIN_BYTES_SHRINK:
        raise ValueError(
            f"int8 gather wire bytes shrank only {shrink:.2f}x vs float32 "
            f"(gate: >= {QUANT_MIN_BYTES_SHRINK}x)"
        )
    for key in ("int8_loss_drift", "int8_accuracy_drift"):
        drift = derived.get(key)
        if drift is None or drift > QUANT_MAX_DRIFT:
            raise ValueError(
                f"{key} is {drift!r} (gate: <= {QUANT_MAX_DRIFT:.0%} relative)"
            )
    cache = {r.get("codec"): r for r in report.get("configs", [])
             if r.get("kind") == "quant-cache"}
    for codec in ("float32", "int8"):
        if codec not in cache:
            raise ValueError(f"missing quant-cache row for codec {codec!r}")
        if cache[codec]["resident_bytes"] > cache[codec]["budget_bytes"]:
            raise ValueError(
                f"quant-cache-{codec} exceeded its byte budget"
            )
    if cache["int8"]["warm_hit_rate"] <= cache["float32"]["warm_hit_rate"]:
        raise ValueError(
            f"int8 cache warm hit rate {cache['int8']['warm_hit_rate']:.1%} "
            f"does not beat fp32's {cache['float32']['warm_hit_rate']:.1%} "
            "at the same budget"
        )


#: synthetic kernel-microbench shapes per scale: (edges, destinations, dim)
KERNEL_SIZES = {"tiny": (2_000, 200, 16), "small": (20_000, 2_000, 32)}
#: reducers measured by --kernels, planned and unplanned
KERNEL_OPS = ("scatter_add", "scatter_mean", "scatter_max", "scatter_min",
              "scatter_softmax", "segment_sum", "segment_mean")


def run_kernel_matrix(scale: str, seed: int, reps: int | None = None) -> list[dict]:
    """Per-reducer microbenchmark rows (kind="kernel"), planned vs unplanned.

    Each row times one forward+backward through a single reduction kernel
    on a synthetic index structure.  The *planned* variant reuses a
    prebuilt :class:`repro.tensor.plans.ReductionPlan` (the steady-state
    hot path once the plan cache is warm); the *unplanned* variant builds
    an ephemeral plan per call (the cold path).  Rows share the
    ``repro.bench/2`` config schema so the --check-against gate covers
    them, and add ``ns_per_element``/``planned`` for kernel-level reading.
    """
    import numpy as np

    from repro.tensor import Tensor
    from repro.tensor import scatter as sc
    from repro.tensor.plans import ReductionPlan

    E, n, dim = KERNEL_SIZES.get(scale, KERNEL_SIZES["small"])
    reps = reps if reps is not None else (5 if scale == "tiny" else 9)
    rng = np.random.default_rng(seed)
    index = rng.integers(0, n, size=E, dtype=np.int64)
    values = rng.standard_normal((E, dim))
    g_out = rng.standard_normal((n, dim))
    g_edge = rng.standard_normal((E, dim))
    index_plan = ReductionPlan.from_index(index, n)
    offsets, order = index_plan.offsets, index_plan.gather
    segment_plan = ReductionPlan.from_segments(offsets, order, E)

    def scatter_case(op, plan):
        fn = getattr(sc, op)
        grad = g_edge if op == "scatter_softmax" else g_out

        def run():
            out = fn(Tensor(values, requires_grad=True), index, n, plan=plan)
            out.backward(grad)
        return run

    def segment_case(reducer, plan):
        def run():
            out = sc.segment_reduce_csr(Tensor(values, requires_grad=True),
                                        offsets, order, reducer, plan=plan)
            out.backward(g_out)
        return run

    rows = []
    for op in KERNEL_OPS:
        for planned in (True, False):
            if op.startswith("segment_"):
                case = segment_case(op.split("_", 1)[1],
                                    segment_plan if planned else None)
            else:
                case = scatter_case(op, index_plan if planned else None)
            case()  # warmup: builds the plan's lazy matrices untimed
            obs.reset()
            seconds = []
            for _ in range(reps):
                start = time.perf_counter()
                case()
                seconds.append(time.perf_counter() - start)
            work = obs.work_snapshot()
            median = statistics.median(seconds)
            variant = "planned" if planned else "unplanned"
            rows.append({
                "name": f"kernel-{op}-{variant}",
                "model": op,
                "dataset": "synthetic",
                "scale": scale,
                "kind": "kernel",
                "strategy": variant,
                "planned": planned,
                "epochs": reps,
                "median_epoch_seconds": median,
                "p90_epoch_seconds": _percentile(seconds, 90),
                "peak_materialized_bytes":
                    obs.counter("scatter.materialized_bytes").peak,
                "time_basis": "wall",
                "total_flops": work["flops"],
                "total_bytes": work["bytes_read"] + work["bytes_written"],
                "peak_flops_per_sec": (
                    (work["flops"] / reps) / median if median > 0 else 0.0
                ),
                "elements": E * dim,
                "ns_per_element": median * 1e9 / (E * dim),
            })
            print(f"  {rows[-1]['name']:<36} median {median * 1e6:8.1f} us  "
                  f"{rows[-1]['ns_per_element']:7.2f} ns/elem")
    return rows


def plan_cache_regressions(report: dict,
                           tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Intra-report plan-cache check over kernel rows.

    A *planned* kernel slower than its *unplanned* sibling beyond
    ``tolerance`` means plan reuse stopped paying for itself — a
    plan-cache regression even when absolute times look fine (e.g. both
    sped up, but planning now adds overhead instead of removing it).
    """
    rows = {row["name"]: row for row in report.get("configs", [])
            if row.get("kind") == "kernel"}
    regressions = []
    for name, row in sorted(rows.items()):
        if not name.endswith("-planned"):
            continue
        sibling = rows.get(name[: -len("planned")] + "unplanned")
        if sibling is None:
            continue
        ratio = row["median_epoch_seconds"] / sibling["median_epoch_seconds"]
        if ratio > 1.0 + tolerance:
            regressions.append(
                f"{name}: planned kernel is {ratio:.2f}x the unplanned "
                f"median (plan-cache regression, tolerance "
                f"{1.0 + tolerance:.2f}x)"
            )
    return regressions


def validate_report(report: dict) -> None:
    """Raise ValueError when the report violates the bench schema."""
    schema = report.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        raise ValueError(f"bad schema: {schema!r}")
    configs = report.get("configs")
    if not isinstance(configs, list) or len(configs) < 4:
        raise ValueError("bench report must contain >= 4 configurations")
    required = ["name", "model", "dataset", "kind", "epochs",
                "median_epoch_seconds", "p90_epoch_seconds",
                "peak_materialized_bytes", "time_basis"]
    if schema == SCHEMA:
        required += ["total_flops", "total_bytes", "peak_flops_per_sec"]
    for row in configs:
        for key in required:
            if key not in row:
                raise ValueError(f"config {row.get('name')!r} missing {key!r}")
        if row["median_epoch_seconds"] <= 0:
            raise ValueError(f"config {row['name']!r} has non-positive median")
        if row["p90_epoch_seconds"] < row["median_epoch_seconds"]:
            raise ValueError(f"config {row['name']!r} has p90 < median")
        if schema == SCHEMA and not (row["total_flops"] > 0
                                     and row["peak_flops_per_sec"] > 0):
            raise ValueError(
                f"config {row['name']!r} has no work profile "
                f"(non-positive total_flops or peak_flops_per_sec)"
            )
    # Fused edge attention: GAT under HA keeps only the E attention
    # scalars per layer, so its peak must sit below GCN under SA, which
    # materializes a whole (E, dim) message tensor.
    rows = {row["name"]: row for row in configs}
    for name in ("gat-single-ha", "gcn-single-sa"):
        if name not in rows:
            raise ValueError(f"bench report missing {name!r} row")
    gat_peak = rows["gat-single-ha"]["peak_materialized_bytes"]
    sa_peak = rows["gcn-single-sa"]["peak_materialized_bytes"]
    if not gat_peak < sa_peak:
        raise ValueError(
            f"gat-single-ha materializes {gat_peak} bytes at peak, not "
            f"below gcn-single-sa's {sa_peak}: attention is not fused"
        )


def validate_chrome_trace(trace: dict) -> None:
    """Raise ValueError when a ``--chrome-trace`` file is not a loadable
    Chrome trace: no events, a phase other than X/i/M/C, an event without
    pid/tid/name, or no counter track."""
    events = trace.get("traceEvents")
    if not events:
        raise ValueError("chrome trace has no events")
    for event in events:
        if event.get("ph") not in ("X", "i", "M", "C"):
            raise ValueError(f"chrome trace event has phase {event.get('ph')!r}")
        missing = [key for key in ("pid", "tid", "name") if key not in event]
        if missing:
            raise ValueError(f"chrome trace event missing {missing}: {event}")
    if not any(event["ph"] == "C" for event in events):
        raise ValueError("chrome trace has no counter tracks")


def compare_reports(fresh: dict, baseline: dict,
                    tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Regression check of ``fresh`` against ``baseline``.

    Returns a list of human-readable regression descriptions (empty ==
    gate passes).  A config regresses when its (calibration-normalized)
    median epoch time exceeds the baseline's by more than ``tolerance``.
    Configs are matched by name; a config present in only one report, or
    measured at a different scale/epoch count, is skipped — such rows
    are not comparable, and the skip is reported on stdout rather than
    failed silently.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    baseline_rows = {row["name"]: row for row in baseline.get("configs", [])}
    # Host-speed normalization: divide each median by its report's
    # calibration time when both reports carry one.
    fresh_cal = fresh.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    normalize = bool(fresh_cal and base_cal)
    regressions: list[str] = []
    for row in fresh.get("configs", []):
        base = baseline_rows.get(row["name"])
        if base is None:
            print(f"  [compare] {row['name']}: not in baseline, skipped")
            continue
        if (row.get("scale") != base.get("scale")
                or row["epochs"] != base["epochs"]):
            print(f"  [compare] {row['name']}: scale/epochs differ from "
                  f"baseline, skipped")
            continue
        fresh_median = row["median_epoch_seconds"]
        base_median = base["median_epoch_seconds"]
        if normalize and row["time_basis"] == "wall":
            fresh_median /= fresh_cal
            base_median /= base_cal
        ratio = fresh_median / base_median
        if ratio > 1.0 + tolerance:
            regressions.append(
                f"{row['name']}: median epoch time regressed {ratio:.2f}x "
                f"(baseline {base['median_epoch_seconds']:.4f}s, "
                f"fresh {row['median_epoch_seconds']:.4f}s, "
                f"tolerance {1.0 + tolerance:.2f}x"
                f"{', calibration-normalized' if normalize and row['time_basis'] == 'wall' else ''})"
            )
        else:
            print(f"  [compare] {row['name']}: {ratio:.2f}x vs baseline, ok")
    # Plan-cache gate: planned kernel rows must beat (or match, within
    # tolerance) their unplanned siblings in the fresh report.
    regressions.extend(plan_cache_regressions(fresh, tolerance))
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fixed-matrix perf baseline -> BENCH_epoch_time.json"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, few epochs")
    parser.add_argument("--epochs", type=int, default=None,
                        help="epochs per config (default: 5, smoke: 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="also write a merged Chrome trace of every config")
    parser.add_argument("--kernels", action="store_true",
                        help="also run the per-reducer kernel microbenchmark "
                             "(planned vs unplanned rows, kind='kernel')")
    parser.add_argument("--distributed", action="store_true",
                        help="run the distributed scaling sweep instead of "
                             "the fixed matrix: wall-clock epoch seconds for "
                             f"k in {DIST_WORKER_COUNTS}, simulated vs real "
                             f"multiprocess backend -> {DIST_OUTPUT}")
    parser.add_argument("--ondisk", action="store_true",
                        help="run the out-of-core streaming-loader bench "
                             "instead of the fixed matrix: prefetch-off vs "
                             "prefetch-2 epoch medians and overlap ratio "
                             f"-> {ONDISK_OUTPUT}")
    parser.add_argument("--quantized", action="store_true",
                        help="run the quantized-tier bench instead of the "
                             "fixed matrix: fp32/fp16/int8 training rows "
                             "(wire bytes + quality drift) and the "
                             "same-budget embedding-cache comparison "
                             f"-> {QUANT_OUTPUT}")
    parser.add_argument("--ondisk-root", metavar="DIR", default=None,
                        help="reuse/keep the generated ondisk dataset at DIR "
                             "instead of a throwaway temp directory")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="enable the flight recorder for the distributed "
                             "sweep: per-rank journals and incident bundles "
                             "land under DIR")
    parser.add_argument("--check-against", metavar="BASELINE",
                        help="compare against a committed baseline report "
                             "and exit 1 on median epoch-time regression")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional median regression for "
                             f"--check-against (default {DEFAULT_TOLERANCE})")
    args = parser.parse_args(argv)

    scale = "tiny" if args.smoke else "small"
    epochs = args.epochs if args.epochs is not None else (3 if args.smoke else 5)

    if args.ondisk:
        output = (args.output if args.output != DEFAULT_OUTPUT
                  else ONDISK_OUTPUT)
        print(f"ondisk streaming bench "
              f"({'smoke' if args.smoke else 'full'}): scale={scale}, "
              f"{epochs} epochs per prefetch mode")
        report = run_ondisk_stream(scale, epochs, args.seed,
                                   root=args.ondisk_root)
        validate_ondisk_report(report)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"ondisk stream report written to {output}")
        return 0

    if args.quantized:
        output = (args.output if args.output != DEFAULT_OUTPUT
                  else QUANT_OUTPUT)
        print(f"quantized-tier bench "
              f"({'smoke' if args.smoke else 'full'}): scale={scale}, "
              f"codecs {QUANT_CODECS}, {epochs} epochs each")
        report = run_quantized(scale, epochs, args.seed)
        validate_quant_report(report)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"quantized-tier report written to {output}")
        return 0

    if args.distributed:
        output = (args.output if args.output != DEFAULT_OUTPUT
                  else DIST_OUTPUT)
        print(f"distributed scaling sweep "
              f"({'smoke' if args.smoke else 'full'}): "
              f"k in {DIST_WORKER_COUNTS}, scale={scale}, "
              f"{epochs} epochs each")
        if args.flight_dir:
            os.makedirs(args.flight_dir, exist_ok=True)
        report = run_dist_scaling(scale, epochs, args.seed,
                                  flight_dir=args.flight_dir)
        validate_dist_report(report)
        with open(output, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"dist scaling report written to {output}")
        return 0

    print(f"bench matrix ({'smoke' if args.smoke else 'full'}): "
          f"{len(MATRIX)} configs, scale={scale}, {epochs} epochs each")
    report = run_matrix(scale, epochs, args.seed,
                        chrome_trace=args.chrome_trace)
    if args.kernels:
        print(f"kernel microbenchmark: {len(KERNEL_OPS)} reducers, "
              f"planned vs unplanned")
        report["configs"].extend(run_kernel_matrix(scale, args.seed))
    validate_report(report)
    if args.chrome_trace:
        with open(args.chrome_trace) as fh:
            validate_chrome_trace(json.load(fh))
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"bench report written to {args.output}")

    if args.check_against:
        with open(args.check_against) as fh:
            baseline = json.load(fh)
        validate_report(baseline)
        regressions = compare_reports(report, baseline,
                                      tolerance=args.tolerance)
        if regressions:
            print("bench regression gate FAILED:")
            for line in regressions:
                print(f"  {line}")
            return 1
        print(f"bench regression gate passed "
              f"(vs {args.check_against}, tolerance "
              f"{1.0 + args.tolerance:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
