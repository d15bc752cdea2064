#!/usr/bin/env python3
"""Serving load generator: writes ``BENCH_serve_latency.json``.

Drives a :class:`repro.serve.GNNServer` through two phases and records
the SLO numbers a serving-oriented PR must not regress:

* **closed loop** — a fixed client pool issues Zipfian-popularity
  requests back-to-back (each client waits for its response before
  sending the next).  This measures end-to-end latency percentiles,
  throughput, and the warm-cache hit rate the skewed workload earns.
* **open loop (overload)** — requests are submitted as fast as the
  submit path allows against a deliberately tiny admission bound, so
  offered load exceeds capacity.  This demonstrates load shedding
  engaging: a nonzero shed rate with the p99 of *admitted* requests
  staying bounded (queueing delay cannot exceed the queue bound).

The output schema (``repro.serve-bench/1``) is::

    {
      "schema": "repro.serve-bench/1",
      "mode": "smoke" | "full",
      "model": "gcn", "dataset": "reddit", "scale": "tiny",
      "zipf_exponent": 1.1,
      "closed_loop": {
        "requests", "clients", "seconds", "throughput_rps",
        "p50_ms", "p90_ms", "p99_ms", "max_ms",
        "cache_hit_rate",            # embed-cache hit rate, warm phase only
        "batches", "mean_batch_size"
      },
      "overload": {
        "offered", "completed", "shed", "shed_rate",
        "queue_depth_bound", "p50_ms", "p99_ms"
      }
    }

Usage::

    python tools/loadgen.py                  # full workload -> repo root
    python tools/loadgen.py --smoke          # tiny/fast variant (CI)
    python tools/loadgen.py --model magnn --dataset imdb
    python tools/loadgen.py --output path.json
    python tools/loadgen.py --check path.json   # serve-smoke CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402

SCHEMA = "repro.serve-bench/1"
ACCEPTED_SCHEMAS = (SCHEMA,)
REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_serve_latency.json")


def zipf_seeds(num_vertices: int, count: int, exponent: float,
               rng: np.random.Generator) -> np.ndarray:
    """``count`` seed ids with Zipfian popularity over all vertices."""
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    popularity = ranks ** -exponent
    popularity /= popularity.sum()
    return rng.choice(num_vertices, size=count, p=popularity)


def build_server(args):
    from repro.core import FlexGraphEngine
    from repro.datasets import load_dataset
    from repro import models
    from repro.serve import GNNServer, InferenceSession
    from repro.tensor import Adam, Tensor

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    factory = getattr(models, args.model)
    kwargs = {"max_instances_per_root": 30} if args.model == "magnn" else {}
    model = factory(ds.feat_dim, 16, ds.num_classes, seed=args.seed, **kwargs)
    engine = FlexGraphEngine(model, ds.graph, seed=args.seed)
    optimizer = Adam(model.parameters(), lr=0.01)
    engine.fit(Tensor(ds.features), ds.labels, optimizer, args.train_epochs,
               mask=ds.train_mask)
    session = InferenceSession(model, ds.graph, ds.features, seed=args.seed)
    server = GNNServer(
        session, num_workers=args.workers, max_batch_size=args.batch_size,
        max_delay=args.max_delay_ms / 1e3, max_queue_depth=args.queue_depth,
        flight_dir=args.flight_dir, slo_p99_ms=args.slo_p99_ms,
    )
    return ds, session, server


def run_closed_loop(server, session, seeds: np.ndarray, clients: int) -> dict:
    """Fixed client pool, one outstanding request per client."""
    from repro.serve.server import BATCH_SPAN, REQUEST_SPAN

    # Warm the cache with the head of the workload so the measured phase
    # reports the steady-state (warm) hit rate, then snapshot counters.
    warmup = seeds[: max(len(seeds) // 5, 1)]
    for seed in warmup:
        server.predict(np.array([seed]))
    hits0, misses0 = session.embed_cache.hits, session.embed_cache.misses

    measured = seeds[len(warmup):]
    shards = np.array_split(measured, clients)
    errors: list[Exception] = []

    def client(shard: np.ndarray) -> None:
        for seed in shard:
            try:
                server.predict(np.array([seed]))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
                return

    threads = [threading.Thread(target=client, args=(shard,))
               for shard in shards if shard.size]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]

    hits = session.embed_cache.hits - hits0
    misses = session.embed_cache.misses - misses0
    reg = obs.get_registry()
    request_hist = reg.histogram("span." + REQUEST_SPAN)
    batch_hist = reg.histogram("span." + BATCH_SPAN)
    return {
        "requests": int(measured.size),
        "clients": int(clients),
        "seconds": elapsed,
        "throughput_rps": measured.size / elapsed if elapsed else 0.0,
        "p50_ms": request_hist.p50 * 1e3,
        "p90_ms": request_hist.p90 * 1e3,
        "p99_ms": request_hist.p99 * 1e3,
        "max_ms": (request_hist.max if request_hist.count else 0.0) * 1e3,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "batches": batch_hist.count,
        "mean_batch_size": (
            (measured.size + 0.0) / batch_hist.count if batch_hist.count else 0.0
        ),
    }


def run_overload(server, seeds: np.ndarray) -> dict:
    """Open loop: submit without waiting, faster than the server drains."""
    from repro.serve import ServerOverloaded
    from repro.serve.server import REQUEST_SPAN

    futures = []
    shed = 0
    for seed in seeds:
        try:
            futures.append(server.submit("predict", np.array([seed])))
        except ServerOverloaded:
            shed += 1
    for future in futures:
        future.result(timeout=60)
    reg = obs.get_registry()
    request_hist = reg.histogram("span." + REQUEST_SPAN)
    return {
        "offered": int(seeds.size),
        "completed": len(futures),
        "shed": shed,
        "shed_rate": shed / seeds.size if seeds.size else 0.0,
        "queue_depth_bound": server.batcher.max_queue_depth,
        "p50_ms": request_hist.p50 * 1e3,
        "p99_ms": request_hist.p99 * 1e3,
    }


def run_workload(args) -> dict:
    from repro.serve import GNNServer

    print(f"loadgen: {args.model} on {args.dataset}/{args.scale}, "
          f"{args.requests} closed-loop + {args.overload_requests} "
          f"open-loop requests, zipf {args.zipf}")
    ds, session, server = build_server(args)
    rng = np.random.default_rng(args.seed + 1)

    obs.reset()
    closed_seeds = zipf_seeds(ds.graph.num_vertices, args.requests, args.zipf, rng)
    with server:
        closed = run_closed_loop(server, session, closed_seeds, args.clients)
    print(f"  closed loop : {closed['throughput_rps']:.0f} req/s, "
          f"p50 {closed['p50_ms']:.2f}ms p99 {closed['p99_ms']:.2f}ms, "
          f"hit rate {closed['cache_hit_rate']:.1%}")

    # Fresh obs registry + a server with a tiny admission bound so the
    # open-loop burst actually exceeds capacity.
    obs.reset()
    overload_server = GNNServer(
        session, num_workers=args.workers, max_batch_size=args.batch_size,
        max_delay=args.max_delay_ms / 1e3,
        max_queue_depth=args.overload_queue_depth,
        flight_dir=args.flight_dir, slo_p99_ms=args.slo_p99_ms,
    )
    overload_seeds = zipf_seeds(
        ds.graph.num_vertices, args.overload_requests, args.zipf, rng
    )
    with overload_server:
        overload = run_overload(overload_server, overload_seeds)
    print(f"  overload    : {overload['shed']}/{overload['offered']} shed "
          f"({overload['shed_rate']:.1%}), admitted p99 "
          f"{overload['p99_ms']:.2f}ms")

    return {
        "schema": SCHEMA,
        "mode": "smoke" if args.scale == "tiny" else "full",
        "model": args.model,
        "dataset": args.dataset,
        "scale": args.scale,
        "zipf_exponent": args.zipf,
        "closed_loop": closed,
        "overload": overload,
    }


def validate_report(report: dict) -> None:
    """Raise ValueError when the report violates the serve-bench schema."""
    schema = report.get("schema")
    if schema not in ACCEPTED_SCHEMAS:
        raise ValueError(f"bad schema: {schema!r}")
    closed = report.get("closed_loop")
    if not isinstance(closed, dict):
        raise ValueError("report missing closed_loop phase")
    for key in ("requests", "throughput_rps", "p50_ms", "p90_ms", "p99_ms",
                "cache_hit_rate"):
        if key not in closed:
            raise ValueError(f"closed_loop missing {key!r}")
    if closed["requests"] <= 0:
        raise ValueError("closed_loop measured zero requests")
    if not 0.0 <= closed["cache_hit_rate"] <= 1.0:
        raise ValueError("cache_hit_rate out of [0, 1]")
    if closed["p99_ms"] < closed["p50_ms"]:
        raise ValueError("closed_loop has p99 < p50")
    overload = report.get("overload")
    if not isinstance(overload, dict):
        raise ValueError("report missing overload phase")
    for key in ("offered", "completed", "shed", "shed_rate", "p99_ms"):
        if key not in overload:
            raise ValueError(f"overload missing {key!r}")
    if overload["completed"] + overload["shed"] != overload["offered"]:
        raise ValueError("overload completed + shed != offered")
    if overload["shed"] <= 0:
        raise ValueError("overload phase never shed — bound not exercised")


def check_smoke_report(report: dict) -> str:
    """The serve-smoke CI gate: a valid report whose closed loop earned a
    warm-cache hit rate of at least 50% and whose overload phase shed
    load while still timing admitted requests.

    Raises ValueError naming the first failed gate; returns the one-line
    summary CI prints on success.
    """
    validate_report(report)
    closed, overload = report["closed_loop"], report["overload"]
    if closed["cache_hit_rate"] < 0.5:
        raise ValueError(
            f"warm-cache hit rate {closed['cache_hit_rate']:.1%} < 50%"
        )
    if overload["p99_ms"] <= 0:
        raise ValueError("no admitted-request latencies")
    return (f"serve smoke ok: p99 {closed['p99_ms']:.2f}ms, "
            f"hit rate {closed['cache_hit_rate']:.1%}, "
            f"shed rate {overload['shed_rate']:.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="serving SLO workload -> BENCH_serve_latency.json"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset, few requests (CI)")
    parser.add_argument("--model", default="gcn",
                        choices=("gcn", "gat", "gin", "pinsage", "magnn"))
    parser.add_argument("--dataset", default="reddit",
                        choices=("reddit", "fb91", "twitter", "imdb"))
    parser.add_argument("--scale", default=None,
                        choices=("tiny", "small", "bench"),
                        help="dataset scale (default: small, smoke: tiny)")
    parser.add_argument("--requests", type=int, default=None,
                        help="closed-loop requests (default 600, smoke 200)")
    parser.add_argument("--overload-requests", type=int, default=None,
                        help="open-loop requests (default 400, smoke 150)")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop client threads")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf exponent of seed popularity")
    parser.add_argument("--train-epochs", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--max-delay-ms", type=float, default=1.0)
    parser.add_argument("--queue-depth", type=int, default=256,
                        help="closed-loop admission bound")
    parser.add_argument("--overload-queue-depth", type=int, default=8,
                        help="open-loop admission bound (small on purpose)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--flight-dir", metavar="DIR", default=None,
                        help="enable the flight recorder: journal to DIR "
                             "and snapshot incident bundles on SLO breach")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        help="rolling-window p99 SLO (ms) for breach "
                             "snapshots; needs --flight-dir")
    parser.add_argument("--check", metavar="REPORT", default=None,
                        help="run no workload; apply the serve-smoke gate "
                             "to REPORT and exit 1 if it fails")
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check) as fh:
            report = json.load(fh)
        try:
            print(check_smoke_report(report))
        except ValueError as exc:
            print(f"serve smoke gate FAILED: {exc}")
            return 1
        return 0

    if args.scale is None:
        args.scale = "tiny" if args.smoke else "small"
    if args.requests is None:
        args.requests = 200 if args.smoke else 600
    if args.overload_requests is None:
        args.overload_requests = 150 if args.smoke else 400

    if args.flight_dir:
        from repro.obs.flight import FlightRecorder, install_flight

        os.makedirs(args.flight_dir, exist_ok=True)
        install_flight(FlightRecorder(journal_path=os.path.join(
            args.flight_dir, "journal-serve.jsonl")))

    try:
        report = run_workload(args)
    finally:
        if args.flight_dir:
            # Journal writes are asynchronous: drain before the daemon
            # writer thread dies with the interpreter.
            from repro.obs.flight import uninstall_flight

            recorder = uninstall_flight()
            if recorder is not None:
                recorder.close()
    validate_report(report)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"serve report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
