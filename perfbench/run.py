#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload full-gat --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones, from a traced pass that
runs after the untraced measurement.  The exit code is non-zero when an
output check fails.

Other modes::

    python3 perfbench/run.py --self-test          # known-bad check tests
    python3 perfbench/run.py --seed-spread 3      # spread across seeds

See ``perfbench/README.md`` for the metrics, workloads and baseline.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")

#: workload name -> module in this directory
WORKLOADS = {
    "full-gat": "full_gat",
    "stream-gcn": "stream_gcn",
    "dist-magnn": "dist_magnn",
    "serve-mixed": "serve_mixed",
}


def _bootstrap() -> None:
    """Make the program (``src``) and this directory importable, with one
    BLAS thread per process: the load then stays within the host's two
    cores (the parent plus one loader or server thread, or two worker
    processes).  Set before numpy loads, which reads it once."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"program sources not found under {src}")
    for path in (HERE, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload in this process; return its :class:`Ledger`."""
    from common import Ledger
    from metrics import END_TO_END, PER_LAYER

    module = importlib.import_module(WORKLOADS[workload])
    ledger = Ledger(workload)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    module.run(seed, seconds, trace, ledger, trace_path)

    units = {name: unit for name, (unit, _, _) in END_TO_END.items()} | PER_LAYER
    missing = sorted(set(END_TO_END) - set(ledger.metrics))
    if missing:
        raise RuntimeError(f"{workload}: end-to-end metrics not measured: {missing}")
    if trace:
        # Layers this workload bypasses were not called: report 0.
        for name, unit in PER_LAYER.items():
            ledger.metrics.setdefault(name, (0.0, unit))
    for name, (_, unit) in ledger.metrics.items():
        if units.get(name) != unit:
            raise RuntimeError(f"{workload}: metric {name} in {unit}, "
                               f"declared {units.get(name)}")
    return ledger


def _stop_processes() -> None:
    """Stop every process the workload started and wait until each has
    ended: worker processes first (forked workers hold the resource
    tracker's pipe open), then the ``multiprocessing`` resource tracker
    that shared-memory segments start, which otherwise outlives this
    process.  The tracker unlinks any segment left behind as it exits."""
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def _print_result(ledger, trace: bool) -> None:
    from metrics import END_TO_END, PER_LAYER

    shown = PER_LAYER if trace else END_TO_END
    print(f"# {ledger.workload}: {ledger.attempted} operations attempted, "
          f"{ledger.failed} failed")
    for line in ledger.lines:
        print(f"#   {line}")
    for msg in ledger.check_failures:
        print(f"# CHECK FAILED {msg}")
    for name, (value, unit) in sorted(ledger.metrics.items()):
        mark = "" if name in shown else "  (not reported in this mode)"
        print(f"#   {name:<34} {value:>16.6g} {unit}{mark}")
    result = ledger.result()
    result["metrics"] = {k: v for k, v in result["metrics"].items() if k in shown}
    print(json.dumps(result), flush=True)


def _self_test() -> int:
    path = os.path.join(HERE, "tests", "test_checks.py")
    spec = importlib.util.spec_from_file_location("perfbench_self_tests", path)
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)
    failures = 0
    for name in sorted(dir(tests)):
        if not name.startswith("test_"):
            continue
        try:
            getattr(tests, name)()
        except Exception as exc:  # report every failing self-test
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


def _seed_spread(num_seeds: int, seconds: int, workloads: list[str]) -> int:
    """Run each workload on ``num_seeds`` seeds, each in its own process,
    and report every end-to-end metric's median and quartile spread."""
    from metrics import END_TO_END

    summary = {}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in END_TO_END}
        for seed in range(num_seeds):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            mid = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / mid if mid else float("inf")
            summary[workload][name] = {"median": mid, "spread": spread, "values": vals}
            bound = END_TO_END[name][2]
            print(f"{workload:<12} {name:<14} median {mid:>12.6g}  "
                  f"IQR/median {spread:6.3f}  (bound {bound})")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed-spread", type=int, metavar="N", default=0,
                        help="run every workload (or --workload) on N >= 3 seeds")
    args = parser.parse_args(argv)

    _bootstrap()
    if args.self_test:
        return _self_test()
    if args.seed_spread:
        if args.seed_spread < 3:
            parser.error("--seed-spread needs at least 3 seeds")
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        return _seed_spread(args.seed_spread, int(args.seconds), workloads)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        ledger = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_processes()
    _print_result(ledger, bool(args.trace))
    return 0 if ledger.correct and not ledger.failed else 1


if __name__ == "__main__":
    sys.exit(main())
