"""Tests for tools/loadgen.py's report checks: the serve-bench schema
and the serve-smoke CI gate, each with a known-bad fixture that must
make it fire."""

import copy
import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import loadgen  # noqa: E402

GOOD = {
    "schema": loadgen.SCHEMA,
    "mode": "smoke",
    "model": "gcn",
    "dataset": "reddit",
    "scale": "tiny",
    "zipf_exponent": 1.1,
    "closed_loop": {
        "requests": 160, "clients": 4, "seconds": 0.1,
        "throughput_rps": 1600.0, "p50_ms": 1.0, "p90_ms": 2.0,
        "p99_ms": 3.0, "max_ms": 4.0, "cache_hit_rate": 0.9,
        "batches": 100, "mean_batch_size": 1.6,
    },
    "overload": {
        "offered": 150, "completed": 10, "shed": 140, "shed_rate": 140 / 150,
        "queue_depth_bound": 8, "p50_ms": 2.0, "p99_ms": 2.5,
    },
}


def _report(phase=None, **fields):
    report = copy.deepcopy(GOOD)
    if phase is not None:
        report[phase].update(fields)
    return report


class TestSmokeGate:
    def test_accepts_good_report(self):
        assert loadgen.check_smoke_report(_report()).startswith("serve smoke ok")

    def test_accepts_committed_full_report(self):
        path = os.path.join(loadgen.REPO_ROOT, "BENCH_serve_latency.json")
        with open(path) as fh:
            loadgen.check_smoke_report(json.load(fh))

    def test_low_hit_rate_fires(self):
        with pytest.raises(ValueError, match="hit rate"):
            loadgen.check_smoke_report(
                _report("closed_loop", cache_hit_rate=0.49))

    def test_no_shedding_fires(self):
        with pytest.raises(ValueError, match="never shed"):
            loadgen.check_smoke_report(
                _report("overload", completed=150, shed=0, shed_rate=0.0))

    def test_zero_admitted_p99_fires(self):
        with pytest.raises(ValueError, match="admitted-request"):
            loadgen.check_smoke_report(_report("overload", p99_ms=0.0))

    def test_schema_violation_fires(self):
        bad = _report()
        del bad["closed_loop"]["p99_ms"]
        with pytest.raises(ValueError, match="p99_ms"):
            loadgen.check_smoke_report(bad)


class TestCheckCommand:
    def test_exit_codes(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(_report()))
        bad.write_text(json.dumps(_report("overload", p99_ms=0.0)))
        assert loadgen.main(["--check", str(good)]) == 0
        assert loadgen.main(["--check", str(bad)]) == 1
        assert "gate FAILED" in capsys.readouterr().out
