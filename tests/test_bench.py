"""Tests for tools/bench.py: report schema, validation, Chrome trace."""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
)

import bench  # noqa: E402


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """One smoke run shared by every test (it trains real models)."""
    out = tmp_path_factory.mktemp("bench")
    report_path = out / "report.json"
    trace_path = out / "trace.json"
    rc = bench.main([
        "--smoke",
        "--output", str(report_path),
        "--chrome-trace", str(trace_path),
    ])
    assert rc == 0
    return (json.loads(report_path.read_text()),
            json.loads(trace_path.read_text()))


class TestReport:
    def test_schema_and_config_count(self, smoke_outputs):
        report, _trace = smoke_outputs
        assert report["schema"] == bench.SCHEMA
        assert report["mode"] == "smoke"
        assert len(report["configs"]) >= 4

    def test_required_keys_and_sanity(self, smoke_outputs):
        report, _trace = smoke_outputs
        for row in report["configs"]:
            assert row["median_epoch_seconds"] > 0
            assert row["p90_epoch_seconds"] >= row["median_epoch_seconds"]
            assert row["peak_materialized_bytes"] >= 0
            assert row["time_basis"] in ("wall", "simulated")
        kinds = {row["kind"] for row in report["configs"]}
        assert kinds == {"single", "distributed"}

    def test_distributed_rows_carry_workers_and_pipeline(self, smoke_outputs):
        report, _trace = smoke_outputs
        dist = [r for r in report["configs"] if r["kind"] == "distributed"]
        assert len(dist) == 2
        assert {r["pipeline"] for r in dist} == {True, False}
        assert all(r["workers"] == 4 for r in dist)
        assert all(r["time_basis"] == "simulated" for r in dist)

    def test_validate_accepts_own_output(self, smoke_outputs):
        report, _trace = smoke_outputs
        bench.validate_report(report)   # must not raise

    def test_work_profile_totals_present(self, smoke_outputs):
        report, _trace = smoke_outputs
        assert report["calibration_seconds"] > 0
        for row in report["configs"]:
            assert row["total_flops"] > 0
            assert row["total_bytes"] > 0
            assert row["peak_flops_per_sec"] > 0


#: row name -> peak materialized bytes of a healthy report: only SA
#: materializes per-edge messages
_PEAKS = {"gcn-single-ha": 0, "gcn-single-sa": 22_182_400,
          "gat-single-ha": 3_200_000, "gcn-dist4-batched": 0}


def _report(schema=bench.SCHEMA, **overrides):
    row = {"model": "gcn", "dataset": "reddit",
           "kind": "single", "epochs": 3, "scale": "small",
           "median_epoch_seconds": 0.1, "p90_epoch_seconds": 0.2,
           "time_basis": "wall"}
    if schema == bench.SCHEMA:
        row.update(total_flops=1e6, total_bytes=1e7,
                   peak_flops_per_sec=1e8)
    row.update(overrides)
    return {"schema": schema,
            "configs": [dict(row, name=name, peak_materialized_bytes=peak)
                        for name, peak in _PEAKS.items()]}


class TestValidate:
    def _good(self):
        return _report()

    def test_good_report_passes(self):
        bench.validate_report(self._good())

    def test_legacy_schema_accepted_without_work_keys(self):
        bench.validate_report(_report(schema="repro.bench/1"))

    def test_current_schema_requires_work_keys(self):
        report = self._good()
        del report["configs"][0]["total_flops"]
        with pytest.raises(ValueError, match="total_flops"):
            bench.validate_report(report)

    @pytest.mark.parametrize("key", ["total_flops", "peak_flops_per_sec"])
    def test_empty_work_profile_rejected(self, key):
        report = self._good()
        report["configs"][1][key] = 0
        with pytest.raises(ValueError, match="no work profile"):
            bench.validate_report(report)

    def test_bad_schema_rejected(self):
        report = self._good()
        report["schema"] = "something/else"
        with pytest.raises(ValueError, match="schema"):
            bench.validate_report(report)

    def test_too_few_configs_rejected(self):
        report = self._good()
        report["configs"] = report["configs"][:3]
        with pytest.raises(ValueError, match=">= 4"):
            bench.validate_report(report)

    def test_missing_key_rejected(self):
        report = self._good()
        del report["configs"][1]["p90_epoch_seconds"]
        with pytest.raises(ValueError, match="missing"):
            bench.validate_report(report)

    def test_non_positive_median_rejected(self):
        report = self._good()
        report["configs"][0]["median_epoch_seconds"] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            bench.validate_report(report)

    def test_p90_below_median_rejected(self):
        report = self._good()
        report["configs"][2]["p90_epoch_seconds"] = 0.01
        with pytest.raises(ValueError, match="p90 < median"):
            bench.validate_report(report)

    def test_unfused_attention_peak_rejected(self):
        # the committed full-matrix rows before attention fused
        report = self._good()
        peaks = {"gcn-single-sa": 22_182_400, "gat-single-ha": 22_736_960}
        for row in report["configs"]:
            row["peak_materialized_bytes"] = peaks.get(row["name"], 0)
        with pytest.raises(ValueError, match="attention is not fused"):
            bench.validate_report(report)

    @pytest.mark.parametrize("name", ["gat-single-ha", "gcn-single-sa"])
    def test_missing_attention_gate_row_rejected(self, name):
        report = self._good()
        report["configs"] = [r for r in report["configs"] if r["name"] != name]
        report["configs"].append(dict(report["configs"][0], name="extra"))
        with pytest.raises(ValueError, match=f"missing {name!r}"):
            bench.validate_report(report)


def _ondisk_report(speedup=1.5):
    rows = [{"name": f"ondisk-stream-prefetch{d}", "prefetch_depth": d,
             "median_epoch_seconds": 1.0, "overlap_efficiency": 0.5,
             "final_loss": 2.5} for d in (0, 2)]
    report = {"schema": bench.ONDISK_SCHEMA, "configs": rows}
    if speedup is not None:
        report["prefetch_speedup"] = speedup
    return report


class TestValidateOndisk:
    def test_good_report_passes(self):
        bench.validate_ondisk_report(_ondisk_report())

    def test_no_speedup_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            bench.validate_ondisk_report(_ondisk_report(speedup=1.0))

    def test_speedup_at_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            bench.validate_ondisk_report(
                _ondisk_report(speedup=bench.ONDISK_MIN_PREFETCH_SPEEDUP))

    def test_missing_speedup_rejected(self):
        with pytest.raises(ValueError, match="missing prefetch_speedup"):
            bench.validate_ondisk_report(_ondisk_report(speedup=None))

    def test_loss_drift_rejected(self):
        report = _ondisk_report()
        report["configs"][1]["final_loss"] = 2.5000000000000004
        with pytest.raises(ValueError, match="training stream"):
            bench.validate_ondisk_report(report)

    def test_committed_report_passes(self):
        with open(bench.ONDISK_OUTPUT) as fh:
            bench.validate_ondisk_report(json.load(fh))


def _dist_report(loss=198.5):
    rows = [{"name": f"gcn-dist{k}-{backend}", "workers": k,
             "backend": backend, "median_epoch_seconds": 0.01,
             "final_loss": loss}
            for k in bench.DIST_WORKER_COUNTS
            for backend in ("simulated", "process")]
    return {"schema": bench.DIST_SCHEMA, "configs": rows}


class TestValidateDist:
    def test_good_report_passes(self):
        bench.validate_dist_report(_dist_report())

    def test_one_ulp_loss_drift_rejected(self):
        report = _dist_report()
        row = report["configs"][-1]
        row["final_loss"] = float(np.nextafter(row["final_loss"], np.inf))
        with pytest.raises(ValueError, match="process loss"):
            bench.validate_dist_report(report)

    def test_missing_row_rejected(self):
        report = _dist_report()
        del report["configs"][1]
        with pytest.raises(ValueError, match="missing dist-scaling row"):
            bench.validate_dist_report(report)

    def test_committed_report_passes(self):
        with open(bench.DIST_OUTPUT) as fh:
            bench.validate_dist_report(json.load(fh))


class TestPercentile:
    def test_interpolation(self):
        assert bench._percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert bench._percentile([5.0], 90) == 5.0
        assert bench._percentile([1.0, 3.0], 100) == 3.0


class TestChromeTrace:
    def test_trace_event_format(self, smoke_outputs):
        _report, trace = smoke_outputs
        events = trace["traceEvents"]
        assert events
        for e in events:
            assert e["ph"] in ("X", "i", "M", "C")
            assert "pid" in e and "tid" in e and "name" in e

    def test_validate_accepts_own_trace(self, smoke_outputs):
        _report, trace = smoke_outputs
        bench.validate_chrome_trace(trace)   # must not raise

    @pytest.mark.parametrize("events, match", [
        ([], "no events"),
        ([{"ph": "B", "pid": 0, "tid": 0, "name": "s"}], "phase"),
        ([{"ph": "C", "pid": 0, "name": "c"}], "missing"),
        ([{"ph": "X", "pid": 0, "tid": 0, "name": "s"}], "no counter"),
    ], ids=["empty", "bad-phase", "no-tid", "no-counter"])
    def test_bad_trace_rejected(self, events, match):
        with pytest.raises(ValueError, match=match):
            bench.validate_chrome_trace({"traceEvents": events})

    def test_one_lane_pair_per_config(self, smoke_outputs):
        report, trace = smoke_outputs
        pids = {e["pid"] for e in trace["traceEvents"]}
        # Config i owns pids {10i, 10i+1} (measured/simulated lanes).
        expected = set()
        for i in range(len(report["configs"])):
            expected |= {i * 10, i * 10 + 1}
        assert pids <= expected
        # At least the measured lane of every config is populated.
        assert {i * 10 for i in range(len(report["configs"]))} <= pids


class TestCompare:
    def test_identical_reports_pass(self):
        assert bench.compare_reports(_report(), _report()) == []

    def test_regression_beyond_tolerance_detected(self):
        fresh = _report(median_epoch_seconds=0.2, p90_epoch_seconds=0.3)
        regressions = bench.compare_reports(fresh, _report(), tolerance=0.25)
        assert len(regressions) == 4
        assert "regressed 2.00x" in regressions[0]

    def test_within_tolerance_passes(self):
        fresh = _report(median_epoch_seconds=0.12, p90_epoch_seconds=0.3)
        assert bench.compare_reports(fresh, _report(), tolerance=0.25) == []

    def test_unknown_config_skipped(self, capsys):
        fresh = _report()
        fresh["configs"][0]["name"] = "brand-new"
        baseline = _report(median_epoch_seconds=0.001,
                           p90_epoch_seconds=0.002)
        regressions = bench.compare_reports(fresh, baseline, tolerance=0.25)
        # the renamed row is skipped, the other three regress
        assert len(regressions) == 3
        assert "brand-new: not in baseline, skipped" in capsys.readouterr().out

    def test_scale_or_epochs_mismatch_skipped(self, capsys):
        fresh = _report(scale="large", median_epoch_seconds=10.0,
                        p90_epoch_seconds=11.0)
        assert bench.compare_reports(fresh, _report()) == []
        assert "scale/epochs differ" in capsys.readouterr().out

    def test_calibration_normalizes_wall_medians(self):
        # Fresh host is 2x slower overall (calibration 2x) and its wall
        # medians are 2x the baseline's: normalized ratio is 1.0, no
        # regression.
        fresh = _report(median_epoch_seconds=0.2, p90_epoch_seconds=0.3)
        fresh["calibration_seconds"] = 0.02
        baseline = _report()
        baseline["calibration_seconds"] = 0.01
        assert bench.compare_reports(fresh, baseline, tolerance=0.25) == []

    def test_calibration_does_not_mask_real_regression(self):
        # Same-speed hosts, genuinely 2x slower code: still caught.
        fresh = _report(median_epoch_seconds=0.2, p90_epoch_seconds=0.3)
        fresh["calibration_seconds"] = 0.01
        baseline = _report()
        baseline["calibration_seconds"] = 0.01
        regressions = bench.compare_reports(fresh, baseline, tolerance=0.25)
        assert len(regressions) == 4
        assert "calibration-normalized" in regressions[0]

    def test_simulated_rows_compared_raw(self):
        # Simulated medians are host-independent: calibration must NOT
        # excuse a regression there.
        fresh = _report(time_basis="simulated", median_epoch_seconds=0.2,
                        p90_epoch_seconds=0.3)
        fresh["calibration_seconds"] = 0.02
        baseline = _report(time_basis="simulated")
        baseline["calibration_seconds"] = 0.01
        regressions = bench.compare_reports(fresh, baseline, tolerance=0.25)
        assert len(regressions) == 4

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            bench.compare_reports(_report(), _report(), tolerance=0.0)

    def test_cli_gate_fails_on_regression(self, tmp_path, capsys):
        """--check-against exits 1 when the baseline is far faster."""
        baseline = _report(median_epoch_seconds=1e-9, p90_epoch_seconds=1e-8)
        # align names/epochs/scale with the smoke matrix so rows match
        baseline["configs"] = [
            dict(baseline["configs"][0], name=cfg["name"],
                 peak_materialized_bytes=_PEAKS.get(cfg["name"], 0),
                 scale="tiny", epochs=3)
            for cfg in bench.MATRIX
        ]
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        rc = bench.main([
            "--smoke",
            "--output", str(tmp_path / "fresh.json"),
            "--check-against", str(path),
        ])
        assert rc == 1
        assert "regressed" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_repo_root_baseline_is_valid(self):
        """BENCH_epoch_time.json at the repo root (the committed
        baseline) must satisfy the same schema the CI gate enforces."""
        assert os.path.exists(bench.DEFAULT_OUTPUT), (
            "run `python tools/bench.py` to regenerate the baseline"
        )
        with open(bench.DEFAULT_OUTPUT) as fh:
            bench.validate_report(json.load(fh))
