"""Tests for the regression guard script (exact counters, bench guards)."""

import json

import pytest

from benchmarks.check_regression import main, parse_guard

GUARD = ["--guard", "fleet_scale_full_pass.total_s"]


def write_bench(path, records, schema=2):
    path.write_text(json.dumps({"schema": schema, "records": records}))
    return path


@pytest.fixture
def bench_files(tmp_path):
    baseline = write_bench(
        tmp_path / "baseline.json",
        {"fleet_scale_full_pass": {"total_s": 10.0}},
    )
    current = write_bench(
        tmp_path / "current.json",
        {"fleet_scale_full_pass": {"total_s": 10.0}},
    )
    return baseline, current


class TestParseGuard:
    def test_default_tolerance(self):
        assert parse_guard("rec.field", 0.25) == ("rec", "field", 0.25)

    def test_explicit_tolerance(self):
        assert parse_guard("rec.field:0.05", 0.25) == ("rec", "field", 0.05)

    @pytest.mark.parametrize(
        "text", ["noField", "rec.field:abc", "rec.field:-0.1", ".f"]
    )
    def test_malformed_guard_rejected(self, text):
        with pytest.raises(SystemExit):
            parse_guard(text, 0.25)


class TestMain:
    def test_within_limit_passes(self, bench_files, capsys):
        baseline, current = bench_files
        assert main([str(baseline), str(current)] + GUARD) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        baseline = write_bench(
            tmp_path / "b.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 13.0}}
        )
        assert main([str(baseline), str(current)] + GUARD) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_extra_guard_with_tight_tolerance(self, tmp_path):
        records = {
            "fleet_scale_full_pass": {"total_s": 10.0},
            "telemetry_disabled_mid_pass": {"total_s": 1.0},
        }
        baseline = write_bench(tmp_path / "b.json", records)
        slower = {
            "fleet_scale_full_pass": {"total_s": 10.0},
            "telemetry_disabled_mid_pass": {"total_s": 1.1},
        }
        current = write_bench(tmp_path / "c.json", slower)
        guard = ["--guard", "telemetry_disabled_mid_pass.total_s:0.05"]
        assert main([str(baseline), str(current)] + guard) == 1
        loose = ["--guard", "telemetry_disabled_mid_pass.total_s:0.25"]
        assert main([str(baseline), str(current)] + loose) == 0

    def test_guard_missing_from_baseline_skipped(
        self, bench_files, capsys
    ):
        baseline, current = bench_files
        code = main(
            [str(baseline), str(current), "--guard", "new_bench.total_s"]
        )
        assert code == 0
        assert "skipping" in capsys.readouterr().out

    def test_guard_missing_from_current_fails(self, tmp_path):
        records = {
            "fleet_scale_full_pass": {"total_s": 10.0},
            "other": {"total_s": 1.0},
        }
        baseline = write_bench(tmp_path / "b.json", records)
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        assert (
            main([str(baseline), str(current), "--guard", "other.total_s"])
            == 1
        )

    def test_wrong_schema_rejected(self, tmp_path):
        baseline = write_bench(
            tmp_path / "b.json",
            {"fleet_scale_full_pass": {"total_s": 10.0}},
            schema=1,
        )
        current = write_bench(
            tmp_path / "c.json", {"fleet_scale_full_pass": {"total_s": 10.0}}
        )
        with pytest.raises(SystemExit):
            main([str(baseline), str(current)] + GUARD)

    def test_missing_records_rejected(self, tmp_path, bench_files):
        _, current = bench_files
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit):
            main([str(bad), str(current)] + GUARD)


EXPECTED = {
    "perfbench": {
        "fleet-cold": {"digests": ["aa", "bb"], "core.capacity.packs": 23},
        "fleet-sharded": {"core.lp_bound.bound_ratio": 1.894661},
    },
    "fuzz": {"campaign_digest": "c94e", "failures": []},
}


def write_perfbench_log(path, workload, context=None, metrics=None):
    """A perfbench standard output: profile, context and result lines."""
    context = {"workload": workload, **(context or {})}
    metrics = {name: {"value": v} for name, v in (metrics or {}).items()}
    path.write_text(
        "profile: pack 1.0 ms\n"
        f"context: {json.dumps(context)}\n"
        f"{json.dumps({'correct': True, 'metrics': metrics})}\n"
    )
    return str(path)


class TestExpectedCounters:
    @pytest.fixture
    def expected(self, tmp_path):
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(EXPECTED))
        return str(path)

    def run(
        self,
        tmp_path,
        expected,
        digests=("aa", "bb"),
        packs=23,
        ratio=1.894661,
        workloads=("fleet-cold", "fleet-sharded"),
    ):
        """Untraced and traced fleet-cold logs, a traced fleet-sharded one."""
        logs = []
        if "fleet-cold" in workloads:
            logs.append(
                write_perfbench_log(
                    tmp_path / "cold-0.log",
                    "fleet-cold",
                    context={"digests": list(digests)},
                )
            )
            logs.append(
                write_perfbench_log(
                    tmp_path / "cold-1.log",
                    "fleet-cold",
                    metrics={"core.capacity.packs": packs},
                )
            )
        if "fleet-sharded" in workloads:
            logs.append(
                write_perfbench_log(
                    tmp_path / "sharded-1.log",
                    "fleet-sharded",
                    metrics={"core.lp_bound.bound_ratio": ratio},
                )
            )
        return main(["--expected", expected] + logs)

    @pytest.mark.parametrize(
        "ratio", [1.894661, 1.894661 * (1 + 5e-7)], ids=["same", "float-noise"]
    )
    def test_identical_run_passes(self, tmp_path, expected, capsys, ratio):
        assert self.run(tmp_path, expected, ratio=ratio) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"digests": ("aa", "cc")}, "perfbench.fleet-cold.digests"),
            ({"packs": 24}, "perfbench.fleet-cold.core.capacity.packs"),
            (
                {"ratio": 1.894661 * (1 + 2e-6)},
                "perfbench.fleet-sharded.core.lp_bound.bound_ratio",
            ),
            ({"workloads": ("fleet-cold",)}, "perfbench.fleet-sharded"),
        ],
        ids=["digest", "counter", "bound-ratio", "missing-workload"],
    )
    def test_difference_fails_naming_the_field(
        self, tmp_path, expected, capsys, change, field
    ):
        assert self.run(tmp_path, expected, **change) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith(f"{field}:")

    def test_campaign_report_checked_alone(self, tmp_path, expected, capsys):
        report = tmp_path / "fuzz.json"
        for digest, code in (("c94e", 0), ("0000", 1)):
            report.write_text(
                json.dumps({"campaign_digest": digest, "failures": []})
            )
            assert main(["--expected", expected, str(report)]) == code
        assert "fuzz.campaign_digest:" in capsys.readouterr().err

    def test_kind_without_expected_values_fails(self, tmp_path, expected):
        report = tmp_path / "tournament.json"
        report.write_text(json.dumps({"policies": [], "digest": "ab"}))
        assert main(["--expected", expected, str(report)]) == 1
