"""Unit tests for the CI perf-regression gate (benchmarks/check_regression.py).

The gate script lives outside the package (``benchmarks/`` is not
importable), so it is loaded by file path.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def row(flow: str, speedup: float, sinks: int = 500) -> dict:
    return {
        "flow": flow,
        "sinks": sinks,
        "reference_s": 1.0,
        "vectorized_s": 1.0 / max(speedup, 1e-9),
        "speedup": speedup,
    }


class TestCheck:
    def test_all_above_floors_passes(self):
        rows = [row("repeated_skew", 300.0), row("full_analysis", 0.5)]
        assert check_regression.check(rows, {"repeated_skew": 200.0}) == []

    def test_below_floor_fails(self):
        rows = [row("repeated_skew", 150.0)]
        failures = check_regression.check(rows, {"repeated_skew": 200.0})
        assert len(failures) == 1
        assert "fell below the committed floor" in failures[0]

    def test_no_gated_flows_fails(self):
        failures = check_regression.check([row("ungated", 1.0)], {"other": 2.0})
        assert any("no gated flows" in f for f in failures)

    def test_unmatched_floor_key_fails(self):
        # A floor whose benchmark was renamed or dropped must not silently
        # gate nothing.
        rows = [row("repeated_skew", 300.0)]
        floors = {"repeated_skew": 200.0, "ghost_bench": 1.5}
        failures = check_regression.check(rows, floors)
        assert len(failures) == 1
        assert "ghost_bench" in failures[0]
        assert "no matching bench row" in failures[0]

    def test_parallel_row_ungated_when_host_lacks_cores(self):
        # A parallel-tier row measured with fewer cores than workers cannot
        # physically show a speedup; its floor must not gate it.
        starved = row("insertion_dp_100k", 0.7, sinks=100_000)
        starved.update(workers=4, cores=1)
        assert check_regression.check(
            [starved, row("repeated_skew", 300.0)],
            {"insertion_dp_100k": 2.0, "repeated_skew": 200.0},
        ) == []

    def test_parallel_row_gates_when_host_has_cores(self):
        provisioned = row("insertion_dp_100k", 0.7, sinks=100_000)
        provisioned.update(workers=4, cores=8)
        failures = check_regression.check(
            [provisioned], {"insertion_dp_100k": 2.0}
        )
        assert len(failures) == 1
        assert "fell below the committed floor" in failures[0]

    def test_committed_floors_match_committed_results(self):
        # The committed full-run results and the full floors must stay in
        # sync — the same check a full bench run applies.
        repo_root = _SCRIPT.parent.parent
        results = json.loads((repo_root / "BENCH_perf_timing.json").read_text())
        floors = json.loads((_SCRIPT.parent / "perf_floors.json").read_text())["full"]
        assert check_regression.check(results, floors) == []


class TestMain:
    def test_missing_results_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert check_regression.main(["--results", str(missing)]) == 2
        assert "not found" in capsys.readouterr().out

    def test_failing_results_exit_1(self, tmp_path, capsys):
        results = tmp_path / "results.json"
        results.write_text(json.dumps([row("repeated_skew", 1.0)]))
        assert (
            check_regression.main(["--results", str(results), "--mode", "smoke"]) == 1
        )
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_passing_results_exit_0(self, tmp_path, capsys):
        floors = tmp_path / "floors.json"
        floors.write_text(json.dumps({"smoke": {"repeated_skew": 200.0}}))
        results = tmp_path / "results.json"
        results.write_text(json.dumps([row("repeated_skew", 300.0)]))
        code = check_regression.main(
            ["--results", str(results), "--floors", str(floors), "--mode", "smoke"]
        )
        assert code == 0
        assert "passed" in capsys.readouterr().out
