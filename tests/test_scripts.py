import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_doc(cold_s=1.0, failed_frac=0.0, dont_write_bytecode=1, digest="d0"):
    end_to_end = {"wall_s": 0.9, "cold_s": cold_s, "setup_s": 0.2, "peak_rss_mb": 86.0}
    workload = {"correct": failed_frac == 0.0, "failed_frac": failed_frac,
                "end_to_end": end_to_end, "digests": {"s": digest}}
    return {"bytecode": {"dont_write_bytecode": dont_write_bytecode},
            "workloads": {"algebra": workload}}


def test_frame_residual_decay_script():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "frame_residual_decay.py"),
         "--sizes", "20", "40"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["20", "40"]
    worst = [float(row[1]) for row in rows]
    assert worst[1] < worst[0]


def test_boundary_ratio_study_script(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "boundary_ratio_study.py"),
         "--r-max", "0.99", "--steps", "6", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert names == ["ratio_1_over_2.csv", "ratio_2_over_1.csv",
                     "separator_over_1.csv", "separator_over_2.csv"]
    for name in names:
        assert (tmp_path / name).read_text().splitlines()[0] == "radius,k0,k1,ratio"
    last = (tmp_path / "ratio_1_over_2.csv").read_text().splitlines()[-1]
    radius, _, _, ratio = (float(value) for value in last.split(","))
    # K1(r, r) / K2(r, r) = (1 - r^2)^-1 / (1 - r^2)^-2
    assert abs(ratio - (1.0 - radius ** 2)) <= 1e-9


class TestBenchComparison:
    bench = _load_bench()
    spec = bench.load_spec()

    def _bound(self, name):
        return next(m["bound"] for m in self.spec["end_to_end"] if m["name"] == name)

    def test_lists_every_metric_and_flags_only_beyond_the_bound(self):
        bound = self._bound("cold_s")
        within = self.bench.compare(_bench_doc(cold_s=1.0 + 0.9 * bound),
                                    _bench_doc(), self.spec)
        beyond = self.bench.compare(_bench_doc(cold_s=1.0 + 1.1 * bound),
                                    _bench_doc(), self.spec)
        listing, flagged = within
        assert [line.split()[1] for line in listing] == \
            [m["name"] for m in self.spec["end_to_end"]]
        assert flagged == []
        assert [line.split()[1] for line in beyond[1]] == ["cold_s"]

    def test_flags_a_larger_failed_share_and_notes_changed_digests(self):
        listing, flagged = self.bench.compare(
            _bench_doc(failed_frac=0.1, digest="d1"), _bench_doc(), self.spec)
        assert len(flagged) == 1 and "failed_frac" in flagged[0]
        assert listing[-1].endswith("report digests differ: s")

    def test_refuses_files_of_different_bytecode_settings(self):
        with pytest.raises(self.bench.BenchError, match="bytecode"):
            self.bench.compare(_bench_doc(dont_write_bytecode=0), _bench_doc(),
                               self.spec)

    def test_refuses_a_file_that_is_not_a_bench_file(self, tmp_path):
        path = tmp_path / "other.json"
        for text in ('{"workloads": {}}', "[1, 2]", "not json"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(self.bench.BenchError, match="other.json"):
                self.bench.load_bench(path)

    def test_gate_needs_a_baseline(self):
        with pytest.raises(SystemExit):
            self.bench.parse_args(["--gate"])
