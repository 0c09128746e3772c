import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
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
    bench = _load_script("bench")
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


def _report(residual=3e-16, status="pass", info_count=4, seconds=0.5):
    check = {"label": "thm45#1", "check": "thm45", "name": "thm45",
             "passed": status == "pass", "overall": status == "pass",
             "conditions": [{"name": "end-to-end", "residual": residual,
                             "tolerance": 1e-10, "status": status}],
             "info": {"u10_condition_1norm": 1.0, "sizes": [info_count, 2]}}
    return {"scenario": "s", "overall": status == "pass", "checks": [check],
            "environment": {"cpu_count": 2},
            "timing": {"total_seconds": seconds}}


class TestBodyDiff:
    bodydiff = _load_script("bodydiff")

    def _run(self, tmp_path, capsys, old, new, *flags):
        paths = []
        for name, doc in (("a.json", old), ("b.json", new)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        code = self.bodydiff.main([*map(str, paths), *flags])
        return code, capsys.readouterr().out.splitlines()

    def test_identical_bodies(self, tmp_path, capsys):
        # timing and environment are not part of the body
        new = _report(seconds=0.7)
        new["environment"] = {"cpu_count": 4}
        for flags in ((), ("--exact",)):
            code, lines = self._run(tmp_path, capsys, _report(), new, *flags)
            assert code == 0
            assert lines[-1].endswith("0 residuals, 0 info values, "
                                      "0 other differences, 0 verdict flips")

    def test_a_move_only_in_info(self, tmp_path, capsys):
        code, lines = self._run(tmp_path, capsys, _report(),
                                _report(info_count=5))
        assert code == 0
        assert lines[:-1] == ["thm45#1  info sizes[0]  4 -> 5  |d|/tol -"]
        assert "1 info values" in lines[-1]
        code, _ = self._run(tmp_path, capsys, _report(), _report(info_count=5),
                            "--exact")
        assert code == 1

    def test_a_residual_move_lists_old_new_and_its_share_of_tol(
            self, tmp_path, capsys):
        code, lines = self._run(tmp_path, capsys, _report(),
                                _report(residual=8e-16))
        assert code == 0
        assert lines[:-1] == ["thm45#1  end-to-end  3e-16 -> 8e-16  "
                              "|d|/tol 5e-06"]

    def test_a_flip_fails_without_exact(self, tmp_path, capsys):
        code, lines = self._run(tmp_path, capsys, _report(),
                                _report(residual=2e-10, status="fail"))
        assert code == 1
        flips = [line for line in lines if line.startswith("FLIP ")]
        assert flips == ["FLIP overall True -> False",
                         "FLIP thm45#1  passed True -> False",
                         "FLIP thm45#1  overall True -> False",
                         "FLIP thm45#1  end-to-end  status pass -> fail"]
        assert "thm45#1  end-to-end  3e-16 -> 2e-10  |d|/tol 2" in lines

    def test_a_check_on_one_side_only_is_a_flip(self, tmp_path, capsys):
        new = _report()
        new["checks"] = []
        code, lines = self._run(tmp_path, capsys, _report(), new)
        assert code == 1
        assert "FLIP thm45#1  check only in A" in lines

    def test_refuses_a_file_that_is_not_a_report(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, capsys, _report(), {"checks": None})
        assert code == 2
