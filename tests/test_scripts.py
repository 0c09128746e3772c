import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
