"""Tests of the benchmark itself: seeds, wrappers, and the result it prints.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cdlab  # noqa: E402
import cdlab.cli  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

END_TO_END = {"wall_s": "s", "cold_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    ["kernels.section_vector.calls", "kernels.section_vector.self_s",
     "kernels.diagonal_ratio.self_s",
     "operators.sylvester_kernel.self_s", "operators.sylvester_kernel.calls",
     "operators.sylvester_kernel.operator_mb",
     "operators.apply_mobius.self_s", "operators.apply_mobius.calls",
     "operators.shift_from_kernel.self_s", "operators.assemble_model.self_s",
     "operators.random_operator.self_s",
     "geometry.eigenframe.self_s", "geometry.eigenframe.points",
     "geometry.kernel_frame.self_s", "geometry.gram_metric.self_s",
     "geometry.curvature.series.self_s", "geometry.curvature.fd.self_s",
     "geometry.covariant_derivative.series.self_s",
     "geometry.covariant_derivative.fd.self_s", "geometry.fd.metric_evals",
     "geometry.curvature_isometry_check.self_s",
     "geometry.curvature_isometry_check.points",
     "geometry.curvature_isometry_check.degenerate_points",
     "equivalence.main3_verifier.self_s", "equivalence.build_unitary_from_x.self_s",
     "equivalence.verify_mainlemma.self_s", "equivalence.construct_fb2_pair.self_s",
     "equivalence.kernel_transform_check.self_s",
     "equivalence.theta_intertwiner_check.self_s",
     "homogeneity.mobius_block_identity_check.self_s",
     "homogeneity.thm45_condition_check.self_s",
     "homogeneity.homogeneity_condition_check.self_s",
     "scenarios.Scenario.load.self_s", "scenarios.run_scenario.self_s",
     "serialize.write_curvature_csv.self_s", "serialize.bytes_written",
     "cli.main.self_s", "trace.overhead_frac"]
    + [f"scenarios.campaign_s.{name}" for name in workloads.BUNDLED_SCENARIOS]
    + [f"scenarios.check_s.{check.name}" for check in cdlab.list_checks()]
)


# ---------------------------------------------------------------------------
# seeds


def _seedless(doc):
    """Scenario document with every seed the benchmark offsets blanked."""
    doc = json.loads(json.dumps(doc))
    doc.pop("seed", None)
    for spec in doc.get("operators", {}).values():
        if isinstance(spec.get("random"), dict):
            spec["random"].pop("seed", None)
    for check in doc.get("checks", []):
        for key in workloads.CHECK_SEED_KEYS:
            check.get("params", {}).pop(key, None)
    return doc


def test_offset_moves_only_seeds():
    shipped = cdlab.cli.bundled_scenario_dir()
    moved_any = False
    for name in workloads.BUNDLED_SCENARIOS:
        raw = json.loads((shipped / f"{name}.json").read_text(encoding="utf-8"))
        moved = workloads.offset_scenario(raw, 5)
        assert workloads.offset_scenario(raw, 0) == raw
        assert _seedless(moved) == _seedless(raw)
        moved_any |= moved != raw
        if "seed" in raw:
            assert moved["seed"] == raw["seed"] + 5
    assert moved_any


def test_seed_zero_runs_shipped_files(tmp_path):
    workloads.setup_bundled(0, tmp_path)
    shipped = cdlab.cli.bundled_scenario_dir()
    for name in workloads.BUNDLED_SCENARIOS:
        assert (tmp_path / f"{name}.json").read_bytes() == \
            (shipped / f"{name}.json").read_bytes()


@pytest.mark.parametrize("setup, key", [
    (workloads.setup_fields, lambda inp: inp["model240"].x),
    (workloads.setup_fields, lambda inp: inp["iso_model"].x),
    (workloads.setup_fields, lambda inp: inp["change"]),
    (workloads.setup_algebra, lambda inp: inp["x_normal"]),
    (workloads.setup_algebra, lambda inp: inp["main3"][3]),
    (workloads.setup_algebra, lambda inp: inp["theta0"]),
])
def test_seed_changes_generated_inputs(tmp_path, setup, key):
    first = key(setup(0, tmp_path))
    assert np.array_equal(first, key(setup(0, tmp_path)))
    assert not np.array_equal(first, key(setup(1, tmp_path)))


def test_seed_keeps_expected_verdicts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = {seed: workloads.run_bundled(workloads.setup_bundled(seed, tmp_path / str(seed)))
            for seed in (0, 7)}
    names = {seed: [v.name for v in run.verifications] for seed, run in runs.items()}
    assert names[0] == names[7]
    for run in runs.values():
        assert all(v.ok for v in run.verifications), \
            [v for v in run.verifications if not v.ok]
    # seeded campaigns produce other report bodies, seedless ones the same
    assert runs[0].digests["mainlemma-normal-x"] != runs[7].digests["mainlemma-normal-x"]
    assert runs[0].digests["corollary-theta"] == runs[7].digests["corollary-theta"]


# ---------------------------------------------------------------------------
# wrappers


def _current(owner, attr):
    return owner.__dict__[attr]


def test_wrappers_patch_every_binding_and_restore_it():
    sites = tracing.patch_sites()
    eigenframe_owners = {owner.__name__ for owner, attr, _ in sites
                         if attr == "eigenframe"}
    assert eigenframe_owners == {"cdlab", "cdlab.geometry", "cdlab.scenarios",
                                 "cdlab.equivalence"}
    trace = tracing.Tracer()
    with tracing.traced(trace):
        for owner, attr, original in sites:
            assert _current(owner, attr) is not original, (owner, attr)
        cdlab.section_vector(cdlab.bergman_kernel(1, 4), 0.5)
    for owner, attr, original in sites:
        assert _current(owner, attr) is original, (owner, attr)
    assert [span[2] for span in trace.spans] == ["kernels.section_vector"]


def test_wrappers_restored_after_an_exception():
    sites = tracing.patch_sites()
    with pytest.raises(cdlab.errors.DomainError):
        with tracing.traced(tracing.Tracer()):
            cdlab.section_vector(cdlab.bergman_kernel(1, 4), 2.0)
    for owner, attr, original in sites:
        assert _current(owner, attr) is original, (owner, attr)


def test_self_seconds_subtracts_children():
    trace = tracing.Tracer()
    trace.spans = [(1, 0, "outer", 0.0, 10.0), (2, 1, "inner", 1.0, 4.0),
                   (3, 1, "inner", 5.0, 6.0), (4, 2, "leaf", 2.0, 3.0)]
    assert trace.self_seconds() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


# ---------------------------------------------------------------------------
# BENCHMARK.json and the printed result


def test_spec_names_every_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(PER_LAYER)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bundled",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    full = json.loads((BENCH / "out" / f"bundled-seed2-trace{trace}.json")
                      .read_text(encoding="utf-8"))
    assert full["failed_frac"] == 0.0
    assert len(full["wall_s_quartiles"]) == 2 and full["wall_s_samples"]
    assert set(full["digests"]) == set(workloads.BUNDLED_SCENARIOS)
    assert {"nproc", "numpy", "blas_vendor", "blas_version", "blas_threads",
            "thread_env", "python", "git_commit", "seed"} <= set(full["environment"])
    if not trace:
        # cold_s is a median over fresh processes, not one pass
        assert full["processes"] >= 3
        assert len(full["cold_s_samples"]) == len(full["setup_s_samples"]) \
            == full["processes"]
    if trace:
        layer = result["metrics"]
        assert layer["operators.sylvester_kernel.calls"]["value"] > 0
        assert layer["geometry.curvature_isometry_check.degenerate_points"]["value"] == 0
        assert layer["serialize.bytes_written"]["value"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
