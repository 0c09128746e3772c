import copy
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdlab.cli import bundled_scenario_dir, main
from cdlab.errors import SchemaError
from cdlab.kernels import bergman_kernel
from cdlab.operators import UpperTriangularModel, random_operator
from cdlab.scenarios import (KERNEL, MODEL, REGISTRY, SOURCES, Scenario,
                             _grid, list_checks, parameter_docs,
                             run_scenario)

from oracles import dense_block, product_gap_bound

BUNDLED = sorted(bundled_scenario_dir().glob("*.json"))
README = Path(__file__).resolve().parents[1] / "README.md"


def matrix_to_json(mat) -> dict:
    """A 2-d matrix in the wire format that the `matrix` and `file` operator
    sources read: row-major flat lists of its real and imaginary parts."""
    mat = np.asarray(mat, dtype=complex)
    return {"rows": int(mat.shape[0]), "cols": int(mat.shape[1]),
            "re": [float(v) for v in mat.real.ravel()],
            "im": [float(v) for v in mat.imag.ravel()]}


def _body(report: dict) -> dict:
    """The report without its `timing` and `environment` blocks."""
    report = copy.deepcopy(report)
    report.pop("timing", None)
    report.pop("environment", None)
    return report


class TestRegistry:
    def test_size_and_required_names(self):
        names = [c.name for c in list_checks()]
        assert len(names) >= 10
        for required in ("mainlemma", "main1", "main3", "corollary-theta",
                         "curvature", "separator", "mobius-block", "thm45"):
            assert required in names

    def test_alphabetized_and_anchored(self):
        checks = list_checks()
        assert [c.name for c in checks] == sorted(c.name for c in checks)
        for check in checks:
            assert check.anchor.strip()
            assert check.description.strip()

    def test_bundled_scenarios_cover_every_check(self):
        covered = set()
        for path in BUNDLED:
            raw = json.loads(path.read_text())
            covered.update(entry["check"] for entry in raw["checks"])
        assert covered == set(REGISTRY)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_scenarios_pass(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_scenario(path)
    assert result.overall, result.summary()
    if path.stem == "bergman-curvature":
        field = tmp_path / "bergman-curvature-field.csv"
        assert field.exists()
        lines = field.read_text().splitlines()
        assert lines[0] == "re_w,im_w,K_00_re,K_00_im,kernel"
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] \
            == ["b1"] * 96 + ["b2"] * 96 + ["b3"] * 96


def test_no_check_assembles_the_coupled_model(tmp_path, monkeypatch):
    # every check works on the N x N blocks: with the assembled 2N x 2N T
    # unreadable, all six bundled scenarios give the same bodies
    monkeypatch.chdir(tmp_path)
    plain = [_body(run_scenario(path).to_dict()) for path in BUNDLED]

    def refuse(model):
        raise AssertionError("the assembled T was read")

    monkeypatch.setattr(UpperTriangularModel, "t", property(refuse))
    blocks_only = [_body(run_scenario(path).to_dict()) for path in BUNDLED]
    assert len(BUNDLED) == 6 and all(body["overall"] for body in plain)
    assert json.dumps(blocks_only, sort_keys=True) == json.dumps(plain,
                                                                 sort_keys=True)


def test_sylvester_and_separator_compare_against_tol():
    raw = {"name": "given-tol",
           "kernels": {"b1": {"preset": "bergman", "n": 1, "N": 13809},
                       "b2": {"preset": "bergman", "n": 2, "N": 13809}},
           "operators": {"D": {"diagonal": {"values": [1, 2]}}},
           "checks": [{"check": "sylvester", "tol": 0.5, "params": {
                           "cases": [{"a": "D", "b": "D", "expected_dim": 2}]}},
                      {"check": "separator", "tol": 1e-3,
                       "params": {"k0": "b1", "k1": "b2"}}]}
    result = run_scenario(Scenario.from_dict(raw))
    assert result.overall, result.summary()
    sylvester, separator = (o.report.conditions for o in result.outcomes)
    assert [c.tolerance for c in sylvester] == [0.5]
    assert [c.tolerance for c in separator if c.name.startswith("monotone")] \
        == [1e-3, 1e-3]


def test_separator_monotone_residual_is_the_largest_increase():
    # s = min(a, b)/(n + 1) with a flat and b tiny below n = 500: K_s/K_a
    # grows with the radius as r^{2n} reaches n >= 500, so monotone-k0 fails
    # by its largest step, while the decreasing K_s/K_b reads exactly 0;
    # 13,809 terms are what the radius 0.999 needs
    size = 13809
    flat, damped = [1.0] * size, [1e-12] * 500 + [1.0] * (size - 500)
    raw = {"name": "rising-ratio",
           "kernels": {"a": {"coeffs": flat}, "b": {"coeffs": damped}},
           "checks": [{"check": "separator", "params": {"k0": "a", "k1": "b"}}]}
    report = run_scenario(Scenario.from_dict(raw)).outcomes[0].report
    ratios = report.info["ratios_k0"]
    steps = [b - a for a, b in zip(ratios, ratios[1:])]
    assert min(steps) > 0
    rising = report.condition("monotone-k0")
    assert rising.status == "fail" and rising.residual == max(steps)
    falling = report.condition("monotone-k1")
    assert falling.status == "pass" and falling.residual == 0.0
    assert max(b - a for a, b in zip(report.info["ratios_k1"],
                                     report.info["ratios_k1"][1:])) < 0


def test_separator_uses_the_declared_truncation(tmp_path):
    # N = 64 is too short for radius 0.999: the separator check fails with
    # the truncation that would suffice, and the campaign goes on
    raw = {"name": "short-separator",
           "kernels": {"b1": {"preset": "bergman", "n": 1, "N": 64},
                       "b2": {"preset": "bergman", "n": 2, "N": 64}},
           "operators": {"D": {"diagonal": {"values": [1, 2]}}},
           "checks": [{"check": "separator", "params": {"k0": "b1", "k1": "b2"}},
                      {"check": "sylvester", "params": {
                          "cases": [{"a": "D", "b": "D", "expected_dim": 2}]}}]}
    path = tmp_path / "short.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 1
    separator, sylvester = run_scenario(path).outcomes
    assert separator.error == ("PrecisionError: truncation 64 insufficient for "
                               "radius 0.999; need N >= 13809")
    assert sylvester.passed


def test_curvature_csv_keeps_every_kernel(tmp_path):
    from cdlab.geometry import curvature, gram_metric, kernel_frame, polar_grid
    from cdlab.kernels import bergman_kernel

    out = tmp_path / "two.csv"
    grid = {"rmax": 0.4, "n_radii": 2, "n_angles": 4}
    raw = {"name": "two-kernels",
           "kernels": {"k1": {"preset": "bergman", "n": 1, "N": 40},
                       "k2": {"preset": "bergman", "n": 2, "N": 40}},
           "checks": [{"check": "curvature", "params": {
               "kernels": ["k1", "k2"], "grid": grid, "csv_out": str(out)}}]}
    assert run_scenario(Scenario.from_dict(raw)).overall
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_w,im_w,K_00_re,K_00_im,kernel"
    rows = [line.split(",") for line in lines[1:]]
    points = polar_grid(radii=[0.2, 0.4], n_angles=4)
    for label, weight in (("k1", 1), ("k2", 2)):
        mine = [row for row in rows if row[-1] == label]
        fld = curvature(gram_metric(kernel_frame(bergman_kernel(weight, 40), points)),
                        points, method="series")
        assert len(mine) == len(points)
        for row, w, k in zip(mine, points.points, fld.values[:, 0, 0]):
            assert complex(float(row[0]), float(row[1])) == w
            assert complex(float(row[2]), float(row[3])) == k


def test_corollary_theta_intertwine_agrees_with_dense():
    # U T and Tt U are taken block by block
    from cdlab.equivalence import theta_intertwiner_check
    from cdlab.kernels import bergman_kernel
    from cdlab.operators import frobenius, shift_from_kernel

    size, theta0 = 16, 2.25
    raw = {"name": "theta",
           "kernels": {"b1": {"preset": "bergman", "n": 1, "N": size},
                       "b2": {"preset": "bergman", "n": 2, "N": size}},
           "checks": [{"check": "corollary-theta", "params": {
               "t0_kernel": "b1", "t1_kernel": "b2", "theta0": theta0}}]}
    report = run_scenario(Scenario.from_dict(raw)).outcomes[0].report
    t0, t1 = (shift_from_kernel(bergman_kernel(n, size)).matrix for n in (1, 2))
    y = np.exp(1j * theta0) * np.eye(size)
    _, unitary = theta_intertwiner_check(*(
        shift_from_kernel(bergman_kernel(n, size)) for n in (1, 2)), y, 1e-10)
    u = dense_block(*unitary.blocks)
    t = dense_block(t0, t1 - t0, None, t1)
    partner_t = dense_block(t1, y @ t0 - t1 @ y, None, t0)
    dense = frobenius(u @ t - partner_t @ u)
    bound = product_gap_bound(size, (u, t), (partner_t, u))
    residual = report.condition("unitary-intertwine").residual
    assert abs(residual - dense) <= bound


def test_frame_check_against_closed_form_tail():
    # bergman(3) at N = 120 has sqrt(a_{N-1}) ~ 85: the raw residuals of a
    # correct model reach 2e-10, yet deviate from their closed form by roundoff
    raw = {"name": "frame-weight-three", "seed": 31,
           "kernels": {"f1": {"preset": "bergman", "n": 1, "N": 120},
                       "f3": {"preset": "bergman", "n": 3, "N": 120}},
           "checks": [{"check": "frame",
                       "params": {"t0_kernel": "f1", "t1_kernel": "f3",
                                  "trials": 20, "seed": 41,
                                  "grid": {"rmax": 0.8, "n_radii": 4,
                                           "n_angles": 8}}}]}
    result = run_scenario(Scenario.from_dict(raw))
    assert result.overall, result.summary()
    report = result.outcomes[0].report
    (condition,) = report.conditions
    assert condition.tolerance == 1e-12 and condition.residual <= 1e-14
    assert report.info["worst_residual"] > 1e-10


def test_frame_isometry_moved_fields_bounded():
    # the bundled frame-isometry body holds the fields that move with the
    # rounding of the eigenframe's X t1 product; each keeps a wide margin
    # below its tolerance, and worst_residual stays at its closed-form tail
    result = run_scenario(bundled_scenario_dir() / "frame-isometry.json")
    assert result.overall, result.summary()
    frame, isometry = (outcome.report for outcome in result.outcomes[:2])
    closed_form = frame.condition("eigen-residual-closed-form")
    assert closed_form.tolerance == 1e-12 and closed_form.residual <= 1e-14
    a1_last = bergman_kernel(2, 120).coefficients[-1]
    tail = max(0.8 ** 120 * math.sqrt(a1_last * (1.0 + np.vdot(x[:, -1], x[:, -1]).real))
               for x in (random_operator(120, 41 + trial, norm=0.5)
                         for trial in range(20)))
    assert abs(frame.info["worst_residual"] - tail) <= 1e-14
    found = isometry.condition("all-points-found")
    assert found.tolerance == 1e-8 and found.residual <= 1e-12
    assert isometry.info["found_points"] == 24


def test_main3_kernel_transform_fields_bounded():
    # the frame kernel is the frames' pairing of their N-wide sections, so
    # it rounds as the metric does: main3's SWAP-related pair stays at
    # rounding level, and a frame against its own SWAP change is exact
    result = run_scenario(bundled_scenario_dir() / "main3-engineered.json")
    reports = {outcome.label: outcome.report for outcome in result.outcomes}
    assert reports["main3#0"].condition("kernel-transform").residual <= 1e-13
    assert reports["kernel-transform#1"].condition("transform-residual").residual == 0.0


class TestDeterminism:
    def test_identical_runs_identical_bodies(self, tmp_path, monkeypatch):
        # two runs in one process, so state the caches carry from one run to
        # the next cannot change a body; bergman-curvature writes its field
        # CSV into the working directory
        monkeypatch.chdir(tmp_path)
        assert len(BUNDLED) == 6
        for path in BUNDLED:
            first = _body(run_scenario(path).to_dict())
            second = _body(run_scenario(path).to_dict())
            assert json.dumps(first, sort_keys=True) == json.dumps(
                second, sort_keys=True), path.stem

    def test_environment_stamp_outside_the_body(self, monkeypatch):
        # BLAS reads OMP_NUM_THREADS only when it loads, so setting it here
        # changes the stamp and not the arithmetic
        path = bundled_scenario_dir() / "corollary-theta.json"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        first = run_scenario(path).to_dict()
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        second = run_scenario(path).to_dict()
        env = first["environment"]
        assert {"cdlab_version", "numpy_version", "float64_eps", "cpu_count",
                "python_version", "blas_name", "blas_version",
                "thread_env"} <= set(env)
        assert env["cpu_count"] == os.cpu_count()
        assert env["python_version"] == platform.python_version()
        assert env["thread_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                     "OMP_NUM_THREADS": None,
                                     "MKL_NUM_THREADS": None}
        assert second["environment"]["thread_env"]["OMP_NUM_THREADS"] == "3"
        assert _body(first) == _body(second)


def test_import_loads_no_thread_pool_or_logging():
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); "
         "import cdlab; print(sorted({'concurrent', 'logging'} "
         "& (set(sys.modules) - before)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_star_import_binds_no_submodule():
    import types

    import cdlab

    assert "DiagonalKernel" in cdlab.__all__ and "SectionVector" not in cdlab.__all__
    for name in cdlab.__all__:
        assert not isinstance(getattr(cdlab, name), types.ModuleType), name
    namespace = {}
    exec("from cdlab import *", namespace)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]


def _tiny_scenario(**overrides):
    base = {
        "name": "tiny",
        "kernels": {
            "b1": {"preset": "bergman", "n": 1, "N": 12},
            "b2": {"preset": "bergman", "n": 2, "N": 12},
        },
        "operators": {
            "Xn": {"random": {"size": 12, "seed": 4, "norm": 0.8,
                              "kind": "normal"}},
        },
        "checks": [
            {"check": "mainlemma", "tol": 1e-9,
             "params": {"t0_kernel": "b1", "t1_kernel": "b2", "x": "Xn"}},
        ],
    }
    base.update(overrides)
    return base


def _random_spec(raw: dict) -> dict:
    return raw["operators"]["Xn"]["random"]


def _use_x(raw: dict, name: str):
    raw["checks"][0]["params"]["x"] = name


# (id, mutation of _tiny_scenario, the message of the SchemaError it raises
# at load)
MALFORMED = [
    ("null-n_radii", lambda raw: raw.update(grid={"n_radii": None}),
     r"'grid': missing or null parameter 'n_radii'"),
    ("parms", lambda raw: raw["checks"][0].update(
        parms=raw["checks"][0].pop("params")),
     r"checks\[0\]: unknown key 'parms'"),
    ("list-params", lambda raw: raw["checks"][0].update(params=[1, 2]),
     r"checks\[0\]: 'params' must be an object"),
    ("number-kernels", lambda raw: raw.update(kernels=5),
     r"'kernels' must be an object"),
    ("check-grid", lambda raw: raw.update(checks=[{"check": "frame", "params": {
        "t0_kernel": "b1", "t1_kernel": "b2", "grid": {"n_radii": None}}}]),
     r"checks\[0\] \(frame\): 'grid': missing or null parameter 'n_radii'"),
    ("string-seed", lambda raw: raw.update(seed="abc"),
     r"'seed' must be an integer, got 'abc'"),
    ("random-sede", lambda raw: (raw.update(seed=3), _random_spec(raw).update(
        sede=_random_spec(raw).pop("seed"))),
     r"operators\[Xn\]: 'random': unknown key 'sede'"),
    ("random-no-size", lambda raw: _random_spec(raw).pop("size"),
     r"operators\[Xn\]: 'random': missing or null parameter 'size'"),
    ("two-sources",
     lambda raw: raw["operators"]["Xn"].update(identity={"size": 12}),
     r"operators\[Xn\] must be an object with one key of file, matrix, "),
    ("kernel-lable", lambda raw: raw["kernels"]["b1"].update(lable="flat"),
     r"kernels\[b1\]: unknown key 'lable'"),
    ("grid-n_radi", lambda raw: raw.update(grid={"n_radi": 2}),
     r"'grid': unknown key 'n_radi'"),
    ("number-report", lambda raw: raw.update(outputs={"report": 5}),
     r"unknown key 'outputs'"),
    ("separator-csv_out_k0", lambda raw: raw.update(checks=[{
        "check": "separator", "params": {"k0": "b1", "k1": "b2",
                                         "csv_out_k0": "k0.csv"}}]),
     r"checks\[0\] \(separator\): unknown key 'csv_out_k0'"),
    ("nan-a", lambda raw: raw.update(checks=[{
        "check": "thm45", "params": {"t1_kernel": "b1", "a": float("nan")}}]),
     r"checks\[0\] \(thm45\): 'a' must be finite, got nan"),
    ("nan-a-pair", lambda raw: raw.update(checks=[{
        "check": "thm45", "params": {"t1_kernel": "b1", "a": [0.3, float("nan")]}}]),
     r"checks\[0\] \(thm45\): 'a' must be finite, got \[0.3, nan\]"),
    ("infinite-phase", lambda raw: raw.update(checks=[{
        "check": "thm45", "params": {"t1_kernel": "b1", "a": 0.3,
                                     "phase": float("inf")}}]),
     r"checks\[0\] \(thm45\): 'phase' must be finite, got inf"),
    ("nan-tol", lambda raw: raw["checks"][0].update(tol=float("nan")),
     r"checks\[0\]: 'tol' must be finite, got nan"),
    ("kernel-preset", lambda raw: raw["kernels"].update(
        b1={"preset": "szego", "n": 1, "N": 12}),
     r"kernels\[b1\]: 'preset' must be one of bergman, got 'szego'"),
    ("kernel-neither-form", lambda raw: raw["kernels"].update(b1={}),
     r"kernels\[b1\]: missing or null parameter 'preset'"),
    ("kernel-both-forms",
     lambda raw: raw["kernels"]["b1"].update(coeffs=[1.0] * 12),
     r"kernels\[b1\]: unknown key 'coeffs'"),
    ("adjoint-cycle", lambda raw: (raw["operators"].update(
        A={"adjoint_of": {"source": "A"}}), _use_x(raw, "A")),
     r"operators\[A\]: 'adjoint_of': 'source': operators form a cycle "
     r"A -> A"),
    ("odd-swap_pairs", lambda raw: raw["operators"].update(
        P={"swap_pairs": {"size": 3}}),
     r"operators\[P\]: 'swap_pairs': 'size' must be even, got 3"),
    ("radii-with-rmax", lambda raw: raw.update(
        grid={"radii": [0.3], "rmax": 0.5, "n_angles": 4}),
     r"'grid': unknown key 'radii'"),
    ("check-radii-with-n_radii", lambda raw: raw.update(checks=[{
        "check": "frame", "params": {"t0_kernel": "b1", "t1_kernel": "b2",
                                     "grid": {"radii": [0.3], "n_radii": 2}}}]),
     r"checks\[0\] \(frame\): 'grid': unknown key 'radii'"),
    ("matrix-nan", lambda raw: raw["operators"].update(M={"matrix": {
        "rows": 2, "cols": 2, "re": [1.0, float("nan"), 0.0, 2.0],
        "im": [0.0] * 4}}),
     r"operators\[M\]: 'matrix': 're'\[1\] must be finite, got nan"),
    ("matrix-fractional-rows", lambda raw: raw["operators"].update(M={"matrix": {
        "rows": 2.9, "cols": 1, "re": [1, 1], "im": [0, 0]}}),
     r"operators\[M\]: 'matrix': 'rows' must be an integer, got 2.9"),
    ("matrix-string-entry", lambda raw: raw["operators"].update(M={"matrix": {
        "rows": 2, "cols": 1, "re": ["1", 1], "im": [0, 0]}}),
     r"operators\[M\]: 'matrix': 're'\[0\] must be a number, got '1'"),
    ("split-size-zero", lambda raw: raw.update(checks=[{
        "check": "similarity-split", "params": {"size": 0}}]),
     r"checks\[0\] \(similarity-split\): 'size' must be at least 1, got 0"),
    ("two-operator-cycle", lambda raw: (raw["operators"].update(
        A={"adjoint_of": {"source": "B"}},
        B={"poly_of": {"source": "A", "coeffs": [1.0]}}), _use_x(raw, "A")),
     r"operators\[A\]: 'adjoint_of': 'source': operators\[B\]: 'poly_of': "
     r"'source': operators form a cycle A -> B -> A"),
    # a number is read only from a JSON number of its kind: a fraction is
    # not a count, and neither a string nor a bool is a number
    ("fractional-N", lambda raw: raw["kernels"]["b1"].update(N=8.9),
     r"kernels\[b1\]: 'N' must be an integer, got 8.9"),
    ("fractional-n_radii", lambda raw: raw.update(grid={"n_radii": 2.7}),
     r"'grid': 'n_radii' must be an integer, got 2.7"),
    ("string-n_angles", lambda raw: raw.update(grid={"n_angles": "4"}),
     r"'grid': 'n_angles' must be an integer, got '4'"),
    ("boolean-size", lambda raw: _random_spec(raw).update(size=True),
     r"operators\[Xn\]: 'random': 'size' must be an integer, got True"),
    ("string-norm", lambda raw: _random_spec(raw).update(norm="0.8"),
     r"operators\[Xn\]: 'random': 'norm' must be a number, got '0.8'"),
    ("boolean-rmax", lambda raw: raw.update(grid={"rmax": False}),
     r"'grid': 'rmax' must be a number, got False"),
    ("string-tol", lambda raw: raw["checks"][0].update(tol="1e-9"),
     r"checks\[0\]: 'tol' must be a number, got '1e-9'"),
    ("string-a", lambda raw: raw.update(checks=[{
        "check": "thm45", "params": {"t1_kernel": "b1", "a": "0.3"}}]),
     r"checks\[0\] \(thm45\): 'a' must be a complex number, got '0.3'"),
    ("boolean-a-pair", lambda raw: raw.update(checks=[{
        "check": "thm45", "params": {"t1_kernel": "b1", "a": [0.3, True]}}]),
     r"checks\[0\] \(thm45\): 'a' must be a complex number, got \[0.3, True\]"),
    ("negative-seed", lambda raw: raw.update(seed=-4),
     r"'seed' must be at least 0, got -4"),
    ("negative-operator-seed", lambda raw: _random_spec(raw).update(seed=-1),
     r"operators\[Xn\]: 'random': 'seed' must be at least 0, got -1"),
    ("negative-tol", lambda raw: raw["checks"][0].update(tol=-1e-9),
     r"checks\[0\]: 'tol' must be at least 0, got -1e-09"),
    # a check's label is its id, else check#index, and names it in the
    # report and its timings
    ("list-id", lambda raw: raw["checks"][0].update(id=["x"]),
     r"checks\[0\]: 'id' must be a nonempty string, got \['x'\]"),
    ("integer-id", lambda raw: raw["checks"][0].update(id=7),
     r"checks\[0\]: 'id' must be a nonempty string, got 7"),
    ("empty-id", lambda raw: raw["checks"][0].update(id=""),
     r"checks\[0\]: 'id' must be a nonempty string, got ''"),
    ("repeated-id", lambda raw: raw["checks"].extend(
        [{"check": "similarity-split", "id": "x"}] * 2),
     r"checks\[2\]: label 'x' is also that of checks\[1\]"),
    ("id-as-default-label", lambda raw: raw["checks"].extend(
        [{"check": "similarity-split"},
         {"check": "similarity-split", "id": "similarity-split#1"}]),
     r"checks\[2\]: label 'similarity-split#1' is also that of checks\[1\]"),
    ("default-label-as-id", lambda raw: raw["checks"].extend(
        [{"check": "similarity-split", "id": "similarity-split#2"},
         {"check": "similarity-split"}]),
     r"checks\[2\]: label 'similarity-split#2' is also that of checks\[1\]"),
    ("null-check", lambda raw: raw["checks"][0].update(check=None),
     r"checks\[0\]: missing or null parameter 'check'"),
    ("list-check", lambda raw: raw["checks"][0].update(check=["mainlemma"]),
     r"checks\[0\]: 'check' must be one of corollary-theta, .*, thm45, "
     r"got \['mainlemma'\]"),
    ("number-checks-item", lambda raw: raw["checks"].append(5),
     r"'checks'\[1\] must be an object, got 5"),
    ("empty-name", lambda raw: raw.update(name=""),
     r"'name' must be a nonempty string, got ''"),
    # a norm or an rmax of 0 or below builds an operator of flipped sign or a
    # grid of the point 0 or of negative radii
    ("negative-norm", lambda raw: _random_spec(raw).update(norm=-0.5),
     r"operators\[Xn\]: 'random': 'norm' must be positive, got -0.5"),
    ("zero-rmax", lambda raw: raw.update(grid={"rmax": 0}),
     r"'grid': 'rmax' must be positive, got 0"),
    ("negative-rmax", lambda raw: raw.update(grid={"rmax": -0.6}),
     r"'grid': 'rmax' must be positive, got -0.6"),
]

# (check, or "kernel" for a kernel spec, its params holding a key that is
# gone, that key); each value is now a constant of the check, and a coeffs
# label would grade custom coefficients against the Bergman closed form
REMOVED_KEYS = [
    ("curvature", {"kernels": ["b1"], "fd_tol": 1e-4}, "fd_tol"),
    ("curvature-isometry", {"model": {"t0_kernel": "b1", "t1_kernel": "b2"},
                            "min_notfound_fraction": 0.9}, "min_notfound_fraction"),
    ("frame", {"t0_kernel": "b1", "t1_kernel": "b2", "x_norm": 0.5}, "x_norm"),
    ("mobius-block", {"involution_tol": 1e-9}, "involution_tol"),
    ("mobius-block", {"size": 6}, "size"),
    ("mobius-block", {"block_norm": 0.5}, "block_norm"),
    ("mobius-block", {"maps": "default12"}, "maps"),
    ("mobius-block", {"model": {"t0_kernel": "b1", "t1_kernel": "b2"}}, "model"),
    ("separator", {"k0": "b1", "k1": "b2", "radii": [0.9, 0.99, 0.999]}, "radii"),
    ("separator", {"k0": "b1", "k1": "b2", "max_final_ratio": 0.05},
     "max_final_ratio"),
    ("similarity-split", {"model": {"t0_kernel": "b1", "t1_kernel": "b2"}},
     "model"),
    ("kernel", {"coeffs": [1.0] * 12, "label": "bergman(2)"}, "label"),
]


class TestScenarioSchema:
    def test_unknown_check_rejected(self):
        bad = _tiny_scenario(checks=[{"check": "no-such-check"}])
        with pytest.raises(SchemaError):
            Scenario.from_dict(bad)

    def test_random_operator_requires_seed(self):
        bad = _tiny_scenario(
            operators={"Xn": {"random": {"size": 12, "norm": 0.5}}})
        with pytest.raises(SchemaError, match="is random but neither"):
            Scenario.from_dict(bad)

    def test_scenario_seed_covers_random_sources(self):
        ok = _tiny_scenario(
            seed=7, operators={"Xn": {"random": {"size": 12, "norm": 0.5}}})
        Scenario.from_dict(ok)

    def test_name_and_checks_required(self):
        with pytest.raises(SchemaError):
            Scenario.from_dict({"checks": [{"check": "mainlemma"}]})
        with pytest.raises(SchemaError):
            Scenario.from_dict({"name": "x", "checks": []})

    def test_json_syntax_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "checks": [,]}')
        with pytest.raises(SchemaError, match="broken.json:2"):
            Scenario.load(path)

    def test_non_utf8_file_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "\xff", "checks": [{"check": "thm45"}]}')
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: byte 10 is not UTF-8")):
            Scenario.load(path)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: byte 10 is not UTF-8\n"

    def test_zero_tolerance_fails_with_nonzero_residual(self):
        raw = _tiny_scenario()
        raw["checks"][0]["tol"] = 0.0
        result = run_scenario(Scenario.from_dict(raw))
        assert not result.overall
        conditions = result.outcomes[0].report.conditions
        assert any(c.residual > 0 for c in conditions)

    def test_campaign_continues_past_failures(self):
        raw = _tiny_scenario()
        raw["operators"]["Xd"] = {"random": {"size": 12, "seed": 4, "norm": 0.8}}
        raw["checks"] = [
            # a dense X is not normal: the main lemma's precondition fails
            {"check": "mainlemma", "tol": 1e-9,
             "params": {"t0_kernel": "b1", "t1_kernel": "b2", "x": "Xd"}},
            {"check": "similarity-split", "tol": 1e-12,
             "params": {"trials": 2, "seed": 1, "size": 4}},
        ]
        result = run_scenario(Scenario.from_dict(raw))
        assert not result.outcomes[0].passed
        assert result.outcomes[0].error.startswith("PreconditionError: ")
        assert result.outcomes[1].passed

    @pytest.mark.parametrize("check,params,key", [
        ("frame", {"t0_kernel": "b1", "t1_kernel": "b2", "trials": 0}, "trials"),
        ("mobius-block", {"trials": 0}, "trials"),
        ("mobius-block", {"trials": -2}, "trials"),
        ("similarity-split", {"trials": 0, "size": 4}, "trials"),
        ("similarity-split", {"size": 0}, "size"),
        ("homogeneity", {"model": {"t0_op": "Xn", "t1_op": "Xn", "x": "Xn"},
                         "witness": []}, "witness"),
    ], ids=["frame-trials", "mobius-trials", "mobius-negative-trials",
            "split-trials", "split-size", "homogeneity-maps"])
    def test_empty_counts_rejected(self, check, params, key):
        # these would otherwise pass with residual 0 without testing anything
        raw = _tiny_scenario(seed=3)
        raw["checks"].append({"check": check, "params": params})
        with pytest.raises(SchemaError,
                           match=rf"checks\[1\] \({check}\): '{key}' must"):
            run_scenario(Scenario.from_dict(raw))

    def test_singular_resolvent_fails_only_that_check(self):
        raw = _tiny_scenario(operators={
            "two": {"scalar": {"size": 3, "value": 2.0}},
            "x": {"identity": {"size": 3}}})
        model = {"t0_op": "two", "t1_op": "x", "x": "x"}
        raw["checks"] = [
            {"check": "similarity-split", "tol": 1e-12, "params": {"size": 3}},
            # 1 - conj(a) 2 vanishes at a = 0.5: the third map is singular
            {"check": "homogeneity", "id": "singular",
             "params": {"model": model, "witness": [
                 {"a": a, "u0": "x", "u1": "x"}
                 for a in (0.1, [0.0, 0.3], 0.5)]}},
            {"check": "fb2-membership",
             "params": {"model": model, "expect": "nonmember"}},
        ]
        result = run_scenario(Scenario.from_dict(raw))
        first, singular, last = result.outcomes
        assert singular.report is None
        assert singular.error.startswith("SingularResolventError: ")
        assert "of map 2 (a = 0.5+0j)" in singular.error
        assert first.passed and last.passed
        assert not result.overall

    @pytest.mark.parametrize("check,params,match", [
        ("similarity-split", {"trails": 0}, "unknown key 'trails'"),
        ("fb2-membership", {"model": {"t0_kernel": "b1", "t1_kernel": "b2",
                                      "x": "Xn"}, "expect": "non-member"},
         "'expect' must be one of member, nonmember, got 'non-member'"),
        ("curvature-isometry", {"model": {"t0_kernel": "b1", "t1_kernel": "b2"},
                                "mode": "independent"}, "unknown key 'mode'"),
        ("mainlemma", {"t0_kernel": "b1", "t1_kernel": "b2"},
         "missing or null parameter 'x'"),
        ("mobius-block", {"trials": None}, "missing or null parameter 'trials'"),
        ("sylvester", {"cases": [{"a": "Xn", "b": "Xn", "expected_dim": 12},
                                 None]},
         r"'cases'\[1\] must be an object, got None"),
        ("mainlemma", {"t0_kernel": "b1", "t1_kernel": "b3", "x": "Xn"},
         "'t1_kernel': kernel 'b3' is not defined"),
        ("mainlemma", {"t0_kernel": "b1", "t1_kernel": "b2", "x": "X"},
         "'x': operator 'X' is not defined"),
        ("homogeneity", {"model": {"t0_op": "Xn", "t1_op": "Y"},
                         "witness": [{"a": 0.4, "u0": "Xn", "u1": "Xn"}]},
         "'model': 't1_op': operator 'Y' is not defined"),
        ("frame", {"t0_kernel": "b1", "t1_kernel": "b2", "seed": "abc"},
         "'seed' must be an integer, got 'abc'"),
        ("curvature", {"kernel": "b1"}, "unknown key 'kernel'"),
        ("kernel-transform", {"model": {"t0_kernel": "b1", "t1_kernel": "b2"},
                              "mode": "swap"}, "unknown key 'mode'"),
        ("fb2-membership", {"model": {"t0_kernel": "b1", "t1_kernel": "b2",
                                      "x_scalar": 0.5}},
         "'model': unknown key 'x_scalar'"),
        ("corollary-theta", {"t0_kernel": "b1", "t1_kernel": "b2"},
         "missing or null parameter 'theta0'"),
        ("main3", {"k0": "b1"}, "unknown key 'k0'"),
        ("kernel-transform", {"model": {"t0_kernel": "b1"}},
         "'model': missing or null parameter 't1_kernel'"),
        ("kernel-transform", {"model": {"t0_kernel": "b1", "t1_kernel": "b2",
                                        "t0_op": "Xn"}},
         "'model': unknown key 't0_op'"),
        ("homogeneity", {"model": {"t0_op": "Xn", "t1_op": "Xn"},
                         "witness": [{"a": 0.4, "u0": "Xn"}]},
         r"'witness'\[0\]: missing or null parameter 'u1'"),
        ("curvature", {"kernels": ["b1", None]},
         r"'kernels'\[1\] must be a kernel name, got None"),
        ("mobius-block", {"trials": 2.5}, "'trials' must be an integer, got 2.5"),
        ("frame", {"t0_kernel": "b1", "t1_kernel": "b2",
                   "grid": {"n_angles": "4"}},
         "'grid': 'n_angles' must be an integer, got '4'"),
        ("similarity-split", {"size": True}, "'size' must be an integer, got True"),
        ("mobius-block", {"seed": -4}, "'seed' must be at least 0, got -4"),
    ], ids=["unknown-key", "expect", "mode", "missing", "null", "null-item",
            "undefined-kernel", "undefined-operator",
            "undefined-nested-operator", "seed", "kernel-alias",
            "transform-mode", "x_scalar", "theta-without-theta0", "main3-k0",
            "one-block-model", "mixed-model", "witness-without-u1",
            "null-kernel-item", "fractional-count", "string-count",
            "boolean-size", "negative-seed"])
    def test_params_checked_at_load(self, check, params, match, tmp_path):
        raw = _tiny_scenario()
        raw["checks"].append({"check": check, "params": params})
        with pytest.raises(SchemaError, match=rf"checks\[1\] \({check}\): "
                                              rf".*{match}"):
            Scenario.from_dict(raw)
        path = tmp_path / "bad-params.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("section,spec,key", REMOVED_KEYS,
                             ids=[f"{case[0]}-{case[2]}" for case in REMOVED_KEYS])
    def test_removed_keys_are_unknown(self, section, spec, key, tmp_path):
        raw = _tiny_scenario()
        if section == "kernel":
            raw["kernels"]["c"] = spec
            where = r"kernels\[c\]"
        else:
            raw["checks"].append({"check": section, "params": spec})
            where = rf"checks\[1\] \({section}\)"
        with pytest.raises(SchemaError, match=rf"{where}: unknown key '{key}'"):
            Scenario.from_dict(raw)
        path = tmp_path / "removed-key.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2

    def test_unknown_keys_rejected(self):
        raw = _tiny_scenario()
        raw["checks"][0]["parms"] = raw["checks"][0].pop("params")
        with pytest.raises(SchemaError, match=r"checks\[0\]: unknown key 'parms'"):
            Scenario.from_dict(raw)
        with pytest.raises(SchemaError, match="unknown key 'grids'"):
            Scenario.from_dict(_tiny_scenario(grids={}))

    def test_only_check_filter(self):
        raw = _tiny_scenario()
        raw["checks"].append({"check": "similarity-split", "tol": 1e-12,
                              "params": {"trials": 1, "seed": 1, "size": 4}})
        result = run_scenario(Scenario.from_dict(raw),
                              only_check="similarity-split")
        assert [o.check for o in result.outcomes] == ["similarity-split"]
        with pytest.raises(SchemaError):
            run_scenario(Scenario.from_dict(raw), only_check="curvature")

    def test_every_source_builds_as_its_direct_construction(self, tmp_path):
        from cdlab.homogeneity import MobiusMap
        from cdlab.kernels import DiagonalKernel, bergman_kernel
        from cdlab.operators import random_operator, shift_from_kernel
        from cdlab.scenarios import ScenarioContext

        x = np.array([[1 + 2j, 0.5], [-1j, 3.25]])
        (tmp_path / "x.json").write_text(json.dumps(matrix_to_json(x)))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        mob = MobiusMap(a=0.4 + 0.1j, phase=0.3)
        custom = DiagonalKernel(np.array([1.0, 2.5]), label="custom")
        cases = {
            "file": ({"file": "x.json"}, x),
            "matrix": ({"matrix": matrix_to_json(x)}, x),
            "shift-preset": ({"shift_from": "b2"},
                             shift_from_kernel(bergman_kernel(2, 6)).matrix),
            "shift-coeffs": ({"shift_from": "c"},
                             shift_from_kernel(custom).matrix),
            "random": ({"random": {"size": 5, "seed": 3, "norm": 0.8,
                                   "kind": "normal"}},
                       random_operator(5, 3, norm=0.8, kind="normal")),
            "random-scenario-seed": ({"random": {"size": 4}},
                                     random_operator(4, 11)),
            "identity": ({"identity": {"size": 3}}, np.eye(3, dtype=complex)),
            "scalar": ({"scalar": {"size": 3, "value": [0.5, -2.0]}},
                       (0.5 - 2j) * np.eye(3, dtype=complex)),
            "diagonal": ({"diagonal": {"values": [[1, 0], 2.5, [0, -1]]}},
                         np.diag(np.array([1, 2.5, -1j]))),
            "adjoint": ({"adjoint_of": {"source": "matrix"}}, x.conj().T),
            "poly": ({"poly_of": {"source": "file", "coeffs": [1, 0.5, [0, 2]]}},
                     np.eye(2) + 0.5 * x + 2j * (x @ x)),
            "swap": ({"swap_pairs": {"size": 4}},
                     np.kron(np.eye(2, dtype=complex), swap)),
            "mobius": ({"mobius_pair_diagonal": {
                "a": [0.4, 0.1], "phase": 0.3, "seeds": [[0.2, 0.0], [0.0, -0.3]]}},
                np.diag([0.2, mob.scalar(0.2), -0.3j, mob.scalar(-0.3j)])),
        }
        raw = {"name": "every-source", "seed": 11,
               "kernels": {"b2": {"preset": "bergman", "n": 2, "N": 6},
                           "c": {"coeffs": [1.0, 2.5]},
                           "d": {"coeffs": [1.0, 0.5, 0.25]}},
               "operators": {name: spec for name, (spec, _) in cases.items()},
               "checks": [{"check": "similarity-split"}]}
        path = tmp_path / "every-source.json"
        path.write_text(json.dumps(raw))
        ctx = ScenarioContext(Scenario.load(path))
        for name, (_, expected) in cases.items():
            built = ctx.operator(name, name)
            assert built.dtype == complex, name
            np.testing.assert_array_equal(built, expected, err_msg=name)
        for name, expected in (("b2", bergman_kernel(2, 6)), ("c", custom),
                               ("d", DiagonalKernel(np.array([1.0, 0.5, 0.25]),
                                                    label="custom"))):
            kern = ctx.kernel(name, name)
            assert kern.label == expected.label
            np.testing.assert_array_equal(kern.coefficients,
                                          expected.coefficients)

    def test_matrix_file_operator_source(self, tmp_path):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        (tmp_path / "x.json").write_text(json.dumps(matrix_to_json(mat)))
        raw = {
            "name": "file-op",
            "operators": {"A": {"file": "x.json"},
                          "B": {"adjoint_of": {"source": "A"}}},
            "checks": [{"check": "sylvester", "params": {"cases": [
                {"a": "A", "b": "A", "expected_dim": 2},
            ]}}],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        result = run_scenario(path)
        assert result.overall, result.summary()


class TestCli:
    def test_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mainlemma" in out and "separator" in out
        lines = [line.split() for line in out.splitlines()]
        for line in (["trials", "count", "=", "1"], ["x", "operator"],
                     ["expect", "member", "|", "nonmember", "=", "'member'"],
                     ["seed", "seed,", "optional"],
                     ["cases", "[sylvester_case]"],
                     ["model", "kernel_model", "|", "operator_model"],
                     ["model_b", "kernel_model", "|", "operator_model,",
                      "optional"], ["engineered_from", "kernel"]):
            assert line in lines, line

    def test_run_bundled_by_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "corollary-theta"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_verify_filters_to_one_check(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "corollary-theta", "--only", "thm45"]) == 0
        out = capsys.readouterr().out
        assert "thm45" in out and "corollary-theta#0" not in out

    def test_missing_scenario_is_usage_error(self):
        assert main(["run", "definitely-not-a-scenario"]) == 2

    def test_verify_unknown_check_is_usage_error(self):
        assert main(["run", "corollary-theta", "--only", "no-such-check"]) == 2
        # `verify` is no longer a subcommand: argparse's own usage error
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm45", "corollary-theta"])
        assert exc.value.code == 2

    def test_verification_failure_exit_code(self, tmp_path):
        raw = _tiny_scenario()
        raw["checks"][0]["tol"] = 0.0
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1

    def test_schema_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_non_numeric_tol_is_usage_error(self, tmp_path):
        raw = _tiny_scenario()
        raw["checks"][0]["tol"] = "abc"
        with pytest.raises(SchemaError, match=r"checks\[0\]: 'tol' must be a number"):
            Scenario.from_dict(raw)
        path = tmp_path / "bad-tol.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("mutate,match", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_scenario_is_usage_error(self, tmp_path, capsys, mutate,
                                               match):
        raw = _tiny_scenario()
        mutate(raw)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.match(rf"error: {re.escape(str(path))}: {match}", err), err

    def test_run_writes_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = tmp_path / "reports" / "out.json"
        assert main(["run", "corollary-theta", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["overall"] is True

    def test_curvature_export(self, tmp_path):
        out = tmp_path / "field.csv"
        code = main(["curvature", "--kernel", "bergman:2", "--rmax", "0.4",
                     "--n-radii", "2", "--n-angles", "4", "--truncation", "40",
                     "--derivative", "1,0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["re_w", "im_w"]
        assert "K_00_re" in header and "K_w1wb0_00_re" in header
        assert len(lines) == 1 + 2 * 4

    @pytest.mark.parametrize("args", [
        ["--kernel", "szego-2"],
        ["--kernel", "bergman:x"],
        ["--kernel", "bergman:0"],
        ["--kernel", "bergman:2.5"],
        ["--kernel", "bergman:-1"],
        ["--kernel", "bergman:2", "--truncation", "0"],
        ["--kernel", "bergman:2", "--derivative", "1"],
        ["--kernel", "bergman:2", "--derivative=-1,0"],
        ["--kernel", "bergman:2", "--rmax", "1.5"],
        ["--kernel", "bergman:2", "--rmax", "nan"],
        ["--kernel", "bergman:2", "--n-radii", "0"],
        ["--kernel", "bergman:2", "--n-angles", "0"],
        ["--kernel", "bergman:2", "--fd-step", "0"],
        ["--kernel", "bergman:2", "--fd-step", "nan"],
    ], ids=lambda args: "_".join(args[2:]).lstrip("-") or args[1])
    def test_curvature_usage_error(self, args, tmp_path, capsys):
        try:
            code = main(["curvature", *args, "--out", str(tmp_path / "f.csv")])
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert "error: " in err.splitlines()[-1]
        assert not (tmp_path / "f.csv").exists()


class TestReadme:
    def _section(self) -> str:
        text = README.read_text(encoding="utf-8")
        return text[text.index("## Scenario files"):text.index("## Scripts")]

    def test_example_scenario_runs(self, tmp_path, monkeypatch):
        example = re.search(r"```json\n(.*?)```", self._section(), re.S)[1]
        monkeypatch.chdir(tmp_path)
        result = run_scenario(Scenario.from_dict(json.loads(example)))
        assert result.overall, result.summary()

    def test_every_declared_key_and_default_is_listed(self):
        section = self._section()
        for source, kind in SOURCES.items():
            assert f"| `{source}` |" in section, source
        forms = [kind for kind in SOURCES.values() if not isinstance(kind, str)]
        for form in forms + [*KERNEL, *MODEL, _grid]:
            for name, doc in parameter_docs(form):
                assert f"`{name}`" in section, name
                default = doc.partition(" = ")[2].strip("'")
                assert default in section, (name, default)


# (id, a matrix object the reader refuses, the message that follows its
# location); a count is never a fraction or a bool, and an entry never a
# string or a bool
MATRIX_MALFORMED = [
    ("fractional-rows", {"rows": 2.9, "cols": 1, "re": [1, 1], "im": [0, 0]},
     r"'rows' must be an integer, got 2.9"),
    ("boolean-cols", {"rows": 2, "cols": True, "re": [1, 1], "im": [0, 0]},
     r"'cols' must be an integer, got True"),
    ("string-entry", {"rows": 2, "cols": 1, "re": ["1", 1], "im": [0, 0]},
     r"'re'\[0\] must be a number, got '1'"),
    ("boolean-entry", {"rows": 2, "cols": 1, "re": [1, True], "im": [0, 0]},
     r"'re'\[1\] must be a number, got True"),
    ("coerced", {"rows": 2.9, "cols": True, "re": ["1", True], "im": [0, 0]},
     r"'rows' must be an integer, got 2.9"),
    ("zero-rows", {"rows": 0, "cols": 2, "re": [1], "im": [0]},
     r"'rows' must be at least 1, got 0"),
    ("long-im", {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0, 1.0]},
     r"'re' and 'im' must each hold rows x cols = 1 numbers, got 1 and 2"),
    ("unknown-key", {"rows": 1, "cols": 1, "re": [1], "im": [0], "dtype": "c"},
     r"unknown key 'dtype'"),
    ("infinite-im", {"rows": 1, "cols": 3, "re": [1, 2, 3],
                     "im": [0, float("-inf"), float("inf")]},
     r"'im'\[1\] must be finite, got -inf"),
    ("huge-int-entry", {"rows": 1, "cols": 1, "re": [10 ** 400], "im": [0]},
     r"'re'\[0\] must be a number, got 1000"),
]


def _matrix_scenario(tmp_path, source: str, spec) -> Path:
    """A scenario file whose operator M is {source: spec}; its sylvester
    checks build M and then the identity D."""
    raw = {"name": "matrix-source",
           "operators": {"M": {source: spec}, "D": {"identity": {"size": 2}}},
           "checks": [{"check": "sylvester", "params": {"cases": [
               {"a": name, "b": name, "expected_dim": 4}]}} for name in "MD"]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


class TestMatrixSerialization:
    """The matrix wire format, read through the `matrix` and `file` sources."""

    def _refused(self, tmp_path, obj, match):
        """`obj` is a load-time schema error inline, and from a file a schema
        error of the one check that builds it, naming the file."""
        with pytest.raises(SchemaError,
                           match=rf"operators\[M\]: 'matrix': {match}"):
            Scenario.load(_matrix_scenario(tmp_path, "matrix", obj))
        (tmp_path / "m.json").write_text(json.dumps(obj))
        bad, good = run_scenario(_matrix_scenario(tmp_path, "file", "m.json")).outcomes
        assert re.match(rf"SchemaError: {re.escape(str(tmp_path / 'm.json'))}: "
                        rf"{match}", bad.error), bad.error
        assert good.passed

    def test_round_trip(self, tmp_path):
        from cdlab.scenarios import ScenarioContext

        mat = np.array([[1 + 2j, 0.5], [-1j, 3.25]])
        (tmp_path / "m.json").write_text(json.dumps(matrix_to_json(mat)))
        # JSON integers are numbers too
        ints = {"rows": 2, "cols": 2, "re": [1, 0.5, 0, 3.25], "im": [2, 0, -1, 0]}
        for source, spec in (("file", "m.json"), ("matrix", matrix_to_json(mat)),
                             ("matrix", ints)):
            ctx = ScenarioContext(Scenario.load(_matrix_scenario(tmp_path, source,
                                                                 spec)))
            np.testing.assert_array_equal(ctx.operator("M", "M"), mat)

    def test_wire_shape(self):
        obj = matrix_to_json(np.array([[1 + 2j]]))
        assert obj == {"rows": 1, "cols": 1, "re": [1.0], "im": [2.0]}

    def test_bad_payloads(self, tmp_path):
        self._refused(tmp_path, {"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]},
                      r"'re' and 'im' must each hold rows x cols = 4 numbers, "
                      r"got 1 and 1")
        self._refused(tmp_path, {"rows": 2},
                      r"missing or null parameter 'cols'")

    @pytest.mark.parametrize("obj,match", [case[1:] for case in MATRIX_MALFORMED],
                             ids=[case[0] for case in MATRIX_MALFORMED])
    def test_file_refuses_what_inline_refuses(self, tmp_path, obj, match):
        self._refused(tmp_path, obj, match)

    def test_load_refuses_infinity(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": 1, "cols": 3, "re": [1, 2, 3], '
                        '"im": [0, -Infinity, Infinity]}')
        bad, _ = run_scenario(_matrix_scenario(tmp_path, "file", "m.json")).outcomes
        assert bad.error == (f"SchemaError: {path}: 'im'[1] must be finite, "
                             "got -inf")

    def test_non_finite_file_fails_only_its_check(self, tmp_path):
        (tmp_path / "x.json").write_text(
            '{"rows": 2, "cols": 2, "re": [1, NaN, 0, 2], "im": [0, 0, 0, 0]}')
        raw = {"name": "nan-file",
               "operators": {"A": {"file": "x.json"}, "D": {"identity": {"size": 2}}},
               "checks": [{"check": "sylvester", "params": {"cases": [
                   {"a": name, "b": name, "expected_dim": dim}]}}
                   for name, dim in (("A", 2), ("D", 4))]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        bad, good = run_scenario(path).outcomes
        assert bad.error == (f"SchemaError: {tmp_path / 'x.json'}: 're'[1] must be "
                             "finite, got nan")
        assert good.passed


def test_indeterminate_condition_serializes_as_null():
    from cdlab.reporting import ConditionReport

    report = ConditionReport(name="demo")
    report.add_indeterminate("skipped", 1e-9, detail="inverse unavailable")
    body = json.dumps(report.to_dict(), allow_nan=False)
    assert '"residual": null' in body
    assert not report.overall


def _strict_json(text: str):
    """`json.loads` that refuses NaN, Infinity and -Infinity."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def test_failed_phase_relation_writes_its_residual(tmp_path):
    # a phase relation that fails at tol 0 reports the residual of the
    # least-squares phase, a finite rounding-level figure, as a failure
    raw = json.loads((bundled_scenario_dir() / "corollary-theta.json").read_text())
    raw["checks"] = [dict(raw["checks"][0], tol=0)]
    scenario, report = tmp_path / "theta-tol0.json", tmp_path / "report.json"
    scenario.write_text(json.dumps(raw))
    assert main(["run", str(scenario), "--report", str(report)]) == 1
    body = _strict_json(report.read_text())
    (condition,) = body["checks"][0]["conditions"]
    assert condition["name"] == "relation-accepted"
    assert 0.0 < condition["residual"] < 1e-12 and condition["status"] == "fail"


def test_non_finite_info_floats_are_null():
    import math

    from cdlab.reporting import ConditionReport
    from cdlab.scenarios import CampaignResult, CheckOutcome

    report = ConditionReport(name="demo")
    report.add("unbounded", math.inf, 1e-9)
    report.info.update(kappa=math.inf, pair=complex(1.0, math.nan),
                       values=np.array([-np.inf, 2.0]), count=np.int64(3))
    result = CampaignResult(scenario="demo", outcomes=[
        CheckOutcome(label="demo#0", check="demo", report=report, error=None,
                     elapsed=0.0)])
    (check,) = _strict_json(result.to_json())["checks"]
    assert check["conditions"][0]["residual"] is None
    assert check["info"] == {"kappa": None, "pair": [1.0, None],
                             "values": [None, 2.0], "count": 3}
    # a non-finite float that reaches the dump raises instead of being written
    result.environment["leak"] = math.nan
    with pytest.raises(ValueError):
        result.to_json()


class TestFieldExports:
    def _field(self):
        from cdlab.geometry import (covariant_derivative, curvature,
                                    gram_metric, kernel_frame, polar_grid)
        from cdlab.kernels import bergman_kernel

        grid = polar_grid(radii=[0.3], n_angles=4)
        metric = gram_metric(kernel_frame(bergman_kernel(1, 30), grid))
        fld = curvature(metric, grid, "series")
        covariant_derivative(fld, metric, 0, 1)
        return fld

    def test_json_mirror_matches_csv_schema(self):
        from cdlab.serialize import curvature_field_to_json

        body = curvature_field_to_json(self._field())
        assert body["rank"] == 1 and body["method"] == "series"
        assert len(body["points"]) == 4
        point = body["points"][0]
        assert set(point) == {"re_w", "im_w", "K", "K_w0wb1"}
        assert len(point["K"]["re"]) == 1 and len(point["K"]["im"]) == 1

    def test_curvature_csv_columns(self, tmp_path):
        from cdlab.serialize import write_curvature_csv

        out = tmp_path / "f.csv"
        write_curvature_csv(out, {"bergman(1)": self._field()})
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("re_w,im_w,K_00_re,K_00_im,"
                            "K_w0wb1_00_re,K_w0wb1_00_im,kernel")
        assert len(lines) == 5
        assert all(line.endswith(",bergman(1)") for line in lines[1:])

    def test_curvature_csv_refuses_mismatched_fields(self, tmp_path):
        from cdlab.serialize import write_curvature_csv

        bare = self._field()
        bare.derivatives.clear()
        with pytest.raises(SchemaError, match="one rank and one set"):
            write_curvature_csv(tmp_path / "f.csv",
                                {"a": self._field(), "b": bare})

    def test_ratio_csv_columns(self, tmp_path):
        from cdlab.kernels import bergman_kernel, diagonal_ratio
        from cdlab.serialize import write_ratio_csv

        k = bergman_kernel(1, 200)
        samples = diagonal_ratio(k, k, [0.1, 0.5])
        out = tmp_path / "r.csv"
        write_ratio_csv(out, samples)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "radius,k0,k1,ratio"
        assert len(lines) == 3
        assert lines[1].startswith("0.1,")
