"""Scenario files, operator synthesis, the check registry, and the campaign runner.

A scenario is a JSON document naming kernels, operators, a grid, and a list
of checks with tolerances.  Checks run in listed order (optionally on a
thread pool capped by CDLAB_THREADS); any exception inside one check marks
it failed and the campaign continues.  Identical scenario + seed gives
identical report bodies, timing aside.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .equivalence import (AntidiagonalTransform, BlockUnitary,
                          build_unitary_from_x, construct_fb2_pair,
                          kernel_transform_check, main3_verifier,
                          theta_intertwiner_check, verify_mainlemma)
from .errors import CdlabError, SchemaError
from .geometry import (DiskGrid, covariant_derivative, curvature,
                       curvature_isometry_check, eigenframe, gram_metric,
                       kernel_frame, polar_grid)
from .homogeneity import (MobiusMap, WitnessEntry, apply_maps,
                          homogeneity_condition_check,
                          mobius_block_identity_check, mobius_sample_set,
                          thm45_condition_check)
from .kernels import (DiagonalKernel, bergman_kernel, diagonal_ratio,
                      kernel_from_spec, required_truncation, separator_kernel)
from .operators import (ModelOperator, UpperTriangularModel, assemble_model,
                        block_matrix, fb2_membership, frobenius,
                        random_operator, random_unitary, shift_from_kernel,
                        similarity_split, sylvester_kernel)
from .reporting import ConditionReport
from .serialize import (load_matrix, matrix_from_json, write_curvature_csv,
                        write_ratio_csv)


# ---------------------------------------------------------------------------
# scenario context

SCENARIO_KEYS = frozenset({"name", "seed", "kernels", "operators", "grid",
                           "checks", "outputs"})
CHECK_KEYS = frozenset({"check", "id", "tol", "params"})
# Parameters that, left empty, would let a check pass without testing
# anything: a trial count must be positive and a map list nonempty.
COUNT_PARAMS = {"frame": ("trials",), "mobius-block": ("trials", "maps"),
                "similarity-split": ("trials",), "homogeneity": ("maps",)}


def _reject_unknown_keys(raw: dict, allowed: frozenset, where: str):
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}; allowed keys are "
                          f"{', '.join(sorted(allowed))}")


def _reject_empty_counts(check: dict, where: str):
    params = check.get("params", {})
    for key in COUNT_PARAMS.get(check["check"], ()):
        if key not in params:
            continue
        value = params[key]
        if key == "trials":
            try:
                empty = int(value) < 1
            except (TypeError, ValueError, OverflowError):
                raise SchemaError(f"{where}: 'trials' must be an integer, "
                                  f"got {value!r}") from None
            if empty:
                raise SchemaError(f"{where}: 'trials' must be at least 1, "
                                  f"got {value!r}")
        elif value != "default12" and (not isinstance(value, list) or not value):
            raise SchemaError(f"{where}: 'maps' must be \"default12\" or a "
                              f"nonempty list, got {value!r}")


@dataclass
class Scenario:
    name: str
    seed: int | None
    kernel_specs: dict
    operator_specs: dict
    grid_spec: dict
    checks: list[dict]
    outputs: dict
    base_dir: Path
    grid: DiskGrid | None = field(default=None, repr=False)

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        return cls.from_dict(raw, base_dir=path.parent, origin=str(path))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path = Path("."),
                  origin: str = "<dict>") -> "Scenario":
        if not isinstance(raw, dict):
            raise SchemaError(f"{origin}: scenario must be a JSON object")
        _reject_unknown_keys(raw, SCENARIO_KEYS, origin)
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise SchemaError(f"{origin}: 'name' must be a nonempty string")
        checks = raw.get("checks")
        if not isinstance(checks, list) or not checks:
            raise SchemaError(f"{origin}: 'checks' must be a nonempty list")
        seed = raw.get("seed")
        scenario = cls(
            name=name,
            seed=None if seed is None else int(seed),
            kernel_specs=raw.get("kernels", {}),
            operator_specs=raw.get("operators", {}),
            grid_spec=raw.get("grid", {}),
            checks=checks,
            outputs=raw.get("outputs", {}),
            base_dir=base_dir,
        )
        scenario._validate(origin)
        return scenario

    def _validate(self, origin: str):
        for key, value in (("kernels", self.kernel_specs),
                           ("operators", self.operator_specs),
                           ("outputs", self.outputs)):
            if not isinstance(value, dict):
                raise SchemaError(f"{origin}: '{key}' must be an object")
        for idx, check in enumerate(self.checks):
            where = f"{origin}: checks[{idx}]"
            if not isinstance(check, dict):
                raise SchemaError(f"{where} must be an object")
            _reject_unknown_keys(check, CHECK_KEYS, where)
            if not isinstance(check.get("params", {}), dict):
                raise SchemaError(f"{where}: 'params' must be an object")
            kind = check.get("check")
            if kind not in REGISTRY:
                raise SchemaError(
                    f"{where}: unknown check {kind!r}; see `cdlab list`")
            _reject_empty_counts(check, f"{where} ({kind})")
            if "tol" in check:
                try:
                    tol = float(check["tol"])
                except (TypeError, ValueError):
                    raise SchemaError(
                        f"{where}: tol must be a number, got {check['tol']!r}") from None
                if tol < 0:
                    raise SchemaError(f"{where}: tol must be nonnegative")
        try:
            self.grid = _grid_from_spec(self.grid_spec)
        except (CdlabError, TypeError, ValueError, AttributeError) as exc:
            raise SchemaError(
                f"{origin}: grid: {type(exc).__name__}: {exc}") from None
        for name, spec in self.operator_specs.items():
            if not isinstance(spec, dict):
                raise SchemaError(f"{origin}: operators[{name}] must be an object")
            if "random" in spec:
                rand = spec["random"]
                if "seed" not in rand and self.seed is None:
                    raise SchemaError(
                        f"{origin}: operators[{name}] is random but neither it "
                        f"nor the scenario carries a seed")


class ScenarioContext:
    """Resolves named kernels, operators and the grid, with caching."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._kernels: dict[str, DiagonalKernel] = {}
        self._operators: dict[str, np.ndarray] = {}
        self._shifts: dict[str, ModelOperator] = {}

    def kernel(self, name: str) -> DiagonalKernel:
        if name not in self._kernels:
            try:
                spec = self.scenario.kernel_specs[name]
            except KeyError:
                raise SchemaError(f"kernel {name!r} is not defined") from None
            self._kernels[name] = kernel_from_spec(spec)
        return self._kernels[name]

    def kernel_spec(self, name: str) -> dict:
        return self.scenario.kernel_specs.get(name, {})

    def shift(self, kernel_name: str) -> ModelOperator:
        if kernel_name not in self._shifts:
            self._shifts[kernel_name] = shift_from_kernel(self.kernel(kernel_name))
        return self._shifts[kernel_name]

    def grid_for(self, params: dict) -> DiskGrid:
        """Per-check grid override, falling back to the scenario grid."""
        if "grid" in params:
            return _grid_from_spec(params["grid"])
        return self.scenario.grid

    def operator(self, name: str) -> np.ndarray:
        if name not in self._operators:
            try:
                spec = self.scenario.operator_specs[name]
            except KeyError:
                raise SchemaError(f"operator {name!r} is not defined") from None
            self._operators[name] = self._synthesize(name, spec)
        return self._operators[name]

    def _synthesize(self, name: str, spec: dict) -> np.ndarray:
        if "file" in spec:
            return load_matrix(self.scenario.base_dir / spec["file"])
        if "matrix" in spec:
            return matrix_from_json(spec["matrix"])
        if "shift_from" in spec:
            return self.shift(spec["shift_from"]).matrix
        if "random" in spec:
            rand = dict(spec["random"])
            seed = rand.get("seed", self.scenario.seed)
            return random_operator(int(rand["size"]), int(seed),
                                   norm=float(rand.get("norm", 0.5)),
                                   kind=str(rand.get("kind", "dense")))
        if "identity" in spec:
            return np.eye(int(spec["identity"]["size"]), dtype=complex)
        if "scalar" in spec:
            size = int(spec["scalar"]["size"])
            value = _as_complex(spec["scalar"]["value"])
            return value * np.eye(size, dtype=complex)
        if "diagonal" in spec:
            values = [_as_complex(v) for v in spec["diagonal"]["values"]]
            return np.diag(np.asarray(values, dtype=complex))
        if "adjoint_of" in spec:
            return self.operator(spec["adjoint_of"]["source"]).conj().T
        if "poly_of" in spec:
            base = self.operator(spec["poly_of"]["source"])
            coeffs = [_as_complex(c) for c in spec["poly_of"]["coeffs"]]
            acc = np.zeros_like(base)
            power = np.eye(base.shape[0], dtype=complex)
            for c in coeffs:
                acc = acc + c * power
                power = power @ base
            return acc
        if "swap_pairs" in spec:
            size = int(spec["swap_pairs"]["size"])
            if size % 2:
                raise SchemaError(f"operators[{name}]: swap_pairs needs even size")
            perm = np.zeros((size, size), dtype=complex)
            for k in range(0, size, 2):
                perm[k, k + 1] = 1.0
                perm[k + 1, k] = 1.0
            return perm
        if "mobius_pair_diagonal" in spec:
            conf = spec["mobius_pair_diagonal"]
            mob = MobiusMap(a=_as_complex(conf["a"]),
                            phase=float(conf.get("phase", 0.0)))
            entries = []
            for z in conf["seeds"]:
                z = _as_complex(z)
                entries.extend([z, mob.scalar(z)])
            return np.diag(np.asarray(entries, dtype=complex))
        raise SchemaError(f"operators[{name}]: unrecognized source {sorted(spec)}")

    def model(self, conf: dict):
        """Build an UpperTriangularModel from a check-level model description."""
        if "t0_kernel" in conf:
            t0 = self.shift(conf["t0_kernel"])
            t1 = self.shift(conf["t1_kernel"])
        else:
            t0 = ModelOperator(self.operator(conf["t0_op"]), source=conf["t0_op"])
            t1 = ModelOperator(self.operator(conf["t1_op"]), source=conf["t1_op"])
        x = self.operator(conf["x"]) if isinstance(conf.get("x"), str) \
            else np.eye(t0.size, dtype=complex) * _as_complex(conf.get("x_scalar", 0.0))
        return assemble_model(t0, t1, x)

    def output_path(self, key: str) -> Path | None:
        path = self.scenario.outputs.get(key)
        return None if path is None else Path(path)


def _grid_from_spec(spec: dict) -> DiskGrid:
    fd_step = float(spec.get("fd_step", 1e-3))
    if "radii" in spec:
        radii = np.asarray(spec["radii"], dtype=float)
    else:
        rmax = float(spec.get("rmax", 0.6))
        n_radii = int(spec.get("n_radii", 6))
        radii = rmax * np.arange(1, n_radii + 1) / n_radii
    n_angles = int(spec.get("n_angles", 16))
    return polar_grid(radii=radii, n_angles=n_angles, fd_step=fd_step)


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(float(value[0]), float(value[1]))
    return complex(value)


def _maps_from_params(params: dict) -> list[MobiusMap]:
    spec = params.get("maps", "default12")
    if spec == "default12":
        return mobius_sample_set()
    return [MobiusMap(a=_as_complex(m["a"]), phase=float(m.get("phase", 0.0)))
            for m in spec]


# ---------------------------------------------------------------------------
# check implementations


def _bergman_weight(ctx: ScenarioContext, kernel_name: str) -> int | None:
    spec = ctx.kernel_spec(kernel_name)
    if spec.get("preset") == "bergman":
        return int(spec["n"])
    return None


def _check_curvature(ctx: ScenarioContext, params: dict, tol: float
                     ) -> ConditionReport:
    report = ConditionReport(name="curvature")
    fd_tol = float(params.get("fd_tol", 1e-4))
    grid = ctx.grid_for(params)
    export_field = None
    for name in params.get("kernels", [params.get("kernel")]):
        kern = ctx.kernel(name)
        frame = kernel_frame(kern, grid)
        metric = gram_metric(frame)
        series = curvature(metric, grid, method="series")
        fd = curvature(metric, grid, method="fd")
        k_series = np.asarray([m[0, 0] for m in series.values])
        k_fd = np.asarray([m[0, 0] for m in fd.values])
        weight = _bergman_weight(ctx, name)
        if weight is not None:
            closed = -weight / (1.0 - np.abs(grid.points) ** 2) ** 2
            rel = float(np.max(np.abs(k_series - closed) / np.abs(k_series)))
            report.add(f"{name}-series-vs-closed", rel, tol)
        rel_fd = float(np.max(np.abs(k_series - k_fd) / np.abs(k_series)))
        report.add(f"{name}-series-vs-fd", rel_fd, fd_tol)
        export_field = series
    csv_out = params.get("csv_out")
    if csv_out and export_field is not None:
        write_curvature_csv(csv_out, export_field)
        report.info["csv_out"] = str(csv_out)
    return report


def _rank2_fields(ctx, conf, derivative_keys, grid):
    model = ctx.model(conf)
    frame = eigenframe(model, grid)
    if "frame_change" in conf:
        frame = frame.with_constant_change(
            np.asarray([[_as_complex(v) for v in row]
                        for row in conf["frame_change"]]))
    metric = gram_metric(frame)
    fld = curvature(metric, grid, method="series")
    for key in derivative_keys:
        covariant_derivative(fld, metric, *key)
    return fld


def _check_curvature_isometry(ctx: ScenarioContext, params: dict, tol: float
                              ) -> ConditionReport:
    report = ConditionReport(name="curvature-isometry")
    keys = [(1, 0), (0, 1)]
    grid = ctx.grid_for(params)
    field_a = _rank2_fields(ctx, params["model"], keys, grid)
    mode = params.get("mode", "unitary-change")
    if mode == "unitary-change":
        seed = int(params.get("change_seed", ctx.scenario.seed or 0))
        g = random_unitary(2, np.random.default_rng(seed))
        conf_b = dict(params["model"])
        conf_b["frame_change"] = [[[v.real, v.imag] for v in row] for row in g]
        field_b = _rank2_fields(ctx, conf_b, keys, grid)
        results = curvature_isometry_check(field_a, field_b, tol)
        worst = max(r.residual for r in results)
        found = sum(1 for r in results if r.found)
        report.add("all-points-found", worst, tol,
                   detail=f"{found}/{len(results)} points matched")
        report.info["found_points"] = found
    elif mode == "independent":
        field_b = _rank2_fields(ctx, params["model_b"], keys, grid)
        results = curvature_isometry_check(field_a, field_b, tol)
        found = sum(1 for r in results if r.found)
        certified = sum(1 for r in results if r.certified_mismatch)
        frac_found = found / len(results)
        max_frac = 1.0 - float(params.get("min_notfound_fraction", 0.9))
        report.add("found-fraction", frac_found, max_frac,
                   detail=f"{certified}/{len(results)} certified mismatches")
        report.info["certified_mismatches"] = certified
    else:
        raise SchemaError(f"curvature-isometry: unknown mode {mode!r}")
    return report


def _check_corollary_theta(ctx: ScenarioContext, params: dict, tol: float
                           ) -> ConditionReport:
    report = ConditionReport(name="corollary-theta")
    t0 = ctx.shift(params["t0_kernel"])
    t1 = ctx.shift(params["t1_kernel"])
    if "theta0" in params:
        theta0 = float(params["theta0"])
        y = np.exp(1j * theta0) * np.eye(t0.size, dtype=complex)
    else:
        theta0 = None
        y = ctx.operator(params["y"])
    outcome = theta_intertwiner_check(t0, t1, y, tol)
    if outcome is None:
        report.add("relation-accepted", math.inf, tol,
                   detail="least-squares phase does not satisfy the relation")
        return report
    theta, unitary = outcome
    if theta0 is not None:
        err = abs((theta - theta0 + math.pi) % (2.0 * math.pi) - math.pi)
        report.add("theta-recovery", err, tol)
    model = assemble_model(t0, t1, np.eye(t0.size, dtype=complex))
    partner_t = block_matrix(t1.matrix, y @ t0.matrix - t1.matrix @ y,
                             None, t0.matrix)
    report.add("unitary-intertwine",
               frobenius(unitary.matrix @ model.t - partner_t @ unitary.matrix),
               tol)
    report.info["theta"] = float(theta)
    return report


def _check_fb2_membership(ctx: ScenarioContext, params: dict, tol: float
                          ) -> ConditionReport:
    report = ConditionReport(name="fb2-membership")
    model = ctx.model(params)
    member, residual = fb2_membership(model.t0, model.t1, model.x, tol)
    expect = params.get("expect", "member")
    ok = (member and expect == "member") or (not member and expect == "nonmember")
    report.add("verdict-matches", 0.0 if ok else 1.0, 0.5,
               detail=f"residual {residual:.3e}, expected {expect}")
    report.info["residual"] = residual
    report.info["member"] = member
    return report


def _check_frame(ctx: ScenarioContext, params: dict, tol: float
                 ) -> ConditionReport:
    report = ConditionReport(name="frame")
    trials = int(params.get("trials", 1))
    seed = int(params.get("seed", ctx.scenario.seed or 0))
    x_norm = float(params.get("x_norm", 0.5))
    t0 = ctx.shift(params["t0_kernel"])
    t1 = ctx.shift(params["t1_kernel"])
    n = t0.size
    grid = ctx.grid_for(params)
    r_max = float(np.max(np.abs(grid.points)))
    # (T - w) gamma_0 = -sqrt(a0_{N-1}) w^N e_{N-1} and (T - w) gamma_1 =
    # -sqrt(a1_{N-1}) w^N (X e_{N-1}, e_{N-1}): the residual norms are exact
    tail = np.abs(grid.points)[:, None] ** n
    a0_last, a1_last = t0.kernel.coefficients[-1], t1.kernel.coefficients[-1]
    worst = deviation = 0.0
    for trial in range(trials):
        x = random_operator(n, seed + trial, norm=x_norm)
        frame = eigenframe(assemble_model(t0, t1, x), grid)
        x_last_sq = float(np.vdot(x[:, -1], x[:, -1]).real)
        closed = tail * np.sqrt([a0_last, a1_last * (1.0 + x_last_sq)])
        norms = np.linalg.norm(frame.vectors, axis=-1)
        deviation = max(deviation, float(np.max(
            np.abs(frame.eigen_residuals - closed) / norms)))
        worst = max(worst, float(np.max(frame.eigen_residuals)))
    report.add("eigen-residual-closed-form", deviation, tol,
               detail=f"{trials} trials, truncation {n}, r_max {r_max}; "
                      f"relative to ||gamma||")
    report.info["worst_residual"] = worst
    return report


def _check_homogeneity(ctx: ScenarioContext, params: dict, tol: float
                       ) -> ConditionReport:
    model = ctx.model(params["model"])
    maps = _maps_from_params(params)
    witness_names = params["witness"]
    if len(witness_names) != len(maps):
        raise SchemaError("homogeneity: need one witness pair per sampled map")
    witness = [WitnessEntry(mobius=mob,
                            u0=ctx.operator(pair[0]),
                            u1=ctx.operator(pair[1]))
               for mob, pair in zip(maps, witness_names)]
    return homogeneity_condition_check(model, witness, tol)


def _check_kernel_transform(ctx: ScenarioContext, params: dict, tol: float
                            ) -> ConditionReport:
    report = ConditionReport(name="kernel-transform")
    model = ctx.model(params["model"])
    grid = ctx.grid_for(params)
    frame_a = eigenframe(model, grid)
    mode = params.get("mode", "swap")
    if mode != "swap":
        raise SchemaError(f"kernel-transform: unknown mode {mode!r}")
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    frame_b = frame_a.with_constant_change(swap)
    transform = AntidiagonalTransform.constant(1.0, 1.0)
    pts = grid.points
    step = max(1, len(pts) // 4)
    chosen = pts[::step][:4]
    samples = [(z, w) for z in chosen for w in chosen]
    report.add("transform-residual",
               kernel_transform_check(frame_a, frame_b, transform, samples), tol)
    return report


def _check_main1(ctx: ScenarioContext, params: dict, tol: float
                 ) -> ConditionReport:
    report = ConditionReport(name="main1")
    t0 = ctx.shift(params["t0_kernel"])
    t1 = ctx.shift(params["t1_kernel"])
    x = ctx.operator(params["x"])
    unitary, partner = build_unitary_from_x(t0, t1, x)
    model = assemble_model(t0, t1, x)
    pair = construct_fb2_pair(unitary, model, partner)
    for name, value in pair.residuals.items():
        report.add(name, value, tol)
    return report


def _check_main3(ctx: ScenarioContext, params: dict, tol: float
                 ) -> ConditionReport:
    if "engineered_from" in params:
        k1 = ctx.kernel(params["engineered_from"])
        rng = np.random.default_rng(int(params.get("phase_seed",
                                                   ctx.scenario.seed or 0)))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k1.truncation))
        k0 = DiagonalKernel(4.0 * k1.coefficients, label="engineered")
        x = np.diag(phases.conj())
        y = np.diag(phases)
        ks = separator_kernel(k0, k1)
    else:
        k0, k1, ks = (ctx.kernel(params[k]) for k in ("k0", "k1", "ks"))
        x, y = ctx.operator(params["x"]), ctx.operator(params["y"])
    return main3_verifier(k0, k1, ks, x, y, ctx.grid_for(params), tol)


def _check_mainlemma(ctx: ScenarioContext, params: dict, tol: float
                     ) -> ConditionReport:
    t0 = ctx.shift(params["t0_kernel"])
    t1 = ctx.shift(params["t1_kernel"])
    x = ctx.operator(params["x"])
    unitary, partner = build_unitary_from_x(t0, t1, x)
    model = assemble_model(t0, t1, x)
    return verify_mainlemma(unitary, model, partner, tol)


def _random_model(size: int, base: int, norm: float) -> UpperTriangularModel:
    """Dense random T0, T1 and X from seeds base, base + 1 and base + 2."""
    return assemble_model(ModelOperator(random_operator(size, base, norm=norm)),
                          ModelOperator(random_operator(size, base + 1, norm=norm)),
                          random_operator(size, base + 2, norm=norm))


def _check_mobius_block(ctx: ScenarioContext, params: dict, tol: float
                        ) -> ConditionReport:
    report = ConditionReport(name="mobius-block")
    maps = _maps_from_params(params)
    involution_tol = float(params.get("involution_tol", 1e-9))
    trials = int(params.get("trials", 1))
    seed = int(params.get("seed", ctx.scenario.seed or 0))
    size = int(params.get("size", 6))
    block_norm = float(params.get("block_norm", 0.5))
    worst_block = worst_involution = worst_power = 0.0
    for trial in range(trials):
        if "model" in params:
            model = ctx.model(params["model"])
        else:
            model = _random_model(size, seed + 3 * trial, block_norm)
        t_norm = frobenius(model.t)
        result = mobius_block_identity_check(model, maps)
        worst_block = max(worst_block, result.residual / t_norm)
        worst_power = max(worst_power, max(result.power_residuals.values()))
        twice = apply_maps(maps, result.images)
        worst_involution = max(worst_involution, max(
            frobenius(m - model.t) for m in twice) / t_norm)
    report.add("block-identity", worst_block, tol,
               detail=f"{trials} trials x {len(maps)} maps, relative to ||T||")
    report.add("involution", worst_involution, involution_tol)
    report.add("power-identity", worst_power, tol)
    return report


def _check_separator(ctx: ScenarioContext, params: dict, tol: float
                     ) -> ConditionReport:
    report = ConditionReport(name="separator")
    radii = [float(r) for r in params.get("radii", (0.9, 0.99, 0.999))]
    needed = required_truncation(max(radii))

    def sized(name: str) -> DiagonalKernel:
        spec = ctx.kernel_spec(name)
        if spec.get("preset") == "bergman" and int(spec["N"]) < needed:
            return bergman_kernel(int(spec["n"]), needed)
        return ctx.kernel(name)

    k0, k1 = sized(params["k0"]), sized(params["k1"])
    ks = separator_kernel(k0, k1)
    max_final = float(params.get("max_final_ratio", 0.05))
    for name, kern in (("k0", k0), ("k1", k1)):
        samples = diagonal_ratio(ks, kern, radii)
        ratios = [s.ratio for s in samples]
        monotone = max(b - a for a, b in zip(ratios, ratios[1:]))
        report.add(f"monotone-{name}", monotone, 0.0,
                   detail="consecutive ratio differences must be negative")
        report.add(f"final-ratio-{name}", ratios[-1], max_final)
        report.info[f"ratios_{name}"] = ratios
        csv_out = params.get(f"csv_out_{name}")
        if csv_out:
            write_ratio_csv(csv_out, samples)
    report.info["truncation"] = needed
    return report


def _check_similarity_split(ctx: ScenarioContext, params: dict, tol: float
                            ) -> ConditionReport:
    report = ConditionReport(name="similarity-split")
    trials = int(params.get("trials", 1))
    seed = int(params.get("seed", ctx.scenario.seed or 0))
    size = int(params.get("size", 6))
    worst = 0.0
    for trial in range(trials):
        if "model" in params:
            model = ctx.model(params["model"])
        else:
            model = _random_model(size, seed + 3 * trial, 1.0)
        split = similarity_split(model)
        worst = max(worst, split.residual / frobenius(model.t))
    report.add("split-residual", worst, tol,
               detail=f"{trials} trials, relative to ||T||")
    return report


def _check_sylvester(ctx: ScenarioContext, params: dict, tol: float
                     ) -> ConditionReport:
    report = ConditionReport(name="sylvester")
    for idx, case in enumerate(params["cases"]):
        a = ctx.operator(case["a"])
        b = ctx.operator(case["b"])
        space = sylvester_kernel(a, b)
        expected = int(case["expected_dim"])
        report.add(f"case{idx}-dimension",
                   abs(space.dimension - expected), 0.0,
                   detail=f"computed {space.dimension}, expected {expected}")
        report.info[f"case{idx}_residual"] = space.residual
    return report


def _check_thm45(ctx: ScenarioContext, params: dict, tol: float
                 ) -> ConditionReport:
    t1 = ctx.shift(params["t1_kernel"])
    mob = MobiusMap(a=_as_complex(params["a"]),
                    phase=float(params.get("phase", 0.0)))
    t0 = ModelOperator(mob.of(t1.matrix), source=f"mobius:{t1.source}")
    n = t0.size
    eye = np.eye(n, dtype=complex)
    model = assemble_model(t0, t1, eye)
    half = math.sqrt(2.0) / 2.0
    unitary = BlockUnitary(u00=half * eye, u01=half * eye,
                           u10=half * eye, u11=-half * eye)
    return thm45_condition_check(unitary, model, mob, tol)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckDef:
    name: str
    description: str
    anchor: str
    runner: object
    default_tol: float


REGISTRY: dict[str, CheckDef] = {}


def _register(name, description, anchor, runner, default_tol):
    REGISTRY[name] = CheckDef(name=name, description=description, anchor=anchor,
                              runner=runner, default_tol=default_tol)


_register("corollary-theta",
          "recover the scalar phase relating two couplings and verify the "
          "rotation-block unitary",
          "Y T0 - T1 Y = e^{i theta} (T0 - T1)",
          _check_corollary_theta, 1e-10)
_register("curvature",
          "series curvature against the closed form and the finite-difference "
          "route for diagonal kernels",
          "K(w) = -d/dwbar (h^{-1} dh/dw)",
          _check_curvature, 1e-6)
_register("curvature-isometry",
          "pointwise 2x2 unitary intertwining the curvature tuple of two "
          "rank-2 fields",
          "V K_{w^i wbar^j} = K'_{w^i wbar^j} V, i = 0, 1",
          _check_curvature_isometry, 1e-8)
_register("fb2-membership",
          "vanishing test for the second-order coupling expression",
          "X T1^2 - 2 T0 X T1 + T0^2 X = 0",
          _check_fb2_membership, 1e-10)
_register("frame",
          "eigenframe residuals of the coupled model against their closed-form "
          "truncation tail",
          "gamma_0 = (t0, 0), gamma_1 = (X t1, t1)",
          _check_frame, 1e-12)
_register("homogeneity",
          "diagonal witness unitaries conjugating each block to its Mobius "
          "image, plus the coupling commutation",
          "U0 X = X U1",
          _check_homogeneity, 1e-10)
_register("kernel-transform",
          "antidiagonal matrix-kernel transformation between two frame fields",
          "Phi(z) K(z,w) Phi(w)^* = K'(z,w)",
          _check_kernel_transform, 1e-10)
_register("main1",
          "split an intertwined pair of triangular operators off a verified "
          "block unitary",
          "S0 = Y U10 - U01 X*; Z F = Ft Z",
          _check_main1, 1e-9)
_register("main3",
          "section identities forcing similarity of the diagonal operators "
          "through a slow third kernel",
          "X* t0(w) = 2 Y t1(w); ||t0||^2 = 2(||Y t1||^2 + ||t1||^2)",
          _check_main3, 1e-8)
_register("mainlemma",
          "the three block-unitary intertwining conditions for the coupled "
          "models",
          "(1+XX*)^{-1} = U10* U10",
          _check_mainlemma, 1e-9)
_register("mobius-block",
          "Mobius functional calculus preserves the coupled block structure",
          "phi(T) = [[phi(T0), X phi(T1) - phi(T0) X],[0, phi(T1)]]",
          _check_mobius_block, 1e-10)
_register("separator",
          "harmonically damped minimum kernel separates both inputs at the "
          "boundary",
          "s_n = min(a_n, b_n)/(n+1); K_s/K_i -> 0",
          _check_separator, 0.0)
_register("similarity-split",
          "unipotent similarity between the coupled model and its diagonal",
          "W T W^{-1} = T0 (+) T1, W = [[I, -X],[0, I]]",
          _check_similarity_split, 1e-12)
_register("sylvester",
          "intertwiner-space dimensions against expected values on catalogued "
          "pairs",
          "Ker(X -> A X - X B) by SVD thresholding",
          _check_sylvester, 0.0)
_register("thm45",
          "full block-unitary conditions for a Mobius self-intertwining of "
          "the coupled model",
          "U00 = X U10 = U01 X*; (1+XX*)^{-1} = U10* U10",
          _check_thm45, 1e-10)


def list_checks() -> list[CheckDef]:
    """Stable, alphabetized registry listing."""
    return [REGISTRY[name] for name in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# campaign running


@dataclass
class CheckOutcome:
    label: str
    check: str
    report: ConditionReport | None
    error: str | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.error is None and self.report is not None and self.report.overall


@dataclass
class CampaignResult:
    scenario: str
    outcomes: list[CheckOutcome]
    environment: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def overall(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def to_dict(self) -> dict:
        checks = []
        for o in self.outcomes:
            entry = {"label": o.label, "check": o.check, "passed": o.passed}
            if o.report is not None:
                entry.update(o.report.to_dict())
            if o.error is not None:
                entry["error"] = o.error
            checks.append(entry)
        return {
            "scenario": self.scenario,
            "overall": self.overall,
            "checks": checks,
            "environment": self.environment,
            "timing": {
                "total_seconds": self.elapsed,
                "per_check_seconds": {o.label: o.elapsed for o in self.outcomes},
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = [f"scenario {self.scenario}: "
                 f"{'PASS' if self.overall else 'FAIL'}"]
        for o in self.outcomes:
            mark = "PASS" if o.passed else "FAIL"
            lines.append(f"  [{mark}] {o.label}")
            if o.error is not None:
                lines.append(f"         error: {o.error}")
            elif o.report is not None:
                for cond in o.report.conditions:
                    lines.append(
                        f"         {cond.status:>5}  {cond.name}: "
                        f"residual {cond.residual:.3e} vs tol {cond.tolerance:.1e}")
        return "\n".join(lines)


THREAD_VARS = ("CDLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def _environment_stamp() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "cdlab_version": __version__,
        "numpy_version": np.__version__,
        "float64_eps": np.finfo(float).eps,
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _thread_cap() -> int:
    raw = os.environ.get("CDLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_one(ctx: ScenarioContext, index: int, check: dict) -> CheckOutcome:
    kind = check["check"]
    label = check.get("id", f"{kind}#{index}")
    definition = REGISTRY[kind]
    start = time.perf_counter()
    try:
        tol = float(check.get("tol", definition.default_tol))
        report = definition.runner(ctx, dict(check.get("params", {})), tol)
        error = None
    except Exception as exc:  # one failing check never aborts the campaign
        report, error = None, f"{type(exc).__name__}: {exc}"
    return CheckOutcome(label=label, check=kind, report=report, error=error,
                        elapsed=time.perf_counter() - start)


def run_scenario(path_or_scenario, threads: int | None = None,
                 only_check: str | None = None) -> CampaignResult:
    """Execute a scenario and return the campaign result.

    `only_check` restricts the run to checks of one registered kind (the
    `verify <name>` CLI form).  Output files named in the scenario are
    written; the JSON report itself goes wherever outputs.report points.
    """
    if isinstance(path_or_scenario, Scenario):
        scenario = path_or_scenario
    else:
        scenario = Scenario.load(path_or_scenario)
    checks = list(enumerate(scenario.checks))
    if only_check is not None:
        if only_check not in REGISTRY:
            raise SchemaError(f"unknown check {only_check!r}")
        checks = [(i, c) for i, c in checks if c["check"] == only_check]
        if not checks:
            raise SchemaError(
                f"scenario {scenario.name!r} has no {only_check!r} check")
    ctx = ScenarioContext(scenario)
    threads = _thread_cap() if threads is None else max(1, threads)
    start = time.perf_counter()
    if threads == 1 or len(checks) == 1:
        outcomes = [_run_one(ctx, i, c) for i, c in checks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_one, ctx, i, c) for i, c in checks]
            outcomes = [f.result() for f in futures]
    result = CampaignResult(scenario=scenario.name, outcomes=outcomes,
                            environment=_environment_stamp(),
                            elapsed=time.perf_counter() - start)
    report_path = scenario.outputs.get("report")
    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(result.to_json() + "\n", encoding="utf-8")
    return result
