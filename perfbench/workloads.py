"""The three benchmark workloads: inputs made from a seed, passes, oracles.

Each workload has a `setup(seed, inputs_dir)` that builds every input from
the benchmark seed, and a `run(inputs)` that makes one pass and returns a
`PassResult`: one `Verification` per verdict, checked against an oracle that
does not share the code path being timed.  cdlab is reached only through
attributes of the `cdlab` package looked up at call time, so the tracer's
wrappers see every call.

* bundled: the six bundled scenarios through `run_scenario`, which is what
  `cdlab run` calls.  Many small-N calls, so per-call overhead matters.
* fields: the geometry layer at large N (eigenframes, series and fd
  curvature, the isometry search, the curvature CLI) and no Sylvester solve.
* algebra: the operators, equivalence and homogeneity layers: large-N
  matmuls and solves beside the small-N O(N^6) Kronecker SVDs, small grids.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cdlab
import cdlab.cli

BUNDLED_SCENARIOS = ("bergman-curvature", "corollary-theta", "frame-isometry",
                     "homogeneity-paired", "main3-engineered",
                     "mainlemma-normal-x")
# Seed-bearing keys of a check's params; the scenario-level "seed" and each
# random operator's "seed" are offset as well.
CHECK_SEED_KEYS = ("seed", "phase_seed", "change_seed")

DERIVATIVES = ((1, 0), (0, 1))


@dataclass(frozen=True)
class Verification:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    verifications: list[Verification] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.verifications.append(Verification(name, bool(ok), detail))

    def signature(self) -> tuple:
        """What must not change between passes, traced or not."""
        return (tuple((v.name, v.ok) for v in self.verifications),
                tuple(sorted(self.digests.items())))


def _step(result: PassResult, name: str, fn) -> None:
    """Run one step; an exception counts as one failed verification."""
    try:
        fn(result)
    except Exception as exc:  # a raising step is a failed verdict, not a crash
        result.check(f"{name}.raised", False, f"{type(exc).__name__}: {exc}")


def _int_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _polar(rmax: float, n_radii: int, n_angles: int):
    return cdlab.polar_grid(radii=rmax * np.arange(1, n_radii + 1) / n_radii,
                            n_angles=n_angles)


def _shift(weight: int, size: int):
    return cdlab.shift_from_kernel(cdlab.bergman_kernel(weight, size))


def _rel(a, b) -> float:
    """max_p ||a_p - b_p|| / max_p ||b_p|| over a stack of matrices."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.max(np.linalg.norm(b, axis=(-2, -1)))), 1e-300)
    return float(np.max(np.linalg.norm(a - b, axis=(-2, -1)))) / scale


# ---------------------------------------------------------------------------
# bundled


def offset_scenario(raw: dict, offset: int) -> dict:
    """Copy of a scenario document with every random seed moved by `offset`."""
    doc = json.loads(json.dumps(raw))
    if "seed" in doc:
        doc["seed"] = int(doc["seed"]) + offset
    for spec in doc.get("operators", {}).values():
        rand = spec.get("random")
        if isinstance(rand, dict) and "seed" in rand:
            rand["seed"] = int(rand["seed"]) + offset
    for check in doc.get("checks", []):
        params = check.get("params", {})
        for key in CHECK_SEED_KEYS:
            if key in params:
                params[key] = int(params[key]) + offset
    return doc


def report_digest(result) -> str:
    """sha256 of a campaign report body with `timing` and `environment` cut."""
    body = result.to_dict()
    body.pop("timing")
    body.pop("environment")
    text = json.dumps(body, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup_bundled(seed: int, inputs_dir: Path) -> dict:
    shipped = cdlab.cli.bundled_scenario_dir()
    inputs_dir.mkdir(parents=True, exist_ok=True)
    scenarios = []
    for name in BUNDLED_SCENARIOS:
        text = (shipped / f"{name}.json").read_text(encoding="utf-8")
        if seed:
            text = json.dumps(offset_scenario(json.loads(text), seed), indent=2)
        path = inputs_dir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        scenarios.append(cdlab.Scenario.load(path))
    return {"scenarios": scenarios}


def run_bundled(inputs: dict) -> PassResult:
    result = PassResult()
    for scenario in inputs["scenarios"]:
        def step(res, scenario=scenario):
            campaign = cdlab.run_scenario(scenario)
            for outcome in campaign.outcomes:
                failing = [] if outcome.report is None else \
                    [c.name for c in outcome.report.conditions if not c.passed]
                res.check(f"{scenario.name}.{outcome.label}", outcome.passed,
                          outcome.error or ", ".join(failing))
            res.digests[scenario.name] = report_digest(campaign)
        _step(result, scenario.name, step)
    return result


# ---------------------------------------------------------------------------
# fields


def setup_fields(seed: int, inputs_dir: Path) -> dict:
    s_x, s_x80, s_a, s_b, s_change = _int_seeds(seed, 5)
    model240 = cdlab.assemble_model(_shift(1, 240), _shift(2, 240),
                                    cdlab.random_operator(240, s_x, norm=0.5))
    model80 = cdlab.assemble_model(_shift(1, 80), _shift(2, 80),
                                   cdlab.random_operator(80, s_x80, norm=0.5))
    iso = {n: _shift(n, 24) for n in (1, 2, 3)}
    x_a = cdlab.random_operator(24, s_a, norm=0.5)
    x_b = cdlab.random_operator(24, s_b, norm=0.5)
    change = cdlab.random_unitary(2, np.random.default_rng(s_change))
    return {
        "grid": _polar(0.6, 4, 16),
        "model240": model240,
        "model80": model80,
        "iso_grid": _polar(0.6, 3, 8),
        "iso_model": cdlab.assemble_model(iso[1], iso[2], x_a),
        "iso_other": cdlab.assemble_model(iso[2], iso[3], x_b),
        # equal kernels and X = 0: curvature is scalar, so every point is
        # degenerate and takes the dense rotation sweep
        "iso_flat": cdlab.assemble_model(iso[1], iso[1],
                                         np.zeros((24, 24), dtype=complex)),
        "flat_grid": cdlab.polar_grid(radii=[0.45], n_angles=4),
        "change": change,
        "cli_args": ["curvature", "--kernel", "bergman:2", "--truncation", "240",
                     "--derivative", "1,0", "--derivative", "0,1",
                     "--json-out", "curvature.json"],
    }


def _series_field(model, grid, change=None, derivatives=DERIVATIVES):
    frame = cdlab.eigenframe(model, grid)
    if change is not None:
        frame = frame.with_constant_change(change)
    metric = cdlab.gram_metric(frame)
    fld = cdlab.curvature(metric, grid, method="series")
    for key in derivatives:
        cdlab.covariant_derivative(fld, metric, *key)
    return frame, metric, fld


def run_fields(inputs: dict) -> PassResult:
    result = PassResult()

    def series240(res):
        frame, metric, fld = _series_field(inputs["model240"], inputs["grid"],
                                           derivatives=DERIVATIVES + ((1, 1),))
        # truncation tail |w|^240 < 1e-53 at |w| <= 0.6: only roundoff remains
        worst = float(np.max(frame.eigen_residuals))
        res.check("series240.eigen-residual", worst <= 1e-10, f"{worst:.3e}")
        # Chern curvature identity: h K is Hermitian
        hk = metric.values @ fld.values
        asym = _rel(hk, np.conj(np.swapaxes(hk, -1, -2)))
        res.check("series240.hK-hermitian", asym <= 1e-10, f"{asym:.3e}")

    def fd80(res):
        _, metric, series = _series_field(inputs["model80"], inputs["grid"],
                                          derivatives=((1, 0),))
        fd = cdlab.curvature(metric, inputs["grid"], method="fd")
        cdlab.covariant_derivative(fd, metric, 1, 0)
        for label, got, ref in (("K", fd.values, series.values),
                                ("K_w", fd.derivatives[(1, 0)],
                                 series.derivatives[(1, 0)])):
            rel = _rel(got, ref)
            res.check(f"fd80.{label}-vs-series", rel <= 1e-4, f"{rel:.3e}")

    def isometry(res):
        grid, change, tol = inputs["iso_grid"], inputs["change"], 1e-8
        _, _, field_a = _series_field(inputs["iso_model"], grid)
        _, _, field_moved = _series_field(inputs["iso_model"], grid, change)
        _, _, field_other = _series_field(inputs["iso_other"], grid)
        points = cdlab.curvature_isometry_check(field_a, field_moved, tol)
        worst = max(p.residual for p in points)
        res.check("isometry.positive", all(p.found for p in points) and worst <= tol,
                  f"worst residual {worst:.3e}")
        points = cdlab.curvature_isometry_check(field_a, field_other, tol)
        certified = sum(p.certified_mismatch for p in points)
        res.check("isometry.negative", certified >= 0.9 * len(points),
                  f"{certified}/{len(points)} certified mismatches")
        flat = inputs["flat_grid"]
        _, _, flat_a = _series_field(inputs["iso_flat"], flat)
        _, _, flat_b = _series_field(inputs["iso_flat"], flat, change)
        points = cdlab.curvature_isometry_check(flat_a, flat_b, tol)
        worst = max(p.residual for p in points)
        res.check("isometry.degenerate", all(p.found for p in points) and worst <= tol,
                  f"worst residual {worst:.3e}")

    def cli(res):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cdlab.cli.main(list(inputs["cli_args"]))
        res.check("cli.exit-code", code == 0, f"exit {code}")
        doc = json.loads(Path("curvature.json").read_text(encoding="utf-8"))
        # bergman(2): K = -2/(1-|w|^2)^2, K_w = -4 wbar/(1-|w|^2)^3 and
        # K_wbar = -4 w/(1-|w|^2)^3 (rank 1: the commutator term vanishes)
        closed_forms = {"K": lambda w, d: -2.0 / d ** 2,
                        "K_w1wb0": lambda w, d: -4.0 * w.conjugate() / d ** 3,
                        "K_w0wb1": lambda w, d: -4.0 * w / d ** 3}
        for label, closed in closed_forms.items():
            worst = 0.0
            for point in doc["points"]:
                w = complex(point["re_w"], point["im_w"])
                expected = closed(w, 1.0 - abs(w) ** 2)
                got = complex(point[label]["re"][0], point[label]["im"][0])
                worst = max(worst, abs(got - expected) / abs(expected))
            res.check(f"cli.{label}-closed-form", worst <= 1e-6, f"{worst:.3e}")

    for name, fn in (("series240", series240), ("fd80", fd80),
                     ("isometry", isometry), ("cli", cli)):
        _step(result, name, fn)
    return result


# ---------------------------------------------------------------------------
# algebra


SYLVESTER_SIZES = (16, 24, 28)


def setup_algebra(seed: int, inputs_dir: Path) -> dict:
    s_x, s_mob, s_phase, s_scalars = _int_seeds(seed, 4)
    scalars = np.random.default_rng(s_scalars)
    pairs = {n: (_shift(1, n).matrix, _shift(2, n).matrix) for n in SYLVESTER_SIZES}

    k1 = cdlab.bergman_kernel(1, 24)
    phases = np.exp(1j * np.random.default_rng(s_phase).uniform(
        0.0, 2.0 * math.pi, k1.truncation))
    k0 = cdlab.DiagonalKernel(4.0 * k1.coefficients, label="engineered")

    t0, t1 = _shift(1, 240), _shift(2, 240)
    mob_seeds = _int_seeds(s_mob, 3)
    mobius_model = cdlab.assemble_model(
        cdlab.ModelOperator(cdlab.random_operator(120, mob_seeds[0], norm=0.5)),
        cdlab.ModelOperator(cdlab.random_operator(120, mob_seeds[1], norm=0.5)),
        cdlab.random_operator(120, mob_seeds[2], norm=0.5))

    radius, angle = scalars.uniform(0.1, 0.5), scalars.uniform(0.0, 2.0 * math.pi)
    mob = cdlab.MobiusMap(a=radius * np.exp(1j * angle))
    eye = np.eye(240, dtype=complex)
    half = math.sqrt(2.0) / 2.0
    return {
        "sylvester_pairs": pairs,
        "main3": (k0, k1, cdlab.separator_kernel(k0, k1),
                  np.diag(phases.conj()), np.diag(phases), _polar(0.6, 4, 8)),
        "t0": t0,
        "t1": t1,
        "x_normal": cdlab.random_operator(240, s_x, norm=1.0, kind="normal"),
        "mobius_model": mobius_model,
        "thm45_map": mob,
        "thm45_model": cdlab.assemble_model(
            cdlab.ModelOperator(mob.of(t1.matrix)), t1, eye),
        "thm45_unitary": cdlab.BlockUnitary(u00=half * eye, u01=half * eye,
                                            u10=half * eye, u11=-half * eye),
        "theta0": float(scalars.uniform(0.1, 2.0 * math.pi - 0.1)),
    }


def run_algebra(inputs: dict) -> PassResult:
    result = PassResult()

    def sylvester(res):
        # a finite weighted backward shift is similar to one Jordan block, so
        # the intertwiners of any two of them form an N-dimensional space
        for n, (a, b) in inputs["sylvester_pairs"].items():
            for label, (lhs, rhs) in (("b1-b2", (a, b)), ("b2-b1", (b, a))):
                dim = cdlab.sylvester_kernel(lhs, rhs).dimension
                res.check(f"sylvester.N{n}.{label}", dim == n, f"dimension {dim}")

    def main3(res):
        k0, k1, ks, x, y, grid = inputs["main3"]
        report = cdlab.main3_verifier(k0, k1, ks, x, y, grid, 1e-8)
        res.check("main3.overall", report.overall, f"worst {report.worst():.3e}")
        dims = [v for k, v in sorted(report.info.items())
                if k.startswith("intertwiner_dim_")]
        res.check("main3.intertwiner-dims", dims == [ks.truncation] * 4, str(dims))

    def mainlemma(res):
        t0, t1, x = inputs["t0"], inputs["t1"], inputs["x_normal"]
        unitary, partner = cdlab.build_unitary_from_x(t0, t1, x)
        model = cdlab.assemble_model(t0, t1, x)
        report = cdlab.verify_mainlemma(unitary, model, partner, 1e-9)
        res.check("mainlemma.overall", report.overall, f"worst {report.worst():.3e}")
        pair = cdlab.construct_fb2_pair(unitary, model, partner)
        worst = max(pair.residuals.values())
        res.check("fb2-pair.residuals", worst <= 1e-9, f"worst {worst:.3e}")
        split = cdlab.similarity_split(model)
        rel = split.residual / np.linalg.norm(model.t)
        res.check("similarity-split.residual", rel <= 1e-12, f"{rel:.3e}")
        member, residual = cdlab.fb2_membership(t0, t1, x, 1e-10)
        res.check("fb2-membership.nonmember", not member, f"residual {residual:.3e}")

    def mobius(res):
        model = inputs["mobius_model"]
        t_norm = np.linalg.norm(model.t)
        for idx, mob in enumerate(cdlab.mobius_sample_set()):
            out = cdlab.mobius_block_identity_check(model, mob)
            worst = max(out.residual / t_norm, *out.power_residuals.values())
            res.check(f"mobius-block.map{idx}", worst <= 1e-10, f"{worst:.3e}")

    def thm45(res):
        report = cdlab.thm45_condition_check(inputs["thm45_unitary"],
                                             inputs["thm45_model"],
                                             inputs["thm45_map"], 1e-10)
        res.check("thm45.overall", report.overall, f"worst {report.worst():.3e}")

    def theta(res):
        t0, theta0 = inputs["t0"], inputs["theta0"]
        y = np.exp(1j * theta0) * np.eye(t0.size, dtype=complex)
        out = cdlab.theta_intertwiner_check(t0, inputs["t1"], y, 1e-10)
        err = math.inf if out is None else \
            abs((out[0] - theta0 + math.pi) % (2.0 * math.pi) - math.pi)
        res.check("corollary-theta.recovery", err <= 1e-10, f"{err:.3e}")

    for name, fn in (("sylvester", sylvester), ("main3", main3),
                     ("mainlemma", mainlemma), ("mobius", mobius),
                     ("thm45", thm45), ("theta", theta)):
        _step(result, name, fn)
    return result


WORKLOADS = {
    "bundled": (setup_bundled, run_bundled),
    "fields": (setup_fields, run_fields),
    "algebra": (setup_algebra, run_algebra),
}
