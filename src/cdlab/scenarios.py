"""Scenario files, operator synthesis, the check registry, and the campaign runner.

A scenario is a JSON document naming kernels, operators, a grid, and a list
of checks with tolerances.  Checks run in listed order; any exception
inside one check marks it failed and the campaign continues.  Identical
scenario + seed gives identical report bodies, timing and environment aside,
at one BLAS thread setting.

Each part is declared once, as a function's keyword-only arguments (`Ref`):
the document by `_document`, a check entry by `_entry`, its params by its
runner, kernels and models by KERNEL and MODEL, operators by SOURCES, a
matrix by `_matrix` and the grid by `_grid`.  `_read_params` reads them at
load, where a bad key, value or name is a SchemaError, and in each check.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import inspect
import json
import math
import numbers
import os
import platform
import re
import time
from collections.abc import Set
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .equivalence import (SWAP, BlockUnitary, _phase_fit, build_unitary_from_x,
                          construct_fb2_pair, kernel_transform_check,
                          main3_verifier, sample_points,
                          theta_intertwiner_check, verify_mainlemma)
from .errors import InvalidArgumentError, SchemaError
from .geometry import (DiskGrid, covariant_derivative, curvature,
                       curvature_isometry_check, eigenframe, gram_metric,
                       kernel_frame, polar_grid)
from .homogeneity import (MobiusMap, WitnessEntry,
                          homogeneity_condition_check,
                          mobius_block_identity_check, mobius_images,
                          mobius_sample_set, thm45_condition_check)
from .kernels import (DiagonalKernel, bergman_kernel, diagonal_ratio,
                      separator_kernel)
from .operators import (ModelOperator, UpperTriangularModel, assemble_model,
                        block_norm, fb2_membership, gap_total,
                        intertwining_gaps, random_operator, random_unitary,
                        shift_from_kernel, similarity_split, sylvester_kernel)
from .reporting import ConditionReport
from .serialize import write_curvature_csv


# ---------------------------------------------------------------------------
# parameter schemas

REQUIRED = inspect.Parameter.empty
# Each cast kind: the type its value must already have, and its name.  A bool
# or a string is never a number, and a fraction never an integer.
CAST_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
              complex: (numbers.Complex, "a complex number"), str: (str, "a string"),
              dict: (dict, "an object")}


class Ref(NamedTuple):
    """A parameter's kind and its value when absent (a plain default gives
    both).  The kind is a type to cast to, a `ScenarioContext` method, a set
    of choices, `[kind]` for a nonempty list, a function whose keyword-only
    parameters are an object's keys, or a tuple of such functions, the forms
    the object may take."""

    kind: object
    default: object = REQUIRED


def _kind_name(kind) -> str:
    if isinstance(kind, list):
        return f"[{_kind_name(kind[0])}]"
    if isinstance(kind, tuple):
        return " | ".join(map(_kind_name, kind))
    if isinstance(kind, Set):
        return " | ".join(sorted(kind))
    return kind if isinstance(kind, str) else kind.__name__.strip("_")


def _cast(kind: type, value, where: str):
    """`value`, of `kind`'s CAST_KINDS type, as `kind`; a complex number may
    also be the pair [re, im] of two real numbers."""
    pair = kind is complex and isinstance(value, (list, tuple)) and len(value) == 2
    parts = value if pair else [value]
    needed, name = CAST_KINDS[kind]
    try:
        if not all(isinstance(v, numbers.Real if pair else needed)
                   and not isinstance(v, bool) for v in parts):
            raise TypeError
        out = kind(*parts)
    except (TypeError, OverflowError):
        raise SchemaError(f"{where} must be {name}, got {value!r}") from None
    if kind in (float, complex) and not cmath.isfinite(out):  # json reads NaN, Infinity
        raise SchemaError(f"{where} must be finite, got {value!r}")
    return out


def _at_least(least: int, value, where: str, kind: type = int):
    """`value` as a `kind` of at least `least`."""
    out = _cast(kind, value, where)
    if out < least:
        raise SchemaError(f"{where} must be at least {least}, got {value!r}")
    return out


@functools.cache
def _schema(runner) -> dict[str, Ref]:
    """`runner`'s keyword-only parameters."""
    return {name: p.default if isinstance(p.default, Ref)
            else Ref(type(p.default), p.default)
            for name, p in inspect.signature(runner).parameters.items()
            if p.kind is p.KEYWORD_ONLY}


def _read_params(ctx: "ScenarioContext", runner, given, where: str) -> dict:
    """The keyword arguments `runner` declares, read from the object given."""
    if not isinstance(given, dict):
        raise SchemaError(f"{where} must be an object, got {given!r}")
    schema = _schema(runner)
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise SchemaError(f"{where}: unknown key {unknown[0]!r}; allowed keys are "
                          f"{', '.join(sorted(schema))}")
    kwargs = {}
    for name, ref in schema.items():
        value = given.get(name, ref.default)
        if value is REQUIRED or (value is None and ref.default is not None):
            raise SchemaError(f"{where}: missing or null parameter '{name}'")
        kwargs[name] = None if value is None and not isinstance(ref.kind, str) \
            else ctx.read(ref.kind, value, f"{where}: '{name}'")
    return kwargs


def _form(forms: tuple, raw):
    """The first of `forms` whose required keys `raw` all gives, else the
    first sharing a key with it, else the first; the unknown-key rule of the
    form read then names any key of another form."""
    keys = set(raw) if isinstance(raw, dict) else set()
    given = [form for form in forms if keys >= {
        name for name, ref in _schema(form).items() if ref.default is REQUIRED}]
    return (given or [form for form in forms if keys & set(_schema(form))]
            or forms)[0]


def parameter_docs(runner) -> list[tuple[str, str]]:
    """(name, "kind = default") of each parameter `runner` declares."""
    return [(name, _kind_name(ref.kind) + (
        "" if ref.default is REQUIRED else
        ", optional" if ref.default is None else f" = {ref.default!r}"))
        for name, ref in _schema(runner).items()]


def _kernel_model(*, t0_kernel=Ref("shift"), t1_kernel=Ref("shift"),
                  x=Ref("operator", None)) -> UpperTriangularModel:
    """The coupled model of two kernels' shifts and X (zero when absent)."""
    if x is None:
        x = np.zeros((t0_kernel.size, t0_kernel.size), dtype=complex)
    return assemble_model(t0_kernel, t1_kernel, x)


def _operator_model(*, t0_op=Ref("operator"), t1_op=Ref("operator"),
                    x=Ref("operator", None)) -> UpperTriangularModel:
    """The coupled model of two operators and X (zero when absent)."""
    return _kernel_model(t0_kernel=ModelOperator(t0_op),
                         t1_kernel=ModelOperator(t1_op), x=x)


def _witness(*, a=Ref(complex), phase=0.0, u0=Ref("operator"),
             u1=Ref("operator")) -> WitnessEntry:
    """A sampled Mobius map with its diagonal witness unitaries U0, U1."""
    return WitnessEntry(mobius=MobiusMap(a=a, phase=phase), u0=u0, u1=u1)


def _sylvester_case(*, a=Ref("operator"), b=Ref("operator"),
                    expected_dim=Ref(int)) -> tuple:
    return a, b, expected_dim


def _bergman(*, preset=Ref({"bergman"}), n=Ref("count"),
             N=Ref("count")) -> DiagonalKernel:
    """The weighted Bergman kernel (1 - z conj(w))^(-n), truncated at N."""
    return bergman_kernel(n, N)


def _coeffs(*, coeffs=Ref([float])) -> DiagonalKernel:
    return DiagonalKernel(np.asarray(coeffs, dtype=float), label="custom")


# the forms of a kernel spec and of a model, in the order they are tried
KERNEL = (_bergman, _coeffs)
MODEL = (_kernel_model, _operator_model)


def _random(*, size=Ref("count"), seed=Ref("random_seed", None),
            norm=Ref("positive", 0.5), kind=Ref({"dense", "normal"}, "dense")
            ) -> np.ndarray:
    return random_operator(size, seed, norm=norm, kind=kind)


def _poly_of(*, source=Ref("operator"), coeffs=Ref([complex])) -> np.ndarray:
    """sum_k coeffs[k] source^k."""
    acc, power = np.zeros_like(source), np.eye(source.shape[0], dtype=complex)
    for c in coeffs:
        acc, power = acc + c * power, power @ source
    return acc


def _swap_pairs(*, size=Ref("even_count")) -> np.ndarray:
    """The permutation that swaps basis vectors 2k and 2k + 1."""
    return np.kron(np.eye(size // 2, dtype=complex), [[0, 1], [1, 0]])


# An operator's spec is {source: value}, its value read as the source's kind
SOURCES = {
    "file": "file", "matrix": "matrix", "shift_from": "shift_from",
    "random": _random,
    "identity": lambda *, size=Ref("count"): np.eye(size, dtype=complex),
    "scalar": lambda *, size=Ref("count"), value=Ref(complex):
        value * np.eye(size, dtype=complex),
    "diagonal": lambda *, values=Ref([complex]):
        np.diag(np.asarray(values, dtype=complex)),
    "adjoint_of": lambda *, source=Ref("operator"): source.conj().T,
    "poly_of": _poly_of, "swap_pairs": _swap_pairs,
    # diag(z, phi(z)) over the seeds z, phi the Mobius map of a and phase
    "mobius_pair_diagonal": lambda *, a=Ref(complex), phase=0.0, seeds=Ref([complex]):
        np.diag([w for z in seeds for w in (z, MobiusMap(a=a, phase=phase).scalar(z))]),
}


def _matrix(*, rows=Ref("count"), cols=Ref("count"), re=Ref([float]),
            im=Ref([float])) -> np.ndarray:
    """The rows x cols matrix of the row-major real and imaginary parts."""
    return (np.asarray(re) + 1j * np.asarray(im)).reshape(rows, cols)


def _grid(*, rmax=Ref("positive", 0.6), n_radii=Ref("count", 6),
          n_angles=Ref("count", 16), fd_step=1e-3) -> DiskGrid:
    """A polar grid on n_radii radii spaced evenly up to rmax."""
    return polar_grid(radii=rmax * np.arange(1, n_radii + 1) / n_radii,
                      n_angles=n_angles, fd_step=fd_step)


def _document(*, name=Ref("label"), seed=Ref("seed", None), kernels=Ref(dict, {}),
              operators=Ref(dict, {}), grid=Ref("grid", {}), checks=Ref([dict])):
    """A scenario's top level; its kernels and operators are specs by name."""


# ---------------------------------------------------------------------------
# scenario context


@dataclass
class Scenario:
    name: str
    seed: int | None
    kernels: dict
    operators: dict
    grid: DiskGrid = field(repr=False)
    checks: list[CheckEntry]
    base_dir: Path

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        path = Path(path)
        return cls.from_dict(_read_json(path), base_dir=path.parent, origin=str(path))

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path = Path("."),
                  origin: str = "<dict>") -> "Scenario":
        doc = _read_params(ScenarioContext(None), _document, raw, origin)
        scenario = cls(**{**doc, "checks": []}, base_dir=base_dir)
        names = ScenarioContext(scenario, build=False)
        for name in scenario.kernels:
            names.kernel(name, origin)
        for name in scenario.operators:
            names.operator(name, origin)
        for idx, given in enumerate(doc["checks"]):
            where = f"{origin}: checks[{idx}]"
            entry = _entry(**_read_params(names, _entry, given, where))
            _read_params(names, REGISTRY[entry.kind].runner, entry.params,
                         f"{where} ({entry.kind})")
            label = entry.label or f"{entry.kind}#{idx}"
            labels = [other.label for other in scenario.checks]
            if label in labels:
                raise SchemaError(f"{where}: label {label!r} is also that of checks"
                                  f"[{labels.index(label)}]; give each its own 'id'")
            scenario.checks.append(entry._replace(label=label))
        return scenario


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: byte {exc.start} is not UTF-8") from exc


class ScenarioContext:
    """Each string kind of `Ref` is a method of (raw value or None, where).
    Without `build` (at load) names, values and the specs they name are only
    checked; with it what they name is built too, afresh for every check.
    Without a scenario only values that name nothing can be read."""

    def __init__(self, scenario: Scenario | None, build: bool = True,
                 chain: tuple = ()):
        self.scenario = scenario
        self.build = build
        self.chain = chain

    def read(self, kind, value, where: str):
        """`value` read as a `Ref` of `kind`."""
        if isinstance(kind, str):
            return getattr(self, kind)(value, where)
        if isinstance(kind, list):
            if not isinstance(value, list) or not value:
                raise SchemaError(f"{where} must be a nonempty list, got {value!r}")
            if isinstance(kind[0], str) and None in value:
                # a name read alone takes None as "not given"; an item is given
                raise SchemaError(f"{where}[{value.index(None)}] must be a "
                                  f"{kind[0]} name, got None")
            if kind == [float] and {*map(type, value)} <= {int, float}:
                # in one pass; the item read below names a non-finite one
                with contextlib.suppress(OverflowError):  # an int past float range
                    out = np.array(value, dtype=float)
                    if np.isfinite(out).all():
                        return out
            return [self.read(kind[0], item, f"{where}[{i}]")
                    for i, item in enumerate(value)]
        if isinstance(kind, type):
            return _cast(kind, value, where)
        if isinstance(kind, Set):
            if not isinstance(value, str) or value not in kind:
                raise SchemaError(f"{where} must be one of "
                                  f"{', '.join(sorted(kind))}, got {value!r}")
            return value
        if isinstance(kind, tuple):
            kind = _form(kind, value)
        params = _read_params(self, kind, value, where)
        return kind(**params) if self.build else params

    def _named(self, specs: dict, kind: str, name, where: str) -> bool:
        if name is not None and (not isinstance(name, str) or name not in specs):
            raise SchemaError(f"{where}: {kind} {name!r} is not defined")
        return name is not None

    def kernel(self, name, where: str) -> DiagonalKernel | None:
        """Kernel `name` read as the KERNEL form its spec's keys select."""
        if not self._named(self.scenario.kernels, "kernel", name, where):
            return None
        return self.read(KERNEL, self.scenario.kernels[name],
                         f"{where}: kernels[{name}]")

    def kernels(self, names, where: str) -> list:
        return list(zip(names, self.read(["kernel"], names, where)))

    def shift(self, name, where: str) -> ModelOperator | None:
        kern = self.kernel(name, where)
        return shift_from_kernel(kern) if self.build and kern is not None else kern

    def shift_from(self, name, where: str) -> np.ndarray:
        shift = self.shift(_cast(str, name, where), where)
        return shift.matrix if self.build else shift

    def operator(self, name, where: str) -> np.ndarray | None:
        """Operator `name` read from its spec; `chain` holds the operators
        whose specs led here."""
        if not self._named(self.scenario.operators, "operator", name, where):
            return None
        if name in self.chain:
            raise SchemaError(f"{where}: operators form a cycle "
                              f"{' -> '.join(self.chain + (name,))}")
        spec, where = self.scenario.operators[name], f"{where}: operators[{name}]"
        if not isinstance(spec, dict) or len(spec) != 1 or set(spec) - set(SOURCES):
            raise SchemaError(f"{where} must be an object with one key of "
                              f"{', '.join(SOURCES)}, got {spec!r}")
        (key, value), = spec.items()
        return ScenarioContext(self.scenario, self.build, self.chain + (name,)) \
            .read(SOURCES[key], value, f"{where}: '{key}'")

    def file(self, path, where: str) -> np.ndarray:
        path = self.scenario.base_dir / _cast(str, path, where)
        return self.matrix(_read_json(path), str(path)) if self.build else path

    def matrix(self, obj, where: str) -> np.ndarray:
        """Built at load too, so data that does not fit is a SchemaError."""
        params = _read_params(self, _matrix, obj, where)
        size = params["rows"] * params["cols"]
        lengths = len(params["re"]), len(params["im"])
        if lengths != (size, size):
            raise SchemaError(f"{where}: 're' and 'im' must each hold rows x cols = "
                              f"{size} numbers, got {lengths[0]} and {lengths[1]}")
        return _matrix(**params)

    def grid(self, spec, where: str) -> DiskGrid:
        """Built at load too, so a grid that cannot be built is a SchemaError."""
        if spec is None:
            return self.scenario.grid
        params = _read_params(self, _grid, spec, where)
        try:
            return _grid(**params)
        except InvalidArgumentError as exc:
            raise SchemaError(f"{where}: {type(exc).__name__}: {exc}") from None

    def seed(self, value, where: str) -> int | None:
        """`value`, else the scenario's seed or 0 (None in the document)."""
        if value is None:
            return None if self.scenario is None else self.scenario.seed or 0
        return _at_least(0, value, where)

    def random_seed(self, value, where: str) -> int:
        if value is None and self.scenario.seed is None:
            raise SchemaError(f"{where}: the operator is random but neither it "
                              f"nor the scenario carries a seed")
        return self.seed(value, where)

    def count(self, value, where: str) -> int:
        return _at_least(1, value, where)

    def even_count(self, value, where: str) -> int:
        count = self.count(value, where)
        if count % 2:
            raise SchemaError(f"{where} must be even, got {value!r}")
        return count

    def positive(self, value, where: str) -> float:
        if _cast(float, value, where) <= 0:
            raise SchemaError(f"{where} must be positive, got {value!r}")
        return float(value)

    def tol(self, value, where: str) -> float | None:
        return None if value is None else _at_least(0, value, where, float)

    def label(self, value, where: str) -> str | None:
        if value is not None and (not isinstance(value, str) or not value):
            raise SchemaError(f"{where} must be a nonempty string, got {value!r}")
        return value


# ---------------------------------------------------------------------------
# check implementations


@dataclass(frozen=True)
class CheckDef:
    name: str
    description: str
    anchor: str
    runner: object
    default_tol: float


REGISTRY: dict[str, CheckDef] = {}


def _check(name: str, default_tol: float, anchor: str, description: str):
    """Register the decorated runner as check `name`."""
    def register(runner):
        REGISTRY[name] = CheckDef(name, description, anchor, runner, default_tol)
        return runner
    return register


class CheckEntry(NamedTuple):
    label: str | None  # None until load gives it check#index
    kind: str
    tol: float
    params: dict


def _entry(*, check=Ref(REGISTRY.keys()), id=Ref("label", None),
           tol=Ref("tol", None), params=Ref(dict, {})) -> CheckEntry:
    """A check entry; an absent tol is the check's default."""
    return CheckEntry(id, check, REGISTRY[check].default_tol if tol is None
                      else tol, params)


def _bergman_weight(kern: DiagonalKernel) -> int | None:
    """n for a kernel the bergman preset built, which labels it bergman(n)."""
    match = re.fullmatch(r"bergman\((\d+)\)", kern.label)
    return None if match is None else int(match[1])


@_check("curvature", 1e-6, "K(w) = -d/dwbar (h^{-1} dh/dw)",
        "series curvature against the closed form and the finite-difference "
        "route for diagonal kernels")
def _check_curvature(tol: float, *, kernels=Ref("kernels"),
                     grid=Ref("grid", None), csv_out="") -> ConditionReport:
    report = ConditionReport(name="curvature")
    fields = {}
    for name, kern in kernels:
        frame = kernel_frame(kern, grid)
        metric = gram_metric(frame)
        series = fields[name] = curvature(metric, grid, method="series")
        fd = curvature(metric, grid, method="fd")
        k_series = series.values[:, 0, 0]
        k_fd = fd.values[:, 0, 0]
        weight = _bergman_weight(kern)
        if weight is not None:
            closed = -weight / (1.0 - np.abs(grid.points) ** 2) ** 2
            rel = float(np.max(np.abs(k_series - closed) / np.abs(k_series)))
            report.add(f"{name}-series-vs-closed", rel, tol)
        rel_fd = float(np.max(np.abs(k_series - k_fd) / np.abs(k_series)))
        report.add(f"{name}-series-vs-fd", rel_fd, 1e-4)
    if csv_out:
        write_curvature_csv(csv_out, fields)
        report.info["csv_out"] = csv_out
    return report


@_check("curvature-isometry", 1e-8,
        "V K_{w^i wbar^j} = K'_{w^i wbar^j} V, i = 0, 1",
        "pointwise 2x2 unitary intertwining the curvature tuple of two rank-2 "
        "fields")
def _check_curvature_isometry(
        tol: float, *, model=Ref(MODEL), model_b=Ref(MODEL, None),
        change_seed=Ref("seed", None), grid=Ref("grid", None)
        ) -> ConditionReport:
    """Model A against a constant unitary change of its own frame, or against
    `model_b`'s independently built frame when that is given."""
    report = ConditionReport(name="curvature-isometry")
    frame = eigenframe(model, grid)
    if model_b is None:
        g = random_unitary(2, np.random.default_rng(change_seed))
        frame_b = frame.with_constant_change(g)
    else:
        frame_b = eigenframe(model_b, grid)
    fields = []  # series curvature with its first covariant derivatives
    for fr in (frame, frame_b):
        metric = gram_metric(fr)
        fields.append(curvature(metric, grid, method="series"))
        for i, j in ((1, 0), (0, 1)):
            covariant_derivative(fields[-1], metric, i, j)
    results = curvature_isometry_check(*fields, tol)
    found = sum(1 for r in results if r.found)
    if model_b is None:
        worst = max(r.residual for r in results)
        report.add("all-points-found", worst, tol,
                   detail=f"{found}/{len(results)} points matched")
        report.info["found_points"] = found
    else:
        certified = sum(1 for r in results if r.certified_mismatch)
        frac_found = found / len(results)
        # at least 90% of the points are not matched; the tolerance is
        # kept as 1.0 - 0.9, which reports record as 0.09999999999999998
        report.add("found-fraction", frac_found, 1.0 - 0.9,
                   detail=f"{certified}/{len(results)} certified mismatches")
        report.info["certified_mismatches"] = certified
    return report


@_check("corollary-theta", 1e-10, "Y T0 - T1 Y = e^{i theta} (T0 - T1)",
        "recover the scalar phase relating two couplings and verify the "
        "rotation-block unitary")
def _check_corollary_theta(tol: float, *, t0_kernel=Ref("shift"),
                           t1_kernel=Ref("shift"), theta0=Ref(float)
                           ) -> ConditionReport:
    report = ConditionReport(name="corollary-theta")
    t0, t1 = t0_kernel, t1_kernel
    y = np.exp(1j * theta0) * np.eye(t0.size, dtype=complex)
    outcome = theta_intertwiner_check(t0, t1, y, tol)
    if outcome is None:
        report.add("relation-accepted", _phase_fit(t0, t1, y)[1], tol,
                   detail="least-squares phase does not satisfy the relation")
        return report
    theta, unitary = outcome
    err = abs((theta - theta0 + math.pi) % (2.0 * math.pi) - math.pi)
    report.add("theta-recovery", err, tol)
    model = assemble_model(t0, t1, np.eye(t0.size, dtype=complex))
    partner = assemble_model(t1, t0, y)
    report.add("unitary-intertwine", gap_total(
        intertwining_gaps(unitary.blocks, model.blocks, partner.blocks)), tol)
    report.info["theta"] = float(theta)
    return report


@_check("fb2-membership", 1e-10, "X T1^2 - 2 T0 X T1 + T0^2 X = 0",
        "vanishing test for the second-order coupling expression")
def _check_fb2_membership(tol: float, *, model=Ref(MODEL),
                          expect=Ref({"member", "nonmember"}, "member")
                          ) -> ConditionReport:
    report = ConditionReport(name="fb2-membership")
    member, residual = fb2_membership(model.t0, model.t1, model.x, tol)
    ok = member == (expect == "member")
    report.add("verdict-matches", 0.0 if ok else 1.0, 0.5,
               detail=f"residual {residual:.3e}, expected {expect}")
    report.info["residual"] = residual
    report.info["member"] = member
    return report


@_check("frame", 1e-12, "gamma_0 = (t0, 0), gamma_1 = (X t1, t1)",
        "eigenframe residuals of the coupled model against their closed-form "
        "truncation tail")
def _check_frame(tol: float, *, t0_kernel=Ref("shift"), t1_kernel=Ref("shift"),
                 trials=Ref("count", 1), seed=Ref("seed", None),
                 grid=Ref("grid", None)) -> ConditionReport:
    report = ConditionReport(name="frame")
    t0, t1 = t0_kernel, t1_kernel
    n = t0.size
    r_max = float(np.max(np.abs(grid.points)))
    # (T - w) gamma_0 = -sqrt(a0_{N-1}) w^N e_{N-1} and (T - w) gamma_1 =
    # -sqrt(a1_{N-1}) w^N (X e_{N-1}, e_{N-1}): the residual norms are exact
    tail = np.abs(grid.points)[:, None] ** n
    a0_last, a1_last = t0.kernel.coefficients[-1], t1.kernel.coefficients[-1]
    worst = deviation = 0.0
    for trial in range(trials):
        x = random_operator(n, seed + trial, norm=0.5)
        frame = eigenframe(assemble_model(t0, t1, x), grid)
        x_last_sq = float(np.vdot(x[:, -1], x[:, -1]).real)
        closed = tail * np.sqrt([a0_last, a1_last * (1.0 + x_last_sq)])
        norms = np.sqrt(np.diagonal(frame.gram, axis1=-2, axis2=-1).real)
        deviation = max(deviation, float(np.max(
            np.abs(frame.eigen_residuals - closed) / norms)))
        worst = max(worst, float(np.max(frame.eigen_residuals)))
    report.add("eigen-residual-closed-form", deviation, tol,
               detail=f"{trials} trials, truncation {n}, r_max {r_max}; "
                      f"relative to ||gamma||")
    report.info["worst_residual"] = worst
    return report


@_check("homogeneity", 1e-10, "U0 X = X U1",
        "diagonal witness unitaries conjugating each block to its Mobius "
        "image, plus the coupling commutation")
def _check_homogeneity(tol: float, *, model=Ref(MODEL),
                       witness=Ref([_witness])) -> ConditionReport:
    return homogeneity_condition_check(model, witness, tol)


@_check("kernel-transform", 1e-10, "Phi(z) K(z,w) Phi(w)^* = K'(z,w)",
        "constant swap matrix-kernel transformation between two frame fields")
def _check_kernel_transform(tol: float, *, model=Ref(MODEL),
                            grid=Ref("grid", None)) -> ConditionReport:
    report = ConditionReport(name="kernel-transform")
    frame_a = eigenframe(model, grid)
    frame_b = frame_a.with_constant_change(SWAP)
    report.add("transform-residual",
               kernel_transform_check(frame_a, frame_b, SWAP,
                                      sample_points(grid, 4)), tol)
    return report


@_check("main1", 1e-9, "S0 = Y U10 - U01 X*; Z F = Ft Z",
        "split an intertwined pair of triangular operators off a verified "
        "block unitary")
def _check_main1(tol: float, *, t0_kernel=Ref("shift"), t1_kernel=Ref("shift"),
                 x=Ref("operator")) -> ConditionReport:
    report = ConditionReport(name="main1")
    unitary, partner = build_unitary_from_x(t0_kernel, t1_kernel, x)
    model = assemble_model(t0_kernel, t1_kernel, x)
    pair = construct_fb2_pair(unitary, model, partner)
    for name, value in pair.residuals.items():
        report.add(name, value, tol)
    return report


@_check("main3", 1e-8,
        "X* t0(w) = 2 Y t1(w); ||t0||^2 = 2(||Y t1||^2 + ||t1||^2)",
        "section identities forcing similarity of the diagonal operators "
        "through a slow third kernel")
def _check_main3(tol: float, *, engineered_from=Ref("kernel"),
                 phase_seed=Ref("seed", None), grid=Ref("grid", None)
                 ) -> ConditionReport:
    k1 = engineered_from
    rng = np.random.default_rng(phase_seed)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, k1.truncation))
    k0 = DiagonalKernel(4.0 * k1.coefficients, label="engineered")
    return main3_verifier(k0, k1, separator_kernel(k0, k1),
                          np.diag(phases.conj()), np.diag(phases), grid, tol)


@_check("mainlemma", 1e-9, "(1+XX*)^{-1} = U10* U10",
        "the three block-unitary intertwining conditions for the coupled "
        "models")
def _check_mainlemma(tol: float, *, t0_kernel=Ref("shift"),
                     t1_kernel=Ref("shift"), x=Ref("operator")
                     ) -> ConditionReport:
    unitary, partner = build_unitary_from_x(t0_kernel, t1_kernel, x)
    model = assemble_model(t0_kernel, t1_kernel, x)
    return verify_mainlemma(unitary, model, partner, tol)


def _samples(trials: int, seed: int, size: int, norm: float):
    """`trials` random models, trial k with dense T0, T1 and X from seeds
    seed + 3 k, + 1 and + 2."""
    return (assemble_model(*(random_operator(size, seed + 3 * trial + k, norm=norm)
                             for k in range(3))) for trial in range(trials))


@_check("mobius-block", 1e-10,
        "phi(T) = [[phi(T0), X phi(T1) - phi(T0) X],[0, phi(T1)]]",
        "Mobius functional calculus preserves the coupled block structure")
def _check_mobius_block(tol: float, *, trials=Ref("count", 1),
                        seed=Ref("seed", None)) -> ConditionReport:
    report = ConditionReport(name="mobius-block")
    maps = mobius_sample_set()
    inverses = [mob.inverse() for mob in maps]
    worst_block = worst_involution = worst_power = 0.0
    for sample in _samples(trials, seed, 6, 0.5):
        t_norm = block_norm(sample.blocks)
        result = mobius_block_identity_check(sample, maps)
        worst_block = max(worst_block, result.residual / t_norm)
        worst_power = max(worst_power, max(result.power_residuals.values()))
        # phi^{-1}(phi(T)) block by block, against T0, C and T1
        gaps = np.concatenate([
            back - block for back, block in zip(
                mobius_images(result.images, inverses),
                (sample.t0.matrix, sample.coupling_block, sample.t1.matrix))],
            axis=1)
        worst_involution = max(worst_involution, float(
            np.linalg.norm(gaps, axis=(1, 2)).max()) / t_norm)
    report.add("block-identity", worst_block, tol,
               detail=f"{trials} trials x {len(maps)} maps, relative to ||T||")
    report.add("involution", worst_involution, 1e-9)
    report.add("power-identity", worst_power, tol)
    return report


@_check("separator", 0.0, "s_n = min(a_n, b_n)/(n+1); K_s/K_i -> 0",
        "harmonically damped minimum kernel separates both inputs at the "
        "boundary")
def _check_separator(tol: float, *, k0=Ref("kernel"), k1=Ref("kernel")
                     ) -> ConditionReport:
    report = ConditionReport(name="separator")
    ks = separator_kernel(k0, k1)
    for name, kern in (("k0", k0), ("k1", k1)):
        ratios = [s.ratio for s in diagonal_ratio(ks, kern, [0.9, 0.99, 0.999])]
        increase = max(0.0, *(b - a for a, b in zip(ratios, ratios[1:])))
        report.add(f"monotone-{name}", increase, tol,
                   detail="largest increase between consecutive ratios")
        report.add(f"final-ratio-{name}", ratios[-1], 0.05)
        report.info[f"ratios_{name}"] = ratios
    report.info["truncation"] = ks.truncation
    return report


@_check("similarity-split", 1e-12, "W T W^{-1} = T0 (+) T1, W = [[I, -X],[0, I]]",
        "unipotent similarity between the coupled model and its diagonal")
def _check_similarity_split(tol: float, *, trials=Ref("count", 1),
                            seed=Ref("seed", None), size=Ref("count", 6)
                            ) -> ConditionReport:
    report = ConditionReport(name="similarity-split")
    worst = 0.0
    for sample in _samples(trials, seed, size, 1.0):
        split = similarity_split(sample)
        worst = max(worst, split.residual / block_norm(sample.blocks))
    report.add("split-residual", worst, tol,
               detail=f"{trials} trials, relative to ||T||")
    return report


@_check("sylvester", 0.0, "Ker(X -> A X - X B) by SVD thresholding",
        "intertwiner-space dimensions against expected values on catalogued "
        "pairs")
def _check_sylvester(tol: float, *, cases=Ref([_sylvester_case])) -> ConditionReport:
    report = ConditionReport(name="sylvester")
    for idx, (a, b, expected) in enumerate(cases):
        space = sylvester_kernel(a, b)
        report.add(f"case{idx}-dimension",
                   abs(space.dimension - expected), tol,
                   detail=f"computed {space.dimension}, expected {expected}")
        report.info[f"case{idx}_residual"] = space.residual
    return report


@_check("thm45", 1e-10, "U00 = X U10 = U01 X*; (1+XX*)^{-1} = U10* U10",
        "full block-unitary conditions for a Mobius self-intertwining of the "
        "coupled model")
def _check_thm45(tol: float, *, t1_kernel=Ref("shift"), a=Ref(complex),
                 phase=0.0) -> ConditionReport:
    t1 = t1_kernel
    mob = MobiusMap(a=a, phase=phase)
    t0 = ModelOperator(mob.of(t1.matrix))
    n = t0.size
    eye = np.eye(n, dtype=complex)
    model = assemble_model(t0, t1, eye)
    half = math.sqrt(2.0) / 2.0
    unitary = BlockUnitary(u00=half * eye, u01=half * eye,
                           u10=half * eye, u11=-half * eye)
    return thm45_condition_check(unitary, model, mob, tol)


# ---------------------------------------------------------------------------
# registry


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
        # strict JSON: a non-finite float raises rather than being written
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)

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


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def _run_one(ctx: ScenarioContext, index: int, entry: CheckEntry) -> CheckOutcome:
    definition = REGISTRY[entry.kind]
    start = time.perf_counter()
    try:
        kwargs = _read_params(ctx, definition.runner, entry.params,
                              f"checks[{index}] ({entry.kind})")
        report = definition.runner(entry.tol, **kwargs)
        error = None
    except Exception as exc:  # one failing check never aborts the campaign
        report, error = None, f"{type(exc).__name__}: {exc}"
    return CheckOutcome(label=entry.label, check=entry.kind, report=report,
                        error=error, elapsed=time.perf_counter() - start)


def run_scenario(path_or_scenario, only_check: str | None = None) -> CampaignResult:
    """Execute a scenario and return the campaign result.

    `only_check` restricts the run to checks of one registered kind (the
    `run --only <name>` CLI form).  The only files written are those a
    check's params name (`csv_out`); `cdlab run --report` writes the report.
    """
    if isinstance(path_or_scenario, Scenario):
        scenario = path_or_scenario
    else:
        scenario = Scenario.load(path_or_scenario)
    checks = list(enumerate(scenario.checks))
    if only_check is not None:
        ScenarioContext(None).read(REGISTRY.keys(), only_check, "only_check")
        checks = [(i, entry) for i, entry in checks if entry.kind == only_check]
        if not checks:
            raise SchemaError(
                f"scenario {scenario.name!r} has no {only_check!r} check")
    ctx = ScenarioContext(scenario)
    start = time.perf_counter()
    outcomes = [_run_one(ctx, i, c) for i, c in checks]
    return CampaignResult(scenario=scenario.name, outcomes=outcomes,
                          environment=_environment_stamp(),
                          elapsed=time.perf_counter() - start)
