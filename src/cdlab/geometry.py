"""Eigenframes, Gram metrics, curvature and covariant derivatives on disk grids.

The metric of a frame field is h_{ij}(w) = <gamma_j(w), gamma_i(w)>, and the
curvature is K(w) = -d/dwbar (h^{-1} dh/dw).  Covariant derivatives follow the
two inductive rules: a wbar-step applies d/dwbar, a w-step applies d/dw plus a
commutator with h^{-1} dh/dw.  All w-steps are applied before the wbar-steps.

Two evaluation routes are supported:

* "series": when the frame comes from diagonal kernels plus constant blocks,
  every metric entry is a finite polynomial in (w, wbar) with explicit
  coefficients.  Those polynomials are differentiated termwise and combined
  through truncated bivariate Taylor jets, so everything is exact up to the
  kernel truncation and roundoff.
* "fd": nested Wirtinger finite differences (4-point central stencils per
  axis, d = (dx - i dy)/2 and dbar = (dx + i dy)/2) on a pointwise metric
  evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DegenerateFrameError, DomainError, InvalidArgumentError,
                     PrecisionError)
from .kernels import DiagonalKernel, section_vector
from .operators import UpperTriangularModel, frobenius, shift_from_kernel

DEFAULT_FD_STEP = 1e-3
MAX_COVARIANT_ORDER = 2
# Singular values below this fraction of a point's tuple norm are null: well
# above the ~1e-15 rounding of computed curvature tuples, well below any
# residual tolerance in use.
NULL_SPACE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class DiskGrid:
    """Sample points strictly inside the disk plus the finite-difference step.

    Construction rejects points whose +-h stencil neighbourhood (both axes
    jointly) would leave the open disk; the deeper extents needed by nested
    stencils are checked by the routines that use them.
    """

    points: np.ndarray
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if pts.size == 0:
            raise InvalidArgumentError("grid needs at least one point")
        if self.fd_step <= 0:
            raise InvalidArgumentError("fd_step must be positive")
        reach = np.abs(pts) + math.sqrt(2.0) * self.fd_step
        if np.any(reach >= 1.0):
            worst = pts[int(np.argmax(reach))]
            raise InvalidArgumentError(
                f"point {worst} leaves no room for the +-{self.fd_step} stencil")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def polar_grid(radii=None, n_angles: int = 16,
               fd_step: float = DEFAULT_FD_STEP) -> DiskGrid:
    """Default verification grid: radii 0.1..0.6 times `n_angles` angles."""
    if radii is None:
        radii = np.arange(1, 7) * 0.1
    radii = np.asarray(radii, dtype=float)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return DiskGrid(points=pts, fd_step=fd_step)


def radial_grid(radii, fd_step: float = DEFAULT_FD_STEP) -> DiskGrid:
    """Radial-only grid for boundary studies."""
    return DiskGrid(points=np.asarray(radii, dtype=complex), fd_step=fd_step)


# ---------------------------------------------------------------------------
# polynomial metrics and jets


class PolynomialMetric:
    """Metric whose entries are finite polynomials in (w, wbar).

    coeff has shape (r, r, N, N): h_{pq}(w) = sum_{k,l} coeff[p,q,k,l]
    wbar^k w^l.  Supports exact Taylor-jet extraction at any point and
    congruence by a constant frame change.
    """

    def __init__(self, coeff: np.ndarray):
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.ndim != 4 or coeff.shape[0] != coeff.shape[1] \
                or coeff.shape[2] != coeff.shape[3]:
            raise InvalidArgumentError("metric coefficients must be (r, r, N, N)")
        self.coeff = coeff

    @property
    def rank(self) -> int:
        return self.coeff.shape[0]

    def congruence(self, g: np.ndarray) -> "PolynomialMetric":
        """Frame change gamma -> gamma g turns h into g^H h g."""
        g = np.asarray(g, dtype=complex)
        new = np.einsum("ap,abkl,bq->pqkl", g.conj(), self.coeff, g)
        return PolynomialMetric(new)

    def value(self, w: complex) -> np.ndarray:
        return self.jet(w, 0, 0)[0, 0]

    def jet(self, w: complex, order_w: int, order_wb: int) -> np.ndarray:
        """Taylor coefficients H[i, j] with h(w+d) = sum H[i,j] d^i dbar^j + ...

        Exact up to roundoff: H[i,j][p,q] = sum_{k,l} coeff[p,q,k,l]
        C(l,i) w^{l-i} C(k,j) wbar^{k-j}.
        """
        n = self.coeff.shape[2]
        u = _shift_weights(complex(w), n, order_w)
        v = _shift_weights(complex(w).conjugate(), n, order_wb)
        return np.einsum("pqkl,kj,li->ijpq", self.coeff, v, u)


def _shift_weights(base: complex, n: int, order: int) -> np.ndarray:
    """Column i holds C(l, i) base^(l-i) for l = 0..n-1 (zero when l < i)."""
    out = np.zeros((n, order + 1), dtype=complex)
    powers = np.ones(n, dtype=complex)
    for l in range(1, n):
        powers[l] = powers[l - 1] * base
    for i in range(order + 1):
        for l in range(i, n):
            out[l, i] = math.comb(l, i) * powers[l - i]
    return out


class MatrixJet:
    """Truncated bivariate Taylor jet of a matrix field, F = sum F[i,j] d^i dbar^j."""

    def __init__(self, coeffs: np.ndarray):
        self.c = np.asarray(coeffs, dtype=complex)

    @property
    def order(self) -> tuple[int, int]:
        return self.c.shape[0] - 1, self.c.shape[1] - 1

    @property
    def value(self) -> np.ndarray:
        return self.c[0, 0]

    def _truncated(self, ow: int, ob: int) -> np.ndarray:
        return self.c[:ow + 1, :ob + 1]

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        ow = min(self.order[0], other.order[0])
        ob = min(self.order[1], other.order[1])
        return MatrixJet(self._truncated(ow, ob) + other._truncated(ow, ob))

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        ow = min(self.order[0], other.order[0])
        ob = min(self.order[1], other.order[1])
        return MatrixJet(self._truncated(ow, ob) - other._truncated(ow, ob))

    def __neg__(self) -> "MatrixJet":
        return MatrixJet(-self.c)

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        ow = min(self.order[0], other.order[0])
        ob = min(self.order[1], other.order[1])
        r = self.c.shape[2]
        out = np.zeros((ow + 1, ob + 1, r, r), dtype=complex)
        for i in range(ow + 1):
            for j in range(ob + 1):
                acc = out[i, j]
                for p in range(i + 1):
                    for q in range(j + 1):
                        acc += self.c[p, q] @ other.c[i - p, j - q]
        return MatrixJet(out)

    def d_w(self) -> "MatrixJet":
        ow, ob = self.order
        if ow < 1:
            raise PrecisionError("jet order too low for a w-derivative")
        scale = np.arange(1, ow + 1).reshape(-1, 1, 1, 1)
        return MatrixJet(self.c[1:, :] * scale)

    def d_wbar(self) -> "MatrixJet":
        ow, ob = self.order
        if ob < 1:
            raise PrecisionError("jet order too low for a wbar-derivative")
        scale = np.arange(1, ob + 1).reshape(1, -1, 1, 1)
        return MatrixJet(self.c[:, 1:] * scale)

    def inverse(self) -> "MatrixJet":
        ow, ob = self.order
        r = self.c.shape[2]
        head_inv = np.linalg.inv(self.c[0, 0])
        out = np.zeros_like(self.c)
        for total in range(ow + ob + 1):
            for i in range(min(total, ow) + 1):
                j = total - i
                if j > ob:
                    continue
                if i == 0 and j == 0:
                    out[0, 0] = head_inv
                    continue
                acc = np.zeros((r, r), dtype=complex)
                for p in range(i + 1):
                    for q in range(j + 1):
                        if p == 0 and q == 0:
                            continue
                        acc += self.c[p, q] @ out[i - p, j - q]
                out[i, j] = -head_inv @ acc
        return MatrixJet(out)


# ---------------------------------------------------------------------------
# frame fields


@dataclass
class FrameField:
    """Holomorphic frame sampled on a grid.

    `vectors[p]` is a (rank, dim) array whose rows are the frame vectors at
    grid point p.  `evaluate` reproduces the frame at arbitrary disk points,
    which the finite-difference route and kernel-transform checks rely on.
    `polynomial` carries the exact metric coefficients when available.
    """

    grid: DiskGrid
    rank: int
    vectors: list[np.ndarray] = field(repr=False)
    evaluate: Callable[[complex], np.ndarray] | None = field(default=None, repr=False)
    eigen_residuals: np.ndarray | None = field(default=None, repr=False)
    polynomial: PolynomialMetric | None = field(default=None, repr=False)

    def with_constant_change(self, g: np.ndarray) -> "FrameField":
        """Replace gamma by gamma g for a constant invertible g."""
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.rank, self.rank):
            raise InvalidArgumentError("frame change must be rank x rank")
        vectors = [g.T @ v for v in self.vectors]
        base_eval = self.evaluate
        evaluate = None if base_eval is None else (lambda w: g.T @ base_eval(w))
        poly = None if self.polynomial is None else self.polynomial.congruence(g)
        return FrameField(grid=self.grid, rank=self.rank, vectors=vectors,
                          evaluate=evaluate, eigen_residuals=None, polynomial=poly)


def eigenframe(model: UpperTriangularModel, grid: DiskGrid,
               tail_tol: float | None = None) -> FrameField:
    """Rank-2 eigenframe gamma_0 = (t0, 0), gamma_1 = (X t1, t1) of the model.

    Both diagonal blocks must have been built from diagonal kernels, so the
    sections t_i(w) are available.  The per-point eigen-residual
    ||(T - w) gamma_i(w)|| is recorded.  When `tail_tol` is given, the
    a-priori truncation tail bound (1 + ||X||) sqrt(a_{N-1}) |w|^N is checked
    first and a PrecisionError names the worst point and a sufficient
    truncation.
    """
    k0, k1 = model.t0.kernel, model.t1.kernel
    if k0 is None or k1 is None:
        raise InvalidArgumentError(
            "eigenframe needs diagonal blocks built with shift_from_kernel")
    n = model.size
    if k0.truncation != n or k1.truncation != n:
        raise InvalidArgumentError("kernel truncations must match the model size")
    x = model.x
    x_norm = np.linalg.norm(x, 2)
    if tail_tol is not None:
        tail_amp = (1.0 + x_norm) * math.sqrt(
            max(k0.coefficients[-1], k1.coefficients[-1]))
        radii = np.abs(grid.points)
        bounds = tail_amp * radii ** n
        worst = int(np.argmax(bounds))
        if bounds[worst] > tail_tol:
            r = radii[worst]
            need = n
            while tail_amp * r ** need > tail_tol and need < 100_000:
                need *= 2
            raise PrecisionError(
                f"tail bound {bounds[worst]:.3e} exceeds {tail_tol:.1e} at "
                f"point {grid.points[worst]}; truncation about {need} suffices",
                required_truncation=need, point=complex(grid.points[worst]))

    def frame_at(w: complex) -> np.ndarray:
        t0 = section_vector(k0, w).coordinates
        t1 = section_vector(k1, w).coordinates
        g0 = np.concatenate([t0, np.zeros(n, dtype=complex)])
        g1 = np.concatenate([x @ t1, t1])
        return np.vstack([g0, g1])

    vectors, residuals = [], []
    for w in grid.points:
        v = frame_at(w)
        vectors.append(v)
        shifted = model.t - w * np.eye(2 * n)
        residuals.append([float(np.linalg.norm(shifted @ v[i])) for i in range(2)])

    poly = _rank2_polynomial_metric(k0, k1, x)
    return FrameField(grid=grid, rank=2, vectors=vectors, evaluate=frame_at,
                      eigen_residuals=np.asarray(residuals), polynomial=poly)


def kernel_frame(kernel: DiagonalKernel, grid: DiskGrid) -> FrameField:
    """Rank-1 frame gamma_0 = t0 of a single diagonal-kernel operator."""
    n = kernel.truncation

    def frame_at(w: complex) -> np.ndarray:
        return section_vector(kernel, w).coordinates[None, :]

    shift = shift_from_kernel(kernel).matrix if n >= 2 else None
    vectors, residuals = [], []
    for w in grid.points:
        v = frame_at(w)
        vectors.append(v)
        if shift is not None:
            residuals.append([float(np.linalg.norm((shift - w * np.eye(n)) @ v[0]))])
    coeff = np.zeros((1, 1, n, n), dtype=complex)
    coeff[0, 0] = np.diag(kernel.coefficients.astype(complex))
    return FrameField(grid=grid, rank=1, vectors=vectors, evaluate=frame_at,
                      eigen_residuals=np.asarray(residuals) if residuals else None,
                      polynomial=PolynomialMetric(coeff))


def _rank2_polynomial_metric(k0: DiagonalKernel, k1: DiagonalKernel,
                             x: np.ndarray) -> PolynomialMetric:
    n = k0.truncation
    d0 = np.diag(np.sqrt(k0.coefficients).astype(complex))
    d1 = np.diag(np.sqrt(k1.coefficients).astype(complex))
    coeff = np.zeros((2, 2, n, n), dtype=complex)
    coeff[0, 0] = d0 @ d0
    coeff[0, 1] = d0 @ x @ d1
    coeff[1, 0] = coeff[0, 1].conj().T
    coeff[1, 1] = d1 @ (x.conj().T @ x + np.eye(n)) @ d1
    return PolynomialMetric(coeff)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricField:
    """Gram metric h(w) sampled on the grid, with optional exact/pointwise forms."""

    grid: DiskGrid
    rank: int
    values: np.ndarray = field(repr=False)
    evaluate: Callable[[complex], np.ndarray] | None = field(default=None, repr=False)
    polynomial: PolynomialMetric | None = field(default=None, repr=False)


def _gram(vectors: np.ndarray) -> np.ndarray:
    h = vectors.conj() @ vectors.T
    return 0.5 * (h + h.conj().T)


def gram_metric(frame: FrameField) -> MetricField:
    """h_{ij}(w) = <gamma_j(w), gamma_i(w)>; rejects degenerate frames."""
    values = []
    for w, v in zip(frame.grid.points, frame.vectors):
        h = _gram(np.asarray(v))
        eigs = np.linalg.eigvalsh(h)
        if eigs[0] <= 0.0:
            raise DegenerateFrameError(
                f"Gram matrix not positive definite at {w} (min eig {eigs[0]:.3e})")
        values.append(h)
    base_eval = frame.evaluate
    evaluate = None if base_eval is None else (lambda w: _gram(base_eval(w)))
    return MetricField(grid=frame.grid, rank=frame.rank,
                       values=np.asarray(values), evaluate=evaluate,
                       polynomial=frame.polynomial)


# ---------------------------------------------------------------------------
# curvature: series route


def _series_curvature_jet(poly: PolynomialMetric, w: complex,
                          order_w: int, order_wb: int) -> tuple[MatrixJet, MatrixJet]:
    """Curvature jet of order (order_w, order_wb) plus the connection jet."""
    h = MatrixJet(poly.jet(w, order_w + 1, order_wb + 1))
    h_inv = h.inverse()
    theta = h_inv @ h.d_w()
    curv = -(theta.d_wbar())
    return curv, theta


def _series_covariant_value(poly: PolynomialMetric, w: complex,
                            i: int, j: int) -> np.ndarray:
    curv, theta = _series_curvature_jet(poly, w, i, j)
    f = curv
    for _ in range(i):
        f = f.d_w() + (theta @ f - f @ theta)
    for _ in range(j):
        f = f.d_wbar()
    return f.value


# ---------------------------------------------------------------------------
# curvature: finite-difference route

_STENCIL_OFFSETS = (2.0, 1.0, -1.0, -2.0)
_STENCIL_WEIGHTS = (-1.0, 8.0, -8.0, 1.0)  # divided by 12 h


def _fd_partial(f: Callable[[complex], np.ndarray], w: complex, h: float,
                conjugate: bool) -> np.ndarray:
    """Wirtinger derivative by 4-point central stencils along each axis."""
    dx = sum(wt * f(w + off * h) for off, wt in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS))
    dy = sum(wt * f(w + 1j * off * h) for off, wt in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS))
    dx /= 12.0 * h
    dy /= 12.0 * h
    return 0.5 * (dx + 1j * dy) if conjugate else 0.5 * (dx - 1j * dy)


def _check_fd_reach(w: complex, h: float, levels: int):
    # Each nested stencil level widens the axis-aligned reach by 2h.
    reach = abs(w) + math.sqrt(2.0) * 2.0 * h * levels
    if reach >= 1.0:
        raise DomainError(
            f"fd stencil of depth {levels} around {w} leaves the unit disk")


def _fd_connection(metric_eval, w: complex, h: float) -> np.ndarray:
    dh = _fd_partial(metric_eval, w, h, conjugate=False)
    return np.linalg.solve(metric_eval(w), dh)


def _fd_curvature_value(metric_eval, w: complex, h: float) -> np.ndarray:
    _check_fd_reach(w, h, levels=2)
    return -_fd_partial(lambda u: _fd_connection(metric_eval, u, h), w, h,
                        conjugate=True)


def _fd_covariant_value(metric_eval, w: complex, h: float, i: int, j: int) -> np.ndarray:
    _check_fd_reach(w, h, levels=2 + i + j)

    def curv(u: complex) -> np.ndarray:
        return _fd_curvature_value(metric_eval, u, h)

    fld = curv
    for _ in range(i):
        def fld(u, inner=fld):
            theta = _fd_connection(metric_eval, u, h)
            val = inner(u)
            return _fd_partial(inner, u, h, conjugate=False) + theta @ val - val @ theta
    for _ in range(j):
        def fld(u, inner=fld):
            return _fd_partial(inner, u, h, conjugate=True)
    return fld(w)


# ---------------------------------------------------------------------------
# curvature fields


@dataclass
class CurvatureField:
    """Curvature matrices per grid point, plus any covariant derivatives."""

    grid: DiskGrid
    rank: int
    method: str
    values: np.ndarray = field(repr=False)
    derivatives: dict = field(default_factory=dict, repr=False)

    def tuple_at(self, index: int, keys) -> list[np.ndarray]:
        out = []
        for key in keys:
            out.append(self.values[index] if key == (0, 0)
                       else self.derivatives[key][index])
        return out


def curvature(metric: MetricField, grid: DiskGrid | None = None,
              method: str = "series") -> CurvatureField:
    """K(w) = -dbar(h^{-1} dh) on the grid, by the chosen route."""
    if grid is None:
        grid = metric.grid
    if method == "series":
        if metric.polynomial is None:
            raise InvalidArgumentError(
                "series curvature needs a polynomial metric representation")
        values = [_series_covariant_value(metric.polynomial, w, 0, 0)
                  for w in grid.points]
    elif method == "fd":
        if metric.evaluate is None:
            raise InvalidArgumentError("fd curvature needs a metric evaluator")
        values = [_fd_curvature_value(metric.evaluate, w, grid.fd_step)
                  for w in grid.points]
    else:
        raise InvalidArgumentError(f"unknown curvature method {method!r}")
    return CurvatureField(grid=grid, rank=metric.rank, method=method,
                          values=np.asarray(values))


def covariant_derivative(curv: CurvatureField, metric: MetricField,
                         i: int, j: int,
                         max_order: int = MAX_COVARIANT_ORDER) -> np.ndarray:
    """Covariant derivative K_{w^i wbar^j}; cached on the field.

    w-steps are applied before wbar-steps.  (0, 0) returns the curvature
    itself.  Requests beyond `max_order` raise a PrecisionError.
    """
    if i < 0 or j < 0:
        raise InvalidArgumentError("derivative orders must be nonnegative")
    if i == 0 and j == 0:
        return curv.values
    if i + j > max_order:
        raise PrecisionError(
            f"covariant order {i}+{j} exceeds the configured maximum {max_order}")
    key = (i, j)
    if key in curv.derivatives:
        return curv.derivatives[key]
    if curv.method == "series":
        vals = [_series_covariant_value(metric.polynomial, w, i, j)
                for w in curv.grid.points]
    else:
        vals = [_fd_covariant_value(metric.evaluate, w, curv.grid.fd_step, i, j)
                for w in curv.grid.points]
    curv.derivatives[key] = np.asarray(vals)
    return curv.derivatives[key]


# ---------------------------------------------------------------------------
# curvature-isometry certificate


@dataclass(frozen=True)
class IsometryPointResult:
    point: complex
    found: bool
    unitary: np.ndarray | None
    residual: float
    eig_gap: float
    certified_mismatch: bool


def _tuple_residual(v: np.ndarray, mats_a, mats_b) -> float:
    return max(frobenius(v @ a - b @ v) for a, b in zip(mats_a, mats_b))


def _intertwiner_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(I, A^T) - kron(B, I) per point and tuple entry: V A - B V on the
    row-major vec(V), shaped (points, entries, r, r, r, r)."""
    eye = np.eye(a.shape[-1])
    return (np.einsum("il,pkmj->pkijlm", eye, a)
            - np.einsum("pkil,jm->pkijlm", b, eye))


def curvature_isometry_check(field_a: CurvatureField, field_b: CurvatureField,
                             tol: float, include_second: bool = False
                             ) -> list[IsometryPointResult]:
    """Certify, per grid point, a unitary V with V K_A = K_B V jointly over
    the tuple (K, K_w, K_wbar), optionally including K_{w wbar}, at any rank r.

    V A = B V and V A^H = B^H V over the tuple are linear in V, so all points
    are solved by one batched SVD of r^2-column systems.  A fixed combination
    of the right singular vectors at roundoff level (always including the
    smallest) is a generic intertwiner; its polar factor is unitary and, by
    the Specht/Pearcy criterion, intertwines exactly when the tuples are
    unitarily similar.  The reported residual is max over the tuple of
    ||V A - B V||.

    A point where the sorted eigenvalues of the Hermitian parts of K differ by
    more than `tol` is certified unreachable (no unitary can intertwine), and
    reported as not found.
    """
    if field_a.rank != field_b.rank or len(field_a.grid) != len(field_b.grid) \
            or not np.allclose(field_a.grid.points, field_b.grid.points):
        raise InvalidArgumentError("fields must share one rank and one grid")
    keys = [(0, 0), (1, 0), (0, 1)]
    if include_second:
        keys.append((1, 1))
    for key in keys[1:]:
        if key not in field_a.derivatives or key not in field_b.derivatives:
            raise InvalidArgumentError(
                f"both fields need covariant derivative {key}; compute it first")

    a, b = (np.stack([fld.values] + [fld.derivatives[k] for k in keys[1:]], axis=1)
            for fld in (field_a, field_b))
    r = field_a.rank
    a_h, b_h = a.conj().swapaxes(-1, -2), b.conj().swapaxes(-1, -2)
    system = np.concatenate([_intertwiner_rows(a, b), _intertwiner_rows(a_h, b_h)],
                            axis=1).reshape(len(a), -1, r * r)
    _, sing, vh = np.linalg.svd(system, full_matrices=False)
    scale = np.linalg.norm(np.concatenate([a, b], axis=1).reshape(len(a), -1), axis=1)
    null = sing <= NULL_SPACE_RTOL * scale[:, None]
    null[:, -1] = True
    # distinct weights keep the sum invertible even when the null basis is a
    # set of matrix units (the weights then form a Cauchy matrix)
    generic = np.einsum("pk,pkj->pj", null / np.arange(1.0, r * r + 1), vh.conj())
    u, _, wh = np.linalg.svd(generic.reshape(-1, r, r))
    unitaries = u @ wh

    herm_a = np.linalg.eigvalsh(0.5 * (a[:, 0] + a_h[:, 0]))
    herm_b = np.linalg.eigvalsh(0.5 * (b[:, 0] + b_h[:, 0]))
    gaps = np.max(np.abs(herm_a - herm_b), axis=1)
    results = []
    for w, v, mats_a, mats_b, gap in zip(field_a.grid.points, unitaries, a, b, gaps):
        res = _tuple_residual(v, mats_a, mats_b)
        certified = bool(gap > tol)
        found = res <= tol and not certified
        results.append(IsometryPointResult(
            point=complex(w), found=found, unitary=v if found else None,
            residual=res, eig_gap=float(gap), certified_mismatch=certified))
    return results
