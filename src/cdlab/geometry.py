"""Eigenframes, Gram metrics, curvature and covariant derivatives on disk grids.

The metric of a frame field is h_{ij}(w) = <gamma_j(w), gamma_i(w)>, and the
curvature is K(w) = -d/dwbar (h^{-1} dh/dw).  Covariant derivatives follow the
two inductive rules: a wbar-step applies d/dwbar, a w-step applies d/dw plus a
commutator with h^{-1} dh/dw.  All w-steps are applied before the wbar-steps.

Every routine takes all grid points in one call: a frame evaluates to
(points, rank, dim) arrays, and metrics, jets and curvatures carry a leading
point axis.  Inside a call, the per-point rows that grow with the frame's
dimension (section jets, Gram products and eigen-residual buffers) are
formed one block of grid points at a time, about SERIES_BLOCK_BYTES each, so
only the results span the whole grid; every point takes the values one batch
over all points would give it.

A frame stores no frame rows.  Each frame kind has one metric-jet
primitive, `FrameField.gram_jet`, built from its N-wide section rows:
<t, t> for a `kernel_frame`; for an `eigenframe` gamma_0 = (t0, 0),
gamma_1 = (X t1, t1), the products <t0, t0>, <X t1, t0> and
<X t1, X t1> + <t1, t1> of section jets, never the zero-padded 2N-wide
frame rows; g^H h g for a constant change gamma g.  The fd evaluator and
the series route read it, and the metric values are its order-0 products
at the grid points, which each frame kind forms when it is built
(`FrameField.gram`).  Two evaluation routes are supported:

* "series": when the frame comes from diagonal kernels plus constant blocks,
  its Taylor jets G_a = (1/a!) d^a gamma/dw^a are known in closed form.
  Since gamma is holomorphic, h(w + d) = sum_{a,b} G_b^H G_a d^a dbar^b
  (frame vectors as columns): the metric jet is the Gram matrix of the
  frame jets, which `gram_jet` gives at any order.  Curvature and its
  covariant derivatives are combined from that jet through truncated
  bivariate Taylor arithmetic, so everything is exact up to the kernel
  truncation and roundoff.
* "fd": Wirtinger finite differences (4-point central stencils per axis,
  d = (dx - i dy)/2 and dbar = (dx + i dy)/2).  The metric evaluator takes
  an array of points; it is called once per offset h(a + ib) of the lattice
  patch that the stencils of K_{w^i wbar^j} reach, on all grid points at
  once (it takes the order-0 `gram_jet` block by block), and the stencils
  are then applied as array slices.

A metric belongs to one grid, and both routes cache what they evaluate on
it: the fd route each lattice offset's metric values, the series route each
order's metric jet.  So K and then its covariant derivatives evaluate every
offset, and build every jet order, once per metric.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DegenerateFrameError, DomainError, InvalidArgumentError,
                     PrecisionError)
from .kernels import DiagonalKernel, section_jet, section_jets
from .operators import ModelOperator, UpperTriangularModel

DEFAULT_FD_STEP = 1e-3
MAX_COVARIANT_ORDER = 2
# Singular values below this fraction of a point's tuple norm are null: well
# above the ~1e-15 rounding of computed curvature tuples, well below any
# residual tolerance in use.
NULL_SPACE_RTOL = 1e-12
# bytes of per-point frame rows (frames, frame jets, eigen-residual buffers)
# in one block of grid points, for every step that works block by block
SERIES_BLOCK_BYTES = 2**20


def _point_blocks(count: int, point_bytes: int) -> list[slice]:
    """Slices cutting `count` grid points into blocks of equal size, up to one
    point, with about SERIES_BLOCK_BYTES of `point_bytes` rows each.

    A block keeps at least two points (when there are two), so a block's
    stacked product never falls to a matrix-vector one, which rounds
    differently from a matrix-matrix one.
    """
    parts = max(1, min(count // 2, -(-count * point_bytes // SERIES_BLOCK_BYTES)))
    edges = [count * k // parts for k in range(parts + 1)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def _frame_bytes(rank: int, dim: int) -> int:
    """Bytes of one point's `rank` frame rows of length `dim`: the per-point
    size every frame step cuts its blocks of grid points by."""
    return rank * dim * np.dtype(complex).itemsize


# ---------------------------------------------------------------------------
# grids


@dataclass(frozen=True)
class DiskGrid:
    """Sample points strictly inside the disk plus the finite-difference step.

    Construction rejects points whose +-h stencil neighbourhood (both axes
    jointly) would leave the open disk.  The fd route needs the wider lattice
    patch |w| + 2 sqrt(2) h (2 + i + j) < 1 for K_{w^i wbar^j} and checks it
    when it runs.
    """

    points: np.ndarray
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if pts.size == 0:
            raise InvalidArgumentError("grid needs at least one point")
        if not self.fd_step > 0:  # NaN too
            raise InvalidArgumentError("fd_step must be positive")
        reach = np.abs(pts) + math.sqrt(2.0) * self.fd_step
        if not np.all(reach < 1.0):  # NaN points too
            worst = pts[int(np.argmax(reach))]
            raise InvalidArgumentError(
                f"point {worst} leaves no room for the +-{self.fd_step} stencil")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def polar_grid(radii=None, n_angles: int = 16,
               fd_step: float = DEFAULT_FD_STEP) -> DiskGrid:
    """Default verification grid: 1-d `radii` (0.1..0.6 by default) times
    `n_angles` angles."""
    if not isinstance(n_angles, numbers.Integral) or n_angles < 1:
        raise InvalidArgumentError(f"n_angles must be an integer >= 1, got {n_angles!r}")
    radii = np.asarray(np.arange(1, 7) * 0.1 if radii is None else radii, dtype=float)
    if radii.ndim != 1:
        raise InvalidArgumentError(f"radii must be 1-d, got shape {radii.shape}")
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    pts = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return DiskGrid(points=pts, fd_step=fd_step)


# ---------------------------------------------------------------------------
# jets


class MatrixJet:
    """Truncated bivariate Taylor jets of a matrix field at many points,
    F = sum F[:, i, j] d^i dbar^j, stored as (points, ow + 1, ob + 1, r, r)."""

    def __init__(self, coeffs: np.ndarray):
        self.c = np.asarray(coeffs, dtype=complex)

    @property
    def order(self) -> tuple[int, int]:
        return self.c.shape[1] - 1, self.c.shape[2] - 1

    @property
    def value(self) -> np.ndarray:
        return self.c[:, 0, 0]

    def _aligned(self, other: "MatrixJet") -> tuple[np.ndarray, np.ndarray]:
        ow = min(self.order[0], other.order[0])
        ob = min(self.order[1], other.order[1])
        return self.c[:, :ow + 1, :ob + 1], other.c[:, :ow + 1, :ob + 1]

    def __add__(self, other: "MatrixJet") -> "MatrixJet":
        a, b = self._aligned(other)
        return MatrixJet(a + b)

    def __sub__(self, other: "MatrixJet") -> "MatrixJet":
        a, b = self._aligned(other)
        return MatrixJet(a - b)

    def __neg__(self) -> "MatrixJet":
        return MatrixJet(-self.c)

    def __matmul__(self, other: "MatrixJet") -> "MatrixJet":
        a, b = self._aligned(other)
        out = np.zeros_like(a)
        for i in range(a.shape[1]):
            for j in range(a.shape[2]):
                for p in range(i + 1):
                    for q in range(j + 1):
                        out[:, i, j] += a[:, p, q] @ b[:, i - p, j - q]
        return MatrixJet(out)

    def d_w(self) -> "MatrixJet":
        if self.order[0] < 1:
            raise PrecisionError("jet order too low for a w-derivative")
        return MatrixJet(self.c[:, 1:] * np.arange(1, self.c.shape[1])[:, None, None, None])

    def d_wbar(self) -> "MatrixJet":
        if self.order[1] < 1:
            raise PrecisionError("jet order too low for a wbar-derivative")
        return MatrixJet(self.c[:, :, 1:] * np.arange(1, self.c.shape[2])[:, None, None])

    def inverse(self) -> "MatrixJet":
        ow, ob = self.order
        head_inv = np.linalg.inv(self.c[:, 0, 0])
        out = np.zeros_like(self.c)
        out[:, 0, 0] = head_inv
        # lexicographic order: every out[:, i - p, j - q] used is already set
        for i in range(ow + 1):
            for j in range(ob + 1):
                if i or j:
                    acc = sum(self.c[:, p, q] @ out[:, i - p, j - q]
                              for p in range(i + 1) for q in range(j + 1) if p or q)
                    out[:, i, j] = -head_inv @ acc
        return MatrixJet(out)


# ---------------------------------------------------------------------------
# frame fields

FrameJet = Callable[[np.ndarray, int], np.ndarray]
GramJet = Callable[[np.ndarray, int], np.ndarray]


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<u_a, v_b> = v_b^H u_a over the rows of two (..., k, dim) stacks, as a
    (..., k, k) array indexed [..., a, b]: one product per point."""
    return (v.conj() @ u.swapaxes(-1, -2)).swapaxes(-1, -2)


@dataclass
class FrameField:
    """Holomorphic frame of `rank` vectors in C^dim, sampled on a grid.

    A frame stores no frame rows, only what the system reads of it.  `jet`
    gives the frame's Taylor jets at disk points of any shape (0-d
    included): `jet(points, o)` is the points.shape + (o + 1, rank, dim)
    array of (1/i!) d^i gamma/dw^i, i = 0..o, and its order-0 slice is
    `evaluate`.  `gram_jet(points, o)` gives, at a 1-d array of points, the
    (points, o + 1, o + 1, rank, rank) metric jet h[a, b][p, q] =
    <G_a[q], G_b[p]> of those frame jets G_a; each frame kind builds it from
    its own section rows.  `gram` holds the (points, rank, rank) Gram
    products <gamma_q, gamma_p> at the grid points, formed with the frame,
    bit for bit `gram_jet(grid.points, 0)[:, 0, 0]` (so a metric does not
    take the grid's sections again).  `eigen_residuals` holds
    ||(T - w) gamma_i(w)|| per point and frame vector for an `eigenframe`,
    and is None otherwise.
    """

    grid: DiskGrid
    rank: int
    dim: int
    jet: FrameJet = field(repr=False)
    gram_jet: GramJet = field(repr=False)
    gram: np.ndarray = field(repr=False)
    eigen_residuals: np.ndarray | None = field(default=None, repr=False)

    def evaluate(self, points) -> np.ndarray:
        """The points.shape + (rank, dim) frames at disk points of any shape."""
        return self.jet(points, 0)[..., 0, :, :]

    def with_constant_change(self, g: np.ndarray) -> "FrameField":
        """Replace gamma by gamma g for a constant invertible g; the metric
        jet becomes g^H h g."""
        g = np.asarray(g, dtype=complex)
        if g.shape != (self.rank, self.rank):
            raise InvalidArgumentError("frame change must be rank x rank")
        base_jet, base_gram = self.jet, self.gram_jet
        return FrameField(grid=self.grid, rank=self.rank, dim=self.dim,
                          jet=lambda w, order: g.T @ base_jet(w, order),
                          gram_jet=lambda w, order: g.conj().T @ base_gram(w, order) @ g,
                          gram=g.conj().T @ self.gram @ g)


def _times_rows(op: ModelOperator, rows: np.ndarray) -> np.ndarray:
    """T v for each row v of `rows`, as rows (a shift takes a slice)."""
    return op.left(np.swapaxes(rows, -1, -2)).swapaxes(-1, -2)


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat.T for a (points, n) stack, as one product (a stacked one
    re-reads `mat` per point).  A lone row is multiplied as two equal rows:
    a matrix-vector product rounds unlike the rows of a matrix-matrix one,
    whose rows round alike for any row count."""
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ mat.T)[:1]
    return rows @ mat.T


def eigenframe(model: UpperTriangularModel, grid: DiskGrid) -> FrameField:
    """Rank-2 eigenframe gamma_0 = (t0, 0), gamma_1 = (X t1, t1) of the model.

    Both diagonal blocks must have been built from diagonal kernels, so the
    sections t_i(w) and their jets are available.  Each evaluation takes the
    jets of t0 and t1 from one power table of its points (`section_jets`)
    and those of X t1 as one product over all its points and jet orders.
    Everything per point is taken from the N-wide section rows t0, X t1 and
    t1, never from the zero-padded 2N-wide frame rows: the metric jet from
    four products of section jets, h_00 = <t0, t0>, h_01 = <X t1, t0> and
    h_11 = <X t1, X t1> + <t1, t1> (h_10 is the conjugate transpose of
    h_01), and the per-point eigen-residual ||(T - w) gamma_i(w)|| as
    ||(T0 - w) t0|| and ||((T0 - w) X t1 + C t1, (T1 - w) t1)||, C = X T1 -
    T0 X, so T itself is never assembled.  The order-0 metric products
    (`gram`) and the residuals are taken one block of grid points at a time,
    and each block's gamma_1 residual in one buffer of the block's size.
    """
    k0, k1 = model.t0.kernel, model.t1.kernel
    if k0 is None or k1 is None:
        raise InvalidArgumentError(
            "eigenframe needs diagonal blocks built with shift_from_kernel")
    n = model.size
    if k0.truncation != n or k1.truncation != n:
        raise InvalidArgumentError("kernel truncations must match the model size")
    x = model.x

    def sections(points, order):
        """The jets of t0, X t1 and t1, points.shape + (order + 1, n) each:
        t0 and t1 from one power table, X t1 as one (points * (order + 1), n)
        @ x.T product, whose rows round alike for any point count."""
        t0, t1 = section_jets((k0, k1), points, order)
        coupled = _rows_times(t1.reshape(-1, n), x).reshape(t1.shape)
        return t0, coupled, t1

    def jet_at(points, order) -> np.ndarray:
        t0, coupled, t1 = sections(points, order)
        jets = np.zeros(t0.shape[:-1] + (2, 2 * n), dtype=complex)
        jets[..., 0, :n] = t0
        jets[..., 1, :n] = coupled
        jets[..., 1, n:] = t1
        return jets

    def gram_of(t0, coupled, t1) -> np.ndarray:
        """The metric jet of the frame with these section jets."""
        terms = t0.shape[-2]
        h = np.empty(t0.shape[:-1] + (terms, 2, 2), dtype=complex)
        h[..., 0, 0] = _inner(t0, t0)
        h[..., 0, 1] = _inner(coupled, t0)
        h[..., 1, 0] = h[..., 0, 1].swapaxes(-1, -2).conj()
        h[..., 1, 1] = _inner(coupled, coupled) + _inner(t1, t1)
        return h

    points, c = grid.points, model.coupling_block
    gram = np.empty((len(points), 2, 2), dtype=complex)
    residuals = np.empty((len(points), 2))
    for block in _point_blocks(len(points), _frame_bytes(2, 2 * n)):
        rows = sections(points[block], 0)
        gram[block] = gram_of(*rows)[:, 0, 0]
        t0, coupled, t1 = (part[:, 0] for part in rows)
        w = points[block, None]
        residuals[block, 0] = np.linalg.norm(_times_rows(model.t0, t0) - w * t0, axis=-1)
        tv = np.empty((len(t1), 2 * n), dtype=complex)
        top = tv[:, :n]
        top[...] = _times_rows(model.t0, coupled)
        top += _rows_times(t1, c)
        top -= w * coupled
        tv[:, n:] = _times_rows(model.t1, t1)
        tv[:, n:] -= w * t1
        residuals[block, 1] = np.linalg.norm(tv, axis=-1)
    return FrameField(grid=grid, rank=2, dim=2 * n, jet=jet_at,
                      gram_jet=lambda points, order: gram_of(*sections(points, order)),
                      gram=gram, eigen_residuals=residuals)


def kernel_frame(kernel: DiagonalKernel, grid: DiskGrid) -> FrameField:
    """Rank-1 frame gamma_0 = t0 of a single diagonal-kernel operator; its
    metric jet is <t_a, t_b> over the section jets, and its order-0
    products <t, t> are taken one block of grid points at a time."""

    def jet_at(points, order) -> np.ndarray:
        return section_jet(kernel, points, order)[..., None, :]

    def gram_at(points, order) -> np.ndarray:
        t = section_jet(kernel, points, order)
        return _inner(t, t)[..., None, None]

    points, n = grid.points, kernel.truncation
    gram = np.empty((len(points), 1, 1), dtype=complex)
    for block in _point_blocks(len(points), _frame_bytes(1, n)):
        t = section_jet(kernel, points[block], 0)
        gram[block] = _inner(t, t)
    return FrameField(grid=grid, rank=1, dim=n, jet=jet_at, gram_jet=gram_at, gram=gram)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricField:
    """Gram metric h(w) sampled on the grid.  `evaluate` maps points of any
    shape to points.shape + (rank, rank) (the fd route); `gram_jet` is the
    metric-jet primitive of the frame the metric comes from (see
    `FrameField`), and `dim` that frame's dimension (the series route, which
    calls `gram_jet` once per block of grid points and sizes the blocks from
    `dim`).

    Curvature requests fill two caches on `grid`: `fd_values` maps a lattice
    offset (a, b) to h(w + fd_step (a + ib)) at every grid point, and
    `series_jets` maps an order o to the (points, o + 1, o + 1, rank, rank)
    metric jet.  A cached entry is what a new evaluation would return, so
    `evaluate` and `gram_jet` must not be replaced after the first request.
    """

    grid: DiskGrid
    rank: int
    values: np.ndarray = field(repr=False)
    evaluate: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)
    gram_jet: GramJet | None = field(default=None, repr=False)
    dim: int | None = None
    fd_values: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    series_jets: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _hermitian_part(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.conj().swapaxes(-1, -2))


def gram_metric(frame: FrameField) -> MetricField:
    """h_{ij}(w) = <gamma_j(w), gamma_i(w)>; rejects degenerate frames.

    The values are the Hermitian parts of the frame's Gram products at the
    grid points (`FrameField.gram`).  Every `evaluate` call takes the order-0
    slice of the frame's `gram_jet` one block of points at a time, from the
    frame's section rows, so it never forms frame rows at all.
    """
    rank, gram_jet = frame.rank, frame.gram_jet
    point_bytes = _frame_bytes(rank, frame.dim)

    def evaluate(w):
        flat = np.ravel(w)
        values = np.empty((flat.size, rank, rank), dtype=complex)
        for block in _point_blocks(flat.size, point_bytes):
            values[block] = _hermitian_part(gram_jet(flat[block], 0)[:, 0, 0])
        return values.reshape(np.shape(w) + (rank, rank))

    values = _hermitian_part(frame.gram)
    min_eigs = np.linalg.eigvalsh(values)[:, 0]
    bad = np.flatnonzero(min_eigs <= 0.0)
    if bad.size:
        raise DegenerateFrameError(
            f"Gram matrix not positive definite at {frame.grid.points[bad[0]]} "
            f"(min eig {min_eigs[bad[0]]:.3e})")
    return MetricField(grid=frame.grid, rank=rank, values=values, evaluate=evaluate,
                       gram_jet=gram_jet, dim=frame.dim)


# ---------------------------------------------------------------------------
# curvature: series route


def _series_covariant(metric: MetricField, i: int, j: int) -> np.ndarray:
    """K_{w^i wbar^j} at every grid point from metric jets of order
    (i + 1, j + 1), cut from the metric's jet of order max(i, j) + 1.

    With G_a the frame jets (frame vectors as columns), h(w + d) =
    sum_{a,b} G_b^H G_a d^a dbar^b, so the metric jet is the Gram matrix of
    the frame jets, which the frame's `gram_jet` forms from its section
    rows.  `gram_jet` is called once per block of grid points with about
    SERIES_BLOCK_BYTES of frame-jet rows (sized from the frame's
    dimension), so no jet table is ever formed whole, and each point takes
    the products one batch would.
    """
    order = max(i, j) + 1
    jet = metric.series_jets.get(order)
    if jet is None:
        points, r = metric.grid.points, metric.rank
        point_bytes = (order + 1) * r * metric.dim * np.dtype(complex).itemsize
        jet = np.empty((len(points), order + 1, order + 1, r, r), dtype=complex)
        for block in _point_blocks(len(points), point_bytes):
            jet[block] = metric.gram_jet(points[block], order)
        metric.series_jets[order] = jet
    h = MatrixJet(jet[:, :i + 2, :j + 2])
    theta = h.inverse() @ h.d_w()
    f = -(theta.d_wbar())
    for _ in range(i):
        f = f.d_w() + (theta @ f - f @ theta)
    for _ in range(j):
        f = f.d_wbar()
    return f.value


# ---------------------------------------------------------------------------
# curvature: finite-difference route

# 4-point central stencil as (offset, weight); the weights are divided by 12 h
_STENCIL = ((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0))


def _check_patch_reach(points: np.ndarray, h: float, levels: int):
    # conservative: as if the patch reached 2 h levels along both axes at once
    radii = np.abs(points)
    worst = int(np.argmax(radii))
    if radii[worst] + math.sqrt(2.0) * 2.0 * h * levels >= 1.0:
        fit = (1.0 - radii[worst]) / (math.sqrt(2.0) * 2.0 * levels)
        unit = 10.0 ** (math.floor(math.log10(fit)) - 1)
        step = (math.ceil(fit / unit) - 1) * unit
        raise DomainError(
            f"fd stencil of depth {levels} around {points[worst]} leaves the "
            f"unit disk; fd_step {step:.2g} fits")


def _crop(f: np.ndarray, k: int) -> np.ndarray:
    return f[:, k:f.shape[1] - k, k:f.shape[2] - k]


def _wirtinger(f: np.ndarray, h: float, conjugate: bool) -> np.ndarray:
    """Wirtinger derivative of a lattice field (points, S, S, ...) by 4-point
    central stencils along each axis, on the inner (S - 4)-square."""
    n = f.shape[1] - 4
    dx = sum(wt * f[:, 2 + off:2 + off + n, 2:2 + n] for off, wt in _STENCIL)
    dy = sum(wt * f[:, 2:2 + n, 2 + off:2 + off + n] for off, wt in _STENCIL)
    dx /= 12.0 * h
    dy /= 12.0 * h
    return 0.5 * (dx + 1j * dy) if conjugate else 0.5 * (dx - 1j * dy)


def _fd_covariant(metric: MetricField, i: int, j: int) -> np.ndarray:
    """K_{w^i wbar^j} at every grid point by finite differences.

    The nested stencils reach the lattice points w + h(a + ib) of the 9-point
    cross stencil dilated `levels` times: ceil(|a|/2) + ceil(|b|/2) <= levels,
    33, 73 and 129 points for levels 2, 3 and 4.  The metric evaluator runs
    once per patch offset over all grid points (one call for the whole patch
    would hold every patch frame at once), and only for offsets that no
    earlier request on this metric evaluated: K and then K_w take 33 + 40
    calls.  Lattice sites off the patch hold the identity, which keeps every
    solve regular and never reaches the patch centre.  Each stencil level
    shrinks the lattice by two sites per side, down to the centre.
    """
    grid = metric.grid
    levels = 2 + i + j
    h = grid.fd_step
    _check_patch_reach(grid.points, h, levels)
    offsets = np.arange(-2 * levels, 2 * levels + 1)
    steps = (np.abs(offsets) + 1) // 2
    mask = steps[:, None] + steps[None, :] <= levels
    patch = (offsets[:, None] + 1j * offsets[None, :])[mask]
    keys = [(int(a), int(b)) for a, b in offsets[np.argwhere(mask)]]
    cache = metric.fd_values
    for key, step in zip(keys, h * patch):
        if key not in cache:
            cache[key] = metric.evaluate(grid.points + step)
    evals = np.stack([cache[key] for key in keys], axis=1)
    r = evals.shape[-1]
    lattice = np.broadcast_to(np.eye(r, dtype=complex),
                              (len(grid),) + mask.shape + (r, r)).copy()
    lattice[:, mask] = evals
    theta = np.linalg.solve(_crop(lattice, 2), _wirtinger(lattice, h, conjugate=False))
    f = -_wirtinger(theta, h, conjugate=True)
    for _ in range(i):
        conn, val = _crop(theta, (theta.shape[1] - f.shape[1]) // 2 + 2), _crop(f, 2)
        f = _wirtinger(f, h, conjugate=False) + conn @ val - val @ conn
    for _ in range(j):
        f = _wirtinger(f, h, conjugate=True)
    return f[:, 0, 0]


# ---------------------------------------------------------------------------
# curvature fields


@dataclass
class CurvatureField:
    """Curvature matrices per grid point, plus any covariant derivatives.

    `metric` is the MetricField the curvature was computed from (None for a
    field built from given matrices); `covariant_derivative` takes its
    derivatives from that metric only.
    """

    grid: DiskGrid
    rank: int
    method: str
    values: np.ndarray = field(repr=False)
    derivatives: dict = field(default_factory=dict, repr=False)
    metric: MetricField | None = field(default=None, repr=False, compare=False)

    def tuple_at(self, index: int, keys) -> list[np.ndarray]:
        return [self.values[index] if key == (0, 0) else self.derivatives[key][index]
                for key in keys]


def _require_metric_grid(metric: MetricField, grid: DiskGrid):
    # the metric's caches hold values on its own grid only
    if grid is not metric.grid and (grid.fd_step != metric.grid.fd_step or
                                    not np.array_equal(grid.points, metric.grid.points)):
        raise InvalidArgumentError("curvature needs the grid of its metric")


def _covariant(metric: MetricField, method: str, i: int, j: int) -> np.ndarray:
    if method == "series":
        if metric.gram_jet is None or metric.dim is None:
            raise InvalidArgumentError(
                "series curvature needs a metric jet and the frame's dimension")
        return _series_covariant(metric, i, j)
    if method == "fd":
        if metric.evaluate is None:
            raise InvalidArgumentError("fd curvature needs a metric evaluator")
        return _fd_covariant(metric, i, j)
    raise InvalidArgumentError(f"unknown curvature method {method!r}")


def curvature(metric: MetricField, grid: DiskGrid,
              method: str = "series") -> CurvatureField:
    """K(w) = -dbar(h^{-1} dh) on the grid, by the chosen route.  `grid`
    must be the metric's grid (its points and fd_step)."""
    _require_metric_grid(metric, grid)
    return CurvatureField(grid=grid, rank=metric.rank, method=method,
                          values=_covariant(metric, method, 0, 0), metric=metric)


def covariant_derivative(curv: CurvatureField, metric: MetricField,
                         i: int, j: int) -> np.ndarray:
    """Covariant derivative K_{w^i wbar^j}; cached on the field.

    w-steps are applied before wbar-steps.  (0, 0) returns the curvature
    itself.  Requests beyond MAX_COVARIANT_ORDER raise a PrecisionError.
    `metric` must be the metric object the field was computed from.
    """
    _require_metric_grid(metric, curv.grid)
    if metric is not curv.metric:
        raise InvalidArgumentError(
            "covariant derivatives need the metric the curvature came from")
    if i < 0 or j < 0:
        raise InvalidArgumentError("derivative orders must be nonnegative")
    if i == 0 and j == 0:
        return curv.values
    if i + j > MAX_COVARIANT_ORDER:
        raise PrecisionError(f"covariant order {i}+{j} exceeds the configured "
                             f"maximum {MAX_COVARIANT_ORDER}")
    key = (i, j)
    if key not in curv.derivatives:
        curv.derivatives[key] = _covariant(metric, curv.method, i, j)
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


def _intertwiner_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(I, A^T) - kron(B, I) per point and tuple entry: V A - B V on the
    row-major vec(V), shaped (points, entries, r, r, r, r)."""
    eye = np.eye(a.shape[-1])
    return (np.einsum("il,pkmj->pkijlm", eye, a)
            - np.einsum("pkil,jm->pkijlm", b, eye))


def curvature_isometry_check(field_a: CurvatureField, field_b: CurvatureField,
                             tol: float) -> list[IsometryPointResult]:
    """Certify, per grid point, a unitary V with V K_A = K_B V jointly over
    the tuple (K, K_w, K_wbar) at any rank r.

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
    v = unitaries[:, None]
    residuals = np.linalg.norm(v @ a - b @ v, axis=(-2, -1)).max(axis=1)
    certified = gaps > tol
    found = (residuals <= tol) & ~certified
    return [IsometryPointResult(point=complex(w), found=bool(ok), unitary=u if ok else None,
                                residual=float(res), eig_gap=float(gap),
                                certified_mismatch=bool(cert))
            for w, u, res, gap, ok, cert in zip(field_a.grid.points, unitaries,
                                                residuals, gaps, found, certified)]
