"""Independent oracles for the test suite.

Nothing in here touches the library's own numerics: series coefficients come
from sympy expansions, curvature values from symbolic Wirtinger
differentiation of -log K(w, w), intertwiner-space dimensions from exact
rational Gaussian elimination over the Gaussian rationals, 2N x 2N block
matrices from `np.block`, and frame jet rows from numpy powers.
"""

import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import sympy as sp

_W, _WB = sp.symbols("w wbar")


def binomial_series_coefficients(n: int, count: int) -> list[float]:
    """Taylor coefficients of (1 - x)^(-n) via sympy expansion."""
    x = sp.symbols("x")
    expansion = sp.series((1 - x) ** (-n), x, 0, count).removeO()
    poly = sp.Poly(expansion, x)
    return [float(poly.coeff_monomial(x ** k)) for k in range(count)]


@lru_cache(maxsize=None)
def _curvature_callable(n: int):
    expr = -sp.diff(sp.log((1 - _W * _WB) ** (-n)), _W, _WB)
    return sp.lambdify((_W, _WB), expr, "numpy")


def bergman_curvature(n: int, at: complex) -> complex:
    """-d/dw d/dwbar log K(w, w) for K(w, w) = (1 - w wbar)^(-n)."""
    return complex(_curvature_callable(n)(at, np.conj(at)))


def bergman_curvature_derivative(n: int, i: int, j: int, at: complex) -> complex:
    """Plain mixed derivative of the scalar curvature (rank-1 covariant case)."""
    curv = -sp.diff(sp.log((1 - _W * _WB) ** (-n)), _W, _WB)
    expr = sp.diff(curv, _W, i, _WB, j)
    value = expr.subs({_W: sp.nsimplify(at, rational=False),
                       _WB: sp.nsimplify(np.conj(at), rational=False)})
    return complex(value)


def log_ratio_boundary_value(r: float) -> float:
    """(1 - r^2) log(1/(1 - r^2)) / r^2, the slow/flat diagonal ratio."""
    x = r * r
    return float((1.0 - x) * np.log(1.0 / (1.0 - x)) / x)


class _QC:
    """Gaussian rational: exact complex arithmetic on Fraction pairs."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def from_complex(cls, z: complex) -> "_QC":
        return cls(Fraction(float(z.real)), Fraction(float(z.imag)))

    def __add__(self, other):
        return _QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _QC(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def inverse(self) -> "_QC":
        denom = self.re * self.re + self.im * self.im
        return _QC(self.re / denom, -self.im / denom)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def _exact_rank(rows: list[list[_QC]]) -> int:
    rows = [list(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < n_cols:
        pivot = next((r for r in range(rank, len(rows))
                      if not rows[r][col].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [inv * v for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def sylvester_nullity_exact(a: np.ndarray, b: np.ndarray) -> int:
    """dim{X : A X = X B} by exact elimination; entries must be exact floats.

    The linear map is materialized column by column on the standard basis
    matrices E_pq, independently of any vectorization/SVD shortcut.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    m, n = a.shape[0], b.shape[0]
    columns = []
    for p in range(m):
        for q in range(n):
            basis = np.zeros((m, n), dtype=complex)
            basis[p, q] = 1.0
            image = a @ basis - basis @ b
            columns.append([_QC.from_complex(v) for v in image.ravel()])
    rows = [[columns[c][r] for c in range(len(columns))]
            for r in range(m * n)]
    return m * n - _exact_rank(rows)


def bergman_frame_jets(weights, size: int, x, at: complex, order: int,
                       change=None) -> np.ndarray:
    """Taylor jets (1/i!) d^i gamma/dw^i, i = 0..order, by sympy
    differentiation, as an (order + 1, rank, dim) array.

    The sections are t_n(w) = (sqrt(binomial(n+k-1, k)) w^k)_{k < size}.  One
    weight gives the frame gamma_0 = t_n; two give gamma_0 = (t0, 0),
    gamma_1 = (X t1, t1), with X a list of rows of exact numbers.  `change`
    (rows of exact numbers) replaces gamma by gamma g.
    """
    sections = [sp.Matrix([sp.sqrt(sp.binomial(n + k - 1, k)) * _W ** k
                           for k in range(size)]) for n in weights]
    if len(sections) == 1:
        frame = sections
    else:
        t0, t1 = sections
        frame = [t0.col_join(sp.zeros(size, 1)), (sp.Matrix(x) * t1).col_join(t1)]
    if change is not None:
        frame = [sum((change[p][q] * vec for p, vec in enumerate(frame)),
                     sp.zeros(len(frame[0]), 1)) for q in range(len(frame))]
    point = sp.nsimplify(at.real) + sp.I * sp.nsimplify(at.imag)
    return np.array([[[complex(sp.N(sp.diff(entry, _W, i).subs(_W, point)
                                    / sp.factorial(i), 30))
                       for entry in vec] for vec in frame]
                     for i in range(order + 1)])


def dense_block(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """[[A, B], [C, D]] by `np.block` from equal-size square blocks: arrays,
    or objects read through their `.matrix` (a model operator), with None
    for a zero block of the given blocks' common dtype."""
    mats = [b if b is None else np.asarray(getattr(b, "matrix", b))
            for b in (top_left, top_right, bottom_left, bottom_right)]
    given = [m for m in mats if m is not None]
    zero = np.zeros(given[0].shape, dtype=np.result_type(*given))
    a, b, c, d = (zero if m is None else m for m in mats)
    return np.block([[a, b], [c, d]])


def padded_frame_jets(coefficients, points, order: int, x=None,
                      change=None) -> np.ndarray:
    """Frame jet rows (1/i!) d^i gamma/dw^i, i = 0..order, zero padding
    included, as a points.shape + (order + 1, rank, dim) array.

    Coordinate k of jet i of a section is sqrt(a_k) C(k, i) w^(k - i), from
    `np.power` and `math.comb`.  One coefficient array gives the frame
    gamma_0 = t; two give gamma_0 = (t0, 0), gamma_1 = (X t1, t1).
    `change` g replaces gamma by gamma g.
    """
    points = np.asarray(points, dtype=complex)

    def jets(a):
        a = np.asarray(a, dtype=float)
        n = a.size
        out = np.zeros(points.shape + (order + 1, n), dtype=complex)
        for i in range(min(order, n - 1) + 1):
            weights = np.sqrt(a[i:]) * np.array([math.comb(k, i) for k in range(i, n)],
                                                dtype=float)
            out[..., i, i:] = weights * np.power(points[..., None], np.arange(n - i))
        return out

    sections = [jets(a) for a in coefficients]
    if len(sections) == 1:
        rows = sections[0][..., None, :]
    else:
        t0, t1 = sections
        n = t0.shape[-1]
        rows = np.zeros(t0.shape[:-1] + (2, 2 * n), dtype=complex)
        rows[..., 0, :n] = t0
        rows[..., 1, :n] = t1 @ np.asarray(x).T
        rows[..., 1, n:] = t1
    if change is not None:
        rows = np.asarray(change).T @ rows
    return rows


def row_gram_jet(jets: np.ndarray) -> np.ndarray:
    """The metric jet h[P, a, b][p, q] = G_b[p]^H G_a[q] of frame jet rows
    (points, o + 1, r, dim): per point, the Gram matrix of all (o + 1) r
    full-width rows in one product, zero entries included."""
    count, terms, rank, dim = jets.shape
    rows = jets.reshape(count, terms * rank, dim)
    gram = rows.conj() @ rows.swapaxes(-1, -2)
    return gram.reshape(count, terms, rank, terms, rank).transpose(0, 3, 1, 2, 4)


def section_gram_jet(jets: np.ndarray, n: int) -> np.ndarray:
    """The metric jet of an eigenframe from its frame jet rows (points, o + 1,
    2, 2N) over all points at once, as N-wide section products: with t0, X t1
    and t1 the blocks G[:, :, 0, :N], G[:, :, 1, :N] and G[:, :, 1, N:],
    h_00 = <t0, t0>, h_01 = <X t1, t0>, h_10 its conjugate transpose over
    the jet indices, and h_11 = <X t1, X t1> + <t1, t1>.  Each <u, v> is one
    (o + 1) x (o + 1) product v^H u per point."""
    t0, coupled, t1 = jets[:, :, 0, :n], jets[:, :, 1, :n], jets[:, :, 1, n:]

    def inner(u, v):
        return (v.conj() @ u.swapaxes(-1, -2)).swapaxes(-1, -2)

    count, terms = jets.shape[:2]
    h = np.empty((count, terms, terms, 2, 2), dtype=complex)
    h[..., 0, 0] = inner(t0, t0)
    h[..., 0, 1] = inner(coupled, t0)
    h[..., 1, 0] = h[..., 0, 1].swapaxes(1, 2).conj()
    h[..., 1, 1] = inner(coupled, coupled) + inner(t1, t1)
    return h


def row_eigen_residuals(model, vectors: np.ndarray, points: np.ndarray) -> np.ndarray:
    """||(T - w) gamma|| point by point from the full-width frame rows and the
    dense blocks: T gamma is (T0 top + C bottom, T1 bottom) with C = X T1 -
    T0 X."""
    n = model.size
    t0, c, t1 = model.t0.matrix, model.coupling_block, model.t1.matrix
    out = []
    for w, v in zip(points, vectors):
        top, bottom = v[:, :n], v[:, n:]
        tv = np.concatenate([top @ t0.T + bottom @ c.T, bottom @ t1.T], axis=-1)
        out.append(np.linalg.norm(tv - w * v, axis=-1))
    return np.array(out)


def product_gap_bound(n: int, *pairs) -> float:
    """2 gamma_2N sum ||A|| ||B|| (Frobenius) over the (A, B) pairs, with
    gamma_2N = 2N eps.

    Each computed 2N x 2N product A B lies within gamma_2N ||A|| ||B|| of
    the exact one, so two orderings of a residual of such products (dense,
    or block by block) differ by at most this much.
    """
    eps = np.finfo(float).eps
    return 2 * 2 * n * eps * sum(np.linalg.norm(a) * np.linalg.norm(b)
                                 for a, b in pairs)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs, counted
    from zero at the call: the call's own arrays, not its inputs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
