import dataclasses
import itertools
import re

import numpy as np
import pytest
import sympy as sp

from cdlab.errors import (DegenerateFrameError, DomainError,
                          InvalidArgumentError, PrecisionError)
from cdlab.geometry import (SERIES_BLOCK_BYTES, CurvatureField, DiskGrid,
                            FrameField, MetricField, _jet_inverse,
                            _jet_product, covariant_derivative, curvature,
                            curvature_isometry_check, eigenframe, gram_metric,
                            kernel_frame, polar_grid)
from cdlab.kernels import bergman_kernel, section_jets
from cdlab.operators import (ModelOperator, assemble_model, frobenius,
                             random_operator, random_unitary,
                             shift_from_kernel)

from oracles import (_QC, bergman_curvature, bergman_curvature_derivative,
                     bergman_frame_jets, padded_frame_jets, row_eigen_residuals,
                     row_gram_jet, section_gram_jet, traced_peak)


def _model(n0=1, n1=2, size=24, x_seed=5, x_norm=0.5):
    t0 = shift_from_kernel(bergman_kernel(n0, size))
    t1 = shift_from_kernel(bergman_kernel(n1, size))
    x = random_operator(size, x_seed, norm=x_norm)
    return assemble_model(t0, t1, x)


def _eigen_rows(frame, points, order):
    """An eigenframe's jet rows (t0, 0) and (X t1, t1), zero padding
    included, from its own section jets: points.shape + (order + 1, 2, 2N)."""
    t0, coupled, t1 = frame.sections(points, order)
    n = t0.shape[-1]
    rows = np.zeros(t0.shape[:-1] + (2, 2 * n), dtype=complex)
    rows[..., 0, :n] = t0
    rows[..., 1, :n] = coupled
    rows[..., 1, n:] = t1
    return rows


def _curvature_with_derivatives(frame, grid):
    metric = gram_metric(frame)
    fld = curvature(metric, grid, method="series")
    for key in ((1, 0), (0, 1)):
        covariant_derivative(fld, metric, *key)
    return fld, metric


def _nested_wirtinger(f, w, h, conjugate):
    """Pointwise 4-point Wirtinger stencil: the reference the lattice route
    must reproduce."""
    stencil = ((2.0, -1.0), (1.0, 8.0), (-1.0, -8.0), (-2.0, 1.0))
    dx = sum(wt * f(w + off * h) for off, wt in stencil) / (12.0 * h)
    dy = sum(wt * f(w + 1j * off * h) for off, wt in stencil) / (12.0 * h)
    return 0.5 * (dx + 1j * dy) if conjugate else 0.5 * (dx - 1j * dy)


def _tuple_field(grid, k, k_w, k_wbar):
    """Curvature field holding given (points, r, r) tuples (K, K_w, K_wbar)."""
    return CurvatureField(grid=grid, rank=k.shape[-1], method="series",
                          values=k, derivatives={(1, 0): k_w, (0, 1): k_wbar})


def _conjugated(fld, g):
    """The field g^H F g, entry by entry."""
    return _tuple_field(fld.grid, *(g.conj().T @ m @ g for m in
                                    (fld.values, fld.derivatives[(1, 0)],
                                     fld.derivatives[(0, 1)])))


def _random_tuple(rng, points, r):
    """Hermitian K with generic K_w, K_wbar = K_w^H."""
    z = rng.standard_normal((2, points, r, r)) + 1j * rng.standard_normal((2, points, r, r))
    return z[0] + z[0].conj().swapaxes(-1, -2), z[1], z[1].conj().swapaxes(-1, -2)


class TestGrids:
    def test_polar_default_shape(self):
        grid = polar_grid()
        assert len(grid) == 6 * 16
        assert np.max(np.abs(grid.points)) == pytest.approx(0.6)

    def test_stencil_margin_enforced(self):
        with pytest.raises(InvalidArgumentError):
            DiskGrid(points=np.array([0.9995 + 0j]), fd_step=1e-3)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DiskGrid(points=np.array([]))

    @pytest.mark.parametrize("n_angles", [2.5, float("nan"), 0, -3, 16.0, "16"])
    def test_polar_n_angles_must_be_a_positive_integer(self, n_angles):
        with pytest.raises(InvalidArgumentError, match="n_angles must be an integer"):
            polar_grid(n_angles=n_angles)

    @pytest.mark.parametrize("radii", [0.3, [[0.2, 0.4], [0.3, 0.5]]])
    def test_polar_radii_must_be_1d(self, radii):
        with pytest.raises(InvalidArgumentError, match="radii must be 1-d"):
            polar_grid(radii=radii, n_angles=4)

    def test_polar_numpy_integer_angles(self):
        grid = polar_grid(radii=[0.3], n_angles=np.int64(5))
        np.testing.assert_array_equal(grid.points, polar_grid(radii=[0.3], n_angles=5).points)


class TestEigenframe:
    def test_zero_coupling_origin_frame(self):
        t0 = shift_from_kernel(bergman_kernel(1, 6))
        t1 = shift_from_kernel(bergman_kernel(2, 6))
        model = assemble_model(t0, t1, np.zeros((6, 6)))
        grid = DiskGrid(points=np.array([0.0 + 0j]))
        frame = eigenframe(model, grid)
        e0 = np.zeros(6)
        e0[0] = 1.0
        # gamma_0 = (e_0, 0) and gamma_1 = (0, e_0)
        t0, coupled, t1 = (part[0, 0] for part in frame.sections(grid.points, 0))
        np.testing.assert_array_equal(t0, e0)
        np.testing.assert_array_equal(coupled, np.zeros(6))
        np.testing.assert_array_equal(t1, e0)

    def test_residual_tail_bound(self):
        size = 40
        model = _model(size=size)
        x_norm = np.linalg.norm(model.x, 2)
        grid = polar_grid(radii=[0.4, 0.8], n_angles=8)
        frame = eigenframe(model, grid)
        a_last = max(bergman_kernel(1, size).coefficients[-1],
                     bergman_kernel(2, size).coefficients[-1])
        bound = (1 + x_norm) * np.sqrt(a_last) * 0.8 ** size
        assert float(np.max(frame.eigen_residuals)) <= bound * (1 + 1e-10)

    def test_kernelless_blocks_rejected(self):
        model = assemble_model(ModelOperator(np.eye(4)),
                               ModelOperator(np.eye(4)), np.zeros((4, 4)))
        with pytest.raises(InvalidArgumentError):
            eigenframe(model, polar_grid(radii=[0.2], n_angles=2))

    def test_residual_decay_with_truncation_rank_two(self):
        worst = {}
        grid = polar_grid(radii=[0.8], n_angles=4)
        for size in (40, 80):
            model = _model(size=size, x_seed=7)
            worst[size] = float(np.max(eigenframe(model, grid).eigen_residuals))
        # geometric decay, up to the slowly growing weight-two coefficient
        assert worst[80] <= worst[40] * 0.8 ** 40 * 4.0

    @pytest.mark.parametrize("size", [24, 240])
    def test_coupling_jets_match_per_point_products(self, size):
        model = _model(size=size)
        points = polar_grid(radii=[0.2, 0.5], n_angles=5).points
        t0, coupled, t1 = eigenframe(model, DiskGrid(points=points)).sections(points, 3)
        (t1_jets,) = section_jets((model.t1.kernel,), points, 3)
        for p in range(len(points)):
            for order in (1, 2, 3):
                want = model.x @ t1_jets[p, order]
                np.testing.assert_allclose(coupled[p, order], want, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(t1, t1_jets)
        np.testing.assert_array_equal(t0, section_jets((model.t0.kernel,), points, 3)[0])

    @pytest.mark.parametrize("kind,size", [("eigenframe", 24), ("eigenframe", 120)])
    def test_residuals_match_stacked_per_point_products(self, kind, size):
        # radii where the truncation tail, not roundoff, sets each residual
        grid = polar_grid(radii=[0.8, 0.9] if size > 24 else [0.3, 0.6], n_angles=8)
        model = _model(size=size)
        frame = eigenframe(model, grid)
        want = row_eigen_residuals(model, _eigen_rows(frame, grid.points, 0)[:, 0],
                                   grid.points)
        np.testing.assert_allclose(frame.eigen_residuals, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("size", [24, 120])
    def test_block_residuals_match_dense_product(self, size):
        # the blockwise T gamma sums fewer terms than the dense row of T, so
        # it may differ from it by rounding, bounded relative to ||gamma||
        grid = polar_grid(radii=[0.8, 0.9] if size > 24 else [0.3, 0.6], n_angles=8)
        model = _model(size=size)
        frame = eigenframe(model, grid)
        v, t = _eigen_rows(frame, grid.points, 0)[:, 0], model.t
        dense = np.linalg.norm(v @ t.T - grid.points[:, None, None] * v, axis=-1)
        bound = 16 * np.finfo(float).eps * np.linalg.norm(t, 2)
        gap = np.abs(frame.eigen_residuals - dense) / np.linalg.norm(v, axis=-1)
        assert gap.max() <= bound

    @pytest.mark.parametrize("size", [24, 240])
    def test_single_point_jets_equal_the_batch(self, size):
        # X t1 is one product over every point and order; a lone row is
        # multiplied as two, so one point rounds like a row of the batch
        points = polar_grid(radii=[0.2, 0.5], n_angles=5).points
        frame = eigenframe(_model(size=size), DiskGrid(points=points))
        for order in range(4):
            whole = frame.sections(points, order)
            for p, w in enumerate(points):
                for part, batch in zip(frame.sections(w, order), whole, strict=True):
                    np.testing.assert_array_equal(part, batch[p])
                np.testing.assert_array_equal(frame.gram_jet(points[p:p + 1], order),
                                              frame.gram_jet(points, order)[p:p + 1])

    def test_residuals_leave_t_unassembled(self):
        model = _model()
        eigenframe(model, polar_grid(radii=[0.3], n_angles=4))
        assert "t" not in vars(model)


class TestGramMetric:
    def test_orthonormal_frame_gives_identity(self):
        t0 = shift_from_kernel(bergman_kernel(1, 6))
        t1 = shift_from_kernel(bergman_kernel(2, 6))
        model = assemble_model(t0, t1, np.zeros((6, 6)))
        grid = DiskGrid(points=np.array([0.0 + 0j]))
        metric = gram_metric(eigenframe(model, grid))
        np.testing.assert_allclose(metric.values[0], np.eye(2), atol=1e-15)

    def test_rank_one_flat_kernel_scalar(self):
        grid = DiskGrid(points=np.array([0.5 + 0j]))
        metric = gram_metric(kernel_frame(bergman_kernel(1, 200), grid))
        assert metric.values[0][0, 0].real == pytest.approx(1 / (1 - 0.25),
                                                            rel=1e-12)

    def test_constant_scaling_scales_metric(self):
        grid = polar_grid(radii=[0.3], n_angles=4)
        frame = kernel_frame(bergman_kernel(2, 40), grid)
        scaled = frame.with_constant_change(np.array([[2.0 - 1.0j]]))
        base = gram_metric(frame)
        big = gram_metric(scaled)
        np.testing.assert_allclose(big.values, base.values * abs(2 - 1j) ** 2,
                                   rtol=1e-13)

    def test_degenerate_frame_rejected(self):
        # a constant frame of two equal vectors: its Gram matrix is singular
        grid = DiskGrid(points=np.array([0.1 + 0j]))
        vec = np.array([1.0, 0.5, 0.0, 0.0], dtype=complex)

        def rows(points, order):
            jets = np.zeros(np.shape(points) + (order + 1, 2, 4), dtype=complex)
            jets[..., 0, :, :] = vec
            return (jets,)

        # the Gram products at the grid points are formed with the frame
        frame = FrameField(grid=grid, rank=2, dim=4, sections=rows,
                           pairing=lambda parts: row_gram_jet(parts[0]))
        np.testing.assert_array_equal(frame.gram, np.full((1, 2, 2), 1.25))
        with pytest.raises(DegenerateFrameError):
            gram_metric(frame)


def _frames(grid):
    """One frame of each kind, bare and after a constant frame change."""
    rank_one = kernel_frame(bergman_kernel(2, 30), grid)
    rank_two = eigenframe(_model(size=20), grid)
    g = random_operator(2, 11) + 2.0 * np.eye(2)
    return {"kernel_frame": rank_one, "eigenframe": rank_two,
            "kernel_frame*g": rank_one.with_constant_change(np.array([[2.0 - 1.0j]])),
            "eigenframe*g": rank_two.with_constant_change(g)}


class TestArrayEvaluators:
    points = np.array([[0.1 + 0.2j, -0.4j, 0.5], [0.0, -0.3 + 0.3j, 0.7 - 0.1j]])

    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe",
                                      "kernel_frame*g", "eigenframe*g"])
    def test_frame_evaluate_contract(self, kind):
        # the section jets and the metric jet at points of any shape, each
        # point as if it were evaluated alone
        grid = polar_grid(radii=[0.2, 0.5], n_angles=3)
        frame = _frames(grid)[kind]
        r, n = frame.rank, frame.dim // frame.rank
        for order in (0, 2):
            parts = frame.sections(self.points, order)
            assert [part.shape for part in parts] == [(2, 3, order + 1, n)] * (2 * r - 1)
            for p, q in np.ndindex(2, 3):
                for part, alone in zip(parts, frame.sections(self.points[p, q], order),
                                       strict=True):
                    assert np.array_equal(part[p, q], alone)
            jet = frame.gram_jet(self.points, order)
            assert jet.shape == (2, 3, order + 1, order + 1, r, r)
            stacked = np.array([[frame.gram_jet(w, order) for w in row]
                                for row in self.points])
            assert np.array_equal(jet, stacked)
            assert np.array_equal(frame.gram_jet(grid.points, order),
                                  np.array([frame.gram_jet(w, order) for w in grid.points]))
            assert frame.gram_jet(np.complex128(0.3j), order).shape == (
                order + 1, order + 1, r, r)
            assert [part.shape for part in frame.sections(0.3j, order)] == \
                [(order + 1, n)] * (2 * r - 1)

    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe",
                                      "kernel_frame*g", "eigenframe*g"])
    def test_metric_evaluate_contract(self, kind):
        grid = polar_grid(radii=[0.2, 0.5], n_angles=3)
        metric = gram_metric(_frames(grid)[kind])
        r = metric.rank
        stacked = np.array([[metric.evaluate(w) for w in row] for row in self.points])
        assert metric.evaluate(self.points).shape == (2, 3, r, r)
        assert np.array_equal(metric.evaluate(self.points), stacked)
        assert np.array_equal(metric.evaluate(grid.points), metric.values)
        assert metric.evaluate(0.3j).shape == (r, r)

    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe"])
    def test_frame_evaluate_names_point_outside_disk(self, kind):
        frame = _frames(polar_grid(radii=[0.2], n_angles=2))[kind]
        points = np.array([0.1, 0.6 + 0.8j, 0.2j, 1.5])
        for evaluate in (frame.sections, frame.gram_jet):
            with pytest.raises(DomainError, match=re.escape("w=(0.6+0.8j)")):
                evaluate(points, 1)


# exact dyadic entries, so the float matrices equal the sympy ones
_X6 = [[sp.Rational(p - 2 * q, 8) + sp.I * sp.Rational((p + q) % 3, 4)
        for q in range(6)] for p in range(6)]
_CHANGES = {1: [[2 - sp.I / 2]], 2: [[1, sp.I / 2], [-sp.Rational(1, 4), 2]]}


def _as_array(rows):
    return np.array([[complex(v) for v in row] for row in rows])


class TestFrameJets:
    """Frame jets against sympy derivatives: the frame's section jets, and
    the padded rows of `oracles.padded_frame_jets`, on which the metric-jet
    oracles rest; a changed frame changes its metric jet only."""

    points = np.array([0.3 + 0.4j, -0.5 + 0.125j, 0.0])

    @pytest.mark.parametrize("weights", [(2,), (1, 3)])
    @pytest.mark.parametrize("changed", [False, True])
    def test_jets_match_symbolic_derivatives(self, weights, changed):
        grid = DiskGrid(points=self.points)
        kernels = [bergman_kernel(n, 6) for n in weights]
        if len(weights) == 1:
            frame = kernel_frame(kernels[0], grid)
        else:
            frame = eigenframe(assemble_model(*map(shift_from_kernel, kernels),
                                              _as_array(_X6)), grid)
        change = _CHANGES[len(weights)] if changed else None
        g = None if change is None else _as_array(change)
        if changed:
            frame = frame.with_constant_change(g)
        want = np.array([bergman_frame_jets(weights, 6, _X6, w, 3, change)
                         for w in self.points])
        assert want.shape == (3, 4, len(weights), 6 * len(weights))
        rows = padded_frame_jets([k.coefficients for k in kernels], self.points, 3,
                                 _as_array(_X6), g)
        assert np.max(np.abs(rows - want)) <= 1e-14 * np.max(np.abs(want))
        if not changed:
            # (t,) or (t0, X t1, t1): the nonzero blocks of the frame rows
            blocks = ([want[:, :, 0]] if len(weights) == 1 else
                      [want[:, :, 0, :6], want[:, :, 1, :6], want[:, :, 1, 6:]])
            for part, block in zip(frame.sections(self.points, 3), blocks, strict=True):
                assert np.max(np.abs(part - block)) <= 1e-14 * np.max(np.abs(want))
        gram = row_gram_jet(want)
        assert np.max(np.abs(frame.gram_jet(self.points, 3) - gram)) \
            <= 1e-14 * np.max(np.abs(gram))

    def test_jets_beyond_the_truncation_vanish(self):
        frame = kernel_frame(bergman_kernel(1, 3), DiskGrid(points=self.points))
        (jets,) = frame.sections(self.points, 4)
        assert np.all(jets[:, 3:] == 0) and np.all(jets[:, 2, 2] == 1)


def _changed_row_norms(jets, g):
    """sum_t |g_tq| ||G_a[t]||: the row norms of the jets of gamma g, before
    any cancellation, as (points, o + 1, r)."""
    return np.linalg.norm(jets, axis=-1) @ np.abs(g)


class TestGramJets:
    """Each frame kind's metric jet against the Gram matrix of its full-width
    frame jet rows (`oracles.row_gram_jet` of `oracles.padded_frame_jets`).

    Entry h[a, b][p, q] is a sum of dim products, so both lie within about
    dim eps ||G_a[q]|| ||G_b[p]|| of the exact value (Cauchy-Schwarz scale,
    and for gamma g the row norms of gamma weighted by |g|): the bound is
    4 dim eps times that scale, dim = N for a kernel frame and 2N for an
    eigenframe.
    """

    points = np.array([0.3 + 0.4j, -0.5 + 0.125j, 0.0, 0.7j, -0.2 - 0.6j])
    changes = {1: np.array([[2.0 - 1.0j]]), 2: random_operator(2, 11) + 2.0 * np.eye(2)}

    @pytest.mark.parametrize("size", [2, 24, 240])
    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe"])
    @pytest.mark.parametrize("changed", [False, True])
    def test_gram_jet_matches_row_gram(self, size, kind, changed):
        grid = DiskGrid(points=self.points)
        if kind == "kernel_frame":
            coefficients, x = (bergman_kernel(2, size).coefficients,), None
            base = kernel_frame(bergman_kernel(2, size), grid)
        else:
            model = _model(size=size)
            coefficients = (model.t0.kernel.coefficients, model.t1.kernel.coefficients)
            x = model.x
            base = eigenframe(model, grid)
        g = self.changes[base.rank] if changed else np.eye(base.rank)
        frame = base.with_constant_change(g) if changed else base
        eps = np.finfo(float).eps
        for order in range(4):
            got = frame.gram_jet(self.points, order)
            want = row_gram_jet(padded_frame_jets(coefficients, self.points, order, x, g))
            assert got.shape == want.shape == (len(self.points), order + 1, order + 1,
                                               base.rank, base.rank)
            norms = _changed_row_norms(
                padded_frame_jets(coefficients, self.points, order, x), g)
            scale = norms[:, :, None, None, :] * norms[:, None, :, :, None]
            assert np.all(np.abs(got - want) <= 4 * frame.dim * eps * scale), order

    @pytest.mark.parametrize("size", [2, 24, 240])
    def test_eigenframe_rows_and_residuals(self, size):
        # the order-0 sections are the order-0 slice of any higher order bit
        # for bit; the residuals, taken from N-wide rows, lie within
        # 2 (2N) eps ||T|| ||gamma|| of the full-width ones
        model = _model(size=size)
        grid = DiskGrid(points=self.points)
        frame = eigenframe(model, grid)
        for part, jets in zip(frame.sections(self.points, 0),
                              frame.sections(self.points, 3), strict=True):
            np.testing.assert_array_equal(part[:, 0], jets[:, 0])
        vectors = _eigen_rows(frame, self.points, 0)[:, 0]
        want = row_eigen_residuals(model, vectors, self.points)
        bound = (2 * 2 * size * np.finfo(float).eps * np.linalg.norm(model.t, 2)
                 * np.linalg.norm(vectors, axis=-1))
        assert np.all(np.abs(frame.eigen_residuals - want) <= bound)

    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe",
                                      "kernel_frame*g", "eigenframe*g"])
    def test_grid_products_are_the_order_zero_jet(self, kind):
        # formed when the frame is built, bit for bit what gram_jet gives on
        # the grid
        grid = polar_grid(radii=[0.2, 0.5], n_angles=3)
        frame = _frames(grid)[kind]
        np.testing.assert_array_equal(frame.gram, frame.gram_jet(grid.points, 0)[:, 0, 0])


class TestCurvature:
    def test_flat_kernel_origin_value(self):
        grid = DiskGrid(points=np.array([0.0 + 0j]))
        metric = gram_metric(kernel_frame(bergman_kernel(1, 40), grid))
        fld = curvature(metric, grid, method="series")
        assert fld.values[0][0, 0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_series_matches_symbolic_oracle(self, n):
        grid = polar_grid(radii=[0.25, 0.5], n_angles=4)
        metric = gram_metric(kernel_frame(bergman_kernel(n, 80), grid))
        fld = curvature(metric, grid, method="series")
        for w, mat in zip(grid.points, fld.values):
            oracle = bergman_curvature(n, complex(w))
            assert abs(mat[0, 0] - oracle) <= 1e-12 * abs(oracle)

    def test_half_radius_closed_form(self):
        # -n/(1-1/4)^2 = -16n/9 at |w| = 1/2
        grid = DiskGrid(points=np.array([0.5 + 0j]))
        for n in (1, 2, 3):
            metric = gram_metric(kernel_frame(bergman_kernel(n, 80), grid))
            fld = curvature(metric, grid, method="series")
            assert fld.values[0][0, 0].real == pytest.approx(-16 * n / 9,
                                                             rel=1e-6)

    def test_constant_metric_zero_curvature(self):
        grid = polar_grid(radii=[0.3], n_angles=4)
        h0 = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
        metric = MetricField(grid=grid, rank=2,
                             values=np.array([h0] * len(grid)),
                             evaluate=lambda w: np.broadcast_to(
                                 h0, np.shape(w) + h0.shape))
        fld = curvature(metric, grid, method="fd")
        assert frobenius(np.asarray(fld.values)) < 1e-10

    def test_series_vs_fd_agreement(self):
        grid = polar_grid(radii=[0.2, 0.4, 0.6], n_angles=8, fd_step=1e-3)
        metric = gram_metric(kernel_frame(bergman_kernel(2, 80), grid))
        series = np.array([m[0, 0] for m in
                           curvature(metric, grid, "series").values])
        fd = np.array([m[0, 0] for m in curvature(metric, grid, "fd").values])
        assert np.max(np.abs(series - fd) / np.abs(series)) <= 1e-4

    def test_rank_two_series_vs_fd(self):
        model = _model(size=20)
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        metric = gram_metric(eigenframe(model, grid))
        series = np.asarray(curvature(metric, grid, "series").values)
        fd = np.asarray(curvature(metric, grid, "fd").values)
        assert frobenius(series - fd) / frobenius(series) <= 1e-4

    def test_rank_one_negative_real(self):
        grid = polar_grid()
        metric = gram_metric(kernel_frame(bergman_kernel(2, 80), grid))
        for mat in curvature(metric, grid, "series").values:
            assert abs(mat[0, 0].imag) < 1e-10
            assert mat[0, 0].real < 0

    def test_fd_stencil_leaving_disk(self):
        grid = DiskGrid(points=np.array([0.995 + 0j]), fd_step=1e-3)
        metric = gram_metric(kernel_frame(bergman_kernel(1, 400), grid))
        with pytest.raises(DomainError) as err:
            curvature(metric, grid, method="fd")
        message = str(err.value)
        assert "(0.995+0j)" in message
        # the named step is the largest two-digit step inside the disk:
        # (1 - 0.995) / (2 sqrt(2) * 2) = 8.84e-4
        step = float(re.search(r"fd_step (\S+) fits", message).group(1))
        assert step == pytest.approx(8.8e-4)
        fitting = DiskGrid(points=grid.points, fd_step=step)
        fld = curvature(gram_metric(kernel_frame(bergman_kernel(1, 400), fitting)),
                        fitting, method="fd")
        assert np.all(np.isfinite(fld.values))

    def test_fd_reach_grows_with_order(self):
        # |w| + 2 sqrt(2) h levels: 0.9957 for K, 1.0013 for K_{w wbar}
        grid = DiskGrid(points=np.array([0.99 + 0j]), fd_step=1e-3)
        metric = gram_metric(kernel_frame(bergman_kernel(1, 400), grid))
        fld = curvature(metric, grid, method="fd")
        with pytest.raises(DomainError, match="depth 4"):
            covariant_derivative(fld, metric, 1, 1)

    def test_series_needs_polynomial(self):
        grid = polar_grid(radii=[0.3], n_angles=2)
        metric = MetricField(grid=grid, rank=1,
                             values=np.ones((len(grid), 1, 1)),
                             evaluate=lambda w: np.broadcast_to(
                                 np.eye(1), np.shape(w) + (1, 1)))
        with pytest.raises(InvalidArgumentError):
            curvature(metric, grid, method="series")

    def test_series_needs_the_frame_dimension(self):
        # the series route takes the frame's gram_jet, which sizes its blocks
        # of grid points from the frame's dimension; the metric holds none
        grid = polar_grid(radii=[0.3], n_angles=4)
        frame = kernel_frame(bergman_kernel(2, 30), grid)
        metric = gram_metric(frame)
        assert not hasattr(metric, "dim")
        wide, sizes = dataclasses.replace(frame, dim=2**20), []

        def counting(points, order):
            sizes.append(len(points))
            return frame.sections(points, order)

        wide.sections = counting
        bare = MetricField(grid=grid, rank=1, values=metric.values, gram_jet=wide.gram_jet)
        np.testing.assert_array_equal(curvature(bare, grid, "series").values,
                                      curvature(metric, grid, "series").values)
        assert sizes == [2, 2]
        with pytest.raises(InvalidArgumentError, match="needs a metric jet"):
            curvature(MetricField(grid=grid, rank=1, values=metric.values), grid, "series")


class TestJetArithmetic:
    """The series route's truncated jet product and jet inverse against the
    Cauchy product in exact Gaussian rationals."""

    @staticmethod
    def _exact_product(x, y):
        """The Cauchy product of two (points, o + 1, o + 1, r, r) jets, exact
        in the floats they hold, as a nested list [point][i][j][a][b]."""
        xq, yq = ([[[[[_QC.from_complex(v) for v in row] for row in mat]
                     for mat in line] for line in point] for point in jet]
                  for jet in (x, y))
        points, ow, ob, r = x.shape[0], x.shape[1], x.shape[2], x.shape[3]
        out = [[[[[_QC() for _ in range(r)] for _ in range(r)] for _ in range(ob)]
                for _ in range(ow)] for _ in range(points)]
        for n, i, j, p, q, a, k, b in itertools.product(
                range(points), range(ow), range(ob), range(ow), range(ob),
                range(r), range(r), range(r)):
            if p <= i and q <= j:
                out[n][i][j][a][b] += xq[n][p][q][a][k] * yq[n][i - p][j - q][k][b]
        return out

    def test_product_and_inverse_against_exact_arithmetic(self):
        # integer entries up to 4 + 4i around the head 12 I, orders 3 x 3
        rng = np.random.default_rng(7)
        shape = (3, 4, 4, 2, 2)
        h = (rng.integers(-4, 5, shape) + 1j * rng.integers(-4, 5, shape)).astype(complex)
        h[:, 0, 0] += 12.0 * np.eye(2)
        inverse = _jet_inverse(h)
        product = _jet_product(h, inverse, 3, 3)
        exact = self._exact_product(h, inverse)
        # each entry sums at most 16 orders times 2 products of two entries
        scale = 32 * np.abs(h).max() * np.abs(inverse).max()
        eps = np.finfo(float).eps
        identity = np.zeros(shape, dtype=complex)
        identity[:, 0, 0] = np.eye(2)
        for index in np.ndindex(shape):
            n, i, j, a, b = index
            value = exact[n][i][j][a][b]
            for reference, c in ((product[index], 8), (identity[index], 64)):
                gap = value - _QC.from_complex(reference)
                assert abs(complex(float(gap.re), float(gap.im))) <= c * eps * scale, index
        # fewer orders are the leading orders of the full product, bit for bit
        np.testing.assert_array_equal(_jet_product(h, inverse, 2, 1),
                                      product[:, :3, :2])
        np.testing.assert_array_equal(_jet_inverse(h[:, :2, :3]), inverse[:, :2, :3])


class TestCovariantDerivatives:
    def test_order_zero_returns_curvature(self):
        grid = DiskGrid(points=np.array([0.2 + 0j]))
        metric = gram_metric(kernel_frame(bergman_kernel(1, 40), grid))
        fld = curvature(metric, grid, "series")
        np.testing.assert_array_equal(
            covariant_derivative(fld, metric, 0, 0), fld.values)

    def test_rank_one_commutator_vanishes(self):
        # for scalars the w-step is a plain derivative; compare to the oracle
        grid = DiskGrid(points=np.array([0.3 + 0.2j]))
        metric = gram_metric(kernel_frame(bergman_kernel(2, 60), grid))
        fld = curvature(metric, grid, "series")
        for (i, j) in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            value = covariant_derivative(fld, metric, i, j)[0][0, 0]
            oracle = bergman_curvature_derivative(2, i, j, 0.3 + 0.2j)
            assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_mixed_second_derivative_at_origin(self):
        # independent symbolic oracle gives -2 for the flat kernel
        grid = DiskGrid(points=np.array([0.0 + 0j]))
        metric = gram_metric(kernel_frame(bergman_kernel(1, 40), grid))
        fld = curvature(metric, grid, "series")
        value = covariant_derivative(fld, metric, 1, 1)[0][0, 0]
        assert value == pytest.approx(
            bergman_curvature_derivative(1, 1, 1, 0.0))
        assert value == pytest.approx(-2.0)

    def test_fd_route_matches_series(self):
        model = _model(size=16)
        grid = DiskGrid(points=np.array([0.25 + 0.1j]), fd_step=1e-3)
        metric = gram_metric(eigenframe(model, grid))
        f_series = curvature(metric, grid, "series")
        f_fd = curvature(metric, grid, "fd")
        for key in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            a = covariant_derivative(f_series, metric, *key)[0]
            b = covariant_derivative(f_fd, metric, *key)[0]
            assert frobenius(a - b) / frobenius(a) < 1e-3

    def test_fd_route_matches_oracle(self):
        grid = polar_grid(radii=[0.3, 0.5], n_angles=2)
        metric = gram_metric(kernel_frame(bergman_kernel(2, 80), grid))
        fld = curvature(metric, grid, "fd")
        for key in ((1, 0), (0, 1), (1, 1)):
            values = covariant_derivative(fld, metric, *key)
            for w, mat in zip(grid.points, values):
                oracle = bergman_curvature_derivative(2, *key, complex(w))
                assert abs(mat[0, 0] - oracle) <= 1e-4 * abs(oracle)

    def test_fd_route_matches_nested_stencils(self):
        model = _model(size=16)
        grid = DiskGrid(points=np.array([0.25 + 0.1j, -0.3 + 0.2j]), fd_step=1e-3)
        metric = gram_metric(eigenframe(model, grid))
        h, h_at = grid.fd_step, metric.evaluate

        def theta(u):
            return np.linalg.solve(h_at(u), _nested_wirtinger(h_at, u, h, False))

        def curv(u):
            return -_nested_wirtinger(theta, u, h, True)

        def curv_w(u):
            k, t = curv(u), theta(u)
            return _nested_wirtinger(curv, u, h, False) + t @ k - k @ t

        fld = curvature(metric, grid, "fd")
        k_w = covariant_derivative(fld, metric, 1, 0)
        for p, w in enumerate(grid.points):
            # the lattice evaluates each patch point once, where the nested
            # sums reach some of them along rounding-different paths
            assert frobenius(fld.values[p] - curv(w)) <= 1e-12 * frobenius(curv(w))
            assert frobenius(k_w[p] - curv_w(w)) <= 1e-9 * frobenius(curv_w(w))

    def test_fd_metric_evaluations_per_point(self):
        # the patch is the cross stencil dilated 2 + i + j times, 33, 73 and
        # 129 offsets; each request evaluates only the offsets it adds
        grid = polar_grid(radii=[0.3], n_angles=3)
        metric = gram_metric(eigenframe(_model(size=12), grid))
        base, calls, evaluator_calls = metric.evaluate, [], []

        def counting(w):
            calls.extend(np.ravel(w))
            evaluator_calls.append(w)
            return base(w)

        metric.evaluate = counting
        fld = curvature(metric, grid, "fd")
        counts, call_counts = [len(calls)], [len(evaluator_calls)]
        for key in ((1, 0), (1, 1)):
            calls.clear()
            evaluator_calls.clear()
            covariant_derivative(fld, metric, *key)
            counts.append(len(calls))
            call_counts.append(len(evaluator_calls))
        assert counts == [33 * len(grid), 40 * len(grid), 56 * len(grid)]
        # one call per new patch offset over all grid points: neither a loop
        # over points nor the whole patch in one call
        assert call_counts == [33, 40, 56]

    def test_order_cap(self):
        grid = DiskGrid(points=np.array([0.1 + 0j]))
        metric = gram_metric(kernel_frame(bergman_kernel(1, 20), grid))
        fld = curvature(metric, grid, "series")
        with pytest.raises(PrecisionError):
            covariant_derivative(fld, metric, 2, 1)


class TestBatching:
    @pytest.mark.parametrize("method", ["series", "fd"])
    def test_grid_matches_single_point_grids(self, method):
        model = _model(size=16)
        grid = polar_grid(radii=[0.25, 0.5], n_angles=3)
        keys = ((1, 0), (0, 1), (1, 1))

        def fields(g):
            frame = eigenframe(model, g)
            metric = gram_metric(frame)
            fld = curvature(metric, g, method)
            return [frame.eigen_residuals, fld.values] + [
                covariant_derivative(fld, metric, *key) for key in keys]

        batched = fields(grid)
        singles = [fields(DiskGrid(points=grid.points[p:p + 1], fd_step=grid.fd_step))
                   for p in range(len(grid))]
        for index, whole in enumerate(batched):
            parts = np.concatenate([single[index] for single in singles])
            assert np.max(np.abs(whole - parts)) <= 1e-13 * np.max(np.abs(whole))


class TestSeriesPointBlocks:
    """The series metric jet is taken over blocks of grid points."""

    grid = polar_grid(radii=0.6 * np.arange(1, 9) / 8, n_angles=64)

    def test_blocks_equal_one_whole_batch(self):
        # 64 points at N = 240 are two blocks at order 1 and three at
        # order 2: each point still takes the products one batch gives it
        grid = polar_grid(radii=[0.2, 0.4, 0.5, 0.6], n_angles=16)
        frame = eigenframe(_model(size=240), grid)
        metric = gram_metric(frame)
        fld = curvature(metric, grid, "series")
        covariant_derivative(fld, metric, 1, 1)
        assert sorted(metric.series_jets) == [1, 2]
        model = _model(size=240)
        coefficients = (model.t0.kernel.coefficients, model.t1.kernel.coefficients)
        for order, jet in metric.series_jets.items():
            rows = _eigen_rows(frame, grid.points, order)
            assert rows.nbytes > SERIES_BLOCK_BYTES
            np.testing.assert_array_equal(jet, section_gram_jet(rows, 240))
            # and within the bound of TestGramJets of the oracle rows' Gram
            oracle = padded_frame_jets(coefficients, grid.points, order, model.x)
            norms = _changed_row_norms(oracle, np.eye(2))
            scale = norms[:, :, None, None, :] * norms[:, None, :, :, None]
            gap = np.abs(jet - row_gram_jet(oracle))
            assert np.all(gap <= 4 * 480 * np.finfo(float).eps * scale)

    def test_series_peak_under_four_mib(self):
        # K then K_{w wbar} at P = 512, N = 240: the order-2 frame jets are
        # a 22.5 MiB table, built and conjugated one block at a time
        metric = gram_metric(eigenframe(_model(size=240), self.grid))

        def series():
            fld = curvature(metric, self.grid, "series")
            covariant_derivative(fld, metric, 1, 1)

        assert traced_peak(series) < 4 * 2**20

    def test_frame_jet_built_once_per_block_and_order(self):
        # the frame's section jets, which its gram_jet pairs block by block
        frame = eigenframe(_model(size=240), self.grid)
        metric = gram_metric(frame)
        base, calls = frame.sections, []

        def counting(points, order):
            calls.append((order, points))
            return base(points, order)

        frame.sections = counting
        fld = curvature(metric, self.grid, "series")
        for key in ((1, 0), (0, 1), (1, 1)):
            covariant_derivative(fld, metric, *key)
        assert [order for order, _ in calls] == sorted(order for order, _ in calls)
        for order in (1, 2):
            blocks = [points for o, points in calls if o == order]
            # each grid point once per order, over several blocks of about
            # SERIES_BLOCK_BYTES of jet rows
            assert len(blocks) > 1
            np.testing.assert_array_equal(np.concatenate(blocks), self.grid.points)
            row_bytes = (order + 1) * 2 * 480 * 16
            assert max(map(len, blocks)) * row_bytes <= SERIES_BLOCK_BYTES + row_bytes
        count = len(calls)
        curvature(metric, self.grid, "series")
        assert len(calls) == count

    def test_blocks_keep_two_points(self):
        # one point's order-1 jet rows (1.28 MB at N = 40000) exceed
        # SERIES_BLOCK_BYTES; five points still split only into 2 + 3
        grid = polar_grid(radii=[0.3], n_angles=5)
        frame = kernel_frame(bergman_kernel(2, 40000), grid)
        metric = gram_metric(frame)
        base, sizes = frame.sections, []

        def counting(points, order):
            sizes.append(len(points))
            return base(points, order)

        frame.sections = counting
        curvature(metric, grid, "series")
        assert sizes == [2, 3]


class TestPointBlocks:
    """Eigenframes, Gram metrics and fd evaluations at P = 512, N = 240 take
    their per-point rows one block of grid points at a time."""

    grid = TestSeriesPointBlocks.grid
    model = _model(size=240)

    def test_eigenframe_equals_one_whole_batch(self):
        model, points, n = self.model, self.grid.points, 240
        frame = eigenframe(model, self.grid)
        vectors = _eigen_rows(frame, points, 0)[:, 0]
        assert vectors.nbytes > 2 * SERIES_BLOCK_BYTES
        top, bottom = vectors[..., :n], vectors[..., n:]
        coupled = (bottom.reshape(-1, n) @ model.coupling_block.T).reshape(top.shape)
        tv = np.concatenate(
            [model.t0.left(top.swapaxes(-1, -2)).swapaxes(-1, -2) + coupled,
             model.t1.left(bottom.swapaxes(-1, -2)).swapaxes(-1, -2)], axis=-1)
        residuals = np.linalg.norm(tv - points[:, None, None] * vectors, axis=-1)
        np.testing.assert_array_equal(frame.eigen_residuals, residuals)

    def test_metric_and_evaluator_equal_one_whole_batch(self):
        frame = eigenframe(self.model, self.grid)
        metric = gram_metric(frame)

        def whole_gram(v):
            h = section_gram_jet(v[:, None], 240)[:, 0, 0]
            return 0.5 * (h + h.conj().swapaxes(-1, -2))

        np.testing.assert_array_equal(
            metric.values, whole_gram(_eigen_rows(frame, self.grid.points, 0)[:, 0]))
        moved = self.grid.points + 1e-3 * (2 - 1j)
        np.testing.assert_array_equal(metric.evaluate(moved),
                                      whole_gram(_eigen_rows(frame, moved, 0)[:, 0]))

    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe*g"])
    def test_gram_jet_equals_one_whole_batch(self, kind):
        # several blocks of grid points at order 1, each point paired as in
        # one pairing of the whole grid's sections
        if kind == "kernel_frame":
            frame = kernel_frame(bergman_kernel(2, 240), self.grid)
        else:
            frame = eigenframe(self.model, self.grid).with_constant_change(
                random_operator(2, 11) + 2.0 * np.eye(2))
        points = self.grid.points
        whole = frame.pairing(frame.sections(points, 1))
        assert 2 * frame.rank * frame.dim * 16 * len(points) > 2 * SERIES_BLOCK_BYTES
        np.testing.assert_array_equal(frame.gram_jet(points, 1), whole)
        np.testing.assert_array_equal(frame.gram, frame.gram_jet(points, 0)[:, 0, 0])

    def test_eigenframe_peak_under_three_mib(self):
        # the frame keeps 16 KiB of Gram products and 8 KiB of residuals;
        # its (P, 2, 2N) frame rows alone would take 7.5 MiB
        assert traced_peak(lambda: eigenframe(self.model, self.grid)) < 3 * 2**20

    def test_gram_metric_peak_under_two_mib(self):
        frame = eigenframe(self.model, self.grid)
        assert traced_peak(lambda: gram_metric(frame)) < 2 * 2**20

    def test_fd_curvature_peak_under_ten_mib(self):
        # 33 lattice offsets, each one evaluator call over all 512 points
        metric = gram_metric(eigenframe(self.model, self.grid))
        assert traced_peak(lambda: curvature(metric, self.grid, "fd")) < 10 * 2**20


class TestMetricCaches:
    grid = polar_grid(radii=[0.3], n_angles=3)
    kinds = {"kernel_frame": lambda g: kernel_frame(bergman_kernel(2, 30), g),
             "eigenframe": lambda g: eigenframe(_model(size=12), g)}

    @pytest.mark.parametrize("method", ["series", "fd"])
    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe"])
    def test_requests_on_one_metric_match_fresh_metrics(self, kind, method):
        frame = self.kinds[kind](self.grid)

        def fresh(key):
            metric = gram_metric(frame)
            return covariant_derivative(curvature(metric, self.grid, method),
                                        metric, *key)

        metric = gram_metric(frame)
        fld = curvature(metric, self.grid, method)
        # higher orders first, then lower ones, then K and K_w on a new field
        for key in ((1, 1), (1, 0), (0, 1)):
            np.testing.assert_array_equal(covariant_derivative(fld, metric, *key),
                                          fresh(key), err_msg=str(key))
        again = curvature(metric, self.grid, method)
        np.testing.assert_array_equal(again.values, fresh((0, 0)))
        np.testing.assert_array_equal(covariant_derivative(again, metric, 1, 0),
                                      fresh((1, 0)))

    @pytest.mark.parametrize("kind", ["kernel_frame", "eigenframe"])
    def test_frame_jet_built_once_per_order(self, kind):
        # the metric jet primitive, which builds the frame's section jets
        metric = gram_metric(self.kinds[kind](self.grid))
        base, orders = metric.gram_jet, []

        def counting(points, order):
            orders.append(order)
            return base(points, order)

        metric.gram_jet = counting
        fld = curvature(metric, self.grid, "series")
        for key in ((1, 0), (0, 1), (1, 1)):
            covariant_derivative(fld, metric, *key)
        curvature(metric, self.grid, "series")
        assert orders == [1, 2]

    @pytest.mark.parametrize("method", ["series", "fd"])
    def test_grid_must_be_the_metrics(self, method):
        metric = gram_metric(self.kinds["eigenframe"](self.grid))
        same = DiskGrid(points=self.grid.points.copy(), fd_step=self.grid.fd_step)
        fld = curvature(metric, same, method)
        covariant_derivative(fld, metric, 1, 0)
        other_points = polar_grid(radii=[0.25], n_angles=3)
        other_step = DiskGrid(points=self.grid.points, fd_step=2e-3)
        for grid in (other_points, other_step):
            with pytest.raises(InvalidArgumentError, match="grid of its metric"):
                curvature(metric, grid, method)
            other = gram_metric(self.kinds["eigenframe"](grid))
            with pytest.raises(InvalidArgumentError, match="grid of its metric"):
                covariant_derivative(curvature(other, grid, method), metric, 1, 0)

    @pytest.mark.parametrize("method", ["series", "fd"])
    def test_derivatives_need_the_fields_own_metric(self, method):
        frames = [kernel_frame(bergman_kernel(n, 30), self.grid) for n in (1, 3)]
        metric, other = (gram_metric(frame) for frame in frames)
        fld = curvature(metric, self.grid, method)
        assert fld.metric is metric
        for key in ((1, 0), (0, 0)):
            with pytest.raises(InvalidArgumentError,
                               match="the metric the curvature came from"):
                covariant_derivative(fld, other, *key)
        # a metric of equal values is another metric as well
        fresh = gram_metric(frames[0])
        with pytest.raises(InvalidArgumentError):
            covariant_derivative(fld, fresh, 1, 0)
        assert fld.derivatives == {}
        np.testing.assert_array_equal(
            covariant_derivative(fld, metric, 1, 0),
            covariant_derivative(curvature(fresh, self.grid, method), fresh, 1, 0))


class TestFrameChangeInvariance:
    def test_unitary_change_preserves_eigenvalues(self):
        model = _model(size=20)
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        frame = eigenframe(model, grid)
        g = random_unitary(2, np.random.default_rng(3))
        base = curvature(gram_metric(frame), grid, "series")
        changed = curvature(gram_metric(frame.with_constant_change(g)),
                            grid, "series")
        for mat_a, mat_b in zip(base.values, changed.values):
            eig_a = np.sort_complex(np.linalg.eigvals(mat_a))
            eig_b = np.sort_complex(np.linalg.eigvals(mat_b))
            np.testing.assert_allclose(eig_a, eig_b, atol=1e-10)

    def test_constant_scalar_scaling_leaves_curvature(self):
        grid = polar_grid(radii=[0.4], n_angles=4)
        frame = kernel_frame(bergman_kernel(1, 60), grid)
        base = curvature(gram_metric(frame), grid, "series")
        scaled = curvature(
            gram_metric(frame.with_constant_change(np.array([[3.0 + 1j]]))),
            grid, "series")
        np.testing.assert_allclose(np.asarray(base.values),
                                   np.asarray(scaled.values), rtol=1e-12)


class TestIsometryCheck:
    def test_field_against_itself(self):
        model = _model(size=16)
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        fld, _ = _curvature_with_derivatives(eigenframe(model, grid), grid)
        results = curvature_isometry_check(fld, fld, tol=1e-12)
        for res in results:
            assert res.found and res.residual <= 1e-12
            np.testing.assert_allclose(
                res.unitary @ res.unitary.conj().T, np.eye(2), atol=1e-10)

    def test_constant_unitary_frame_change_found(self):
        model = _model(size=16)
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        frame = eigenframe(model, grid)
        g = random_unitary(2, np.random.default_rng(11))
        fld_a, _ = _curvature_with_derivatives(frame, grid)
        fld_b, _ = _curvature_with_derivatives(frame.with_constant_change(g),
                                               grid)
        results = curvature_isometry_check(fld_a, fld_b, tol=1e-8)
        assert all(r.found for r in results)
        assert max(r.residual for r in results) <= 1e-8

    def test_independent_models_rejected_with_certificate(self):
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        fld_a, _ = _curvature_with_derivatives(
            eigenframe(_model(1, 2, 16, x_seed=5), grid), grid)
        fld_b, _ = _curvature_with_derivatives(
            eigenframe(_model(2, 3, 16, x_seed=9), grid), grid)
        results = curvature_isometry_check(fld_a, fld_b, tol=1e-8)
        assert all(not r.found for r in results)
        assert all(r.certified_mismatch for r in results)

    def test_requires_matching_grids(self):
        model = _model(size=12)
        grid_a = polar_grid(radii=[0.3], n_angles=4)
        grid_b = polar_grid(radii=[0.4], n_angles=4)
        fld_a, _ = _curvature_with_derivatives(eigenframe(model, grid_a), grid_a)
        fld_b, _ = _curvature_with_derivatives(eigenframe(model, grid_b), grid_b)
        with pytest.raises(InvalidArgumentError):
            curvature_isometry_check(fld_a, fld_b, tol=1e-8)

    def test_requires_derivatives(self):
        model = _model(size=12)
        grid = polar_grid(radii=[0.3], n_angles=4)
        metric = gram_metric(eigenframe(model, grid))
        fld = curvature(metric, grid, "series")
        with pytest.raises(InvalidArgumentError):
            curvature_isometry_check(fld, fld, tol=1e-8)

    def test_rank_one_fields(self):
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        fld_a, _ = _curvature_with_derivatives(
            kernel_frame(bergman_kernel(1, 24), grid), grid)
        fld_b, _ = _curvature_with_derivatives(
            kernel_frame(bergman_kernel(2, 24), grid), grid)
        same = curvature_isometry_check(fld_a, fld_a, tol=1e-10)
        assert all(r.found and r.residual <= 1e-12 for r in same)
        other = curvature_isometry_check(fld_a, fld_b, tol=1e-8)
        assert all(r.certified_mismatch and not r.found for r in other)

    def test_rank_three_unitary_conjugate_found(self):
        rng = np.random.default_rng(8)
        grid = DiskGrid(points=np.array([0.2, 0.4j, -0.3 + 0.1j]))
        fld_a = _tuple_field(grid, *_random_tuple(rng, 3, 3))
        g = random_unitary(3, rng)
        results = curvature_isometry_check(fld_a, _conjugated(fld_a, g), tol=1e-10)
        for res in results:
            assert res.found and res.residual <= 1e-10
            # a generic tuple is irreducible, so V is g^H up to a phase
            assert abs(np.trace(res.unitary @ g)) == pytest.approx(3.0, abs=1e-10)

    def test_rank_three_same_spectrum_different_derivatives(self):
        rng = np.random.default_rng(9)
        grid = DiskGrid(points=np.array([0.2, 0.4j]))
        k, k_w, k_wbar = _random_tuple(rng, 2, 3)
        _, m_w, m_wbar = _random_tuple(rng, 2, 3)
        g = random_unitary(3, rng)
        fld_b = _conjugated(_tuple_field(grid, k, m_w, m_wbar), g)
        results = curvature_isometry_check(_tuple_field(grid, k, k_w, k_wbar),
                                           fld_b, tol=1e-8)
        for res in results:
            assert not res.certified_mismatch and res.eig_gap <= 1e-12
            assert not res.found and res.residual > 1e-3

    def test_reducible_degenerate_tuple_needs_polar_factor(self):
        # diag(A, A) commutes with kron(C, I) for every 2x2 C, so the null
        # space is four-dimensional and holds singular elements; only a
        # generic element's polar factor intertwines
        rng = np.random.default_rng(10)
        grid = DiskGrid(points=np.array([0.1, 0.3j]))
        block = [np.kron(np.eye(2), m) for m in _random_tuple(rng, 2, 2)]
        fld_a = _tuple_field(grid, *block)
        g = random_unitary(4, rng)
        results = curvature_isometry_check(fld_a, _conjugated(fld_a, g), tol=1e-10)
        for res in results:
            assert res.found and res.residual <= 1e-10
            np.testing.assert_allclose(res.unitary @ res.unitary.conj().T,
                                       np.eye(4), atol=1e-12)

    def test_degenerate_eigenvalues_take_dense_search(self):
        # equal kernels with zero coupling give scalar curvature matrices,
        # so the Hermitian-part eigenvalues coincide at every point and the
        # intertwiner null space is all of M_2; a unitary must still be found
        size = 16
        t = shift_from_kernel(bergman_kernel(1, size))
        model = assemble_model(t, t, np.zeros((size, size)))
        grid = DiskGrid(points=np.array([0.3 + 0.2j]))
        frame = eigenframe(model, grid)
        fld_a, _ = _curvature_with_derivatives(frame, grid)
        g = random_unitary(2, np.random.default_rng(4))
        fld_b, _ = _curvature_with_derivatives(frame.with_constant_change(g),
                                               grid)
        gap = np.linalg.eigvalsh(
            0.5 * (fld_a.values[0] + fld_a.values[0].conj().T))
        assert gap[1] - gap[0] < 1e-8
        (result,) = curvature_isometry_check(fld_a, fld_b, tol=1e-8)
        assert result.found and result.residual <= 1e-8
