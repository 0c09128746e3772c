import math
import time

import numpy as np
import pytest

from cdlab import operators
from cdlab.errors import (InvalidArgumentError, NumericError,
                          SingularResolventError)
from cdlab.kernels import bergman_kernel, section_vector
from cdlab.reporting import ConditionReport
from cdlab.operators import (RESOLVENT_COND_CAP, SYLVESTER_MAX_BLOCK_BYTES,
                             UNITARITY_TOL, ModelOperator, apply_mobius,
                             _block_times, _inverse, _real_diagonal, _times,
                             assemble_model, block_matrix,
                             block_norm, block_unitarity_residual,
                             fb2_membership, frobenius, gap_total,
                             guarded_inverse, intertwining_gaps, random_operator,
                             random_unitary, require_unitary, shift_from_kernel,
                             similarity_split, sylvester_kernel,
                             unitarity_residual)

from oracles import product_gap_bound, sylvester_nullity_exact, traced_peak


def _rand(size, seed, norm=1.0):
    return random_operator(size, seed, norm=norm)


class TestShift:
    def test_flat_kernel_unweighted_shift(self):
        op = shift_from_kernel(bergman_kernel(1, 6))
        band = np.diag(op.matrix, 1)
        np.testing.assert_array_equal(band, np.ones(5))
        assert np.count_nonzero(op.matrix) == 5

    def test_weight_two_band(self):
        op = shift_from_kernel(bergman_kernel(2, 6))
        k = np.arange(5)
        np.testing.assert_allclose(np.diag(op.matrix, 1),
                                   np.sqrt((k + 1) / (k + 2)))

    def test_section_is_eigenvector_up_to_tail(self):
        k = bergman_kernel(2, 30)
        op = shift_from_kernel(k)
        w = 0.4 + 0.3j
        t = section_vector(k, w).coordinates
        resid = op.matrix @ t - w * t
        # all coordinates cancel except the last, which carries the tail term
        np.testing.assert_allclose(resid[:-1], 0, atol=1e-14)
        assert abs(resid[-1] + w * t[-1]) < 1e-14

    def test_norm_bound_flat(self):
        op = shift_from_kernel(bergman_kernel(1, 40))
        assert np.linalg.norm(op.matrix, 2) <= 1.0 + 1e-12

    def test_truncation_too_small(self):
        with pytest.raises(InvalidArgumentError):
            shift_from_kernel(bergman_kernel(1, 1))


class TestShiftProducts:
    @pytest.mark.parametrize("size", [24, 120, 240])
    def test_slices_equal_dense_products(self, size):
        # the dense sums only add exact zeros to the one weighted term
        op = shift_from_kernel(bergman_kernel(2, size))
        x = _rand(size, 3)
        stack = np.stack([_rand(size, seed) for seed in (4, 5, 6)])
        for operand in (x, stack, x.real):
            np.testing.assert_array_equal(op.left(operand), op.matrix @ operand)
            np.testing.assert_array_equal(op.right(operand), operand @ op.matrix)

    def test_weights_recorded_for_shifts_only(self):
        op = shift_from_kernel(bergman_kernel(2, 6))
        np.testing.assert_array_equal(op.weights, np.diag(op.matrix, 1).real)
        assert ModelOperator(op.matrix).weights is None

    def test_dense_operator_takes_matmul(self):
        a, x = ModelOperator(_rand(5, 1)), _rand(5, 2)
        np.testing.assert_array_equal(a.left(x), a.matrix @ x)
        np.testing.assert_array_equal(a.right(x), x @ a.matrix)

    @pytest.mark.parametrize("given", [{}, {"dense": np.eye(4),
                                            "weights": np.ones(3)}])
    def test_matrix_or_weights_exactly_one(self, given):
        with pytest.raises(InvalidArgumentError, match="exactly one"):
            ModelOperator(**given)

    def test_weight_shape_checked(self):
        with pytest.raises(InvalidArgumentError, match="shift weights"):
            ModelOperator(weights=np.ones((2, 2)))


class TestShiftHeldAsWeights:
    size = 240

    def test_no_array_of_n_squared_entries(self):
        kernel = bergman_kernel(2, self.size)
        peak = traced_peak(lambda: shift_from_kernel(kernel))
        op = shift_from_kernel(kernel)
        held = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        assert all(v.size < self.size ** 2 for v in held)
        # not even formed on the way: one complex N x N array is 16 N^2 bytes
        assert peak < 16 * self.size ** 2
        assert op.size == self.size

    def test_matrix_equals_the_superdiagonal_construction(self):
        kernel = bergman_kernel(2, self.size)
        op = shift_from_kernel(kernel)
        a = kernel.coefficients
        mat = np.zeros((self.size, self.size), dtype=complex)
        mat[np.arange(self.size - 1), np.arange(1, self.size)] = np.sqrt(a[:-1] / a[1:])
        assert op.matrix.dtype == complex
        np.testing.assert_array_equal(op.matrix, mat)
        assert op.matrix is not op.matrix  # formed on each read
        # any other operator returns the matrix it stores
        dense = ModelOperator(mat)
        assert dense.matrix is dense.matrix and dense.size == self.size

    def test_t_writes_the_weights_onto_the_superdiagonal(self):
        t0 = shift_from_kernel(bergman_kernel(1, self.size))
        t1 = shift_from_kernel(bergman_kernel(2, self.size))
        model = assemble_model(t0, t1, _rand(self.size, 1))
        reference = block_matrix(t0.matrix, model.coupling_block, None, t1.matrix)
        t = model.t
        assert t.dtype == reference.dtype
        assert t.tobytes() == reference.tobytes()
        assert "t" not in vars(model)


def block_product(lhs, rhs) -> list:
    """Blocks of the 2 x 2 block product lhs rhs, each held whole: the
    reference that `intertwining_gaps` must match bit for bit."""
    out = []
    for row in (0, 1):
        for col in (0, 1):
            terms = [t for t in (_block_times(lhs[2 * row], rhs[col]),
                                 _block_times(lhs[2 * row + 1], rhs[2 + col]))
                     if t is not None]
            out.append(terms[0] + terms[1] if len(terms) == 2
                       else terms[0] if terms else None)
    return out


def block_residual(lhs, rhs) -> float:
    """||L - R|| reduced from the four block differences by `block_norm`."""
    return block_norm(c if b is None else b if c is None else b - c
                      for b, c in zip(lhs, rhs))


class TestBlockProduct:
    """`intertwining_gaps(U, A, B)`: the block norms of U A - B U."""

    def _model(self, size=6):
        return assemble_model(shift_from_kernel(bergman_kernel(1, size)),
                              shift_from_kernel(bergman_kernel(2, size)),
                              _rand(size, 1))

    def test_matches_the_dense_product(self):
        # each gap is the norm of a block of the dense U T - B U
        model = self._model()
        u = [_rand(6, seed) for seed in (2, 3, 4, 5)]
        b = [_rand(6, seed) for seed in (6, 7, 8, 9)]
        dense_u, dense_b = block_matrix(*u), block_matrix(*b)
        want = dense_u @ model.t - dense_b @ dense_u
        bound = product_gap_bound(6, (dense_u, model.t), (dense_b, dense_u))
        gaps = intertwining_gaps(u, model.blocks, b)
        for k, gap in enumerate(gaps):
            row, col = divmod(k, 2)
            block = want[row * 6:(row + 1) * 6, col * 6:(col + 1) * 6]
            assert abs(gap - frobenius(block)) <= bound
        assert abs(gap_total(gaps) - frobenius(want)) <= bound

    def test_zero_blocks_skipped(self):
        # a block that is zero on both sides is None; a block zero on one
        # side is the other side's norm
        model = self._model()
        diag = (model.t0, None, None, _rand(6, 7))
        gaps = intertwining_gaps(diag, diag, (None,) * 4)
        assert gaps[1] is None and gaps[2] is None
        assert gaps[0] == frobenius(model.t0.matrix @ model.t0.matrix)
        assert gaps[3] == frobenius(diag[3] @ diag[3])

    @pytest.mark.parametrize("size", [6, 8, 24])
    @pytest.mark.parametrize("shifts", [False, True])
    def test_norm_matches_the_assembled_norm(self, size, shifts):
        for seed in range(10):
            if shifts:
                t0 = shift_from_kernel(bergman_kernel(1 + seed % 3, size))
                t1 = shift_from_kernel(bergman_kernel(2, size))
            else:
                t0 = ModelOperator(_rand(size, seed))
                t1 = ModelOperator(_rand(size, seed + 1))
            model = assemble_model(t0, t1, _rand(size, seed + 2))
            got = block_norm(model.blocks)
            assert "t" not in vars(model)
            assert abs(got - frobenius(model.t)) <= 1e-15 * frobenius(model.t)

    def test_residual_matches_the_dense_difference(self):
        # the norm is reduced from the four block differences, and agrees
        # with the norm of the dense 2N x 2N difference to rounding
        a, b, c = _rand(4, 1), _rand(4, 2), _rand(4, 3)
        eye, zero = np.eye(4), np.zeros((4, 4))
        eps = np.finfo(float).eps
        for lhs, rhs, dense in (
                ((a, None, None, b), (c, a, None, None),
                 block_matrix(a - c, -a, None, b)),
                ((None, None, b, None), (None, None, None, None),
                 block_matrix(None, None, b, None)),
                ((None, None, None, None), (None, c, None, None),
                 block_matrix(None, -c, None, None))):
            want = frobenius(dense)
            # U = I: U A - B U = A - B
            gaps = intertwining_gaps((eye, None, None, eye), lhs, rhs)
            assert abs(gap_total(gaps) - want) <= 4 * eps * want
        assert intertwining_gaps((eye, None, None, eye), (zero,) * 4,
                                 (None,) * 4) == [0.0] * 4

    @pytest.mark.parametrize("size", [6, 24])
    def test_gaps_equal_the_whole_block_products(self, size):
        # bit for bit the residuals of the products held whole, with shifts,
        # dense blocks and zero blocks on either side
        model = self._model(size)
        dense = [_rand(size, seed) for seed in (2, 3, 4, 5)]
        diag = (_rand(size, 6), None, None, model.t1)
        for u, b in ((dense, [_rand(size, s) for s in (7, 8, 9, 10)]),
                     (diag, (model.t1, None, _rand(size, 11), model.t0)),
                     (diag, model.blocks)):
            lhs, rhs = block_product(u, model.blocks), block_product(b, u)
            gaps = intertwining_gaps(u, model.blocks, b)
            assert gap_total(gaps) == block_residual(lhs, rhs)
            for gap, left, right in zip(gaps, lhs, rhs):
                assert (gap is None) == (left is None and right is None)
                if left is not None and right is not None:
                    assert gap == frobenius(left - right)


class TestUnitarity:
    def test_one_product_gives_the_larger_residual(self):
        # U* U - I and U U* - I share the singular values s_i^2 - 1
        rng = np.random.default_rng(3)
        u = random_unitary(12, rng) @ np.diag(np.linspace(0.5, 1.5, 12))
        u = u @ random_unitary(12, rng)
        eye = np.eye(12)
        old = max(frobenius(u @ u.conj().T - eye), frobenius(u.conj().T @ u - eye))
        svals = np.linalg.svd(u, compute_uv=False)
        assert unitarity_residual(u) == pytest.approx(old, rel=1e-13)
        assert unitarity_residual(u) == pytest.approx(
            math.sqrt(np.sum((svals ** 2 - 1) ** 2)), rel=1e-13)
        with pytest.raises(NumericError, match="probe is not unitary"):
            require_unitary(u, "probe")

    def test_unitary_passes(self):
        u = random_unitary(12, np.random.default_rng(4))
        assert unitarity_residual(u) <= UNITARITY_TOL
        require_unitary(u, "probe")

    @pytest.mark.parametrize("size", [4, 60])
    def test_block_residual_matches_the_assembled_residual(self, size):
        rng = np.random.default_rng(size)
        for u in (random_unitary(2 * size, rng),
                  random_unitary(2 * size, rng) * np.linspace(0.9, 1.1, 2 * size)):
            blocks = (u[:size, :size], u[:size, size:], u[size:, :size],
                      u[size:, size:])
            assert abs(block_unitarity_residual(blocks)
                       - unitarity_residual(block_matrix(*blocks))) <= 1e-14


class TestAssemble:
    def test_zero_coupling_is_block_diagonal(self):
        t0 = shift_from_kernel(bergman_kernel(1, 4))
        t1 = shift_from_kernel(bergman_kernel(2, 4))
        model = assemble_model(t0, t1, np.zeros((4, 4)))
        np.testing.assert_array_equal(model.coupling_block, np.zeros((4, 4)))

    def test_equal_blocks_identity_coupling_vanishes(self):
        a = _rand(4, 0)
        model = assemble_model(ModelOperator(a), ModelOperator(a), np.eye(4))
        np.testing.assert_allclose(model.coupling_block, 0, atol=1e-15)

    def test_t_assembled_on_first_read(self):
        t0 = shift_from_kernel(bergman_kernel(1, 6))
        t1 = shift_from_kernel(bergman_kernel(2, 6))
        x = _rand(6, 1)
        model = assemble_model(t0, t1, x)
        assert "t" not in vars(model)
        # a shift product only adds exact zeros, so the dense formula is exact
        np.testing.assert_array_equal(model.t, np.block([
            [t0.matrix, x @ t1.matrix - t0.matrix @ x],
            [np.zeros((6, 6)), t1.matrix]]))
        # assembled afresh on every read and never kept on the model
        assert model.t is not model.t and "t" not in vars(model)

    def test_coupling_block_formula(self):
        t0, t1, x = _rand(3, 1), _rand(3, 2), _rand(3, 3)
        model = assemble_model(ModelOperator(t0), ModelOperator(t1), x)
        np.testing.assert_allclose(model.coupling_block, x @ t1 - t0 @ x)
        np.testing.assert_array_equal(model.t[3:, :3], np.zeros((3, 3)))
        np.testing.assert_array_equal(model.t[:3, :3], t0)
        np.testing.assert_array_equal(model.t[3:, 3:], t1)

    def test_size_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            assemble_model(ModelOperator(np.eye(3)), ModelOperator(np.eye(4)),
                           np.eye(3))


class TestBlockMatrix:
    def test_equals_np_block(self):
        a, b, c, d = (_rand(3, seed) for seed in range(4))
        np.testing.assert_array_equal(block_matrix(a, b, c, d),
                                      np.block([[a, b], [c, d]]))

    def test_none_is_a_zero_block_of_the_common_dtype(self):
        a, d = np.eye(2), 2.0 * np.eye(2)
        out = block_matrix(a, None, None, d)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))
        assert block_matrix(a, None, None, 1j * d).dtype == complex

    def test_unequal_blocks_rejected(self):
        with pytest.raises(InvalidArgumentError):
            block_matrix(np.eye(2), np.ones((2, 3)), None, np.eye(2))

    def test_stack_rejected(self):
        # every caller assembles one matrix; a stack of blocks is refused
        stack = np.stack([_rand(3, seed) for seed in range(4)])
        with pytest.raises(InvalidArgumentError, match="of one size"):
            block_matrix(stack, None, None, stack)


class TestFb2Membership:
    def test_commuting_coupling_reduces_to_zero(self):
        a = _rand(4, 5)
        x = 1.7 * np.eye(4) + 0.3 * a  # commutes with a
        member, residual = fb2_membership(ModelOperator(a), ModelOperator(a),
                                          x, 1e-10)
        assert member and residual < 1e-13

    def test_zero_coupling(self):
        t0, t1 = ModelOperator(_rand(4, 6)), ModelOperator(_rand(4, 7))
        member, residual = fb2_membership(t0, t1, np.zeros((4, 4)), 1e-10)
        assert member and residual == 0.0

    def test_generic_triple_is_outside(self):
        t0, t1, x = (ModelOperator(_rand(4, 8)), ModelOperator(_rand(4, 9)),
                     _rand(4, 10))
        member, residual = fb2_membership(t0, t1, x, 1e-10)
        a, b = t0.matrix, t1.matrix
        direct = frobenius(x @ b @ b - 2 * a @ x @ b + a @ a @ x)
        assert not member
        assert residual == pytest.approx(direct)

    def test_scale_invariance_of_verdict(self):
        t0, t1, x = (ModelOperator(_rand(4, 8)), ModelOperator(_rand(4, 9)),
                     _rand(4, 10))
        verdict_small, _ = fb2_membership(t0, t1, 1e-8 * x, 1e-10)
        verdict_big, _ = fb2_membership(t0, t1, 1e8 * x, 1e-10)
        assert verdict_small == verdict_big

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tol_must_be_positive(self, tol):
        t0, t1 = ModelOperator(_rand(4, 8)), ModelOperator(_rand(4, 9))
        with pytest.raises(InvalidArgumentError, match="tol must be positive"):
            fb2_membership(t0, t1, _rand(4, 10), tol)


def _jordan(size, eig=0.0):
    mat = np.eye(size, dtype=complex) * eig
    mat[np.arange(size - 1), np.arange(1, size)] = 1.0
    return mat


class TestSylvesterKernel:
    @pytest.mark.parametrize("a,b", [
        (np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0])),
        (np.diag([1.0, 1.0, 2.0]), np.diag([1.0, 1.0, 2.0])),
        (_jordan(3), _jordan(3)),
        (_jordan(2), _jordan(4)),
        (np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
        (np.diag([1.0j, -1.0j]), np.diag([1.0j, 2.0j])),
        (_jordan(2, 1.0), np.diag([1.0, 2.0])),
    ])
    def test_dimension_matches_exact_elimination_oracle(self, a, b):
        assert sylvester_kernel(a, b).dimension == sylvester_nullity_exact(a, b)

    def test_disjoint_spectra_trivial_kernel(self):
        space = sylvester_kernel(np.diag([1.0, 2.0]), np.diag([5.0, 6.0]))
        assert space.dimension == 0 and space.basis == []

    def test_basis_orthonormal_in_frobenius(self):
        space = sylvester_kernel(np.diag([1.0, 2.0, 3.0]),
                                 np.diag([1.0, 2.0, 3.0]))
        gram = np.array([[np.vdot(p, q) for q in space.basis]
                         for p in space.basis])
        np.testing.assert_allclose(gram, np.eye(space.dimension), atol=1e-12)

    def test_residual_bound(self):
        a, b = _rand(4, 11), _rand(4, 11)  # same seed: equal, big kernel
        space = sylvester_kernel(a, b)
        scale = np.linalg.norm(a, 2) + np.linalg.norm(b, 2)
        assert space.residual <= 10 * 1e-10 * scale
        recomputed = max((frobenius(a @ m - m @ b) for m in space.basis),
                         default=0.0)
        assert space.residual == pytest.approx(recomputed)

    @pytest.mark.parametrize("seed", range(5))
    def test_dimension_invariant_under_unitary_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        a = np.diag([1.0, 1.0, 2.0])
        b = _jordan(3)
        base = sylvester_kernel(a, b).dimension
        q = random_unitary(3, rng)
        conj = sylvester_kernel(q @ a @ q.conj().T, q @ b @ q.conj().T).dimension
        assert conj == base


def _dense_sylvester_basis(a, b, tol=1e-10):
    """SVD of the whole Kronecker operator I (x) A - B^T (x) I: the reference
    the block split must reproduce."""
    m, n = a.shape[0], b.shape[0]
    big = np.kron(np.eye(n), a) - np.kron(b.T, np.eye(m))
    _, svals, vh = np.linalg.svd(big)
    cutoff = tol * svals[0] if svals[0] > 0 else 0.0
    return [row.reshape((m, n), order="F") for row in vh[svals <= cutoff].conj()]


def _weighted_shift(weights):
    size = len(weights) + 1
    mat = np.zeros((size, size), dtype=complex)
    mat[np.arange(size - 1), np.arange(1, size)] = weights
    return mat


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the arrays passed to np.linalg.svd while the test runs."""
    calls = []
    svd = np.linalg.svd

    def counted(mat, *args, **kwargs):
        calls.append(np.shape(mat))
        return svd(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def _projector(basis):
    vecs = np.array([mat.ravel() for mat in basis])
    return vecs.T @ vecs.conj()


def _shift(n, size):
    return shift_from_kernel(bergman_kernel(n, size)).matrix


class TestSylvesterBlockSplit:
    @pytest.mark.parametrize("size", [2, 5, 8])
    @pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 1), (3, 3)])
    def test_square_shift_pairs_match_oracle(self, size, n_a, n_b):
        a, b = _shift(n_a, size), _shift(n_b, size)
        assert sylvester_kernel(a, b).dimension == sylvester_nullity_exact(a, b)

    @pytest.mark.parametrize("m,n", [(5, 7), (7, 5), (2, 6)])
    def test_rectangular_shift_pairs_match_oracle(self, m, n):
        a, b = _shift(1, m), _shift(2, n)
        space = sylvester_kernel(a, b)
        assert space.dimension == sylvester_nullity_exact(a, b)
        assert all(mat.shape == (m, n) for mat in space.basis)

    @pytest.mark.parametrize("a,b", [
        (np.zeros((3, 3)), np.zeros((4, 4))),
        (np.zeros((4, 4)), np.zeros((2, 2))),
    ])
    def test_zero_pair_every_unknown_free(self, a, b):
        space = sylvester_kernel(a, b)
        assert space.dimension == a.shape[0] * b.shape[0]
        assert space.residual == 0.0

    @pytest.mark.parametrize("a,b", [
        (np.zeros((3, 3)), _jordan(4)),
        (_jordan(3), np.zeros((2, 2))),
        (np.diag([1.0, 2.0, 0.0]), np.zeros((2, 2))),
    ])
    def test_one_zero_side_matches_oracle(self, a, b):
        assert sylvester_kernel(a, b).dimension == sylvester_nullity_exact(a, b)

    @pytest.mark.parametrize("size", [4, 9, 16])
    def test_shift_pairs_match_dense_reference(self, size, svd_calls):
        a, b = _shift(1, size), _shift(2, size)
        for lhs, rhs in ((a, b), (b, a)):
            space = sylvester_kernel(lhs, rhs)
            assert svd_calls == []  # the chain route
            reference = _dense_sylvester_basis(lhs, rhs)
            svd_calls.clear()
            assert space.dimension == len(reference) == size
            distance = np.abs(_projector(space.basis) - _projector(reference)).max()
            assert distance <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_pairs_bit_identical_to_reference(self, seed):
        # B similar to A: distinct shared eigenvalues give a 5-dimensional space
        a = random_operator(5, seed)
        s = _rand(5, seed + 10)
        b = np.linalg.solve(s, a @ s)
        space = sylvester_kernel(a, b)
        reference = _dense_sylvester_basis(a, b)
        assert space.dimension == len(reference) == 5
        assert all(np.array_equal(x, y) for x, y in zip(space.basis, reference))

    def test_cutoff_relative_to_largest_block(self):
        # a 2 x 2 block of norm about 1 and a 1 x 1 block 1e-12, which lies
        # below tol * sigma_max although it is that block's own largest value
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-12]])
        b = np.zeros((1, 1))
        assert sylvester_kernel(a, b).dimension == len(_dense_sylvester_basis(a, b)) == 1

    def test_multi_block_basis_orthonormal(self):
        space = sylvester_kernel(_shift(1, 12), _shift(3, 9))
        gram = np.array([[np.vdot(p, q) for q in space.basis]
                         for p in space.basis])
        assert space.dimension == 9
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)

    def test_large_shift_pair_without_dense_operator(self):
        # the dense route would need a 4096 x 4096 operator (268 MB), over the cap
        assert 16 * 4096 ** 2 > SYLVESTER_MAX_BLOCK_BYTES
        space = sylvester_kernel(_shift(1, 64), _shift(2, 64))
        assert space.dimension == 64
        assert space.residual <= 1e-12

    def test_block_over_memory_cap_refused_before_svd(self):
        # a dense pair couples every unknown: one 4900 x 4900 block, 384 MB
        a, b = _rand(70, 1), _rand(70, 2)
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError,
                           match=r"4900 x 4900 needs 384 MB dense, above the 256 MB cap"):
            sylvester_kernel(a, b)
        assert time.perf_counter() - start < 2.0


class TestSylvesterChainRoute:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("m,n", [(7, 7), (4, 9), (9, 2)])
    def test_shift_pairs_match_exact_oracle(self, scale, m, n, svd_calls):
        rng = np.random.default_rng(m + 10 * n)
        a, b = (_weighted_shift(scale * rng.uniform(0.5, 2.0, size - 1)
                                * np.exp(1j * rng.uniform(0.0, 6.0, size - 1)))
                for size in (m, n))
        for lhs, rhs in ((a, b), (b, a)):
            space = sylvester_kernel(lhs, rhs)
            assert space.dimension == sylvester_nullity_exact(lhs, rhs)
        assert svd_calls == []

    @pytest.mark.parametrize("sigma,expected", [(3e-11, 3), (3e-10, 2)])
    def test_singular_value_near_cutoff_takes_block_route(self, sigma, expected,
                                                          svd_calls):
        # the square chain of diagonal 0 is [[-e, 1], [0, -e]], whose smallest
        # singular value is about e^2, within a factor 10 of the cutoff 1e-10
        eps = math.sqrt(sigma)
        a, b = _weighted_shift([1.0]), _weighted_shift([eps, eps])
        space = sylvester_kernel(a, b)
        assert svd_calls
        assert space.dimension == len(_dense_sylvester_basis(a, b)) == expected

    @pytest.mark.parametrize("order", [1, -1])
    def test_recurrence_out_of_range_takes_block_route(self, order, svd_calls):
        # every chain singular value is about 1e6, but the null vectors grow
        # (or shrink) by 1e12 per entry and leave the float range at N = 30
        a, b = _weighted_shift(np.full(29, 1e-6)), _weighted_shift(np.full(29, 1e6))
        space = sylvester_kernel(*(a, b)[::order])
        assert svd_calls
        assert space.dimension == 30

    def test_large_shift_pair_without_svd(self, svd_calls):
        space = sylvester_kernel(_shift(1, 240), _shift(2, 240))
        assert space.dimension == 240 and space.residual <= 1e-12
        assert svd_calls == []
        # the dense basis would take 240^3 complex entries (221 MB)
        assert "basis" not in vars(space)

    def test_basis_built_on_first_read(self):
        space = sylvester_kernel(_shift(1, 6), _shift(2, 6))
        assert "basis" not in vars(space)
        basis = space.basis
        assert vars(space)["basis"] is basis and len(basis) == 6

    @pytest.mark.parametrize("operand", ["A", "B"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operand_refused(self, operand, value, svd_calls):
        mats = {"A": _jordan(3), "B": _jordan(3)}
        mats[operand][0, 1] = value
        with pytest.raises(NumericError,
                           match=f"Sylvester operand {operand} contains NaN or Inf"):
            sylvester_kernel(mats["A"], mats["B"])
        assert svd_calls == []


def _split_w(model):
    """W = [[I, -X], [0, I]] of `similarity_split`, assembled."""
    eye = np.eye(model.size, dtype=complex)
    return block_matrix(eye, -model.x, None, eye)


class TestSimilaritySplit:
    def test_zero_coupling_identity_transform(self):
        t0 = shift_from_kernel(bergman_kernel(1, 4))
        t1 = shift_from_kernel(bergman_kernel(2, 4))
        split = similarity_split(assemble_model(t0, t1, np.zeros((4, 4))))
        np.testing.assert_array_equal(_split_w(split.model), np.eye(8))
        assert split.residual == 0.0

    def test_random_blocks_algebraic_identity(self):
        model = assemble_model(ModelOperator(_rand(4, 1)),
                               ModelOperator(_rand(4, 2)), _rand(4, 3))
        split = similarity_split(model)
        assert split.residual <= 1e-12 * frobenius(model.t)

    def test_inverse_is_exact(self):
        model = assemble_model(ModelOperator(_rand(5, 4)),
                               ModelOperator(_rand(5, 5)), _rand(5, 6))
        split = similarity_split(model)
        eye = np.eye(5, dtype=complex)
        w_inv = block_matrix(eye, model.x, None, eye)
        np.testing.assert_array_equal(_split_w(split.model) @ w_inv, np.eye(10))

    @pytest.mark.parametrize("shifts", [False, True])
    def test_residual_agrees_with_dense_product(self, shifts):
        size = 8
        if shifts:
            t0 = shift_from_kernel(bergman_kernel(1, size))
            t1 = shift_from_kernel(bergman_kernel(2, size))
        else:
            t0, t1 = ModelOperator(_rand(size, 1)), ModelOperator(_rand(size, 2))
        model = assemble_model(t0, t1, _rand(size, 3))
        split = similarity_split(model)
        assert "t" not in vars(model)
        w = _split_w(model)
        diag = block_matrix(t0.matrix, None, None, t1.matrix)
        dense = frobenius(w @ model.t - diag @ w)
        bound = product_gap_bound(size, (w, model.t), (diag, w))
        assert abs(split.residual - dense) <= bound

    def test_matrices_equal_the_block_assembly(self):
        # W T W^{-1}, with W assembled from the split's model, is the block
        # assembly T0 (+) T1
        model = assemble_model(ModelOperator(_rand(5, 4)),
                               ModelOperator(_rand(5, 5)), _rand(5, 6))
        split = similarity_split(model)
        assert split.model is model
        eye = np.eye(5, dtype=complex)
        w, w_inv = _split_w(model), block_matrix(eye, model.x, None, eye)
        wt = w @ model.t
        diag = block_matrix(model.t0.matrix, None, None, model.t1.matrix)
        bound = product_gap_bound(5, (w, model.t), (wt, w_inv))
        assert frobenius(wt @ w_inv - diag) <= bound


class TestMobius:
    def test_zero_parameter_negates(self):
        a = _rand(4, 1)
        np.testing.assert_allclose(apply_mobius(a, 0.0), -a, atol=1e-15)

    def test_zero_matrix_maps_to_scalar(self):
        out = apply_mobius(np.zeros((3, 3)), 0.4 + 0.1j, phase=0.7)
        np.testing.assert_allclose(out, np.exp(0.7j) * (0.4 + 0.1j) * np.eye(3))

    @pytest.mark.parametrize("seed", range(4))
    def test_involution(self, seed):
        a = _rand(5, seed, norm=0.5)
        twice = apply_mobius(apply_mobius(a, 0.3 - 0.45j), 0.3 - 0.45j)
        assert frobenius(twice - a) < 1e-10

    def test_parameter_outside_disk(self):
        with pytest.raises(InvalidArgumentError):
            apply_mobius(np.eye(2), 1.0)

    @pytest.mark.parametrize("a", [np.nan, complex(0.3, np.nan), [0.1, np.nan]],
                             ids=["nan", "complex-nan", "stack-nan"])
    def test_nan_parameter_rejected(self, a):
        # before the resolvent, whose condition number would read inf
        with pytest.raises(InvalidArgumentError, match=r"\|a\| < 1"):
            apply_mobius(np.eye(2), a)

    def test_singular_resolvent_reports_condition(self):
        mat = np.diag([2.0, 0.1])  # 1 - 0.5*2 = 0 exactly
        with pytest.raises(SingularResolventError) as err:
            apply_mobius(mat, 0.5)
        assert err.value.condition_estimate > 1e12

    def test_result_always_finite(self):
        out = apply_mobius(_rand(6, 9, norm=0.9), 0.69)
        assert np.all(np.isfinite(out.real))


class TestStackedMobius:
    PARAMS = [(0.2, 0.0), (0.5j, 0.0), (-0.7, 0.0), (0.3 - 0.45j, 1.3),
              (0.6 * np.exp(2.0j), 5.9)]

    @pytest.mark.parametrize("size", [6, 120])
    def test_one_matrix_many_maps_equals_a_loop(self, size):
        a_mat = _rand(size, size, norm=0.5)
        a, phase = (np.array(v) for v in zip(*self.PARAMS))
        stacked = apply_mobius(a_mat, a, phase)
        assert stacked.shape == (len(self.PARAMS), size, size)
        for image, (ak, pk) in zip(stacked, self.PARAMS):
            np.testing.assert_array_equal(image, apply_mobius(a_mat, ak, pk))

    @pytest.mark.parametrize("size", [6, 120])
    def test_stack_of_matrices_equals_a_loop(self, size):
        # phi(phi(A)) with one image per map, as the involution check takes it
        a_mat = _rand(size, size + 1, norm=0.5)
        a, phase = (np.array(v) for v in zip(*self.PARAMS))
        twice = apply_mobius(apply_mobius(a_mat, a, phase), a, phase)
        for image, (ak, pk) in zip(twice, self.PARAMS):
            once = apply_mobius(a_mat, ak, pk)
            np.testing.assert_array_equal(image, apply_mobius(once, ak, pk))

    def test_scalar_parameter_maps_every_matrix_of_a_stack(self):
        stack = np.stack([_rand(5, seed, norm=0.5) for seed in range(3)])
        out = apply_mobius(stack, 0.4j, 0.3)
        for image, mat in zip(out, stack):
            np.testing.assert_array_equal(image, apply_mobius(mat, 0.4j, 0.3))

    def test_singular_map_in_a_stack_is_named(self):
        mat = np.diag([2.0, 0.1])  # 1 - 0.5*2 = 0 exactly
        with pytest.raises(SingularResolventError,
                           match=r"of map 2 \(a = 0\.5\+0j\)") as err:
            apply_mobius(mat, [0.1, 0.2j, 0.5, 0.3])
        assert err.value.condition_estimate == np.inf
        message = str(err.value)
        assert "1-norm condition number inf" in message
        assert f"the cap {RESOLVENT_COND_CAP:.1e}" in message

    def test_ill_conditioned_map_in_a_stack_is_named(self):
        rng = np.random.default_rng(3)
        a_mat = _resolvent_operand(5, 1e13, 0.5, rng)
        with pytest.raises(SingularResolventError, match="of map 1 ") as err:
            apply_mobius(a_mat, [0.01, 0.5])
        with pytest.raises(SingularResolventError) as one:
            apply_mobius(a_mat, 0.5)
        assert err.value.condition_estimate == one.value.condition_estimate
        assert "of map" not in str(one.value)

    def test_mismatched_stack_lengths_rejected(self):
        with pytest.raises(InvalidArgumentError, match="do not broadcast"):
            apply_mobius(np.zeros((3, 2, 2)), [0.1, 0.2])
        with pytest.raises(InvalidArgumentError):
            apply_mobius(np.zeros((2, 2)), [0.1, 1.0])


def _mobius_by_solve(a_mat, a, phase=0.0):
    """phi(A) by right division with one linear solve, no inverse formed."""
    eye = np.eye(a_mat.shape[0], dtype=complex)
    denom = eye - np.conj(a) * a_mat
    return np.linalg.solve(denom.T, (a * eye - a_mat).T).T * np.exp(1j * phase)


def _resolvent_operand(size, kappa, a, rng):
    """A whose resolvent I - conj(a) A has 2-norm condition number about kappa."""
    u, v = random_unitary(size, rng), random_unitary(size, rng)
    denom = (u * np.geomspace(1.0, 1.0 / kappa, size)) @ v.conj().T
    return (np.eye(size) - denom) / np.conj(a)


class TestMobiusResolventGuard:
    @pytest.mark.parametrize("a_mat,a", [
        (random_operator(5, 1, norm=0.9), 0.7j),
        (random_operator(40, 2, norm=0.8), 0.5 - 0.3j),
        (random_operator(240, 3, norm=0.6), 0.69),
        (shift_from_kernel(bergman_kernel(2, 240)).matrix, 0.7 * np.exp(0.5j)),
    ], ids=["dense5", "dense40", "dense240", "shift240"])
    @pytest.mark.parametrize("phase", [0.0, 1.3])
    def test_matches_solve_reference(self, a_mat, a, phase):
        reference = _mobius_by_solve(a_mat, a, phase)
        out = apply_mobius(a_mat, a, phase)
        assert frobenius(out - reference) <= 1e-14 * frobenius(reference)

    @pytest.mark.parametrize("size", [2, 3, 5, 20])
    def test_no_resolvent_above_the_cap_passes(self, size):
        # kappa_2 <= n kappa_1, so the 1-norm guard is at least as strict as
        # refusing every resolvent whose 2-norm condition number tops the cap
        rng = np.random.default_rng(size)
        a = 0.5
        refused_above = 0
        for kappa in (0.5e12, 0.9e12, 0.99e12, 1.01e12, 1.1e12, 2e12):
            for _ in range(3):
                a_mat = _resolvent_operand(size, kappa, a, rng)
                denom = np.eye(size) - np.conj(a) * a_mat
                if np.linalg.cond(denom) <= RESOLVENT_COND_CAP:
                    continue
                with pytest.raises(SingularResolventError) as err:
                    apply_mobius(a_mat, a)
                assert err.value.condition_estimate > RESOLVENT_COND_CAP
                refused_above += 1
        assert refused_above >= 6

    def test_well_conditioned_resolvent_passes(self):
        rng = np.random.default_rng(7)
        a_mat = _resolvent_operand(20, 1e6, 0.5, rng)
        assert np.all(np.isfinite(apply_mobius(a_mat, 0.5)))

    @pytest.mark.parametrize("radius", [0.2, 0.7, 0.999])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_condition_from_the_solve_matches_the_inverse(self, radius,
                                                          stacked, monkeypatch):
        # (1 - |a|^2) D^{-1} = I - conj(a) phi(A) gives kappa_1 without inv(D)
        a_mat = random_operator(30, 4, norm=0.9)
        a = radius * np.exp(0.8j)
        denom = np.eye(30) - np.conj(a) * a_mat
        kappa_1 = (np.linalg.norm(denom, 1)
                   * np.linalg.norm(np.linalg.inv(denom), 1))
        # a zero cap refuses every map, and the first refused one is a's
        monkeypatch.setattr(operators, "RESOLVENT_COND_CAP", 0.0)
        with pytest.raises(SingularResolventError) as err:
            apply_mobius(a_mat, [a, 0.1] if stacked else a)
        assert err.value.condition_estimate == pytest.approx(30 * kappa_1,
                                                             rel=1e-10)

    @pytest.mark.parametrize("phase", [0.0, 1.3])
    def test_zero_parameter_is_exactly_minus_a(self, phase):
        a_mat = random_operator(40, 6, norm=0.9)
        np.testing.assert_array_equal(apply_mobius(a_mat, 0.0, phase),
                                      -a_mat * np.exp(1j * phase))

    def test_refusal_names_one_norm_figure_and_cap(self):
        rng = np.random.default_rng(3)
        a_mat = _resolvent_operand(5, 1e13, 0.5, rng)
        denom = np.eye(5) - 0.5 * a_mat
        kappa_1 = (np.linalg.norm(denom, 1)
                   * np.linalg.norm(np.linalg.inv(denom), 1))
        with pytest.raises(SingularResolventError) as err:
            apply_mobius(a_mat, 0.5)
        message = str(err.value)
        assert "1-norm condition number" in message
        assert f"{RESOLVENT_COND_CAP:.1e}" in message
        assert err.value.condition_estimate == pytest.approx(5 * kappa_1,
                                                             rel=1e-3)


class TestGuardedInverse:
    def test_inverse_and_one_norm_condition(self):
        mat = _rand(6, 11) + 3.0 * np.eye(6)
        inv, kappa = guarded_inverse(mat, 1e12)
        np.testing.assert_array_equal(inv, np.linalg.inv(mat))
        assert kappa == np.linalg.norm(mat, 1) * np.linalg.norm(inv, 1)

    def test_refuses_when_size_times_kappa_exceeds_cap(self):
        mat = np.diag([1.0, 1.0, 1e-3])  # kappa_1 = kappa_2 = 1e3
        assert guarded_inverse(mat, 3.1e3)[0] is not None
        inv, kappa = guarded_inverse(mat, 2.9e3)
        assert inv is None and kappa == pytest.approx(1e3)

    @pytest.mark.parametrize("mat", [np.zeros((3, 3)),
                                     np.array([[1.0, np.nan], [0.0, 1.0]])])
    def test_singular_or_nonfinite(self, mat):
        assert guarded_inverse(mat, 1e12) == (None, np.inf)


# sizes of the bit-identity checks of the real-diagonal scaling
DIAGONAL_SIZES = [1, 2, 6, 16, 240]


class _NoProduct(np.ndarray):
    """An array whose dense products raise, so a test can tell a scaling
    from `@`."""

    def __matmul__(self, other):
        raise AssertionError("dense product taken")

    __rmatmul__ = __matmul__


def _real_diagonals(size):
    """Real diagonal factors, each as float and as complex with zero
    imaginary parts: +-sqrt(2)/2 I, I, 2 I and a random diagonal."""
    half = math.sqrt(2.0) / 2.0
    entries = [half * np.ones(size), -half * np.ones(size), np.ones(size),
               2.0 * np.ones(size),
               np.random.default_rng(size).standard_normal(size)]
    return [np.diag(d).astype(dtype) for d in entries for dtype in (float, complex)]


def _partners(size, shape):
    rng = np.random.default_rng(size + 1)
    real = rng.standard_normal(shape)
    return [real, real + 1j * rng.standard_normal(shape)]


class TestRealDiagonalScaling:
    @pytest.mark.parametrize("size", DIAGONAL_SIZES)
    def test_product_equals_the_dense_product(self, size):
        for diag in _real_diagonals(size):
            for partner in _partners(size, (size, size)):
                left = _times(diag, partner.view(_NoProduct))
                right = _times(partner.view(_NoProduct), diag)
                np.testing.assert_array_equal(left, diag @ partner)
                np.testing.assert_array_equal(right, partner @ diag)
                assert left.dtype == right.dtype == (diag @ partner).dtype

    @pytest.mark.parametrize("size", DIAGONAL_SIZES)
    def test_stacks_and_model_operators(self, size):
        for diag in _real_diagonals(size)[::3]:
            op = ModelOperator(diag)
            for partner in _partners(size, (3, size, 5)):
                np.testing.assert_array_equal(op.left(partner), diag @ partner)
                flipped = np.swapaxes(partner, -1, -2)
                np.testing.assert_array_equal(op.right(flipped), flipped @ diag)

    @pytest.mark.parametrize("size", DIAGONAL_SIZES)
    def test_inverse_equals_the_lu_inverse(self, size):
        for diag in _real_diagonals(size):
            got = _inverse(diag)
            np.testing.assert_array_equal(got, np.linalg.inv(diag))
            assert got.dtype == np.linalg.inv(diag).dtype

    @pytest.mark.parametrize("size", DIAGONAL_SIZES)
    def test_detector_refuses_other_matrices(self, size):
        eye = np.eye(size, dtype=complex)
        refused = [math.sqrt(2.0) / 2.0 * np.exp(0.7j) * eye,  # complex diagonal
                   np.broadcast_to(eye, (2, size, size)).copy(),
                   np.eye(size, size + 1), eye[0]]
        if size >= 2:
            refused.append(shift_from_kernel(bergman_kernel(1, size)).matrix)
        if size >= 3:
            # (0, 1) and (1, 0) are zero, but not every off-diagonal entry
            for row, col in ((2, 0), (0, 2), (size - 1, size - 2)):
                mat = eye.copy()
                mat[row, col] = 0.5
                refused.append(mat)
        for mat in refused:
            assert _real_diagonal(mat) is None
        complex_diag = refused[0]
        partner = _partners(size, (size, size))[1]
        np.testing.assert_array_equal(_times(complex_diag, partner),
                                      complex_diag @ partner)

    def test_identity_product_is_a_new_array(self):
        eye = np.eye(6, dtype=complex)
        partner = _partners(6, (6, 6))[1]
        kept = partner.copy()
        for out in (_times(eye, partner), _times(partner, eye)):
            assert not np.shares_memory(out, partner)
            out += partner
            np.testing.assert_array_equal(partner, kept)
            np.testing.assert_array_equal(out, 2.0 * kept)

    def test_singular_diagonal_raises_as_the_lu_does(self):
        diag = np.diag([1.0, 0.0, 2.0]).astype(complex)
        for invert in (_inverse, np.linalg.inv):
            with pytest.raises(np.linalg.LinAlgError):
                invert(diag)
        assert guarded_inverse(diag, 1e12) == (None, math.inf)

    def test_subnormal_diagonal_gives_inf_without_a_warning(self):
        # the LU's back-substitution also spreads 0 inf = NaN off the
        # diagonal; either way the guard refuses it
        diag = np.diag([1.0, 1e-310])
        np.testing.assert_array_equal(_inverse(diag), np.diag([1.0, np.inf]))
        assert not np.all(np.isfinite(np.linalg.inv(diag)))
        assert guarded_inverse(diag, 1e12) == (None, math.inf)

    def test_guarded_inverse_of_a_diagonal_takes_no_lu(self, monkeypatch):
        diag = np.diag(np.linspace(0.5, 2.0, 40)).astype(complex)
        want = np.linalg.inv(diag)
        calls = []
        monkeypatch.setattr(np.linalg, "inv",
                            lambda *args, **kwargs: calls.append(args))
        inv, kappa = guarded_inverse(diag, 1e12)
        assert calls == []
        np.testing.assert_array_equal(inv, want)
        assert kappa == np.linalg.norm(diag, 1) * np.linalg.norm(want, 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_partner_fails_the_condition(self, bad):
        # a scaling reads inf where the dense product reads nan, as the
        # dense sums add 0 inf; either fails the condition
        size = 6
        half = math.sqrt(2.0) / 2.0 * np.eye(size)
        t0, t1 = _rand(size, 1), _rand(size, 2)
        bad_t0 = t0.copy()
        bad_t0[2, 3] = bad
        gaps = intertwining_gaps((half, half, half, -half),
                                 (ModelOperator(bad_t0), None, None, t1),
                                 (t0, None, None, t1))
        report = ConditionReport(name="probe")
        report.add("gap", gap_total(gaps), 1e-10)
        assert not math.isfinite(gap_total(gaps))
        assert not report.overall

    @pytest.mark.parametrize("bad, entry", [(np.inf, (1, 1)), (np.nan, (1, 1)),
                                            (np.nan, (1, 2))])
    def test_non_finite_block_is_not_unitary(self, bad, entry):
        # a NaN residual is refused too; a diagonal block stays a scaling
        half = math.sqrt(2.0) / 2.0 * np.eye(4)
        block = -half.copy()
        block[entry] = bad
        with pytest.raises(NumericError, match="not unitary"):
            require_unitary((half, half, half, block), "probe")


class TestRandomOperators:
    def test_norm_scaling(self):
        mat = random_operator(8, 3, norm=0.5)
        assert np.linalg.norm(mat, 2) == pytest.approx(0.5)

    def test_normal_kind_commutes_with_adjoint(self):
        mat = random_operator(8, 3, norm=1.0, kind="normal")
        assert frobenius(mat @ mat.conj().T - mat.conj().T @ mat) < 1e-13

    def test_seeded_determinism(self):
        np.testing.assert_array_equal(random_operator(6, 42),
                                      random_operator(6, 42))

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            random_operator(4, 0, kind="sparse")

    @pytest.mark.parametrize("size", [1, 6, 120])
    @pytest.mark.parametrize("kind", ["dense", "normal"])
    def test_draws_equal_the_sum_of_real_and_imaginary_draws(self, size, kind):
        # the complex draws are written straight into one array, as
        # A + 1j * B with A drawn before B
        def draw(rng, shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for seed in (0, 7, 41):
            rng = np.random.default_rng(seed)
            if kind == "dense":
                want = draw(rng, (size, size))
            else:
                diag = draw(rng, size)
                q, r = np.linalg.qr(draw(rng, (size, size)))
                d = np.diagonal(r)
                q = q * (d / np.abs(d))
                want = q @ np.diag(diag) @ q.conj().T
            want *= 0.5 / np.linalg.norm(want, 2)
            np.testing.assert_array_equal(random_operator(size, seed, kind=kind), want)

    def test_random_unitary_is_unitary(self):
        q = random_unitary(7, np.random.default_rng(0))
        np.testing.assert_allclose(q @ q.conj().T, np.eye(7), atol=1e-13)
