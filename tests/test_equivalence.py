import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import equivalence
from cdlab.equivalence import (SWAP, BlockUnitary, build_unitary_from_x,
                               construct_fb2_pair, frame_kernel_matrix,
                               kernel_transform_check, main3_verifier,
                               theta_intertwiner_check, verify_mainlemma)
from cdlab.errors import (DegenerateInputError, DomainError, NumericError,
                          PreconditionError)
from cdlab.geometry import DiskGrid, eigenframe, kernel_frame, polar_grid
from cdlab.kernels import DiagonalKernel, bergman_kernel, separator_kernel
from cdlab.operators import (assemble_model, block_matrix, frobenius,
                             random_operator, shift_from_kernel,
                             sylvester_kernel)

from oracles import product_gap_bound


def _shift_pair(size=20):
    return (shift_from_kernel(bergman_kernel(1, size)),
            shift_from_kernel(bergman_kernel(2, size)))


def _quarters(mat):
    """(top left, top right, bottom left, bottom right) N x N blocks of a
    2N x 2N matrix."""
    n = mat.shape[0] // 2
    return mat[:n, :n], mat[:n, n:], mat[n:, :n], mat[n:, n:]


def _normal_pipeline(size=16, seed=100):
    t0, t1 = _shift_pair(size)
    x = random_operator(size, seed, norm=1.0, kind="normal")
    unitary, partner = build_unitary_from_x(t0, t1, x)
    return unitary, assemble_model(t0, t1, x), partner


class TestBlockUnitary:
    def test_swap_is_unitary(self):
        n = 3
        z = np.zeros((n, n))
        u = BlockUnitary(u00=z, u01=np.eye(n), u10=np.eye(n), u11=z)
        np.testing.assert_array_equal(u.matrix[:n, n:], np.eye(n))

    def test_non_unitary_rejected(self):
        n = 3
        with pytest.raises(NumericError):
            BlockUnitary(u00=np.eye(n), u01=np.eye(n),
                         u10=np.eye(n), u11=np.eye(n))

    def test_blocks_assemble_the_matrix(self):
        rng = np.random.default_rng(5)
        from cdlab.operators import random_unitary
        u = random_unitary(8, rng)
        block = BlockUnitary(*_quarters(u))
        np.testing.assert_array_equal(block.matrix, u)


class TestBuildUnitary:
    def test_zero_coupling_swaps_the_diagonal(self):
        t0, t1 = _shift_pair(6)
        unitary, partner = build_unitary_from_x(t0, t1, np.zeros((6, 6)))
        np.testing.assert_allclose(unitary.u01, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(unitary.u10, np.eye(6), atol=1e-14)
        np.testing.assert_allclose(unitary.u00, 0, atol=1e-14)
        np.testing.assert_allclose(partner.t0.matrix, t1.matrix, atol=1e-14)
        np.testing.assert_allclose(partner.t1.matrix, t0.matrix, atol=1e-14)
        model = assemble_model(t0, t1, np.zeros((6, 6)))
        report = verify_mainlemma(unitary, model, partner, 1e-12)
        assert report.overall and report.worst() <= 1e-12

    def test_scalar_coupling(self):
        t0, t1 = _shift_pair(8)
        c = 0.7 - 0.2j
        unitary, partner = build_unitary_from_x(t0, t1, c * np.eye(8))
        scale = 1 / math.sqrt(1 + abs(c) ** 2)
        np.testing.assert_allclose(unitary.u00, np.conj(c) * scale * np.eye(8),
                                   atol=1e-12)
        model = assemble_model(t0, t1, c * np.eye(8))
        resid = frobenius(unitary.matrix @ model.t @ unitary.matrix.conj().T
                          - partner.t)
        assert resid <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_random_normal_coupling(self, seed):
        t0, t1 = _shift_pair(20)
        x = random_operator(20, seed, norm=1.0, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        u = unitary.matrix
        assert frobenius(u @ u.conj().T - np.eye(40)) <= 1e-10
        model = assemble_model(t0, t1, x)
        assert frobenius(u @ model.t @ u.conj().T - partner.t) <= 1e-9
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        assert report.overall

    def test_partner_coupling_is_adjoint(self):
        t0, t1 = _shift_pair(8)
        x = random_operator(8, 1, kind="normal")
        _, partner = build_unitary_from_x(t0, t1, x)
        np.testing.assert_array_equal(partner.x, x.conj().T)

    def test_non_normal_coupling_rejected(self):
        t0, t1 = _shift_pair(6)
        x = np.triu(np.ones((6, 6)), 1)
        with pytest.raises(PreconditionError) as err:
            build_unitary_from_x(t0, t1, x)
        assert err.value.failed_condition == "normal-coupling"


class TestVerifyMainlemma:
    def test_identity_unitary_fails_for_distinct_models(self):
        t0, t1 = _shift_pair(6)
        x = random_operator(6, 2, kind="normal")
        _, partner = build_unitary_from_x(t0, t1, x)
        model = assemble_model(t0, t1, x)
        z = np.zeros((6, 6))
        identity = BlockUnitary(u00=np.eye(6), u01=z, u10=z, u11=np.eye(6))
        report = verify_mainlemma(identity, model, partner, 1e-9)
        assert not report.overall
        assert not report.condition("end-to-end").passed
        assert not report.condition("gram-u10").passed

    def test_perturbation_sensitivity(self):
        t0, t1 = _shift_pair(10)
        x = random_operator(10, 3, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        model = assemble_model(t0, t1, x)
        eps = 1e-6
        herm = random_operator(20, 4)
        herm = herm + herm.conj().T
        evals, vecs = np.linalg.eigh(herm)
        rot = (vecs * np.exp(1j * eps * evals)) @ vecs.conj().T
        perturbed = BlockUnitary(*_quarters(rot @ unitary.matrix))
        report = verify_mainlemma(perturbed, model, partner, 1e-9)
        end = report.condition("end-to-end").residual
        assert eps * 1e-3 < end < eps * 1e3

    def test_singular_u10_marked_indeterminate(self):
        t0, t1 = _shift_pair(4)
        z = np.zeros((4, 4))
        block_diag = BlockUnitary(u00=np.eye(4), u01=z, u10=z, u11=np.eye(4))
        model = assemble_model(t0, t1, z)
        _, partner = build_unitary_from_x(t0, t1, z)
        report = verify_mainlemma(block_diag, model, partner, 1e-9)
        cond = report.condition("defect-intertwines-partner")
        assert cond.status == "indeterminate"
        assert not report.overall

    def test_near_singular_u10_marked_indeterminate(self):
        # U = [[C, -S], [S, C]] is unitary with U10 = S of condition 9e12
        t0, t1 = _shift_pair(4)
        sines = np.array([1e-13, 0.5, 0.7, 0.9])
        s_mat = np.diag(sines).astype(complex)
        c_mat = np.diag(np.sqrt(1.0 - sines ** 2)).astype(complex)
        rotation = BlockUnitary(u00=c_mat, u01=-s_mat, u10=s_mat, u11=c_mat)
        z = np.zeros((4, 4))
        model = assemble_model(t0, t1, z)
        _, partner = build_unitary_from_x(t0, t1, z)
        report = verify_mainlemma(rotation, model, partner, 1e-9)
        cond = report.condition("defect-intertwines-partner")
        assert cond.status == "indeterminate"
        assert "1-norm condition number" in cond.detail
        assert report.info["u10_condition_1norm"] == pytest.approx(9e12)
        assert "defect_norm" not in report.info

    def test_defect_uses_the_guarded_inverse(self):
        t0, t1 = _shift_pair(12)
        x = random_operator(12, 5, norm=1.0, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        report = verify_mainlemma(unitary, assemble_model(t0, t1, x), partner,
                                  1e-9)
        u10_inv = np.linalg.inv(unitary.u10)
        defect = partner.x - unitary.u01 @ x.conj().T @ u10_inv
        assert report.info["defect_norm"] == frobenius(defect)
        assert report.info["u10_condition_1norm"] == (
            np.linalg.norm(unitary.u10, 1) * np.linalg.norm(u10_inv, 1))


class TestBlockwiseResiduals:
    @pytest.mark.parametrize("seed", range(3))
    def test_mainlemma_end_to_end_agrees_with_dense(self, seed):
        unitary, model, partner = _normal_pipeline(seed=100 + seed)
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        assert "t" not in vars(model) and "t" not in vars(partner)
        u = unitary.matrix
        dense = frobenius(u @ model.t - partner.t @ u)
        bound = product_gap_bound(model.size, (u, model.t), (partner.t, u))
        assert abs(report.condition("end-to-end").residual - dense) <= bound

    def test_corner_u10_is_the_end_to_end_corner(self):
        unitary, model, partner = _normal_pipeline()
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        u10 = unitary.u10
        want = frobenius(u10 @ model.t0.matrix - partner.t1.matrix @ u10)
        assert report.condition("corner-intertwine-u10").residual == want

    @pytest.mark.parametrize("seed", range(3))
    def test_z_intertwine_agrees_with_dense(self, seed):
        unitary, model, partner = _normal_pipeline(seed=100 + seed)
        pair = construct_fb2_pair(unitary, model, partner)
        assert "t" not in vars(model) and "t" not in vars(partner)
        z, f, ft = pair.z, pair.f, pair.ft
        dense = frobenius(z @ f - ft @ z)
        bound = product_gap_bound(model.size, (z, f), (ft, z))
        assert abs(pair.residuals["z-intertwine"] - dense) <= bound

    def test_pair_matrices_equal_the_block_assembly(self):
        unitary, model, partner = _normal_pipeline()
        pair = construct_fb2_pair(unitary, model, partner)
        u01, u10, x, y = unitary.u01, unitary.u10, model.x, partner.x
        s0 = y @ u10 - u01 @ x.conj().T
        s1 = u01.conj().T @ y - x.conj().T @ u10.conj().T
        np.testing.assert_array_equal(pair.s0, s0)
        np.testing.assert_array_equal(pair.s1, s1)
        np.testing.assert_array_equal(
            pair.f, block_matrix(partner.t0.matrix, s0, None, model.t0.matrix))
        np.testing.assert_array_equal(
            pair.ft, block_matrix(model.t1.matrix, s1, None, partner.t1.matrix))
        np.testing.assert_array_equal(
            pair.z, block_matrix(u01.conj().T, None, None, u10))


class TestFb2Pair:
    def test_zero_coupling_case(self):
        t0, t1 = _shift_pair(8)
        x = np.zeros((8, 8))
        unitary, partner = build_unitary_from_x(t0, t1, x)
        model = assemble_model(t0, t1, x)
        pair = construct_fb2_pair(unitary, model, partner)
        assert max(pair.residuals.values()) <= 1e-12
        np.testing.assert_allclose(pair.s0, 0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_normal_pipeline(self, seed):
        t0, t1 = _shift_pair(16)
        x = random_operator(16, 100 + seed, norm=1.0, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        model = assemble_model(t0, t1, x)
        pair = construct_fb2_pair(unitary, model, partner)
        assert max(pair.residuals.values()) <= 1e-9
        n = 16
        np.testing.assert_allclose(pair.f[n:, n:], t0.matrix, atol=1e-14)
        np.testing.assert_allclose(pair.ft[:n, :n], t1.matrix, atol=1e-14)

    def test_z_is_invertible(self):
        t0, t1 = _shift_pair(10)
        x = random_operator(10, 7, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        pair = construct_fb2_pair(unitary, assemble_model(t0, t1, x), partner)
        z_inv = np.linalg.inv(pair.z)
        assert frobenius(pair.z @ z_inv - np.eye(20)) <= 1e-10

    def test_nonminimal_coupling_choice(self):
        # Y is only determined modulo the intertwiner space of the partner
        # diagonal; adding such a defect leaves everything satisfied.
        t0, t1 = _shift_pair(10)
        x = random_operator(10, 8, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        space = sylvester_kernel(partner.t0.matrix, partner.t1.matrix)
        assert space.dimension >= 1
        shifted = assemble_model(partner.t0, partner.t1,
                                 partner.x + 0.5 * space.basis[0])
        model = assemble_model(t0, t1, x)
        report = verify_mainlemma(unitary, model, shifted, 1e-8)
        assert report.overall
        pair = construct_fb2_pair(unitary, model, shifted)
        assert max(pair.residuals.values()) <= 1e-8
        assert frobenius(pair.s0) > 1e-3

    def test_gate_refuses_mismatched_partner(self):
        t0, t1 = _shift_pair(8)
        x = random_operator(8, 9, kind="normal")
        unitary, _ = build_unitary_from_x(t0, t1, x)
        model = assemble_model(t0, t1, x)
        wrong = assemble_model(t0, t1, x.conj().T)
        with pytest.raises(PreconditionError):
            construct_fb2_pair(unitary, model, wrong)


def _counting_block_products(monkeypatch):
    """Record every `block_product` call the equivalence module makes."""
    calls = []
    original = equivalence.block_product

    def counting(lhs, rhs):
        calls.append(1)
        return original(lhs, rhs)

    monkeypatch.setattr(equivalence, "block_product", counting)
    return calls


def _perturbed(model, eps=1e-6, seed=12):
    """A new model whose coupling moves by eps in norm."""
    bump = random_operator(model.size, seed, norm=eps)
    return assemble_model(model.t0, model.t1, model.x + bump)


class TestKeptMainlemmaResiduals:
    def test_fb2_gate_reuses_the_callers_verification(self, monkeypatch):
        unitary, model, partner = _normal_pipeline()
        calls = _counting_block_products(monkeypatch)
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        assert len(calls) == 2  # U T and Tt U
        construct_fb2_pair(unitary, model, partner)
        assert len(calls) == 4  # Z F and Ft Z only; the gate took none
        again = verify_mainlemma(unitary, model, partner, 1e-9)
        assert len(calls) == 4
        assert again.to_dict() == report.to_dict()

    def test_regrading_matches_a_fresh_verification(self):
        unitary, model, partner = _normal_pipeline()
        verify_mainlemma(unitary, model, partner, 1.0)
        fresh_unitary, _ = build_unitary_from_x(model.t0, model.t1, model.x)
        for tol in (1e-9, 1e-15, 1e-20):
            kept = verify_mainlemma(unitary, model, partner, tol)
            assert kept.to_dict() == verify_mainlemma(
                fresh_unitary, model, partner, tol).to_dict()
            assert all(c.tolerance == tol for c in kept.conditions)
        assert not kept.overall

    def test_loose_verification_does_not_loosen_the_gate(self, monkeypatch):
        unitary, model, partner = _normal_pipeline()
        perturbed = _perturbed(partner)
        loose = verify_mainlemma(unitary, model, perturbed, 1.0)
        assert loose.overall
        calls = _counting_block_products(monkeypatch)
        with pytest.raises(PreconditionError):
            construct_fb2_pair(unitary, model, perturbed)
        assert calls == []  # refused on the kept residuals

    def test_equal_but_distinct_objects_recompute(self, monkeypatch):
        unitary, model, partner = _normal_pipeline()
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        calls = _counting_block_products(monkeypatch)
        for other_model, other_partner in (
                (dataclasses.replace(model), partner),
                (model, dataclasses.replace(partner))):
            again = verify_mainlemma(unitary, other_model, other_partner, 1e-9)
            assert again.to_dict() == report.to_dict()
        assert len(calls) == 4

    def test_another_partner_replaces_the_kept_residuals(self):
        unitary, model, partner = _normal_pipeline()
        perturbed = _perturbed(partner)
        good = verify_mainlemma(unitary, model, partner, 1e-9)
        bad = verify_mainlemma(unitary, model, perturbed, 1e-9)
        assert good.overall and not bad.overall
        assert unitary.verification[1] is perturbed
        assert verify_mainlemma(unitary, model, partner, 1e-9).to_dict() == \
            good.to_dict()

    def test_indeterminate_condition_stays_indeterminate(self):
        t0, t1 = _shift_pair(4)
        z = np.zeros((4, 4))
        block_diag = BlockUnitary(u00=np.eye(4), u01=z, u10=z, u11=np.eye(4))
        model = assemble_model(t0, t1, z)
        _, partner = build_unitary_from_x(t0, t1, z)
        first = verify_mainlemma(block_diag, model, partner, 1e-9)
        cond = first.condition("defect-intertwines-partner")
        again = verify_mainlemma(block_diag, model, partner, 1e3)
        kept = again.condition("defect-intertwines-partner")
        assert kept.status == "indeterminate" and math.isnan(kept.residual)
        assert kept.detail == cond.detail and kept.tolerance == 1e3
        assert again.info == first.info

    def test_report_info_is_a_copy(self):
        unitary, model, partner = _normal_pipeline()
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        report.info["defect_norm"] = -1.0
        report.conditions.clear()
        again = verify_mainlemma(unitary, model, partner, 1e-9)
        assert again.info["defect_norm"] >= 0.0 and again.conditions


class TestThetaCorollary:
    def test_scalar_phase_coupling_recovered(self):
        t0, t1 = _shift_pair(12)
        theta0 = 2.25
        y = np.exp(1j * theta0) * np.eye(12)
        theta, unitary = theta_intertwiner_check(t0, t1, y, 1e-10)
        assert abs(theta - theta0) <= 1e-10
        model = assemble_model(t0, t1, np.eye(12, dtype=complex))
        coupling = y @ t0.matrix - t1.matrix @ y
        partner = np.block([
            [t1.matrix, coupling],
            [np.zeros((12, 12)), t0.matrix]])
        assert frobenius(unitary.matrix @ model.t
                         - partner @ unitary.matrix) <= 1e-10

    def test_identity_coupling_gives_zero_phase(self):
        t0, t1 = _shift_pair(6)
        theta, _ = theta_intertwiner_check(t0, t1, np.eye(6), 1e-10)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_generic_coupling_rejected(self):
        t0, t1 = _shift_pair(6)
        assert theta_intertwiner_check(t0, t1, random_operator(6, 3),
                                       1e-10) is None

    def test_equal_blocks_degenerate(self):
        t0, _ = _shift_pair(6)
        with pytest.raises(DegenerateInputError):
            theta_intertwiner_check(t0, t0, np.eye(6), 1e-10)

    @given(alpha=st.floats(0.0, 2 * math.pi - 1e-6),
           theta0=st.floats(0.0, 2 * math.pi - 1e-6))
    @settings(max_examples=25, deadline=None)
    def test_phase_equivariance(self, alpha, theta0):
        t0, t1 = _shift_pair(8)
        y = np.exp(1j * theta0) * np.eye(8)
        base, _ = theta_intertwiner_check(t0, t1, y, 1e-8)
        shifted, _ = theta_intertwiner_check(t0, t1, np.exp(1j * alpha) * y,
                                             1e-8)
        wrapped = (shifted - base - alpha + math.pi) % (2 * math.pi) - math.pi
        assert abs(wrapped) <= 1e-10


class TestKernelTransform:
    def test_pure_index_swap(self):
        model = assemble_model(*_shift_pair(16), random_operator(16, 4))
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        frame = eigenframe(model, grid)
        swapped = frame.with_constant_change(SWAP)
        residual = kernel_transform_check(frame, swapped, SWAP, grid.points[:4])
        assert residual <= 1e-13

    def test_unrelated_frames_mismatch(self):
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        frame_a = eigenframe(
            assemble_model(*_shift_pair(16), random_operator(16, 4)), grid)
        t0 = shift_from_kernel(bergman_kernel(2, 16))
        t1 = shift_from_kernel(bergman_kernel(3, 16))
        frame_b = eigenframe(
            assemble_model(t0, t1, random_operator(16, 5)), grid)
        residual = kernel_transform_check(frame_a, frame_b, SWAP,
                                          grid.points[:3])
        assert residual > 1e-2

    def test_sample_outside_disk_rejected(self):
        model = assemble_model(*_shift_pair(8), np.zeros((8, 8)))
        grid = polar_grid(radii=[0.3], n_angles=4)
        frame = eigenframe(model, grid)
        with pytest.raises(DomainError):
            kernel_transform_check(frame, frame, SWAP, np.array([1.5, 0.2]))

    def test_sample_outside_disk_named_as_given(self):
        # frames are evaluated at conj(z), but the error names z itself
        model = assemble_model(*_shift_pair(8), np.zeros((8, 8)))
        frame = eigenframe(model, polar_grid(radii=[0.3], n_angles=4))
        with pytest.raises(DomainError, match=re.escape("w=(0.3+1.5j)")):
            kernel_transform_check(frame, frame, SWAP, [0.2, 0.3 + 1.5j])

    def test_residual_invariant_under_sample_relabeling(self):
        model = assemble_model(*_shift_pair(12), random_operator(12, 8))
        grid = polar_grid(radii=[0.3, 0.5], n_angles=4)
        frame = eigenframe(model, grid)
        other = eigenframe(
            assemble_model(*_shift_pair(12), random_operator(12, 9)), grid)
        samples = grid.points[:3]
        forward = kernel_transform_check(frame, other, SWAP, samples)
        reversed_order = kernel_transform_check(frame, other, SWAP,
                                                samples[::-1])
        assert forward == reversed_order

    def test_kernel_matrix_hermitian_on_diagonal(self):
        model = assemble_model(*_shift_pair(12), random_operator(12, 6))
        grid = polar_grid(radii=[0.4], n_angles=4)
        frame = eigenframe(model, grid)
        k = frame_kernel_matrix(frame, np.array([0.3 + 0.1j]))[0, 0]
        np.testing.assert_allclose(k, k.conj().T, atol=1e-13)

    def test_kernel_matrix_matches_pairwise_definition(self):
        grid = polar_grid(radii=[0.3, 0.5], n_angles=3)
        frames = (kernel_frame(bergman_kernel(2, 16), grid),
                  eigenframe(assemble_model(*_shift_pair(16),
                                            random_operator(16, 4)), grid))
        points = np.array([0.2 - 0.1j, -0.45j, 0.3 + 0.35j])
        for frame in frames:
            table = frame_kernel_matrix(frame, points)
            rank = frame.rank
            assert table.shape == (3, 3, rank, rank)
            for a, z in enumerate(points):
                for b, w in enumerate(points):
                    # K(z, w)[i, j] = <gamma_j(conj w), gamma_i(conj z)>
                    gz = frame.evaluate(np.conj(z))
                    gw = frame.evaluate(np.conj(w))
                    pairwise = [[np.vdot(gz[i], gw[j]) for j in range(rank)]
                                for i in range(rank)]
                    np.testing.assert_allclose(table[a, b], pairwise,
                                               rtol=1e-14)


def _engineered_main3(size=24, seed=17):
    k1 = bergman_kernel(1, size)
    rng = np.random.default_rng(seed)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size))
    k0 = DiagonalKernel(4.0 * k1.coefficients, label="engineered")
    x = np.diag(phases.conj())
    y = np.diag(phases)
    ks = separator_kernel(k0, k1)
    return k0, k1, ks, x, y


class TestMain3:
    def test_engineered_instance_passes(self):
        k0, k1, ks, x, y = _engineered_main3()
        grid = polar_grid(radii=[0.2, 0.4, 0.6], n_angles=8)
        report = main3_verifier(k0, k1, ks, x, y, grid, tol=1e-8)
        assert report.overall
        assert report.condition("section-identity").residual <= 1e-12
        assert report.condition("norm-identity").residual <= 1e-12
        assert report.condition("kernel-transform").residual <= 1e-10
        assert "intertwiner_dim_t0_ts" in report.info
        assert "intertwiner_dim_ts_t0" in report.info

    def test_double_kernel_with_zero_y(self):
        # norm identity holds coefficientwise, but a square isometry can
        # never annihilate the sections, so the section identity must fail
        k1 = bergman_kernel(1, 16)
        k0 = DiagonalKernel(2.0 * k1.coefficients, label="double")
        ks = separator_kernel(k0, k1)
        x = np.eye(16, dtype=complex)
        y = np.zeros((16, 16), dtype=complex)
        grid = polar_grid(radii=[0.3], n_angles=4)
        report = main3_verifier(k0, k1, ks, x, y, grid, tol=1e-8)
        assert report.condition("norm-identity").passed
        assert not report.condition("section-identity").passed

    def test_worst_point_tracked_per_identity(self):
        # Y = I + eps E_01 with X = I and k0 = 4 k1: the section residual is
        # 2 eps |w| and the norm residual 2 |2 eps Re w + eps^2 |w|^2|, so the
        # first peaks at 0.5j and the second at 0.3
        k1 = bergman_kernel(1, 16)
        k0 = DiagonalKernel(4.0 * k1.coefficients, label="quadruple")
        y = np.eye(16, dtype=complex)
        y[0, 1] = 1e-3
        grid = DiskGrid(points=np.array([0.5j, 0.3]))
        report = main3_verifier(k0, k1, separator_kernel(k0, k1),
                                np.eye(16, dtype=complex), y, grid, tol=1e-8)
        assert report.condition("section-identity").detail == \
            f"worst point {complex(0.5j)}"
        assert report.condition("norm-identity").detail == \
            f"worst point {complex(0.3)}"

    def test_ties_name_first_grid_point(self):
        # k0 = 4 k1 with X = Y = I: both residuals are exactly 0 everywhere
        k1 = bergman_kernel(1, 16)
        k0 = DiagonalKernel(4.0 * k1.coefficients, label="quadruple")
        eye = np.eye(16, dtype=complex)
        grid = DiskGrid(points=np.array([0.3, 0.5j, -0.2]))
        report = main3_verifier(k0, k1, separator_kernel(k0, k1), eye, eye,
                                grid, tol=1e-8)
        for name in ("section-identity", "norm-identity"):
            assert report.condition(name).residual == 0.0
            assert report.condition(name).detail == f"worst point {complex(0.3)}"

    def test_generic_pair_fails_hypotheses(self):
        k0, k1, ks, _, _ = _engineered_main3()
        x = np.eye(24, dtype=complex)
        y = random_operator(24, 3)
        grid = polar_grid(radii=[0.3], n_angles=4)
        report = main3_verifier(k0, k1, ks, x, y, grid, tol=1e-8)
        assert not report.overall


def test_log_norm_ratio_uniformly_bounded_near_boundary():
    # log((||X t(w)||^2 + ||t(w)||^2) / ||t(w)||^2) stays below
    # log(1 + ||X||^2) all the way out to radius 0.99
    from cdlab.kernels import required_truncation, section_vector

    size = required_truncation(0.99)
    k = bergman_kernel(2, size)
    rng = np.random.default_rng(6)
    diag = rng.uniform(0.1, 0.8, size) * np.exp(1j * rng.uniform(0, 2 * np.pi,
                                                                 size))
    x_norm = float(np.max(np.abs(diag)))
    cap = math.log(1.0 + x_norm ** 2)
    for r in (0.5, 0.9, 0.99):
        t = section_vector(k, r).coordinates
        t_sq = float(np.vdot(t, t).real)
        xt_sq = float(np.vdot(diag * t, diag * t).real)
        value = math.log((xt_sq + t_sq) / t_sq)
        assert 0.0 <= value <= cap + 1e-12
