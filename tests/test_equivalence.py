import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import equivalence, operators
from cdlab.equivalence import (SWAP, BlockUnitary, build_unitary_from_x,
                               construct_fb2_pair, frame_kernel_matrix,
                               kernel_transform_check, main3_verifier,
                               theta_intertwiner_check, verify_mainlemma)
from cdlab.errors import (DegenerateInputError, DomainError,
                          InvalidArgumentError, NumericError, PreconditionError)
from cdlab.geometry import DiskGrid, eigenframe, kernel_frame, polar_grid
from cdlab.kernels import DiagonalKernel, bergman_kernel, separator_kernel
from cdlab.operators import (assemble_model, fb2_membership, frobenius,
                             random_operator, random_unitary,
                             shift_from_kernel, similarity_split,
                             sylvester_kernel)

from oracles import (dense_block, padded_frame_jets, product_gap_bound,
                     traced_peak)


def _shift_pair(size=20):
    return (shift_from_kernel(bergman_kernel(1, size)),
            shift_from_kernel(bergman_kernel(2, size)))


def _quarters(mat):
    """(top left, top right, bottom left, bottom right) N x N blocks of a
    2N x 2N matrix."""
    n = mat.shape[0] // 2
    return mat[:n, :n], mat[:n, n:], mat[n:, :n], mat[n:, n:]


def _dense(blocks):
    """The 2N x 2N matrix of row-major blocks, as `intertwining_gaps` takes them."""
    return dense_block(*blocks)


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
        np.testing.assert_array_equal(_dense(u.blocks)[:n, n:], np.eye(n))

    def test_non_unitary_rejected(self):
        n = 3
        with pytest.raises(NumericError):
            BlockUnitary(u00=np.eye(n), u01=np.eye(n),
                         u10=np.eye(n), u11=np.eye(n))

    def test_blocks_assemble_the_matrix(self):
        u = random_unitary(8, np.random.default_rng(5))
        block = BlockUnitary(*_quarters(u))
        np.testing.assert_array_equal(_dense(block.blocks), u)

    def test_blocks_of_two_sizes_are_refused(self):
        # [[I2, 0], [0, I3]] is unitary, but its blocks are not N x N
        with pytest.raises(InvalidArgumentError, match="square and of one size"):
            BlockUnitary(np.eye(2), np.zeros((2, 3)), np.zeros((3, 2)), np.eye(3))

    def test_one_perturbed_block_is_refused(self):
        u = random_unitary(20, np.random.default_rng(8))
        blocks = list(_quarters(u))
        BlockUnitary(*blocks)
        blocks[3] = blocks[3] + 1e-8
        with pytest.raises(NumericError, match=r"^block matrix is not unitary: "
                                               r"residual \d\.\d{3}e-\d\d$"):
            BlockUnitary(*blocks)

    def test_unitarity_is_certified_on_the_blocks(self):
        # the assembled U and U* U - I would be two (2N)^2 complex arrays
        n = 240
        blocks = _quarters(random_unitary(2 * n, np.random.default_rng(9)))
        blocks = tuple(np.ascontiguousarray(b) for b in blocks)
        limit = 2 * 16 * (2 * n) ** 2
        tracemalloc.start()
        try:
            BlockUnitary(*blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit


    def test_real_diagonal_blocks_take_no_product_and_no_inverse(
            self, monkeypatch):
        # every Gram block of a unitary with real diagonal blocks is summed
        # from row and column scalings, O(N^2)
        eye = np.eye(240, dtype=complex)
        half = math.sqrt(2.0) / 2.0
        found = []

        def record(mat, _detect=operators._real_diagonal):
            found.append(_detect(mat))
            return found[-1]

        monkeypatch.setattr(operators, "_real_diagonal", record)
        monkeypatch.setattr(np.linalg, "inv", None)
        BlockUnitary(u00=half * eye, u01=half * eye, u10=half * eye,
                     u11=-half * eye)
        assert len(found) == 6 and all(d is not None for d in found)


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
        u = _dense(unitary.blocks)
        resid = frobenius(u @ model.t @ u.conj().T - partner.t)
        assert resid <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_random_normal_coupling(self, seed):
        t0, t1 = _shift_pair(20)
        x = random_operator(20, seed, norm=1.0, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        u = _dense(unitary.blocks)
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

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []

        def record(mat, *args, _eigh=np.linalg.eigh, **kwargs):
            calls.append(np.shape(mat))
            return _eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", record)
        t0, t1 = _shift_pair(20)
        build_unitary_from_x(t0, t1, random_operator(20, 5, kind="normal"))
        assert calls == [(20, 20)]

    def test_perturbed_gram_root_is_not_unitary(self, monkeypatch):
        # R = (1 + X*X)^{-1/2} also stands for (1 + XX*)^{-1/2}; a Hermitian
        # error of 1e-8 in it must fail the unitarity check on U
        herm = random_operator(20, 6)
        herm = herm + herm.conj().T
        herm *= 1e-8 / frobenius(herm)

        def perturbed(mat, *powers, _powers=equivalence._hermitian_powers):
            root, root_inv = _powers(mat, *powers)
            return [root, root_inv + herm]

        monkeypatch.setattr(equivalence, "_hermitian_powers", perturbed)
        t0, t1 = _shift_pair(20)
        x = random_operator(20, 7, kind="normal")
        with pytest.raises(NumericError, match="block matrix is not unitary"):
            build_unitary_from_x(t0, t1, x)


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
        perturbed = BlockUnitary(*_quarters(rot @ _dense(unitary.blocks)))
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
        u = _dense(unitary.blocks)
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
        z, f, ft = (_dense(b) for b in (pair.z_blocks, pair.f_blocks,
                                         pair.ft_blocks))
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
            _dense(pair.f_blocks),
            dense_block(partner.t0.matrix, s0, None, model.t0.matrix))
        np.testing.assert_array_equal(
            _dense(pair.ft_blocks),
            dense_block(model.t1.matrix, s1, None, partner.t1.matrix))
        np.testing.assert_array_equal(
            _dense(pair.z_blocks), dense_block(u01.conj().T, None, None, u10))


class TestCertificatePeaks:
    """At N = 240 each certificate's own arrays peak under eight N x N
    complex blocks: U T - Tt U and Z F - Ft Z are reduced one block at a
    time, so the eight blocks of the two products are never alive at once."""

    size = 240
    limit = 8 * 16 * size ** 2

    def test_verify_mainlemma(self):
        unitary, model, partner = _normal_pipeline(self.size)
        peak = traced_peak(lambda: verify_mainlemma(unitary, model, partner, 1e-9))
        assert peak < self.limit

    @pytest.mark.parametrize("verified", [False, True])
    def test_construct_fb2_pair(self, verified):
        unitary, model, partner = _normal_pipeline(self.size)
        if verified:  # the gate re-grades the kept residuals
            verify_mainlemma(unitary, model, partner, 1e-9)
        peak = traced_peak(lambda: construct_fb2_pair(unitary, model, partner))
        assert peak < self.limit

    def test_build_unitary_from_x_under_nine_blocks(self):
        # its results are seven blocks: U00, R (as U01 and U10), U11, Tt0,
        # Tt1, Y and the partner's coupling; Gram matrices and roots are
        # dropped once used
        t0, t1 = _shift_pair(self.size)
        x = random_operator(self.size, 100, norm=1.0, kind="normal")
        peak = traced_peak(lambda: build_unitary_from_x(t0, t1, x))
        assert peak < 9 * 16 * self.size ** 2

    def test_mainlemma_step_under_sixteen_blocks(self):
        # the benchmark's main-lemma step: the two shifts and X are inputs,
        # and the step keeps ten result blocks while it reads ||T||
        t0, t1 = _shift_pair(self.size)
        x = random_operator(self.size, 100, norm=1.0, kind="normal")

        def step():
            unitary, partner = build_unitary_from_x(t0, t1, x)
            model = assemble_model(t0, t1, x)
            assert verify_mainlemma(unitary, model, partner, 1e-9).overall
            pair = construct_fb2_pair(unitary, model, partner)
            assert max(pair.residuals.values()) <= 1e-9
            split = similarity_split(model)
            assert split.residual / np.linalg.norm(model.t) <= 1e-12
            member, _ = fb2_membership(t0, t1, x, 1e-10)
            assert not member

        assert traced_peak(step) < 16 * 16 * self.size ** 2


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
        np.testing.assert_allclose(_dense(pair.f_blocks)[n:, n:], t0.matrix,
                                   atol=1e-14)
        np.testing.assert_allclose(_dense(pair.ft_blocks)[:n, :n], t1.matrix,
                                   atol=1e-14)

    def test_z_is_invertible(self):
        t0, t1 = _shift_pair(10)
        x = random_operator(10, 7, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        pair = construct_fb2_pair(unitary, assemble_model(t0, t1, x), partner)
        z = _dense(pair.z_blocks)
        assert frobenius(z @ np.linalg.inv(z) - np.eye(20)) <= 1e-10

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
    """Record every `intertwining_gaps` call the equivalence module makes:
    each forms the block products of one intertwining."""
    calls = []
    original = equivalence.intertwining_gaps

    def counting(u, a, b):
        calls.append(1)
        return original(u, a, b)

    monkeypatch.setattr(equivalence, "intertwining_gaps", counting)
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
        assert len(calls) == 1  # U T - Tt U
        construct_fb2_pair(unitary, model, partner)
        assert len(calls) == 2  # Z F - Ft Z only; the gate took none
        again = verify_mainlemma(unitary, model, partner, 1e-9)
        assert len(calls) == 2
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
        assert len(calls) == 2

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
        u = _dense(unitary.blocks)
        assert frobenius(u @ model.t - partner @ u) <= 1e-10

    def test_identity_coupling_gives_zero_phase(self):
        t0, t1 = _shift_pair(6)
        theta, _ = theta_intertwiner_check(t0, t1, np.eye(6), 1e-10)
        assert theta == pytest.approx(0.0, abs=1e-12)

    def test_generic_coupling_rejected(self):
        t0, t1 = _shift_pair(6)
        assert theta_intertwiner_check(t0, t1, random_operator(6, 3),
                                       1e-10) is None

    def test_fit_residual_decides_acceptance(self):
        # the phase fit's residual is the one acceptance is graded on
        t0, t1 = _shift_pair(6)
        y = random_operator(6, 3)
        theta, residual = equivalence._phase_fit(t0, t1, y)
        assert theta_intertwiner_check(t0, t1, y, residual) is not None
        assert theta_intertwiner_check(t0, t1, y, residual / 2) is None
        lhs = y @ t0.matrix - t1.matrix @ y
        assert residual == pytest.approx(
            frobenius(lhs - np.exp(1j * theta) * (t0.matrix - t1.matrix)), abs=1e-15)

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

    def test_kernel_matrix_names_point_outside_disk(self):
        grid = polar_grid(radii=[0.3], n_angles=4)
        rank_one = kernel_frame(bergman_kernel(2, 8), grid)
        rank_two = eigenframe(assemble_model(*_shift_pair(8), random_operator(8, 4)), grid)
        for frame in (rank_one, rank_two, rank_one.with_constant_change(np.array([[2.0]])),
                      rank_two.with_constant_change(SWAP)):
            with pytest.raises(DomainError, match=re.escape("w=(0.3+1.5j)")):
                frame_kernel_matrix(frame, np.array([0.2, 0.3 + 1.5j]))

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
        # K(z, w)[i, j] = <gamma_j(conj w), gamma_i(conj z)> over the padded
        # frame rows of the oracle; each entry is a sum of dim products, so
        # both lie within dim eps ||gamma_i|| ||gamma_j|| of the exact value
        # (for gamma g the row norms of gamma weighted by |g|)
        grid = polar_grid(radii=[0.3, 0.5], n_angles=3)
        x = random_operator(16, 4)
        b2, b1 = bergman_kernel(2, 16), bergman_kernel(1, 16)
        rank_one = kernel_frame(b2, grid)
        rank_two = eigenframe(assemble_model(*_shift_pair(16), x), grid)
        g1, g2 = np.array([[2.0 - 1.0j]]), random_operator(2, 11) + 2.0 * np.eye(2)
        cases = [(rank_one, (b2.coefficients,), None, np.eye(1)),
                 (rank_two, (b1.coefficients, b2.coefficients), x, np.eye(2)),
                 (rank_one.with_constant_change(g1), (b2.coefficients,), None, g1),
                 (rank_two.with_constant_change(g2), (b1.coefficients, b2.coefficients),
                  x, g2)]
        points = np.array([0.2 - 0.1j, -0.45j, 0.3 + 0.35j])
        eps = np.finfo(float).eps
        for frame, coefficients, coupling, g in cases:
            table = frame_kernel_matrix(frame, points)
            rank = frame.rank
            assert table.shape == (3, 3, rank, rank)
            rows = padded_frame_jets(coefficients, np.conj(points), 0, coupling, g)[:, 0]
            base = padded_frame_jets(coefficients, np.conj(points), 0, coupling)[:, 0]
            norms = np.linalg.norm(base, axis=-1) @ np.abs(g)
            for a in range(len(points)):
                for b in range(len(points)):
                    pairwise = np.array([[np.vdot(rows[a, i], rows[b, j])
                                          for j in range(rank)] for i in range(rank)])
                    scale = norms[a][:, None] * norms[b][None, :]
                    assert np.all(np.abs(table[a, b] - pairwise)
                                  <= 4 * frame.dim * eps * scale), (a, b)


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

    def test_scaled_y_fails_both_identities(self):
        # Y -> (1 + 1e-6) Y moves X* t0 - 2 Y t1 by 2e-6 ||t1|| and the norm
        # identity by about 4e-6 ||t1||^2, both far above tol 1e-8
        k0, k1, ks, x, y = _engineered_main3()
        grid = polar_grid(radii=[0.2, 0.4, 0.6], n_angles=8)
        report = main3_verifier(k0, k1, ks, x, (1.0 + 1e-6) * y, grid, tol=1e-8)
        assert report.condition("x-isometry").passed
        for name in ("section-identity", "norm-identity"):
            assert not report.condition(name).passed
            assert report.condition(name).residual > 1e-6

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
        t = section_vector(k, r)
        t_sq = float(np.vdot(t, t).real)
        xt_sq = float(np.vdot(diag * t, diag * t).real)
        value = math.log((xt_sq + t_sq) / t_sq)
        assert 0.0 <= value <= cap + 1e-12
