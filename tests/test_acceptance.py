"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Expected values marked as derived come from the independent
oracles in oracles.py (symbolic differentiation, exact rational elimination,
closed-form boundary ratios), never from the code under test.
"""

import math
import time

import numpy as np
import pytest

from cdlab.equivalence import (build_unitary_from_x, construct_fb2_pair,
                               main3_verifier, theta_intertwiner_check,
                               verify_mainlemma)
from cdlab.geometry import (covariant_derivative, curvature,
                            curvature_isometry_check, eigenframe, gram_metric,
                            kernel_frame, polar_grid)
from cdlab.kernels import (DiagonalKernel, bergman_kernel, diagonal_ratio,
                           required_truncation, separator_kernel)
from cdlab.operators import (ModelOperator, apply_mobius, assemble_model,
                             frobenius, random_operator, random_unitary,
                             shift_from_kernel, similarity_split,
                             sylvester_kernel)
from cdlab.homogeneity import mobius_block_identity_check, mobius_sample_set

from oracles import (bergman_curvature, dense_block, log_ratio_boundary_value,
                     padded_frame_jets, sylvester_nullity_exact)


def _verdict(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_bergman_curvature_closed_form():
    start = time.perf_counter()
    grid = polar_grid()  # radii 0.1..0.6, 16 angles
    worst_closed = 0.0
    worst_fd = 0.0
    for n in (1, 2, 3):
        metric = gram_metric(kernel_frame(bergman_kernel(n, 80), grid))
        series = np.array([m[0, 0] for m in
                           curvature(metric, grid, "series").values])
        fd = np.array([m[0, 0] for m in curvature(metric, grid, "fd").values])
        oracle = np.array([bergman_curvature(n, complex(w))
                           for w in grid.points])
        worst_closed = max(worst_closed,
                           float(np.max(np.abs(series - oracle)
                                        / np.abs(series))))
        worst_fd = max(worst_fd,
                       float(np.max(np.abs(series - fd) / np.abs(series))))
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-6 and worst_fd <= 1e-4 and elapsed <= 10.0
    _verdict(1, "bergman-curvature", ok,
             f"closed-form rel {worst_closed:.2e} (tol 1e-6), "
             f"fd rel {worst_fd:.2e} (tol 1e-4), {elapsed:.1f}s (cap 10s)")


def _frame_residuals(size: int, trials: int, grid) -> tuple[float, float]:
    """Worst raw eigen-residual, and worst deviation from the closed-form tail
    relative to ||gamma||.

    (T - w) gamma_0 = -sqrt(a0_{N-1}) w^N e_{N-1} and (T - w) gamma_1 =
    -sqrt(a1_{N-1}) w^N (X e_{N-1}, e_{N-1}), so the residual norms are
    |w|^N sqrt(a0_{N-1}) and |w|^N sqrt(a1_{N-1}) sqrt(1 + ||X e_{N-1}||^2).
    """
    k0, k1 = bergman_kernel(1, size), bergman_kernel(2, size)
    t0, t1 = shift_from_kernel(k0), shift_from_kernel(k1)
    tail = np.abs(grid.points)[:, None] ** size
    worst = deviation = 0.0
    for trial in range(trials):
        x = random_operator(size, 7000 + trial, norm=0.5)
        frame = eigenframe(assemble_model(t0, t1, x), grid)
        x_last_sq = float(np.vdot(x[:, -1], x[:, -1]).real)
        closed = tail * np.sqrt([k0.coefficients[-1],
                                 k1.coefficients[-1] * (1.0 + x_last_sq)])
        rows = padded_frame_jets((k0.coefficients, k1.coefficients), grid.points,
                                 0, x)[:, 0]
        norms = np.linalg.norm(rows, axis=-1)
        deviation = max(deviation, float(np.max(
            np.abs(frame.eigen_residuals - closed) / norms)))
        worst = max(worst, float(np.max(frame.eigen_residuals)))
    return worst, deviation


def test_criterion_02_eigenframe_residuals():
    grid = polar_grid(radii=[0.2, 0.4, 0.6, 0.8], n_angles=8)
    worst_120, deviation = _frame_residuals(120, 20, grid)
    worst_240, _ = _frame_residuals(240, 20, grid)
    ratio = worst_120 / worst_240
    ok = deviation <= 1e-12 and ratio >= 100.0
    _verdict(2, "eigenframe-residuals", ok,
             f"max deviation from the closed-form tail {deviation:.2e} "
             f"relative to ||gamma|| (tol 1e-12); max residual "
             f"{worst_120:.2e}; doubling N shrinks by {ratio:.1e} "
             f"(need >= 100)")


def _example_trials():
    t0 = shift_from_kernel(bergman_kernel(1, 20))
    t1 = shift_from_kernel(bergman_kernel(2, 20))
    for trial in range(50):
        x = random_operator(20, 5000 + trial, norm=1.0, kind="normal")
        unitary, partner = build_unitary_from_x(t0, t1, x)
        model = assemble_model(t0, t1, x)
        yield unitary, model, partner


def test_criterion_03_normal_coupling_construction():
    worst_unitarity = 0.0
    worst_conjugation = 0.0
    worst_condition = 0.0
    eye = np.eye(40)
    for unitary, model, partner in _example_trials():
        u = dense_block(*unitary.blocks)
        worst_unitarity = max(worst_unitarity,
                              frobenius(u @ u.conj().T - eye),
                              frobenius(u.conj().T @ u - eye))
        worst_conjugation = max(worst_conjugation,
                                frobenius(u @ model.t @ u.conj().T - partner.t))
        report = verify_mainlemma(unitary, model, partner, 1e-9)
        assert report.overall
        worst_condition = max(worst_condition, report.worst())
    ok = (worst_unitarity <= 1e-10 and worst_conjugation <= 1e-9
          and worst_condition <= 1e-9)
    _verdict(3, "normal-coupling-construction", ok,
             f"50 trials: unitarity {worst_unitarity:.2e} (tol 1e-10), "
             f"conjugation {worst_conjugation:.2e} (tol 1e-9), "
             f"conditions {worst_condition:.2e} (tol 1e-9)")


def test_criterion_04_intertwined_pair_pipeline():
    worst = 0.0
    for unitary, model, partner in _example_trials():
        pair = construct_fb2_pair(unitary, model, partner)
        worst = max(worst, pair.residuals["f-membership"],
                    pair.residuals["ft-membership"],
                    pair.residuals["z-intertwine"])
    ok = worst <= 1e-9
    _verdict(4, "intertwined-pair-pipeline", ok,
             f"50 trials, worst residual {worst:.2e} (tol 1e-9)")


def test_criterion_05_phase_recovery():
    t0 = shift_from_kernel(bergman_kernel(1, 16))
    t1 = shift_from_kernel(bergman_kernel(2, 16))
    n = 16
    eye = np.eye(n, dtype=complex)
    model = assemble_model(t0, t1, eye)
    worst_theta = 0.0
    worst_intertwine = 0.0
    for k in range(16):
        theta0 = 2.0 * math.pi * k / 16.0
        y = np.exp(1j * theta0) * eye
        outcome = theta_intertwiner_check(t0, t1, y, 1e-10)
        assert outcome is not None
        theta, unitary = outcome
        u = dense_block(*unitary.blocks)
        err = abs((theta - theta0 + math.pi) % (2 * math.pi) - math.pi)
        worst_theta = max(worst_theta, err)
        coupling = y @ t0.matrix - t1.matrix @ y
        partner = np.block([[t1.matrix, coupling],
                            [np.zeros((n, n)), t0.matrix]])
        worst_intertwine = max(
            worst_intertwine,
            frobenius(u @ model.t - partner @ u))
    ok = worst_theta <= 1e-10 and worst_intertwine <= 1e-10
    _verdict(5, "phase-recovery", ok,
             f"16 phases: theta err {worst_theta:.2e}, "
             f"intertwining {worst_intertwine:.2e} (tol 1e-10)")


def _jordan(size, eig=0.0):
    mat = np.eye(size, dtype=complex) * eig
    mat[np.arange(size - 1), np.arange(1, size)] = 1.0
    return mat


def test_criterion_06_sylvester_oracle_agreement():
    catalogue = [
        np.diag([1.0, 2.0]),
        np.diag([1.0, 2.0, 3.0]),
        np.diag([1.0, 1.0, 2.0]),
        np.diag([1.0, 1.0, 2.0, 3.0]),
        _jordan(2),
        _jordan(3),
        _jordan(4),
        _jordan(3, 1.0),
        np.diag([5.0, 6.0]),
        np.diag([1.0j, -1.0j]),
    ]
    total = agree = 0
    for a in catalogue:
        for b in catalogue:
            total += 1
            computed = sylvester_kernel(a, b).dimension
            exact = sylvester_nullity_exact(a, b)
            agree += computed == exact
    ok = agree == total
    _verdict(6, "sylvester-oracle", ok,
             f"{agree}/{total} catalogue pairs agree with exact elimination")


def test_criterion_07_separator_boundary_ratios():
    radii = [0.9, 0.99, 0.999]
    needed = required_truncation(max(radii))
    k0 = bergman_kernel(1, needed)
    k1 = bergman_kernel(2, needed)
    ks = separator_kernel(k0, k1)
    ratios = {}
    for name, kern in (("flat", k0), ("weight2", k1)):
        ratios[name] = [s.ratio for s in diagonal_ratio(ks, kern, radii)]
    decreasing = all(seq[0] > seq[1] > seq[2] for seq in ratios.values())
    final_ok = all(seq[-1] <= 0.05 for seq in ratios.values())
    oracle_err = max(abs(r - log_ratio_boundary_value(rad))
                     for r, rad in zip(ratios["flat"], radii))
    ok = decreasing and final_ok and oracle_err <= 1e-6
    _verdict(7, "separator-kernel", ok,
             f"auto truncation {needed}; final ratios "
             f"{ratios['flat'][-1]:.4f}/{ratios['weight2'][-1]:.2e} "
             f"(cap 0.05); closed-form err {oracle_err:.2e} (tol 1e-6)")


def test_criterion_08_mobius_block_identity():
    maps = mobius_sample_set()
    assert max(abs(m.a) for m in maps) <= 0.7
    worst_rel = 0.0
    worst_involution = 0.0
    for trial in range(50):
        base = 9000 + 3 * trial
        model = assemble_model(
            ModelOperator(random_operator(6, base, norm=0.5)),
            ModelOperator(random_operator(6, base + 1, norm=0.5)),
            random_operator(6, base + 2, norm=0.5))
        t_norm = frobenius(model.t)
        for mob in maps:
            result = mobius_block_identity_check(model, mob)
            worst_rel = max(worst_rel, result.residual / t_norm)
            twice = apply_mobius(apply_mobius(model.t, mob.a, mob.phase),
                                 mob.a, mob.phase)
            worst_involution = max(worst_involution,
                                   frobenius(twice - model.t))
    ok = worst_rel <= 1e-10 and worst_involution <= 1e-9
    _verdict(8, "mobius-block-identity", ok,
             f"50 trials x 12 maps: relative residual {worst_rel:.2e} "
             f"(tol 1e-10), involution {worst_involution:.2e} (tol 1e-9)")


def _field_with_derivatives(frame, grid):
    metric = gram_metric(frame)
    fld = curvature(metric, grid, "series")
    covariant_derivative(fld, metric, 1, 0)
    covariant_derivative(fld, metric, 0, 1)
    return fld


def test_criterion_09_curvature_isometry_checker():
    grid = polar_grid(radii=[0.2, 0.4, 0.6], n_angles=8)
    t0 = shift_from_kernel(bergman_kernel(1, 24))
    t1 = shift_from_kernel(bergman_kernel(2, 24))
    frame_a = eigenframe(assemble_model(t0, t1,
                                        random_operator(24, 11, norm=0.5)),
                         grid)
    field_a = _field_with_derivatives(frame_a, grid)

    g = random_unitary(2, np.random.default_rng(77))
    field_b = _field_with_derivatives(frame_a.with_constant_change(g), grid)
    positive = curvature_isometry_check(field_a, field_b, tol=1e-8)
    pos_ok = (all(r.found for r in positive)
              and max(r.residual for r in positive) <= 1e-8)

    t0b = shift_from_kernel(bergman_kernel(2, 24))
    t1b = shift_from_kernel(bergman_kernel(3, 24))
    frame_c = eigenframe(assemble_model(t0b, t1b,
                                        random_operator(24, 12, norm=0.5)),
                         grid)
    field_c = _field_with_derivatives(frame_c, grid)
    negative = curvature_isometry_check(field_a, field_c, tol=1e-8)
    certified = sum(1 for r in negative if not r.found and r.certified_mismatch)
    neg_ok = certified >= 0.9 * len(negative)
    ok = pos_ok and neg_ok
    _verdict(9, "curvature-isometry", ok,
             f"positive: {sum(r.found for r in positive)}/{len(positive)} found, "
             f"worst {max(r.residual for r in positive):.2e} (tol 1e-8); "
             f"negative: {certified}/{len(negative)} certified mismatches "
             f"(need >= 90%)")


def test_criterion_10_similarity_split():
    worst = 0.0
    for trial in range(50):
        base = 11000 + 3 * trial
        model = assemble_model(
            ModelOperator(random_operator(8, base, norm=1.0)),
            ModelOperator(random_operator(8, base + 1, norm=1.0)),
            random_operator(8, base + 2, norm=1.0))
        split = similarity_split(model)
        worst = max(worst, split.residual / frobenius(model.t))
    ok = worst <= 1e-12
    _verdict(10, "similarity-split", ok,
             f"50 trials, worst relative residual {worst:.2e} (tol 1e-12)")


def test_criterion_11_main3_engineered_instance():
    # engineered to satisfy both section identities exactly: the slow-kernel
    # partner has coefficients 2(|c_k|^2 + 1) a_k with unimodular c_k, the
    # isometry is diag(conj(c_k)) and the comparison coupling diag(c_k)
    size = 24
    k1 = bergman_kernel(1, size)
    rng = np.random.default_rng(17)
    phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size))
    k0 = DiagonalKernel(4.0 * k1.coefficients, label="engineered")
    x = np.diag(phases.conj())
    y = np.diag(phases)
    ks = separator_kernel(k0, k1)
    grid = polar_grid(radii=[0.2, 0.4, 0.6], n_angles=8)
    report = main3_verifier(k0, k1, ks, x, y, grid, tol=1e-8)
    pts = grid.points[::max(1, len(grid.points) // 8)][:8]
    assert len(pts) == 8  # 64 sample pairs in the transform check
    section = report.condition("section-identity").residual
    norm_id = report.condition("norm-identity").residual
    transform = report.condition("kernel-transform").residual
    ok = report.overall and max(section, norm_id, transform) <= 1e-8
    _verdict(11, "main3-engineered", ok,
             f"section {section:.2e}, norm {norm_id:.2e}, "
             f"kernel transform {transform:.2e} over 64 pairs (tol 1e-8)")
