"""Constructive unitary-equivalence machinery for the coupled block models.

Given T = [[T0, X T1 - T0 X], [0, T1]] and Tt = [[Tt0, Y Tt1 - Tt0 Y],
[0, Tt1]], a block unitary U with U T = Tt U is pinned down by three
conditions: the corner intertwinings, the Gram identities
(1 + X X*)^{-1} = U10* U10 and (1 + X* X)^{-1} = U01* U01, and membership of
Y - U01 X* U10^{-1} in the intertwiner space of (Tt0, Tt1).  This module
builds such unitaries for normal X, verifies the conditions numerically,
extracts the associated intertwined triangular pair (F, Ft), recovers the
scalar phase in the X = I specialization, and checks matrix-kernel
transformations between frame fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateInputError, InvalidArgumentError,
                     NumericError, PreconditionError)
from .geometry import DiskGrid, FrameField, eigenframe
from .kernels import DiagonalKernel, disk_points, section_tables
from .operators import (U10_COND_CAP, ModelOperator, UpperTriangularModel,
                        _inverse, _times, assemble_model, frobenius,
                        gap_total, guarded_inverse, intertwining_gaps,
                        require_unitary, shift_from_kernel, sylvester_kernel)
from .reporting import ConditionReport

NORMALITY_TOL = 1e-10
MAINLEMMA_GATE_TOL = 1e-8


@dataclass(frozen=True)
class BlockUnitary:
    """2N x 2N unitary kept as its N x N blocks; unitarity is checked on
    build from the Gram blocks (`block_unitarity_residual`), and the 2N x 2N
    matrix is never assembled.

    `verification` keeps the conditions and info of the last
    `verify_mainlemma` call, with the model and partner they were taken
    against, so the blocks must not be mutated after a verification.
    """

    u00: np.ndarray = field(repr=False)
    u01: np.ndarray = field(repr=False)
    u10: np.ndarray = field(repr=False)
    u11: np.ndarray = field(repr=False)
    verification: list = field(default_factory=list, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        require_unitary(self.blocks, "block matrix")

    @property
    def blocks(self) -> tuple:
        """(U00, U01, U10, U11), for `intertwining_gaps`."""
        return self.u00, self.u01, self.u10, self.u11


def _hermitian_powers(mat: np.ndarray, *powers: float) -> list[np.ndarray]:
    """mat^p for each p, for Hermitian positive definite mat, from one
    eigendecomposition."""
    sym = 0.5 * (mat + mat.conj().T)
    evals, vecs = np.linalg.eigh(sym)
    del sym
    if evals[0] <= 0:
        raise NumericError(f"matrix not positive definite (min eig {evals[0]:.3e})")
    vecs_h = vecs.conj().T
    return [(vecs * evals ** power) @ vecs_h for power in powers]


def _normal_gram_roots(x: np.ndarray) -> list[np.ndarray]:
    """[(1 + X*X)^{1/2}, (1 + X*X)^{-1/2}] for a normal X, from one
    eigendecomposition; 1 + X*X is formed over X*X.

    Raises PreconditionError when X is not normal.  For normal X the
    inverse root R is also (1 + XX*)^{-1/2}; the unitarity check on U
    bounds the gap through its G00 block R (1 + XX*) R - I.
    """
    x_star = x.conj().T
    xstar_x = x_star @ x
    normality = frobenius(x @ x_star - xstar_x)
    del x_star
    if normality > NORMALITY_TOL * max(frobenius(x) ** 2, 1e-300):
        raise PreconditionError(
            f"X is not normal: ||XX* - X*X|| = {normality:.3e}",
            failed_condition="normal-coupling")
    return _hermitian_powers(np.add(np.eye(len(x)), xstar_x, out=xstar_x),
                             0.5, -0.5)


def build_unitary_from_x(t0: ModelOperator, t1: ModelOperator, x: np.ndarray
                         ) -> tuple[BlockUnitary, UpperTriangularModel]:
    """Explicit unitary intertwiner for a normal coupling X.

    Returns U = [[X* R, R], [R, -R X]] with R = (1 + X* X)^{-1/2}, together
    with the partner model whose diagonal is

        Tt0 = S T1 R,   Tt1 = R T0 S,   S = (1 + X* X)^{1/2},

    and whose coupling operator is Y = X*.  Then U T U* = Tt (R stands for
    (1 + X X*)^{-1/2}, equal for normal X).  R and S come from one
    eigendecomposition; S is dropped before U is formed.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if x.shape != (n, n) or t0.size != n or t1.size != n:
        raise InvalidArgumentError("T0, T1, X must be square and equally sized")
    root, root_inv = _normal_gram_roots(x)
    tt0 = t1.right(root) @ root_inv
    tt1 = t0.right(root_inv) @ root
    del root
    unitary = BlockUnitary(u00=x.conj().T @ root_inv, u01=root_inv,
                           u10=root_inv, u11=-root_inv @ x)
    partner = assemble_model(ModelOperator(tt0), ModelOperator(tt1), x.conj().T)
    return unitary, partner


def verify_mainlemma(unitary: BlockUnitary, model: UpperTriangularModel,
                     partner: UpperTriangularModel, tol: float):
    """Check the three unitary-intertwining conditions plus the block identities.

    Conditions reported: (1) U10 T0 = Tt1 U10 and T1 U01* = U01* Tt0;
    (2) (1+XX*)^{-1} = U10* U10 and (1+X*X)^{-1} = U01* U01;
    (3) Y - U01 X* U10^{-1} lies in the intertwiner space of (Tt0, Tt1);
    plus U00 = U01 X* and U11 = -U10 X.  U10^{-1} and its guard come from
    one `guarded_inverse`; when n kappa_1(U10) exceeds U10_COND_CAP,
    condition (3) is reported indeterminate with the 1-norm figure.  The
    end-to-end residual ||U T - Tt U|| is taken block by block
    (`intertwining_gaps`); its (1,0) block is the U10 corner condition.

    The residuals depend only on the three objects, and `tol` only sets the
    verdicts.  They are taken once per unitary and kept on it
    (`BlockUnitary.verification`); a later call with the same model and
    partner objects (`is`, not equal values) grades the kept residuals at
    its own `tol`, and an indeterminate condition stays indeterminate.
    """
    kept = unitary.verification
    if not (kept and kept[0] is model and kept[1] is partner):
        report = _mainlemma_residuals(unitary, model, partner, tol)
        kept[:] = [model, partner, tuple(report.conditions), dict(report.info)]
    _, _, conditions, info = kept
    report = ConditionReport(name="mainlemma", info=dict(info))
    for cond in conditions:
        if cond.status == "indeterminate":
            report.add_indeterminate(cond.name, tol, cond.detail)
        else:
            report.add(cond.name, cond.residual, tol, cond.detail)
    return report


def _mainlemma_residuals(unitary: BlockUnitary, model: UpperTriangularModel,
                         partner: UpperTriangularModel, tol: float):
    """The `verify_mainlemma` report, computed from the blocks."""
    t0, t1, x = model.t0, model.t1, model.x
    tt0, tt1, y = partner.t0, partner.t1, partner.x
    u00, u01, u10, u11 = unitary.blocks
    gaps = intertwining_gaps(unitary.blocks, model.blocks, partner.blocks)
    eye = np.eye(model.size)
    u01_xstar = _times(u01, x.conj().T)

    report = ConditionReport(name="mainlemma")
    report.add("corner-intertwine-u10", gaps[2], tol)
    report.add("corner-intertwine-u01",
               frobenius(t1.left(u01.conj().T) - tt0.right(u01.conj().T)), tol)
    report.add("gram-u10",
               frobenius(_inverse(eye + _times(x, x.conj().T))
                         - _times(u10.conj().T, u10)), tol)
    report.add("gram-u01",
               frobenius(_inverse(eye + _times(x.conj().T, x))
                         - _times(u01.conj().T, u01)), tol)
    report.add("block-u00", frobenius(u00 - u01_xstar), tol)
    report.add("block-u11", frobenius(u11 + _times(u10, x)), tol)

    u10_inv, kappa = guarded_inverse(u10, U10_COND_CAP)
    if u10_inv is None:
        report.add_indeterminate(
            "defect-intertwines-partner", tol,
            detail=f"U10 1-norm condition number {kappa:.3e}; n * kappa_1 "
                   f"above the cap {U10_COND_CAP:.1e}; defect skipped")
    else:
        defect = y - _times(u01_xstar, u10_inv)
        report.add("defect-intertwines-partner",
                   frobenius(tt0.left(defect) - tt1.right(defect)), tol)
        report.info["defect_norm"] = frobenius(defect)
    report.info["u10_condition_1norm"] = kappa
    report.add("end-to-end", gap_total(gaps), tol)
    return report


@dataclass(frozen=True)
class Fb2Pair:
    """The intertwined triangular pair split off a unitary equivalence.

    F = [[Tt0, S0], [0, T0]] and Ft = [[T1, S1], [0, Tt1]] with
    S0 = Y U10 - U01 X*, S1 = U01* Y - X* U10*, and Z = U01* (+) U10
    satisfying Z F = Ft Z.  `f_blocks` and `ft_blocks` are the row-major
    blocks (None for zero), as `intertwining_gaps` takes them;
    `z_blocks` forms U01* on each read from the kept `u01`.
    """

    f_blocks: tuple = field(repr=False)
    ft_blocks: tuple = field(repr=False)
    u01: np.ndarray = field(repr=False)
    u10: np.ndarray = field(repr=False)
    residuals: dict = field(default_factory=dict)

    @property
    def s0(self) -> np.ndarray:
        return self.f_blocks[1]

    @property
    def s1(self) -> np.ndarray:
        return self.ft_blocks[1]

    @property
    def z_blocks(self) -> tuple:
        return self.u01.conj().T, None, None, self.u10


def construct_fb2_pair(unitary: BlockUnitary, model: UpperTriangularModel,
                       partner: UpperTriangularModel) -> Fb2Pair:
    """Build (F, Ft, Z) and record the intertwining residuals.

    Refuses (PreconditionError) unless verify_mainlemma passes at 1e-8.
    That gate grades the residuals kept on the unitary, so it takes no
    dense product when the caller has just verified the same unitary,
    model and partner objects.  S0 and S1 are each accumulated in one
    array.
    """
    gate = verify_mainlemma(unitary, model, partner, MAINLEMMA_GATE_TOL)
    if not gate.overall:
        failing = [c.name for c in gate.conditions if not c.passed]
        raise PreconditionError(
            f"mainlemma conditions failed: {', '.join(failing)}",
            failed_condition=failing[0])
    t0, t1, x = model.t0, model.t1, model.x
    tt0, tt1, y = partner.t0, partner.t1, partner.x
    u01, u10 = unitary.u01, unitary.u10
    x_star = x.conj().T
    s0 = y @ u10
    s0 -= u01 @ x_star
    s1 = u01.conj().T @ y
    s1 -= x_star @ u10.conj().T
    del x_star
    pair = Fb2Pair(f_blocks=(tt0, s0, None, t0), ft_blocks=(t1, s1, None, tt1),
                   u01=u01, u10=u10)
    # the (0,1) block of Z F - Ft Z is U01* S0 - S1 U10, the corner link
    gaps = intertwining_gaps(pair.z_blocks, pair.f_blocks, pair.ft_blocks)
    pair.residuals.update({
        "f-membership": frobenius(tt0.left(s0) - t0.right(s0)),
        "ft-membership": frobenius(t1.left(s1) - tt1.right(s1)),
        "corner-link": gaps[1],
        "z-intertwine": gap_total(gaps),
    })
    return pair


def theta_intertwiner_check(t0: ModelOperator, t1: ModelOperator,
                            y: np.ndarray, tol: float
                            ) -> tuple[float, BlockUnitary] | None:
    """Recover the phase in Y T0 - T1 Y = e^{i theta} (T0 - T1), if it exists.

    theta is the Frobenius least-squares phase; acceptance re-verifies the full
    relation at `tol`.  On success returns (theta, U) with the rotation-block
    unitary U whose blocks are sqrt(2)/2 e^{i theta_1} I, ... (theta_1 -
    theta_2 = theta), which intertwines [[T0, T1-T0],[0,T1]] with
    [[T1, Y T0 - T1 Y],[0,T0]].  Returns None when the relation fails.
    """
    diff = t0.matrix - t1.matrix
    scale = frobenius(diff)
    if scale == 0.0:
        raise DegenerateInputError("T0 == T1: the phase is undefined")
    lhs = t0.right(y) - t1.left(y)
    pairing = np.vdot(diff, lhs)  # tr((T0-T1)^H (Y T0 - T1 Y))
    theta = float(np.angle(pairing)) if pairing != 0 else 0.0
    residual = frobenius(lhs - np.exp(1j * theta) * diff)
    if residual > tol:
        return None
    eye = np.eye(t0.size, dtype=complex)
    half = math.sqrt(2.0) / 2.0
    unitary = BlockUnitary(u00=half * np.exp(1j * theta) * eye,
                           u01=half * np.exp(1j * theta) * eye,
                           u10=half * eye,
                           u11=-half * eye)
    return theta % (2.0 * math.pi), unitary


# Phi = [[0, 1], [1, 0]]: the constant transform that swaps a rank-2 frame
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def sample_points(grid: DiskGrid, count: int) -> np.ndarray:
    """At most `count` grid points, every (P // count)-th from the first."""
    pts = grid.points
    return pts[::max(1, len(pts) // count)][:count]


def frame_kernel_matrix(frame: FrameField, points) -> np.ndarray:
    """The (P, P, r, r) table K(z_a, z_b)[i, j] = <gamma_j(conj z_b),
    gamma_i(conj z_a)> over the 1-d `points`.

    Frames are evaluated at the conjugated points, matching the convention in
    which the model acts as the adjoint multiplication operator; a point with
    |z| >= 1 raises a DomainError that names it as given.
    """
    vecs = frame.evaluate(np.conj(disk_points(points)))
    return vecs.conj()[:, None] @ np.swapaxes(vecs, -1, -2)[None, :]


def kernel_transform_check(frame_a: FrameField, frame_b: FrameField,
                           phi: np.ndarray, points) -> float:
    """max over ordered pairs (z, w) of `points` of
    || Phi K_A(z, w) Phi^* - K_B(z, w) || for a constant r x r Phi."""
    phi = np.asarray(phi, dtype=complex)
    lhs = phi @ frame_kernel_matrix(frame_a, points) @ phi.conj().T
    diff = (lhs - frame_kernel_matrix(frame_b, points)).reshape(-1, phi.size)
    # ||D||^2 = re.re + im.im, each a stacked matmul, which rounds as frobenius
    squares = sum((part[:, None, :] @ part[:, :, None]).ravel()
                  for part in (diff.real, diff.imag))
    return float(np.sqrt(np.max(squares)))


def main3_verifier(k0: DiagonalKernel, k1: DiagonalKernel, ks: DiagonalKernel,
                   x: np.ndarray, y: np.ndarray, grid: DiskGrid, tol: float):
    """Check the two section identities and the induced kernel transform.

    Hypotheses verified pointwise on the grid, for sections t_i of the kernels:

        (1)  X* t0(w) = 2 Y t1(w)
        (2)  ||t0(w)||^2 = 2 (||Y t1(w)||^2 + ||t1(w)||^2)

    with X an isometry.  On success the two coupled models through the slow
    kernel Ks are assembled, T = [[T0, X Ts - T0 X], [0, Ts]] and
    Tt = [[Ts, Y T1 - Ts Y], [0, T1]], their frames are compared through the
    constant SWAP over all ordered pairs of 8 grid points (partner frame
    scaled by sqrt(2)), and the intertwiner-space dimensions between each
    diagonal operator and Ts are reported in both orders.
    """
    report = ConditionReport(name="main3")
    n = ks.truncation
    if k0.truncation != n or k1.truncation != n:
        raise InvalidArgumentError("all three kernels need one truncation")
    eye = np.eye(n)
    report.add("x-isometry", frobenius(x.conj().T @ x - eye), 1e-10)

    t0, t1 = section_tables((k0, k1), grid.points)
    yt1 = t1 @ y.T
    # Row-wise vdot(v, v) as one stacked matmul, which rounds as vdot does.
    t0_sq, yt1_sq, t1_sq = ((v.conj()[:, None, :] @ v[:, :, None]).real.ravel()
                            for v in (t0, yt1, t1))
    section_res = np.linalg.norm(t0 @ x.conj() - 2.0 * yt1, axis=1)
    norm_res = np.abs(t0_sq - 2.0 * (yt1_sq + t1_sq))
    for name, res in (("section-identity", section_res), ("norm-identity", norm_res)):
        worst = int(np.argmax(res))  # the first grid point wins ties
        report.add(name, float(res[worst]), tol,
                   detail=f"worst point {complex(grid.points[worst])}")

    t0_op = shift_from_kernel(k0)
    t1_op = shift_from_kernel(k1)
    ts_op = shift_from_kernel(ks)
    model = assemble_model(t0_op, ts_op, x)
    partner = assemble_model(ts_op, t1_op, y)
    frame_a = eigenframe(model, grid)
    frame_b = eigenframe(partner, grid).with_constant_change(
        math.sqrt(2.0) * np.eye(2))
    report.add("kernel-transform",
               kernel_transform_check(frame_a, frame_b, SWAP,
                                      sample_points(grid, 8)), tol)

    for name, diag in (("t0", t0_op), ("t1", t1_op)):
        fwd = sylvester_kernel(diag.matrix, ts_op.matrix)
        back = sylvester_kernel(ts_op.matrix, diag.matrix)
        report.info[f"intertwiner_dim_{name}_ts"] = fwd.dimension
        report.info[f"intertwiner_dim_ts_{name}"] = back.dimension
    return report
