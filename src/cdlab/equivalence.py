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
from .kernels import DiagonalKernel, disk_points, section_table
from .operators import (U10_COND_CAP, ModelOperator, UpperTriangularModel,
                        assemble_model, block_matrix, block_product,
                        block_residual, frobenius, guarded_inverse,
                        require_unitary, shift_from_kernel, sylvester_kernel)
from .reporting import ConditionReport

NORMALITY_TOL = 1e-10
ROOT_CONSISTENCY_TOL = 1e-10
MAINLEMMA_GATE_TOL = 1e-8


@dataclass(frozen=True)
class BlockUnitary:
    """2N x 2N unitary split into N x N blocks; unitarity checked on build.

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
        require_unitary(self.matrix, "block matrix")

    @property
    def blocks(self) -> tuple:
        """(U00, U01, U10, U11), for `block_product`."""
        return self.u00, self.u01, self.u10, self.u11

    @property
    def matrix(self) -> np.ndarray:
        return block_matrix(*self.blocks)


def _hermitian_powers(mat: np.ndarray, *powers: float) -> list[np.ndarray]:
    """mat^p for each p, for Hermitian positive definite mat, from one
    eigendecomposition."""
    sym = 0.5 * (mat + mat.conj().T)
    evals, vecs = np.linalg.eigh(sym)
    if evals[0] <= 0:
        raise NumericError(f"matrix not positive definite (min eig {evals[0]:.3e})")
    return [(vecs * evals ** power) @ vecs.conj().T for power in powers]


def build_unitary_from_x(t0: ModelOperator, t1: ModelOperator, x: np.ndarray
                         ) -> tuple[BlockUnitary, UpperTriangularModel]:
    """Explicit unitary intertwiner for a normal coupling X.

    Returns U = [[X* R, R], [R, -R X]] with R = (1 + X* X)^{-1/2}, together
    with the partner model whose diagonal is

        Tt0 = (1 + X* X)^{1/2} T1 (1 + X* X)^{-1/2}
        Tt1 = (1 + X X*)^{-1/2} T0 (1 + X* X)^{1/2}

    and whose coupling operator is Y = X*.  Then U T U* = Tt.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if x.shape != (n, n) or t0.size != n or t1.size != n:
        raise InvalidArgumentError("T0, T1, X must be square and equally sized")
    x_scale = frobenius(x) ** 2
    x_xstar, xstar_x = x @ x.conj().T, x.conj().T @ x
    normality = frobenius(x_xstar - xstar_x)
    if normality > NORMALITY_TOL * max(x_scale, 1e-300):
        raise PreconditionError(
            f"X is not normal: ||XX* - X*X|| = {normality:.3e}",
            failed_condition="normal-coupling")
    gram_right = np.eye(n) + xstar_x
    gram_left = np.eye(n) + x_xstar
    root, root_inv = _hermitian_powers(gram_right, 0.5, -0.5)
    (root_left_inv,) = _hermitian_powers(gram_left, -0.5)
    # For normal X the two Gram operators agree; treat a gap as a bug.
    drift = frobenius(root_inv - root_left_inv)
    if drift > ROOT_CONSISTENCY_TOL:
        raise NumericError(
            f"(1+XX*)^(-1/2) and (1+X*X)^(-1/2) disagree by {drift:.3e}")
    unitary = BlockUnitary(u00=x.conj().T @ root_inv, u01=root_inv,
                           u10=root_inv, u11=-root_inv @ x)
    tt0 = t1.right(root) @ root_inv
    tt1 = t0.right(root_left_inv) @ root
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
    end-to-end residual ||U T - Tt U|| is taken block by block; its (1,0)
    block is the U10 corner condition.

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
    eye = np.eye(model.size)
    ut = block_product(unitary.blocks, model.blocks)
    tu = block_product(partner.blocks, unitary.blocks)
    u01_xstar = u01 @ x.conj().T

    report = ConditionReport(name="mainlemma")
    report.add("corner-intertwine-u10", frobenius(ut[2] - tu[2]), tol)
    report.add("corner-intertwine-u01",
               frobenius(t1.left(u01.conj().T) - tt0.right(u01.conj().T)), tol)
    report.add("gram-u10",
               frobenius(np.linalg.inv(eye + x @ x.conj().T)
                         - u10.conj().T @ u10), tol)
    report.add("gram-u01",
               frobenius(np.linalg.inv(eye + x.conj().T @ x)
                         - u01.conj().T @ u01), tol)
    report.add("block-u00", frobenius(u00 - u01_xstar), tol)
    report.add("block-u11", frobenius(u11 + u10 @ x), tol)

    u10_inv, kappa = guarded_inverse(u10, U10_COND_CAP)
    if u10_inv is None:
        report.add_indeterminate(
            "defect-intertwines-partner", tol,
            detail=f"U10 1-norm condition number {kappa:.3e}; n * kappa_1 "
                   f"above the cap {U10_COND_CAP:.1e}; defect skipped")
    else:
        defect = y - u01_xstar @ u10_inv
        report.add("defect-intertwines-partner",
                   frobenius(tt0.left(defect) - tt1.right(defect)), tol)
        report.info["defect_norm"] = frobenius(defect)
    report.info["u10_condition_1norm"] = kappa
    report.add("end-to-end", block_residual(ut, tu), tol)
    return report


@dataclass(frozen=True)
class Fb2Pair:
    """The intertwined triangular pair split off a unitary equivalence.

    F = [[Tt0, S0], [0, T0]] and Ft = [[T1, S1], [0, Tt1]] with
    S0 = Y U10 - U01 X*, S1 = U01* Y - X* U10*, and Z = U01* (+) U10
    satisfying Z F = Ft Z.  `f_blocks`, `ft_blocks` and `z_blocks` are the
    row-major blocks (None for zero); the 2N x 2N matrices are built from
    them when read.
    """

    f_blocks: tuple = field(repr=False)
    ft_blocks: tuple = field(repr=False)
    z_blocks: tuple = field(repr=False)
    residuals: dict = field(default_factory=dict)

    @property
    def s0(self) -> np.ndarray:
        return self.f_blocks[1]

    @property
    def s1(self) -> np.ndarray:
        return self.ft_blocks[1]

    @property
    def f(self) -> np.ndarray:
        return _assembled(self.f_blocks)

    @property
    def ft(self) -> np.ndarray:
        return _assembled(self.ft_blocks)

    @property
    def z(self) -> np.ndarray:
        return _assembled(self.z_blocks)


def _assembled(blocks) -> np.ndarray:
    return block_matrix(*(b.matrix if isinstance(b, ModelOperator) else b
                          for b in blocks))


def construct_fb2_pair(unitary: BlockUnitary, model: UpperTriangularModel,
                       partner: UpperTriangularModel) -> Fb2Pair:
    """Build (F, Ft, Z) and record the intertwining residuals.

    Refuses (PreconditionError) unless verify_mainlemma passes at 1e-8.
    That gate grades the residuals kept on the unitary, so it takes no
    dense product when the caller has just verified the same unitary,
    model and partner objects.
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
    s0 = y @ u10 - u01 @ x.conj().T
    s1 = u01.conj().T @ y - x.conj().T @ u10.conj().T
    f, ft = (tt0, s0, None, t0), (t1, s1, None, tt1)
    z = (u01.conj().T, None, None, u10)
    # the (0,1) block of Z F - Ft Z is U01* S0 - S1 U10, the corner link
    zf, ftz = block_product(z, f), block_product(ft, z)
    residuals = {
        "f-membership": frobenius(tt0.left(s0) - t0.right(s0)),
        "ft-membership": frobenius(t1.left(s1) - tt1.right(s1)),
        "corner-link": frobenius(zf[1] - ftz[1]),
        "z-intertwine": block_residual(zf, ftz),
    }
    return Fb2Pair(f_blocks=f, ft_blocks=ft, z_blocks=z, residuals=residuals)


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
    if frame.jet is None:
        raise InvalidArgumentError("frame has no jet to evaluate")
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

    t0 = section_table(k0, grid.points)
    t1 = section_table(k1, grid.points)
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
