"""Disk-automorphism functional calculus on the block models.

phi(T) for phi(z) = e^{i phase} (a - z)/(1 - conj(a) z) preserves the
upper-triangular structure: phi(T) = [[phi(T0), X phi(T1) - phi(T0) X],
[0, phi(T1)]].  The checks here quantify that identity, the diagonal-witness
commutation U0 X = X U1, and the full block-unitary conditions for
U T = phi(T) U.  Full-group statements can only be sampled; every sweep uses
the fixed deterministic sample set below and says so in its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .operators import (U10_COND_CAP, UpperTriangularModel, apply_mobius,
                        block_matrix, block_product, block_residual, frobenius,
                        guarded_inverse, require_unitary, triangular_matrix)
from .reporting import ConditionReport


@dataclass(frozen=True)
class MobiusMap:
    """phi(z) = e^{i phase} (a - z)/(1 - conj(a) z) with |a| < 1."""

    a: complex
    phase: float = 0.0

    def __post_init__(self):
        if not abs(self.a) < 1.0:  # NaN too
            raise InvalidArgumentError("mobius parameter must satisfy |a| < 1")
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "phase", float(self.phase) % (2.0 * math.pi))

    def scalar(self, z: complex) -> complex:
        return np.exp(1j * self.phase) * (self.a - z) / (1.0 - np.conj(self.a) * z)

    def of(self, mat: np.ndarray) -> np.ndarray:
        return apply_mobius(mat, self.a, self.phase)

    def inverse(self) -> "MobiusMap":
        """phi^{-1}: parameter a e^{i phase} and phase -phase."""
        return MobiusMap(a=self.a * np.exp(1j * self.phase), phase=-self.phase)


def mobius_sample_set() -> list[MobiusMap]:
    """Deterministic 12-map sample: |a| in {0.2, 0.5, 0.7} x 4 angles, phase 0."""
    maps = []
    for radius in (0.2, 0.5, 0.7):
        for k in range(4):
            angle = 0.5 * math.pi * k
            maps.append(MobiusMap(a=radius * np.exp(1j * angle)))
    return maps


def apply_maps(maps, mat: np.ndarray) -> np.ndarray:
    """phi(mat) for every map in one stacked apply_mobius call.

    `mat` is one matrix, mapped by every map, or a stack with one matrix per
    map.  The result is the (len(maps), n, n) stack of images, each equal to
    `phi.of` of its matrix.
    """
    return apply_mobius(mat, [m.a for m in maps], [m.phase for m in maps])


@dataclass(frozen=True)
class MobiusBlockResult:
    """Worst block residual over the maps, the per-map residuals, the power
    residuals of the model (they do not depend on the map) and the stack of
    images phi(T), one per map."""

    residual: float
    power_residuals: dict
    residuals: list
    images: np.ndarray = field(repr=False)


def mobius_block_identity_check(model: UpperTriangularModel,
                                maps) -> MobiusBlockResult:
    """Residual of phi(T) against the blockwise assembly, plus power spot checks.

    `maps` is one MobiusMap or a sequence of them; phi(T), phi(T0) and
    phi(T1) are formed for all of them in three stacked calls.  phi(T) is
    computed directly on the assembled 2N x 2N matrix so the block identity
    is a genuine cross-check, not a tautology.  The same structural identity
    for plain powers T^n at n = 2, 3, 5 is the model's `power_residuals`,
    formed on the first call for a model and reused by every later one.
    """
    maps = [maps] if isinstance(maps, MobiusMap) else list(maps)
    if not maps:
        raise InvalidArgumentError("mobius block check needs at least one map")
    images = apply_maps(maps, model.t)
    assembled = triangular_matrix(apply_maps(maps, model.t0.matrix),
                                  apply_maps(maps, model.t1.matrix), model.x)
    residuals = [frobenius(d) for d in images - assembled]
    return MobiusBlockResult(residual=max(residuals),
                             power_residuals=dict(model.power_residuals),
                             residuals=residuals, images=images)


@dataclass(frozen=True)
class WitnessEntry:
    """Diagonal witness unitaries for one sampled map: U_i T_i U_i* = phi(T_i)."""

    mobius: MobiusMap
    u0: np.ndarray = field(repr=False)
    u1: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name, u in (("U0", self.u0), ("U1", self.u1)):
            require_unitary(u, f"witness {name}")


def homogeneity_condition_check(model: UpperTriangularModel,
                                witness: list[WitnessEntry],
                                tol: float) -> ConditionReport:
    """Per sampled map: diagonal conjugations, the commutation U0 X = X U1,
    and the assembled check ||(U0 (+) U1) T - phi(T) (U0 (+) U1)||.

    Both products of the assembled check are formed block by block
    (`block_product`); phi(T) is mapped from the assembled T, as in
    `mobius_block_identity_check`.  The verdict only quantifies over the
    sampled maps, never the full group; the report records the sample size.
    """
    if not witness:
        raise InvalidArgumentError("homogeneity check needs at least one witness map")
    report = ConditionReport(name="homogeneity")
    report.info["sampled_maps"] = len(witness)
    t0, t1, x, n = model.t0.matrix, model.t1.matrix, model.x, model.size
    maps = [entry.mobius for entry in witness]
    phi_t0s, phi_t1s, phi_ts = (apply_maps(maps, m) for m in (t0, t1, model.t))
    for idx, (entry, phi_t0, phi_t1, phi_t) in enumerate(
            zip(witness, phi_t0s, phi_t1s, phi_ts)):
        u0, u1 = entry.u0, entry.u1
        tag = f"map{idx}"
        report.add(f"{tag}-conjugate-t0",
                   frobenius(u0 @ t0 @ u0.conj().T - phi_t0), tol)
        report.add(f"{tag}-conjugate-t1",
                   frobenius(u1 @ t1 @ u1.conj().T - phi_t1), tol)
        report.add(f"{tag}-commutation", frobenius(u0 @ x - x @ u1), tol)
        u_blocks = (u0, None, None, u1)
        phi_blocks = (phi_t[:n, :n], phi_t[:n, n:], phi_t[n:, :n], phi_t[n:, n:])
        report.add(f"{tag}-assembled",
                   block_residual(block_product(u_blocks, model.blocks),
                                  block_product(phi_blocks, u_blocks)), tol)
    return report


def thm45_condition_check(unitary, model: UpperTriangularModel,
                          mobius: MobiusMap, tol: float) -> ConditionReport:
    """Full block-unitary conditions for U T = phi(T) U.

    Three groups: (1) the corner intertwinings U10 T0 = phi(T1) U10 and
    T1 U01* = U01* phi(T0); (2) the block relations U00 = X U10 = U01 X* and
    -U11 = X* U01 = U10 X; (3) the Gram relations (1+XX*)^{-1} =
    (1+X*X)^{-1} = U10* U10 = U01* U01; plus the end-to-end residual.
    Condition (1) is reported indeterminate when U10 is numerically singular
    (n kappa_1(U10) above U10_COND_CAP, see `guarded_inverse`).  U T is
    formed block by block, and its (1,0) block is the U10 T0 of condition
    (1); phi(T) is mapped from the assembled T, as in
    `mobius_block_identity_check`.
    """
    report = ConditionReport(name="thm45")
    t0, t1, x = model.t0, model.t1, model.x
    u00, u01, u10, u11 = unitary.u00, unitary.u01, unitary.u10, unitary.u11
    # the 2N x 2N image of T sets the peak memory of this check: form it,
    # and phi(T) U, before any other block is alive.  Its resolvent holds
    # those of T0 and T1 as diagonal blocks, so it is refused whenever
    # theirs would be.
    phi_t_u = mobius.of(model.t) @ unitary.matrix
    phi_t0 = mobius.of(t0.matrix)
    phi_t1 = mobius.of(t1.matrix)
    eye = np.eye(model.size)
    ut = block_product(unitary.blocks, model.blocks)

    u10_inv, kappa = guarded_inverse(u10, U10_COND_CAP)
    report.info["u10_condition_1norm"] = kappa
    if u10_inv is None:
        report.add_indeterminate(
            "corner-intertwine-u10", tol,
            detail=f"U10 1-norm condition number {kappa:.3e}; "
                   f"n * kappa_1 above the cap {U10_COND_CAP:.1e}")
    else:
        report.add("corner-intertwine-u10",
                   frobenius(ut[2] - phi_t1 @ u10), tol)
    report.add("corner-intertwine-u01",
               frobenius(t1.left(u01.conj().T) - u01.conj().T @ phi_t0), tol)

    report.add("block-u00-xu10", frobenius(u00 - x @ u10), tol)
    report.add("block-u00-u01xstar", frobenius(u00 - u01 @ x.conj().T), tol)
    report.add("block-u11-xstaru01", frobenius(u11 + x.conj().T @ u01), tol)
    report.add("block-u11-u10x", frobenius(u11 + u10 @ x), tol)

    inv_left = np.linalg.inv(eye + x @ x.conj().T)
    inv_right = np.linalg.inv(eye + x.conj().T @ x)
    report.add("gram-left-right", frobenius(inv_left - inv_right), tol)
    report.add("gram-u10", frobenius(inv_left - u10.conj().T @ u10), tol)
    report.add("gram-u01", frobenius(inv_right - u01.conj().T @ u01), tol)

    end_to_end = block_matrix(*ut)
    end_to_end -= phi_t_u
    report.add("end-to-end", frobenius(end_to_end), tol)
    return report
