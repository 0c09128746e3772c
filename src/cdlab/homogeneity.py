"""Disk-automorphism functional calculus on the block models.

phi(T) for phi(z) = e^{i phase} (a - z)/(1 - conj(a) z) preserves the
upper-triangular structure: phi(T) = [[phi(T0), X phi(T1) - phi(T0) X],
[0, phi(T1)]].  The checks here quantify that identity, the diagonal-witness
commutation U0 X = X U1, and the full block-unitary conditions for
U T = phi(T) U.  Full-group statements can only be sampled; every sweep uses
the fixed deterministic sample set below and says so in its report.

Every check works on N x N blocks; none assembles the 2N x 2N T.  phi(T)
has one route, `mobius_images`, on blocks or stacks of them: phi(T0) and
phi(T1) by stacked `apply_mobius` calls, one LU per resolvent, and the
corner E from the coupling block C and phi(T0) by one batched N x N
product, never from X, guarded on the N x N resolvents.
`mobius_block_identity_check` compares E with X phi(T1) - phi(T0) X, which
is the identity, and returns the image blocks, which the mobius-block
scenario maps back the same way;
`homogeneity_condition_check` and `thm45_condition_check` reduce the
intertwinings with phi(T) one N x N block of the difference at a time
(`operators.intertwining_gaps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .operators import (U10_COND_CAP, UpperTriangularModel, _inverse, _times,
                        apply_mobius, frobenius, gap_total, guarded_inverse,
                        intertwining_gaps, require_unitary)
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


def mobius_images(blocks, maps) -> tuple:
    """Stacks (phi(T0), E, phi(T1)) of the nonzero blocks of phi(T), one
    matrix per map, for T = [[T0, C], [0, T1]] by block back-substitution.
    Each of `blocks` = (T0, C, T1) is one matrix, mapped by every map, or a
    stack with one matrix per map, such as the images of an earlier call.

    phi(T) solves D phi(T) = e^{i phase} (a I - T) with the block upper
    triangular D = [[D0, -conj(a) C], [0, D1]], Di = I - conj(a) Ti.  Its
    diagonal blocks are phi(T0) and phi(T1) (`apply_mobius`, one LU per
    resolvent), and its corner is E = D0^{-1} C (conj(a) phi(T1) -
    e^{i phase} I) for any C.  With (1 - |a|^2) D0^{-1} = I - conj(a)
    e^{-i phase} phi(T0), E is one batched N x N product for all maps.  It
    rounds apart from a solve by about eps / (1 - |a|^2) relative to E,
    which shrinks with 1 - |a|^2, so by about eps relative to phi(T).  E is
    formed from C alone, never from X, so comparing it with
    X phi(T1) - phi(T0) X checks the identity.

    D is invertible exactly when D0 and D1 are, so the resolvent guard is
    the N x N one of `apply_mobius` on D0 and D1: a map it refuses raises
    SingularResolventError naming the map's index, before any corner is
    formed.  D's own condition number can exceed both of theirs through
    C, so a 2N x 2N D just above the cap can pass.
    """
    t0, coupling, t1 = blocks
    a = np.array([m.a for m in maps])
    phases = np.array([m.phase for m in maps])
    phi_t0s, phi_t1s = apply_mobius(t0, a, phases), apply_mobius(t1, a, phases)
    conj_a = np.conj(a)[:, None, None]
    rotations = np.exp(1j * phases)[:, None, None]
    corners = ((np.eye(t0.shape[-1]) - conj_a * rotations.conj() * phi_t0s)
               @ (conj_a * (coupling @ phi_t1s) - rotations * coupling))
    corners /= (1.0 - np.abs(a) ** 2)[:, None, None]
    return phi_t0s, corners, phi_t1s


@dataclass(frozen=True)
class MobiusBlockResult:
    """Worst block residual over the maps, the per-map residuals, the power
    residuals of the model (they do not depend on the map) and the images
    phi(T) as the stacks (phi(T0), E, phi(T1)) of `mobius_images`."""

    residual: float
    power_residuals: dict
    residuals: list
    images: tuple = field(repr=False)


def mobius_block_identity_check(model: UpperTriangularModel,
                                maps) -> MobiusBlockResult:
    """Residual of phi(T) against the blockwise assembly, plus power spot checks.

    `maps` is one MobiusMap or a sequence of them; the blocks of phi(T) are
    formed for all of them at once by `mobius_images`.  Its corner E comes
    from the coupling block C alone, so its residual against the block
    formula X phi(T1) - phi(T0) X is a genuine cross-check, not a
    tautology.  The diagonal blocks of phi(T) are phi(T0) and phi(T1) for
    any block-triangular T, so the corner residual is the whole residual.
    The images are returned as their blocks.  The same structural identity
    for plain powers T^n at n = 2, 3, 5 is the model's `power_residuals`,
    formed on the first call for a model and reused by every later one.
    """
    maps = [maps] if isinstance(maps, MobiusMap) else list(maps)
    if not maps:
        raise InvalidArgumentError("mobius block check needs at least one map")
    phi_t0s, corners, phi_t1s = images = mobius_images(
        (model.t0.matrix, model.coupling_block, model.t1.matrix), maps)
    x = model.x
    # the block formula's corner, overwritten by E minus it
    formula = x @ phi_t1s - phi_t0s @ x
    residuals = [frobenius(d)
                 for d in np.subtract(corners, formula, out=formula)]
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

    The assembled check is reduced block by block (`intertwining_gaps`)
    against the blocks of phi(T) from `mobius_images`.  The verdict only
    quantifies over the sampled maps, never the full group; the report
    records the sample size.
    """
    if not witness:
        raise InvalidArgumentError("homogeneity check needs at least one witness map")
    report = ConditionReport(name="homogeneity")
    report.info["sampled_maps"] = len(witness)
    t0, t1, x = model.t0.matrix, model.t1.matrix, model.x
    images = mobius_images((t0, model.coupling_block, t1),
                           [entry.mobius for entry in witness])
    for idx, (entry, phi_t0, corner, phi_t1) in enumerate(zip(witness, *images)):
        u0, u1 = entry.u0, entry.u1
        tag = f"map{idx}"
        report.add(f"{tag}-conjugate-t0",
                   frobenius(u0 @ t0 @ u0.conj().T - phi_t0), tol)
        report.add(f"{tag}-conjugate-t1",
                   frobenius(u1 @ t1 @ u1.conj().T - phi_t1), tol)
        report.add(f"{tag}-commutation", frobenius(u0 @ x - x @ u1), tol)
        report.add(f"{tag}-assembled", gap_total(intertwining_gaps(
            (u0, None, None, u1), model.blocks, (phi_t0, corner, None, phi_t1))),
            tol)
    return report


def thm45_condition_check(unitary, model: UpperTriangularModel,
                          mobius: MobiusMap, tol: float) -> ConditionReport:
    """Full block-unitary conditions for U T = phi(T) U.

    Three groups: (1) the corner intertwinings U10 T0 = phi(T1) U10 and
    T1 U01* = U01* phi(T0); (2) the block relations U00 = X U10 = U01 X* and
    -U11 = X* U01 = U10 X; (3) the Gram relations (1+XX*)^{-1} =
    (1+X*X)^{-1} = U10* U10 = U01* U01; plus the end-to-end residual
    ||U T - phi(T) U||.  Condition (1) is reported indeterminate when U10 is
    numerically singular (n kappa_1(U10) above U10_COND_CAP, see
    `guarded_inverse`).

    Everything is taken on N x N blocks: phi(T) by block back-substitution
    (`mobius_images` with the one map), U T - phi(T) U block by block by
    `intertwining_gaps`, whose (1,0) gap is the U10 corner condition and
    whose `gap_total` is the end-to-end residual.  Back-substitution solves
    the same system D phi(T) = e^{i phase} (a I - T) exactly, so the
    end-to-end residual still certifies U T = phi(T) U.  The resolvent
    guard is the N x N one of D0 = I - conj(a) T0 and D1 = I - conj(a) T1
    (see `mobius_images`).

    At X = I with U = (sqrt(2)/2) [[I, I], [I, -I]], the setting
    `scenarios._check_thm45` builds, every block of U, X and 1 + XX* is a
    real diagonal, so every product and inverse outside `mobius_images` is
    a scaling or 1 / d (`operators._times`, `operators._inverse`).  The
    dense work left is that of `mobius_images`: the two LU solves for
    phi(T0) and phi(T1) and the corner's batched products.  There six of
    the ten conditions hold by construction: the four block relations
    compare (sqrt(2)/2) I with I (sqrt(2)/2) I, `gram-left-right` subtracts
    two inverses of one matrix 2I, and `corner-intertwine-u10` is
    (sqrt(2)/2) (T0 - phi(T1)) with T0 built as phi(T1) by the same
    `apply_mobius`.  `corner-intertwine-u01`, `gram-u10`, `gram-u01` and
    `end-to-end` carry the check.
    """
    report = ConditionReport(name="thm45")
    x = model.x
    u00, u01, u10, u11 = unitary.blocks
    phi_t0s, corners, phi_t1s = mobius_images(
        (model.t0.matrix, model.coupling_block, model.t1.matrix), [mobius])
    phi_t0 = phi_t0s[0]
    gaps = intertwining_gaps(unitary.blocks, model.blocks,
                             (phi_t0, corners[0], None, phi_t1s[0]))
    del corners, phi_t1s  # not needed again
    eye = np.eye(model.size)

    # U10^{-1} is formed for its guard only: keep kappa_1 and the verdict
    u10_inv, kappa = guarded_inverse(u10, U10_COND_CAP)
    refused = u10_inv is None
    del u10_inv
    report.info["u10_condition_1norm"] = kappa
    if refused:
        report.add_indeterminate(
            "corner-intertwine-u10", tol,
            detail=f"U10 1-norm condition number {kappa:.3e}; "
                   f"n * kappa_1 above the cap {U10_COND_CAP:.1e}")
    else:
        report.add("corner-intertwine-u10", gaps[2], tol)
    report.add("corner-intertwine-u01",
               frobenius(model.t1.left(u01.conj().T)
                         - _times(u01.conj().T, phi_t0)),
               tol)

    report.add("block-u00-xu10", frobenius(u00 - _times(x, u10)), tol)
    report.add("block-u00-u01xstar",
               frobenius(u00 - _times(u01, x.conj().T)), tol)
    report.add("block-u11-xstaru01",
               frobenius(u11 + _times(x.conj().T, u01)), tol)
    report.add("block-u11-u10x", frobenius(u11 + _times(u10, x)), tol)

    inv_left = _inverse(eye + _times(x, x.conj().T))
    inv_right = _inverse(eye + _times(x.conj().T, x))
    report.add("gram-left-right", frobenius(inv_left - inv_right), tol)
    report.add("gram-u10", frobenius(inv_left - _times(u10.conj().T, u10)), tol)
    report.add("gram-u01", frobenius(inv_right - _times(u01.conj().T, u01)), tol)

    report.add("end-to-end", gap_total(gaps), tol)
    return report
