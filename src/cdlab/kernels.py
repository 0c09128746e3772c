"""Diagonal reproducing kernels on the unit disk.

A diagonal kernel is K(z, w) = sum_k a_k z^k conj(w)^k with a_k > 0, truncated
at order N.  In the orthonormal basis e_k(z) = sqrt(a_k) z^k the point
evaluation section is t(w) = (sqrt(a_k) w^k)_k, so ||t(w)||^2 = K(w, w); all
sections and their Taylor jets come from one routine, `section_jets`.

Besides plain evaluation this module provides the boundary diagnostics used
to decide when two kernels admit no nonzero intertwiner (the diagonal ratio
K0(r,r)/K1(r,r) as r -> 1) and the construction of a "separator" kernel whose
diagonal grows strictly slower than two given kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, InvalidArgumentError, PrecisionError

TAIL_EPS = 1e-12


@dataclass(frozen=True)
class DiagonalKernel:
    """Truncated diagonal kernel: coefficients (a_0, ..., a_{N-1}), all > 0."""

    coefficients: np.ndarray
    label: str = ""

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise InvalidArgumentError("kernel needs at least one coefficient")
        if not np.all(coeffs > 0.0):
            raise InvalidArgumentError("kernel coefficients must be strictly positive")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def truncation(self) -> int:
        return self.coefficients.size


def bergman_kernel(n: int, truncation: int) -> DiagonalKernel:
    """Weighted Bergman kernel (1 - z conj(w))^(-n) truncated at `truncation`.

    Coefficient a_k = binomial(n+k-1, k), built by the multiplicative
    recurrence a_{k+1} = a_k (n+k)/(k+1) to avoid factorial overflow.
    """
    if n < 1:
        raise InvalidArgumentError("bergman weight n must be >= 1")
    if truncation < 1:
        raise InvalidArgumentError("truncation must be >= 1")
    coeffs = np.fromiter(_bergman_recurrence(n, truncation), dtype=float,
                         count=truncation)
    return DiagonalKernel(coeffs, label=f"bergman({n})")


def _bergman_recurrence(n: int, count: int):
    """a_0, ..., a_{count-1} by a_{k+1} = a_k (n+k)/(k+1) on Python floats,
    which round each step as float64 does; yielded one at a time, so no
    list of float objects is ever held."""
    value = 1.0
    for k in range(count):
        yield value
        value = value * (n + k) / (k + 1)


def _check_disk(point: complex, name: str) -> complex:
    point = complex(point)
    if abs(point) >= 1.0:
        raise DomainError(f"{name}={point} is not strictly inside the unit disk")
    return point


def _power_table(x: np.ndarray, n: int) -> np.ndarray:
    """x.shape + (n,) powers x^k as one cumulative product of [1, x, x, ...]:
    rounding errors add up as in Horner's rule instead of compounding as
    they would through a rounded x^m or a rounded angle k arg(x)."""
    powers = np.repeat(x[..., None], n, axis=-1)
    powers[..., 0] = 1.0
    return np.cumprod(powers, axis=-1)


def evaluate_kernel(kernel: DiagonalKernel, z: complex, w: complex) -> complex:
    """Truncated series value sum_k a_k z^k conj(w)^k, |z| < 1 and |w| < 1."""
    z = _check_disk(z, "z")
    w = _check_disk(w, "w")
    powers = _power_table(np.asarray(z * np.conj(w)), kernel.truncation)
    # A pairwise sum rather than a BLAS dot: the same rounding at any BLAS
    # thread count, and no threaded-dot stalls at this length.
    return complex(np.sum(kernel.coefficients * powers))


def disk_points(points: np.ndarray | complex) -> np.ndarray:
    """`points` as a complex array; the first one with |w| >= 1 raises a
    DomainError that names it."""
    points = np.asarray(points, dtype=complex)
    outside = points[np.abs(points) >= 1.0]
    if outside.size:
        _check_disk(outside[0], "w")
    return points


@cache
def _binomial_weights(n: int, i: int) -> np.ndarray:
    """The weights C(k, i), k = i..n-1, as one read-only array per (n, i)."""
    weights = np.array([math.comb(k, i) for k in range(i, n)], dtype=float)
    weights.flags.writeable = False
    return weights


def section_jets(kernels: tuple[DiagonalKernel, ...],
                 points: np.ndarray | complex, order: int) -> list[np.ndarray]:
    """Taylor jets (1/i!) d^i t/dw^i, i = 0..order, of the sections t(w) of
    several kernels of one truncation at points of any shape (0-d included),
    each a points.shape + (order + 1, N) array; a point with |w| >= 1 raises
    a DomainError that names it.

    The powers w^k are one `_power_table`, the rule of `evaluate_kernel`,
    taken once and scaled by each kernel's sqrt(a_k) into its sections t, so
    a kernel's jets do not depend on which other kernels share the call.
    Coordinate k of jet i is C(k, i) sqrt(a_k / a_{k-i}) t_{k-i}(w); the
    weight of jet 0 is exactly 1, so jet 0 is t bit for bit.
    """
    sizes = {kernel.truncation for kernel in kernels}
    if len(sizes) != 1:
        raise InvalidArgumentError(f"kernels need one truncation, got {sorted(sizes)}")
    n = sizes.pop()
    powers = _power_table(disk_points(points), n)
    out = []
    for kernel in kernels:
        a = kernel.coefficients
        table = np.sqrt(a) * powers
        jets = np.zeros(table.shape[:-1] + (order + 1, n), dtype=complex)
        for i in range(min(order, n - 1) + 1):
            jets[..., i, i:] = (_binomial_weights(n, i) * np.sqrt(a[i:] / a[:n - i])
                                * table[..., :n - i])
        out.append(jets)
    return out


def section_vector(kernel: DiagonalKernel, points: np.ndarray | complex) -> np.ndarray:
    """Sections t(w) of one kernel at points of any shape, a points.shape +
    (N,) array with ||t(w)||^2 = K(w, w): the order-0 row of `section_jets`."""
    return section_jets((kernel,), points, 0)[0][..., 0, :]


def required_truncation(radius: float) -> int:
    """Smallest N with radius^(2N) < TAIL_EPS, a geometric rule that ignores
    coefficient growth: at that N the relative tail of bergman(2)'s K(r, r)
    is 7.1e-12 at r = 0.6 and 2.9e-11 at r = 0.999 (N = 13,809)."""
    if not 0.0 <= radius < 1.0:
        raise InvalidArgumentError("radius must lie in [0, 1)")
    if radius == 0.0:
        return 1
    return max(1, math.ceil(math.log(TAIL_EPS) / (2.0 * math.log(radius))))


def diagonal_ratio(k0: DiagonalKernel, k1: DiagonalKernel,
                   radii: list[float]) -> list[float]:
    """Boundary diagnostic: the ratios K0(r,r)/K1(r,r) along strictly
    increasing radii, one per radius.

    Truncation sufficiency is checked against the largest radius: the tail
    criterion r^(2N) < 1e-12 must hold for both kernels, otherwise a
    PrecisionError names the truncation that would suffice.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise InvalidArgumentError("radii must be nonempty")
    if any(r < 0.0 or r >= 1.0 for r in radii):
        raise InvalidArgumentError("radii must lie in [0, 1)")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise InvalidArgumentError("radii must be strictly increasing")
    r_max = radii[-1]
    needed = required_truncation(r_max)
    short = min(k0.truncation, k1.truncation)
    if short < needed:
        raise PrecisionError(
            f"truncation {short} insufficient for radius {r_max}; need N >= {needed}",
            required_truncation=needed,
        )
    return [evaluate_kernel(k0, r, r).real / evaluate_kernel(k1, r, r).real
            for r in radii]


def separator_kernel(k0: DiagonalKernel, k1: DiagonalKernel) -> DiagonalKernel:
    """Kernel with s_n = min(a_n, b_n)/(n+1), so s_n/a_n -> 0 and s_n/b_n -> 0.

    Both inputs must share one truncation; the harmonic damping keeps the
    coefficients positive while forcing the boundary ratios to vanish.
    """
    if k0.truncation != k1.truncation:
        raise InvalidArgumentError(
            f"mismatched truncations {k0.truncation} != {k1.truncation}")
    n = np.arange(k0.truncation)
    coeffs = np.minimum(k0.coefficients, k1.coefficients) / (n + 1)
    return DiagonalKernel(coeffs, label=f"separator[{k0.label},{k1.label}]")

