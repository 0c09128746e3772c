"""Dense complex matrix models: shifts, block assembly, intertwiners, Mobius maps.

All operators live on a truncated space C^N.  The adjoint multiplication
operator of a diagonal kernel is the weighted backward shift with
superdiagonal sqrt(a_k/a_{k+1}); two of those plus a coupling X assemble into
the 2N x 2N upper-triangular block matrix

    T = [[T0, X T1 - T0 X], [0, T1]].

Intertwiner spaces {X : A X = X B} come from the vec operator
I (x) A - B^T (x) I without forming it, by one of two routes.  When A and B
are both finite weighted shifts (nonzero entries only on the first
superdiagonal, and filling it), every unknown diagonal of X is a chain of
equations and unknowns with at most two entries per row and column, so
sigma_max of the vec operator lies in [mu, 2 mu], mu the largest weight
magnitude.  The chain route counts each chain's singular values by Sturm
sequences, vectorised over all chains, and takes each null vector from a
two-term recurrence: no SVD.  Every other input, and any shift pair with a
chain singular value within a factor 10 of the cutoff or below it, takes
the block-SVD route: equations and unknowns split into independent blocks,
each block takes one small SVD, and singular values at most SYLVESTER_TOL
times the largest over all blocks count as zero.  A block whose dense form would exceed
SYLVESTER_MAX_BLOCK_BYTES is refused before any SVD.

Inverses that must be trusted are guarded by the 1-norm condition number
kappa_1 = ||M||_1 ||M^{-1}||_1: M is refused when n kappa_1 exceeds the cap.
Since kappa_2 <= n kappa_1, every matrix whose 2-norm condition number
exceeds the cap is refused, without an SVD.  The corner block U10 goes
through `guarded_inverse`, one LU that gives M^{-1} and kappa_1.  The Mobius
resolvent D = I - conj(a) A is never inverted: phi(A) = D^{-1} (a I - A) is
one LU solve, and kappa_1(D) is read off (1 - |a|^2) D^{-1} = I - conj(a)
phi(A) (see `apply_mobius`).

Two structures are used instead of dense 2N x 2N products where no
assembled matrix is needed.  A shift from `shift_from_kernel` carries its
superdiagonal weights, and `ModelOperator.left` / `right` multiply it as one
scaled slice, which equals the dense product exactly (the dense sums only
add exact zeros).  A 2 x 2 block product (`block_product`) skips its zero
blocks, so a coupled model T is multiplied through T0, X T1 - T0 X and T1;
`UpperTriangularModel.t` is assembled only when read.

Residuals are Frobenius norms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError, NumericError, SingularResolventError
from .kernels import DiagonalKernel

SYLVESTER_TOL = 1e-10
# Cap on the dense bytes (16 rows cols) of the largest independent Sylvester
# block of the block-SVD route, checked before any block is built: about one
# dense 63 x 63 pair.  The chain route of two weighted shifts builds no block.
SYLVESTER_MAX_BLOCK_BYTES = 256 * 10**6
# The normal range of float64, which the chain route's pivots and null
# vectors must stay inside.
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max
RESOLVENT_COND_CAP = 1e12
UNITARITY_TOL = 1e-10
# Block-unitary checks skip conditions that need U10^{-1} when n kappa_1(U10)
# exceeds this cap (see guarded_inverse).
U10_COND_CAP = 1e12


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _powers_235(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m^2, m^3, m^5) in four products, each equal to np.linalg.matrix_power's
    binary-decomposition product; `m` may be a stack."""
    m2 = m @ m
    return m2, m2 @ m, m @ (m2 @ m2)


def unitarity_residual(u: np.ndarray) -> float:
    """||U* U - I|| (Frobenius) of a square U.

    One product suffices: U* U - I = V (S^2 - I) V* and U U* - I =
    W (S^2 - I) W* for the SVD U = W S V*, so both residuals equal
    sqrt(sum_i (s_i^2 - 1)^2) over the singular values s_i of U.
    """
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(u: np.ndarray, what: str):
    """Raise a NumericError naming `what` when its `unitarity_residual`
    exceeds UNITARITY_TOL."""
    err = unitarity_residual(u)
    if err > UNITARITY_TOL:
        raise NumericError(f"{what} is not unitary: residual {err:.3e}")


def ensure_finite(a: np.ndarray, context: str = "matrix") -> np.ndarray:
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise NumericError(f"{context} contains NaN or Inf entries")
    return a


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _one_norms(mat: np.ndarray) -> np.ndarray:
    """Matrix 1-norms (largest column sum) over the last two axes, the same
    reduction np.linalg.norm(m, 1) makes for one matrix."""
    return np.add.reduce(np.abs(mat), axis=-2).max(axis=-1)


def guarded_inverse(mat: np.ndarray, cap: float
                    ) -> tuple[np.ndarray | None, float | np.ndarray]:
    """(M^{-1}, kappa_1) from one LU, with kappa_1 = ||M||_1 ||M^{-1}||_1.

    For one matrix the inverse is None when M is singular (LinAlgError or a
    non-finite value; kappa_1 is then inf) or when n kappa_1 > cap.  As
    kappa_2 <= n kappa_1, no M with kappa_2 > cap gets through.

    An (m, n, n) stack is inverted by one batched call and gets an (m,)
    array of kappa_1; its inverse is None when any matrix is refused, and
    the refused ones are those with n kappa_1 > cap or kappa_1 = inf.
    """
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        if mat.ndim == 2:
            return None, math.inf
        # the batched call does not say which matrix is singular
        return None, np.array([guarded_inverse(m, math.inf)[1] for m in mat])
    kappa = _one_norms(mat) * _one_norms(inv)
    kappa = np.where(np.isfinite(kappa), kappa, math.inf)
    refused = mat.shape[-1] * kappa > cap
    if mat.ndim == 2:
        return (None if refused else inv), float(kappa)
    return (None if refused.any() else inv), kappa


@dataclass(frozen=True)
class ModelOperator:
    """N x N matrix model of a rank-one-kernel operator.

    `kernel` is set when the operator was built from a diagonal kernel, which
    is what makes eigenframes and series metrics available downstream.
    `weights` is the superdiagonal of a weighted backward shift (entry
    (k, k+1) of `matrix`) and None for any other operator; `left` and
    `right` use it.
    """

    matrix: np.ndarray = field(repr=False)
    kernel: DiagonalKernel | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_square(self.matrix, "model operator"))
        if self.weights is not None and np.shape(self.weights) != (self.size - 1,):
            raise InvalidArgumentError(
                f"shift weights need shape ({self.size - 1},), "
                f"got {np.shape(self.weights)}")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def left(self, x: np.ndarray) -> np.ndarray:
        """T x for a matrix or an (m, N, k) stack x.

        A shift takes one scaled slice, (T x)[k] = w_k x[k + 1], equal to
        the dense product because the dense sums only add exact zeros; any
        other operator takes `matrix @ x`.
        """
        if self.weights is None:
            return self.matrix @ x
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=np.result_type(self.matrix, x))
        out[..., :-1, :] = self.weights[:, None] * x[..., 1:, :]
        return out

    def right(self, x: np.ndarray) -> np.ndarray:
        """x T for a matrix or an (m, k, N) stack x; see `left`."""
        if self.weights is None:
            return x @ self.matrix
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=np.result_type(self.matrix, x))
        out[..., 1:] = x[..., :-1] * self.weights
        return out


@dataclass(frozen=True)
class UpperTriangularModel:
    """Blocks T0, T1, X and the coupling block X T1 - T0 X of
    T = [[T0, X T1 - T0 X], [0, T1]].

    The 2N x 2N matrix `t` and the `power_residuals` are computed on first
    access and kept, so the blocks must not be mutated after assembly.
    """

    t0: ModelOperator
    t1: ModelOperator
    x: np.ndarray = field(repr=False)
    coupling_block: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.t0.size

    @property
    def blocks(self) -> tuple:
        """(T0, X T1 - T0 X, None, T1) row-major, for `block_product`."""
        return self.t0, self.coupling_block, None, self.t1

    @cached_property
    def t(self) -> np.ndarray:
        return block_matrix(self.t0.matrix, self.coupling_block, None,
                            self.t1.matrix)

    @cached_property
    def power_residuals(self) -> dict:
        """{n: ||T^n - [[T0^n, X T1^n - T0^n X], [0, T1^n]]||} for n = 2, 3, 5.

        The block identity of phi(T) spot-checked for plain powers; T^n is
        taken on the assembled `t`, the block powers on the stacked (T0, T1).
        """
        # powers[k, i] is the k-th power of block i
        powers = np.stack(_powers_235(np.stack([self.t0.matrix, self.t1.matrix])))
        return {n: frobenius(d - a) for n, d, a in zip(
            (2, 3, 5), _powers_235(self.t),
            triangular_matrix(powers[:, 0], powers[:, 1], self.x))}


def _scatter(shape: tuple[int, int], dimension: int, vectors: np.ndarray,
             entries: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """`dimension` matrices of `shape`; matrix vectors[i] holds values[i] at
    the row-major flat position entries[i], and zeros elsewhere."""
    mats = np.zeros((dimension, shape[0] * shape[1]), dtype=complex)
    mats[vectors, entries] = values
    return list(mats.reshape(dimension, *shape))


@dataclass(frozen=True)
class IntertwinerSpace:
    """Orthonormal (Frobenius) basis of {X : A X = X B} and its worst residual.

    The null vectors are kept compact: vector vectors[i] has values[i] at
    the row-major flat position entries[i] of an m x n matrix.  `basis`, the
    list of dense matrices, is built on first read and kept, as for two
    weighted shifts of size N it takes N^3 entries against N (N + 1) / 2.
    """

    shape: tuple[int, int]
    dimension: int
    vectors: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    residual: float

    @cached_property
    def basis(self) -> list[np.ndarray]:
        return _scatter(self.shape, self.dimension, self.vectors, self.entries,
                        self.values)


def shift_from_kernel(kernel: DiagonalKernel) -> ModelOperator:
    """Weighted backward shift: entry (k, k+1) = sqrt(a_k / a_{k+1})."""
    n = kernel.truncation
    if n < 2:
        raise InvalidArgumentError("shift needs truncation >= 2")
    a = kernel.coefficients
    weights = np.sqrt(a[:-1] / a[1:])
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n - 1), np.arange(1, n)] = weights
    return ModelOperator(mat, kernel=kernel, weights=weights)


def block_matrix(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """[[A, B], [C, D]] from equal-size square blocks, or stacks of them.

    None stands for a zero block.  Leading (stack) axes broadcast, and the
    result has the common dtype of the given blocks.
    """
    blocks = [np.asarray(b) if b is not None else None
              for b in (top_left, top_right, bottom_left, bottom_right)]
    given = [b for b in blocks if b is not None]
    n = given[0].shape[-1]
    if any(b.ndim < 2 or b.shape[-2:] != (n, n) for b in given):
        raise InvalidArgumentError(
            f"blocks must be square and of one size, got shapes "
            f"{[b.shape for b in given]}")
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in given))
    out = np.zeros(lead + (2 * n, 2 * n), dtype=np.result_type(*given))
    for k, b in enumerate(blocks):
        if b is not None:
            row, col = divmod(k, 2)
            out[..., row * n:(row + 1) * n, col * n:(col + 1) * n] = b
    return out


def _block_times(p, q):
    """One block product p q; a ModelOperator factor goes through `left` or
    `right`, and None (a zero block) gives None."""
    if p is None or q is None:
        return None
    if isinstance(p, ModelOperator):
        return p.left(q.matrix if isinstance(q, ModelOperator) else q)
    if isinstance(q, ModelOperator):
        return q.right(p)
    return p @ q


def block_product(lhs, rhs) -> list:
    """Blocks of [[A, B], [C, D]] [[E, F], [G, H]] from the row-major block
    sequences (A, B, C, D) and (E, F, G, H).

    A block is an array, a ModelOperator (a shift is multiplied as a slice)
    or None for zero.  Products with a zero factor are skipped, and a result
    block with no product left is None.
    """
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
    """||L - R|| for block sequences L and R as `block_product` returns them.

    The difference is written block by block into one 2N x 2N array (zero
    where both blocks are None), so its norm is reduced the way the norm of
    a dense difference is.
    """
    given = [b for b in (*lhs, *rhs) if b is not None]
    n = given[0].shape[-1]
    out = np.zeros((2 * n, 2 * n), dtype=np.result_type(*given))
    for k, (b, c) in enumerate(zip(lhs, rhs)):
        row, col = divmod(k, 2)
        block = out[row * n:(row + 1) * n, col * n:(col + 1) * n]
        if b is not None:
            block[...] = b
        if c is not None:
            block -= c
    return frobenius(out)


def block_norm(blocks) -> float:
    """Frobenius norm of a 2 x 2 block matrix from its row-major blocks (as
    `block_product` takes them), sqrt of the sum of the squared block norms."""
    return math.hypot(*(frobenius(b.matrix if isinstance(b, ModelOperator) else b)
                        for b in blocks if b is not None))


def triangular_matrix(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T = [[A, X B - A X], [0, B]], for matrices or stacks of them."""
    return block_matrix(a, x @ b - a @ x, None, b)


def assemble_model(t0: ModelOperator | np.ndarray, t1: ModelOperator | np.ndarray,
                   x: np.ndarray) -> UpperTriangularModel:
    """Assemble T = [[T0, X T1 - T0 X], [0, T1]] from equal-size square blocks."""
    if not isinstance(t0, ModelOperator):
        t0 = ModelOperator(t0)
    if not isinstance(t1, ModelOperator):
        t1 = ModelOperator(t1)
    x = _as_square(x, "X")
    if not (t0.size == t1.size == x.shape[0]):
        raise InvalidArgumentError(
            f"block sizes differ: {t0.size}, {t1.size}, {x.shape[0]}")
    return UpperTriangularModel(t0=t0, t1=t1, x=x,
                                coupling_block=t1.right(x) - t0.left(x))


def fb2_membership(t0: ModelOperator, t1: ModelOperator, x: np.ndarray,
                   tol: float) -> tuple[bool, float]:
    """Decide whether X T1^2 - 2 T0 X T1 + T0^2 X vanishes, scale-invariantly.

    Returns (verdict, residual).  The verdict compares the raw residual against
    tol * (1 + ||X|| ||T1||^2 + ||T0||^2 ||X||) so rescaling the triple does not
    flip it.
    """
    if tol <= 0:
        raise InvalidArgumentError("tol must be positive")
    a, b = t0.matrix, t1.matrix
    expr = (t1.right(t1.right(x)) - 2.0 * t1.right(t0.left(x))
            + t0.left(a) @ x)
    residual = frobenius(expr)
    scale = 1.0 + frobenius(x) * frobenius(b) ** 2 + frobenius(a) ** 2 * frobenius(x)
    return residual <= tol * scale, residual


def _components(heads: np.ndarray, tails: np.ndarray, size: int) -> np.ndarray:
    """Smallest node index in the connected component of each of `size` nodes.

    Min-label hooking plus pointer jumping over the edge list (heads, tails):
    each round hooks every root that an edge joins to a smaller root, then
    jumps pointers until every node points at a root again.
    """
    label = np.arange(size)
    while heads.size:
        lo = np.minimum(label[heads], label[tails])
        hi = np.maximum(label[heads], label[tails])
        live = lo != hi
        heads, tails, lo, hi = heads[live], tails[live], lo[live], hi[live]
        np.minimum.at(label, hi, lo)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def _block_positions(label: np.ndarray, count: np.ndarray):
    """Group nodes by label, ascending within a group.

    Returns (order, start, pos): `order` lists the nodes group by group,
    group L starts at order[start[L]], and node v sits at position pos[v]
    of its group.
    """
    order = np.argsort(label, kind="stable")
    start = np.cumsum(count) - count
    pos = np.empty(label.size, dtype=np.intp)
    pos[order] = np.arange(label.size) - start[label[order]]
    return order, start, pos


def sylvester_kernel(a: np.ndarray, b: np.ndarray) -> IntertwinerSpace:
    """Numerical null space of X -> A X - X B: singular values of the vec
    operator at most SYLVESTER_TOL * sigma_max count as zero.

    In column-major vec form the map is I (x) A - B^T (x) I, but that
    Kronecker matrix is never formed.  Equation (i, j) reads
    sum_k A[i,k] X[k,j] - sum_l X[i,l] B[l,j], so it touches unknown (k, j)
    where A[i,k] != 0 and unknown (i, l) where B[l,j] != 0.  Non-finite
    entries raise NumericError naming A or B.

    Chain route.  When A and B are both finite weighted shifts of size >= 2
    (see `_shift_weights`), equation (i, j) touches only X[i+1, j] and
    X[i, j-1], so each of the m + n - 1 unknown diagonals of X is a path of
    equations and unknowns, and every row and column of the vec operator
    holds at most two entries.  So sigma_max lies in [mu, 2 mu], mu the
    largest weight magnitude, and the cutoff in [tol mu, 2 tol mu].  One
    Sturm sweep over all chains (`_chain_singular_counts`) counts each
    chain's singular values above tol mu / 10 and above 20 tol mu.  When
    both counts leave every chain its structural nullity (1 when both ends
    of the chain are unknowns, else 0), no chain singular value lies in the
    band [cutoff / 10, 10 cutoff] or below it, so no rank decision is
    close.  Each null vector then follows from the two-term recurrence
    x_{k+1} = x_k beta_{k+d} / alpha_k, and the residual from the chain
    entries.  No SVD is taken.

    Block-SVD route, for every other input, and for shift pairs whose counts
    differ or whose recurrence leaves the normal float range.  The connected
    components of the equation/unknown graph are independent blocks: dense
    inputs form one block.  The blocks are taken through SVDs stacked by
    shape, and sigma_max is the largest singular value over all blocks.  A
    block with more unknowns than equations contributes its extra right
    singular vectors, and one with no equations its unit vector.  A block
    whose dense form would exceed SYLVESTER_MAX_BLOCK_BYTES raises
    InvalidArgumentError before any block is built.

    The returned basis is orthonormal in the Frobenius inner product; an
    empty basis means the only intertwiner is zero.
    """
    a = ensure_finite(_as_square(a, "A"), "Sylvester operand A")
    b = ensure_finite(_as_square(b, "B"), "Sylvester operand B")
    alpha, beta = _shift_weights(a), _shift_weights(b)
    if alpha is not None and beta is not None:
        space = _chain_kernel(alpha, beta)
        if space is not None:
            return space
    return _block_kernel(a, b)


def _shift_weights(mat: np.ndarray) -> np.ndarray | None:
    """Superdiagonal of a finite weighted shift, a matrix of size >= 2 whose
    nonzero entries lie only on the first superdiagonal and fill it; None
    for any other matrix."""
    weights = np.diagonal(mat, 1)
    if weights.size and np.all(weights) and np.count_nonzero(mat) == weights.size:
        return weights
    return None


def _chain_singular_counts(alpha: np.ndarray, beta: np.ndarray,
                           shifts: np.ndarray) -> np.ndarray:
    """Number of singular values above each shift, (shifts.size, m + n - 1),
    of the chain of every unknown diagonal d = 1 - m ... n - 1 (row
    d + m - 1) for weighted shifts with superdiagonal magnitudes alpha (m - 1)
    and beta (n - 1).

    Along diagonal d, unknown X[k, k + d] is node 2k and equation
    (k, k + d + 1) node 2k + 1.  In node order, the Golub-Kahan tridiagonal
    [[0, C], [C^H, 0]] of the chain matrix C has a zero diagonal, and its
    off-diagonals are the entry magnitudes |beta_{k+d}| (nodes 2k, 2k + 1)
    and |alpha_k| (nodes 2k + 1, 2k + 2); nodes off the chain get zero edges,
    which add eigenvalues 0 only.  Its eigenvalues are +-sigma_i and zeros,
    so the negative pivots of T + s I, one sweep vectorised over all chains
    and shifts, count the sigma_i > s.  A pivot of magnitude under the
    smallest normal number is replaced by minus that number, as LAPACK's
    bisection does, so no division overflows.
    """
    m, n = alpha.size + 1, beta.size + 1
    # edges[p, d + m - 1] joins nodes p and p + 1 of chain d
    index = np.arange(m)[:, None] + np.arange(1 - m, n)  # k + d
    edges = np.zeros((2 * m - 1, m + n - 1))
    edges[::2] = np.where((index >= 0) & (index <= n - 2),
                          beta[np.clip(index, 0, n - 2)], 0.0)
    edges[1::2] = np.where((index[:-1] >= -1) & (index[:-1] <= n - 2),
                           alpha[:, None], 0.0)
    shifts = shifts[:, None]
    pivot = np.repeat(shifts, m + n - 1, axis=1)
    above = np.zeros(pivot.shape, dtype=np.intp)
    for squares in edges ** 2:
        pivot = shifts - squares / pivot
        pivot[np.abs(pivot) < _TINY] = -_TINY
        above += pivot < 0
    return above


def _chain_kernel(alpha: np.ndarray, beta: np.ndarray) -> IntertwinerSpace | None:
    """Chain route of `sylvester_kernel` for weighted shifts with
    superdiagonals alpha and beta, or None when the block-SVD route must
    decide."""
    m, n = alpha.size + 1, beta.size + 1
    mu = max(np.abs(alpha).max(), np.abs(beta).max())
    diagonals = np.arange(1 - m, n)
    unknowns = np.minimum(m - 1, n - 1 - diagonals) - np.maximum(0, -diagonals) + 1
    # both ends of chain d are unknowns exactly for d >= max(0, n - m)
    first = max(0, n - m)
    structural = (diagonals >= first).astype(np.intp)
    counts = _chain_singular_counts(np.abs(alpha) / mu, np.abs(beta) / mu,
                                    SYLVESTER_TOL * np.array([0.1, 20.0]))
    if not np.all(counts == unknowns - structural):
        return None

    # row r is chain d = first + r: unknowns X[k, k + d] for k <= n - 1 - d,
    # joined by equation k to unknown k + 1 for k < n - 1 - d
    size = min(m, n)
    diag = np.arange(first, n)[:, None]
    live = np.arange(size) <= n - 1 - diag
    beta_k = np.where(live[:, 1:],
                      beta[np.minimum(np.arange(size - 1) + diag, n - 2)], 0.0)
    alpha_k = alpha[:size - 1]
    vec = np.zeros(live.shape, dtype=complex)
    vec[:, 0] = 1.0
    with np.errstate(all="ignore"):
        vec[:, 1:] = np.cumprod(beta_k / alpha_k, axis=1)
        norm = np.linalg.norm(vec, axis=1)
        magnitude = np.abs(vec[live])
    if not (np.all((magnitude >= _TINY) & (magnitude <= _HUGE))
            and np.all(norm <= _HUGE)):
        return None
    vec /= norm[:, None]
    residual = np.linalg.norm(alpha_k * vec[:, 1:] - vec[:, :-1] * beta_k, axis=1).max()
    rows, cols = np.nonzero(live)
    return IntertwinerSpace(shape=(m, n), dimension=size, vectors=rows,
                            entries=cols * (n + 1) + diag[rows, 0],
                            values=vec[live], residual=float(residual))


def _block_kernel(a: np.ndarray, b: np.ndarray) -> IntertwinerSpace:
    """Block-SVD route of `sylvester_kernel`, for any finite square A, B."""
    m, n = a.shape[0], b.shape[0]
    size = m * n
    # Row i + m j of the vec operator is equation (i, j); column k + m l is
    # unknown X[k, l], stored as graph node size + k + m l.
    ai, ak = np.nonzero(a)
    bl, bj = np.nonzero(b)
    col_shift = m * np.arange(n)
    row_index = np.arange(m)[:, None]
    a_eq, a_unk = (ai[:, None] + col_shift).ravel(), (ak[:, None] + col_shift).ravel()
    b_eq, b_unk = (row_index + m * bj).ravel(), (row_index + m * bl).ravel()
    label = _components(np.concatenate([a_eq, b_eq]),
                        size + np.concatenate([a_unk, b_unk]), 2 * size)
    eq_label, unk_label = label[:size], label[size:]
    n_eq = np.bincount(eq_label, minlength=2 * size)
    n_unk = np.bincount(unk_label, minlength=2 * size)

    # Blocks holding unknowns, sorted by shape so equal shapes stack.
    blocks = np.flatnonzero(n_unk)
    blocks = blocks[np.lexsort((n_unk[blocks], n_eq[blocks]))]
    rows, cols = n_eq[blocks], n_unk[blocks]
    cells = rows * cols
    if cells.size and 16 * cells.max() > SYLVESTER_MAX_BLOCK_BYTES:
        worst = int(np.argmax(cells))
        raise InvalidArgumentError(
            f"Sylvester block of {rows[worst]} x {cols[worst]} needs "
            f"{16 * cells[worst] / 1e6:.0f} MB dense, above the "
            f"{SYLVESTER_MAX_BLOCK_BYTES / 1e6:.0f} MB cap of the block-SVD "
            f"route (only two weighted shifts take the chain route)")

    _, _, eq_pos = _block_positions(eq_label, n_eq)
    unk_order, unk_start, unk_pos = _block_positions(unk_label, n_unk)
    slot = np.empty(2 * size, dtype=np.intp)
    slot[blocks] = np.arange(blocks.size)
    offset = np.cumsum(cells) - cells

    def cell(eq, unk):
        s = slot[eq_label[eq]]
        return offset[s] + eq_pos[eq] * cols[s] + unk_pos[unk]

    # Entries as the Kronecker form has them: A[i,k], then minus B[l,j].
    buf = np.zeros(int(cells.sum()), dtype=complex)
    buf[cell(a_eq, a_unk)] = np.repeat(a[ai, ak], n)
    buf[cell(b_eq, b_unk)] -= np.tile(b[bl, bj], m)

    groups = []
    starts = np.flatnonzero((np.diff(rows, prepend=-1) != 0)
                            | (np.diff(cols, prepend=-1) != 0))
    for lo, hi in zip(starts, np.r_[starts[1:], blocks.size]):
        r, c = rows[lo], cols[lo]
        stack = buf[offset[lo]:offset[lo] + (hi - lo) * r * c].reshape(hi - lo, r, c)
        _, svals, vh = np.linalg.svd(stack)
        unk = unk_order[unk_start[blocks[lo:hi], None] + np.arange(c)]
        # Unknown k + m l is entry k n + l of a row-major (m, n) matrix.
        groups.append((svals, vh, (unk % m) * n + unk // m))
    cutoff = SYLVESTER_TOL * max((svals.max(initial=0.0) for svals, _, _ in groups),
                                 default=0.0)

    dimension = 0
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, complex))]
    for svals, vh, entries in groups:
        null = np.ones(vh.shape[:2], dtype=bool)
        null[:, :svals.shape[1]] = svals <= cutoff
        which, row = np.nonzero(null)
        # Rows of vh are conjugated right singular vectors; undo the conjugation.
        parts.append((np.repeat(dimension + np.arange(which.size), entries.shape[1]),
                      entries[which].ravel(), vh[which, row].conj().ravel()))
        dimension += which.size
    vectors, entries, values = (np.concatenate(p) for p in zip(*parts))
    basis = _scatter((m, n), dimension, vectors, entries, values)
    residual = max((frobenius(a @ mat - mat @ b) for mat in basis), default=0.0)
    return IntertwinerSpace(shape=(m, n), dimension=dimension, vectors=vectors,
                            entries=entries, values=values, residual=residual)


@dataclass(frozen=True)
class SimilaritySplit:
    """W T = (T0 (+) T1) W with the unipotent W = [[I, -X], [0, I]]; the
    2N x 2N matrices are built from the model when read."""

    model: UpperTriangularModel = field(repr=False)
    residual: float = 0.0

    @property
    def w(self) -> np.ndarray:
        eye = np.eye(self.model.size, dtype=complex)
        return block_matrix(eye, -self.model.x, None, eye)

    @property
    def diagonal(self) -> np.ndarray:
        return block_matrix(self.model.t0.matrix, None, None,
                            self.model.t1.matrix)


def similarity_split(model: UpperTriangularModel) -> SimilaritySplit:
    """Split T off its coupling: W T W^{-1} = T0 (+) T1, algebraically exact.

    W T - (T0 (+) T1) W has one nonzero block, C - X T1 + T0 X with C the
    coupling block, so the residual takes two N x N products.
    """
    t0, t1, x = model.t0, model.t1, model.x
    corner = model.coupling_block - t1.right(x) + t0.left(x)
    residual = frobenius(block_matrix(None, corner, None, None))
    return SimilaritySplit(model=model, residual=residual)


def _add_to_diagonal(mat: np.ndarray, value) -> np.ndarray:
    """mat + value I in place, for a matrix or a stack; `value` is a scalar
    or has one entry per matrix of the stack.  No identity is formed."""
    diagonal = np.einsum("...ii->...i", mat)
    diagonal += np.asarray(value)[..., None]
    return mat


def apply_mobius(a_mat: np.ndarray, a, phase=0.0) -> np.ndarray:
    """Disk automorphism in functional-calculus form:

        phi(A) = e^{i phase} D^{-1} (a I - A),   D = I - conj(a) A,   |a| < 1.

    `a_mat` is one matrix or an (m, n, n) stack, and `a` and `phase` are
    scalars or (m,) arrays; they broadcast, so one matrix under m maps, or
    m matrices under one map each, go through one batched call.  Each image
    equals the one a single call makes.

    D and N = a I - A commute, so phi(A) = e^{i phase} X with X = D^{-1} N
    = N D^{-1}, one LU solve of D X = N; D^{-1} is never formed.  The 1-norm
    condition number kappa_1 = ||D||_1 ||D^{-1}||_1 needs no second
    factorisation: (1 - |a|^2) D^{-1} = I - conj(a) X, and forming the
    right side costs kappa_1 a relative error of about
    eps ||N||_1 / (1 - |a|^2).  When the solve finds a D singular,
    `guarded_inverse` tells which map it is.  Fails loudly with a
    SingularResolventError, naming the first refused map's index and
    carrying n kappa_1 (inf when D is singular) as its condition estimate,
    when n kappa_1 exceeds RESOLVENT_COND_CAP instead of returning an
    untrustworthy matrix.  Because kappa_2 <= n kappa_1, every resolvent
    with a 2-norm condition number above the cap is refused.
    """
    a_mat = np.asarray(a_mat, dtype=complex)
    a = np.asarray(a, dtype=complex)
    phase = np.asarray(phase, dtype=float)
    if a_mat.ndim not in (2, 3) or a_mat.shape[-1] != a_mat.shape[-2]:
        raise InvalidArgumentError(
            f"A must be a square matrix or a stack of them, got shape {a_mat.shape}")
    if a.ndim > 1 or phase.ndim > 1:
        raise InvalidArgumentError("mobius a and phase must be scalars or 1-d arrays")
    try:
        lead = np.broadcast_shapes(a_mat.shape[:-2], a.shape, phase.shape)
    except ValueError:
        raise InvalidArgumentError(
            f"{a_mat.shape[:-2]} matrices, {a.shape} parameters and "
            f"{phase.shape} phases do not broadcast") from None
    if not np.all(np.abs(a) < 1.0):  # NaN too
        raise InvalidArgumentError("mobius parameter must satisfy |a| < 1")
    n = a_mat.shape[-1]
    minus_conj_a = -np.conj(a)[..., None, None]
    # D and N are scaled and then shifted on the diagonal in place, so no
    # identity is formed; both take the broadcast shape lead + (n, n)
    denom = _add_to_diagonal(minus_conj_a * a_mat, 1.0)
    numer = _add_to_diagonal(
        np.negative(a_mat, out=np.empty(denom.shape, dtype=complex)), a)
    denom_norm = _one_norms(denom)
    try:
        image = np.linalg.solve(denom, numer)
    except np.linalg.LinAlgError:
        # the batched solve does not say which resolvent is singular
        kappa = np.asarray(guarded_inverse(denom, math.inf)[1])
    else:
        del denom, numer
        scaled_inverse = _add_to_diagonal(image * minus_conj_a, 1.0)
        kappa = (denom_norm * _one_norms(scaled_inverse)
                 / (1.0 - np.abs(a) ** 2))
        kappa = np.where(np.isfinite(kappa), kappa, math.inf)
    refused = n * kappa > RESOLVENT_COND_CAP
    if refused.any():
        # kappa has the stack's shape `lead`; name the first refused map
        index = int(np.argmax(refused))
        kappa = float(kappa.flat[index])
        value = complex(np.broadcast_to(a, lead).flat[index])
        which = f" of map {index}" if lead else ""
        raise SingularResolventError(
            f"resolvent I - conj(a) A{which} (a = {value:.6g}) has 1-norm "
            f"condition number {kappa:.3e}; n * kappa_1 = {n * kappa:.3e} "
            f"exceeds the cap {RESOLVENT_COND_CAP:.1e}",
            condition_estimate=n * kappa)
    image *= np.exp(1j * phase)[..., None, None]
    return ensure_finite(image, "mobius image")


def random_operator(size: int, seed: int, norm: float = 0.5,
                    kind: str = "dense") -> np.ndarray:
    """Seeded random matrix scaled to a prescribed operator (2-)norm.

    kind "dense": complex Gaussian entries. kind "normal": random diagonal
    conjugated by a Haar-ish unitary, so the result commutes with its adjoint.
    """
    if size < 1:
        raise InvalidArgumentError("size must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "dense":
        mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    elif kind == "normal":
        diag = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        q = random_unitary(size, rng)
        mat = q @ np.diag(diag) @ q.conj().T
    else:
        raise InvalidArgumentError(f"unknown random operator kind {kind!r}")
    top = np.linalg.norm(mat, 2)
    if top > 0:
        mat *= norm / top
    return mat


def random_unitary(size: int, rng: np.random.Generator) -> np.ndarray:
    """QR-based random unitary with the standard phase fix."""
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
