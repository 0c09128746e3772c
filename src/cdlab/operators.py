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
through `guarded_inverse`, one LU that gives M^{-1} and kappa_1, or 1 / d
for a real diagonal M.  The Mobius resolvent D = I - conj(a) A is never
inverted: phi(A) = D^{-1} (a I - A) is its one LU, and kappa_1(D)
(`apply_mobius`) and the corner of phi(T) (`homogeneity.mobius_images`)
read D^{-1} off (1 - |a|^2) D^{-1} = I - conj(a) e^{-i phase} phi(A).

Every certificate works on N x N blocks.  A shift from `shift_from_kernel`
is held as its N - 1 superdiagonal weights: `ModelOperator.left` / `right`
multiply it as one scaled slice, which equals the dense product exactly
(the dense sums only add exact zeros), and its `matrix` is formed only on
a read that needs it and never kept.  By the same argument every other
block product and inverse of the certificates (`_times`, `_inverse`)
takes a square block that is diagonal with real entries as a row or
column scaling and inverts it as 1 / d, bit for bit as the dense product
and the LU; a complex diagonal stays dense, as its scaling rounds apart
from the BLAS product.  So U = (sqrt(2)/2) [[I, I], [I, -I]] is certified
unitary, and multiplied through a model, in O(N^2).  `intertwining_gaps`
reduces U A - B U one N x N block at a time and skips zero blocks, so a
coupled model T is multiplied through T0, X T1 - T0 X and T1; `gap_total`
and `block_norm` reduce norms from the blocks, and `block_unitarity_residual`
certifies a block unitary from its Gram blocks, one at a time (the guard
on the root R that `equivalence.build_unitary_from_x` takes from its one
eigendecomposition).  No check assembles the 2N x 2N T: `power_residuals`
takes the corner of T^n by a recurrence on the blocks, and
`homogeneity.mobius_images` takes the blocks of phi(T) by block
back-substitution, guarded on the N x N resolvents.
`UpperTriangularModel.t` assembles T on each read for callers outside the
package and never keeps it.  Certificates accumulate their sums in place,
in the order the plain expressions take, so every residual is the same to
the bit.

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


def unitarity_residual(u: np.ndarray) -> float:
    """||U* U - I|| (Frobenius) of a square U.

    One product suffices: U* U - I = V (S^2 - I) V* and U U* - I =
    W (S^2 - I) W* for the SVD U = W S V*, so both residuals equal
    sqrt(sum_i (s_i^2 - 1)^2) over the singular values s_i of U.
    """
    return frobenius(u.conj().T @ u - np.eye(u.shape[0]))


def block_unitarity_residual(blocks) -> float:
    """||U* U - I|| (Frobenius) of U = [[A, B], [C, D]] from its row-major
    N x N blocks, without assembling U.

    The Gram blocks of U* U - I are G00 = A* A + C* C - I,
    G11 = B* B + D* D - I and G01 = A* B + C* D, with G10 = G01*, so the
    residual is sqrt(||G00||^2 + ||G11||^2 + 2 ||G01||^2).  Each Gram
    block is formed in one array, reduced and dropped before the next.
    Blocks that are not square and of one size are refused
    (InvalidArgumentError).
    """
    blocks = [np.asarray(m) for m in blocks]
    a, b, c, d = blocks
    shapes = [m.shape for m in blocks]
    if len(set(shapes)) != 1 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(
            f"blocks must be square and of one size, got shapes {shapes}")

    def gram(p, q, r, s, diagonal=True):
        """||P* Q + R* S - I||, or ||P* Q + R* S|| off the diagonal."""
        out = _times(p.conj().T, q)
        out += _times(r.conj().T, s)
        return frobenius(_add_to_diagonal(out, -1.0) if diagonal else out)

    g01 = gram(a, b, c, d, diagonal=False)
    return math.hypot(gram(a, a, c, c), gram(b, b, d, d), g01, g01)


def require_unitary(u, what: str):
    """Raise a NumericError naming `what` when its unitarity residual
    exceeds UNITARITY_TOL or is NaN.  `u` is a square matrix
    (`unitarity_residual`) or the row-major blocks of one
    (`block_unitarity_residual`)."""
    err = (unitarity_residual(u) if isinstance(u, np.ndarray)
           else block_unitarity_residual(u))
    if not err <= UNITARITY_TOL:  # NaN too
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


def _real_diagonal(mat) -> np.ndarray | None:
    """The diagonal of `mat` when it is one square float or complex matrix
    that is diagonal with real entries (complex ones with zero imaginary
    parts), else None.  Any other matrix is refused on its (0, 1) and (1, 0)
    entries alone when either is nonzero; only a candidate pays for a pass
    over its off-diagonal entries."""
    if not (isinstance(mat, np.ndarray) and mat.ndim == 2
            and mat.shape[0] == mat.shape[1] and mat.dtype.kind in "fc"):
        return None
    n = mat.shape[0]
    if n > 1 and (mat[0, 1] or mat[1, 0]):
        return None
    diagonal = np.diagonal(mat)
    if mat.dtype.kind == "c" and np.any(diagonal.imag):
        return None
    # in row-major order the off-diagonal entries are the first n of each
    # n + 1 after entry (0, 0); a transpose has the same ones
    rows = mat.T if mat.flags.f_contiguous else np.ascontiguousarray(mat)
    if np.any(rows.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]):
        return None
    return diagonal


def _times(p, q) -> np.ndarray:
    """p @ q as a new array; a square factor that is a real diagonal D
    (`_real_diagonal`) scales the rows (D q) or columns (p D) of the other.

    The scaling equals the dense product bit for bit, as the dense sums
    only add exact zeros to each scaled entry.  A complex diagonal keeps
    the dense product, which rounds its complex scaling differently.  As
    BLAS does, the scaling overflows to inf and takes 0 inf as NaN without
    a warning.
    """
    diagonal = _real_diagonal(p)
    if diagonal is not None and np.ndim(q) >= 2 and np.shape(q)[-2] == diagonal.size:
        with np.errstate(over="ignore", invalid="ignore"):
            return diagonal[:, None] * q
    diagonal = _real_diagonal(q)
    if diagonal is not None and np.ndim(p) >= 2 and np.shape(p)[-1] == diagonal.size:
        with np.errstate(over="ignore", invalid="ignore"):
            return p * diagonal
    return p @ q


def _inverse(mat: np.ndarray) -> np.ndarray:
    """np.linalg.inv(mat); a real diagonal (`_real_diagonal`) is inverted
    as 1 / d, which equals the LU inverse bit for bit while 1 / d is
    finite.  A zero on that diagonal raises LinAlgError, as the LU does; a
    d so small that 1 / d overflows gives inf without a warning."""
    diagonal = _real_diagonal(mat)
    if diagonal is None:
        return np.linalg.inv(mat)
    if not np.all(diagonal):
        raise np.linalg.LinAlgError("Singular matrix")
    inv = np.zeros_like(mat)
    with np.errstate(over="ignore"):  # 1 / d of a subnormal d is inf
        np.einsum("ii->i", inv)[...] = 1.0 / diagonal
    return inv


def guarded_inverse(mat: np.ndarray, cap: float) -> tuple[np.ndarray | None, float]:
    """(M^{-1}, kappa_1) from one LU, with kappa_1 = ||M||_1 ||M^{-1}||_1.
    A real diagonal M is inverted as 1 / d, with no LU (`_inverse`).

    The inverse is None when M is singular (LinAlgError or a non-finite
    value; kappa_1 is then inf) or when n kappa_1 > cap.  As
    kappa_2 <= n kappa_1, no M with kappa_2 > cap gets through.
    """
    try:
        inv = _inverse(mat)
    except np.linalg.LinAlgError:
        return None, math.inf
    kappa = float(_one_norms(mat) * _one_norms(inv))
    if not math.isfinite(kappa):
        kappa = math.inf
    return (None if mat.shape[-1] * kappa > cap else inv), kappa


@dataclass(frozen=True)
class ModelOperator:
    """N x N matrix model of a rank-one-kernel operator.

    `kernel` is set when the operator was built from a diagonal kernel, which
    is what makes eigenframes and series metrics available downstream.

    A weighted backward shift is held as its N - 1 superdiagonal `weights`
    alone: its `matrix` is formed on each read and never kept, and `left`
    and `right` multiply it as a slice.  Any other operator is held as its
    complex matrix `dense` (the first positional argument), which `matrix`
    returns as stored, and has `weights` None.  Exactly one of the two is
    given.
    """

    dense: np.ndarray | None = field(default=None, repr=False)
    kernel: DiagonalKernel | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.dense is None) == (self.weights is None):
            raise InvalidArgumentError(
                "a model operator takes exactly one of a matrix and shift weights")
        if self.weights is None:
            object.__setattr__(self, "dense", _as_square(self.dense, "model operator"))
            return
        weights = np.asarray(self.weights)
        if weights.ndim != 1:
            raise InvalidArgumentError(
                f"shift weights must be a 1-d array, got shape {weights.shape}")
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.dense.shape[0] if self.weights is None else self.weights.size + 1

    @property
    def matrix(self) -> np.ndarray:
        """The complex N x N matrix: stored, or for a shift formed on this
        read (entry (k, k+1) is w_k)."""
        if self.weights is None:
            return self.dense
        mat = np.zeros((self.size, self.size), dtype=complex)
        self.write_into(mat)
        return mat

    def write_into(self, out: np.ndarray) -> None:
        """Write the matrix into `out`, a zero N x N array or view; a shift
        writes only its weights, onto the superdiagonal."""
        if self.weights is None:
            out[...] = self.dense
        else:
            np.einsum("ii->i", out[:-1, 1:])[...] = self.weights

    def left(self, x: np.ndarray) -> np.ndarray:
        """T x for a matrix or an (m, N, k) stack x.

        A shift takes one scaled slice, (T x)[k] = w_k x[k + 1], equal to
        the dense product because the dense sums only add exact zeros; any
        other operator takes `matrix @ x` by `_times`, a scaling when the
        matrix or x is a real diagonal.
        """
        if self.weights is None:
            return _times(self.dense, x)
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=np.result_type(complex, x))
        np.multiply(self.weights[:, None], x[..., 1:, :], out=out[..., :-1, :])
        return out

    def right(self, x: np.ndarray) -> np.ndarray:
        """x T for a matrix or an (m, k, N) stack x; see `left`."""
        if self.weights is None:
            return _times(x, self.dense)
        x = np.asarray(x)
        out = np.zeros(x.shape, dtype=np.result_type(complex, x))
        np.multiply(x[..., :-1], self.weights, out=out[..., 1:])
        return out


@dataclass(frozen=True)
class UpperTriangularModel:
    """Blocks T0, T1, X and the coupling block X T1 - T0 X of
    T = [[T0, X T1 - T0 X], [0, T1]].

    Every check reads the blocks only.  The 2N x 2N matrix `t` exists for
    callers outside the package; it is assembled on each read and never
    kept.  The three `power_residuals` are kept after their first read, so
    the blocks must not be mutated after assembly.
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
        """(T0, X T1 - T0 X, None, T1) row-major, for `intertwining_gaps`."""
        return self.t0, self.coupling_block, None, self.t1

    @property
    def t(self) -> np.ndarray:
        """The assembled T, formed on this read (a shift block as its
        weights, see `block_matrix`)."""
        return block_matrix(self.t0, self.coupling_block, None, self.t1)

    @cached_property
    def power_residuals(self) -> dict:
        """{n: ||C_n - (X T1^n - T0^n X)||} for n = 2, 3, 5, C_n the corner
        of T^n: the block identity of phi(T) spot-checked for plain powers,
        whose diagonal blocks are T0^n and T1^n for any block-triangular T.
        C_n comes from the coupling block C alone, never from X, by
        C_{n+1} = T0^n C + C_n T1 (T^{n+1} = T^n T) from C_1 = C.  At most
        five N x N arrays are alive at once: T0^n, T1^n, C_n, one difference
        and one product.
        """
        coupling, x = self.coupling_block, self.x
        t0_power, t1_power, corner = self.t0.matrix, self.t1.matrix, coupling
        residuals = {}
        for n in range(2, 6):
            corner = self.t1.right(corner)
            corner += t0_power @ coupling
            t0_power, t1_power = self.t0.left(t0_power), self.t1.right(t1_power)
            if n in (2, 3, 5):
                # C_n + T0^n X - X T1^n, formed in place
                gap = t0_power @ x
                gap += corner
                gap -= x @ t1_power
                residuals[n] = frobenius(gap)
        return residuals


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
    """Weighted backward shift: entry (k, k+1) = sqrt(a_k / a_{k+1}), held as
    its weights."""
    if kernel.truncation < 2:
        raise InvalidArgumentError("shift needs truncation >= 2")
    a = kernel.coefficients
    return ModelOperator(kernel=kernel, weights=np.sqrt(a[:-1] / a[1:]))


def block_matrix(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """[[A, B], [C, D]] from equal-size square blocks.

    None stands for a zero block, and a ModelOperator block is written by
    `ModelOperator.write_into` (a shift as its weights, no N x N matrix
    formed).  The result has the common dtype of the given blocks (complex
    for a ModelOperator).
    """
    blocks = [b if b is None or isinstance(b, ModelOperator) else np.asarray(b)
              for b in (top_left, top_right, bottom_left, bottom_right)]
    given = [b for b in blocks if b is not None]
    shapes = [(b.size, b.size) if isinstance(b, ModelOperator) else b.shape
              for b in given]
    n = shapes[0][-1]
    if any(s != (n, n) for s in shapes):
        raise InvalidArgumentError(
            f"blocks must be square and of one size, got shapes {shapes}")
    dtype = np.result_type(*(complex if isinstance(b, ModelOperator) else b
                             for b in given))
    out = np.zeros((2 * n, 2 * n), dtype=dtype)
    for k, b in enumerate(blocks):
        row, col = divmod(k, 2)
        view = out[row * n:(row + 1) * n, col * n:(col + 1) * n]
        if isinstance(b, ModelOperator):
            b.write_into(view)
        elif b is not None:
            view[...] = b
    return out


def _block_times(p, q):
    """One block product p q; a ModelOperator factor goes through `left` or
    `right`, two arrays through `_times`, and None (a zero block) gives
    None."""
    if p is None or q is None:
        return None
    if isinstance(p, ModelOperator):
        return p.left(q.matrix if isinstance(q, ModelOperator) else q)
    if isinstance(q, ModelOperator):
        return q.right(p)
    return _times(p, q)


def _block_sum(p, q, r, s):
    """p q + r s by `_block_times`; None when both products are zero."""
    terms = [t for t in (_block_times(p, q), _block_times(r, s)) if t is not None]
    return terms[0] + terms[1] if len(terms) == 2 else terms[0] if terms else None


def intertwining_gaps(u, a, b) -> list:
    """Frobenius norms of the N x N blocks of U A - B U, row-major, from the
    row-major block sequences of U, A and B: arrays, ModelOperators (a
    shift is multiplied as a slice) or None for zero.  Products with a zero
    factor are skipped, and a block zero on both sides gives None.  Each
    block is one call of `gap`, whose two sides and difference are freed
    before the next block is formed; `gap_total` gives the whole norm.
    """
    def gap(row, col):
        lhs = _block_sum(u[2 * row], a[col], u[2 * row + 1], a[2 + col])
        rhs = _block_sum(b[2 * row], u[col], b[2 * row + 1], u[2 + col])
        if lhs is None and rhs is None:
            return None
        return frobenius(rhs if lhs is None else lhs if rhs is None else lhs - rhs)

    return [gap(row, col) for row in (0, 1) for col in (0, 1)]


def gap_total(gaps) -> float:
    """Frobenius norm of a 2 x 2 block matrix from its block norms, None for
    a zero block: sqrt of the sum of their squares."""
    return math.hypot(*(g for g in gaps if g is not None))


def block_norm(blocks) -> float:
    """Frobenius norm of a 2 x 2 block matrix from its row-major blocks (as
    `intertwining_gaps` takes them)."""
    return gap_total(frobenius(b.matrix if isinstance(b, ModelOperator) else b)
                     for b in blocks if b is not None)


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
    coupling = t1.right(x)
    coupling -= t0.left(x)
    return UpperTriangularModel(t0=t0, t1=t1, x=x, coupling_block=coupling)


def fb2_membership(t0: ModelOperator, t1: ModelOperator, x: np.ndarray,
                   tol: float) -> tuple[bool, float]:
    """Decide whether X T1^2 - 2 T0 X T1 + T0^2 X vanishes, scale-invariantly.

    Returns (verdict, residual).  The verdict compares the raw residual against
    tol * (1 + ||X|| ||T1||^2 + ||T0||^2 ||X||) so rescaling the triple does not
    flip it.
    """
    if not tol > 0:  # NaN too
        raise InvalidArgumentError(f"tol must be positive, got {tol!r}")
    scale = (1.0 + frobenius(x) * frobenius(t1.matrix) ** 2
             + frobenius(t0.matrix) ** 2 * frobenius(x))
    # the three terms are summed into one array in the order
    # (X T1^2 - 2 T0 X T1) + T0^2 X, with T0^2 X taken as (T0 T0) X
    expr = t1.right(t1.right(x))
    middle = t1.right(t0.left(x))
    middle *= 2.0
    expr -= middle
    del middle
    expr += t0.left(t0.matrix) @ x
    residual = frobenius(expr)
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
    """W T = (T0 (+) T1) W with the unipotent W = [[I, -X], [0, I]];
    `residual` is ||W T - (T0 (+) T1) W||, taken on the blocks."""

    model: UpperTriangularModel = field(repr=False)
    residual: float = 0.0


def similarity_split(model: UpperTriangularModel) -> SimilaritySplit:
    """Split T off its coupling: W T W^{-1} = T0 (+) T1, algebraically exact.

    W T - (T0 (+) T1) W has one nonzero block, C - X T1 + T0 X with C the
    coupling block, so the residual takes two N x N products.
    """
    t0, t1, x = model.t0, model.t1, model.x
    corner = model.coupling_block - t1.right(x)
    corner += t0.left(x)
    return SimilaritySplit(model=model, residual=frobenius(corner))


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
        kappa = np.array([guarded_inverse(d, math.inf)[1]
                          for d in denom.reshape(-1, n, n)])
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


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Real parts, then imaginary parts, drawn straight into one complex
    array: equal bit for bit to A + 1j * B, without forming 1j * B."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


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
        mat = _complex_normal(rng, (size, size))
    elif kind == "normal":
        diag = _complex_normal(rng, size)
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
    z = _complex_normal(rng, (size, size))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
