"""Null-space solvers for local-unitary stabilizer algebras.

The stabilizer of a pure state is the set of X in u(1) + su(2)^n with
X|psi> = 0; the stabilizer of a density matrix is the set of X in su(2)^n
with [X, rho] = 0.  Both are kernels of real-linear maps.  Each map is
realified, reduced to its small triangular QR factor R (in cache-sized row
blocks when the map is large), and R's SVD gives the spectrum and the
kernel, cut by numerical_rank as is_product cuts Schmidt coefficients.
stabilizer_pure_stack solves a stack of states with batched QR and SVD
calls per chunk; stabilizer_pure is a stack of one.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .states import (
    NULL_TOL,
    DensityMatrix,
    PureState,
    _stack_qubits,
    numerical_rank,
    purity,
    stack_length,
    to_density,
)
from .local_unitary import SU2_BASIS, LieElement, lie_element_from_flat, apply_matrix_to_qubit

# the spectrum must split by at least this factor across the rank cut
GAP_MIN = 1e4
# two subspaces count as equal when every principal angle is below this
SPAN_TOL = 1e-7
# Lie brackets must project back into the span within this residual
CLOSURE_TOL = 1e-7
# direct commutator solves cost O(4^n); above this the rank-one path is used
DENSITY_DIRECT_LIMIT = 6
# the most bytes of a defining map one QR call takes: a larger map is
# factorised in row blocks, this many bytes of blocks per call
QR_CALL_BYTES = 2**20
# bytes of one row block, small enough that its Householder sweeps stay in cache
QR_BLOCK_BYTES = 2**18

# the real one-qubit matrices Z, X and J = -i sigma_y act on the rows of a
# real matrix W by a sign z(bit) = +-1, a flip of the bit, or both:
# (J W)[r] = -z(r) W[flip r]
_ROW_SIGN = np.array([1.0, -1.0])[:, None]
# signs of the flipped rows of (J U, -J V), the J products of _density_direct
_J_SIGNS = np.stack([-_ROW_SIGN, _ROW_SIGN])[:, None]


@dataclass(frozen=True, eq=False)
class StabilizerBasis:
    """Orthonormal coordinate basis of a stabilizer algebra.

    ambient is 'pure' (coordinates (t, x1, y1, z1, ...), length 3n+1) or
    'density' (no phase coordinate, length 3n).  Rows of `basis` are
    orthonormal in the Euclidean coordinate inner product: they are the
    kernel's right singular vectors in the order and with the signs the SVD
    gives them, which is deterministic for a given input; no reader depends
    on a rotation of the rows.  singular_values holds the full spectrum of
    the defining map; gap is the ratio across the rank cut (inf when the
    cut is at either end).  When the kernel is exact the denominator of gap
    is a roundoff-level singular value, so gap then reads 1e9 or more and
    carries no margin; rank_margin gives the margin on each side of the cut.
    proj_dims is computed once per basis.  method is 'svd' for a pure basis
    and names the one route, 'direct' or 'projected', that solved a density
    basis.
    """

    ambient: str
    n: int
    basis: np.ndarray
    singular_values: np.ndarray
    gap: float
    method: str = "svd"
    # always False, since no route cross-checks another; the only reader is
    # the stabilizer_density annotator in perfbench/tracer.py, which would
    # fail on every traced density request without it
    cross_validated: ClassVar[bool] = False

    def __post_init__(self):
        for name in ("basis", "singular_values"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def rank_margin(self, tol: float = NULL_TOL) -> dict:
        """Both sides of the rank cut at tol, relative to the largest
        singular value: kernel_max is the largest singular value counted as
        zero (None when the kernel is empty), range_min the smallest one
        kept (None when the map vanishes), and cut is tol itself.  A
        decision is clear when kernel_max <= cut < range_min by a margin."""
        s = self.singular_values / (self.singular_values.max(initial=0.0) or 1.0)
        rank = numerical_rank(s, tol)
        return {
            "kernel_max": None if rank == s.size else float(s[rank]),
            "range_min": None if rank == 0 else float(s[rank - 1]),
            "cut": tol,
        }

    @cached_property
    def proj_dims(self) -> tuple[int, ...]:
        """Dimension of each qubit's projection of the stabilizer: the rank
        of its (dim, 3) coordinate block, all from one batched SVD.  Basis
        rows are unit norm, so block singular values are at most 1 and an
        absolute cut at NULL_TOL is meaningful."""
        if self.dim == 0:
            return (0,) * self.n
        off = 1 if self.ambient == "pure" else 0
        blocks = self.basis[:, off:].reshape(self.dim, self.n, 3).swapaxes(0, 1)
        s = np.linalg.svd(blocks, compute_uv=False)
        return tuple(np.sum(s > NULL_TOL, axis=1).tolist())

    def elements(self) -> list[LieElement]:
        return [lie_element_from_flat(row, self.n, self.ambient) for row in self.basis]

    def block_columns(self, j: int) -> np.ndarray:
        """The three coordinate columns of qubit j."""
        off = 1 if self.ambient == "pure" else 0
        return self.basis[:, off + 3 * (j - 1) : off + 3 * j]


def _r_factors(real_maps: np.ndarray) -> np.ndarray:
    """Square R factor of each map of an (S, M, K) stack.

    A map of at most QR_CALL_BYTES goes to one QR.  A larger one is split
    into row blocks of about QR_BLOCK_BYTES, factorised by batched QR calls
    of QR_CALL_BYTES each, and the final QR runs on their stacked R factors
    and the remainder rows.  That R has the same Gram matrix R^T R as the
    map's, so the same singular values and right singular vectors.  With
    fewer columns than LAPACK's block size, dgeqrf runs the unblocked
    Householder loop, which on the whole map reads it from memory once per
    column; on a block it reads from cache (n = 8 density map, 65536 x 24:
    31 -> 15 ms, one BLAS thread, 2 vCPUs).  np.linalg.qr copies its whole
    input, so one call over all blocks would hold a second copy of the map;
    calls of QR_CALL_BYTES keep that copy small.
    """
    s, m, k = real_maps.shape
    if m * k * real_maps.itemsize <= QR_CALL_BYTES:
        return np.linalg.qr(real_maps, mode="r")
    rows = QR_BLOCK_BYTES // (k * real_maps.itemsize)
    end = m // rows * rows
    step = QR_CALL_BYTES // QR_BLOCK_BYTES * rows
    stacked = [
        np.linalg.qr(real_maps[:, lo : min(lo + step, end)].reshape(s, -1, rows, k), mode="r")
        .reshape(s, -1, k)
        for lo in range(0, end, step)
    ]
    stacked.append(real_maps[:, end:])
    return np.linalg.qr(np.concatenate(stacked, axis=1), mode="r")


def _null_spaces(real_maps: np.ndarray, tol: float) -> list[tuple]:
    """Kernel rows, full spectrum, and the spectral gap across the cut, for
    each map of an (S, M, K) stack.

    The maps are tall, so each is Q R with a square R that has the same
    singular values and right singular vectors.  Only R is formed, never the
    tall orthonormal factor, by _r_factors, directly or in row blocks; the
    SVD runs on R.  Every step is a batched LAPACK call, which factorises
    every map exactly as it would alone.  Forming the Gram matrix
    real_map.T @ real_map and calling eigh, or CholeskyQR, would be cheaper
    still but squares the condition number, which would put the NULL_TOL cut
    at machine epsilon.
    """
    k = real_maps.shape[2]
    if real_maps.shape[1] < k:  # wide matrices would lose kernel directions here
        raise ValueError("defining map has fewer rows than columns")
    _, svals, vhs = np.linalg.svd(_r_factors(real_maps))
    out = []
    for s, vh in zip(svals, vhs):
        rank = numerical_rank(s, tol)
        if 0 < rank < k:
            gap = float(s[rank - 1] / s[rank]) if s[rank] > 0 else np.inf
        else:
            gap = np.inf
        out.append((vh[rank:], s, gap))
    return out


def stabilizer_pure(psi: PureState, tol: float = NULL_TOL) -> StabilizerBasis:
    """Stabilizer of a pure state inside u(1) + su(2)^n: a stack of one for
    stabilizer_pure_stack."""
    return stabilizer_pure_stack(psi.vector[None], tol)[0]


def stabilizer_pure_stack(vectors: np.ndarray, tol: float = NULL_TOL) -> list[StabilizerBasis]:
    """Pure stabilizer of each state in an (S, 2**n) stack of unit vectors.

    The defining map of a state sends real coordinates (t, x1, y1, z1, ...)
    to the vector X|psi>, realified to a (2 * 2**n, 3n+1) matrix.  The maps
    are built and factorised stack_length(n) states at a time.  Each basis
    is bit for bit the one the state gets in a stack of its own.
    """
    n = _stack_qubits(vectors)
    step = stack_length(n)
    out = []
    for lo in range(0, vectors.shape[0], step):
        # amplitude index first, state second: the layout apply_matrix_to_qubit takes
        flat = np.ascontiguousarray(vectors[lo : lo + step].T)
        cols = np.empty((2**n, flat.shape[1], 3 * n + 1), dtype=np.complex128)
        cols[:, :, 0] = -1j * flat
        for j in range(1, n + 1):
            cols[:, :, 3 * j - 2 : 3 * j + 1] = apply_matrix_to_qubit(SU2_BASIS, flat, j, n)
        real_maps = np.concatenate([cols.real, cols.imag]).swapaxes(0, 1)
        out += [
            StabilizerBasis("pure", n, rows, svals, gap)
            for rows, svals, gap in _null_spaces(real_maps, tol)
        ]
    return out


def _dominant_eigenvector(rho: DensityMatrix) -> PureState:
    """Pure state of a (near) rank-one density matrix."""
    j = int(np.argmax(np.abs(np.diagonal(rho.matrix))))
    col = rho.matrix[:, j]
    return PureState(col / np.linalg.norm(col))


def _density_direct(rho: DensityMatrix, tol: float):
    """Solve [X, rho] = 0 on all of su(2)^n; the map has 4^n rows.

    The commutator C = [X, rho] is Hermitian, so Re C is symmetric and Im C
    antisymmetric; the two are Frobenius-orthogonal and C.real + C.imag has
    the same norm as C.  Realifying every linear combination that way keeps
    the Gram matrix of the naive [Re vec C; Im vec C] map, hence its
    singular values and kernel, with half the rows.

    With U = Re rho + Im rho and V = U^T = Re rho - Im rho, the realified
    planes of the generators iZ, J = -iY and iX of qubit j are the real
    commutators [Z_j, V], [J_j, U] and [X_j, V].  Each is a left product
    minus the transpose of a left product, G W - (G^T W^T)^T, and a left
    product by a real one-qubit matrix is a sign and a flip on row blocks:
    three calls per qubit form the six, and one transposed subtraction the
    three planes.  There is no complex product and no complex temporary.
    """
    n = rho.n
    d = 2**n
    w = np.empty((2, d, d))  # (V, U)
    np.subtract(rho.matrix.real, rho.matrix.imag, out=w[0])
    np.add(rho.matrix.real, rho.matrix.imag, out=w[1])
    # left products (Z V, J U, X V) and (Z U, -J V, X U), whose transposes
    # are the right products V Z, U J and V X
    prods = np.empty((2, 3, d, d))
    real_map = np.empty((3 * n, d, d))
    for j in range(1, n + 1):
        rows = (2 ** (j - 1), 2, 2 ** (n - j) * d)
        wq = w.reshape((2,) + rows)
        pq = prods.reshape((2, 3) + rows)
        np.multiply(wq, _ROW_SIGN, out=pq[:, 0])
        np.multiply(wq[::-1, :, ::-1], _J_SIGNS, out=pq[:, 1])
        np.copyto(pq[:, 2], wq[:, :, ::-1])
        np.subtract(prods[0], prods[1].swapaxes(1, 2), out=real_map[3 * (j - 1) : 3 * j])
    return _null_spaces(real_map.reshape(3 * n, d * d).T[None], tol)[0]


def _drop_phase(pure: StabilizerBasis, tol: float = NULL_TOL) -> StabilizerBasis:
    """Density stabilizer of |psi><psi| from the pure stabilizer of psi.

    Dropping the u(1) phase coordinate maps the pure stabilizer onto the
    density stabilizer of the same state.  The result keeps the spectrum and
    gap of the pure map, and its method is 'projected'.
    """
    rows = pure.basis[:, 1:]
    if rows.shape[0]:
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        r = numerical_rank(s, tol)
        if r != pure.dim:
            warnings.warn("phase projection lost stabilizer directions; input may be ill-conditioned")
        rows = vh[:r]
    return StabilizerBasis("density", pure.n, rows, pure.singular_values, pure.gap, method="projected")


def _density_projected(rho: DensityMatrix, tol: float) -> StabilizerBasis:
    """Rank-one shortcut: solve the pure stabilizer and drop the phase."""
    return _drop_phase(stabilizer_pure(_dominant_eigenvector(rho), tol), tol)


def stabilizer_density(rho: DensityMatrix, tol: float = NULL_TOL, method: str = "auto") -> StabilizerBasis:
    """Stabilizer of a density matrix inside su(2)^n, from one solve.

    method 'direct' builds the commutator map on all of su(2)^n and costs
    O(4^n); 'projected' recovers the pure state of a rank-one input and
    drops the phase from its pure stabilizer.  'auto' is 'direct' up to
    DENSITY_DIRECT_LIMIT qubits and 'projected' above it, where a mixed
    input raises and 'direct' is the method that solves it.  That the two
    routes agree on rank-one inputs is phase_projection_check's to show.
    """
    n = rho.n
    if method not in ("auto", "direct", "projected"):
        raise ValueError(f"unknown method {method!r}")
    if method == "direct" or (method == "auto" and n <= DENSITY_DIRECT_LIMIT):
        rows, svals, gap = _density_direct(rho, tol)
        return StabilizerBasis("density", n, rows, svals, gap, method="direct")
    # 1 - tr rho^2 = 2 sum_{i<j} l_i l_j is linear in the small eigenvalues l_i,
    # the scale of numerical_rank's cut
    if not 1.0 - purity(rho) < tol:
        if method == "auto":
            raise ValueError(
                f"method 'auto' needs a rank-one density matrix above {DENSITY_DIRECT_LIMIT} "
                f"qubits, got a mixed one on {n}; method='direct' solves mixed states"
            )
        raise ValueError("projected method requires a rank-one density matrix")
    return _density_projected(rho, tol)


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of a matrix: right singular
    vectors cut at max(shape) * eps relative to the largest singular value."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: numerical_rank(s, max(rows.shape) * np.finfo(np.float64).eps)]


def principal_angles(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Principal angles between two row-spans, in descending order.

    The rows need not be orthonormal: each span is orthonormalised by SVD
    first.  With A the larger span and B the smaller, the cosines are the
    singular values of B A^T and the sines those of B - B A^T A; each angle
    comes from arccos where its cosine^2 < 1/2 and from arcsin elsewhere,
    so it is accurate near 0 and near pi/2 alike.  Empty if both spans are
    trivial, [pi/2] if one is.
    """
    big, small = sorted((_orthonormal_rows(rows_a), _orthonormal_rows(rows_b)), key=len, reverse=True)
    if len(small) == 0:
        return np.zeros(0) if len(big) == 0 else np.array([np.pi / 2])
    overlap = small @ big.T
    cos = np.linalg.svd(overlap, compute_uv=False)[::-1]  # ascending, so angles descend
    sin = np.linalg.svd(small - overlap @ big, compute_uv=False)
    return np.where(cos**2 < 0.5, np.arccos(np.minimum(cos, 1.0)), np.arcsin(np.minimum(sin, 1.0)))


def span_contains(k: StabilizerBasis, flat: np.ndarray) -> bool:
    """Whether a coordinate vector lies in the stabilizer span, to SPAN_TOL
    relative to its norm."""
    v = np.asarray(flat, dtype=np.float64)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return True
    resid = v - k.basis.T @ (k.basis @ v)
    return float(np.linalg.norm(resid)) < SPAN_TOL * nrm


def _bracket_flat(row_i: np.ndarray, row_j: np.ndarray, n: int, ambient: str) -> np.ndarray:
    """Coordinates of [X_i, X_j]; the u(1) part is central so the phase is 0."""
    off = 1 if ambient == "pure" else 0
    ci = row_i[off:].reshape(n, 3)
    cj = row_j[off:].reshape(n, 3)
    br = 2.0 * np.cross(ci, cj)
    if ambient == "pure":
        return np.concatenate([[0.0], br.reshape(-1)])
    return br.reshape(-1)


@dataclass(frozen=True, eq=False)
class AlgebraType:
    """Lie-algebra classification of a stabilizer span.

    kind is 'abelian', 'su2', or 'other'.  closure_residual is the largest
    distance from a pairwise bracket back to the span; structure_constants
    c[i, j, :] expand [e_i, e_j] in the basis when the algebra closes.
    """

    kind: str
    closed: bool
    closure_residual: float
    structure_constants: np.ndarray | None
    killing_eigenvalues: np.ndarray | None


def algebra_type(k: StabilizerBasis) -> AlgebraType:
    """Classify the Lie algebra spanned by a stabilizer basis; brackets
    below CLOSURE_TOL count as zero and so do residuals off the span."""
    dim = k.dim
    if dim <= 1:
        return AlgebraType("abelian", True, 0.0, None, None)
    max_norm = 0.0
    max_resid = 0.0
    const = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            br = _bracket_flat(k.basis[i], k.basis[j], k.n, k.ambient)
            max_norm = max(max_norm, float(np.linalg.norm(br)))
            coeff = k.basis @ br
            const[i, j] = coeff
            const[j, i] = -coeff
            resid = br - k.basis.T @ coeff
            max_resid = max(max_resid, float(np.linalg.norm(resid)))
    if max_norm < CLOSURE_TOL:
        return AlgebraType("abelian", True, max_resid, const, None)
    closed = max_resid < CLOSURE_TOL
    if not closed:
        return AlgebraType("other", False, max_resid, None, None)
    # killing[a, b] = tr(ad_a ad_b) with (ad_a)_{kj} = const[a, j, k]
    ad = np.transpose(const, (0, 2, 1))
    killing = np.einsum("akj,bjk->ab", ad, ad)
    killing = (killing + killing.T) / 2.0
    evals = np.linalg.eigvalsh(killing)
    if dim == 3 and evals.max() < -1e-8:
        return AlgebraType("su2", True, max_resid, const, evals)
    return AlgebraType("other", True, max_resid, const, evals)


@dataclass(frozen=True, eq=False)
class ProjectionCheck:
    """Agreement report between the pure and density stabilizers of one state."""

    passed: bool
    dim_pure: int
    dim_density: int
    max_angle: float
    proj_dims_pure: tuple[int, ...]
    proj_dims_density: tuple[int, ...]


def phase_projection_check(psi: PureState) -> ProjectionCheck:
    """Check that dropping the phase maps the pure stabilizer onto the
    density stabilizer of the same state, solved directly, with matching
    dimensions, spans, and per-qubit projections."""
    k_pure = stabilizer_pure(psi)
    k_dens = stabilizer_density(to_density(psi), method="direct")
    dropped = k_pure.basis[:, 1:]
    angles = principal_angles(dropped, k_dens.basis)
    max_angle = float(np.max(angles, initial=0.0))
    pd_pure = k_pure.proj_dims
    pd_dens = k_dens.proj_dims
    passed = k_pure.dim == k_dens.dim and max_angle < SPAN_TOL and pd_pure == pd_dens
    return ProjectionCheck(passed, k_pure.dim, k_dens.dim, max_angle, pd_pure, pd_dens)
