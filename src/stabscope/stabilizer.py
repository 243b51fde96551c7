"""Null-space solvers for local-unitary stabilizer algebras.

The stabilizer of a pure state is the set of X in u(1) + su(2)^n with
X|psi> = 0; the stabilizer of a density matrix is the set of X in su(2)^n
with [X, rho] = 0.  Both are kernels of real-linear maps, realified and
built from signs and bit flips of real rows: the pure map's columns are the
generator planes of states._sign_flip_planes, the kernel it shares with the
optimizer gradient and the product test.  The kernel is cut by
numerical_rank, as is_product cuts Schmidt coefficients, always on singular
values of the unsquared map: _null_spaces reduces a map to its small
triangular QR factor R (in cache-sized row blocks when the map is large)
and takes R's SVD.  Every pure map is solved Gram first by _gram_split:
eigh of the small Gram matrix sets aside the directions far above any cut,
and only the block of the remaining candidate directions, none for a
generic state, goes to _null_spaces.  The direct density solve compresses
the commutator map of a low-rank rho onto the range of rho, an isometry of
(3n+1)^2 r^2 rows instead of 4^n, and builds the whole map only for a
higher rank; either map goes to _null_spaces whole.  stabilizer_pure_stack
solves a stack of states with batched calls per chunk; stabilizer_pure is
a stack of one.
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
    _sign_flip_planes,
    _stack_qubits,
    numerical_rank,
    purity,
    stack_length,
    to_density,
)
from .local_unitary import LieElement, lie_element_from_flat

# the spectrum must split by at least this factor across the rank cut
GAP_MIN = 1e4
# two subspaces count as equal when every principal angle is below this
SPAN_TOL = 1e-7
# Lie brackets must project back into the span within this residual
CLOSURE_TOL = 1e-7
# method 'auto' solves the commutator map up to this many qubits and the
# pure stabilizer of a rank-one input above it
DENSITY_DIRECT_LIMIT = 6
# the direct density solve compresses the map onto the range of a rho of
# rank r when (3n+1) r <= RANGE_ROUTE_RATIO * 2**n, and builds the whole map
# of 4^n rows otherwise.  Against the whole map (one BLAS thread): at n = 6-8
# the compression took 0.03-0.58 of its time up to a ratio of 0.89, but at
# n = 4 and 5 it lost already at rank one (1.8x at ratio 0.81, 1.1x at 0.5).
# A single ratio must stay below 0.5 to keep n = 5 out; 0.4 takes rank 1 at
# n = 6, ranks up to 2 at n = 7 and up to 4 at n = 8
RANGE_ROUTE_RATIO = 0.4
# the most bytes of a defining map one QR call takes: a larger map is
# factorised in row blocks, this many bytes of blocks per call
QR_CALL_BYTES = 2**20
# bytes of one row block, small enough that its Householder sweeps stay in
# cache
QR_BLOCK_BYTES = 2**18
# the pure solve sets aside Gram eigenvalues lam > GRAM_SPLIT * lam_max as
# range and solves the rest on the unsquared map.  A kernel vector leaks by
# about eps / GRAM_SPLIT into the range: against a dense SVD on Haar, W,
# GHZ (beta 0.6 to 3e-9), four-qubit family and singlet states at n = 1-12,
# kernel projectors were off by 3e-10 at 1e-7 and 5e-14 from 1e-6 to 1e-3;
# from 1e-2 on, Haar states at n = 3 start to have candidates
GRAM_SPLIT = 1e-4

# row r of qubit j's left products (Z V, J U, X V) of _density_planes, and of
# the products (Z U, -J V, X U) whose transposes it subtracts, is row r, or r
# with qubit j's bit flipped where _FLIPS is 1, of block
# _BLOCKS + _BLOCK_PER_BIT * bit(r) of (V, U, -V, -U)
_FLIPS = np.array([[0, 1, 1], [0, 1, 1]])[:, None, :, None]
_BLOCKS = np.array([[0, 3, 0], [1, 0, 1]])[:, None, :, None]
_BLOCK_PER_BIT = np.array([[2, -2, 0], [2, 2, 0]])[:, None, :, None]


@dataclass(frozen=True, eq=False)
class StabilizerBasis:
    """Orthonormal coordinate basis of a stabilizer algebra.

    ambient is 'pure' (coordinates (t, x1, y1, z1, ...), length 3n+1) or
    'density' (no phase coordinate, length 3n).  Rows of `basis` are
    orthonormal in the Euclidean coordinate inner product: they are the
    kernel's right singular vectors in the order and with the signs the SVD
    gives them (for a pure basis, those of the candidate block mapped back
    through the candidate directions), which is deterministic for a given
    input; no reader depends on a rotation of the rows.  singular_values
    holds the full spectrum of the defining map (for a pure basis, the
    square roots of the Gram eigenvalues set aside as range and then the
    candidate block's singular values); tol is the rank cut it was solved
    at, the zero every reader of the basis takes, and gap the ratio across
    that cut (inf when it is at either end).  When the kernel is exact the
    denominator of gap is a roundoff-level singular value, so gap then
    reads 1e9 or more and carries no margin; rank_margin gives the margin
    on each side of the cut.  The rank split, gap and proj_dims are computed
    once per basis.  method is 'svd' for a pure basis, else the one route
    ('direct' or 'projected') that solved it.
    """

    ambient: str
    n: int
    basis: np.ndarray
    singular_values: np.ndarray
    tol: float
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

    @cached_property
    def _rank(self) -> int:
        return numerical_rank(self.singular_values, self.tol)

    @cached_property
    def gap(self) -> float:
        s, rank = self.singular_values, self._rank
        return float(s[rank - 1] / s[rank]) if 0 < rank < s.size and s[rank] > 0 else np.inf

    def rank_margin(self) -> dict:
        """Both sides of the basis's rank cut, relative to the largest
        singular value: kernel_max is the largest singular value counted as
        zero (None when the kernel is empty), range_min the smallest one
        kept (None when the map vanishes), and cut is tol itself.  A
        decision is clear when kernel_max <= cut < range_min by a margin."""
        s = self.singular_values / (self.singular_values.max(initial=0.0) or 1.0)
        rank = self._rank
        return {
            "kernel_max": None if rank == s.size else float(s[rank]),
            "range_min": None if rank == 0 else float(s[rank - 1]),
            "cut": self.tol,
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


def _null_spaces(real_maps: np.ndarray, tol: float, head: np.ndarray | None = None) -> list[tuple]:
    """Kernel rows and full spectrum of each map of an (S, M, K) stack.

    The maps are tall, so each is Q R with a square R that has the same
    singular values and right singular vectors.  Only R is formed, never the
    tall orthonormal factor, by _r_factors, directly or in row blocks; the
    SVD runs on R.  Every step is a batched LAPACK call, which factorises
    every map exactly as it would alone.  No Gram matrix is formed here:
    real_map.T @ real_map with eigh, or CholeskyQR, squares the condition
    number, which would put the NULL_TOL cut at machine epsilon.  The Gram
    matrix of _gram_split only sets aside directions far above the cut
    before a map comes here.

    head, an (S, r) array, holds singular values of each map's parent that
    lie far above the cut, along directions outside the map's columns (the
    Gram range of _gram_split); they join the spectrum, so the cut is taken
    relative to the parent's largest singular value.
    """
    k = real_maps.shape[2]
    if real_maps.shape[1] < k:  # wide matrices would lose kernel directions here
        raise ValueError("defining map has fewer rows than columns")
    _, svals, vhs = np.linalg.svd(_r_factors(real_maps))
    if head is not None:
        svals = np.concatenate([head, svals], axis=1)
    return [(vh[numerical_rank(s, tol) - s.size + k :], s) for s, vh in zip(svals, vhs)]


def stabilizer_pure(psi: PureState, tol: float = NULL_TOL) -> StabilizerBasis:
    """Stabilizer of a pure state inside u(1) + su(2)^n: a stack of one for
    stabilizer_pure_stack."""
    return stabilizer_pure_stack(psi.vector[None], tol)[0]


def _gram_split(planes: np.ndarray, tol: float) -> list[tuple]:
    """Kernel rows and full spectrum of each map of an (S, K, M) stack
    of per-column planes, solved Gram first.

    eigh of the Gram matrix G = A^T A splits the coordinates: eigenvalues
    lam > GRAM_SPLIT * lam_max are range directions with singular value
    sqrt(lam), far above any cut, and the m others are candidates V_c.  With
    m = 0 the kernel is empty and nothing is factorised, which is the case
    for generic states.  Otherwise the unsquared map A V_c goes to
    _null_spaces, with the range singular values as its head, so the rank
    cut at tol is decided on singular values of A itself, relative to
    sqrt(lam_max); maps of the stack with the same m share one batched call.
    A kernel vector leaks out of the candidate span by about eps /
    GRAM_SPLIT, the error the Gram step adds to the basis.  Each map gets
    bit for bit what it gets in a stack of its own.  The pure solve is the
    one caller: the direct density solve compresses its map onto the range
    of rho instead.
    """
    k = planes.shape[1]
    lam, vecs = np.linalg.eigh(planes @ planes.swapaxes(1, 2))
    # candidates: every direction a cut at tol could reach, with a factor 2
    # in singular value to spare; at tol >= 1/2 that is every direction
    bound = max(GRAM_SPLIT, 4.0 * tol * tol) * lam[:, -1:]
    groups = {}
    for i, m in enumerate((lam <= bound).sum(axis=1).tolist()):
        groups.setdefault(m, []).append(i)
    out = [None] * len(planes)
    for m, idx in groups.items():
        # no copy of the planes when the whole stack shares m
        sel = slice(None) if len(idx) == len(planes) else idx
        # the range directions' singular values, descending: all k when m = 0
        head = np.sqrt(lam[sel, m:][:, ::-1])
        if m == 0:
            for i, svals in zip(idx, head):
                out[i] = (np.zeros((0, k)), svals)
            continue
        # contiguous either way, so each map's product is the one it gets alone
        cands = np.ascontiguousarray(vecs[sel, :, :m])
        block = np.matmul(cands.swapaxes(1, 2), planes[sel]).swapaxes(1, 2)
        for i, c, (rows, svals) in zip(idx, cands, _null_spaces(block, tol, head)):
            out[i] = (rows @ c.T, svals)
    return out


def stabilizer_pure_stack(vectors: np.ndarray, tol: float = NULL_TOL) -> list[StabilizerBasis]:
    """Pure stabilizer of each state in an (S, 2**n) stack of unit vectors.

    The defining map A of a state sends real coordinates (t, x1, y1, z1, ...)
    to the vector X|psi>, realified to a (2 * 2**n, 3n+1) matrix, built as
    per-column planes by _sign_flip_planes and solved Gram first by
    _gram_split, stack_length(n) states at a time; a generic state
    factorises nothing.  Each basis is bit for bit the one the state gets in
    a stack of its own.
    """
    n = _stack_qubits(vectors)
    step = stack_length(n)
    out = []
    for lo in range(0, vectors.shape[0], step):
        solved = _gram_split(_sign_flip_planes(vectors[lo : lo + step]), tol)
        out += [StabilizerBasis("pure", n, rows, svals, tol) for rows, svals in solved]
    return out


def _dominant_eigenvector(rho: DensityMatrix) -> PureState:
    """Pure state of a (near) rank-one density matrix."""
    j = int(np.argmax(np.abs(np.diagonal(rho.matrix))))
    col = rho.matrix[:, j]
    return PureState(col / np.linalg.norm(col))


def _density_planes(rho: DensityMatrix) -> np.ndarray:
    """Realified commutator map of rho as 3n planes of 4^n rows, shape
    (3n, 4^n), one plane per generator iZ_j, J_j = -iY_j, iX_j.

    The commutator C = [X, rho] is Hermitian, so Re C is symmetric and Im C
    antisymmetric; the two are Frobenius-orthogonal and C.real + C.imag has
    the same norm as C.  Realifying every linear combination that way keeps
    the Gram matrix of the naive [Re vec C; Im vec C] map, hence its
    singular values and kernel, with half the rows.

    With U = Re rho + Im rho and V = U^T = Re rho - Im rho, the planes of
    qubit j are the real commutators [Z_j, V], [J_j, U] and [X_j, V], that
    is (Z V) - (Z U)^T, (J U) - (-J V)^T and (X V) - (X U)^T.  A left product
    by a real one-qubit matrix signs and bit-flips rows, so every row of the
    six products is a row of (V, U, -V, -U), picked through one index table
    per side: one take for the left products, one for the transposed ones,
    and one subtraction, with no complex product.
    """
    n = rho.n
    d = 2**n
    k = 3 * n
    p = np.empty((4, d, d))  # (V, U, -V, -U)
    np.subtract(rho.matrix.real, rho.matrix.imag, out=p[0])
    np.add(rho.matrix.real, rho.matrix.imag, out=p[1])
    np.negative(p[:2], out=p[2:])
    p = p.reshape(4 * d, d)
    # rows of p, shape (side, qubit, generator, row); qubit 1 is the most
    # significant bit of a row index
    shifts = np.arange(n - 1, -1, -1)[:, None, None]
    rows = np.arange(d)
    bits = rows >> shifts & 1
    left, right = ((rows ^ _FLIPS << shifts) + d * (_BLOCKS + _BLOCK_PER_BIT * bits)).reshape(2, k, d)
    real_map = np.take(p, left, axis=0, mode="clip")
    tile = np.take(p, right, axis=0, mode="clip")
    np.subtract(real_map, tile.swapaxes(1, 2), out=real_map)
    return real_map.reshape(k, d * d)


def _range_factor(matrix: np.ndarray, r_max: int) -> np.ndarray | None:
    """The columns of a factor L of matrix ~ L L^dagger, at most r_max of
    them, as the rows of an (r, 2**n) array, by a pivoted Cholesky; None
    when r_max steps do not exhaust it.

    Each step takes the column of the largest remaining diagonal entry; the
    factorisation stops once that entry is at most 2**n * eps times the
    first pivot, which is at least eps times the trace.  The remaining
    diagonal only steers the steps: it says nothing of the off-diagonal
    remainder, so the caller checks the residual itself.
    """
    d = matrix.shape[0]
    diag = np.diagonal(matrix).real.copy()
    stop = d * np.finfo(np.float64).eps * diag.max()
    cols = np.empty((r_max, d), dtype=np.complex128)
    for r in range(r_max + 1):
        j = int(np.argmax(diag))
        if diag[j] <= stop:
            return cols[:r]
        if r == r_max:
            return None
        col = cols[r]
        np.subtract(matrix[:, j], cols[:r, j].conj() @ cols[:r], out=col)
        col /= np.sqrt(diag[j])
        diag -= col.real**2 + col.imag**2


def _residual_norm(matrix: np.ndarray, cols: np.ndarray) -> float:
    """||matrix - L L^dagger||_F entry by entry, L's columns the rows of cols,
    formed in row blocks of QR_BLOCK_BYTES: one block up to n = 7, the whole
    residual's bits, and four at n = 8, where the rank-one direct solve then
    peaks at 0.66 MB traced instead of 1.07 MB."""
    rows = QR_BLOCK_BYTES // matrix[0].nbytes
    total = 0.0
    for lo in range(0, len(matrix), rows):
        residual = cols.T[lo : lo + rows] @ cols.conj()
        np.subtract(matrix[lo : lo + rows], residual, out=residual)
        total += np.vdot(residual, residual).real
    return float(np.sqrt(total))


def _range_map(rho: DensityMatrix, r_max: int) -> np.ndarray | None:
    """The realified commutator map of rho compressed onto the range of
    rho, as 3n planes of ((3n+1) r)^2 rows, or None when rho has rank above
    r_max or its factor fails the residual check.

    With rho = L L^dagger and W = [L, G_c L] for the 3n generators G_c, every
    commutator [X, rho] = X L L^dagger - L (X^dagger L)^dagger has its range,
    and being Hermitian its row space, in range(W).  So with Q the thin QR
    factor of W, X -> Q^dagger [X, rho] Q is an isometry of the whole map:
    the same 3n singular values and the same kernel.  Q's span contains
    range(W) whatever W's rank, so no rank is decided here.  Q^dagger W is
    the triangular factor R, so Q is never formed: with C = Q^dagger L and
    B_c = Q^dagger G_c L, both column blocks of R, the compressed commutator
    of G_c is B_c C^dagger + C B_c^dagger, realified as Re + Im exactly as
    _density_planes does.  The generator images are the pure planes of
    _sign_flip_planes applied to the columns of L, the phase plane -i L
    standing in for L.

    Residual check: the map of rho differs from that of L L^dagger by at
    most 2 sqrt(n) ||rho - L L^dagger||_F in operator norm, since ||X|| <=
    sqrt(n) |x| on su(2)^n and ||[X, E]||_F <= 2 ||X|| ||E||_F.  The whole
    map's Householder QR applies 3n reflections, each backward stable to
    about eps ||A||_F, so that route already carries an error of about
    3n eps ||A||_F.  L is accepted only when 2 sqrt(n) ||rho - L
    L^dagger||_F <= 3n eps ||A||_F, with ||A||_F read off the compressed
    map, and the norm of rho - L L^dagger is computed entry by entry, not
    from the remaining diagonal: a Hermitian rho that is not positive can
    leave a zero diagonal and a nonzero remainder off it.
    """
    n = rho.n
    d = 2**n
    k = 3 * n
    cols = _range_factor(rho.matrix, r_max)
    if cols is None:
        return None
    residual_norm = _residual_norm(rho.matrix, cols)
    r = len(cols)
    # (generator, column of L, Re/Im, row) to the complex (2**n, (3n+1) r) W
    planes = _sign_flip_planes(cols).reshape(r, k + 1, 2, d).swapaxes(0, 1)
    w = planes[:, :, 0] + 1j * planes[:, :, 1]
    tri = np.linalg.qr(w.reshape((k + 1) * r, d).T, mode="r")
    q = tri.shape[0]
    c = 1j * tri[:, :r]  # L = i (-i L)
    b = tri[:, r:].reshape(q, k, r).swapaxes(0, 1)
    # with P = B_c C^dagger, Re + Im of P + P^dagger is (Re P + Im P) + (Re P - Im P)^T
    half = b @ c.conj().T
    compressed = half.real + half.imag
    np.subtract(half.real, half.imag, out=half.real)
    compressed += half.real.swapaxes(1, 2)
    if 2.0 * np.sqrt(n) * residual_norm > k * np.finfo(np.float64).eps * np.linalg.norm(compressed):
        return None
    return compressed.reshape(k, q * q)


def _density_direct(rho: DensityMatrix, tol: float):
    """Solve [X, rho] = 0 on all of su(2)^n.

    A rho of rank r with (3n+1) r <= RANGE_ROUTE_RATIO * 2**n is solved on
    its range by _range_map, a map of (3n+1)^2 r^2 rows; a higher rank, or a
    factor that fails _range_map's residual check, takes the whole map of
    4^n rows.  Either map goes to _null_spaces.
    """
    n = rho.n
    r_max = int(RANGE_ROUTE_RATIO * 2**n) // (3 * n + 1)
    real_map = _range_map(rho, r_max) if r_max else None
    if real_map is None:
        real_map = _density_planes(rho)
    return _null_spaces(real_map.T[None], tol)[0]


def _drop_phase(pure: StabilizerBasis) -> StabilizerBasis:
    """Density stabilizer of |psi><psi| from the pure stabilizer of psi.

    Dropping the u(1) phase coordinate maps the pure stabilizer onto the
    density stabilizer of the same state; the projected rows are cut at the
    pure basis's own tol.  The result keeps the spectrum and cut of the pure
    map, so its gap and rank margin too, and its method is 'projected'.
    """
    rows = pure.basis[:, 1:]
    if rows.shape[0]:
        _, s, vh = np.linalg.svd(rows, full_matrices=False)
        r = numerical_rank(s, pure.tol)
        if r != pure.dim:
            warnings.warn("phase projection lost stabilizer directions; input may be ill-conditioned")
        rows = vh[:r]
    return StabilizerBasis("density", pure.n, rows, pure.singular_values, pure.tol, method="projected")


def _density_projected(rho: DensityMatrix, tol: float) -> StabilizerBasis:
    """Rank-one shortcut: solve the pure stabilizer and drop the phase."""
    return _drop_phase(stabilizer_pure(_dominant_eigenvector(rho), tol))


def stabilizer_density(rho: DensityMatrix, tol: float = NULL_TOL, method: str = "auto") -> StabilizerBasis:
    """Stabilizer of a density matrix inside su(2)^n, from one solve.

    method 'direct' solves the commutator map on all of su(2)^n: on the
    range of rho when its rank r is low, at O(4^n r) for the residual check
    of rho's factor and O(2^n n^2 r^2) for the compression, and otherwise on
    the whole map, at O(4^n n^2).  It does not rely on rho being positive.
    'projected' recovers the pure state of a rank-one input and drops the
    phase from its pure stabilizer.  'auto' is 'direct' up to
    DENSITY_DIRECT_LIMIT qubits and 'projected' above it, where a mixed
    input raises and 'direct' is the method that solves it.  That the two
    routes agree on rank-one inputs is phase_projection_check's to show.
    """
    n = rho.n
    if method not in ("auto", "direct", "projected"):
        raise ValueError(f"unknown method {method!r}")
    if method == "direct" or (method == "auto" and n <= DENSITY_DIRECT_LIMIT):
        rows, svals = _density_direct(rho, tol)
        return StabilizerBasis("density", n, rows, svals, tol, method="direct")
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


@dataclass(frozen=True, eq=False)
class AlgebraType:
    """Lie-algebra classification of a stabilizer span.

    kind is 'abelian', 'su2', or 'other'.  closure_residual is the largest
    distance from a pairwise bracket back to the span; structure_constants
    c[i, j, :] expand [e_i, e_j] in the basis when the algebra closes and
    are exactly antisymmetric in i and j.
    """

    kind: str
    closed: bool
    closure_residual: float
    structure_constants: np.ndarray | None
    killing_eigenvalues: np.ndarray | None


def algebra_type(k: StabilizerBasis) -> AlgebraType:
    """Classify the Lie algebra spanned by a stabilizer basis; brackets
    below CLOSURE_TOL count as zero and so do residuals off the span.

    One broadcast forms all dim^2 brackets: on each qubit, [X_i, X_j] is
    twice the cross product of the coordinate blocks, and its central u(1)
    part is zero.  Two products with the basis expand the brackets and give
    their residuals off the span.  Dimensions 0 and 1 build no table.
    """
    dim = k.dim
    if dim <= 1:
        return AlgebraType("abelian", True, 0.0, None, None)
    off = 1 if k.ambient == "pure" else 0
    coords = k.basis[:, off:]
    blocks = coords.reshape(dim, k.n, 3)
    # a x b = nxt(a) prv(b) - prv(a) nxt(b), component by component as np.cross
    nxt, prv = blocks[..., [1, 2, 0]], blocks[..., [2, 0, 1]]
    brackets = 2.0 * (nxt[:, None] * prv - prv[:, None] * nxt).reshape(dim * dim, -1)
    coeff = brackets @ coords.T
    resid = coeff @ k.basis
    resid[:, off:] -= brackets
    max_norm = float(np.linalg.norm(brackets, axis=1).max())
    max_resid = float(np.linalg.norm(resid, axis=1).max())
    # [X_j, X_i] = -[X_i, X_j] exactly, but the product may round them apart
    const = coeff.reshape(dim, dim, dim)
    const = 0.5 * (const - const.swapaxes(0, 1))
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
