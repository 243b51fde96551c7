"""n-qubit pure states, density matrices, and tensor index arithmetic.

Conventions used throughout the package: qubits carry 1-based labels, and the
computational basis index (i1, ..., in) maps to the integer
sum(i_k * 2**(n-k)), so qubit 1 is the most significant bit.  Amplitude
vectors are dense complex128 arrays; the implementation targets desk scale
(n up to about 12).

Kernels.  apply_matrix_to_qubit applies a 2x2 matrix to one qubit leg of
any array whose first axis has length 2**n (a density matrix from the left;
a right product is the adjoint of a left one), and apply_factors one factor
per qubit; the local-unitary action, the canonicalisers and the equivalence
witnesses all go through them.  _sign_flip_planes applies every generator
of u(1) + su(2)^n at once, as signed, bit-flipped copies of Re psi and
Im psi: the pure stabilizer map, the optimizer gradient and is_product's
correlation graph read them, and stabilizer._density_planes builds the
direct density map the same way from Re rho +- Im rho.  reduced_states
forms reduced states from amplitudes: the Gram matrices of the amplitude
matrices of an (S, 2**n) stack.  Every marginal comes from it but the
product test's, which takes the SVD of the same amplitude matrix; the
invariant fingerprint forms only its largest sides there and takes the
smaller ones as partial traces (invariants._purity_table).  subset_purity
and the other per-state kernels are stacks of one of their stacked forms,
whose chunks hold at most STACK_AMPLITUDES amplitudes.

The package has one numerical zero: numerical_rank's relative cut at
NULL_TOL, which decides the stabilizer rank, the Schmidt rank in is_product
and the vanishing of canonical amplitudes, all linear in what vanishes.
is_product reads product structure off the two-qubit correlation graph,
whose edge bound is derived from that cut so that no edge crosses a pure
cut, and tests only cuts between its components.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

# states are renormalized (with a warning) when the norm misses 1 by more than this
NORM_TOL = 1e-10
# relative magnitude cutoff for every rank and vanishing decision
NULL_TOL = 1e-8
# stacked kernels take at most this many amplitudes per chunk, one n = 12
# state, so their working arrays stay bounded and n = 12 states run alone
STACK_AMPLITUDES = 2**12
# is_product's fallback enumerates bipartitions of uncorrelated components,
# which is only sane up to this many components
PRODUCT_ENUM_LIMIT = 16


def numerical_rank(s: np.ndarray, tol: float) -> int:
    """Number of nonnegative magnitudes in s above tol times the largest."""
    return int(np.count_nonzero(s > tol * s.max(initial=0.0)))


def int_to_bits(value: int, n: int) -> tuple[int, ...]:
    """Binary digits (i1, ..., in) of a basis index, qubit 1 most significant."""
    if not 0 <= value < 2**n:
        raise ValueError(f"index {value} out of range for n={n}")
    return tuple((value >> (n - 1 - k)) & 1 for k in range(n))


def bits_to_int(bits) -> int:
    """Inverse of int_to_bits."""
    out = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"binary digits required, got {bits!r}")
        out = (out << 1) | b
    return out


def bit_table(n: int) -> np.ndarray:
    """(2**n, n) array whose row k holds int_to_bits(k, n)."""
    k = np.arange(2**n)
    return (k[:, None] >> (n - 1 - np.arange(n))) & 1


def stack_length(n: int) -> int:
    """States of n qubits in one chunk of a stacked kernel, at least one."""
    return max(1, STACK_AMPLITUDES >> n)


def _stack_qubits(vectors: np.ndarray) -> int:
    """Qubit count n of an (S, 2**n) stack of amplitude vectors."""
    size = vectors.shape[-1] if vectors.ndim else 0
    n = size.bit_length() - 1
    if vectors.ndim != 2 or n < 1 or size != 1 << n:
        raise ValueError(f"stack of 2**n amplitude vectors required, got shape {vectors.shape}")
    return n


def _power_of_two_scaled(vec: np.ndarray) -> tuple[np.ndarray, int]:
    """(vec 2**-e, e), the largest real or imaginary part in [0.5, 1): an
    exact scaling whose norm neither overflows nor underflows."""
    parts = np.ascontiguousarray(vec, dtype=np.complex128).view(np.float64)
    exponent = math.frexp(np.abs(parts).max())[1]
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


def _check_subset(n: int, subset) -> tuple[int, ...]:
    subset = tuple(subset)
    if len(subset) == 0:
        raise ValueError("qubit subset must be nonempty")
    if list(subset) != sorted(set(subset)):
        raise ValueError(f"qubit subset must be strictly increasing, got {subset}")
    if subset[0] < 1 or subset[-1] > n:
        raise ValueError(f"qubit labels must lie in 1..{n}, got {subset}")
    return subset


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm pure state of n qubits.

    Parameters
    ----------
    vector : array_like
        2**n complex amplitudes in the index convention above.  The vector is
        copied, and renormalized with a warning if its norm misses 1 by more
        than NORM_TOL; a vector whose squared norm would overflow or
        underflow is first scaled by a power of two.  The zero vector and
        vectors with a NaN or infinite amplitude are rejected.
    """

    vector: np.ndarray
    n: int = 0

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.complex128).reshape(-1).copy()
        n = vec.size.bit_length() - 1
        if n < 1 or vec.size != 1 << n:
            raise ValueError(f"amplitude count {vec.size} is not 2**n with n >= 1")
        # the plain norm overflows, or loses precision below tiny, on some finite vectors
        with np.errstate(over="ignore"):
            nrm = scale = np.linalg.norm(vec)
        if not np.finfo(np.float64).tiny <= nrm * nrm < np.inf:
            if not np.isfinite(vec).all():
                raise ValueError("amplitudes must be finite")
            if not vec.any():
                raise ValueError("zero vector is not a state")
            vec, exponent = _power_of_two_scaled(vec)
            scale = np.linalg.norm(vec)
            nrm = np.ldexp(scale, exponent)
        if abs(nrm - 1.0) > NORM_TOL:
            warnings.warn(f"renormalizing input state (norm was {nrm:.6g})")
            vec = vec / scale
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "n", n)

    def amplitude(self, bits) -> complex:
        return complex(self.vector[bits_to_int(bits)])

    def tensor(self) -> np.ndarray:
        """Read-only view with shape (2,) * n."""
        return self.vector.reshape((2,) * self.n)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one positive semidefinite operator on n qubits.

    Hermiticity relative to the trace, max |m - m^dagger| <= 100 NORM_TOL
    |tr m|, and unit trace are checked at construction: a positive trace
    that misses 1 is rescaled with a warning, a zero or negative one is
    rejected.  Positivity is preserved by every constructor in this package
    (pure projectors, partial traces, unitary conjugation), so the full
    eigenvalue check is deferred to validate() for use in tests.  The direct
    density stabilizer solve does not rely on positivity: it accepts a
    low-rank factor of rho only after an explicit Frobenius residual check,
    and solves the whole commutator map otherwise.  Construction copies the
    input once and forms m - m^dagger on one transposed copy (2.62 MB traced
    peak at n = 8).
    """

    matrix: np.ndarray
    n: int = 0

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"square matrix required, got shape {mat.shape}")
        n = mat.shape[0].bit_length() - 1
        if n < 1 or mat.shape[0] != 1 << n:
            raise ValueError(f"dimension {mat.shape[0]} is not 2**n with n >= 1")
        # a ufunc reading mat.T in place strides by a whole row per entry
        diff = mat.T.copy()
        np.conjugate(diff, out=diff)
        # an infinite entry makes inf - inf here, a NaN the test below rejects
        with np.errstate(invalid="ignore"):
            tr = np.trace(mat).real
            np.subtract(mat, diff, out=diff)
        # relative to the trace, so that the stored mat / tr is Hermitian to
        # 100 NORM_TOL; written so that a NaN or infinite entry fails it too
        if not np.max(np.abs(diff)) <= 100 * NORM_TOL * abs(tr):
            raise ValueError("matrix is not Hermitian with finite entries")
        if not tr > 0.0:
            raise ValueError(f"trace {tr:.6g} is not positive")
        if abs(tr - 1.0) > NORM_TOL:
            warnings.warn(f"rescaling density matrix (trace was {tr:.6g})")
            mat /= tr
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "n", n)

    def validate(self, tol: float = NORM_TOL) -> None:
        """Full positivity check; raises on eigenvalues below -tol."""
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -tol:
            raise ValueError(f"negative eigenvalue {evals.min():.3g}")


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    return DensityMatrix(np.outer(psi.vector, psi.vector.conj()))


def apply_matrix_to_qubit(mat: np.ndarray, arr: np.ndarray, j: int, n: int) -> np.ndarray:
    """Apply a 2x2 matrix to qubit j (1-based) of arr, any array whose first
    axis has length 2**n: an amplitude vector, or a density matrix, which is
    then multiplied from the left."""
    t = arr.reshape(2 ** (j - 1), 2, -1)
    return np.einsum("ab,xby->xay", mat, t).reshape(arr.shape)


def apply_factors(factors: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Apply factors[j - 1] to qubit j for every qubit, as apply_matrix_to_qubit
    does one; the qubit count is len(factors)."""
    n = len(factors)
    for j in range(1, n + 1):
        arr = apply_matrix_to_qubit(factors[j - 1], arr, j, n)
    return arr


def partial_trace(rho: DensityMatrix, traced) -> DensityMatrix:
    """Trace out the qubits in `traced` (1-based labels); at least one must remain."""
    traced = _check_subset(rho.n, traced)
    if len(traced) == rho.n:
        raise ValueError("cannot trace out every qubit")
    n = rho.n
    dims = (2,) * n
    t = rho.matrix.reshape(dims + dims)
    # trace the highest-labeled qubit first so remaining axis offsets stay valid
    m = n
    for j in sorted(traced, reverse=True):
        t = np.trace(t, axis1=j - 1, axis2=m + j - 1)
        m -= 1
    d = 2**m
    return DensityMatrix(t.reshape(d, d))


def reduced_state(psi: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept qubits: a stack of
    one for reduced_states."""
    keep = _check_subset(psi.n, keep)
    return DensityMatrix(reduced_states(psi.vector[None], keep)[0])


def reduced_states(vectors: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrices on the kept qubits of each state of an
    (S, 2**n) stack: the (S, 2**k, 2**k) Gram matrices of its amplitude
    matrices, k = len(keep).  keep holds strictly increasing labels in 1..n,
    as _check_subset returns them; the caller checks it."""
    m = _amplitude_matrices(vectors, keep)
    return m @ m.conj().swapaxes(1, 2)


def _amplitude_matrices(vectors: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Reshape each row of an (S, 2**n) stack into a (2**|keep|, 2**|rest|)
    matrix, giving an (S, 2**|keep|, 2**|rest|) array."""
    s, n = vectors.shape[0], vectors.shape[1].bit_length() - 1
    rest = [j for j in range(1, n + 1) if j not in keep]
    # qubit j is axis j of the (S, 2, ..., 2) tensor
    t = vectors.reshape((s,) + (2,) * n).transpose([0, *keep, *rest])
    return t.reshape(s, 2 ** len(keep), 2 ** len(rest))


# the real one-qubit matrices Z, X and J = -i sigma_y act on the rows of a
# real matrix W by a sign z(bit) = +-1, a flip of the bit, or both:
# (J W)[r] = -z(r) W[flip r]
_ROW_SIGN = np.array([1.0, -1.0])[:, None]


def _sign_flip_planes(vectors: np.ndarray) -> np.ndarray:
    """Realified pure maps of an (S, 2**n) stack of state vectors, shape
    (S, 3n+1, 2 * 2**n).

    Plane c of a state is generator c applied to it, (Re, Im) of length
    2 * 2**n.  The phase -i psi is (Im psi, -Re psi).  With z the sign of
    qubit j's bit and flip its bit flip, iZ_j psi is (-z Im psi, z Re psi),
    J_j psi = -iY_j psi is (J Re psi, J Im psi) with (J W)[r] = -z(r)
    W[flip r], and iX_j psi is (-flip Im psi, flip Re psi).  Every plane is
    a sign and perhaps a flip of (Re psi, Im psi), so each generator type is
    written for all n qubits at once, the flips of every qubit by one gather
    through the flipped row indices: the entries equal those of the complex
    products exactly.
    """
    s, d = vectors.shape
    n = d.bit_length() - 1
    # (S, 2, 2**n) view of (Re psi, Im psi)
    w = np.ascontiguousarray(vectors, dtype=np.complex128).view(np.float64)
    w = w.reshape(s, d, 2).swapaxes(1, 2)
    # qubit 1 is the most significant bit of a row index
    masks = 1 << np.arange(n - 1, -1, -1)[:, None]
    rows = np.arange(d)
    flips = rows ^ masks
    minus_z = np.where(rows & masks, 1.0, -1.0)
    planes = np.empty((s, 3 * n + 1, 2, d))
    np.multiply(w[:, ::-1], _ROW_SIGN, out=planes[:, 0])
    # (S, qubit, generator, Re/Im, row) views of planes 1 to 3n
    by_qubit = planes[:, 1:].reshape(s, n, 3, 2, d)
    np.multiply(planes[:, :1], minus_z[:, None], out=by_qubit[:, :, 0])
    # (S, qubit, Re/Im, row): (Re psi, Im psi) with qubit j's bit flipped
    flipped = w.take(flips, axis=2).swapaxes(1, 2)
    np.multiply(flipped, minus_z[:, None], out=by_qubit[:, :, 1])
    np.multiply(flipped[:, :, ::-1], -_ROW_SIGN, out=by_qubit[:, :, 2])
    return planes.reshape(s, 3 * n + 1, 2 * d)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), between 2**-n and 1."""
    return float(np.real(np.vdot(rho.matrix, rho.matrix)))


def subset_purity(psi: PureState, subset) -> float:
    """Purity of the reduced state of a pure state on a qubit subset: a
    stack of one for subset_purity_stack."""
    return float(subset_purity_stack(psi.vector[None], subset)[0])


def subset_purity_stack(vectors: np.ndarray, subset) -> np.ndarray:
    """Purity on a qubit subset of each state in an (S, 2**n) stack.

    Computed from the reduced states on whichever side of the bipartition
    is smaller.  Each entry is bit for bit what the state gets in a stack of
    its own.
    """
    n = _stack_qubits(vectors)
    subset = _check_subset(n, subset)
    if len(subset) == n:
        return np.ones(vectors.shape[0])
    if 2 * len(subset) > n:
        subset = tuple(j for j in range(1, n + 1) if j not in subset)
    return np.square(np.abs(reduced_states(vectors, subset))).sum(axis=(1, 2))


@dataclass(frozen=True)
class FactorizationReport:
    """Finest tensor factorization found by is_product.

    blocks holds disjoint qubit subsets covering 1..n; a single block means
    the state is nonproduct.
    """

    blocks: tuple[tuple[int, ...], ...]

    @property
    def is_product(self) -> bool:
        return len(self.blocks) > 1


def _bipartition_sides(n: int):
    """One side of every bipartition of qubits 1..n, each bipartition once:
    the subsets smaller than n/2, plus the half-size subsets containing
    qubit 1, in order of size and then lexicographically."""
    labels = range(1, n + 1)
    for k in range(1, n // 2 + 1):
        for subset in combinations(labels, k):
            if 2 * k == n and 1 not in subset:
                continue
            yield subset


def _pure_side(psi: PureState, subset: tuple[int, ...], tol: float) -> bool:
    """Whether the cut between subset and the rest is pure at tol: the
    singular values s0 >= s1 >= ... of the amplitude matrix M of its smaller
    side (of two halves, the one holding qubit 1), with k qubits, have
    numerical rank 1 at tol.

    The Gram matrix G = M M^dagger screens first, relative to the trace
    t = tr G = ||M||_F^2 = sum s_i^2, so that the NORM_TOL slack PureState
    leaves in the norm cannot pass for mixedness.  If s1 <= tol s0, the
    weights p_i = s_i^2 / t give 1 - p0 <= (2^k - 1) tol^2, so
    d = 1 - tr(G^2) / t^2 = 1 - sum p_i^2 <= 2 (1 - p0) < 2^(k+1) tol^2: a
    computed d above that plus its rounding floor proves s1 > tol s0, and
    only the other cuts take the SVD of M.  To first order in u = eps/2:
    Re and Im of each entry of G are dot products of length 2^(n-k+1), so
    tr(G^2) errs by at most 6 2^(n-k) u t^2; summing its 2 4^k squares
    costs 2 4^k u, t^2 from the 2^(n+1) squares of M (2^(n+2) + 1) u, the
    division u.  The total, (3 2^(n-k) + 2^(n+1) + 4^k + 1) eps, is below
    3.5 (2^n + 4^k) eps; the floor 4 (2^n + 4^k) eps also covers the
    second-order terms.
    """
    n = psi.n
    if 2 * len(subset) > n or (2 * len(subset) == n and 1 not in subset):
        subset = tuple(j for j in range(1, n + 1) if j not in subset)
    k = len(subset)
    amplitudes = _amplitude_matrices(psi.vector[None], subset)[0]
    gram = amplitudes @ amplitudes.conj().T
    deficit = 1.0 - np.vdot(gram, gram).real / np.vdot(amplitudes, amplitudes).real ** 2
    floor = 4.0 * (2.0**n + 4.0**k) * np.finfo(np.float64).eps
    if deficit > 2.0 ** (k + 1) * tol**2 + floor:
        return False
    schmidt = np.linalg.svd(amplitudes, compute_uv=False)
    return numerical_rank(schmidt, tol) == 1


def _correlation_components(psi: PureState, tol: float) -> list[tuple[int, ...]]:
    """Connected components of the two-qubit correlation graph, sorted.

    Qubits i and j share an edge when C = rho_ij - rho_i (x) rho_j has
    Frobenius norm above 6 sqrt(2^floor(n/2) - 1) tol, the largest
    correlation a cut that is pure at tol can carry.  Let the cut A|B have
    Schmidt coefficients s0 >= s1 >= ... (sum of squares 1) with s1 <= tol s0
    and Schmidt rank r <= 2^floor(n/2).  Then 1 - s0^2 <= (r - 1) tol^2.  The
    trace distance from psi to its leading Schmidt product is
    2 sqrt(1 - s0^2).  Partial traces are contractive and C vanishes on that
    product, so for i in A and j in B, ||C||_F <= ||C||_1 <= 6 sqrt(1 - s0^2).
    An edge therefore never crosses a pure cut, and every pure side is a
    union of components.

    Every ||C||_F comes from the Gram matrix G = P P^T of the sign-flip
    planes, G_ab = Re <psi|X_a^dagger X_b|psi>.  Generator a = i s sigma_a
    of qubit i and b of qubit j give G_ab = s_a s_b <sigma_a sigma_b> and,
    with the phase plane 0, G_0a G_0b = s_a s_b <sigma_a> <sigma_b>, so
    ||C||_F^2 = 1/4 sum_ab (G_ab - G_0a G_0b)^2.  The components are the
    rows of the reachability closure of the edges, ceil(log2 n) squarings.
    """
    n = psi.n
    bound = 6.0 * np.sqrt(2.0 ** (n // 2) - 1.0) * tol
    planes = _sign_flip_planes(psi.vector[None])[0]
    gram = planes @ planes.T
    corr = (gram[1:, 1:] - np.outer(gram[0, 1:], gram[0, 1:])).reshape(n, 3, n, 3)
    reach = 0.25 * np.square(corr).sum(axis=(1, 3)) > bound**2
    reach |= np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    return sorted({tuple((np.flatnonzero(row) + 1).tolist()) for row in reach})


def is_product(psi: PureState, tol: float = NULL_TOL) -> FactorizationReport:
    """Finest tensor factorization of a pure state, from its correlation graph.

    A cut is pure when its Schmidt coefficients have numerical rank 1 at
    tol, the stabilizer's cut.  Every pure side is a union of connected
    components of the two-qubit correlation graph (_correlation_components
    derives the edge bound from tol), so one component means nonproduct
    without any purity or SVD.  When every component is a pure side, the
    components are the blocks.  Otherwise the bipartitions of components,
    not of qubits, are tested and the blocks assembled from the pure sides.
    Edges missed because a correlation is quadratic in a small amplitude,
    or absent as in 2-uniform states, only cost time: that fallback then
    tests up to every qubit bipartition, each on one amplitude matrix whose
    Gram screen (_pure_side) leaves an SVD only to cuts near pure.
    """
    components = _correlation_components(psi, tol)
    # the fallback meets each single component again as a side
    pure_side = cache(lambda subset: _pure_side(psi, subset, tol))
    if len(components) == 1 or all(pure_side(c) for c in components):
        return FactorizationReport(blocks=tuple(components))
    m = len(components)
    if m > PRODUCT_ENUM_LIMIT:
        raise ValueError(
            f"is_product enumerates bipartitions of {m} uncorrelated components; "
            f"the limit is {PRODUCT_ENUM_LIMIT}"
        )
    labels = tuple(range(1, psi.n + 1))
    pure_subsets: list[tuple[int, ...]] = []
    for side in _bipartition_sides(m):
        subset = tuple(sorted(q for c in side for q in components[c - 1]))
        if pure_side(subset):
            pure_subsets.append(subset)
            pure_subsets.append(tuple(j for j in labels if j not in subset))
    pure_subsets.sort(key=lambda s: (len(s), s))
    # smallest pure side first: on the cut the pure sides found need not be
    # closed under intersection, and their atoms could split a block
    blocks = []
    remaining = set(labels)
    while remaining:
        q = min(remaining)
        fits = (s for s in pure_subsets if q in s and set(s) <= remaining)
        block = next(fits, tuple(sorted(remaining)))
        blocks.append(block)
        remaining -= set(block)
    return FactorizationReport(blocks=tuple(blocks))


def tensor_product(*states: PureState) -> PureState:
    """Kronecker product of pure states, labels concatenated in order."""
    vec = states[0].vector
    for s in states[1:]:
        vec = np.kron(vec, s.vector)
    return PureState(vec)


def basis_state(bits) -> PureState:
    """Computational basis state |i1 ... in>."""
    bits = tuple(bits)
    vec = np.zeros(2 ** len(bits), dtype=np.complex128)
    vec[bits_to_int(bits)] = 1.0
    return PureState(vec)


def ghz_state(n: int, alpha: float | complex = None, beta: float | complex = None) -> PureState:
    """Generalized GHZ state alpha|0...0> + beta|1...1> (balanced by default)."""
    if n < 2:
        raise ValueError("ghz_state needs n >= 2")
    if alpha is None and beta is None:
        alpha = beta = 1.0 / np.sqrt(2.0)
    elif beta is None:
        a2 = abs(alpha) ** 2
        if a2 >= 1.0:
            raise ValueError(f"|alpha| must be < 1 when beta is omitted, got {alpha}")
        beta = np.sqrt(1.0 - a2)
    if alpha == 0 or beta == 0:
        raise ValueError("ghz_state requires alpha * beta != 0")
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[0] = alpha
    vec[-1] = beta
    return PureState(vec)


def w_state(n: int) -> PureState:
    """Equal superposition of the weight-one basis states."""
    if n < 2:
        raise ValueError("w_state needs n >= 2")
    vec = np.zeros(2**n, dtype=np.complex128)
    vec[1 << np.arange(n)] = 1.0
    return PureState(vec / np.sqrt(n))


def singlet_state() -> PureState:
    """Two-qubit singlet (|01> - |10>)/sqrt(2)."""
    return PureState(np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2.0))


def complement_pair_state(r: complex, s: complex, t: complex) -> PureState:
    """Four-qubit state with amplitude r on |0011> and |1100>, s on |1001>
    and |0110>, and t on |1010> and |0101>.

    Every occupied basis ket is paired with its bitwise complement at equal
    amplitude.  The result is normalized.
    """
    vec = np.zeros(16, dtype=np.complex128)
    vec[0b0011] = vec[0b1100] = r
    vec[0b1001] = vec[0b0110] = s
    vec[0b1010] = vec[0b0101] = t
    return PureState(vec / np.linalg.norm(vec))


def canonical_four_qubit_state(a: float, b: complex) -> PureState:
    """Canonical representative with coefficients (a, b, c), c = -a - b.

    Requires a > 0 and a, b, c all nonzero; this is the normal form for
    nonproduct four-qubit states whose stabilizer is a copy of su(2).
    """
    if not a > 0:
        raise ValueError(f"canonical form requires a > 0, got a={a}")
    c = -a - b
    if b == 0 or c == 0:
        raise ValueError("canonical form requires a, b, c all nonzero")
    return complement_pair_state(a, b, c)


def random_state(n: int, rng) -> PureState:
    """Haar-random pure state (normalized complex Gaussian amplitudes)."""
    rng = np.random.default_rng(rng)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(vec / np.linalg.norm(vec))
