"""The local unitary group U(1) x SU(2)^n and its Lie algebra action.

The single-qubit algebra su(2) is spanned by three skew-Hermitian matrices
(listed in SU2_BASIS): the diagonal generator i*sigma_z, then -i*sigma_y,
then i*sigma_x.  They satisfy the cyclic bracket relations
[e1, e0] = 2 e2, [e0, e2] = 2 e1, [e2, e1] = 2 e0.  Coordinates (x, y, z)
always refer to x*e0 + y*e1 + z*e2.  The extra u(1) direction acts on states
as -i t * identity and is only meaningful for pure-state stabilizers.
"""

from dataclasses import dataclass

import numpy as np

from .states import PureState, DensityMatrix, apply_factors, apply_matrix_to_qubit

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

# basis of su(2): diagonal generator first, then the two off-diagonal ones
SU2_BASIS = np.stack([1j * PAULI_Z, -1j * PAULI_Y, 1j * PAULI_X])


def su2_matrix(coords) -> np.ndarray:
    """2x2 skew-Hermitian matrix with the given basis coordinates."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (3,):
        raise ValueError(f"su(2) coordinates have shape (3,), got {coords.shape}")
    return np.tensordot(coords, SU2_BASIS, axes=1)


def su2_coords(mat: np.ndarray) -> np.ndarray:
    """Inverse of su2_matrix; rejects matrices outside su(2)."""
    mat = np.asarray(mat, dtype=np.complex128)
    coords = np.array([-np.trace(e @ mat).real / 2.0 for e in SU2_BASIS])
    if np.max(np.abs(su2_matrix(coords) - mat)) > 1e-12:
        raise ValueError("matrix is not in su(2)")
    return coords


def _exp_and_dexp(v: np.ndarray):
    """exp(m_j) for the su(2) elements m_j = su2_matrix(v[j]) of an (n, 3)
    array v, shape (n, 2, 2), and its derivatives d[j, a] along coordinate a,
    shape (n, 3, 2, 2), in one broadcast: with theta = |v_j|, m_j^2 =
    -theta^2 I, so exp(m_j) = cos(theta) I + sinc(theta) m_j, and
    d(theta)/dv_a = v_a / theta."""
    theta = np.linalg.norm(v, axis=1)[:, None, None]
    c, sinc = np.cos(theta), np.sinc(theta / np.pi)
    m = (v @ SU2_BASIS.reshape(3, 4)).reshape(-1, 2, 2)
    eye = np.eye(2)
    # (c - sinc) / theta^2 tends to -1/3; a row with theta = 0 has v = 0
    k = (c - sinc) / np.where(theta > 0.0, theta, 1.0) ** 2
    d = v[:, :, None, None] * (k * m - sinc * eye)[:, None] + sinc[:, None] * SU2_BASIS
    return c * eye + sinc * m, d


def exp_su2(coords) -> np.ndarray:
    """Matrix exponential of an su(2) element, in closed form:
    cos(theta) I + (sin(theta)/theta) M for M = su2_matrix(coords), theta = |coords|."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (3,):
        raise ValueError(f"su(2) coordinates have shape (3,), got {coords.shape}")
    return _exp_and_dexp(coords[None])[0][0]


@dataclass(frozen=True, eq=False)
class LieElement:
    """Element of u(1) + su(2)^n in coordinates.

    phase is the coefficient t of the u(1) generator (acting as -i t * Id on
    states); coords has shape (n, 3), row j-1 holding the su(2) coordinates
    of the qubit-j block.
    """

    phase: float
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64).copy()
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise ValueError(f"coords must have shape (n, 3), got {coords.shape}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "phase", float(self.phase))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def block(self, j: int) -> np.ndarray:
        """2x2 matrix of the qubit-j block."""
        return su2_matrix(self.coords[j - 1])

    def to_flat(self) -> np.ndarray:
        """Real coordinate vector (phase, x1, y1, z1, x2, ...)."""
        return np.concatenate([[self.phase], self.coords.reshape(-1)])


def lie_element_from_flat(flat: np.ndarray, n: int, ambient: str) -> LieElement:
    """Rebuild a LieElement from solver coordinates ('pure' includes phase)."""
    flat = np.asarray(flat, dtype=np.float64)
    if ambient == "pure":
        if flat.size != 3 * n + 1:
            raise ValueError(f"expected {3 * n + 1} coordinates, got {flat.size}")
        return LieElement(phase=flat[0], coords=flat[1:].reshape(n, 3))
    if ambient == "density":
        if flat.size != 3 * n:
            raise ValueError(f"expected {3 * n} coordinates, got {flat.size}")
        return LieElement(phase=0.0, coords=flat.reshape(n, 3))
    raise ValueError(f"ambient must be 'pure' or 'density', got {ambient!r}")


def embed(n: int, j: int, coords) -> LieElement:
    """Single-slot element with the given su(2) coordinates at qubit j."""
    if not 1 <= j <= n:
        raise ValueError(f"qubit label {j} out of range for n={n}")
    block = np.zeros((n, 3))
    block[j - 1] = np.asarray(coords, dtype=np.float64)
    return LieElement(phase=0.0, coords=block)


def apply_infinitesimal(x: LieElement, psi: PureState) -> np.ndarray:
    """Unnormalized vector X|psi> = -i t |psi> + sum_j X_j |psi>."""
    if x.n != psi.n:
        raise ValueError(f"element on {x.n} qubits applied to state on {psi.n}")
    out = (-1j * x.phase) * psi.vector
    for j in range(1, x.n + 1):
        if np.any(x.coords[j - 1]):
            out = out + apply_matrix_to_qubit(x.block(j), psi.vector, j, x.n)
    return out


def commutator_action(x: LieElement, rho: DensityMatrix) -> np.ndarray:
    """Matrix [X, rho] for X in su(2)^n (zero phase required).

    rho X is formed as (X^dagger rho^dagger)^dagger, a left product, which
    holds for any square rho, exactly Hermitian or not.
    """
    if x.phase != 0.0:
        raise ValueError("commutator_action requires a zero u(1) component")
    if x.n != rho.n:
        raise ValueError(f"element on {x.n} qubits applied to state on {rho.n}")
    left = np.zeros_like(rho.matrix)
    right = np.zeros_like(rho.matrix)
    rho_h = rho.matrix.conj().T
    for j in range(1, x.n + 1):
        if np.any(x.coords[j - 1]):
            m = x.block(j)
            left += apply_matrix_to_qubit(m, rho.matrix, j, x.n)
            right += apply_matrix_to_qubit(m.conj().T, rho_h, j, x.n)
    return left - right.conj().T


def diagonal_commutator_weight(i_bits, j_bits, t) -> complex:
    """Coefficient multiplying rho[I, J] in [X, rho] for diagonal X.

    For X = sum_k t_k e0 at qubit k, the commutator scales the (I, J) entry
    of rho by 2i * sum over positions where the two indices differ of
    (-1)**i_k * t_k.
    """
    i_bits = tuple(i_bits)
    j_bits = tuple(j_bits)
    t = np.asarray(t, dtype=np.float64)
    if len(i_bits) != len(j_bits) or len(i_bits) != t.size:
        raise ValueError("index and coefficient lengths must agree")
    acc = 0.0
    for ik, jk, tk in zip(i_bits, j_bits, t):
        if ik != jk:
            acc += (-1.0) ** ik * tk
    return 2j * acc


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Element of U(1) x SU(2)^n: a unit global phase and n SU(2) factors."""

    factors: np.ndarray
    global_phase: complex = 1.0 + 0j

    def __post_init__(self):
        factors = np.asarray(self.factors, dtype=np.complex128).copy()
        if factors.ndim != 3 or factors.shape[1:] != (2, 2):
            raise ValueError(f"factors must have shape (n, 2, 2), got {factors.shape}")
        # every factor at once; the first failing factor is named, and a
        # factor failing both checks is reported as not unitary
        gram = factors @ factors.conj().swapaxes(1, 2)
        not_unitary = np.max(np.abs(gram - np.eye(2)), axis=(1, 2)) > 1e-10
        det = factors[:, 0, 0] * factors[:, 1, 1] - factors[:, 0, 1] * factors[:, 1, 0]
        failed = not_unitary | (np.abs(det - 1.0) > 1e-10)
        if failed.any():
            k = int(np.argmax(failed))
            what = "is not unitary" if not_unitary[k] else "has determinant != 1"
            raise ValueError(f"factor {k + 1} {what}")
        phase = complex(self.global_phase)
        if abs(abs(phase) - 1.0) > 1e-10:
            raise ValueError("global phase must have unit modulus")
        factors.flags.writeable = False
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "global_phase", phase)

    @property
    def n(self) -> int:
        return self.factors.shape[0]


def identity_local_unitary(n: int) -> LocalUnitary:
    return LocalUnitary(np.broadcast_to(np.eye(2, dtype=np.complex128), (n, 2, 2)))


def compose(g2: LocalUnitary, g1: LocalUnitary) -> LocalUnitary:
    """Composite acting as g2 after g1."""
    if g1.n != g2.n:
        raise ValueError("factor counts differ")
    return LocalUnitary(np.matmul(g2.factors, g1.factors), g2.global_phase * g1.global_phase)


def inverse(g: LocalUnitary) -> LocalUnitary:
    return LocalUnitary(np.conj(np.swapaxes(g.factors, 1, 2)), np.conj(g.global_phase))


def apply_local_unitary(g: LocalUnitary, psi: PureState) -> PureState:
    """g|psi>; each factor touches one qubit, so cost is n * 2**n."""
    if g.n != psi.n:
        raise ValueError(f"unitary on {g.n} qubits applied to state on {psi.n}")
    return PureState(apply_factors(g.factors, psi.vector * g.global_phase))


def conjugate_density(g: LocalUnitary, rho: DensityMatrix) -> DensityMatrix:
    """g rho g^dagger = (g (g rho)^dagger)^dagger; the global phase cancels."""
    if g.n != rho.n:
        raise ValueError(f"unitary on {g.n} qubits applied to state on {rho.n}")
    left = apply_factors(g.factors, rho.matrix)
    return DensityMatrix(apply_factors(g.factors, left.conj().T).conj().T)


def conjugate_element(g: LocalUnitary, x: LieElement) -> LieElement:
    """Adjoint action: block j becomes g_j X_j g_j^dagger, phase unchanged."""
    if g.n != x.n:
        raise ValueError("sizes differ")
    coords = np.empty_like(x.coords)
    for j in range(1, x.n + 1):
        u = g.factors[j - 1]
        coords[j - 1] = su2_coords(u @ x.block(j) @ u.conj().T)
    return LieElement(phase=x.phase, coords=coords)


def haar_su2(count: int, rng) -> np.ndarray:
    """(count, 2, 2) stack of independent Haar-distributed SU(2) matrices.

    Complex Ginibre matrices are QR-decomposed in one batch, the phases fixed
    so R has a positive diagonal (giving Haar on U(2)), then each determinant
    is rescaled to 1.
    """
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    return q / np.sqrt(np.linalg.det(q))[:, None, None]


def haar_random_local_unitary(n: int, rng) -> LocalUnitary:
    """Independent Haar SU(2) factor per qubit plus a uniform global phase."""
    rng = np.random.default_rng(rng)
    factors = haar_su2(n, rng)
    phase = np.exp(2j * np.pi * rng.uniform())
    return LocalUnitary(factors, phase)
