"""Classification of nonproduct states with maximal stabilizer dimension.

For n >= 3 qubits, a nonproduct pure state whose stabilizer has the maximal
dimension n-1 falls into one of two classes: every qubit projection of the
stabilizer is one-dimensional and the state is equivalent to a generalized
GHZ state, or n = 4 with all projections three-dimensional, the stabilizer a
copy of su(2), and the state equivalent to a canonical complement-pair state.
This module detects the branch and builds the canonical form from the
stabilizer itself, together with a local unitary achieving it.  No
invariant or optimizer search is involved: in both classes the stabilizer
fixes the canonicalising unitary up to symmetries of the canonical form.
"""

from dataclasses import dataclass

import numpy as np

from .states import PureState, canonical_four_qubit_state, is_product
from .local_unitary import (
    SU2_BASIS,
    LocalUnitary,
    apply_local_unitary,
    compose,
    su2_matrix,
)
from .stabilizer import (
    NULL_TOL,
    StabilizerBasis,
    algebra_type,
    stabilizer_pure,
)

# infidelity below this certifies a local-unitary witness: a four-qubit
# canonical form here, an equivalence in decide_equivalence
EQUIV_TOL = 1e-7
# off-support amplitude mass allowed after GHZ reduction
SUPPORT_TOL = 1e-8
# the stabilizer's defining normal vector must be balanced to this
BALANCE_TOL = 1e-7
# four-qubit coefficients below this put the state outside the abc != 0 class
COEFF_TOL = 1e-8


class CanonicalizationError(RuntimeError):
    """Input violates the preconditions or conditioning of a canonical form."""


def _single_factor_unitary(n: int, j: int, mat: np.ndarray, phase: complex = 1.0) -> LocalUnitary:
    factors = np.stack([np.eye(2, dtype=np.complex128)] * n)
    factors[j - 1] = mat
    return LocalUnitary(factors, phase)


def _align_to_diagonal(direction: np.ndarray) -> np.ndarray:
    """SU(2) matrix h with h M(u) h^dag = M(e0) for a unit direction u.

    Works by eigenvector alignment: -i M(u) is Hermitian with eigenvalues
    +-1, and sending its +1 eigenvector to |0> conjugates M(u) onto the
    diagonal generator.
    """
    m = su2_matrix(direction)
    evals, evecs = np.linalg.eigh(-1j * m)
    # ascending eigenvalues: column 1 belongs to +1
    u = np.column_stack([evecs[:, 1], evecs[:, 0]])
    h = u.conj().T
    det = np.linalg.det(h)
    return h / np.sqrt(det)


def _fix_ghz_phases(psi: PureState) -> tuple[PureState, LocalUnitary]:
    """Rotate both extreme amplitudes real positive (qubit-1 diagonal
    rotation plus a global phase)."""
    n = psi.n
    a0 = psi.vector[0]
    a1 = psi.vector[-1]
    arg0 = float(np.angle(a0))
    arg1 = float(np.angle(a1))
    theta_g = -(arg0 + arg1) / 2.0
    theta_1 = (arg1 - arg0) / 2.0
    rot = np.diag([np.exp(1j * theta_1), np.exp(-1j * theta_1)])
    g = _single_factor_unitary(n, 1, rot, np.exp(1j * theta_g))
    return apply_local_unitary(g, psi), g


@dataclass(frozen=True, eq=False)
class GhzCanonicalForm:
    alpha: float
    beta: float
    unitary: LocalUnitary
    residual: float


def canonicalize_ghz(
    psi: PureState, stab: StabilizerBasis | None = None, tol: float = NULL_TOL
) -> GhzCanonicalForm:
    """Reduce a state with maximal stabilizer and all qubit projections
    one-dimensional to the form alpha|0...0> + beta|1...1>.

    Returns alpha >= beta > 0 with alpha^2 + beta^2 = 1 and the composite
    local unitary g with g|psi> equal to the canonical state up to the
    reported residual.
    """
    n = psi.n
    k = stab if stab is not None else stabilizer_pure(psi, tol)
    if k.dim != n - 1 or any(d != 1 for d in k.proj_dims):
        raise CanonicalizationError(
            f"need stabilizer dim {n - 1} with all projections 1, got dim {k.dim}, "
            f"projections {k.proj_dims}"
        )
    # step 1: rotate each qubit's stabilizer direction onto the diagonal generator
    factors = np.empty((n, 2, 2), dtype=np.complex128)
    for j in range(1, n + 1):
        block = k.block_columns(j)
        _, _, vh = np.linalg.svd(block)
        factors[j - 1] = _align_to_diagonal(vh[0])
    g_total = LocalUnitary(factors)
    cur = apply_local_unitary(g_total, psi)
    # step 2: the stabilizer is now diagonal; read off its normal vector
    k2 = stabilizer_pure(cur, tol)
    if k2.dim != n - 1:
        raise CanonicalizationError("stabilizer dimension changed under alignment")
    coords = k2.basis[:, 1:].reshape(k2.dim, n, 3)
    off_diag = float(np.max(np.abs(coords[:, :, 1:]), initial=0.0))
    if off_diag > 1e-6:
        raise CanonicalizationError(
            f"stabilizer not diagonal after alignment (residual {off_diag:.2e})"
        )
    diag = coords[:, :, 0]
    _, _, vh = np.linalg.svd(diag)
    normal = vh[-1]
    mags = np.abs(normal)
    if np.max(np.abs(mags - mags.mean())) > BALANCE_TOL:
        raise CanonicalizationError(
            f"normal vector {normal} is not balanced; state is not in the GHZ class"
        )
    if normal[0] < 0:
        normal = -normal
    # step 3: flip the qubits carrying a negative weight
    flip = SU2_BASIS[2]  # exp(pi/2 of the third basis direction)
    if np.any(normal < 0):
        factors = np.stack(
            [flip if normal[j] < 0 else np.eye(2, dtype=np.complex128) for j in range(n)]
        )
        g_flip = LocalUnitary(factors)
        cur = apply_local_unitary(g_flip, cur)
        g_total = compose(g_flip, g_total)
    # step 4: support must now sit on the two extreme kets
    resid = float(np.linalg.norm(cur.vector[1:-1]))
    if resid > SUPPORT_TOL:
        raise CanonicalizationError(
            f"off-support residual {resid:.2e}; input is numerically ill-conditioned"
        )
    if min(abs(cur.vector[0]), abs(cur.vector[-1])) < SUPPORT_TOL:
        raise CanonicalizationError("an extreme amplitude vanished; state is product-like")
    # step 5: make both amplitudes real positive
    cur, g_phase = _fix_ghz_phases(cur)
    g_total = compose(g_phase, g_total)
    alpha = float(np.real(cur.vector[0]))
    beta = float(np.real(cur.vector[-1]))
    # step 6: order alpha >= beta with an all-qubit flip
    if alpha < beta:
        g_swap = LocalUnitary(np.stack([flip] * n))
        cur = apply_local_unitary(g_swap, cur)
        g_total = compose(g_swap, g_total)
        cur, g_phase = _fix_ghz_phases(cur)
        g_total = compose(g_phase, g_total)
        alpha, beta = float(np.real(cur.vector[0])), float(np.real(cur.vector[-1]))
    target = np.zeros(2**n, dtype=np.complex128)
    target[0] = alpha
    target[-1] = beta
    residual = float(np.linalg.norm(cur.vector - target))
    return GhzCanonicalForm(alpha, beta, g_total, residual)


def _su2_lift(rot: np.ndarray) -> np.ndarray:
    """SU(2) matrix h with h e_a h^dag = sum_b rot[a, b] e_b for a rotation rot.

    h e_a = M_a h is linear in h: with h flattened row by row, the blocks
    I (x) e_a^T - M_a (x) I stack into a 12x4 map whose kernel is spanned by
    h, since only scalars commute with all of su(2).  The kernel vector
    rescaled to determinant 1 is h up to the sign SO(3) cannot see.
    """
    eye = np.eye(2)
    images = np.tensordot(rot, SU2_BASIS, axes=1)
    system = np.concatenate(
        [np.kron(eye, e.T) - np.kron(m, eye) for e, m in zip(SU2_BASIS, images)]
    )
    h = np.linalg.svd(system)[2][-1].conj().reshape(2, 2)
    # the polar factor is exactly unitary even when rot is only nearly a rotation
    u, _, vh = np.linalg.svd(h)
    h = u @ vh
    return h / np.sqrt(np.linalg.det(h))


@dataclass(frozen=True, eq=False)
class FourQubitCanonicalForm:
    """a > 0 and b, c = -a - b at the scale of the normalized state.
    unitary maps the input onto canonical_four_qubit_state(a, b) and is None
    when its infidelity (residual) is not below the tolerance."""

    a: float
    b: complex
    c: complex
    unitary: LocalUnitary | None
    residual: float
    notes: tuple[str, ...]


def canonicalize_four_qubit(
    psi: PureState, stab: StabilizerBasis | None = None, tol: float = EQUIV_TOL
) -> FourQubitCanonicalForm:
    """Reduce a four-qubit state whose stabilizer is dim 3 with every qubit
    projection three-dimensional to a(|0011>+|1100>) + b(|1001>+|0110>)
    + c(|1010>+|0101>) with a > 0 and c = -a - b.

    The stabilizer is a copy of su(2) whose qubit-j coordinate block is
    B_j = B_1 R_j, with R_j the rotation carrying qubit 1's generator to
    qubit j's.  Lifting each R_j to h_j in SU(2) and applying
    (I, h_2^dag, h_3^dag, h_4^dag) turns the stabilizer into the diagonal
    su(2), so the state lands in the total-spin-zero plane spanned by the
    canonical states; a global phase makes a > 0, and a and b are read off
    the amplitudes at |0011> and |1001>.  The only local unitaries that keep
    the diagonal su(2) are (h, h, h, h) up to signs, which act on that plane
    as a sign, so the form is unique and b is never confused with its
    conjugate.  The witness is returned only if its infidelity, recomputed
    against the canonical state, is below tol; otherwise a note says so and
    unitary is None.
    """
    if psi.n != 4:
        raise CanonicalizationError(f"four-qubit form requires n = 4, got {psi.n}")
    k = stab if stab is not None else stabilizer_pure(psi)
    if k.dim != 3 or k.proj_dims != (3, 3, 3, 3):
        raise CanonicalizationError(
            f"need stabilizer dim 3 with all projections 3, got dim {k.dim}, "
            f"projections {k.proj_dims}"
        )
    b1 = k.block_columns(1)
    factors = np.stack(
        [np.eye(2, dtype=np.complex128)]
        + [_su2_lift(np.linalg.solve(b1, k.block_columns(j))).conj().T for j in (2, 3, 4)]
    )
    vec = apply_local_unitary(LocalUnitary(factors), psi).vector
    amp_a, amp_b = vec[0b0011], vec[0b1001]
    phase = np.exp(-1j * np.angle(amp_a))
    a, b = float(abs(amp_a)), complex(amp_b * phase)
    c = -a - b
    if min(a, abs(b), abs(c)) < COEFF_TOL:
        raise CanonicalizationError(
            f"coefficients (a, |b|, |c|) = ({a:.3g}, {abs(b):.3g}, {abs(c):.3g}) put the "
            "state outside the abc != 0 class"
        )
    target = canonical_four_qubit_state(a, b)
    residual = max(1.0 - float(abs(np.vdot(target.vector, vec * phase))) ** 2, 0.0)
    if residual < tol:
        return FourQubitCanonicalForm(a, b, c, LocalUnitary(factors, phase), residual, ())
    note = f"canonical form not certified: witness infidelity {residual:.3g} is not below {tol:.3g}"
    return FourQubitCanonicalForm(a, b, c, None, residual, (note,))


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Everything classify learned about one state.

    verdict is one of 'ghz_class', 'four_qubit_su2', 'max_stab_but_unrecognized',
    'not_max_stab'.  The GHZ fields (alpha, beta) or family fields (a, b, c,
    ambiguous) are filled when the matching branch succeeds; ambiguous is
    always False, since the construction fixes the conjugation, and stays
    for the JSON report.  residual is the GHZ support residual or the
    family witness infidelity; canonicalizer is None when the family form
    was not certified.
    """

    n: int
    verdict: str
    stab_dim: int
    proj_dims: tuple[int, ...]
    algebra: str
    product_blocks: tuple[tuple[int, ...], ...]
    alpha: float | None = None
    beta: float | None = None
    a: float | None = None
    b: complex | None = None
    c: complex | None = None
    ambiguous: bool | None = None
    canonicalizer: LocalUnitary | None = None
    residual: float | None = None
    notes: tuple[str, ...] = ()

    @property
    def is_product(self) -> bool:
        return len(self.product_blocks) > 1

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "verdict": self.verdict,
            "stab_dim": self.stab_dim,
            "proj_dims": list(self.proj_dims),
            "algebra_type": self.algebra,
            "product_structure": (
                [list(b) for b in self.product_blocks] if self.is_product else "nonproduct"
            ),
            "alpha": self.alpha,
            "beta": self.beta,
            "a": self.a,
            "b_re": None if self.b is None else self.b.real,
            "b_im": None if self.b is None else self.b.imag,
            "ambiguous": self.ambiguous,
            "residual": self.residual,
            "notes": list(self.notes),
        }


def classify(
    psi: PureState, tol: float = NULL_TOL, tol_equiv: float = EQUIV_TOL
) -> ClassificationReport:
    """Run the full classification pipeline on one state.

    tol is the stabilizer's rank cut; tol_equiv the infidelity below which a
    four-qubit canonical form is certified.  Never raises on mathematical
    grounds; branch failures downgrade the verdict and leave a note.
    """
    n = psi.n
    fact = is_product(psi)
    k = stabilizer_pure(psi, tol)
    at = algebra_type(k)
    proj = k.proj_dims
    base = dict(
        n=n,
        stab_dim=k.dim,
        proj_dims=proj,
        algebra=at.kind,
        product_blocks=fact.blocks,
    )
    notes: list[str] = []
    if fact.is_product:
        notes.append("product state; the classification covers nonproduct states only")
        return ClassificationReport(verdict="not_max_stab", notes=tuple(notes), **base)
    if n < 3:
        notes.append("classification applies to n >= 3")
        return ClassificationReport(verdict="not_max_stab", notes=tuple(notes), **base)
    if k.dim != n - 1:
        if k.dim > n - 1:
            notes.append(
                "stabilizer dimension exceeds the nonproduct maximum n-1; "
                "input or tolerances are suspect"
            )
        return ClassificationReport(verdict="not_max_stab", notes=tuple(notes), **base)
    if all(d == 1 for d in proj):
        try:
            form = canonicalize_ghz(psi, stab=k, tol=tol)
        except CanonicalizationError as exc:
            notes.append(f"GHZ branch failed: {exc}")
            return ClassificationReport(
                verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
            )
        return ClassificationReport(
            verdict="ghz_class",
            alpha=form.alpha,
            beta=form.beta,
            canonicalizer=form.unitary,
            residual=form.residual,
            notes=tuple(notes),
            **base,
        )
    if n == 4 and all(d == 3 for d in proj) and at.kind == "su2":
        try:
            form = canonicalize_four_qubit(psi, stab=k, tol=tol_equiv)
        except CanonicalizationError as exc:
            notes.append(f"four-qubit branch failed: {exc}")
            return ClassificationReport(
                verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
            )
        return ClassificationReport(
            verdict="four_qubit_su2",
            a=form.a,
            b=form.b,
            c=form.c,
            ambiguous=False,
            canonicalizer=form.unitary,
            residual=form.residual,
            notes=form.notes,
            **base,
        )
    notes.append(
        "maximal stabilizer dimension with an unrecognized projection pattern; "
        "this contradicts the classification and deserves attention"
    )
    return ClassificationReport(
        verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
    )
