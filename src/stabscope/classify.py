"""Classification of nonproduct states with maximal stabilizer dimension.

For n >= 3 qubits, a nonproduct pure state whose stabilizer has the maximal
dimension n-1 falls into one of two classes: every qubit projection of the
stabilizer is one-dimensional and the state is equivalent to a generalized
GHZ state, or n = 4 with all projections three-dimensional, the stabilizer a
copy of su(2), and the state equivalent to a canonical complement-pair state.
This module decides the branch from the stabilizer pattern in one place
(canonical_form, which classify and decide_equivalence both call) and
builds the canonical form from the stabilizer it is given, together with a
local unitary achieving it.  In the GHZ class each qubit's stabilizer
direction is rotated onto the diagonal generator, which leaves the state on
one basis ket and its complement; in the four-qubit family each qubit's
su(2) block is rotated onto qubit 1's, which leaves it in the
total-spin-zero plane.  No invariant or optimizer search is involved: in
both classes the stabilizer fixes the canonicalising unitary up to
symmetries of the canonical form.
The product test and the vanishing-amplitude checks cut where the stabilizer
rank does, so all three agree on the GHZ class up to that cut.
"""

from dataclasses import dataclass

import numpy as np

from .states import NULL_TOL, PureState, canonical_four_qubit_state, is_product, numerical_rank
from .states import apply_factors
from .local_unitary import (
    SU2_BASIS,
    LocalUnitary,
    apply_local_unitary,
)
from .stabilizer import StabilizerBasis, algebra_type, stabilizer_pure

# infidelity below this certifies a local-unitary witness: a four-qubit
# canonical form here, an equivalence in decide_equivalence
EQUIV_TOL = 1e-7


class CanonicalizationError(RuntimeError):
    """Input violates the preconditions or conditioning of a canonical form."""


def _maximal_pattern(k: StabilizerBasis) -> str | None:
    """'ghz' or 'family' when a pure stabilizer has one of the two patterns
    of maximal dimension for a nonproduct state, else None: n >= 3 with
    dim n-1 and every projection 1, or n = 4 with dim 3 and every
    projection 3."""
    n = k.n
    if n >= 3 and k.dim == n - 1 and all(d == 1 for d in k.proj_dims):
        return "ghz"
    if n == 4 and k.dim == 3 and k.proj_dims == (3, 3, 3, 3):
        return "family"
    return None


def _align_to_diagonal(directions: np.ndarray) -> np.ndarray:
    """SU(2) matrices h with h M(u) h^dag = M(e0), one for each unit
    direction u of an (n, 3) array.

    M(u) and M(e0) both square to -1, so q = 1 - M(e0) M(u) satisfies
    q M(u) = M(u) + M(e0) = M(e0) q.  q is (1 + u0) times the identity plus
    an off-diagonal part, with det q = 2 (1 + u0), so h = q / sqrt(det q) is
    the one such SU(2) matrix with h[0, 0] real and positive; the diagonal
    factors, which commute with M(e0), leave every other choice open.  It
    needs u0 > -1.
    """
    q = np.eye(2) - SU2_BASIS[0] @ np.tensordot(directions, SU2_BASIS, axes=1)
    return q / np.sqrt(2.0 * (1.0 + directions[:, 0]))[:, None, None]


@dataclass(frozen=True, eq=False)
class GhzCanonicalForm:
    alpha: float
    beta: float
    unitary: LocalUnitary
    residual: float


def canonicalize_ghz(psi: PureState, stab: StabilizerBasis | None = None) -> GhzCanonicalForm:
    """Reduce a state with maximal stabilizer and all qubit projections
    one-dimensional to the form alpha|0...0> + beta|1...1>.

    Each qubit's stabilizer direction, signed so that its largest component
    is positive, is rotated onto the diagonal generator.  A diagonal
    stabilizer of dimension n-1 confines a nonproduct state to one basis ket
    and its complement, so flipping every qubit set in the largest-modulus
    ket sends that ket to |0...0>, which gives alpha >= beta, and its
    complement to |1...1>.  The flips multiply the factors; the rotated
    vector is permuted and phased, not transformed again.  A diagonal
    rotation on qubit 1 and a global phase make both amplitudes real
    positive; the reported residual applies the finished unitary to psi.
    Only the given stabilizer is used, and g does not depend on how its
    basis is rotated; stab defaults to stabilizer_pure(psi).  Its tol is
    the off-support residual bound and the vanishing cut |beta| <= tol
    |alpha|, so a caller who wants another cut solves stab at it.
    Returns alpha >= beta > 0 with alpha^2 + beta^2 = 1 and the composite
    local unitary g with g|psi> equal to the canonical state up to the
    reported residual.
    """
    n = psi.n
    k = stab if stab is not None else stabilizer_pure(psi)
    if _maximal_pattern(k) != "ghz":
        raise CanonicalizationError(
            f"need n >= 3, stabilizer dim {n - 1} and all projections 1, got n = {n}, "
            f"dim {k.dim}, projections {k.proj_dims}"
        )
    # each qubit's direction, from one batched SVD of the coordinate blocks
    directions = np.linalg.svd(np.stack([k.block_columns(j) for j in range(1, n + 1)]))[2][:, 0]
    # the SVD gives a direction with either sign; taking its largest
    # component positive makes g independent of the basis rotation, and
    # keeps u0 >= -1/sqrt(2) for _align_to_diagonal
    largest = np.abs(directions).argmax(axis=1)
    directions *= np.sign(directions[np.arange(n), largest])[:, None]
    factors = _align_to_diagonal(directions)
    vec = apply_factors(factors, psi.vector)
    # SU2_BASIS[2] = i sigma_x swaps |0> and |1> times i; flipping every
    # qubit set in the largest-modulus ket sends that ket to |0...0>, and on
    # the vector it is a permutation times i^(number of flips)
    top = int(np.argmax(np.abs(vec)))
    flips = [j for j in range(n) if top >> (n - 1 - j) & 1]
    factors[flips] = SU2_BASIS[2] @ factors[flips]
    vec = 1j ** len(flips) * vec[np.arange(2**n) ^ top]
    resid = float(np.linalg.norm(vec[1:-1]))
    if resid > k.tol:
        raise CanonicalizationError(
            f"off-support residual {resid:.2e}; the state is not in the GHZ class"
        )
    if numerical_rank(np.abs(vec[[0, -1]]), k.tol) < 2:
        raise CanonicalizationError("an extreme amplitude vanished; state is product-like")
    arg0, arg1 = float(np.angle(vec[0])), float(np.angle(vec[-1]))
    theta = (arg1 - arg0) / 2.0
    factors[0] = np.diag([np.exp(1j * theta), np.exp(-1j * theta)]) @ factors[0]
    g = LocalUnitary(factors, np.exp(-0.5j * (arg0 + arg1)))
    alpha, beta = float(abs(vec[0])), float(abs(vec[-1]))
    target = np.zeros(2**n, dtype=np.complex128)
    target[0], target[-1] = alpha, beta
    residual = float(np.linalg.norm(apply_local_unitary(g, psi).vector - target))
    return GhzCanonicalForm(alpha, beta, g, residual)


def _su2_lift(rots: np.ndarray) -> np.ndarray:
    """SU(2) matrices h with h e_a h^dag = sum_b rot[a, b] e_b, one for each
    rotation rot of an (R, 3, 3) stack.

    h e_a = M_a h is linear in h: with h flattened row by row, the blocks
    I (x) e_a^T - M_a (x) I stack into a 12x4 map whose kernel is spanned by
    h, since only scalars commute with all of su(2).  The kernel vector
    rescaled to determinant 1 is h up to the sign SO(3) cannot see.  All R
    maps go to one batched SVD and all polar steps to one more.
    """
    eye = np.eye(2)
    images = np.tensordot(rots, SU2_BASIS, axes=1)
    system = np.kron(eye, SU2_BASIS.swapaxes(1, 2)) - np.kron(images, eye)
    h = np.linalg.svd(system.reshape(-1, 12, 4))[2][:, -1].conj().reshape(-1, 2, 2)
    # the polar factor is exactly unitary even when rot is only nearly a rotation
    u, _, vh = np.linalg.svd(h)
    h = u @ vh
    return h / np.sqrt(np.linalg.det(h))[:, None, None]


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
    conjugate.  a, |b| and |c| must clear the stabilizer's own tol relative
    to the largest of them.  The witness is returned only if its infidelity,
    recomputed against the canonical state, is below tol; otherwise a note
    says so and unitary is None.
    """
    if psi.n != 4:
        raise CanonicalizationError(f"four-qubit form requires n = 4, got {psi.n}")
    k = stab if stab is not None else stabilizer_pure(psi)
    if _maximal_pattern(k) != "family":
        raise CanonicalizationError(
            f"need stabilizer dim 3 with all projections 3, got dim {k.dim}, "
            f"projections {k.proj_dims}"
        )
    rots = np.linalg.solve(k.block_columns(1), np.stack([k.block_columns(j) for j in (2, 3, 4)]))
    lifts = _su2_lift(rots).conj().swapaxes(1, 2)
    factors = np.concatenate([np.eye(2, dtype=np.complex128)[None], lifts])
    vec = apply_factors(factors, psi.vector)
    amp_a, amp_b = vec[0b0011], vec[0b1001]
    phase = np.exp(-1j * np.angle(amp_a))
    a, b = float(abs(amp_a)), complex(amp_b * phase)
    c = -a - b
    if numerical_rank(np.array([a, abs(b), abs(c)]), k.tol) < 3:
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


def canonical_form(
    psi: PureState, k: StabilizerBasis, tol_equiv: float = EQUIV_TOL
) -> GhzCanonicalForm | FourQubitCanonicalForm | None:
    """Canonical form of psi from its stabilizer k when k has one of the two
    maximal patterns: the GHZ form with k.tol as its numerical zero, or the
    four-qubit form certified below the infidelity tol_equiv.  None when
    neither pattern holds; CanonicalizationError when the canonicaliser
    rejects the state."""
    pattern = _maximal_pattern(k)
    if pattern == "ghz":
        return canonicalize_ghz(psi, stab=k)
    if pattern == "family":
        return canonicalize_four_qubit(psi, stab=k, tol=tol_equiv)
    return None


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

    tol is the one numerical zero: stabilizer rank, product test, GHZ support
    and vanishing.  tol_equiv is the infidelity below which a four-qubit
    canonical form is certified.  Never raises on mathematical grounds;
    branch failures downgrade the verdict and leave a note.
    """
    n = psi.n
    fact = is_product(psi, tol)
    k = stabilizer_pure(psi, tol)
    at = algebra_type(k)
    base = dict(
        n=n,
        stab_dim=k.dim,
        proj_dims=k.proj_dims,
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
    pattern = _maximal_pattern(k)
    if pattern == "ghz" or (pattern == "family" and at.kind == "su2"):
        try:
            form = canonical_form(psi, k, tol_equiv)
        except CanonicalizationError as exc:
            branch = "GHZ" if pattern == "ghz" else "four-qubit"
            notes.append(f"{branch} branch failed: {exc}")
            return ClassificationReport(
                verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
            )
        if pattern == "ghz":
            return ClassificationReport(
                verdict="ghz_class",
                alpha=form.alpha,
                beta=form.beta,
                canonicalizer=form.unitary,
                residual=form.residual,
                notes=tuple(notes),
                **base,
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
    found = ("an unrecognized projection pattern" if pattern is None else
             f"the four-qubit projection pattern {k.proj_dims} but algebra type {at.kind}, not su2")
    notes.append(
        f"maximal stabilizer dimension with {found}; "
        "this contradicts the classification and deserves attention"
    )
    return ClassificationReport(
        verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
    )
