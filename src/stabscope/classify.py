"""Classification of nonproduct states with maximal stabilizer dimension.

For n >= 3 qubits, a nonproduct pure state whose stabilizer has the maximal
dimension n-1 falls into one of two classes: every qubit projection of the
stabilizer is one-dimensional and the state is equivalent to a generalized
GHZ state, or n = 4 with all projections three-dimensional, the stabilizer a
copy of su(2), and the state equivalent to a canonical complement-pair state.
This module detects the branch and produces the canonical form together with
a local unitary achieving it.
"""

from dataclasses import dataclass, field

import numpy as np

from .states import (
    PureState,
    canonical_four_qubit_state,
    is_product,
    to_density,
)
from .local_unitary import (
    SU2_BASIS,
    LocalUnitary,
    apply_local_unitary,
    compose,
    identity_local_unitary,
    su2_matrix,
)
from .stabilizer import (
    NULL_TOL,
    StabilizerBasis,
    algebra_type,
    stabilizer_pure,
)
from .invariants import (
    REFERENCE_TRIPLE,
    SWAP34_TRIPLE,
    canonical_poly3_im,
    pair_invariants,
    polynomial_invariant,
)
from .equivalence import EQUIV_TOL, decide_equivalence

# off-support amplitude mass allowed after GHZ reduction
SUPPORT_TOL = 1e-8
# the stabilizer's defining normal vector must be balanced to this
BALANCE_TOL = 1e-7
# triangle closure slack when reconstructing b from |b|, |c|
TRIANGLE_TOL = 1e-7
# below this the degree-3 invariant cannot resolve the conjugation
POLY_DECISION_TOL = 1e-9


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


@dataclass(frozen=True, eq=False)
class FourQubitCanonicalForm:
    a: float
    b: complex
    c: complex
    ambiguous: bool
    unitary: LocalUnitary | None
    residual: float | None
    notes: tuple[str, ...]


def canonicalize_four_qubit(
    psi: PureState,
    restarts: int = 12,
    seed=0,
    confirm: bool = True,
    tol: float = EQUIV_TOL,
) -> FourQubitCanonicalForm:
    """Recover the canonical coefficients (a, b, c) of a four-qubit state in
    the su(2)-stabilizer class, working purely through invariants.

    The pair invariants give the moduli; the triangle a + b + c = 0 then
    determines b up to conjugation, which the degree-3 invariant resolves.
    When that invariant degenerates, the same invariant of the
    qubit-(3,4)-swapped state is tried, and failing that the two explicit
    candidates are tested with decide_equivalence; only non-invariant
    resolutions carry the ambiguous flag.  With confirm=True the chosen
    canonical state is verified against the input and the optimizer's
    witness is returned as the canonicalizer.
    """
    if psi.n != 4:
        raise CanonicalizationError(f"four-qubit form requires n = 4, got {psi.n}")
    i1, i2, i3 = pair_invariants(psi)
    if min(i1, i2, i3) < 1e-8:
        raise CanonicalizationError(
            f"pair invariant vanishes (I = {i1:.3g}, {i2:.3g}, {i3:.3g}); "
            "state is outside the abc != 0 class"
        )
    a = float(np.sqrt(i1 * i2 / i3))
    mod_b = float(np.sqrt(i1 * i3 / i2))
    mod_c = float(np.sqrt(i2 * i3 / i1))
    b1 = (mod_c**2 - a**2 - mod_b**2) / (2.0 * a)
    disc = mod_b**2 - b1**2
    if disc < -TRIANGLE_TOL:
        raise CanonicalizationError(
            f"triangle a + b + c = 0 cannot close (discriminant {disc:.2e})"
        )
    b2 = float(np.sqrt(max(disc, 0.0)))
    # renormalize so the canonical state built from (a, b, c) has unit norm
    def rescaled(bb):
        cc = -a - bb
        s = 1.0 / np.sqrt(2.0 * (a**2 + abs(bb) ** 2 + abs(cc) ** 2))
        return a * s, bb * s, cc * s

    notes: list[str] = []
    if b2 < 1e-8:
        an, bn, cn = rescaled(complex(b1, 0.0))
        ambiguous = False
    else:
        cand_plus = complex(b1, b2)
        cand_minus = complex(b1, -b2)
        an, b_plus, c_plus = rescaled(cand_plus)
        _, b_minus, _ = rescaled(cand_minus)
        chosen = None
        ambiguous = False
        # the degree-3 invariant is odd under conjugation; when it degenerates,
        # the same invariant with qubits 3 and 4 exchanged sees c instead of b
        for swapped, (triple, coeff) in enumerate(
            ((REFERENCE_TRIPLE, b_plus), (SWAP34_TRIPLE, c_plus))
        ):
            predicted = canonical_poly3_im(an, coeff)
            if abs(predicted) <= POLY_DECISION_TOL:
                if not swapped:
                    notes.append("degree-3 invariant degenerate for these parameters")
                continue
            measured = float(np.imag(polynomial_invariant(psi, triple)))
            chosen = b_plus if abs(measured - predicted) <= abs(measured + predicted) else b_minus
            if swapped:
                notes.append("resolved by the qubit-swap invariant")
            break
        if chosen is None:
            # no invariant separates the candidates; fall back to explicit
            # equivalence tests and flag the outcome
            ambiguous = True
            cand_states = [
                canonical_four_qubit_state(an, b_plus),
                canonical_four_qubit_state(an, b_minus),
            ]
            verdicts = [
                decide_equivalence(psi, cs, tol=tol, restarts=restarts, seed=seed)
                for cs in cand_states
            ]
            hits = [v.status == "equivalent" for v in verdicts]
            if hits == [True, False]:
                chosen = b_plus
                notes.append("resolved by direct equivalence search (not invariant-certified)")
            elif hits == [False, True]:
                chosen = b_minus
                notes.append("resolved by direct equivalence search (not invariant-certified)")
            else:
                chosen = b_plus
                notes.append("conjugation ambiguity unresolved; reporting the Im b >= 0 candidate")
        bn = chosen
        cn = -an - bn
    unitary = None
    residual = None
    if confirm:
        target = canonical_four_qubit_state(an, bn)
        verdict = decide_equivalence(psi, target, tol=tol, restarts=restarts, seed=seed)
        residual = verdict.best_infidelity
        if verdict.status == "equivalent":
            unitary = verdict.witness
        else:
            notes.append(
                f"confirmation search did not certify the canonical form "
                f"(status {verdict.status})"
            )
    return FourQubitCanonicalForm(an, complex(bn), complex(cn), ambiguous, unitary, residual, tuple(notes))


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Everything classify learned about one state.

    verdict is one of 'ghz_class', 'four_qubit_su2', 'max_stab_but_unrecognized',
    'not_max_stab'.  The GHZ fields (alpha, beta) or family fields (a, b, c,
    ambiguous) are filled when the matching branch succeeds.
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
    psi: PureState,
    tol: float = NULL_TOL,
    restarts: int = 12,
    seed=0,
    confirm: bool = True,
) -> ClassificationReport:
    """Run the full classification pipeline on one state.

    Never raises on mathematical grounds; branch failures downgrade the
    verdict and leave a note.
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
            form = canonicalize_four_qubit(
                psi, restarts=restarts, seed=seed, confirm=confirm
            )
        except CanonicalizationError as exc:
            notes.append(f"four-qubit branch failed: {exc}")
            return ClassificationReport(
                verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
            )
        notes.extend(form.notes)
        return ClassificationReport(
            verdict="four_qubit_su2",
            a=form.a,
            b=form.b,
            c=form.c,
            ambiguous=form.ambiguous,
            canonicalizer=form.unitary,
            residual=form.residual,
            notes=tuple(notes),
            **base,
        )
    notes.append(
        "maximal stabilizer dimension with an unrecognized projection pattern; "
        "this contradicts the classification and deserves attention"
    )
    return ClassificationReport(
        verdict="max_stab_but_unrecognized", notes=tuple(notes), **base
    )
