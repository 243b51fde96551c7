"""Local-unitary equivalence of pure states.

decide_equivalence screens first: the stabilizer dimension, the per-qubit
projection dimensions, then the invariant fingerprint, walked one component
at a time and stopped at the first one that separates the states.  Pairs
that pass the screens meet up to three witness stages, each accepted only if
the infidelity recomputed from its witness is below tol.  When the
stabilizer is maximal (the GHZ class, or the four-qubit su(2) family), both
states are brought to their canonical forms, which the stabilizer itself
determines, and the canonicalisers compose into an exact witness.  The
canonical form is unique, so when that witness fails and a canonical
parameter differs, the pair is certified inequivalent.  Otherwise
the one-qubit standard form (Kraus, PRL 104, 020504, 2010) rotates each
qubit of both states into the eigenbasis of its one-qubit reduced state,
after which, when every one-qubit spectrum is nondegenerate, an equivalence
is a diagonal phase per qubit, read off the amplitudes of one
single-bit-flip index pair.  What neither stage certifies (degenerate
spectra outside the maximal classes, GHZ support, inequivalent pairs) goes
to multi-start fidelity maximization over SU(2)^n.  Its gradient takes the
exponentials (n, 2, 2) of an (n, 3) chart point and their derivatives
(n, 3, 2, 2) from one broadcast, and every generator applied to g psi from
the (3n+1, 2 * 2**n) sign-flip planes of the pure stabilizer map.
"""

from dataclasses import dataclass

import numpy as np

from .states import PureState, _sign_flip_planes, apply_factors, reduced_states
from .local_unitary import SU2_BASIS, LocalUnitary, _exp_and_dexp, compose, haar_su2, inverse
from .stabilizer import NULL_TOL, stabilizer_pure_stack
from .invariants import fingerprint_component_stack, first_difference
from .classify import EQUIV_TOL, CanonicalizationError, GhzCanonicalForm, canonical_form

# invariant components differing by more than this certify inequivalence
FINGERPRINT_TOL = 1e-6
# restarts stop early once the best infidelity falls below this
STOP_TOL = 1e-12


def _infidelity_and_grad(x: np.ndarray, base: np.ndarray, psi: np.ndarray, phi: np.ndarray, n: int):
    """Objective 1 - |<phi| g psi>|^2 with g_j = exp(v_j) base_j, and its gradient:
    for z = <phi| g psi>, dz/dv_ja = sum_b J_jab p_jb with J_ja the su(2)
    coordinates of d_ja exp(v_j)^dagger and p_jb = <phi| e_b at qubit j |g psi>."""
    e, d = _exp_and_dexp(x.reshape(n, 3))
    cur = apply_factors(e @ base, psi)
    z = np.vdot(phi, cur)
    # coordinate b of M in su(2) is -Re tr(e_b M) / 2
    jac = -0.5 * np.einsum("bkl,jalk->jab", SU2_BASIS, d @ e.conj().swapaxes(1, 2)[:, None]).real
    # planes 1 to 3n are (Re, Im) of e_b at qubit j applied to g psi, so their
    # products with (Re z phi, Im z phi) are Re(conj(z) p_jb)
    zphi = z * phi
    overlaps = _sign_flip_planes(cur[None])[0, 1:] @ np.concatenate([zphi.real, zphi.imag])
    grad = -2.0 * jac @ overlaps.reshape(n, 3, 1)
    return 1.0 - float(np.abs(z)) ** 2, grad.reshape(3 * n)


@dataclass(frozen=True, eq=False)
class FidelitySearch:
    """Result of the multi-start minimization of 1 - |<phi| g psi>|^2."""

    infidelity: float
    witness: LocalUnitary
    restarts_used: int


def lu_infidelity(
    psi: PureState,
    phi: PureState,
    restarts: int = 20,
    seed=0,
) -> FidelitySearch:
    """Best local-unitary infidelity between two states.

    Each restart optimizes 3n chart coordinates around a Haar-random base
    point (identity first) with the analytic gradient, until one is below
    STOP_TOL.  Results are deterministic for a fixed seed, and the best
    value is monotone nonincreasing as restarts grow with the seed fixed.
    """
    if psi.n != phi.n:
        raise ValueError(f"states live on {psi.n} and {phi.n} qubits")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    # only this stage needs scipy.optimize, the slowest import in the package
    from scipy.optimize import minimize

    n = psi.n
    children = np.random.SeedSequence(seed).spawn(restarts)
    best_f = np.inf
    best_factors = None
    eye = np.broadcast_to(np.eye(2, dtype=np.complex128), (n, 2, 2))
    for k in range(restarts):
        base = eye if k == 0 else haar_su2(n, np.random.default_rng(children[k]))
        res = minimize(
            _infidelity_and_grad,
            np.zeros(3 * n),
            args=(base, psi.vector, phi.vector, n),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 300, "ftol": 1e-18, "gtol": 1e-12},
        )
        f = max(float(res.fun), 0.0)
        if f < best_f:
            best_f = f
            best_factors = _exp_and_dexp(res.x.reshape(n, 3))[0] @ base
        if best_f < STOP_TOL:
            break
    _, witness = _align(psi, phi, best_factors)
    return FidelitySearch(best_f, witness, k + 1)


def _align(psi: PureState, phi: PureState, factors: np.ndarray) -> tuple[float, LocalUnitary]:
    """Infidelity 1 - |<phi| g psi>|^2 of the SU(2) factors g, and the
    LocalUnitary that adds the global phase aligning g psi with phi."""
    z = np.vdot(phi.vector, apply_factors(factors, psi.vector))
    phase = np.conj(z) / abs(z) if abs(z) > 1e-15 else 1.0 + 0j
    return max(1.0 - float(abs(z)) ** 2, 0.0), LocalUnitary(factors, phase)


def _eigenframes(psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Per qubit, the unitary whose columns are the eigenvectors of the
    one-qubit reduced state, eigenvalues descending, and the amplitudes of
    psi with every qubit rotated into that basis."""
    v = psi.vector[None]
    rho = np.concatenate([reduced_states(v, (j,)) for j in range(1, psi.n + 1)])
    frames = np.linalg.eigh(rho)[1][:, :, ::-1]
    return frames, apply_factors(frames.conj().transpose(0, 2, 1), psi.vector)


def _standard_form_factors(psi: PureState, phi: PureState) -> np.ndarray | None:
    """Candidate SU(2) factors taking psi to phi, from the one-qubit standard form.

    With both states in their eigenframes, an equivalence for nondegenerate
    spectra is diag(e^{i theta_j}, e^{-i theta_j}) on each qubit up to a
    global phase.  For qubit j the index pair (i, i with bit j set) whose
    smaller amplitude modulus in psi is largest fixes e^{2 i theta_j} as the
    ratio of phi's to psi's amplitude at i over the same ratio at its
    partner.  None when no such pair has both amplitudes nonzero.
    """
    n = psi.n
    ua, a = _eigenframes(psi)
    ub, b = _eigenframes(phi)
    index = np.arange(2**n)
    factors = np.empty((n, 2, 2), dtype=np.complex128)
    for j in range(n):
        bit = 1 << (n - 1 - j)
        low = index[(index & bit) == 0]
        high = low | bit
        weight = np.minimum(np.abs(a[low]), np.abs(a[high]))
        k = int(np.argmax(weight))
        if weight[k] == 0.0:
            return None
        i, ip = low[k], high[k]
        theta = 0.5 * np.angle(b[i] * np.conj(a[i]) * np.conj(b[ip]) * a[ip])
        u = ub[j] @ np.diag([np.exp(1j * theta), np.exp(-1j * theta)]) @ ua[j].conj().T
        factors[j] = u / np.sqrt(np.linalg.det(u))
    return factors


def _parameter_difference(fa, fb, tol: float) -> tuple | None:
    """The first canonical parameter, (alpha,) for GHZ or (a, b) for the
    family, on which two forms differ by more than tol, as a separator."""
    names = ("alpha",) if isinstance(fa, GhzCanonicalForm) else ("a", "b")
    return first_difference(
        ((f"canonical_form:{name}", (getattr(fa, name), getattr(fb, name))) for name in names), tol
    )


@dataclass(frozen=True, eq=False)
class EquivVerdict:
    """Outcome of the equivalence decision.

    status is 'equivalent', 'inequivalent', or 'unknown'.  witness holds the
    aligning LocalUnitary when equivalent; separator names the invariant that
    differs (name, value_a, value_b) when inequivalent, a canonical parameter
    ('canonical_form:alpha', ':a' or ':b') when the canonical forms differ.
    best_infidelity and restarts_used report the alignment stage (None when
    screening decided; restarts_used is 0 when the canonical or the standard
    form decided, and best_infidelity is then the infidelity of its
    witness).  decided_by names the deciding stage: 'stab_dim', 'proj_dims',
    'fingerprint:<component>', 'canonical_form' (equivalent or
    inequivalent), 'standard_form' or 'optimizer'.
    """

    status: str
    witness: LocalUnitary | None
    separator: tuple | None
    best_infidelity: float | None
    restarts_used: int | None
    decided_by: str | None = None

    def to_dict(self) -> dict:
        out = {
            "status": self.status,
            "best_infidelity": self.best_infidelity,
            "restarts_used": self.restarts_used,
            "decided_by": self.decided_by,
        }
        if self.separator is not None:
            name, va, vb = self.separator
            def enc(v):
                if isinstance(v, complex):
                    return {"re": v.real, "im": v.imag}
                return v
            out["separator"] = {"invariant": name, "value_a": enc(va), "value_b": enc(vb)}
        if self.witness is not None:
            g = self.witness
            out["witness"] = {
                "global_phase": {"re": g.global_phase.real, "im": g.global_phase.imag},
                "factors": [
                    [[[u[r, c].real, u[r, c].imag] for c in range(2)] for r in range(2)]
                    for u in g.factors
                ],
            }
        return out


def decide_equivalence(
    psi: PureState,
    phi: PureState,
    tol: float = EQUIV_TOL,
    restarts: int = 20,
    seed=0,
    null_tol: float = NULL_TOL,
) -> EquivVerdict:
    """Decide local-unitary equivalence.

    Pipeline: stabilizer dimension and per-qubit projection dimensions
    (cheap LU-covariant separators), then the invariant fingerprint up to
    its first separating component, then the canonical forms for maximal
    stabilizers (an equivalence witness, or differing parameters), then the
    standard-form witness, then multi-start fidelity optimization.
    'equivalent' always comes with a witness whose recomputed infidelity is
    below tol.  'unknown' is an honest outcome: no separating invariant was
    found and no witness certified equivalence either.
    """
    if psi.n != phi.n:
        raise ValueError(f"states live on {psi.n} and {phi.n} qubits")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    pair = np.stack([psi.vector, phi.vector])
    ka, kb = stabilizer_pure_stack(pair, null_tol)
    if ka.dim != kb.dim:
        return EquivVerdict(
            "inequivalent", None, ("stab_dim", ka.dim, kb.dim), None, None, "stab_dim"
        )
    if ka.proj_dims != kb.proj_dims:
        return EquivVerdict(
            "inequivalent", None, ("proj_dims", ka.proj_dims, kb.proj_dims), None, None,
            "proj_dims",
        )
    # each component is computed for both states at once, and only as far
    # as the first one that separates them
    components = ((name, values.tolist()) for name, values in fingerprint_component_stack(pair))
    sep = first_difference(components, FINGERPRINT_TOL)
    if sep is not None:
        return EquivVerdict("inequivalent", None, sep, None, None, f"fingerprint:{sep[0]}")
    # the canonical form goes first: where it applies its witness is exact,
    # and the form is unique, so differing parameters prove inequivalence;
    # equal stab_dim and proj_dims give both states the same pattern
    try:
        fa, fb = canonical_form(psi, ka, tol), canonical_form(phi, kb, tol)
    except CanonicalizationError:
        fa = fb = None
    if fa is not None and fa.unitary is not None and fb.unitary is not None:
        infidelity, witness = _align(psi, phi, compose(inverse(fb.unitary), fa.unitary).factors)
        if infidelity < tol:
            return EquivVerdict("equivalent", witness, None, infidelity, 0, "canonical_form")
        sep = _parameter_difference(fa, fb, FINGERPRINT_TOL)
        if sep is not None:
            return EquivVerdict("inequivalent", None, sep, infidelity, 0, "canonical_form")
    factors = _standard_form_factors(psi, phi)
    if factors is not None:
        infidelity, witness = _align(psi, phi, factors)
        if infidelity < tol:
            return EquivVerdict("equivalent", witness, None, infidelity, 0, "standard_form")
    search = lu_infidelity(psi, phi, restarts=restarts, seed=seed)
    if search.infidelity < tol:
        return EquivVerdict(
            "equivalent", search.witness, None, search.infidelity, search.restarts_used,
            "optimizer",
        )
    return EquivVerdict(
        "unknown", None, None, search.infidelity, search.restarts_used, "optimizer"
    )
