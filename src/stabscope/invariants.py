"""Local-unitary invariants: subsystem purities, four-qubit pair invariants,
and the polynomial family built from per-qubit copy permutations.

invariant_fingerprint_stack and fingerprint_component_stack compute the
fingerprint of every state in an (S, 2**n) stack of amplitude vectors at
once; invariant_fingerprint, pair_invariants and polynomial_invariant
are stacks of one.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .states import (
    PureState,
    _bipartition_sides,
    _check_subset,
    _stack_qubits,
    reduced_states,
    subset_purity,
    subset_purity_stack,
)


def purity_invariant(psi: PureState, subset) -> float:
    """Purity of the reduced state on a qubit subset (an LU invariant)."""
    subset = _check_subset(psi.n, subset)
    if len(subset) == psi.n:
        raise ValueError("subset must be proper")
    return subset_purity(psi, subset)


def pair_invariants(psi: PureState) -> tuple[float, float, float]:
    """Four-qubit invariants (I1, I2, I3) derived from pair purities.

    On a canonical complement-pair state with coefficients (a, b, c) and
    normalization 2(|a|^2+|b|^2+|c|^2) = 1, the purity of the reduced state
    on qubit pair (1,2) works out to 1 - 12(pq + pr) with p = |a|^2,
    q = |b|^2, r = |c|^2, and cyclically for pairs (1,3) and (1,4).  Solving
    the linear system gives the products pq, pr, qr, whence
    I1 = |a||b|, I2 = |a||c|, I3 = |b||c|.  Each value is clamped at zero
    against rounding for states outside the family.
    """
    if psi.n != 4:
        raise ValueError(f"pair_invariants requires n = 4, got n = {psi.n}")
    pairs = [subset_purity_stack(psi.vector[None], (1, j)) for j in (2, 3, 4)]
    return tuple(float(v[0]) for v in _pair_stack(*pairs))


def _pair_stack(p12: np.ndarray, p13: np.ndarray, p14: np.ndarray) -> tuple:
    """(I1, I2, I3) over a stack, from its pair purities on (1,2), (1,3), (1,4)."""
    pq = (1.0 - p12 + p13 - p14) / 24.0
    pr = (1.0 - p12 - p13 + p14) / 24.0
    qr = (1.0 + p12 - p13 - p14) / 24.0
    return tuple(np.sqrt(np.maximum(v, 0.0)) for v in (pq, pr, qr))


@dataclass(frozen=True)
class PermutationTriple:
    """Copy-index permutations (one per qubit slot 2, 3, 4) for m state copies.

    Stored one-based as image tuples: sigma[k-1] is the copy whose slot-2 bit
    feeds the k-th conjugated index.
    """

    sigma: tuple[int, ...]
    tau: tuple[int, ...]
    phi: tuple[int, ...]

    def __post_init__(self):
        m = len(self.sigma)
        for name, perm in (("sigma", self.sigma), ("tau", self.tau), ("phi", self.phi)):
            if sorted(perm) != list(range(1, m + 1)):
                raise ValueError(f"{name}={perm} is not a permutation of 1..{m}")

    @property
    def m(self) -> int:
        return len(self.sigma)

    @property
    def key(self) -> str:
        def s(perm):
            return "".join(str(v) for v in perm)

        return f"{self.m}:{s(self.sigma)}:{s(self.tau)}:{s(self.phi)}"


# degree-3 triple whose imaginary part is odd under complex conjugation (on
# the canonical family it is canonical_poly3_im), so the fingerprint screen
# separates a four-qubit state from its conjugate with it
REFERENCE_TRIPLE = PermutationTriple((3, 2, 1), (2, 1, 3), (2, 3, 1))
# the same invariant after swapping qubits 3 and 4 (exchanging the two slot
# permutations realizes the swap without touching the state); it separates
# conjugate family states with Re b = 0, where the reference one vanishes
SWAP34_TRIPLE = PermutationTriple((3, 2, 1), (2, 3, 1), (2, 1, 3))
EXTRA_TRIPLE = PermutationTriple((2, 3, 1), (3, 1, 2), (2, 1, 3))

DEFAULT_TRIPLES = (REFERENCE_TRIPLE, SWAP34_TRIPLE, EXTRA_TRIPLE)

# 8^m terms per state; m = 4 is already 4096
MAX_COPIES = 4


def polynomial_invariant(psi: PureState, triple: PermutationTriple) -> complex:
    """Degree-2m polynomial LU invariant of a four-qubit state.

    Contracts m copies of psi.tensor() against m conjugated copies: copy k
    carries index letters (k1, k2, k3, k4), and its conjugated partner shares
    slot 1 with it but takes slots 2, 3, 4 from copies sigma[k], tau[k],
    phi[k].  Every letter appears in exactly one plain and one conjugated
    factor.  Summing slot 1 of each plain copy against its partner leaves
    the reduced state on qubits 2, 3, 4, so the invariant is a contraction
    of m copies of that 8 x 8 matrix (_polynomial_stack); this is a stack
    of one.
    """
    if psi.n != 4:
        raise ValueError(f"polynomial_invariant requires n = 4, got n = {psi.n}")
    return complex(_polynomial_stack(reduced_states(psi.vector[None], (2, 3, 4)), triple)[0])


def _polynomial_stack(rho: np.ndarray, triple: PermutationTriple) -> np.ndarray:
    """polynomial_invariant of each state of a stack from its (S, 8, 8)
    reduced states on qubits 2, 3, 4.

    Copy k contributes rho[(u_k, v_k, w_k), (u_sigma[k], v_tau[k], w_phi[k])],
    where u, v, w are the slot 2, 3, 4 letters of each copy; one einsum sums
    the product of the m factors over every letter.
    """
    m = triple.m
    if m > MAX_COPIES:
        raise ValueError(f"copy count {m} exceeds {MAX_COPIES}")
    # the three slot letters of copy k are 3k, 3k + 1, 3k + 2; z is the stack
    slots = ["abcdefghijkl"[3 * k : 3 * k + 3] for k in range(m)]
    factors = [
        "z" + slots[k] + slots[s - 1][0] + slots[t - 1][1] + slots[p - 1][2]
        for k, (s, t, p) in enumerate(zip(triple.sigma, triple.tau, triple.phi))
    ]
    # axes (row slots 2, 3, 4, column slots 2, 3, 4)
    rho = rho.reshape(-1, 2, 2, 2, 2, 2, 2)
    return np.einsum(",".join(factors) + "->z", *[rho] * m)


def canonical_poly3_im(a: float, b: complex) -> float:
    """Imaginary part of the reference degree-3 invariant on the canonical
    family, as a closed form in the coefficients (a, b) with c = -a - b.

    Homogeneous of degree 6: feed it the coefficients at the same scale as
    the state whose invariant it is compared against.
    """
    b1 = float(np.real(b))
    b2 = float(np.imag(b))
    return -24.0 * a**2 * b1 * b2 * (b1**2 + b2**2 + a * b1)


def subset_key(subset, n: int) -> str:
    """Key of a qubit subset: its labels run together ("12"), or joined by
    "." when a label has two digits or the state has 12 or more qubits, where
    the single qubit 12 and the pair (1, 2) would otherwise share "12"."""
    sep = "." if max(subset) > 9 or n > 11 else ""
    return sep.join(str(j) for j in subset)


@lru_cache
def _keyed_subsets(n: int) -> tuple:
    """(key, subset) of the fingerprint purities, one side of each
    bipartition, sorted by key; built once per n and shared, so immutable."""
    return tuple(sorted((subset_key(s, n), s) for s in _bipartition_sides(n)))


@dataclass(frozen=True)
class InvariantFingerprint:
    """Bundle of LU invariants used for screening and orbit diagnostics.

    purities is keyed by subset strings ("1", "12", ...); pair_invariants
    and poly are present only for four-qubit states.
    """

    n: int
    purities: dict
    pair_invariants: tuple | None
    poly: dict | None

    def components(self):
        """Ordered (name, value) pairs; values are real or complex scalars."""
        out = [(f"purity:{k}", v) for k, v in sorted(self.purities.items())]
        if self.pair_invariants is not None:
            out += [(f"pair:I{i + 1}", v) for i, v in enumerate(self.pair_invariants)]
        if self.poly is not None:
            out += [(f"poly:{k}", v) for k, v in sorted(self.poly.items())]
        return out

    def to_dict(self) -> dict:
        out = {"n": self.n, "purities": dict(sorted(self.purities.items()))}
        if self.pair_invariants is not None:
            out["pair_invariants"] = list(self.pair_invariants)
        if self.poly is not None:
            out["poly"] = {
                k: {"re": v.real, "im": v.imag} for k, v in sorted(self.poly.items())
            }
        return out


def invariant_fingerprint(psi: PureState) -> InvariantFingerprint:
    """Collect the purity, pair, and polynomial invariants of a state: a
    stack of one for invariant_fingerprint_stack."""
    return invariant_fingerprint_stack(psi.vector[None])[0]


def invariant_fingerprint_stack(vectors: np.ndarray) -> list[InvariantFingerprint]:
    """invariant_fingerprint of each state in an (S, 2**n) stack of unit
    vectors, each bit for bit what the state gets in a stack of its own."""
    n = _stack_qubits(vectors)
    groups = {"purity": {}, "pair": {}, "poly": {}}
    for name, values in fingerprint_component_stack(vectors):
        kind, _, key = name.partition(":")
        groups[kind][key] = values.tolist()
    return [
        InvariantFingerprint(
            n,
            {key: v[i] for key, v in groups["purity"].items()},
            tuple(v[i] for v in groups["pair"].values()) or None,
            {key: v[i] for key, v in groups["poly"].items()} or None,
        )
        for i in range(vectors.shape[0])
    ]


def fingerprint_component_stack(vectors: np.ndarray):
    """Yield (name, values) in InvariantFingerprint.components() order for
    an (S, 2**n) stack, values holding the component of every state,
    computing each component only when the iteration reaches it."""
    n = _stack_qubits(vectors)
    purities = {}
    for key, subset in _keyed_subsets(n):
        purities[key] = subset_purity_stack(vectors, subset)
        yield f"purity:{key}", purities[key]
    if n == 4:
        pairs = _pair_stack(purities["12"], purities["13"], purities["14"])
        for i, values in enumerate(pairs):
            yield f"pair:I{i + 1}", values
        rho = reduced_states(vectors, (2, 3, 4))
        for t in sorted(DEFAULT_TRIPLES, key=lambda t: t.key):
            yield f"poly:{t.key}", _polynomial_stack(rho, t)


def fingerprint_drift(fa: InvariantFingerprint, fb: InvariantFingerprint) -> float:
    """Largest relative component difference |x - y| / (1 + |x|)."""
    ca = fa.components()
    cb = fb.components()
    if [k for k, _ in ca] != [k for k, _ in cb]:
        raise ValueError("fingerprints have different components")
    x = np.array([v for _, v in ca])
    y = np.array([v for _, v in cb])
    return float(np.max(np.abs(x - y) / (1.0 + np.abs(x)), initial=0.0))


def first_difference(ca, cb, tol: float) -> tuple | None:
    """First (name, x, y) of two parallel (name, value) sequences with
    |x - y| > tol, or None; iterators are consumed only that far."""
    for (name, x), (_, y) in zip(ca, cb):
        if abs(x - y) > tol:
            return (name, x, y)
    return None


def separating_component(
    fa: InvariantFingerprint, fb: InvariantFingerprint, tol: float
) -> tuple | None:
    """First fingerprint component differing by more than tol, or None."""
    return first_difference(fa.components(), fb.components(), tol)
