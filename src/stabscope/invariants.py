"""Local-unitary invariants: subsystem purities, four-qubit pair invariants,
and the polynomial family built from per-qubit copy permutations.

fingerprint_component_stack computes the fingerprint of every state in an
(S, 2**n) stack of amplitude vectors at once, one component at a time;
invariant_fingerprint, pair_invariants and polynomial_invariant are stacks
of one.

The fingerprint's purities after purity:1 come from one partial-trace tree
(_purity_plan, _purity_table): only the largest sides, of n // 2 qubits,
are formed from amplitudes by states.reduced_states, and every smaller
reduced state is traced over one qubit from its parent in the tree.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

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
    against rounding for states outside the family.  These are the
    fingerprint's pair:I1-I3, bit for bit: the fingerprint stream is read
    up to pair:I3, so the polynomial invariants after it are not computed.
    """
    if psi.n != 4:
        raise ValueError(f"pair_invariants requires n = 4, got n = {psi.n}")
    stream = fingerprint_component_stack(psi.vector[None])
    pairs = (values.item() for name, values in stream if name.startswith("pair:"))
    return tuple(islice(pairs, 3))


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
# bytes of top-level reduced states one chunk of the purity tree holds; the
# levels below it add about half as much again
TREE_BYTES = 2**18


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


def _prefix_run(subset: tuple) -> int:
    """Length t of the run 1, 2, ..., t that a sorted subset starts with."""
    t = 0
    while t < len(subset) and subset[t] == t + 1:
        t += 1
    return t


@lru_cache
def _purity_plan(n: int, chunk: int) -> tuple:
    """Partial-trace tree of the fingerprint purities, in chunks of at most
    `chunk` top-level sides; built once per (n, chunk) and shared.

    The top level is the largest sides, of n // 2 qubits.  Every smaller
    side c is traced from one parent, c plus the smallest label missing
    from c, so a side starting with the run 1..t owns the t children that
    drop one label of the run, and each child has run length t' = the
    dropped position.  Levels are kept sorted by run length, longest
    first, so the sides owning a child at position s are a prefix of their
    level, and every level's children are made in blocks of equal s.

    Each chunk is (top, steps, rows): the top-level sides; per lower level,
    its size and (s, count, offset) for each block, `count` sides of the
    level above dropping position s into rows offset.. of this one; and per
    level, the index in _keyed_subsets(n) of each of its sides.
    """
    index = {subset: i for i, (_, subset) in enumerate(_keyed_subsets(n))}
    half = n // 2
    top = sorted(
        (s for s in _bipartition_sides(n) if len(s) == half), key=_prefix_run, reverse=True
    )
    plan = []
    for lo in range(0, len(top), chunk):
        level = top[lo : lo + chunk]
        levels, steps = [level], []
        while len(level[0]) > 1:
            runs = [_prefix_run(side) for side in level]
            blocks, children = [], []
            for s in reversed(range(runs[0])):
                count = sum(t > s for t in runs)
                blocks.append((s, count, len(children)))
                children += [side[:s] + side[s + 1 :] for side in level[:count]]
            if not children:
                break
            steps.append((len(children), tuple(blocks)))
            levels.append(children)
            level = children
        rows = []
        for sides in levels:
            row = np.array([index[side] for side in sides])
            row.flags.writeable = False
            rows.append(row)
        plan.append((tuple(levels[0]), tuple(steps), tuple(rows)))
    return tuple(plan)


def _level_purities(rho: np.ndarray) -> np.ndarray:
    """tr(rho^2) of an (N, S, d, d) array of Hermitian matrices, as the real
    dot product of each flattened matrix with itself."""
    x = rho.view(np.float64).reshape(-1, 1, 2 * rho.shape[-1] ** 2)
    return np.matmul(x, x.swapaxes(1, 2)).reshape(rho.shape[:2])


def _purity_table(vectors: np.ndarray, n: int) -> np.ndarray:
    """Every fingerprint purity of an (S, 2**n) stack, (len(_keyed_subsets(n)), S).

    Only the top level of _purity_plan comes from reduced_states; every
    smaller reduced state is the partial trace of its parent over one
    qubit, the sum of two strided views of the level above.  The top level
    is taken TREE_BYTES at a time, so the working arrays stay bounded.
    Each entry depends on its own state only, bit for bit.
    """
    states = vectors.shape[0]
    half = n // 2
    chunk = max(1, TREE_BYTES // (states * 16 << 2 * half))
    table = np.empty((len(_keyed_subsets(n)), states))
    for top, steps, rows in _purity_plan(n, chunk):
        dim = 1 << half
        level = np.empty((len(top), states, dim, dim), dtype=np.complex128)
        for i, keep in enumerate(top):
            level[i] = reduced_states(vectors, keep)
        table[rows[0]] = _level_purities(level)
        for row, (size, blocks) in zip(rows[1:], steps):
            dim //= 2
            below = np.empty((size, states, dim, dim), dtype=np.complex128)
            for s, count, offset in blocks:
                # axes (side, state, row before, row qubit, row after, column ...)
                a = level[:count].reshape(count, states, 1 << s, 2, dim >> s, 1 << s, 2, dim >> s)
                out = below[offset : offset + count].reshape(
                    count, states, 1 << s, dim >> s, 1 << s, dim >> s
                )
                np.add(a[:, :, :, 0, :, :, 0], a[:, :, :, 1, :, :, 1], out=out)
            table[row] = _level_purities(below)
            level = below
    return table


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
    stack of one for fingerprint_component_stack."""
    groups = {"purity": {}, "pair": {}, "poly": {}}
    for name, values in fingerprint_component_stack(psi.vector[None]):
        kind, _, key = name.partition(":")
        groups[kind][key] = values.item()
    return InvariantFingerprint(
        psi.n, groups["purity"], tuple(groups["pair"].values()) or None, groups["poly"] or None
    )


def fingerprint_component_stack(vectors: np.ndarray):
    """Yield (name, values) in InvariantFingerprint.components() order for
    an (S, 2**n) stack, values holding the component of every state.

    purity:1 comes alone from subset_purity_stack, so a pair that it
    separates costs one reduced state per state; the first component after
    it computes every other purity at once (_purity_table), and the
    four-qubit components are computed only when the iteration reaches them.
    """
    n = _stack_qubits(vectors)
    keyed = _keyed_subsets(n)
    if not keyed:
        return
    first_key, first = keyed[0]
    yield f"purity:{first_key}", subset_purity_stack(vectors, first)
    if len(keyed) == 1:
        return
    table = _purity_table(vectors, n)
    purities = {key: values for (key, _), values in zip(keyed[1:], table[1:])}
    for key, values in purities.items():
        yield f"purity:{key}", values
    if n == 4:
        pairs = _pair_stack(purities["12"], purities["13"], purities["14"])
        for i, values in enumerate(pairs):
            yield f"pair:I{i + 1}", values
        rho = reduced_states(vectors, (2, 3, 4))
        for t in sorted(DEFAULT_TRIPLES, key=lambda t: t.key):
            yield f"poly:{t.key}", _polynomial_stack(rho, t)


def _matched(fa: InvariantFingerprint, fb: InvariantFingerprint) -> list:
    """(name, (x, y)) of each component of fa and fb, which must have the same ones."""
    ca = fa.components()
    cb = fb.components()
    if [k for k, _ in ca] != [k for k, _ in cb]:
        raise ValueError("fingerprints have different components")
    return [(name, (x, y)) for (name, x), (_, y) in zip(ca, cb)]


def _drift(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest |x - y| / (1 + |x|) over axis 0 of two component arrays,
    0.0 where there are no components."""
    return np.max(np.abs(x - y) / (1.0 + np.abs(x)), axis=0, initial=0.0)


def fingerprint_drift(fa: InvariantFingerprint, fb: InvariantFingerprint) -> float:
    """Largest relative component difference |x - y| / (1 + |x|)."""
    xy = np.array([v for _, v in _matched(fa, fb)]).reshape(-1, 2)
    return float(_drift(xy[:, 0], xy[:, 1]))


def first_difference(pairs, tol: float) -> tuple | None:
    """First (name, x, y) of a stream of (name, (x, y)) with |x - y| > tol,
    or None; an iterator is consumed only that far."""
    for name, (x, y) in pairs:
        if abs(x - y) > tol:
            return (name, x, y)
    return None


def separating_component(
    fa: InvariantFingerprint, fb: InvariantFingerprint, tol: float
) -> tuple | None:
    """First fingerprint component differing by more than tol, or None."""
    return first_difference(_matched(fa, fb), tol)
