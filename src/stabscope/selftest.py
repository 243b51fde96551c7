"""Self-test suite: desk-scale checks of every documented guarantee.

Each criterion is a function that records its checks on the recorder it is
given and returns its one-line summary; CRITERIA names and numbers it, and
the runner times it and builds its CriterionResult.  All randomness derives
from the master seed through fixed spawn keys, so repeated runs produce
identical pass/fail outcomes.  The suite runs the criteria one after another
in index order.
"""

import itertools
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .states import (
    DensityMatrix,
    PureState,
    bit_table,
    canonical_four_qubit_state,
    ghz_state,
    is_product,
    random_state,
    singlet_state,
    subset_purity,
    tensor_product,
    to_density,
    w_state,
)
from .local_unitary import (
    LieElement,
    apply_local_unitary,
    commutator_action,
    diagonal_commutator_weight,
    haar_random_local_unitary,
    su2_coords,
)
from .stabilizer import (
    GAP_MIN,
    algebra_type,
    phase_projection_check,
    principal_angles,
    span_contains,
    stabilizer_density,
    stabilizer_pure,
)
from .invariants import (
    REFERENCE_TRIPLE,
    PermutationTriple,
    canonical_poly3_im,
    fingerprint_drift,
    invariant_fingerprint,
)
from .equivalence import decide_equivalence, lu_infidelity
from .classify import canonicalize_four_qubit, canonicalize_ghz, classify

# corpus shape
GHZ_SIZES = (3, 4, 5, 6, 8)
GHZ_PAIRS = 20
GHZ_ORBIT = 20
FAMILY_ORBIT = 20
HAAR_STATES = 50

# pinned pass thresholds
ANGLE_TOL = 1e-7
ZETA_TOL = 1e-12
GHZ_RECOVERY_TOL = 1e-7
FAMILY_RECOVERY_TOL = 1e-6
BRUTE_POLY_RELTOL = 1e-8
DRIFT_TOL = 1e-8
HAAR_TRIVIAL_FRACTION = 0.95
CONJUGATE_INFIDELITY_MIN = 1e-3
CONJUGATE_RESTARTS = 100
CORPUS_TIME_LIMIT = 60.0
TOTAL_TIME_LIMIT = 300.0

# coefficient grid for the four-qubit family: margins keep every point away
# from b1 = 0 and from the zero set of b1^2 + b2^2 + a*b1
FAMILY_A = (0.3, 0.45, 0.6, 0.75, 0.9)
FAMILY_B = (
    (0.2, 0.25),
    (0.2, 0.5),
    (-0.2, 0.3),
    (0.45, 0.25),
    (0.45, 0.5),
    (-0.45, 0.3),
    (0.3, 0.4),
    (-0.3, 0.45),
    (0.55, 0.35),
    (-0.15, 0.55),
)

# purely imaginary b, where the state and its conjugate share all the even
# invariants but are still inequivalent
CONJUGATE_PAIRS = ((0.35, 0.3), (0.5, 0.25), (0.65, 0.4), (0.8, 0.2), (0.45, 0.5))


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    checks: int
    elapsed: float
    failures: tuple[str, ...]
    summary: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.index:2d} {self.name}: {self.summary} ({self.elapsed:.1f}s)"
        for msg in self.failures:
            out += f"\n        {msg}"
        return out


class _Recorder:
    """Counts checks and keeps the first handful of failure messages."""

    def __init__(self, limit: int = 12):
        self.checks = 0
        self.failures: list[str] = []
        self._limit = limit

    def check(self, ok: bool, message: str) -> bool:
        self.checks += 1
        if not ok and len(self.failures) < self._limit:
            self.failures.append(message)
        return ok


def _ghz_corpus(master_seed: int):
    """The GHZ test corpus: per size, random (alpha, beta) bases and random
    local-unitary orbit points of each.  Yields (n, alpha, beta, state)."""
    for n in GHZ_SIZES:
        for k in range(GHZ_PAIRS):
            rng = _rng(master_seed, 1, n, k)
            theta = rng.uniform(0.1, np.pi / 2 - 0.1)
            alpha = float(np.cos(theta))
            beta = float(np.sin(theta))
            phase = np.exp(2j * np.pi * rng.uniform())
            base = ghz_state(n, alpha, beta * phase)
            yield n, alpha, beta, base
            for _ in range(GHZ_ORBIT):
                g = haar_random_local_unitary(n, rng)
                yield n, alpha, beta, apply_local_unitary(g, base)


def _family_grid():
    return [(a, complex(b1, b2)) for a in FAMILY_A for (b1, b2) in FAMILY_B]


def _family_scale(a: float, b: complex) -> float:
    c = -a - b
    return 1.0 / np.sqrt(2.0 * (a**2 + abs(b) ** 2 + abs(c) ** 2))


def _family_corpus(master_seed: int):
    """Family grid states and their orbit points: (grid_index, is_base, state)."""
    for gi, (a, b) in enumerate(_family_grid()):
        base = canonical_four_qubit_state(a, b)
        yield gi, True, base
        rng = _rng(master_seed, 2, gi)
        for _ in range(FAMILY_ORBIT):
            g = haar_random_local_unitary(4, rng)
            yield gi, False, apply_local_unitary(g, base)


def _family_reference_span() -> np.ndarray:
    """Orthonormal basis of the subalgebra whose elements repeat one su(2)
    coordinate vector on all four qubits."""
    rows = np.zeros((3, 12))
    for axis in range(3):
        rows[axis, axis::3] = 0.5
    return rows


def _haar_corpus(master_seed: int):
    for i in range(HAAR_STATES):
        n = 1 + i % 4
        yield random_state(n, _rng(master_seed, 3, i))


def criterion_ghz_stabilizer_dimension(rec: _Recorder, master_seed: int) -> str:
    """Generalized GHZ states at several sizes keep stabilizer dimension
    n - 1, all qubit projections one-dimensional, and a clean spectral gap,
    at every point of their local-unitary orbits."""
    t0 = perf_counter()
    count = 0
    for n, alpha, beta, psi in _ghz_corpus(master_seed):
        count += 1
        k = stabilizer_pure(psi)
        rec.check(
            k.dim == n - 1,
            f"n={n} (alpha={alpha:.3f}): dim {k.dim} != {n - 1}",
        )
        rec.check(
            all(d == 1 for d in k.proj_dims),
            f"n={n}: projections {k.proj_dims} not all 1",
        )
        rec.check(
            k.gap > GAP_MIN,
            f"n={n}: singular-value gap {k.gap:.2e} below {GAP_MIN:.0e}",
        )
    elapsed = perf_counter() - t0
    rec.check(elapsed < CORPUS_TIME_LIMIT, f"runtime {elapsed:.1f}s exceeds {CORPUS_TIME_LIMIT}s")
    return f"{count} states across n={GHZ_SIZES}"


def criterion_four_qubit_family_stabilizer(rec: _Recorder, master_seed: int) -> str:
    """Canonical four-qubit family states have a three-dimensional su(2)
    stabilizer equal to the repeated-coordinate reference span, with all
    qubit projections three-dimensional across their orbits."""
    t0 = perf_counter()
    reference = _family_reference_span()
    count = 0
    for gi, is_base, psi in _family_corpus(master_seed):
        count += 1
        k = stabilizer_density(to_density(psi), method="direct")
        rec.check(k.dim == 3, f"grid point {gi}: dim {k.dim} != 3")
        rec.check(
            k.proj_dims == (3, 3, 3, 3),
            f"grid point {gi}: projections {k.proj_dims}",
        )
        if is_base:
            at = algebra_type(k)
            rec.check(at.kind == "su2", f"grid point {gi}: algebra {at.kind}")
            angles = principal_angles(k.basis, reference)
            worst = float(np.max(angles, initial=0.0))
            rec.check(
                worst < ANGLE_TOL,
                f"grid point {gi}: angle to reference span {worst:.2e}",
            )
    elapsed = perf_counter() - t0
    rec.check(elapsed < CORPUS_TIME_LIMIT, f"runtime {elapsed:.1f}s exceeds {CORPUS_TIME_LIMIT}s")
    return f"{count} states on a {len(_family_grid())}-point grid"


def criterion_projection_consistency(rec: _Recorder, master_seed: int) -> str:
    """Dropping the phase component maps the pure-state stabilizer onto the
    density stabilizer with equal dimension and span, on the full GHZ and
    family corpora plus Haar-random states."""
    count = 0
    states = itertools.chain(
        (psi for _, _, _, psi in _ghz_corpus(master_seed)),
        (psi for _, _, psi in _family_corpus(master_seed)),
        _haar_corpus(master_seed),
    )
    for psi in states:
        count += 1
        pc = phase_projection_check(psi)
        rec.check(
            pc.dim_pure == pc.dim_density,
            f"n={psi.n}: dims {pc.dim_pure} vs {pc.dim_density}",
        )
        rec.check(
            pc.max_angle < ANGLE_TOL,
            f"n={psi.n}: span angle {pc.max_angle:.2e}",
        )
    return f"{count} states compared"


def criterion_diagonal_commutator_weights(rec: _Recorder, master_seed: int) -> str:
    """The commutator of a diagonal element with any density matrix scales
    each entry by the closed-form weight, entrywise to 1e-12."""
    for i in range(100):
        n = 1 + i % 4
        rng = _rng(master_seed, 14, i)
        t = rng.standard_normal(n)
        d = 2**n
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mat = g @ g.conj().T
        rho = DensityMatrix(mat / np.trace(mat).real)
        coords = np.zeros((n, 3))
        coords[:, 0] = t
        lhs = commutator_action(LieElement(0.0, coords), rho)
        bits = bit_table(n)
        weights = np.empty((d, d), dtype=np.complex128)
        for a in range(d):
            for b in range(d):
                weights[a, b] = diagonal_commutator_weight(bits[a], bits[b], t)
        err = float(np.max(np.abs(lhs - weights * rho.matrix)))
        rec.check(err <= ZETA_TOL, f"case {i} (n={n}): entrywise error {err:.2e}")
    return "100 random (t, rho) pairs"


def _insert_qubit(phi_vec: np.ndarray, rest: PureState, ell: int, n: int) -> PureState:
    """State with single-qubit phi at position ell and rest on the others."""
    idx = np.arange(2**n)
    shift = n - ell
    bit = (idx >> shift) & 1
    rest_idx = ((idx >> (shift + 1)) << shift) | (idx & ((1 << shift) - 1))
    return PureState(phi_vec[bit] * rest.vector[rest_idx])


def criterion_unentangled_qubit_detection(rec: _Recorder, master_seed: int) -> str:
    """A qubit in a pure single-qubit state contributes its aligned su(2)
    generator to the density stabilizer, and shows purity one; entangled
    qubits admit no stabilizer element supported on that qubit alone."""
    for i in range(50):
        n = 3 + i % 3
        rng = _rng(master_seed, 15, i)
        ell = int(rng.integers(1, n + 1))
        phi_vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi_vec /= np.linalg.norm(phi_vec)
        rest = random_state(n - 1, rng)
        for _ in range(10):
            if not is_product(rest).is_product:
                break
            rest = random_state(n - 1, rng)
        psi = _insert_qubit(phi_vec, rest, ell, n)
        k = stabilizer_density(to_density(psi), method="direct")
        aligned = su2_coords(1j * (2.0 * np.outer(phi_vec, phi_vec.conj()) - np.eye(2)))
        flat = np.zeros(3 * n)
        flat[3 * (ell - 1) : 3 * ell] = aligned
        rec.check(
            span_contains(k, flat),
            f"case {i}: aligned generator at qubit {ell} not in the stabilizer",
        )
        pur = subset_purity(psi, (ell,))
        rec.check(abs(pur - 1.0) < 1e-10, f"case {i}: purity {pur:.12f} at qubit {ell}")
    # converse: entangled qubits never carry a single-qubit stabilizer element
    for i in range(10):
        rng = _rng(master_seed, 16, i)
        if i % 2 == 0:
            g = haar_random_local_unitary(3, rng)
            psi = apply_local_unitary(g, ghz_state(3))
        else:
            psi = random_state(3, rng)
            while is_product(psi).is_product:
                psi = random_state(3, rng)
        k = stabilizer_density(to_density(psi), method="direct")
        for ell in range(1, 4):
            pur = subset_purity(psi, (ell,))
            rec.check(pur < 1.0 - 1e-6, f"converse {i}: qubit {ell} purity {pur:.6f}")
            if k.dim == 0:
                continue
            outside = [c for c in range(9) if not 3 * (ell - 1) <= c < 3 * ell]
            smin = float(np.linalg.svd(k.basis[:, outside], compute_uv=False)[-1])
            rec.check(
                smin > 1e-7,
                f"converse {i}: stabilizer element supported only on qubit {ell}",
            )
    return "50 aligned + 10 converse cases"


def criterion_ghz_roundtrip(rec: _Recorder, master_seed: int) -> str:
    """GHZ canonicalization recovers the construction coefficients, constant
    across the orbit, to 1e-7."""
    sizes = (3, 4, 5, 3, 4)
    for case, n in enumerate(sizes):
        rng = _rng(master_seed, 17, case)
        theta = rng.uniform(0.12, np.pi / 4 - 0.05)
        alpha, beta = float(np.cos(theta)), float(np.sin(theta))
        base = ghz_state(n, alpha, beta)
        for j in range(10):
            g = haar_random_local_unitary(n, rng)
            moved = apply_local_unitary(g, base)
            form = canonicalize_ghz(moved)
            rec.check(
                abs(form.alpha - alpha) < GHZ_RECOVERY_TOL
                and abs(form.beta - beta) < GHZ_RECOVERY_TOL,
                f"case {case} orbit {j}: recovered ({form.alpha:.9f}, {form.beta:.9f}) "
                f"vs ({alpha:.9f}, {beta:.9f})",
            )
            rec.check(
                form.residual < 1e-8,
                f"case {case} orbit {j}: canonical residual {form.residual:.2e}",
            )
    return f"{10 * len(sizes)} orbit points recovered"


def _poly3_reference(psi: PureState, triple: PermutationTriple) -> complex:
    """Literal triple-loop evaluation of the degree-3 invariant, kept
    independent of the vectorized implementation."""
    v = psi.vector
    bits = bit_table(4)
    sigma, tau, phi = triple.sigma, triple.tau, triple.phi
    total = 0.0 + 0.0j
    for i1 in range(16):
        for i2 in range(16):
            for i3 in range(16):
                copies = (i1, i2, i3)
                term = 1.0 + 0.0j
                for k in range(3):
                    j = (
                        (bits[copies[k], 0] << 3)
                        | (bits[copies[sigma[k] - 1], 1] << 2)
                        | (bits[copies[tau[k] - 1], 2] << 1)
                        | bits[copies[phi[k] - 1], 3]
                    )
                    term *= v[copies[k]] * np.conj(v[j])
                total += term
    return complex(total)


def criterion_four_qubit_recovery(rec: _Recorder, master_seed: int) -> str:
    """Canonical coefficient extraction inverts random local unitaries on the
    whole non-degenerate grid to 1e-6, and the degree-3 invariant's literal
    sum matches its closed form."""
    grid = _family_grid()
    for gi, (a, b) in enumerate(grid):
        s = _family_scale(a, b)
        base = canonical_four_qubit_state(a, b)
        rng = _rng(master_seed, 18, gi)
        moved = apply_local_unitary(haar_random_local_unitary(4, rng), base)
        form = canonicalize_four_qubit(moved)
        err = max(
            abs(form.a - a * s), abs(form.b - b * s), abs(form.c - (-a - b) * s)
        )
        rec.check(
            err < FAMILY_RECOVERY_TOL,
            f"grid point {gi} (a={a}, b={b}): coefficient error {err:.2e}",
        )
        rec.check(
            form.unitary is not None, f"grid point {gi}: witness not certified ({form.notes})"
        )
    for gi in (0, len(grid) // 2, len(grid) - 1):
        a, b = grid[gi]
        s = _family_scale(a, b)
        psi = canonical_four_qubit_state(a, b)
        literal = _poly3_reference(psi, REFERENCE_TRIPLE).imag
        closed = canonical_poly3_im(a * s, b * s)
        rec.check(
            abs(literal - closed) <= BRUTE_POLY_RELTOL * abs(closed),
            f"grid point {gi}: literal {literal:.3e} vs closed form {closed:.3e}",
        )
    return f"{len(grid)} grid points inverted"


def criterion_invariant_drift(rec: _Recorder, master_seed: int) -> str:
    """Every reported invariant is constant along local-unitary orbits to
    1e-8, over 200 random (state, unitary) pairs."""
    worst = 0.0
    for i in range(200):
        rng = _rng(master_seed, 19, i)
        if i % 2 == 0:
            psi = random_state(4, rng)
        else:
            while True:
                a = float(rng.uniform(0.25, 0.85))
                b = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                if abs(b) > 0.05 and abs(a + b) > 0.05:
                    break
            psi = canonical_four_qubit_state(a, b)
        g = haar_random_local_unitary(4, rng)
        drift = fingerprint_drift(
            invariant_fingerprint(psi), invariant_fingerprint(apply_local_unitary(g, psi))
        )
        worst = max(worst, drift)
        rec.check(drift < DRIFT_TOL, f"pair {i}: fingerprint drift {drift:.2e}")
    return f"200 orbit pairs, worst drift {worst:.1e}"


def criterion_singlet_pair_dimension(rec: _Recorder, master_seed: int) -> str:
    """A product of two singlets has a six-dimensional density stabilizer,
    by the direct solve and by the projected one, which cross-checks it."""
    psi = tensor_product(singlet_state(), singlet_state())
    k = stabilizer_density(to_density(psi), method="direct")
    rec.check(k.dim == 6, f"direct solve: dim {k.dim} != 6")
    k_projected = stabilizer_density(to_density(psi), method="projected")
    rec.check(k_projected.dim == 6, f"projected solve: dim {k_projected.dim} != 6")
    return f"dim {k.dim}"


def criterion_negative_controls(rec: _Recorder, master_seed: int) -> str:
    """Non-members stay out: the W state has a one-dimensional stabilizer and
    is not maximal, Haar-random states are generically trivial, and the
    W/GHZ pair is decided inequivalent."""
    w3 = w_state(3)
    k = stabilizer_pure(w3)
    rec.check(k.dim == 1, f"W state: dim {k.dim} != 1")
    rep = classify(w3)
    rec.check(rep.verdict == "not_max_stab", f"W state verdict {rep.verdict}")
    trivial = 0
    for i in range(100):
        psi = random_state(3, _rng(master_seed, 20, i))
        if stabilizer_pure(psi).dim == 0:
            trivial += 1
    rec.check(
        trivial >= HAAR_TRIVIAL_FRACTION * 100,
        f"only {trivial}/100 Haar states have a trivial stabilizer",
    )
    verdict = decide_equivalence(ghz_state(3), w3)
    rec.check(
        verdict.status == "inequivalent",
        f"GHZ/W decision returned {verdict.status}",
    )
    return f"{trivial}/100 Haar states trivial"


def criterion_conjugate_pair_separation(rec: _Recorder, master_seed: int) -> str:
    """For purely imaginary b the family state and its conjugate are never
    declared equivalent, and the best infidelity over many restarts stays
    bounded away from zero."""
    for idx, (a, b2) in enumerate(CONJUGATE_PAIRS):
        rng = _rng(master_seed, 21, idx)
        plus = canonical_four_qubit_state(a, complex(0.0, b2))
        minus = canonical_four_qubit_state(a, complex(0.0, -b2))
        moved = apply_local_unitary(haar_random_local_unitary(4, rng), plus)
        verdict = decide_equivalence(moved, minus)
        rec.check(
            verdict.status != "equivalent",
            f"pair {idx} (a={a}, b2={b2}): declared equivalent",
        )
        search = lu_infidelity(
            moved, minus, restarts=CONJUGATE_RESTARTS, seed=int(rng.integers(1 << 31))
        )
        rec.check(
            search.infidelity > CONJUGATE_INFIDELITY_MIN,
            f"pair {idx}: best infidelity {search.infidelity:.2e} over "
            f"{CONJUGATE_RESTARTS} restarts",
        )
    return f"{len(CONJUGATE_PAIRS)} conjugate pairs"


CRITERIA = (
    (1, "ghz_stabilizer_dimension", criterion_ghz_stabilizer_dimension),
    (2, "four_qubit_family_stabilizer", criterion_four_qubit_family_stabilizer),
    (3, "projection_consistency", criterion_projection_consistency),
    (4, "diagonal_commutator_weights", criterion_diagonal_commutator_weights),
    (5, "unentangled_qubit_detection", criterion_unentangled_qubit_detection),
    (6, "ghz_roundtrip", criterion_ghz_roundtrip),
    (7, "four_qubit_recovery", criterion_four_qubit_recovery),
    (8, "invariant_drift", criterion_invariant_drift),
    (9, "singlet_pair_dimension", criterion_singlet_pair_dimension),
    (10, "negative_controls", criterion_negative_controls),
    (11, "conjugate_pair_separation", criterion_conjugate_pair_separation),
)


def _run(entry, master_seed: int) -> CriterionResult:
    """Run one CRITERIA entry on a fresh recorder and time it."""
    index, name, fn = entry
    t0 = perf_counter()
    rec = _Recorder()
    summary = fn(rec, master_seed)
    elapsed = perf_counter() - t0
    return CriterionResult(
        index, name, not rec.failures, rec.checks, elapsed, tuple(rec.failures), summary
    )


def run_criterion(index: int, master_seed: int = 0) -> CriterionResult:
    for entry in CRITERIA:
        if entry[0] == index:
            return _run(entry, master_seed)
    raise ValueError(f"no criterion {index}; valid indices are 1..{len(CRITERIA)}")


@dataclass(frozen=True)
class SelftestReport:
    passed: bool
    results: tuple[CriterionResult, ...]
    elapsed: float

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        good = sum(r.passed for r in self.results)
        status = "PASS" if self.passed else "FAIL"
        out.append(
            f"{status}: {good}/{len(self.results)} criteria in {self.elapsed:.1f}s"
        )
        if self.elapsed >= TOTAL_TIME_LIMIT:
            out.append(f"wall time exceeded the {TOTAL_TIME_LIMIT:.0f}s budget")
        return out


def run_selftest(master_seed: int = 0, stream=None) -> SelftestReport:
    """Run all criteria serially in index order."""
    t0 = perf_counter()
    results = []
    for entry in CRITERIA:
        res = _run(entry, master_seed)
        results.append(res)
        if stream is not None:
            print(res.line(), file=stream, flush=True)
    elapsed = perf_counter() - t0
    passed = all(r.passed for r in results) and elapsed < TOTAL_TIME_LIMIT
    report = SelftestReport(passed, tuple(results), elapsed)
    if stream is not None:
        for line in report.lines()[len(results):]:
            print(line, file=stream, flush=True)
    return report
