"""Seeded benchmark inputs, each with a truth known by construction.

Everything here uses numpy alone: Haar-random states, Haar-random SU(2)
factors, GHZ, W, the four-qubit family, singlet pairs and products are all
built in this file.  A change to the program's own samplers therefore cannot
change what the benchmark feeds it.

A workload is a list of rounds.  Every round has the same fixed mix of
requests (the tables below); only the random draws differ, so a run's
medians depend on the seed and not on how many requests happen to fit in a
time budget.  The same (workload, seed, rounds) always gives the same deck.
"""

import json
import os
from itertools import combinations

import numpy as np

WORKLOADS = ("screen", "equiv", "canon", "density")

# Never used while the benchmark was tuned.  Check a claimed gain on it too.
HELD_OUT_SEED = 271828

# Selftest tolerances: GHZ (alpha, beta) and family (a, b, c) recovery.
GHZ_TOL = 1e-7
FAMILY_TOL = 1e-6
# Invariant agreement along an orbit (the selftest's drift tolerance).
PURITY_TOL = 1e-8

# The selftest's four-qubit coefficient grid (a, b) and its purely imaginary
# conjugate pairs (a, Im b).
FAMILY_A = (0.3, 0.45, 0.6, 0.75, 0.9)
FAMILY_B = (
    (0.2, 0.25), (0.2, 0.5), (-0.2, 0.3), (0.45, 0.25), (0.45, 0.5),
    (-0.45, 0.3), (0.3, 0.4), (-0.3, 0.45), (0.55, 0.35), (-0.15, 0.55),
)
CONJUGATE_PAIRS = ((0.35, 0.3), (0.5, 0.25), (0.65, 0.4), (0.8, 0.2), (0.45, 0.5))

# Near-product GHZ decade sweep for classify.  Below 2e-5 the program's
# product test (1 - purity < 1e-9, quadratic in beta) calls the state a
# product although its stabilizer rank cut (linear in beta) does not; the
# ROADMAP lists this disagreement as a known defect.
BETA_SWEEP = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
IS_PRODUCT_DEFECT_BETA = 2e-5

# One round of each workload; each entry is one request.  screen entries are
# (command, family, n).  Most screen requests have n <= 8; a fixed minority
# has n = 10-12 and carries the 4^n density matrix and the subset
# enumeration.
#
# Every mix puts one kind of request, repeated, across the middle of its
# latency distribution (about 40-60%), so the median falls inside that kind
# rather than on the edge between two kinds, where one request more or less
# would move it: analyze at n = 7 here, the conjugate pairs in equiv, GHZ
# n = 4 members in canon.
SCREEN_ROUND = (
    [("analyze", "ghz", n) for n in (3, 4, 5, 6, 7, 8)]
    + [("analyze", "haar", n) for n in (3, 5)]
    + [("analyze", "haar", 7)] * 8
    + [("analyze", "w", 3), ("analyze", "w", 6), ("analyze", "canon4", 4)]
    + [("analyze", "singlets", 4), ("analyze", "product", 4), ("analyze", "product", 6)]
    + [("invariants", "ghz", n) for n in (3, 4, 5, 6, 8)]
    + [("invariants", "haar", n) for n in (3, 4, 5, 8)]
    + [("invariants", "canon4", 4)] * 3
    + [("invariants", "w", 4), ("invariants", "w", 5)]
    + [("invariants", "product", 4), ("invariants", "product", 5)]
    + [("orbit", "ghz", 3), ("orbit", "ghz", 5), ("orbit", "ghz", 8)]
    + [("orbit", "canon4", 4), ("orbit", "haar", 6), ("orbit", "w", 4)]
    + [("analyze", "ghz", 10)] * 3
    + [("analyze", "haar", 12), ("invariants", "haar", 11), ("orbit", "haar", 10)]
)
# orbit sample counts: the CLI default below n = 8, fewer above.  orbit
# runs its samples on a pool of threads, so its time depends on how busy the
# machine's second CPU is; the three analyze requests at n = 10 sit above
# all but one orbit request per round and hold the tail percentile.
ORBIT_SAMPLES_SMALL = 20
ORBIT_SAMPLES_LARGE = 4

# Equivalent pairs: Haar orbit pairs at n = 4-5, whose cost is a random
# number of optimizer restarts, and balanced-GHZ orbit pairs; together about
# 40% of the run's time.  Larger Haar orbit pairs are left to probe.py: their
# restart counts make a 20-second run's throughput swing by more than its
# bound between seeds.  Inequivalent pairs exit at the screens and are two
# thirds of the requests, so the median is a screened request and the
# median and the throughput move separately.  The three n = 12 pairs per
# round are screened too and hold the tail percentile.  Entries: (kind, n).
EQUIV_ROUND = (
    [("haar-orbit", 4)] * 8
    + [("haar-orbit", 5)]
    + [("ghz-orbit", n) for n in (3, 5, 8)]
    + [("conjugate", 4)] * 9
    + [("ghz-alpha", n) for n in (3, 4, 5, 6, 7)]
    + [("ghz-w", n) for n in (3, 3, 3, 4, 4, 4, 5, 6, 7)]
    + [("haar-unrelated", n) for n in (4, 4, 4, 4, 4, 8, 12, 12, 12)]
)

# Entries: (kind, n) or, for the near-product sweep, (kind, n, beta).
CANON_ROUND = (
    [("ghz", n) for n in (3, 5, 6, 7, 8, 10, 12)]
    + [("ghz", 4)] * 6
    + [("canon4-grid", 4)] * 4
    + [("canon4-imag", 4)] * 2
    + [("canon4-circle", 4)]
    + [("ghz-beta", 4, beta) for beta in BETA_SWEEP]
    + [("haar", 4), ("haar", 5), ("haar", 6), ("w", 4), ("w", 5), ("w", 6)]
    + [("singlets", 4)] * 3
)

# (family, n, method)
DENSITY_ROUND = (
    [("ghz", n, "direct") for n in (4, 5, 6, 7, 8, 8)]
    + [("canon4", 4, "direct"), ("singlets", 4, "direct")]
    + [("mixed", n, "auto") for n in (2, 3, 4, 5, 6)]
)

ROUNDS = {
    "screen": SCREEN_ROUND,
    "equiv": EQUIV_ROUND,
    "canon": CANON_ROUND,
    "density": DENSITY_ROUND,
}


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ----------------------------------------------------------------- states


def haar_state(n: int, rng) -> np.ndarray:
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def haar_su2(rng) -> np.ndarray:
    """Haar SU(2) element from a uniform unit quaternion."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def apply_local(vec: np.ndarray, factors, phase: complex = 1.0) -> np.ndarray:
    """Apply one 2x2 matrix per qubit; qubit 1 is the most significant bit."""
    n = len(factors)
    t = vec.reshape((2,) * n)
    for j, u in enumerate(factors):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [j])), 0, j)
    return phase * t.reshape(-1)


def orbit_point(vec: np.ndarray, rng) -> np.ndarray:
    n = int(np.log2(vec.size))
    factors = [haar_su2(rng) for _ in range(n)]
    return apply_local(vec, factors, np.exp(2j * np.pi * rng.uniform()))


def ghz(n: int, alpha: complex, beta: complex) -> np.ndarray:
    v = np.zeros(2**n, dtype=np.complex128)
    v[0], v[-1] = alpha, beta
    return v / np.linalg.norm(v)


def w(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=np.complex128)
    for j in range(n):
        v[1 << j] = 1.0
    return v / np.sqrt(n)


def family_scale(a: float, b: complex) -> float:
    c = -a - b
    return 1.0 / np.sqrt(2.0 * (a**2 + abs(b) ** 2 + abs(c) ** 2))


def canon4(a: float, b: complex) -> np.ndarray:
    """a(|0011>+|1100>) + b(|1001>+|0110>) + c(|1010>+|0101>), c = -a - b."""
    c = -a - b
    v = np.zeros(16, dtype=np.complex128)
    v[0b0011] = v[0b1100] = a
    v[0b1001] = v[0b0110] = b
    v[0b1010] = v[0b0101] = c
    return v * family_scale(a, b)


def singlets() -> np.ndarray:
    s = np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2.0)
    return np.kron(s, s)


def subset_purities(vec: np.ndarray) -> dict:
    """Reduced purities keyed as the CLI prints them: proper subsets smaller
    than n/2, plus the half-size subsets that contain qubit 1."""
    n = int(np.log2(vec.size))
    t = vec.reshape((2,) * n)
    out = {}
    for k in range(1, n // 2 + 1):
        for subset in combinations(range(1, n + 1), k):
            if 2 * k == n and 1 not in subset:
                continue
            rest = [j for j in range(1, n + 1) if j not in subset]
            m = t.transpose([j - 1 for j in subset + tuple(rest)]).reshape(2**k, -1)
            g = m @ m.conj().T
            sep = "." if max(subset) > 9 else ""
            out[sep.join(map(str, subset))] = float(np.sum(np.abs(g) ** 2))
    return out


def partial_trace_keep(vec: np.ndarray, keep: int) -> np.ndarray:
    """Reduced density matrix of the first `keep` qubits of a pure state."""
    n = int(np.log2(vec.size))
    m = vec.reshape(2**keep, 2 ** (n - keep))
    return m @ m.conj().T


def ghz_params(rng):
    """Random GHZ weights (alpha real, beta with a random phase) away from
    the product ends."""
    theta = rng.uniform(0.1, np.pi / 2 - 0.1)
    return float(np.cos(theta)), float(np.sin(theta)) * np.exp(2j * np.pi * rng.uniform())


def family_state(family: str, n: int, rng):
    """A base state of a family and the truth its stabilizer must show.

    Truth keys: stab_dim, proj_dims, algebra (density algebra type) and
    blocks (product structure); a key is absent when not known in closed
    form.
    """
    if family == "ghz":
        alpha, beta = ghz_params(rng)
        vec = ghz(n, alpha, beta)
        truth = {"stab_dim": n - 1, "proj_dims": [1] * n, "algebra": "abelian"}
    elif family == "haar":
        vec = haar_state(n, rng)
        truth = {"stab_dim": 0, "proj_dims": [0] * n, "algebra": "abelian"}
    elif family == "w":
        vec = w(n)
        truth = {"stab_dim": 1, "proj_dims": [1] * n, "algebra": "abelian"}
    elif family == "canon4":
        a, (b1, b2) = FAMILY_A[rng.integers(len(FAMILY_A))], FAMILY_B[rng.integers(len(FAMILY_B))]
        vec = canon4(a, complex(b1, b2))
        truth = {"stab_dim": 3, "proj_dims": [3] * 4, "algebra": "su2"}
    elif family == "singlets":
        vec = singlets()
        truth = {"stab_dim": 6, "proj_dims": [3] * 4, "algebra": "other", "blocks": [[1, 2], [3, 4]]}
    elif family == "product":
        k = 2 if n < 6 else 3
        vec = np.kron(haar_state(k, rng), haar_state(n - k, rng))
        truth = {"blocks": [list(range(1, k + 1)), list(range(k + 1, n + 1))]}
    else:
        raise ValueError(f"unknown family {family!r}")
    truth.setdefault("blocks", "nonproduct")
    return vec, truth


# ------------------------------------------------------------ state files


def write_state(vec: np.ndarray, path: str, as_json: bool) -> str:
    """Write a state file in one of the two formats the CLI parses."""
    n = int(np.log2(vec.size))
    with open(path, "w", encoding="utf-8") as fh:
        if as_json:
            amps = [
                {"index": format(i, f"0{n}b"), "re": float(v.real), "im": float(v.imag)}
                for i, v in enumerate(vec)
            ]
            json.dump({"n": n, "amplitudes": amps}, fh)
        else:
            fh.write(f"# {n}-qubit benchmark state\n")
            for i, v in enumerate(vec):
                fh.write(f"{format(i, f'0{n}b')} {float(v.real)!r} {float(v.imag)!r}\n")
    return path


class StateFiles:
    """Names and writes the state files of one deck, alternating formats."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0
        os.makedirs(directory, exist_ok=True)

    def __call__(self, vec: np.ndarray) -> str:
        self.count += 1
        ext = "json" if self.count % 2 else "txt"
        path = os.path.join(self.directory, f"s{self.count:05d}.{ext}")
        return write_state(vec, path, as_json=ext == "json")


# ------------------------------------------------------------------ decks


def _cli_seed(rng) -> str:
    return str(int(rng.integers(2**31)))


def _screen_request(item, rng, save):
    command, family, n = item
    vec, truth = family_state(family, n, rng)
    point = orbit_point(vec, rng)
    argv = [command, save(point), "--format", "json", "--seed", _cli_seed(rng)]
    if command == "invariants":
        truth = {"purities": subset_purities(vec)}
    elif command == "orbit":
        samples = ORBIT_SAMPLES_SMALL if n < 8 else ORBIT_SAMPLES_LARGE
        argv += ["--samples", str(samples)]
        truth = {k: truth[k] for k in ("stab_dim", "proj_dims") if k in truth}
    return argv, truth


def _equiv_pair(kind: str, n: int, rng):
    if kind == "haar-orbit":
        psi = haar_state(n, rng)
        return psi, orbit_point(psi, rng), True
    if kind == "ghz-orbit":
        base = ghz(n, 1.0, 1.0)  # balanced: degenerate one-qubit spectra
        return orbit_point(base, rng), orbit_point(base, rng), True
    if kind == "haar-unrelated":
        return haar_state(n, rng), haar_state(n, rng), False
    if kind == "ghz-w":
        alpha, beta = ghz_params(rng)
        return orbit_point(ghz(n, alpha, beta), rng), orbit_point(w(n), rng), False
    if kind == "ghz-alpha":
        # both weights below pi/4 and 0.1 apart, so the pair is never
        # related by the all-qubit flip that exchanges alpha and beta
        t1 = rng.uniform(0.1, np.pi / 4 - 0.2)
        t2 = t1 + rng.uniform(0.1, np.pi / 4 - 0.1 - t1)
        a = orbit_point(ghz(n, np.cos(t1), np.sin(t1)), rng)
        return a, orbit_point(ghz(n, np.cos(t2), np.sin(t2)), rng), False
    if kind == "conjugate":
        a, b2 = CONJUGATE_PAIRS[rng.integers(len(CONJUGATE_PAIRS))]
        plus = canon4(a, complex(0.0, b2))
        return orbit_point(plus, rng), canon4(a, complex(0.0, -b2)), False
    raise ValueError(f"unknown pair kind {kind!r}")


def _equiv_request(item, rng, save):
    kind, n = item
    psi, phi, equivalent = _equiv_pair(kind, n, rng)
    argv = ["equiv", save(psi), save(phi), "--format", "json", "--seed", _cli_seed(rng)]
    return argv, {"equivalent": equivalent}


def _canon_request(item, rng, save):
    kind, n = item[0], item[1]
    if kind == "ghz":
        alpha, beta = ghz_params(rng)
        vec = ghz(n, alpha, beta)
        hi, lo = max(alpha, abs(beta)), min(alpha, abs(beta))
        truth = {"verdict": "ghz_class", "alpha": hi, "beta": lo}
    elif kind == "ghz-beta":
        beta = item[2]
        vec = ghz(n, np.sqrt(1.0 - beta**2), beta)
        truth = {"verdict": "ghz_class", "alpha": float(np.sqrt(1.0 - beta**2)), "beta": beta}
        if beta < IS_PRODUCT_DEFECT_BETA:
            truth["known_defect"] = "is_product cuts on 1 - purity, quadratic in beta"
    elif kind.startswith("canon4"):
        a = float(FAMILY_A[rng.integers(len(FAMILY_A))])
        if kind == "canon4-grid":
            b = complex(*FAMILY_B[rng.integers(len(FAMILY_B))])
        elif kind == "canon4-imag":
            a, b2 = CONJUGATE_PAIRS[rng.integers(len(CONJUGATE_PAIRS))]
            b = complex(0.0, b2)
        else:
            # on |b|^2 + a Re b = 0 both degree-3 invariants vanish
            phi = rng.uniform(0.6 * np.pi, 0.9 * np.pi)
            b = -a * np.cos(phi) * np.exp(1j * phi)
        vec = canon4(a, b)
        s = family_scale(a, b)
        truth = {"verdict": "four_qubit_su2", "a": a * s, "b": b * s}
    else:
        vec, _ = family_state(kind, n, rng)
        truth = {"verdict": "not_max_stab"}
    argv = ["classify", save(orbit_point(vec, rng)), "--format", "json", "--seed", _cli_seed(rng)]
    return argv, truth


def _density_request(item, rng):
    family, n, method = item
    if family == "mixed":
        # reduced state of a Haar state on two more qubits: rank four,
        # generically a trivial stabilizer
        rho = partial_trace_keep(haar_state(n + 2, rng), n)
        truth = {"stab_dim": 0, "proj_dims": [0] * n}
    else:
        vec, truth = family_state(family, n, rng)
        # rank one; the worker forms the outer product just before the call
        rho = orbit_point(vec, rng)
        truth = {k: truth[k] for k in ("stab_dim", "proj_dims")}
    return {"state": rho, "method": method}, truth


def build_deck(workload: str, seed: int, rounds: int, directory: str) -> list:
    """The requests of a run: `rounds` copies of the workload's round.

    Each request is a dict with kind (a label for per-kind summaries),
    either argv (a CLI request; its state files are written to directory)
    or call (a library request), and truth for the oracle.
    """
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    save = StateFiles(directory)
    deck = []
    widx = WORKLOADS.index(workload)
    for r in range(rounds):
        for i, item in enumerate(ROUNDS[workload]):
            rng = rng_for(seed, widx, r, i)
            kind = ":".join(str(x) for x in item)
            if workload == "screen":
                argv, truth = _screen_request(item, rng, save)
            elif workload == "equiv":
                argv, truth = _equiv_request(item, rng, save)
            elif workload == "canon":
                argv, truth = _canon_request(item, rng, save)
            else:
                call, truth = _density_request(item, rng)
                deck.append({"kind": kind, "call": call, "truth": truth})
                continue
            deck.append({"kind": kind, "argv": argv, "truth": truth})
    return deck
