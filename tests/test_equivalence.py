import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stabscope
from stabscope import (
    LocalUnitary,
    PureState,
    apply_local_unitary,
    basis_state,
    canonical_four_qubit_state,
    canonicalize_ghz,
    decide_equivalence,
    ghz_state,
    haar_random_local_unitary,
    haar_su2,
    invariant_fingerprint,
    lu_infidelity,
    random_state,
    reduced_state,
    separating_component,
    stabilizer_pure,
    state_to_dict,
    tensor_product,
    w_state,
)
from stabscope.equivalence import FINGERPRINT_TOL, _infidelity_and_grad
from stabscope.local_unitary import SU2_BASIS, su2_matrix
from stabscope.states import apply_factors, apply_matrix_to_qubit
from stabscope.invariants import fingerprint_component_stack, first_difference


def _fidelity(psi, phi):
    return abs(np.vdot(phi.vector, psi.vector)) ** 2


def test_identical_states_need_one_restart():
    psi = random_state(3, np.random.default_rng(0))
    search = lu_infidelity(psi, psi, restarts=10)
    assert search.infidelity < 1e-12
    assert search.restarts_used == 1
    # no restart is an error, not one restart reported as used
    for decide in (lu_infidelity, decide_equivalence):
        with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
            decide(psi, psi, restarts=0)


def test_orbit_pair_is_matched_with_valid_witness():
    rng = np.random.default_rng(1)
    psi = random_state(4, rng)
    g = haar_random_local_unitary(4, rng)
    moved = apply_local_unitary(g, psi)
    search = lu_infidelity(psi, moved, restarts=20, seed=3)
    assert search.infidelity < 1e-10
    transported = apply_local_unitary(search.witness, psi)
    assert _fidelity(transported, moved) > 1.0 - 1e-8
    # with the witness phase applied the vectors agree directly
    assert np.allclose(transported.vector, moved.vector, atol=1e-4)


def test_search_is_deterministic_and_monotone_in_restarts():
    plus = canonical_four_qubit_state(0.5, 0.25j)
    minus = canonical_four_qubit_state(0.5, -0.25j)
    a = lu_infidelity(plus, minus, restarts=6, seed=11)
    b = lu_infidelity(plus, minus, restarts=6, seed=11)
    assert a.infidelity == b.infidelity
    more = lu_infidelity(plus, minus, restarts=18, seed=11)
    assert more.infidelity <= a.infidelity


def test_mismatched_sizes_raise():
    with pytest.raises(ValueError):
        lu_infidelity(ghz_state(3), ghz_state(4))
    with pytest.raises(ValueError):
        decide_equivalence(ghz_state(3), ghz_state(4))


def test_decide_stabilizer_dimension_separator():
    verdict = decide_equivalence(ghz_state(3), w_state(3))
    assert verdict.status == "inequivalent"
    assert verdict.separator == ("stab_dim", 2, 1)
    assert verdict.best_infidelity is None  # optimizer never ran
    assert verdict.decided_by == "stab_dim"


def test_decide_projection_dimension_separator():
    # both stabilizers are one-dimensional, but W4's moves every qubit and
    # the product's only the qubit in |0>
    product = tensor_product(random_state(3, np.random.default_rng(4)), basis_state((0,)))
    verdict = decide_equivalence(w_state(4), product)
    assert verdict.status == "inequivalent"
    assert verdict.separator == ("proj_dims", (1, 1, 1, 1), (0, 0, 0, 1))
    assert verdict.best_infidelity is None
    assert verdict.decided_by == "proj_dims"


def test_decide_fingerprint_separator_between_ghz_weights():
    verdict = decide_equivalence(ghz_state(4, 0.9), ghz_state(4, 0.7))
    assert verdict.status == "inequivalent"
    assert verdict.separator[0].startswith("purity:")
    assert verdict.decided_by == "fingerprint:" + verdict.separator[0]


def test_decide_swap_polynomial_separator_on_conjugate_pair():
    verdict = decide_equivalence(
        canonical_four_qubit_state(0.5, 0.3j),
        canonical_four_qubit_state(0.5, -0.3j),
    )
    assert verdict.status == "inequivalent"
    assert verdict.separator[0] == "poly:3:321:231:213"


def test_decide_equivalent_orbit_pair_returns_witness():
    rng = np.random.default_rng(4)
    psi = ghz_state(4, 0.8, 0.6)
    moved = apply_local_unitary(haar_random_local_unitary(4, rng), psi)
    verdict = decide_equivalence(psi, moved, restarts=20, seed=5)
    assert verdict.status == "equivalent"
    assert verdict.best_infidelity < 1e-7
    transported = apply_local_unitary(verdict.witness, psi)
    assert _fidelity(transported, moved) > 1.0 - 1e-6


def test_decide_unknown_when_no_invariant_or_match_exists():
    # at n = 5 the fingerprint holds purities only, which cannot tell a state
    # from its conjugate; the stabilizer is trivial, so no canonical form
    # applies, and no local unitary connects the two
    psi = random_state(5, np.random.default_rng(2))
    verdict = decide_equivalence(psi, PureState(psi.vector.conj()), restarts=8, seed=2)
    assert verdict.status == "unknown"
    assert verdict.best_infidelity > 1e-4


def test_verdict_serialization_round_trip():
    import json

    verdict = decide_equivalence(ghz_state(3), w_state(3))
    payload = json.loads(json.dumps(verdict.to_dict()))
    assert payload["status"] == "inequivalent"
    assert payload["decided_by"] == "stab_dim"
    assert payload["separator"]["invariant"] == "stab_dim"
    assert payload["separator"]["value_a"] == 2
    assert payload["separator"]["value_b"] == 1
    rng = np.random.default_rng(6)
    psi = random_state(3, rng)
    moved = apply_local_unitary(haar_random_local_unitary(3, rng), psi)
    verdict = decide_equivalence(psi, moved, restarts=12, seed=1)
    payload = json.loads(json.dumps(verdict.to_dict()))
    assert payload["status"] == "equivalent"
    assert payload["decided_by"] == "standard_form"
    factors = np.array(
        [[[complex(re, im) for re, im in row] for row in f] for f in payload["witness"]["factors"]]
    )
    assert factors.shape == (3, 2, 2)
    phase = complex(payload["witness"]["global_phase"]["re"], payload["witness"]["global_phase"]["im"])
    rebuilt = LocalUnitary(list(factors), phase)
    assert _fidelity(apply_local_unitary(rebuilt, psi), moved) > 1.0 - 1e-6


@pytest.mark.parametrize("n", range(3, 13))
def test_haar_orbit_pairs_are_decided_by_the_standard_form(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(3 if n < 10 else 1):
        psi = random_state(n, rng)
        moved = apply_local_unitary(haar_random_local_unitary(n, rng), psi)
        verdict = decide_equivalence(psi, moved)
        assert verdict.status == "equivalent"
        assert verdict.decided_by == "standard_form"
        assert verdict.restarts_used == 0
        assert verdict.best_infidelity < 1e-7
        assert _fidelity(apply_local_unitary(verdict.witness, psi), moved) > 1.0 - 1e-7


def test_conjugate_haar_state_is_left_to_the_optimizer():
    # purities cannot tell a state from its conjugate, and the standard-form
    # witness for such a pair fails verification
    rng = np.random.default_rng(7)
    for _ in range(3):
        psi = random_state(5, rng)
        verdict = decide_equivalence(psi, PureState(psi.vector.conj()), restarts=3)
        assert verdict.status != "equivalent"
        assert verdict.decided_by == "optimizer"
        assert verdict.restarts_used > 0


MAXIMAL_STABILIZER_STATES = {
    **{f"ghz{n}": ghz_state(n) for n in range(3, 13)},
    **{f"ghz{n}-beta": ghz_state(n, np.sqrt(1.0 - 1e-6), 1e-3) for n in range(3, 13)},
    "canon4": canonical_four_qubit_state(0.5, 0.3 + 0.2j),
    "canon4-imaginary": canonical_four_qubit_state(0.5, 0.3j),
    "canon4-circle": canonical_four_qubit_state(0.5, -0.25 + 0.25j),
}


@pytest.mark.parametrize("name", list(MAXIMAL_STABILIZER_STATES))
def test_maximal_stabilizer_pairs_are_decided_by_the_canonical_form(name):
    # balanced GHZ and the four-qubit family have degenerate one-qubit
    # spectra, and the standard-form witness of these beta = 1e-3 GHZ pairs
    # misses tol (about 4e-6); the canonicalisers give an exact witness
    psi = MAXIMAL_STABILIZER_STATES[name]
    rng = np.random.default_rng(8)
    a = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
    b = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
    verdict = decide_equivalence(a, b, seed=1)
    assert verdict.status == "equivalent"
    assert verdict.decided_by == "canonical_form"
    assert verdict.restarts_used == 0
    assert verdict.best_infidelity < 1e-12
    assert _fidelity(apply_local_unitary(verdict.witness, a), b) > 1.0 - 1e-12
    if name.startswith("ghz"):
        # both orbit points recover the construction's (alpha, beta)
        for moved in (a, b):
            form = canonicalize_ghz(moved)
            assert form.alpha == pytest.approx(psi.vector[0].real, abs=1e-12)
            assert form.beta == pytest.approx(psi.vector[-1].real, abs=1e-12)
            assert form.residual < 1e-8


@pytest.mark.parametrize(
    "phi", [0.6 * np.pi, 0.75 * np.pi, 1.2 * np.pi], ids=["0.6pi", "0.75pi", "1.2pi"]
)
def test_conjugate_family_pairs_on_the_circle_are_never_equivalent(phi):
    # on |b|^2 + a Re b = 0 no invariant in the fingerprint separates b from
    # its conjugate (at 0.75 pi every one coincides), and the canonical
    # forms, which are unique, differ in the sign of Im b
    a = 0.5
    b = -a * np.cos(phi) * np.exp(1j * phi)
    g = haar_random_local_unitary(4, np.random.default_rng(9))
    plus = apply_local_unitary(g, canonical_four_qubit_state(a, b))
    verdict = decide_equivalence(plus, canonical_four_qubit_state(a, b.conjugate()))
    assert verdict.status == "inequivalent"
    assert verdict.decided_by == "canonical_form"
    assert verdict.restarts_used == 0
    assert verdict.best_infidelity > 1e-3
    name, b_plus, b_minus = verdict.separator
    assert name == "canonical_form:b"
    s = 1.0 / np.sqrt(2.0 * (a**2 + abs(b) ** 2 + abs(a + b) ** 2))
    assert b_plus == pytest.approx(b * s, abs=1e-10)
    assert b_minus == pytest.approx(b.conjugate() * s, abs=1e-10)
    payload = json.loads(json.dumps(verdict.to_dict()))
    assert payload["separator"]["value_a"]["im"] == pytest.approx(-payload["separator"]["value_b"]["im"])


def test_nonmaximal_pair_with_maximally_mixed_qubits_goes_to_the_optimizer():
    # the 4-qubit linear cluster state: every one-qubit marginal is I/2, so
    # the standard form has no eigenframe, and its stabilizer is dim 2 < n - 1
    vec = np.zeros(16, dtype=np.complex128)
    vec[[0b0000, 0b0011, 0b1100, 0b1111]] = (0.5, 0.5, 0.5, -0.5)
    cluster = PureState(vec)
    k = stabilizer_pure(cluster)
    assert k.dim == 2 and k.dim != cluster.n - 1
    assert np.allclose(reduced_state(cluster, (1,)).matrix, np.eye(2) / 2)
    rng = np.random.default_rng(8)
    a = apply_local_unitary(haar_random_local_unitary(4, rng), cluster)
    b = apply_local_unitary(haar_random_local_unitary(4, rng), cluster)
    verdict = decide_equivalence(a, b, seed=1)
    assert verdict.status == "equivalent"
    assert verdict.decided_by == "optimizer"
    assert verdict.restarts_used >= 1


def _components(psi):
    for name, values in fingerprint_component_stack(psi.vector[None]):
        yield name, values.item()


def _lazy_separator(psi, phi, tol):
    pairs = ((name, (x, y)) for (name, x), (_, y) in zip(_components(psi), _components(phi)))
    return first_difference(pairs, tol)


@pytest.mark.parametrize("n", range(1, 13))
def test_fingerprint_components_match_the_full_fingerprint(n):
    psi = random_state(n, np.random.default_rng(60 + n))
    assert list(_components(psi)) == invariant_fingerprint(psi).components()


@pytest.mark.parametrize("n", range(3, 13))
def test_lazy_separator_matches_the_full_fingerprint(n):
    rng = np.random.default_rng(80 + n)
    psi = random_state(n, rng)
    fa = invariant_fingerprint(psi)
    pairs = [
        random_state(n, rng),
        apply_local_unitary(haar_random_local_unitary(n, rng), psi),
    ]
    for phi in pairs:
        fb = invariant_fingerprint(phi)
        diffs = sorted(abs(x - y) for (_, x), (_, y) in zip(fa.components(), fb.components()))
        # tolerances that put the first separator at the start, deep inside
        # the walk, or nowhere
        for tol in (FINGERPRINT_TOL, diffs[len(diffs) // 2], diffs[-1] * 0.999, diffs[-1]):
            assert _lazy_separator(psi, phi, tol) == separating_component(fa, fb, tol)


@pytest.mark.parametrize(
    "psi, phi",
    [
        (ghz_state(4, 0.9), ghz_state(4, 0.7)),
        (ghz_state(6, 0.9), ghz_state(6, 0.7)),
        (canonical_four_qubit_state(0.5, 0.3j), canonical_four_qubit_state(0.5, -0.3j)),
        (canonical_four_qubit_state(0.5, 0.2 + 0.3j), canonical_four_qubit_state(0.5, 0.2 - 0.3j)),
    ],
    ids=["ghz4-weights", "ghz6-weights", "conjugate-imaginary", "conjugate-generic"],
)
def test_lazy_separator_matches_on_screened_pairs(psi, phi):
    full = separating_component(
        invariant_fingerprint(psi), invariant_fingerprint(phi), FINGERPRINT_TOL
    )
    assert full is not None
    assert _lazy_separator(psi, phi, FINGERPRINT_TOL) == full
    assert decide_equivalence(psi, phi).separator == full


def test_import_does_not_load_the_optimizer(tmp_path):
    # neither the import nor analyze, a family classify, an equiv on a
    # balanced GHZ orbit pair, one on a conjugate family pair on the
    # circle, a default density solve or a phase projection check needs
    # scipy: only lu_infidelity loads it, on first use
    rng = np.random.default_rng(14)
    b = -0.5 * np.cos(0.65 * np.pi) * np.exp(0.65j * np.pi)
    paths = []
    for name, psi in (
        ("family", canonical_four_qubit_state(0.5, 0.2 + 0.3j)),
        ("ghz-a", ghz_state(5)),
        ("ghz-b", ghz_state(5)),
        ("circle-plus", canonical_four_qubit_state(0.5, b)),
        ("circle-minus", canonical_four_qubit_state(0.5, b.conjugate())),
    ):
        path = tmp_path / f"{name}.json"
        moved = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
        path.write_text(json.dumps(state_to_dict(moved)))
        paths.append(str(path))
    src = str(Path(stabscope.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, stabscope\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print('scipy import', loaded())\n"
        "from stabscope import cli\n"
        f"family, ghz_a, ghz_b, plus, minus = {paths!r}\n"
        "for argv in (['analyze', '--state', 'ghz:4'], ['classify', family],\n"
        "             ['equiv', ghz_a, ghz_b], ['equiv', plus, minus]):\n"
        "    code = cli.main(argv + ['--format', 'json'])\n"
        "    print('scipy', argv[0], code, loaded())\n"
        "from stabscope import ghz_state, phase_projection_check, stabilizer_density, to_density\n"
        "stabilizer_density(to_density(ghz_state(5)))\n"
        "print('scipy density', loaded())\n"
        "phase_projection_check(ghz_state(4))\n"
        "print('scipy projection', loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = [line for line in out.stdout.splitlines() if line.startswith("scipy ")]
    assert lines == [
        "scipy import []", "scipy analyze 0 []", "scipy classify 0 []", "scipy equiv 0 []",
        "scipy equiv 1 []", "scipy density []", "scipy projection []",
    ]


def _per_qubit_exp_and_dexp(v):
    """exp of one su(2) element and its three partial derivatives, with the
    small-angle branch: the per-qubit form of local_unitary._exp_and_dexp."""
    theta = float(np.linalg.norm(v))
    m = su2_matrix(v)
    eye = np.eye(2, dtype=np.complex128)
    if theta < 1e-9:
        return eye + m, [SU2_BASIS[a].copy() for a in range(3)]
    c, s = np.cos(theta), np.sin(theta)
    sinc = s / theta
    core = -s * eye + ((theta * c - s) / theta**2) * m
    return c * eye + sinc * m, [(v[a] / theta) * core + sinc * SU2_BASIS[a] for a in range(3)]


def _per_qubit_infidelity_and_grad(x, base, psi, phi, n):
    """Reference objective and gradient, one qubit at a time: each gradient
    triple applies qubit j's three directions to g psi after undoing g_j."""
    v = x.reshape(n, 3)
    units = np.empty((n, 2, 2), dtype=np.complex128)
    dmats = np.empty((n, 3, 2, 2), dtype=np.complex128)
    for j in range(n):
        e, d = _per_qubit_exp_and_dexp(v[j])
        units[j] = e @ base[j]
        dmats[j] = np.stack(d) @ base[j]
    cur = apply_factors(units, psi)
    z = np.vdot(phi, cur)
    grad = np.empty(3 * n)
    for j in range(n):
        w = np.stack([apply_matrix_to_qubit(m, cur, j + 1, n) for m in dmats[j] @ units[j].conj().T], axis=1)
        grad[3 * j : 3 * j + 3] = -2.0 * np.real(np.conj(z) * (phi.conj() @ w))
    return 1.0 - float(np.abs(z)) ** 2, grad


@pytest.mark.parametrize("n", range(1, 9))
def test_infidelity_and_gradient_match_the_per_qubit_reference(n):
    rng = np.random.default_rng(40 + n)
    for scale in (1.0, 4.0, 1e-5, 3e-10):
        psi = random_state(n, rng).vector
        phi = random_state(n, rng).vector
        base = haar_su2(n, rng)
        v = scale * rng.standard_normal((n, 3))
        if n > 1 and scale == 1.0:
            # rows on both sides of the reference's small-angle cut in one point
            v[::2] *= 1e-12
        f, grad = _infidelity_and_grad(v.reshape(-1), base, psi, phi, n)
        f_ref, grad_ref = _per_qubit_infidelity_and_grad(v.reshape(-1), base, psi, phi, n)
        theta = np.linalg.norm(v, axis=1)
        # below its cut the reference's derivatives are within |v_j| of the exact ones
        tol = 1e-13 + theta[theta < 1e-9].max(initial=0.0)
        assert abs(f - f_ref) < tol
        assert np.max(np.abs(grad - grad_ref)) < tol


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("scale", [0.0, 3e-10, 1.0], ids=["zero", "below-cut", "generic"])
def test_infidelity_gradient_matches_central_differences(scale, n):
    rng = np.random.default_rng(5)
    psi = random_state(n, rng)
    phi = random_state(n, rng)
    base = haar_su2(n, rng)
    x = scale * rng.standard_normal(3 * n) / np.sqrt(3.0)
    for objective in (_infidelity_and_grad, _per_qubit_infidelity_and_grad):
        _, grad = objective(x, base, psi.vector, phi.vector, n)
        h = 1e-6
        fd = np.empty(3 * n)
        for i in range(3 * n):
            e = np.zeros(3 * n)
            e[i] = h
            fp, _ = objective(x + e, base, psi.vector, phi.vector, n)
            fm, _ = objective(x - e, base, psi.vector, phi.vector, n)
            fd[i] = (fp - fm) / (2.0 * h)
        assert np.allclose(grad, fd, atol=1e-8)
