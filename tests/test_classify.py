import sys

import numpy as np
import pytest

from stabscope import (
    SWAP34_TRIPLE,
    CanonicalizationError,
    StabilizerBasis,
    apply_local_unitary,
    basis_state,
    canonical_four_qubit_state,
    canonical_poly3_im,
    canonicalize_four_qubit,
    canonicalize_ghz,
    classify,
    decide_equivalence,
    ghz_state,
    haar_random_local_unitary,
    is_product,
    polynomial_invariant,
    random_state,
    singlet_state,
    stabilizer_pure,
    tensor_product,
    w_state,
)
from stabscope.classify import EQUIV_TOL, _align_to_diagonal
from stabscope.local_unitary import SU2_BASIS, LocalUnitary
from stabscope.selftest import CONJUGATE_PAIRS, _family_grid, _family_scale
from stabscope.states import NULL_TOL, apply_factors

REPORT_KEYS = {
    "n",
    "verdict",
    "stab_dim",
    "proj_dims",
    "algebra_type",
    "product_structure",
    "alpha",
    "beta",
    "a",
    "b_re",
    "b_im",
    "ambiguous",
    "residual",
    "notes",
}


def test_ghz_canonicalization_is_identity_on_canonical_input():
    psi = ghz_state(4, 0.8, 0.6)
    form = canonicalize_ghz(psi)
    assert form.alpha == pytest.approx(0.8, abs=1e-12)
    assert form.beta == pytest.approx(0.6, abs=1e-12)
    assert form.residual < 1e-10


def test_ghz_canonicalization_recovers_through_orbit():
    rng = np.random.default_rng(2)
    for n in (3, 5):
        base = ghz_state(n, 0.75)
        moved = apply_local_unitary(haar_random_local_unitary(n, rng), base)
        form = canonicalize_ghz(moved)
        assert form.alpha == pytest.approx(0.75, abs=1e-9)
        # the returned unitary reproduces the canonical state
        target = ghz_state(n, form.alpha, form.beta)
        mapped = apply_local_unitary(form.unitary, moved)
        assert np.linalg.norm(mapped.vector - target.vector) < 1e-8


def test_ghz_canonicalization_orders_and_fixes_phases():
    # alpha < beta and complex amplitudes: output is sorted and real positive
    psi = ghz_state(3, 0.5 * np.exp(0.4j), np.sqrt(0.75) * np.exp(-1.1j))
    form = canonicalize_ghz(psi)
    assert form.alpha >= form.beta > 0
    assert form.alpha == pytest.approx(np.sqrt(0.75), abs=1e-10)
    assert form.beta == pytest.approx(0.5, abs=1e-10)


def test_ghz_canonicalization_does_not_depend_on_the_basis_rotation():
    # any orthogonal rotation of the kernel rows, reflections included, spans
    # the same stabilizer and must give the same local unitary
    rng = np.random.default_rng(9)
    for n in (3, 6):
        psi = apply_local_unitary(haar_random_local_unitary(n, rng), ghz_state(n, 0.8, 0.6))
        k = stabilizer_pure(psi)
        form = canonicalize_ghz(psi, stab=k)
        for _ in range(4):
            rot, _ = np.linalg.qr(rng.standard_normal((k.dim, k.dim)))
            turned = StabilizerBasis("pure", n, rot @ k.basis, k.singular_values, k.tol)
            other = canonicalize_ghz(psi, stab=turned)
            assert np.allclose(other.unitary.factors, form.unitary.factors, rtol=0.0, atol=1e-12)
            assert abs(other.unitary.global_phase - form.unitary.global_phase) < 1e-12


def test_ghz_canonicalization_rejects_other_states():
    with pytest.raises(CanonicalizationError):
        canonicalize_ghz(w_state(3))
    with pytest.raises(CanonicalizationError):
        canonicalize_ghz(random_state(3, np.random.default_rng(0)))


def test_ghz_times_basis_ket_is_rejected_by_the_support_check():
    # the stabilizer has dim n-1 with every projection 1, but the diagonal
    # frame puts the state on |0000> and |1110>, not on a ket and its complement
    psi = tensor_product(ghz_state(3), basis_state([0]))
    with pytest.raises(CanonicalizationError, match="off-support residual"):
        canonicalize_ghz(psi)
    rep = classify(psi)
    assert rep.verdict == "not_max_stab"
    assert rep.product_blocks == ((1, 2, 3), (4,))


def test_stabilizer_is_solved_once_per_request(monkeypatch):
    # counts the states solved: classify solves its state once, and
    # decide_equivalence solves both states of the pair in one stacked call;
    # stabilizer_pure and stabilizer_pure_stack both solve through _gram_split
    solved = []
    module = sys.modules["stabscope.stabilizer"]
    solve = module._gram_split

    def counted(vectors, *args):
        solved.append(len(vectors))
        return solve(vectors, *args)

    rng = np.random.default_rng(11)
    a, b = (
        apply_local_unitary(haar_random_local_unitary(6, rng), ghz_state(6, 0.8)) for _ in range(2)
    )
    k = stabilizer_pure(a)
    monkeypatch.setattr(module, "_gram_split", counted)
    assert canonicalize_ghz(a, stab=k).residual < 1e-8
    assert solved == []
    assert classify(a).verdict == "ghz_class"
    assert solved == [1]
    assert decide_equivalence(a, b).decided_by == "canonical_form"
    assert solved == [1, 2]


def test_four_qubit_recovery_with_confirmation():
    a, b = 0.5, 0.2 + 0.3j
    s = 1.0 / np.sqrt(2.0 * (a**2 + abs(b) ** 2 + abs(-a - b) ** 2))
    rng = np.random.default_rng(3)
    moved = apply_local_unitary(
        haar_random_local_unitary(4, rng), canonical_four_qubit_state(a, b)
    )
    form = canonicalize_four_qubit(moved)
    assert form.a == pytest.approx(a * s, abs=1e-10)
    assert form.b.real == pytest.approx(b.real * s, abs=1e-10)
    assert form.b.imag == pytest.approx(b.imag * s, abs=1e-10)
    assert form.c == pytest.approx(-form.a - form.b)
    assert form.unitary is not None and form.residual < 1e-7
    target = canonical_four_qubit_state(form.a, form.b)
    mapped = apply_local_unitary(form.unitary, moved)
    assert abs(np.vdot(target.vector, mapped.vector)) ** 2 > 1.0 - 1e-6


def test_four_qubit_real_b_has_no_ambiguity():
    a, b = 0.45, -0.2
    form = canonicalize_four_qubit(canonical_four_qubit_state(a, b))
    assert abs(form.b.imag) < 1e-9
    assert form.unitary is not None


def test_four_qubit_imaginary_b_resolved_by_swap_invariant():
    # the reference cubic vanishes for purely imaginary b; the sign the
    # construction picks must agree with the qubit-(3,4)-swapped cubic,
    # which sees c = -a - b instead of b
    g = haar_random_local_unitary(4, np.random.default_rng(5))
    moved = apply_local_unitary(g, canonical_four_qubit_state(0.5, 0.3j))
    form = canonicalize_four_qubit(moved)
    s = _family_scale(0.5, 0.3j)
    assert form.b.imag == pytest.approx(0.3 * s, abs=1e-10)
    assert form.b.real == pytest.approx(0.0, abs=1e-10)
    assert form.unitary is not None and form.residual < 1e-7
    measured = polynomial_invariant(moved, SWAP34_TRIPLE).imag
    assert abs(measured) > 1e-3
    assert np.sign(measured) == np.sign(canonical_poly3_im(form.a, form.c))
    assert np.sign(measured) != np.sign(canonical_poly3_im(form.a, form.c.conjugate()))


def test_four_qubit_doubly_degenerate_point_recovers_signed_b():
    # both cubic invariants vanish at a=1/2, b=(-1+i)/4, so no invariant
    # tells b from its conjugate; the construction still gets the sign
    g = haar_random_local_unitary(4, np.random.default_rng(6))
    moved = apply_local_unitary(g, canonical_four_qubit_state(0.5, -0.25 + 0.25j))
    form = canonicalize_four_qubit(moved)
    s = _family_scale(0.5, -0.25 + 0.25j)
    assert form.b.imag == pytest.approx(0.25 * s, abs=1e-10)
    assert form.b.real == pytest.approx(-0.25 * s, abs=1e-10)
    assert form.unitary is not None and form.residual < 1e-7
    rep = classify(moved)
    assert rep.ambiguous is False
    assert rep.b == pytest.approx(form.b, abs=1e-10)
    assert rep.notes == ()


def _circle_b(a, phi):
    # |b|^2 + a Re b = 0, where both cubic invariants vanish
    return -a * np.cos(phi) * np.exp(1j * phi)


FAMILY_POINTS = {
    "grid": _family_grid(),
    "imaginary": [(a, complex(0.0, b2)) for a, b2 in ((0.35, 0.3), (0.5, -0.25), (0.8, 0.2))],
    "circle": [
        (a, _circle_b(a, phi)) for a in (0.4, 0.7) for phi in (0.6 * np.pi, 0.75 * np.pi, 1.2 * np.pi)
    ],
    "small-b": [(0.5, 1e-3 + 2e-3j), (0.5, -3e-5j), (0.7, 2e-6 - 1e-6j)],
}


@pytest.mark.parametrize("kind", sorted(FAMILY_POINTS))
def test_four_qubit_construction_recovers_orbits(kind):
    rng = np.random.default_rng(sorted(FAMILY_POINTS).index(kind))
    for a, b in FAMILY_POINTS[kind]:
        s = _family_scale(a, b)
        for _ in range(4):
            moved = apply_local_unitary(
                haar_random_local_unitary(4, rng), canonical_four_qubit_state(a, b)
            )
            form = canonicalize_four_qubit(moved)
            assert form.a == pytest.approx(a * s, abs=1e-10)
            assert form.b.real == pytest.approx(b.real * s, abs=1e-10)
            assert form.b.imag == pytest.approx(b.imag * s, abs=1e-10)
            assert form.unitary is not None and form.residual < 1e-7
            target = canonical_four_qubit_state(form.a, form.b)
            mapped = apply_local_unitary(form.unitary, moved)
            assert 1.0 - abs(np.vdot(target.vector, mapped.vector)) ** 2 < 1e-7


def test_four_qubit_rejects_wrong_size_and_degenerate_invariants():
    with pytest.raises(CanonicalizationError):
        canonicalize_four_qubit(ghz_state(3))
    # a product state has vanishing pair invariants
    prod = tensor_product(*(basis_state([0]) for _ in range(4)))
    with pytest.raises(CanonicalizationError):
        canonicalize_four_qubit(prod)


def test_classify_ghz_branch():
    rng = np.random.default_rng(7)
    moved = apply_local_unitary(haar_random_local_unitary(5, rng), ghz_state(5, 0.9))
    rep = classify(moved)
    assert rep.verdict == "ghz_class"
    assert rep.stab_dim == 4
    assert rep.proj_dims == (1, 1, 1, 1, 1)
    assert rep.alpha == pytest.approx(0.9, abs=1e-9)
    assert rep.residual < 1e-8


def test_classify_four_qubit_branch():
    rng = np.random.default_rng(8)
    moved = apply_local_unitary(
        haar_random_local_unitary(4, rng), canonical_four_qubit_state(0.6, -0.25 + 0.4j)
    )
    rep = classify(moved)
    assert rep.verdict == "four_qubit_su2"
    assert rep.stab_dim == 3
    assert rep.proj_dims == (3, 3, 3, 3)
    assert rep.algebra == "su2"
    assert not rep.ambiguous
    assert rep.canonicalizer is not None and rep.residual < 1e-7


@pytest.mark.parametrize(
    "psi, canonicaliser, prefix",
    [
        (ghz_state(3, 0.8), "canonicalize_ghz", "GHZ branch failed: "),
        (
            canonical_four_qubit_state(0.6, -0.25 + 0.4j),
            "canonicalize_four_qubit",
            "four-qubit branch failed: ",
        ),
    ],
    ids=["ghz", "family"],
)
def test_canonicaliser_failure_downgrades_classify_and_falls_through_in_equiv(
    psi, canonicaliser, prefix, monkeypatch
):
    # classify and decide_equivalence reach the canonicalisers only through
    # canonical_form, so one patch in stabscope.classify covers both
    def fail(*args, **kwargs):
        raise CanonicalizationError("forced failure")

    monkeypatch.setattr(sys.modules["stabscope.classify"], canonicaliser, fail)
    rng = np.random.default_rng(12)
    a, b = (apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi) for _ in range(2))
    rep = classify(a)
    assert rep.verdict == "max_stab_but_unrecognized"
    assert rep.notes == (prefix + "forced failure",)
    verdict = decide_equivalence(a, b, seed=1)
    assert verdict.status != "inequivalent"
    assert verdict.decided_by != "canonical_form"


def _pattern_rows(n: int, qubit_sets) -> np.ndarray:
    """Orthonormal pure-ambient rows: row k spreads the k-th Pauli direction
    (x, y or z) equally over its set of qubits."""
    rows = np.zeros((len(qubit_sets), 3 * n + 1))
    for k, qubits in enumerate(qubit_sets):
        for j in qubits:
            rows[k, 1 + 3 * (j - 1) + k % 3] = 1.0 / np.sqrt(len(qubits))
    return rows


UNRECOGNIZED = ("an unrecognized projection pattern",)


@pytest.mark.parametrize(
    "n, rows, proj_dims, named",
    [
        (3, _pattern_rows(3, [(1,), (1,)]), (2, 0, 0), UNRECOGNIZED),
        (4, _pattern_rows(4, [(1, 2, 3)] * 3), (3, 3, 3, 0), UNRECOGNIZED),
        (5, _pattern_rows(5, [(1,), (1,), (2,), (3, 4, 5)]), (2, 1, 1, 1, 1), UNRECOGNIZED),
        # the family's projections with an algebra that is not su(2): the
        # pattern is recognised, the algebra is what contradicts it
        (4, np.linalg.qr(np.random.default_rng(4).standard_normal((13, 3)))[0].T, (3, 3, 3, 3),
         ("projection pattern (3, 3, 3, 3)", "algebra type other, not su2")),
    ],
    ids=["n3", "n4_near_family", "n5", "n4_family_not_su2"],
)
def test_classify_flags_an_unrecognized_maximal_pattern(n, rows, proj_dims, named, monkeypatch):
    # no state reaches this branch, so the solver is replaced by one that
    # returns a basis of the maximal dimension n - 1 with another pattern
    basis = StabilizerBasis("pure", n, rows, np.zeros(rows.shape[1]), NULL_TOL)
    assert basis.dim == n - 1 and basis.proj_dims == proj_dims
    monkeypatch.setattr(sys.modules["stabscope.classify"], "stabilizer_pure", lambda *a: basis)
    rep = classify(ghz_state(n))
    assert rep.verdict == "max_stab_but_unrecognized"
    assert rep.stab_dim == n - 1 and rep.proj_dims == proj_dims
    assert len(rep.notes) == 1 and "contradicts the classification" in rep.notes[0]
    assert all(part in rep.notes[0] for part in named), rep.notes[0]
    payload = rep.to_dict()
    assert set(payload) == {
        "n", "verdict", "stab_dim", "proj_dims", "algebra_type", "product_structure", "alpha",
        "beta", "a", "b_re", "b_im", "ambiguous", "residual", "notes",
    }
    assert payload["verdict"] == "max_stab_but_unrecognized"
    assert payload["product_structure"] == "nonproduct"
    assert payload["proj_dims"] == list(proj_dims)
    assert payload["notes"] == list(rep.notes)
    assert all(payload[key] is None for key in ("alpha", "beta", "a", "b_re", "b_im", "residual"))


def test_classify_product_and_small_states():
    rep = classify(tensor_product(basis_state([0]), ghz_state(3)))
    assert rep.verdict == "not_max_stab"
    assert rep.is_product
    assert rep.product_blocks == ((1,), (2, 3, 4))
    rep2 = classify(tensor_product(singlet_state(), singlet_state()))
    assert rep2.verdict == "not_max_stab"
    assert rep2.product_blocks == ((1, 2), (3, 4))
    rep3 = classify(ghz_state(2))
    assert rep3.verdict == "not_max_stab"
    assert any("n >= 3" in note for note in rep3.notes)


def test_classify_negative_controls():
    assert classify(w_state(3)).verdict == "not_max_stab"
    assert classify(random_state(3, np.random.default_rng(9))).verdict == "not_max_stab"


def test_classify_dichotomy_on_max_stabilizer_states():
    # every nonproduct state constructed to have maximal stabilizer lands in
    # one of the two recognized classes, never the loud fallback
    rng = np.random.default_rng(10)
    for i in range(30):
        if i % 2 == 0:
            n = int(rng.integers(3, 6))
            base = ghz_state(n, float(rng.uniform(0.35, 0.9)))
            expected = "ghz_class"
        else:
            a = float(rng.uniform(0.3, 0.7))
            b = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.1, 0.5))
            if abs(b) < 0.05 or abs(a + b) < 0.05:
                continue
            base = canonical_four_qubit_state(a, b)
            expected = "four_qubit_su2"
        moved = apply_local_unitary(haar_random_local_unitary(base.n, rng), base)
        rep = classify(moved)
        assert rep.verdict == expected, rep.notes


# beta = 1e-8 = NULL_TOL sits on the cut itself: there rounding in two
# different maps, the amplitude matrices and the stabilizer's, decides which
# side each lands on, and some orbit points disagree; flagging that band is
# the conditioning report's job, so the sweep leaves it out
SWEEP_BETAS = [10.0**e for e in range(-12, 0) if e != -8]


@pytest.mark.parametrize("n", range(3, 9))
def test_beta_sweep_product_test_stabilizer_and_verdict_agree(n):
    rng = np.random.default_rng(40 + n)
    for beta in SWEEP_BETAS:
        alpha = np.sqrt(1.0 - beta**2)
        for _ in range(5):
            psi = apply_local_unitary(
                haar_random_local_unitary(n, rng), ghz_state(n, alpha, beta)
            )
            product = is_product(psi).is_product
            assert product == (stabilizer_pure(psi).dim == n), beta
            rep = classify(psi)
            assert (rep.verdict == "ghz_class") == (not product), (beta, rep.notes)
            if not product:
                assert rep.alpha == pytest.approx(alpha, abs=1e-7)
                assert rep.beta == pytest.approx(beta, abs=1e-7)


def test_report_serialization_keys_and_round_trip():
    import json

    rep = classify(ghz_state(3, 0.8, 0.6))
    payload = json.loads(json.dumps(rep.to_dict()))
    assert REPORT_KEYS <= set(payload)
    assert payload["verdict"] == "ghz_class"
    assert payload["alpha"] == pytest.approx(0.8)
    assert payload["b_re"] is None
    rep4 = classify(canonical_four_qubit_state(0.5, 0.2 + 0.3j))
    payload4 = json.loads(json.dumps(rep4.to_dict()))
    assert payload4["verdict"] == "four_qubit_su2"
    assert payload4["b_im"] == pytest.approx(rep4.b.imag)
    assert payload4["ambiguous"] is False


def _pairwise_ghz_route(psi, k):
    """canonicalize_ghz with the flips applied to the factors and the whole
    vector transformed again: the reference for the permutation route."""
    n = psi.n
    directions = np.linalg.svd(np.stack([k.block_columns(j) for j in range(1, n + 1)]))[2][:, 0]
    largest = np.abs(directions).argmax(axis=1)
    directions *= np.sign(directions[np.arange(n), largest])[:, None]
    factors = _align_to_diagonal(directions)
    vec = apply_factors(factors, psi.vector)
    top = int(np.argmax(np.abs(vec)))
    for j in range(n):
        if top >> (n - 1 - j) & 1:
            factors[j] = SU2_BASIS[2] @ factors[j]
    vec = apply_factors(factors, psi.vector)
    arg0, arg1 = float(np.angle(vec[0])), float(np.angle(vec[-1]))
    theta = (arg1 - arg0) / 2.0
    factors[0] = np.diag([np.exp(1j * theta), np.exp(-1j * theta)]) @ factors[0]
    g = LocalUnitary(factors, np.exp(-0.5j * (arg0 + arg1)))
    alpha, beta = float(abs(vec[0])), float(abs(vec[-1]))
    target = np.zeros(2**n, dtype=np.complex128)
    target[0], target[-1] = alpha, beta
    residual = float(np.linalg.norm(apply_local_unitary(g, psi).vector - target))
    return alpha, beta, residual, g.factors, g.global_phase


def _lift_one_rotation(rot):
    eye = np.eye(2)
    images = np.tensordot(rot, SU2_BASIS, axes=1)
    system = np.concatenate(
        [np.kron(eye, e.T) - np.kron(m, eye) for e, m in zip(SU2_BASIS, images)]
    )
    h = np.linalg.svd(system)[2][-1].conj().reshape(2, 2)
    u, _, vh = np.linalg.svd(h)
    h = u @ vh
    return h / np.sqrt(np.linalg.det(h))


def _pairwise_family_route(psi, k):
    """canonicalize_four_qubit with one solve and one lift per rotation: the
    reference for the batched route."""
    b1 = k.block_columns(1)
    factors = np.stack(
        [np.eye(2, dtype=np.complex128)]
        + [_lift_one_rotation(np.linalg.solve(b1, k.block_columns(j))).conj().T for j in (2, 3, 4)]
    )
    vec = apply_factors(factors, psi.vector)
    amp_a, amp_b = vec[0b0011], vec[0b1001]
    phase = np.exp(-1j * np.angle(amp_a))
    a, b = float(abs(amp_a)), complex(amp_b * phase)
    target = canonical_four_qubit_state(a, b)
    residual = max(1.0 - float(abs(np.vdot(target.vector, vec * phase))) ** 2, 0.0)
    return a, b, residual, factors, phase


def _assert_same_route(got, want):
    for x, y in zip(got, want):
        assert np.array_equal(x, y), (x, y)


@pytest.mark.parametrize("n", range(3, 13))
def test_ghz_permutation_route_is_the_pairwise_route_bit_for_bit(n):
    rng = np.random.default_rng(70 + n)
    for beta in (0.6, 1e-2, 1e-5, 3e-8):
        base = ghz_state(n, np.sqrt(1.0 - beta**2), beta)
        for _ in range(3):
            psi = apply_local_unitary(haar_random_local_unitary(n, rng), base)
            k = stabilizer_pure(psi)
            form = canonicalize_ghz(psi, stab=k)
            got = (form.alpha, form.beta, form.residual, form.unitary.factors, form.unitary.global_phase)
            _assert_same_route(got, _pairwise_ghz_route(psi, k))


FAMILY_IDENTITY_POINTS = (
    _family_grid()
    + [(a, s * 1j * b2) for a, b2 in CONJUGATE_PAIRS for s in (1, -1)]
    + [(0.4, _circle_b(0.4, 0.75 * np.pi))]
)


def test_batched_lift_is_the_pairwise_lift_bit_for_bit():
    rng = np.random.default_rng(90)
    for a, b in FAMILY_IDENTITY_POINTS:
        base = canonical_four_qubit_state(a, b)
        for psi in (base, apply_local_unitary(haar_random_local_unitary(4, rng), base)):
            k = stabilizer_pure(psi)
            form = canonicalize_four_qubit(psi, stab=k)
            assert form.unitary is not None and form.residual < EQUIV_TOL
            got = (form.a, form.b, form.residual, form.unitary.factors, form.unitary.global_phase)
            _assert_same_route(got, _pairwise_family_route(psi, k))
