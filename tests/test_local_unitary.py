import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, qr

from stabscope import (
    SU2_BASIS,
    LieElement,
    LocalUnitary,
    apply_infinitesimal,
    apply_local_unitary,
    commutator_action,
    compose,
    conjugate_density,
    conjugate_element,
    diagonal_commutator_weight,
    embed,
    exp_su2,
    ghz_state,
    haar_random_local_unitary,
    haar_su2,
    identity_local_unitary,
    inverse,
    random_state,
    su2_coords,
    su2_matrix,
    to_density,
)
from stabscope.local_unitary import lie_element_from_flat
from stabscope.states import DensityMatrix, apply_matrix_to_qubit

coords3 = st.tuples(
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3), st.floats(-3, 3)
)


def test_basis_is_antihermitian_traceless_with_cyclic_brackets():
    for m in SU2_BASIS:
        assert np.allclose(m + m.conj().T, 0)
        assert abs(np.trace(m)) < 1e-15
    # the triple is oriented so that [e_b, e_a] = 2 e_c for cyclic (a, b, c)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        bracket = SU2_BASIS[b] @ SU2_BASIS[a] - SU2_BASIS[a] @ SU2_BASIS[b]
        assert np.allclose(bracket, 2 * SU2_BASIS[c]), (a, b)


@given(coords3)
def test_su2_matrix_coords_round_trip(v):
    m = su2_matrix(v)
    assert np.allclose(su2_coords(m), v, atol=1e-12)


def test_su2_coords_rejects_non_members():
    with pytest.raises(ValueError):
        su2_coords(np.eye(2))


@settings(max_examples=50)
@given(coords3)
def test_exp_su2_matches_expm(v):
    assert np.allclose(exp_su2(v), expm(su2_matrix(v)), atol=1e-12)


def test_exp_su2_small_angle_and_flip():
    assert np.allclose(exp_su2((0.0, 0.0, 0.0)), np.eye(2))
    assert np.allclose(exp_su2((1e-14, 0.0, 0.0)), np.eye(2), atol=1e-13)
    # a quarter turn about the third basis direction is the basis matrix itself
    assert np.allclose(exp_su2((0.0, 0.0, np.pi / 2)), SU2_BASIS[2], atol=1e-15)


def test_exp_su2_rejects_other_shapes():
    # the broadcast kernel behind it would take an (n, 3) stack without complaint
    for bad in ((1.0, 0.0), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            exp_su2(bad)


def test_lie_element_flat_round_trip():
    coords = np.arange(9, dtype=float).reshape(3, 3)
    x = LieElement(0.5, coords)
    flat = x.to_flat()
    assert flat.shape == (10,)
    y = lie_element_from_flat(flat, 3, "pure")
    assert y.phase == x.phase
    assert np.array_equal(y.coords, x.coords)
    z = lie_element_from_flat(coords.ravel(), 3, "density")
    assert z.phase == 0.0


def test_embed_places_one_block():
    x = embed(3, 2, (1.0, 2.0, 3.0))
    assert np.array_equal(x.coords[1], (1.0, 2.0, 3.0))
    assert not x.coords[0].any() and not x.coords[2].any()


def _kron_embed(coords, phase, n):
    """Dense matrix of a Lie element, built independently with np.kron."""
    total = -1j * phase * np.eye(2**n, dtype=complex)
    for j in range(n):
        m = su2_matrix(coords[j])
        full = np.eye(1, dtype=complex)
        for k in range(n):
            full = np.kron(full, m if k == j else np.eye(2))
        total = total + full
    return total


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_apply_infinitesimal_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    x = LieElement(float(rng.standard_normal()), rng.standard_normal((n, 3)))
    psi = random_state(n, rng)
    dense = _kron_embed(x.coords, x.phase, n)
    assert np.allclose(apply_infinitesimal(x, psi), dense @ psi.vector, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_commutator_action_matches_dense_matrix(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    x = LieElement(0.0, rng.standard_normal((n, 3)))
    rho = to_density(random_state(n, rng))
    dense = _kron_embed(x.coords, 0.0, n)
    expected = dense @ rho.matrix - rho.matrix @ dense
    assert np.allclose(commutator_action(x, rho), expected, atol=1e-12)


def test_commutator_action_requires_zero_phase():
    rho = to_density(ghz_state(2))
    with pytest.raises(ValueError):
        commutator_action(LieElement(1.0, np.zeros((2, 3))), rho)


def test_diagonal_commutator_weight_worked_example():
    # indices 01 vs 10 differ at both qubits: 2i(t1 - t2)
    t = (1.5, -0.5)
    assert diagonal_commutator_weight((0, 1), (1, 0), t) == pytest.approx(4j)
    # equal indices never pick up a weight
    assert diagonal_commutator_weight((1, 1), (1, 1), t) == 0
    # one differing position with bit value 1 flips the sign
    assert diagonal_commutator_weight((0, 1), (0, 0), t) == pytest.approx(2j * (-t[1]))


def test_local_unitary_validation():
    good = haar_su2(2, np.random.default_rng(0))
    LocalUnitary(good)
    bad = good.copy()
    bad[0] *= 2.0
    with pytest.raises(ValueError):
        LocalUnitary(bad)
    with pytest.raises(ValueError):
        LocalUnitary(good, global_phase=2.0)
    with pytest.raises(ValueError):
        LocalUnitary(np.stack([np.diag([1j, 1j]), np.eye(2, dtype=complex)]))  # det != 1


def test_compose_inverse_apply_consistency():
    rng = np.random.default_rng(3)
    psi = random_state(3, rng)
    g1 = haar_random_local_unitary(3, rng)
    g2 = haar_random_local_unitary(3, rng)
    via_compose = apply_local_unitary(compose(g2, g1), psi)
    stepwise = apply_local_unitary(g2, apply_local_unitary(g1, psi))
    assert np.allclose(via_compose.vector, stepwise.vector, atol=1e-12)
    undone = apply_local_unitary(inverse(g1), apply_local_unitary(g1, psi))
    assert np.allclose(undone.vector, psi.vector, atol=1e-12)
    ident = apply_local_unitary(identity_local_unitary(3), psi)
    assert np.array_equal(ident.vector, psi.vector)


def test_conjugate_density_matches_matrix_conjugation():
    rng = np.random.default_rng(4)
    rho = to_density(random_state(2, rng))
    g = haar_random_local_unitary(2, rng)
    full = np.kron(g.factors[0], g.factors[1])
    expected = full @ rho.matrix @ full.conj().T
    assert np.allclose(conjugate_density(g, rho).matrix, expected, atol=1e-12)


def _kron_all(mats):
    """Dense operator of one 2x2 factor per qubit, qubit 1 leftmost."""
    full = np.eye(1, dtype=complex)
    for m in mats:
        full = np.kron(full, m)
    return full


def _mixed_density(n, rng, rank=2):
    """Random density matrix of the given rank (at most 2**n)."""
    a = rng.standard_normal((2**n, rank)) + 1j * rng.standard_normal((2**n, rank))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_local_unitary_matches_dense_kron(n):
    rng = np.random.default_rng(100 + n)
    psi = random_state(n, rng)
    g = haar_random_local_unitary(n, rng)
    expected = g.global_phase * _kron_all(g.factors) @ psi.vector
    assert np.allclose(apply_local_unitary(g, psi).vector, expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugate_density_matches_dense_kron_on_mixed_states(n):
    rng = np.random.default_rng(200 + n)
    rho = _mixed_density(n, rng, rank=min(2**n, 3))
    assert np.linalg.matrix_rank(rho.matrix) > 1
    g = haar_random_local_unitary(n, rng)
    full = _kron_all(g.factors)
    expected = full @ rho.matrix @ full.conj().T
    assert np.allclose(conjugate_density(g, rho).matrix, expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_action_matches_dense_kron_on_mixed_states(n):
    rng = np.random.default_rng(300 + n)
    rho = _mixed_density(n, rng, rank=min(2**n, 3))
    x = LieElement(0.0, rng.standard_normal((n, 3)))
    dense = _kron_embed(x.coords, 0.0, n)
    expected = dense @ rho.matrix - rho.matrix @ dense
    assert np.allclose(commutator_action(x, rho), expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_action_does_not_assume_exact_hermiticity(n):
    # rho X is formed as (X^dagger rho^dagger)^dagger, exact for any square rho
    rng = np.random.default_rng(400 + n)
    herm = _mixed_density(n, rng).matrix
    b = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    skew = b - b.conj().T
    rho = DensityMatrix(herm + 1e-9 * skew / np.max(np.abs(skew)))
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) > 1e-9
    x = LieElement(0.0, rng.standard_normal((n, 3)))
    dense = _kron_embed(x.coords, 0.0, n)
    expected = dense @ rho.matrix - rho.matrix @ dense
    assert np.max(np.abs(commutator_action(x, rho) - expected)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_stacked_kernel_call_equals_single_matrix_calls(n):
    rng = np.random.default_rng(500 + n)
    vec = random_state(n, rng).vector
    rho = _mixed_density(n, rng).matrix
    for j in range(1, n + 1):
        # one matrix acts on psi and on rho from the left, as the dense operator does
        u = haar_su2(1, rng)[0]
        dense = _kron_all([u if k == j - 1 else np.eye(2) for k in range(n)])
        for arr in (vec, rho):
            assert np.allclose(apply_matrix_to_qubit(u, arr, j, n), dense @ arr, atol=1e-12)


def test_conjugate_element_transforms_action():
    # g X g^-1 applied to g psi equals g applied to X psi
    rng = np.random.default_rng(6)
    n = 2
    x = LieElement(0.7, rng.standard_normal((n, 3)))
    psi = random_state(n, rng)
    g = haar_random_local_unitary(n, rng)
    lhs = apply_infinitesimal(conjugate_element(g, x), apply_local_unitary(g, psi))
    rhs_state = apply_infinitesimal(x, psi)
    full = g.global_phase * np.kron(g.factors[0], g.factors[1])
    assert np.allclose(lhs, full @ rhs_state, atol=1e-12)


def test_haar_su2_outputs_special_unitaries_deterministically():
    rng = np.random.default_rng(9)
    batch = haar_su2(5, rng)
    assert batch.shape == (5, 2, 2)
    for u in batch:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
    again = haar_su2(5, np.random.default_rng(9))
    assert np.allclose(batch, again)


def _haar_su2_per_matrix(count, seed):
    """Reference sampler: the same Ginibre draws, one scipy QR per matrix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))) / np.sqrt(2.0)
    out = np.empty_like(z)
    for k in range(count):
        q, r = qr(z[k])
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        out[k] = q / np.sqrt(np.linalg.det(q))
    return out


@pytest.mark.parametrize("count", [1, 2, 5, 12])
def test_haar_su2_batch_equals_per_matrix_qr(count):
    # bit-equal draws keep every seeded corpus and --seed output unchanged
    for seed in range(50):
        assert np.array_equal(haar_su2(count, np.random.default_rng(seed)), _haar_su2_per_matrix(count, seed))


def test_haar_local_unitary_has_unit_global_phase():
    g = haar_random_local_unitary(3, np.random.default_rng(2))
    assert abs(abs(g.global_phase) - 1.0) < 1e-12
    assert g.factors.shape == (3, 2, 2)


def test_local_unitary_names_the_first_failing_factor():
    u = haar_su2(4, np.random.default_rng(3))
    flip = np.diag([1.0, -1.0]).astype(complex)  # unitary, determinant -1
    with pytest.raises(ValueError, match=r"^factor 2 is not unitary$"):
        LocalUnitary(np.stack([u[0], 2 * u[1], u[2]]))
    with pytest.raises(ValueError, match=r"^factor 3 has determinant != 1$"):
        LocalUnitary(np.stack([u[0], u[1], flip, 2 * u[3]]))
    # a factor failing both checks is reported as not unitary
    with pytest.raises(ValueError, match=r"^factor 1 is not unitary$"):
        LocalUnitary(np.stack([2 * flip, u[1]]))
    with pytest.raises(ValueError, match=r"^global phase must have unit modulus$"):
        LocalUnitary(u, global_phase=1.5)
    assert LocalUnitary(u, global_phase=1j).n == 4
