import numpy as np
import pytest

from stabscope import (
    DensityMatrix,
    SU2_BASIS,
    StabilizerBasis,
    algebra_type,
    apply_local_unitary,
    ghz_state,
    haar_random_local_unitary,
    partial_trace,
    phase_projection_check,
    principal_angles,
    random_state,
    reduced_state,
    singlet_state,
    span_contains,
    stabilizer_density,
    stabilizer_pure,
    su2_matrix,
    tensor_product,
    to_density,
    w_state,
)
from stabscope.stabilizer import (
    DENSITY_DIRECT_LIMIT,
    GAP_MIN,
    NULL_TOL,
    QR_BLOCK_BYTES,
    QR_CALL_BYTES,
    _null_spaces,
)
from stabscope.states import numerical_rank


def _dense_pure_map(psi):
    """Independent assembly of the defining operator with np.kron."""
    n = psi.n
    cols = [(-1j * np.eye(2**n)) @ psi.vector]
    for j in range(n):
        for m in SU2_BASIS:
            full = np.eye(1, dtype=complex)
            for k in range(n):
                full = np.kron(full, m if k == j else np.eye(2))
            cols.append(full @ psi.vector)
    return np.column_stack(cols)


def _dense_null_dim(matrix, tol=1e-8):
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s < tol * s[0]))


def test_ghz_stabilizer_matches_explicit_construction():
    n = 4
    psi = ghz_state(n, 0.8, 0.6)
    k = stabilizer_pure(psi)
    assert k.dim == n - 1
    assert k.proj_dims == (1,) * n
    assert k.gap > GAP_MIN
    # independent reference: zero phase, diagonal blocks t_j summing to zero
    rows = []
    for j in range(n - 1):
        t = np.zeros(n)
        t[j], t[j + 1] = 1.0, -1.0
        flat = np.zeros(3 * n + 1)
        flat[1 + 3 * np.arange(n)] = t
        rows.append(flat / np.linalg.norm(flat))
    angles = principal_angles(k.basis, np.array(rows))
    assert np.max(angles, initial=0.0) < 1e-9
    # every basis element annihilates the state
    for x in k.elements():
        from stabscope import apply_infinitesimal

        assert np.linalg.norm(apply_infinitesimal(x, psi)) < 1e-9


def test_w_state_dimension_against_dense_oracle():
    psi = w_state(3)
    k = stabilizer_pure(psi)
    assert k.dim == _dense_null_dim(_dense_pure_map(psi)) == 1


def test_haar_state_dimension_against_dense_oracle():
    psi = random_state(3, np.random.default_rng(12))
    k = stabilizer_pure(psi)
    assert k.dim == _dense_null_dim(_dense_pure_map(psi)) == 0


def test_singlet_product_pure_and_density_dimensions():
    psi = tensor_product(singlet_state(), singlet_state())
    assert stabilizer_pure(psi).dim == 6
    k = stabilizer_density(to_density(psi))
    assert k.dim == 6
    assert k.cross_validated


def test_maximally_mixed_density_commutes_with_everything():
    n = 2
    rho = DensityMatrix(np.eye(2**n) / 2**n)
    assert stabilizer_density(rho, method="direct").dim == 3 * n


def test_density_methods_agree_on_rank_one():
    rng = np.random.default_rng(7)
    for psi in (ghz_state(3, 0.7), random_state(3, rng), w_state(3)):
        rho = to_density(psi)
        direct = stabilizer_density(rho, method="direct")
        projected = stabilizer_density(rho, method="projected")
        assert direct.dim == projected.dim
        angles = principal_angles(direct.basis, projected.basis)
        assert np.max(angles, initial=0.0) < 1e-8


def test_projected_method_requires_pure_input():
    rho = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError):
        stabilizer_density(rho, method="projected")


def test_auto_method_on_a_large_mixed_state_points_to_direct():
    # a mixed state above the direct limit: auto names its own rule and the
    # method that does solve it, not the projected method it never chose
    n = DENSITY_DIRECT_LIMIT + 1
    rho = reduced_state(random_state(n + 2, np.random.default_rng(3)), tuple(range(1, n + 1)))
    with pytest.raises(ValueError, match="method 'auto' needs a rank-one.*method='direct' solves mixed"):
        stabilizer_density(rho)
    with pytest.raises(ValueError, match="projected method requires"):
        stabilizer_density(rho, method="projected")


def test_auto_density_uses_projection_above_the_direct_limit():
    psi = ghz_state(7)
    k = stabilizer_density(to_density(psi))
    assert k.method == "projected"
    assert k.dim == 6
    assert k.proj_dims == (1,) * 7


def test_deterministic_presentation():
    psi = ghz_state(3, 0.6, 0.8)
    a = stabilizer_pure(psi)
    b = stabilizer_pure(psi)
    assert np.array_equal(a.basis, b.basis)
    # orthonormal rows
    gram = a.basis @ a.basis.T
    assert np.allclose(gram, np.eye(a.dim), atol=1e-12)


def test_principal_angles_edges():
    empty = np.zeros((0, 6))
    row = np.zeros((1, 6))
    row[0, 0] = 1.0
    assert principal_angles(empty, empty).size == 0
    assert np.allclose(principal_angles(row, row), 0.0, atol=1e-12)
    assert principal_angles(row, empty)[0] == pytest.approx(np.pi / 2)


def test_span_contains():
    psi = ghz_state(3)
    k = stabilizer_density(to_density(psi), method="direct")
    inside = k.basis[0] + 0.5 * k.basis[1]
    assert span_contains(k, inside)
    outside = np.zeros(9)
    outside[1] = 1.0  # a single off-diagonal direction never stabilizes GHZ
    assert not span_contains(k, outside)


def _synthetic_basis(rows, ambient="density"):
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1] // 3
    return StabilizerBasis(ambient, n, rows, np.ones(rows.shape[0]), np.inf)


def test_algebra_type_su2_on_repeated_coordinates():
    rows = np.zeros((3, 6))
    for axis in range(3):
        rows[axis, axis::3] = 1 / np.sqrt(2)
    at = algebra_type(_synthetic_basis(rows))
    assert at.kind == "su2"
    assert at.closed
    assert np.max(at.killing_eigenvalues) < -1e-8


def test_algebra_type_abelian_for_ghz():
    k = stabilizer_pure(ghz_state(4, 0.8, 0.6))
    at = algebra_type(k)
    assert at.kind == "abelian"
    assert at.closed


def test_algebra_type_other_for_non_closed_span():
    # e0 at qubit 1 and e1 at qubit 1: bracket gives e2, outside the span
    rows = np.zeros((2, 3))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    at = algebra_type(_synthetic_basis(rows))
    assert at.kind == "other"
    assert not at.closed
    assert at.closure_residual > 0.1


def test_phase_projection_check_across_state_zoo():
    rng = np.random.default_rng(21)
    zoo = [
        ghz_state(3),
        ghz_state(5, 0.9),
        w_state(4),
        tensor_product(singlet_state(), singlet_state()),
        random_state(4, rng),
    ]
    for psi in zoo:
        pc = phase_projection_check(psi)
        assert pc.passed, (psi.n, pc)


def test_block_columns_layout():
    k = stabilizer_pure(ghz_state(3))
    # pure ambient: column 0 is the phase, then three columns per qubit
    assert k.basis.shape == (2, 10)
    assert k.block_columns(1).shape == (2, 3)
    assert np.allclose(k.basis[:, 0], 0.0, atol=1e-9)


def _embedded(m, j, n):
    full = np.eye(1, dtype=complex)
    for k in range(n):
        full = np.kron(full, m if k == j else np.eye(2))
    return full


def _naive_density_map(rho):
    """Independent assembly of [X, rho] with np.kron, realified to 2 * 4**n rows."""
    n = rho.n
    cols = []
    for j in range(n):
        for m in SU2_BASIS:
            x = _embedded(m, j, n)
            cols.append((x @ rho.matrix - rho.matrix @ x).reshape(-1))
    cols = np.column_stack(cols)
    return np.concatenate([cols.real, cols.imag], axis=0)


def _oracle_cases():
    rng = np.random.default_rng(31)
    yield "mixed:1", DensityMatrix(np.eye(2) / 2), 3
    yield "pure:1", to_density(random_state(1, rng)), 1
    yield "singlets", to_density(tensor_product(singlet_state(), singlet_state())), 6
    for n in range(2, 6):
        yield f"mixed:{n}", DensityMatrix(np.eye(2**n) / 2**n), 3 * n
        g = haar_random_local_unitary(n, rng)
        yield f"ghz_orbit:{n}", to_density(apply_local_unitary(g, ghz_state(n, 0.8, 0.6))), n - 1
        wide = to_density(random_state(n + 2, rng))
        yield f"rank4:{n}", partial_trace(wide, (n + 1, n + 2)), 0
    # n = 7 maps are factorised in row blocks
    for n in (6, 7):
        g = haar_random_local_unitary(n, rng)
        yield f"ghz_orbit:{n}", to_density(apply_local_unitary(g, ghz_state(n, 0.8, 0.6))), n - 1
        wide = to_density(random_state(n + 2, rng))
        yield f"rank4:{n}", partial_trace(wide, (n + 1, n + 2)), 0
    # full rank, complex entries everywhere
    g = rng.standard_normal((2**7, 2**7)) + 1j * rng.standard_normal((2**7, 2**7))
    wishart = g @ g.conj().T
    yield "wishart:7", DensityMatrix(wishart / np.trace(wishart).real), 0


@pytest.mark.parametrize("name, rho, expected_dim", list(_oracle_cases()))
def test_direct_density_solve_matches_naive_realified_map(name, rho, expected_dim):
    real_map = _naive_density_map(rho)
    _, s, vh = np.linalg.svd(real_map, full_matrices=False)
    rank = int(np.sum(s > NULL_TOL * s[0])) if s[0] > 0 else 0
    oracle = StabilizerBasis("density", rho.n, vh[rank:], s, np.inf)
    k = stabilizer_density(rho, method="direct")
    assert k.dim == oracle.dim == expected_dim, name
    assert k.proj_dims == oracle.proj_dims, name
    assert np.allclose(k.singular_values, s, rtol=0.0, atol=1e-12 * max(s[0], 1e-300)), name
    assert np.allclose(k.basis.T @ k.basis, oracle.basis.T @ oracle.basis, atol=1e-10), name


def _planted_maps(rows, k, kernel_dims, rng):
    """An (S, rows, k) stack of maps with kernels of the given dimensions
    and a nonzero spectrum spread over six decades."""
    maps = []
    for dim in kernel_dims:
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        scales = np.concatenate([np.zeros(dim), np.logspace(-6, 0, k - dim)])
        maps.append(rng.standard_normal((rows, k)) @ (q * scales) @ q.T)
    return np.stack(maps)


@pytest.mark.parametrize("offset", [-1, 0, 1, 3 * QR_BLOCK_BYTES // 128 + 5])
def test_blocked_r_matches_a_single_qr_around_the_cut(offset, monkeypatch):
    # 16 columns of float64: the cut falls on a whole row count and a block
    # holds QR_BLOCK_BYTES // 128 rows; the last offset gives seven blocks,
    # two batched calls and five remainder rows
    k = 16
    rows = QR_CALL_BYTES // (8 * k) + offset
    blocks = rows // (QR_BLOCK_BYTES // (8 * k))
    batched = -(-blocks // (QR_CALL_BYTES // QR_BLOCK_BYTES))
    maps = _planted_maps(rows, k, (3, 0), np.random.default_rng(rows))
    _, ref_s, ref_vh = np.linalg.svd(np.linalg.qr(maps, mode="r"))
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(a.ndim) or qr(a, *args, **kw))
    got = _null_spaces(maps, NULL_TOL)
    assert calls == ([3] if offset <= 0 else [4] * batched + [3])
    for (rows_k, s, _), s_ref, vh_ref, dim in zip(got, ref_s, ref_vh, (3, 0), strict=True):
        kernel = vh_ref[numerical_rank(s_ref, NULL_TOL) :]
        assert rows_k.shape[0] == kernel.shape[0] == dim
        assert np.max(np.abs(s - s_ref)) <= 1e-13 * s_ref[0]
        assert np.allclose(rows_k.T @ rows_k, kernel.T @ kernel, rtol=0.0, atol=1e-10)


def test_null_space_rejects_wide_maps():
    with pytest.raises(ValueError, match="fewer rows than columns"):
        _null_spaces(np.ones((1, 2, 3)), NULL_TOL)


def test_rank_margin_on_a_vanishing_map():
    # the maximally mixed state commutes with everything: the whole space is kernel
    k = stabilizer_density(DensityMatrix(np.eye(4) / 4), method="direct")
    assert k.dim == 6
    assert k.rank_margin() == {"kernel_max": 0.0, "range_min": None, "cut": NULL_TOL}
