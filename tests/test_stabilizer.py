import tracemalloc

import numpy as np
import pytest

from stabscope import (
    DensityMatrix,
    SU2_BASIS,
    StabilizerBasis,
    algebra_type,
    apply_local_unitary,
    canonical_four_qubit_state,
    conjugate_density,
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
import stabscope.stabilizer as stabilizer_module
from stabscope.stabilizer import (
    CLOSURE_TOL,
    DENSITY_DIRECT_LIMIT,
    GAP_MIN,
    NULL_TOL,
    QR_BLOCK_BYTES,
    QR_CALL_BYTES,
    RANGE_ROUTE_RATIO,
    _density_planes,
    _drop_phase,
    _null_spaces,
    _range_factor,
    _residual_norm,
)
from stabscope.selftest import _ghz_corpus, _haar_corpus
from stabscope.states import _sign_flip_planes, numerical_rank


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


def _routing_cases():
    rng = np.random.default_rng(41)
    # every one-qubit pure state is on the orbit of ghz's weights 0.8, 0.6
    yield pytest.param(to_density(random_state(1, rng)), id="ghz_orbit:1")
    yield pytest.param(reduced_state(random_state(3, rng), (1,)), id="mixed:1")
    for n in range(2, DENSITY_DIRECT_LIMIT + 1):
        g = haar_random_local_unitary(n, rng)
        rank_one = to_density(apply_local_unitary(g, ghz_state(n, 0.8, 0.6)))
        yield pytest.param(rank_one, id=f"ghz_orbit:{n}")
        mixed = reduced_state(random_state(n + 2, rng), tuple(range(1, n + 1)))
        yield pytest.param(mixed, id=f"mixed:{n}")


@pytest.mark.parametrize("rho", list(_routing_cases()))
def test_auto_density_is_one_direct_solve_up_to_the_limit(rho, monkeypatch):
    direct = stabilizer_density(rho, method="direct")

    def second_route(*args, **kwargs):
        raise AssertionError("auto ran more than the direct solve")

    for attr in ("purity", "_density_projected", "principal_angles"):
        monkeypatch.setattr(stabilizer_module, attr, second_route)
    k = stabilizer_density(rho)
    assert k.method == "direct"
    assert np.array_equal(k.basis, direct.basis)
    assert np.array_equal(k.singular_values, direct.singular_values)


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


def _mixed_rows(rows, rng):
    """Rows spanning the same space, mixed by a random invertible matrix.
    Orthonormalising them again costs up to eps times its condition number,
    which for a Gaussian matrix reaches 1e4; this one's is at most 100."""
    m = len(rows)
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (u * 10.0 ** rng.uniform(-1, 1, m)) @ v @ rows


def _spans_at_angles(theta, rng):
    """Two row-spans with principal angles theta, neither given by
    orthonormal rows: Q[:k] plus extra rows orthogonal to the other span,
    against cos(theta) Q[:k] + sin(theta) Q[k:2k], in either order."""
    k = len(theta)
    extra = int(rng.integers(0, 4))
    q = np.linalg.qr(rng.standard_normal((2 * k + extra + 3, 2 * k + extra + 3)))[0].T
    a = np.vstack([q[:k], q[2 * k : 2 * k + extra]])
    b = np.cos(theta)[:, None] * q[:k] + np.sin(theta)[:, None] * q[k : 2 * k]
    a, b = _mixed_rows(a, rng), _mixed_rows(b, rng)
    return (a, b) if rng.integers(2) else (b, a)


def _angle_spectra(regime, rng):
    for _ in range(300):
        k = int(rng.integers(1, 6))
        small = 10.0 ** rng.uniform(-14, -6, k)
        if regime == "spread":
            theta = rng.uniform(0.0, np.pi / 2, k)
            theta[rng.random(k) < 0.1] = 0.0
            theta[rng.random(k) < 0.1] = np.pi / 2
            yield theta
        elif regime == "near_zero":
            yield small
        else:
            yield np.where(rng.random(k) < 0.5, small, np.pi / 2 - small)


@pytest.mark.parametrize("seed, regime", enumerate(["spread", "near_zero", "near_both_ends"]))
def test_principal_angles_recover_planted_angles(seed, regime):
    rng = np.random.default_rng(seed)
    for theta in _angle_spectra(regime, rng):
        got = principal_angles(*_spans_at_angles(theta, rng))
        np.testing.assert_allclose(got, np.sort(theta)[::-1], rtol=0.0, atol=1e-12)


def test_principal_angles_match_scipy_on_near_equal_spans():
    # only near-equal spans: on spectra with angles near both 0 and pi/2,
    # scipy.linalg.subspace_angles (1.17) is off by up to 1e-7, because it
    # builds its cos^2 >= 1/2 mask in ascending-angle order and applies it
    # to its descending arrays
    from scipy.linalg import subspace_angles

    rng = np.random.default_rng(3)
    for theta in _angle_spectra("near_zero", rng):
        a, b = _spans_at_angles(theta, rng)
        np.testing.assert_allclose(
            principal_angles(a, b), subspace_angles(a.T, b.T), rtol=0.0, atol=1e-12
        )


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
    return StabilizerBasis(ambient, n, rows, np.ones(rows.shape[0]), NULL_TOL)


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
    assert at.structure_constants is None and at.killing_eigenvalues is None


def test_algebra_type_of_dimension_0_and_1_builds_no_table():
    # a table, even of one basis row, would come back as structure constants
    for psi in (random_state(4, np.random.default_rng(3)), ghz_state(2, 0.8, 0.6)):
        for k in (stabilizer_pure(psi), stabilizer_density(to_density(psi), method="direct")):
            assert k.dim == (0 if psi.n == 4 else 1)
            at = algebra_type(k)
            assert (at.kind, at.closed, at.closure_residual) == ("abelian", True, 0.0)
            assert at.structure_constants is None and at.killing_eigenvalues is None


def test_abelian_table_is_exactly_antisymmetric():
    rng = np.random.default_rng(5)
    for psi in (ghz_state(9, 0.8, 0.6), ghz_state(3)):
        moved = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
        for k in (stabilizer_pure(moved), stabilizer_density(to_density(moved))):
            at = algebra_type(k)
            c = at.structure_constants
            assert at.kind == "abelian" and c.shape == (k.dim,) * 3
            assert np.array_equal(c, -c.swapaxes(0, 1))
            assert not np.diagonal(c, axis1=0, axis2=1).any()


def _oracle_algebra_type(k):
    """algebra_type as one bracket per basis pair, each expanded by its own
    matrix-vector product: the reference the one-call table must match."""
    dim = k.dim
    if dim <= 1:
        return "abelian", True, 0.0, None, None
    off = 1 if k.ambient == "pure" else 0
    max_norm = max_resid = 0.0
    const = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            br = np.zeros(k.basis.shape[1])
            ci = k.basis[i, off:].reshape(k.n, 3)
            cj = k.basis[j, off:].reshape(k.n, 3)
            br[off:] = 2.0 * np.cross(ci, cj).reshape(-1)
            max_norm = max(max_norm, float(np.linalg.norm(br)))
            coeff = k.basis @ br
            const[i, j] = coeff
            const[j, i] = -coeff
            max_resid = max(max_resid, float(np.linalg.norm(br - k.basis.T @ coeff)))
    if max_norm < CLOSURE_TOL:
        return "abelian", True, max_resid, const, None
    if not max_resid < CLOSURE_TOL:
        return "other", False, max_resid, None, None
    ad = np.transpose(const, (0, 2, 1))
    killing = np.einsum("akj,bjk->ab", ad, ad)
    evals = np.linalg.eigvalsh((killing + killing.T) / 2.0)
    kind = "su2" if dim == 3 and evals.max() < -1e-8 else "other"
    return kind, True, max_resid, const, evals


def _haar(n, seed):
    return random_state(n, np.random.default_rng(seed))


def _density_ambient(psi):
    """The density stabilizer of a pure state as stabilizer_density solves
    it; above DENSITY_DIRECT_LIMIT that is the projected route's pure basis
    without its phase, taken here from psi, since rho itself would hold
    4^n amplitudes (a 1.1 GB peak at n = 12)."""
    if psi.n <= DENSITY_DIRECT_LIMIT:
        return stabilizer_density(to_density(psi))
    return _drop_phase(stabilizer_pure(psi))


ALGEBRA_CORPUS = {
    **{f"ghz{n}": (lambda n=n: ghz_state(n, 0.8, 0.6)) for n in range(3, 13)},
    **{f"w{n}": (lambda n=n: w_state(n)) for n in (3, 5, 8)},
    "canon4": lambda: canonical_four_qubit_state(0.5, 0.2 + 0.3j),
    "singlet_singlet": lambda: tensor_product(singlet_state(), singlet_state()),
    "singlet_ghz3": lambda: tensor_product(singlet_state(), ghz_state(3)),
    "three_singlets": lambda: tensor_product(singlet_state(), singlet_state(), singlet_state()),
    "singlet_haar3": lambda: tensor_product(singlet_state(), _haar(3, 11)),
    "haar5": lambda: _haar(5, 12),
}


@pytest.mark.parametrize("name", list(ALGEBRA_CORPUS))
def test_algebra_type_matches_the_pairwise_oracle(name):
    psi = ALGEBRA_CORPUS[name]()
    rng = np.random.default_rng(list(ALGEBRA_CORPUS).index(name))
    moved = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
    for k in (stabilizer_pure(moved), _density_ambient(moved)):
        at = algebra_type(k)
        kind, closed, resid, const, evals = _oracle_algebra_type(k)
        assert (at.kind, at.closed) == (kind, closed)
        assert at.closure_residual == pytest.approx(resid, abs=1e-13)
        for got, want in ((at.structure_constants, const), (at.killing_eigenvalues, evals)):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


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
    # the n = 7 rank-4 map is factorised in row blocks
    for n in (6, 7):
        g = haar_random_local_unitary(n, rng)
        yield f"ghz_orbit:{n}", to_density(apply_local_unitary(g, ghz_state(n, 0.8, 0.6))), n - 1
        wide = to_density(random_state(n + 2, rng))
        yield f"rank4:{n}", partial_trace(wide, (n + 1, n + 2)), 0
    # full rank, complex entries everywhere
    g = rng.standard_normal((2**7, 2**7)) + 1j * rng.standard_normal((2**7, 2**7))
    wishart = g @ g.conj().T
    yield "wishart:7", DensityMatrix(wishart / np.trace(wishart).real), 0
    # near the product end of the GHZ family the smallest range singular
    # value nears the cut
    for beta in (1e-2, 1e-5, 3e-8, 1e-8, 3e-9):
        g = haar_random_local_unitary(7, rng)
        point = ghz_state(7, np.sqrt(1 - beta**2), beta)
        yield f"ghz_orbit:7:beta={beta}", to_density(apply_local_unitary(g, point)), 6
    g = haar_random_local_unitary(8, rng)
    yield "ghz_orbit:8", to_density(apply_local_unitary(g, ghz_state(8, 0.8, 0.6))), 7
    yield "rank4:8", partial_trace(to_density(random_state(10, rng)), (9, 10)), 0
    yield "mixed:8", DensityMatrix(np.eye(2**8) / 2**8), 24
    # ranks 1, 2 and 4 at n = 6-8, most of them compressed onto the range of
    # rho; the GHZ mixtures keep the n - 1 relative Z rotations of GHZ
    rng = np.random.default_rng(32)
    for n in (6, 7, 8):
        yield f"haar:{n}", to_density(random_state(n, rng)), 0
        yield f"rank2:{n}", partial_trace(to_density(random_state(n + 1, rng)), (n + 1,)), 0
        yield f"ghz_mixture:{n}", _ghz_mixture(n, rng), n - 1
        yield f"ghz_mixture_rank4:{n}", _ghz_mixture(n, rng, rank=4), n - 1
    # not positive: a rank-one remainder with a zero diagonal, which only the
    # Frobenius residual check sees, so the whole map solves it
    yield "indefinite:7", _indefinite(rng), 6


def _ghz_mixture(n, rng, rank=2):
    """0.7 |GHZ><GHZ| + 0.3 |GHZ'><GHZ'| with GHZ' orthogonal to GHZ, on n
    qubits or, at rank 4, on n - 1 qubits next to a mixed last qubit, moved
    by a Haar local unitary: rank 2 or 4, stabilizer dimension n - 1."""
    m = n if rank == 2 else n - 1
    states = (ghz_state(m, 0.8, 0.6), ghz_state(m, 0.6, -0.8))
    matrix = sum(w * to_density(psi).matrix for w, psi in zip((0.7, 0.3), states))
    if rank == 4:
        matrix = np.kron(matrix, np.diag([0.8, 0.2]))
    return conjugate_density(haar_random_local_unitary(n, rng), DensityMatrix(matrix))


def _indefinite(rng, eps=1e-9):
    """A GHZ orbit point at n = 7 plus eps (|a><b| + |b><a|)."""
    psi = apply_local_unitary(haar_random_local_unitary(7, rng), ghz_state(7, 0.8, 0.6))
    off = np.zeros((2**7, 2**7))
    off[3, 100] = off[100, 3] = eps
    return DensityMatrix(to_density(psi).matrix + off)


@pytest.mark.parametrize("name, rho, expected_dim", list(_oracle_cases()))
def test_direct_density_solve_matches_naive_realified_map(name, rho, expected_dim):
    eps = np.finfo(np.float64).eps
    real_map = _naive_density_map(rho)
    _, s, vh = np.linalg.svd(real_map, full_matrices=False)
    rank = numerical_rank(s, NULL_TOL)
    oracle = StabilizerBasis("density", rho.n, vh[rank:], s, NULL_TOL)
    k = stabilizer_density(rho, method="direct")
    assert k.dim == oracle.dim == expected_dim, name
    assert k.proj_dims == oracle.proj_dims, name
    assert np.allclose(k.singular_values, s, rtol=0.0, atol=1e-12 * max(s[0], 1e-300)), name
    # the cut's own conditioning bounds how well any solve fixes the kernel
    range_min = oracle.rank_margin()["range_min"]
    bound = 1e-10 if range_min is None or range_min >= 1e-4 else 100 * eps / range_min
    diff = np.max(np.abs(k.basis.T @ k.basis - oracle.basis.T @ oracle.basis), initial=0.0)
    assert diff <= bound, (name, diff, range_min)
    if range_min is None:
        # a map that vanishes: every direction is kernel
        assert k.rank_margin() == {"kernel_max": 0.0, "range_min": None, "cut": NULL_TOL}
    else:
        assert k.rank_margin()["range_min"] == pytest.approx(range_min, rel=1e-9), name


_Z = np.diag([1.0, -1.0])
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _whole_density_map(rho):
    """The (3n, 4**n) density map from whole-matrix products: with
    U = Re rho + Im rho and V = Re rho - Im rho, the planes of qubit j are
    Z V - (Z U)^T, J U - (-J V)^T and X V - (X U)^T, each one-qubit product
    exact, so the row-block build must equal it bit for bit."""
    n, d = rho.n, 2**rho.n
    v = rho.matrix.real - rho.matrix.imag
    u = rho.matrix.real + rho.matrix.imag
    planes = []
    for j in range(n):
        def left(g, w):
            return np.einsum("ab,ibr->iar", g, w.reshape(2**j, 2, -1)).reshape(d, d)

        planes += [left(_Z, v) - left(_Z, u).T, left(_J, u) - left(-_J, v).T, left(_X, v) - left(_X, u).T]
    return np.stack(planes).reshape(3 * n, d * d)


def _density_zoo(n, rng):
    """A Haar pure state, a rank-4 state, the maximally mixed state and,
    from n = 2 on, a GHZ orbit point, on n qubits."""
    out = [to_density(random_state(n, rng)), partial_trace(to_density(random_state(n + 2, rng)), (n + 1, n + 2))]
    out.append(DensityMatrix(np.eye(2**n) / 2**n))
    if n >= 2:
        out.append(to_density(apply_local_unitary(haar_random_local_unitary(n, rng), ghz_state(n, 0.8, 0.6))))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_row_block_build_is_the_whole_matrix_map_bit_for_bit(n):
    # the planes are picked row by row through index tables, all rows at once
    for rho in _density_zoo(n, np.random.default_rng(40 + n)):
        assert np.array_equal(_density_planes(rho), _whole_density_map(rho))


@pytest.mark.parametrize("n", range(1, 7))
def test_small_density_maps_are_solved_whole(n, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a.shape) or eigh(a, *args))
    whole = []
    density_planes = stabilizer_module._density_planes
    monkeypatch.setattr(stabilizer_module, "_density_planes", lambda rho: whole.append(rho) or density_planes(rho))
    ranged = 0
    for rho in _density_zoo(n, np.random.default_rng(60 + n)):
        whole.clear()
        k = stabilizer_density(rho, method="direct")
        if not whole:
            # only a rank-one rho at n = 6 is solved on its range
            assert n == 6 and len(_range_factor(rho.matrix, 1)) == 1
            ranged += 1
            continue
        ((rows, svals),) = _null_spaces(_whole_density_map(rho).T[None], NULL_TOL)
        reference = StabilizerBasis("density", n, rows, svals, NULL_TOL)
        assert k.dim == reference.dim and k.proj_dims == reference.proj_dims
        assert np.max(np.abs(k.singular_values - svals)) <= 1e-15 * svals.max()
    assert calls == [] and 3 * n * 4**n * 8 <= QR_CALL_BYTES and ranged == (2 if n == 6 else 0)


def test_low_rank_direct_solves_never_build_the_whole_map(monkeypatch):
    def whole_map(rho):
        raise AssertionError("built the whole map")

    monkeypatch.setattr(stabilizer_module, "_density_planes", whole_map)
    rng = np.random.default_rng(66)
    for n in (6, 7, 8):
        orbit_point = to_density(apply_local_unitary(haar_random_local_unitary(n, rng), ghz_state(n, 0.8, 0.6)))
        k = stabilizer_density(orbit_point, method="direct")
        assert k.method == "direct" and k.dim == n - 1 and k.proj_dims == (1,) * n
        assert stabilizer_density(to_density(random_state(n, rng)), method="direct").dim == 0
    # ranks 2 and 4 at n = 8 too; the pivoted Cholesky stops at the rank
    for rank in (2, 4):
        kept = int(np.log2(rank))
        rho = partial_trace(to_density(random_state(8 + kept, rng)), tuple(range(9, 9 + kept)))
        assert len(_range_factor(rho.matrix, 4)) == rank
        assert stabilizer_density(rho, method="direct").dim == 0
    # a rank above the route's cut takes the whole map
    rank4 = partial_trace(to_density(random_state(8, rng)), (7, 8))
    assert _range_factor(rank4.matrix, 1) is None
    with pytest.raises(AssertionError, match="whole map"):
        stabilizer_density(rank4, method="direct")
    # a one-column factor whose remainder has a zero diagonal fails the
    # Frobenius residual check and falls back too
    indefinite = _indefinite(rng)
    assert len(_range_factor(indefinite.matrix, 2)) == 1
    with pytest.raises(AssertionError, match="whole map"):
        stabilizer_density(indefinite, method="direct")


def test_large_density_maps_factorise_only_their_compression(monkeypatch):
    rng = np.random.default_rng(88)
    orbit_point = to_density(apply_local_unitary(haar_random_local_unitary(8, rng), ghz_state(8, 0.8, 0.6)))
    shapes = []
    r_factors = stabilizer_module._r_factors
    monkeypatch.setattr(stabilizer_module, "_r_factors", lambda maps: shapes.append(maps.shape) or r_factors(maps))
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: shapes.append("eigh"))
    k = stabilizer_density(orbit_point, method="direct")
    # (3n+1) r columns of W and their squared count of rows: 25 and 625
    assert k.dim == 7 and shapes == [(1, 25**2, 24)]
    # a rank-4 state: 100 columns of W
    rank4 = partial_trace(to_density(random_state(10, rng)), (9, 10))
    k = stabilizer_density(rank4, method="direct")
    assert shapes[1:] == [(1, 100**2, 24)] and k.dim == 0 and k.singular_values.shape == (24,)
    assert k.rank_margin()["kernel_max"] is None


def test_rank_one_direct_solve_at_n_8_holds_an_eighth_of_a_map():
    # the whole map would be 3n * 4**n float64 and rho holds 4**n complex
    # entries; the range route forms the factor's residual in row blocks of
    # QR_BLOCK_BYTES, so its largest arrays are the compression's, and it
    # peaks at 0.66 MB, below three quarters of rho
    rng = np.random.default_rng(8)
    rho = to_density(apply_local_unitary(haar_random_local_unitary(8, rng), ghz_state(8, 0.8, 0.6)))
    tracemalloc.start()
    try:
        k = stabilizer_density(rho, method="direct")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k.dim == 7 and peak <= 4**8 * 16 * 3 / 4


def _whole_residual_norm(matrix, cols):
    """||matrix - L L^dagger||_F from one residual of all 4**n entries."""
    residual = cols.T @ cols.conj()
    np.subtract(matrix, residual, out=residual)
    return float(np.sqrt(np.vdot(residual, residual).real))


@pytest.mark.parametrize("n", range(2, 10))
def test_blocked_residual_matches_the_whole_residual(n):
    # one row block up to n = 7, so the same bits; from n = 8 on the blocks'
    # sums add in another order
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(90 + n)
    d = 2**n
    r_max = max(1, int(RANGE_ROUTE_RATIO * d) // (3 * n + 1))
    cases = []
    for r in range(1, r_max + 1):
        factor = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        rho = factor @ factor.conj().T
        rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        cols = _range_factor(rho, r)
        assert len(cols) == r
        noise = 1e-9 * rng.standard_normal((d, d))
        cases += [(rho, cols), (rho + noise + noise.T, cols)]
    # Hermitian, not positive: the first pivot leaves a zero diagonal and a
    # remainder off it
    indefinite = np.zeros((d, d), dtype=complex)
    indefinite[0, 0] = 1.0
    indefinite[1, d - 1] = indefinite[d - 1, 1] = 1e-9
    cols = _range_factor(indefinite, r_max)
    assert len(cols) == 1
    assert _residual_norm(indefinite, cols) == pytest.approx(np.sqrt(2.0) * 1e-9, rel=1e-12)
    cases.append((indefinite, cols))
    for matrix, cols in cases:
        got, whole = _residual_norm(matrix, cols), _whole_residual_norm(matrix, cols)
        if n <= 7:
            assert got == whole
        else:
            assert abs(got - whole) <= 4 * eps * np.linalg.norm(matrix)


def _range_route_inputs():
    """The density inputs at n = 8 of criterion 3 (its GHZ corpus) and of
    _oracle_cases.  Criteria 2 and 9 and the rest of criterion 3 solve at
    n <= 6, where the blocked residual is the whole one bit for bit."""
    rhos = [to_density(psi) for n, _, _, psi in _ghz_corpus(0) if n == 8]
    return rhos + [rho for _, rho, _ in _oracle_cases() if rho.n == 8]


def test_blocked_residual_keeps_every_route(monkeypatch):
    whole = []
    density_planes = stabilizer_module._density_planes
    monkeypatch.setattr(stabilizer_module, "_density_planes", lambda rho: whole.append(rho) or density_planes(rho))
    rhos = _range_route_inputs()
    routes = []
    for residual_norm in (_residual_norm, _whole_residual_norm):
        monkeypatch.setattr(stabilizer_module, "_residual_norm", residual_norm)
        whole.clear()
        for rho in rhos:
            stabilizer_density(rho, method="direct")
        routes.append([rho in whole for rho in rhos])
    # every input of rank up to r_max = 4 takes the range route; the
    # maximally mixed state takes the whole map
    assert routes[0] == routes[1] and len(rhos) > 420 and sum(routes[0]) == 1
    # criteria 2 and 9 and criterion 3's family and Haar states have n <= 4
    assert max(psi.n for psi in _haar_corpus(0)) == 4 and int(RANGE_ROUTE_RATIO * 2**5) // 16 == 0


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
    for (rows_k, s), s_ref, vh_ref, dim in zip(got, ref_s, ref_vh, (3, 0), strict=True):
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


def _margin_corpus(n, rng):
    """GHZ orbit points near the product cut and a Haar state."""
    for beta in (1e-7, 1e-5, 1e-3):
        g = haar_random_local_unitary(n, rng)
        yield f"ghz{n}:{beta}", apply_local_unitary(g, ghz_state(n, np.sqrt(1.0 - beta**2), beta))
    yield f"haar{n}", random_state(n, rng)


def _bases_at(psi, tol):
    """Every route's basis for psi at the cut tol: the pure solve, its phase
    dropped, and up to n = 7 both density routes."""
    pure = stabilizer_pure(psi, tol)
    yield "pure", pure
    yield "drop_phase", _drop_phase(pure)
    if psi.n <= 7:
        rho = to_density(psi)
        for method in ("direct", "projected"):
            yield method, stabilizer_density(rho, tol, method=method)


@pytest.mark.parametrize("tol", [1e-8, 1e-6, 1e-3])
def test_margins_are_read_at_the_basis_own_cut(tol):
    rng = np.random.default_rng(int(-np.log10(tol)))
    for n in range(3, 13):
        for name, psi in _margin_corpus(n, rng):
            for route, k in _bases_at(psi, tol):
                where = (name, route)
                s = k.singular_values
                rank = numerical_rank(s, tol)
                margin = k.rank_margin()
                assert margin["cut"] == tol, where
                assert margin["kernel_max"] is None or margin["kernel_max"] <= tol, where
                assert margin["range_min"] is None or tol < margin["range_min"], where
                assert k.dim == s.size - rank, where
                # the raw-spectrum ratio across the cut, or inf
                if 0 < rank < s.size:
                    gap = float(s[rank - 1] / s[rank]) if s[rank] > 0 else np.inf
                else:
                    gap = np.inf
                assert k.gap == gap, where


def _realified_pure_map(psi):
    """The realified defining map from complex products: each generator is
    contracted with its qubit's leg of the amplitude tensor."""
    n = psi.n
    amps = psi.vector.reshape((2,) * n)
    cols = [-1j * psi.vector]
    for j in range(n):
        for m in SU2_BASIS:
            cols.append(np.moveaxis(np.tensordot(m, amps, axes=(1, j)), 0, j).reshape(-1))
    a = np.column_stack(cols)
    return np.concatenate([a.real, a.imag])


def test_pure_planes_are_the_complex_products_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        states = [random_state(n, rng), random_state(n, rng)]
        planes = _sign_flip_planes(np.stack([psi.vector for psi in states]))
        assert planes.shape == (2, 3 * n + 1, 2 ** (n + 1)) and planes.flags.c_contiguous
        for psi, p in zip(states, planes):
            assert np.array_equal(p.T, _realified_pure_map(psi)), n


def _reference_corpus(n):
    """Haar, W, GHZ orbit points across the beta sweep, moved singlet
    products at even n and moved four-qubit family members at n = 4."""
    rng = np.random.default_rng(500 + n)
    moved = lambda psi: apply_local_unitary(haar_random_local_unitary(n, rng), psi)
    out = [("haar", random_state(n, rng)), ("w", w_state(n))]
    for beta in (1e-3, 1e-5, 3e-8, 1e-8, 3e-9):
        out.append((f"ghz beta={beta}", moved(ghz_state(n, np.sqrt(1 - beta**2), beta))))
    if n % 2 == 0:
        singlets = singlet_state()
        for _ in range(n // 2 - 1):
            singlets = tensor_product(singlets, singlet_state())
        out.append(("singlets", moved(singlets)))
    if n == 4:
        out += [("canon4", moved(canonical_four_qubit_state(a, b))) for a, b in ((0.5, 0.2 + 0.3j), (0.3, 0.1))]
    return out


def _reference_kernel(psi, tol=NULL_TOL):
    """Kernel, rank and relative range_min of the full realified map by a
    dense SVD."""
    _, s, vh = np.linalg.svd(_realified_pure_map(psi), full_matrices=False)
    rank = numerical_rank(s, tol)
    return vh[rank:], s, (s[rank - 1] / s[0] if rank else None)


@pytest.mark.parametrize("n", range(3, 13))
def test_gram_first_pure_solve_matches_a_dense_svd(n):
    eps = np.finfo(np.float64).eps
    for name, psi in _reference_corpus(n):
        kernel, s, range_min = _reference_kernel(psi)
        k = stabilizer_pure(psi)
        assert k.dim == kernel.shape[0], name
        reference = StabilizerBasis("pure", n, kernel, s, NULL_TOL)
        assert k.proj_dims == reference.proj_dims, name
        assert np.max(np.abs(k.singular_values - s)) <= 1e-12 * s[0], name
        # the cut's own conditioning bounds how well any solve fixes the kernel
        bound = 1e-10 if range_min >= 1e-4 else 100 * eps / range_min
        diff = np.max(np.abs(k.basis.T @ k.basis - kernel.T @ kernel), initial=0.0)
        assert diff <= bound, (name, diff, range_min)
        margin = k.rank_margin()
        assert margin["range_min"] == pytest.approx(range_min, rel=1e-9), name
        assert (margin["kernel_max"] is None) == (k.dim == 0), name


@pytest.mark.parametrize("tol", [1e-3, 0.05, 0.6])
def test_gram_first_pure_solve_follows_a_coarse_cut(tol):
    # a coarse cut reaches directions the default would set aside as range
    for n in (3, 5):
        for name, psi in _reference_corpus(n):
            kernel, _, _ = _reference_kernel(psi, tol)
            assert stabilizer_pure(psi, tol).dim == kernel.shape[0], (n, name)


@pytest.mark.parametrize("n", range(3, 13))
def test_generic_state_factorises_nothing(n, monkeypatch):
    haar = random_state(n, np.random.default_rng(n))
    orbit_point = apply_local_unitary(haar_random_local_unitary(n, np.random.default_rng(1)), ghz_state(n))
    calls = []
    null_spaces = stabilizer_module._null_spaces
    monkeypatch.setattr(
        stabilizer_module, "_null_spaces", lambda maps, *a: calls.append(maps.shape) or null_spaces(maps, *a)
    )
    qr, eigh = np.linalg.qr, np.linalg.eigh
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append("qr") or qr(a, *args, **kw))
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(("eigh", a.shape)) or eigh(a, *args))
    gram = ("eigh", (1, 3 * n + 1, 3 * n + 1))
    # every map is solved Gram first: one eigh, and a Haar state factorises nothing
    k = stabilizer_pure(haar)
    assert calls == [gram] and k.dim == 0 and k.gap == np.inf
    assert k.rank_margin()["kernel_max"] is None and k.singular_values.shape == (3 * n + 1,)
    # a GHZ orbit point factorises only its candidate block, with one QR
    calls.clear()
    k = stabilizer_pure(orbit_point)
    (eigh_call, shape, qr_call) = calls
    assert eigh_call == gram and qr_call == "qr" and shape[:2] == (1, 2 ** (n + 1))
    assert k.dim == n - 1 <= shape[2] < 3 * n + 1
