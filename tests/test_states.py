import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscope import (
    DensityMatrix,
    PureState,
    apply_local_unitary,
    basis_state,
    canonical_four_qubit_state,
    complement_pair_state,
    ghz_state,
    haar_random_local_unitary,
    is_product,
    partial_trace,
    purity,
    random_state,
    reduced_state,
    singlet_state,
    subset_purity,
    tensor_product,
    to_density,
    w_state,
)
from stabscope import states as states_module
from stabscope.states import (
    NORM_TOL,
    NULL_TOL,
    _amplitude_matrices,
    _bipartition_sides,
    _correlation_components,
    _plane_grams,
    _plane_rows,
    _sign_flip_planes,
    bit_table,
    bits_to_int,
    int_to_bits,
    numerical_rank,
    reduced_states,
)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_bit_round_trip(n, data):
    value = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    bits = int_to_bits(value, n)
    assert len(bits) == n
    assert bits_to_int(bits) == value


def test_bit_table_matches_scalar():
    table = bit_table(3)
    for k in range(8):
        assert tuple(table[k]) == int_to_bits(k, 3)


def test_pure_state_normalizes_with_warning():
    with pytest.warns(UserWarning):
        psi = PureState(np.array([2.0, 0.0], dtype=complex))
    assert np.isclose(np.linalg.norm(psi.vector), 1.0)


def test_pure_state_normalizes_huge_and_tiny_vectors():
    # squares of these overflow, underflow to zero, or fall below the
    # smallest normal number; powers of two scale exactly, so each gives
    # the unscaled vector's state to the last bit
    vec = np.array([3.0, 4.0j, 0.0, -12.0])
    expected = PureState(vec / 13).vector
    for exponent in (700, -600, -520):
        with pytest.warns(UserWarning, match="renormalizing"):
            psi = PureState(vec * 2.0**exponent)
        assert psi.vector.tobytes() == expected.tobytes(), exponent
    for amplitude in (1e200, 1e-200):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", RuntimeWarning)
            psi = PureState([amplitude, amplitude])
        assert np.allclose(psi.vector, np.sqrt(0.5), rtol=0, atol=1e-15)


def test_pure_state_rejects_zero_and_bad_shape():
    with pytest.raises(ValueError):
        PureState(np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        PureState(np.ones(3, dtype=complex))
    # no amplitudes at all: n comes from integer arithmetic, not log2(0)
    with pytest.raises(ValueError, match=r"not 2\*\*n"):
        PureState(np.zeros(0))
    with pytest.raises(ValueError, match=r"not 2\*\*n"):
        PureState(np.ones(1, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=str)
def test_states_reject_non_finite_entries(bad):
    vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    vec[1] = bad
    # rejected outright, not renormalized with a warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            PureState(vec)
    for i, j in ((2, 2), (0, 3)):
        rho = np.eye(4, dtype=complex) / 4
        rho[i, j] = bad
        with pytest.raises(ValueError, match="finite"), np.errstate(invalid="ignore"):
            DensityMatrix(rho)


def test_density_matrix_rejects_empty_and_bad_dimension():
    with pytest.raises(ValueError, match=r"not 2\*\*n"):
        DensityMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"not 2\*\*n"):
        DensityMatrix(np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"not 2\*\*n"):
        DensityMatrix(np.eye(3) / 3)


def test_pure_state_vector_is_read_only():
    psi = ghz_state(2)
    with pytest.raises(ValueError):
        psi.vector[0] = 0.0


def test_amplitude_and_tensor_accessors():
    psi = ghz_state(3, 0.8, 0.6)
    assert psi.amplitude((0, 0, 0)) == pytest.approx(0.8)
    assert psi.amplitude((1, 1, 1)) == pytest.approx(0.6)
    assert psi.tensor().shape == (2, 2, 2)
    assert psi.tensor()[1, 1, 1] == pytest.approx(0.6)


def test_named_constructions():
    assert basis_state([1, 0]).amplitude((1, 0)) == 1.0
    w = w_state(3)
    assert w.amplitude((0, 0, 1)) == pytest.approx(1 / np.sqrt(3))
    s = singlet_state()
    assert s.amplitude((0, 1)) == pytest.approx(1 / np.sqrt(2))
    assert s.amplitude((1, 0)) == pytest.approx(-1 / np.sqrt(2))
    with pytest.raises(ValueError):
        ghz_state(3, 1.0)  # beta would vanish
    with pytest.raises(ValueError):
        ghz_state(1)


def test_ghz_balanced_default():
    psi = ghz_state(4)
    assert psi.amplitude((0,) * 4) == pytest.approx(1 / np.sqrt(2))
    assert psi.amplitude((1,) * 4) == pytest.approx(1 / np.sqrt(2))


@pytest.mark.filterwarnings("error")
def test_density_checks_hermiticity_and_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    # an infinite or NaN entry raises the class's own error, with no numpy
    # warning from inf - inf on the way
    for bad in ([[np.inf, 0], [0, 1]], [[np.inf, 0], [0, -np.inf]], [[np.nan, 0], [0, 1]]):
        with pytest.raises(ValueError, match="not Hermitian with finite entries"):
            DensityMatrix(bad)
    with pytest.warns(UserWarning, match="rescaling"):
        rho = DensityMatrix(np.eye(2))
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    rho = DensityMatrix(np.eye(2) / 2)
    rho.validate()
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5])).validate()
    # a trace that is not positive cannot be rescaled to one
    for bad in (np.zeros((4, 4)), -np.eye(4) / 4):
        with pytest.raises(ValueError, match="not positive"):
            DensityMatrix(bad)
    # the asymmetry is bounded relative to the trace: at a trace of 2e-12 an
    # entry of 1e-9 with no mirror is far from Hermitian, and would be stored
    # as 500 after rescaling
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix([[1e-12, 1e-9], [0, 1e-12]])
    # while at a trace of 7.7e10 a rounding-level asymmetry is not
    g = np.random.default_rng(3).standard_normal((4, 4))
    big = g @ g.T
    big *= 7.7e10 / np.trace(big)
    big[0, 3] += 6.7e-16 * 7.7e10
    assert np.max(np.abs(big - big.T)) > 100 * NORM_TOL
    with pytest.warns(UserWarning, match="rescaling"):
        rho = DensityMatrix(big)
    assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 100 * NORM_TOL


def _reference_density_check(x):
    """The stored matrix, or the error message, by the whole-matrix check
    np.max(np.abs(m - m.conj().T)) <= 100 * NORM_TOL * |tr m|."""
    mat = np.asarray(x, dtype=np.complex128).copy()
    tr = np.trace(mat).real
    if not np.max(np.abs(mat - mat.conj().T)) <= 100 * NORM_TOL * abs(tr):
        return "matrix is not Hermitian with finite entries"
    if not tr > 0.0:
        return f"trace {tr:.6g} is not positive"
    return mat / tr if abs(tr - 1.0) > NORM_TOL else mat


def _hermiticity_cases(n, rng):
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    yield "hermitian", rho
    yield "hermitian:off_trace", 3.0 * rho
    yield "hermitian:fortran", np.asfortranarray(rho)
    yield "indefinite", rho - np.eye(d) / (2 * d)
    cut = 100 * NORM_TOL
    for scale in (0.99, 1.01):
        for row, col in ((0, d - 1), (d - 1, 0)):
            for phase in (1.0, 1j, np.exp(0.7j)):
                bad = rho.copy()
                bad[row, col] += scale * cut * phase
                yield f"asymmetric:{scale}:{row},{col}:{phase}", bad
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)):
        for row, col in ((d - 1, 0), (0, d - 1)):
            bad = rho.copy()
            bad[row, col] = value
            yield f"non_finite:{value}:{row},{col}", bad
    real = (g + g.T).real
    yield "float64", real @ real.T / np.trace(real @ real.T)
    yield "float64:asymmetric", np.triu(real @ real.T) / np.trace(real @ real.T)
    yield "complex64", rho.astype(np.complex64)
    yield "complex64:off_trace", (5.0 * rho).astype(np.complex64)
    yield "int", np.eye(d, dtype=np.int64)
    yield "int:asymmetric", np.eye(d, dtype=np.int64) + np.eye(d, k=1, dtype=np.int64)
    yield "int:zero_trace", np.zeros((d, d), dtype=np.int32)


@pytest.mark.parametrize("n", range(1, 9))
def test_density_check_matches_the_whole_matrix_reference(n):
    # verdict, message, warning and stored bits against the reference check
    for name, x in _hermiticity_cases(n, np.random.default_rng(70 + n)):
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore")
            expected = _reference_density_check(x)
        with warnings.catch_warnings(record=True) as caught, np.errstate(invalid="ignore"):
            warnings.simplefilter("always")
            try:
                got = DensityMatrix(x).matrix
            except ValueError as exc:
                got = str(exc)
        if isinstance(expected, str):
            assert got == expected, name
            continue
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous and not got.flags.writeable, name
        assert got.dtype == np.complex128 and got.tobytes() == expected.tobytes(), name
        rescaled = abs(np.trace(np.asarray(x, np.complex128)).real - 1.0) > NORM_TOL
        assert [str(w.message).startswith("rescaling") for w in caught] == ([True] if rescaled else []), name
        if not rescaled:
            assert got.tobytes() == np.asarray(x, np.complex128).tobytes(), name


def test_partial_trace_of_product_recovers_factor():
    rng = np.random.default_rng(5)
    a = random_state(1, rng)
    b = random_state(2, rng)
    rho = to_density(tensor_product(a, b))
    left = partial_trace(rho, (2, 3))
    assert np.allclose(left.matrix, to_density(a).matrix, atol=1e-12)
    right = partial_trace(rho, (1,))
    assert np.allclose(right.matrix, to_density(b).matrix, atol=1e-12)


def test_reduced_ghz_purity_closed_form():
    alpha, beta = 0.8, 0.6
    psi = ghz_state(3, alpha, beta)
    rho1 = reduced_state(psi, (1,))
    assert np.allclose(rho1.matrix, np.diag([alpha**2, beta**2]), atol=1e-12)
    assert purity(rho1) == pytest.approx(alpha**4 + beta**4, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_subset_purity_matches_reduced_density(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    psi = random_state(n, rng)
    size = int(rng.integers(1, n))
    subset = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False)))
    direct = subset_purity(psi, subset)
    via_reduction = purity(reduced_state(psi, subset))
    assert direct == pytest.approx(via_reduction, abs=1e-12)
    # complement shares the value for a pure global state
    complement = tuple(j for j in range(1, n + 1) if j not in subset)
    assert subset_purity(psi, complement) == pytest.approx(direct, abs=1e-12)


def test_is_product_finds_construction_blocks():
    rng = np.random.default_rng(11)
    a = random_state(1, rng)
    b = random_state(2, rng)
    fact = is_product(tensor_product(a, b))
    assert fact.is_product
    assert fact.blocks == ((1,), (2, 3))
    fact3 = is_product(tensor_product(a, b, a))
    assert fact3.blocks == ((1,), (2, 3), (4,))


def test_is_product_on_entangled_states():
    assert not is_product(ghz_state(3)).is_product
    assert not is_product(w_state(3)).is_product
    assert is_product(basis_state([0, 1, 1])).blocks == ((1,), (2,), (3,))


def test_singlet_pair_is_product_across_the_pair_split():
    psi = tensor_product(singlet_state(), singlet_state())
    fact = is_product(psi)
    assert fact.blocks == ((1, 2), (3, 4))
    assert subset_purity(psi, (1, 2)) == pytest.approx(1.0, abs=1e-12)
    assert subset_purity(psi, (1,)) == pytest.approx(0.5, abs=1e-12)


def _purity_rule_blocks(psi):
    """Finest factorization by the purity rule 1 - subset_purity < 1e-9 on
    every bipartition: each qubit's block is the intersection of the pure
    subsets that contain it."""
    labels = range(1, psi.n + 1)
    pure = [
        set(s)
        for k in range(1, psi.n)
        for s in combinations(labels, k)
        if 1.0 - subset_purity(psi, s) < 1e-9
    ]
    blocks = set()
    for q in labels:
        block = set(labels)
        for s in pure:
            if q in s:
                block &= s
        blocks.add(tuple(sorted(block)))
    return tuple(sorted(blocks))


def test_is_product_matches_the_purity_rule():
    rng = np.random.default_rng(31)
    states = [
        tensor_product(singlet_state(), singlet_state()),
        tensor_product(singlet_state(), basis_state([1]), singlet_state()),
        basis_state([0, 1, 1, 0]),
        ghz_state(5),
        ghz_state(4, 0.8),
        w_state(5),
    ]
    for n in range(2, 11):
        for _ in range(3):
            count = int(rng.integers(1, min(4, n) + 1))
            cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1, replace=False))
            sizes = np.diff(np.concatenate([[0], cuts, [n]]))
            psi = tensor_product(*(random_state(int(m), rng) for m in sizes))
            psi = apply_local_unitary(haar_random_local_unitary(n, rng), psi)
            # scatter the blocks over the qubit labels
            perm = rng.permutation(n)
            states.append(PureState(psi.tensor().transpose(perm).reshape(-1)))
    for psi in states:
        assert is_product(psi).blocks == _purity_rule_blocks(psi)


def test_is_product_takes_no_svd_off_the_cut(monkeypatch):
    # every side of a GHZ or Haar state is far from pure, so the purity
    # screen decides them all
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for psi in (ghz_state(12), random_state(12, np.random.default_rng(0))):
        assert not is_product(psi).is_product
    assert calls == []
    # a product side is near pure and takes the SVD
    assert is_product(tensor_product(ghz_state(3), basis_state([0]))).blocks == ((1, 2, 3), (4,))
    assert calls


def test_complement_pair_state_layout():
    psi = complement_pair_state(3.0, 2.0, 1.0)
    norm = np.sqrt(2 * (9 + 4 + 1))
    assert psi.amplitude((0, 0, 1, 1)) == pytest.approx(3 / norm)
    assert psi.amplitude((1, 1, 0, 0)) == pytest.approx(3 / norm)
    assert psi.amplitude((1, 0, 0, 1)) == pytest.approx(2 / norm)
    assert psi.amplitude((0, 1, 1, 0)) == pytest.approx(2 / norm)
    assert psi.amplitude((1, 0, 1, 0)) == pytest.approx(1 / norm)
    assert psi.amplitude((0, 1, 0, 1)) == pytest.approx(1 / norm)


def test_canonical_four_qubit_state_validation():
    with pytest.raises(ValueError):
        canonical_four_qubit_state(-0.5, 0.2 + 0.1j)
    with pytest.raises(ValueError):
        canonical_four_qubit_state(0.5, 0.0)
    with pytest.raises(ValueError):
        canonical_four_qubit_state(0.5, -0.5)  # c = 0
    psi = canonical_four_qubit_state(0.5, 0.2 + 0.1j)
    assert np.isclose(np.linalg.norm(psi.vector), 1.0)


def test_random_state_is_deterministic_per_seed():
    a = random_state(3, 42)
    b = random_state(3, 42)
    assert np.array_equal(a.vector, b.vector)


@pytest.mark.parametrize("n", range(1, 9))
def test_bipartition_sides_cover_each_bipartition_once(n):
    labels = frozenset(range(1, n + 1))
    sides = list(_bipartition_sides(n))
    splits = {frozenset((frozenset(s), labels - frozenset(s))) for s in sides}
    assert len(sides) == len(splits) == 2 ** (n - 1) - 1
    assert all(0 < len(s) <= n / 2 for s in sides)


def _schmidt_rule_blocks(psi, tol=NULL_TOL):
    """The enumeration is_product replaced: a bipartition is pure when the
    Schmidt coefficients of its smaller side (of two halves, the one holding
    qubit 1) have numerical rank 1 at tol; blocks are assembled greedily,
    each from the smallest pure subset holding the lowest remaining qubit."""
    labels = tuple(range(1, psi.n + 1))
    pure = []
    for k in range(1, psi.n // 2 + 1):
        for side in combinations(labels, k):
            if 2 * k == psi.n and 1 not in side:
                continue
            schmidt = np.linalg.svd(_amplitude_matrices(psi.vector[None], side)[0], compute_uv=False)
            if numerical_rank(schmidt, tol) == 1:
                pure.append(side)
                pure.append(tuple(j for j in labels if j not in side))
    pure.sort(key=lambda s: (len(s), s))
    blocks = []
    remaining = set(labels)
    while remaining:
        q = min(remaining)
        block = next((s for s in pure if q in s and set(s) <= remaining), tuple(sorted(remaining)))
        blocks.append(block)
        remaining -= set(block)
    return tuple(blocks)


def _scramble(psi, rng):
    """A random local unitary, then a random relabelling of the qubits."""
    psi = apply_local_unitary(haar_random_local_unitary(psi.n, rng), psi)
    return PureState(psi.tensor().transpose(rng.permutation(psi.n)).reshape(-1))


def _five_qubit_code_state():
    """Logical |0> of the five-qubit code, stabilized by the cyclic shifts of
    XZZXI and by ZZZZZ; every two-qubit marginal is maximally mixed."""
    paulis = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]), "Z": np.diag([1, -1])}
    vec = np.zeros(32, dtype=complex)
    vec[0] = 1.0
    for word in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ", "ZZZZZ"):
        op = paulis[word[0]]
        for letter in word[1:]:
            op = np.kron(op, paulis[letter])
        vec = (vec + op @ vec) / 2
    return PureState(vec / np.linalg.norm(vec))


def test_is_product_matches_the_schmidt_rule_enumeration():
    rng = np.random.default_rng(47)
    makers = (random_state, ghz_state, w_state)
    states = [
        tensor_product(singlet_state(), singlet_state()),
        tensor_product(singlet_state(), basis_state([1]), singlet_state()),
        basis_state([0, 1, 1, 0]),
        basis_state([1]),
    ]
    for n in range(2, 13):
        for _ in range(2):
            count = int(rng.integers(1, min(4, n) + 1))
            cuts = np.sort(rng.choice(np.arange(1, n), size=count - 1, replace=False))
            sizes = np.diff(np.concatenate([[0], cuts, [n]]))
            blocks = []
            for m in sizes:
                make = makers[int(rng.integers(3))] if m > 1 else random_state
                blocks.append(make(int(m), rng) if make is random_state else make(int(m)))
            states.append(_scramble(tensor_product(*blocks), rng))
    # GHZ orbit points on both sides of the cut and on it (beta = tol)
    for n in range(3, 9):
        for e in range(-12, 0):
            beta = 10.0**e
            states.append(_scramble(ghz_state(n, np.sqrt(1 - beta**2), beta), rng))
    code = _five_qubit_code_state()
    states += [code, _scramble(code, rng), tensor_product(code, ghz_state(3))]
    for psi in states:
        assert is_product(psi).blocks == _schmidt_rule_blocks(psi)


@pytest.mark.parametrize("n", range(9, 13))
def test_is_product_matches_the_schmidt_rule_on_ghz_beyond_eight_qubits(n):
    # beta = 1e-2 joins the graph; 1e-5 leaves every qubit its own component
    # and the screen rejects every cut of the fallback; 3e-9 is below tol and
    # below the rounding floor, so its cuts take the SVD and come out pure
    rng = np.random.default_rng(90 + n)
    for beta in (1e-2, 1e-5, 3e-9):
        psi = _scramble(ghz_state(n, np.sqrt(1 - beta**2), beta), rng)
        assert is_product(psi).blocks == _schmidt_rule_blocks(psi), beta


def test_near_unit_norm_keeps_the_blocks():
    # PureState keeps a norm within NORM_TOL of 1 as given: the screen must
    # read 1 - 1e-10 of squared norm as scale, not as mixedness of a side
    rng = np.random.default_rng(33)
    halves = tensor_product(random_state(3, rng), random_state(3, rng))
    singlets = tensor_product(singlet_state(), singlet_state())
    for psi, blocks in (
        (halves, ((1, 2, 3), (4, 5, 6))),
        (singlets, ((1, 2), (3, 4))),
        (apply_local_unitary(haar_random_local_unitary(6, rng), halves), ((1, 2, 3), (4, 5, 6))),
    ):
        for scale in (1 - 5e-11, 1 + 5e-11):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = PureState(psi.vector * scale)
            assert abs(np.linalg.norm(scaled.vector) - 1) > 4e-11
            assert is_product(scaled).blocks == blocks


def test_fallback_forms_one_amplitude_matrix_per_cut(monkeypatch):
    # a GHZ10 orbit point with beta = 1e-5 has no edge, so every one of its
    # 511 bipartitions is tested; each is rejected on its Gram deficit
    calls = {"side": 0, "amplitudes": 0, "purity": 0, "svd": 0}
    pure_side, amplitudes = states_module._pure_side, states_module._amplitude_matrices
    svd = np.linalg.svd

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(states_module, "_pure_side", counted("side", pure_side))
    monkeypatch.setattr(states_module, "_amplitude_matrices", counted("amplitudes", amplitudes))
    for name in ("subset_purity", "subset_purity_stack", "reduced_states"):
        monkeypatch.setattr(states_module, name, counted("purity", getattr(states_module, name)))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    rng = np.random.default_rng(10)
    beta = 1e-5
    psi = _scramble(ghz_state(10, np.sqrt(1 - beta**2), beta), rng)
    assert is_product(psi).blocks == (tuple(range(1, 11)),)
    assert calls == {"side": 511, "amplitudes": 511, "purity": 0, "svd": 0}
    # below tol and below the rounding floor the cuts still take the SVD
    for key in calls:
        calls[key] = 0
    beta = 3e-9
    psi = _scramble(ghz_state(12, np.sqrt(1 - beta**2), beta), rng)
    assert is_product(psi).blocks == tuple((q,) for q in range(1, 13))
    assert calls == {"side": 12, "amplitudes": 12, "purity": 0, "svd": 12}


def test_two_uniform_state_has_no_edges_and_takes_the_fallback():
    code = _five_qubit_code_state()
    for i, j in combinations(range(1, 6), 2):
        assert np.allclose(reduced_state(code, (i, j)).matrix, np.eye(4) / 4, atol=1e-12)
    assert _correlation_components(code, NULL_TOL) == [(1,), (2,), (3,), (4,), (5,)]
    assert is_product(code).blocks == ((1, 2, 3, 4, 5),)
    psi = tensor_product(code, ghz_state(3))
    assert is_product(psi).blocks == ((1, 2, 3, 4, 5), (6, 7, 8))


@pytest.mark.parametrize("n", range(4, 13))
def test_no_edge_crosses_a_cut_that_is_pure_at_tol(n):
    # phi_A (x) chi_B + eps eta in Schmidt form: every coefficient after the
    # first sits just below tol s0, so 1 - s0^2 is as large as a pure cut allows
    rng = np.random.default_rng(100 + n)
    k = n // 2
    r = 2**k
    s = np.full(r, 0.99 * NULL_TOL)
    s[0] = 1.0
    s /= np.linalg.norm(s)
    ua = np.linalg.qr(rng.standard_normal((2**k, r)) + 1j * rng.standard_normal((2**k, r)))[0]
    vb = np.linalg.qr(rng.standard_normal((2 ** (n - k), r)) + 1j * rng.standard_normal((2 ** (n - k), r)))[0]
    psi = PureState((ua * s) @ vb.T)
    perm = rng.permutation(n)
    psi = PureState(psi.tensor().transpose(perm).reshape(-1))
    # qubit q of the relabelled state is qubit perm[q - 1] + 1 of the original
    side_a = tuple(q for q in range(1, n + 1) if perm[q - 1] < k)
    side_b = tuple(q for q in range(1, n + 1) if perm[q - 1] >= k)
    assert numerical_rank(np.linalg.svd(_amplitude_matrices(psi.vector[None], side_a)[0], compute_uv=False), NULL_TOL) == 1
    for component in _correlation_components(psi, NULL_TOL):
        assert set(component) <= set(side_a) or set(component) <= set(side_b)
    assert is_product(psi).blocks == tuple(sorted((side_a, side_b)))


def test_is_product_reads_connected_states_off_the_graph(monkeypatch):
    purities = []
    svds = []
    purity_fn = states_module.subset_purity
    svd = np.linalg.svd
    monkeypatch.setattr(states_module, "subset_purity", lambda *a: purities.append(1) or purity_fn(*a))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    for psi in (ghz_state(12), random_state(12, np.random.default_rng(1))):
        assert not is_product(psi).is_product
    assert purities == [] and svds == []
    rng = np.random.default_rng(2)
    halves = tensor_product(random_state(6, rng), random_state(6, rng))
    assert is_product(halves).blocks == ((1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11, 12))
    assert len(purities) <= 2


def _per_pair_components(psi, tol=NULL_TOL):
    """The per-pair graph _correlation_components replaced: an edge where
    ||rho_ij - rho_i (x) rho_j||_F, from the marginals, exceeds the bound;
    components by union-find."""
    n = psi.n
    v = psi.vector[None]
    bound = 6.0 * np.sqrt(2.0 ** (n // 2) - 1.0) * tol
    single = [reduced_states(v, (i,))[0] for i in range(1, n + 1)]
    root = list(range(n))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in combinations(range(n), 2):
        corr = reduced_states(v, (i + 1, j + 1))[0].reshape(2, 2, 2, 2) - (
            single[i][:, None, :, None] * single[j][None, :, None, :]
        )
        if np.vdot(corr, corr).real > bound**2:
            root[find(i)] = find(j)
    groups = {}
    for q in range(n):
        groups.setdefault(find(q), []).append(q + 1)
    return sorted(tuple(g) for g in groups.values())


def _near_cut_state(n):
    """The state of test_no_edge_crosses_a_cut_that_is_pure_at_tol."""
    rng = np.random.default_rng(100 + n)
    k = n // 2
    r = 2**k
    s = np.full(r, 0.99 * NULL_TOL)
    s[0] = 1.0
    s /= np.linalg.norm(s)
    ua = np.linalg.qr(rng.standard_normal((2**k, r)) + 1j * rng.standard_normal((2**k, r)))[0]
    vb = np.linalg.qr(rng.standard_normal((2 ** (n - k), r)) + 1j * rng.standard_normal((2 ** (n - k), r)))[0]
    psi = PureState((ua * s) @ vb.T)
    return PureState(psi.tensor().transpose(rng.permutation(n)).reshape(-1))


def _phase_chain(n, theta=1e-3):
    """|+>^n under a controlled phase theta on each neighbouring pair: the
    neighbour correlations (3.5e-4) lie above the bound and all others
    (1.3e-7 at distance two) below it, so the graph is one path."""
    bits = bit_table(n)
    return PureState(np.exp(1j * theta * (bits[:, :-1] * bits[:, 1:]).sum(axis=1)) / 2 ** (n / 2))


def _graph_corpus():
    rng = np.random.default_rng(30)
    states = [singlet_state(), tensor_product(singlet_state(), singlet_state())]
    states += [_phase_chain(10), _phase_chain(12), _scramble(_phase_chain(12), rng)]
    states += [canonical_four_qubit_state(0.5, 0.2), _scramble(canonical_four_qubit_state(0.5, 0.2), rng)]
    states.append(tensor_product(_five_qubit_code_state(), ghz_state(3)))
    for n in range(2, 13):
        states.append(basis_state(rng.integers(0, 2, n)))
        states += [_scramble(random_state(n, rng), rng), _scramble(ghz_state(n), rng), _scramble(w_state(n), rng)]
        for beta in (1e-2, 1e-5, 3e-8, 1e-8, 3e-9):
            states.append(_scramble(ghz_state(n, np.sqrt(1 - beta**2), beta), rng))
        if n >= 4:
            k = int(rng.integers(1, n // 2 + 1))
            states.append(_scramble(tensor_product(random_state(k, rng), random_state(n - k, rng)), rng))
            states.append(_near_cut_state(n))
    return states


def test_correlation_graph_matches_the_per_pair_reference():
    states = _graph_corpus()
    assert len(states) > 120
    for psi in states:
        assert _correlation_components(psi, NULL_TOL) == _per_pair_components(psi), psi.n
    # a bound above every correlation leaves each qubit its own component
    assert _correlation_components(ghz_state(4), 0.5) == [(1,), (2,), (3,), (4,)]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_plane_gram_gives_every_pair_correlation(n):
    # ||rho_ij - rho_i (x) rho_j||_F^2 = 1/4 sum_ab (G_ab - G_0a G_0b)^2 over
    # the generators a of qubit i and b of qubit j, G the planes' Gram matrix
    rng = np.random.default_rng(60 + n)
    for psi in (random_state(n, rng), _scramble(ghz_state(n, 0.8, 0.6), rng), _scramble(w_state(n), rng)):
        planes = _sign_flip_planes(psi.vector[None])[0]
        gram = planes @ planes.T
        v = psi.vector[None]
        for i, j in combinations(range(n), 2):
            corr = reduced_states(v, (i + 1, j + 1))[0] - np.kron(
                reduced_states(v, (i + 1,))[0], reduced_states(v, (j + 1,))[0]
            )
            a, b = slice(1 + 3 * i, 4 + 3 * i), slice(1 + 3 * j, 4 + 3 * j)
            schur = gram[a, b] - np.outer(gram[0, a], gram[0, b])
            assert np.isclose(0.25 * np.sum(schur**2), np.vdot(corr, corr).real, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_plane_grams_match_the_product_of_the_whole_planes(n):
    # a row block of the planes holds the whole planes' entries exactly,
    # signed zeros too, for the blocks _plane_grams sums and for any other
    # range; G is the whole product bit for bit while one block holds a
    # state (n <= 9), and above within the rounding of dot products of
    # 2 * 2**n terms whose absolute values sum to at most 1
    rng = np.random.default_rng(70 + n)
    eps = np.finfo(np.float64).eps
    d = 2**n
    step = _plane_rows(n)
    assert (step >= d) == (n <= 9)
    states = [random_state(n, rng) for _ in range(4)] + [basis_state([1] * n)]
    for size in (1, 2, 5):
        vectors = np.stack([psi.vector for psi in states[-size:]])
        planes = _sign_flip_planes(vectors).reshape(size, 3 * n + 1, 2, d)
        for lo, hi in [(lo, min(lo + step, d)) for lo in range(0, d, step)] + [(d // 2 - 1, d - 1)]:
            block = _sign_flip_planes(vectors, lo, hi).reshape(size, 3 * n + 1, 2, hi - lo)
            whole = planes[..., lo:hi]
            assert np.array_equal(block, whole) and np.array_equal(np.signbit(block), np.signbit(whole))
        for gram, p in zip(_plane_grams(vectors), planes.reshape(size, 3 * n + 1, 2 * d), strict=True):
            if n <= 9:
                assert np.array_equal(gram, p @ p.T)
            else:
                assert np.max(np.abs(gram - p @ p.T)) <= 2 ** (n + 1) * eps
