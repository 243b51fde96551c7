import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabscope import (
    DEFAULT_TRIPLES,
    REFERENCE_TRIPLE,
    SWAP34_TRIPLE,
    PermutationTriple,
    PureState,
    apply_local_unitary,
    canonical_four_qubit_state,
    canonical_poly3_im,
    fingerprint_drift,
    ghz_state,
    haar_random_local_unitary,
    invariant_fingerprint,
    pair_invariants,
    polynomial_invariant,
    purity_invariant,
    random_state,
    separating_component,
    singlet_state,
    subset_purity,
    tensor_product,
    w_state,
)
from stabscope.invariants import (
    _keyed_subsets,
    _purity_plan,
    fingerprint_component_stack,
    subset_key,
)
from stabscope.selftest import _poly3_reference
from stabscope.states import _bipartition_sides, subset_purity_stack

# canonical family point used to pin numeric conventions
CAL_A = 1.0
CAL_B = -0.5 + 1.0j
CAL_PAIR = (0.159719141249985, 0.159719141249985, 0.17857142857142858)
CAL_POLY_IM = 0.02623906705539357  # = 9 / 343 at this normalization


def test_purity_invariant_matches_subset_purity():
    psi = random_state(4, np.random.default_rng(3))
    for subset in ((1,), (2, 4), (1, 3)):
        assert purity_invariant(psi, subset) == pytest.approx(
            subset_purity(psi, subset), abs=1e-12
        )
    with pytest.raises(ValueError):
        purity_invariant(psi, (1, 2, 3, 4))  # proper subsets only


def test_pair_invariants_recover_family_moduli():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = float(rng.uniform(0.2, 0.9))
        b = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        c = -a - b
        if abs(b) < 0.05 or abs(c) < 0.05:
            continue
        s2 = 1.0 / (2.0 * (a**2 + abs(b) ** 2 + abs(c) ** 2))
        i1, i2, i3 = pair_invariants(canonical_four_qubit_state(a, b))
        assert i1 == pytest.approx(a * abs(b) * s2, abs=1e-10)
        assert i2 == pytest.approx(a * abs(c) * s2, abs=1e-10)
        assert i3 == pytest.approx(abs(b) * abs(c) * s2, abs=1e-10)


def test_pair_invariants_frozen_value():
    vals = pair_invariants(canonical_four_qubit_state(CAL_A, CAL_B))
    assert vals == pytest.approx(CAL_PAIR, abs=1e-14)


def test_pair_invariants_nonnegative_on_generic_states():
    for seed in range(5):
        vals = pair_invariants(random_state(4, np.random.default_rng(seed)))
        assert all(v >= 0.0 for v in vals)


def test_pair_invariants_are_the_fingerprint_pair_components():
    rng = np.random.default_rng(44)
    states = [random_state(4, rng) for _ in range(50)] + [
        canonical_four_qubit_state(0.5, 0.2 + 0.3j),
        canonical_four_qubit_state(CAL_A, CAL_B),
        apply_local_unitary(
            haar_random_local_unitary(4, rng), canonical_four_qubit_state(0.5, -0.25 + 0.1j)
        ),
    ]
    stream = dict(fingerprint_component_stack(np.stack([psi.vector for psi in states])))
    for i, psi in enumerate(states):
        assert pair_invariants(psi) == tuple(stream[f"pair:I{j}"][i] for j in (1, 2, 3))


def test_pair_invariants_stop_before_the_polynomial_invariants(monkeypatch):
    module = sys.modules["stabscope.invariants"]
    polynomial = module._polynomial_stack
    calls = []
    monkeypatch.setattr(
        module, "_polynomial_stack", lambda rho, triple: calls.append(triple) or polynomial(rho, triple)
    )
    psi = random_state(4, np.random.default_rng(3))
    values = pair_invariants(psi)
    assert calls == []
    assert values == invariant_fingerprint(psi).pair_invariants
    assert len(calls) == len(DEFAULT_TRIPLES)


def test_permutation_triple_key_and_validation():
    assert REFERENCE_TRIPLE.key == "3:321:213:231"
    assert SWAP34_TRIPLE.key == "3:321:231:213"
    assert REFERENCE_TRIPLE.m == 3
    with pytest.raises(ValueError):
        PermutationTriple((1, 1, 2), (1, 2, 3), (1, 2, 3))


def test_polynomial_invariant_frozen_calibration_value():
    psi = canonical_four_qubit_state(CAL_A, CAL_B)
    value = polynomial_invariant(psi, REFERENCE_TRIPLE)
    assert value.imag == pytest.approx(CAL_POLY_IM, abs=1e-14)
    assert value.imag == pytest.approx(9.0 / 343.0, abs=1e-14)


def test_polynomial_invariant_requires_four_qubits():
    with pytest.raises(ValueError):
        polynomial_invariant(ghz_state(3), REFERENCE_TRIPLE)


def _swap34(psi):
    t = psi.tensor().transpose(0, 1, 3, 2)
    return PureState(t.reshape(-1).copy())


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_qubit_swap_equals_permutation_swap(seed):
    # exchanging qubits 3 and 4 of the state equals exchanging the two
    # corresponding slot permutations of the invariant
    psi = random_state(4, np.random.default_rng(seed))
    lhs = polynomial_invariant(_swap34(psi), REFERENCE_TRIPLE)
    rhs = polynomial_invariant(psi, SWAP34_TRIPLE)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_closed_form_matches_measured_on_family():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = float(rng.uniform(0.3, 0.8))
        b = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        c = -a - b
        if abs(b) < 0.05 or abs(c) < 0.05:
            continue
        s = 1.0 / np.sqrt(2.0 * (a**2 + abs(b) ** 2 + abs(c) ** 2))
        psi = canonical_four_qubit_state(a, b)
        measured = polynomial_invariant(psi, REFERENCE_TRIPLE).imag
        assert measured == pytest.approx(canonical_poly3_im(a * s, b * s), abs=1e-12)
        # the swapped triple sees the third coefficient instead
        swapped = polynomial_invariant(psi, SWAP34_TRIPLE).imag
        assert swapped == pytest.approx(canonical_poly3_im(a * s, c * s), abs=1e-12)


def test_swap_triple_separates_imaginary_b_conjugates():
    psi = canonical_four_qubit_state(0.5, 0.3j)
    conj = canonical_four_qubit_state(0.5, -0.3j)
    ref_a = polynomial_invariant(psi, REFERENCE_TRIPLE).imag
    assert abs(ref_a) < 1e-15  # reference invariant is blind here
    swap_a = polynomial_invariant(psi, SWAP34_TRIPLE).imag
    swap_b = polynomial_invariant(conj, SWAP34_TRIPLE).imag
    assert swap_a == pytest.approx(-0.0322009210258498, abs=1e-12)
    assert swap_b == pytest.approx(-swap_a, abs=1e-12)


def test_fingerprint_structure_by_size():
    fp3 = invariant_fingerprint(ghz_state(3))
    assert fp3.pair_invariants is None and fp3.poly is None
    assert set(fp3.purities) == {"1", "2", "3"}
    fp4 = invariant_fingerprint(random_state(4, np.random.default_rng(1)))
    assert set(fp4.purities) == {"1", "2", "3", "4", "12", "13", "14"}
    assert set(fp4.poly) == {t.key for t in DEFAULT_TRIPLES}
    d = fp4.to_dict()
    assert set(d["poly"]["3:321:213:231"]) == {"re", "im"}


def test_subset_key_uses_separator_for_wide_labels():
    assert subset_key((1, 2), 2) == "12"
    assert subset_key((1, 10), 10) == "1.10"
    assert subset_key((1, 2), 11) == "12"
    # at n = 12 the single qubit 12 and the pair (1, 2) get distinct keys
    assert subset_key((1, 2), 12) == "1.2"
    assert subset_key((12,), 12) == "12"
    for n in range(1, 13):
        keys = {subset_key(s, n) for s in _bipartition_sides(n)}
        assert len(keys) == 2 ** (n - 1) - 1, n


def test_fingerprint_key_table_is_built_once_per_n():
    for n in (1, 3, 12):
        table = _keyed_subsets(n)
        assert _keyed_subsets(n) is table
        assert table == tuple(sorted((subset_key(s, n), s) for s in _bipartition_sides(n)))
        assert _purity_plan(n, 4) is _purity_plan(n, 4)


@pytest.mark.parametrize("n", range(2, 13))
def test_tree_purities_match_the_direct_route(n):
    # every purity after purity:1 is traced down the partial-trace tree;
    # the direct route forms each reduced state from the amplitudes
    rng = np.random.default_rng(60 + n)
    states = [
        random_state(n, rng),
        apply_local_unitary(haar_random_local_unitary(n, rng), ghz_state(n, 0.8, 0.6)),
        w_state(n),
        tensor_product(*(random_state(1, rng) for _ in range(n))),
    ]
    if n == 4:
        states += [
            tensor_product(singlet_state(), singlet_state()),
            apply_local_unitary(
                haar_random_local_unitary(4, rng), canonical_four_qubit_state(0.5, 0.2 + 0.3j)
            ),
        ]
    vectors = np.stack([psi.vector for psi in states])
    keyed = _keyed_subsets(n)
    stream = dict(fingerprint_component_stack(vectors))
    assert [name for name in stream if name.startswith("purity:")] == [
        f"purity:{key}" for key, _ in keyed
    ]
    for key, subset in keyed:
        direct = subset_purity_stack(vectors, subset)
        assert np.max(np.abs(direct - stream[f"purity:{key}"])) <= 1e-14, key


@pytest.mark.parametrize("triple", DEFAULT_TRIPLES, ids=lambda t: t.key)
def test_polynomial_invariant_matches_literal_sum(triple):
    for seed in range(5):
        psi = random_state(4, np.random.default_rng(seed))
        ref = _poly3_reference(psi, triple)
        assert abs(polynomial_invariant(psi, triple) - ref) <= 1e-12 * abs(ref)


def test_fingerprint_drift_and_separation():
    psi = canonical_four_qubit_state(0.5, 0.2 + 0.3j)
    fp = invariant_fingerprint(psi)
    assert fingerprint_drift(fp, fp) == 0.0
    assert separating_component(fp, fp, 1e-9) is None
    g = haar_random_local_unitary(4, np.random.default_rng(2))
    fp_moved = invariant_fingerprint(apply_local_unitary(g, psi))
    assert fingerprint_drift(fp, fp_moved) < 1e-10
    # conjugate pair: only the odd polynomial components differ
    fp_conj = invariant_fingerprint(canonical_four_qubit_state(0.5, 0.2 - 0.3j))
    name, da, db = separating_component(fp, fp_conj, 1e-9)
    assert name.startswith("poly:")


@pytest.mark.parametrize("n", [2, 4, 7])
def test_fingerprint_drift_matches_the_componentwise_loop(n):
    rng = np.random.default_rng(30 + n)
    psi = random_state(n, rng)
    fa = invariant_fingerprint(psi)
    for phi in (random_state(n, rng), apply_local_unitary(haar_random_local_unitary(n, rng), psi)):
        fb = invariant_fingerprint(phi)
        loop = 0.0
        for (_, x), (_, y) in zip(fa.components(), fb.components()):
            loop = max(loop, abs(x - y) / (1.0 + abs(x)))
        assert fingerprint_drift(fa, fb) == loop


def test_fingerprint_drift_requires_matching_shape():
    with pytest.raises(ValueError):
        fingerprint_drift(invariant_fingerprint(ghz_state(3)), invariant_fingerprint(w_state(4)))


@pytest.mark.parametrize("na, nb", [(3, 4), (4, 3)])
def test_separating_component_requires_matching_components(na, nb):
    # zipped blindly, purity:2 of GHZ3 would meet purity:12 of GHZ4
    fa, fb = invariant_fingerprint(ghz_state(na)), invariant_fingerprint(ghz_state(nb))
    with pytest.raises(ValueError, match="different components"):
        separating_component(fa, fb, 1e-9)


def _two_m_copy_reference(psi, triple):
    """The invariant as one einsum over m plain and m conjugated copies of
    the state, each copy with its own four slot letters."""
    m = triple.m
    ket = ["abcdefghijklmnop"[4 * k : 4 * k + 4] for k in range(m)]
    bra = [
        ket[k][0] + ket[s - 1][1] + ket[t - 1][2] + ket[p - 1][3]
        for k, (s, t, p) in enumerate(zip(triple.sigma, triple.tau, triple.phi))
    ]
    x = psi.tensor()
    return complex(np.einsum(",".join(ket + bra) + "->", *[x] * m, *[x.conj()] * m))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_polynomial_invariant_matches_the_two_m_copy_contraction(m):
    rng = np.random.default_rng(40 + m)
    triples = [
        PermutationTriple(*(tuple(int(v) + 1 for v in rng.permutation(m)) for _ in range(3)))
        for _ in range(4)
    ]
    if m == 3:
        triples += list(DEFAULT_TRIPLES)
    states = [
        random_state(4, rng),
        apply_local_unitary(haar_random_local_unitary(4, rng), canonical_four_qubit_state(0.5, 0.2 + 0.3j)),
        ghz_state(4, 0.8, 0.6),
        w_state(4),
    ]
    for psi in states:
        for triple in triples:
            ref = _two_m_copy_reference(psi, triple)
            assert abs(polynomial_invariant(psi, triple) - ref) <= 1e-13, triple.key
