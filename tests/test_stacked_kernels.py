"""Stacked kernels: each state of an (S, 2**n) stack gets bit for bit what
it gets in a stack of its own, whatever the chunking."""

import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from stabscope import (
    apply_local_unitary,
    canonical_four_qubit_state,
    decide_equivalence,
    ghz_state,
    haar_random_local_unitary,
    invariant_fingerprint,
    is_product,
    partial_trace,
    random_state,
    reduced_state,
    singlet_state,
    stabilizer_pure,
    subset_purity,
    tensor_product,
    to_density,
    w_state,
)
from stabscope.invariants import _keyed_subsets, invariant_fingerprint_stack
from stabscope.stabilizer import stabilizer_pure_stack
from stabscope.states import STACK_AMPLITUDES, reduced_states, stack_length, subset_purity_stack


def _states(n: int) -> list:
    """Two Haar states, a GHZ orbit point and W; at n = 4 also a moved
    family member and two singlets."""
    rng = np.random.default_rng(100 + n)
    out = [random_state(n, rng), random_state(n, rng)]
    if n >= 2:
        out += [
            apply_local_unitary(haar_random_local_unitary(n, rng), ghz_state(n, 0.8, 0.6)),
            w_state(n),
        ]
    if n == 4:
        out += [
            apply_local_unitary(
                haar_random_local_unitary(4, rng), canonical_four_qubit_state(0.5, 0.2 + 0.3j)
            ),
            tensor_product(singlet_state(), singlet_state()),
        ]
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_stacked_slices_equal_stacks_of_one(n):
    states = _states(n)
    vectors = np.stack([psi.vector for psi in states])
    for _, subset in _keyed_subsets(n):
        stacked = subset_purity_stack(vectors, subset)
        assert stacked.tolist() == [subset_purity(psi, subset) for psi in states], subset
    for psi, k in zip(states, stabilizer_pure_stack(vectors), strict=True):
        one = stabilizer_pure(psi)
        assert np.array_equal(k.basis, one.basis)
        assert np.array_equal(k.singular_values, one.singular_values)
        assert (k.dim, k.proj_dims, k.gap) == (one.dim, one.proj_dims, one.gap)
    for psi, fp in zip(states, invariant_fingerprint_stack(vectors), strict=True):
        assert fp == invariant_fingerprint(psi)


@pytest.mark.parametrize("n", range(1, 7))
def test_reduced_states_match_partial_traces_and_stacks_of_one(n):
    states = _states(n)
    vectors = np.stack([psi.vector for psi in states])
    labels = range(1, n + 1)
    for k in range(1, n + 1):
        for keep in combinations(labels, k):
            for psi, rho in zip(states, reduced_states(vectors, keep), strict=True):
                assert np.array_equal(rho, reduced_state(psi, keep).matrix), keep
                if k < n:
                    # independent reference: trace the rest out of |psi><psi|
                    rest = tuple(j for j in labels if j not in keep)
                    reference = partial_trace(to_density(psi), rest).matrix
                    assert np.allclose(rho, reference, rtol=0.0, atol=1e-14), keep


def test_stabilizer_stacks_are_solved_in_bounded_chunks(monkeypatch):
    assert stack_length(12) == 1 and stack_length(4) == STACK_AMPLITUDES // 16
    module = sys.modules["stabscope.stabilizer"]
    chunk = module._gram_split
    sizes = []
    monkeypatch.setattr(module, "_gram_split", lambda planes, tol: sizes.append(len(planes)) or chunk(planes, tol))
    for n, count in ((4, 300), (10, 6), (12, 2)):
        sizes.clear()
        rng = np.random.default_rng(n)
        vectors = np.stack([random_state(n, rng).vector for _ in range(count)])
        assert len(stabilizer_pure_stack(vectors)) == count
        assert sum(sizes) == count and max(sizes) * 2**n <= max(STACK_AMPLITUDES, 2**n)


def test_fingerprint_forms_only_the_top_level_from_amplitudes(monkeypatch):
    module = sys.modules["stabscope.states"]
    amplitudes = module._amplitude_matrices
    calls = []
    monkeypatch.setattr(
        module, "_amplitude_matrices", lambda v, keep: calls.append(keep) or amplitudes(v, keep)
    )
    # the half-size sides holding qubit 1 (even n) or all (n - 1)/2-subsets
    # (odd n), plus purity:1 on its own
    for n, count in ((10, 127), (11, 463), (12, 463)):
        calls.clear()
        invariant_fingerprint(random_state(n, np.random.default_rng(n)))
        assert len(calls) == count, n
    monkeypatch.undo()
    psi = random_state(12, np.random.default_rng(12))
    invariant_fingerprint(psi)
    tracemalloc.start()
    try:
        invariant_fingerprint(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tree holds TREE_BYTES = 256 KB of top-level reduced states at a
    # time, and its levels below about half as much again
    assert peak < 1.5e6, peak


def test_product_test_forms_amplitude_matrices_only_for_pure_sides(monkeypatch):
    module = sys.modules["stabscope.states"]
    amplitudes, pure_side = module._amplitude_matrices, module._pure_side
    inside, calls = [], []

    def side(*args):
        inside.append(1)
        try:
            return pure_side(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(module, "_pure_side", side)
    monkeypatch.setattr(
        module, "_amplitude_matrices", lambda v, keep: calls.append(bool(inside)) or amplitudes(v, keep)
    )
    rng = np.random.default_rng(30)
    ghz12 = apply_local_unitary(haar_random_local_unitary(12, rng), ghz_state(12))
    for psi in (random_state(8, rng), ghz12):
        assert not is_product(psi).is_product
    assert calls == []
    halves = tensor_product(random_state(4, rng), random_state(4, rng))
    assert is_product(halves).blocks == ((1, 2, 3, 4), (5, 6, 7, 8))
    assert calls and all(calls)


def test_equivalence_walks_both_fingerprints_in_one_stack(monkeypatch):
    module = sys.modules["stabscope.invariants"]
    purity = module.subset_purity_stack
    stacks = []
    monkeypatch.setattr(
        module, "subset_purity_stack", lambda v, s: stacks.append(len(v)) or purity(v, s)
    )
    verdict = decide_equivalence(ghz_state(6, 0.9), ghz_state(6, 0.7))
    # the first component separates, so only it is computed, for both states
    assert verdict.decided_by == "fingerprint:purity:1"
    assert stacks == [2]


def test_stacks_reject_malformed_input():
    for bad in (np.ones(4), np.ones((2, 3)), np.ones((2, 1))):
        with pytest.raises(ValueError, match="stack of 2\\*\\*n amplitude vectors"):
            subset_purity_stack(bad, (1,))
