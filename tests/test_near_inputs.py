"""Seeded near-identity and near-degenerate inputs along the default sequences, and
for N=3..16 along one sequence with a level-2 center override.

For N=2..16, eps in {1e-14, 1e-10, 1e-6} and three seeds each, two inputs:

  exp(i eps H)          H a seeded traceless Hermitian matrix of norm 1;
  K1 exp(i a) K2        K1, K2 = exp(i sum_k theta_k t_k) over the level-1 t,
                        a = eps sum_k x_k c_k over the center, so the
                        eigenphases of exp(i a) lie within about eps.

That is 270 inputs along the default sequences and 252 along the others. Each must factor within 1e-8 or be rejected as invalid
input (InvalidMatrixError); an internal DecompositionError fails the test.
"""

import numpy as np
import pytest

from cartankak._linalg import expm_hermitian
from cartankak.cartan import build_decomposition_sequence
from cartankak.errors import InvalidChoiceError, InvalidMatrixError
from cartankak.kak import recursive_decompose

EPSILONS = (1e-14, 1e-10, 1e-6)
SEEDS = 3


def inputs(seq, rng, eps):
    n = seq.dim
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    h -= np.trace(h) / n * np.eye(n)
    t = [m for lab in seq.levels[0].chosen_labels for m in seq.space_at(lab).matrices]
    center = seq.qa.center.matrices
    k1, k2 = (expm_hermitian(np.tensordot(rng.normal(size=len(t)), t, 1)) for _ in range(2))
    a = eps * np.tensordot(rng.normal(size=len(center)), center, 1)
    return {
        "near-identity": expm_hermitian(h / np.linalg.norm(h), eps),
        "near-degenerate": k1 @ expm_hermitian(a) @ k2,
    }


def override_sequence(seq):
    """The default choices with the first level-1 t space, in label order and other than
    the default level-2 center, that the builder accepts as the level-2 center."""
    for label in seq.levels[0].chosen_labels:
        if label != seq.levels[1].label:
            try:
                return build_decomposition_sequence(seq.qa, level_centers=[seq.space_at(label)])
            except InvalidChoiceError:
                continue
    raise AssertionError("no level-2 override is admissible")


def factor_or_reject(seq, rng):
    factored = 0
    for eps in EPSILONS:
        for seed in range(SEEDS):
            for kind, u in inputs(seq, rng, eps).items():
                try:
                    fact = recursive_decompose(u, seq)
                except InvalidMatrixError:
                    continue
                assert fact.reconstruction_error < 1e-8, (kind, eps, seed)
                factored += 1
    assert factored  # the contract allows rejection, but not of every input


@pytest.mark.parametrize("n", range(2, 17))
def test_near_inputs_factor_or_are_rejected(n, std_seq):
    factor_or_reject(std_seq(n), np.random.default_rng(11000 + n))


@pytest.mark.parametrize("n", range(3, 17))
def test_near_inputs_along_an_override_sequence(n, std_seq):
    seq = override_sequence(std_seq(n))
    assert seq.levels[1].label != std_seq(n).levels[1].label
    factor_or_reject(seq, np.random.default_rng(12000 + n))
