"""Seeded corpus: every level-1 Cartan split at N=2..16, word and lambda algebras.

One Haar SU(N) input per dimension is factored along each of the 2^p
level-1 splits (later levels take the default choices), over the algebra
`standard_quotient_algebra` builds and over the lambda algebra, which is
`intrinsic_quotient_algebra` (`lambda_qa` is byte-identical to it). That is
170 sequences per algebra kind, 340 in all.
"""

import numpy as np
import pytest

from cartankak._linalg import random_special_unitary
from cartankak.cartan import build_decomposition_sequence, enumerate_t_choices
from cartankak.kak import recursive_decompose


@pytest.mark.parametrize("n", range(2, 17))
def test_every_level_one_split_factors_a_haar_input(n, std_seq, lambda_qa):
    u = random_special_unitary(n, np.random.default_rng(8000 + n))
    for kind, qa in (("standard", std_seq(n).qa), ("lambda", lambda_qa(n))):
        later = ["0" * (qa.p - k) for k in range(1, qa.p)]
        splits = enumerate_t_choices(qa)
        assert len(splits) == 1 << qa.p
        for bits in splits:
            fact = recursive_decompose(u, build_decomposition_sequence(qa, [bits] + later))
            assert fact.reconstruction_error < 1e-8, (kind, bits, fact.reconstruction_error)
