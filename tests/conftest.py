import os

# One BLAS thread, set before NumPy loads OpenBLAS: the suite makes many tiny
# dense products, and threads for them only oversubscribe a small machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.stats import special_ortho_group  # noqa: E402

from cartankak._linalg import random_special_unitary
from cartankak.cartan import build_decomposition_sequence
from cartankak.kak import _PLANS, recursive_decompose
from cartankak.partition import (
    build_quotient_algebra,
    intrinsic_quotient_algebra,
    removing_process,
    standard_basis,
    standard_quotient_algebra,
    standard_word_center,
)


@pytest.fixture(scope="session")
def word_qa():
    """Word-basis quotient algebras over the intrinsic center, by dimension."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_quotient_algebra(standard_word_center(n), standard_basis(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def lambda_qa():
    """Lambda-basis quotient algebras (via the removing process off 2^p)."""
    cache = {}

    def get(n):
        if n not in cache:
            top = 1 << max(1, (n - 1).bit_length())
            cache[n] = intrinsic_quotient_algebra(n) if n == top else removing_process(get(top), n)
        return cache[n]

    return get


@pytest.fixture(scope="session")
def std_seq():
    """Default decomposition sequences over standard_quotient_algebra, by dimension."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = build_decomposition_sequence(standard_quotient_algebra(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def near_collision(std_seq):
    """Exact SU(n) inputs whose level-1 eigenphases nearly collide.

    u = F^dag O1 diag(exp(i lam)) O2 F with F the plan's level-1 frame and seeded
    special orthogonal O1, O2. lam0 + lam1 = pi/6 + delta makes the pi/6
    combination of Re/Im of M M^T nearly degenerate, and lam2 + lam3 = delta
    does the same for its real part. With quarter=True, lam0 and lam1 are
    pi/4 -+ delta/2 instead: that pair is near-degenerate in the combination
    and in Re, and exactly degenerate in Im = sin(2 lam).
    """

    def make(n, delta, seed, quarter=False):
        seq = std_seq(n)
        recursive_decompose(np.eye(n), seq)
        f = _PLANS[seq].f
        rng = np.random.default_rng(seed)
        o1 = special_ortho_group.rvs(n, random_state=rng)
        o2 = special_ortho_group.rvs(n, random_state=rng)
        lam = rng.uniform(-1.0, 1.0, n)
        lam[1] = np.pi / 6 + delta - lam[0]
        lam[3] = delta - lam[2]
        if quarter:
            lam[0], lam[1] = np.pi / 4 - delta / 2, np.pi / 4 + delta / 2
        lam[-1] = -lam[:-1].sum()
        return f.conj().T @ o1 @ np.diag(np.exp(1j * lam)) @ o2 @ f, seq

    return make


@pytest.fixture(scope="session")
def noisy_unitary():
    """A seeded Haar SU(n) element plus complex Gaussian noise of norm 1e-11..5e-10.

    ingest_unitary accepts all of these (its bound on |U U^dag - I| is
    1e-10 n). Used as given, about a quarter of them fail the level-1 split
    with "right orthogonal factor is not real".
    """

    def make(n, rng):
        u = random_special_unitary(n, rng)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        eps = 10 ** rng.uniform(-11, np.log10(5e-10))
        return u + eps * g / np.linalg.norm(g)

    return make
