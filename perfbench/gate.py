"""Seeded inputs and the correctness gate.

A factorization is rebuilt here as global_phase * prod_k expm(i angle_k G_k)
with ``scipy.linalg.expm``, independently of the library's ``reconstruct``
and ``expm_hermitian``, and compared with the input unitary.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np
import scipy.linalg

# A factorization passes when the rebuilt product is within this Frobenius
# distance of the input (the library's own acceptance bound).
MAX_ERROR = 1e-8


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random U(n) element from the QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def rebuild(global_phase: complex, factors: Iterable[Tuple[np.ndarray, float]], n: int) -> np.ndarray:
    """Ordered product of expm(i angle G) over (G, angle) pairs, times the phase."""
    total = np.eye(n, dtype=complex)
    for g, angle in factors:
        total = total @ scipy.linalg.expm(1j * angle * np.asarray(g, dtype=complex))
    return global_phase * total


def factorization_error(fact, u: np.ndarray) -> float:
    """Rebuild error of a library ``Factorization`` against ``u``."""
    pairs = ((f.generator.matrix, f.angle) for f in fact.factors)
    return float(np.linalg.norm(rebuild(fact.global_phase, pairs, u.shape[0]) - u))


def json_factorization_error(obj: dict, u: np.ndarray, generator_from_json) -> float:
    """Rebuild error of a parsed ``decompose`` artifact against ``u``."""
    re, im = obj["global_phase"]
    pairs = ((generator_from_json(f["generator"]).matrix, float(f["angle"]))
             for f in obj["factors"])
    return float(np.linalg.norm(rebuild(complex(re, im), pairs, u.shape[0]) - u))
