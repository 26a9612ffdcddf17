"""Basis generators of su(N): the lambda representation and tensor-product words.

A generator carries a symbolic label plus its dense N x N Hermitian traceless
matrix. Off-diagonal lambda generators act like sigma_1 / sigma_2 in the two
dimensions named by their subscripts; d generators are the +1/-1 diagonal
pairs. Tensor words are Kronecker products of single-site symbols (Pauli for
dimension-2 sites, Gell-Mann for dimension-3 sites, lambda-basis symbols for
any other prime site dimension).

Subscripts are 1-based and normalized to i < j; the sign conventions
lambda_ij = lambda_ji, lambdahat_kl = -lambdahat_lk and d_kl = -d_lk are
applied on construction.
"""

from __future__ import annotations

import functools
import re
from dataclasses import astuple, dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from ._linalg import STRUCT_TOL, is_hermitian, is_traceless
from .errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidSubscriptError,
    UnsupportedLabelError,
)

__all__ = [
    "Lambda",
    "LambdaHat",
    "Diag",
    "OrthoDiag",
    "TensorWord",
    "Generator",
    "CommutatorResult",
    "make_lambda",
    "make_lambda_hat",
    "make_diag",
    "make_ortho_diag",
    "make_tensor_word",
    "commutator_numeric",
    "commutator_symbolic",
    "hs_inner",
    "to_lambda_basis",
    "parse_label",
    "site_factors",
    "standard_sites",
]


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lambda:
    i: int
    j: int

    def __str__(self):
        return f"lambda({self.i},{self.j})"


@dataclass(frozen=True)
class LambdaHat:
    i: int
    j: int

    def __str__(self):
        return f"lambdahat({self.i},{self.j})"


@dataclass(frozen=True)
class Diag:
    k: int
    l: int

    def __str__(self):
        return f"d({self.k},{self.l})"


@dataclass(frozen=True)
class OrthoDiag:
    """Orthonormalized diagonal basis element sqrt(2/(l(l-1))) sum_i d_il."""

    l: int

    def __str__(self):
        return f"orthod({self.l})"


@dataclass(frozen=True)
class TensorWord:
    sites: Tuple[str, ...]

    def __str__(self):
        return "tensor:" + ",".join(self.sites)


Label = Union[Lambda, LambdaHat, Diag, OrthoDiag, TensorWord]

_LABEL_RE = re.compile(r"^(lambda|lambdahat|d)\((\d+),(\d+)\)$")
_ORTHO_RE = re.compile(r"^orthod\((\d+)\)$")
_SITE_SEP = re.compile(r",(?![^(]*\))")  # a comma outside parentheses, as in d5(1,2),p1


def parse_label(text: str) -> Label:
    """Parse the serialized label grammar back into a label object."""
    m = _LABEL_RE.match(text)
    if m:
        kind, i, j = m.group(1), int(m.group(2)), int(m.group(3))
        cls = {"lambda": Lambda, "lambdahat": LambdaHat, "d": Diag}[kind]
        return cls(i, j)
    m = _ORTHO_RE.match(text)
    if m:
        return OrthoDiag(int(m.group(1)))
    if text.startswith("tensor:"):
        return TensorWord(tuple(_SITE_SEP.split(text[len("tensor:"):])))
    raise UnsupportedLabelError(f"cannot parse generator label {text!r}")


# ---------------------------------------------------------------------------
# Site symbols for tensor words
# ---------------------------------------------------------------------------

def _pauli(idx: int) -> np.ndarray:
    return [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ][idx]


def _lambda_matrix(i: int, j: int, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = 1.0
    m[j - 1, i - 1] = 1.0
    return m


def _lambda_hat_matrix(i: int, j: int, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = -1j
    m[j - 1, i - 1] = 1j
    return m


def _diag_matrix(k: int, l: int, n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[k - 1, k - 1] = 1.0
    m[l - 1, l - 1] = -1.0
    return m


def _gell_mann(idx: int) -> np.ndarray:
    """mu_1..mu_8 in the paper's numbering; index 0 is the identity."""
    if idx == 0:
        return np.eye(3, dtype=complex)
    table = {
        1: _lambda_matrix(1, 2, 3),
        2: _lambda_hat_matrix(1, 2, 3),
        3: _diag_matrix(1, 2, 3),
        4: _lambda_matrix(1, 3, 3),
        5: _lambda_hat_matrix(1, 3, 3),
        6: _lambda_matrix(2, 3, 3),
        7: _lambda_hat_matrix(2, 3, 3),
        8: (_diag_matrix(1, 3, 3) + _diag_matrix(2, 3, 3)) / np.sqrt(3.0),
    }
    return table[idx]


_SITE_RE = re.compile(r"^(l|lh|d)(\d+)\((\d+),(\d+)\)$")


def site_factors(symbol: str) -> Tuple[int, np.ndarray]:
    """(site dimension, site matrix) for one tensor-word site symbol.

    Grammar: p0..p3 (Pauli, dimension 2), g0..g8 (Gell-Mann, dimension 3),
    i<d> (identity), and l<d>(i,j) / lh<d>(i,j) / d<d>(k,l) for lambda-basis
    symbols of any other site dimension.
    """
    if re.fullmatch(r"p[0-3]", symbol):
        return 2, _pauli(int(symbol[1]))
    if re.fullmatch(r"g[0-8]", symbol):
        return 3, _gell_mann(int(symbol[1]))
    m = re.fullmatch(r"i(\d+)", symbol)
    if m:
        d = int(m.group(1))
        if d < 2:
            raise UnsupportedLabelError(f"site dimension must be at least 2: {symbol!r}")
        return d, np.eye(d, dtype=complex)
    m = _SITE_RE.match(symbol)
    if m:
        kind, d, i, j = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
        if not (1 <= i < j <= d):
            raise InvalidSubscriptError(f"site subscripts out of range in {symbol!r}")
        builder = {"l": _lambda_matrix, "lh": _lambda_hat_matrix, "d": _diag_matrix}[kind]
        return d, builder(i, j, d)
    raise UnsupportedLabelError(f"unknown site symbol {symbol!r}")


def _site_is_identity(symbol: str) -> bool:
    return symbol in ("p0", "g0") or re.fullmatch(r"i\d+", symbol) is not None


def standard_sites(n: int) -> List[int]:
    """Site dimensions for dimension n: prime factors in decreasing order.

    Matches the representation the construction figures use (e.g. a 3x2
    system for dimension 6). A prime n is a single site.
    """
    if n < 2:
        raise InvalidSubscriptError("dimension must be at least 2")
    sites, rest, f = [], n, 2
    while f * f <= rest:
        while rest % f == 0:
            sites.append(f)
            rest //= f
        f += 1
    if rest > 1:
        sites.append(rest)
    return sorted(sites, reverse=True)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Generator:
    """One su(N) basis element: symbolic label plus its Hermitian matrix."""

    label: Union[Label, None]
    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match dim {self.dim}"
            )
        _require(is_hermitian(m), is_traceless(m))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @functools.cached_property  # the label is frozen; serializing a factorization reads it per factor
    def label_str(self) -> Union[str, None]:
        return None if self.label is None else str(self.label)

    def __repr__(self):
        name = self.label_str or "<matrix>"
        return f"Generator({name}, dim={self.dim})"


def _require(hermitian, traceless):
    """Generator's message for a matrix that is not Hermitian or not traceless."""
    if not hermitian:
        raise InvalidMatrixError("generator matrix is not Hermitian")
    if not traceless:
        raise InvalidMatrixError("generator matrix is not traceless")


def generators_of_stack(labels, stack) -> List[Generator]:
    """One Generator per label and matrix of a (k, N, N) stack. Generator's checks run
    once per chunk of about 2^13 entries (128 kB, so the temporaries stay small), not
    per matrix, and the first matrix that fails raises what Generator would raise for it."""
    stack = np.asarray(stack, dtype=complex)
    step = max(1, (1 << 13) // stack[0].size)
    for chunk in (stack[lo : lo + step] for lo in range(0, len(stack), step)):
        hermitian, traceless = is_hermitian(chunk), is_traceless(chunk)
        bad = np.flatnonzero(~(hermitian & traceless))
        if len(bad):
            _require(hermitian[bad[0]], traceless[bad[0]])
    stack.setflags(write=False)
    out = []
    for label, m in zip(labels, stack):
        g = object.__new__(Generator)
        g.__dict__.update(label=label, dim=len(m), matrix=m)
        out.append(g)
    return out


def _check_subscripts(i: int, j: int, n: int):
    if i == j:
        raise InvalidSubscriptError(f"subscripts coincide: ({i},{j})")
    if not (1 <= i <= n and 1 <= j <= n):
        raise InvalidSubscriptError(f"subscripts ({i},{j}) out of range for dim {n}")


def make_lambda(i: int, j: int, n: int) -> Generator:
    """lambda_ij: entries 1 at (i,j) and (j,i); symmetric in its subscripts."""
    _check_subscripts(i, j, n)
    i, j = min(i, j), max(i, j)
    return Generator(Lambda(i, j), n, _lambda_matrix(i, j, n))


def make_lambda_hat(i: int, j: int, n: int) -> Generator:
    """lambdahat_ij: entries -i at (i,j), +i at (j,i); antisymmetric in subscripts."""
    _check_subscripts(i, j, n)
    if i > j:
        raise InvalidSubscriptError(
            f"lambdahat({i},{j}) is -lambdahat({j},{i}); only i < j is in actual use"
        )
    return Generator(LambdaHat(i, j), n, _lambda_hat_matrix(i, j, n))


def make_diag(k: int, l: int, n: int) -> Generator:
    """d_kl: +1 at (k,k), -1 at (l,l); antisymmetric in subscripts."""
    _check_subscripts(k, l, n)
    if k > l:
        raise InvalidSubscriptError(
            f"d({k},{l}) is -d({l},{k}); only k < l is in actual use"
        )
    return Generator(Diag(k, l), n, _diag_matrix(k, l, n))


def make_ortho_diag(l: int, n: int) -> Generator:
    """Orthonormalized diagonal element sqrt(2/(l(l-1))) sum_{i<l} d_il."""
    if not (2 <= l <= n):
        raise InvalidSubscriptError(f"orthod({l}) out of range for dim {n}")
    m = sum(_diag_matrix(i, l, n) for i in range(1, l))
    m = m * np.sqrt(2.0 / (l * (l - 1)))
    return Generator(OrthoDiag(l), n, m)


def word_matrices(sites: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """Every Kronecker product of one matrix per site, as one (K, D, D) stack.

    sites[s] holds the candidate matrices of site s; the product runs in
    itertools.product order (the last site varies fastest). One batched outer
    product per site, with np.kron's operand order, so each matrix is bit for
    bit the np.kron chain of its factors.
    """
    out = np.ones((1, 1, 1), dtype=complex)
    for mats in sites:
        mats = np.asarray(mats)
        k, d, s, e = len(out), out.shape[1], len(mats), mats.shape[1]
        out = out[:, None, :, None, :, None] * mats[None, :, None, :, None, :]
        out = out.reshape(k * s, d * e, d * e)
    return out


def make_tensor_word(symbols: Sequence[str]) -> Generator:
    """Kronecker product of site symbols; rejects the all-identity word."""
    symbols = tuple(symbols)
    if not symbols:
        raise UnsupportedLabelError("empty tensor word")
    matrix = word_matrices([[site_factors(sym)[1]] for sym in symbols])[0]
    if not is_traceless(matrix):
        raise InvalidMatrixError(
            "tensor word is not traceless (every site is identity-like)"
        )
    return Generator(TensorWord(symbols), len(matrix), matrix)


def generator_from_label(label: Union[str, Label], dim: int) -> Generator:
    """Rebuild a Generator from a label (used by deserialization)."""
    if isinstance(label, str):
        label = parse_label(label)
    if isinstance(label, Lambda):
        return make_lambda(label.i, label.j, dim)
    if isinstance(label, LambdaHat):
        return make_lambda_hat(label.i, label.j, dim)
    if isinstance(label, Diag):
        return make_diag(label.k, label.l, dim)
    if isinstance(label, OrthoDiag):
        return make_ortho_diag(label.l, dim)
    if isinstance(label, TensorWord):
        gen = make_tensor_word(label.sites)
        if gen.dim != dim:
            raise DimensionMismatchError(
                f"tensor word has dim {gen.dim}, expected {dim}"
            )
        return gen
    raise UnsupportedLabelError(f"unknown label {label!r}")


def word_site_count(gen: Generator) -> int:
    """Number of non-identity sites of a tensor-word generator."""
    if not isinstance(gen.label, TensorWord):
        raise UnsupportedLabelError("generator does not carry a tensor word")
    return sum(0 if _site_is_identity(s) else 1 for s in gen.label.sites)


# ---------------------------------------------------------------------------
# Commutators and traces
# ---------------------------------------------------------------------------

def commutator_numeric(a: Generator, b: Generator) -> np.ndarray:
    """[a, b] = ab - ba as a dense matrix; anti-Hermitian and traceless."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def hs_inner(a: Generator, b: Generator) -> float:
    """Trace inner product Tr(a b); real for Hermitian inputs."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    return float(np.real(np.trace(a.matrix @ b.matrix)))


@dataclass(frozen=True)
class CommutatorResult:
    """Closed-form commutator: list of (coefficient, label) terms."""

    terms: Tuple[Tuple[complex, Label], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def matrix(self, dim: int) -> np.ndarray:
        total = np.zeros((dim, dim), dtype=complex)
        for coef, label in self.terms:
            total = total + coef * generator_from_label(label, dim).matrix
        return total


_BUILDERS = {Lambda: _lambda_matrix, LambdaHat: _lambda_hat_matrix, Diag: _diag_matrix}


def commutator_symbolic(a: Union[Generator, Label], b: Union[Generator, Label]) -> CommutatorResult:
    """Closed-form commutator of two lambda-basis labels.

    Accepts Lambda, LambdaHat and Diag labels (or generators carrying them),
    with distinct positive subscripts in either order. Their commutator is
    zero or one term, so it is formed exactly on the at most four subscripts
    involved and read off. Agrees with commutator_numeric entrywise.
    """
    pair = [x.label if isinstance(x, Generator) else x for x in (a, b)]
    for lab in pair:
        if not isinstance(lab, (Lambda, LambdaHat, Diag)):
            raise UnsupportedLabelError(f"not a lambda-basis label: {lab!r}")
        if len(set(astuple(lab))) == 1 or min(astuple(lab)) < 1:
            raise InvalidSubscriptError(f"{lab} needs two distinct positive subscripts")
    involved = sorted(set(astuple(pair[0]) + astuple(pair[1])))
    ma, mb = (_BUILDERS[type(lab)](*(involved.index(k) + 1 for k in astuple(lab)), len(involved))
              for lab in pair)
    c = ma @ mb - mb @ ma
    rows, cols = np.nonzero(c)
    if not len(rows):
        return CommutatorResult(())
    # The term's first entry: c[i, i] = coef for d_ij, else c[i, j] = coef for
    # lambda_ij (imaginary) or -1j coef for lambdahat_ij (real).
    r, s = rows[0], cols[0]
    x = c[r, s]
    kind = Diag if r == s else Lambda if x.real == 0 else LambdaHat
    coef = complex(0.0, x.real if kind is LambdaHat else x.imag)
    return CommutatorResult(((coef, kind(involved[r], involved[rows[1] if r == s else s])),))


# ---------------------------------------------------------------------------
# Lambda-basis expansion
# ---------------------------------------------------------------------------

def to_lambda_basis(m: np.ndarray) -> List[Tuple[float, Label]]:
    """Expand a Hermitian traceless matrix over {lambda_ij, lambdahat_ij, d_1l}.

    The expansion is exact: off-diagonal entries give the lambda/lambdahat
    coefficients directly and the diagonal solves the triangular d_1l system.
    Terms whose coefficient is not above STRUCT_TOL are left out.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise InvalidMatrixError("matrix is not square")
    if not is_hermitian(m):
        raise InvalidMatrixError("matrix is not Hermitian")
    if not is_traceless(m):
        raise InvalidMatrixError("matrix is not traceless")
    terms: List[Tuple[float, Label]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entry = m[i - 1, j - 1]
            if abs(entry.real) > STRUCT_TOL:
                terms.append((float(entry.real), Lambda(i, j)))
            if abs(entry.imag) > STRUCT_TOL:
                terms.append((float(-entry.imag), LambdaHat(i, j)))
    # d_1l has diagonal (+1 at 1, -1 at l): coefficient of d_1l is -m[l-1,l-1].
    for l in range(2, n + 1):
        c = -float(np.real(m[l - 1, l - 1]))
        if abs(c) > STRUCT_TOL:
            terms.append((c, Diag(1, l)))
    return terms
