"""Internal numeric helpers: spans, joint diagonalization, structured factorizations.

Everything here works on plain complex ndarrays; the public modules wrap these
routines with Generator/AbelianSpace semantics.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, InvalidMatrixError

# ---------------------------------------------------------------------------
# Tolerances: every threshold the package compares against, named by what it
# guards. Each comment gives the scalings its sites use (absolute, *n for an
# n x n matrix, *max(1, |x|), or *s[0], the largest singular value). Hermitian,
# traceless and commuting each have one predicate below, accepting when below.
# ---------------------------------------------------------------------------

# Exact zeros (supports, terms, null spaces; Hermitian, traceless, commuting): abs, *n, *s[0], *max.
STRUCT_TOL = 1e-12
# A factor whose angle is below this is not emitted: absolute.
ANGLE_PRUNE_TOL = 1e-12
# Accepted inputs (unitary, diagonalized; Tr(t p)): absolute, *n, *max(1, |m|).
ACCEPT_TOL = 1e-10
# Postconditions of a numeric solve (reassembly, spans, expansions, closure, frame
# antisymmetry; the determinant phase a single-level split absorbs): abs, *n, *max.
SOLVE_TOL = 1e-9
# CLI decompose exits 0 when reconstruction_error is below this: absolute.
RECON_TOL = 1e-8
# The phase directions of a slot agree mod pi: absolute, in radians.
PHASE_TOL = 1e-7
# Eigenvalues closer than this stay in one cluster for the next matrix: *max(1, |m|).
CLUSTER_TOL = 1e-6


def dagger(m):
    return m.conj().T


def frob(m) -> float:
    return float(np.linalg.norm(m))


def _frob_each(m):
    """The Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(m) if m.ndim == 2 else np.linalg.norm(m, axis=(-2, -1))


def _below_scaled(r, m):
    """r < STRUCT_TOL max(1, |m|) for each matrix m; |m| is formed only when needed."""
    ok = r < STRUCT_TOL
    if ok if m.ndim == 2 else ok.all():
        return ok
    return ok | (r < STRUCT_TOL * _frob_each(m))


def is_hermitian(m):
    """|m - m^dag| < STRUCT_TOL max(1, |m|), for a matrix or for each matrix of a stack."""
    m = np.asarray(m)
    return _below_scaled(_frob_each(m - m.swapaxes(-1, -2).conj()), m)


def is_traceless(m):
    """|Tr m| < STRUCT_TOL max(1, |m|), for a matrix or for each matrix of a stack."""
    m = np.asarray(m)
    return _below_scaled(abs(m.trace(axis1=-2, axis2=-1)), m)


def commute(comm, a, b):
    """|[a, b]| < STRUCT_TOL max(1, |a| |b|) from the three Frobenius norms; arrays broadcast."""
    return comm < STRUCT_TOL * np.maximum(1.0, a * b)


def is_unitary(m) -> bool:
    n = m.shape[0]
    return frob(m @ dagger(m) - np.eye(n)) < ACCEPT_TOL * n


def mat_to_vec(m) -> np.ndarray:
    """Flatten a matrix into a real vector so spans become row spaces."""
    f = np.asarray(m, dtype=complex).ravel()
    return np.concatenate([f.real, f.imag])


def _rank(s) -> int:
    """How many singular values count: above SOLVE_TOL * max(1, largest)."""
    return int(np.sum(s > SOLVE_TOL * np.max(s, initial=1.0)))


def span_rows(mats) -> np.ndarray:
    """Orthonormal row basis (real coefficients) of the span of `mats`."""
    rows = np.array([mat_to_vec(m) for m in mats])
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[:_rank(s)]


def span_rank(mats) -> int:
    """span_rows(mats).shape[0], from the singular values alone."""
    return _rank(np.linalg.svd(np.array([mat_to_vec(m) for m in mats]), compute_uv=False))


def project_residual(m, basis_rows) -> float:
    """Distance of `m` from the span given by orthonormal rows, relative to |m|."""
    v = mat_to_vec(m)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    if basis_rows.shape[0] == 0:
        return 1.0
    resid = v - basis_rows.T @ (basis_rows @ v)
    return float(np.linalg.norm(resid) / nv)


MATCH_ZERO, MATCH_NONE, MATCH_OFF_LINE = -1, -2, -3


def basis_match(xs, basis, overlaps=None) -> list:
    """Index of the basis vector each x is a multiple of, from one HS-overlap product.

    xs (..., X, D) and basis (..., B, D) hold vectors (flattened matrices or
    slot forms) along the last axis; leading axes are a batch, each x matched
    against the basis of its own batch item. k when b_k alone overlaps x,
    |<b_k, x>| > SOLVE_TOL |x|, and x is within SOLVE_TOL |x| of its multiple
    of b_k. Otherwise MATCH_ZERO when |x| < SOLVE_TOL, MATCH_NONE when no or
    several b_k overlap x, and MATCH_OFF_LINE when one does but x is not a
    multiple of it. A (..., X, B) mask `overlaps` marks the only pairs that
    may overlap: slot forms on different labels are orthogonal, and a pool
    row already used is no match. Returns the (..., X) indices as (nested) lists.
    """
    xs, basis = np.asarray(xs), np.asarray(basis)
    cols = xs @ np.swapaxes(basis, -1, -2).conj()
    if overlaps is not None:
        cols = np.where(overlaps, cols, 0.0)
    norms = np.linalg.norm(xs, axis=-1)
    hits = np.abs(cols) > SOLVE_TOL * norms[..., None]
    out = np.full(norms.shape, MATCH_NONE)
    one = np.nonzero((hits.sum(axis=-1) == 1) & (norms >= SOLVE_TOL))
    k = hits[one].argmax(axis=1)
    b = basis[one[:-1] + (k,)]
    scale = cols[one + (k,)] / np.einsum("ij,ij->i", b.conj(), b)
    off = np.linalg.norm(xs[one] - scale[:, None] * b, axis=1)
    out[one] = np.where(off <= SOLVE_TOL * norms[one], k, MATCH_OFF_LINE)
    out[norms < SOLVE_TOL] = MATCH_ZERO
    return out.tolist()


def in_span(m, basis_rows) -> bool:
    return project_residual(m, basis_rows) < SOLVE_TOL


def spans_equal(mats_a, mats_b) -> bool:
    ba, bb = span_rows(mats_a), span_rows(mats_b)
    if ba.shape[0] != bb.shape[0]:
        return False
    return all(in_span(m, bb) for m in mats_a) and all(in_span(m, ba) for m in mats_b)


def span_fingerprint(mats) -> bytes:
    """Canonical bytes identifying a span (projector rounded to 9 decimals)."""
    rows = span_rows(mats)
    proj = rows.T @ rows
    rounded = np.round(proj, 9) + 0.0  # adding 0.0 clears negative zeros
    return rounded.tobytes() + bytes([rows.shape[0]])


# ---------------------------------------------------------------------------
# XOR-slot form. A matrix whose entries all sit on the slots (i, i ^ l) of one
# label l is the M-vector c[i] = m[i, i ^ l], M = 2^p >= N, zero where an index
# passes N. [label a, label b] then sits on label a ^ b.
# ---------------------------------------------------------------------------

def slot_forms(stack):
    """The XOR-slot form of each matrix of a (k, N, N) stack: (labels, c).

    labels[q] is the label of matrix q, or -1 when its entries sit on more
    than one label (a zero matrix has label 0); c is the (k, M) stack of
    entries c[q, i] = m_q[i, i ^ labels[q]]. Exact: an entry off the label's
    slots, in either triangle, must be exactly zero for a label, so each
    matrix is its form's zero-padded embedding. One vectorized pass.
    """
    stack = np.asarray(stack)
    k, n = len(stack), stack.shape[-1]
    xor = np.bitwise_xor.outer(np.arange(n), np.arange(n))
    hit = stack != 0
    labels = xor.ravel()[hit.reshape(k, n * n).argmax(axis=1)]  # the label of the first entry
    labels[(hit & (xor != labels[:, None, None])).any(axis=(1, 2))] = -1
    return labels, _slot_entries(stack, labels)


def _slot_entries(stack, labels):
    """The (k, M) entries stack[q, i, i ^ labels[q]]: zero where an index passes N
    or the label is -1."""
    n = stack.shape[-1]
    i = np.arange(1 << max(1, (n - 1).bit_length()))
    cols = i ^ np.maximum(labels, 0)[:, None]
    inside = (np.maximum(i, cols) < n) & (labels[:, None] >= 0)
    at = np.arange(len(stack))[:, None], np.minimum(i, n - 1), np.minimum(cols, n - 1)
    return np.where(inside, stack[at], 0j)


def slot_bracket(la, ca, lb, cb):
    """The slot form of [a, b] for forms (la, ca), (lb, cb) broadcast against each other.

    [a, b] sits on label la ^ lb with entries ca[i] cb[i ^ la] - cb[i] ca[i ^ lb]:
    O(M) per commutator. Labels have the leading shape, entries one more axis;
    the two leading shapes have one length.
    """
    i = np.arange(ca.shape[-1])
    return la ^ lb, (ca * np.take_along_axis(cb, i ^ la[..., None], axis=-1)
                     - cb * np.take_along_axis(ca, i ^ lb[..., None], axis=-1))


_COMMUTE_ENTRIES = 1 << 13  # commutator entries per slot_commute chunk: 128 kB
_pairs = functools.cache(lambda k: np.triu_indices(k, 1))  # the (i, j), i < j, of k items


def slot_commute(labels, c):
    """all_commute of a space given by its slot_forms, labels (k,), every one >= 0, and
    entries c (k, M); or of each space of a stack of S spaces of k generators each,
    labels (S, k) and c (S, k, M), as (S,) bools. The norm of the slot_bracket of each
    pair of generators of a space, in chunks of about _COMMUTE_ENTRIES entries."""
    if labels.ndim == 1:
        return bool(slot_commute(labels[None], c[None])[0])
    s, k, m = c.shape
    if k < 2:
        return np.ones(s, dtype=bool)
    labels, c = labels.reshape(-1), c.reshape(-1, m)
    norms = np.linalg.norm(c, axis=1)
    left, right = _pairs(k)  # [b, a] = -[a, b]: each pair once
    ok = np.ones(s, dtype=bool)
    step = max(1, _COMMUTE_ENTRIES // (len(left) * m))  # spaces per chunk
    for lo in range(0, s, step):
        first = k * np.arange(lo, min(lo + step, s))[:, None]
        a, b = (first + left).ravel(), (first + right).ravel()
        _, comm = slot_bracket(labels[a], c[a], labels[b], c[b])
        ok[a[~commute(np.linalg.norm(comm, axis=1), norms[a], norms[b])] // k] = False
    return ok


class SlotTable(NamedTuple):
    """Units in slot form, zero-padded to one generator count K."""

    labels: np.ndarray  # (U,)
    counts: np.ndarray  # (U,) generators per unit
    coef: np.ndarray  # (U, K, M) complex
    rows: np.ndarray  # (U, K, 2M) orthonormal rows of each real span, zero past its rank;
    # a coordinate pair (2i, 2i + 1) is the real and imaginary part of slot i
    ranks: np.ndarray  # (U,)


def slot_table(blocks) -> SlotTable:
    """One table of the (label, c) forms of several blocks, spans from one stacked SVD.

    A singular value counts when it exceeds SOLVE_TOL * max(1, s_max), s_max
    the largest in the unit's block. Forms on distinct labels have orthogonal
    supports, so a block of them gets the ranks whose sum span_rank of their
    union gives, and a one-form block gets its own span_rows.
    """
    forms = [form for block in blocks for form in block]
    coef = np.zeros((len(forms), max(len(c) for _, c in forms), forms[0][1].shape[1]), complex)
    for u, (_, c) in enumerate(forms):
        coef[u, : len(c)] = c
    _, s, vt = np.linalg.svd(coef.view(float), full_matrices=False)  # (re, im) interleaved
    block = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    top = np.array([s[block == b, 0].max(initial=1.0) for b in range(len(blocks))])
    keep = s > SOLVE_TOL * top[block][:, None]
    labels, counts = np.array([label for label, _ in forms]), np.array([len(c) for _, c in forms])
    return SlotTable(labels, counts, coef, vt * keep[..., None], keep.sum(axis=1))


_CHUNK_ENTRIES = 1 << 15  # commutator entries per slot_commutator_residuals chunk


def _row_norms(v):
    return np.sqrt(np.einsum("...d,...d->...", v, v))


def slot_shift(coef, labels):
    """coef[q, :, i ^ labels[q]] for each item q of a (Q, K, M) stack."""
    q, k, m = coef.shape
    return coef[np.arange(q)[:, None, None], np.arange(k)[:, None], np.arange(m) ^ labels[:, None, None]]


def slot_commutator_residuals(table: SlotTable, left, right, targets):
    """Commutator residuals against spans in slot form, per batch of unit pairs, in chunks.

    Item q commutes every generator of unit left[q] (label a) with every one
    of unit right[q] (label b): -i[x, y] sits on label a ^ b with entries
    -i (c_x[i] c_y[i ^ a] - c_y[i] c_x[i ^ b]), O(M) per commutator. Its
    residual is the smallest over the units targets[q] (a (Q, T) array, -1
    for none), each of which must sit on label a ^ b; no unit gives 1, as
    the dense projection onto a disjoint support does. Items run sorted by
    their two unit sizes kl, kr, in chunks of one size pair and about
    _CHUNK_ENTRIES commutator entries, which keeps a chunk's buffers in
    cache; each chunk yields its item indices, its (len, kl, kr) residuals
    and the norms of those commutators.
    """
    left, right, targets = (np.asarray(a, dtype=int) for a in (left, right, targets))
    on = targets >= 0
    kl, kr = table.counts[left], table.counts[right]
    kt = np.where(on, table.ranks[targets], 0).max(axis=1, initial=0)
    order = np.lexsort((kr, kl))
    m = table.coef.shape[2]
    for run in np.split(order, np.flatnonzero(np.diff(kl[order]) | np.diff(kr[order])) + 1):
        a, b = kl[run[0]], kr[run[0]]
        step = max(1, _CHUNK_ENTRIES // (a * b * m))
        work = np.empty((2, min(step, len(run)), a, b, m), complex)  # reused by every chunk
        for c in (run[lo : lo + step] for lo in range(0, len(run), step)):
            t = max(1, kt[c].max())
            x, y = -1j * table.coef[left[c], :a], table.coef[right[c], :b]
            xs, ys = slot_shift(x, table.labels[right[c]]), slot_shift(y, table.labels[left[c]])
            rows = table.rows[targets[c], :t] * on[c, :, None, None]  # (Q, T, t, 2M)
            yield (c, *_slot_residual_chunk(x, y, xs, ys, rows, work[:, : len(c)]))


def _slot_residual_chunk(x, y, xs, ys, rows, work):
    """The (Q, Kl, Kr) residuals and norms of the commutators of -i x and y, with their
    xor-shifted copies xs, ys, written through the two (Q, Kl, Kr, M) buffers of work."""
    comm = np.multiply(x[:, :, None], ys[:, None], out=work[0])  # -i [x, y]
    comm -= np.multiply(y[:, None], xs[:, :, None], out=work[1])
    # (re, im) interleaved, as the rows
    vecs, spare = (w.reshape(len(x), -1, x.shape[-1]).view(float) for w in work)
    norms = _row_norms(vecs)
    best = np.inf
    for r in np.swapaxes(rows, 0, 1):
        np.matmul(vecs @ np.swapaxes(r, 1, 2), r, out=spare)
        resid = _row_norms(np.subtract(vecs, spare, out=spare))
        best = np.minimum(best, resid / np.maximum(norms, STRUCT_TOL))
    shape = comm.shape[:3]
    return np.where(norms < STRUCT_TOL, 0.0, best).reshape(shape), norms.reshape(shape)


def all_commute(mats) -> bool:
    mats = list(mats)
    return all(commute(frob(a @ b - b @ a), frob(a), frob(b))
               for i, a in enumerate(mats) for b in mats[i + 1 :])


def joint_eigenbasis(mats):
    """Orthonormal columns that diagonalize every matrix of a commuting Hermitian family.

    eigh of the first matrix; each run of eigenvalues with gaps below
    CLUSTER_TOL (relative to the matrix norm) is then split by the next
    matrix restricted to it, and so on. A restriction that is already
    diagonal only sorts its columns: eigh of a (nearly) scalar block would
    return an arbitrary rotation and undo what earlier matrices resolved.
    Without such runs the result is eigh(mats[0]) unless mats[0] is diagonal.
    """
    n = mats[0].shape[0]
    vecs = np.eye(n, dtype=np.result_type(*mats))
    clusters = [np.arange(n)]
    for m in mats:
        scale = max(1.0, frob(m))
        refined = []
        for idx in clusters:
            if len(idx) == 1:
                refined.append(idx)
                continue
            sub = dagger(vecs[:, idx]) @ m @ vecs[:, idx]
            evals = np.real(np.diag(sub))
            if frob(sub - np.diag(evals)) > STRUCT_TOL * scale:
                evals, rot = np.linalg.eigh(sub)
            else:
                order = np.argsort(evals, kind="stable")
                evals, rot = evals[order], np.eye(len(idx))[:, order]
            vecs[:, idx] = vecs[:, idx] @ rot
            splits = np.flatnonzero(np.diff(evals) > CLUSTER_TOL * scale) + 1
            refined.extend(np.split(idx, splits))
        clusters = refined
    return vecs


def simultaneous_diagonalize(mats):
    """Unitary U (det 1) with U m U^dag diagonal for every Hermitian m.

    The caller checks that the matrices share one square shape and commute.
    The eigenbasis comes from joint_eigenbasis; columns are then ordered by the
    tuple of per-matrix eigenvalues and phase-fixed, so the result does not
    depend on the order in which clusters were split.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = mats[0].shape[0]
    if not all(map(is_hermitian, mats)):
        raise InvalidMatrixError("matrix is not Hermitian")

    vecs = joint_eigenbasis(mats)
    keys = np.array(
        [[float(np.real(dagger(vecs[:, k]) @ m @ vecs[:, k])) for m in mats] for k in range(n)]
    )
    order = sorted(range(n), key=lambda k: tuple(np.round(keys[k], 9)))
    vecs = vecs[:, order]
    for k in range(n):
        lead = int(np.argmax(np.abs(vecs[:, k])))
        vecs[:, k] = vecs[:, k] * (np.abs(vecs[lead, k]) / vecs[lead, k])
    u = dagger(vecs)
    u = u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)
    for m in mats:
        d = u @ m @ dagger(u)
        if frob(d - np.diag(np.diag(d))) > ACCEPT_TOL * max(1.0, frob(m)):
            raise DecompositionError("simultaneous diagonalization did not converge")
    return u


def complex_symmetric_eigenbasis(s):
    """Real orthogonal O and unit phases w with s = O diag(w) O^T.

    `s` must be symmetric unitary; its real and imaginary parts are commuting
    real symmetric matrices. A diagonal `s` keeps O = I; otherwise a fixed
    combination of the two parts is diagonalized first and its clusters are
    split by the parts themselves.
    """
    n = s.shape[0]
    o = np.eye(n)
    if frob(s - np.diag(np.diag(s))) >= STRUCT_TOL * n:
        re, im = np.real(s), np.imag(s)
        o = joint_eigenbasis([np.cos(np.pi / 6) * re + np.sin(np.pi / 6) * im, re, im])
    d = o.T @ s @ o
    if frob(d - np.diag(np.diag(d))) > SOLVE_TOL * n:
        raise DecompositionError("joint eigenbasis did not diagonalize the symmetric unitary")
    w = np.diag(d)
    return o, w / np.abs(w)


def expm_hermitian(h, scale=1.0):
    """exp(1j * scale * h) through the eigendecomposition of Hermitian h (or of a stack)."""
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * scale * evals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def random_special_unitary(n, rng):
    """Haar-distributed SU(n) element from a complex Ginibre QR."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)


# ---------------------------------------------------------------------------
# Cosine-sine decomposition in per-slot rotation form.
# ---------------------------------------------------------------------------

def rotation_middle(n, p, thetas):
    """Middle CS factor: rotation by thetas[m] in the (m, p+m) plane.

    Leading axes of thetas give a stack of middle factors.
    """
    thetas = np.asarray(thetas, dtype=float)
    r = np.zeros(thetas.shape[:-1] + (n * n,))
    r[..., :: n + 1] = 1.0
    c, s = np.cos(thetas), np.sin(thetas)
    # Flat positions of the entries (m, m), (p+m, p+m), (m, p+m) and (p+m, m).
    at = np.arange(thetas.shape[-1]) * (n + 1) + np.array([[0], [p * (n + 1)], [p], [p * n]])
    r[..., at.ravel()] = np.concatenate([c, c, -s, s], axis=-1)
    return r.reshape(thetas.shape[:-1] + (n, n))


# The cosines at which the CS step may switch SVDs: cos(pi/3) and cos(pi/6).
# Pairs below the split read their vectors from the SVD of X11 (small cosines
# are well separated there), the rest from the SVD of X21. The split sits in
# the widest gap of the cosines clipped to this window, so no cluster of equal
# cosines is cut, and every divisor c or s in _cs_two_svd is at least 1/2.
_CS_SPLIT = (0.5, math.sqrt(0.75))


def cs_decompose_so(x, p, q):
    """CS decomposition of special orthogonal x under the (p, q) row partition.

    Returns (u1, u2, thetas, v1, v2) with

        x = blockdiag(u1, u2) @ rotation_middle(p + q, p, thetas) @ blockdiag(v1, v2)

    where thetas has min(p, q) entries and all four blocks are special
    orthogonal. x may also be a (B, p + q, p + q) stack: every output then
    gains that leading axis, item b is bit for bit what x[b] alone gives, and
    a failing item raises the message it would raise alone.

    The pairs come from two stacked SVDs (_cs_two_svd) in order of descending
    theta, each in [0, pi/2] before the determinant moves. The gauge is a rule
    on the output, so the step is continuous in x wherever the thetas are
    distinct and nonzero:

    - the largest-magnitude entry of each paired v1 row is positive (on a tie
      between a positive and a negative entry, the positive one);
    - the unpaired rows of v1 (p > q), or the unpaired columns of u2 (p < q),
      are the orthonormal basis of their span whose last |p - q| entries form
      an upper triangular block with a non-negative diagonal;
    - _fix_determinants then moves pair 0 alone, by the determinant signs.
    """
    n = p + q
    x = np.asarray(x)
    stack = x.reshape(-1, n, n)
    if np.iscomplexobj(stack):
        if np.any(np.linalg.norm(np.imag(stack), axis=(1, 2)) > SOLVE_TOL):
            raise InvalidMatrixError("cs_decompose_so requires a real orthogonal matrix")
        stack = np.real(stack)
    if not np.isfinite(stack).all():
        raise InvalidMatrixError("cs_decompose_so requires a finite matrix")
    if min(p, q) == 0:
        u1, u2 = (stack.copy() if k else np.zeros((len(stack), 0, 0)) for k in (p, q))
        v1, v2 = (np.tile(np.eye(k), (len(stack), 1, 1)) for k in (p, q))
        thetas = np.zeros((len(stack), 0))
    else:
        u1, u2, thetas, v1, v2 = _cs_two_svd(stack, p)

    u1, u2, thetas, v1, v2 = _fix_determinants(u1, u2, thetas, v1, v2)
    mid = rotation_middle(n, p, thetas)
    full = np.concatenate([u1 @ mid[:, :p], u2 @ mid[:, p:]], axis=1)
    full = np.concatenate([full[:, :, :p] @ v1, full[:, :, p:] @ v2], axis=2)
    if np.any(np.linalg.norm(full - stack, axis=(1, 2)) > SOLVE_TOL):
        raise DecompositionError("cosine-sine reassembly failed")
    out = u1, u2, thetas, v1, v2
    return tuple(a[0] for a in out) if x.ndim == 2 else out


def _cs_two_svd(x, p):
    """The CS blocks of a real (B, n, n) stack split at p, before the determinant moves.

    The two-SVD method (Stewart, Numer. Math. 40, 1982; Van Loan, Numer. Math.
    46, 1985). Pair m < r = min(p, n - p) has the m-th smallest cosine of X11,
    which is the m-th largest sine of X21. Its v1 row comes from the SVD that
    resolves it (see _CS_SPLIT). Rows from the two SVDs are orthogonal to
    within about eps / g, where g >= (sqrt(3) - 1) / (2 (r + 1)) is the gap at
    the split, so v1 is not re-orthonormalized. A u1 column is X11 v / c, and
    a paired u2 column X21 v / s, where that divisor is at least 1/2; the other
    is the left vector of the SVD the row came from. v2 = C u2^T X22 -
    S u1^T X12, the second block row of R^T K1^T x.
    """
    b, n = x.shape[:2]
    first, x12, x22 = x[:, :, :p], x[:, :p, p:], x[:, p:, p:]
    if 2 * p == n:  # one SVD call for both blocks
        a, sv, v = np.linalg.svd(first.reshape(b, 2, p, p))
        a1, a2, c, s, b1, b2 = a[:, 0], a[:, 1], sv[:, 0], sv[:, 1], v[:, 0], v[:, 1]
    else:  # full matrices: the unpaired vectors span the null spaces
        (a1, c, b1), (a2, s, b2) = np.linalg.svd(first[:, :p]), np.linalg.svd(first[:, p:])
    a1, c, b1 = a1[:, :, ::-1], c[:, ::-1], b1[:, ::-1]  # ascending cosines
    r = s.shape[1]
    lo, hi = _CS_SPLIT
    edges = np.empty((b, r + 2))
    edges[:, 0], edges[:, -1] = lo, hi
    np.minimum(np.maximum(c[:, :r], lo), hi, out=edges[:, 1:-1])
    split = np.argmax(edges[:, 1:] - edges[:, :-1], axis=1)
    small = np.arange(p) < split[:, None]  # rows read from X11's SVD; never an unpaired one

    v1 = np.where(small[:, :, None], b1, b2)
    sign = np.copysign(1.0, v1.max(axis=2) + v1.min(axis=2))
    v1 *= sign[:, :, None]
    if p > r:  # the unpaired rows get their own rule
        v1[:, r:] = _triangular_rows(v1[:, r:])
    y = first @ np.swapaxes(v1, 1, 2)  # [c u1; s u2] column by column
    # The floors change only columns that np.where replaces.
    u1 = np.where(small[:, None, :], a1 * sign[:, None, :],
                  y[:, :p] / np.maximum(c, lo)[:, None, :])
    u2 = np.where(small[:, None, :r], y[:, p:, :r] / np.maximum(s, lo)[:, None, :],
                  a2[:, :, :r] * sign[:, None, :r])
    if n - p > r:
        unpaired = np.swapaxes(_triangular_rows(np.swapaxes(a2[:, :, r:], 1, 2)), 1, 2)
        u2 = np.concatenate([u2, unpaired], axis=2)
    # math.atan2, not np.arctan2: NumPy's SIMD loop can differ in the last bit
    # with the array's length and layout, and item b must not depend on B.
    thetas = np.reshape(list(map(math.atan2, s.ravel().tolist(), c[:, :r].ravel().tolist())),
                        s.shape)
    v2 = np.swapaxes(u2, 1, 2) @ x22
    v2[:, :r] = c[:, :r, None] * v2[:, :r] - s[:, :, None] * (np.swapaxes(u1[:, :, :r], 1, 2) @ x12)
    return u1, u2, thetas, v1, v2


def _triangular_rows(w):
    """The orthonormal rows w (B, k, m) turned, within their span, into the basis
    whose last k columns are upper triangular with a non-negative diagonal (one
    basis where that block is invertible)."""
    qm, rm = np.linalg.qr(w[:, :, -w.shape[1]:])
    sign = np.where(np.diagonal(rm, axis1=1, axis2=2) < 0, -1.0, 1.0)
    return sign[:, :, None] * (np.swapaxes(qm, 1, 2) @ w)


def _fix_determinants(u1, u2, thetas, v1, v2):
    """Flip sign gauges on the first CS pair until all four blocks have det +1.

    Each move negates the first column/row of two blocks and keeps the
    product fixed: (u1, v1) and (u2, v2) negate theta_0, (v1, v2) shifts it by
    pi. After the first two moves det v1 = det v2 because det x = +1, so the
    third move finishes the job. The blocks may be stacks with thetas of shape
    (B, r); each move then acts on the items that need it. A move flips the
    signs of two determinants, so the signs are read once, by one det call
    per block size, and tracked through the moves.
    """
    single = u1.ndim == 2
    if single:
        u1, u2, v1, v2 = (b[None] for b in (u1, u2, v1, v2))
    thetas = np.array(thetas, dtype=float, ndmin=2)
    pairs = [[u1, v1], [u2, v2]] if u1.shape != u2.shape else [[u1, v1, u2, v2]]
    neg = np.concatenate([np.linalg.det(np.concatenate(blocks)) < 0 for blocks in pairs])
    neg_u1, neg_v1, neg_u2, neg_v2 = neg = neg.reshape(4, len(u1))
    neg_v1 ^= neg_u1  # after the first two moves
    neg_v2 ^= neg_u2
    if thetas.shape[1] == 0:
        if (neg_u1 | neg_u2 | neg_v1).any():
            raise DecompositionError("cannot fix determinants without a CS pair")
    else:  # a sign of -1 applies a move, +1 leaves the entry's bits as they are
        sign_u1, sign_v, sign_u2, _ = np.where(neg, -1.0, 1.0)
        u1[:, :, 0] *= sign_u1[:, None]
        u2[:, :, 0] *= sign_u2[:, None]
        v1[:, 0] *= (sign_u1 * sign_v)[:, None]
        v2[:, 0] *= (sign_u2 * sign_v)[:, None]
        theta0 = thetas[:, 0] * (sign_u1 * sign_u2)
        thetas[:, 0] = np.where(neg_v1, theta0 + np.where(theta0 > 0, -np.pi, np.pi), theta0)
    if (neg_v2 != neg_v1).any():  # the third move flipped v2 where v1 was negative
        raise DecompositionError("determinant normalization of CS blocks failed")
    out = u1, u2, thetas, v1, v2
    return tuple(a[0] for a in out) if single else out
