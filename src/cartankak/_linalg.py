"""Internal numeric helpers: spans, joint diagonalization, structured factorizations.

Everything here works on plain complex ndarrays; the public modules wrap these
routines with Generator/AbelianSpace semantics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, InvalidMatrixError

# ---------------------------------------------------------------------------
# Tolerances: every threshold the package compares against, named by what it
# guards. Each comment gives the scalings its sites use (absolute, *n for an
# n x n matrix, *max(1, |x|), or *s[0], the largest singular value). Sites keep
# their own scaling and their own < or <=; a name fixes only the value.
# ---------------------------------------------------------------------------

# Exact zeros (traces, supports, expansion terms, null spaces): absolute, *n, *max(1, |m|), *s[0].
STRUCT_TOL = 1e-12
# A factor whose angle is below this is not emitted: absolute.
ANGLE_PRUNE_TOL = 1e-12
# Accepted inputs (unitary, Hermitian, traceless, commuting, diagonalized; Tr(t p)): abs, *n, *max.
ACCEPT_TOL = 1e-10
# Postconditions of a numeric solve (reassembly, spans, expansions, closure, frame
# antisymmetry): abs, *n, *max.
SOLVE_TOL = 1e-9
# kak_single_level's input has determinant 1: absolute.
DET_TOL = 1e-8
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


def is_hermitian(m, tol=STRUCT_TOL) -> bool:
    return frob(m - dagger(m)) < tol * max(1.0, frob(m))


def is_unitary(m, tol=ACCEPT_TOL) -> bool:
    n = m.shape[0]
    return frob(m @ dagger(m) - np.eye(n)) < tol * n


def commutator(a, b):
    return a @ b - b @ a


def mat_to_vec(m) -> np.ndarray:
    """Flatten a matrix into a real vector so spans become row spaces."""
    f = np.asarray(m, dtype=complex).ravel()
    return np.concatenate([f.real, f.imag])


def _rank(s) -> int:
    """How many singular values count: above SOLVE_TOL * max(1, largest)."""
    return int(np.sum(s > SOLVE_TOL * np.max(s, initial=1.0)))


def span_rows(mats) -> np.ndarray:
    """Orthonormal row basis (real coefficients) of the span of `mats`."""
    mats = list(mats)
    if not mats:
        return np.zeros((0, 0))
    rows = np.array([mat_to_vec(m) for m in mats])
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[:_rank(s)]


def span_rank(mats) -> int:
    """span_rows(mats).shape[0], from the singular values alone."""
    mats = list(mats)
    if not mats:
        return 0
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


def commutator_residuals(left, right, rows) -> np.ndarray:
    """project_residual(-1j [a, b], rows) for every a in left (axis 0), b in right (axis 1).

    [Hermitian, Hermitian] is i times a Hermitian matrix and spans use real
    coefficients, hence the -1j. An entry is 0 where |[a, b]| < STRUCT_TOL.
    The right operand is stacked and the left one looped over: a full
    left x right stack of commutators is ~75 MB for p x p at N=16 and grows
    as N^6.
    """
    stack = np.asarray(right, dtype=complex)
    out = np.zeros((len(left), len(stack)))
    for i, a in enumerate(left):
        flat = (-1j * (a @ stack - stack @ a)).reshape(len(stack), -1)
        vecs = np.concatenate([flat.real, flat.imag], axis=1)
        norms = np.linalg.norm(vecs, axis=1)
        resid = np.linalg.norm(vecs - (vecs @ rows.T) @ rows, axis=1)
        out[i] = np.where(norms < STRUCT_TOL, 0.0, resid / np.maximum(norms, STRUCT_TOL))
    return out


MATCH_ZERO, MATCH_NONE, MATCH_OFF_LINE = -1, -2, -3


def basis_match(xs, basis) -> list:
    """Index of the basis matrix each x is a multiple of, from one HS-overlap product.

    k when b_k alone overlaps x, |Tr(b_k^dag x)| > SOLVE_TOL |x|, and x is
    within SOLVE_TOL |x| of its multiple of b_k. Otherwise MATCH_ZERO when
    |x| < SOLVE_TOL, MATCH_NONE when no or several b_k overlap x, and
    MATCH_OFF_LINE when one does but x is not a multiple of it.
    """
    basis = np.asarray(basis).reshape(len(basis), -1)
    xs = np.asarray(xs).reshape(len(xs), -1)
    out = []
    for x, col in zip(xs, (basis @ xs.conj().T).conj().T):
        norm = np.linalg.norm(x)
        hits = np.flatnonzero(np.abs(col) > SOLVE_TOL * norm)
        if norm < SOLVE_TOL or len(hits) != 1:
            out.append(MATCH_ZERO if norm < SOLVE_TOL else MATCH_NONE)
            continue
        k, b = int(hits[0]), basis[hits[0]]
        off = np.linalg.norm(x - col[k] / np.vdot(b, b) * b)
        out.append(k if off <= SOLVE_TOL * norm else MATCH_OFF_LINE)
    return out


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


def slot_support(mats, tol):
    """Where a stack of matrices is non-zero: (slots, diagonal).

    slots are the sorted 0-based (i, j), i < j, at which some matrix has a
    real or imaginary part above tol; diagonal says whether some diagonal
    entry does. For lambda-basis expansions, a slot is one lambda_ij or
    lambdahat_ij subscript pair and the diagonal is the d part.
    """
    stack = np.asarray(mats)
    hit = ((np.abs(stack.real) > tol) | (np.abs(stack.imag) > tol)).any(axis=0)
    rows, cols = np.nonzero(np.triu(hit, 1))
    return tuple(zip(rows.tolist(), cols.tolist())), bool(np.diagonal(hit).any())


# ---------------------------------------------------------------------------
# XOR-slot form. A stack whose entries all sit on the slots (i, i ^ l) of one
# label l is the (k, M) stack c[k, i] = m_k[i, i ^ l], M = 2^p >= N, zero where
# an index passes N. [label a, label b] then sits on label a ^ b.
# ---------------------------------------------------------------------------

def slot_form(mats):
    """(label, c) for a stack on the slots of one label (0: the diagonal), else None.

    Exact: every entry off the label's slots must be exactly zero, in either
    triangle, so the dense matrices are the form's zero-padded embedding.
    """
    stack = np.asarray(mats)
    n = stack.shape[-1]
    weight = np.abs(stack).sum(axis=0)  # zero exactly where every matrix is
    slots, diagonal = slot_support([weight + weight.T], 0.0)
    labels = {i ^ j for i, j in slots} | ({0} if diagonal else set())
    if len(labels) != 1:
        return None
    label, size = labels.pop(), 1 << max(1, (n - 1).bit_length())
    i = np.arange(size)
    inside = np.maximum(i, i ^ label) < n
    c = np.zeros((len(stack), size), dtype=complex)
    c[:, inside] = stack[:, i[inside], i[inside] ^ label]
    return label, c


def slot_groups(forms):
    """The forms merged by label, in label order: the spans they add up to per label."""
    groups: dict = {}
    for label, c in forms:
        groups.setdefault(label, []).append(c)
    return [(label, np.concatenate(cs)) for label, cs in sorted(groups.items())]


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


def _row_norms(v):
    return np.sqrt(np.einsum("...d,...d->...", v, v))


def slot_shift(coef, labels):
    """coef[q, :, i ^ labels[q]] for each item q of a (Q, K, M) stack."""
    q, k, m = coef.shape
    return coef[np.arange(q)[:, None, None], np.arange(k)[:, None], np.arange(m) ^ labels[:, None, None]]


def slot_commutator_residuals(table: SlotTable, left, right, targets) -> np.ndarray:
    """commutator_residuals in slot form, for a batch of unit pairs.

    Item q commutes every generator of unit left[q] (label a) with every one
    of unit right[q] (label b): -i[x, y] sits on label a ^ b with entries
    -i (c_x[i] c_y[i ^ a] - c_y[i] c_x[i ^ b]), O(M) per commutator. Its
    residual is the smallest over the units u with targets[q, u] (a (Q, U)
    mask); a unit on another label gives 1, as the dense projection of a
    disjoint support does, and so does no unit. Returns (Q, K, K) for the
    table's unit size K; padding entries are 0. Items run sorted by their
    two unit sizes, in chunks of one size pair and about 2^14 commutator
    entries.
    """
    left, right = np.asarray(left, dtype=int), np.asarray(right, dtype=int)
    hits = np.asarray(targets) & (table.labels == (table.labels[left] ^ table.labels[right])[:, None])
    width = max(1, hits.sum(axis=1).max(initial=0))
    units = np.argsort(~hits, axis=1, kind="stable")[:, :width]  # the hits first
    on = np.take_along_axis(hits, units, axis=1)
    kl, kr = table.counts[left], table.counts[right]
    kt = np.where(on, table.ranks[units], 0).max(axis=1)
    order = np.lexsort((kr, kl))
    _, k, m = table.coef.shape
    out = np.zeros((len(left), k, k))
    chunk = np.cumsum(kl[order] * kr[order] * m) >> 14
    cuts = (np.diff(chunk) != 0) | (np.diff(kl[order]) != 0) | (np.diff(kr[order]) != 0)
    for c in np.split(order, np.flatnonzero(cuts) + 1):
        a, b, t = kl[c[0]], kr[c[0]], max(1, kt[c].max())
        x, y = -1j * table.coef[left[c], :a], table.coef[right[c], :b]
        xs, ys = slot_shift(x, table.labels[right[c]]), slot_shift(y, table.labels[left[c]])
        rows = table.rows[units[c], :t] * on[c, :, None, None]  # (Q, T, t, 2M)
        out[c, :a, :b] = _slot_residual_chunk(x, y, xs, ys, rows)
    return out


def _slot_residual_chunk(x, y, xs, ys, rows) -> np.ndarray:
    """The (Q, Kl, Kr) residuals of -i x and y with their xor-shifted copies xs, ys."""
    comm = x[:, :, None] * ys[:, None]  # -i [x, y]
    comm -= y[:, None] * xs[:, :, None]
    vecs = comm.reshape(len(x), -1, x.shape[-1]).view(float)  # (re, im) interleaved, as the rows
    norms = _row_norms(vecs)
    best = np.inf
    for r in np.swapaxes(rows, 0, 1):
        resid = _row_norms(vecs - (vecs @ np.swapaxes(r, 1, 2)) @ r)
        best = np.minimum(best, resid / np.maximum(norms, STRUCT_TOL))
    return np.where(norms < STRUCT_TOL, 0.0, best).reshape(comm.shape[:3])


def all_commute(mats, tol=STRUCT_TOL) -> bool:
    mats = list(mats)
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if frob(commutator(a, b)) > tol * max(1.0, frob(a) * frob(b)):
                return False
    return True


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
    if not all(is_hermitian(m, ACCEPT_TOL) for m in mats):
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
