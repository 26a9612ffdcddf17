"""Recursive KAK factorization of unitaries along a decomposition sequence.

The single-level computation follows the SVD-style recipe: conjugate into the
coordinate where the designated abelian subalgebra is diagonal and the chosen
t maps onto antisymmetric generators, eigendecompose M M^T = O1 D^2 O1^T to
split M = O1 D O2 with real orthogonal factors, and read the abelian part off
D. Deeper levels act inside exp(t), where the quotient-algebra structure
turns the same computation into cosine-sine decompositions of orthogonal
blocks; the leaves are abelian exponentials expanded over the final
subalgebra. Factors are ordered as a binary bifurcation tree and classified
local or nonlocal by their tensor-word site count.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import generators as gen
from ._linalg import (
    ACCEPT_TOL,
    ANGLE_PRUNE_TOL,
    PHASE_TOL,
    SOLVE_TOL,
    STRUCT_TOL,
    _rank,
    basis_match,
    complex_symmetric_eigenbasis,
    cs_decompose_so,
    dagger,
    expm_hermitian,
    frob,
    is_unitary,
)
from .cartan import CartanSplit, DecompositionSequence
from .errors import (
    DecompositionError,
    DimensionMismatchError,
    InvalidMatrixError,
    NotInSpanError,
    UnsupportedLabelError,
)
from .generators import Diag, Generator, Lambda, LambdaHat, TensorWord
from .partition import AbelianSpace, diagonalize_abelian, label_int, standard_basis

__all__ = [
    "GateFactor",
    "AbelianBlock",
    "Factorization",
    "ingest_unitary",
    "classify_gate",
    "kak_single_level",
    "factor_abelian_exponential",
    "recursive_decompose",
    "reconstruct",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateFactor:
    """One factor exp(i * angle * generator) with its bifurcation-tree order."""

    tree_index: str
    ordinal: int
    generator: Generator
    angle: float
    locality: Optional[str]


@dataclass(frozen=True)
class AbelianBlock:
    """One abelian exponential of the tree: a center block or a final leaf."""

    tree_index: str
    level: int
    factors: Tuple[GateFactor, ...]


@dataclass(frozen=True)
class Factorization:
    """global_phase times the ordered product of `factors`, grouped into `blocks`.

    recursive_decompose returns one that holds columns: its plan and the
    per-level angle arrays. Its `factors` and `blocks` are built on first
    read, and factor_rows, local_count and nonlocal_count read the columns
    without building them. The five-argument constructor takes the factors
    themselves.
    """

    dim: int
    factors: Tuple[GateFactor, ...]
    blocks: Tuple[AbelianBlock, ...]
    global_phase: complex
    reconstruction_error: float

    @classmethod
    def _of_columns(cls, dim: int, plan: "_Plan", angles: Dict[int, np.ndarray],
                    global_phase: complex, reconstruction_error: float) -> "Factorization":
        fact = object.__new__(cls)
        fact.__dict__.update(dim=dim, global_phase=global_phase,
                             reconstruction_error=reconstruction_error, _columns=(plan, angles))
        return fact

    def __getattr__(self, name: str):
        """Build `factors` and `blocks` from the columns on their first read."""
        if name not in ("factors", "blocks") or "_columns" not in self.__dict__:
            raise AttributeError(f"'Factorization' object has no attribute '{name}'")
        blocks = tuple(AbelianBlock(idx, level, tuple(itertools.starmap(GateFactor, rows)))
                       for idx, level, rows in self._tree())
        self.__dict__.update(blocks=blocks, factors=tuple(f for b in blocks for f in b.factors))
        return self.__dict__[name]

    def _tree(self):
        """(tree_index, level, factor rows) of every block, in in-order tree position."""
        plan, angles = self.__dict__["_columns"]
        lists = {level: w.tolist() for level, w in angles.items()}  # Python floats, read once
        return ((idx, level, plan.blocks[level].rows(idx, lists[level][j]))
                for level, j, idx in plan.order)

    def factor_rows(self) -> List[tuple]:
        """(tree_index, ordinal, generator, angle, locality) of every factor, in order."""
        if "_columns" not in self.__dict__:
            return [(f.tree_index, f.ordinal, f.generator, f.angle, f.locality)
                    for f in self.factors]
        return [row for _, _, rows in self._tree() for row in rows]

    def local_count(self) -> int:
        return sum(1 for row in self.factor_rows() if row[4] == "local")

    def nonlocal_count(self) -> int:
        return sum(1 for row in self.factor_rows() if row[4] == "nonlocal")


def ingest_unitary(m: np.ndarray) -> Tuple[np.ndarray, complex]:
    """Check unitarity and normalize the determinant to 1.

    Returns (u, phase) with det(u) = 1 and |phase| = 1; the phase spreads
    det(m)^(1/N) evenly across the diagonal. phase * u is m itself when m is
    unitary within STRUCT_TOL, else its nearest unitary W Vh from the SVD,
    because later steps assume exact unitarity. Projecting an already exact
    input would move it by an ulp, and that can flip a CS sign gauge.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrixError("unitary must be square")
    n = m.shape[0]
    resid = frob(m @ dagger(m) - np.eye(n))  # what is_unitary compares, formed once
    if not resid < ACCEPT_TOL * n:
        raise InvalidMatrixError(f"matrix is not unitary within {ACCEPT_TOL:g}")
    if not resid < STRUCT_TOL * n:
        w, _, vh = np.linalg.svd(m)
        m = w @ vh
    phase = np.exp(1j * np.angle(np.linalg.det(m)) / n)
    return m / phase, phase


def classify_gate(g: Generator) -> str:
    """'local' when exactly one tensor site is non-identity, else 'nonlocal'.

    Decided from the label where it can be: a prime dimension is a single
    site, so every generator there is local; a lambda, lambdahat or d
    generator has rank 2, while a word over two or more sites has rank at
    least 4, so none of them is a word. Unlabeled and orthod generators are
    matched against the standard word basis of their dimension.
    """
    if isinstance(g.label, TensorWord):
        return "local" if gen.word_site_count(g) == 1 else "nonlocal"
    if len(gen.standard_sites(g.dim)) == 1:
        return "local"
    if isinstance(g.label, (Lambda, LambdaHat, Diag)):
        raise UnsupportedLabelError(f"{g.label} is not a word of the site structure")
    words, matrices = _word_basis(g.dim)
    k = basis_match(g.matrix.reshape(1, -1), matrices.reshape(len(matrices), -1))[0]
    if k >= 0:
        return classify_gate(words[k])
    raise UnsupportedLabelError(
        "generator is not proportional to a single word of the site structure"
    )


@functools.lru_cache(maxsize=2)
def _word_basis(n: int) -> Tuple[Tuple[Generator, ...], np.ndarray]:
    """standard_basis(n) as a tuple, and its matrices as one read-only stack.

    Only two dimensions are kept: the basis has N^2 - 1 matrices of N^2
    complex entries, 268 MB at N=64, and an entry holds it twice.
    """
    words = tuple(standard_basis(n))
    matrices = np.array([w.matrix for w in words])
    matrices.flags.writeable = False
    return words, matrices


def _locality_or_none(g: Generator) -> Optional[str]:
    try:
        return classify_gate(g)
    except UnsupportedLabelError:
        return None


def _label_rows(n: int, label: int) -> np.ndarray:
    """The rows i < i ^ label < n: one per slot of the label, in slot order."""
    i = np.arange(n)
    return i[(i < i ^ label) & (i ^ label < n)]


def _phased(v: np.ndarray, labels, c: np.ndarray) -> np.ndarray:
    """The entries of V g V^dag, V = diag(v), for forms (labels, c); a label broadcasts."""
    vm = np.zeros(c.shape[-1], dtype=complex)
    vm[: len(v)] = v
    return vm * c * np.conj(vm[np.arange(len(vm)) ^ np.reshape(labels, (-1, 1))])


def _slot_coefficients(v: np.ndarray, n: int, label: int, c: np.ndarray) -> np.ndarray:
    """c[a, s]: expansion of V g_a V^dag over the antisymmetric generators of the label's slots."""
    return -np.imag(_phased(v, label, c)[:, _label_rows(n, label)])


def _t_phases(n: int, t_forms: Dict[str, tuple]) -> np.ndarray:
    """v with V g V^dag antisymmetric-imaginary, V = diag(v), for every g of t, whose
    spaces' frame forms t_forms holds by label. Each slot carries a direction, and
    phi_i - phi_j = delta_ij = -pi/2 - arg(direction) (mod pi). A level-1 t covers
    every slot, so phi_j = -delta_0j, and the other slots must agree mod pi."""
    labs = list(t_forms)
    labels, c = (np.concatenate(x) for x in zip(*t_forms.values()))
    owner = np.repeat(np.arange(len(labs)), [len(f[0]) for f in t_forms.values()])
    q, i = np.nonzero(c)  # every upper entry, in space and generator order
    q, i = q[i < i ^ labels[q]], i[i < i ^ labels[q]]
    slot = i * n + (i ^ labels[q])
    key = np.sort(owner[q] * n * n + slot)  # sorts with np.diff masks: np.unique imports numpy.ma
    own = np.bincount(key[np.diff(key, prepend=-1) != 0] // (n * n), minlength=len(labs))
    for lab, covered, size in zip(labs, own, np.bincount(owner, minlength=len(labs))):
        if covered != size:
            raise DecompositionError(f"space {lab} covers {covered} slots for {size} generators")
    delta = (-np.pi / 2.0 - np.angle(c[q, i])) % np.pi
    first = np.argsort(slot, kind="stable")
    first = first[np.diff(slot[first], prepend=-1) != 0]  # each slot's first entry
    slots = slot[first]
    if own.sum() != len(slots):
        raise DecompositionError("two chosen spaces overlap on a slot")
    diff = np.abs(delta - delta[first[np.searchsorted(slots, slot)]])
    if np.any(bad := np.minimum(diff, np.abs(diff - np.pi)) > PHASE_TOL):
        i, j = divmod(int(slot[bad].min()), n)
        raise DecompositionError(f"slot ({i + 1},{j + 1}) carries two phase directions")
    if len(slots) != n * (n - 1) // 2:
        raise DecompositionError("t does not span so(N) in the frame")
    phi = np.concatenate([[0.0], 0.0 - delta[first[: n - 1]]])  # slots (0, 1) .. (0, n - 1) first
    diff = (phi[slots // n] - phi[slots % n] - delta[first]) % np.pi
    if np.any(np.minimum(diff, np.pi - diff) > PHASE_TOL):
        raise DecompositionError("slot phases are inconsistent; structure is not "
                                 "binary-partitioned in any diagonal gauge")
    v = np.exp(1j * phi)
    g = _phased(v, labels, c)  # g + g^T sits on the same slots; a diagonal counts twice
    resid = np.linalg.norm(g + np.take_along_axis(g, np.arange(g.shape[1]) ^ labels[:, None],
                                                  axis=1), axis=1)
    bad = resid > SOLVE_TOL * np.maximum(1.0, np.linalg.norm(g, axis=1))
    if bad.any():
        raise DecompositionError(f"space {labs[owner[np.argmax(bad)]]} image is not "
                                 "antisymmetric in the frame")
    return v


# ---------------------------------------------------------------------------
# Level-1 computation: M = O1 D O2 via the symmetric eigendecomposition
# ---------------------------------------------------------------------------

def _level_one(qa, t: Dict[str, AbelianSpace], center: AbelianSpace):
    """A level-1 step's frame G (QuotientAlgebra._frame; raises when there is none), v of
    V = diag(v) read off t, its spaces by label (_t_phases), F = V G, the center's entries
    in G and the level-1 angle solve's coefficients: the diagonals of V g V^dag, g in it."""
    frame = qa._frame
    if frame is None:
        raise DecompositionError("no index order puts every generator on its pair's XOR slots")
    v = _t_phases(qa.dim, {lab: frame.forms(space) for lab, space in t.items()})
    f = np.diag(v) if frame.matrix is None else v[:, None] * frame.matrix
    entries = frame.entries(center, 0)
    return frame, v, f, entries, np.real(_phased(v, 0, entries))[:, : qa.dim]


def _ai_step(m: np.ndarray):
    """Split M = O1 diag(exp(i lam)) O2, O1/O2 special orthogonal, sum(lam) = 0. O1 D O2
    is M but for rounding and O2's imaginary part, which is dropped if below SOLVE_TOL."""
    s = m @ m.T
    o1, w = complex_symmetric_eigenbasis(s)
    lam = np.angle(w) / 2.0  # branch (-pi/2, pi/2]
    if np.linalg.det(o1) < 0:
        o1 = o1.copy()
        o1[:, 0] = -o1[:, 0]

    def rebuild(lam_vec):  # O2 = conj(D) O1^T M
        return (np.conj(np.exp(1j * lam_vec))[:, None] * o1.T) @ m

    o2 = rebuild(lam)
    if np.linalg.det(np.real(o2)) < 0:
        # Flip one eigenphase by pi; pair it with the matching column sign of O1.
        lam = lam.copy()
        lam[0] = lam[0] + np.pi if lam[0] <= 0 else lam[0] - np.pi
        o2 = rebuild(lam)
    # Make the phase vector exactly traceless by 2-pi moves (exp unchanged).
    total = int(round(lam.sum() / (2.0 * np.pi)))
    if total:
        order = np.argsort(lam)
        picks = order[::-1][:abs(total)] if total > 0 else order[: abs(total)]
        lam = lam.copy()
        lam[picks] -= 2.0 * np.pi * np.sign(total)
        o2 = rebuild(lam)
    if abs(lam.sum()) > SOLVE_TOL:
        raise DecompositionError("eigenphase vector failed to become traceless")
    if frob(np.imag(o2)) > SOLVE_TOL:
        raise DecompositionError("right orthogonal factor is not real")
    return o1, lam, np.real(o2)


# ---------------------------------------------------------------------------
# Angle extraction and expansion over basis generators
# ---------------------------------------------------------------------------

def _solve_expansion(c: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Angles omega[b] with c^T omega[b] = phi[b], for c from _slot_coefficients.

    One stacked solve: NumPy runs the same gesv on each row of phi as a
    solve with that row alone.
    """
    try:
        omega = np.linalg.solve(np.broadcast_to(c.T, (len(phi),) + c.shape), phi[:, :, None])
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("slot coefficient matrix is singular") from exc
    omega = omega[:, :, 0]
    resid = np.linalg.norm(omega @ c - phi, axis=1)
    if np.any(resid > SOLVE_TOL * np.maximum(1.0, np.linalg.norm(phi, axis=1))):
        raise DecompositionError("angle expansion over the space basis failed")
    return omega


def _solve_diagonal_expansion(e: np.ndarray, target) -> np.ndarray:
    """Angles omega with e^T omega = target, e[a] the diagonal of image a."""
    omega, *_ = np.linalg.lstsq(e.T, target, rcond=None)
    if frob(e.T @ omega - target) > SOLVE_TOL * max(1.0, frob(target)):
        raise NotInSpanError("diagonal part does not lie in the center span")
    return omega


# ---------------------------------------------------------------------------
# The plan: everything the recursion needs that depends only on the sequence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Block:
    """One abelian block of the tree: its space, how to expand angles over it, and
    the shape of its exponentials. In the frame its generators sit on the slots
    (i, i ^ label): on the diagonal for label 0, else on disjoint pairs of rows.
    """

    space: AbelianSpace
    localities: Tuple[Optional[str], ...]
    coefficients: np.ndarray  # level 1: the diagonals in the frame; else _slot_coefficients
    support: np.ndarray  # flat positions of the label's slots
    values: np.ndarray  # values[a]: generator a's entries at those positions, in the frame
    label: int

    @classmethod
    def of(cls, space: AbelianSpace, coefficients: np.ndarray, label: int,
           entries: np.ndarray) -> "_Block":
        """entries[a, i]: generator a's entry (i, i ^ label) in the frame."""
        rows = np.flatnonzero(np.arange(space.dim) ^ label < space.dim)
        return cls(space, tuple(_locality_or_none(g) for g in space.generators), coefficients,
                   rows * space.dim + (rows ^ label), entries[:, rows], label)

    def rows(self, idx: str, angles: Sequence[float]) -> List[tuple]:
        """GateFactor fields per angle not below ANGLE_PRUNE_TOL, numbered from 1."""
        rows: List[tuple] = []
        for g, locality, w in zip(self.space.generators, self.localities, angles):
            if not abs(w) < ANGLE_PRUNE_TOL:
                rows.append((idx, len(rows) + 1, g, w, locality))
        return rows

    def exponentials(self, angles: np.ndarray) -> np.ndarray:
        """exp(i sum_a angles[b, a] G_a) in the frame for every row b, as a (B, N, N) stack.

        Angles below ANGLE_PRUNE_TOL count as 0, as in the factors. A diagonal
        block is an elementwise phase. A pairs block is a set of disjoint
        rotations: with e the exponent, E^2 = |e|^2 on each pair, so
        exp(iE) = cos|e| on its diagonal and i sin|e| / |e| e off it.
        """
        n = self.space.dim
        kept = ~(np.abs(angles) < ANGLE_PRUNE_TOL)
        e = np.where(kept, angles, 0.0) @ self.values  # each row's exponent on the support
        x = np.zeros((len(angles), n * n), dtype=complex)
        x[:, :: n + 1] = 1.0
        if self.label == 0:
            x[:, self.support] = np.exp(1j * e.real)
        else:
            x[:, self.support // n * (n + 1)] = np.cos(np.abs(e))
            x[:, self.support] = 1j * np.sinc(np.abs(e) / np.pi) * e
        return x.reshape(-1, n, n)


@dataclass(frozen=True)
class _CSGroup:
    """The CS steps of a level's components whose blocks split the same p + q rows.

    Row l of each array belongs to one component: row b1[l, m] pairs with
    row b2[l, m] across a center slot, and the block's rows are order[l].
    """

    order: np.ndarray  # (L, p + q): b1 then b2
    outside: np.ndarray  # (L, N - p - q): the columns outside the component
    b1: np.ndarray  # (L, p)
    b2: np.ndarray  # (L, q)
    theta_at: np.ndarray  # (L, min(p, q)): position of theta m's slot among the center slots
    theta_sign: np.ndarray  # (L, min(p, q)): -1 where b1 < b2, else +1


def _square(rows: np.ndarray) -> tuple:
    """Index of the (L, k, k) blocks rows[l] x rows[l], for every node of a stack."""
    return slice(None), rows[:, :, None], rows[:, None, :]


class _Plan:
    """What recursive_decompose needs of a sequence, built once per sequence.

    Holds the level-1 frame F = V G, the CS groups of every level (the index
    components of DecompositionSequence.layout, stacked by block shape), for every
    abelian block its coefficient matrix, entries and localities, and the order in
    which the tree's nodes are emitted. The sequence build ran the checks that
    read its labels alone; this one runs those that read its spaces, and the
    level pass (_walk) those that depend on the input.
    """

    def __init__(self, seq: DecompositionSequence, frame, v, f, center, coefficients):  # _level_one's
        self.n, self.p, self.back = seq.dim, seq.qa.p, frame.matrix
        self.f, self.f_dag = f, dagger(f)
        self.blocks = {1: _Block.of(seq.levels[0].center_core, coefficients, 0, center)}
        self.units, self.groups = {}, {}  # single-row components; CS groups of the rest
        for level in range(2, self.p + 1):
            spec, (units, layouts) = seq.levels[level - 1], seq.layout[level]
            self.units[level] = np.array(units, dtype=int)
            shapes: Dict[Tuple[int, int], list] = {}  # (p, q) -> the fields of its components
            for fields in layouts:
                shapes.setdefault((len(fields[2]), len(fields[3])), []).append(fields)
            self.groups[level] = [
                _CSGroup(*(np.array(field) for field in zip(*same))) for same in shapes.values()
            ]
            self.blocks[level] = self._slot_block(spec.center_core, label_int(spec.label), frame, v)
        final = label_int(seq.final.binary_label)
        self.final_rows = _label_rows(self.n, final)
        self.final_cols = self.final_rows ^ final
        self.blocks[self.p + 1] = self._slot_block(seq.final, final, frame, v)
        # Node j of level k (2^(k-1) nodes) sits at in-order position (2j + 1) 2^(p + 1 - k);
        # each of 1 .. 2^(p+1) - 1 has exactly one such form, so the positions are all distinct.
        order = sorted(
            ((2 * j + 1) << (self.p + 1 - level), level, j)
            for level in range(1, self.p + 2)
            for j in range(2 ** (level - 1))
        )
        self.order = [(level, j, format(pos, f"0{self.p + 1}b")) for pos, level, j in order]

    def _slot_block(self, space: AbelianSpace, label: int, frame, v: np.ndarray) -> _Block:
        entries = frame.entries(space, label)
        c = _slot_coefficients(v, self.n, label, entries)
        if c.shape[0] != c.shape[1]:
            raise DecompositionError(
                f"{c.shape[0]} generators vs {c.shape[1]} slots; bases disagree"
            )
        return _Block.of(space, c, label, entries)


_PLANS: "weakref.WeakKeyDictionary[DecompositionSequence, _Plan]" = weakref.WeakKeyDictionary()


# ---------------------------------------------------------------------------
# The pass: the plan's tree, one level at a time
# ---------------------------------------------------------------------------

_BRANCH_LETTERS = str.maketrans("01", "LR")


def _check_nodes(bad: np.ndarray, where: str, level: int, what: str) -> None:
    """Raise for the first node of a level stack that is bad, naming its branch."""
    if bad.any():
        branch = format(int(np.argmax(bad)), f"0{level - 1}b").translate(_BRANCH_LETTERS)
        raise DecompositionError(f"{where}, branch {branch}: {what}")


def _cs_level(plan: _Plan, level: int, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Angles of every node of a level, and the stack of the next level's nodes.

    nodes[j] is node j of the level; its K1 and K2 become nodes 2j and 2j + 1.
    The level's checks run first, on every node. Then each CS group runs as one
    cs_decompose_so over the (B * L, p + q, p + q) stack of its blocks, node by
    node and component by component, so a level makes one call per block shape.
    """
    units = plan.units[level]
    _check_nodes(np.any(np.abs(nodes[:, units, units] - 1.0) > SOLVE_TOL, axis=1),
                 f"level {level}", level, "unit block is not the identity")
    leaks = [(np.linalg.norm(nodes[:, g.order[:, :, None], g.outside[:, None, :]], axis=(2, 3))
              > SOLVE_TOL).any(axis=1) for g in plan.groups[level]]
    _check_nodes(np.any(leaks, axis=0), f"level {level}", level,
                 "block leaks outside its component")
    c = plan.blocks[level].coefficients
    phi = np.zeros((len(nodes), c.shape[1]))
    children = np.tile(np.eye(plan.n), (len(nodes), 2, 1, 1))
    k1, k2 = children[:, 0], children[:, 1]
    for g in plan.groups[level]:
        m = g.order.shape[1]
        blocks = nodes[_square(g.order)].reshape(-1, m, m)
        u1, u2, thetas, v1, v2 = (
            x.reshape((len(nodes), -1) + x.shape[1:])
            for x in cs_decompose_so(blocks, g.b1.shape[1], g.b2.shape[1])
        )
        phi[:, g.theta_at] = g.theta_sign * thetas
        k1[_square(g.b1)], k1[_square(g.b2)] = u1, u2
        k2[_square(g.b1)], k2[_square(g.b2)] = v1, v2
    return _solve_expansion(c, phi), children.reshape(-1, plan.n, plan.n)


def _leaf_angles(plan: _Plan, nodes: np.ndarray) -> np.ndarray:
    """Angles of every leaf, after checking that each lies in the final torus."""
    rows, cols = plan.final_rows, plan.final_cols
    sin, cos = nodes[:, rows, cols], nodes[:, rows, rows]
    # math.atan2, not np.arctan2: NumPy's SIMD arctan2 can differ in the last bit.
    phi = np.reshape(list(map(math.atan2, sin.ravel().tolist(), cos.ravel().tolist())), sin.shape)
    cos, sin = np.cos(phi), np.sin(phi)
    rebuilt = np.tile(np.eye(plan.n), (len(nodes), 1, 1))
    rebuilt[:, rows, rows] = rebuilt[:, cols, cols] = cos
    rebuilt[:, rows, cols], rebuilt[:, cols, rows] = sin, -sin
    _check_nodes(np.linalg.norm(rebuilt - nodes, axis=(1, 2)) > SOLVE_TOL * plan.n,
                 "final level", plan.p + 1, "leaf is not inside the final torus")
    return _solve_expansion(plan.blocks[plan.p + 1].coefficients, phi)


def _walk(plan: _Plan, u_su: np.ndarray) -> Dict[int, np.ndarray]:
    """One input's angles: level k -> a (2^(k-1), generators) array, row j for node j.

    Level k is a (2^(k-1), N, N) stack of orthogonal nodes; level 2 is
    [O1, O2] from the single-level split, and each CS level makes one
    cs_decompose_so call per block shape (_cs_level). When several nodes
    fail, the one reported is on the shallowest failing level, not the first
    in depth-first order. The angles are not pruned; the factors and the
    block exponentials prune them the same way.
    """
    o1, lam, o2 = _ai_step(plan.f @ u_su @ plan.f_dag)
    angles = {1: _solve_diagonal_expansion(plan.blocks[1].coefficients, lam)[None]}
    nodes = np.real(np.stack([o1, o2]))
    for level in range(2, plan.p + 1):
        angles[level], nodes = _cs_level(plan, level, nodes)
    angles[plan.p + 1] = _leaf_angles(plan, nodes)
    return angles


def _tree_product(plan: _Plan, angles: Dict[int, np.ndarray]) -> np.ndarray:
    """The in-order product of every block exponential of the tree.

    Bottom-up, one stacked step per level: the product over node j's subtree
    is P(left) X(node) P(right), and node j's children are nodes 2j and
    2j + 1 of the next level. It is formed in the algebra's frame G, then moved back.
    """
    total = plan.blocks[plan.p + 1].exponentials(angles[plan.p + 1])
    for level in range(plan.p, 0, -1):
        total = total[0::2] @ plan.blocks[level].exponentials(angles[level]) @ total[1::2]
    return total[0] if plan.back is None else dagger(plan.back) @ total[0] @ plan.back


def recursive_decompose(u: np.ndarray, seq: DecompositionSequence) -> Factorization:
    """Factor a unitary into single-generator exponentials along `seq`.

    Applies the single-level split at each recursion level, descending into
    both orthogonal factors; abelian blocks come out in binary-bifurcation
    order (2^(k-1) blocks at level k, 2^p leaves). The returned factor list
    reassembles to the input within the stored reconstruction error, which
    is the Frobenius distance of the closed-form block product
    (_tree_product) from u.

    The first call along `seq` builds its plan in the algebra's frame, and
    later calls reuse it. The result holds the plan and the angle arrays;
    its factors and blocks are built when first read.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (seq.dim, seq.dim):
        raise DimensionMismatchError(
            f"unitary is {u.shape}, sequence expects dim {seq.dim}"
        )
    u_su, phase = ingest_unitary(u)
    plan = _PLANS.get(seq)
    if plan is None:  # the frame's and the phases' errors carry no "decomposition failed" prefix
        level1 = _level_one(seq.qa, {lab: seq.space_at(lab) for lab in seq.levels[0].chosen_labels},
                            seq.levels[0].center_core)
    try:
        if plan is None:
            plan = _PLANS[seq] = _Plan(seq, *level1)
        angles = _walk(plan, u_su)
    except DecompositionError as exc:
        raise DecompositionError(f"decomposition failed: {exc}") from exc
    total = _tree_product(plan, angles)
    return Factorization._of_columns(seq.dim, plan, angles, complex(phase),
                                     float(frob(total * complex(phase) - u)))


def reconstruct(fact: Factorization, dim: int) -> np.ndarray:
    """Ordered product of exp(i angle generator) times the global phase."""
    total = np.eye(dim, dtype=complex)
    for f in fact.factors:
        if f.generator.dim != dim:
            raise DimensionMismatchError(
                f"factor dim {f.generator.dim} does not match {dim}"
            )
        total = total @ expm_hermitian(f.generator.matrix, f.angle)
    return total * fact.global_phase


# ---------------------------------------------------------------------------
# Single level and abelian exponentials as standalone operations
# ---------------------------------------------------------------------------

def kak_single_level(u: np.ndarray, split: CartanSplit):
    """One KAK step U = K1 exp(i a) K2 for a Cartan split: recursive_decompose's level 1.

    The same frame F = V G (_level_one: G the algebra's, V read off the split's t on
    each call) and split F U F^dag = O1 D O2 (_ai_step); K = F^dag O F, a = -i F^dag
    log(D) F. K is in exp(t): O is real with det +1, F maps t onto
    imaginary antisymmetric matrices, and t has rank N(N-1)/2, the sum of its
    spaces' slot-coefficient ranks. `a` is in the center's span: the level-1 angle
    solve over the frame diagonals. The input must have unit determinant, its phase
    within SOLVE_TOL (see ingest_unitary).
    """
    u = np.asarray(u, dtype=complex)
    n = split.dim
    if u.shape != (n, n):
        raise DimensionMismatchError("unitary does not match the split dimension")
    if not is_unitary(u):
        raise InvalidMatrixError(f"matrix is not unitary within {ACCEPT_TOL:g}")
    if abs(np.angle(np.linalg.det(u))) > SOLVE_TOL:  # _ai_step's eigenphases sum to this phase
        raise InvalidMatrixError("determinant is not 1; run ingest_unitary first")
    frame, v, f, _, center = _level_one(split.qa, {s.binary_label: s for s in split.t},
                                        split.chosen_center)
    blocks = (_slot_coefficients(v, n, lab, frame.entries(s, lab))
              for s in split.t for lab in (label_int(s.binary_label),))
    if sum(_rank(np.linalg.svd(c, compute_uv=False)) for c in blocks) != n * (n - 1) // 2:
        raise DecompositionError("t does not span so(N) in the frame")
    o1, lam, o2 = _ai_step(f @ u @ dagger(f))
    try:
        _solve_diagonal_expansion(center, lam)
    except NotInSpanError:
        raise DecompositionError("abelian part leaves the center span") from None
    return tuple(dagger(f) @ x.astype(complex) @ f for x in (o1, np.diag(lam), o2))


def factor_abelian_exponential(
    v: np.ndarray, space: AbelianSpace
) -> Tuple[List[GateFactor], complex]:
    """Expand a unitary inside exp(i span(space)) over the space's generators.

    Returns (factors, global_phase) with the factor product times the phase
    equal to the input. Raises when the matrix does not commute into the
    space's joint eigenbasis or its phases do not fit the span. Known defect:
    with fewer than N - 1 generators it can reject a valid input whose phases
    wrap past pi, as choosing their 2 pi branches is a lattice problem.
    """
    v = np.asarray(v, dtype=complex)
    n = space.dim
    if v.shape != (n, n):
        raise DimensionMismatchError("matrix does not match the space dimension")
    if not is_unitary(v):
        raise InvalidMatrixError(f"matrix is not unitary within {ACCEPT_TOL:g}")
    space.validate()
    w = diagonalize_abelian(space)
    d = w @ v @ dagger(w)
    off = frob(d - np.diag(np.diag(d)))
    if off > SOLVE_TOL * n:
        raise NotInSpanError(
            f"matrix is not in the abelian exponential (off-diagonal {off:.2e})"
        )
    phases = np.angle(np.diag(d))
    eigcols = np.array([np.real(np.diag(w @ g.matrix @ dagger(w))) for g in space.generators])
    a = np.vstack([eigcols, np.ones(n)]).T  # unknowns: omegas then the phase
    # A phase the fit misses by more than pi moves by its multiple of 2 pi, once.
    sol, *_ = np.linalg.lstsq(a, phases, rcond=None)
    target = phases - 2.0 * np.pi * np.round((phases - a @ sol) / (2.0 * np.pi))
    sol, *_ = np.linalg.lstsq(a, target, rcond=None)
    if frob(a @ sol - target) > SOLVE_TOL * n:
        raise NotInSpanError("phases do not lie in the space span")
    tree_index = "0" * max(1, (n - 1).bit_length() + 1)
    block = _Block.of(space, eigcols, 0, eigcols)  # diagonal in w's frame
    factors = list(itertools.starmap(GateFactor, block.rows(tree_index, sol[:-1].tolist())))
    phase = complex(np.exp(1j * sol[-1]))
    # The factors commute, so their product is one exponential, here read in w's frame.
    check = block.exponentials(sol[None, :-1])[0]
    if frob(check * phase - d) > SOLVE_TOL * n:
        raise NotInSpanError("abelian expansion does not reproduce the input")
    return factors, phase
