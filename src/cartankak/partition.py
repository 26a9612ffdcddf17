"""Conjugate partitions and quotient algebras of su(N).

Implements the quotient-algebra construction: seed a generator outside the
center subalgebra, commutate with the center to produce the conjugate space,
reverse once to complete the pair, repeat until the basis is exhausted, then
merge commuting fragments consistently with the binary partitioning. Also
holds the closure verification, the binary string labels, the removing
process for dimensions that are not powers of two, and the subscript tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import generators as gen
from ._linalg import (
    ACCEPT_TOL,
    MATCH_NONE,
    MATCH_OFF_LINE,
    MATCH_ZERO,
    SOLVE_TOL,
    STRUCT_TOL,
    all_commute,
    basis_match,
    commutator_residuals,
    dagger,
    frob,
    in_span,
    simultaneous_diagonalize,
    slot_commutator_residuals,
    slot_form,
    slot_groups,
    slot_table,
    span_rank,
    span_rows,
)
from .errors import (
    BasisNotClosedError,
    ClosureViolationError,
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidSubscriptError,
    NotAbelianError,
    NotBinaryPartitionedError,
    NotMaximalError,
)
from .generators import Diag, Generator, Lambda, LambdaHat

__all__ = [
    "AbelianSpace",
    "ConjugatePair",
    "QuotientAlgebra",
    "SubscriptTable",
    "ClosureCheck",
    "ClosureReport",
    "intrinsic_center",
    "standard_basis",
    "standard_word_center",
    "lambda_basis",
    "diagonalize_abelian",
    "build_quotient_algebra",
    "intrinsic_quotient_algebra",
    "standard_quotient_algebra",
    "binary_label_of",
    "verify_closure",
    "removing_process",
    "subscript_table_of",
    "conjugate_quotient_algebra",
]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AbelianSpace:
    """A commuting, linearly independent set of generators spanning a vector space."""

    generators: Tuple[Generator, ...]
    hat: bool = False
    binary_label: Optional[str] = None

    def __post_init__(self):
        if not self.generators:
            raise InvalidMatrixError("abelian space needs at least one generator")
        dims = {g.dim for g in self.generators}
        if len(dims) != 1:
            raise DimensionMismatchError("generators of one space must share a dim")
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    @property
    def matrices(self) -> List[np.ndarray]:
        return [g.matrix for g in self.generators]

    def validate(self, tol: float = ACCEPT_TOL):
        if not all_commute(self.matrices, tol):
            raise NotAbelianError("space generators do not commute")
        if span_rank(self.matrices) != len(self.generators):
            raise InvalidMatrixError("space generators are linearly dependent")

    def span(self) -> np.ndarray:
        return span_rows(self.matrices)

    @functools.cached_property
    def _slot(self):
        """slot_form of the generators, or None; kept, as they are immutable."""
        return slot_form(self.matrices)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        tag = "W^" if self.hat else "W"
        lab = self.binary_label or "?"
        return f"AbelianSpace({tag}_{lab}, {len(self.generators)} generators)"


@dataclass(frozen=True, eq=False)
class ConjugatePair:
    """A conjugate pair {W, W^} of abelian spaces."""

    w: AbelianSpace
    w_hat: AbelianSpace
    binary_label: Optional[str] = None

    def __post_init__(self):
        if len(self.w) != len(self.w_hat):
            raise InvalidMatrixError("conjugate spaces must have equal size")

    @property
    def spaces(self) -> Tuple[AbelianSpace, AbelianSpace]:
        return (self.w, self.w_hat)

    def all_matrices(self) -> List[np.ndarray]:
        return self.w.matrices + self.w_hat.matrices


@dataclass(frozen=True, eq=False)
class QuotientAlgebra:
    """Center subalgebra plus conjugate pairs, closed under the commutator."""

    center: AbelianSpace
    pairs: Tuple[ConjugatePair, ...]
    dim: int
    p: int

    @property
    def labeled(self) -> bool:
        return all(pair.binary_label is not None for pair in self.pairs)

    def pair_by_label(self, label: str) -> ConjugatePair:
        for pair in self.pairs:
            if pair.binary_label == label:
                return pair
        raise KeyError(f"no pair labeled {label}")

    def generator_count(self) -> int:
        return len(self.center) + sum(2 * len(p.w) for p in self.pairs)

    def __repr__(self):
        return f"QuotientAlgebra(su({self.dim}), {len(self.pairs)} pairs)"


def bits_of(value: int, p: int) -> str:
    return format(value, f"0{p}b")


def label_int(label: str) -> int:
    return int(label, 2)


# ---------------------------------------------------------------------------
# Standard bases and centers
# ---------------------------------------------------------------------------

def _site_symbols(d: int, diagonal_only: bool) -> List[str]:
    """Symbols of one site, identity first; optionally only diagonal ones."""
    if d == 2:
        return ["p0", "p3"] if diagonal_only else ["p0", "p1", "p2", "p3"]
    if d == 3:
        if diagonal_only:
            return ["g0", "g3", "g8"]
        return [f"g{k}" for k in range(9)]
    syms = [f"i{d}"]
    diag = [f"d{d}(1,{l})" for l in range(2, d + 1)]
    if diagonal_only:
        return syms + diag
    off = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            off += [f"l{d}({i},{j})", f"lh{d}({i},{j})"]
    return syms + off + diag


def _words(n: int, diagonal_only: bool) -> List[Generator]:
    sites = gen.standard_sites(n)
    combos = [[]]
    for d in sites:
        combos = [c + [s] for c in combos for s in _site_symbols(d, diagonal_only)]
    out = []
    for combo in combos:
        try:
            out.append(gen.make_tensor_word(combo))
        except InvalidMatrixError:
            continue  # the all-identity word
    return out


def standard_basis(n: int) -> List[Generator]:
    """Word basis of su(n): tensor products over the standard site split.

    For n = 2^a 3^b ... the sites are the prime factors in decreasing order;
    a prime n is a single lambda-representation site. The list is a complete
    linearly independent spanning set of n^2 - 1 generators in a fixed
    canonical order (seed order for the construction algorithm).
    """
    words = _words(n, diagonal_only=False)
    if len(words) != n * n - 1:
        raise InvalidMatrixError(f"word basis of su({n}) has wrong size {len(words)}")
    return words


def standard_word_center(n: int) -> AbelianSpace:
    """The intrinsic center in word form: all diagonal words (identity excluded)."""
    return AbelianSpace(tuple(_words(n, diagonal_only=True)), hat=False)


def intrinsic_center(n: int) -> AbelianSpace:
    """The intrinsic center subalgebra: the N-1 diagonal generators d_1l."""
    if n < 2:
        raise InvalidSubscriptError("dimension must be at least 2")
    gens = tuple(gen.make_diag(1, l, n) for l in range(2, n + 1))
    return AbelianSpace(gens, hat=False)


def lambda_basis(n: int) -> List[Generator]:
    """The full lambda-representation basis of su(n)."""
    out: List[Generator] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(gen.make_lambda(i, j, n))
            out.append(gen.make_lambda_hat(i, j, n))
    out.extend(gen.make_diag(1, l, n) for l in range(2, n + 1))
    return out


# ---------------------------------------------------------------------------
# Simultaneous diagonalization
# ---------------------------------------------------------------------------

def diagonalize_abelian(space) -> np.ndarray:
    """Unitary U (det 1) with U g U^dag diagonal for every g in the space.

    Returns the identity when the space is already diagonal, so intrinsic
    centers keep their coordinates.
    """
    mats = space.matrices if isinstance(space, AbelianSpace) else [np.asarray(m) for m in space]
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise InvalidMatrixError("matrices must share one square shape")
    if not all_commute(mats, ACCEPT_TOL):
        raise NotAbelianError(f"input set is not abelian (commutator norm > {ACCEPT_TOL:g})")
    if all(frob(m - np.diag(np.diag(m))) < STRUCT_TOL * max(1.0, frob(m)) for m in mats):
        return np.eye(n, dtype=complex)
    return simultaneous_diagonalize(mats)


# ---------------------------------------------------------------------------
# Algorithm: quotient algebra construction
# ---------------------------------------------------------------------------

def _collect_conjugates(seed: np.ndarray, center: np.ndarray, pool: np.ndarray) -> List[int]:
    """Pool indices of the generators [seed, center] produces, in center order, first found first."""
    matches = basis_match(seed @ center - center @ seed, pool)
    for k in matches:
        if k == MATCH_NONE:
            raise BasisNotClosedError("commutator is not proportional to a single basis generator; "
                                      "wrong representation choice for this center")
        if k == MATCH_OFF_LINE:
            raise BasisNotClosedError("commutator leaves the basis span; wrong representation choice")
    return list(dict.fromkeys(k for k in matches if k != MATCH_ZERO))


def build_quotient_algebra(center: AbelianSpace, basis: Sequence[Generator]) -> QuotientAlgebra:
    """Construct the quotient algebra a center subalgebra generates.

    `basis` must be closed in the sense that each commutator with the center
    is proportional to a single basis element (true for word bases and for
    the lambda basis with a diagonal center); otherwise the construction
    signals a wrong representation choice. A seed's commutators with the whole
    center are matched against the unused pool with one Hilbert-Schmidt
    overlap product (`basis_match`), and so are its first conjugate's.
    Commuting fragment pairs are merged according to the binary partitioning.
    """
    n = center.dim
    center.validate()
    cspan = center.span()

    pool = [g for g in basis if g.dim == n and not in_span(g.matrix, cspan)]
    total = span_rank([g.matrix for g in pool] + center.matrices)
    if total != n * n - 1:
        raise InvalidMatrixError(
            f"center plus basis span {total} dimensions, expected {n * n - 1}"
        )
    if span_rank(center.matrices) + len(pool) != n * n - 1:
        raise InvalidMatrixError("basis contains redundant or center-span generators")

    stack = np.array([g.matrix for g in pool])
    cstack = np.array(center.matrices)
    alive = np.ones(len(pool), dtype=bool)
    raw_pairs: List[Tuple[List[Generator], List[Generator]]] = []
    while alive.any():
        live = np.flatnonzero(alive)
        seed, rows = live[0], stack[live]
        hats = live[_collect_conjugates(stack[seed], cstack, rows)]
        if not len(hats):
            raise NotMaximalError(f"{pool[seed]!r} commutes with the whole center; "
                                  "center is not maximal abelian")
        back = live[_collect_conjugates(stack[hats[0]], cstack, rows)]
        ws = [seed] + [i for i in back if i != seed]
        if len(ws) != len(hats):
            raise BasisNotClosedError(
                "reversing step produced a different count; pair sizes disagree"
            )
        raw_pairs.append(([pool[i] for i in ws], [pool[i] for i in hats]))
        alive[ws] = alive[hats] = False

    merged = _merge_pairs(raw_pairs)
    spaces = [space for ws, hats, _ in merged for space in (ws, hats)]
    if not all(all_commute([g.matrix for g in space], ACCEPT_TOL) for space in spaces):
        raise BasisNotClosedError("a conjugate space does not commute; wrong representation choice")
    p = max(1, (n - 1).bit_length())
    pairs = _label_pairs(merged, p)
    qa = QuotientAlgebra(center=center, pairs=tuple(pairs), dim=n, p=p)
    if qa.generator_count() != n * n - 1:
        raise InvalidMatrixError("constructed algebra has the wrong generator count")
    return qa


def _merge_pairs(raw_pairs):
    """Merge commuting fragments sharing one binary-partitioning string.

    Fragments are grouped by the label of their slot_form, and every labeled
    fragment is oriented with its real side as W (the binary-consistent
    option, never the superposition variant), so the unhatted components of
    a group merge together. Fragments with no label, or on the diagonal, pass
    through untouched. Each merged pair comes with its label, or None.
    """
    groups: Dict[object, List[Tuple[List[Generator], List[Generator]]]] = {}
    for ws, hats in raw_pairs:
        form = slot_form([g.matrix for g in ws + hats])
        if form is None or form[0] == 0:
            groups[("opaque", len(groups))] = [(ws, hats)]
            continue
        if not np.real([g.matrix for g in ws]).any():
            ws, hats = hats, ws
        groups.setdefault(form[0], []).append((ws, hats))
    return [([g for ws, _ in frags for g in ws], [g for _, hats in frags for g in hats],
             key if isinstance(key, int) else None) for key, frags in groups.items()]


def _label_pairs(merged, p) -> List[ConjugatePair]:
    labeled = [bits_of(value, p) if value is not None else None for _, _, value in merged]
    if any(lab is None for lab in labeled):
        labeled = _structural_labels(merged, p)
    used = [lab for lab in labeled if lab is not None]
    if len(set(used)) != len(used):
        raise NotBinaryPartitionedError("two pairs carry the same binary string")
    pairs = []
    for (ws, hats, _), lab in zip(merged, labeled):
        w = AbelianSpace(tuple(ws), hat=False, binary_label=lab)
        wh = AbelianSpace(tuple(hats), hat=True, binary_label=lab)
        pairs.append(ConjugatePair(w=w, w_hat=wh, binary_label=lab))
    if len(used) == len(labeled):
        pairs.sort(key=lambda pair: label_int(pair.binary_label))
    return pairs


def _structural_labels(merged, p) -> List[Optional[str]]:
    """Assign binary strings from the pair multiplication structure alone.

    Works when subscript patterns are unavailable (non-diagonal centers):
    pick successive pairs as the 2^r representatives, close the labeling
    under [pair_i, pair_j] -> pair_{i xor j}, and verify consistency.
    """
    count = len(merged)
    spans = [span_rows([g.matrix for g in ws + hats]) for ws, hats, _ in merged]

    def target(i: int, j: int) -> Optional[int]:
        left = [g.matrix for g in merged[i][0][:1] + merged[i][1][:1]]
        right = [g.matrix for g in merged[j][0] + merged[j][1]]
        hits = np.array([commutator_residuals(left, right, s) < SOLVE_TOL for s in spans])
        for hit in hits.reshape(count, -1).T:
            ks = np.flatnonzero(hit)
            if len(ks) == 1 and ks[0] not in (i, j):
                return int(ks[0])
        return None

    labels: List[Optional[int]] = [None] * count
    next_bit = 1
    for i in range(count):
        if labels[i] is not None:
            continue
        labels[i] = next_bit
        next_bit <<= 1
        changed = True
        while changed:
            changed = False
            known = [k for k in range(count) if labels[k] is not None]
            for a in known:
                for b in known:
                    if a >= b:
                        continue
                    t = target(a, b)
                    if t is not None and labels[t] is None:
                        labels[t] = labels[a] ^ labels[b]
                        changed = True
    if any(lab is None or lab == 0 or lab >= (1 << p) for lab in labels):
        return [None] * count
    return [bits_of(lab, p) for lab in labels]


def intrinsic_quotient_algebra(n: int) -> QuotientAlgebra:
    """Quotient algebra of the intrinsic d-center over the lambda basis."""
    return build_quotient_algebra(intrinsic_center(n), lambda_basis(n))


def standard_quotient_algebra(n: int) -> QuotientAlgebra:
    """Intrinsic quotient algebra in the friendliest representation for n.

    Tries the tensor-word basis first. When its commutators with the word
    center leave the basis (N in {9, 10, 14, 15} for N <= 16; the word basis
    closes at N in {2..8, 11, 12, 13, 16}), builds the lambda-representation
    algebra at n itself. That algebra equals the removing process applied to
    the su(2^p) one, 2^(p-1) < n <= 2^p: same pair labels and order, same
    generator matrices.
    """
    try:
        return build_quotient_algebra(standard_word_center(n), standard_basis(n))
    except BasisNotClosedError:
        return intrinsic_quotient_algebra(n)


# ---------------------------------------------------------------------------
# Binary labels
# ---------------------------------------------------------------------------

def _pair_slots(pair: ConjugatePair) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """The label l of a pair's slot_form and the 1-based slots (i, i xor l), i < i xor l, it fills."""
    form = slot_form(pair.all_matrices())
    if form is None:
        raise NotBinaryPartitionedError("pair generators are not on the slots of one binary string")
    label, c = form
    if label == 0:
        raise NotBinaryPartitionedError("pair generators are diagonal; no subscript pattern")
    i = np.flatnonzero(c.any(axis=0))
    i = i[i < i ^ label]
    return label, tuple(zip((i + 1).tolist(), ((i ^ label) + 1).tolist()))


def binary_label_of(pair: ConjugatePair) -> str:
    """The common binary-partitioning string of a pair's lambda subscripts."""
    return bits_of(_pair_slots(pair)[0], max(1, (pair.w.dim - 1).bit_length()))


# ---------------------------------------------------------------------------
# Closure verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureCheck:
    kind: str
    left: str
    right: str
    target: str
    residual: float
    ok: bool


@dataclass(frozen=True)
class ClosureReport:
    checks: Tuple[ClosureCheck, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def failures(self) -> List[ClosureCheck]:
        return [c for c in self.checks if not c.ok]


def _space_name(qa_label: Optional[str], hat: bool, fallback: str) -> str:
    lab = qa_label if qa_label is not None else fallback
    return ("W^_" if hat else "W_") + lab


def verify_closure(qa: QuotientAlgebra, tol: float = SOLVE_TOL) -> ClosureReport:
    """Check every conjugate-pair and cross-pair commutator lands where closure says.

    Within a pair the center acts as the zero element ([W,A] in W^, [W^,A] in
    W, [W,W^] in A). Across pairs the commutator must fall inside one single
    space; when binary labels exist the target must be the xor-labeled pair
    with hat parity flipped exactly when the operand hats agree.

    When every space sits on the slots of one label (its slot_form), as the
    standard and intrinsic algebras do, the checks run in slot coordinates;
    otherwise, as for conjugated algebras, on the dense matrices.
    """
    # Space 0 is the center; pair idx has W at 1 + 2 idx and W^ at 2 + 2 idx.
    spaces = [qa.center] + [space for pair in qa.pairs for space in pair.spaces]
    labels = [pair.binary_label for pair in qa.pairs]
    by_label = {lab: i for i, lab in enumerate(labels) if lab is not None}
    names = ["A"] + [_space_name(lab, hat, str(i + 1))
                     for i, lab in enumerate(labels) for hat in (False, True)]

    # (kind, left, right, target spaces, target name, one check per commutator)
    specs = []
    for idx in range(len(qa.pairs)):
        w, h = 1 + 2 * idx, 2 + 2 * idx
        specs += [("pair-center", w, 0, [h], names[h], True),
                  ("pair-center", h, 0, [w], names[w], True),
                  ("pair-pair", w, h, [0], "A", True)]
    # Without a target label the commutator must still fall in one single space.
    anywhere = list(range(len(spaces)))
    for i in range(len(qa.pairs)):
        for j in range(i + 1, len(qa.pairs)):
            for hi in (False, True):
                for hj in (False, True):
                    targets, tname = anywhere, "single third space"
                    if labels[i] is not None and labels[j] is not None:
                        tgt = bits_of(label_int(labels[i]) ^ label_int(labels[j]), qa.p)
                        if tgt in by_label:
                            targets = [1 + 2 * by_label[tgt] + (not (hi ^ hj))]
                            tname = names[targets[0]]
                        else:
                            tname = f"missing pair {tgt}"
                    specs.append(("cross-pair", 1 + 2 * i + hi, 1 + 2 * j + hj, targets, tname, False))

    # Disjointness: each space is internally independent and the counts sum to
    # the full rank, so pairwise intersections are trivial exactly when the
    # joint rank of all generators equals the generator count.
    forms = [space._slot for space in spaces]
    if all(form is not None for form in forms):
        joint = slot_table([slot_groups(forms)]).ranks.sum()
        table = slot_table([[form] for form in forms])
        mask = np.zeros((len(specs), len(spaces)), dtype=bool)
        for q, spec in enumerate(specs):
            mask[q, spec[3]] = True
        batch = slot_commutator_residuals(table, [s[1] for s in specs], [s[2] for s in specs], mask)
        residuals = [r[: len(spaces[s[1]]), : len(spaces[s[2]])] for r, s in zip(batch, specs)]
    else:
        joint = span_rank(m for space in spaces for m in space.matrices)
        spans = [space.span() for space in spaces]
        residuals = [
            np.min([commutator_residuals(spaces[left].matrices, spaces[right].matrices, spans[t])
                    for t in targets], axis=0)
            for _, left, right, targets, _, _ in specs
        ]

    disjoint = 0.0 if joint == sum(map(len, spaces)) else 1.0
    checks = [ClosureCheck("disjoint", "all spaces", "", "trivial intersections",
                           disjoint, disjoint < tol)]
    for (kind, left, right, _, tname, each), res in zip(specs, residuals):
        values = res.ravel().tolist() if each else [float(res.max())]
        checks += [ClosureCheck(kind, names[left], names[right], tname, r, r < tol) for r in values]
    return ClosureReport(tuple(checks), tol)


# ---------------------------------------------------------------------------
# Removing process
# ---------------------------------------------------------------------------

def removing_process(qa: QuotientAlgebra, n_target: int) -> QuotientAlgebra:
    """Truncate a su(2^p) quotient algebra to su(N), 2^(p-1) < N <= 2^p.

    Deletes every lambda-basis term with a subscript above N: each generator
    keeps m[:N, :N], with entry (0, 0) reset to -trace(m[1:N, 1:N]) (the kept
    d_1l terms). Generators that cut to zero drop out; one left whole keeps a
    Lambda, LambdaHat or d(1, l) label. The pair count and labels survive;
    closure is inherited from the larger algebra.
    """
    two_p = 1 << qa.p
    if qa.dim != two_p:
        raise DimensionMismatchError("removing process starts from a power-of-2 algebra")
    if not ((two_p // 2) < n_target <= two_p):
        raise InvalidSubscriptError(
            f"target dimension {n_target} outside (2^{qa.p - 1}, 2^{qa.p}]"
        )
    if n_target == qa.dim:
        return qa

    def cut(g: Generator) -> Optional[Generator]:
        m = g.matrix[:n_target, :n_target] + 0.0  # a copy; + 0.0 also makes every -0.0 entry 0.0
        m[0, 0] = 0.0 - np.trace(m[1:, 1:])
        if frob(m) < STRUCT_TOL:
            return None
        whole = not np.any(g.matrix[n_target:])  # g is Hermitian: these rows hold every cut entry
        basis = isinstance(g.label, (Lambda, LambdaHat)) or isinstance(g.label, Diag) and g.label.k == 1
        return Generator(g.label if whole and basis else None, n_target, m)

    def cut_space(space: AbelianSpace) -> AbelianSpace:
        kept = [g for g in map(cut, space.generators) if g is not None]
        if not kept:
            raise ClosureViolationError("a conjugate space vanished under removal")
        # Independent survivors only (superposed entries can collapse together).
        out: List[Generator] = []
        for g in kept:
            if not out or not in_span(g.matrix, span_rows([x.matrix for x in out])):
                out.append(g)
        return AbelianSpace(tuple(out), hat=space.hat, binary_label=space.binary_label)

    center = cut_space(qa.center)
    pairs = []
    for pair in qa.pairs:
        w, wh = cut_space(pair.w), cut_space(pair.w_hat)
        if len(w) != len(wh):
            # Re-balance is impossible; sizes must agree by symmetry.
            raise ClosureViolationError("pair sizes diverged during removal")
        pairs.append(ConjugatePair(w=w, w_hat=wh, binary_label=pair.binary_label))
    out = QuotientAlgebra(center=center, pairs=tuple(pairs), dim=n_target, p=qa.p)
    if out.generator_count() != n_target * n_target - 1:
        raise ClosureViolationError(
            f"removal kept {out.generator_count()} generators, "
            f"expected {n_target * n_target - 1}"
        )
    return out


# ---------------------------------------------------------------------------
# Subscript tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubscriptTable:
    """Rows of unordered integer pairs, one row per conjugate pair."""

    rows: Tuple[Tuple[Tuple[int, int], ...], ...]
    labels: Tuple[Optional[str], ...] = None

    def __post_init__(self):
        norm_rows = []
        for row in self.rows:
            seen = set()
            norm = []
            for (i, j) in row:
                if i == j:
                    raise InvalidSubscriptError("subscript pair with equal entries")
                if i in seen or j in seen:
                    raise InvalidSubscriptError(
                        f"integer repeated within a row: {sorted((i, j))}"
                    )
                seen.update((i, j))
                norm.append((min(i, j), max(i, j)))
            norm_rows.append(tuple(sorted(norm)))
        object.__setattr__(self, "rows", tuple(norm_rows))
        if self.labels is None:
            object.__setattr__(self, "labels", tuple([None] * len(self.rows)))

    def multiply_rows(self, a: int, b: int) -> List[Tuple[int, int]]:
        """All products (i,j)*(j,k) = (i,k) between two rows."""
        out = []
        for (i, j) in self.rows[a]:
            for (k, l) in self.rows[b]:
                shared = {i, j} & {k, l}
                if len(shared) == 1:
                    s = shared.pop()
                    x = (({i, j} | {k, l}) - {s})
                    u, v = sorted(x)
                    out.append((u, v))
        return out

    def check_closure(self) -> List[str]:
        """Violation messages; empty when every row product fits one row.

        A product set must itself be a partial matching (no repeated integer)
        and, when a table row contains any of its pairs, must lie entirely
        inside that row.
        """
        problems = []
        for a in range(len(self.rows)):
            for b in range(a + 1, len(self.rows)):
                prods = self.multiply_rows(a, b)
                seen: Dict[int, Tuple[int, int]] = {}
                for (i, j) in prods:
                    for x in (i, j):
                        if x in seen and seen[x] != (i, j):
                            problems.append(
                                f"rows {a + 1}x{b + 1}: products repeat integer {x}; "
                                "no single row can hold them"
                            )
                            break
                        seen[x] = (i, j)
                hosts = [
                    r for r, row in enumerate(self.rows)
                    if any(pr in row for pr in prods)
                ]
                for r in hosts:
                    missing = [pr for pr in prods if pr not in self.rows[r]]
                    if missing and len(hosts) > 1:
                        problems.append(
                            f"rows {a + 1}x{b + 1}: products split across rows"
                        )
                        break
        return sorted(set(problems))


def subscript_table_of(qa: QuotientAlgebra) -> SubscriptTable:
    """Slot table of a lambda-representation quotient algebra."""
    if not qa.labeled:
        raise NotBinaryPartitionedError("subscript table needs a labeled algebra")
    rows = tuple(_pair_slots(pair)[1] for pair in qa.pairs)
    return SubscriptTable(rows, tuple(p.binary_label for p in qa.pairs))


# ---------------------------------------------------------------------------
# Conjugation transport
# ---------------------------------------------------------------------------

def conjugate_quotient_algebra(qa: QuotientAlgebra, u: np.ndarray) -> QuotientAlgebra:
    """Transport {Q(C)} to U^dag {Q(C)} U; structure constants are unchanged."""
    if u.shape != (qa.dim, qa.dim):
        raise DimensionMismatchError("conjugating unitary has the wrong shape")

    def move(space: AbelianSpace) -> AbelianSpace:
        gens = tuple(
            Generator(None, qa.dim, dagger(u) @ g.matrix @ u) for g in space.generators
        )
        return AbelianSpace(gens, hat=space.hat, binary_label=space.binary_label)

    pairs = tuple(
        ConjugatePair(w=move(p.w), w_hat=move(p.w_hat), binary_label=p.binary_label)
        for p in qa.pairs
    )
    return QuotientAlgebra(center=move(qa.center), pairs=pairs, dim=qa.dim, p=qa.p)
