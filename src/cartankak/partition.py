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
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import generators as gen
from ._linalg import (
    MATCH_NONE,
    MATCH_OFF_LINE,
    SOLVE_TOL,
    STRUCT_TOL,
    SlotTable,
    all_commute,
    basis_match,
    dagger,
    frob,
    in_span,
    simultaneous_diagonalize,
    slot_bracket,
    slot_commutator_residuals,
    slot_commute,
    slot_forms,
    slot_table,
    span_rank,
    span_rows,
)
from .errors import (
    BasisNotClosedError,
    ClosureViolationError,
    DecompositionError,
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidSubscriptError,
    NotAbelianError,
    NotBinaryPartitionedError,
    NotMaximalError,
)
from .generators import Diag, Generator, Lambda, LambdaHat, TensorWord

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

    def validate(self):
        """Commuting and independent; read off the slot forms when every generator has one."""
        if not self.commutes():
            raise NotAbelianError("space generators do not commute")
        rank = self._units.ranks.sum() if self._slot else span_rank(self.matrices)
        if rank != len(self.generators):
            raise InvalidMatrixError("space generators are linearly dependent")

    def span(self) -> np.ndarray:
        return span_rows(self.matrices)

    @functools.cached_property
    def _forms(self):
        """slot_forms of the generators; kept, as they are immutable."""
        return slot_forms(self.matrices)

    def commutes(self) -> bool:
        """Whether the generators commute; read off the slot forms when every generator has one."""
        if len(self) < 2:
            return True
        return slot_commute(*self._forms) if self._slot else all_commute(self.matrices)

    @property
    def _slot(self) -> bool:
        return bool((self._forms[0] >= 0).all())

    @functools.cached_property
    def _units(self) -> SlotTable:
        """_slot_units of the slot forms (every label >= 0); kept, as the forms are."""
        return _slot_units(*self._forms)

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

    # The frame (_build_slot_frame) and the closure table (_algebra_closure), each
    # built on first use and kept.
    _frame = functools.cached_property(lambda self: _build_slot_frame(self))
    _closure = functools.cached_property(lambda self: _algebra_closure(self))

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
    symbols = [_site_symbols(d, diagonal_only) for d in gen.standard_sites(n)]
    mats = gen.word_matrices([[gen.site_factors(s)[1] for s in syms] for syms in symbols])
    # Each site lists its identity first, so word 0 is the all-identity word,
    # the one word that is not traceless.
    combos = itertools.islice(itertools.product(*symbols), 1, None)
    return gen.generators_of_stack(map(TensorWord, combos), mats[1:])


def standard_basis(n: int) -> List[Generator]:
    """Word basis of su(n): tensor products over the standard site split.

    For n = 2^a 3^b ... the sites are the prime factors in decreasing order;
    a prime n is a single lambda-representation site. The list is a complete
    linearly independent spanning set of n^2 - 1 generators in a fixed
    canonical order (seed order for the construction algorithm).
    """
    return _words(n, diagonal_only=False)


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
    u = _eigenframe(mats)
    return np.eye(n, dtype=complex) if u is None else u


def _eigenframe(mats, check=True) -> Optional[np.ndarray]:
    """diagonalize_abelian of matrices of one shape, None for the identity. With
    check=False non-diagonal matrices are not checked to commute: a frame
    (_index_frame) needs no such check, as the center must be diagonal in it."""
    if all(frob(m - np.diag(np.diag(m))) < STRUCT_TOL * max(1.0, frob(m)) for m in mats):
        return None  # diagonal matrices commute
    if check and not all_commute(mats):
        raise NotAbelianError("input set is not abelian")
    return simultaneous_diagonalize(mats)


# ---------------------------------------------------------------------------
# Algorithm: quotient algebra construction
# ---------------------------------------------------------------------------

def _matched(ks) -> List[int]:
    """The distinct basis_match indices ks of one generator's commutators with the
    center, first found first; raises on a commutator that is not a multiple of one
    pool generator."""
    for k in ks:
        if k == MATCH_NONE:
            raise BasisNotClosedError("commutator is not proportional to a single basis generator; "
                                      "wrong representation choice for this center")
        if k == MATCH_OFF_LINE:
            raise BasisNotClosedError("commutator leaves the basis span; wrong representation choice")
    return list(dict.fromkeys(k for k in ks if k >= 0))


def _xor_cosets(values, span):
    """The cosets of values under the XOR group span generates, by least member: the
    positions in values sorted by coset, each coset ascending, and the coset sizes."""
    group = [0]
    for label in span:
        if label not in group:
            group += [g ^ label for g in group]
    key = (np.asarray(values)[:, None] ^ np.array(group)).min(axis=1)  # each coset's least member
    sizes = np.bincount(key)
    return np.argsort(key, kind="stable"), sizes[sizes > 0]


def _conjugate_fragments(pool, center, labels, c, slot):
    """The (ws, hats) pool index lists of every seed, in seed order: the greedy peel of
    build_quotient_algebra in lockstep rounds, one seed per coset of the center's label
    group a round (the pool is one coset without slot forms). A step that fails ends
    its coset, and the failure of the least seed, the one the greedy order reaches
    first, is raised."""
    if slot:
        clabels, cc = center._forms
        order, sizes = _xor_cosets(labels, clabels.tolist())
        valid = np.arange(sizes.max()) < sizes[:, None]  # a table of each coset's indices
        table = np.zeros(valid.shape, dtype=int)
        table[valid] = order
        row_labels, vecs = labels, c

        def bracket(ix):
            return slot_bracket(labels[ix, None], c[ix, None], clabels[None], cc[None])
    else:  # one coset; every row and commutator on one dummy label
        table, valid = np.arange(len(pool))[None], np.ones((1, len(pool)), dtype=bool)
        mats, cmats = np.array([g.matrix for g in pool]), np.array(center.matrices)
        row_labels, vecs = np.zeros(len(pool), dtype=int), mats.reshape(len(pool), -1)

        def bracket(ix):
            x = mats[ix, None]
            return (np.zeros((len(ix), len(cmats)), dtype=int),
                    (x @ cmats - cmats @ x).reshape(len(ix), len(cmats), -1))

    alive, coset_vecs, coset_labels = valid.copy(), vecs[table], row_labels[table]

    def match(ix, cosets):
        """basis_match of the commutators of pool rows ix, each against its coset's live rows."""
        xl, xs = bracket(ix)
        live = (xl[:, :, None] == coset_labels[cosets, None]) & alive[cosets, None]
        return basis_match(xs, coset_vecs[cosets], live)

    found, failed = [], []  # (seed, ws, hats); (seed, error)
    active = np.arange(len(table))
    while len(active := active[alive[active].any(axis=1)]):
        first = alive[active].argmax(axis=1)
        steps = []  # (coset, seed position, hats positions)
        for g, f, ks in zip(active.tolist(), first.tolist(), match(table[active, first], active)):
            try:
                hats = _matched(ks)
                if not hats:
                    raise NotMaximalError(f"{pool[table[g, f]]!r} commutes with the whole center; "
                                          "center is not maximal abelian")
                steps.append((g, f, hats))
            except (BasisNotClosedError, NotMaximalError) as exc:
                failed.append((table[g, f], exc))
                alive[g] = False
        if not steps:
            continue
        cosets = np.array([g for g, _, _ in steps])
        back = match(table[cosets, [hats[0] for _, _, hats in steps]], cosets)
        for (g, f, hats), ks in zip(steps, back):
            try:
                ws = [f] + [k for k in _matched(ks) if k != f]
            except BasisNotClosedError as exc:
                failed.append((table[g, f], exc))
                alive[g] = False
                continue
            found.append((table[g, f], table[g, ws].tolist(), table[g, hats].tolist()))
            alive[g, ws] = alive[g, hats] = False
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [(ws, hats) for _, ws, hats in sorted(found, key=lambda f: f[0])]


def build_quotient_algebra(center: AbelianSpace, basis: Sequence[Generator]) -> QuotientAlgebra:
    """Construct the quotient algebra a center subalgebra generates.

    `basis` must be closed in the sense that each commutator with the center
    is proportional to a single basis element (true for word bases and for
    the lambda basis with a diagonal center); otherwise the construction
    signals a wrong representation choice. The pool is peeled greedily: the
    first unused generator is a seed, its conjugates (its commutators with
    the center, matched against the unused pool by Hilbert-Schmidt overlap)
    form W^, and those of W^'s first generator form W. A commutator [g, a]
    sits on label l_g ^ l_a, so the peel runs in lockstep rounds, one seed
    per coset of the center's label group and one batched basis_match per
    round and side (_conjugate_fragments); the cosets never share a pool
    generator, so the fragments, and the first error, are the greedy ones.
    Commuting fragment pairs are merged according to the binary partitioning.

    When every generator of the center and the basis has a slot form, as the
    lambda basis and the word bases with at most one odd site do, the span,
    membership and commute checks and the matching read those forms;
    otherwise they run on the dense matrices, with the whole pool as one coset.
    """
    n = center.dim
    center.validate()
    basis = [g for g in basis if g.dim == n]
    labels, c = slot_forms(np.reshape([g.matrix for g in basis], (-1, n, n)))
    clabels, cc = center._forms
    slot = (labels >= 0).all() and (clabels >= 0).all()
    if slot:
        keep = np.flatnonzero(~_slot_in_span(labels, c, center._units))
        total = _slot_rank(np.concatenate([labels[keep], clabels]), np.concatenate([c[keep], cc]))
    else:
        cspan = center.span()
        keep = [i for i, g in enumerate(basis) if not in_span(g.matrix, cspan)]
        total = span_rank([basis[i].matrix for i in keep] + center.matrices)
    pool, labels, c = [basis[i] for i in keep], labels[keep], c[keep]
    if total != n * n - 1:
        raise InvalidMatrixError(
            f"center plus basis span {total} dimensions, expected {n * n - 1}"
        )
    if len(center) + len(pool) != n * n - 1:  # validate() checked len(center) is its rank
        raise InvalidMatrixError("basis contains redundant or center-span generators")

    merged = _merge_pairs(_conjugate_fragments(pool, center, labels, c, slot), labels, c)
    spaces = [ix for ws, hats, _ in merged for ix in (ws, hats)]
    if slot:
        by_size: Dict[int, List[List[int]]] = {}
        for ix in spaces:
            by_size.setdefault(len(ix), []).append(ix)
        commuting = all(slot_commute(labels[ix], c[ix]).all()
                        for ix in map(np.array, by_size.values()))
    else:
        commuting = all(all_commute([pool[i].matrix for i in ix]) for ix in spaces)
    if not commuting:
        raise BasisNotClosedError("a conjugate space does not commute; wrong representation choice")
    p = max(1, (n - 1).bit_length())
    pairs, frame = _label_pairs([([pool[i] for i in ws], [pool[i] for i in hats], label)
                                 for ws, hats, label in merged], center, p)
    qa = QuotientAlgebra(center=center, pairs=tuple(pairs), dim=n, p=p)
    if frame is not None:  # the G = P U that _build_slot_frame would find again
        qa.__dict__["_frame"] = frame
    return qa


def _by_label(labels):
    """(label, matrix indices) for each label of per-matrix forms, in label order."""
    return [(label, np.flatnonzero(labels == label)) for label in sorted(set(labels.tolist()))]


def _slot_units(labels, c) -> SlotTable:
    """slot_table of per-matrix forms, one unit per label. One block, so its
    ranks sum to span_rank of the matrices (the same singular value rule)."""
    return slot_table([[(label, c[ix]) for label, ix in _by_label(labels)]])


def _slot_rank(labels, c) -> int:
    """_slot_units(labels, c).ranks.sum(), from one stacked SVD without singular vectors."""
    units = _by_label(labels)
    coef = np.zeros((len(units), max(len(ix) for _, ix in units), c.shape[1]), complex)
    for row, (_, ix) in zip(coef, units):
        row[: len(ix)] = c[ix]
    s = np.linalg.svd(coef.view(float), compute_uv=False)
    return int((s > SOLVE_TOL * max(1.0, s.max())).sum())


def _slot_in_span(labels, c, table: SlotTable) -> np.ndarray:
    """in_span of each form against the span of the table's units, label by label."""
    vecs, norms = c.view(float), np.linalg.norm(c, axis=1)
    resid = norms.copy()  # no unit on its label: the whole form is off the span
    for label, rows in zip(table.labels, table.rows):
        on = labels == label
        resid[on] = np.linalg.norm(vecs[on] - (vecs[on] @ rows.T) @ rows, axis=1)
    return (norms == 0) | (resid < SOLVE_TOL * norms)


def _merge_pairs(raw_pairs, labels, c):
    """Merge commuting fragments sharing one binary-partitioning string.

    Fragments are pool index lists (ws, hats), grouped by the common label of
    their generators' slot forms, and every labeled fragment is oriented with
    its real side as W (the binary-consistent option, never the superposition
    variant), so the unhatted components of a group merge together.
    Fragments with no common label, or on the diagonal, pass through
    untouched. Each merged pair comes with its label, or None.
    """
    groups: Dict[object, List[Tuple[List[int], List[int]]]] = {}
    for ws, hats in raw_pairs:
        found = labels[ws + hats]
        if found[0] <= 0 or (found != found[0]).any():
            groups[("opaque", len(groups))] = [(ws, hats)]
            continue
        if not c[ws].real.any():
            ws, hats = hats, ws
        groups.setdefault(int(found[0]), []).append((ws, hats))
    return [([i for ws, _ in frags for i in ws], [i for _, hats in frags for i in hats],
             key if isinstance(key, int) else None) for key, frags in groups.items()]


def _pair(ws, hats, label: Optional[str]) -> ConjugatePair:
    return ConjugatePair(AbelianSpace(tuple(ws), hat=False, binary_label=label),
                         AbelianSpace(tuple(hats), hat=True, binary_label=label), label)


def _label_pairs(merged, center, p):
    """The merged fragments' pairs, by label if labeled, and _structural_labels' frame or None."""
    if any(value is None for _, _, value in merged):
        pairs, frame = _structural_labels(merged, center, p)
    else:
        pairs, frame = [_pair(ws, hats, bits_of(value, p)) for ws, hats, value in merged], None
    if None not in (pair.binary_label for pair in pairs):
        pairs.sort(key=lambda pair: label_int(pair.binary_label))
    return pairs, frame


def _structural_labels(merged, center, p):
    """Assign binary strings from the pair multiplication structure alone.

    Works when subscript patterns are unavailable (non-diagonal centers). In
    the center's eigenframe U each pair's support is a partner map sigma_k
    (_partner_map; -1 on a row without a partner, as at N != 2^p). The target
    of pairs a, b is the one other pair k whose sigma_k agrees with
    sigma_a o sigma_b wherever that composition moves an index. Pick
    successive pairs as the 2^r representatives and close the labeling under
    the targets. The labels must be distinct strings 1 .. 2^p - 1 that a frame
    G = P U realizes (_index_frame); otherwise there are none. Then hat parity
    fixes the sides of every pair c off a power of 2, read off the frame forms:
    W and W^ swap unless -i[W_a, W_b] lands in W^_c, a = c & -c, b = c ^ a;
    b has a bit fewer, so one _span_residuals call decides each bit count in
    turn. Returns the pairs so labeled and oriented, in merge order, and the
    frame, which holds their forms; or the unlabeled pairs and None.
    """
    count = len(merged)
    u = _eigenframe(center.matrices, check=False)  # build_quotient_algebra validated the center
    sigma = np.array([_partner_map(u, [g.matrix for g in ws + hats]) for ws, hats, _ in merged])

    @functools.cache
    def target(a: int, b: int) -> Optional[int]:
        x = np.flatnonzero(sigma[b] >= 0)
        y = sigma[a, sigma[b, x]]
        moved = (y >= 0) & (y != x)
        hits = (sigma[:, x[moved]] == y[moved]).all(axis=1)
        hits[[a, b]] = False
        ks = np.flatnonzero(hits)
        return int(ks[0]) if moved.any() and len(ks) == 1 else None

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
            for a, b in itertools.combinations(known, 2):
                t = target(a, b)
                if t is not None and labels[t] is None:
                    labels[t] = labels[a] ^ labels[b]
                    changed = True
    unlabeled = [_pair(ws, hats, None) for ws, hats, _ in merged], None
    if (any(lab is None or lab == 0 or lab >= (1 << p) for lab in labels)
            or len(set(labels)) < count):
        return unlabeled
    pairs = [_pair(ws, hats, bits_of(lab, p)) for (ws, hats, _), lab in zip(merged, labels)]
    frame = _index_frame(u, [(0, center)] + [(lab, s) for lab, pair in zip(labels, pairs)
                                             for s in pair.spaces], p)
    if frame is None:
        return unlabeled
    at = {lab: k for k, lab in enumerate(labels)}
    for bits in sorted({bin(c).count("1") for c in at} - {1}):
        cs = [c for c in sorted(at) if bin(c).count("1") == bits]
        forms = [frame.forms(space) for c in cs for space in
                 (pairs[at[c & -c]].w, pairs[at[c ^ (c & -c)]].w, pairs[at[c]].w_hat)]
        worst = _span_residuals(forms, [(3 * j, 3 * j + 1, [3 * j + 2]) for j in range(len(cs))])[2]
        for c in np.array(cs)[worst > SOLVE_TOL].tolist():
            old = pairs[at[c]]
            pairs[at[c]] = new = _pair(old.w_hat.generators, old.w.generators, old.binary_label)
            frame.cache[new.w], frame.cache[new.w_hat] = frame.forms(old.w_hat), frame.forms(old.w)
    return pairs, frame


def intrinsic_quotient_algebra(n: int) -> QuotientAlgebra:
    """Quotient algebra of the intrinsic d-center over the lambda basis."""
    return build_quotient_algebra(intrinsic_center(n), lambda_basis(n))


def standard_quotient_algebra(n: int) -> QuotientAlgebra:
    """Intrinsic quotient algebra in the friendliest representation for n.

    The word basis for one prime site, or when every site is 2 but at most one
    3 (as a trial build finds for N = 2..32): Pauli products stay single words;
    for d >= 5 the products of the d(1, l) symbols, and the products across two
    odd sites, leave the basis. Otherwise the lambda representation at n, equal
    to the removing process applied to su(2^p), 2^(p-1) < n <= 2^p.
    """
    sites = gen.standard_sites(n)
    if len(sites) == 1 or sites[0] <= 3 and set(sites[1:]) <= {2}:
        return build_quotient_algebra(standard_word_center(n), standard_basis(n))
    return intrinsic_quotient_algebra(n)


# ---------------------------------------------------------------------------
# Binary labels
# ---------------------------------------------------------------------------

def _pair_slots(pair: ConjugatePair) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """The common label l of a pair's slot forms and the 1-based slots (i, i xor l), i < i xor l,
    they fill."""
    labels, c = map(np.concatenate, zip(pair.w._forms, pair.w_hat._forms))
    label = labels[0]
    if label < 0 or (labels != label).any():
        raise NotBinaryPartitionedError("pair generators are not on the slots of one binary string")
    if label == 0:
        raise NotBinaryPartitionedError("pair generators are diagonal; no subscript pattern")
    i = np.flatnonzero(c.any(axis=0))
    i = i[i < i ^ label]
    return label, tuple(zip((i + 1).tolist(), ((i ^ label) + 1).tolist()))


def binary_label_of(pair: ConjugatePair) -> str:
    """The common binary-partitioning string of a pair's lambda subscripts."""
    return bits_of(_pair_slots(pair)[0], max(1, (pair.w.dim - 1).bit_length()))


# ---------------------------------------------------------------------------
# The frame: one per algebra, every generator on its own pair's XOR slots
# ---------------------------------------------------------------------------

def _in_frame(g: Optional[np.ndarray], mats) -> np.ndarray:
    """G m G^dag for each m of a stack (a copy of m when G is None), every entry below
    STRUCT_TOL |m| set to exact zero: the one rule that reads slots in the frame."""
    mats = np.array(mats, dtype=complex) if g is None else g @ np.asarray(mats) @ dagger(g)
    size = np.abs(mats)
    mats[size < STRUCT_TOL * np.sqrt(np.einsum("kij,kij->k", size, size))[:, None, None]] = 0.0
    return mats


@dataclass(frozen=True)
class _SlotFrame:
    """G = P U: U diagonalizes an algebra's center and the index order P puts every
    pair on the XOR slots (i, i ^ l) of its own label l. matrix is G, or None when
    G is the identity. It holds no reference to the algebra."""

    matrix: Optional[np.ndarray]
    cache: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)

    def __reduce__(self):  # a copy or a pickle starts with an empty cache
        return type(self), (self.matrix,)

    def forms(self, space: AbelianSpace):
        """The slot forms (labels, c) of a space's generators in the frame, kept per space."""
        if space not in self.cache:
            self.read([space])
        return self.cache[space]

    def read(self, spaces):
        """Keep the forms of several spaces, read with one _in_frame and one slot_forms."""
        spaces = [space for space in spaces if space not in self.cache]
        if spaces:
            labels, c = slot_forms(_in_frame(self.matrix, [m for s in spaces for m in s.matrices]))
            for space, end in zip(spaces, np.cumsum([len(space) for space in spaces])):
                self.cache[space] = labels[end - len(space) : end], c[end - len(space) : end]

    def entries(self, space: AbelianSpace, label: int) -> np.ndarray:
        """c[a, i]: generator a's entry (i, i ^ label) in the frame, 0 if it is on another label."""
        labels, c = self.forms(space)
        return np.where((labels == label)[:, None], c, 0.0)


def _partner_map(u: Optional[np.ndarray], mats) -> np.ndarray:
    """sigma[i]: the one index that row i of a (k, N, N) stack's joint support reaches in
    the frame u (the matrices themselves when u is None), -1 where it reaches none or several."""
    hit = (_in_frame(u, mats) != 0).any(axis=0)
    return np.where(hit.sum(axis=1) == 1, hit.argmax(axis=1), -1)


def _index_frame(u, spaces, p: int) -> Optional[_SlotFrame]:
    """G = P U for the (label, space) items of an algebra, center first, with P found by
    walking the partner maps (_partner_map) of the pairs labeled 2^r in U's eigenframe: from a start
    at position 0, position x takes the partner under x's lowest bit of position x less
    that bit. The first start that puts every generator on its label gives P; None when
    no start does."""
    n = spaces[0][1].dim
    partner = [_partner_map(u, np.reshape([m for label, s in spaces if label == 1 << r
                                           for m in s.matrices], (-1, n, n))).tolist() + [-1]
               for r in range(p)]  # the extra last -1 answers a = -1
    for start in range(n):
        order = [start]
        for x in range(1, n):
            order.append(partner[(x & -x).bit_length() - 1][order[x & (x - 1)]])
        if sorted(order) == list(range(n)):
            g = np.eye(n)[order] if u is None else u[order]
            frame = _SlotFrame(None if np.array_equal(g, np.eye(n)) else g)
            frame.read([s for _, s in spaces])
            if all((frame.forms(s)[0] == label).all() for label, s in spaces):
                return frame
    return None


def _build_slot_frame(qa: QuotientAlgebra) -> Optional[_SlotFrame]:
    """The algebra's frame (QuotientAlgebra._frame), or None when no index order puts
    every generator on its pair's label: an unlabeled algebra, a pair whose generators
    are off its label, or a center that does not diagonalize."""
    try:
        u = _eigenframe(qa.center.matrices, check=False)
    except (DecompositionError, InvalidMatrixError):
        return None
    return _index_frame(u, [(0, qa.center)] + [
        (label_int(pair.binary_label) if pair.binary_label else -2, s)  # -2: on no label
        for pair in qa.pairs for s in pair.spaces], qa.p)


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


def _span_residuals(forms, items):
    """One measurement of a family of spaces and of the commutators between them.

    forms holds the slot forms (labels, c) of each space's generators, every
    label >= 0. Returns the spaces' ranks and that of all of them together;
    per item (left, right, targets, ...) of space indices, the residuals
    project_residual(-i[g, h], span) against each target's span (0 where
    |[g, h]| < STRUCT_TOL), the smallest over the targets (with none, 1 where
    a commutator does not vanish), their largest and the largest commutator
    norm; and the largest |Tr(g h)| between two spaces' generators.

    Each space splits into one unit per label. Supports on different labels
    are Hilbert-Schmidt orthogonal, so a span's rank is the sum of its units'
    ranks, a commutator on label l projects onto a span through its unit on
    l alone, and Tr(g h), the real inner product of the entries, is that of
    two forms on one label.
    """
    labels, c = map(np.concatenate, zip(*forms))
    sizes = np.array([len(form[0]) for form in forms])
    starts, x = np.cumsum(sizes) - sizes, c.view(float)
    trace = np.abs(x @ x.T) * (labels[:, None] == labels)
    trace = np.maximum.reduceat(np.maximum.reduceat(trace, starts, axis=0), starts, axis=1)
    units = [_by_label(labels) for labels, _ in forms]
    count = np.array([len(us) for us in units])  # units per space, numbered space by space
    first = np.cumsum(count) - count
    table = slot_table([[(label, c[ix]) for label, ix in us] for us, (_, c) in zip(units, forms)])
    ranks = [table.ranks[u : u + len(us)].sum() for u, us in zip(first, units)]
    ranks.append(_slot_rank(labels, c))
    unit_of = np.full((len(forms), table.coef.shape[2]), -1)  # the unit of (space, label)
    at = np.full(table.coef.shape[:2], -1)  # each unit row's generator within its space
    for g, us in enumerate(units):
        for u, (label, ix) in enumerate(us, first[g]):
            unit_of[g, label], at[u, : len(ix)] = u, ix
    # Every unit of an item's left space against every unit of its right space.
    left, right = np.array([it[:2] for it in items]).T
    width = max(1, max(len(it[2]) for it in items))
    targets = np.array([list(it[2]) + [-1] * (width - len(it[2])) for it in items])
    pairs = count[left] * count[right]
    item = np.repeat(np.arange(len(items)), pairs)
    k = np.arange(len(item)) - (np.cumsum(pairs) - pairs)[item]
    lu = first[left[item]] + k // count[right[item]]
    ru = first[right[item]] + k % count[right[item]]
    label = (table.labels[lu] ^ table.labels[ru])[:, None]
    tu = np.where(targets[item] >= 0, unit_of[targets[item], label], -1)
    full, norms = np.zeros((len(items), sizes[left].max(), sizes[right].max())), np.zeros(len(items))
    for c, res, size in slot_commutator_residuals(table, lu, ru, tu):
        _, a, b = res.shape
        full[item[c, None, None], at[lu[c], :a, None], at[ru[c], None, :b]] = res
        np.maximum.at(norms, item[c], size.max(axis=(1, 2)))
    return (ranks, [full[q, : sizes[a], : sizes[b]] for q, (a, b) in enumerate(zip(left, right))],
            full.max(axis=(1, 2)), norms, trace)


class _Closure(NamedTuple):
    """A family of spaces, where their commutators must land, and _span_residuals of that.

    specs[k] = (left, right, targets[, kind, target name]) names two spaces,
    every unordered pair once and each space with itself, and the spaces
    their commutators must land in (none: they must vanish). verify_closure
    reports the specs that have a kind.
    """

    spaces: Tuple[AbelianSpace, ...]
    names: Optional[List[str]]
    specs: List[tuple]
    ranks: List[int]
    residuals: List[np.ndarray]
    worst: List[float]
    norms: List[float]
    trace: np.ndarray


def _closure_table(qa: QuotientAlgebra, spaces, names, specs) -> _Closure:
    """The _Closure of specs over spaces, measured on the spaces' forms in the algebra's
    frame (QuotientAlgebra._frame), or on their own forms (AbelianSpace._forms) when it
    has none. Closure is invariant under the frame's conjugation. A space off the slot
    forms is named by names ("A", "W_0011", ...), or by its repr when there are none."""
    frame = qa._frame
    forms = [space._forms if frame is None else frame.forms(space) for space in spaces]
    for k, (space, (labels, _)) in enumerate(zip(spaces, forms)):
        if (labels < 0).any():
            name = names[k] if names else repr(space)
            raise NotBinaryPartitionedError(f"{name} has a generator off every single label")
    return _Closure(tuple(spaces), names, specs, *_span_residuals(forms, specs))


def _algebra_closure(qa: QuotientAlgebra) -> _Closure:
    """Within a pair the center acts as the zero element ([W,A] in W^, [W^,A] in
    W, [W,W^] in A). Across pairs the commutator must fall inside one single
    space; when binary labels exist the target must be the xor-labeled pair
    with hat parity flipped exactly when the operand hats agree.
    """
    # Space 0 is the center; pair idx has W at 1 + 2 idx and W^ at 2 + 2 idx.
    spaces = [qa.center] + [space for pair in qa.pairs for space in pair.spaces]
    labels = [pair.binary_label for pair in qa.pairs]
    by_label = {lab: i for i, lab in enumerate(labels) if lab is not None}
    names = ["A"] + [("W^_" if hat else "W_") + (lab or str(i + 1))
                     for i, lab in enumerate(labels) for hat in (False, True)]
    specs = []
    for idx in range(len(qa.pairs)):
        w, h = 1 + 2 * idx, 2 + 2 * idx
        specs += [(w, 0, [h], "pair-center", names[h]),
                  (h, 0, [w], "pair-center", names[w]),
                  (w, h, [0], "pair-pair", "A")]
    anywhere = list(range(len(spaces)))  # without a target label: one single space
    for i, j in itertools.combinations(range(len(qa.pairs)), 2):
        tgt = (bits_of(label_int(labels[i]) ^ label_int(labels[j]), qa.p)
               if labels[i] is not None and labels[j] is not None else None)
        for hi, hj in itertools.product((False, True), repeat=2):
            if tgt in by_label:
                k = 1 + 2 * by_label[tgt] + (not (hi ^ hj))
                targets, tname = [k], names[k]
            else:
                targets, tname = anywhere, "single third space" if tgt is None else f"missing pair {tgt}"
            specs.append((1 + 2 * i + hi, 1 + 2 * j + hj, targets, "cross-pair", tname))
    specs += [(k, k, []) for k in range(len(spaces))]
    return _closure_table(qa, spaces, names, specs)


def verify_closure(qa: QuotientAlgebra) -> ClosureReport:
    """Check every conjugate-pair and cross-pair commutator lands where closure says.

    Reads the algebra's closure table (QuotientAlgebra._closure), measured in
    slot coordinates: in the algebra's frame, the identity for every standard
    and intrinsic build, where every generator sits on its pair's label, and
    for an algebra without a frame (unlabeled, or a pair off its label) on
    each generator's own slot form. A check passes below SOLVE_TOL, the
    report's tol.
    """
    table = qa._closure
    # Disjointness: each space is internally independent and the counts sum to
    # the full rank, so pairwise intersections are trivial exactly when the
    # joint rank of all generators equals the generator count.
    disjoint = float(table.ranks[-1] != sum(map(len, table.spaces)))
    checks = [ClosureCheck("disjoint", "all spaces", "", "trivial intersections",
                           disjoint, disjoint < SOLVE_TOL)]
    for (left, right, _, *named), res, worst in zip(table.specs, table.residuals, table.worst):
        if named:
            kind, tname = named
            values = [float(worst)] if kind == "cross-pair" else res.ravel().tolist()
            checks += [ClosureCheck(kind, table.names[left], table.names[right], tname, r,
                                    r < SOLVE_TOL) for r in values]
    return ClosureReport(tuple(checks), SOLVE_TOL)


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
    """Transport {Q(C)} to U^dag {Q(C)} U; structure constants are unchanged.

    The moved generators have no slot forms of their own, but the moved
    algebra's frame (QuotientAlgebra._frame) undoes U, so its closure and
    splits are measured on the same slot forms.
    """
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
