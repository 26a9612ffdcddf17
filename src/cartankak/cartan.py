"""Cartan splits, maximal abelian subalgebras, and decomposition sequences.

A quotient algebra with 2^p - 1 labeled conjugate pairs admits exactly 2^p
Cartan decompositions: the W-or-conjugate selection is free at the pairs
labeled 2^r and forced everywhere else by the condition of closure. The same
closure drives the level-by-level designation of center subalgebras that
directs the recursive factorization, and the shell extension that enumerates
maximal abelian subalgebras.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ._linalg import (
    ACCEPT_TOL,
    SOLVE_TOL,
    STRUCT_TOL,
    all_commute,
    frob,
    in_span,
    span_fingerprint,
    span_rows,
    spans_equal,
)
from .errors import (
    BasisNotClosedError,
    InvalidChoiceError,
    InvalidMatrixError,
    NotAbelianError,
    NotBinaryPartitionedError,
    NotInSpanError,
    NotMaximalError,
)
from .generators import Generator
from .partition import (
    AbelianSpace,
    QuotientAlgebra,
    _closure_table,
    _xor_cosets,
    bits_of,
    build_quotient_algebra,
    conjugate_quotient_algebra,
    diagonalize_abelian,
    intrinsic_quotient_algebra,
    label_int,
    standard_basis,
    standard_word_center,
)

__all__ = [
    "CartanSplit",
    "LevelSpec",
    "DecompositionSequence",
    "enumerate_t_choices",
    "build_cartan_split",
    "extend_to_maximal_abelian",
    "enumerate_maximal_abelian",
    "nearest_neighbors",
    "build_decomposition_sequence",
]


# ---------------------------------------------------------------------------
# Cartan splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CartanSplit:
    """One Cartan decomposition su(N) = t + p chosen from a quotient algebra."""

    qa: QuotientAlgebra
    choice_bits: str
    t: Tuple[AbelianSpace, ...]
    p_part: Tuple[AbelianSpace, ...]
    chosen_center: AbelianSpace

    @property
    def dim(self) -> int:
        return self.qa.dim

    def t_matrices(self) -> List[np.ndarray]:
        return [m for s in self.t for m in s.matrices]

    def p_matrices(self) -> List[np.ndarray]:
        out = [m for s in self.p_part for m in s.matrices]
        return out + self.chosen_center.matrices

    def hat_selection(self) -> Dict[str, bool]:
        """label -> True when the hatted space sits in t: the W^ side of its pair,
        whatever the space's own hat flag says."""
        return {s.binary_label: s is self.qa.pair_by_label(s.binary_label).w_hat for s in self.t}

    def validate(self):
        """Check all four Cartan conditions and the dimension count off a closure table.

        [t,t] and [p,p] must land in t, [t,p] in p. A split of the algebra's
        own spaces reads the algebra's table, which verify_closure reads too;
        any other split measures its own on the same slot forms (in the
        algebra's frame when it has one), each entry targeting every space of
        the side it must land on. An entry whose targets lie on that side
        passes below SOLVE_TOL; any other one only when its commutators vanish.
        """
        spaces, table = self.t + self.p_part + (self.chosen_center,), self.qa._closure
        side = [0] * len(self.t) + [1] * (len(spaces) - len(self.t))
        if self.qa.labeled and sorted(map(id, spaces)) == sorted(map(id, table.spaces)):
            of = dict(zip(map(id, spaces), side))
            side = [of[id(space)] for space in table.spaces]
        else:
            specs = [(i, j, [k for k, s in enumerate(side) if s == (side[i] + side[j]) & 1])
                     for i, j in itertools.combinations_with_replacement(range(len(spaces)), 2)]
            table = _closure_table(self.qa, spaces, None, specs)
        n = self.dim
        if sum(table.ranks[:-1]) != n * n - 1 or table.ranks[-1] != n * n - 1:
            raise InvalidChoiceError("t and p do not fill su(N)")
        failed = set()  # 0: [t,t], 1: [t,p], 2: [p,p], each to land on side kind & 1
        for (left, right, targets, *_), worst, norm in zip(table.specs, table.worst, table.norms):
            kind = side[left] + side[right]
            landed = targets and all(side[k] == kind & 1 for k in targets)
            if worst > SOLVE_TOL if landed else norm >= STRUCT_TOL:
                failed.add(kind)
        for kind, msg in enumerate(("[t,t] not in t", "[t,p] not in p", "[p,p] not in t")):
            if kind in failed:
                raise InvalidChoiceError(msg)
        side = np.array(side)
        if table.trace[np.ix_(side == 0, side == 1)].max(initial=0.0) > ACCEPT_TOL:
            raise InvalidChoiceError("Tr(t p) != 0")


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def enumerate_t_choices(qa: QuotientAlgebra) -> List[str]:
    """All 2^p selectors; bit r fixes W-vs-conjugate at the pair labeled 2^r."""
    if not qa.labeled:
        raise NotBinaryPartitionedError("t-choices need a labeled quotient algebra")
    return [bits_of(b, qa.p) for b in range(1 << qa.p)]


def _hat_assignment(qa: QuotientAlgebra, choice: str) -> Dict[str, bool]:
    """Resolve a selector to the hat flag of every pair.

    A p-bit selector sets the free choices at labels 2^r (bit '1' takes W);
    the rest follow from closure: hat(z) = 1 xor parity(b and z). A full
    per-pair string (one char per pair, label order, '1' meaning the hatted
    space) is validated against the same parity rule instead.
    """
    labels = [pair.binary_label for pair in qa.pairs]
    if len(choice) == qa.p and set(choice) <= {"0", "1"}:
        b = int(choice, 2)
        return {lab: bool(1 ^ _parity(b & label_int(lab))) for lab in labels}
    if len(choice) == len(qa.pairs) and set(choice) <= {"0", "1"}:
        hats = {lab: c == "1" for lab, c in zip(sorted(labels, key=label_int), choice)}
        for la in labels:
            for lb in labels:
                if la >= lb:
                    continue
                lc = bits_of(label_int(la) ^ label_int(lb), qa.p)
                if lc in hats:
                    want = not (hats[la] ^ hats[lb])
                    if hats[lc] != want:
                        raise InvalidChoiceError(
                            f"selection violates closure: pairs {la}, {lb} force "
                            f"{'the conjugate of ' if want else ''}W_{lc}"
                        )
        return hats
    raise InvalidChoiceError(
        f"choice must have {qa.p} bits (free selectors) or "
        f"{len(qa.pairs)} bits (explicit per-pair selection)"
    )


def build_cartan_split(qa: QuotientAlgebra, choice: str, validate: bool = True) -> CartanSplit:
    """Gather t from the chosen space of every pair; the rest plus A is p."""
    hats = _hat_assignment(qa, choice)
    t_spaces, p_spaces = [], []
    for pair in qa.pairs:
        chosen_hat = hats[pair.binary_label]
        t_spaces.append(pair.w_hat if chosen_hat else pair.w)
        p_spaces.append(pair.w if chosen_hat else pair.w_hat)
    bits = choice if len(choice) == qa.p else _selector_bits(qa, hats)
    split = CartanSplit(
        qa=qa,
        choice_bits=bits,
        t=tuple(t_spaces),
        p_part=tuple(p_spaces),
        chosen_center=qa.center,
    )
    if validate:
        split.validate()
    return split


def _selector_bits(qa: QuotientAlgebra, hats: Dict[str, bool]) -> str:
    bits = 0
    for r in range(qa.p):
        lab = bits_of(1 << r, qa.p)
        if lab in hats and not hats[lab]:
            bits |= 1 << r
    return bits_of(bits, qa.p)


# ---------------------------------------------------------------------------
# Maximal abelian subalgebras
# ---------------------------------------------------------------------------

def extend_to_maximal_abelian(space: AbelianSpace, center: AbelianSpace) -> AbelianSpace:
    """Augment an abelian space with commuting center elements up to N - 1.

    Whole center generators are preferred; when none of them commutes with
    the space, elements of the commutant of the space inside span(center) are
    appended (orthonormalized, unlabeled).
    """
    n = space.dim
    space.validate()
    target = n - 1
    current: List[Generator] = list(space.generators)

    def independent(mat) -> bool:
        return not in_span(mat, span_rows([g.matrix for g in current]))

    for c in center.generators:
        if len(current) == target:
            break
        if all(all_commute([c.matrix, g.matrix]) for g in current) and independent(c.matrix):
            current.append(c)
    if len(current) < target:
        for vec in _center_commutant(space, center):
            if len(current) == target:
                break
            if independent(vec):
                current.append(Generator(None, n, vec))
    if len(current) != target:
        raise NotMaximalError(
            f"extension reached {len(current)} generators, expected {target}"
        )
    out = AbelianSpace(tuple(current), hat=space.hat, binary_label=space.binary_label)
    out.validate()
    return out


def _center_commutant(space: AbelianSpace, center: AbelianSpace) -> List[np.ndarray]:
    """Basis of {c in span(center): [c, space] = 0}."""
    c, g = np.array(center.matrices)[:, None], np.array(space.matrices)
    comm = (c @ g - g @ c).reshape(len(c), len(g), -1)
    # a has 2 N^2 rows per space generator and one column per center
    # generator, so vt is square and its last rows span the null space.
    a = np.concatenate([comm.real, comm.imag], axis=2).reshape(len(c), -1).T
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    tolerance = max(a.shape) * s[0] * STRUCT_TOL
    null_dim = int(np.sum(s <= max(tolerance, STRUCT_TOL)))
    out = []
    for row in vt[vt.shape[0] - null_dim :]:
        mat = sum(x * c for x, c in zip(row, center.matrices))
        norm = frob(mat)
        if norm > SOLVE_TOL:
            out.append(mat / norm)
    return out


def _structure_of_center(center: AbelianSpace) -> QuotientAlgebra:
    """Quotient algebra of an arbitrary maximal abelian subalgebra.

    Validates the center, then prefers the direct word-basis construction;
    falls back to the preparation-step transport U A U^dag = C of the
    intrinsic algebra when the word basis is not closed for this center.
    """
    center.validate()
    try:
        return build_quotient_algebra(center, standard_basis(center.dim))
    except (BasisNotClosedError, NotMaximalError, InvalidMatrixError):
        pass
    u = diagonalize_abelian(center)
    moved = conjugate_quotient_algebra(intrinsic_quotient_algebra(center.dim), u)
    if not spans_equal(moved.center.matrices, center.matrices):
        raise NotMaximalError("center does not diagonalize to the intrinsic one")
    return QuotientAlgebra(center=center, pairs=moved.pairs, dim=center.dim, p=moved.p)


def nearest_neighbors(center: AbelianSpace) -> List[AbelianSpace]:
    """Maximal abelian subalgebras one extension step from `center`."""
    qa = _structure_of_center(center)
    own = span_fingerprint(center.matrices)
    found: Dict[bytes, AbelianSpace] = {}
    for pair in qa.pairs:
        for space in pair.spaces:
            ext = extend_to_maximal_abelian(space, qa.center)
            fp = span_fingerprint(ext.matrices)
            if fp != own and fp not in found:
                found[fp] = ext
    return list(found.values())


def enumerate_maximal_abelian(n: int, max_shells: int) -> List[AbelianSpace]:
    """Shell extension of maximal abelian subalgebras from the intrinsic center.

    Each shell extends every known subalgebra through its quotient algebra;
    only basis generators are considered (no superpositions of noncommuting
    operators). Deduplication is by span equality.
    """
    if n > 16:
        raise InvalidMatrixError("enumeration is desk-scale: n <= 16")
    if max_shells < 1:
        raise InvalidChoiceError("max_shells must be at least 1")
    start = standard_word_center(n)
    known: Dict[bytes, AbelianSpace] = {span_fingerprint(start.matrices): start}
    frontier = [start]
    for _ in range(max_shells):
        fresh: List[AbelianSpace] = []
        for member in frontier:
            for nb in nearest_neighbors(member):
                fp = span_fingerprint(nb.matrices)
                if fp not in known:
                    known[fp] = nb
                    fresh.append(nb)
        if not fresh:
            break
        frontier = fresh
    return list(known.values())


# ---------------------------------------------------------------------------
# Decomposition sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSpec:
    """The center designated at one recursion level."""

    ordinal: int
    center_core: AbelianSpace
    label: Optional[str]  # None at level 1 (the quotient algebra's own center)
    choice_bits: str
    chosen_labels: Tuple[str, ...]  # labels of the spaces forming t at this level


@dataclass(frozen=True, eq=False)
class DecompositionSequence:
    """Ordered designation of centers A_[1..p] plus the final abelian t_[p].

    Building one also lays out, from the labels alone, the index components that
    each level splits (`layout`, see _level_layout), and rejects a sequence that
    no plan can factor.
    """

    qa: QuotientAlgebra
    levels: Tuple[LevelSpec, ...]
    final: AbelianSpace
    hat_selection: Mapping[str, bool]  # read-only: a sequence's plan is cached

    def __post_init__(self):
        object.__setattr__(self, "hat_selection", MappingProxyType(dict(self.hat_selection)))
        object.__setattr__(self, "layout", _level_layout(self.dim, self.levels))

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied; its dict can
        return type(self), (self.qa, self.levels, self.final, dict(self.hat_selection))

    @property
    def dim(self) -> int:
        return self.qa.dim

    @property
    def depth(self) -> int:
        return len(self.levels)

    def center(self, k: int) -> AbelianSpace:
        """A_[k] for k = 1..p+1: the algebra's center, then level k's center core
        and at k = p+1 the final t_[p], each extended to N - 1 commuting
        generators. Built on each call; the recursion reads only the cores."""
        if k == 1:
            return self.qa.center
        if not 2 <= k <= self.depth + 1:
            raise InvalidChoiceError(f"level {k} is not in 1..{self.depth + 1}")
        core = self.levels[k - 1].center_core if k <= self.depth else self.final
        return extend_to_maximal_abelian(core, self.qa.center)

    def space_at(self, label: str) -> AbelianSpace:
        pair = self.qa.pair_by_label(label)
        return pair.w_hat if self.hat_selection[label] else pair.w


def _cosets(n: int, group) -> List[List[int]]:
    """The cosets x ^ group cut to [0, n), by least index: the components of a level.
    A coset's least member min(x ^ group) is below n, as x is, so it is the least index."""
    order, sizes = (x.tolist() for x in _xor_cosets(np.arange(n), group))
    return [order[end - size : end] for end, size in zip(itertools.accumulate(sizes), sizes)]


def _level_layout(n: int, levels) -> Dict[int, tuple]:
    """DecompositionSequence.layout: level k >= 2 -> (units, layouts) of the components of
    level k - 1, the cosets of H_(k-1) cut to [0, N), H_k the group of 0 and level k's t
    labels: the one-row components, and the _component_layout of each other one. Raises
    InvalidChoiceError, from the labels alone, where no plan can factor: H_k is not an
    index-2 subgroup of H_(k-1) without the center label, or a component does not split
    or its sides do not pair. One pass over the labels and the indices per level."""
    groups = [{0, *map(label_int, lv.chosen_labels)} for lv in levels]
    out = {}
    for level in range(2, len(levels) + 1):
        label, h = levels[level - 1].label, groups[level - 1]
        alpha = label_int(label)
        if ({a ^ b for a in h for b in h} != h or alpha in h
                or h | {alpha ^ x for x in h} != groups[level - 2]):
            raise InvalidChoiceError(
                f"level {level}: the t labels and 0 are not an index-2 subgroup of "
                f"level {level - 1}'s without the center label {label}")
        slot = {i: k for k, i in enumerate(i for i in range(n) if i < i ^ alpha < n)}
        comps = _cosets(n, groups[level - 2])
        out[level] = ([c[0] for c in comps if len(c) == 1],
                      [_component_layout(n, c, h, alpha, slot, level) for c in comps if len(c) > 1])
    return out


def _component_layout(n: int, comp: List[int], h, alpha: int, slot, level: int) -> tuple:
    """The kak._CSGroup fields of one component at `level` (order, outside, b1, b2,
    theta_at, theta_sign), or raise: side 1 is the component's coset of h, and b1[m]
    pairs with b2[m] across the center slot (i, i ^ alpha) for m < min(len(b1),
    len(b2)); the unpaired rows, whose partner is past N, follow. slot[i] is the
    position of slot (i, i ^ alpha) among all of them. One pass over the component."""
    branch = "L" * (level - 1)  # the first branch of the tree that reaches the level
    b1, b2, rest1, rest2, theta_at, theta_sign = [], [], [], [], [], []
    for i in comp:
        side1 = i ^ comp[0] in h  # i ^ alpha is on the other side: alpha is not in h
        if i in slot:
            a, b = (i, i ^ alpha) if side1 else (i ^ alpha, i)
            b1.append(a)
            b2.append(b)
            theta_at.append(slot[i])
            theta_sign.append(-1.0 if a < b else 1.0)
        elif i ^ alpha not in slot:  # no partner below N
            (rest1 if side1 else rest2).append(i)
    size1, size2 = len(b1) + len(rest1), len(b2) + len(rest2)
    if not size2:
        raise InvalidChoiceError(
            f"level {level}, branch {branch}: component {comp} does not split; "
            "no center slot reaches it"
        )
    if len(b1) != min(size1, size2):
        raise InvalidChoiceError(
            f"level {level}, branch {branch}: {len(b1)} center slots "
            f"cannot pair blocks of sizes {size1} and {size2}"
        )
    b1, b2, members = b1 + rest1, b2 + rest2, set(comp)
    outside = np.array([x for x in range(n) if x not in members], dtype=int)
    return b1 + b2, outside, b1, b2, theta_at, theta_sign


def _default_choices(p: int) -> List[str]:
    return ["0" * (p - k) for k in range(p)]


def build_decomposition_sequence(
    qa: QuotientAlgebra,
    choices: Optional[Sequence[str]] = None,
    level_centers: Optional[Sequence[Optional[AbelianSpace]]] = None,
) -> DecompositionSequence:
    """Designate a center per level and resolve every t-choice by closure.

    `choices` holds one bit string per level: p bits for level 1 (the Cartan
    split selector), then one fewer per level (free picks among the remaining
    pairs, '0' favoring the lower label). `level_centers` optionally
    designates the next level's center; each override must match one of that
    level's candidate spaces by span.
    """
    if not qa.labeled:
        raise NotBinaryPartitionedError("sequences need a labeled quotient algebra")
    p = qa.p
    choices = list(choices) if choices is not None else _default_choices(p)
    if len(choices) != p:
        raise InvalidChoiceError(f"need {p} per-level choices, got {len(choices)}")
    for k, bits in enumerate(choices):
        if len(bits) != p - k or set(bits) - {"0", "1"}:
            raise InvalidChoiceError(
                f"level {k + 1} choice must be {p - k} bits, got {bits!r}"
            )
    overrides = list(level_centers) if level_centers is not None else []
    if len(overrides) > max(0, p - 1):
        raise InvalidChoiceError("too many level-center overrides")
    overrides += [None] * (p - 1 - len(overrides))

    hats = _hat_assignment(qa, choices[0])
    available = sorted(label_int(pair.binary_label) for pair in qa.pairs)

    def space_of(value: int) -> AbelianSpace:
        lab = bits_of(value, p)
        pair = qa.pair_by_label(lab)
        return pair.w_hat if hats[lab] else pair.w

    levels = [
        LevelSpec(
            ordinal=1,
            center_core=qa.center,
            label=None,
            choice_bits=choices[0],
            chosen_labels=tuple(bits_of(v, p) for v in available),
        )
    ]
    for k in range(2, p + 1):
        alpha = _designate_center(available, overrides[k - 2], space_of, p, k)
        remaining = [x for x in available if x != alpha]
        chosen = _resolve_level_choices(remaining, alpha, choices[k - 1], p, k)
        levels.append(
            LevelSpec(
                ordinal=k,
                center_core=space_of(alpha),
                label=bits_of(alpha, p),
                choice_bits=choices[k - 1],
                chosen_labels=tuple(bits_of(v, p) for v in sorted(chosen)),
            )
        )
        available = sorted(chosen)

    if len(available) != 1:
        raise InvalidChoiceError(f"recursion left {len(available)} labels, expected 1")
    final = space_of(available[0])
    if not final.commutes():
        raise NotAbelianError("final level space is not abelian")
    return DecompositionSequence(qa=qa, levels=tuple(levels), final=final, hat_selection=hats)


def _designate_center(available, override, space_of, p, k) -> int:
    if override is None:
        return min(available)
    override.validate()
    for value in available:
        cand = space_of(value)
        if spans_equal(cand.matrices, override.matrices):
            return value
    # Distinguish "not inside t" from "inside t but not a candidate space".
    t_rows = span_rows([m for v in available for m in space_of(v).matrices])
    if all(in_span(m, t_rows) for m in override.matrices):
        raise NotInSpanError(
            f"level {k} override lies inside t but matches no candidate pair space"
        )
    raise NotInSpanError(f"level {k} override is not inside the level-{k - 1} t")


def _resolve_level_choices(remaining, alpha, bits, p, k) -> List[int]:
    """Pick one label per {x, x xor alpha} pair, closing picks under xor.

    The picks and 0 form a group H without alpha. A pick is made only when
    neither label of its pair is in H, so pick ^ H misses H and alpha: the two
    labels of a pair are never both picked, and closure cannot contradict an
    earlier pick.
    """
    for x in remaining:
        if x ^ alpha not in remaining:
            raise InvalidChoiceError(f"level {k}: label {bits_of(x, p)} lost its partner")
    chosen: List[int] = []
    bit_iter = iter(bits)
    for x in remaining:  # ascending
        if x in chosen or x ^ alpha in chosen:
            continue
        try:
            bit = next(bit_iter)
        except StopIteration as exc:
            raise InvalidChoiceError(f"level {k}: not enough choice bits") from exc
        pick = max(x, x ^ alpha) if bit == "1" else min(x, x ^ alpha)
        chosen += [pick] + [pick ^ c for c in chosen]
    leftovers = list(bit_iter)
    if leftovers:
        raise InvalidChoiceError(f"level {k}: {len(leftovers)} unused choice bits")
    if len(chosen) != len(remaining) // 2:
        raise InvalidChoiceError(f"level {k}: selection does not cover every pair")
    return chosen
