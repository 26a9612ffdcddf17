"""The stacked basis match against the per-generator trace loops it replaced.

`loop_build` is the quotient-algebra construction with the pool matched one
generator at a time (`loop_match_single`, `loop_collect_conjugates`) and a
`remaining` list; `loop_classify` is `classify_gate` with its word scan. Both
are test-local oracles for `build_quotient_algebra` and `classify_gate`.
Each Tr(a^dag b) of the loops is taken as np.vdot(a, b), the same sum
without the N x N product.
"""

import functools
import itertools

import numpy as np
import pytest

from cartankak import kak, partition
from cartankak._linalg import (
    MATCH_NONE,
    MATCH_OFF_LINE,
    MATCH_ZERO,
    SOLVE_TOL,
    all_commute,
    basis_match,
    frob,
    in_span,
    random_special_unitary,
    slot_forms,
    span_rank,
)
from cartankak.errors import (
    BasisNotClosedError,
    CartanKakError,
    InvalidMatrixError,
    NotMaximalError,
    UnsupportedLabelError,
)
from cartankak.generators import (
    Diag,
    Generator,
    Lambda,
    LambdaHat,
    TensorWord,
    make_ortho_diag,
    make_tensor_word,
    standard_sites,
    word_site_count,
)
from cartankak.cartan import enumerate_maximal_abelian
from cartankak.kak import classify_gate
from cartankak.partition import (
    build_quotient_algebra,
    conjugate_quotient_algebra,
    intrinsic_center,
    lambda_basis,
    standard_basis,
    standard_word_center,
)

DIMS = range(2, 17)
OPEN_WORD_DIMS = (9, 10, 14, 15)
word_basis = functools.lru_cache(standard_basis)


@pytest.fixture(autouse=True)
def shared_word_basis(monkeypatch):
    """One word basis per dimension for classify_gate and the scan (building it dominates)."""
    monkeypatch.setattr(kak, "standard_basis", word_basis)


def loop_match_single(result, pool):
    norm = frob(result)
    if norm < SOLVE_TOL:
        return None
    hits = []
    for idx, g in enumerate(pool):
        overlap = np.vdot(g.matrix, result)
        if abs(overlap) > SOLVE_TOL * norm:
            hits.append((idx, overlap))
    if len(hits) != 1:
        raise BasisNotClosedError(
            "commutator is not proportional to a single basis generator; "
            "wrong representation choice for this center"
        )
    idx, overlap = hits[0]
    g = pool[idx].matrix
    coef = overlap / np.vdot(g, g)
    if frob(result - coef * g) > SOLVE_TOL * norm:
        raise BasisNotClosedError("commutator leaves the basis span; wrong representation choice")
    return idx


def loop_collect_conjugates(seed_mat, center, pool):
    found = []
    for c in center.matrices:
        idx = loop_match_single(seed_mat @ c - c @ seed_mat, pool)
        if idx is not None and idx not in found:
            found.append(idx)
    return found


def loop_build(center, basis):
    n = center.dim
    center.validate()
    cspan = center.span()
    pool = [g for g in basis if g.dim == n and not in_span(g.matrix, cspan)]
    total = span_rank([g.matrix for g in pool] + center.matrices)
    if total != n * n - 1:
        raise InvalidMatrixError(f"center plus basis span {total} dimensions, expected {n * n - 1}")
    if span_rank(center.matrices) + len(pool) != n * n - 1:
        raise InvalidMatrixError("basis contains redundant or center-span generators")
    raw_pairs = []
    remaining = list(pool)
    while remaining:
        seed = remaining[0]
        hat_idx = loop_collect_conjugates(seed.matrix, center, remaining)
        if not hat_idx:
            raise NotMaximalError(
                f"{seed!r} commutes with the whole center; center is not maximal abelian"
            )
        hats = [remaining[i] for i in hat_idx]
        back_idx = loop_collect_conjugates(hats[0].matrix, center, remaining)
        ws = [seed] + [remaining[i] for i in back_idx if remaining[i] is not seed]
        if len(ws) != len(hats):
            raise BasisNotClosedError(
                "reversing step produced a different count; pair sizes disagree"
            )
        raw_pairs.append((ws, hats))
        used = {id(g) for g in ws + hats}
        remaining = [g for g in remaining if id(g) not in used]
    at = {id(g): i for i, g in enumerate(pool)}
    merged = partition._merge_pairs([([at[id(g)] for g in ws], [at[id(g)] for g in hats])
                                     for ws, hats in raw_pairs], *slot_forms([g.matrix for g in pool]))
    merged = [([pool[i] for i in ws], [pool[i] for i in hats], lab) for ws, hats, lab in merged]
    spaces = [space for ws, hats, _ in merged for space in (ws, hats)]
    if not all(all_commute([g.matrix for g in space]) for space in spaces):
        raise BasisNotClosedError("a conjugate space does not commute; wrong representation choice")
    return partition._label_pairs(merged, center, max(1, (n - 1).bit_length()))[0]


def loop_classify(g):
    if isinstance(g.label, TensorWord):
        return "local" if word_site_count(g) == 1 else "nonlocal"
    if len(standard_sites(g.dim)) == 1:
        return "local"
    if isinstance(g.label, (Lambda, LambdaHat, Diag)):
        raise UnsupportedLabelError(f"{g.label} is not a word of the site structure")
    for word in word_basis(g.dim):
        coef = np.vdot(word.matrix, g.matrix) / np.vdot(word.matrix, word.matrix)
        resid = frob(g.matrix - coef * word.matrix)
        if abs(coef) > SOLVE_TOL and resid < SOLVE_TOL * frob(g.matrix):
            return loop_classify(word)
    raise UnsupportedLabelError("generator is not proportional to a single word of the site structure")


def outcome(fn, *args):
    try:
        return fn(*args)
    except CartanKakError as exc:
        return type(exc), str(exc)


def same_pairs(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.binary_label == b.binary_label
        for sa, sb in zip(a.spaces, b.spaces, strict=True):
            assert len(sa.generators) == len(sb.generators)
            assert all(x is y for x, y in zip(sa.generators, sb.generators))


def builds(n):
    yield "word", standard_word_center(n), standard_basis(n)
    yield "lambda", intrinsic_center(n), lambda_basis(n)


@pytest.mark.parametrize("n", DIMS)
def test_build_matches_the_loop(n):
    for kind, center, basis in builds(n):
        want = outcome(loop_build, center, basis)
        if kind == "word" and n in OPEN_WORD_DIMS:
            assert want[0] is BasisNotClosedError
            assert outcome(build_quotient_algebra, center, basis) == want
            continue
        same_pairs(build_quotient_algebra(center, basis).pairs, want)


def test_build_matches_the_loop_on_a_non_diagonal_center():
    # With this center, first-found (center) order differs from pool order.
    sites = [("p1", "p0", "p0"), ("p0", "p1", "p0"), ("p0", "p0", "p1"), ("p1", "p1", "p0"),
             ("p1", "p0", "p1"), ("p0", "p1", "p1"), ("p1", "p1", "p1")]
    center = partition.AbelianSpace(tuple(make_tensor_word(s) for s in sites))
    for basis in (standard_basis(8), standard_basis(8)[::-1]):
        same_pairs(build_quotient_algebra(center, basis).pairs, loop_build(center, basis))


def x_center(n):
    """The X-word center of su(n), n = 2^k: every word of p0 and p1 but the identity, each
    on its own label, so the center's labels span every label and the pool is one coset."""
    words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1), 1, None)
    return partition.AbelianSpace(tuple(make_tensor_word(w) for w in words))


def same_outcome(center, basis):
    """build_quotient_algebra and loop_build make the same pairs, or raise the same error."""
    want = outcome(loop_build, center, basis)
    got = outcome(build_quotient_algebra, partition.AbelianSpace(center.generators), basis)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        same_pairs(got.pairs, want)
    return want


@pytest.mark.parametrize("n", [4, 8, 16])
def test_build_matches_the_loop_on_x_word_centers(n):
    basis = word_basis(n)
    for order in (basis, basis[::-1]):
        same_outcome(x_center(n), order)


@pytest.mark.parametrize("n, shells", [(4, 3), (8, 1), (6, 2)])
def test_build_matches_the_loop_on_every_maximal_abelian_member(n, shells):
    built = 0
    for member in enumerate_maximal_abelian(n, shells):
        for basis in (word_basis(n), lambda_basis(n)):
            built += not isinstance(same_outcome(member, basis), tuple)
    assert built  # some members build, and the others raise as the loop does


def test_build_raises_the_greedy_first_error_across_rounds():
    # Center XI: its label group {00, 10} cuts the pool of su(4) into two cosets. In seed
    # order ZI, IZ, IX, ...: round 1 peels ZI (with YI) in one coset and fails on IX in
    # the other; round 2 fails on IZ, which the greedy order reaches first.
    center = partition.AbelianSpace((make_tensor_word(["p1", "p0"]),))
    words = {g.label_str: g for g in word_basis(4)}
    first = [words[f"tensor:{w}"] for w in ("p3,p0", "p0,p3", "p0,p1")]
    basis = first + [g for g in word_basis(4) if g not in first]
    labels, _ = slot_forms([g.matrix for g in basis])
    assert (labels >= 0).all() and (center._forms[0] >= 0).all()  # the slot path
    assert labels[1] ^ labels[2] not in (0, center._forms[0][0])  # IZ and IX: two cosets
    ix, xi = words["tensor:p0,p1"].matrix, center.generators[0].matrix
    assert np.array_equal(ix @ xi, xi @ ix)  # IX fails too, in the earlier round
    want = same_outcome(center, basis)
    assert want == (NotMaximalError, "Generator(tensor:p0,p3, dim=4) commutes with the whole "
                                     "center; center is not maximal abelian")


def test_standard_build_at_16_takes_two_match_passes(monkeypatch):
    # Every coset of the diagonal center's (trivial) label group is one conjugate pair:
    # one round, with one pass for the seeds and one for their first conjugates.
    calls = []
    monkeypatch.setattr(partition, "basis_match",
                        lambda *args: calls.append(1) or basis_match(*args))
    partition.standard_quotient_algebra(16)
    assert len(calls) <= 2


def algebra_generators(qa):
    gens = list(qa.center.generators)
    return gens + [g for pair in qa.pairs for g in pair.w.generators + pair.w_hat.generators]


@pytest.mark.parametrize("n", DIMS)
def test_classify_matches_the_scan_on_algebra_generators(n):
    for kind, center, basis in builds(n):
        if kind == "word" and n in OPEN_WORD_DIMS:
            continue
        for g in algebra_generators(build_quotient_algebra(center, basis)):
            assert outcome(classify_gate, g) == outcome(loop_classify, g), g


def shift_with_phases(n):
    """Cyclic shift times diagonal phases: it maps some words (all of them at N=4) to a word."""
    perm = np.roll(np.eye(n), 1, axis=0)
    return perm @ np.diag([1j ** k for k in range(n)])


@pytest.mark.parametrize("n", [4, 8])
def test_classify_matches_the_scan_on_transported_generators(n):
    qa = build_quotient_algebra(standard_word_center(n), standard_basis(n))
    haar = random_special_unitary(n, np.random.default_rng(n))
    localities = []
    for u in (haar, shift_with_phases(n)):
        for g in algebra_generators(conjugate_quotient_algebra(qa, u)):
            assert g.label is None
            got = outcome(classify_gate, g)
            assert got == outcome(loop_classify, g), g
            localities.append(got)
    assert {"local", "nonlocal"} <= set(localities)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
def test_classify_matches_the_scan_on_orthod_and_sums(n):
    gens = [make_ortho_diag(l, n) for l in range(2, n + 1)]
    words = word_basis(n)
    gens.append(Generator(None, n, words[0].matrix + words[-1].matrix))
    gens.append(Generator(None, n, 2.5 * words[-1].matrix))
    for g in gens:
        assert outcome(classify_gate, g) == outcome(loop_classify, g), g


def test_basis_match_outcomes():
    p1, p2, p3 = (make_tensor_word([f"p{k}"]).matrix for k in (1, 2, 3))
    basis = [p1, p3]
    xs = [2j * p3, np.zeros((2, 2)), p1 + p3, p2, p1 + 1e-3 * p2]
    flat = np.reshape(xs, (len(xs), -1)), np.reshape(basis, (len(basis), -1))
    assert basis_match(*flat) == [1, MATCH_ZERO, MATCH_NONE, MATCH_NONE, MATCH_OFF_LINE]
