"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing deferred.
"""

import numpy as np
import pytest

from cartankak._linalg import (
    frob,
    project_residual,
    random_special_unitary,
    span_rows,
)
from cartankak.cartan import (
    build_cartan_split,
    build_decomposition_sequence,
    enumerate_maximal_abelian,
    enumerate_t_choices,
    nearest_neighbors,
)
from cartankak.errors import CartanKakError
from cartankak.generators import (
    Diag,
    Lambda,
    LambdaHat,
    commutator_numeric,
    commutator_symbolic,
    generator_from_label,
    make_tensor_word,
)
from cartankak.kak import recursive_decompose
from cartankak.partition import (
    conjugate_quotient_algebra,
    verify_closure,
)


def _report(criterion: int, passed: bool, message: str):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} - {message}")
    assert passed, f"criterion {criterion}: {message}"


def word(*sites):
    return make_tensor_word(list(sites))


FIG_SU8_PAIRS = {
    "001": (
        [("p0", "p0", "p1"), ("p3", "p0", "p1"), ("p0", "p3", "p1"), ("p3", "p3", "p1")],
        [("p0", "p0", "p2"), ("p3", "p0", "p2"), ("p0", "p3", "p2"), ("p3", "p3", "p2")],
    ),
    "010": (
        [("p0", "p1", "p0"), ("p3", "p1", "p0"), ("p0", "p1", "p3"), ("p3", "p1", "p3")],
        [("p0", "p2", "p0"), ("p3", "p2", "p0"), ("p0", "p2", "p3"), ("p3", "p2", "p3")],
    ),
    "011": (
        [("p0", "p1", "p1"), ("p0", "p2", "p2"), ("p3", "p1", "p1"), ("p3", "p2", "p2")],
        [("p0", "p2", "p1"), ("p0", "p1", "p2"), ("p3", "p2", "p1"), ("p3", "p1", "p2")],
    ),
    "100": (
        [("p1", "p0", "p0"), ("p1", "p3", "p0"), ("p1", "p0", "p3"), ("p1", "p3", "p3")],
        [("p2", "p0", "p0"), ("p2", "p3", "p0"), ("p2", "p0", "p3"), ("p2", "p3", "p3")],
    ),
    "101": (
        [("p1", "p0", "p1"), ("p2", "p0", "p2"), ("p1", "p3", "p1"), ("p2", "p3", "p2")],
        [("p2", "p0", "p1"), ("p1", "p0", "p2"), ("p2", "p3", "p1"), ("p1", "p3", "p2")],
    ),
    "110": (
        [("p1", "p1", "p0"), ("p2", "p2", "p0"), ("p1", "p1", "p3"), ("p2", "p2", "p3")],
        [("p2", "p1", "p0"), ("p1", "p2", "p0"), ("p2", "p1", "p3"), ("p1", "p2", "p3")],
    ),
    "111": (
        [("p1", "p1", "p1"), ("p2", "p2", "p1"), ("p2", "p1", "p2"), ("p1", "p2", "p2")],
        [("p2", "p1", "p1"), ("p1", "p2", "p1"), ("p1", "p1", "p2"), ("p2", "p2", "p2")],
    ),
}


def _mutual_residual(mats_a, mats_b) -> float:
    rows_a, rows_b = span_rows(mats_a), span_rows(mats_b)
    worst = 0.0
    for m in mats_a:
        worst = max(worst, project_residual(m, rows_b))
    for m in mats_b:
        worst = max(worst, project_residual(m, rows_a))
    return worst


def test_criterion_1_golden_su8(word_qa):
    """Intrinsic su(8) construction reproduces the seven figure pairs."""
    qa = word_qa(8)
    worst = 0.0
    for label, (ws, hs) in FIG_SU8_PAIRS.items():
        pair = qa.pair_by_label(label)
        fig_w = [word(*s).matrix for s in ws]
        fig_h = [word(*s).matrix for s in hs]
        worst = max(worst, _mutual_residual(pair.w.matrices, fig_w))
        worst = max(worst, _mutual_residual(pair.w_hat.matrices, fig_h))
    _report(1, worst < 1e-9, f"su(8) pair spans match the figure (residual {worst:.2e})")


def test_criterion_2_golden_su6(lambda_qa):
    """Removing process keeps 35 generators over 7 pairs sized (3,2,2,2,2,2,2)."""
    qa6 = lambda_qa(6)
    sizes = tuple(
        len(qa6.pair_by_label(l).w)
        for l in ("001", "010", "011", "100", "101", "110", "111")
    )
    ok = (
        qa6.generator_count() == 35
        and len(qa6.pairs) == 7
        and sizes == (3, 2, 2, 2, 2, 2, 2)
    )
    _report(2, ok, f"su(6) keeps 35 generators with W sizes {sizes}")


def test_criterion_3_closure_exhaustive(word_qa, lambda_qa):
    """Every cross-pair commutator lands in the xor-labeled pair, < 1e-9."""
    worst = 0.0
    for qa in (word_qa(4), word_qa(6), word_qa(8), lambda_qa(6), lambda_qa(8)):
        report = verify_closure(qa)
        worst = max(worst, report.max_residual)
        if not report.passed:
            _report(3, False, f"closure failed at {report.failures()[0]}")
    _report(3, worst < 1e-9, f"su(4)/su(6)/su(8) closure exhaustive (max {worst:.2e})")


def test_criterion_4_split_enumeration(word_qa):
    """Exactly 8 splits for su(8) and su(6); worked example; all conditions."""
    ok = True
    messages = []
    for n in (8, 6):
        qa = word_qa(n)
        choices = enumerate_t_choices(qa)
        ok &= len(choices) == 8
        for bits in choices:
            split = build_cartan_split(qa, bits)
            try:
                split.validate()
            except CartanKakError as exc:
                ok = False
                messages.append(f"su({n}) split {bits}: {exc}")
            worst_trace = max(
                abs(np.trace(a @ b))
                for a in split.t_matrices()
                for b in split.p_matrices()
            )
            ok &= worst_trace < 1e-13
    sel = build_cartan_split(word_qa(8), "011").hat_selection()
    forced = (sel["101"], sel["110"], sel["111"]) == (False, False, True)
    picked = (sel["001"], sel["010"], sel["011"], sel["100"]) == (
        False, False, True, True,
    )
    ok &= forced and picked
    _report(
        4,
        ok,
        "2^3 splits each for su(8)/su(6); {W1,W2,^W3,^W4} forces {W5,W6,^W7}"
        + ("" if not messages else f"; {messages[0]}"),
    )


def test_criterion_5_appendix_counts():
    """Shell extension: 6 neighbors, 15 total, fixed point, 6 neighbors each."""
    shell1 = enumerate_maximal_abelian(4, 1)
    shell2 = enumerate_maximal_abelian(4, 2)
    shell3 = enumerate_maximal_abelian(4, 3)
    neighbor_counts = {len(nearest_neighbors(m)) for m in shell2}
    ok = (
        len(shell1) == 7  # the starting center plus 6 new neighbors
        and len(shell2) == 15
        and len(shell3) == 15
        and neighbor_counts == {6}
    )
    _report(
        5,
        ok,
        f"su(4): shells give {len(shell1) - 1} new, {len(shell2)} total, "
        f"fixed point, neighbor counts {sorted(neighbor_counts)}",
    )


@pytest.fixture(scope="module")
def round_trip_results(word_qa):
    results = {}
    for n in (4, 6, 8):
        seq = build_decomposition_sequence(word_qa(n))
        rng = np.random.default_rng(1000 + n)
        facts = []
        for _ in range(100):
            u = random_special_unitary(n, rng)
            facts.append((u, recursive_decompose(u, seq)))
        results[n] = (seq, facts)
    return results


def test_criterion_6_kak_round_trip(round_trip_results):
    """100 random unitaries per dimension reconstruct within 1e-8."""
    worst = 0.0
    ok = True
    for n, (seq, facts) in round_trip_results.items():
        expected_blocks = (1 << (seq.qa.p + 1)) - 1
        for u, fact in facts:
            worst = max(worst, fact.reconstruction_error)
            ok &= fact.reconstruction_error < 1e-8
            ok &= len(fact.blocks) == expected_blocks
    _report(
        6,
        ok,
        f"300 round trips (SU(4)/SU(6)/SU(8)) worst error {worst:.2e}; "
        "block counts 2^(p+1)-1",
    )


def test_criterion_7_gate_theorem(round_trip_results):
    """Every factor is a single declared basis generator, classified by sites."""
    ok = True
    total = 0
    for n, (seq, facts) in round_trip_results.items():
        declared = {
            id(g) for lv in seq.levels for g in lv.center_core.generators
        } | {id(g) for g in seq.final.generators}
        for _, fact in facts:
            for f in fact.factors:
                total += 1
                ok &= id(f.generator) in declared
                sites = f.generator.label.sites
                non_identity = sum(
                    0 if s in ("p0", "g0") or s.startswith("i") else 1 for s in sites
                )
                expected = "local" if non_identity == 1 else "nonlocal"
                ok &= f.locality == expected
    _report(7, ok, f"{total} factors, all single basis generators with site-rule locality")


def test_criterion_8_symbolic_numeric_exhaustive():
    """Closed-form commutators match numerics for every pair, N <= 8, 1e-12."""
    worst = 0.0
    for n in range(2, 9):
        labels = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                labels += [Lambda(i, j), LambdaHat(i, j), Diag(i, j)]
        gens = {l: generator_from_label(l, n) for l in labels}
        for la in labels:
            for lb in labels:
                sym = commutator_symbolic(la, lb).matrix(n)
                num = commutator_numeric(gens[la], gens[lb])
                worst = max(worst, frob(sym - num))
    _report(8, worst < 1e-12, f"all lambda pairs for N=2..8 agree (worst {worst:.2e})")


def test_criterion_9_isomorphism_transport(word_qa):
    """Conjugating the su(8) algebra by a random unitary preserves closure."""
    qa = word_qa(8)
    u = random_special_unitary(8, np.random.default_rng(2026))
    moved = conjugate_quotient_algebra(qa, u)
    report = verify_closure(moved)
    _report(
        9,
        report.passed,
        f"transported su(8) algebra passes closure (max residual "
        f"{report.max_residual:.2e})",
    )
