"""Closure checks and structural labels against the loops they replaced.

The reference oracles below are the old per-commutator computations: one
dense commutator, one projection and one comparison per pair of generators
in verify_closure and in the structural labeling of unlabeled pairs, which
partition now reads off slot forms and index matchings. The dense
commutator_residuals (oracle.py) is checked against them too.
"""

import itertools

import numpy as np
import pytest

import cartankak.partition as partition
from cartankak._linalg import (
    SOLVE_TOL,
    STRUCT_TOL,
    frob,
    in_span,
    project_residual,
    span_rows,
)
from cartankak import cartan
from cartankak.cartan import enumerate_maximal_abelian
from cartankak.generators import commutator_numeric, make_tensor_word
from cartankak.partition import (
    AbelianSpace,
    ConjugatePair,
    QuotientAlgebra,
    bits_of,
    label_int,
    verify_closure,
)
from oracle import commutator_residuals

WORD_DIMS = [2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16]
LAMBDA_DIMS = range(2, 17)


def loop_target_residual(res, rows):
    if frob(res) < STRUCT_TOL:
        return 0.0
    return project_residual(-1j * res, rows)


def loop_best_single_space(res, spans, center_span):
    if frob(res) < STRUCT_TOL:
        return 0.0
    h = -1j * res
    best = project_residual(h, center_span)
    for rows in spans.values():
        best = min(best, project_residual(h, rows))
    return best


def loop_closure_checks(qa, tol=SOLVE_TOL):
    """(kind, left, right, target, residual, ok) per check, one commutator at a time."""
    checks = []

    def name(label, hat, fallback):
        return ("W^_" if hat else "W_") + (label if label is not None else fallback)

    def add(kind, lname, rname, target_name, residual):
        checks.append((kind, lname, rname, target_name, float(residual), residual < tol))

    center_span = qa.center.span()
    spans = {}
    for idx, pair in enumerate(qa.pairs):
        spans[(idx, False)] = pair.w.span()
        spans[(idx, True)] = pair.w_hat.span()
    labels = [pair.binary_label for pair in qa.pairs]
    by_label = {lab: i for i, lab in enumerate(labels) if lab is not None}
    every = qa.center.matrices + [m for pair in qa.pairs for m in pair.all_matrices()]
    add("disjoint", "all spaces", "", "trivial intersections",
        0.0 if span_rows(every).shape[0] == len(every) else 1.0)

    for idx, pair in enumerate(qa.pairs):
        wname = name(pair.binary_label, False, str(idx + 1))
        hname = name(pair.binary_label, True, str(idx + 1))
        for g in pair.w.generators:
            for c in qa.center.generators:
                res = commutator_numeric(g, c)
                add("pair-center", wname, "A", hname, loop_target_residual(res, spans[(idx, True)]))
        for g in pair.w_hat.generators:
            for c in qa.center.generators:
                res = commutator_numeric(g, c)
                add("pair-center", hname, "A", wname, loop_target_residual(res, spans[(idx, False)]))
        for g in pair.w.generators:
            for h in pair.w_hat.generators:
                res = commutator_numeric(g, h)
                add("pair-pair", wname, hname, "A", loop_target_residual(res, center_span))

    for i, pi in enumerate(qa.pairs):
        for j, pj in enumerate(qa.pairs):
            if i >= j:
                continue
            for hi in (False, True):
                for hj in (False, True):
                    li = name(labels[i], hi, str(i + 1))
                    lj = name(labels[j], hj, str(j + 1))
                    if labels[i] is not None and labels[j] is not None:
                        tgt = bits_of(label_int(labels[i]) ^ label_int(labels[j]), qa.p)
                        tgt_hat = not (hi ^ hj)
                        if tgt in by_label:
                            rows = spans[(by_label[tgt], tgt_hat)]
                            tname = name(tgt, tgt_hat, tgt)
                        else:
                            rows, tname = None, f"missing pair {tgt}"
                    else:
                        rows, tname = None, "single third space"
                    worst = 0.0
                    for g in (pi.w if not hi else pi.w_hat).generators:
                        for h in (pj.w if not hj else pj.w_hat).generators:
                            res = commutator_numeric(g, h)
                            if rows is not None:
                                worst = max(worst, loop_target_residual(res, rows))
                            else:
                                worst = max(worst, loop_best_single_space(res, spans, center_span))
                    add("cross-pair", li, lj, tname, worst)
    return checks


def loop_structural_labels(merged, p, calls):
    count = len(merged)
    spans = [span_rows([g.matrix for g in ws + hats]) for ws, hats, _ in merged]

    def target(i, j):
        calls.append(1)
        for ga in merged[i][0][:1] + merged[i][1][:1]:
            for gb in merged[j][0] + merged[j][1]:
                res = ga.matrix @ gb.matrix - gb.matrix @ ga.matrix
                if frob(res) < SOLVE_TOL:
                    continue
                hits = [k for k, s in enumerate(spans) if in_span(-1j * res, s)]
                if len(hits) == 1 and hits[0] not in (i, j):
                    return hits[0]
        return None

    labels = [None] * count
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


def assert_same_report(qa):
    report = verify_closure(qa)
    want = loop_closure_checks(qa)
    assert len(report.checks) == len(want)
    for c, (kind, left, right, target, residual, ok) in zip(report.checks, want):
        assert (c.kind, c.left, c.right, c.target) == (kind, left, right, target)
        assert type(c.ok) is bool
        assert type(c.residual) is float
        assert c.ok == ok
        assert abs(c.residual - residual) <= 1e-15
    return report


def strip_labels(qa, drop=None):
    """The algebra with every binary label removed, or with one pair dropped."""
    if drop is not None:
        pairs = tuple(pair for pair in qa.pairs if pair.binary_label != drop)
    else:
        pairs = tuple(
            ConjugatePair(
                w=AbelianSpace(pair.w.generators),
                w_hat=AbelianSpace(pair.w_hat.generators, hat=True),
            )
            for pair in qa.pairs
        )
    return QuotientAlgebra(center=qa.center, pairs=pairs, dim=qa.dim, p=qa.p)


class TestCommutatorResiduals:
    def test_entries_match_project_residual(self, word_qa):
        qa = word_qa(4)
        left, right = qa.pairs[0].w.matrices, qa.pairs[1].all_matrices()
        rows = qa.pairs[2].w_hat.span()
        got, norms = commutator_residuals(left, right, rows)
        assert got.shape == norms.shape == (len(left), len(right))
        for i, a in enumerate(left):
            for k, b in enumerate(right):
                assert abs(got[i, k] - loop_target_residual(a @ b - b @ a, rows)) <= 1e-15
                assert abs(norms[i, k] - np.linalg.norm(a @ b - b @ a)) <= 1e-14

    def test_commuting_entries_are_zero(self, word_qa):
        qa = word_qa(8)
        center = qa.center.matrices
        empty = np.zeros((0, 2 * 8 * 8))
        assert not np.any(commutator_residuals(center, center, empty))


class TestVerifyClosureMatchesLoops:
    @pytest.mark.parametrize("n", WORD_DIMS)
    def test_word(self, n, word_qa):
        assert assert_same_report(word_qa(n)).passed

    @pytest.mark.parametrize("n", LAMBDA_DIMS)
    def test_lambda(self, n, lambda_qa):
        assert assert_same_report(lambda_qa(n)).passed

    @pytest.mark.parametrize("n", [4, 8])
    def test_single_third_space(self, n, word_qa):
        stripped = strip_labels(word_qa(n))
        report = assert_same_report(stripped)
        assert stripped._frame is None  # read on each generator's own slot form
        cross = [c for c in report.checks if c.kind == "cross-pair"]
        assert cross and all(c.target == "single third space" for c in cross)
        assert report.passed

    @pytest.mark.parametrize("n", [4, 8])
    def test_missing_pair(self, n, word_qa):
        drop = bits_of(n // 2 - 1, word_qa(n).p)
        report = assert_same_report(strip_labels(word_qa(n), drop=drop))
        missing = [c for c in report.checks if c.target == f"missing pair {drop}"]
        assert missing and not all(c.ok for c in missing)

    def test_corrupted_algebra(self, word_qa):
        # Swapping one generator between the two spaces of a pair breaks
        # pair-center closure; residuals well above rounding must agree too.
        qa = word_qa(8)
        pair = qa.pairs[0]
        w = (pair.w_hat.generators[0],) + pair.w.generators[1:]
        h = (pair.w.generators[0],) + pair.w_hat.generators[1:]
        broken = ConjugatePair(
            w=AbelianSpace(w, binary_label=pair.binary_label),
            w_hat=AbelianSpace(h, hat=True, binary_label=pair.binary_label),
            binary_label=pair.binary_label,
        )
        qa = QuotientAlgebra(center=qa.center, pairs=(broken,) + qa.pairs[1:], dim=8, p=qa.p)
        report = assert_same_report(qa)
        assert not report.passed
        assert report.max_residual > 0.5


def x_center(n):
    """Every word of p0 and p1 but the identity."""
    words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1), 1, None)
    return AbelianSpace(tuple(make_tensor_word(list(w)) for w in words))


def test_structural_labels_match_loops(monkeypatch):
    real = partition._structural_labels
    seen, calls = [], []

    def checked(merged, center, p):
        got = real(merged, center, p)
        labels = [pair.binary_label for pair in got[0]]
        assert labels == loop_structural_labels(merged, p, calls)
        seen.append(labels)
        return got

    members = {n: enumerate_maximal_abelian(n, shells) for n, shells in ((4, 3), (8, 1))}
    assert [len(found) for found in members.values()] == [15, 15]
    monkeypatch.setattr(partition, "_structural_labels", checked)
    for n, found in members.items():
        for member in found + [x_center(n)]:
            cartan._structure_of_center(member)  # a fresh build
    assert len(seen) == 30 and all(None not in labels for labels in seen)
    assert calls
