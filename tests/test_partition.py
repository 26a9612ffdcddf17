"""Quotient-algebra construction, closure, removal, and subscript tables."""

import numpy as np
import pytest

from cartankak import partition, serialize
from cartankak._linalg import frob, random_special_unitary, span_rows, spans_equal
from cartankak.errors import (
    BasisNotClosedError,
    ClosureViolationError,
    InvalidMatrixError,
    InvalidSubscriptError,
    NotAbelianError,
    NotBinaryPartitionedError,
    NotMaximalError,
)
from cartankak.generators import (
    Generator,
    LambdaHat,
    make_lambda,
    make_lambda_hat,
    make_tensor_word,
)
from cartankak.partition import (
    AbelianSpace,
    ConjugatePair,
    QuotientAlgebra,
    SubscriptTable,
    binary_label_of,
    build_quotient_algebra,
    conjugate_quotient_algebra,
    diagonalize_abelian,
    intrinsic_center,
    intrinsic_quotient_algebra,
    lambda_basis,
    removing_process,
    standard_basis,
    standard_word_center,
    subscript_table_of,
    verify_closure,
)


def word(*sites):
    return make_tensor_word(list(sites))


class TestIntrinsicCenter:
    def test_su4_span_equals_spinor_triple(self):
        spinor = [word("p3", "p0").matrix, word("p0", "p3").matrix, word("p3", "p3").matrix]
        assert spans_equal(intrinsic_center(4).matrices, spinor)

    def test_su2(self):
        c = intrinsic_center(2)
        assert len(c) == 1
        np.testing.assert_allclose(c.generators[0].matrix, np.diag([1.0, -1.0]))

    def test_su6_contains_alternating_diagonal(self):
        rows = span_rows(intrinsic_center(6).matrices)
        target = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]).astype(complex)
        from cartankak._linalg import project_residual

        assert project_residual(target, rows) < 1e-12

    def test_too_small(self):
        with pytest.raises(InvalidSubscriptError):
            intrinsic_center(1)

    def test_word_center_su6_matches_figure(self):
        got = {g.label_str for g in standard_word_center(6).generators}
        assert got == {
            "tensor:g0,p3",
            "tensor:g3,p0",
            "tensor:g8,p0",
            "tensor:g3,p3",
            "tensor:g8,p3",
        }


class TestDiagonalizeAbelian:
    def test_intrinsic_already_diagonal(self):
        np.testing.assert_allclose(diagonalize_abelian(intrinsic_center(4)), np.eye(4))

    def test_sigma1_set(self):
        space = AbelianSpace((word("p1", "p0"), word("p0", "p1"), word("p1", "p1")))
        u = diagonalize_abelian(space)
        for g in space.generators:
            d = u @ g.matrix @ u.conj().T
            assert frob(d - np.diag(np.diag(d))) < 1e-9
        assert abs(np.linalg.det(u) - 1.0) < 1e-9

    def test_non_commuting_rejected(self):
        bad = [word("p1", "p0").matrix, word("p3", "p0").matrix]
        with pytest.raises(NotAbelianError):
            diagonalize_abelian(bad)

    def test_two_shapes_rejected(self):
        with pytest.raises(InvalidMatrixError, match="one square shape"):
            diagonalize_abelian([np.diag([1.0, -1.0]), np.diag([1.0, 0.0, -1.0])])

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidMatrixError, match="not Hermitian"):
            diagonalize_abelian([[[0, 1], [0, 0]]])


class TestBuildQuotientAlgebra:
    def test_su4_matches_figure(self, word_qa):
        qa = word_qa(4)
        figure = {
            "01": ((("p0", "p1"), ("p3", "p1")), (("p0", "p2"), ("p3", "p2"))),
            "10": ((("p1", "p0"), ("p1", "p3")), (("p2", "p0"), ("p2", "p3"))),
            "11": ((("p1", "p1"), ("p2", "p2")), (("p2", "p1"), ("p1", "p2"))),
        }
        assert len(qa.pairs) == 3
        for pair in qa.pairs:
            ws, hs = figure[pair.binary_label]
            assert spans_equal(pair.w.matrices, [word(*s).matrix for s in ws])
            assert spans_equal(pair.w_hat.matrices, [word(*s).matrix for s in hs])

    def test_su8_matches_figure(self, word_qa):
        qa = word_qa(8)
        assert len(qa.pairs) == 7
        assert all(len(p.w) == 4 for p in qa.pairs)
        figw = [word("p0", "p0", "p1"), word("p3", "p0", "p1"),
                word("p0", "p3", "p1"), word("p3", "p3", "p1")]
        figh = [word("p0", "p0", "p2"), word("p3", "p0", "p2"),
                word("p0", "p3", "p2"), word("p3", "p3", "p2")]
        pair = qa.pair_by_label("001")
        assert spans_equal(pair.w.matrices, [g.matrix for g in figw])
        assert spans_equal(pair.w_hat.matrices, [g.matrix for g in figh])

    def test_su6_matches_figure(self, word_qa):
        qa = word_qa(6)
        sizes = sorted((len(p.w) for p in qa.pairs), reverse=True)
        assert sizes == [3, 2, 2, 2, 2, 2, 2]
        assert qa.generator_count() == 35
        pair1 = qa.pair_by_label("001")
        fig_w1 = [word("g0", "p1"), word("g3", "p1"), word("g8", "p1")]
        assert spans_equal(pair1.w.matrices, [g.matrix for g in fig_w1])
        pair2 = qa.pair_by_label("010")
        fig_w2 = [word("g1", "p0"), word("g1", "p3")]
        assert spans_equal(pair2.w.matrices, [g.matrix for g in fig_w2])

    def test_su8_non_diagonal_center_matches_figure(self):
        c_words = [("p1", "p0", "p0"), ("p0", "p1", "p0"), ("p0", "p0", "p1"),
                   ("p1", "p1", "p0"), ("p1", "p0", "p1"), ("p0", "p1", "p1"),
                   ("p1", "p1", "p1")]
        center = AbelianSpace(tuple(word(*s) for s in c_words))
        qa = build_quotient_algebra(center, standard_basis(8))
        assert len(qa.pairs) == 7
        assert all(len(p.w) == 4 for p in qa.pairs)
        assert verify_closure(qa).passed
        figw = [word("p3", "p0", "p0"), word("p3", "p1", "p0"),
                word("p3", "p0", "p1"), word("p3", "p1", "p1")]
        figh = [word("p2", "p0", "p0"), word("p2", "p1", "p0"),
                word("p2", "p0", "p1"), word("p2", "p1", "p1")]
        target = [g.matrix for g in figw + figh]
        hits = [
            p for p in qa.pairs
            if spans_equal(p.w.matrices + p.w_hat.matrices, target)
        ]
        assert len(hits) == 1

    def test_non_commuting_space_is_not_closed(self):
        # For the center {g1, g8} of su(3) the word basis yields the unmerged
        # pair W = {g4, g6}, W^ = {g7, g5}; neither space commutes.
        center = AbelianSpace((word("g1"), word("g8")))
        with pytest.raises(BasisNotClosedError, match="a conjugate space does not commute"):
            build_quotient_algebra(center, standard_basis(3))

    def test_center_not_maximal_rejected(self):
        small = AbelianSpace((word("p3", "p0"),))
        with pytest.raises(NotMaximalError, match="commutes with the whole center"):
            build_quotient_algebra(small, standard_basis(4))

    def test_word_basis_at_9_is_not_closed(self):
        # At N=9 (two Gell-Mann sites) a commutator with the word center can
        # be a sum of several words.
        with pytest.raises(BasisNotClosedError,
                           match="not proportional to a single basis generator"):
            build_quotient_algebra(standard_word_center(9), standard_basis(9))

    def test_commutator_off_its_one_overlapping_generator(self):
        # Pool {p1, p1 + p2}: [p1, p3] = -2i p2 overlaps p1 + p2 only, and is
        # not a multiple of it.
        p1, p2, p3 = (word(f"p{k}") for k in (1, 2, 3))
        basis = [p1, Generator(None, 2, p1.matrix + p2.matrix), p3]
        with pytest.raises(BasisNotClosedError, match="commutator leaves the basis span"):
            build_quotient_algebra(AbelianSpace((p3,)), basis)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_power_of_two_shape(self, n, word_qa):
        qa = word_qa(n)
        p = qa.p
        assert len(qa.pairs) == (1 << p) - 1
        assert all(len(pair.w) == (1 << (p - 1)) for pair in qa.pairs)
        labels = [pair.binary_label for pair in qa.pairs]
        assert len(set(labels)) == len(labels)
        assert all(binary_label_of(pair) == pair.binary_label for pair in qa.pairs)


class TestBinaryLabels:
    def test_spinor_row_001(self, word_qa):
        pair = word_qa(8).pair_by_label("001")
        assert binary_label_of(pair) == "001"

    def test_row_011_from_lambda_pair(self, lambda_qa):
        pair = lambda_qa(4).pair_by_label("11")
        assert binary_label_of(pair) == "11"

    def test_inconsistent_subscripts_rejected(self):
        w = AbelianSpace((make_lambda(1, 6, 8), make_lambda(1, 5, 8)))
        wh = AbelianSpace(
            (make_lambda_hat(1, 6, 8), make_lambda_hat(1, 5, 8)), hat=True
        )
        with pytest.raises(NotBinaryPartitionedError):
            binary_label_of(ConjugatePair(w=w, w_hat=wh))


class TestVerifyClosure:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_intrinsic_algebras_pass(self, n, word_qa):
        report = verify_closure(word_qa(n))
        assert report.passed
        assert report.max_residual < 1e-9

    def test_mixed_spaces_fail(self, lambda_qa):
        # Merge W_100 and W_101 material into one would-be space: closure breaks.
        qa = lambda_qa(8)
        w100, w101 = qa.pair_by_label("100"), qa.pair_by_label("101")
        mixed_w = AbelianSpace(
            (w100.w.generators[0], w101.w.generators[1],
             w100.w.generators[2], w101.w.generators[3]),
            binary_label="100",
        )
        mixed_h = AbelianSpace(
            (w100.w_hat.generators[0], w101.w_hat.generators[1],
             w100.w_hat.generators[2], w101.w_hat.generators[3]),
            hat=True,
            binary_label="100",
        )
        pairs = [p for p in qa.pairs if p.binary_label not in ("100", "101")]
        pairs.append(ConjugatePair(w=mixed_w, w_hat=mixed_h, binary_label="100"))
        broken = QuotientAlgebra(
            center=qa.center, pairs=tuple(pairs), dim=qa.dim, p=qa.p
        )
        report = verify_closure(broken)
        assert not report.passed
        assert any(c.kind == "cross-pair" for c in report.failures())

    def test_conjugation_transport(self, word_qa):
        qa = word_qa(8)
        u = random_special_unitary(8, np.random.default_rng(23))
        moved = conjugate_quotient_algebra(qa, u)
        report = verify_closure(moved)
        assert report.passed

    def test_closure_xor_targets(self, word_qa):
        # Every cross commutator lands in the xor pair with flipped hat parity;
        # verify_closure already asserts the target, so a pass pins Eq-level
        # behavior; spot-check one product by hand too.
        qa = word_qa(4)
        from cartankak.generators import commutator_numeric

        g1 = qa.pair_by_label("01").w.generators[0]
        g2 = qa.pair_by_label("10").w.generators[0]
        res = -1j * commutator_numeric(g1, g2)
        target = span_rows(qa.pair_by_label("11").w_hat.matrices)
        from cartankak._linalg import project_residual

        assert project_residual(res, target) < 1e-12


class TestRemovingProcess:
    def test_su8_to_su6(self, lambda_qa):
        qa6 = lambda_qa(6)
        assert qa6.generator_count() == 35
        sizes = [len(qa6.pair_by_label(l).w) for l in
                 ("001", "010", "011", "100", "101", "110", "111")]
        assert sizes == [3, 2, 2, 2, 2, 2, 2]
        assert verify_closure(qa6).passed

    def test_su4_to_su3_is_gell_mann(self, lambda_qa):
        qa3 = lambda_qa(3)
        assert qa3.generator_count() == 8
        assert len(qa3.pairs) == 3
        assert verify_closure(qa3).passed
        # Brute-force oracle: the eight Gell-Mann matrices close under the
        # commutator and span the same algebra.
        mus = [make_tensor_word([f"g{k}"]).matrix for k in range(1, 9)]
        everything = (
            qa3.center.matrices
            + [m for pair in qa3.pairs for m in pair.all_matrices()]
        )
        assert spans_equal(everything, mus)
        rows = span_rows(mus)
        from cartankak._linalg import project_residual

        for a in mus:
            for b in mus:
                c = a @ b - b @ a
                if frob(c) > 1e-12:
                    assert project_residual(-1j * c, rows) < 1e-12

    def test_identity_removal(self, lambda_qa):
        qa8 = lambda_qa(8)
        assert removing_process(qa8, 8) is qa8

    def test_out_of_range(self, lambda_qa):
        with pytest.raises(InvalidSubscriptError):
            removing_process(lambda_qa(8), 4)
        with pytest.raises(InvalidSubscriptError):
            removing_process(lambda_qa(8), 9)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_word_algebra_cuts_to_the_lambda_structure(self, n, word_qa):
        # Word generators reach past row n, so every cut one loses its label.
        removed, direct = removing_process(word_qa(8), n), intrinsic_quotient_algebra(n)
        assert [p.binary_label for p in removed.pairs] == [p.binary_label for p in direct.pairs]
        for a, b in zip(_spaces(removed), _spaces(direct), strict=True):
            assert len(a) == len(b) and spans_equal(a.matrices, b.matrices)
            assert all(g.label is None for g in a.generators)
        assert verify_closure(removed).passed

    @staticmethod
    def _one_pair_su4(w, w_hat):
        pair = ConjugatePair(w=AbelianSpace(tuple(w)), w_hat=AbelianSpace(tuple(w_hat)),
                             binary_label="01")
        return QuotientAlgebra(center=intrinsic_center(4), pairs=(pair,), dim=4, p=2)

    def test_space_that_vanishes(self):
        qa = self._one_pair_su4([make_lambda(3, 4, 4)], [make_lambda_hat(1, 2, 4)])
        with pytest.raises(ClosureViolationError, match="^a conjugate space vanished under removal$"):
            removing_process(qa, 3)

    def test_pair_sizes_that_diverge(self):
        qa = self._one_pair_su4([make_lambda(1, 2, 4), make_lambda(3, 4, 4)],
                                [make_lambda_hat(1, 2, 4), make_lambda_hat(1, 3, 4)])
        with pytest.raises(ClosureViolationError, match="^pair sizes diverged during removal$"):
            removing_process(qa, 3)

    def test_too_few_generators_kept(self):
        qa = self._one_pair_su4([make_lambda(1, 2, 4)], [make_lambda_hat(1, 2, 4)])
        with pytest.raises(ClosureViolationError, match="^removal kept 4 generators, expected 8$"):
            removing_process(qa, 3)


class TestSubscriptTable:
    def test_su4_rows(self, lambda_qa):
        table = subscript_table_of(lambda_qa(4))
        assert set(table.rows) == {
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        }
        assert table.check_closure() == []

    def test_su8_displayed_rows(self, lambda_qa):
        table = subscript_table_of(lambda_qa(8))
        by_label = dict(zip(table.labels, table.rows))
        assert by_label["001"] == ((1, 2), (3, 4), (5, 6), (7, 8))
        assert by_label["010"] == ((1, 3), (2, 4), (5, 7), (6, 8))
        assert by_label["011"] == ((1, 4), (2, 3), (5, 8), (6, 7))
        assert by_label["100"] == ((1, 5), (2, 6), (3, 7), (4, 8))
        assert table.check_closure() == []

    def test_partial_permutation_detected(self):
        bad = SubscriptTable((
            ((1, 2), (3, 4), (5, 6), (7, 8)),
            ((1, 3), (2, 4), (5, 7), (6, 8)),
            ((1, 4), (2, 3), (5, 8), (6, 7)),
            ((1, 5), (2, 7), (3, 6), (4, 8)),
        ))
        problems = bad.check_closure()
        assert problems
        assert any("1x4" in p for p in problems) and any("2x4" in p for p in problems)

    def test_repeated_integer_rejected(self):
        with pytest.raises(InvalidSubscriptError):
            SubscriptTable((((1, 2), (2, 3)),))

    def test_pre_decision_rule(self, lambda_qa):
        # Rows at labels 1, 2, 4 generate all others through row products.
        table = subscript_table_of(lambda_qa(8))
        by_label = dict(zip(table.labels, table.rows))
        idx = {lab: i for i, lab in enumerate(table.labels)}
        derived = {
            "011": table.multiply_rows(idx["001"], idx["010"]),
            "101": table.multiply_rows(idx["001"], idx["100"]),
            "110": table.multiply_rows(idx["010"], idx["100"]),
            "111": table.multiply_rows(idx["011"], idx["100"]),
        }
        for lab, prods in derived.items():
            assert set(by_label[lab]) == set(prods)


def _spaces(qa):
    return [qa.center] + [space for pair in qa.pairs for space in pair.spaces]


class TestLambdaAlgebras:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_lambda_construction_merges_fragments(self, n, lambda_qa):
        qa = lambda_qa(n)
        assert len(qa.pairs) == (1 << qa.p) - 1
        assert verify_closure(qa).passed

    def test_lambda_su4_uses_plain_generators(self, lambda_qa):
        pair = lambda_qa(4).pair_by_label("01")
        assert [g.label_str for g in pair.w.generators] == ["lambda(1,2)", "lambda(3,4)"]
        assert [g.label_str for g in pair.w_hat.generators] == [
            "lambdahat(1,2)",
            "lambdahat(3,4)",
        ]

    @pytest.mark.parametrize("n", range(2, 17))
    def test_direct_build_equals_removing_process(self, n, lambda_qa):
        # Algorithm run natively on the su(n) lambda basis merges into the
        # same structure the removing process cuts from su(2^p).
        direct, removed = intrinsic_quotient_algebra(n), lambda_qa(n)
        assert (direct.dim, direct.p) == (removed.dim, removed.p)
        assert [p.binary_label for p in direct.pairs] == [p.binary_label for p in removed.pairs]
        for a, b in zip(_spaces(direct), _spaces(removed), strict=True):
            assert len(a) == len(b)
            assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
        assert serialize.dumps(serialize.qa_to_json(direct)) == serialize.dumps(
            serialize.qa_to_json(removed)
        )

    @pytest.mark.parametrize("order", ["hats first", "reversed"])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_basis_order_does_not_orient_the_pairs(self, n, order):
        # A seed from the hat side gives a fragment with W = lambdahat; at N=3
        # no label has two fragments, so only the orientation rule turns it.
        basis = lambda_basis(n)
        if order == "hats first":
            basis.sort(key=lambda g: not isinstance(g.label, LambdaHat))
        else:
            basis.reverse()
        qa = build_quotient_algebra(intrinsic_center(n), basis)
        assert verify_closure(qa).passed
        labels = [pair.binary_label for pair in qa.pairs]
        assert labels == sorted(labels)
        assert not any(np.imag(pair.w.matrices).any() for pair in qa.pairs)
        for a, b in zip(_spaces(qa), _spaces(intrinsic_quotient_algebra(n)), strict=True):
            assert spans_equal(a.matrices, b.matrices)

    def test_standard_fallback_builds_at_n(self, lambda_qa, monkeypatch):
        def refuse(*args):
            raise AssertionError("removing process reached from standard_quotient_algebra")

        built = []
        direct = partition.intrinsic_quotient_algebra
        monkeypatch.setattr(partition, "removing_process", refuse)
        monkeypatch.setattr(
            partition, "intrinsic_quotient_algebra", lambda n: built.append(n) or direct(n)
        )
        for n in (9, 15):
            qa = partition.standard_quotient_algebra(n)
            assert built[-1] == n
            assert serialize.dumps(serialize.qa_to_json(qa)) == serialize.dumps(
                serialize.qa_to_json(lambda_qa(n))
            )
        assert built == [9, 15]

    def test_representation_rule_matches_a_trial_build(self, monkeypatch):
        """standard_quotient_algebra reads its representation off the sites; a
        trial word build succeeds exactly where it picks the word basis."""
        picked, build = [], partition.build_quotient_algebra
        monkeypatch.setattr(partition, "build_quotient_algebra",
                            lambda center, basis: picked.append(center.dim) or build(center, basis))
        monkeypatch.setattr(partition, "intrinsic_quotient_algebra", lambda n: None)
        trial = []
        for n in range(2, 25):
            partition.standard_quotient_algebra(n)
            try:
                build(standard_word_center(n), standard_basis(n))
                trial.append(n)
            except BasisNotClosedError:
                pass
        assert picked == trial == [2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16, 17, 19, 23, 24]

