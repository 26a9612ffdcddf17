"""Cartan splits, shell enumeration, and decomposition sequences."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from cartankak import cartan
from cartankak._linalg import all_commute, frob, project_residual, span_rows, spans_equal
from cartankak.cartan import (
    build_cartan_split,
    build_decomposition_sequence,
    enumerate_maximal_abelian,
    enumerate_t_choices,
    extend_to_maximal_abelian,
    nearest_neighbors,
)
from cartankak.errors import InvalidChoiceError, NotInSpanError
from cartankak.generators import Generator, make_tensor_word
from cartankak.partition import AbelianSpace, standard_basis


def word(*sites):
    return make_tensor_word(list(sites))


class TestEnumerateChoices:
    def test_su8_has_eight(self, word_qa):
        assert len(enumerate_t_choices(word_qa(8))) == 8

    def test_su4_has_four(self, word_qa):
        assert len(enumerate_t_choices(word_qa(4))) == 4

    def test_su6_has_eight(self, word_qa):
        # Isomorphic to the su(8) structure, hence the same 2^3 selectors.
        assert len(enumerate_t_choices(word_qa(6))) == 8


class TestBuildCartanSplit:
    def test_paper_worked_example(self, word_qa):
        # W1, W2 and the conjugates at 011, 100 force {W5, W6, conjugate-W7}.
        split = build_cartan_split(word_qa(8), "011")
        sel = split.hat_selection()
        assert (sel["001"], sel["010"], sel["011"], sel["100"]) == (
            False,
            False,
            True,
            True,
        )
        assert (sel["101"], sel["110"], sel["111"]) == (False, False, True)

    def test_su4_all_w_choice_forces_conjugate_at_11(self, word_qa):
        # Free W picks at labels 01 and 10 force the conjugate space at 11;
        # oracle: direct commutator check over all basis pairs of p.
        qa = word_qa(4)
        split = build_cartan_split(qa, "11")
        sel = split.hat_selection()
        assert sel == {"01": False, "10": False, "11": True}
        t_rows = span_rows(split.t_matrices())
        for a in split.p_matrices():
            for b in split.p_matrices():
                c = a @ b - b @ a
                if frob(c) > 1e-12:
                    assert project_residual(-1j * c, t_rows) < 1e-9

    def test_explicit_inconsistent_selection_rejected(self, word_qa):
        with pytest.raises(InvalidChoiceError):
            build_cartan_split(word_qa(4), "000")  # all-W per-pair selection

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_all_splits_satisfy_cartan_conditions(self, n, word_qa):
        qa = word_qa(n)
        for bits in enumerate_t_choices(qa):
            split = build_cartan_split(qa, bits)
            split.validate()  # raises on any violated condition
            t_dim = span_rows(split.t_matrices()).shape[0]
            p_dim = span_rows(split.p_matrices()).shape[0]
            assert t_dim + p_dim == n * n - 1

    def test_trace_orthogonality_exact(self, word_qa):
        split = build_cartan_split(word_qa(8), "000")
        worst = max(
            abs(np.trace(a @ b))
            for a in split.t_matrices()
            for b in split.p_matrices()
        )
        assert worst < 1e-14

    @pytest.mark.parametrize("n", [4, 8, 9])
    def test_per_pair_strings_build_the_selector_splits(self, n, std_seq):
        # One character per pair in label order, '1' where the hatted space is in t.
        qa = std_seq(n).qa
        for bits in enumerate_t_choices(qa):
            split = build_cartan_split(qa, bits)
            hats = split.hat_selection()
            explicit = build_cartan_split(qa, "".join("01"[hats[lab]] for lab in sorted(hats)))
            assert explicit.choice_bits == bits
            assert explicit.t == split.t and explicit.p_part == split.p_part

    def test_bad_choice_length(self, word_qa):
        with pytest.raises(InvalidChoiceError):
            build_cartan_split(word_qa(8), "01")


class TestValidateErrors:
    """Each CartanSplit.validate error from a hand-built split at N=4."""

    @staticmethod
    def _perturbed(split, weight, scale=1.0):
        # p's first generator g0 becomes g0 + weight * t0; t0 becomes scale * t0.
        (t0, *t_rest), (g0, *p_rest) = split.t[0].generators, split.p_part[0].generators
        big = Generator(None, 4, scale * t0.matrix)
        moved = Generator(None, 4, g0.matrix + weight * t0.matrix)
        t = (AbelianSpace((big, *t_rest)),) + split.t[1:]
        p = (AbelianSpace((moved, *p_rest)),) + split.p_part[1:]
        return replace(split, t=t, p_part=p)

    def test_do_not_fill(self, word_qa):
        split = build_cartan_split(word_qa(4), "00")
        t = (AbelianSpace(split.t[0].generators[1:]),) + split.t[1:]
        with pytest.raises(InvalidChoiceError, match="do not fill"):
            replace(split, t=t).validate()

    def test_tt_not_in_t(self, word_qa):
        # Swapping the spaces of pair 11 breaks the parity rule: [t_01, t_10]
        # lands in the space of pair 11 that now sits in p.
        split = build_cartan_split(word_qa(4), "00")
        assert split.t[2].binary_label == "11"
        t = split.t[:2] + (split.p_part[2],)
        p = split.p_part[:2] + (split.t[2],)
        with pytest.raises(InvalidChoiceError, match=r"\[t,t\] not in t"):
            replace(split, t=t, p_part=p).validate()

    def test_tp_not_in_p(self, word_qa):
        split = self._perturbed(build_cartan_split(word_qa(4), "00"), 1.0)
        with pytest.raises(InvalidChoiceError, match=r"\[t,p\] not in p"):
            split.validate()

    def test_pp_not_in_t(self, word_qa):
        # t = su(2) on the first site, p its orthogonal complement:
        # [t,t] in t and [t,p] in p, but [I x s_a, I x s_b] is in p.
        first_site = [word(f"p{k}", "p0") for k in (1, 2, 3)]
        names = {g.label_str for g in first_site}
        rest = [g for g in standard_basis(4) if g.label_str not in names]
        assert len(rest) == 12
        split = cartan.CartanSplit(
            qa=word_qa(4),
            choice_bits="00",
            t=tuple(AbelianSpace((g,)) for g in first_site),
            p_part=tuple(AbelianSpace((g,)) for g in rest[1:]),
            chosen_center=AbelianSpace((rest[0],)),
        )
        with pytest.raises(InvalidChoiceError, match=r"\[p,p\] not in t"):
            split.validate()

    def test_trace_check_needs_an_inexact_input(self, word_qa):
        # With exact generators the three brackets and the dimension count
        # make theta = +1 on t, -1 on p an automorphism, so Tr(t p) = 0. Here
        # p0 gains 1e-13 t0: each commutator that part adds has a norm below
        # STRUCT_TOL and counts as zero. With t0 scaled by 1e5, the trace
        # Tr(1e5 t0 p0) = 1e-13 * 1e5 * Tr(t0^2) = 4e-8 exceeds 1e-10.
        split = self._perturbed(build_cartan_split(word_qa(4), "00"), 1e-13, 1e5)
        with pytest.raises(InvalidChoiceError, match=r"Tr\(t p\)"):
            split.validate()


class TestExtendToMaximalAbelian:
    def test_su4_w1_gains_sigma3_i(self, word_qa):
        qa = word_qa(4)
        ext = extend_to_maximal_abelian(qa.pair_by_label("01").w, qa.center)
        assert len(ext) == 3
        expected = [word("p0", "p1"), word("p3", "p1"), word("p3", "p0")]
        assert spans_equal(ext.matrices, [g.matrix for g in expected])

    def test_already_maximal_unchanged(self, word_qa):
        qa = word_qa(4)
        ext = extend_to_maximal_abelian(qa.center, qa.center)
        assert spans_equal(ext.matrices, qa.center.matrices)

    def test_su8_w001_reaches_seven(self, word_qa):
        qa = word_qa(8)
        space = qa.pair_by_label("001").w
        ext = extend_to_maximal_abelian(space, qa.center)
        assert len(ext) == 7
        ext.validate(1e-10)  # pairwise commuting and independent
        ext_rows = span_rows(ext.matrices)
        assert all(project_residual(m, ext_rows) < 1e-12 for m in space.matrices)

    def test_lambda_space_needs_combination(self, lambda_qa):
        # No single d_1l commutes with the whole lambda row; the extension
        # must come from center combinations and still reach N - 1.
        qa = lambda_qa(8)
        ext = extend_to_maximal_abelian(qa.pair_by_label("001").w_hat, qa.center)
        assert len(ext) == 7
        ext.validate(1e-10)


class TestShellEnumeration:
    def test_first_shell_six_neighbors(self):
        members = enumerate_maximal_abelian(4, 1)
        assert len(members) == 7  # the start plus 6 nearest neighbors

    def test_two_shells_give_fifteen(self):
        assert len(enumerate_maximal_abelian(4, 2)) == 15

    def test_fixed_point(self):
        assert len(enumerate_maximal_abelian(4, 3)) == 15
        assert len(enumerate_maximal_abelian(4, 5)) == 15

    def test_every_member_has_six_neighbors(self):
        for member in enumerate_maximal_abelian(4, 2):
            assert len(nearest_neighbors(member, 4)) == 6

    def test_all_members_maximal_abelian(self):
        for member in enumerate_maximal_abelian(4, 2):
            assert len(member) == 3
            member.validate(1e-10)

    @pytest.mark.parametrize("shells", [2, 3])
    def test_su3_members_abelian_via_transport(self, shells, monkeypatch):
        # Some su(3) centers leave the word basis, so their quotient algebra
        # is the intrinsic one at N = 3, transported to the center.
        built = []
        direct = cartan.intrinsic_quotient_algebra
        monkeypatch.setattr(
            cartan, "intrinsic_quotient_algebra", lambda n: built.append(n) or direct(n)
        )
        members = enumerate_maximal_abelian(3, shells)
        assert built and set(built) == {3}
        for member in members:
            assert len(member) == 2
            member.validate(1e-10)


class TestDecompositionSequences:
    def test_su4_default_final_abelian(self, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        assert len(seq.levels) == 2
        assert all_commute(seq.final.matrices, 1e-12)
        assert len(seq.final) == 2

    def test_su8_level_shape(self, word_qa):
        seq = build_decomposition_sequence(word_qa(8))
        assert [len(lv.chosen_labels) for lv in seq.levels] == [7, 3, 1]
        assert [len(lv.center) for lv in seq.levels] == [7, 7, 7]

    def test_su6_same_shape_as_su8(self, word_qa):
        seq6 = build_decomposition_sequence(word_qa(6))
        seq8 = build_decomposition_sequence(word_qa(8))
        assert [len(l.chosen_labels) for l in seq6.levels] == [
            len(l.chosen_labels) for l in seq8.levels
        ]
        assert [len(lv.center) for lv in seq6.levels] == [5, 5, 5]

    def test_level_centers_inside_previous_t(self, word_qa):
        seq = build_decomposition_sequence(word_qa(8))
        for k, lv in enumerate(seq.levels[1:], start=2):
            prev = seq.levels[k - 2]
            t_rows = span_rows(
                [m for lab in prev.chosen_labels for m in seq.space_at(lab).matrices]
            )
            assert all(
                project_residual(m, t_rows) < 1e-12 for m in lv.center_core.matrices
            )

    def test_hat_selection_is_read_only(self, word_qa):
        hats = {"01": True}
        seq = replace(build_decomposition_sequence(word_qa(4)), hat_selection=hats)
        with pytest.raises(TypeError):
            seq.hat_selection["01"] = False
        hats["01"] = False  # the sequence holds its own copy
        assert seq.hat_selection["01"] is True
        for again in (pickle.loads(pickle.dumps(seq)), copy.deepcopy(seq)):
            assert dict(again.hat_selection) == {"01": True}
            with pytest.raises(TypeError):
                again.hat_selection["01"] = False

    def test_override_designates_center(self, word_qa):
        qa = word_qa(8)
        base = build_decomposition_sequence(qa)
        w010 = base.space_at("010")
        seq = build_decomposition_sequence(qa, None, [w010, None])
        assert seq.levels[1].label == "010"

    def test_override_not_inside_t_rejected(self, word_qa):
        qa = word_qa(8)
        # A p-side space: the conjugate of the chosen one at label 001.
        split_hats = build_decomposition_sequence(qa).hat_selection
        pair = qa.pair_by_label("001")
        outside = pair.w if split_hats["001"] else pair.w_hat
        with pytest.raises(NotInSpanError):
            build_decomposition_sequence(qa, None, [outside, None])

    def test_superposed_override_rejected(self, word_qa):
        qa = word_qa(8)
        base = build_decomposition_sequence(qa)
        a = base.space_at("010").generators
        b = base.space_at("100").generators
        mixed = AbelianSpace((a[0], b[0]))
        with pytest.raises(NotInSpanError):
            build_decomposition_sequence(qa, None, [mixed, None])

    def test_wrong_choice_lengths_rejected(self, word_qa):
        with pytest.raises(InvalidChoiceError):
            build_decomposition_sequence(word_qa(8), ["000", "00"])
        with pytest.raises(InvalidChoiceError):
            build_decomposition_sequence(word_qa(8), ["000", "000", "0"])

    def test_all_choice_combinations_su4(self, word_qa):
        qa = word_qa(4)
        for level1 in ("00", "01", "10", "11"):
            for level2 in ("0", "1"):
                seq = build_decomposition_sequence(qa, [level1, level2])
                assert all_commute(seq.final.matrices, 1e-12)


class TestFinalLevelSize:
    def test_su4_final_extends_to_three(self, word_qa):
        # The final abelian subalgebra recovers N - 1 commuting generators.
        seq = build_decomposition_sequence(word_qa(4))
        assert len(seq.final) == 2
        ext = seq.final_extended()
        assert len(ext) == 3
        ext.validate(1e-10)

    @pytest.mark.parametrize("n", [6, 8])
    def test_final_extended_reaches_n_minus_1(self, n, word_qa):
        seq = build_decomposition_sequence(word_qa(n))
        assert len(seq.final_extended()) == n - 1
