"""Cartan splits, shell enumeration, and decomposition sequences."""

import copy
import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest

from cartankak import cartan, serialize
from cartankak._linalg import all_commute, frob, project_residual, span_rows, spans_equal
from cartankak.cartan import (
    build_cartan_split,
    build_decomposition_sequence,
    enumerate_maximal_abelian,
    enumerate_t_choices,
    extend_to_maximal_abelian,
    nearest_neighbors,
)
from cartankak._linalg import random_special_unitary
from cartankak.errors import (
    InvalidChoiceError,
    NotAbelianError,
    NotBinaryPartitionedError,
    NotInSpanError,
    NotMaximalError,
)
from cartankak.generators import Generator, make_tensor_word
from cartankak.kak import recursive_decompose
from cartankak.partition import (
    AbelianSpace,
    ConjugatePair,
    standard_basis,
    standard_quotient_algebra,
    standard_word_center,
    verify_closure,
)


def word(*sites):
    return make_tensor_word(list(sites))


def assert_centers_maximal(seq, n):
    """A_[k] holds N - 1 commuting, independent generators for k = 1..p+1."""
    for k in range(1, seq.depth + 2):
        center = seq.center(k)
        assert len(center) == n - 1
        center.validate()


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
        ext.validate()  # pairwise commuting and independent
        ext_rows = span_rows(ext.matrices)
        assert all(project_residual(m, ext_rows) < 1e-12 for m in space.matrices)

    def test_space_the_center_cannot_extend(self):
        # Of the diagonal words only Z x Z commutes with X x X: two generators, not three.
        with pytest.raises(NotMaximalError, match="^extension reached 2 generators, expected 3$"):
            extend_to_maximal_abelian(AbelianSpace((word("p1", "p1"),)), standard_word_center(4))

    def test_lambda_space_needs_combination(self, lambda_qa):
        # No single d_1l commutes with the whole lambda row; the extension
        # must come from center combinations and still reach N - 1.
        qa = lambda_qa(8)
        ext = extend_to_maximal_abelian(qa.pair_by_label("001").w_hat, qa.center)
        assert len(ext) == 7
        ext.validate()


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
            assert len(nearest_neighbors(member)) == 6

    def test_all_members_maximal_abelian(self):
        for member in enumerate_maximal_abelian(4, 2):
            assert len(member) == 3
            member.validate()

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
            member.validate()


    @pytest.mark.parametrize("n, shells", [(4, 3), (8, 1)])
    def test_every_member_closes_and_factors(self, n, shells):
        # The Bell-type members (su(4): 5, 6, 9, 10, 13, 14) take their pair
        # labels from structure alone; hat parity then fixes each pair's sides.
        for i, member in enumerate(enumerate_maximal_abelian(n, shells)):
            qa = cartan._structure_of_center(member)
            assert verify_closure(qa).passed, i
            u = random_special_unitary(n, np.random.default_rng(100 + i))
            fact = recursive_decompose(u, build_decomposition_sequence(qa))
            assert fact.reconstruction_error < 1e-8, i

class TestDecompositionSequences:
    def test_su4_default_final_abelian(self, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        assert len(seq.levels) == 2
        assert all_commute(seq.final.matrices)
        assert len(seq.final) == 2

    def test_su8_level_shape(self, word_qa):
        seq = build_decomposition_sequence(word_qa(8))
        assert [len(lv.chosen_labels) for lv in seq.levels] == [7, 3, 1]
        assert_centers_maximal(seq, 8)

    def test_su6_same_shape_as_su8(self, word_qa):
        seq6 = build_decomposition_sequence(word_qa(6))
        seq8 = build_decomposition_sequence(word_qa(8))
        assert [len(l.chosen_labels) for l in seq6.levels] == [
            len(l.chosen_labels) for l in seq8.levels
        ]
        assert_centers_maximal(seq6, 6)

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
                assert all_commute(seq.final.matrices)


class TestFinalLevelSize:
    def test_su4_final_extends_to_three(self, word_qa):
        # The final abelian subalgebra recovers N - 1 commuting generators.
        seq = build_decomposition_sequence(word_qa(4))
        assert len(seq.final) == 2
        ext = seq.center(3)
        assert len(ext) == 3
        ext.validate()

    @pytest.mark.parametrize("n", [6, 8])
    def test_final_extended_reaches_n_minus_1(self, n, word_qa):
        seq = build_decomposition_sequence(word_qa(n))
        assert len(seq.center(seq.depth + 1)) == n - 1

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_center_outside_one_to_p_plus_1_raises(self, k, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        with pytest.raises(InvalidChoiceError, match="not in 1..3"):
            seq.center(k)


class TestSequenceBuild:
    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_build_extends_nothing_and_builds_no_split(self, n, monkeypatch):
        qa = standard_quotient_algebra(n)
        calls = []
        for name in ("extend_to_maximal_abelian", "CartanSplit"):
            original = getattr(cartan, name)
            monkeypatch.setattr(cartan, name, lambda *args, _name=name, _original=original:
                                calls.append(_name) or _original(*args))
        seq = build_decomposition_sequence(qa)
        assert calls == []
        seq.center(2)  # the counter sees the accessor's extension
        assert calls == ["extend_to_maximal_abelian"]

    def test_unhatted_algebra_factors_like_the_standard_build(self):
        # Hand-built pairs whose spaces keep the default hat=False: the hats
        # come from the selector's parity rule, not from the space flags.
        qa = standard_quotient_algebra(4)
        plain = replace(qa, pairs=tuple(
            ConjugatePair(pair.w, replace(pair.w_hat, hat=False), pair.binary_label)
            for pair in qa.pairs))
        seq, plain_seq = build_decomposition_sequence(qa), build_decomposition_sequence(plain)
        assert dict(plain_seq.hat_selection) == dict(seq.hat_selection)
        u = random_special_unitary(4, np.random.default_rng(5))
        want, got = recursive_decompose(u, seq), recursive_decompose(u, plain_seq)

        def rows(fact):
            return [(t, o, g.label_str, a, loc) for t, o, g, a, loc in fact.factor_rows()]

        assert rows(got) == rows(want)
        assert got.global_phase == want.global_phase
        assert got.reconstruction_error < 1e-8

    def test_hat_readers_follow_the_pair_side(self):
        # The same unhatted algebra: hat_selection, the split JSON's per-space
        # hat and the sequence JSON's final_hat read which side of its pair a
        # space is, so they match the standard build.
        qa = standard_quotient_algebra(4)
        plain = replace(qa, pairs=tuple(
            ConjugatePair(pair.w, replace(pair.w_hat, hat=False), pair.binary_label)
            for pair in qa.pairs))
        for bits in enumerate_t_choices(qa):
            want, got = build_cartan_split(qa, bits), build_cartan_split(plain, bits)
            assert got.hat_selection() == want.hat_selection()
            assert serialize.split_to_json(got) == serialize.split_to_json(want)
        seqs = [build_decomposition_sequence(x) for x in (qa, plain)]
        assert seqs[0].final.hat and not seqs[1].final.hat
        assert serialize.sequence_to_json(seqs[1]) == serialize.sequence_to_json(seqs[0])


class TestSequenceGuards:
    """Every raise of the sequence build, reached with an algebra edited by hand
    (as qa_from_json or a caller can produce)."""

    @staticmethod
    def without(qa, *labels):
        return replace(qa, pairs=tuple(pr for pr in qa.pairs if pr.binary_label not in labels))

    def test_unlabeled_pair(self, word_qa):
        qa = word_qa(4)
        first = qa.pairs[0]
        unlabeled = replace(qa, pairs=(ConjugatePair(first.w, first.w_hat), *qa.pairs[1:]))
        with pytest.raises(NotBinaryPartitionedError, match="labeled quotient algebra"):
            build_decomposition_sequence(unlabeled)

    def test_p_overrides(self, word_qa):
        with pytest.raises(InvalidChoiceError, match="too many level-center overrides"):
            build_decomposition_sequence(word_qa(4), None, [None, None])

    def test_repeated_pair_leaves_two_final_labels(self, word_qa):
        qa = word_qa(2)
        with pytest.raises(InvalidChoiceError, match="recursion left 2 labels"):
            build_decomposition_sequence(replace(qa, pairs=qa.pairs * 2))

    def test_non_commuting_final_space(self, word_qa):
        space = AbelianSpace((word("p1"), word("p2")), binary_label="1")
        pair = ConjugatePair(space, replace(space, hat=True), "1")
        with pytest.raises(NotAbelianError, match="final level space is not abelian"):
            build_decomposition_sequence(replace(word_qa(2), pairs=(pair,)))

    def test_missing_label_loses_a_partner(self, word_qa):
        # Level 2 designates 01; 10 pairs with the missing 11.
        with pytest.raises(InvalidChoiceError, match="label 10 lost its partner"):
            build_decomposition_sequence(self.without(word_qa(4), "11"))

    def test_labels_wider_than_p_need_more_bits(self, word_qa):
        # Seven 3-bit labels under p = 2: level 2 meets the pairs {010, 011}
        # and {100, 101} with one bit.
        with pytest.raises(InvalidChoiceError, match="level 2: not enough choice bits"):
            build_decomposition_sequence(replace(word_qa(8), p=2))

    def test_missing_labels_leave_bits_unused(self, word_qa):
        # Labels 001, 010, 011 only: level 2 has one pair for its two bits.
        with pytest.raises(InvalidChoiceError, match="level 2: 1 unused choice bits"):
            build_decomposition_sequence(self.without(word_qa(8), "100", "101", "110", "111"))

    def test_labels_not_closed_under_xor(self, word_qa):
        # The level-2 picks 010 and 100 close to 110, which is no pair here.
        with pytest.raises(InvalidChoiceError, match="level 2: selection does not cover"):
            build_decomposition_sequence(self.without(word_qa(8), "110", "111"))

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_every_choice_string_resolves_by_closure(self, n):
        # No level's picks ever contradict closure: every choice string builds.
        qa = standard_quotient_algebra(n)
        p = qa.p
        strings = [[format(b, f"0{p - k}b") for b in range(1 << (p - k))] for k in range(p)]
        seen = set()
        for choices in itertools.product(*strings):
            seq = build_decomposition_sequence(qa, list(choices))
            seen.add((tuple(sorted(seq.hat_selection.items())),
                      tuple(lv.chosen_labels for lv in seq.levels)))
        assert len(seen) == 2 ** (p * (p + 1) // 2)
