"""Single-level KAK, abelian expansion, and the recursive factorization."""

import dataclasses
import gc
import hashlib
import itertools
import weakref

import numpy as np
import pytest
import scipy.linalg

from cartankak import cartan, kak, partition, serialize
from cartankak._linalg import (
    SOLVE_TOL,
    expm_hermitian,
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
)
from cartankak.errors import (
    DecompositionError,
    DimensionMismatchError,
    InvalidChoiceError,
    InvalidMatrixError,
    NotInSpanError,
    UnsupportedLabelError,
)
from cartankak.generators import Generator, make_diag, make_lambda, make_tensor_word
from cartankak.kak import (
    Factorization,
    classify_gate,
    factor_abelian_exponential,
    ingest_unitary,
    kak_single_level,
    reconstruct,
    recursive_decompose,
)
from cartankak.partition import (
    AbelianSpace,
    build_quotient_algebra,
    conjugate_quotient_algebra,
    intrinsic_quotient_algebra,
    standard_basis,
    standard_quotient_algebra,
)


def word(*sites):
    return make_tensor_word(list(sites))


class TestIngest:
    def test_normalizes_determinant(self):
        u = np.exp(0.3j) * np.eye(4)
        su, phase = ingest_unitary(u)
        assert abs(np.linalg.det(su) - 1.0) < 1e-12
        np.testing.assert_allclose(su * phase, u, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidMatrixError):
            ingest_unitary(np.ones((3, 3)))

    @pytest.mark.parametrize("m", [np.array(1.0), np.ones(4)], ids=["0-d", "1-d"])
    def test_rejects_non_matrix(self, m):
        with pytest.raises(InvalidMatrixError):
            ingest_unitary(m)

    def test_exact_unitary_is_kept(self):
        u = random_special_unitary(6, np.random.default_rng(2))
        su, phase = ingest_unitary(u)
        np.testing.assert_array_equal(su, u / phase)

    def test_noisy_unitary_is_projected(self, noisy_unitary):
        m = noisy_unitary(6, np.random.default_rng(3))
        su, phase = ingest_unitary(m)
        assert frob(su @ su.conj().T - np.eye(6)) < 1e-14
        assert frob(su * phase - m) < 1e-9

    @pytest.mark.parametrize("n", [8, 16])
    def test_noisy_corpus_factors(self, n, noisy_unitary, std_seq):
        rng = np.random.default_rng(n)
        for k in range(16):
            m = noisy_unitary(n, rng)
            fact = recursive_decompose(m, std_seq(n))
            assert fact.reconstruction_error < 1e-8, k


class TestClassifyGate:
    def test_single_site_local(self):
        assert classify_gate(word("p1", "p0", "p0")) == "local"

    def test_two_sites_nonlocal(self):
        assert classify_gate(word("p1", "p1", "p0")) == "nonlocal"

    def test_mixed_dimension_nonlocal(self):
        assert classify_gate(word("g4", "p3")) == "nonlocal"

    def test_prime_dimension_always_local(self):
        assert classify_gate(make_lambda(1, 2, 5)) == "local"

    def test_word_recovery_from_matrix(self):
        g = Generator(None, 4, word("p3", "p1").matrix * 1.0)
        assert classify_gate(g) == "nonlocal"

    def test_unrecoverable_generator_rejected(self):
        with pytest.raises(UnsupportedLabelError):
            classify_gate(make_lambda(1, 2, 6))

    def test_sum_of_two_words_rejected(self):
        g = Generator(None, 4, word("p3", "p0").matrix + word("p0", "p3").matrix)
        with pytest.raises(UnsupportedLabelError, match="not proportional to a single word"):
            classify_gate(g)

    def test_word_basis_is_built_once(self, word_qa, monkeypatch):
        built = []
        monkeypatch.setattr(kak, "standard_basis", lambda n: built.append(n) or standard_basis(n))
        kak._word_basis.cache_clear()
        qa = word_qa(8)
        haar = random_special_unitary(8, np.random.default_rng(8))
        shift = np.roll(np.eye(8), 1, axis=0) @ np.diag([1j ** k for k in range(8)])
        gens = []
        for u in (haar, shift):
            moved = conjugate_quotient_algebra(qa, u)
            gens += moved.center.generators
            gens += [g for pair in moved.pairs for g in pair.w.generators + pair.w_hat.generators]
        assert len(gens) == 126 and all(g.label is None for g in gens)
        localities = [kak._locality_or_none(g) for g in gens]
        assert {"local", "nonlocal", None} <= set(localities)
        assert built == [8]
        kak._word_basis.cache_clear()


class TestKakSingleLevel:
    def test_identity(self, word_qa):
        split = build_cartan_split(word_qa(8), "000")
        k1, a, k2 = kak_single_level(np.eye(8), split)
        np.testing.assert_allclose(k1, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(a, 0.0, atol=1e-12)
        np.testing.assert_allclose(k2, np.eye(8), atol=1e-12)

    def test_center_exponential(self, word_qa):
        qa = word_qa(8)
        split = build_cartan_split(qa, "000")
        c = qa.center.generators[2].matrix
        u = expm_hermitian(c, 0.41)
        k1, a, k2 = kak_single_level(u, split)
        np.testing.assert_allclose(k1, np.eye(8), atol=1e-10)
        np.testing.assert_allclose(a, 0.41 * c, atol=1e-10)

    @pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
    def test_random_su4_reassembles(self, bits, word_qa):
        split = build_cartan_split(word_qa(4), bits)
        rng = np.random.default_rng(int(bits, 2))
        for _ in range(5):
            u = random_special_unitary(4, rng)
            k1, a, k2 = kak_single_level(u, split)
            assert frob(k1 @ expm_hermitian(a) @ k2 - u) < 1e-9

    def test_su6_split(self, word_qa):
        split = build_cartan_split(word_qa(6), "000")
        u = random_special_unitary(6, np.random.default_rng(6))
        k1, a, k2 = kak_single_level(u, split)
        assert frob(k1 @ expm_hermitian(a) @ k2 - u) < 1e-9

    def test_rejects_non_unitary(self, word_qa):
        split = build_cartan_split(word_qa(4), "00")
        with pytest.raises(InvalidMatrixError):
            kak_single_level(np.diag([2.0, 1.0, 1.0, 0.5]), split)

    def test_rejects_determinant_off_one(self, word_qa):
        split = build_cartan_split(word_qa(4), "00")
        with pytest.raises(InvalidMatrixError, match="determinant is not 1"):
            kak_single_level(np.exp(0.3j) * np.eye(4), split)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_determinant_gate_is_what_the_split_accepts(self, scale, word_qa):
        # The split's eigenphases sum to the determinant's phase, which the
        # gate bounds by SOLVE_TOL: inside it the input factors, outside it is
        # invalid input, never an internal failure.
        split = build_cartan_split(word_qa(4), "00")
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = random_special_unitary(4, rng) * np.exp(0.25j * scale * SOLVE_TOL)
            if scale < 1:
                k1, a, k2 = kak_single_level(u, split)
                assert frob(k1 @ expm_hermitian(a) @ k2 - u) < 1e-9
            else:
                with pytest.raises(InvalidMatrixError, match="determinant is not 1"):
                    kak_single_level(u, split)

    def test_slot_with_two_phase_directions(self, word_qa):
        # I x X and I x Y share the slots (1,2) and (3,4), 90 degrees apart.
        space = AbelianSpace((word("p0", "p1"), word("p0", "p2")), False, "01")
        bad = dataclasses.replace(build_cartan_split(word_qa(4), "00"), t=(space,))
        with pytest.raises(DecompositionError, match=r"^slot \(1,2\) carries two phase directions$"):
            kak_single_level(np.eye(4), bad)

    def test_spaces_overlapping_on_a_slot(self, word_qa):
        split = build_cartan_split(word_qa(4), "00")
        first = split.t[0]
        twin = AbelianSpace(first.generators, first.hat, "10")
        bad = dataclasses.replace(split, t=(first, twin) + split.t[2:])
        with pytest.raises(DecompositionError, match="^two chosen spaces overlap on a slot$"):
            kak_single_level(np.eye(4), bad)

    def test_space_with_a_diagonal_generator(self, word_qa):
        # Z x I covers no slot, so space 01 still covers 2 slots for 2 generators.
        split = build_cartan_split(word_qa(4), "00")
        first = split.t[0]
        space = AbelianSpace((first.generators[0], word("p3", "p0")), first.hat, "01")
        bad = dataclasses.replace(split, t=(space,) + split.t[1:])
        with pytest.raises(DecompositionError, match="^space 01 image is not antisymmetric"):
            kak_single_level(np.eye(4), bad)

    def test_t_short_of_so_n(self, word_qa):
        split = build_cartan_split(word_qa(4), "00")
        bad = dataclasses.replace(split, t=split.t[1:])
        u = random_special_unitary(4, np.random.default_rng(4))
        with pytest.raises(DecompositionError, match=r"^t does not span so\(N\) in the frame$"):
            kak_single_level(u, bad)

    def test_t_with_a_dependent_generator(self, word_qa):
        # Every slot is covered, each space once, but t has rank N(N-1)/2 - 1.
        split = build_cartan_split(word_qa(4), "00")
        first = split.t[0]
        g = first.generators[0]
        doubled = AbelianSpace((g, Generator(None, 4, 2.0 * g.matrix)), first.hat, first.binary_label)
        bad = dataclasses.replace(split, t=(doubled,) + split.t[1:])
        u = random_special_unitary(4, np.random.default_rng(4))
        with pytest.raises(DecompositionError, match=r"^t does not span so\(N\) in the frame$"):
            kak_single_level(u, bad)

    def test_abelian_part_outside_a_smaller_center(self, word_qa):
        qa = word_qa(4)
        split = build_cartan_split(qa, "00")
        bad = dataclasses.replace(split, chosen_center=AbelianSpace(qa.center.generators[:1]))
        u = random_special_unitary(4, np.random.default_rng(4))
        with pytest.raises(DecompositionError, match="^abelian part leaves the center span$"):
            kak_single_level(u, bad)


@pytest.mark.parametrize("algebra", [standard_quotient_algebra, intrinsic_quotient_algebra])
@pytest.mark.parametrize("n", range(2, 9))
def test_single_level_a_is_the_plans_level_one_block(algebra, n):
    """kak_single_level's a is sum(angle * generator) of recursive_decompose's
    level-1 block along a sequence with the same level-1 choice."""
    qa = algebra(n)
    rng = np.random.default_rng(1500 + n)
    for bits in enumerate_t_choices(qa):
        u = random_special_unitary(n, rng)
        _, a, _ = kak_single_level(u, build_cartan_split(qa, bits, validate=False))
        seq = build_decomposition_sequence(qa, [bits] + ["0" * (qa.p - k) for k in range(1, qa.p)])
        (block,) = [b for b in recursive_decompose(u, seq).blocks if b.level == 1]
        rebuilt = sum((f.angle * f.generator.matrix for f in block.factors), np.zeros((n, n)))
        assert frob(rebuilt - a) < 1e-10, bits


def schur_log_in_span_t(k, t_rows):
    """Membership oracle for K in exp(i span t): the principal log of K, from a
    complex Schur form, has a Hermitian part that projects onto span t."""
    tri, z = scipy.linalg.schur(k, output="complex")
    h = z @ np.diag(np.angle(np.diag(tri))) @ z.conj().T
    return project_residual(h, t_rows) < SOLVE_TOL


def single_level_algebras(std_seq, lambda_qa):
    """The word algebra where it closes (else lambda), the lambda algebra at
    N=2..16, and su(4)/su(8) word algebras moved by seeded Haar unitaries."""
    for n in range(2, 17):
        yield f"standard {n}", std_seq(n).qa
        yield f"lambda {n}", lambda_qa(n)
    for n in (4, 8):
        u = random_special_unitary(n, np.random.default_rng(100 + n))
        yield f"transported {n}", conjugate_quotient_algebra(std_seq(n).qa, u)


def test_single_level_factors_pass_the_schur_log_oracle(std_seq, lambda_qa):
    """kak_single_level checks that t spans so(N), not each factor; the per-factor
    check it replaced accepts every K1 and K2 it returns, on every 2^p split."""
    for name, qa in single_level_algebras(std_seq, lambda_qa):
        n, rng = qa.dim, np.random.default_rng(9000 + qa.dim)
        for bits in enumerate_t_choices(qa):
            u = random_special_unitary(n, rng)
            split = build_cartan_split(qa, bits, validate=False)
            k1, a, k2 = kak_single_level(u, split)
            t_rows = span_rows(split.t_matrices())
            assert schur_log_in_span_t(k1, t_rows) and schur_log_in_span_t(k2, t_rows), (name, bits)
            assert frob(k1 @ expm_hermitian(a) @ k2 - u) < SOLVE_TOL * n, (name, bits)


class TestFactorAbelianExponential:
    def test_single_factor(self, word_qa):
        qa = word_qa(4)
        g = qa.center.generators[1]  # sigma3 x I
        space = AbelianSpace((g,))
        v = expm_hermitian(g.matrix, np.pi / 4)
        factors, phase = factor_abelian_exponential(v, space)
        assert len(factors) == 1
        assert abs(factors[0].angle - np.pi / 4) < 1e-12
        assert abs(phase - 1.0) < 1e-12

    def test_commuting_split(self, word_qa):
        qa = word_qa(4)
        g1, g2 = qa.center.generators[1], qa.center.generators[0]
        space = AbelianSpace((g1, g2))
        v = scipy.linalg.expm(1j * (0.3 * g1.matrix + 0.7 * g2.matrix))
        factors, _ = factor_abelian_exponential(v, space)
        got = {f.generator.label_str: round(f.angle, 12) for f in factors}
        assert got == {g1.label_str: 0.3, g2.label_str: 0.7}

    def test_diagonal_su4_against_log_oracle(self, word_qa):
        # Oracle: solve the phase system from the matrix logarithm of the
        # diagonal directly, independent of factor_abelian_exponential.
        qa = word_qa(4)
        rng = np.random.default_rng(9)
        angles = rng.uniform(-1.0, 1.0, 3)
        h = sum(a * g.matrix for a, g in zip(angles, qa.center.generators))
        v = scipy.linalg.expm(1j * h)
        phases = np.angle(np.diag(v))
        basis = np.array([np.real(np.diag(g.matrix)) for g in qa.center.generators])
        oracle, *_ = np.linalg.lstsq(basis.T, phases, rcond=None)
        factors, phase = factor_abelian_exponential(v, qa.center)
        got = {f.generator.label_str: f.angle for f in factors}
        for g, expect in zip(qa.center.generators, oracle):
            assert abs(got.get(g.label_str, 0.0) - expect) < 1e-9
        product = np.eye(4, dtype=complex)
        for f in factors:
            product = product @ expm_hermitian(f.generator.matrix, f.angle)
        np.testing.assert_allclose(product * phase, v, atol=1e-9)

    def test_rejects_wrong_dimension_and_non_unitary(self, word_qa):
        center = word_qa(4).center
        with pytest.raises(DimensionMismatchError):
            factor_abelian_exponential(np.eye(2), center)
        with pytest.raises(InvalidMatrixError):
            factor_abelian_exponential(2.0 * np.eye(4), center)

    def test_outside_exponential_rejected(self, word_qa):
        qa = word_qa(4)
        u = random_special_unitary(4, np.random.default_rng(1))
        with pytest.raises(NotInSpanError):
            factor_abelian_exponential(u, qa.center)

    def test_diagonal_phases_outside_the_span_rejected(self):
        # exp(0.3i I x Z) is diagonal, so it passes the eigenbasis check, but
        # its phases are not a multiple of Z x I's diagonal plus a phase.
        v = expm_hermitian(word("p0", "p3").matrix, 0.3)
        with pytest.raises(NotInSpanError, match="^phases do not lie in the space span$"):
            factor_abelian_exponential(v, AbelianSpace((word("p3", "p0"),)))

    def test_one_2pi_move_fits_a_wrapped_phase(self):
        # exp(0.3i) exp(2.5i g8 x Z) has phases 0.3 +- 2.5 * 2/sqrt(3), one past pi.
        # The fit of the principal phases misses; after one 2 pi move it fits.
        g = word("g8", "p3")
        v = np.exp(0.3j) * expm_hermitian(g.matrix, 2.5)
        a = np.vstack([np.real(np.diag(g.matrix)), np.ones(6)]).T
        sol, *_ = np.linalg.lstsq(a, np.angle(np.diag(v)), rcond=None)
        assert frob(a @ sol - np.angle(np.diag(v))) > 1.0
        factors, phase = factor_abelian_exponential(v, AbelianSpace((g,)))
        product = expm_hermitian(sum(f.angle * f.generator.matrix for f in factors), 1.0)
        assert frob(product * phase - v) < 1e-9

    def test_expansion_that_misses_the_input_is_rejected(self):
        # Z x I's exponential moved twice, each time by 0.9 of the tolerance SOLVE_TOL * N:
        # off the diagonal by a rotation, and on it by phases off the span. Each check
        # passes alone; the product of the factors misses the input by both.
        g, eps = word("p3", "p0"), 0.9 * SOLVE_TOL * 4
        off = expm_hermitian(word("p0", "p1").matrix, eps / 2.0)  # off-diagonal norm eps
        v = expm_hermitian(g.matrix, 0.4) @ np.diag(np.exp(1j * eps / np.sqrt(2.0) * np.array(
            [1.0, -1.0, 0.0, 0.0]))) @ off
        with pytest.raises(NotInSpanError, match="^abelian expansion does not reproduce the input$"):
            factor_abelian_exponential(v, AbelianSpace((g,)))

    @pytest.mark.xfail(strict=True, raises=NotInSpanError,
                       reason="phases that wrap past pi in a space of fewer than N - 1 "
                              "generators need a lattice solve, which the 2 pi rounding is not")
    def test_wrapped_phases_in_a_small_space(self):
        g = make_diag(1, 2, 3)
        v = np.exp(1.0j) * expm_hermitian(g.matrix, 2.5)
        factors, phase = factor_abelian_exponential(v, AbelianSpace((g,)))
        product = expm_hermitian(sum(f.angle * f.generator.matrix for f in factors), 1.0)
        assert frob(product * phase - v) < 1e-9


class TestReconstruct:
    def test_empty_factorization(self):
        fact = Factorization(2, (), (), 1.0 + 0j, 0.0)
        np.testing.assert_allclose(reconstruct(fact, 2), np.eye(2))

    def test_single_pauli_factor(self):
        from cartankak.kak import GateFactor

        g = make_lambda(1, 2, 2)
        fact = Factorization(
            2,
            (GateFactor("01", 1, g, np.pi / 2, "local"),),
            (),
            1.0 + 0j,
            0.0,
        )
        np.testing.assert_allclose(reconstruct(fact, 2), 1j * g.matrix, atol=1e-12)

    def test_dim_mismatch(self):
        from cartankak.kak import GateFactor

        g = make_lambda(1, 2, 2)
        fact = Factorization(2, (GateFactor("01", 1, g, 1.0, "local"),), (), 1.0, 0.0)
        with pytest.raises(DimensionMismatchError):
            reconstruct(fact, 3)


class TestRecursiveDecompose:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_identity_has_no_factors(self, n, std_seq):
        seq = std_seq(n)
        fact = recursive_decompose(np.eye(n), seq)
        assert fact.factors == ()
        assert fact.reconstruction_error < 1e-12
        assert len(fact.blocks) == 2 ** (seq.qa.p + 1) - 1

    @pytest.mark.parametrize("n", range(2, 17))
    def test_structured_inputs_round_trip(self, n, std_seq):
        seq = std_seq(n)
        qa = seq.qa
        rng = np.random.default_rng(n)
        k = np.arange(n)
        inputs = {
            "-I": -np.eye(n),
            "permutation": np.eye(n)[rng.permutation(n)],
            "cyclic shift": np.roll(np.eye(n), 1, axis=0),
            "QFT": np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n),
        }
        generators = {"center": qa.center.generators[0], "pair": qa.pairs[0].w.generators[0]}
        for name, g in generators.items():
            for angle in (np.pi / 4, np.pi / 2, np.pi):
                inputs[f"exp({angle:.3f} {name})"] = expm_hermitian(g.matrix, angle)
        for name, u in inputs.items():
            fact = recursive_decompose(u, seq)
            assert fact.reconstruction_error < 1e-8, name

    @pytest.mark.parametrize("n", [6, 8, 9, 16])
    def test_near_collision_eigenphases(self, n, near_collision):
        cases = [(d, False) for d in (1e-7, 1e-8, 1e-9, 0.0)]
        cases += [(eta, True) for eta in (1e-6, 1e-7, 1e-8)]
        for delta, quarter in cases:
            for seed in range(3):
                u, seq = near_collision(n, delta, seed, quarter)
                fact = recursive_decompose(u, seq)
                assert fact.reconstruction_error < 1e-8, (delta, quarter, seed)

    @pytest.mark.parametrize("n,blocks", [(4, 7), (6, 15), (8, 15)])
    def test_round_trip_random(self, n, blocks, word_qa):
        seq = build_decomposition_sequence(word_qa(n))
        rng = np.random.default_rng(n * 100)
        for _ in range(10):
            u = random_special_unitary(n, rng)
            fact = recursive_decompose(u, seq)
            assert fact.reconstruction_error < 1e-8
            assert len(fact.blocks) == blocks
            assert len(fact.factors) <= n * n - 1

    def test_nonlocal_gate_input(self, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        u = expm_hermitian(word("p1", "p1").matrix, np.pi / 4)
        fact = recursive_decompose(u, seq)
        assert fact.reconstruction_error < 1e-9
        for f in fact.factors:
            sites = f.generator.label.sites
            non_identity = sum(1 for s in sites if s != "p0")
            assert (f.locality == "nonlocal") == (non_identity >= 2)

    def test_tree_index_partition(self, word_qa):
        seq = build_decomposition_sequence(word_qa(8))
        u = random_special_unitary(8, np.random.default_rng(5))
        fact = recursive_decompose(u, seq)
        by_level = {}
        indices = set()
        for blk in fact.blocks:
            by_level.setdefault(blk.level, []).append(blk.tree_index)
            assert blk.tree_index not in indices
            indices.add(blk.tree_index)
            position = int(blk.tree_index, 2)
            lowest = (position & -position).bit_length() - 1
            assert 3 + 1 - lowest == blk.level  # digit rule, p = 3
        assert [len(by_level[k]) for k in (1, 2, 3, 4)] == [1, 2, 4, 8]

    def test_factor_ordinals_within_blocks(self, word_qa):
        seq = build_decomposition_sequence(word_qa(6))
        u = random_special_unitary(6, np.random.default_rng(8))
        fact = recursive_decompose(u, seq)
        for blk in fact.blocks:
            assert [f.ordinal for f in blk.factors] == list(
                range(1, len(blk.factors) + 1)
            )
            assert all(f.tree_index == blk.tree_index for f in blk.factors)

    def test_every_factor_is_declared_generator(self, word_qa):
        seq = build_decomposition_sequence(word_qa(6))
        declared = {
            id(g)
            for lv in seq.levels
            for g in lv.center_core.generators
        } | {id(g) for g in seq.final.generators}
        u = random_special_unitary(6, np.random.default_rng(21))
        fact = recursive_decompose(u, seq)
        assert all(id(f.generator) in declared for f in fact.factors)

    def test_determinism(self, word_qa):
        seq = build_decomposition_sequence(word_qa(6))
        u = random_special_unitary(6, np.random.default_rng(33))
        f1 = recursive_decompose(u, seq)
        f2 = recursive_decompose(u, seq)
        assert len(f1.factors) == len(f2.factors)
        for a, b in zip(f1.factors, f2.factors):
            assert a.tree_index == b.tree_index
            assert a.angle == b.angle
            assert a.generator.label_str == b.generator.label_str
        assert f1.global_phase == f2.global_phase

    def test_global_phase_tracked(self, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        u = np.exp(0.7j) * random_special_unitary(4, np.random.default_rng(2))
        fact = recursive_decompose(u, seq)
        assert fact.reconstruction_error < 1e-8
        np.testing.assert_allclose(reconstruct(fact, 4), u, atol=1e-8)

    def test_dim_mismatch(self, word_qa):
        seq = build_decomposition_sequence(word_qa(4))
        with pytest.raises(DimensionMismatchError):
            recursive_decompose(np.eye(6), seq)

    def test_lambda_sequence_round_trip(self, lambda_qa):
        seq = build_decomposition_sequence(lambda_qa(6))
        u = random_special_unitary(6, np.random.default_rng(44))
        fact = recursive_decompose(u, seq)
        assert fact.reconstruction_error < 1e-8

    def test_nondefault_choices_round_trip(self, word_qa):
        qa = word_qa(8)
        rng = np.random.default_rng(55)
        for choices in (["011", "10", "1"], ["110", "11", "0"]):
            seq = build_decomposition_sequence(qa, choices)
            u = random_special_unitary(8, rng)
            fact = recursive_decompose(u, seq)
            assert fact.reconstruction_error < 1e-8

    @pytest.mark.parametrize("algebra", [standard_quotient_algebra, intrinsic_quotient_algebra])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_transported_algebra(self, algebra, n):
        """A moved algebra's frame diagonalizes its center and reorders the indices
        (at N = 6 and 12 few generators have an XOR form in the plain eigenframe); it
        factors, and a warm call repeats the cold one bit for bit."""
        rng = np.random.default_rng(1600 + n)
        seq = build_decomposition_sequence(
            conjugate_quotient_algebra(algebra(n), random_special_unitary(n, rng))
        )
        u = np.exp(0.3j) * random_special_unitary(n, rng)
        cold = recursive_decompose(u, seq)
        assert cold.reconstruction_error < 1e-8
        assert fingerprint(recursive_decompose(u, seq)) == fingerprint(cold)


def frame_cases():
    """(algebra, unmoved): both builds at N = 2..16, as built and moved by a seeded
    Haar SU(N), and the X-word centers of su(4), su(8) and su(16)."""
    for name, build in (("standard", standard_quotient_algebra),
                        ("intrinsic", intrinsic_quotient_algebra)):
        for n in range(2, 17):
            yield pytest.param(lambda b=build, n=n: b(n), True, id=f"{name}-{n}")
            yield pytest.param(lambda b=build, n=n: conjugate_quotient_algebra(
                b(n), random_special_unitary(n, np.random.default_rng(1800 + n))), False,
                id=f"moved-{name}-{n}")
    for n in (4, 8, 16):
        words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1), 1, None)
        yield pytest.param(lambda n=n, words=tuple(words): build_quotient_algebra(AbelianSpace(
            tuple(make_tensor_word(list(w)) for w in words)), standard_basis(n)), False,
            id=f"x-word-{n}")


def assert_on_own_labels(qa):
    """G g G^dag sits on the XOR slots of g's pair label (the center's on 0), up to
    entries below STRUCT_TOL |g|, with G the algebra's frame."""
    n, g = qa.dim, qa._frame.matrix
    g = np.eye(n) if g is None else g
    xor = np.bitwise_xor.outer(np.arange(n), np.arange(n))
    for label, space in [(0, qa.center)] + [(int(pair.binary_label, 2), s)
                                            for pair in qa.pairs for s in pair.spaces]:
        for m in space.matrices:
            image = g @ m @ g.conj().T
            assert np.abs(np.where(xor == label, 0, image)).max() < 1e-12 * frob(m)
            assert np.abs(image[xor == label]).max() > 0.1 * frob(m)


@pytest.mark.parametrize("make, unmoved", frame_cases())
def test_frame_puts_every_generator_on_its_own_label(make, unmoved):
    """The frame is exact, it is the identity for an unmoved build, and the
    algebra factors along its default sequence."""
    qa = make()
    assert_on_own_labels(qa)
    assert (qa._frame.matrix is None) == unmoved
    u = random_special_unitary(qa.dim, np.random.default_rng(1900 + qa.dim))
    assert recursive_decompose(u, build_decomposition_sequence(qa)).reconstruction_error < 1e-8


def test_frame_of_every_maximal_abelian_algebra_of_su4():
    for member in enumerate_maximal_abelian(4, 3):
        assert_on_own_labels(cartan._structure_of_center(member))


WORD_DIMS = [2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 16]  # standard_quotient_algebra closes in words


def fingerprint(fact):
    """Everything a factorization carries, for exact comparison."""
    return (
        [(f.tree_index, f.ordinal, f.generator.label_str, f.angle, f.locality)
         for f in fact.factors],
        [(b.tree_index, b.level, len(b.factors)) for b in fact.blocks],
        fact.global_phase,
        fact.reconstruction_error,
    )


class TestPlanReuse:
    """recursive_decompose builds a plan per sequence once and reuses it."""

    @pytest.mark.parametrize(
        "kind,n", [("word", n) for n in WORD_DIMS] + [("lambda", n) for n in range(2, 17)]
    )
    def test_warm_plan_matches_cold(self, kind, n, std_seq):
        # standard_quotient_algebra is the lambda algebra at N where words do not close.
        qa = std_seq(n).qa
        if kind == "lambda" and n in WORD_DIMS:
            qa = intrinsic_quotient_algebra(n)
        rng = np.random.default_rng(600 + n)
        warm = build_decomposition_sequence(qa)
        recursive_decompose(random_special_unitary(n, rng), warm)
        assert warm in kak._PLANS
        u = np.exp(0.4j) * random_special_unitary(n, rng)
        cold = recursive_decompose(u, build_decomposition_sequence(qa))
        assert fingerprint(recursive_decompose(u, warm)) == fingerprint(cold)

    def test_sequences_sharing_an_algebra_keep_their_own_plans(self, std_seq):
        qa = std_seq(8).qa
        default = build_decomposition_sequence(qa)
        other = build_decomposition_sequence(qa, ["011", "10", "1"])
        u = random_special_unitary(8, np.random.default_rng(61))
        by_default = recursive_decompose(u, default)
        warm = recursive_decompose(u, other)
        cold = recursive_decompose(u, build_decomposition_sequence(qa, ["011", "10", "1"]))
        assert fingerprint(warm) == fingerprint(cold)
        assert fingerprint(warm)[0] != fingerprint(by_default)[0]
        assert kak._PLANS[default] is not kak._PLANS[other]

    def test_frame_is_built_once_per_algebra(self, monkeypatch):
        """Five sequences and every single-level split of one (moved) algebra share one frame."""
        built = []
        original = partition._build_slot_frame
        monkeypatch.setattr(partition, "_build_slot_frame",
                            lambda qa: built.append(1) or original(qa))
        u = random_special_unitary(8, np.random.default_rng(62))
        qa = conjugate_quotient_algebra(standard_quotient_algebra(8), u)
        rng = np.random.default_rng(63)
        for choices in (None, ["011", "10", "1"], ["110", "11", "0"], ["001", "01", "0"],
                        ["100", "00", "1"]):
            fact = recursive_decompose(random_special_unitary(8, rng),
                                       build_decomposition_sequence(qa, choices))
            assert fact.reconstruction_error < 1e-8
        u = random_special_unitary(8, rng)
        for bits in enumerate_t_choices(qa):
            k1, a, k2 = kak_single_level(u, build_cartan_split(qa, bits, validate=False))
            assert frob(k1 @ expm_hermitian(a) @ k2 - u) < 1e-9
        assert len(built) == 1

    def test_frame_does_not_keep_its_algebra_alive(self, std_seq):
        qa = dataclasses.replace(std_seq(4).qa)
        seq = build_decomposition_sequence(qa)
        recursive_decompose(np.eye(4), seq)
        kak_single_level(np.eye(4), build_cartan_split(qa, "00", validate=False))
        assert qa.__dict__["_frame"] is not None  # kept on the algebra
        refs = weakref.ref(qa), weakref.ref(seq)
        del qa, seq
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_plan_does_not_keep_its_sequence_alive(self, std_seq):
        seq = build_decomposition_sequence(std_seq(4).qa)
        recursive_decompose(np.eye(4), seq)
        ref = weakref.ref(seq)
        del seq
        gc.collect()
        assert ref() is None


def with_level(seq, level, **changes):
    levels = list(seq.levels)
    levels[level - 1] = dataclasses.replace(levels[level - 1], **changes)
    return dataclasses.replace(seq, levels=tuple(levels))


def with_space(seq, label, space):
    """The sequence over an algebra whose pair `label` holds `space` on both sides."""
    pairs = tuple(
        dataclasses.replace(pair, w=space, w_hat=space) if pair.binary_label == label else pair
        for pair in seq.qa.pairs
    )
    return dataclasses.replace(seq, qa=dataclasses.replace(seq.qa, pairs=pairs))


def not_a_subgroup(level, label):
    return (f"level {level}: the t labels and 0 are not an index-2 subgroup of "
            f"level {level - 1}'s without the center label {label}")


class TestPlanBuildChecks:
    """Hand-built sequences reach the checks that run once: those that read the labels
    alone when the sequence is built, the others when its plan is built."""

    @pytest.fixture(scope="class")
    def seq8(self):
        return build_decomposition_sequence(standard_quotient_algebra(8))

    @pytest.mark.parametrize(
        "level,changes,message",
        [
            # H_2 = H_1: index 1.
            (2, lambda seq: {"chosen_labels": seq.levels[0].chosen_labels},
             not_a_subgroup(2, "001")),
            # H_2 = {0, 100}: index 4.
            (2, lambda seq: {"chosen_labels": ("100",)}, not_a_subgroup(2, "001")),
            # The center label 010 lies in H_2 = {0, 010, 100, 110}.
            (2, lambda seq: {"label": "010"}, not_a_subgroup(2, "010")),
            # The center label 001 is not in H_2.
            (3, lambda seq: {"label": "001"}, not_a_subgroup(3, "001")),
            # H_2 = {0, 010, 100, 101} is not closed.
            (2, lambda seq: {"chosen_labels": ("010", "100", "101")}, not_a_subgroup(2, "001")),
            (2, lambda seq: {"center_core": AbelianSpace(seq.levels[1].center_core.generators[:3])},
             "3 generators vs 4 slots; bases disagree"),
        ],
        ids=["no split", "four parts", "no cross", "no pairing", "not closed", "bases"],
    )
    def test_level_checks(self, level, changes, message, seq8):
        if message.startswith("level"):  # read off the labels: the sequence build rejects it
            with pytest.raises(InvalidChoiceError, match=f"^{message}$"):
                with_level(seq8, level, **changes(seq8))
            return
        bad = with_level(seq8, level, **changes(seq8))
        for _ in range(2):  # a failed build is not cached, so it fails again
            with pytest.raises(DecompositionError, match=f"^decomposition failed: {message}$"):
                recursive_decompose(np.eye(8), bad)
            assert bad not in kak._PLANS

    @pytest.mark.parametrize("bits, message", [
        ("0", r"component \[2, 3\] does not split; no center slot reaches it"),
        ("1", "0 center slots cannot pair blocks of sizes 1 and 1"),
    ], ids=["no split", "no pairing"])
    def test_cut_cosets(self, bits, message, std_seq):
        """At N = 6 the cosets are cut to [0, 6), so a sequence whose labels pass the
        subgroup check can still leave a component unsplit or its sides unpaired.
        With centers 010 and 100, the level-2 component {2, 3} has no label-100 slot."""
        seq = std_seq(6)
        with pytest.raises(InvalidChoiceError, match=f"^level 3, branch LL: {message}$"):
            build_decomposition_sequence(seq.qa, ["000", "00", bits], level_centers=[
                seq.space_at("010"), seq.space_at("100")])

    def test_singular_slot_coefficients(self, seq8):
        # The solve runs on every call, so this check fires on a cached plan too.
        bad = with_level(seq8, 2, label="011")
        for _ in range(2):
            with pytest.raises(DecompositionError, match="slot coefficient matrix is singular$"):
                recursive_decompose(np.eye(8), bad)

    NO_FRAME = "^no index order puts every generator on its pair's XOR slots$"

    def test_overlapping_spaces(self, std_seq):
        # Pair 10 holds label-01 generators, so no order puts it on its own label.
        seq = std_seq(4)
        bad = with_space(seq, "10", seq.space_at("01"))
        for _ in range(2):
            with pytest.raises(DecompositionError, match=self.NO_FRAME):
                recursive_decompose(np.eye(4), bad)
            assert bad not in kak._PLANS and bad.qa._frame is None

    def test_flipped_hat_selection(self, std_seq):
        seq = std_seq(4)
        hats = dict(seq.hat_selection, **{"01": not seq.hat_selection["01"]})
        bad = dataclasses.replace(seq, hat_selection=hats)
        message = "^slot phases are inconsistent; structure is not binary-partitioned"
        for _ in range(2):
            with pytest.raises(DecompositionError, match=message):
                recursive_decompose(np.eye(4), bad)
            assert bad not in kak._PLANS

    def test_space_off_the_antisymmetric_slots(self, std_seq):
        seq = std_seq(4)
        shift = seq.qa.center.generators[0].matrix
        space = AbelianSpace(
            tuple(Generator(None, 4, g.matrix + shift) for g in seq.space_at("01").generators)
        )
        bad = with_space(seq, "01", space)
        for _ in range(2):
            with pytest.raises(DecompositionError, match=self.NO_FRAME):
                recursive_decompose(np.eye(4), bad)

    def test_space_short_of_its_slots(self, std_seq):
        seq = std_seq(4)
        space = seq.space_at("01")
        bad = with_space(seq, "01", AbelianSpace(space.generators[:1], space.hat, "01"))
        message = "^space 01 covers 2 slots for 1 generators$"
        for _ in range(2):
            with pytest.raises(DecompositionError, match=message):
                recursive_decompose(np.eye(4), bad)


def override_family(n, build=standard_quotient_algebra):
    """(qa, choices, overrides): every choice string of build(n), with each space of its
    level-1 t as the level-2 override (none at N = 2)."""
    qa = build(n)
    strings = [[format(b, f"0{qa.p - k}b") for b in range(1 << (qa.p - k))] for k in range(qa.p)]
    for choices in itertools.product(*strings):
        t = build_cartan_split(qa, choices[0], validate=False).t
        for override in t if qa.p > 1 else [None]:
            yield qa, list(choices), [override] if override else []


class TestEveryAcceptedSequenceFactors:
    """A sequence that build_decomposition_sequence accepts factors a seeded input:
    whatever no plan can factor is rejected, from its labels, when it is built."""

    @staticmethod
    def accepted(n, family):
        u = random_special_unitary(n, np.random.default_rng(2600 + n))
        count = 0
        for qa, choices, overrides in family:
            try:
                seq = build_decomposition_sequence(qa, choices, overrides)
            except (InvalidChoiceError, NotInSpanError):
                continue
            assert recursive_decompose(u, seq).reconstruction_error < 1e-8
            count += 1
        return count

    @pytest.mark.parametrize("n, count", [(2, 2), (3, 24), (4, 24), (5, 256), (6, 256), (7, 448),
                                          (8, 448)])
    def test_whole_family(self, n, count):
        assert self.accepted(n, override_family(n)) == count

    @pytest.mark.parametrize("n, count", [(9, 141), (12, 97)])
    def test_seeded_sample(self, n, count):
        family = list(override_family(n))  # 15,360 at both
        sample = np.random.default_rng(2700 + n).choice(len(family), 256, replace=False)
        assert self.accepted(n, [family[i] for i in sorted(sample)]) == count

    @pytest.mark.parametrize("n, count", [(2, 2), (3, 24), (4, 24), (5, 256), (6, 256), (7, 448),
                                          (8, 448)])
    def test_whole_intrinsic_family(self, n, count):
        assert self.accepted(n, override_family(n, intrinsic_quotient_algebra)) == count

    @pytest.mark.parametrize("build, n, count", [
        ("standard", 10, 27), ("standard", 11, 26), ("standard", 13, 24), ("standard", 14, 36),
        ("standard", 15, 64), ("standard", 16, 64), ("intrinsic", 9, 29), ("intrinsic", 10, 27),
        ("intrinsic", 11, 26), ("intrinsic", 12, 27), ("intrinsic", 13, 24), ("intrinsic", 14, 36),
        ("intrinsic", 15, 64), ("intrinsic", 16, 64)])
    def test_seeded_sample_of_64(self, build, n, count):
        family = list(override_family(n, ALGEBRAS[build]))  # 15,360 at each
        sample = np.random.default_rng(2800 + n).choice(len(family), 64, replace=False)
        assert self.accepted(n, [family[i] for i in sorted(sample)]) == count


class TestLevelPass:
    """The tree is walked one level at a time: one stacked CS step per level and block shape.

    The components of a level whose blocks split the same p + q rows form one
    group; its CS stack holds every node's block of every member, node-major.
    """

    @staticmethod
    def counted(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.append(a) or original(*a))
        return calls

    @pytest.mark.parametrize("n, shapes", [
        # Levels 2, 3 and 4 have 1, 2 and 4 components of one shape each.
        (16, [(2, 16, 16), (8, 8, 8), (32, 4, 4)]),
        # Blocks of 9 rows split 5 + 4, so levels 3 and 4 have two shapes each.
        (9, [(2, 9, 9), (4, 5, 5), (4, 4, 4), (8, 3, 3), (24, 2, 2)]),
    ], ids=["16", "9"])
    def test_one_cs_call_per_level_and_block_shape(self, n, shapes, std_seq, monkeypatch):
        seq = std_seq(n)
        rng = np.random.default_rng(90 + n)
        recursive_decompose(random_special_unitary(n, rng), seq)
        calls = self.counted(monkeypatch, kak, "cs_decompose_so")
        fact = recursive_decompose(random_special_unitary(n, rng), seq)
        assert fact.reconstruction_error < 1e-8
        assert [x.shape for x, _, _ in calls] == shapes

    def test_few_determinants_per_unitary(self, std_seq, monkeypatch):
        seq = std_seq(16)
        rng = np.random.default_rng(91)
        recursive_decompose(random_special_unitary(16, rng), seq)
        u = random_special_unitary(16, rng)
        calls = self.counted(monkeypatch, np.linalg, "det")
        recursive_decompose(u, seq)
        assert len(calls) <= 20

    def test_failing_leaf_names_its_branch(self, std_seq, monkeypatch):
        # At N=8 level 3 is the last CS level: 4 nodes, 2 components of one
        # shape, so one (8, 4, 4) stack. Spoiling u1 of node 2 (branch RL) in
        # the first component, item 2 * 2 + 0, puts its K1, leaf 4, off the
        # final torus.
        original = kak.cs_decompose_so

        def spoiled(x, p, q):
            u1, u2, thetas, v1, v2 = original(x, p, q)
            if len(x) == 8:
                u1[4] *= 1.5
            return u1, u2, thetas, v1, v2

        monkeypatch.setattr(kak, "cs_decompose_so", spoiled)
        u = random_special_unitary(8, np.random.default_rng(92))
        message = ("^decomposition failed: final level, branch RLL: "
                   "leaf is not inside the final torus$")
        with pytest.raises(DecompositionError, match=message):
            recursive_decompose(u, std_seq(8))

    def test_leaking_node_names_its_branch(self, std_seq):
        # Level 3 splits each half of the N=8 rows; node 1 of a two-node stack
        # is branch LR, and swapping rows 0 and 7 leaks across the halves.
        seq = std_seq(8)
        recursive_decompose(np.eye(8), seq)
        plan = kak._PLANS[seq]
        leaking = np.eye(8)[[7, 1, 2, 3, 4, 5, 6, 0]]
        leaking[0] *= -1.0
        message = "^level 3, branch LR: block leaks outside its component$"
        with pytest.raises(DecompositionError, match=message):
            kak._cs_level(plan, 3, np.array([np.eye(8), leaking]))

    @staticmethod
    def leak_in_second_component(plan, level):
        """Identity with one entry of the second component's rows outside it."""
        (group,) = plan.groups[level]
        node = np.eye(plan.n)
        node[group.order[1, 0], group.outside[1, 0]] = 0.5
        return node

    def test_leak_in_second_component_of_a_group(self, std_seq):
        seq = std_seq(8)
        recursive_decompose(np.eye(8), seq)
        plan = kak._PLANS[seq]
        leaking = self.leak_in_second_component(plan, 3)
        message = "^level 3, branch LR: block leaks outside its component$"
        with pytest.raises(DecompositionError, match=message):
            kak._cs_level(plan, 3, np.array([np.eye(8), leaking]))

    def test_leak_checks_run_before_the_cs_calls(self, std_seq):
        # Node 0 has a NaN inside its first block, which the CS step rejects,
        # and node 1 leaks from its second block. Every leak check of a level
        # runs before its CS calls, so the leak is what gets reported.
        seq = std_seq(8)
        recursive_decompose(np.eye(8), seq)
        plan = kak._PLANS[seq]
        first = plan.groups[3][0].order[0]
        spoiled = np.eye(8)
        spoiled[first[0], first[1]] = np.nan
        with pytest.raises(InvalidMatrixError, match="requires a finite matrix"):
            kak._cs_level(plan, 3, np.array([spoiled, np.eye(8)]))
        leaking = self.leak_in_second_component(plan, 3)
        message = "^level 3, branch LR: block leaks outside its component$"
        with pytest.raises(DecompositionError, match=message):
            kak._cs_level(plan, 3, np.array([spoiled, leaking]))

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_level_exponentials_are_the_per_factor_exponentials(self, n, std_seq):
        """Each block's closed-form exponential is exp(i sum(angle * generator)) of its
        factors, and a block without factors is the exact identity."""
        u = random_special_unitary(n, np.random.default_rng(97 + n))
        fact = recursive_decompose(u, std_seq(n))
        plan, angles = vars(fact)["_columns"]
        exps = {level: plan.blocks[level].exponentials(w) for level, w in angles.items()}
        assert [(b.tree_index, b.level) for b in fact.blocks] == [
            (idx, level) for level, _, idx in plan.order]
        for (level, j, _), block in zip(plan.order, fact.blocks):
            got = exps[level][j]
            if not block.factors:
                assert np.array_equal(got, np.eye(n))
                continue
            want = scipy.linalg.expm(1j * sum(f.angle * f.generator.matrix for f in block.factors))
            assert frob(got - want) < 1e-13

    @pytest.mark.parametrize("algebra", [standard_quotient_algebra, intrinsic_quotient_algebra])
    def test_stacking_leaves_every_output_unchanged(self, algebra, monkeypatch):
        """Item b of a CS stack is bit for bit the item run alone."""
        original = kak.cs_decompose_so

        def one_by_one(x, p, q):
            items = [original(x[b], p, q) for b in range(len(x))]
            return tuple(np.stack(parts) for parts in zip(*items))

        for n in range(2, 17):
            seq = build_decomposition_sequence(algebra(n))
            rng = np.random.default_rng(1400 + n)
            us = [np.exp(0.7j) * random_special_unitary(n, rng) for _ in range(2)]
            stacked = [recursive_decompose(u, seq) for u in us]
            with monkeypatch.context() as m:
                m.setattr(kak, "cs_decompose_so", one_by_one)
                alone = [recursive_decompose(u, seq) for u in us]
            assert alone == stacked

    def test_emit_order_is_in_order_tree_position(self, std_seq):
        u = random_special_unitary(16, np.random.default_rng(93))
        fact = recursive_decompose(u, std_seq(16))
        positions = [int(b.tree_index, 2) for b in fact.blocks]
        assert positions == list(range(1, 32))
        for b in fact.blocks:
            assert (int(b.tree_index, 2) & -int(b.tree_index, 2)) == 1 << (5 - b.level)


class TestGuardsAreReached:
    """Each input-dependent check of the level pass fires on an input made to fail it."""

    def test_ai_step_postconditions(self):
        # A phase times the identity: its eigenphases sum to 4 * 0.3, no multiple of 2 pi.
        with pytest.raises(DecompositionError, match="^eigenphase vector failed to become traceless$"):
            kak._ai_step(np.exp(0.3j) * np.eye(4))
        # A complex orthogonal Q (Q Q^T = I, det 1) that is not unitary: M M^T = I, so O1 = I
        # and D = I, and O2 = Q is not real.
        q = np.eye(4, dtype=complex)
        q[:2, :2] = [[np.cosh(0.1), 1j * np.sinh(0.1)], [-1j * np.sinh(0.1), np.cosh(0.1)]]
        with pytest.raises(DecompositionError, match="^right orthogonal factor is not real$"):
            kak._ai_step(q)

    def test_unit_rows_with_a_top_label_center(self, std_seq):
        # At N=9 only row 8 has the top bit. With label 1000 as the level-2
        # center, the level-2 t keeps the labels below 1000, none of which
        # reaches row 8, so row 8 is a single-row component at levels 2..4.
        qa = standard_quotient_algebra(9)
        seq = build_decomposition_sequence(qa, level_centers=[std_seq(9).space_at("1000")])
        fact = recursive_decompose(random_special_unitary(9, np.random.default_rng(94)), seq)
        assert fact.reconstruction_error < 1e-8
        plan = kak._PLANS[seq]
        assert {level: units.tolist() for level, units in plan.units.items()} == {
            2: [], 3: [8], 4: [8]}
        flipped = np.eye(9)
        flipped[7, 7] = flipped[8, 8] = -1.0
        message = "^level 3, branch LR: unit block is not the identity$"
        with pytest.raises(DecompositionError, match=message):
            kak._cs_level(plan, 3, np.array([np.eye(9), flipped]))

    def test_center_short_of_a_generator(self):
        # A hand-built algebra whose center misses one direction of the
        # traceless diagonal: the level-1 eigenphases leave its span.
        qa = standard_quotient_algebra(4)
        short = dataclasses.replace(qa.center, generators=qa.center.generators[:-1])
        seq = build_decomposition_sequence(dataclasses.replace(qa, center=short))
        u = random_special_unitary(4, np.random.default_rng(95))
        with pytest.raises(NotInSpanError, match="^diagonal part does not lie in the center span$"):
            recursive_decompose(u, seq)

    def test_final_space_with_nearly_dependent_generators(self, std_seq):
        # The final space's second generator is replaced by g1 + 1e-10 g2: it
        # still covers its two slots, but its slot coefficients are singular
        # to 1e-10, so the solved angles do not reproduce the leaf's.
        qa = standard_quotient_algebra(4)
        label = std_seq(4).final.binary_label

        def nearly_dependent(space):
            g1, g2 = space.generators
            return dataclasses.replace(
                space, generators=(g1, Generator(None, 4, g1.matrix + 1e-10 * g2.matrix)))

        pairs = tuple(
            dataclasses.replace(pr, w=nearly_dependent(pr.w), w_hat=nearly_dependent(pr.w_hat))
            if pr.binary_label == label else pr
            for pr in qa.pairs
        )
        seq = build_decomposition_sequence(dataclasses.replace(qa, pairs=pairs))
        u = random_special_unitary(4, np.random.default_rng(96))
        message = "^decomposition failed: angle expansion over the space basis failed$"
        with pytest.raises(DecompositionError, match=message):
            recursive_decompose(u, seq)


def moved_sequence(algebra, n):
    """The default sequence of algebra(n) moved by a seeded Haar unitary."""
    rng = np.random.default_rng(1600 + n)
    return build_decomposition_sequence(
        conjugate_quotient_algebra(algebra(n), random_special_unitary(n, rng)))


ALGEBRAS = {"standard": standard_quotient_algebra, "intrinsic": intrinsic_quotient_algebra}
BLOCK_CASES = (
    [pytest.param("standard", False, n, id=str(n)) for n in range(2, 17)]
    + [pytest.param("intrinsic", False, n, id=f"intrinsic-{n}") for n in range(2, 17)]
    + [pytest.param(build, True, n, id=f"moved-{build}-{n}")
       for build in ALGEBRAS for n in (4, 5, 6, 8, 9, 12)]
)


@pytest.mark.parametrize("build, moved, n", BLOCK_CASES)
def test_block_reconstruction_matches_reconstruct(build, moved, n, std_seq):
    """The closed-form block product agrees with the per-factor product."""
    if moved:
        seq = moved_sequence(ALGEBRAS[build], n)
    else:
        seq = std_seq(n) if build == "standard" else build_decomposition_sequence(
            intrinsic_quotient_algebra(n))
    rng = np.random.default_rng(700 + n)
    for _ in range(3):
        u = np.exp(1.1j) * random_special_unitary(n, rng)
        fact = recursive_decompose(u, seq)
        assert abs(fact.reconstruction_error - frob(reconstruct(fact, n) - u)) <= 1e-12


def test_every_block_kind_is_reached(std_seq):
    """In the frame the level-1 center is diagonal and every later block sits on the
    slot pairs of its label, for a moved algebra too."""
    moved = moved_sequence(standard_quotient_algebra, 8)
    for seq in (std_seq(16), std_seq(9), moved):
        recursive_decompose(np.eye(seq.dim), seq)
        labels = {level: b.label for level, b in kak._PLANS[seq].blocks.items()}
        assert labels[1] == 0 and 0 not in list(labels.values())[1:]


class TestColumns:
    """recursive_decompose keeps the angle columns and builds factor objects on first read."""

    # sha256 of factorization_to_json without reconstruction_error, recorded from the
    # code that built every factor inside recursive_decompose.
    PINS = {
        4: "ccb8d6a9da2cb907a004c451536a0f45856aca9b27032fe7aca3a1f0e3bf5431",
        8: "2dd68d904d480b20b152d9e096fbaee5eaf7db8b5dd63663f95d52430a175f52",
        9: "874ce70711a178fca3ce8f59508a496a4f129d9586aea5dd30fc87a7c1eb009e",
        16: "1acb03f55b199c4d8f116771948e7d2603049b5462fd590d56e6758342c5a0d9",
    }

    @staticmethod
    def seeded(n, std_seq):
        u = np.exp(0.2j) * random_special_unitary(n, np.random.default_rng(1700 + n))
        return recursive_decompose(u, std_seq(n))

    @pytest.mark.parametrize("n", sorted(PINS))
    def test_factors_are_pinned(self, n, std_seq):
        obj = serialize.factorization_to_json(self.seeded(n, std_seq))
        del obj["reconstruction_error"]
        digest = hashlib.sha256(serialize.dumps(obj).encode()).hexdigest()
        assert digest == self.PINS[n]

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_columns_are_read_without_factor_objects(self, n, std_seq, monkeypatch):
        fact = self.seeded(n, std_seq)
        monkeypatch.setattr(kak, "GateFactor", None)  # any construction would raise
        counts = (fact.local_count(), fact.nonlocal_count())
        text = serialize.dumps(serialize.factorization_to_json(fact))
        assert "factors" not in vars(fact) and "blocks" not in vars(fact)
        monkeypatch.undo()
        assert counts == (sum(f.locality == "local" for f in fact.factors),
                          sum(f.locality == "nonlocal" for f in fact.factors))
        hand_built = Factorization(n, fact.factors, fact.blocks, fact.global_phase,
                                   fact.reconstruction_error)
        assert serialize.dumps(serialize.factorization_to_json(hand_built)) == text
        assert (hand_built.local_count(), hand_built.nonlocal_count()) == counts
        assert hand_built == fact

    def test_second_read_returns_the_same_tuples(self, std_seq):
        fact = self.seeded(8, std_seq)
        factors, blocks = fact.factors, fact.blocks
        assert fact.factors is factors and fact.blocks is blocks
        assert factors == tuple(f for b in blocks for f in b.factors)
        with pytest.raises(AttributeError):
            fact.angles

    def test_warm_call_read_after_the_cold_one(self, std_seq):
        # Neither result is read until both exist, so they must not share state.
        seq = build_decomposition_sequence(std_seq(16).qa)
        rng = np.random.default_rng(1716)
        u, other = (random_special_unitary(16, rng) for _ in range(2))
        cold = recursive_decompose(u, seq)
        warm = recursive_decompose(u, seq)
        recursive_decompose(other, seq)
        assert fingerprint(warm) == fingerprint(cold)


@pytest.mark.parametrize("n", [4, 8, 9, 16])
def test_angles_move_little_with_the_input(n, std_seq):
    """The CS gauge is a rule on the output, so a 1e-9 move of u moves no angle far."""
    rng = np.random.default_rng(800 + n)
    for _ in range(3):
        u = random_special_unitary(n, rng)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = h + h.conj().T - 2 * np.trace(h).real / n * np.eye(n)
        before = [f.angle for f in recursive_decompose(u, std_seq(n)).factors]
        moved = expm_hermitian(h / frob(h), 1e-9) @ u
        after = [f.angle for f in recursive_decompose(moved, std_seq(n)).factors]
        assert len(after) == len(before)
        assert np.abs(np.subtract(after, before)).max() <= 1e3 * n * 1e-9
