"""Generator constructors, closed-form commutators, and lambda expansions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankak import generators as gen
from cartankak.errors import (
    DimensionMismatchError,
    InvalidMatrixError,
    InvalidSubscriptError,
    UnsupportedLabelError,
)
from cartankak.generators import (
    Diag,
    Generator,
    Lambda,
    LambdaHat,
    OrthoDiag,
    TensorWord,
    commutator_numeric,
    commutator_symbolic,
    generator_from_label,
    hs_inner,
    make_diag,
    make_lambda,
    make_lambda_hat,
    make_ortho_diag,
    make_tensor_word,
    parse_label,
    site_factors,
    standard_sites,
    to_lambda_basis,
    word_site_count,
)
from cartankak.partition import standard_basis

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def all_lambda_labels(n):
    labels = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            labels += [Lambda(i, j), LambdaHat(i, j), Diag(i, j)]
    return labels


def ordered_lambda_generators(n):
    """Every kind on every ordered subscript pair, with the matrix its convention
    gives: lambda_ji = lambda_ij, lambdahat_ji = -lambdahat_ij, d_ji = -d_ij."""
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lam, hat, diag = (np.zeros((n, n), dtype=complex) for _ in range(3))
            lam[i, j] = lam[j, i] = 1.0
            hat[i, j], hat[j, i] = -1j, 1j
            diag[i, i], diag[j, j] = 1.0, -1.0
            gens += [Generator(Lambda(i + 1, j + 1), n, lam),
                     Generator(LambdaHat(i + 1, j + 1), n, hat),
                     Generator(Diag(i + 1, j + 1), n, diag)]
    return gens


def reassemble(terms, n):
    return sum((c * generator_from_label(label, n).matrix for c, label in terms),
               np.zeros((n, n), dtype=complex))


class TestConstructors:
    def test_lambda_12_is_sigma1(self):
        np.testing.assert_allclose(make_lambda(1, 2, 2).matrix, SX)

    def test_lambdahat_12_is_gell_mann_mu2(self):
        mu2 = np.zeros((3, 3), dtype=complex)
        mu2[0, 1], mu2[1, 0] = -1j, 1j
        np.testing.assert_allclose(make_lambda_hat(1, 2, 3).matrix, mu2)

    def test_diag_12_is_sigma3(self):
        np.testing.assert_allclose(make_diag(1, 2, 2).matrix, SZ)

    def test_ortho_diag_3_is_mu8(self):
        mu8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0)
        np.testing.assert_allclose(make_ortho_diag(3, 3).matrix, mu8, atol=1e-15)

    def test_subscript_normalization(self):
        assert make_lambda(2, 1, 4).label == Lambda(1, 2)
        with pytest.raises(InvalidSubscriptError):
            make_lambda(1, 1, 4)
        with pytest.raises(InvalidSubscriptError):
            make_lambda(1, 5, 4)
        with pytest.raises(InvalidSubscriptError):
            make_lambda_hat(2, 1, 4)
        with pytest.raises(InvalidSubscriptError):
            make_diag(3, 2, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_generators_hermitian_traceless(self, n):
        for lab in all_lambda_labels(n):
            g = generator_from_label(lab, n)
            np.testing.assert_allclose(g.matrix, g.matrix.conj().T, atol=1e-15)
            assert abs(np.trace(g.matrix)) < 1e-12


class TestTensorWords:
    def test_sigma3_i_sigma1_expansion(self):
        w = make_tensor_word(["p3", "p0", "p1"])
        got = sorted((round(c, 12), str(l)) for c, l in to_lambda_basis(w.matrix))
        assert got == [
            (-1.0, "lambda(5,6)"),
            (-1.0, "lambda(7,8)"),
            (1.0, "lambda(1,2)"),
            (1.0, "lambda(3,4)"),
        ]

    def test_sigma3_sigma1_sigma1_expansion(self):
        w = make_tensor_word(["p3", "p1", "p1"])
        got = sorted((round(c, 12), str(l)) for c, l in to_lambda_basis(w.matrix))
        assert got == [
            (-1.0, "lambda(5,8)"),
            (-1.0, "lambda(6,7)"),
            (1.0, "lambda(1,4)"),
            (1.0, "lambda(2,3)"),
        ]

    def test_identity_word_rejected(self):
        with pytest.raises(InvalidMatrixError):
            make_tensor_word(["p0", "p0"])

    def test_empty_word_rejected(self):
        with pytest.raises(UnsupportedLabelError):
            make_tensor_word([])

    def test_unknown_site_rejected(self):
        with pytest.raises(UnsupportedLabelError):
            make_tensor_word(["p7"])

    def test_mixed_site_word(self):
        # mu4 x sigma3 on the 3x2 system connects dimensions (1,5) and (2,6).
        w = make_tensor_word(["g4", "p3"])
        assert w.dim == 6
        got = sorted((round(c, 12), str(l)) for c, l in to_lambda_basis(w.matrix))
        assert got == [(-1.0, "lambda(2,6)"), (1.0, "lambda(1,5)")]

    def test_prime_site_symbols(self):
        w = make_tensor_word(["l5(1,2)", "p3"])
        assert w.dim == 10

    def test_kron_matches_numpy(self):
        w = make_tensor_word(["p2", "g3"])
        np.testing.assert_allclose(
            w.matrix, np.kron(SY, np.diag([1.0, -1.0, 0.0])), atol=1e-15
        )

    @pytest.mark.parametrize("n", [4, 16, 32])
    @pytest.mark.parametrize("broken, message", [
        ({1: "hermitian"}, "generator matrix is not Hermitian"),
        ({1: "trace"}, "generator matrix is not traceless"),
        ({0: "trace", 2: "hermitian"}, "generator matrix is not traceless"),  # the first one fails
        ({2: "trace", 0: "hermitian"}, "generator matrix is not Hermitian"),
    ])
    def test_word_stack_checks_as_each_generator(self, n, broken, message, monkeypatch):
        """The word basis checks its slot forms at once and raises what one Generator at a
        time raises for the matrix of the first bad form. The bad words are diagonal ones
        (the 21st on at N=32), where a form can fail either check: an entry plus 1e-3j is
        not Hermitian, plus 1e-3 not traceless."""
        original, made = gen._basis, []

        def corrupted(labels, dim, table):
            slots, c = table[0], table[1].copy()
            diagonal = np.flatnonzero(slots == 0)[0 if n < 32 else 20 :]
            for k, what in broken.items():
                c[diagonal[k], 0] += 1e-3j if what == "hermitian" else 1e-3
            made.append((slots, c))
            return original(labels, dim, (slots, c) + table[2:])

        monkeypatch.setattr(gen, "_basis", corrupted)
        with pytest.raises(InvalidMatrixError, match=f"^{message}$"):
            standard_basis(n)
        with pytest.raises(InvalidMatrixError, match=f"^{message}$"):
            for slot, c in zip(*made[-1]):
                m = np.zeros((n, n), dtype=complex)
                m[np.arange(n), np.arange(n) ^ slot] = c[:n]  # the form's matrix
                Generator(None, n, m)

    def test_word_stack_keeps_the_per_object_fields(self):
        stacked = standard_basis(4)
        for g in stacked:
            one = Generator(g.label, g.dim, g.matrix)
            assert one.label == g.label and one.dim == g.dim and not g.matrix.flags.writeable
            assert np.array_equal(one.matrix, g.matrix) and repr(one) == repr(g)


class TestCommutatorNumeric:
    def test_pauli_relation(self):
        s1 = make_lambda(1, 2, 2)
        s3 = make_diag(1, 2, 2)
        np.testing.assert_allclose(commutator_numeric(s1, s3), -2j * SY, atol=1e-15)

    def test_conjugate_pair_gives_diagonal(self):
        a = make_lambda(1, 2, 4)
        b = make_lambda_hat(1, 2, 4)
        np.testing.assert_allclose(
            commutator_numeric(a, b), 2j * make_diag(1, 2, 4).matrix, atol=1e-15
        )

    def test_disjoint_subscripts_commute(self):
        a = make_lambda(1, 2, 4)
        b = make_lambda(3, 4, 4)
        np.testing.assert_allclose(commutator_numeric(a, b), 0.0, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator_numeric(make_lambda(1, 2, 2), make_lambda(1, 2, 3))


class TestCommutatorSymbolic:
    def test_lambda_with_its_diag(self):
        r = commutator_symbolic(Lambda(1, 2), Diag(1, 2))
        assert r.terms == ((-2j, LambdaHat(1, 2)),)

    def test_shared_subscript(self):
        r = commutator_symbolic(Lambda(1, 3), Lambda(3, 4))
        assert r.terms == ((1j, LambdaHat(1, 4)),)

    def test_disjoint_hats_vanish(self):
        assert commutator_symbolic(LambdaHat(1, 2), LambdaHat(3, 4)).is_zero

    def test_unsupported_label(self):
        with pytest.raises(UnsupportedLabelError):
            commutator_symbolic(OrthoDiag(3), Lambda(1, 2))

    def test_coefficients_purely_imaginary(self):
        for la in all_lambda_labels(4):
            for lb in all_lambda_labels(4):
                for coef, _ in commutator_symbolic(la, lb).terms:
                    assert abs(coef.real) < 1e-15

    def test_reversed_subscripts_on_one_slot(self):
        assert commutator_symbolic(Lambda(1, 2), LambdaHat(2, 1)).terms == ((-2j, Diag(1, 2)),)
        assert commutator_symbolic(Lambda(2, 1), LambdaHat(1, 2)).terms == ((2j, Diag(1, 2)),)

    @pytest.mark.parametrize("label", [Lambda(1, 1), Lambda(0, 2), LambdaHat(3, 3),
                                       LambdaHat(-1, 2), Diag(2, 2), Diag(2, 0)])
    def test_invalid_subscripts_rejected(self, label):
        with pytest.raises(InvalidSubscriptError):
            commutator_symbolic(label, Lambda(1, 2))
        with pytest.raises(InvalidSubscriptError):
            commutator_symbolic(Lambda(1, 2), label)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_numeric_exhaustively(self, n):
        # Every ordered subscript pair; the entries are 0, +-1, +-i, +-2i, so exactly.
        gens = ordered_lambda_generators(n)
        for a in gens:
            for b in gens:
                result = commutator_symbolic(a, b)
                assert len(result.terms) <= 1
                np.testing.assert_array_equal(result.matrix(n), commutator_numeric(a, b))


class TestHSInner:
    def test_conjugate_pair_orthogonal(self):
        assert hs_inner(make_lambda(1, 2, 4), make_lambda_hat(1, 2, 4)) == 0.0

    def test_lambda_norm(self):
        # Oracle: the two-entry matrix squared has trace 2, by direct numpy.
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[1, 0] = 1.0
        expected = float(np.real(np.trace(m @ m)))
        assert expected == 2.0
        assert hs_inner(make_lambda(1, 2, 4), make_lambda(1, 2, 4)) == expected

    def test_pauli_words_orthogonal(self):
        a = make_tensor_word(["p3", "p0"])
        b = make_tensor_word(["p0", "p3"])
        assert abs(hs_inner(a, b)) < 1e-15


class TestLambdaBasisExpansion:
    def test_zero_matrix(self):
        assert to_lambda_basis(np.zeros((3, 3))) == []

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidMatrixError):
            to_lambda_basis(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_projection_oracle_random_hermitian(self):
        # Oracle: off-diagonal coefficients via trace projections, diagonal by
        # least squares over the d_1l matrices; independent of the closed form.
        rng = np.random.default_rng(7)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (z + z.conj().T) / 2.0
        m -= np.trace(m) / 4.0 * np.eye(4)
        expected = {}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                lam = generator_from_label(Lambda(i, j), 4).matrix
                hat = generator_from_label(LambdaHat(i, j), 4).matrix
                expected[str(Lambda(i, j))] = np.real(np.trace(lam @ m)) / 2.0
                expected[str(LambdaHat(i, j))] = np.real(np.trace(hat @ m)) / 2.0
        diags = [generator_from_label(Diag(1, l), 4).matrix for l in range(2, 5)]
        a = np.array([np.real(np.diag(d)) for d in diags]).T
        sol, *_ = np.linalg.lstsq(a, np.real(np.diag(m)), rcond=None)
        for l, c in zip(range(2, 5), sol):
            expected[str(Diag(1, l))] = c
        got = {str(lab): c for c, lab in to_lambda_basis(m)}
        for key, val in got.items():
            assert abs(val - expected[key]) < 1e-12
        np.testing.assert_allclose(reassemble(to_lambda_basis(m), 4), m, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    def test_round_trip_random(self, n):
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = (z + z.conj().T) / 2.0
        m -= np.trace(m) / n * np.eye(n)
        np.testing.assert_allclose(reassemble(to_lambda_basis(m), n), m, atol=1e-12)


@st.composite
def lambda_label_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    kinds = [Lambda, LambdaHat, Diag]

    def one():
        i = draw(st.integers(min_value=1, max_value=n - 1))
        j = draw(st.integers(min_value=i + 1, max_value=n))
        return draw(st.sampled_from(kinds))(i, j)

    return n, one(), one()


class TestAlgebraProperties:
    @given(lambda_label_pairs())
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, data):
        n, la, lb = data
        ga, gb = generator_from_label(la, n), generator_from_label(lb, n)
        np.testing.assert_allclose(
            commutator_numeric(ga, gb), -commutator_numeric(gb, ga), atol=1e-14
        )

    @given(lambda_label_pairs())
    @settings(max_examples=200, deadline=None)
    def test_symbolic_agrees_with_numeric(self, data):
        n, la, lb = data
        ga, gb = generator_from_label(la, n), generator_from_label(lb, n)
        np.testing.assert_allclose(
            commutator_symbolic(la, lb).matrix(n),
            commutator_numeric(ga, gb),
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_jacobi_identity_random_triples(self, n):
        rng = np.random.default_rng(17)
        labels = all_lambda_labels(n)
        for _ in range(50):
            a, b, c = (
                generator_from_label(labels[rng.integers(len(labels))], n).matrix
                for _ in range(3)
            )
            jac = (
                (a @ b - b @ a) @ c - c @ (a @ b - b @ a)
                + (b @ c - c @ b) @ a - a @ (b @ c - c @ b)
                + (c @ a - a @ c) @ b - b @ (c @ a - a @ c)
            )
            assert np.linalg.norm(jac) < 1e-10


class TestLabelsReadBack:
    @pytest.mark.parametrize("symbols", [("d5(1,2)",), ("l7(2,3)", "i2", "lh7(1,4)"), ("p1", "g3")])
    def test_tensor_label_splits_at_commas_outside_parentheses(self, symbols):
        label = TensorWord(symbols)
        assert parse_label(str(label)) == label
        assert generator_from_label(str(label), make_tensor_word(symbols).dim).label == label

    def test_unknown_label_text(self):
        with pytest.raises(UnsupportedLabelError, match="cannot parse generator label"):
            parse_label("sigma(1,2)")

    def test_unknown_label_object(self):
        with pytest.raises(UnsupportedLabelError, match="unknown label"):
            generator_from_label(3, 2)


class TestOutsideInputIsRejected:
    """Every check of outside input in generators.py, reached once."""

    def test_identity_site_below_two(self):
        with pytest.raises(UnsupportedLabelError, match="at least 2"):
            site_factors("i1")

    @pytest.mark.parametrize("symbol", ["l5(3,2)", "d5(1,6)", "lh5(0,1)"])
    def test_site_subscripts_out_of_range(self, symbol):
        with pytest.raises(InvalidSubscriptError, match="out of range"):
            site_factors(symbol)

    def test_dimension_below_two(self):
        with pytest.raises(InvalidSubscriptError, match="at least 2"):
            standard_sites(1)

    def test_matrix_shape_other_than_dim(self):
        with pytest.raises(DimensionMismatchError, match="does not match dim"):
            Generator(None, 3, np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("l", [1, 4])
    def test_ortho_diag_out_of_range(self, l):
        with pytest.raises(InvalidSubscriptError, match="out of range"):
            make_ortho_diag(l, 3)

    def test_tensor_label_of_another_dim(self):
        with pytest.raises(DimensionMismatchError, match="tensor word has dim 4, expected 8"):
            generator_from_label("tensor:p1,p3", 8)

    def test_site_count_needs_a_tensor_word(self):
        with pytest.raises(UnsupportedLabelError, match="does not carry a tensor word"):
            word_site_count(make_lambda(1, 2, 3))

    def test_hs_inner_of_two_dims(self):
        with pytest.raises(DimensionMismatchError, match="dims differ"):
            hs_inner(make_lambda(1, 2, 2), make_lambda(1, 2, 3))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_expansion_of_a_non_square_matrix(self, shape):
        with pytest.raises(InvalidMatrixError, match="not square"):
            to_lambda_basis(np.zeros(shape))
