"""The cosine-sine step and the joint eigenbasis, branch by branch."""

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ortho_group, special_ortho_group

from cartankak._linalg import (
    CLUSTER_TOL,
    _cs_two_svd,
    _fix_determinants,
    complex_symmetric_eigenbasis,
    cs_decompose_so,
    frob,
    joint_eigenbasis,
    rotation_middle,
    simultaneous_diagonalize,
)
from cartankak.errors import DecompositionError, InvalidMatrixError


def assemble(u1, u2, thetas, v1, v2):
    n, p = len(u1) + len(u2), len(u1)
    k1 = scipy.linalg.block_diag(u1, u2)
    k2 = scipy.linalg.block_diag(v1, v2)
    return k1 @ rotation_middle(n, p, thetas) @ k2


def off_diagonal(d):
    return frob(d - np.diag(np.diag(d)))


class TestCsDecomposeSo:
    @pytest.mark.parametrize("p,q", [(5, 3), (3, 5), (4, 4), (6, 1), (1, 6), (1, 1)])
    def test_random_special_orthogonal(self, p, q):
        x = special_ortho_group.rvs(p + q, random_state=10 * p + q)
        u1, u2, thetas, v1, v2 = cs_decompose_so(x, p, q)
        assert len(thetas) == min(p, q)
        assert frob(assemble(u1, u2, thetas, v1, v2) - x) < 1e-12
        for b in (u1, u2, v1, v2):
            assert frob(b @ b.T - np.eye(len(b))) < 1e-12
            assert abs(np.linalg.det(b) - 1.0) < 1e-12

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3), (3, 3)])
    def test_theta_exactly_zero(self, p, q):
        u1, u2, thetas, v1, v2 = cs_decompose_so(np.eye(p + q), p, q)
        assert np.all(thetas == 0.0)
        assert frob(assemble(u1, u2, thetas, v1, v2) - np.eye(p + q)) < 1e-12

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3), (3, 3)])
    def test_theta_exactly_half_pi(self, p, q):
        x = rotation_middle(p + q, p, [np.pi / 2] * min(p, q))
        u1, u2, thetas, v1, v2 = cs_decompose_so(x, p, q)
        np.testing.assert_allclose(np.abs(thetas), np.pi / 2, atol=1e-12)
        assert frob(assemble(u1, u2, thetas, v1, v2) - x) < 1e-12

    def test_empty_partition_passes_through(self):
        x = special_ortho_group.rvs(3, random_state=1)
        u1, u2, thetas, v1, v2 = cs_decompose_so(x, 0, 3)
        assert u1.shape == (0, 0) and len(thetas) == 0
        np.testing.assert_array_equal(u2, x)
        np.testing.assert_array_equal(v2, np.eye(3))

    @pytest.mark.parametrize("p,q", [(3, 0), (0, 3)])
    def test_no_cs_pair_error(self, p, q):
        with pytest.raises(DecompositionError, match="without a CS pair"):
            cs_decompose_so(np.diag([-1.0, 1.0, 1.0]), p, q)

    def test_determinant_minus_one_rejected(self):
        with pytest.raises(DecompositionError, match="determinant normalization"):
            cs_decompose_so(np.diag([-1.0, 1.0, 1.0, 1.0]), 2, 2)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(DecompositionError, match="reassembly"):
            cs_decompose_so(2.0 * np.eye(4), 2, 2)

    def test_complex_input(self):
        x = special_ortho_group.rvs(4, random_state=2)
        u1, u2, thetas, v1, v2 = cs_decompose_so(x.astype(complex), 2, 2)
        assert frob(assemble(u1, u2, thetas, v1, v2) - x) < 1e-12
        with pytest.raises(InvalidMatrixError):
            cs_decompose_so(x + 1e-3j, 2, 2)


def same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFixDeterminants:
    @staticmethod
    def blocks(negative, seed):
        rng = np.random.default_rng(seed)
        out = {}
        for name, size in (("u1", 3), ("u2", 2), ("v1", 3), ("v2", 2)):
            b = ortho_group.rvs(size, random_state=rng)
            if (np.linalg.det(b) < 0) != (name in negative):
                b[:, -1] *= -1.0
            out[name] = b
        thetas = rng.uniform(-np.pi, np.pi, 2)
        return out["u1"], out["u2"], thetas, out["v1"], out["v2"]

    PATTERNS = [
        ((), lambda t: t),
        (("u1", "v1"), lambda t: -t),
        (("u2", "v2"), lambda t: -t),
        (("v1", "v2"), lambda t: t - np.pi if t > 0 else t + np.pi),
        (("u1", "u2"), lambda t: t - np.pi if t > 0 else t + np.pi),
        (("u1", "u2", "v1", "v2"), lambda t: t),
    ]

    @pytest.mark.parametrize("negative,theta0", PATTERNS)
    def test_moves_keep_product(self, negative, theta0):
        u1, u2, thetas, v1, v2 = self.blocks(negative, seed=len(negative))
        x = assemble(u1, u2, thetas, v1, v2)
        fixed = _fix_determinants(u1.copy(), u2.copy(), thetas, v1.copy(), v2.copy())
        assert all(np.linalg.det(b) > 0 for b in fixed[:2] + fixed[3:])
        assert frob(assemble(*fixed) - x) < 1e-12
        assert fixed[2][0] == pytest.approx(theta0(thetas[0]), abs=1e-15)
        assert fixed[2][1] == thetas[1]


    def test_stack_mixing_every_pattern(self):
        """One stack holding all six patterns above moves each item as a lone call does."""
        items = [self.blocks(negative, seed=len(negative)) for negative, _ in self.PATTERNS]
        stacks = [np.array([item[k] for item in items]) for k in range(5)]
        fixed = _fix_determinants(*stacks)
        for b, (item, (_, theta0)) in enumerate(zip(items, self.PATTERNS)):
            alone = _fix_determinants(*(a.copy() for a in item))
            for got, want in zip(fixed, alone):
                same_bits(got[b], want)
            assert fixed[2][b][0] == pytest.approx(theta0(item[2][0]), abs=1e-15)
        assert all(np.all(np.linalg.det(s) > 0) for s in fixed[:2] + fixed[3:])


CS_SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4),
             (5, 4), (4, 5), (6, 3), (3, 6), (7, 2), (2, 7), (8, 1), (1, 8), (8, 8)]


def seeded_input(p, q, seed):
    return special_ortho_group.rvs(p + q, random_state=1000 * p + 10 * q + seed)


def assert_valid_cs(x, out, tol=1e-12):
    """out reassembles x within tol, and its four blocks are special orthogonal."""
    u1, u2, thetas, v1, v2 = out
    assert frob(assemble(u1, u2, thetas, v1, v2) - x) < tol
    for b in (u1, u2, v1, v2):
        assert frob(b @ b.T - np.eye(len(b))) < tol
        assert abs(np.linalg.det(b) - 1.0) < tol


def block_orthogonal(p, q, rng):
    """A seeded element of SO(p) x SO(q), as one block-diagonal matrix."""
    return scipy.linalg.block_diag(*(special_ortho_group.rvs(k, random_state=rng) if k > 1
                                     else np.eye(k) for k in (p, q)))


# Angle patterns of the clustered stacks. pi/4 puts cosines exactly at 1/sqrt(2),
# inside the window where the step picks which SVD each pair comes from; pi/4
# -+ 1e-9 puts a near-cluster on both sides of 1/sqrt(2), which a split there
# would cut.
CLUSTERED = [[0.0], [1e-9], [np.pi / 4], [np.pi / 2 - 1e-9], [np.pi / 2],
             [np.pi / 4 - 1e-9, np.pi / 4 + 1e-9],
             [np.pi / 4, 0.0, np.pi / 4, 1e-9, np.pi / 2 - 1e-9, np.pi / 2, np.pi / 4, 0.0]]


class TestCsDecomposeSoOracle:
    """The CS step agrees with scipy.linalg.cossin on all that the gauge leaves fixed."""

    @pytest.mark.parametrize("p,q", CS_SHAPES)
    def test_matches_cossin(self, p, q):
        for seed in range(8):
            x = seeded_input(p, q, seed)
            out = cs_decompose_so(x, p, q)
            _, thetas, _ = scipy.linalg.cossin(x, p=p, q=p, separate=True)
            # The determinant moves may shift an angle by pi: compare |cos|.
            np.testing.assert_allclose(np.sort(np.abs(np.cos(out[2]))), np.sort(np.cos(thetas)),
                                       rtol=0, atol=1e-12)
            assert_valid_cs(x, out)

    @pytest.mark.parametrize("p,q", CS_SHAPES)
    def test_clustered_stacks(self, p, q):
        """Block-orthogonal conjugates of rotation_middle with repeated and extreme angles."""
        r, rng = min(p, q), np.random.default_rng(7 * p + q)
        thetas = np.array([np.resize(pattern, r) for pattern in CLUSTERED])
        xs = np.array([block_orthogonal(p, q, rng) @ rotation_middle(p + q, p, t)
                       @ block_orthogonal(p, q, rng) for t in thetas])
        out = cs_decompose_so(xs, p, q)
        for b, x in enumerate(xs):
            np.testing.assert_allclose(np.sort(np.abs(np.cos(out[2][b]))),
                                       np.sort(np.cos(thetas[b])), rtol=0, atol=1e-12)
            assert_valid_cs(x, [a[b] for a in out])


def polar(m):
    a, _, b = np.linalg.svd(m)
    return a @ b


class TestCsGauge:
    """The CS gauge is a rule on the output, so the step is continuous in its input."""

    @pytest.mark.parametrize("p,q", CS_SHAPES)
    def test_small_perturbation_moves_every_output_little(self, p, q):
        rng = np.random.default_rng(p * 100 + q)
        used = 0
        for seed in range(8):
            x = seeded_input(p, q, seed)
            out = cs_decompose_so(x, p, q)
            angles = np.arccos(np.abs(np.cos(out[2])))  # in [0, pi/2], moves undone
            if np.diff(np.sort(np.concatenate([angles, [0.0, np.pi / 2]]))).min() <= 1e-3:
                continue
            used += 1
            e = rng.normal(size=x.shape)
            y = polar(x + 1e-13 * e / frob(e))
            for got, want in zip(cs_decompose_so(y, p, q), out):
                assert np.abs(got - want).max(initial=0.0) <= 1e-9
        assert used >= 4

    @pytest.mark.parametrize("p,q", CS_SHAPES)
    def test_rule_holds_before_the_determinant_moves(self, p, q):
        x = np.array([seeded_input(p, q, seed) for seed in range(8)])
        u1, u2, thetas, v1, v2 = _cs_two_svd(x, p)
        r, k = min(p, q), abs(p - q)
        assert np.all((thetas >= 0) & (thetas <= np.pi / 2))
        rows = v1[:, :r]  # the largest-magnitude entry of each paired row is positive
        assert np.all(rows.max(axis=2) >= -rows.min(axis=2))
        free = v1[:, r:] if p > q else np.swapaxes(u2[:, :, r:], 1, 2)
        # Upper triangular up to rounding, with a non-negative diagonal.
        tail = free[:, :, free.shape[2] - k:]
        assert np.all(np.abs(np.tril(tail, -1)) < 1e-15)
        assert np.all(np.diagonal(tail, axis1=1, axis2=2) >= 0)
        moved = cs_decompose_so(x, p, q)  # the moves touch pair 0 only
        for got, want, axis in zip(moved, (u1, u2, thetas, v1, v2), (2, 2, 1, 1, 1)):
            same_bits(np.delete(got, 0, axis), np.delete(want, 0, axis))


class TestCsFailures:
    """Both input-dependent raise sites of the CS step, at every shape."""

    @pytest.mark.parametrize("p,q", CS_SHAPES)
    def test_non_orthogonal_input_fails_reassembly(self, p, q):
        x = seeded_input(p, q, 0)
        x = x + 1e-6 * np.random.default_rng(p + q).normal(size=x.shape)
        with pytest.raises(DecompositionError, match="cosine-sine reassembly failed"):
            cs_decompose_so(x, p, q)

    @pytest.mark.parametrize("p,q", CS_SHAPES)
    def test_determinant_minus_one_fails_normalization(self, p, q):
        x = seeded_input(p, q, 0)
        x[:, -1] *= -1.0
        with pytest.raises(DecompositionError,
                           match="determinant normalization of CS blocks failed"):
            cs_decompose_so(x, p, q)


class TestCsDecomposeSoStack:
    """A (B, n, n) stack gives, item by item, what one matrix gives alone."""

    @pytest.mark.parametrize(
        "p,q", [(4, 4), (3, 3), (5, 3), (6, 1), (3, 5), (1, 6), (5, 4), (3, 2), (2, 1), (1, 1)]
    )
    def test_items_match_single_calls(self, p, q):
        xs = np.array([special_ortho_group.rvs(p + q, random_state=100 * p + q + b)
                       for b in range(5)])
        stacked = cs_decompose_so(xs, p, q)
        assert [a.shape[0] for a in stacked] == [5] * 5
        for b, x in enumerate(xs):
            for got, want in zip(stacked, cs_decompose_so(x, p, q)):
                same_bits(got[b], want)

    @pytest.mark.parametrize("p,q", [(3, 2), (2, 3), (3, 3)])
    def test_theta_exactly_zero_and_half_pi(self, p, q):
        r = min(p, q)
        xs = np.array([np.eye(p + q), rotation_middle(p + q, p, [np.pi / 2] * r)])
        u1, u2, thetas, v1, v2 = cs_decompose_so(xs, p, q)
        assert np.all(thetas[0] == 0.0)
        np.testing.assert_allclose(np.abs(thetas[1]), np.pi / 2, atol=1e-12)
        for b, x in enumerate(xs):
            assert frob(assemble(u1[b], u2[b], thetas[b], v1[b], v2[b]) - x) < 1e-12

    @pytest.mark.parametrize(
        "bad,error,message",
        [
            (np.diag([-1.0, 1.0, 1.0, 1.0]), DecompositionError, "determinant normalization"),
            (2.0 * np.eye(4), DecompositionError, "reassembly"),
            (np.eye(4) + 1e-3j, InvalidMatrixError, "requires a real orthogonal matrix"),
            (np.full((4, 4), np.nan), InvalidMatrixError, "requires a finite matrix"),
        ],
        ids=["det -1", "not orthogonal", "complex", "not finite"],
    )
    def test_bad_member_raises_its_own_message(self, bad, error, message):
        good = special_ortho_group.rvs(4, random_state=3)
        for stack in ([good, bad], [bad, good, good]):
            with pytest.raises(error, match=message):
                cs_decompose_so(np.array(stack), 2, 2)

    @pytest.mark.parametrize("p,q", [(3, 0), (0, 3)])
    def test_no_cs_pair_in_a_stack(self, p, q):
        xs = np.array([np.eye(3), np.diag([-1.0, 1.0, 1.0])])
        with pytest.raises(DecompositionError, match="without a CS pair"):
            cs_decompose_so(xs, p, q)
        u1, u2, thetas, v1, v2 = cs_decompose_so(xs[:1], p, q)
        assert thetas.shape == (1, 0)


class TestJointEigenbasis:
    def test_non_degenerate_first_matrix_is_plain_eigh(self):
        m0 = special_ortho_group.rvs(5, random_state=3)
        m0 = m0 @ np.diag([0.0, 1.0, 2.0, 3.0, 4.0]) @ m0.T
        np.testing.assert_array_equal(joint_eigenbasis([m0, np.eye(5)]), np.linalg.eigh(m0)[1])

    def test_exactly_degenerate_first_matrix(self):
        q = ortho_group.rvs(4, random_state=4)
        m0 = q @ np.diag([1.0, 1.0, -1.0, -1.0]) @ q.T
        m1 = q @ np.diag([1.0, -1.0, 1.0, -1.0]) @ q.T
        v = joint_eigenbasis([m0, m1])
        assert off_diagonal(v.T @ m0 @ v) < 1e-12
        assert off_diagonal(v.T @ m1 @ v) < 1e-12

    def test_gap_just_under_cluster_tolerance(self):
        # eigh alone leaves ~1e-10 of m1 off the diagonal at this gap.
        q = ortho_group.rvs(6, random_state=5)
        ev0 = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
        ev0[2] += 0.5 * CLUSTER_TOL * np.linalg.norm(ev0)
        m0 = q @ np.diag(ev0) @ q.T
        m1 = q @ np.diag([1.0, 5.0, -3.0, 1.0, 2.0, 7.0]) @ q.T
        v = joint_eigenbasis([m0, m1])
        assert off_diagonal(v.T @ m0 @ v) < 1e-12
        assert off_diagonal(v.T @ m1 @ v) < 1e-12

    def test_scalar_restriction_keeps_resolved_basis(self):
        # m1 resolves m0's degenerate pair at a gap below CLUSTER_TOL; m2 is
        # scalar on that pair, so rotating by its eigh would scramble m1.
        q = ortho_group.rvs(4, random_state=9)
        m0 = q @ np.diag([0.0, 0.0, 1.0, 2.0]) @ q.T
        m1 = q @ np.diag([1e-8, -1e-8, 3.0, 5.0]) @ q.T
        m2 = q @ np.diag([1.0, 1.0, 0.0, 4.0]) @ q.T
        v = joint_eigenbasis([m0, m1, m2])
        for m in (m0, m1, m2):
            assert off_diagonal(v.T @ m @ v) < 1e-12

    def test_complex_hermitian_family(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w, _ = np.linalg.qr(z)
        m0 = w @ np.diag([2.0, 2.0, 0.0, 0.0]) @ w.conj().T
        m1 = w @ np.diag([1.0, 0.0, 1.0, 0.0]) @ w.conj().T
        v = joint_eigenbasis([m0, m1])
        assert frob(v.conj().T @ v - np.eye(4)) < 1e-12
        for m in (m0, m1):
            assert off_diagonal(v.conj().T @ m @ v) < 1e-12


def test_simultaneous_diagonalize_rejects_non_commuting_matrices():
    # The caller checks that the matrices commute; where it does not (a frame of a center
    # read without the check), X's eigenbasis leaves Z off the diagonal.
    x, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    with pytest.raises(DecompositionError, match="^simultaneous diagonalization did not converge$"):
        simultaneous_diagonalize([x, z])


class TestComplexSymmetricEigenbasis:
    def test_near_collision_in_first_combination(self):
        # 2(lam0 + lam1) = pi/3 makes cos(2 lam - pi/6) collide for the pair.
        o = special_ortho_group.rvs(5, random_state=7)
        lam = np.array([0.2, np.pi / 6 - 0.2 + 1e-9, 0.4, -0.3, 0.9])
        s = o @ np.diag(np.exp(2j * lam)) @ o.T
        o_got, w = complex_symmetric_eigenbasis(s)
        assert frob(o_got @ np.diag(w) @ o_got.T - s) < 1e-12

    @pytest.mark.parametrize("eta", [1e-7, 1e-8])
    def test_near_collision_at_quarter_turn(self, eta):
        # 2 lam = pi/2 -+ eta: Re separates the pair by only 2 eta and Im is
        # scalar on it.
        o = special_ortho_group.rvs(5, random_state=10)
        lam = np.array([np.pi / 4 - eta / 2, np.pi / 4 + eta / 2, 0.4, -0.3, 0.9])
        s = o @ np.diag(np.exp(2j * lam)) @ o.T
        o_got, w = complex_symmetric_eigenbasis(s)
        assert frob(o_got @ np.diag(w) @ o_got.T - s) < 1e-12

    def test_non_commuting_parts_rejected(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        with pytest.raises(DecompositionError, match="did not diagonalize"):
            complex_symmetric_eigenbasis(a + a.T + 1j * (b + b.T))
