"""Closure, Cartan and build checks in XOR-slot coordinates against dense oracles.

verify_closure and CartanSplit.validate read closure tables
(partition._closure_table): one partition._span_residuals pass over the
spaces' slot forms, in the algebra's frame, or each generator's own slot
form (AbelianSpace._forms) when the algebra has no frame. Each space splits
into one unit per label. The oracle (oracle.read_densely) measures the same
tables on the spaces' own dense matrices. As the algebra keeps its table,
each reading uses a fresh copy of the algebra (over the same spaces) and
counts the calls of the routine it reads through.

build_quotient_algebra and AbelianSpace.validate read the same per-matrix
slot forms (slot_forms) when every generator has one. Their dense routines
(in_span, span_rank, all_commute) are the oracle; patching them to raise
proves the slot path ran, and patching slot_forms to find no form forces the
dense path.
"""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

import cartankak.partition as partition
from cartankak._linalg import (
    all_commute,
    in_span,
    random_special_unitary,
    slot_commute,
    slot_forms,
    span_rank,
    span_rows,
)
from cartankak.cartan import build_cartan_split, enumerate_t_choices
from cartankak.errors import (
    BasisNotClosedError,
    CartanKakError,
    InvalidChoiceError,
    InvalidMatrixError,
    NotBinaryPartitionedError,
    NotMaximalError,
)
from cartankak.generators import make_tensor_word
from cartankak.partition import (
    AbelianSpace,
    ConjugatePair,
    QuotientAlgebra,
    build_quotient_algebra,
    conjugate_quotient_algebra,
    intrinsic_center,
    intrinsic_quotient_algebra,
    lambda_basis,
    standard_basis,
    standard_quotient_algebra,
    standard_word_center,
    verify_closure,
)
from oracle import dense_span_residuals, forbid_dense_commutators, read_densely

DIMS = range(2, 17)
BUILDS = {"standard": standard_quotient_algebra, "intrinsic": intrinsic_quotient_algebra}


@functools.lru_cache(maxsize=None)
def algebra(kind, n):
    return BUILDS[kind](n)


def no_dense(*args):
    raise AssertionError("the dense commutator path ran")


def no_forms(stack):
    return np.full(len(stack), -1), np.zeros((len(stack), 2), dtype=complex)


def fresh(qa):
    """A copy of the algebra over the same spaces, without a closure table yet."""
    return replace(qa)


def counted(monkeypatch, name):
    """Wrap partition.<name> so that each call appends to the returned list."""
    calls, original = [], getattr(partition, name)
    monkeypatch.setattr(partition, name, lambda *args: calls.append(1) or original(*args))
    return calls


def outcome(split):
    try:
        split.validate()
    except InvalidChoiceError as exc:
        return str(exc)
    return "ok"


def swapped(split, k):
    """The split with the spaces of its k-th pair exchanged between t and p."""
    t = split.t[:k] + (split.p_part[k],) + split.t[k + 1 :]
    p = split.p_part[:k] + (split.t[k],) + split.p_part[k + 1 :]
    return replace(split, t=t, p_part=p)


def split_cases(qa):
    """Every selector split of qa, then four with one pair's spaces swapped."""
    splits = [build_cartan_split(qa, bits, validate=False) for bits in enumerate_t_choices(qa)]
    return splits + [swapped(s, k) for s in splits[:2] for k in (0, len(qa.pairs) - 1)]


def slot_and_dense(qa, monkeypatch):
    """(closure report, split outcomes) of fresh copies of qa read on slot forms, then
    by the dense oracle, each with a check that its routine ran."""
    runs = []
    with monkeypatch.context() as m:
        forbid_dense_commutators(m)
        calls = counted(m, "slot_commutator_residuals")
        copy = fresh(qa)
        runs.append((verify_closure(copy), [outcome(s) for s in split_cases(copy)], copy))
        assert calls
    with monkeypatch.context() as m:
        calls = read_densely(m)
        copy = fresh(qa)
        runs.append((verify_closure(copy), [outcome(s) for s in split_cases(copy)], copy))
        assert calls
    return runs


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("n", DIMS)
def test_checks_take_the_slot_path(n, kind, monkeypatch):
    qa = fresh(algebra(kind, n))
    forbid_dense_commutators(monkeypatch)
    calls = counted(monkeypatch, "slot_commutator_residuals")
    report = verify_closure(qa)
    assert report.passed and report.max_residual < 1e-13
    assert qa._frame.matrix is None  # a standard build's frame is the identity
    for bits in enumerate_t_choices(qa):
        build_cartan_split(qa, bits)  # validates
    assert calls


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("n", [8, 9])
def test_one_residual_pass_serves_closure_and_every_split(n, kind, monkeypatch):
    qa = fresh(algebra(kind, n))
    calls = counted(monkeypatch, "_span_residuals")
    report = verify_closure(qa)
    # Once the table is built, validate forms no commutator and no span.
    for name in ("slot_commutator_residuals", "slot_table", "span_rows", "span_rank"):
        monkeypatch.setattr(partition, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    for bits in enumerate_t_choices(qa):
        build_cartan_split(qa, bits)  # validates
    assert verify_closure(qa) == report
    assert len(calls) == 1


@pytest.mark.parametrize("n", DIMS)
def test_slot_and_dense_validate_agree(n, monkeypatch):
    (_, slot, _), (_, dense, _) = slot_and_dense(algebra("standard", n), monkeypatch)
    assert dense == slot
    count = 1 << algebra("standard", n).p
    assert slot[:count] == ["ok"] * count
    if n > 2:  # su(2) has one pair; swapping it gives the other split
        assert "ok" not in slot[count:]


@pytest.mark.parametrize("n", [4, 8])
def test_conjugated_algebra_reads_its_frame(n, monkeypatch):
    # The moved generators have no slot form of their own; closure and every split,
    # own and hand-built, read the frame forms and form no N x N commutator.
    moved = conjugate_quotient_algebra(algebra("standard", n),
                                       random_special_unitary(n, np.random.default_rng(n)))
    assert (moved.pairs[0].w._forms[0] < 0).all()
    (slot, slot_outcomes, copy), (dense, dense_outcomes, _) = slot_and_dense(moved, monkeypatch)
    assert copy._frame.matrix is not None
    assert check_rows(slot) == check_rows(dense) and slot.passed
    assert max(abs(a.residual - b.residual) for a, b in zip(slot.checks, dense.checks)) < 2e-15
    assert dense_outcomes == slot_outcomes
    count = 1 << moved.p
    assert slot_outcomes[:count] == ["ok"] * count and "ok" not in slot_outcomes[count:]


def test_space_without_a_form_is_rejected():
    # Without a frame a space is read on its own forms, and a moved one has none.
    qa = algebra("standard", 4)
    moved = conjugate_quotient_algebra(qa, random_special_unitary(4, np.random.default_rng(5)))
    unlabeled = replace(moved, pairs=tuple(ConjugatePair(p.w, p.w_hat) for p in moved.pairs))
    assert unlabeled._frame is None
    with pytest.raises(NotBinaryPartitionedError, match="^A has a generator off every single label$"):
        verify_closure(unlabeled)
    # In a frame, a space that is on no label there is rejected as well.
    split = build_cartan_split(fresh(qa), "00")
    with pytest.raises(NotBinaryPartitionedError, match="W_01, 2 generators"):
        replace(split, p_part=(moved.pairs[0].w,) + split.p_part[1:]).validate()


@pytest.mark.parametrize("n", [4, 9])
def test_dependent_algebra_fails_disjoint_on_both_paths(n, monkeypatch):
    # W^ of the first pair repeats W: every space stays on one label, but the
    # joint rank falls short of the generator count.
    qa = algebra("standard", n)
    pair = qa.pairs[0]
    copy = AbelianSpace(pair.w.generators, hat=True, binary_label=pair.binary_label)
    broken = QuotientAlgebra(
        center=qa.center,
        pairs=(ConjugatePair(pair.w, copy, pair.binary_label),) + qa.pairs[1:],
        dim=n,
        p=qa.p,
    )
    slot = verify_closure(broken)
    calls = read_densely(monkeypatch)
    dense = verify_closure(fresh(broken))
    assert calls
    assert not slot.checks[0].ok and not dense.checks[0].ok
    assert [(c.kind, c.left, c.right, c.target, c.ok) for c in slot.checks] == [
        (c.kind, c.left, c.right, c.target, c.ok) for c in dense.checks
    ]
    assert max(abs(a.residual - b.residual) for a, b in zip(slot.checks, dense.checks)) < 1e-15


def x_center(n):
    """The X-word center of su(n), n = 2^k: every word of p0 and p1 but the identity,
    each generator on its own non-zero label."""
    sites = [("p0", "p1")] * (n.bit_length() - 1)
    return AbelianSpace(tuple(word(*w) for w in itertools.islice(itertools.product(*sites), 1, None)))


def check_rows(report):
    return [(c.kind, c.left, c.right, c.target, c.ok) for c in report.checks]


@pytest.mark.parametrize("n", [8, 16])
def test_x_word_center_takes_the_slot_path(n, monkeypatch):
    # Its spaces mix labels in their own forms; in the frame each sits on its pair's label.
    qa = build_quotient_algebra(x_center(n), standard_basis(n))
    spaces = [qa.center] + [space for pair in qa.pairs for space in pair.spaces]
    assert all(len(set(space._forms[0].tolist())) > 1 for space in spaces)
    assert all(len(set(qa._frame.forms(space)[0].tolist())) == 1 for space in spaces)
    (slot, slot_outcomes, slot_qa), (dense, dense_outcomes, dense_qa) = slot_and_dense(qa, monkeypatch)
    assert check_rows(slot) == check_rows(dense) and slot.passed
    # The frame's entries are rounded, so the residuals move in the last bits.
    assert max(abs(a.residual - b.residual) for a, b in zip(slot.checks, dense.checks)) < 2e-15
    assert dense_outcomes == slot_outcomes
    a, b = slot_qa._closure, dense_qa._closure
    assert a.specs == b.specs and a.ranks == b.ranks
    for x, y in zip(a.residuals, b.residuals, strict=True):
        assert x.shape == y.shape and np.abs(x - y).max() < 1e-14
    assert np.allclose(a.norms, b.norms, rtol=1e-13, atol=1e-14)
    assert np.allclose(a.trace, b.trace, rtol=0, atol=1e-14)
    assert max(a.worst) < 1e-13
    # Against the other space of each cross-pair target the residuals are O(1)
    # wherever a commutator does not vanish, so comparing them in generator
    # order would catch a misplaced entry; rounding moves them by about 1e-15.
    spaces = list(a.spaces)
    wrong = [(spec[0], spec[1], [t + 1 if t % 2 else t - 1])
             for spec in a.specs if spec[3:4] == ("cross-pair",) for t in spec[2]]
    dense_wrong = dense_span_residuals(spaces, wrong)[1]
    # In the frame, and on the own forms, where each space splits into one unit per label.
    for forms in ([slot_qa._frame.forms(s) for s in spaces], [s._forms for s in spaces]):
        ranks, right = partition._span_residuals(forms, a.specs)[:2]
        assert ranks == b.ranks
        for x, y in zip(right, b.residuals, strict=True):
            assert x.shape == y.shape and np.abs(x - y).max() < 1e-14
        slot_wrong = partition._span_residuals(forms, wrong)[1]
        for x, y in zip(slot_wrong, dense_wrong, strict=True):
            assert x.shape == y.shape and np.abs(x - y).max() < 1e-14
        assert max(x.max() for x in slot_wrong) > 0.5
    count = 1 << qa.p
    assert slot_outcomes[:count] == ["ok"] * count
    assert "ok" not in slot_outcomes[count:]


class TestSlotForm:
    def test_center_is_label_zero(self):
        qa = algebra("standard", 8)
        labels, c = slot_forms(qa.center.matrices)
        assert (labels == 0).all()
        assert np.array_equal(c, np.array([np.diag(m) for m in qa.center.matrices]))

    def test_padding_past_n(self):
        qa = algebra("intrinsic", 5)
        pair = qa.pairs[-1]
        labels, c = slot_forms(pair.w.matrices)
        assert (labels == int(pair.binary_label, 2)).all() and c.shape == (len(pair.w), 8)
        label = labels[0]
        for m, row in zip(pair.w.matrices, c):
            for i in range(8):
                j = i ^ label
                assert row[i] == (m[i, j] if max(i, j) < 5 else 0)

    def test_one_entry_off_the_label_is_not_a_form(self):
        m = np.array(algebra("standard", 4).pairs[0].w.matrices)
        m[0, 3, 0] = 1e-300  # below every tolerance, in the lower triangle only
        labels, c = slot_forms(m)
        assert labels[0] == -1 and not c[0].any() and (labels[1:] >= 0).all()


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("n", DIMS)
def test_span_rank_matches_span_rows(n, kind):
    qa = algebra(kind, n)
    spaces = [qa.center] + [s for pair in qa.pairs for s in pair.spaces]
    for space in spaces:
        assert span_rank(space.matrices) == span_rows(space.matrices).shape[0] == len(space)
    every = [m for space in spaces for m in space.matrices]
    assert span_rank(every) == span_rows(every).shape[0] == n * n - 1


def word(*sites):
    return make_tensor_word(list(sites))


# An X-word center of su(8): every generator on its own non-zero label.
X_CENTER = [("p1", "p0", "p0"), ("p0", "p1", "p0"), ("p0", "p0", "p1"), ("p1", "p1", "p0"),
            ("p1", "p0", "p1"), ("p0", "p1", "p1"), ("p1", "p1", "p1")]


def build_inputs(kind, n):
    if kind == "x-center":
        return AbelianSpace(tuple(word(*s) for s in X_CENTER)), standard_basis(8)
    if kind == "word":
        return standard_word_center(n), standard_basis(n)
    return intrinsic_center(n), lambda_basis(n)


BUILD_CASES = ([("word", n) for n in DIMS if n not in (9, 15)]
               + [("lambda", n) for n in DIMS] + [("x-center", 8)])


def slot_rank(labels, c):
    return partition._slot_units(labels, c).ranks.sum()


def no_dense_build(monkeypatch):
    for name in ("in_span", "span_rank", "all_commute"):
        monkeypatch.setattr(partition, name, no_dense)


def build_outcome(center, basis):
    try:
        qa = build_quotient_algebra(AbelianSpace(center.generators), basis)  # a fresh _forms
    except CartanKakError as exc:
        return type(exc), str(exc)
    return layout(qa)


def layout(qa):
    return [(pair.binary_label, [g.label_str for g in pair.w.generators],
             [g.label_str for g in pair.w_hat.generators]) for pair in qa.pairs]


@pytest.mark.parametrize("kind, n", BUILD_CASES)
def test_build_checks_decide_as_the_dense_routines(kind, n, monkeypatch):
    center, basis = build_inputs(kind, n)
    labels, c = slot_forms([g.matrix for g in basis])
    clabels, cc = center._forms
    assert (labels >= 0).all() and (clabels >= 0).all()
    cspan = center.span()
    dense_in = [in_span(g.matrix, cspan) for g in basis]
    assert partition._slot_in_span(labels, c, partition._slot_units(clabels, cc)).tolist() == dense_in
    assert slot_rank(clabels, cc) == span_rank(center.matrices) == len(center)
    every = np.concatenate([labels, clabels]), np.concatenate([c, cc])
    assert slot_rank(*every) == span_rank([g.matrix for g in basis] + center.matrices)
    # The commute check: the built spaces commute, a pair's two sides and the
    # center with one side do not.
    qa = (build_quotient_algebra(center, basis) if kind == "x-center"
          else algebra("intrinsic" if kind == "lambda" else "standard", n))
    pair = qa.pairs[-1]
    sets = [qa.center.matrices] + [s.matrices for p in qa.pairs for s in p.spaces]
    sets += [pair.all_matrices(), qa.center.matrices + pair.w.matrices]
    for mats in sets:
        assert slot_commute(*slot_forms(mats)) == all_commute(mats)
    assert not any(all_commute(mats) for mats in sets[-2:])
    # The whole build then runs without a dense check.
    want = build_outcome(center, basis)
    no_dense_build(monkeypatch)
    assert build_outcome(center, basis) == want
    if kind == "lambda" or n not in (10, 14):
        assert layout(qa) == want


def test_dependent_space_fails_validate_on_both_paths(monkeypatch):
    space = standard_quotient_algebra(8).pairs[0].w
    twice = AbelianSpace(space.generators + space.generators[:1])
    with monkeypatch.context() as m:
        no_dense_build(m)
        with pytest.raises(InvalidMatrixError, match="linearly dependent"):
            twice.validate()
    monkeypatch.setattr(partition, "slot_forms", no_forms)
    with pytest.raises(InvalidMatrixError, match="linearly dependent"):
        AbelianSpace(twice.generators).validate()


SLOT_RAISES = {
    "span count": (lambda: (standard_word_center(4), standard_basis(4)[1:]),
                   InvalidMatrixError, "center plus basis span 14 dimensions, expected 15"),
    "redundant": (lambda: (standard_word_center(4), standard_basis(4) + standard_basis(4)[:1]),
                  InvalidMatrixError, "basis contains redundant or center-span generators"),
    "not commuting": (lambda: (AbelianSpace((word("g1"), word("g8"))), standard_basis(3)),
                      BasisNotClosedError, "a conjugate space does not commute"),
    "not maximal": (lambda: (AbelianSpace((word("p3", "p0"),)), standard_basis(4)),
                    NotMaximalError, "commutes with the whole center"),
    "several words": (lambda: (standard_word_center(10), standard_basis(10)),
                      BasisNotClosedError, "not proportional to a single basis generator"),
}


@pytest.mark.parametrize("case", sorted(SLOT_RAISES))
def test_build_raises_on_the_slot_path_as_on_the_dense_one(case, monkeypatch):
    inputs, error, message = SLOT_RAISES[case]
    with monkeypatch.context() as m:
        m.setattr(partition, "slot_forms", no_forms)
        dense = build_outcome(*inputs())
    no_dense_build(monkeypatch)
    slot = build_outcome(*inputs())
    assert slot == dense
    assert slot[0] is error and message in slot[1]


def test_word_basis_at_9_takes_the_dense_path(monkeypatch):
    center, basis = build_inputs("word", 9)
    assert (slot_forms([g.matrix for g in basis])[0] == -1).any()
    calls = []
    monkeypatch.setattr(partition, "in_span", lambda *a: calls.append(1) or in_span(*a))
    with pytest.raises(BasisNotClosedError, match="not proportional to a single basis generator"):
        build_quotient_algebra(center, basis)
    assert len(calls) == len(basis)
