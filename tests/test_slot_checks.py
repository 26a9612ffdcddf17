"""Closure and Cartan checks in XOR-slot coordinates against the dense path.

verify_closure and CartanSplit.validate run in slot coordinates when every
space sits on the slots (i, i ^ l) of one label, and on dense matrices
otherwise. A space keeps its slot form as AbelianSpace._slot; patching that to
None forces the dense path, which is the oracle here. Patching
commutator_residuals to raise proves the slot path ran.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

import cartankak.cartan as cartan
import cartankak.partition as partition
from cartankak._linalg import random_special_unitary, slot_form, span_rank, span_rows
from cartankak.cartan import build_cartan_split, enumerate_t_choices
from cartankak.errors import InvalidChoiceError
from cartankak.partition import (
    AbelianSpace,
    ConjugatePair,
    QuotientAlgebra,
    conjugate_quotient_algebra,
    intrinsic_quotient_algebra,
    standard_quotient_algebra,
    verify_closure,
)

DIMS = range(2, 17)
BUILDS = {"standard": standard_quotient_algebra, "intrinsic": intrinsic_quotient_algebra}


@functools.lru_cache(maxsize=None)
def algebra(kind, n):
    return BUILDS[kind](n)


def no_dense(*args):
    raise AssertionError("the dense commutator path ran")


def force_dense(monkeypatch):
    monkeypatch.setattr(AbelianSpace, "_slot", property(lambda self: None))


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


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("n", DIMS)
def test_checks_take_the_slot_path(n, kind, monkeypatch):
    qa = algebra(kind, n)
    monkeypatch.setattr(partition, "commutator_residuals", no_dense)
    monkeypatch.setattr(cartan, "commutator_residuals", no_dense)
    report = verify_closure(qa)
    assert report.passed and report.max_residual < 1e-13
    for bits in enumerate_t_choices(qa):
        build_cartan_split(qa, bits)  # validates


@pytest.mark.parametrize("n", DIMS)
def test_slot_and_dense_validate_agree(n, monkeypatch):
    qa = algebra("standard", n)
    splits = [build_cartan_split(qa, bits, validate=False) for bits in enumerate_t_choices(qa)]
    cases = splits + [swapped(s, k) for s in splits[:2] for k in (0, len(qa.pairs) - 1)]
    with monkeypatch.context() as m:
        m.setattr(cartan, "commutator_residuals", no_dense)
        slot = [outcome(s) for s in cases]
    force_dense(monkeypatch)
    assert [outcome(s) for s in cases] == slot
    assert slot[: len(splits)] == ["ok"] * len(splits)
    if n > 2:  # su(2) has one pair; swapping it gives the other split
        assert "ok" not in slot[len(splits) :]


def test_conjugated_algebra_takes_the_dense_path(monkeypatch):
    qa = algebra("standard", 4)
    moved = conjugate_quotient_algebra(qa, random_special_unitary(4, np.random.default_rng(4)))
    assert moved.pairs[0].w._slot is None
    monkeypatch.setattr(partition, "slot_commutator_residuals", no_dense)
    monkeypatch.setattr(cartan, "slot_commutator_residuals", no_dense)
    assert verify_closure(moved, tol=1e-8).passed
    build_cartan_split(moved, "00")


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
    force_dense(monkeypatch)
    dense = verify_closure(broken)
    assert not slot.checks[0].ok and not dense.checks[0].ok
    assert [(c.kind, c.left, c.right, c.target, c.ok) for c in slot.checks] == [
        (c.kind, c.left, c.right, c.target, c.ok) for c in dense.checks
    ]
    assert max(abs(a.residual - b.residual) for a, b in zip(slot.checks, dense.checks)) < 1e-15


class TestSlotForm:
    def test_center_is_label_zero(self):
        qa = algebra("standard", 8)
        label, c = slot_form(qa.center.matrices)
        assert label == 0
        assert np.array_equal(c, np.array([np.diag(m) for m in qa.center.matrices]))

    def test_padding_past_n(self):
        qa = algebra("intrinsic", 5)
        pair = qa.pairs[-1]
        label, c = slot_form(pair.w.matrices)
        assert label == int(pair.binary_label, 2) and c.shape == (len(pair.w), 8)
        for m, row in zip(pair.w.matrices, c):
            for i in range(8):
                j = i ^ label
                assert row[i] == (m[i, j] if max(i, j) < 5 else 0)

    def test_one_entry_off_the_label_is_not_a_form(self):
        m = np.array(algebra("standard", 4).pairs[0].w.matrices)
        m[0, 3, 0] = 1e-300  # below every tolerance, in the lower triangle only
        assert slot_form(m) is None


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("n", DIMS)
def test_span_rank_matches_span_rows(n, kind):
    qa = algebra(kind, n)
    spaces = [qa.center] + [s for pair in qa.pairs for s in pair.spaces]
    for space in spaces:
        assert span_rank(space.matrices) == span_rows(space.matrices).shape[0] == len(space)
    every = [m for space in spaces for m in space.matrices]
    assert span_rank(every) == span_rows(every).shape[0] == n * n - 1
