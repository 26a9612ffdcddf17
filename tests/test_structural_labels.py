"""The labels and W sides of every structurally labeled algebra, pinned.

An algebra whose pairs share no common slot label gets its binary strings
from the pair multiplication structure (partition._structural_labels), and
hat parity then fixes which space of each pair is W. structural_labels.json
records, for the X-word centers of su(4), su(8) and su(16) and for every
member of enumerate_maximal_abelian (4, 3), (8, 1) and (6, 2) whose algebra
is labeled that way, each pair's label and the label_str of every W-side
generator, in pair order. The labels come from index matchings and the
sides from the frame's slot forms, so a build forms no N x N commutator.
"""

import functools
import itertools
import json
from pathlib import Path

import pytest

import cartankak.partition as partition
from cartankak import cartan
from cartankak.generators import make_tensor_word
from cartankak.partition import AbelianSpace, build_quotient_algebra, standard_basis
from oracle import forbid_dense_commutators

PINNED = json.loads((Path(__file__).with_name("structural_labels.json")).read_text())
SHELLS = [(4, 3), (8, 1), (6, 2)]


def x_center(n):
    words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1), 1, None)
    return AbelianSpace(tuple(make_tensor_word(list(w)) for w in words))


def layout(qa):
    return [[pair.binary_label, [g.label_str for g in pair.w.generators]] for pair in qa.pairs]


@functools.lru_cache(maxsize=None)
def members(n, shells):
    return cartan.enumerate_maximal_abelian(n, shells)


def structural(monkeypatch):
    """Count the _structural_labels calls that return labels."""
    calls, real = [], partition._structural_labels

    def counted(*args):
        out = real(*args)
        calls.append(all(pair.binary_label is not None for pair in out[0]))
        return out

    monkeypatch.setattr(partition, "_structural_labels", counted)
    return calls


@pytest.mark.parametrize("n", [4, 8, 16])
def test_x_word_center(n, monkeypatch):
    calls = structural(monkeypatch)
    assert layout(build_quotient_algebra(x_center(n), standard_basis(n))) == PINNED[f"x-word-{n}"]
    assert calls == [True]


@pytest.mark.parametrize("n", [8, 16])
def test_labels_form_no_dense_commutator(n, monkeypatch):
    center, basis = x_center(n), standard_basis(n)
    forbid_dense_commutators(monkeypatch)
    calls, real = [], partition.slot_commutator_residuals
    monkeypatch.setattr(partition, "slot_commutator_residuals",
                        lambda *args: calls.append(1) or real(*args))
    assert layout(build_quotient_algebra(center, basis)) == PINNED[f"x-word-{n}"]
    assert calls  # hat parity read the frame forms


@pytest.mark.parametrize("n, shells", SHELLS, ids=[f"{n}-{s}" for n, s in SHELLS])
def test_enumerated_members(n, shells, monkeypatch):
    found = members(n, shells)
    calls = structural(monkeypatch)
    labeled = {}
    for i, member in enumerate(found):
        calls.clear()
        qa = cartan._structure_of_center(member)
        if calls:
            assert calls == [True]
            labeled[f"member-{n}-{shells}-{i}"] = layout(qa)
    assert labeled == {k: v for k, v in PINNED.items() if k.startswith(f"member-{n}-{shells}-")}
    assert labeled
