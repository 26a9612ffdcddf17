"""Bases built from their labels: slot forms first, dense matrices on first read.

standard_basis, standard_word_center, lambda_basis and intrinsic_center give
each generator its slot form from its label and form its matrix only when it
is read. The oracle (oracle.dense_basis) builds the same bases densely, as
the library did before; the forms must be slot_forms of its matrices and the
matrices its matrices, byte for byte (signed zeros included).
"""

import copy
import pickle

import numpy as np
import pytest

import cartankak.partition as partition
from cartankak._linalg import random_special_unitary, slot_forms
from cartankak.cartan import build_decomposition_sequence
from cartankak.generators import make_diag, make_lambda
from cartankak.kak import recursive_decompose
from cartankak.partition import (
    AbelianSpace,
    QuotientAlgebra,
    lambda_basis,
    standard_basis,
    standard_quotient_algebra,
    verify_closure,
)
from oracle import dense_basis

BASES = ("standard_basis", "standard_word_center", "lambda_basis", "intrinsic_center")
DIMS = list(range(2, 17)) + [32]


def built(name, n):
    out = getattr(partition, name)(n)
    return list(out.generators) if isinstance(out, AbelianSpace) else out


def all_generators(qa):
    return [g for space in (qa.center,) + tuple(s for p in qa.pairs for s in p.spaces)
            for g in space.generators]


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("name", BASES)
def test_forms_and_matrices_match_the_dense_oracle(name, n):
    gens, dense = built(name, n), dense_basis(name, n)
    assert [g.label for g in gens] == [g.label for g in dense]
    labels, c = slot_forms(np.array([g.matrix for g in dense]).reshape(-1, n, n))
    two_odd_sites = name.startswith("standard") and n in (9, 15)  # words over 3x3 and 5x3
    assert all("_at" in g.__dict__ for g in gens) != two_odd_sites
    if not two_odd_sites:
        assert not any("matrix" in g.__dict__ for g in gens)  # nothing formed yet
        own = partition._forms_of(gens, n)
        assert own[0].tobytes() == labels.tobytes() and own[1].tobytes() == c.tobytes()
    # Half of them formed one at a time, the rest in one batch per space.
    for g in gens[::2]:
        assert g.matrix.tobytes() == dense[gens.index(g)].matrix.tobytes()
    batch = AbelianSpace(tuple(gens)).matrices
    for g, m, d in zip(gens, batch, dense):
        assert m is g.matrix and m.tobytes() == d.matrix.tobytes()
        assert not m.flags.writeable and m.dtype == complex and m.shape == (n, n)


@pytest.mark.parametrize("n", [8, 16])
def test_factor_word_path_forms_no_matrix(n):
    """The benchmark's factor_word path: build, sequence, two factorizations."""
    qa = standard_quotient_algebra(n)
    seq = build_decomposition_sequence(qa)
    rng = np.random.default_rng(n)
    facts = [recursive_decompose(random_special_unitary(n, rng), seq) for _ in range(2)]
    assert all(f.reconstruction_error < 1e-8 for f in facts)
    gens = all_generators(qa)
    assert len(gens) == n * n - 1
    assert not [g for g in gens if "matrix" in g.__dict__]


def test_closure_of_a_lambda_algebra_forms_no_matrix():
    qa = standard_quotient_algebra(9)
    assert verify_closure(qa).passed
    assert not [g for g in all_generators(qa) if "matrix" in g.__dict__]


def test_each_build_gets_its_own_generators():
    """The word tables are cached per N; the generators and their matrices are not shared."""
    a, b = standard_basis(8), standard_basis(8)
    assert not {id(g) for g in a} & {id(g) for g in b}
    a[3].matrix
    assert "matrix" in a[3].__dict__ and "matrix" not in b[3].__dict__
    assert not partition._word_table(8, False)[2][1].flags.writeable


@pytest.mark.parametrize("read_first", [False, True])
def test_lazy_generators_survive_pickle_and_copy(read_first):
    gens = standard_basis(4)[5:8] + lambda_basis(5)[3:5]
    want = [g.matrix.tobytes() for g in dense_basis("standard_basis", 4)[5:8]
            + dense_basis("lambda_basis", 5)[3:5]]
    if read_first:
        for g in gens:
            g.matrix
    copies = pickle.loads(pickle.dumps(gens)), list(map(copy.copy, gens)), copy.deepcopy(gens)
    for again in copies:
        assert [repr(g) for g in again] == [repr(g) for g in gens]
        assert [(g.label, g.dim) for g in again] == [(g.label, g.dim) for g in gens]
        assert [g.matrix.tobytes() for g in again] == want
    with pytest.raises(AttributeError):
        gens[0].nothing


def test_a_center_that_does_not_diagonalize_has_no_frame():
    """_build_slot_frame turns the eigenframe's failure into no frame."""
    center = AbelianSpace((make_lambda(1, 2, 2), make_diag(1, 2, 2)))  # sigma_1, sigma_3
    assert QuotientAlgebra(center=center, pairs=(), dim=2, p=1)._frame is None
