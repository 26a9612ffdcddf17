"""su(N), 2^(p-1) < N <= 2^p, has the quotient-algebra structure of su(2^p).

The structure is read off the slots (i, i ^ l) alone: every label l in
1 .. 2^p - 1 keeps a slot below N, any two labels still multiply (two of
their slots share one index) onto the slot of l_a ^ l_b, and a hatted result
appears exactly when the operand hats agree, which is the parity rule that
cartan._hat_assignment resolves selectors with. Up to N = 16 the dense
lambda-basis algebra is the oracle.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from cartankak.cartan import _hat_assignment
from cartankak.generators import Lambda, LambdaHat, commutator_symbolic
from cartankak.partition import (
    bits_of,
    intrinsic_quotient_algebra,
    subscript_table_of,
    verify_closure,
)

DIMS = range(3, 129)


def p_of(n):
    return (n - 1).bit_length()


def label_slots(n):
    """Label -> its slots (i, i ^ l), i < i ^ l < n, 0-based; every label below 2^p."""
    return {
        label: [(i, i ^ label) for i in range(n) if i < i ^ label < n]
        for label in range(1, 1 << p_of(n))
    }


def witnesses(n):
    """w[a, b]: an index i with i, i ^ a, i ^ a ^ b all below n, or -1.

    Then [slot (i, i ^ a), slot (i ^ a, i ^ a ^ b)] lands on the slot
    (i, i ^ a ^ b) of label a ^ b.
    """
    size = 1 << p_of(n)
    i = np.arange(n)[:, None, None]
    a = np.arange(size)[None, :, None]
    b = np.arange(size)[None, None, :]
    inside = ((i ^ a) < n) & ((i ^ a ^ b) < n)
    return np.where(inside.any(axis=0), inside.argmax(axis=0), -1)


@pytest.mark.parametrize("n", DIMS)
def test_labels_keep_slots_and_multiply_as_at_the_power_of_two(n):
    slots = label_slots(n)
    assert all(slots.values()), [lab for lab, ss in slots.items() if not ss]
    flat = [s for ss in slots.values() for s in ss]
    assert sorted(flat) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = set(slots)
    assert {a ^ b for a in labels for b in labels if a != b} == labels
    w = witnesses(n)
    off_diagonal = ~np.eye(len(w), dtype=bool)
    off_diagonal[0] = off_diagonal[:, 0] = False  # label 0 is the center
    assert (w[off_diagonal] >= 0).all()


@pytest.mark.parametrize("p", range(1, 8))
def test_hat_parity_rule_closes_every_selection(p):
    # The label set is 1 .. 2^p - 1 at every N with this p (test above).
    qa = SimpleNamespace(p=p, pairs=[SimpleNamespace(binary_label=bits_of(label, p))
                                     for label in range(1, 1 << p)])
    hats = np.array([
        [False] + [_hat_assignment(qa, bits_of(selector, p))[bits_of(z, p)]
                   for z in range(1, 1 << p)]
        for selector in range(1 << p)
    ])
    z = np.arange(1, 1 << p)
    a, b = np.meshgrid(z, z, indexing="ij")
    distinct = a != b
    # [W_a, W_b] is hatted exactly when the operand hats agree, so t closes
    # when hat(a ^ b) = not (hat(a) xor hat(b)) for every pair in it.
    want = ~(hats[:, a] ^ hats[:, b])
    assert (hats[:, a ^ b] == want)[:, distinct].all()


@pytest.mark.parametrize("n", range(3, 17))
def test_slot_products_follow_the_hat_parity_rule(n):
    w = witnesses(n)
    for a in range(1, len(w)):
        for b in range(1, len(w)):
            if a == b:
                continue
            i = int(w[a, b])
            j, k = i ^ a, i ^ a ^ b
            for ha, left in ((False, Lambda), (True, LambdaHat)):
                for hb, right in ((False, Lambda), (True, LambdaHat)):
                    (_, label), = commutator_symbolic(left(i + 1, j + 1), right(j + 1, k + 1)).terms
                    assert isinstance(label, LambdaHat) == (not (ha ^ hb))
                    assert (label.i - 1) ^ (label.j - 1) == a ^ b


@pytest.mark.parametrize("n", range(3, 17))
def test_dense_algebra_matches_the_slot_structure(n):
    qa = intrinsic_quotient_algebra(n)
    slots = label_slots(n)
    assert [pair.binary_label for pair in qa.pairs] == [bits_of(lab, qa.p) for lab in slots]
    table = subscript_table_of(qa)
    assert table.rows == tuple(
        tuple((i + 1, j + 1) for i, j in sorted(ss)) for ss in slots.values()
    )
    assert table.check_closure() == []
    assert verify_closure(qa).passed
