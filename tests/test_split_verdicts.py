"""Pinned CartanSplit.validate verdicts: which check, if any, each split fails.

The cases are every selector split of both builds at N=2..16, of the X-word
centers at N=4, 8 and 16 and of conjugated su(4) and su(8), plus splits
assembled by hand from each algebra's own spaces: a pair's two spaces
exchanged between t and p, both spaces of a pair on one side, a space left
out, and three arrangements around the first pair. One character per case:
'.' passes, otherwise the first check that fails (see CODES).
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from cartankak._linalg import random_special_unitary
from cartankak.cartan import CartanSplit, build_cartan_split, enumerate_t_choices
from cartankak.errors import InvalidChoiceError
from cartankak.generators import make_tensor_word
from cartankak.partition import (
    AbelianSpace,
    build_quotient_algebra,
    conjugate_quotient_algebra,
    intrinsic_quotient_algebra,
    standard_basis,
    standard_quotient_algebra,
)

CODES = {
    "t and p do not fill su(N)": "f",
    "[t,t] not in t": "t",
    "[t,p] not in p": "x",
    "[p,p] not in t": "y",
    "Tr(t p) != 0": "r",
}


def x_center(n):
    """Every word of p0 and p1 on log2(n) sites but the identity."""
    words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1), 1, None)
    return AbelianSpace(tuple(make_tensor_word(list(w)) for w in words))


ALGEBRAS = {
    **{f"standard {n}": (standard_quotient_algebra, n) for n in range(2, 17)},
    **{f"intrinsic {n}": (intrinsic_quotient_algebra, n) for n in range(2, 17)},
    **{f"x-center {n}": (lambda n: build_quotient_algebra(x_center(n), standard_basis(n)), n)
       for n in (4, 8, 16)},
    **{f"conjugated {n}": (lambda n: conjugate_quotient_algebra(
        standard_quotient_algebra(n), random_special_unitary(n, np.random.default_rng(n))), n)
       for n in (4, 8)},
}

# Selector verdicts, then the hand-built ones in the order cases() lists them.
# With p = 2 the block-diagonal t splits su(N); with p > 2 it leaves [p,p] out of t.
PINNED = {
    **{f"{kind} 2": ".. ....t.." for kind in ("standard", "intrinsic")},
    **{f"{kind} {n}": "." * (1 << (n - 1).bit_length()) + (" ttttttfyy." if n < 5 else " ttttttfyyy")
       for kind in ("standard", "intrinsic") for n in range(3, 17)},
    "x-center 4": ".... ttttttfyy.",
    "x-center 8": "........ ttttttfyyy",
    "x-center 16": "................ ttttttfyyy",
    "conjugated 4": ".... ttttttfyy.",
    "conjugated 8": "........ ttttttfyyy",
}


def cases(qa):
    """The selector splits, then the hand-built ones."""
    splits = [build_cartan_split(qa, bits, validate=False) for bits in enumerate_t_choices(qa)]
    built = []
    for split in splits[:2]:
        for k in (0, len(qa.pairs) - 1):  # the k-th pair's spaces exchanged
            t = split.t[:k] + (split.p_part[k],) + split.t[k + 1 :]
            p = split.p_part[:k] + (split.t[k],) + split.p_part[k + 1 :]
            built.append(replace(split, t=t, p_part=p))
    split, k = splits[0], len(qa.pairs) - 1
    built.append(replace(split, t=split.t + (split.p_part[k],), p_part=split.p_part[:k]))
    if k:
        built.append(replace(split, t=split.t[:k], p_part=split.p_part + (split.t[k],)))
        built.append(replace(split, t=split.t[:k]))  # t's last space left out
    first, rest = qa.pairs[0], [s for pair in qa.pairs[1:] for s in pair.spaces]
    built.append(CartanSplit(qa, split.choice_bits, (qa.center,), (first.w_hat,) + tuple(rest),
                             first.w))
    built.append(CartanSplit(qa, split.choice_bits, (first.w,), (first.w_hat,) + tuple(rest),
                             qa.center))
    if rest:  # t = A + W_1 + W^_1, a block-diagonal subalgebra; the center moves to t
        built.append(CartanSplit(qa, split.choice_bits, (qa.center, first.w, first.w_hat),
                                 tuple(rest[1:]), rest[0]))
    return splits, built


def verdict(split):
    try:
        split.validate()
    except InvalidChoiceError as exc:
        return CODES[str(exc)]
    return "."


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_validate_verdicts_are_pinned(name):
    build, n = ALGEBRAS[name]
    splits, built = cases(build(n))
    got = "".join(map(verdict, splits)) + " " + "".join(map(verdict, built))
    assert got == PINNED[name]
