"""Input guards that no other test reaches: each one fires on an input made to fail it."""

import dataclasses

import numpy as np
import pytest

from cartankak import serialize
from cartankak.cartan import build_cartan_split, enumerate_maximal_abelian, enumerate_t_choices
from cartankak.cli import main
from cartankak.errors import (
    DimensionMismatchError,
    InvalidChoiceError,
    InvalidMatrixError,
    InvalidSubscriptError,
    NotBinaryPartitionedError,
)
from cartankak.generators import make_diag, make_tensor_word
from cartankak.kak import kak_single_level
from cartankak.partition import (
    AbelianSpace,
    ConjugatePair,
    SubscriptTable,
    conjugate_quotient_algebra,
    intrinsic_quotient_algebra,
    removing_process,
    standard_quotient_algebra,
    subscript_table_of,
)


def unlabeled(qa):
    """The algebra with its first pair's label dropped."""
    first = dataclasses.replace(qa.pairs[0], binary_label=None)
    return dataclasses.replace(qa, pairs=(first,) + qa.pairs[1:])


CASES = {
    "empty space": (lambda: AbelianSpace(()), InvalidMatrixError,
                    "abelian space needs at least one generator"),
    "mixed dimensions": (lambda: AbelianSpace((make_diag(1, 2, 3), make_diag(1, 2, 4))),
                         DimensionMismatchError, "generators of one space must share a dim"),
    "unequal pair": (lambda: ConjugatePair(AbelianSpace((make_diag(1, 2, 3),)), AbelianSpace(
        (make_diag(1, 2, 3), make_diag(1, 3, 3)))), InvalidMatrixError,
        "conjugate spaces must have equal size"),
    "missing label": (lambda: standard_quotient_algebra(4).pair_by_label("00"), KeyError,
                      "no pair labeled 00"),
    "removal off 2^p": (lambda: removing_process(intrinsic_quotient_algebra(6), 5),
                        DimensionMismatchError, "starts from a power-of-2 algebra"),
    "equal subscripts": (lambda: SubscriptTable((((1, 2), (3, 3)),)), InvalidSubscriptError,
                         "subscript pair with equal entries"),
    "unlabeled table": (lambda: subscript_table_of(unlabeled(intrinsic_quotient_algebra(4))),
                        NotBinaryPartitionedError, "subscript table needs a labeled algebra"),
    "conjugation shape": (lambda: conjugate_quotient_algebra(standard_quotient_algebra(4),
                                                             np.eye(3)),
                          DimensionMismatchError, "conjugating unitary has the wrong shape"),
    "unsupported type": (lambda: serialize.dumps({"x": {1, 2}}), TypeError,
                         "cannot serialize <class 'set'>"),
    "matrix without entries": (lambda: serialize.matrix_from_json({"dim": 2}),
                               InvalidMatrixError, "malformed matrix JSON: 'entries'"),
    "matrix of another shape": (
        lambda: serialize.matrix_from_json(serialize.matrix_to_json(np.eye(3)) | {"dim": 2}),
        InvalidMatrixError, r"matrix JSON shape \(3, 3\) does not match dim 2"),
    "unlabeled t choices": (lambda: enumerate_t_choices(unlabeled(standard_quotient_algebra(4))),
                            NotBinaryPartitionedError, "t-choices need a labeled quotient algebra"),
    "enumeration past 16": (lambda: enumerate_maximal_abelian(17, 1), InvalidMatrixError,
                            "enumeration is desk-scale"),
    "no shells": (lambda: enumerate_maximal_abelian(4, 0), InvalidChoiceError,
                  "max_shells must be at least 1"),
    "single level of another dim": (
        lambda: kak_single_level(np.eye(8), build_cartan_split(standard_quotient_algebra(4), "00")),
        DimensionMismatchError, "unitary does not match the split dimension"),
}


@pytest.mark.parametrize("name", CASES)
def test_guard_fires(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()


def test_cli_partition_with_a_center_short_of_maximal(tmp_path, capsys):
    center = tmp_path / "center.json"
    center.write_text(serialize.dumps(serialize.space_to_json(
        AbelianSpace((make_tensor_word(["p3", "p0"]),)))))
    assert main(["partition", "--dim", "4", "--center", str(center)]) == 2
    assert "error: center not maximal: " in capsys.readouterr().err
