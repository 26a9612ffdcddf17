"""JSON formats shared by the library, the CLI and downstream consumers.

Matrix JSON:    {"dim": N, "entries": [[[re, im], ...], ...]} row-major.
Generator JSON: {"label": "lambda(1,2)" | "tensor:p3,p0,p1" | null, "dim": N}
                plus "matrix" when the label is null.
Floats are written with 17 significant digits ('.17g'), which round-trips
exactly and keeps artifacts byte-identical across runs.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .cartan import CartanSplit, DecompositionSequence, build_decomposition_sequence
from .errors import InvalidMatrixError
from .generators import Generator, generator_from_label
from .kak import Factorization
from .partition import AbelianSpace, ConjugatePair, QuotientAlgebra

__all__ = [
    "dumps",
    "matrix_to_json",
    "matrix_from_json",
    "generator_to_json",
    "generator_from_json",
    "space_to_json",
    "space_from_json",
    "qa_to_json",
    "qa_from_json",
    "split_to_json",
    "sequence_to_json",
    "factorization_to_json",
]


# ---------------------------------------------------------------------------
# Deterministic writer
# ---------------------------------------------------------------------------

def _quote(text: str) -> str:
    if "\\" in text or '"' in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text + '"'


# Text of each exact scalar type: the one set of rules behind every path below.
_SCALARS = {float: "%.17g".__mod__, str: _quote, int: int.__repr__, type(None): lambda v: "null",
            bool: lambda v: "true" if v else "false"}
_RECORD_ROWS = 16  # fewer records format faster one by one than through the checks and a template


@functools.lru_cache(maxsize=256)
def _template(shape: Tuple, leaf: str = "%.17g") -> str:
    """The %-template of a nested list of `shape` (lengths), or of a record of `shape`
    (keys, (key, shape) for a dict value), with `leaf` in each slot."""
    if type(shape[0]) is int:
        return "[" + ", ".join([_template(shape[1:], leaf) if shape[1:] else leaf] * shape[0]) + "]"
    return "{" + ", ".join(_quote(k).replace("%", "%%") + ": " + leaf if type(k) is str else
                           _quote(k[0]).replace("%", "%%") + ": " + _template(k[1], leaf)
                           for k in shape) + "}"


def _grid(value: list) -> Optional[str]:
    """A non-empty rectangular nested list of exact floats, in one formatting step."""
    shape, level = [len(value)], value
    while (kinds := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    return _template(tuple(shape)) % tuple(level) if kinds == {float} else None


def _columns(rows) -> Optional[Tuple[Tuple, List[List[str]]]]:
    """The shared key order and the text columns of same-keyed dicts with string keys
    whose values are scalars or such dicts in turn; None for others."""
    if set(map(type, rows)) != {dict} or len(orders := set(map(tuple, rows))) != 1:
        return None
    keys, shape, texts = orders.pop(), [], []
    if not keys or set(map(type, keys)) != {str}:
        return None
    for key, column in zip(keys, zip(*map(dict.values, rows))):
        kinds = set(map(type, column))
        if kinds <= _SCALARS.keys():
            shape.append(key)
            texts.append(list(map(_SCALARS[kinds.pop()], column)) if len(kinds) == 1
                         else [_SCALARS[type(v)](v) for v in column])
        elif (inner := _columns(column)) is not None:
            shape.append((key, inner[0]))
            texts += inner[1]
        else:
            return None
    return tuple(shape), texts


def _write(value: Any, out: List[str]) -> None:
    kind = type(value)  # exact scalars, float grids and records skip the chain
    if kind in _SCALARS:
        out.append(_SCALARS[kind](value))
    elif kind is list and (text := _grid(value)) is not None:
        out.append(text)
    elif kind is list and len(value) >= _RECORD_ROWS and (columns := _columns(value)) is not None:
        out.append("[" + ", ".join(map(_template(columns[0], "%s").__mod__, zip(*columns[1]))) + "]")
    elif isinstance(value, dict):  # no class is both a container and a scalar: containers first
        out.append("{")
        for k, v in value.items():
            if out[-1] != "{":
                out.append(", ")
            out.append(_quote(str(k)) + ": ")  # a key is a string; no need to dispatch
            _write(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for item in value:
            if out[-1] != "[":
                out.append(", ")
            _write(item, out)
        out.append("]")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (int, np.integer)):
        out.append(_SCALARS[int](int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_SCALARS[float](float(value)))
    else:
        raise TypeError(f"cannot serialize {type(value)}")


def dumps(value: Any) -> str:
    """Serialize to JSON text with 17-significant-digit floats."""
    out: List[str] = []
    _write(value, out)
    return "".join(out) + "\n"


# ---------------------------------------------------------------------------
# Matrices and generators
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> Dict[str, Any]:
    m = np.ascontiguousarray(m, dtype=complex)
    return {"dim": m.shape[0], "entries": m.view(float).reshape(m.shape + (2,)).tolist()}


def matrix_from_json(obj: Dict[str, Any]) -> np.ndarray:
    try:
        n = int(obj["dim"])
        rows = obj["entries"]
        m = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InvalidMatrixError(f"malformed matrix JSON: {exc}") from exc
    if m.shape != (n, n):
        raise InvalidMatrixError(f"matrix JSON shape {m.shape} does not match dim {n}")
    return m


def generator_to_json(g: Generator) -> Dict[str, Any]:
    obj: Dict[str, Any] = {"label": g.label_str, "dim": g.dim}
    if g.label is None:
        obj["matrix"] = matrix_to_json(g.matrix)
    return obj


def generator_from_json(obj: Dict[str, Any]) -> Generator:
    dim = int(obj["dim"])
    label = obj.get("label")
    if label is not None:
        return generator_from_label(label, dim)
    return Generator(None, dim, matrix_from_json(obj["matrix"]))


# ---------------------------------------------------------------------------
# Spaces and quotient algebras
# ---------------------------------------------------------------------------

def space_to_json(space: AbelianSpace) -> List[Dict[str, Any]]:
    return [generator_to_json(g) for g in space.generators]


def space_from_json(items: List[Dict[str, Any]], hat: bool = False,
                    label: Optional[str] = None) -> AbelianSpace:
    return AbelianSpace(
        tuple(generator_from_json(item) for item in items), hat=hat, binary_label=label
    )


def qa_to_json(qa: QuotientAlgebra) -> Dict[str, Any]:
    return {
        "dim": qa.dim,
        "p": qa.p,
        "center": space_to_json(qa.center),
        "pairs": [
            {
                "label": pair.binary_label,
                "w": space_to_json(pair.w),
                "w_hat": space_to_json(pair.w_hat),
            }
            for pair in qa.pairs
        ],
    }


def qa_from_json(obj: Dict[str, Any]) -> QuotientAlgebra:
    dim = int(obj["dim"])
    p, want = int(obj["p"]), max(1, (dim - 1).bit_length())
    if p != want:
        raise InvalidMatrixError(f"algebra JSON has p={p}; dim {dim} needs p={want}")
    center = space_from_json(obj["center"])
    pairs = tuple(
        ConjugatePair(
            w=space_from_json(item["w"], hat=False, label=item.get("label")),
            w_hat=space_from_json(item["w_hat"], hat=True, label=item.get("label")),
            binary_label=item.get("label"),
        )
        for item in obj["pairs"]
    )
    for space in (center, *(s for pair in pairs for s in pair.spaces)):
        if space.dim != dim:
            raise InvalidMatrixError(f"algebra JSON has dim {dim} but a generator of dim {space.dim}")
    return QuotientAlgebra(center=center, pairs=pairs, dim=dim, p=p)


# ---------------------------------------------------------------------------
# Splits, sequences, factorizations
# ---------------------------------------------------------------------------

def split_to_json(split: CartanSplit) -> Dict[str, Any]:
    hats = split.hat_selection()
    return {
        "choice_bits": split.choice_bits,
        "t": [
            {"label": s.binary_label, "hat": hats[s.binary_label], "generators": space_to_json(s)}
            for s in split.t
        ],
        "p": [
            {"label": s.binary_label, "hat": not hats[s.binary_label],
             "generators": space_to_json(s)}
            for s in split.p_part
        ],
        "center": space_to_json(split.chosen_center),
    }


def sequence_to_json(seq: DecompositionSequence) -> Dict[str, Any]:
    return {
        "dim": seq.dim,
        "levels": [
            {
                "ordinal": lv.ordinal,
                "label": lv.label,
                "choice_bits": lv.choice_bits,
                "chosen_labels": list(lv.chosen_labels),
                "center_core": space_to_json(lv.center_core),
                "center": space_to_json(seq.center(lv.ordinal)),
            }
            for lv in seq.levels
        ],
        "final": space_to_json(seq.final),
        "final_label": seq.final.binary_label,
        "final_hat": seq.hat_selection[seq.final.binary_label],
    }


def sequence_from_json(obj: Dict[str, Any], qa: QuotientAlgebra) -> DecompositionSequence:
    """Rebuild a sequence against `qa` from its serialized choices."""
    if int(obj["dim"]) != qa.dim:
        raise InvalidMatrixError(
            f"sequence JSON has dim {obj['dim']} but the algebra has dim {qa.dim}"
        )
    choices = [lv["choice_bits"] for lv in obj["levels"]]
    overrides: List[Optional[AbelianSpace]] = []
    for lv in obj["levels"][1:]:
        if lv.get("label") is not None:
            overrides.append(space_from_json(lv["center_core"], label=lv["label"]))
        else:
            overrides.append(None)
    return build_decomposition_sequence(qa, choices, overrides)


def factorization_to_json(fact: Factorization) -> Dict[str, Any]:
    return {
        "dim": fact.dim,
        "global_phase": [float(fact.global_phase.real), float(fact.global_phase.imag)],
        "reconstruction_error": fact.reconstruction_error,
        "factors": [
            {
                "tree_index": idx,
                "ordinal": ordinal,
                "generator": generator_to_json(g),
                "angle": angle,
                "locality": locality,
            }
            for idx, ordinal, g, angle, locality in fact.factor_rows()
        ],
    }
