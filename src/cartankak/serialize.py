"""JSON formats shared by the library, the CLI and downstream consumers.

Matrix JSON:    {"dim": N, "entries": [[[re, im], ...], ...]} row-major.
Generator JSON: {"label": "lambda(1,2)" | "tensor:p3,p0,p1" | null, "dim": N}
                plus "matrix" when the label is null.
Floats are written with 17 significant digits ('.17g'), which round-trips
exactly and keeps artifacts byte-identical across runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

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


def _write(value: Any, out: List[str]) -> None:
    kind = type(value)  # exact floats and strings, the most common values, skip the chain
    if kind is float:
        out.append(format(value, ".17g"))
    elif kind is str:
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format(float(value), ".17g"))
    elif isinstance(value, dict):
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
    m = np.asarray(m, dtype=complex)
    return {
        "dim": m.shape[0],
        "entries": [[[float(x.real), float(x.imag)] for x in row] for row in m],
    }


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
