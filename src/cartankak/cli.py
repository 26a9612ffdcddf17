"""Command-line front-end: partition, splits, maximal-abelian, decompose, verify.

Artifacts are JSON (or a text table mirroring the construction figures);
writes are atomic (temp file + rename). Exit codes: 0 success, 1 verification
failure, 2 invalid input, 3 internal decomposition failure. Log level comes
from the CARTAN_KAK_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from typing import List, Optional

from . import serialize
from ._linalg import RECON_TOL
from .cartan import (
    _structure_of_center,
    build_cartan_split,
    build_decomposition_sequence,
    enumerate_maximal_abelian,
    enumerate_t_choices,
)
from .errors import (
    CartanKakError,
    DecompositionError,
    DimensionMismatchError,
    InvalidMatrixError,
    NotAbelianError,
    NotMaximalError,
)
from .kak import recursive_decompose
from .partition import QuotientAlgebra, standard_quotient_algebra, verify_closure

log = logging.getLogger("cartankak")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_DECOMPOSITION_FAILED = 3


def _setup_logging():
    level = os.environ.get("CARTAN_KAK_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cartankak-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CartanKakError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, output: Optional[str]):
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidMatrixError(f"cannot read JSON from {path}: {exc}") from exc


def _build_qa(dim: int, center_spec: str) -> QuotientAlgebra:
    if center_spec == "intrinsic":
        return standard_quotient_algebra(dim)
    obj = _load_json(center_spec)
    center = serialize.space_from_json(obj["generators"] if isinstance(obj, dict) else obj)
    if center.dim != dim:
        raise DimensionMismatchError(f"center is in su({center.dim}), --dim is {dim}")
    try:
        return _structure_of_center(center)
    except NotAbelianError as exc:
        raise NotAbelianError(f"center not abelian: {exc}") from exc
    except NotMaximalError as exc:
        raise NotMaximalError(f"center not maximal: {exc}") from exc


def _qa_table(qa: QuotientAlgebra) -> str:
    lines = [
        f"quotient algebra of su({qa.dim}): {len(qa.pairs)} conjugate pairs, "
        f"center of {len(qa.center)} generators",
        "center:",
    ]
    for g in qa.center.generators:
        lines.append(f"    {g.label_str or '<matrix>'}")
    for pair in qa.pairs:
        lab = pair.binary_label or "?"
        width = max(len(g.label_str or "<matrix>") for g in pair.w.generators)
        width = max(width, len(f"W_{lab}")) + 1
        lines.append(f"{f'W_{lab}':<{width + 4}}| W^_{lab}")
        for gw, gh in zip(pair.w.generators, pair.w_hat.generators):
            left = gw.label_str or "<matrix>"
            right = gh.label_str or "<matrix>"
            lines.append(f"    {left:<{width}}|     {right}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_partition(args) -> int:
    qa = _build_qa(args.dim, args.center)
    report = verify_closure(qa)
    if not report.passed:
        log.error("constructed algebra failed closure (max residual %.2e)",
                  report.max_residual)
        return EXIT_VERIFY_FAILED
    if args.format == "table":
        _emit(_qa_table(qa), args.output)
    else:
        _emit(serialize.dumps(serialize.qa_to_json(qa)), args.output)
    log.info("partition: %d pairs, closure residual %.2e",
             len(qa.pairs), report.max_residual)
    return EXIT_OK


def cmd_splits(args) -> int:
    qa = _build_qa(args.dim, args.center)
    if args.choice_bits:
        split = build_cartan_split(qa, args.choice_bits)
        payload = serialize.split_to_json(split)
    else:
        payload = []
        for bits in enumerate_t_choices(qa):
            split = build_cartan_split(qa, bits)
            payload.append(serialize.split_to_json(split))
        log.info("enumerated %d splits", len(payload))
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK


def cmd_maximal_abelian(args) -> int:
    members = enumerate_maximal_abelian(args.dim, args.shells)
    payload = [
        {"index": i, "generators": serialize.space_to_json(m)}
        for i, m in enumerate(members)
    ]
    _emit(serialize.dumps({"dim": args.dim, "shells": args.shells,
                           "count": len(members), "members": payload}), args.output)
    print(f"maximal abelian subalgebras of su({args.dim}) "
          f"within {args.shells} shells: {len(members)}", file=sys.stderr)
    return EXIT_OK


def _sequence_for(args, qa: QuotientAlgebra):
    if args.sequence and args.sequence != "default":
        return serialize.sequence_from_json(_load_json(args.sequence), qa)
    choices = None
    if args.choice_bits:
        choices = args.choice_bits.split(",")
    return build_decomposition_sequence(qa, choices)


def cmd_decompose(args) -> int:
    if not args.input:
        log.error("decompose needs --input with a unitary matrix JSON")
        return EXIT_INVALID_INPUT
    u = serialize.matrix_from_json(_load_json(args.input))
    qa = _build_qa(args.dim, args.center)
    seq = _sequence_for(args, qa)
    try:
        fact = recursive_decompose(u, seq)
    except DecompositionError as exc:
        log.error("%s", exc)
        return EXIT_DECOMPOSITION_FAILED
    artifact = serialize.factorization_to_json(fact)
    _emit(serialize.dumps(artifact), args.output)
    print(
        f"factors={len(artifact['factors'])} local={fact.local_count()} "
        f"nonlocal={fact.nonlocal_count()} "
        f"reconstruction_error={fact.reconstruction_error:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK if fact.reconstruction_error < RECON_TOL else EXIT_DECOMPOSITION_FAILED


def cmd_verify(args) -> int:
    if not args.input:
        log.error("verify needs --input with a quotient-algebra JSON")
        return EXIT_INVALID_INPUT
    qa = serialize.qa_from_json(_load_json(args.input))
    report = verify_closure(qa)
    payload = {
        "passed": report.passed,
        "max_residual": report.max_residual,
        "failures": [
            {"kind": c.kind, "left": c.left, "right": c.right,
             "target": c.target, "residual": c.residual}
            for c in report.failures()
        ],
        "cartan_splits": [],
    }
    splits_ok = True
    if qa.labeled:
        for bits in enumerate_t_choices(qa):
            try:
                build_cartan_split(qa, bits)  # validates
                payload["cartan_splits"].append({"choice_bits": bits, "ok": True})
            except CartanKakError as exc:
                splits_ok = False
                payload["cartan_splits"].append(
                    {"choice_bits": bits, "ok": False, "error": str(exc)}
                )
    _emit(serialize.dumps(payload), args.output)
    return EXIT_OK if report.passed and splits_ok else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartankak",
        description="Quotient algebras of su(N) and recursive KAK gate factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, needs_dim=True, needs_center=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if needs_dim:
            p.add_argument("--dim", type=int, required=True, help="dimension N of su(N)")
        if needs_center:
            p.add_argument("--center", default="intrinsic",
                           help="'intrinsic' or a JSON file with center generators")
        p.add_argument("--output", help="output file (atomic write); stdout otherwise")
        return p

    p = command("partition", "construct a quotient algebra", cmd_partition)
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = command("splits", "enumerate or build Cartan splits", cmd_splits)
    p.add_argument("--choice-bits", help="selector bits; all splits when omitted")

    p = command("maximal-abelian", "shell-extend maximal abelian subalgebras",
                cmd_maximal_abelian, needs_center=False)
    p.add_argument("--shells", type=int, default=2, help="number of extension shells")

    p = command("decompose", "factor a unitary into gate exponentials", cmd_decompose)
    p.add_argument("--input", help="unitary matrix JSON")
    p.add_argument("--sequence", default="default",
                   help="'default' or a decomposition-sequence JSON file")
    p.add_argument("--choice-bits",
                   help="comma-separated per-level selector bits, e.g. 000,00,0")

    p = command("verify", "check closure and Cartan conditions", cmd_verify,
                needs_dim=False, needs_center=False)
    p.add_argument("--input", help="quotient-algebra JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CartanKakError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed input ({exc})", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
