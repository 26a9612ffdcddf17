"""Span tracing at the boundaries between cartankak's modules.

Wrappers are installed from the benchmark's own code at every name a caller
looks up: a module attribute reached as ``gen.to_lambda_basis``, a name a
module imported with ``from ._linalg import expm_hermitian``, or a method on
a class. Nothing under ``src/`` changes. Each wrapped call records one span
``[name, start, end, parent, op, ok]`` in memory; ``op`` is ``None`` for
set-up work and the operation index inside the timed stream.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

LAYERS = ("generators", "partition", "cartan", "kak", "linalg", "serialize", "cli")

# (module, attribute, span name); the layer is the span name's prefix.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("cartankak.generators", "to_lambda_basis", "generators.to_lambda"),
    ("cartankak.generators", "commutator_numeric", "generators.commutator"),
    ("cartankak.generators", "word_site_count", "generators.word_site"),
    ("cartankak.partition", "standard_quotient_algebra", "partition.algebra"),
    ("cartankak.partition", "build_quotient_algebra", "partition.build"),
    ("cartankak.partition", "removing_process", "partition.removing"),
    ("cartankak.partition", "verify_closure", "partition.closure"),
    ("cartankak.partition", "standard_basis", "partition.standard_basis"),
    ("cartankak.partition", "diagonalize_abelian", "partition.diagonalize"),
    ("cartankak.cartan", "build_decomposition_sequence", "cartan.sequence"),
    ("cartankak.cartan", "build_cartan_split", "cartan.split"),
    ("cartankak.cartan", "CartanSplit.validate", "cartan.split_validate"),
    ("cartankak.kak", "recursive_decompose", "kak.decompose"),
    ("cartankak.kak", "classify_gate", "kak.classify"),
    ("cartankak.kak", "reconstruct", "kak.reconstruct"),
    ("cartankak._linalg", "cs_decompose_so", "linalg.cs"),
    ("cartankak._linalg", "complex_symmetric_eigenbasis", "linalg.eig"),
    ("cartankak._linalg", "simultaneous_diagonalize", "linalg.eig"),
    ("cartankak._linalg", "expm_hermitian", "linalg.expm"),
    ("cartankak._linalg", "span_rows", "linalg.span"),
    ("cartankak._linalg", "project_residual", "linalg.span"),
    ("cartankak.serialize", "dumps", "serialize.dump"),
    ("cartankak.serialize", "matrix_to_json", "serialize.dump"),
    ("cartankak.serialize", "qa_to_json", "serialize.dump"),
    ("cartankak.serialize", "factorization_to_json", "serialize.dump"),
    ("cartankak.serialize", "matrix_from_json", "serialize.load"),
    ("cartankak.serialize", "qa_from_json", "serialize.load"),
    ("cartankak.serialize", "sequence_from_json", "serialize.load"),
    ("cartankak.cli", "main", "cli.main"),
)

# Per-layer metrics: name -> (kind, span name or group, unit, better).
# Kinds: "time" sums the durations of outermost spans of the group, "calls"
# counts every span of the group, "self" sums self time, "useful" is the
# share of calls that returned instead of raising.
SPAN_METRICS: Dict[str, Tuple[str, str, str, str]] = {
    "partition.algebra_s": ("time", "partition.algebra", "s", "lower"),
    "partition.build_attempts": ("calls", "partition.build", "count", "lower"),
    "partition.build_useful_ratio": ("useful", "partition.build", "ratio", "higher"),
    "partition.removing_s": ("time", "partition.removing", "s", "lower"),
    "partition.closure_s": ("time", "partition.closure", "s", "lower"),
    "cartan.sequence_s": ("time", "cartan.sequence", "s", "lower"),
    "cartan.split_validate_s": ("time", "cartan.split_validate", "s", "lower"),
    "cartan.split_validate_calls": ("calls", "cartan.split_validate", "count", "lower"),
    "kak.decompose_s": ("time", "kak.decompose", "s", "lower"),
    "kak.decompose_calls": ("calls", "kak.decompose", "count", "lower"),
    "kak.self_s": ("self", "kak.decompose", "s", "lower"),
    "kak.classify_s": ("time", "kak.classify", "s", "lower"),
    "kak.classify_calls": ("calls", "kak.classify", "count", "lower"),
    "kak.reconstruct_s": ("time", "kak.reconstruct", "s", "lower"),
    "linalg.cs_s": ("time", "linalg.cs", "s", "lower"),
    "linalg.cs_calls": ("calls", "linalg.cs", "count", "lower"),
    "linalg.eig_s": ("time", "linalg.eig", "s", "lower"),
    "linalg.expm_s": ("time", "linalg.expm", "s", "lower"),
    "linalg.expm_calls": ("calls", "linalg.expm", "count", "lower"),
    "linalg.span_s": ("time", "linalg.span", "s", "lower"),
    "linalg.span_calls": ("calls", "linalg.span", "count", "lower"),
    "generators.to_lambda_s": ("time", "generators.to_lambda", "s", "lower"),
    "generators.to_lambda_calls": ("calls", "generators.to_lambda", "count", "lower"),
    "generators.commutator_calls": ("calls", "generators.commutator", "count", "lower"),
    "generators.word_site_s": ("time", "generators.word_site", "s", "lower"),
    "serialize.dumps_s": ("time", "serialize.dump", "s", "lower"),
    "serialize.load_s": ("time", "serialize.load", "s", "lower"),
    "cli.self_s": ("self", "cli.main", "s", "lower"),
}
for _layer in LAYERS:
    SPAN_METRICS[f"layer.{_layer}.busy_s"] = ("time", _layer, "s", "lower")
    SPAN_METRICS[f"layer.{_layer}.self_s"] = ("self", _layer, "s", "lower")
    SPAN_METRICS[f"layer.{_layer}.calls"] = ("calls", _layer, "count", "lower")


class Tracer:
    """Collects spans in memory; ``op`` tags the spans opened while it is set."""

    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                record[5] = True
                return result
            finally:
                record[2] = clock()
                stack.pop()

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every boundary in BOUNDARIES through ``tracer`` until exit.

    Yields the boundaries the program no longer has, so a renamed internal
    function leaves its metrics at zero instead of stopping the run.
    """
    importlib.import_module("cartankak.cli")
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "cartankak" or k.startswith("cartankak."))]
    patches = []
    missing = []
    try:
        for module_name, attr, name in BOUNDARIES:
            owner = importlib.import_module(module_name)
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr_name) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(name, original)
            for target in [owner] if cls_name else modules:
                for key, value in list(vars(target).items()):
                    if value is original:
                        patches.append((target, key, value))
                        setattr(target, key, wrapper)
        yield missing
    finally:
        for target, key, value in reversed(patches):
            setattr(target, key, value)


def _in_group(name: str, group: str) -> bool:
    return name == group or name.startswith(group + ".")


def summarize(spans: Sequence[list], n_ops: int) -> Dict[str, float]:
    """SPAN_METRICS over one set-up plus one operation of the stream.

    Set-up spans (``op`` None) count once; stream spans are divided by the
    number of operations, so runs of different length compare directly.
    """
    durations = [s[2] - s[1] for s in spans]
    self_time = list(durations)
    for s, d in zip(spans, durations):
        if s[3] >= 0:
            self_time[s[3]] -= d
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def outermost(i: int, group: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if _in_group(spans[parent][0], group):
                return False
            parent = spans[parent][3]
        return True

    def per_op(values) -> float:
        values = list(values)
        setup = sum(v for i, v in values if spans[i][4] is None)
        stream = sum(v for i, v in values if spans[i][4] is not None)
        return setup + stream / max(n_ops, 1)

    out: Dict[str, float] = {}
    for metric, (kind, group, _, _) in SPAN_METRICS.items():
        members = [i for name, idx in by_name.items() if _in_group(name, group) for i in idx]
        if kind == "time":
            out[metric] = per_op((i, durations[i]) for i in members if outermost(i, group))
        elif kind == "self":
            out[metric] = per_op((i, self_time[i]) for i in members)
        elif kind == "calls":
            out[metric] = per_op((i, 1) for i in members)
        else:
            out[metric] = sum(spans[i][5] for i in members) / len(members) if members else 0.0
    return out


def merge(batches: Sequence[Sequence[list]]) -> List[list]:
    """Concatenate span lists from several processes, re-basing parent indices."""
    merged: List[list] = []
    for batch in batches:
        base = len(merged)
        merged.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4], s[5]]
                      for s in batch)
    return merged


def write_spans(path, spans: Sequence[list]) -> None:
    """Write spans as gzipped JSON lines: name, start, end, parent, op, ok."""
    with gzip.open(path, "wt", compresslevel=1) as handle:
        for s in spans:
            handle.write(json.dumps(s))
            handle.write("\n")
