"""Tests of the benchmark's correctness gate, its span arithmetic and its output.

    python3 -m pytest -q perfbench/gate_tests.py

The file name keeps these out of the repository's default test collection;
they take about a minute and a half because the smoke runs start real
workloads.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import tracing

ROOT = Path(__file__).resolve().parents[1]
ck = run.import_program()


@pytest.fixture(scope="module")
def factored():
    seq = ck.build_decomposition_sequence(ck.standard_quotient_algebra(8))
    u = gate.haar_unitary(np.random.default_rng(7), 8)
    return u, ck.recursive_decompose(u, seq)


def _largest_angle(fact):
    return max(range(len(fact.factors)), key=lambda i: abs(fact.factors[i].angle))


def perturb_one_angle(fact):
    factors = list(fact.factors)
    i = _largest_angle(fact)
    factors[i] = dataclasses.replace(factors[i], angle=factors[i].angle + 1e-6)
    return dataclasses.replace(fact, factors=tuple(factors))


def drop_one_factor(fact):
    i = _largest_angle(fact)
    return dataclasses.replace(fact, factors=fact.factors[:i] + fact.factors[i + 1:])


def _artifact(fact):
    return json.loads(ck.serialize.dumps(ck.serialize.factorization_to_json(fact)))


def test_gate_accepts_the_library_factorization(factored):
    u, fact = factored
    assert gate.factorization_error(fact, u) < gate.MAX_ERROR
    assert gate.json_factorization_error(_artifact(fact), u,
                                         ck.serialize.generator_from_json) < gate.MAX_ERROR


@pytest.mark.parametrize("corrupt", [perturb_one_angle, drop_one_factor])
def test_gate_rejects_a_corrupted_factorization(factored, corrupt):
    u, fact = factored
    bad = corrupt(fact)
    assert gate.factorization_error(bad, u) >= gate.MAX_ERROR
    assert gate.json_factorization_error(_artifact(bad), u,
                                         ck.serialize.generator_from_json) >= gate.MAX_ERROR


def test_session_check_counts_corrupted_and_changed_artifacts(factored):
    u, fact = factored
    good = ck.serialize.dumps(ck.serialize.factorization_to_json(fact)).encode()
    bad = ck.serialize.dumps(ck.serialize.factorization_to_json(drop_one_factor(fact))).encode()
    report = json.dumps({"passed": True, "cartan_splits": [{"ok": True}]}).encode()
    failing_report = json.dumps({"passed": False, "cartan_splits": []}).encode()

    def result(name, artifact, code=0):
        return {"name": name, "n": 8, "code": code, "stderr": "", "artifact": artifact}

    tally, reference = run.Tally(), {}
    run.check_session(ck, [result("partition", b"{}"), result("decompose", good),
                           result("verify", report)], {8: u}, reference, tally)
    assert (tally.attempted, tally.failed) == (3, 0)
    run.check_session(ck, [result("partition", b"{ }"), result("decompose", bad),
                           result("verify", failing_report), result("verify", None, code=1)],
                      {8: u}, reference, tally)
    assert (tally.attempted, tally.failed) == (7, 4)


def test_summarize_splits_self_time_and_scales_stream_spans():
    # decompose [0, 10] holds cs [1, 4] and classify [5, 7]; two set-up builds,
    # the first of which raised.
    spans = [
        ["kak.decompose", 0.0, 10.0, -1, 0, True],
        ["linalg.cs", 1.0, 4.0, 0, 0, True],
        ["kak.classify", 5.0, 7.0, 0, 0, True],
        ["partition.build", 0.0, 1.0, -1, None, False],
        ["partition.build", 1.0, 3.0, -1, None, True],
    ]
    one = tracing.summarize(spans, 1)
    assert one["kak.decompose_s"] == 10.0
    assert one["kak.self_s"] == 5.0
    assert one["linalg.cs_s"] == 3.0
    assert one["layer.kak.busy_s"] == 10.0
    assert one["layer.kak.self_s"] == 7.0
    assert one["layer.kak.calls"] == 2.0
    assert one["partition.build_attempts"] == 2.0
    assert one["partition.build_useful_ratio"] == 0.5
    two = tracing.summarize(spans, 2)
    assert two["kak.decompose_s"] == 5.0
    assert two["layer.partition.busy_s"] == 3.0


def test_installed_wrappers_are_removed_on_exit():
    before = ck.kak.recursive_decompose
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as missing:
        assert missing == []
        assert ck.kak.recursive_decompose is not before
    assert ck.kak.recursive_decompose is before


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result, record = json.loads(result_line), json.loads(record_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert record["seed"] == 3 and record["environment"]["blas_threads"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        named = set(record["workload_metrics"])
        assert {"setup_s", "peak_rss_mb"} <= named
        assert named & {"factor_ms_p50", "cli_verify_s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "factor_word",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
