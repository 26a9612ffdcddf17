"""cartankak benchmark: factor streams and CLI sessions, with a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` and
nothing is installed. Workloads (see BENCHMARK.json and README.md):

  factor_word    N=16 word-basis algebra; one caller factors a seeded stream
                 of Haar-random unitaries with ``recursive_decompose``.
  factor_lambda  N=9 lambda-basis algebra (word basis not closed), same stream;
                 diagnostic only, not listed in BENCHMARK.json (see README.md).
  cli_session    for N in (8, 9): ``partition``, ``decompose`` of one seeded
                 unitary file, ``verify`` of the partition output, each a
                 fresh ``python -m cartankak.cli`` process.

Calls run one at a time (closed loop, one caller) with BLAS threads pinned
to 1. Every output is checked outside the timed region (``gate.py``).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
are also written to ``.perfbench_out/``. The line before it is a record of
the run: seed, environment, sample counts and the workload's own metrics
(``workload_metrics``, e.g. ``factor_ms_p90`` or ``cli_verify_s``).
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

FACTOR_DIMS = {"factor_word": 16, "factor_lambda": 9}
CLI_DIMS = (8, 9)
WORKLOADS = tuple(FACTOR_DIMS) + ("cli_session",)

SETUP_REPEATS = 3          # set-ups per factor run, spread over it; setup_s is their median
CLI_SETUP_WRITES = 100     # input-file writes before each cli round; setup_s is their median
CLI_MIN_SESSIONS = 2       # artifacts of later sessions are compared byte-for-byte
COMMAND_TIMEOUT_S = 120


def import_program():
    """Import cartankak from this checkout's ``src/``, or exit non-zero."""
    package = SRC / "cartankak"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cartankak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cartankak
    import cartankak.serialize

    if Path(cartankak.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported cartankak from {cartankak.__file__}, not {package}")
    return cartankak


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def p90_if_supported(samples):
    """p90 only when at least ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10)[8]


class Tally:
    """Attempted and failed operations; the first failure is printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            if self.failed == 0:
                print(f"perfbench: failed: {what}", file=sys.stderr)
            self.failed += 1


# ---------------------------------------------------------------------------
# factor_word / factor_lambda
# ---------------------------------------------------------------------------

def set_up(ck, n):
    start = time.perf_counter()
    seq = ck.cartan.build_decomposition_sequence(ck.partition.standard_quotient_algebra(n))
    return seq, time.perf_counter() - start


def factor_once(ck, seq, u, tally):
    """Time one ``recursive_decompose`` call, then check its result untimed."""
    start = time.perf_counter()
    try:
        fact = ck.kak.recursive_decompose(u, seq)
    except Exception:  # a raising call is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        fact = None
    seconds = time.perf_counter() - start
    ok = fact is not None and gate.factorization_error(fact, u) < gate.MAX_ERROR
    tally.record(ok, f"factorization of a {u.shape[0]}x{u.shape[0]} unitary")
    return seconds, fact


def output_metrics(outputs):
    """Per-layer metrics read off kak's outputs rather than its spans.

    ``outputs`` holds one (factor localities, reconstruction error) pair per
    factored unitary.
    """
    localities = [loc for locs, _ in outputs for loc in locs]
    return {
        "kak.locality_resolved_ratio": (sum(loc is not None for loc in localities)
                                        / len(localities) if localities else 0.0),
        "kak.factors_per_unitary": len(localities) / len(outputs) if outputs else 0.0,
        "kak.recon_err_max": max((err for _, err in outputs), default=0.0),
    }


def run_factor(ck, workload, seed, seconds, trace):
    n = FACTOR_DIMS[workload]
    rng = np.random.default_rng(seed)
    tally = Tally()
    if not trace:
        # Set-ups are spread over the run, each followed by a share of the
        # stream, so both medians see the same stretch of machine time.
        setups, times = [], []
        start = time.perf_counter()
        for k in range(SETUP_REPEATS):
            seq, took = set_up(ck, n)
            setups.append(took)
            if k == 0:
                factor_once(ck, seq, gate.haar_unitary(rng, n), tally)  # warm-up, not timed
            share_ends = seconds * (k + 1) / SETUP_REPEATS
            while len(times) <= k or time.perf_counter() - start < share_ends:
                times.append(factor_once(ck, seq, gate.haar_unitary(rng, n), tally)[0])
        setup_s = statistics.median(setups)
        p50_ms = statistics.median(times) * 1e3
        per_s = len(times) / sum(times)
        rss = peak_rss_mb(resource.RUSAGE_SELF)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ms_p50": (p50_ms, "ms"),
            "unitaries_per_s": (per_s, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        named = {"setup_s": (setup_s, "s"), "factor_ms_p50": (p50_ms, "ms"),
                 "factor_per_s": (per_s, "1/s"), "peak_rss_mb": (rss, "MB")}
        p90 = p90_if_supported(times)
        if p90 is not None:
            named["factor_ms_p90"] = (p90 * 1e3, "ms")
        return tally, metrics, {"samples": len(times), "workload_metrics": _with_units(named)}

    # Traced run: one traced set-up, then traced and untraced calls alternate
    # so that the difference of their medians is the tracing overhead.
    tracer = tracing.Tracer()
    plain_seq, _ = set_up(ck, n)
    with tracing.installed(tracer) as missing:
        traced_seq, _ = set_up(ck, n)
    factor_once(ck, plain_seq, gate.haar_unitary(rng, n), tally)  # warm-up, not timed
    plain, traced, outputs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(factor_once(ck, plain_seq, gate.haar_unitary(rng, n), tally)[0])
        u = gate.haar_unitary(rng, n)
        with tracing.installed(tracer):
            tracer.op = len(traced)
            elapsed, fact = factor_once(ck, traced_seq, u, tally)
            tracer.op = None
        traced.append(elapsed)
        if fact is not None:
            outputs.append(([f.locality for f in fact.factors], fact.reconstruction_error))
    metrics = tracing.summarize(tracer.spans, len(traced))
    metrics.update(output_metrics(outputs))
    plain_ms, traced_ms = statistics.median(plain) * 1e3, statistics.median(traced) * 1e3
    metrics["trace.overhead_ms"] = traced_ms - plain_ms
    metrics["trace.overhead_ratio"] = (traced_ms - plain_ms) / plain_ms
    record = {"samples": len(traced), "untraced_samples": len(plain),
              "missing_boundaries": missing, "spans_file": _write_spans(workload, seed, tracer.spans)}
    return tally, _per_layer(metrics), record


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _commands(work, n):
    qa, u, fact, report = (str(work / f"{k}{n}.json") for k in ("qa", "u", "f", "v"))
    return (
        ("partition", ["partition", "--dim", str(n), "--output", qa], qa),
        ("decompose", ["decompose", "--dim", str(n), "--input", u, "--output", fact], fact),
        ("verify", ["verify", "--input", qa, "--output", report], report),
    )


def run_session(work, launcher, env, tag):
    """Run every command of one session in order; returns a list of results."""
    results = []
    for n in CLI_DIMS:
        for name, args, artifact in _commands(work, n):
            spans_path = work / f"spans-{tag}-{name}{n}.json"
            prefix = launcher(spans_path)
            Path(artifact).unlink(missing_ok=True)  # a command must write its own artifact
            start = time.perf_counter()
            try:
                proc = subprocess.run(prefix + args, cwd=ROOT, env=env, capture_output=True,
                                      text=True, timeout=COMMAND_TIMEOUT_S)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = None, f"timed out after {COMMAND_TIMEOUT_S} s"
            seconds = time.perf_counter() - start
            data = Path(artifact).read_bytes() if code == 0 and Path(artifact).is_file() else None
            results.append({"name": name, "n": n, "seconds": seconds, "code": code,
                            "stderr": stderr, "artifact": data, "spans": spans_path})
    return results


def check_session(ck, results, inputs, reference, tally):
    """Gate one session's commands; the first session's artifacts become the reference."""
    for r in results:
        what = f"cartankak {r['name']} --dim {r['n']}"
        ok = r["code"] == 0
        if not ok:
            tally.record(False, f"{what} exited {r['code']}: {r['stderr'].strip()[-300:]}")
            continue
        try:
            obj = json.loads(r["artifact"])
            if r["name"] == "decompose":
                err = gate.json_factorization_error(obj, inputs[r["n"]],
                                                    ck.serialize.generator_from_json)
                ok = err < gate.MAX_ERROR
                what += f" rebuild error {err:.3e}"
            elif r["name"] == "verify":
                ok = obj["passed"] is True and all(s["ok"] for s in obj["cartan_splits"])
                what += " closure report"
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            what += f" artifact is malformed ({exc!r})"
        if r["name"] in ("partition", "decompose"):
            key = (r["name"], r["n"])
            if reference.setdefault(key, r["artifact"]) != r["artifact"]:
                ok = False
                what += " artifact differs from an earlier run on the same seed"
        tally.record(ok, what)


def run_sessions(ck, launchers, seconds, minimum, env, work, inputs, tally, before_round):
    """Alternate sessions over ``launchers``; returns the sessions per launcher.

    Each round calls ``before_round`` and then runs one session per launcher.
    Each launcher runs ``minimum`` sessions; after that a round starts only
    if, at the pace so far, it ends within ``seconds``.
    """
    sessions = [[] for _ in launchers]
    reference = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < minimum or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        rounds += 1
        before_round()
        for k, launcher in enumerate(launchers):
            results = run_session(work, launcher, env, f"{k}-{len(sessions[k])}")
            check_session(ck, results, inputs, reference, tally)
            sessions[k].append(results)
    return sessions


def _session_seconds(sessions, name=None):
    """Median over sessions of the summed wall time of (the named) commands."""
    return statistics.median(sum(r["seconds"] for r in s if name in (None, r["name"]))
                             for s in sessions)


def run_cli(ck, workload, seed, seconds, trace):
    rng = np.random.default_rng(seed)
    inputs = {n: gate.haar_unitary(rng, n) for n in CLI_DIMS}
    tally = Tally()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        writes = []

        def write_inputs():
            for _ in range(CLI_SETUP_WRITES):
                start = time.perf_counter()
                for n, u in inputs.items():
                    text = ck.serialize.dumps(ck.serialize.matrix_to_json(u))
                    (work / f"u{n}.json").write_text(text)
                writes.append(time.perf_counter() - start)

        def plain(_spans_path):
            return [sys.executable, "-m", "cartankak.cli"]

        def launched(spans_path):
            return [sys.executable, str(HERE / "launch_cli.py"), str(spans_path)]

        if not trace:
            (sessions,) = run_sessions(ck, [plain], seconds, CLI_MIN_SESSIONS, env, work,
                                       inputs, tally, write_inputs)
            setup_s = statistics.median(writes)
            walls = [sum(r["seconds"] for r in s) for s in sessions]
            rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_ms_p50": (statistics.median(walls) * 1e3, "ms"),
                "unitaries_per_s": (len(CLI_DIMS) * len(walls) / sum(walls), "1/s"),
                "peak_rss_mb": (rss, "MB"),
            }
            named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB")}
            for name in ("partition", "decompose", "verify"):
                named[f"cli_{name}_s"] = (_session_seconds(sessions, name), "s")
            return tally, metrics, {"samples": len(sessions), "workload_metrics": _with_units(named)}

        # Traced run: plain and launched sessions alternate; the launched ones
        # carry spans, and the difference of their medians is the overhead.
        plain_sessions, traced_sessions = run_sessions(ck, [plain, launched], seconds, 1, env,
                                                       work, inputs, tally, write_inputs)
        batches, import_s, missing = [], 0.0, set()
        for op, session in enumerate(traced_sessions):
            for r in session:
                if not r["spans"].is_file():
                    continue
                payload = json.loads(r["spans"].read_text())
                for span in payload["spans"]:
                    span[4] = op
                batches.append(payload["spans"])
                import_s += payload["import_s"]
                missing.update(payload["missing"])
        spans = tracing.merge(batches)
        metrics = tracing.summarize(spans, len(traced_sessions))
        metrics["cli.import_s"] = import_s / len(traced_sessions)
        facts = [json.loads(r["artifact"]) for s in traced_sessions for r in s
                 if r["name"] == "decompose" and r["artifact"] is not None]
        metrics.update(output_metrics([([f["locality"] for f in obj["factors"]],
                                         obj["reconstruction_error"]) for obj in facts]))
        plain_ms = _session_seconds(plain_sessions) * 1e3
        traced_ms = _session_seconds(traced_sessions) * 1e3
        metrics["trace.overhead_ms"] = traced_ms - plain_ms
        metrics["trace.overhead_ratio"] = (traced_ms - plain_ms) / plain_ms
        record = {"samples": len(traced_sessions), "untraced_samples": len(plain_sessions),
                  "missing_boundaries": sorted(missing),
                  "spans_file": _write_spans(workload, seed, spans)}
        return tally, _per_layer(metrics), record
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    **{name: spec[2] for name, spec in tracing.SPAN_METRICS.items()},
    "cli.import_s": "s",
    "kak.locality_resolved_ratio": "ratio",
    "kak.factors_per_unitary": "count",
    "kak.recon_err_max": "frobenius",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _per_layer(values):
    """Every per-layer metric, zero where the workload never enters that layer."""
    return {name: (values.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}


def _with_units(metrics):
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()}


def _write_spans(workload, seed, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracing.write_spans(path, spans)
    return str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ck = import_program()
    runner = run_cli if args.workload == "cli_session" else run_factor
    tally, metrics, record = runner(ck, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "environment": environment(), **record}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": _with_units(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
