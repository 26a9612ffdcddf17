"""Per-stage timings of the factorization pipeline, at fixed dims and seeds.

    python tools/bench_stages.py [--dims 4,6,8,9,12,15,16,32] [--repeats 3]
                                 [--src SRC_DIR] [--before OLD.json] > OUT.json

For each dimension N and each repeat it times, in one process:

  algebra_s          standard_quotient_algebra(N)
  closure_s          verify_closure of that algebra
  validate_s         one CartanSplit.validate of its "0" * p split
  sequence_s         build_decomposition_sequence on that algebra
  first_decompose_ms the first recursive_decompose along the new sequence
  decompose_ms       median of the next 10 calls (seeded Haar inputs)
  plan_ms            first_decompose_ms - decompose_ms: what only the first
                     call along a sequence pays
  reconstruct_ms     median of the public per-factor reconstruct
  single_level_ms    median kak_single_level call on the same inputs, along
                     build_cartan_split(qa, "0" * p, validate=False)
  cs_calls           cs_decompose_so calls of one more warm recursive_decompose,
                     counted by wrapping kak.cs_decompose_so outside the timed calls

and, once per repeat rather than per dimension,

  import_s           wall time of a fresh `python -c "import cartankak.cli"`
  decompose_process_s
                     wall time of a fresh `python -m cartankak.cli decompose
                     --dim 4` process on a seeded SU(4) input file

It reports the median of each stage over the repeats, plus the worst
reconstruction_error seen, as JSON on stdout. The inputs depend only on N.
--src picks the src/ directory to import, so two checkouts can be compared;
with --before, the output holds {"before": <that file>, "after": <this run>}.
BLAS runs on one thread. No timing is asserted.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

DEFAULT_DIMS = "4,6,8,9,12,15,16,32"
UNITARIES = 10  # warm calls timed per repeat
SEED = 0
STAGES = ("algebra_s", "closure_s", "validate_s", "sequence_s", "first_decompose_ms",
          "decompose_ms", "plan_ms", "reconstruct_ms", "single_level_ms", "cs_calls")


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def cs_calls(ck, u, seq):
    """cs_decompose_so calls made by one recursive_decompose of u along seq."""
    original, calls = ck.kak.cs_decompose_so, []
    ck.kak.cs_decompose_so = lambda *args: calls.append(1) or original(*args)
    try:
        ck.kak.recursive_decompose(u, seq)
    finally:
        ck.kak.cs_decompose_so = original
    return len(calls)


def run_dim(ck, n):
    """One repeat at dimension n: stage times and the worst reconstruction error."""
    qa, algebra_s = timed(ck.partition.standard_quotient_algebra, n)
    _, closure_s = timed(ck.partition.verify_closure, qa)
    split = ck.cartan.build_cartan_split(qa, "0" * qa.p, validate=False)
    _, validate_s = timed(split.validate)
    seq, sequence_s = timed(ck.cartan.build_decomposition_sequence, qa)
    rng = np.random.default_rng(SEED + n)
    us = [ck._linalg.random_special_unitary(n, rng) for _ in range(UNITARIES + 1)]
    facts, seconds = zip(*(timed(ck.kak.recursive_decompose, u, seq) for u in us))
    rebuilt = [timed(ck.kak.reconstruct, f, n)[1] for f in facts[1:]]
    decompose_ms = statistics.median(seconds[1:]) * 1e3
    single = [timed(ck.kak.kak_single_level, u, split)[1] for u in us[1:]]
    stages = {
        "algebra_s": algebra_s,
        "closure_s": closure_s,
        "validate_s": validate_s,
        "sequence_s": sequence_s,
        "first_decompose_ms": seconds[0] * 1e3,
        "decompose_ms": decompose_ms,
        "plan_ms": seconds[0] * 1e3 - decompose_ms,
        "reconstruct_ms": statistics.median(rebuilt) * 1e3,
        "single_level_ms": statistics.median(single) * 1e3,
        "cs_calls": cs_calls(ck, us[1], seq),
    }
    return stages, max(f.reconstruction_error for f in facts)


def process_seconds(src, args):
    """Wall time of a fresh interpreter run with args, importing cartankak from src."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if result.returncode:
        raise SystemExit(f"{' '.join(args)} exited {result.returncode}:\n{result.stderr}")
    return seconds


def decompose_process_seconds(ck, src, repeats):
    """Median wall time of `cartankak.cli decompose --dim 4` in a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u4.json"
        u = ck._linalg.random_special_unitary(4, np.random.default_rng(SEED))
        path.write_text(json.dumps(ck.serialize.matrix_to_json(u)))
        args = ["-m", "cartankak.cli", "decompose", "--dim", "4", "--input", str(path),
                "--output", str(Path(tmp) / "f4.json")]
        return statistics.median(process_seconds(src, args) for _ in range(repeats))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default=DEFAULT_DIMS)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--before", help="a previous output of this script, for the other tree")
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    import cartankak._linalg  # noqa: F401
    import cartankak.cartan  # noqa: F401
    import cartankak.kak  # noqa: F401
    import cartankak.partition  # noqa: F401
    import cartankak.serialize  # noqa: F401
    ck = sys.modules["cartankak"]

    import_s = statistics.median(process_seconds(args.src, ["-c", "import cartankak.cli"])
                                 for _ in range(args.repeats))
    decompose_process_s = decompose_process_seconds(ck, args.src, args.repeats)
    print(f"import_s {import_s:.4g}, decompose_process_s {decompose_process_s:.4g}",
          file=sys.stderr)
    dims = [int(d) for d in args.dims.split(",")]
    per_dim, worst = {}, 0.0
    for n in dims:
        runs = []
        for _ in range(args.repeats):
            stages, err = run_dim(ck, n)
            runs.append(stages)
            worst = max(worst, err)
        per_dim[str(n)] = {k: statistics.median(r[k] for r in runs) for k in STAGES}
        print(f"N={n}: " + ", ".join(f"{k} {v:.4g}" for k, v in per_dim[str(n)].items()),
              file=sys.stderr)
    result = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "cpus": os.cpu_count(), "blas_threads": 1},
        "dims": dims,
        "repeats": args.repeats,
        "unitaries": UNITARIES,
        "seed": SEED,
        "import_s": import_s,
        "decompose_process_s": decompose_process_s,
        "stages": per_dim,
        "worst_reconstruction_error": worst,
    }
    if args.before:
        result = {"before": json.loads(Path(args.before).read_text()), "after": result}
    sys.stdout.write(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
