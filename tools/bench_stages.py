"""Per-stage timings of the factorization pipeline, at fixed dims and seeds.

    python tools/bench_stages.py [--dims 4,6,8,9,12,15,16,32] [--repeats 3]
                                 [--src SRC_DIR] [--before-src OLD_SRC_DIR] > OUT.json

For each dimension N and each repeat it times, in a fresh process:

  algebra_s          standard_quotient_algebra(N)
  basis_s            standard_basis(N), the word basis of N's standard sites,
                     after algebra_s: where the word tables are cached per N
                     (partition._word_table), this reads the one the build made
  basis_cold_s       standard_basis(N) once more with that cache cleared first
                     (a tree without it: basis_s again)
  algebra_peak_mb    the tracemalloc peak, in MB (10^6 bytes), of one more
                     standard_quotient_algebra(N), the word table cache cleared
                     first; not timed
  build_s            build_quotient_algebra of the center and basis that
                     standard_quotient_algebra(N) builds from (words where it
                     uses them, else the intrinsic center and lambda basis),
                     both made outside the timing, the center afresh
  closure_s          verify_closure of that algebra
  validate_s         one CartanSplit.validate of its "0" * p split, after
                     closure_s: where the algebra keeps its closure table,
                     this reads it (before it, validate measured its own
                     commutators)
  verify_s           what CLI verify pays on a freshly built algebra:
                     verify_closure, then build_cartan_split (which validates)
                     for every one of the 2^p selectors
  verify_splits_s    the second part of verify_s alone: the 2^p validated
                     splits after verify_closure
  sequence_s         build_decomposition_sequence on that algebra
  sequences_s        build_decomposition_sequence for every choice string:
                     2^(p(p+1)/2) of them, 64 at N=8 and 1,024 at N=16; only
                     for N <= 16 (N=32 would have 32,768)
  first_decompose_ms the first recursive_decompose along the new sequence
  decompose_ms       median of the next 10 calls (seeded Haar inputs)
  plan_ms            median over 5 fresh default sequences, each over a fresh
                     copy of the algebra, of the plan build alone: the
                     algebra's frame (QuotientAlgebra._frame, built uncached),
                     the t phases and kak._Plan, what the first call along a
                     new algebra pays (a tree from before the frame moved onto
                     the algebra: kak._frame_of; from before the per-algebra
                     frame: kak._build_frame plus kak._Plan)
  to_json_ms         median serialize.factorization_to_json + dumps of each
                     result of those calls, the first thing read of it
  matrix_json_ms     median serialize.dumps(serialize.matrix_to_json(u)) over the
                     seeded inputs: what writing one input matrix costs
  qa_json_ms         median of 10 serialize.dumps(serialize.qa_to_json(qa)) of the
                     algebra, the body of a partition artifact
  factors_ms         median first read of .factors on the same results (the
                     JSON reads the angle columns, not the factor objects):
                     what a result pays to build its factors on demand (about
                     zero where the call itself builds them)
  reconstruct_ms     median of the public per-factor reconstruct
  single_level_ms    median kak_single_level call on the same inputs, along
                     build_cartan_split(qa, "0" * p, validate=False); the
                     algebra's frame is cached by then
  cs_calls           cs_decompose_so calls of one more warm recursive_decompose,
                     counted by wrapping kak.cs_decompose_so outside the timed calls
  algebra_x_s        build_quotient_algebra of the X-word center (every word of
                     p0 and p1 but the identity, each on its own label) over the
                     word basis; only for N = 2^k <= 16
  closure_x_s        verify_closure of that algebra
  validate_x_s       one CartanSplit.validate of that algebra's "0" * p split,
                     after closure_x_s
  closure_moved_s    verify_closure of conjugate_quotient_algebra of the standard
                     algebra by a seeded Haar SU(N), moved outside the timing;
                     only for N <= 16

For N > 32 only algebra_s, basis_s, basis_cold_s and algebra_peak_mb are
recorded. And, once per repeat rather than per dimension,

  import_s           wall time of a fresh `python -c "import cartankak.cli"`
  decompose_process_s
                     wall time of a fresh `python -m cartankak.cli decompose
                     --dim 4` process on a seeded SU(4) input file

It reports the median of each stage over the repeats, plus the worst
reconstruction_error seen, as JSON on stdout. The inputs depend only on N.
--src picks the src/ directory to import. With --before-src, the same run
also times a second checkout's src/ and the output holds {"before": ...,
"after": ...}. The two trees then alternate: for every repeat and every
dimension (and for each process timing) one process runs per tree, and the
tree that goes first swaps each time, so a drift in host speed moves both
sides alike. BLAS runs on one thread. No timing is asserted.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

DEFAULT_DIMS = "4,6,8,9,12,15,16,32"
UNITARIES = 10  # warm calls timed per repeat
PLANS = 5  # fresh sequences whose plan build is timed per repeat
SEED = 0
STAGES = ("algebra_s", "basis_s", "basis_cold_s", "algebra_peak_mb", "build_s", "closure_s", "validate_s", "verify_s",
          "verify_splits_s", "sequence_s", "sequences_s", "first_decompose_ms", "decompose_ms",
          "plan_ms", "to_json_ms", "matrix_json_ms", "qa_json_ms", "factors_ms", "reconstruct_ms",
          "single_level_ms", "cs_calls", "algebra_x_s", "closure_x_s", "validate_x_s",
          "closure_moved_s")


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


def build_plan(ck, seq):
    """What the first recursive_decompose along seq builds before its level pass."""
    kak, spaces = ck.kak, {lab: seq.space_at(lab) for lab in seq.levels[0].chosen_labels}
    if hasattr(kak, "_build_frame"):  # a frame per sequence
        return kak._Plan(seq, kak._build_frame(seq.qa, spaces))
    if hasattr(kak, "_level_one"):  # one level-1 helper for the plan and kak_single_level
        return kak._Plan(seq, *kak._level_one(seq.qa, spaces, seq.levels[0].center_core))
    frame = kak._frame_of(seq.qa) if hasattr(kak, "_frame_of") else seq.qa._frame
    phases = kak._t_phases(seq.dim, {lab: frame.forms(s) for lab, s in spaces.items()})
    return kak._Plan(seq, frame, phases)


def build_every_sequence(ck, qa):
    """build_decomposition_sequence for every choice string: p bits at level 1,
    one fewer per level after it."""
    p = qa.p
    strings = [[format(b, f"0{p - k}b") for b in range(1 << (p - k))] for k in range(p)]
    for choices in itertools.product(*strings):
        ck.cartan.build_decomposition_sequence(qa, list(choices))


def x_center(ck, n):
    """The X-word center of su(n), n = 2^k: every word of p0 and p1 but the identity."""
    words = itertools.islice(itertools.product(("p0", "p1"), repeat=n.bit_length() - 1), 1, None)
    return ck.partition.AbelianSpace(tuple(ck.generators.make_tensor_word(w) for w in words))


def build_inputs(ck, n):
    """The center and basis standard_quotient_algebra(n) builds from, by its own rule."""
    part, sites = ck.partition, ck.generators.standard_sites(n)
    if len(sites) == 1 or sites[0] <= 3 and set(sites[1:]) <= {2}:
        return part.standard_word_center(n), part.standard_basis(n)
    return part.intrinsic_center(n), part.lambda_basis(n)


def verify(ck, n):
    """verify_s and verify_splits_s on a freshly built algebra, built outside the timing."""
    qa = ck.partition.standard_quotient_algebra(n)
    start = time.perf_counter()
    ck.partition.verify_closure(qa)
    middle = time.perf_counter()
    for bits in ck.cartan.enumerate_t_choices(qa):
        ck.cartan.build_cartan_split(qa, bits)
    end = time.perf_counter()
    return end - start, end - middle


def cold_build(ck, fn, n):
    """fn(n) timed with partition's per-N word table cache (if it has one) cleared first."""
    if hasattr(ck.partition, "_word_table"):
        ck.partition._word_table.cache_clear()
    return timed(fn, n)[1]


def algebra_peak_mb(ck, n):
    """The tracemalloc peak of a cold standard_quotient_algebra(n), in MB."""
    tracemalloc.start()
    try:
        cold_build(ck, ck.partition.standard_quotient_algebra, n)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run_dim(ck, n):
    """One repeat at dimension n: stage times and the worst reconstruction error."""
    qa, algebra_s = timed(ck.partition.standard_quotient_algebra, n)
    basis_s = timed(ck.partition.standard_basis, n)[1]
    built = {"algebra_s": algebra_s, "basis_s": basis_s,
             "basis_cold_s": cold_build(ck, ck.partition.standard_basis, n),
             "algebra_peak_mb": algebra_peak_mb(ck, n)}
    if n > 32:
        return built, 0.0
    build_s = timed(ck.partition.build_quotient_algebra, *build_inputs(ck, n))[1]
    _, closure_s = timed(ck.partition.verify_closure, qa)
    split = ck.cartan.build_cartan_split(qa, "0" * qa.p, validate=False)
    _, validate_s = timed(split.validate)
    verify_s, verify_splits_s = verify(ck, n)
    seq, sequence_s = timed(ck.cartan.build_decomposition_sequence, qa)
    fresh = [ck.cartan.build_decomposition_sequence(dataclasses.replace(qa)) for _ in range(PLANS)]
    plans = [timed(build_plan, ck, other)[1] for other in fresh]
    rng = np.random.default_rng(SEED + n)
    us = [ck._linalg.random_special_unitary(n, rng) for _ in range(UNITARIES + 1)]
    facts, seconds = zip(*(timed(ck.kak.recursive_decompose, u, seq) for u in us))
    to_json = [timed(lambda f: ck.serialize.dumps(ck.serialize.factorization_to_json(f)), f)[1]
               for f in facts[1:]]
    matrix_json = [timed(lambda m: ck.serialize.dumps(ck.serialize.matrix_to_json(m)), u)[1]
                   for u in us[1:]]
    qa_json = [timed(lambda: ck.serialize.dumps(ck.serialize.qa_to_json(qa)))[1]
               for _ in range(UNITARIES)]
    factors = [timed(getattr, f, "factors")[1] for f in facts[1:]]
    rebuilt = [timed(ck.kak.reconstruct, f, n)[1] for f in facts[1:]]
    decompose_ms = statistics.median(seconds[1:]) * 1e3
    single = [timed(ck.kak.kak_single_level, u, split)[1] for u in us[1:]]
    stages = {
        **built,
        "build_s": build_s,
        "closure_s": closure_s,
        "validate_s": validate_s,
        "verify_s": verify_s,
        "verify_splits_s": verify_splits_s,
        "sequence_s": sequence_s,
        "first_decompose_ms": seconds[0] * 1e3,
        "decompose_ms": decompose_ms,
        "plan_ms": statistics.median(plans) * 1e3,
        "factors_ms": statistics.median(factors) * 1e3,
        "to_json_ms": statistics.median(to_json) * 1e3,
        "matrix_json_ms": statistics.median(matrix_json) * 1e3,
        "qa_json_ms": statistics.median(qa_json) * 1e3,
        "reconstruct_ms": statistics.median(rebuilt) * 1e3,
        "single_level_ms": statistics.median(single) * 1e3,
        "cs_calls": cs_calls(ck, us[1], seq),
    }
    if n <= 16:
        stages["sequences_s"] = timed(build_every_sequence, ck, qa)[1]
        moved = ck.partition.conjugate_quotient_algebra(
            ck.partition.standard_quotient_algebra(n), ck._linalg.random_special_unitary(n, rng))
        stages["closure_moved_s"] = timed(ck.partition.verify_closure, moved)[1]
    if n <= 16 and n & (n - 1) == 0:
        center, basis = x_center(ck, n), ck.partition.standard_basis(n)
        qa_x, stages["algebra_x_s"] = timed(ck.partition.build_quotient_algebra, center, basis)
        stages["closure_x_s"] = timed(ck.partition.verify_closure, qa_x)[1]
        split_x = ck.cartan.build_cartan_split(qa_x, "0" * qa_x.p, validate=False)
        stages["validate_x_s"] = timed(split_x.validate)[1]
    return stages, max(f.reconstruction_error for f in facts)


def import_cartankak(src):
    """The cartankak package under src, with the modules this script reads."""
    sys.path.insert(0, src)
    import cartankak._linalg  # noqa: F401
    import cartankak.cartan  # noqa: F401
    import cartankak.generators  # noqa: F401
    import cartankak.kak  # noqa: F401
    import cartankak.partition  # noqa: F401
    import cartankak.serialize  # noqa: F401
    return sys.modules["cartankak"]


def run_process(src, args):
    """Stdout and wall time of a fresh interpreter run with args, importing cartankak from src."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if result.returncode:
        raise SystemExit(f"{' '.join(args)} exited {result.returncode}:\n{result.stderr}")
    return result.stdout, seconds


def decompose_args(src, tmp):
    """CLI arguments of `decompose --dim 4` on a seeded SU(4) input written into tmp."""
    ck, path = import_cartankak(src), Path(tmp) / "u4.json"
    u = ck._linalg.random_special_unitary(4, np.random.default_rng(SEED))
    path.write_text(json.dumps(ck.serialize.matrix_to_json(u)))
    return ["-m", "cartankak.cli", "decompose", "--dim", "4", "--input", str(path),
            "--output", str(Path(tmp) / "f4.json")]


def alternate(trees, turn):
    """The tree names in run order for this turn: the first one swaps every turn."""
    names = list(trees)
    return names if turn % 2 == 0 else names[::-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default=DEFAULT_DIMS)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--before-src", help="src/ of the checkout to compare against, timed "
                    "in the same run")
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)  # one dimension, one tree
    args = ap.parse_args(argv)

    if args.worker is not None:
        stages, err = run_dim(import_cartankak(args.src), args.worker)
        sys.stdout.write(json.dumps({"stages": stages, "error": err}))
        return

    trees = {"after": args.src}
    if args.before_src:
        trees = {"before": args.before_src, **trees}
    dims = [int(d) for d in args.dims.split(",")]
    runs = {name: {"import_s": [], "decompose_process_s": [], "error": 0.0,
                   "stages": {n: [] for n in dims}} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        cli_args = decompose_args(args.src, tmp)
        for r in range(args.repeats):
            for name in alternate(trees, r):
                runs[name]["import_s"].append(
                    run_process(trees[name], ["-c", "import cartankak.cli"])[1])
                runs[name]["decompose_process_s"].append(run_process(trees[name], cli_args)[1])
            for i, n in enumerate(dims):
                for name in alternate(trees, r + i):
                    out, _ = run_process(trees[name], [__file__, "--worker", str(n),
                                                       "--src", trees[name]])
                    child = json.loads(out)
                    runs[name]["stages"][n].append(child["stages"])
                    runs[name]["error"] = max(runs[name]["error"], child["error"])
                    print(f"repeat {r} N={n} {name}: " + ", ".join(
                        f"{k} {v:.4g}" for k, v in child["stages"].items()), file=sys.stderr)

    result = {}
    for name, run in runs.items():
        result[name] = {
            "machine": {"python": platform.python_version(), "numpy": np.__version__,
                        "cpus": os.cpu_count(), "blas_threads": 1},
            "dims": dims,
            "repeats": args.repeats,
            "unitaries": UNITARIES,
            "seed": SEED,
            "import_s": statistics.median(run["import_s"]),
            "decompose_process_s": statistics.median(run["decompose_process_s"]),
            "stages": {str(n): {k: statistics.median(s[k] for s in per)
                                for k in STAGES if k in per[0]}
                       for n, per in run["stages"].items()},
            "worst_reconstruction_error": run["error"],
        }
    sys.stdout.write(json.dumps(result if args.before_src else result["after"],
                                indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
