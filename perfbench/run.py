"""labo benchmark: training steps/s per mode, the comparison table, and `labo verify`.

    python3 perfbench/run.py --workload blobs-k3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from anywhere inside a labo checkout; it imports labo from the
checkout's `src`, pins BLAS to one thread, and writes only under
`.perfbench-out/` at the checkout root. It repeats whole rounds (see
workloads.py) for about `--seconds` seconds and checks every output. The
last line of stdout is one JSON object: `correct`, `attempted`, `failed`
(operations: one (mode, seed) training run, or one verify check) and
`metrics`, the end-to-end metrics with `--trace 0` and the per-layer ones
with `--trace 1`. Exit code 1 if a workload cannot run or a check fails,
2 on bad usage or when there is no labo source to run.
"""

import os
import sys

# before numpy is imported here or in any child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
from checks import MODES  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

END_TO_END = {
    "setup_s": "s",
    **{f"steps_per_s.{mode}": "steps/s" for mode in MODES},
    "table_s": "s",
    "verify_s": "s",
    "peak_rss_mib": "MiB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("blobs-k3", "wide-k100", "verify-full"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="show every output check failing on a wrong input")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "labo", "cli.py")):
        print(f"error: no labo sources at {SRC}; run this inside a labo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.self_test:
        return self_test()

    import workloads

    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        bench = workloads.Bench(workloads.WORKLOADS[args.workload], args.seed, out_dir)
        setup_times = bench.setup()
        if args.trace:
            rounds, metrics = traced_rounds(bench, args.seconds, args.workload)
        else:
            rounds = timed_rounds(bench, args.seconds)
            metrics = end_to_end(bench, rounds, setup_times)
    except workloads.BenchError as e:
        print(f"error: {args.workload}: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    speeds = sorted(bench.probe.speeds)
    print(f"machine speed (probe time / {workloads.PROBE_NOMINAL_S} s): median {statistics.median(speeds):.3f}, "
          f"range {speeds[0]:.3f}-{speeds[-1]:.3f} over {len(speeds)} calls", file=sys.stderr)
    problems = bench.data_problems + [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    failed = sum(r.failed for r in rounds)
    correct = not problems
    units = tracing.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _until(seconds: float, run_one, minimum: int = 1) -> list:
    """Call `run_one(k)` for whole rounds while the next one fits in `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(run_one(len(results)))
        last = time.perf_counter() - began
        if len(results) >= minimum and time.perf_counter() - start + last > seconds:
            return results


def timed_rounds(bench, seconds: float) -> list:
    return _until(seconds, lambda k: bench.run_round())


def end_to_end(bench, rounds, setup_times) -> dict:
    steps = bench.t.steps * bench.t.seeds_per_mode
    metrics = {"setup_s": statistics.median(setup_times)}
    for mode in MODES:
        metrics[f"steps_per_s.{mode}"] = statistics.median(steps / r.train_s[mode] for r in rounds)
    metrics["table_s"] = statistics.median(sum(r.train_s.values()) for r in rounds)
    metrics["verify_s"] = statistics.median(s for r in rounds for s in r.verify_s)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def traced_rounds(bench, seconds: float, workload: str):
    """Alternate untraced and traced rounds; per-layer medians over the traced ones.

    Round 0 is an untraced warm-up that pays first-call costs and is left out
    of the overhead, which compares the later untraced and traced rounds.
    """
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    per_round = []

    def run_one(k):
        traced = k % 2 == 1
        if traced:
            tracer.reset()
            patched = tracing.install(tracer)
        began = time.perf_counter()
        try:
            result = bench.run_round()
        finally:
            if traced:
                tracing.uninstall(patched)
        if k > 0:
            walls[traced].append(time.perf_counter() - began)
        if traced:
            per_round.append(tracing.layer_metrics(tracer))
        return result

    rounds = _until(seconds, run_one, minimum=3)
    tracer.write(os.path.join(OUT, f"spans-{workload}.tsv"))
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return rounds, metrics


def self_test() -> int:
    import checks

    bad = checks.self_test()
    for line in bad:
        print(f"self-test: {line}", file=sys.stderr)
    print("self-test: every check passed its right input and failed its wrong one" if not bad else "self-test FAILED")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
