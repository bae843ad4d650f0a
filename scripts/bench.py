"""Speed of two labo checkouts, measured side by side into one BENCH_<label>.json.

    python scripts/bench.py PARENT CHANGE --label L [--rounds 7]

Each round measures both checkouts, the one first that went second in the
round before. Every measurement is a fresh interpreter with that checkout's
`src` on PYTHONPATH and one BLAS thread (`same_numbers.checkout_env`):

- `measure_steps`: `run_training` in each mode on each shape of `SHAPES`,
  after one untimed short run per mode. A figure is the run's wall time over
  its steps, so it includes building the step's arrays (and the kd teacher
  table from an untrained 64-wide teacher) and the one evaluation at the
  end. `labo` trains with adaptive alpha, rho = 0.5 and tau = 1.25, and no
  warm-up.
- the checkout's own `perfbench/setup_probe.py` on the kd config of each
  `perfbench` workload (seed 1), timed from outside and not scaled by
  `perfbench`'s speed probe. As in `perfbench`, each side's set-ups of one
  workload share a teacher directory, so from the second round on a set-up
  rewrites the teacher checkpoint.

BENCH_<label>.json, written in the current directory, holds the machine, the
method, a sha256 of each side's `src/labo`, and for every figure each side's
median, quartiles and runs in round order, and the change/parent ratio of
the medians. Alternating `perfbench` pairs are not run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from same_numbers import checkout_env, is_checkout  # noqa: E402

MODES = ("none", "ls", "cp", "kd", "labo")
SHAPES = {  # gaussian_blobs data; hidden is the model's one hidden layer; batch 128
    "blobs": {"num_classes": 3, "dim": 2, "per_class": 2000, "hidden": 32, "steps": 2000},
    "wide": {"num_classes": 100, "dim": 64, "per_class": 60, "hidden": 256, "steps": 200},
}
SETUP_WORKLOADS = ("blobs-k3", "wide-k100", "verify-full")
PERFBENCH_SEED = 1

# run in a fresh interpreter with the checkout's src first on the path; prints one JSON line
STEPS_CODE = ("import sys, json; sys.path.insert(0, sys.argv[1]); import bench; "
                "bench.measure_steps(json.loads(sys.argv[2]))")
PREPARE_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
configs = {name: workloads.Bench(workloads.WORKLOADS[name], int(sys.argv[2]), f"{sys.argv[3]}/{name}").configs["kd"]
           for name in sys.argv[4:]}
print(json.dumps(configs))
"""


def measure_steps(shapes: dict) -> None:
    """Print {shape: {mode: µs per step}} of `run_training` with the labo on the path, as one JSON line."""
    import numpy as np
    from labo.data import gaussian_blobs
    from labo.model import MlpModel
    from labo.smoothing import SmoothingConfig
    from labo.train import TrainConfig, run_training

    smoothing = SmoothingConfig(alpha_rule="adaptive", alpha=0.1, rho=0.5, tau=1.25)
    result = {"numpy": np.__version__}
    for name, s in shapes.items():
        data = gaussian_blobs(s["num_classes"], s["per_class"], dim=s["dim"], std=1.0, seed=7)
        sizes = [s["dim"], s["hidden"], s["num_classes"]]
        teacher = MlpModel([s["dim"], 64, s["num_classes"]], seed=99)

        def run(mode, steps):
            cfg = TrainConfig(steps=steps, warmup=0, batch_size=128, lr=0.1, seed=1, mode=mode,
                              smoothing=smoothing, eval_every=steps, beta_cp=0.1)
            model = MlpModel(sizes, seed=5)
            start = time.perf_counter()
            run_training(model, data, cfg, teacher=teacher)
            return time.perf_counter() - start

        for mode in MODES:
            run(mode, 20)
        result[name] = {mode: run(mode, s["steps"]) / s["steps"] * 1e6 for mode in MODES}
    print(json.dumps(result))


def stats(runs: list) -> dict:
    """Median and quartiles (inclusive method) of `runs`, with the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def src_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "labo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "blas_threads": 1}


def _run(argv: list, env: dict, what: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def bench(roots: dict, rounds: int, work: Path) -> dict:
    """Run `rounds` alternating rounds on the checkouts `roots` (side -> path); return the report."""
    envs = {side: checkout_env(root) for side, root in roots.items()}
    scripts = os.path.dirname(os.path.abspath(__file__))
    prepared = _run([sys.executable, "-c", PREPARE_CODE, str(roots["change"] / "perfbench"), str(PERFBENCH_SEED),
                     str(work), *SETUP_WORKLOADS], envs["change"], "preparing the perfbench configs")
    configs = json.loads(prepared.stdout.strip().splitlines()[-1])
    steps = {side: [] for side in roots}
    setup = {name: {side: [] for side in roots} for name in SETUP_WORKLOADS}
    numpy_version = {}
    for r in range(rounds):
        order = list(roots) if r % 2 == 0 else list(roots)[::-1]
        for side in order:
            proc = _run([sys.executable, "-c", STEPS_CODE, scripts, json.dumps(SHAPES)], envs[side],
                        f"{side} run_training")
            steps[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            numpy_version[side] = steps[side][-1].pop("numpy")
        for name in SETUP_WORKLOADS:
            for side in order:
                argv = [sys.executable, str(roots[side] / "perfbench" / "setup_probe.py"), configs[name],
                        str(work / f"teacher-{side}-{name}")]
                start = time.perf_counter()
                _run(argv, envs[side], f"{side} set-up of {name}")
                setup[name][side].append(time.perf_counter() - start)

    def pair(runs_by_side: dict) -> dict:
        out = {side: stats(runs) for side, runs in runs_by_side.items()}
        out["ratio"] = out["change"]["median"] / out["parent"]["median"]
        return out

    return {
        "machine": machine(),
        "method": {"rounds": rounds, "shapes": SHAPES, "batch_size": 128, "modes": list(MODES),
                   "setup_workloads": list(SETUP_WORKLOADS), "perfbench_seed": PERFBENCH_SEED},
        "checkouts": {side: {"src_sha256": src_digest(root), "numpy": numpy_version[side]}
                      for side, root in roots.items()},
        "run_training_us_per_step": {
            shape: {mode: pair({side: [run[shape][mode] for run in steps[side]] for side in roots})
                    for mode in MODES}
            for shape in SHAPES},
        "setup_probe_s": {name: pair(setup[name]) for name in SETUP_WORKLOADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if not all(is_checkout(root) for root in roots.values()) or args.rounds < 1:
        parser.error("PARENT and CHANGE must be labo checkouts (holding src/labo/cli.py), and --rounds >= 1")
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        report = {"label": args.label, **bench(roots, args.rounds, Path(tmp))}
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    for shape, modes in report["run_training_us_per_step"].items():
        print(shape, " ".join(f"{mode} {m['parent']['median']:.1f}->{m['change']['median']:.1f}"
                              for mode, m in modes.items()))
    for name, m in report["setup_probe_s"].items():
        print(f"setup {name} {m['parent']['median']:.3f}->{m['change']['median']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
