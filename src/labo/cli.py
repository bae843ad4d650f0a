"""Command-line entry point.

Subcommands:
    verify   run the numeric verification suite (exit 0 iff every check passes)
    train    run a (mode x seed) comparison from a JSON config, emit CSVs,
             checkpoints, and a mean +/- std accuracy summary
    teacher  train and save a teacher checkpoint for the kd mode
    smooth   inspect the smoothing pipeline for one logit vector
    hist     dump the predicted-class confidence histogram of a checkpoint

Exit codes: 0 success, 1 verification or run failure, 2 usage/config error.
The default output directory is `labo-out`, overridable by the LABO_OUT
environment variable, which is in turn overridden by --out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numerics
from .data import Dataset, gaussian_blobs, load_csv, load_idx
from .io import atomic_write_text, write_json
from .model import MlpModel, load_checkpoint, param_count, save_checkpoint
from .objectives import unified_objective
from .schema import DATASET_KINDS, DATASETS, EXPERIMENT, Config, check
from .smoothing import SmoothingConfig, build_label, labo_from_logits
from .train import TrainConfig, evaluate, run_training, shape_mismatch, train_teacher, write_reports_csv
from .verify import run_verification, VERIFY_SEED

__all__ = ["ExperimentConfig", "build_dataset", "main", "entrypoint"]


@dataclass(frozen=True)
class ExperimentConfig(Config, table=EXPERIMENT):
    """One comparison experiment: a dataset, a model, modes, and seeds."""

    dataset: dict
    hidden: list = field(default_factory=lambda: [32])
    train: TrainConfig = field(default_factory=TrainConfig)
    modes: list = field(default_factory=lambda: ["none", "ls", "labo"])
    seeds: list = field(default_factory=lambda: [1])
    out_dir: str | None = None
    teacher_checkpoint: str | None = None


def build_dataset(spec: dict) -> Dataset:
    """Check a `dataset` object against its kind's table, then load it; ValueError names the field."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    # an unknown kind fails the `kind` row of the table that checks it
    args = check(spec, DATASETS[kind if kind in DATASET_KINDS else "blobs"], "dataset")
    loader = {"blobs": gaussian_blobs, "csv": load_csv, "idx": load_idx}[args.pop("kind")]
    try:
        return loader(*args.values())
    except (OSError, ValueError) as e:
        raise ValueError(f"dataset: {e}") from None


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_verification(quick=args.quick, seed=args.seed)
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([asdict(r) for r in results], indent=1))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.seconds:6.2f}s  {r.detail}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def _load_experiment(path: str) -> tuple[ExperimentConfig, Dataset]:
    """Load a config and build its dataset; ValueError names the bad field."""
    try:
        with open(path) as f:
            cfg = ExperimentConfig.from_dict(json.load(f))
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}") from None
    except OSError as e:
        raise ValueError(f"cannot read config file {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"config parse error in {path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    data = build_dataset(cfg.dataset)
    for split in ("train", "val", "test"):
        if data.splits[split].size == 0:
            raise ValueError(f"dataset: split {split!r} is empty")
    n_train = data.splits["train"].size
    if cfg.train.batch_size > n_train:
        raise ValueError(f"train.batch_size {cfg.train.batch_size} exceeds the {n_train} rows of the training split")
    return cfg, data


def cmd_train(args) -> int:
    cfg, data, out_dir = args.cfg, args.data, args.out
    n_params = param_count([data.dim, *cfg.hidden, data.num_classes])
    try:  # else every run fails to allocate its parameter vector
        np.empty(n_params)
    except (MemoryError, ValueError):
        return _fail(f"hidden {cfg.hidden} needs {n_params} parameters, more than can be allocated", 2)
    teacher = None
    if "kd" in cfg.modes:
        path = cfg.teacher_checkpoint
        if not path:
            return _fail("kd mode requires teacher_checkpoint in the config", 2)
        try:
            teacher = load_checkpoint(path)
        except (OSError, ValueError) as e:
            return _fail(f"teacher_checkpoint: {e}", 2)
        mismatch = shape_mismatch(f"teacher_checkpoint {path}", teacher, data)
        if mismatch:
            return _fail(mismatch, 2)
    os.makedirs(out_dir, exist_ok=True)

    summary: dict = {}
    any_failure = False
    for mode in cfg.modes:
        accs, confs, failures = [], [], []
        for seed in cfg.seeds:
            run_name = f"{mode}_seed{seed}"
            try:
                run_cfg = replace(cfg.train, mode=mode, seed=seed)
                model = MlpModel([data.dim, *cfg.hidden, data.num_classes], seed=seed)
                best, reports = run_training(model, data, run_cfg, teacher=teacher)
                write_reports_csv(reports, os.path.join(out_dir, f"{run_name}.csv"))
                save_checkpoint(best, os.path.join(out_dir, f"{run_name}.checkpoint.json"))
                ev = evaluate(best, data, split="test")
                accs.append(ev.accuracy)
                confs.append(ev.mean_confidence)
                print(f"{run_name}: test_acc={ev.accuracy:.4f} mean_conf={ev.mean_confidence:.4f}")
            except Exception as e:  # noqa: BLE001 - keep remaining runs alive
                any_failure = True
                failures.append({"seed": seed, "error": f"{type(e).__name__}: {e}"})
                print(f"{run_name}: FAILED ({e})", file=sys.stderr)
        summary[mode] = {
            "test_acc": accs,
            "mean_acc": float(np.mean(accs)) if accs else None,
            "std_acc": float(np.std(accs)) if accs else None,
            "mean_confidence": float(np.mean(confs)) if confs else None,
            "failures": failures,
        }

    write_json(os.path.join(out_dir, "summary.json"), summary)
    lines = [f"{'mode':<8} test accuracy (mean +/- std over {len(cfg.seeds)} seeds)"]
    for mode, row in summary.items():
        if row["mean_acc"] is None:
            lines.append(f"{mode:<8} all runs failed")
        else:
            lines.append(f"{mode:<8} {100 * row['mean_acc']:.2f} +/- {100 * row['std_acc']:.2f}")
    table = "\n".join(lines)
    atomic_write_text(os.path.join(out_dir, "summary.txt"), table + "\n")
    print(table)
    return 1 if any_failure else 0


def cmd_teacher(args) -> int:
    cfg, data = args.cfg, args.data
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    path = os.path.join(args.out, "teacher.checkpoint.json")
    teacher_cfg = replace(cfg.train, seed=seed)
    try:
        best, _ = train_teacher(data, teacher_cfg, checkpoint_path=path)
    except (FloatingPointError, OSError) as e:
        return _fail(f"teacher run failed: {type(e).__name__}: {e}", 1)
    ev = evaluate(best, data, split="test")
    print(f"teacher saved to {path} (test_acc={ev.accuracy:.4f})")
    return 0


def cmd_smooth(args) -> int:
    try:
        z = np.array([float(v) for v in args.logits.split(",")], dtype=np.float64)
        if z.size < 2:
            raise ValueError("need at least two logits")
    except ValueError as e:
        return _fail(f"bad --logits value {args.logits!r}: {e}", 2)
    if not 0 <= args.k < z.size:
        return _fail(f"--k {args.k} out of range for {z.size} logits", 2)
    try:  # the flags go through the rows of train.smoothing
        cfg = SmoothingConfig(alpha=SmoothingConfig.alpha if args.alpha is None else args.alpha, rho=args.rho,
                              tau=args.tau)
    except ValueError as e:
        return _fail(f"--{e}", 2)
    try:  # the label and alpha training builds: adaptive, and fixed when --alpha is given
        p = numerics.softmax(z)
        p_star = labo_from_logits(z, args.tau)
        adaptive = build_label(args.k, z, "labo", replace(cfg, alpha_rule="adaptive"))
        label = adaptive if args.alpha is None else build_label(args.k, z, "labo", cfg)
        breakdown = unified_objective(args.k, z, p_star, label.alpha_used, label.alpha_used * args.tau)
    except ValueError as e:
        return _fail(str(e), 2)
    doc = {
        "logits": z.tolist(),
        "target": args.k,
        "tau": args.tau,
        "model_dist": p.tolist(),
        "optimal_smoothing": p_star.tolist(),
        "adaptive_alpha": {"rho": args.rho, "value": adaptive.alpha_used},
        "alpha_used": label.alpha_used,
        "label": label.dist.tolist(),
        "objective": {
            "ce_term": breakdown.ce_term,
            "kl_term": breakdown.kl_term,
            "total": breakdown.total,
        },
    }
    print(json.dumps(doc, indent=1))
    return 0


def cmd_hist(args) -> int:
    data, out_dir = args.data, args.out
    try:
        model = load_checkpoint(args.checkpoint)
    except (OSError, ValueError) as e:
        return _fail(f"--checkpoint: {e}", 2)
    mismatch = shape_mismatch("checkpoint", model, data)
    if mismatch:
        return _fail(mismatch, 2)
    ev = evaluate(model, data, split=args.split)
    hist_doc = {
        "split": args.split,
        "accuracy": ev.accuracy,
        "mean_confidence": ev.mean_confidence,
        "mean_entropy": ev.mean_entropy,
        "histogram": ev.histogram.to_dict(),
    }
    write_json(os.path.join(out_dir, "hist.json"), hist_doc)
    edges = ev.histogram.edges
    centers = (edges[:-1] + edges[1:]) / 2.0
    lines = [f"{float(c)!r} {int(n)}" for c, n in zip(centers, ev.histogram.counts)]
    atomic_write_text(os.path.join(out_dir, "hist.dat"), "\n".join(lines) + "\n")
    print(
        f"wrote {os.path.join(out_dir, 'hist.json')} and hist.dat "
        f"(acc={ev.accuracy:.4f}, mean_conf={ev.mean_confidence:.4f})"
    )
    return 0


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labo", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the numeric verification suite")
    p.add_argument("--quick", action="store_true", help="smaller sweeps (about 10x faster)")
    p.add_argument("--seed", type=non_negative_int, default=VERIFY_SEED)
    p.add_argument("--json", action="store_true", help="print each check's name, passed, detail and seconds as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="run a mode x seed comparison from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (default: config out_dir, $LABO_OUT, labo-out)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("teacher", help="train and save a teacher checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=non_negative_int, default=None)
    p.set_defaults(fn=cmd_teacher)

    p = sub.add_parser("smooth", help="inspect smoothing for one logit vector")
    p.add_argument("--logits", required=True, help="comma separated, e.g. 2,1,0")
    p.add_argument("--k", type=int, default=0, help="ground-truth class index")
    p.add_argument("--tau", type=float, default=1.25)
    p.add_argument("--alpha", type=float, default=None, help="fixed mixing weight (default: adaptive)")
    p.add_argument("--rho", type=float, default=0.5)
    p.set_defaults(fn=cmd_smooth)

    p = sub.add_parser("hist", help="confidence histogram of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True, help="config providing the dataset")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_hist)
    return parser


# glibc malloc.h: mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _fix_heap_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds for the rest of the process.

    glibc raises both with the largest block freed so far, so whether the
    100 KiB-4 MiB numpy temporaries of a step are reused from the heap, or
    unmapped or trimmed and faulted in again on every allocation, depends on
    the heap layout that earlier calls in the process left behind. Fixed
    thresholds (the dynamic ones a 4 MiB block would set) keep them on the
    heap whatever that layout is. No-op where there is no glibc `mallopt`.
    perfbench's `SpeedProbe` runs in this process and relies on it: without
    it, verify-full's probe median read 1.18-1.22, not 0.69-0.81 (3 runs of
    10 s, 2-core Xeon, numpy 2.4.6), so its round figures would read about
    1.5x better with labo's own speed unchanged.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 8 << 20)


def main(argv=None) -> int:
    _fix_heap_thresholds()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if "config" in vars(args):  # train, teacher and hist: one path loads the config, its dataset and out dir
        try:
            args.cfg, args.data = _load_experiment(args.config)
        except ValueError as e:
            return _fail(str(e), 2)
        args.out = args.out or args.cfg.out_dir or os.environ.get("LABO_OUT") or "labo-out"
    return args.fn(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
