#!/usr/bin/env python3
"""Confidence-distribution shift between one-hot and smoothed training.

Trains a one-hot model and a two-stage model on the same blobs, then emits
both predicted-class confidence histograms as plot-data files (bin-center,
count per line) plus a side-by-side text rendering, mirroring the usual
overconfidence analysis: one-hot training piles mass near 1.0 while the
smoothed run concentrates at much lower confidence.

Usage:
    python scripts/confidence_shift.py [--out DIR]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from labo.data import gaussian_blobs  # noqa: E402
from labo.io import atomic_write_text  # noqa: E402
from labo.model import MlpModel  # noqa: E402
from labo.smoothing import SmoothingConfig  # noqa: E402
from labo.train import TrainConfig, evaluate, run_training  # noqa: E402


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/confidence-shift")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    data = gaussian_blobs(3, 2000, dim=2, std=1.0, seed=7)
    hists = {}
    for mode, warmup in [("none", 0), ("labo", 500)]:
        cfg = TrainConfig(
            steps=4000,
            warmup=warmup,
            batch_size=128,
            lr=0.1,
            seed=args.seed,
            mode=mode,
            smoothing=SmoothingConfig(alpha_rule="adaptive", rho=0.5, tau=1.25),
            eval_every=200,
        )
        model = MlpModel([2, 32, 3], seed=args.seed)
        best, _ = run_training(model, data, cfg)
        ev = evaluate(best, data, split="test")
        hists[mode] = ev
        centers = (ev.histogram.edges[:-1] + ev.histogram.edges[1:]) / 2
        lines = [f"{float(c)!r} {int(n)}" for c, n in zip(centers, ev.histogram.counts)]
        atomic_write_text(os.path.join(args.out, f"hist_{mode}.dat"), "\n".join(lines) + "\n")
        print(f"{mode}: acc={ev.accuracy:.4f} mean_confidence={ev.mean_confidence:.4f}")

    scale = max(int(c) for ev in hists.values() for c in ev.histogram.counts)
    print(f"\n{'bin':>11}  {'one-hot':<30} {'smoothed':<30}")
    edges = hists["none"].histogram.edges
    for i in range(20):
        bars = [
            "#" * int(30 * ev.histogram.counts[i] / scale) for ev in (hists["none"], hists["labo"])
        ]
        print(f"{edges[i]:.2f}-{edges[i + 1]:.2f}  {bars[0]:<30} {bars[1]:<30}")
    print(f"\nplot data written to {args.out}/hist_none.dat and hist_labo.dat")
    return 0


if __name__ == "__main__":
    sys.exit(run())
