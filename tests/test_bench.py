"""`scripts/bench.py`: the keys of the BENCH_<label>.json it writes, on a tiny run (no timing is checked)."""

import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tiny_run_writes_every_figure_for_both_sides(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", os.path.join(REPO_ROOT, "scripts", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    monkeypatch.setattr(bench, "SHAPES", {"tiny": {"num_classes": 3, "dim": 2, "per_class": 100, "hidden": 4,
                                                   "steps": 3}})
    monkeypatch.setattr(bench, "SETUP_WORKLOADS", ("blobs-k3",))
    monkeypatch.chdir(tmp_path)
    assert bench.main([REPO_ROOT, REPO_ROOT, "--label", "smoke", "--rounds", "1"]) == 0

    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert report.keys() == {"label", "machine", "method", "checkouts", "run_training_us_per_step", "setup_probe_s"}
    assert report["machine"].keys() == {"platform", "cpu", "cpu_count", "python", "blas_threads"}
    assert report["checkouts"]["parent"] == report["checkouts"]["change"]
    figures = [*report["run_training_us_per_step"]["tiny"].values(), report["setup_probe_s"]["blobs-k3"]]
    assert list(report["run_training_us_per_step"]["tiny"]) == ["none", "ls", "cp", "kd", "labo"]
    for figure in figures:
        assert figure.keys() == {"parent", "change", "ratio"}
        for side in ("parent", "change"):
            assert figure[side].keys() == {"median", "q1", "q3", "runs"} and len(figure[side]["runs"]) == 1
