"""`scripts/same_numbers.py`: two output trees compared value by value."""

import importlib.util
import json
import os

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def same_numbers():
    spec = importlib.util.spec_from_file_location("same_numbers", os.path.join(REPO_ROOT, "scripts", "same_numbers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root, loss=0.30000000000000004, seconds=0.25, table="none  92.43 +/- 0.17\n"):
    """A small `labo train`/`labo verify --json` output tree with one metrics CSV."""
    root.mkdir()
    (root / "none_seed1.csv").write_text(
        "step,train_loss,val_acc\n" f"200,{loss!r},0.9\n" "400,0.25,0.95\n"
    )
    (root / "verify.json").write_text(
        json.dumps([{"name": "cp-gradient", "passed": True, "detail": "100 instances", "seconds": seconds}])
    )
    (root / "summary.json").write_text(json.dumps({"none": {"test_acc": [0.92, 0.93], "failures": []}}))
    (root / "summary.txt").write_text(table)
    return str(root)


def test_trees_that_differ_only_in_verify_seconds_are_identical(same_numbers, tmp_path, capsys):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b", seconds=0.5)
    assert same_numbers.main([a, b]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_one_ulp_in_one_csv_cell_is_named(same_numbers, tmp_path, capsys):
    loss = 0.30000000000000004
    a, b = write_tree(tmp_path / "a", loss), write_tree(tmp_path / "b", float(np.nextafter(loss, 1.0)))
    assert same_numbers.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("none_seed1.csv: 1 difference(s), largest relative move 1.850e-16 at line 2, column train_loss")


def test_every_differing_file_is_listed_largest_move_first(same_numbers, tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", loss=0.3, table="none  92.44 +/- 0.17\n")
    (tmp_path / "b" / "summary.json").write_text(json.dumps({"none": {"test_acc": [0.92, 0.9300001], "failures": []}}))
    (tmp_path / "b" / "extra.txt").write_text("")
    assert same_numbers.main([a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines[:2]) == [
        "extra.txt: only in B",
        r"summary.txt: 1 difference(s), largest relative move inf at byte 10: b'3 +/- 0.17\n' vs b'4 +/- 0.17\n'",
    ]
    assert lines[2].startswith("summary.json: 1 difference(s), largest relative move 1.075e-07 at $.none.test_acc[1]")
    assert lines[3].startswith("none_seed1.csv: 1 difference(s)")
