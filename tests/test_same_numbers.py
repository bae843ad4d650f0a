"""`scripts/same_numbers.py`: two output trees compared value by value."""

import importlib.util
import inspect
import json
import os

import numpy as np
import pytest

import labo

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


FAKE_CLI = '''"""A stand-in for labo's CLI: writes what the recipe reads, with `LOSS` as the one number."""
import json
import os
import sys
import time

LOSS = {loss!r}


def main(argv):
    if argv[0] == "verify":
        print(json.dumps([{{"name": "cp-gradient", "passed": True, "detail": str(argv), "seconds": time.perf_counter()}}]))
        return 0
    if argv[0] == "smooth":
        print(json.dumps({{"argv": argv}}))
        return 0
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
    else:
        with open(argv[argv.index("--config") + 1]) as f:
            out = json.load(f)["out_dir"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "none_seed1.csv"), "w") as f:
        f.write(f"step,train_loss\\n200,{{LOSS!r}}\\n")
    print(argv[0], "done")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
'''


def fake_checkout(root, loss):
    """A directory laid out like a labo checkout whose `labo.cli` is `FAKE_CLI`."""
    package = root / "src" / "labo"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(loss=loss))
    return str(root)


def test_recipe_runs_each_checkouts_own_code(same_numbers, tmp_path, capsys):
    """Every recipe command runs in a fresh interpreter on its own checkout's src: the
    one number the two fake CLIs write differently is the one difference named."""
    loss = 0.30000000000000004
    parent = fake_checkout(tmp_path / "parent", loss)
    change = fake_checkout(tmp_path / "change", float(np.nextafter(loss, 1.0)))
    assert same_numbers.main([parent, change]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # the blobs and wide train and teacher outputs; verify differs only in seconds
    assert all(" 1 difference(s), largest relative move 1.850e-16 at line 2, column train_loss" in line for line in lines)
    assert sorted(line.split(":")[0] for line in lines) == [
        "blobs-teacher/none_seed1.csv", "blobs/none_seed1.csv", "wide-teacher/none_seed1.csv", "wide/none_seed1.csv"]


def test_public_values_call_every_public_per_instance_function():
    """`scripts/public_values.py` covers each public function of `labo` that acts on one instance, and
    every one of its calls and `labo smooth` grid points succeeds on the current code."""
    path = os.path.join(REPO_ROOT, "scripts", "public_values.py")
    spec = importlib.util.spec_from_file_location("public_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    functions = {name for name, value in vars(labo).items() if inspect.isfunction(value)}
    assert functions == (module.CALLS.keys() - {"cp_grad_wrt_logits"}) | module.NOT_PER_INSTANCE
    doc = module.values()
    assert doc["instances"].keys() == {f"K={k}" for k in (2, 3, 7, 8, 10)} | {"K=3 teacher=0.7,0.3,0.0",
                                                                                "K=3 teacher=0.0,1.0,0.0"}
    assert doc["calls"].keys() == module.CALLS.keys()
    assert all(by_k.keys() == doc["instances"].keys() for by_k in doc["calls"].values())
    raised = [(name, k) for name, by_k in doc["calls"].items() for k, result in by_k.items() if "value" not in result]
    assert raised == []
    assert len(doc["smooth"]) == 60 and all(entry["exit"] == 0 for entry in doc["smooth"].values())
