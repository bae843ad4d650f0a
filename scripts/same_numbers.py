"""Same numbers: run one fixed recipe in two checkouts and compare the outputs value by value.

    python scripts/same_numbers.py PARENT CHANGE   # two labo checkouts (each holds src/labo/cli.py)
    python scripts/same_numbers.py A B             # two output trees made earlier

Given two checkouts, the recipe runs in each, every command a fresh
interpreter with that checkout's `src` on PYTHONPATH, one BLAS thread, and
a working directory of its own under a temporary directory:

- `labo teacher`, then `labo train` in the five modes, on the blobs problem
  of configs/blobs_comparison.json at 600 steps (warm-up 150) and seeds 1, 2;
- `labo teacher`, then a `kd`/`none` `labo train`, on a 100-class CSV the
  script generates from a fixed seed;
- `labo verify --json`, full and `--quick`, at the default seed and at 0, 1, 7;
- `scripts/public_values.py`: every public per-instance function on one
  seeded set of inputs, and `labo smooth` on a grid of 5 logit vectors x
  tau in {0.5, 1, 1.25, 10} x rho in {0.5, 0.75, 1}, into one JSON file.

Each command's stdout is kept (`.json` for `--json`), its stderr if any,
and every exit code in `exit_codes.json`; the two trees are then compared.

Every file under A is paired with the file at the same relative path under B:

- `.csv` files cell by cell: two cells that parse as numbers compare by
  value, any other cells as text;
- `.json` files node by node: numbers by value, everything else exactly. A
  `labo verify --json` list (entries with exactly `name`, `passed`,
  `detail`, `seconds`) is compared with its `seconds` dropped;
- any other file (or a CSV/JSON file that does not parse) byte for byte.

A value's move is |a - b| / max(|a|, |b|); a differing text, a file on one
side only, a differing row, item or key count, or a non-finite number that
differs counts as an infinite move. Prints `identical` and exits 0 when
nothing moved. Otherwise prints one line per differing file, the file with
the largest move first, each naming its largest move by line and column
(CSV), JSON path or byte offset, and exits 1.

Usage: python scripts/same_numbers.py PARENT CHANGE | A B
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

VERIFY_KEYS = {"name", "passed", "detail", "seconds"}


def move(a: float, b: float) -> float:
    """Relative move from a to b: 0 when equal (NaN equals NaN), inf when either is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def csv_moves(a: bytes, b: bytes):
    """(move, where, a, b) of each differing cell of two CSV documents; the columns are named by a text header."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(data.decode()))) for data in (a, b))
    header = rows_a[0] if rows_a and all(_number(cell) is None for cell in rows_a[0]) else []
    if len(rows_a) != len(rows_b):
        yield math.inf, "line count", len(rows_a), len(rows_b)
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
        if len(row_a) != len(row_b):
            yield math.inf, f"line {line} cell count", len(row_a), len(row_b)
        for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
            if cell_a != cell_b:
                num_a, num_b = _number(cell_a), _number(cell_b)
                moved = math.inf if num_a is None or num_b is None else move(num_a, num_b)
                if moved:
                    yield moved, f"line {line}, column {header[col] if col < len(header) else col + 1}", cell_a, cell_b


def _without_seconds(doc):
    """`doc` without the `seconds` of each entry if it is a `labo verify --json` list."""
    if isinstance(doc, list) and doc and all(isinstance(e, dict) and e.keys() == VERIFY_KEYS for e in doc):
        return [{key: value for key, value in e.items() if key != "seconds"} for e in doc]
    return doc


def json_moves(a, b, where: str = "$"):
    """(move, where, a, b) of each differing node of two parsed JSON documents, `where` a JSON path."""
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        if moved := move(float(a), float(b)):
            yield moved, where, a, b
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            yield math.inf, f"{where} keys", sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
        for key in (k for k in a if k in b):
            yield from json_moves(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield math.inf, f"{where} length", len(a), len(b)
        for i, (item_a, item_b) in enumerate(zip(a, b)):
            yield from json_moves(item_a, item_b, f"{where}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield math.inf, where, a, b


def file_moves(path: Path, a: bytes, b: bytes):
    """(move, where, a, b) of each difference between two versions of the file `path`."""
    if a == b:
        return []
    try:
        if path.suffix == ".csv":
            return list(csv_moves(a, b))
        if path.suffix == ".json":
            return list(json_moves(*(_without_seconds(json.loads(data)) for data in (a, b))))
    except (ValueError, csv.Error):
        pass  # not parseable: compare the bytes
    offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return [(math.inf, f"byte {offset}", a[offset : offset + 16], b[offset : offset + 16])]


def compare(root_a: Path, root_b: Path) -> list[tuple[float, str]]:
    """One (largest move, report line) per differing file of the two trees, the largest move first."""
    files = {side: {p.relative_to(root): p for p in root.rglob("*") if p.is_file()}
             for side, root in (("A", root_a), ("B", root_b))}
    reports = []
    for rel in sorted(files["A"].keys() | files["B"].keys()):
        if rel not in files["A"] or rel not in files["B"]:
            reports.append((math.inf, f"{rel}: only in {'A' if rel in files['A'] else 'B'}"))
            continue
        moves = file_moves(rel, files["A"][rel].read_bytes(), files["B"][rel].read_bytes())
        if moves:
            moved, where, a, b = max(moves, key=lambda m: m[0])
            reports.append((moved, f"{rel}: {len(moves)} difference(s), largest relative move {moved:.3e} "
                                   f"at {where}: {a!r} vs {b!r}"))
    return sorted(reports, key=lambda r: -r[0])


# the blobs problem and training settings of configs/blobs_comparison.json, at 600 steps
BLOBS = {"kind": "blobs", "num_classes": 3, "per_class": 2000, "dim": 2, "std": 1.0, "seed": 7}
TRAIN = {"steps": 600, "warmup": 150, "batch_size": 128, "lr": 0.1, "eval_every": 200, "momentum": 0.9,
         "weight_decay": 0.0005, "beta_cp": 0.1,
         "smoothing": {"alpha_rule": "adaptive", "alpha": 0.1, "rho": 0.5, "tau": 1.25}}
WIDE_CLASSES, WIDE_DIM, WIDE_PER_CLASS = 100, 32, 50


def wide_csv() -> str:
    """A 100-class CSV, each class a unit Gaussian around its own mean, drawn from a fixed seed."""
    rng = random.Random(2023)
    means = [[rng.gauss(0.0, 0.8) for _ in range(WIDE_DIM)] for _ in range(WIDE_CLASSES)]
    lines = [",".join([f"x{i}" for i in range(WIDE_DIM)] + ["label"])]
    for i in range(WIDE_CLASSES * WIDE_PER_CLASS):
        k = i % WIDE_CLASSES
        lines.append(",".join(repr(m + rng.gauss(0.0, 1.0)) for m in means[k]) + f",{k}")
    return "\n".join(lines) + "\n"


def recipe() -> tuple[dict, list]:
    """The input files (name -> text) and the commands (name, interpreter argv) of the recipe, in order."""
    blobs = {"dataset": BLOBS, "hidden": [32], "train": TRAIN, "modes": ["none", "ls", "cp", "kd", "labo"],
             "seeds": [1, 2], "out_dir": "blobs", "teacher_checkpoint": "blobs-teacher/teacher.checkpoint.json"}
    wide = {"dataset": {"kind": "csv", "path": "wide.csv", "label_column": "label"}, "hidden": [64],
            "train": {**TRAIN, "steps": 200, "warmup": 0, "eval_every": 50}, "modes": ["kd", "none"], "seeds": [1],
            "out_dir": "wide", "teacher_checkpoint": "wide-teacher/teacher.checkpoint.json"}
    files = {"blobs.json": json.dumps(blobs, indent=1), "wide.json": json.dumps(wide, indent=1), "wide.csv": wide_csv()}
    labo = ["-m", "labo.cli"]
    commands = []
    for name in ("blobs", "wide"):
        commands.append((f"{name}-teacher",
                         [*labo, "teacher", "--config", f"{name}.json", "--out", f"{name}-teacher"]))
        commands.append((f"{name}-train", [*labo, "train", "--config", f"{name}.json"]))
    for seed in (None, 0, 1, 7):
        for quick in (False, True):
            argv = [*labo, "verify", "--json"] + ["--quick"] * quick + ([] if seed is None else ["--seed", str(seed)])
            commands.append((f"verify{'-quick' * quick}-seed-{'default' if seed is None else seed}", argv))
    commands.append(("public-values", [str(Path(__file__).resolve().with_name("public_values.py")), "public_values.json"]))
    return files, commands


def checkout_env(checkout: Path) -> dict:
    """The environment of a fresh interpreter that runs the labo of `checkout` on one BLAS thread."""
    env = {key: value for key, value in os.environ.items() if key != "LABO_OUT"}
    env.update(PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_recipe(checkout: Path, tree: Path) -> None:
    """Run the recipe with the labo of `checkout`, writing every output under `tree`."""
    env = checkout_env(checkout)
    files, commands = recipe()
    tree.mkdir(parents=True)
    for name, text in files.items():
        (tree / name).write_text(text)
    codes = {}
    for name, argv in commands:
        proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=600)
        (tree / f"{name}.stdout{'.json' if '--json' in argv else '.txt'}").write_text(proc.stdout)
        if proc.stderr:
            (tree / f"{name}.stderr.txt").write_text(proc.stderr)
        codes[name] = proc.returncode
    (tree / "exit_codes.json").write_text(json.dumps(codes, indent=1))


def is_checkout(path: Path) -> bool:
    return (path / "src" / "labo" / "cli.py").is_file()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in args]
    if all(is_checkout(root) for root in roots):
        with tempfile.TemporaryDirectory(prefix="same-numbers-") as tmp:
            trees = [Path(tmp, side) for side in ("A", "B")]
            for root, tree in zip(roots, trees):
                run_recipe(root, tree)
            reports = compare(*trees)
    else:
        reports = compare(*roots)
    print("\n".join(line for _, line in reports) if reports else "identical")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main())
