"""One set-up, run in a fresh interpreter and timed from outside by run.py.

    python3 perfbench/setup_probe.py CONFIG TEACHER_DIR

Imports labo from the checkout's `src` and runs `labo teacher`, which builds
or loads the dataset and trains the kd teacher. Exits with its exit code.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import labo.cli  # noqa: E402

if __name__ == "__main__":
    config, teacher_dir = sys.argv[1:]
    sys.exit(labo.cli.main(["teacher", "--config", config, "--out", teacher_dir]))
