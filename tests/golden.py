"""The 50-digit golden table `goldens.json`, with its inputs as float64 arrays.

`scripts/derive_test_constants.py` writes the table and documents its
layout. A float64 result `got` matches a golden value `want` when

    |got - want| <= max(RTOL * |want|, FLOORS.get(quantity, 0.0))

RTOL is the bound wherever float64 can meet it. Each floor is an absolute
error that float64 cannot avoid on some rows of the table, for the reason
given next to it.
"""

from __future__ import annotations

import json
import os

import numpy as np

with open(os.path.join(os.path.dirname(__file__), "goldens.json")) as f:
    TABLE = json.load(f)

RTOL = 1e-12
EPS = np.finfo(float).eps
FLOORS = {  # quantity -> absolute floor; a quantity not named here has none
    # (log K - rho * H(p)) / log K subtracts two numbers near log K on a near-uniform output, where the
    # golden alpha of rho = 1 is 0: up to 1.7 eps seen (K = 1000)
    "alpha": 4 * EPS,
    # alpha * p_ls inherits alpha's rounding
    "label": 4 * EPS,
    # p - label cancels two entries of at most 1 that round apart (p = 1/8 against 1/8)
    "grad": EPS,
    # log p at the arg-max is -log(sum(exp(z - max))), and that sum rounds to 1 once the other classes
    # are below eps/2 (range 700: -9.9e-305 reads 0)
    "logp": EPS,
    # the same at the target's CE term, and cp's CE - beta_cp * H(p) on a uniform output cancels two
    # terms near log K (6.9 at K = 1000): up to 20 eps seen
    "loss": 32 * EPS,
    "ce_term": EPS,
}


def logits(name: str):
    """(z, k, pinned) of a named logit vector: the float64 logits, the target class and the stored classes."""
    spec = TABLE["logits"][name]
    if "z" in spec:
        z = np.array(spec["z"], dtype=np.float64)
    elif "fill" in spec:
        z = np.full(spec["K"], spec["fill"])
    else:
        z = ((np.arange(spec["K"]) * spec["stride"]) % spec["K"]) * (spec["span"] / (spec["K"] - 1))
    return z, spec["k"], spec["pinned"]


def probs(name: str) -> np.ndarray:
    """A named probability vector w / sum(w), in float64."""
    spec = TABLE["probs"][name]
    if "w" in spec:
        w = np.array(spec["w"])
    elif "hot" in spec:
        w = (np.arange(spec["K"]) == spec["hot"]).astype(np.int64)
    else:
        w = spec["add"] + (np.arange(spec["K"]) * spec["stride"]) % spec["mod"]
    return w / w.sum()


def rows(fn: str, **match) -> list:
    """The rows of `fn` whose inputs equal `match`."""
    return [r for r in TABLE["rows"] if r["fn"] == fn and all(r.get(key) == v for key, v in match.items())]


def value(fn: str, quantity: str, **match):
    """The one golden `quantity` of `fn` at the inputs `match`: a float, or an array of the stored classes."""
    (row,) = rows(fn, **match)
    out = row["out"][quantity]
    return np.array(out, dtype=np.float64) if isinstance(out, list) else float(out)


def mismatches(got, want, quantity: str, where: str) -> list:
    """A line for each entry of `got` that misses its golden value in `want`, naming `where`."""
    got, want = np.atleast_1d(np.asarray(got, dtype=np.float64)), np.atleast_1d(np.asarray(want, dtype=np.float64))
    bound = np.maximum(RTOL * np.abs(want), FLOORS.get(quantity, 0.0))
    bad = ~(np.abs(got - want) <= bound)  # nan fails
    return [f"{where} {quantity}[{i}]: got {got[i]!r}, golden {want[i]!r}" for i in np.flatnonzero(bad)]
