"""One field table per config, dataset and checkpoint document, and one checker.

Types: `int` (not a bool), `float` (at most `sys.float_info.max` in magnitude;
integers count), `str`, `str | None`, `dict` (any object), a nested table, or
`[T]`, a list whose range and choices hold for each entry. `[float]` and
`[[float]]` rows (a checkpoint's weights and biases) take neither and come back
as float64 arrays. `check` raises ValueError naming the first bad field by its
full path, e.g. `train.smoothing.tau must be a finite number, got inf`. Rules
that read several fields or the data stay with the code that uses them.
"""

import numbers
import reprlib
import sys
from typing import NamedTuple

import numpy as np

__all__ = ["Field", "Config", "check", "REQUIRED", "SMOOTHING", "TRAIN", "EXPERIMENT", "DATASETS", "CHECKPOINT"]

MODES = ("none", "ls", "kd", "labo")
TRAIN_MODES = MODES + ("cp",)  # cp, the confidence penalty, trains on one-hot labels
ALPHA_RULES = ("fixed", "adaptive")
DATASET_KINDS = ("blobs", "csv", "idx")
CHECKPOINT_FORMAT = "labo-mlp-checkpoint-v1"
REQUIRED = object()  # a default: the document must give the field


class Field(NamedTuple):
    type: object
    range: str | None = None  # "positive", ">= x", "[a, b]" or "[a, b)"
    choices: tuple | None = None
    default: object = None  # filled in when the field is absent; None leaves it to the reader
    distinct: bool = False  # a list with at least one entry and no repeats


SMOOTHING = {
    "alpha_rule": Field(str, choices=ALPHA_RULES),
    "alpha": Field(float, "[0, 1]"),
    "rho": Field(float, "[0.5, 1]"),
    "tau": Field(float, "positive"),
    "mode": Field(str, choices=MODES),  # older configs name a mode here: checked, then dropped
}
TRAIN = {
    "steps": Field(int, ">= 1"),
    "warmup": Field(int, ">= 0"),
    "batch_size": Field(int, ">= 1"),
    "lr": Field(float, "positive"),
    "seed": Field(int, ">= 0"),
    "mode": Field(str, choices=TRAIN_MODES),
    "smoothing": Field(SMOOTHING),
    "eval_every": Field(int, ">= 1"),
    "momentum": Field(float, "[0, 1)"),
    "weight_decay": Field(float, ">= 0"),
    "beta_cp": Field(float, ">= 0"),
}
EXPERIMENT = {
    "dataset": Field(dict, default=REQUIRED),
    "hidden": Field([int], ">= 1"),
    "train": Field(TRAIN),
    "modes": Field([str], choices=TRAIN_MODES, distinct=True),
    "seeds": Field([int], ">= 0", distinct=True),
    "out_dir": Field(str | None),
    "teacher_checkpoint": Field(str | None),
}
BLOBS = {  # the arguments of gaussian_blobs, with a config's defaults
    "num_classes": Field(int, ">= 2", default=3),
    "per_class": Field(int, ">= 1", default=2000),
    "dim": Field(int, ">= 2", default=2),  # the class means sit on a circle in the first two
    "std": Field(float, "positive", default=1.0),
    "seed": Field(int, ">= 0", default=7),
}
_KIND = Field(str, choices=DATASET_KINDS, default=REQUIRED)
_PATH = Field(str, default=REQUIRED)
DATASETS = {  # by kind; the rows after `kind` are the loader's arguments, in order
    "blobs": {"kind": _KIND, **BLOBS},
    "csv": {"kind": _KIND, "path": _PATH, "label_column": _PATH},
    "idx": {"kind": _KIND, "images": _PATH, "labels": _PATH},
}
_LAYER = {
    "weight_shape": Field([int], ">= 0", default=REQUIRED),
    "weight": Field([[float]], default=REQUIRED),
    "bias_shape": Field([int], ">= 0", default=REQUIRED),
    "bias": Field([float], default=REQUIRED),
}
CHECKPOINT = {
    "format": Field(str, choices=(CHECKPOINT_FORMAT,), default=REQUIRED),
    "layer_sizes": Field([int], ">= 1", default=REQUIRED),
    "seed": Field(int, ">= 0", default=REQUIRED),
    "layers": Field([_LAYER], default=REQUIRED),
}


class Config:
    """Base of the frozen config dataclasses, `class C(Config, table=T)`.

    Construction checks every field against T. `from_dict` builds a config,
    nested configs included, from a JSON object and names a bad field by its
    path under `where`; a field T knows but C lacks is checked, then dropped.
    """

    def __init_subclass__(cls, table: dict, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.table = table

    def __post_init__(self):  # keeps what `check` converts, e.g. a nested config given as a dict
        vars(self).update(check(vars(self), self.table))

    @classmethod
    def from_dict(cls, doc, where: str = ""):
        values = check(doc, cls.table, where)
        try:
            return cls(**{k: v for k, v in values.items() if k in cls.__dataclass_fields__})
        except ValueError as e:  # a rule across fields, e.g. warmup <= steps
            raise ValueError(_join(where, str(e))) from None


def check(doc, table: dict, where: str = "") -> dict:
    """Check `doc` against `table`; return its fields with defaults filled in."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where or 'the document'} must be an object, got {reprlib.repr(doc)}")
    out = {}
    for name, f in table.items():
        if name in doc:
            out[name] = _value(doc[name], f, f.type, _join(where, name))
        elif f.default is REQUIRED:
            raise ValueError(f"missing field {name!r}" + (f" in {where}" if where else ""))
        elif f.default is not None:
            out[name] = f.default
    for name in doc:
        if name not in table:
            raise ValueError(f"{_join(where, name)} is not a known field (expected one of: {', '.join(table)})")
    return out


def _value(v, f: Field, t, path: str):
    if isinstance(t, list):
        if not isinstance(v, list):
            raise ValueError(f"{path} must be a list, got {reprlib.repr(v)}")
        if t in ([float], [[float]]):
            return _float_array(v, f, t, path)
        v = [_value(x, f, t[0], f"{path}[{i}]") for i, x in enumerate(v)]
        if f.distinct and (not v or len(set(v)) < len(v)):
            raise ValueError(f"{path} must be a non-empty list without repeats, got {reprlib.repr(v)}")
        return v
    if isinstance(t, dict):  # a nested document, or config when a Config class has table t
        cls = next((c for c in Config.__subclasses__() if c.table is t), None)
        if cls is None:
            return check(v, t, path)
        return v if isinstance(v, cls) else cls.from_dict(v, path)
    ok = isinstance(v, {float: numbers.Real, int: numbers.Integral}.get(t, t)) and not isinstance(v, bool)
    if ok and t is float:  # numpy scalars count; an int is compared exactly, so one beyond float64 fails, as nan does
        ok = abs(v if isinstance(v, int) else float(v)) <= sys.float_info.max
    if not ok:
        raise ValueError(f"{path} must be {_NOUNS[t]}, got {reprlib.repr(v)}")
    if f.choices is not None and v not in f.choices:
        raise ValueError(f"{path} must be one of {f.choices}, got {reprlib.repr(v)}")
    rng = f.range
    if rng is not None:
        if rng == "positive":
            ok = v > 0
        elif rng.startswith(">="):
            ok = v >= float(rng[2:])
        else:  # "[a, b]" or "[a, b)"
            low, high = (float(s) for s in rng[1:-1].split(","))
            ok = low <= v and (v <= high if rng.endswith("]") else v < high)
        if not ok:
            raise ValueError(f"{path} must be {rng if rng[0] in 'p>' else 'in ' + rng}, got {reprlib.repr(v)}")
    return v


def _float_array(v: list, f: Field, t, path: str) -> np.ndarray:
    """A [float] or [[float]] row in one pass; when the pass fails, walking the entries names the first bad one."""
    nested = t == [[float]]
    try:
        types = {type(x) for row in (v if nested else [v]) for x in row}
        a = np.array(v, dtype=np.float64) if types <= {int, float} else None
    except (TypeError, ValueError, OverflowError):  # a row that is not a list, ragged rows, an int beyond float64
        a = None
    if a is None or a.ndim != 1 + nested or not (np.abs(a) < sys.float_info.max).all():
        rows = [_value(x, f, t[0], f"{path}[{i}]") for i, x in enumerate(v)]
        if len({len(row) for row in rows if nested}) > 1:
            raise ValueError(f"{path} must be a list of rows of equal length")
        a = np.array(rows, dtype=np.float64)
    return a


_NOUNS = {int: "an integer", float: "a finite number", str: "a string", str | None: "a string or null", dict: "an object"}


def _join(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name
