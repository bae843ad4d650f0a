"""Spans around labo's public functions, installed from outside the package.

`install` wraps every function in the `__all__` of the layer modules (data,
model, train, smoothing, numerics, oracle, verify, io) and the methods of
`MlpModel` and `SgdOptimizer`, replacing each function object wherever a
`labo` module holds it, so calls through an imported name are traced too.
`uninstall` puts the originals back; untraced runs never install anything.

A span is (name, start, end, parent), kept in flat arrays in memory. A few
hooks add what a span cannot hold: the step times of each `run_training`
call (through the `step_callback` it accepts), the bytes handed to
`io.atomic_write_text`, the iterations of each `oracle.solve_inner_numeric`
report, and the `CheckResult`s of `verify.run_verification`.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array

from checks import MODES, VERIFY_CHECKS

LAYERS = ("data", "model", "train", "smoothing", "numerics", "oracle", "verify", "io")
METHODS = {
    "MlpModel": ("forward", "backward", "params_flat", "set_params_flat", "copy"),
    "SgdOptimizer": ("step",),
}
COUNTED = ("softmax_rows", "log_softmax_rows", "entropy_rows")

PER_LAYER = {
    "data.load_s": "s",
    "model.forward_us": "us",
    "model.backward_us": "us",
    "model.sgd_us": "us",
    "model.params_flat_us": "us",
    "model.set_params_flat_us": "us",
    "model.save_checkpoint_ms": "ms",
    "io.bytes_written": "bytes",
    "io.write_ms": "ms",
    **{f"train.step_us.{mode}": "us" for mode in MODES},
    **{f"train.step_rest_us.{mode}": "us" for mode in MODES},
    "train.evaluate_ms": "ms",
    **{f"smoothing.build_label_batch_us.{mode}": "us" for mode in ("ls", "kd", "labo")},
    **{f"numerics.{fn}_calls_per_step.{mode}": "calls/step" for fn in COUNTED for mode in MODES},
    "oracle.solve_calls": "count",
    "oracle.eg_iterations": "count",
    "oracle.solve_s": "s",
    **{f"verify.{check}_s": "s" for check in VERIFY_CHECKS},
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.runs: dict[int, tuple] = {}  # run_training span -> (mode, warmup, step times)
        self.bytes_written = 0
        self.eg_iterations = 0
        self.check_results: list = []

    def reset(self):
        """Drop the spans and counts; installed wrappers keep writing here."""
        for column in (self.name_id, self.start, self.end, self.parent):
            del column[:]
        self.stack.clear()
        self.runs.clear()
        self.bytes_written = 0
        self.eg_iterations = 0
        self.check_results.clear()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        ids, starts, ends, parents, stack = self.name_id, self.start, self.end, self.parent, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        """Write the spans as tab-separated `name start end parent` lines."""
        names = self.names
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                f.write(f"{names[nid]}\t{s!r}\t{e!r}\t{p}\n")


def install(tracer: Tracer) -> list:
    """Wrap the layers' public functions; return what `uninstall` needs."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"labo.{layer}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[id(fn)] = (fn, _hooked(tracer, f"{layer}.{name}", fn))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname == "labo" or modname.startswith("labo."):
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
    model = importlib.import_module("labo.model")
    for cls_name, methods in METHODS.items():
        cls = getattr(model, cls_name)
        for method in methods:
            fn = cls.__dict__.get(method)
            if fn is not None:  # a method the program no longer has reads 0
                setattr(cls, method, tracer.wrap(f"model.{cls_name}.{method}", fn))
                patched.append((cls, method, fn))
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, value in reversed(patched):
        setattr(owner, attr, value)


def _hooked(tracer: Tracer, name: str, fn):
    traced = tracer.wrap(name, fn)
    if name == "train.run_training":

        @functools.wraps(fn)
        def run_training(model, data, cfg, teacher=None, step_callback=None):
            marks = array("d")

            def on_step(steps_done, m):
                marks.append(time.perf_counter())
                if step_callback is not None:
                    step_callback(steps_done, m)

            tracer.runs[len(tracer.start)] = (cfg.mode, cfg.warmup, marks)
            return traced(model, data, cfg, teacher=teacher, step_callback=on_step)

        return run_training
    if name == "io.atomic_write_text":

        @functools.wraps(fn)
        def atomic_write_text(path, text):
            tracer.bytes_written += len(text.encode())
            return traced(path, text)

        return atomic_write_text
    if name == "oracle.solve_inner_numeric":

        @functools.wraps(fn)
        def solve_inner_numeric(*args, **kwargs):
            report = traced(*args, **kwargs)
            tracer.eg_iterations += report.iterations
            return report

        return solve_inner_numeric
    if name == "verify.run_verification":

        @functools.wraps(fn)
        def run_verification(*args, **kwargs):
            results = traced(*args, **kwargs)
            tracer.check_results.extend(results)
            return results

        return run_verification
    return traced


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round (times in the units of their names)."""
    names, ids, starts, ends, parents = tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent
    n = len(starts)
    run_of = [-1] * n  # enclosing run_training span
    in_eval = [False] * n  # under train.evaluate
    durations: dict[str, list] = {}
    by_run: dict[int, list] = {r: [] for r in tracer.runs}  # non-eval spans of each run
    for i in range(n):
        name = names[ids[i]]
        p = parents[i]
        if name == "train.run_training":
            run_of[i] = i
        elif p >= 0:
            run_of[i] = run_of[p]
            in_eval[i] = in_eval[p]
        if name == "train.evaluate":
            in_eval[i] = True
        durations.setdefault(name, []).append(ends[i] - starts[i])
        r = run_of[i]
        if r >= 0 and r != i and (not in_eval[i] or (name == "train.evaluate" and p == r)):
            by_run[r].append(i)

    def med(name, scale):
        return _median(durations.get(name), scale)

    def med_in_training(name, scale):
        return _median([ends[i] - starts[i] for r, spans in by_run.items() for i in spans
                        if names[ids[i]] == name and parents[i] == r], scale)

    m = {
        "data.load_s": _median(durations.get("data.load_csv", []) + durations.get("data.gaussian_blobs", [])),
        "model.forward_us": med_in_training("model.MlpModel.forward", 1e6),
        "model.backward_us": med_in_training("model.MlpModel.backward", 1e6),
        "model.sgd_us": med("model.SgdOptimizer.step", 1e6),
        "model.params_flat_us": med("model.MlpModel.params_flat", 1e6),
        "model.set_params_flat_us": med("model.MlpModel.set_params_flat", 1e6),
        "model.save_checkpoint_ms": med("model.save_checkpoint", 1e3),
        "io.bytes_written": tracer.bytes_written,
        "io.write_ms": sum(durations.get("io.atomic_write_text", [])) * 1e3,
        "train.evaluate_ms": med("train.evaluate", 1e3),
        "oracle.solve_calls": len(durations.get("oracle.solve_inner_numeric", [])),
        "oracle.eg_iterations": tracer.eg_iterations,
        "oracle.solve_s": sum(durations.get("oracle.solve_inner_numeric", [])),
    }

    subtract = {tracer.intern(x) for x in (
        "model.MlpModel.forward", "model.MlpModel.backward", "model.SgdOptimizer.step", "train.evaluate")}
    counted = {tracer.intern(f"numerics.{x}"): x for x in COUNTED}
    label_id = tracer.intern("smoothing.build_label_batch")
    per_mode: dict[str, dict[str, list]] = {mode: {"step": [], "rest": [], "label": []} for mode in MODES}
    calls = {mode: {x: 0 for x in COUNTED} for mode in MODES}
    counted_steps = {mode: 0 for mode in MODES}
    for r, (mode, warmup, marks) in tracer.runs.items():
        spent = [0.0] * len(marks)  # forward/backward/SGD/evaluate time in each step interval
        for i in by_run[r]:
            nid = ids[i]
            step = bisect.bisect_left(marks, starts[i])
            if nid in subtract and parents[i] == r and step < len(marks):
                spent[step] += ends[i] - starts[i]
            elif nid in counted and step >= warmup:
                calls[mode][counted[nid]] += 1
            elif nid == label_id:
                per_mode[mode]["label"].append(ends[i] - starts[i])
        counted_steps[mode] += len(marks) - warmup
        for k in range(1, len(marks)):
            interval = marks[k] - marks[k - 1]
            per_mode[mode]["step"].append(interval)
            per_mode[mode]["rest"].append(interval - spent[k])

    for mode in MODES:
        series = per_mode[mode]
        m[f"train.step_us.{mode}"] = _median(series["step"], 1e6)
        m[f"train.step_rest_us.{mode}"] = _median(series["rest"], 1e6)
        if mode in ("ls", "kd", "labo"):
            m[f"smoothing.build_label_batch_us.{mode}"] = _median(series["label"], 1e6)
        for x in COUNTED:
            steps = counted_steps[mode]
            m[f"numerics.{x}_calls_per_step.{mode}"] = calls[mode][x] / steps if steps else 0.0

    seconds = {name: [] for name in VERIFY_CHECKS}
    for result in tracer.check_results:
        seconds.setdefault(result.name, []).append(result.seconds)
    for name in VERIFY_CHECKS:
        m[f"verify.{name}_s"] = _median(seconds[name])
    return m


def _median(values, scale: float = 1.0) -> float:
    """Median times `scale`; 0 when the program made no such call."""
    return statistics.median(values) * scale if values else 0.0
