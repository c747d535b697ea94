"""Spans around the calls into each fetfit module, recorded from outside.

The benchmark replaces each traced public function at the module attribute
its callers look it up through (its import site), for example
``fetfit.dataset.featurize`` for the calls ``build_dataset`` makes. Each
call then records a span: name, start, end, parent span and request id.
Spans stay in memory and are written out once, when the run ends. A span's
self time is its duration minus the time covered by its child spans.

``LAYERS`` is the layer map: for every traced function, the sites patched,
the workloads on which it runs, and the end-to-end metric it should move,
by the name ``run.py`` prints it under; on the JSON result the same change
shows in that workload's ``latency_p90_ref``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Layer:
    name: str        # span name: "<module>.<function>"
    sites: tuple     # "<module>:<attribute>" the callers resolve at call time
    workloads: tuple  # workloads on which the function runs
    moves: str       # end-to-end metric(s) it should move, and where


LAYERS = (
    # sample_params is defined in fetfit.dataset; it is the parameter-sampling
    # step, so it is reported as the params layer.
    Layer("params.sample_params", ("fetfit.dataset:sample_params",), ("gen",),
          "gen_devices_per_s (about 10%)"),
    Layer("device.simulate_curveset",
          ("fetfit.dataset:simulate_curveset", "fetfit.verify:simulate_curveset"),
          ("gen", "extract", "fit"),
          "fit_s_per_device (dominant), gen_devices_per_s (about 30%), extract_latency_ms_p50"),
    Layer("device.differentiate",
          ("fetfit.features:differentiate", "fetfit.device:differentiate"),
          ("gen", "extract"),
          "gen_devices_per_s, extract_latency_ms_p50; calls per device show redundant Gm work"),
    Layer("features.featurize",
          ("fetfit.dataset:featurize", "fetfit.features:featurize", "fetfit.verify:featurize"),
          ("gen", "extract"),
          "gen_devices_per_s (about 60%), extract_latency_ms_p50"),
    Layer("dataset.build_dataset", ("fetfit.dataset:build_dataset",), ("gen",),
          "gen_devices_per_s"),
    Layer("dataset.save_dataset", ("fetfit.dataset:save_dataset",), ("gen",),
          "gen_devices_per_s (writes)"),
    Layer("dataset.load_dataset", ("fetfit.dataset:load_dataset",), ("train",),
          "train_rows_per_s (reads)"),
    Layer("dataset.fit_normalizer", ("fetfit.dataset:fit_normalizer",), ("train",),
          "train_rows_per_s"),
    Layer("ann.train", ("fetfit.ann:train",), ("train",),
          "train_rows_per_s; self time is the Adam update and bookkeeping"),
    Layer("ann.loss_and_grad", ("fetfit.ann:loss_and_grad",), ("train",),
          "train_rows_per_s (batched matmuls)"),
    Layer("ann.forward", ("fetfit.ann:forward",), ("train", "extract"),
          "train_rows_per_s (validation pass), extract_latency_ms_p50 (single rows)"),
    Layer("ann.save_model", ("fetfit.ann:save_model",), ("train",),
          "train_rows_per_s"),
    Layer("ann.predict_params", ("fetfit.ann:predict_params", "fetfit.verify:predict_params"),
          ("extract",), "extract_latency_ms_p50"),
    Layer("verify.round_trip_from_params", ("fetfit.verify:round_trip_from_params",),
          ("extract",), "extract_latency_ms_p50"),
    Layer("verify.rms_percent", ("fetfit.verify:rms_percent",), ("extract", "fit"),
          "extract_latency_ms_p50, fit_s_per_device"),
    Layer("verify.direct_fit", ("fetfit.verify:direct_fit",), ("fit",),
          "fit_s_per_device; self time is the scipy simplex overhead"),
    Layer("verify.direct_fit_objective", ("fetfit.verify:direct_fit_objective",), ("fit",),
          "fit_s_per_device; calls per device are simplex evaluations"),
    Layer("curve_io.read_curveset_dir", ("fetfit.curve_io:read_curveset_dir",), ("extract",),
          "extract_latency_ms_p50 (about 0.7 ms of 3 ms per request)"),
)

#: Layers with a byte counter: the file or directory named by an argument.
BYTE_LAYERS = ("dataset.save_dataset", "dataset.load_dataset", "curve_io.read_curveset_dir")

#: Per workload, the metric for the quality of its output, with its unit;
#: reported as 0 on the other workloads.
QUALITY_METRICS = {
    "train": ("ann.train.best_val_loss", "mse"),
    "extract": ("ann.predict_params.objective_pct", "%"),
    "fit": ("verify.direct_fit.objective_pct", "%"),
}


def ann_flops(name: str, args) -> int:
    """Multiply-add FLOPs of the matmuls, computed from the layer widths
    (activations and the elementwise update are not counted)."""
    w, x = args[0], args[1]
    rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
    sizes = [m.size for m in w.W]
    if name == "ann.forward":
        return 2 * rows * sum(sizes)
    # forward, weight gradients, and deltas propagated below the output layer
    return 2 * rows * (2 * sum(sizes) + sum(sizes[1:]))


def _path_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.glob("*.csv"))
    return path.stat().st_size


class Tracer:
    """Records spans for the wrapped functions while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.request = None
        self.spans = []         # (name, start, end, parent index, request id)
        self._stack = []        # [span index, start, time covered by children]
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self._best = {}         # request id -> lowest direct-fit objective so far

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name: str, start: float):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((name, start, None, parent, self.request))
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def _exit(self, name: str, end: float):
        index, start, child = self._stack.pop()
        self.spans[index] = self.spans[index][:2] + (end,) + self.spans[index][3:]
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child

    @contextlib.contextmanager
    def span(self, name: str, request=None):
        """A root span for one request of the benchmark's closed loop."""
        self.request = request
        self._enter(name, time.perf_counter())
        try:
            yield
        finally:
            self._exit(name, time.perf_counter())

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not recorded."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _after(self, name: str, args, result):
        if name in BYTE_LAYERS:
            self.count(name + ".bytes", _path_bytes(args[0] if name != "dataset.save_dataset"
                                                    else args[1]))
        elif name in ("ann.forward", "ann.loss_and_grad"):
            self.count("ann.flops", ann_flops(name, args))
        elif name == "verify.direct_fit_objective":
            best = self._best.get(self.request)
            if best is not None and result < best:
                self.count("verify.direct_fit.improved")
            if best is None or result < best:
                self._best[self.request] = result

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._enter(name, time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(name, time.perf_counter())
                self.count(name + ".failed")
                raise
            self._exit(name, time.perf_counter())
            self._after(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every site in ``LAYERS`` for the duration of the block."""
        undo = []
        try:
            for layer in LAYERS:
                for site in layer.sites:
                    module_name, attr = site.split(":")
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    undo.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, layer.name))
            self.enabled = True
            yield self
        finally:
            self.enabled = False
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write(self, path: Path):
        """Write the recorded spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer_metrics(tracer: Tracer, items: float, workload: str, quality: float,
                      overhead_pct: float) -> dict:
    """Per-item counts and self times from one traced run, with units.
    ``quality`` is the median quality of the workload's outputs, or NaN."""
    c = tracer.counters

    def per_item(total):
        return total / items if items else 0.0

    out = {}
    for layer in LAYERS:
        out[layer.name + ".calls_per_item"] = (per_item(tracer.calls.get(layer.name, 0)),
                                               "calls/item")
        out[layer.name + ".self_ms_per_item"] = (
            per_item(tracer.self_s.get(layer.name, 0.0) * 1e3), "ms/item")
    out["features.featurize.failed"] = (c.get("features.featurize.failed", 0), "count")
    for name in BYTE_LAYERS:
        out[name + ".bytes_per_item"] = (per_item(c.get(name + ".bytes", 0)), "B/item")
    ann_s = tracer.self_s.get("ann.forward", 0.0) + tracer.self_s.get("ann.loss_and_grad", 0.0)
    flops = c.get("ann.flops", 0)
    out["ann.flops_computed_per_item"] = (per_item(flops), "flop/item")
    out["ann.gflops_achieved_computed"] = (flops / ann_s / 1e9 if ann_s else 0.0, "GFLOP/s")
    evals = tracer.calls.get("verify.direct_fit_objective", 0)
    out["verify.direct_fit.improved_ratio"] = (
        c.get("verify.direct_fit.improved", 0) / evals if evals else 0.0, "ratio")
    for w, (name, unit) in QUALITY_METRICS.items():
        out[name] = (quality if w == workload and math.isfinite(quality) else 0.0, unit)
    out["bench.request.self_ms_per_item"] = (
        per_item(tracer.self_s.get("bench.request", 0.0) * 1e3), "ms/item")
    out["trace.items"] = (items, "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
