"""Outside-in tracing of geomrel's layers.

The tracer swaps timing wrappers into module attributes of the imported
``geomrel`` package and restores the originals afterwards; it edits no
source.  Every module attribute that refers to a traced function is
replaced, so calls made through ``from .model import mean_failures`` style
imports are caught as well as calls through the defining module.

Spans nest as ``cli.main`` > ``evaluation.number_of_failures_eval`` >
``comparison.fit.<model>`` > ``estimation.nelder_mead`` >
``estimation.objective`` > ``model.mean_failures``.  A span's self time is
its duration minus the time its direct child spans take, counted from the
start to the end of each child's wrapper, so the tracer's bookkeeping for a
child is never charged to the parent.  A span opens as the first thing its
wrapper does and closes as the last, so its own counters are charged to
it; that costs about a microsecond per call.  Spans are
aggregated per name as they close (calls, seconds, self seconds) instead of
being kept one by one: a single ntds-evaluate job opens more than half a
million spans.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np

MODELS = ("geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp")

# Spans, and which of their totals (calls, seconds, self seconds) are reported.
_SPAN_METRICS = (
    ("cli.main", ("s", "self_s")),
    ("evaluation.number_of_failures_eval", ("calls", "s", "self_s")),
    ("evaluation.aggregate_median", ("s",)),
    *((f"comparison.fit.{m}", ("calls", "s")) for m in MODELS),
    *((f"comparison.predict.{m}", ("calls", "s")) for m in MODELS),
    ("estimation.fit", ("calls", "s")),
    ("estimation.nelder_mead", ("calls", "s", "self_s")),
    ("estimation.objective", ("self_s",)),
    ("model.mean_failures", ("calls", "s", "self_s")),
    ("model.failure_intensity", ("calls", "s")),
    ("model.time_for_intensity_exact", ("calls", "s")),
    ("data.parse_dataset", ("calls", "s")),
)

_COUNTERS = (
    "model.fault_terms",
    *(f"estimation.{m}.{c}" for m in MODELS
      for c in ("evaluations", "iterations", "nonfinite", "nonconverged")),
    "evaluation.fits",
    "cli.bytes_written",
    "data.points",
)

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = (
    *((f"{span}.{kind}", _UNITS[kind], "lower") for span, kinds in _SPAN_METRICS
      for kind in kinds),
    *((name, "bytes" if name == "cli.bytes_written" else "count", "lower")
      for name in _COUNTERS),
    ("evaluation.distinct_prefix_ratio", "ratio", "higher"),
    ("tracing.overhead_s", "s", "lower"),
)

# Metrics that must repeat exactly between traced runs of the same inputs.
EXACT_METRICS = tuple(
    name for name, _, _ in PER_LAYER_METRICS
    if name.endswith(".calls") or name in _COUNTERS
    or name == "evaluation.distinct_prefix_ratio"
)


def swap_everywhere(original, wrapper) -> list[tuple]:
    """Put ``wrapper`` in place of ``original`` in every geomrel module
    attribute that refers to it; returns the (module, name, original)
    patches for ``restore``."""
    patches = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("geomrel"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                patches.append((mod, key, original))
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


class Tracer:
    """Span and counter recorder for one traced job.

    ``install`` patches the package, ``uninstall`` restores it; use one
    tracer per job so that its numbers describe exactly that job.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.curves: list = []  # ValidityCurve objects returned by the harness
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self._models: list[str] = []
        self._eval_depth = 0
        self._fit_keys: set = set()
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> None:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += duration
        record[2] += duration - child
        if self._stack:
            # Read the clock again so this bookkeeping is not the parent's.
            self._stack[-1][2] += perf_counter() - start

    def _timed(self, name: str, fn):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    # -- layer-specific wrappers -------------------------------------------

    def _wrap_mean_failures(self, fn):
        enter, leave = self._enter, self._exit
        counts = self.counts

        def wrapper(params, t, *args, **kwargs):
            enter("model.mean_failures")
            try:
                counts["model.fault_terms"] += params.truncation * int(np.size(t))
                return fn(params, t, *args, **kwargs)
            finally:
                leave()

        return wrapper

    def _wrap_fit_model(self, fn):
        def wrapper(model_name, ds, *args, **kwargs):
            self._enter(f"comparison.fit.{model_name}")
            try:
                if self._eval_depth:
                    self.counts["evaluation.fits"] += 1
                    self._fit_keys.add((model_name, ds.label, ds.points))
                self._models.append(model_name)
                try:
                    return fn(model_name, ds, *args, **kwargs)
                finally:
                    self._models.pop()
            finally:
                self._exit()

        return wrapper

    def _wrap_estimation_fit(self, fn):
        def wrapper(*args, **kwargs):
            self._enter("estimation.fit")
            try:
                self._models.append("geometric")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._models.pop()
            finally:
                self._exit()

        return wrapper

    def _wrap_nelder_mead(self, fn):
        enter, leave = self._enter, self._exit

        def wrapper(objective, *args, **kwargs):
            enter("estimation.nelder_mead")
            try:
                evaluations = 0

                def traced_objective(x):
                    nonlocal evaluations
                    enter("estimation.objective")
                    try:
                        evaluations += 1
                        return objective(x)
                    finally:
                        leave()

                model = self._models[-1] if self._models else "unattributed"
                try:
                    result = fn(traced_objective, *args, **kwargs)
                finally:
                    self.counts[f"estimation.{model}.evaluations"] += evaluations
                diag = result[1]
                self.counts[f"estimation.{model}.iterations"] += diag.iterations
                self.counts[f"estimation.{model}.nonfinite"] += diag.nonfinite_evaluations
                self.counts[f"estimation.{model}.nonconverged"] += not diag.converged
                return result
            finally:
                leave()

        return wrapper

    def _wrap_eval(self, fn):
        def wrapper(*args, **kwargs):
            self._enter("evaluation.number_of_failures_eval")
            try:
                self._eval_depth += 1
                try:
                    curve = fn(*args, **kwargs)
                finally:
                    self._eval_depth -= 1
                self.curves.append(curve)
                return curve
            finally:
                self._exit()

        return wrapper

    def _wrap_parse(self, fn):
        def wrapper(*args, **kwargs):
            self._enter("data.parse_dataset")
            try:
                ds = fn(*args, **kwargs)
                self.counts["data.points"] += len(ds.points)
                return ds
            finally:
                self._exit()

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patches.extend(swap_everywhere(original, make_wrapper(original)))

    def install(self) -> None:
        from geomrel import cli, comparison, data, estimation, evaluation, model

        timed = self._timed
        self._patch_function(cli, "main", lambda f: timed("cli.main", f))
        self._patch_function(evaluation, "number_of_failures_eval", self._wrap_eval)
        self._patch_function(evaluation, "aggregate_median",
                             lambda f: timed("evaluation.aggregate_median", f))
        self._patch_function(comparison, "fit_model", self._wrap_fit_model)
        self._patch_function(estimation, "fit", self._wrap_estimation_fit)
        self._patch_function(estimation, "nelder_mead", self._wrap_nelder_mead)
        self._patch_function(model, "mean_failures", self._wrap_mean_failures)
        for name in ("failure_intensity", "time_for_intensity_exact"):
            self._patch_function(model, name, lambda f, n=name: timed(f"model.{n}", f))
        self._patch_function(data, "parse_dataset", self._wrap_parse)

        found = set()
        for cls in list(vars(comparison).values()):
            name = getattr(cls, "model_name", None)
            if isinstance(cls, type) and isinstance(name, str) and "predict_mean" in vars(cls):
                original = vars(cls)["predict_mean"]
                cls.predict_mean = timed(f"comparison.predict.{name}", original)
                self._patches.append((cls, "predict_mean", original))
                found.add(name)
        self.missing.extend(
            f"comparison predict_mean of {m}" for m in MODELS if m not in found)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this job (tracing overhead excluded)."""
        out: dict[str, float] = {}
        for span, kinds in _SPAN_METRICS:
            calls, seconds, self_seconds = self.spans.get(span, (0, 0.0, 0.0))
            values = {"calls": calls, "s": seconds, "self_s": self_seconds}
            for kind in kinds:
                out[f"{span}.{kind}"] = values[kind]
        for name in _COUNTERS:
            out[name] = self.counts.get(name, 0)
        fits = self.counts.get("evaluation.fits", 0)
        out["evaluation.distinct_prefix_ratio"] = len(self._fit_keys) / fits if fits else 0.0
        return out
