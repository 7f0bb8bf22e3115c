"""Tracing for the benchmark: spans and aggregate counters at layer boundaries.

The package is never edited.  For a traced pass the benchmark swaps the
attributes listed in ``BOUNDARIES`` (module functions and class methods of
``dualfield``) for wrappers and swaps them back afterwards.  Two kinds of
boundary exist:

* ``SPAN``: a public call made a few times per request.  Each call becomes
  one span record (name, duration, self time, attributes, parent span and
  the number of direct aggregate children by name), kept in memory.
* ``AGG``: a call made up to millions of times per request (oracles,
  ``tensor``, ``conjugate``, ``fourier``, ``convolve``).  Calls are only
  counted and timed in aggregate.

Every frame, of either kind, adds its duration to its parent's child
time, so the self time of a frame is its duration minus that of its
instrumented children.  ``FACTORY`` boundaries return callables (the
time-series oracle constructors); the callable they return is wrapped as
an ``AGG`` boundary, so oracles built while tracing is installed are
counted wherever the package calls them.
"""

from __future__ import annotations

import importlib
from time import perf_counter

SPAN, AGG, FACTORY = "span", "agg", "factory"

_DUALS = ("SU2Dual", "TorusDual", "FiniteGroupDual")
_MEASURES = ("FiniteClassMeasure", "SU2AngleMeasure", "TorusAngleMeasure")
_FIELDS = ("WhiteNoiseField", "KolmogorovField", "TranslatedField")


def _tensor_key(args, kwargs):
    return f"{type(args[0]).__name__}:{args[1]}:{args[2]}"


def _labels_attr(args, kwargs):
    return {"n": len(args[2])}


def _sample_attr(args, kwargs):
    return {"n": len(set(args[1])), "draws": int(args[2])}


def _paths_attr(args, kwargs):
    return {"n": int(args[1]) + 1, "paths": int(args[2])}


def _boundaries():
    dh, cm, sf, ts, cli = (
        "dualfield.dual_hypergroup",
        "dualfield.central_measures",
        "dualfield.stationary_fields",
        "dualfield.time_series",
        "dualfield.cli",
    )
    out = []
    for cls in _DUALS:
        out.append((dh, f"{cls}.tensor", "dual_hypergroup.tensor", AGG, _tensor_key))
        out.append((dh, f"{cls}.conjugate", "dual_hypergroup.conjugate", AGG, None))
    for mod in (dh, sf, cli):
        out.append((mod, "convolve", "dual_hypergroup.convolve", AGG, None))
    out.append(
        (dh, "multiplicity_by_integration", "dual_hypergroup.multiplicity_by_integration", SPAN, None)
    )
    for mod in (dh, cli):
        out.append((mod, "load_character_table", "dual_hypergroup.load_character_table", SPAN, None))
    for cls in _MEASURES:
        out.append((cm, f"{cls}.fourier", "central_measures.fourier", AGG, None))
    out.append((cm, "heat_kernel_measure", "central_measures.heat_kernel_measure", SPAN, None))
    out.append((cm, "is_positive_definite", "central_measures.is_positive_definite", SPAN, None))
    for mod in (cm, cli):
        out.append((mod, "bochner_invert_finite", "central_measures.bochner_invert_finite", SPAN, None))
    for mod in (sf, cli):
        out.append((mod, "check_stationarity", "stationary_fields.check", SPAN, _labels_attr))
        out.append(
            (mod, "check_hypergroup_stationarity", "stationary_fields.check", SPAN, _labels_attr)
        )
        out.append((mod, "estimate_covariance", "stationary_fields.estimate_covariance", SPAN, None))
        out.append(
            (mod, "cramer_decompose_finite", "stationary_fields.cramer_decompose_finite", SPAN, None)
        )
    for cls in _FIELDS:
        out.append((sf, f"{cls}.second_moment", "stationary_fields.second_moment", AGG, None))
        out.append((sf, f"{cls}.sample_batch", "stationary_fields.sample_batch", SPAN, _sample_attr))
    for name in ("simulate_ar1_batch", "simulate_ma_batch"):
        out.append((ts, name, "time_series.simulate_batch", SPAN, _paths_attr))
    for name in ("ar1_second_moment_oracle", "ma_second_moment_oracle"):
        out.append((ts, name, "time_series.oracle", FACTORY, None))
    out.append((cli, "main", "cli.main", SPAN, None))
    return out


BOUNDARIES = _boundaries()


class Tracer:
    """Frame stack, aggregate counters and span records of one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        # A frame is [name, start, child_s, direct_counts or None, span index or None].
        self.stack = []
        self.agg = {}  # name -> [calls, busy_s, self_s]
        self.distinct = {}  # name -> set of argument keys
        self.spans = []
        self.depth = {}  # name -> open frames of that name, so busy time nests once
        self.request = None

    # -- frames --------------------------------------------------------
    def _open(self, name, span, attrs=None):
        index = None
        if span:
            index = len(self.spans)
            self.spans.append({"name": name, "attrs": attrs or {}, "request": self.request})
        frame = [name, 0.0, 0.0, {} if span else None, index]
        self.stack.append(frame)
        self.depth[name] = self.depth.get(name, 0) + 1
        frame[1] = perf_counter()
        return frame

    def _close(self, frame):
        elapsed = perf_counter() - frame[1]
        stack = self.stack
        stack.pop()
        name = frame[0]
        depth = self.depth[name] - 1
        self.depth[name] = depth
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        if depth == 0:
            entry[1] += elapsed
        entry[2] += elapsed - frame[2]
        if stack:
            parent = stack[-1]
            parent[2] += elapsed
            if parent[3] is not None:
                parent[3][name] = parent[3].get(name, 0) + 1
        if frame[4] is not None:
            record = self.spans[frame[4]]
            record["dur"] = elapsed
            record["self"] = elapsed - frame[2]
            record["calls"] = frame[3]
            record["parent"] = next(
                (f[4] for f in reversed(stack) if f[4] is not None), None
            )

    def span(self, name, attrs=None):
        """Context manager recording one span around the benchmark's own code."""
        return _SpanContext(self, name, attrs)

    # -- wrappers ------------------------------------------------------
    def wrap(self, fn, name, kind, extra=None):
        tracer = self
        if kind == FACTORY:

            def factory(*args, **kwargs):
                return tracer.wrap(fn(*args, **kwargs), name, AGG)

            return factory
        if kind == SPAN:

            def span_wrapper(*args, **kwargs):
                frame = tracer._open(name, True, extra(args, kwargs) if extra else None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(frame)

            return span_wrapper

        def agg_wrapper(*args, **kwargs):
            if extra is not None:
                tracer.distinct.setdefault(name, set()).add(extra(args, kwargs))
            frame = tracer._open(name, False)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return agg_wrapper

    def snapshot(self):
        """Data of the pass so far, as plain JSON-ready values; then reset."""
        data = {
            "agg": {k: list(v) for k, v in self.agg.items()},
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
            "spans": self.spans,
        }
        self.reset()
        return data


class _SpanContext:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.frame = self.tracer._open(self.name, True, self.attrs)
        return self.tracer.spans[self.frame[4]]

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        return False


def install(tracer, boundaries=BOUNDARIES):
    """Swap every boundary for a tracing wrapper; returns what ``uninstall`` needs."""
    saved = []
    for module_name, path, name, kind, extra in boundaries:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, kind, extra))
    return saved


def uninstall(saved):
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
