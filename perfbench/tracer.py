"""In-memory span recorder and the wrappers that feed it.

The benchmark traces cdlab from the outside: `traced(tracer)` replaces each
layer's public functions with a recording wrapper at every cdlab module
namespace that binds them (``eigenframe`` is bound in ``cdlab``,
``cdlab.geometry``, ``cdlab.scenarios`` and ``cdlab.equivalence``), and puts
every original back when the block exits.  A span is (id, parent, name,
start, end); counts are taken from the arguments and results the wrapper
sees.  Everything stays in memory until `write_jsonl`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# Benchmark-side threshold for a degenerate curvature point: the eigenvalue
# gap of the Hermitian part of K, relative to its largest eigenvalue.
DEGENERACY_RTOL = 1e-6

LAYER_MODULES = ("kernels", "operators", "geometry", "equivalence",
                 "homogeneity", "scenarios", "serialize", "cli")


class Tracer:
    """Spans and counters of one traced stretch of work (single thread)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.durations: defaultdict = defaultdict(float)
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, after=None):
        """Recording wrapper; `name` is a string or a function of the call.

        `after(tracer, args, kwargs, result, seconds)` updates counters once
        the call has returned.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
            if after is not None:
                after(self, args, kwargs, result, end - start)
            return result

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child_time: defaultdict = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        out: defaultdict = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[span_id]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for _, _, name, _, _ in self.spans)

    def write_jsonl(self, fh, **extra) -> None:
        for span_id, parent, name, start, end in self.spans:
            fh.write(json.dumps({**extra, "id": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end}))
            fh.write("\n")


# ---------------------------------------------------------------------------
# what gets wrapped, and the counts taken at each wrapper


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _curvature_name(args, kwargs):
    return f"geometry.curvature.{_arg(args, kwargs, 2, 'method', 'series')}"


def _covariant_name(args, kwargs):
    return f"geometry.covariant_derivative.{_arg(args, kwargs, 0, 'curv').method}"


def _after_sylvester(tracer, args, kwargs, result, seconds):
    m = len(_arg(args, kwargs, 0, "a"))
    n = len(_arg(args, kwargs, 1, "b"))
    size_mb = 16.0 * (m * n) ** 2 / 1e6
    key = "operators.sylvester_kernel.operator_mb"
    tracer.maxima[key] = max(tracer.maxima.get(key, 0.0), size_mb)


def _after_eigenframe(tracer, args, kwargs, result, seconds):
    tracer.counts["geometry.eigenframe.points"] += len(_arg(args, kwargs, 1, "grid"))


def _after_gram_metric(tracer, args, kwargs, result, seconds):
    base = result.evaluate
    if base is None:
        return

    def evaluate(w):
        tracer.counts["geometry.fd.metric_evals"] += 1
        return base(w)

    result.evaluate = evaluate


def degenerate_points(field_a, field_b, rtol: float = DEGENERACY_RTOL) -> int:
    """Grid points where either field's Hermitian curvature part has a
    (relative) eigenvalue gap below `rtol`."""
    count = 0
    for ka, kb in zip(field_a.values, field_b.values):
        for k in (ka, kb):
            evals = np.linalg.eigvalsh(0.5 * (k + k.conj().T))
            if evals[-1] - evals[0] <= rtol * max(abs(evals).max(), 1e-300):
                count += 1
                break
    return count


def _after_isometry(tracer, args, kwargs, result, seconds):
    field_a = _arg(args, kwargs, 0, "field_a")
    field_b = _arg(args, kwargs, 1, "field_b")
    tracer.counts["geometry.curvature_isometry_check.points"] += len(field_a.grid)
    tracer.counts["geometry.curvature_isometry_check.degenerate_points"] += \
        degenerate_points(field_a, field_b)


def _after_run_scenario(tracer, args, kwargs, result, seconds):
    tracer.durations[f"scenarios.campaign_s.{result.scenario}"] += seconds
    body = result.to_dict()
    kinds = {check["label"]: check["check"] for check in body["checks"]}
    for label, elapsed in body["timing"]["per_check_seconds"].items():
        tracer.durations[f"scenarios.check_s.{kinds[label]}"] += elapsed


# (module, attribute, span name, after-hook).  Span names are
# "<layer>.<function>" so they line up with the per-layer metric names.
TARGETS = [
    ("kernels", "section_vector", None, None),
    ("kernels", "diagonal_ratio", None, None),
    ("operators", "sylvester_kernel", None, _after_sylvester),
    ("operators", "apply_mobius", None, None),
    ("operators", "shift_from_kernel", None, None),
    ("operators", "assemble_model", None, None),
    ("operators", "random_operator", None, None),
    ("geometry", "eigenframe", None, _after_eigenframe),
    ("geometry", "kernel_frame", None, None),
    ("geometry", "gram_metric", None, _after_gram_metric),
    ("geometry", "curvature", _curvature_name, None),
    ("geometry", "covariant_derivative", _covariant_name, None),
    ("geometry", "curvature_isometry_check", None, _after_isometry),
    ("equivalence", "main3_verifier", None, None),
    ("equivalence", "build_unitary_from_x", None, None),
    ("equivalence", "verify_mainlemma", None, None),
    ("equivalence", "construct_fb2_pair", None, None),
    ("equivalence", "kernel_transform_check", None, None),
    ("equivalence", "theta_intertwiner_check", None, None),
    ("homogeneity", "mobius_block_identity_check", None, None),
    ("homogeneity", "thm45_condition_check", None, None),
    ("homogeneity", "homogeneity_condition_check", None, None),
    ("scenarios", "run_scenario", None, _after_run_scenario),
    ("serialize", "write_curvature_csv", None, None),
    ("cli", "main", None, None),
]

# Methods are patched once, on the class that defines them.
METHOD_TARGETS = [("scenarios", "Scenario", "load")]

# Names the after-hooks count into `Tracer.counts` and `Tracer.maxima`.
COUNTER_NAMES = ("geometry.eigenframe.points", "geometry.fd.metric_evals",
                 "geometry.curvature_isometry_check.points",
                 "geometry.curvature_isometry_check.degenerate_points")
MAXIMUM_NAMES = ("operators.sylvester_kernel.operator_mb",)


def span_names() -> set[str]:
    """Every span name a traced run can record."""
    names = {f"{module}.{attr}" for module, attr, name, _ in TARGETS if name is None}
    names |= {f"geometry.{fn}.{method}"
              for fn in ("curvature", "covariant_derivative")
              for method in ("series", "fd")}
    names |= {f"{module}.{cls}.{attr}" for module, cls, attr in METHOD_TARGETS}
    return names


def _module(name: str):
    return importlib.import_module(f"cdlab.{name}")


def _cdlab_namespaces() -> list:
    return [importlib.import_module("cdlab")] + [_module(name) for name in LAYER_MODULES]


def patch_sites() -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, original) the tracer replaces."""
    namespaces = _cdlab_namespaces()
    sites = []
    for module, attr, _, _ in TARGETS:
        original = getattr(_module(module), attr)
        for ns in namespaces:
            if ns.__dict__.get(attr) is original:
                sites.append((ns, attr, original))
    for module, cls_name, attr in METHOD_TARGETS:
        cls = getattr(_module(module), cls_name)
        sites.append((cls, attr, cls.__dict__[attr]))
    return sites


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the recording wrappers; restore every original on exit."""
    sites = patch_sites()
    wrappers = {}
    for module, attr, name, after in TARGETS:
        original = getattr(_module(module), attr)
        wrappers[id(original)] = tracer.wrap(name or f"{module}.{attr}",
                                             original, after)
    for module, cls_name, attr in METHOD_TARGETS:
        descriptor = getattr(_module(module), cls_name).__dict__[attr]
        wrappers[id(descriptor)] = classmethod(tracer.wrap(
            f"{module}.{cls_name}.{attr}", descriptor.__func__))
    try:
        for owner, attr, original in sites:
            setattr(owner, attr, wrappers[id(original)])
        yield tracer
    finally:
        for owner, attr, original in sites:
            setattr(owner, attr, original)
