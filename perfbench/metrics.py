"""Metric names, units and values: BENCHMARK.json is the one list of names.

`end_to_end` names are filled from an untraced run, `per_layer` names from
the tracer of a traced run.  A name the benchmark cannot compute is an
error, never a silent zero.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import tracer as tracing

# Per-layer names filled by the run itself rather than by a tracer.
RUN_LEVEL = ("trace.overhead_frac", "serialize.bytes_written")
DURATION_PREFIXES = ("scenarios.campaign_s.", "scenarios.check_s.")


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def layer_values(trace: tracing.Tracer, names) -> dict[str, float]:
    """Per-layer metric values of one traced set-up plus pass."""
    known_spans = tracing.span_names()
    self_s = trace.self_seconds()
    calls = trace.calls()
    out = {}
    for name in names:
        if name in RUN_LEVEL:
            continue
        head, _, tail = name.rpartition(".")
        if tail == "self_s" and head in known_spans:
            out[name] = self_s.get(head, 0.0)
        elif tail == "calls" and head in known_spans:
            out[name] = calls.get(head, 0)
        elif name.startswith(DURATION_PREFIXES):
            out[name] = trace.durations.get(name, 0.0)
        elif name in tracing.COUNTER_NAMES:
            out[name] = trace.counts.get(name, 0)
        elif name in tracing.MAXIMUM_NAMES:
            out[name] = trace.maxima.get(name, 0.0)
        else:
            raise ValueError(f"per-layer metric {name!r} has no source")
    return out


def median_values(samples: list[dict]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def with_units(values: dict, spec_list: list[dict]) -> dict:
    """{name: {"value", "unit"}} for exactly the names in `spec_list`."""
    names = [m["name"] for m in spec_list]
    missing = sorted(set(names) - set(values))
    if missing:
        raise ValueError(f"no value measured for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_list}


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3
