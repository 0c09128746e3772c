#!/usr/bin/env python3
"""List what differs between the bodies of two cdlab campaign reports.

    python3 scripts/bodydiff.py A.json B.json [--exact]

A report's body is the report without its `timing` and `environment`
blocks, the part that must be the same on every run at one BLAS setting.
Checks are matched by label and conditions by name.  Every condition
residual and every numeric `info` value that differs is printed with the
check label, its name, the old and new values and |new - old| / tolerance
(`-` for an `info` value, which has no tolerance).  Any other difference
(a tolerance, a detail, an error, a non-numeric `info` value) is printed
as well.  A verdict flip is printed with FLIP: a condition's status, a
check's or the campaign's verdict, or a check or condition that only one
of the two reports holds.

Exit status: 1 on a verdict flip, or with `--exact` on any difference at
all; 2 when a file cannot be read as a report; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DROPPED = ("timing", "environment")


class ReportError(Exception):
    """A file that is not a campaign report."""


def load_body(path: Path) -> dict:
    """The report at `path` without its timing and environment blocks."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise ReportError(f"{path}: {err}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("checks"), list)):
        raise ReportError(f"{path} is not a campaign report: no checks list")
    return {key: value for key, value in doc.items() if key not in DROPPED}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(value, prefix: str = ""):
    """(path, value) for every leaf of nested dicts and lists."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def _ratio(old, new, tolerance) -> str:
    if not (_is_number(old) and _is_number(new)):
        return "-"
    delta = abs(new - old)
    return f"{delta / tolerance:.3g}" if tolerance else "inf"


def _by_key(items, key: str) -> dict:
    return {item[key]: item for item in items}


def _union(before: dict, after: dict) -> list:
    """The keys of `before` in order, then those only `after` holds."""
    return [*before, *(key for key in after if key not in before)]


def _compare_conditions(label: str, old: list, new: list, out: "Diff"):
    before, after = _by_key(old, "name"), _by_key(new, "name")
    for name in _union(before, after):
        if name not in after or name not in before:
            side = "A" if name in before else "B"
            out.add("flip", f"{label}  {name}  condition only in {side}")
            continue
        a, b = before[name], after[name]
        if a["status"] != b["status"]:
            out.add("flip",
                    f"{label}  {name}  status {a['status']} -> {b['status']}")
        if a["residual"] != b["residual"]:
            ratio = _ratio(a["residual"], b["residual"], b["tolerance"])
            out.add("residual", f"{label}  {name}  {a['residual']!r} -> "
                                f"{b['residual']!r}  |d|/tol {ratio}")
        for key in sorted((a.keys() | b.keys()) - {"name", "status", "residual"}):
            if a.get(key) != b.get(key):
                out.add("other", f"{label}  {name}  {key} {a.get(key)!r} -> "
                                 f"{b.get(key)!r}")


def _compare_info(label: str, old: dict, new: dict, out: "Diff"):
    before, after = dict(_leaves(old)), dict(_leaves(new))
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        if a == b and key in before and key in after:
            continue
        line = f"{label}  info {key}  {a!r} -> {b!r}"
        if key in before and key in after and _is_number(a) and _is_number(b):
            out.add("info", f"{line}  |d|/tol -")
        else:
            out.add("other", line)


class Diff:
    """The printed lines, and how many there are of each kind: residual,
    info, other and flip."""

    def __init__(self):
        self.lines = []
        self.counts = dict.fromkeys(("residual", "info", "other", "flip"), 0)

    def add(self, kind: str, line: str):
        self.counts[kind] += 1
        self.lines.append(f"FLIP {line}" if kind == "flip" else line)

    @property
    def empty(self) -> bool:
        return not any(self.counts.values())


def diff_bodies(old: dict, new: dict) -> Diff:
    out = Diff()
    if old.get("overall") != new.get("overall"):
        out.add("flip", f"overall {old.get('overall')} -> {new.get('overall')}")
    for key in sorted((old.keys() | new.keys()) - {"checks", "overall"}):
        if old.get(key) != new.get(key):
            out.add("other", f"{key} {old.get(key)!r} -> {new.get(key)!r}")
    before, after = _by_key(old["checks"], "label"), _by_key(new["checks"], "label")
    for label in _union(before, after):
        if label not in after or label not in before:
            side = "A" if label in before else "B"
            out.add("flip", f"{label}  check only in {side}")
            continue
        a, b = before[label], after[label]
        for key in ("passed", "overall"):
            if a.get(key) != b.get(key):
                out.add("flip", f"{label}  {key} {a.get(key)} -> {b.get(key)}")
        _compare_conditions(label, a.get("conditions", []),
                            b.get("conditions", []), out)
        _compare_info(label, a.get("info", {}), b.get("info", {}), out)
        for key in sorted((a.keys() | b.keys())
                          - {"passed", "overall", "conditions", "info"}):
            if a.get(key) != b.get(key):
                out.add("other",
                        f"{label}  {key} {a.get(key)!r} -> {b.get(key)!r}")
    # a difference the itemised comparison cannot name (a reordering)
    if out.empty and json.dumps(old) != json.dumps(new):
        out.add("other", "the bodies hold the same items in another order")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="report A")
    parser.add_argument("new", type=Path, help="report B")
    parser.add_argument("--exact", action="store_true",
                        help="exit 1 on any difference, not only on a flip")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        out = diff_bodies(load_body(args.old), load_body(args.new))
    except ReportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in out.lines:
        print(line)
    counts = out.counts
    print(f"{args.old} -> {args.new}: {counts['residual']} residuals, "
          f"{counts['info']} info values, {counts['other']} other differences, "
          f"{counts['flip']} verdict flips")
    return 1 if counts["flip"] or (args.exact and not out.empty) else 0


if __name__ == "__main__":
    sys.exit(main())
