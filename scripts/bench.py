#!/usr/bin/env python3
"""Run the cdlab benchmark on every workload and compare with an earlier run.

    python3 scripts/bench.py [--out FILE] [--against OLD.json [--gate]]

For each workload of BENCHMARK.json, `perfbench/run.py` runs twice, each time
in its own subprocess: `--trace 0` gives the end-to-end medians, `--trace 1`
the per-layer metrics.  Both go, with the environment block of the untraced
run and the bytecode setting of the benchmark's processes, into
`BENCH_<short-sha>.json` at the root of the checkout (or into `--out`).
Every run uses seed 11 and the `run_seconds` of BENCHMARK.json, so any two
files compare.

With `--against OLD.json` the new run is compared with OLD: every end-to-end
metric is listed with its change, and those worse than OLD by more than the
metric's `bound` in BENCHMARK.json are flagged, as is a workload that fails
a larger share of its verdicts.  With `--gate` the script then exits 1 when
anything is flagged.  Files measured under different bytecode settings are
not compared (exit 2): compiling the sources is a large share of `setup_s`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT_DIR = ROOT / "perfbench" / "out"
SEED = 11


class BenchError(Exception):
    """A run or a comparison that cannot be made."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bytecode_setting() -> dict:
    """dont_write_bytecode as a process started like the benchmark's sees it,
    and the PYTHONDONTWRITEBYTECODE value that sets it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"],
        stdout=subprocess.PIPE, text=True, check=True)
    return {"dont_write_bytecode": int(proc.stdout),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def load_bench(path: Path) -> dict:
    """An earlier BENCH file, refused unless it has the keys `compare` reads."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise BenchError(f"{path} is not JSON: {err}") from None
    if not (isinstance(doc, dict) and {"bytecode", "workloads"} <= set(doc)):
        raise BenchError(f"{path} is not a BENCH file: no bytecode or workloads")
    return doc


def require_same_bytecode(new: dict, old: dict) -> None:
    if new["dont_write_bytecode"] != old["dont_write_bytecode"]:
        raise BenchError(f"bytecode settings differ ({new} against {old}); set "
                         f"PYTHONDONTWRITEBYTECODE alike to compare the runs")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """The full result file of one `perfbench/run.py` run."""
    command = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=600 + 10 * seconds)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(command[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def measure(spec: dict, seed: int, seconds: float, bytecode: dict) -> dict:
    doc = {"commit": None, "seed": seed, "seconds": seconds,
           "bytecode": bytecode, "environment": None, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        plain = run_workload(name, seed, seconds, 0)
        traced = run_workload(name, seed, seconds, 1)
        if doc["environment"] is None:
            doc["environment"] = plain["environment"]
            doc["commit"] = plain["environment"]["git_commit"]
        doc["workloads"][name] = {
            "correct": plain["correct"] and traced["correct"],
            "failed_frac": plain["failed_frac"],
            "end_to_end": plain["end_to_end"],
            "processes": plain["processes"],
            "samples": {"wall_s": plain["wall_s_samples"],
                        "cold_s": plain["cold_s_samples"],
                        "setup_s": plain["setup_s_samples"],
                        "peak_rss_mb": plain["peak_rss_mb_samples"]},
            "per_layer": traced["per_layer"],
            "digests": plain["digests"],
        }
        print(f"{name}: " + ", ".join(f"{k} {v:.4g}" for k, v in
                                      plain["end_to_end"].items()), file=sys.stderr)
    return doc


def compare(new: dict, old: dict, spec: dict) -> tuple[list[str], list[str]]:
    """(listing, flagged): one line per end-to-end metric and workload that
    both files hold, and the lines of those worse than `bound` allows, plus
    any workload whose failed fraction grew or that is not correct.  The
    listing also names the workloads whose report digests changed."""
    require_same_bytecode(new["bytecode"], old["bytecode"])
    listing, flagged = [], []
    for name, now in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = before["end_to_end"][key], now["end_to_end"][key]
            change = (b - a) / a
            worse = change if metric["better"] == "lower" else -change
            line = (f"{name:8s} {key:12s} {a:10.4f} -> {b:10.4f} {metric['unit']:3s} "
                    f"{change:+8.1%}  (bound {bound:.0%})")
            listing.append(line)
            if worse > bound:
                flagged.append(line)
        if now["failed_frac"] > before["failed_frac"] or not now["correct"]:
            flagged.append(f"{name:8s} failed_frac {before['failed_frac']:.4f} -> "
                           f"{now['failed_frac']:.4f}, correct {now['correct']}")
        changed = sorted(k for k, v in now["digests"].items()
                         if before["digests"].get(k) != v)
        if changed:
            listing.append(f"{name:8s} report digests differ: {', '.join(changed)}")
    return listing, flagged


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default BENCH_<short-sha>.json in the root)")
    parser.add_argument("--against", type=Path, default=None,
                        help="earlier BENCH file to compare with")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when --against flags a metric")
    args = parser.parse_args(argv)
    if args.gate and args.against is None:
        parser.error("--gate needs --against")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    try:
        bytecode = bytecode_setting()
        old = None
        if args.against is not None:
            # refuse before measuring, not after
            old = load_bench(args.against)
            require_same_bytecode(bytecode, old["bytecode"])
        doc = measure(spec, SEED, spec["run_seconds"], bytecode)
        out = args.out or ROOT / f"BENCH_{(doc['commit'] or 'unknown')[:7]}.json"
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}")
        if old is None:
            return 0
        listing, flagged = compare(doc, old, spec)
    except (BenchError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"against {args.against}:")
    for line in listing:
        print("  " + line)
    print("worse beyond bound: " + ("none" if not flagged else ""))
    for line in flagged:
        print("  " + line)
    return 1 if flagged and args.gate else 0


if __name__ == "__main__":
    sys.exit(main())
