"""cdlab benchmark: time to verdict on three campaign workloads.

    python3 perfbench/run.py --workload {bundled,fields,algebra} \
        --seed N --seconds S --trace {0,1}

One process at a time, CDLAB_THREADS=1 and one BLAS thread (a shared
two-core host makes threaded BLAS timings wander).

With `--trace 0` the run starts fresh processes one after another, at least
three and more while the next one would still end within `--seconds` of the
first one's start.  Each imports cdlab from `src/`, builds the workload's
inputs from the seed several times, makes one cold pass and then one warm
pass.  `cold_s`, `wall_s`, `setup_s` (import plus the median build) and
`peak_rss_mb` are medians over those processes, so the cold pass is sampled
as often as the warm one.  Every pass checks its verdicts against oracles;
`failed` counts the verdicts that differ from the expected ones or raised.

With `--trace 1` the run stays in one process: a cold pass, then warm passes
that alternate between untraced passes and traced set-up-plus-pass
iterations; the per-layer metrics are medians over the traced iterations and
`trace.overhead_frac` compares the two kinds of pass.  Traced verdicts and
report digests must equal the untraced ones.

All files go under `perfbench/out/`: the passes run in a temporary working
directory there, the full result is `<workload>-seed<N>-trace<T>.json`, and
a traced run writes its spans to `spans-<workload>.jsonl`.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
MIN_PROCESSES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("CDLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bundled", "fields", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one fresh process of an untraced run: a cold and a warm pass
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, if numpy bundles OpenBLAS."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def clear_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def pass_to_dict(result) -> dict:
    return {"verifications": [[v.name, v.ok, v.detail] for v in result.verifications],
            "digests": result.digests}


def pass_from_dict(doc: dict):
    import workloads

    return workloads.PassResult(
        [workloads.Verification(*v) for v in doc["verifications"]], doc["digests"])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """Timings and pass results of one benchmark run.

    `setup`, `cold` and `rss_mb` hold one value per process that measured.
    """

    setup: list[float] = field(default_factory=list)
    cold: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    warm: list[float] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layer_samples: list[dict] = field(default_factory=list)
    traces: list = field(default_factory=list)
    passes: list = field(default_factory=list)


def measure(args, import_s: float, per_layer_names=()) -> Measurement:
    """Set up, make the cold pass and the warm (and traced) passes in this
    process, inside a temporary cwd."""
    import metrics
    import tracer as tracing
    import workloads

    m = Measurement(import_s=[import_s])
    setup, run_pass = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"run-{args.workload}-") as tmp:
        inputs_dir, work = Path(tmp) / "inputs", Path(tmp) / "work"

        def timed_setup():
            start = time.perf_counter()
            inputs = setup(args.seed, inputs_dir)
            m.build_s.append(time.perf_counter() - start)
            return inputs

        def timed_pass(inputs):
            clear_dir(work)
            os.chdir(work)
            start = time.perf_counter()
            m.passes.append(run_pass(inputs))
            return time.perf_counter() - start

        cwd = os.getcwd()
        clear_dir(work)
        os.chdir(work)
        try:
            inputs = timed_setup()
            measure_start = time.perf_counter()
            m.cold.append(timed_pass(inputs))
            for _ in range(SETUP_REPEATS - 1):
                inputs = timed_setup()
            # a child makes one warm pass; a traced run fills --seconds
            while not m.warm or (args.trace and not m.traced_walls) or (
                    args.trace and time.perf_counter() - measure_start
                    + max(m.cold + m.warm + m.traced_walls) <= args.seconds):
                if args.trace and len(m.traced_walls) < len(m.warm):
                    trace = tracing.Tracer()
                    with tracing.traced(trace):
                        m.traced_walls.append(timed_pass(setup(args.seed, inputs_dir)))
                    values = metrics.layer_values(trace, per_layer_names)
                    values["serialize.bytes_written"] = dir_bytes(work)
                    m.layer_samples.append(values)
                    m.traces.append(trace)
                else:
                    m.warm.append(timed_pass(inputs))
        finally:
            os.chdir(cwd)
    m.setup.append(import_s + statistics.median(m.build_s))
    m.rss_mb.append(peak_rss_mb())
    return m


def child_result(m: Measurement) -> dict:
    return {"import_s": m.import_s, "build_s": m.build_s, "setup": m.setup,
            "cold": m.cold, "warm": m.warm, "rss_mb": m.rss_mb,
            "passes": [pass_to_dict(p) for p in m.passes]}


def measure_fresh(args) -> Measurement:
    """Untraced run: fresh processes one after another, each a cold and a warm
    pass, while the next one would still end within --seconds."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--child"]
    m = Measurement()
    start = time.perf_counter()
    longest = 0.0
    while len(m.cold) < MIN_PROCESSES or \
            time.perf_counter() - start + longest <= args.seconds:
        child_start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        longest = max(longest, time.perf_counter() - child_start)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in ("import_s", "build_s", "setup", "cold", "warm", "rss_mb"):
            getattr(m, key).extend(doc[key])
        m.passes.extend(pass_from_dict(p) for p in doc["passes"])
    return m


def build_report(args, m: Measurement) -> dict:
    import metrics

    passes = m.passes
    attempted = sum(len(p.verifications) for p in passes)
    failed = sum(not v.ok for p in passes for v in p.verifications)
    # every pass, traced or not, must reach the same verdicts and bodies
    correct = failed == 0 and len({p.signature() for p in passes}) == 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "end_to_end": {
            "wall_s": statistics.median(m.warm),
            "cold_s": statistics.median(m.cold),
            "setup_s": statistics.median(m.setup),
            "peak_rss_mb": statistics.median(m.rss_mb),
        },
        "processes": len(m.cold),
        "wall_s_samples": m.warm,
        "wall_s_quartiles": list(metrics.quartiles(m.warm)),
        "cold_s_samples": m.cold,
        "setup_s_samples": m.setup,
        "setup_s_parts": {"import_s": m.import_s, "build_s": m.build_s},
        "peak_rss_mb_samples": m.rss_mb,
        "digests": passes[0].digests,
        "failures": sorted({f"{v.name}: {v.detail}" for p in passes
                            for v in p.verifications if not v.ok}),
        "deterministic_bodies": len({tuple(sorted(p.digests.items()))
                                     for p in passes}) == 1,
        "environment": environment(args.seed),
    }
    if args.trace:
        layer = metrics.median_values(m.layer_samples)
        untraced = statistics.median(m.warm)
        layer["trace.overhead_frac"] = \
            (statistics.median(m.traced_walls) - untraced) / untraced
        report["per_layer"] = layer
        report["traced_wall_s_samples"] = m.traced_walls
    return report


def print_summary(report: dict, shown: dict, out_path: Path) -> None:
    e2e = report["end_to_end"]
    q1, q3 = report["wall_s_quartiles"]
    traced = report.get("traced_wall_s_samples")
    if traced:
        shape = (f"1 cold + {len(report['wall_s_samples'])} warm + "
                 f"{len(traced)} traced passes")
    else:
        shape = f"{report['processes']} processes, each a cold and a warm pass"
    print(f"cdlab benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"trace {report['trace']}: {shape}")
    print(f"  wall_s       {e2e['wall_s']:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"n={len(report['wall_s_samples'])})")
    print(f"  cold_s       {e2e['cold_s']:.4f} s  "
          f"(n={len(report['cold_s_samples'])})")
    print(f"  setup_s      {e2e['setup_s']:.4f} s  "
          f"(import {statistics.median(report['setup_s_parts']['import_s']):.4f} s)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac  {report['failed_frac']:.4f}  "
          f"({report['failed']}/{report['attempted']} verdicts)")
    for failure in report["failures"]:
        print(f"    FAILED {failure}")
    for name, digest in sorted(report["digests"].items()):
        print(f"  digest {name}: {digest}")
    if traced:
        for name, entry in shown.items():
            print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"  environment  {json.dumps(report['environment'], sort_keys=True)}")
    print(f"  full result  {out_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cdlab" / "__init__.py").is_file():
        print(f"error: no cdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    if args.child or args.trace:
        # first, so that import_s covers numpy as in a fresh `cdlab` command
        start = time.perf_counter()
        import cdlab
        import_s = time.perf_counter() - start
        if Path(cdlab.__file__).resolve().parent != ROOT / "src" / "cdlab":
            print(f"error: imported cdlab from {cdlab.__file__}, not {ROOT / 'src'}",
                  file=sys.stderr)
            return 2

    import metrics

    spec = metrics.load_spec(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    if args.child or args.trace:
        m = measure(args, import_s, [metric["name"] for metric in spec["per_layer"]])
        if args.child:
            print(json.dumps(child_result(m)))
            return 0
    else:
        m = measure_fresh(args)
    report = build_report(args, m)
    if args.trace:
        with open(OUT_DIR / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as fh:
            for index, trace in enumerate(m.traces):
                trace.write_jsonl(fh, iteration=index)
        shown = metrics.with_units(report["per_layer"], spec["per_layer"])
    else:
        shown = metrics.with_units(report["end_to_end"], spec["end_to_end"])
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print_summary(report, shown, out_path)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
