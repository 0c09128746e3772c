"""Command-line driver.

    cdlab run <scenario.json>          run a whole verification campaign
    cdlab run <scenario> --only <check> --report out.json
                                       run one kind of check; write the report
    cdlab list                         registered checks and their parameters
    cdlab curvature --kernel bergman:2 --rmax 0.6 --out field.csv

Exit codes: 0 all verdicts pass, 1 verification failure, 2 usage or schema
error.  Scenario arguments may name a bundled scenario (see `scenarios/`
inside the package) instead of a file path.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .errors import CdlabError, PrecisionError, SchemaError
from .geometry import covariant_derivative, curvature, gram_metric, kernel_frame
from .kernels import required_truncation
from .scenarios import (KERNEL, ScenarioContext, list_checks, parameter_docs,
                        run_scenario)
from .serialize import curvature_field_to_json, write_curvature_csv

EXIT_PASS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2


def bundled_scenario_dir() -> Path:
    return Path(resources.files("cdlab") / "scenarios")


def _resolve_scenario(arg: str) -> Path:
    path = Path(arg)
    if path.exists():
        return path
    for candidate in (arg, arg + ".json"):
        bundled = bundled_scenario_dir() / candidate
        if bundled.exists():
            return bundled
    raise SchemaError(f"no scenario file or bundled scenario named {arg!r}")


def _cmd_run(args) -> int:
    result = run_scenario(_resolve_scenario(args.scenario), only_check=args.only)
    print(result.summary())
    if args.report:
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(result.to_json() + "\n", encoding="utf-8")
    return EXIT_PASS if result.overall else EXIT_VERIFICATION_FAILURE


def _cmd_list(_args) -> int:
    for check in list_checks():
        print(f"{check.name:20s} {check.description}")
        print(f"{'':20s}   [{check.anchor}]")
        for name, doc in parameter_docs(check.runner):
            print(f"{'':20s}   {name:22s} {doc}")
    return EXIT_PASS


def _derivative(text: str) -> tuple[int, int]:
    """A covariant derivative order "I,J"."""
    try:
        i, j = map(int, text.split(","))
    except ValueError:
        i = j = -1
    if i < 0 or j < 0:
        raise argparse.ArgumentTypeError(
            f"expected two nonnegative orders I,J, got {text!r}")
    return i, j


def _cmd_curvature(args) -> int:
    # read as a scenario's kernel and grid are, so bad values are SchemaErrors
    preset, _, weight = args.kernel.partition(":")
    if weight.isdecimal():  # the schema reads no number from a string
        weight = int(weight)
    ctx = ScenarioContext(scenario=None)
    kernel = ctx.read(KERNEL, {"preset": preset, "n": weight, "N": args.truncation},
                      "kernel")
    # the grid options left out take the scenario grid's defaults
    grid = ctx.grid({key: value for key in ("rmax", "n_radii", "n_angles", "fd_step")
                     if (value := getattr(args, key)) is not None}, "grid")
    # the tail rule that diagonal_ratio applies, at the grid's largest radius
    radius = float(abs(grid.points).max())
    needed = required_truncation(radius)
    if kernel.truncation < needed:
        raise PrecisionError(f"truncation {kernel.truncation} insufficient for "
                             f"radius {radius:.6g}; need N >= {needed}",
                             required_truncation=needed)
    metric = gram_metric(kernel_frame(kernel, grid))
    field = curvature(metric, grid, method=args.method)
    for i, j in args.derivative or []:
        covariant_derivative(field, metric, i, j)
    if args.out:
        write_curvature_csv(args.out, {kernel.label: field})
        print(f"wrote {args.out}")
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(curvature_field_to_json(field), indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"wrote {args.json_out}")
    if not args.out and not args.json_out:
        for w, mat in zip(grid.points, field.values):
            print(f"{w.real:+.4f}{w.imag:+.4f}i  K = {mat[0, 0].real:+.8e}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlab",
        description="verification campaigns for coupled operator models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--only", default=None, help="restrict to one check kind")
    p_run.add_argument("--report", default=None, help="also write the JSON report here")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list registered checks")
    p_list.set_defaults(func=_cmd_list)

    p_curv = sub.add_parser("curvature", help="export a curvature field")
    p_curv.add_argument("--kernel", required=True, help="e.g. bergman:2")
    p_curv.add_argument("--rmax", type=float)
    p_curv.add_argument("--n-radii", type=int)
    p_curv.add_argument("--n-angles", type=int)
    p_curv.add_argument("--truncation", type=int, default=80,
                        help="kernel truncation N")
    p_curv.add_argument("--fd-step", type=float)
    p_curv.add_argument("--method", choices=("series", "fd"), default="series")
    p_curv.add_argument("--derivative", action="append", type=_derivative,
                        metavar="I,J",
                        help="covariant derivative order, repeatable")
    p_curv.add_argument("--out", default=None, help="CSV output path")
    p_curv.add_argument("--json-out", default=None)
    p_curv.set_defaults(func=_cmd_curvature)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CdlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
