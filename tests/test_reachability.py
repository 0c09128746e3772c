"""Every `def` in src/cdlab runs from a shipped entry point, or is allowed.

A fresh interpreter imports cdlab under `sys.setprofile` and runs what the
console script ships: the six bundled scenarios by name with `--report`,
`cdlab list`, the series and fd routes of `cdlab curvature` with both
exports, and SCENARIO, which reaches every kernel form and operator source
and the errors that checks raise.  A `def` that none of them calls and that
ALLOWED does not name fails the test, by name: code that no entry point
reads is deleted rather than kept.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

# cdlab is imported only under the profile, so its import-time calls count
SRC = Path(__file__).resolve().parents[1] / "src" / "cdlab"

# qualified name -> why it stays without a caller in an entry point
ALLOWED = {
    "kernels.section_vector": "perfbench's tracer binds it (ROADMAP items 1 and 26)",
    "operators.UpperTriangularModel.t": "perfbench reads the dense T (ROADMAP item 17)",
    "reporting.ConditionReport.worst": "perfbench reads a report's worst residual",
    "operators.IntertwinerSpace.basis": "a view for the tests",
    "reporting.ConditionReport.condition": "a view for the tests",
    "scenarios._document": "a schema that only inspect.signature reads",
}

# a nilpotent Jordan block: not normal, so the main lemma refuses it
JORDAN = {"rows": 4, "cols": 4,
          "re": [1.0 if col == row + 1 else 0.0 for row in range(4) for col in range(4)],
          "im": [0.0] * 16}
SCENARIO = {
    "name": "reach",
    "seed": 3,
    "kernels": {"b": {"preset": "bergman", "n": 1, "N": 4},
                "c": {"coeffs": [1.0, 2.0, 3.0, 4.0]}},
    "operators": {
        "F": {"file": "jordan.json"},
        "J": {"matrix": JORDAN},
        "S": {"shift_from": "c"},
        "R": {"random": {"size": 4, "kind": "normal"}},
        "I": {"identity": {"size": 4}},
        "Z": {"scalar": {"size": 4, "value": [0.5, 0.5]}},
        "D": {"diagonal": {"values": [2.0, 0.5, 0.25, 0.1]}},
        # U10 = (1 + X X*)^(-1/2) has 1-norm condition number 1e12
        "H": {"diagonal": {"values": [1e12, 0.0, 0.0, 0.0]}},
        "A": {"adjoint_of": {"source": "S"}},
        "P": {"poly_of": {"source": "R", "coeffs": [1.0, 0.5]}},
        "W": {"swap_pairs": {"size": 4}},
        "Q": {"mobius_pair_diagonal": {"a": 0.3, "seeds": [0.1, 0.2]}},
    },
    "checks": [
        {"check": "mainlemma", "id": "not-normal",
         "params": {"t0_kernel": "b", "t1_kernel": "c", "x": "F"}},
        {"check": "mainlemma", "id": "ill-conditioned-u10",
         "params": {"t0_kernel": "b", "t1_kernel": "c", "x": "H"}},
        {"check": "separator", "id": "short-truncation",
         "params": {"k0": "b", "k1": "c"}},
        # I - 0.5 T0 is singular: T0 has the eigenvalue 2
        {"check": "homogeneity", "id": "singular-resolvent",
         "params": {"model": {"t0_op": "D", "t1_op": "D"},
                    "witness": [{"a": 0.5, "u0": "I", "u1": "I"}]}},
        {"check": "fb2-membership", "id": "dense-sources",
         "params": {"model": {"t0_op": "J", "t1_op": "A", "x": "P"}}},
        {"check": "sylvester", "id": "more-sources",
         "params": {"cases": [{"a": "W", "b": "Q", "expected_dim": 0},
                              {"a": "Z", "b": "S", "expected_dim": 0}]}},
    ],
}
# check id -> the error it ends in; the others end in a report
EXPECTED_ERRORS = {"not-normal": "PreconditionError",
                   "short-truncation": "PrecisionError",
                   "singular-resolvent": "SingularResolventError"}


def _defs() -> dict:
    """{(file, first line): qualified name} of every def in the package; a
    decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = f"{prefix}.{child.name}"
                walk(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return out


def _run_entry_points(workdir: Path) -> None:
    """Run the entry points in this fresh interpreter and print the (file,
    first line) of every function called in the package, cdlab's import
    included, as JSON."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from cdlab.cli import bundled_scenario_dir, main

        os.chdir(workdir)  # bergman-curvature writes its field here
        codes = [main(["run", path.stem, "--report", f"{path.stem}.json"])
                 for path in sorted(bundled_scenario_dir().glob("*.json"))]
        codes.append(main(["list"]))
        for method in ("series", "fd"):
            codes.append(main([
                "curvature", "--kernel", "bergman:2", "--method", method,
                "--rmax", "0.4", "--n-radii", "2", "--n-angles", "4",
                "--truncation", "40", "--derivative", "1,0",
                "--out", f"{method}.csv", "--json-out", f"{method}.json"]))
        Path("jordan.json").write_text(json.dumps(JORDAN), encoding="utf-8")
        Path("reach-scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
        codes.append(main(["run", "reach-scenario.json", "--report", "reach.json"]))
    finally:
        sys.setprofile(None)
    json.dump({"codes": codes,
               "called": sorted({(os.path.realpath(c.co_filename), c.co_firstlineno)
                                 for c in called})},
              sys.stdout)


def test_every_def_is_reached_or_allowed(tmp_path):
    path = filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # six bundled campaigns pass, list and both exports pass, SCENARIO fails
    assert out["codes"] == [0] * 9 + [1]
    outcomes = {entry["label"]: entry
                for entry in json.loads((tmp_path / "reach.json").read_text())["checks"]}
    for label, entry in outcomes.items():
        error = (entry.get("error") or "").partition(":")[0]
        assert error == EXPECTED_ERRORS.get(label, ""), (label, entry.get("error"))
    indeterminate = [c["name"] for c in outcomes["ill-conditioned-u10"]["conditions"]
                     if c["status"] == "indeterminate"]
    assert indeterminate, outcomes["ill-conditioned-u10"]

    defs = _defs()
    gone = sorted(set(ALLOWED) - set(defs.values()))
    assert not gone, f"ALLOWED names what is no def in src/cdlab: {gone}"
    called = {tuple(key) for key in out["called"]}
    unreached = {name for key, name in defs.items() if key not in called}
    extra = sorted(unreached - set(ALLOWED))
    assert not extra, (f"no entry point calls {extra}: delete them, or allow "
                       f"each in ALLOWED with its reason")
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"entry points now call {stale}: drop them from ALLOWED"


def test_scenario_names_every_kernel_form_and_operator_source():
    from cdlab.scenarios import KERNEL, SOURCES

    sources = {key for spec in SCENARIO["operators"].values() for key in spec}
    assert sources == set(SOURCES)
    forms = {"coeffs" if "coeffs" in spec else "bergman"
             for spec in SCENARIO["kernels"].values()}
    assert forms == {form.__name__.strip("_") for form in KERNEL}


if __name__ == "__main__":
    _run_entry_points(Path(sys.argv[1]))
