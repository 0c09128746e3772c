"""JSON and CSV wire formats.

Matrices travel as {"rows": N, "cols": N, "re": [...], "im": [...]} with
row-major flat lists; this module writes them, and scenarios read them (a
`matrix` or `file` operator) through the scenario schema.  Field exports are
plain CSV so they can be plotted without custom tooling.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import SchemaError


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise SchemaError("only 2-d matrices serialize")
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "re": [float(v) for v in mat.real.ravel()],
        "im": [float(v) for v in mat.imag.ravel()],
    }


def write_ratio_csv(path: str | Path, samples):
    """diagonal_ratio rows -> CSV with columns radius, k0, k1, ratio."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "k0", "k1", "ratio"])
        for s in samples:
            writer.writerow([repr(s.radius), repr(s.k0), repr(s.k1), repr(s.ratio)])


def _field_labels(field) -> dict:
    """{key: label} in export order: K at (0, 0), then K_w{i}wb{j} for each
    covariant derivative (i, j)."""
    return {key: "K" if key == (0, 0) else f"K_w{key[0]}wb{key[1]}"
            for key in [(0, 0)] + sorted(field.derivatives)}


def _field_columns(rank: int, labels) -> list[str]:
    cols = ["re_w", "im_w"]
    for label in labels:
        for p in range(rank):
            for q in range(rank):
                cols.append(f"{label}_{p}{q}_re")
                cols.append(f"{label}_{p}{q}_im")
    return cols


def write_curvature_csv(path: str | Path, fields: dict) -> None:
    """{kernel label: CurvatureField} -> CSV, one block of rows per field.

    Each row holds re(w), im(w), the row-major re/im entries of every
    matrix, and the kernel label last.  The fields must share their rank
    and their covariant derivatives, so one header fits them all.
    """
    layouts = {(fld.rank, tuple(_field_labels(fld).items()))
               for fld in fields.values()}
    if len(layouts) != 1:
        raise SchemaError("curvature CSV fields need one rank and one set of "
                          f"derivatives, got {sorted(layouts)}")
    ((rank, items),) = layouts
    labels = dict(items)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_field_columns(rank, labels.values()) + ["kernel"])
        for kernel, fld in fields.items():
            for idx, w in enumerate(fld.grid.points):
                row = [repr(float(w.real)), repr(float(w.imag))]
                for mat in fld.tuple_at(idx, labels):
                    for value in np.asarray(mat).ravel():
                        row.append(repr(float(value.real)))
                        row.append(repr(float(value.imag)))
                writer.writerow(row + [kernel])


def curvature_field_to_json(field) -> dict:
    labels = _field_labels(field)
    points = []
    for idx, w in enumerate(field.grid.points):
        entry = {"re_w": float(w.real), "im_w": float(w.imag)}
        for label, mat in zip(labels.values(), field.tuple_at(idx, labels)):
            mat = np.asarray(mat)
            entry[label] = {
                "re": [float(v) for v in mat.real.ravel()],
                "im": [float(v) for v in mat.imag.ravel()],
            }
        points.append(entry)
    return {"rank": field.rank, "method": field.method, "points": points}
