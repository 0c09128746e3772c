"""Named-residual reports: the common currency of every verification check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Condition:
    """One named residual with its tolerance and verdict.

    status is "pass", "fail" or "indeterminate"; an indeterminate condition
    (e.g. a skipped inversion) never counts as passing.
    """

    name: str
    residual: float
    tolerance: float
    status: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        # NaN marks an unmeasured residual and inf an unbounded one; strict
        # JSON wants null for both (the status tells fail from indeterminate)
        residual = float(self.residual) if math.isfinite(self.residual) else None
        out = {
            "name": self.name,
            "residual": residual,
            "tolerance": float(self.tolerance),
            "status": self.status,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ConditionReport:
    """All conditions of one check, plus free-form diagnostic info."""

    name: str
    conditions: list[Condition] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions)

    def add(self, name: str, residual: float, tolerance: float, detail: str = ""):
        status = "pass" if residual <= tolerance else "fail"
        self.conditions.append(Condition(name=name, residual=float(residual),
                                         tolerance=float(tolerance), status=status,
                                         detail=detail))

    def add_indeterminate(self, name: str, tolerance: float, detail: str):
        self.conditions.append(Condition(name=name, residual=float("nan"),
                                         tolerance=float(tolerance),
                                         status="indeterminate", detail=detail))

    def condition(self, name: str) -> Condition:
        for cond in self.conditions:
            if cond.name == name:
                return cond
        raise KeyError(name)

    def worst(self) -> float:
        residuals = [c.residual for c in self.conditions if c.status != "indeterminate"]
        return max(residuals, default=0.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "overall": self.overall,
            "conditions": [c.to_dict() for c in self.conditions],
            "info": _plain(self.info),
        }


def _plain(value):
    """Recursively convert numpy scalars/arrays so strict JSON can serialize
    the dict: a non-finite float becomes None."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, complex):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
