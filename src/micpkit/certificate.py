"""Solve certificates shared by every solver entry point."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolveCertificate:
    status: str                 # optimal | infeasible | budget-exhausted | numerical-failure
    x: np.ndarray | None = None
    objective: float | None = None
    bounds_history: list = field(default_factory=list)   # (iteration, L, U)
    cut_pool: list = field(default_factory=list)          # serializable cut dicts
    iterations: int = 0
    branch_exits: list = field(default_factory=list)
    oracle_counts: dict = field(default_factory=dict)
    wall_time: float = 0.0
    trace: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "status": self.status,
            "x": None if self.x is None else [float(v) for v in self.x],
            "objective": self.objective,
            "bounds_history": [[int(n), _num(L), _num(U)] for n, L, U in self.bounds_history],
            "iterations": self.iterations,
            "branch_exits": list(self.branch_exits),
            "oracle_counts": dict(self.oracle_counts),
            "wall_time": self.wall_time,
            "cuts": len(self.cut_pool),
        }


def _num(v):
    if v is None:
        return None
    v = float(v)
    return v if np.isfinite(v) else None


def write_trace(path, rows):
    """One JSON object per line, UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
