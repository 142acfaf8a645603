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
    cut_pool: list = field(default_factory=list)          # serializable cut dicts
    iterations: int = 0
    branch_exits: list = field(default_factory=list)
    oracle_counts: dict = field(default_factory=dict)
    wall_time: float = 0.0
    trace: list = field(default_factory=list)             # one row per iteration, with its bounds L, U
    extras: dict = field(default_factory=dict)


def write_trace(path, rows):
    """One JSON object per line, UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
