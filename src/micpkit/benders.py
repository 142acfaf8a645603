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

tight at the parameter where the duals are optimal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolation, ModelError, NumericalFailure, RecourseError
from .micp import MicpOptions, micp_solve
from .milp import TerminalLp
from .model import ModelInstance, check_assumptions
from .simplex import LpProblem, lp_dual_certificate, lp_solve

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


def _select_duals(terminal: TerminalLp, sol, lpp):
    """Deterministic dual choice on a degenerate optimal face.

    Re-optimizes over the dual-optimal polytope with row ``k`` of ``m``
    weighted ``2 - k/m``, so rows listed later are cheaper.
    ``extract_terminal_lp`` lists the model rows first, then the chosen cut
    rows newest first, then the value-function row if one was needed; so the
    dual mass settles on the oldest chosen cuts and the value-function row,
    and on the model rows least.  Returns ``(row duals, lower-bound duals,
    upper-bound duals)``, the simplex duals of ``sol`` when the selection LP
    fails; ``sol`` itself is left as it is.
    """
    m = len(terminal.rows)
    n = terminal.c.size
    if m == 0:
        return sol.dual_ub, sol.dual_lb, sol.dual_ubound
    D = np.vstack([r.cy for r in terminal.rows])
    # variables: lam(m), mu_l(n), mu_u(n)
    nv = m + 2 * n
    A_eq = np.zeros((n + 1, nv))
    b_eq = np.zeros(n + 1)
    A_eq[:n, :m] = D.T
    A_eq[:n, m : m + n] = -np.eye(n)
    A_eq[:n, m + n :] = np.eye(n)
    b_eq[:n] = -terminal.c
    # dual objective pinned to the primal optimum
    A_eq[n, :m] = -lpp.b_ub
    A_eq[n, m : m + n] = lpp.lb
    A_eq[n, m + n :] = -lpp.ub
    b_eq[n] = sol.obj
    w = np.array([2.0 - k / max(1, m) for k in range(m)])
    c = np.concatenate([w, np.full(2 * n, 1e-3)])
    cap = 1e6
    sel = lp_solve(LpProblem.build(c, None, None, A_eq, b_eq,
                                   np.zeros(nv), np.full(nv, cap)))
    if sel.status != "optimal":
        return sol.dual_ub, sol.dual_lb, sol.dual_ubound
    return sel.x[:m], sel.x[m : m + n], sel.x[m + n :]


def benders_cut_from_terminal_lp(terminal: TerminalLp) -> BendersCut:
    """Build the value-function cut from certified terminal-LP duals."""
    lpp, sol = terminal.solve_anchor()
    if sol.status != "optimal":
        raise NumericalFailure(f"terminal LP solve returned {sol.status}")
    report = lp_dual_certificate(sol, lpp)
    if not report.ok:
        raise NumericalFailure("terminal LP dual certificate failed; aborting cut generation")
    lam, mu_l, mu_u = _select_duals(terminal, sol, lpp)
    C, _, F = terminal.blocks()
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
    product-form subdifferential; infeasibility at the parameter contradicts
    the standing feasibility assumption (relatively complete recourse) and is
    raised as ``RecourseError``.
    """
    if model.param_block is None:
        raise ModelError("parametric solve needs a model with a parameter block")
    structure = check_assumptions(model)
    if not structure.all_product_form():
        bad = [i for i, ok in enumerate(structure.product_form) if not ok]
        raise AssumptionViolation(
            f"convex rows {bad} are nonsmooth and couple the blocks; parametric cuts unavailable"
        )
    cert = micp_solve(model, opts, param_value=param_value)
    if cert.status == "infeasible":
        xv = [param_value[i] for i in model.param_block]
        raise RecourseError(f"second stage infeasible at parameter {xv}")
    if cert.status != "optimal":
        raise NumericalFailure(f"second-stage solve returned {cert.status}")
    return cert
