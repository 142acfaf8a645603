"""A terminal LP of a cutting-plane solve, posed again at another parameter value.

The Benders tests check a cut against the terminal LP's value away from the
anchor; ``src/`` never re-solves a terminal LP, so the helper lives here.
"""

import numpy as np

from micpkit.milp import _lp_at_param


def lp_at(terminal, x):
    """The decision-space LP of ``terminal``'s rows at parameter ``x``."""
    x = np.asarray(x, dtype=float).ravel()
    lpp, _ = terminal.anchor
    return _lp_at_param(lpp.c, terminal.rows, x, lpp.lb, lpp.ub)
