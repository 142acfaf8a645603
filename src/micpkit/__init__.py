"""micpkit: cutting-plane toolkit for mixed-integer convex programs.

Self-contained kernels (dense simplex, interior-point convex solver,
mixed-integer engine) under a finitely convergent cutting-plane MICP solver
and one decomposition loop that solves distributionally robust two-stage
programs and, with a single scenario, plain Benders decomposition, with a
brute-force verification oracle and a CLI.
"""

from .barrier import (
    ConvexProgram,
    KktCertificate,
    NormalConeDecomposition,
    convex_solve,
    decompose_normal_cone,
    lp_equivalence_check,
    project,
    supporting_inequalities,
)
from .benders import BendersCut, benders_cut_from_terminal_lp, parametric_solve
from .bruteforce import brute_force, brute_force_two_stage, extensive_form
from .certificate import SolveCertificate
from .errors import (
    AssumptionViolation,
    DecompositionFailure,
    ModelError,
    NumericalFailure,
    RecourseError,
)
from .expr import (
    Affine,
    ConvexExpr,
    LogSumExp,
    NormAffine,
    PowerAffine,
    Softplus,
    SquaredNorm,
    WeightedSum,
    expr_from_dict,
)
from .generate import generate_instance
from .micp import MicpOptions, build_master, micp_solve, polish_step
from .milp import (
    CutRecord,
    MilpProblem,
    MilpResult,
    MilpRow,
    TerminalLp,
    milp_solve,
)
from .model import (
    LinearObjective,
    ModelInstance,
    VariableSpec,
    check_assumptions,
    epigraph_reformulate,
)
from .modelio import from_document, load, save, to_document
from .simplex import LpProblem, LpSolution, lp_dual_certificate, lp_solve
from .twostage import (
    AmbiguitySet,
    DrOptions,
    Scenario,
    ScenarioDual,
    TwoStageInstance,
    aggregate_benders,
    decompose_solve,
    dr_solve,
    worst_case_distribution,
)

__version__ = "0.1.0"
