"""Command-line entry points.

Exit codes: 0 success, 2 infeasible, 3 iteration budget exhausted or a
numerical failure (``NumericalFailure``), 4 input error (bad flags,
unreadable files, malformed models).
"""

from __future__ import annotations

import argparse
import math
import sys

from .bruteforce import brute_force, brute_force_two_stage
from .certificate import write_trace
from .errors import ModelError, NumericalFailure, RecourseError
from .generate import PROFILES, generate_instance
from .micp import MicpOptions, micp_solve
from .modelio import dumps, load, save, to_document
from .section6 import replay
from .twostage import DrOptions, TwoStageInstance, decompose_solve, dr_solve

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


def _count(text):
    """argparse type of ``--count`` and ``--max-iter``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _seed(text):
    """argparse type of ``--seed``: a non-negative integer, as numpy's generator takes."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _tolerance(text):
    """argparse type of ``--tol``: a finite positive number."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _build_parser():
    parser = _Parser(prog="micpkit", description="Cutting-plane toolkit for mixed-integer convex programs")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a model file")
    ps.add_argument("model")
    ps.add_argument("--mode", choices=("direct", "decompose", "twostage"), default="direct")
    ps.add_argument("--tol", type=_tolerance, default=1e-6)
    ps.add_argument("--max-iter", type=_count, default=500)
    ps.add_argument("--milp-mode", choices=("bb", "cp"), default="bb")
    ps.add_argument("--trace", default=None)

    pv = sub.add_parser("verify", help="cross-check the solver against brute force")
    pv.add_argument("model", nargs="?", default=None)
    pv.add_argument("--profile", choices=PROFILES, default="micp-smooth")
    pv.add_argument("--count", type=_count, default=10)
    pv.add_argument("--seed", type=_seed, default=0)
    pv.add_argument("--tol", type=_tolerance, default=1e-6)

    pg = sub.add_parser("generate", help="write a seeded random instance")
    pg.add_argument("--profile", choices=PROFILES, required=True)
    pg.add_argument("--seed", type=_seed, default=0)
    pg.add_argument("--out", default=None)

    pr = sub.add_parser("replay-section6", help="replay the bundled walkthrough fixture")
    pr.add_argument("--trace", default=None)
    return parser


def _status_exit(status):
    if status == "optimal":
        return EXIT_OK
    if status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_BUDGET


def _fmt_vec(x):
    return "[" + ", ".join(f"{float(v):g}" for v in x) + "]"


def _cmd_solve(args):
    try:
        obj = load(args.model)
    except (OSError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.mode in ("twostage", "decompose"):
        opts = DrOptions(tol=args.tol, max_iter=args.max_iter, milp_mode=args.milp_mode)
    if args.mode == "twostage":
        if not isinstance(obj, TwoStageInstance):
            print("error: --mode twostage needs a two-stage model file", file=sys.stderr)
            return EXIT_INPUT
        cert = dr_solve(obj, opts)
    elif args.mode == "decompose":
        if isinstance(obj, TwoStageInstance):
            print("error: --mode decompose expects a joint model with a parameter block",
                  file=sys.stderr)
            return EXIT_INPUT
        cert = decompose_solve(obj, opts)
    else:
        if isinstance(obj, TwoStageInstance):
            print("error: --mode direct expects a plain model file", file=sys.stderr)
            return EXIT_INPUT
        cert = micp_solve(obj, MicpOptions(tol=args.tol, max_iter=args.max_iter,
                                           milp_mode=args.milp_mode))
    if args.trace:
        write_trace(args.trace, cert.trace)
    if cert.status == "optimal":
        print("status: optimal")
        print(f"x* = {_fmt_vec(cert.x)}")
        print(f"objective = {cert.objective:.10g}")
    else:
        print(f"status: {cert.status}")
        if cert.status == "budget-exhausted" and cert.trace:
            last = cert.trace[-1]   # a bound not yet found is None in the trace
            L = -math.inf if last["L"] is None else last["L"]
            U = math.inf if last["U"] is None else last["U"]
            print(f"bounds: L={L} U={U}")
    return _status_exit(cert.status)


def _cmd_verify(args):
    if args.model:
        try:
            obj = load(args.model)
        except (OSError, ModelError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        instances = [obj]
    else:
        instances = [generate_instance(args.seed + k, args.profile) for k in range(args.count)]
    matches = 0
    for k, inst in enumerate(instances):
        if isinstance(inst, TwoStageInstance):
            ref = brute_force_two_stage(inst)
            got = dr_solve(inst, DrOptions(tol=args.tol))
        else:
            ref = brute_force(inst)
            got = micp_solve(inst, MicpOptions(tol=args.tol))
        if ref.status == got.status == "optimal":
            ok = abs(ref.value - got.objective) <= args.tol * (1.0 + abs(ref.value))
        else:
            ok = ref.status == got.status
        matches += bool(ok)
        if not ok:
            print(f"MISMATCH on instance {k}: reference={ref.status}/{getattr(ref, 'value', None)} "
                  f"solver={got.status}/{got.objective}")
    print(f"MATCH {matches}/{len(instances)}")
    return EXIT_OK if matches == len(instances) else EXIT_BUDGET


def _cmd_generate(args):
    inst = generate_instance(args.seed, args.profile)
    if args.out:
        save(inst, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dumps(to_document(inst)))
    return EXIT_OK


def _cmd_replay(args):
    trace, artifacts = replay()
    if args.trace:
        write_trace(args.trace, trace)
    for row in trace:
        step = row.get("step", "")
        detail = {k: v for k, v in row.items() if k != "step"}
        print(f"{step}: {detail}")
    print(f"x* = {_fmt_vec(artifacts['x_star'])}, objective = {artifacts['objective']:.6g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "replay-section6":
            return _cmd_replay(args)
    except RecourseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
