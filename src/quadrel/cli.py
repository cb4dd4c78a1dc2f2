"""Command-line front end.

Subcommands: solve, pf, mc-check, doe, bench, compare.  A problem is
named either by a builtin registry key (``quadrel bench --list``) or by
the path of a JSON problem file.  Exit codes: 0 ok, 2 input error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from .doe import Scheme, plan_to_csv
from .errors import (
    ConvergenceError,
    ProblemFormatError,
    QuadrelError,
    SolverFailureError,
)
from .montecarlo import MIN_SAMPLES
from .pf import beta_generalized, pf_quadratic
from .problem_io import build_problem, load_document, save_result, target_value, trace_to_csv
from .problems import builtin_problems
from .quadratic import standard_normal_map, to_standard_normal
from .solver import (
    EvalCounters,
    RbdoResult,
    doe_plan,
    mc_audit,
    rbdo_double_loop_form,
    rssl_solve,
    solve_deterministic,
)


def _load_problem(args):
    """Resolve the positional problem argument into an RbdoProblem.

    ``--pf`` / ``--beta`` replace every constraint's target; each must lie in
    the range a problem file's ``targets`` has.  ``--coeff-file`` is for the
    crashworthiness builtin only.
    """
    if args.coeff_file is not None and args.problem != "crashworthiness":
        raise ProblemFormatError("--coeff-file applies only to the crashworthiness builtin",
                                 path="--coeff-file")
    if args.pf is not None:
        target = {"pf_all": target_value("pf_all", args.pf, "--pf")}
    elif args.beta is not None:
        target = {"beta_d": target_value("beta_d", args.beta, "--beta")}
    else:
        target = {}
    builders = builtin_problems()
    if args.problem in builders:
        builder = builders[args.problem]
        problem = builder(args.coeff_file) if args.coeff_file else builder()
        if target:
            target = {"beta_d": None, "pf_all": None} | target
            problem.constraints = [replace(spec, **target) for spec in problem.constraints]
        return problem
    doc = load_document(args.problem)
    if target:
        doc["targets"] = target
        constraints = doc.get("constraints")
        for con in constraints if isinstance(constraints, list) else []:
            if isinstance(con, dict):
                con.pop("beta_d", None)
                con.pop("pf_all", None)
    return build_problem(doc)


def _check_mc_flags(args):
    """``--seed`` and ``--mc-n``, checked before any work (``mc_pf`` checks
    them again for library callers).  ``--mc-n 0`` skips the audit, except on
    mc-check, whose work is the audit."""
    if args.seed < 0:
        raise ProblemFormatError(f"needs --seed >= 0, got {args.seed}", path="--seed")
    if not hasattr(args, "mc_n"):
        return
    can_skip = args.command != "mc-check"
    if args.mc_n < MIN_SAMPLES and not (can_skip and args.mc_n == 0):
        hint = " (or 0 to skip the audit)" if can_skip else ""
        raise ProblemFormatError(f"needs --mc-n >= {MIN_SAMPLES}{hint}, got {args.mc_n}",
                                 path="--mc-n")


def _design_point(args, problem):
    """Design means from ``--at``, or the problem's start point."""
    if not args.at:
        return problem.design_start()
    n = len(problem.design_indices)
    try:
        vals = np.array([float(tok) for tok in args.at.split(",")])
    except ValueError as exc:
        raise ProblemFormatError("--at must be comma-separated numbers", path="--at") from exc
    if vals.size != n:
        raise ProblemFormatError(f"--at needs {n} components, got {vals.size}", path="--at")
    if not np.isfinite(vals).all():
        raise ProblemFormatError(f"--at components must be finite, got {args.at}", path="--at")
    return vals


def _print_mc(constraints, estimates):
    for spec, est in zip(constraints, estimates):
        print(f"pf_mc[{spec.name}]         {est.pf_hat:.6g} +- {est.ci95_halfwidth:.2g}"
              f"  (beta {beta_generalized(est.pf_hat):.4f}, n={est.n}, seed={est.seed})")


def _print_report(problem, res: RbdoResult):
    print(f"method            {res.method}")
    if res.mu_det is not None:
        print(f"mu_det            {np.round(res.mu_det, 6).tolist()}")
    print(f"mu_opt            {np.round(res.mu_opt, 6).tolist()}")
    print(f"objective         {res.objective_value:.6g}")
    for spec, pf in zip(problem.constraints, res.pf_closed_form):
        print(f"pf_cf[{spec.name}]         {pf:.6g}  (beta {beta_generalized(pf):.4f})")
    if res.pf_mc:
        _print_mc(problem.constraints, res.pf_mc)
    c = res.counters
    print(f"g evals           {c.deterministic_g_evals} (DOE {res.doe_evals})")
    print(f"g* evals          {c.gstar_evals}")


def _run_method(problem, method):
    if method == "rssl":
        return rssl_solve(problem)
    if method == "form-double-loop":
        return rbdo_double_loop_form(problem)
    counters = EvalCounters()
    mu_det = solve_deterministic(problem, counters=counters)
    return RbdoResult(
        method="deterministic", mu_opt=mu_det,
        objective_value=float(problem.objective(mu_det)),
        pf_closed_form=[], counters=counters, trace=[], success=True,
        mu_det=mu_det,
    )


def cmd_solve(args) -> int:
    problem = _load_problem(args)
    t0 = time.perf_counter()
    res = _run_method(problem, args.method)
    if args.mc_n > 0 and args.method != "deterministic":
        res.pf_mc = mc_audit(problem, res.mu_opt, n=args.mc_n, seed=args.seed)
    wall = time.perf_counter() - t0
    _print_report(problem, res)
    print(f"wall time         {wall:.2f} s")
    if args.out:
        save_result(res, args.out, wall_time=wall)
    if args.trace:
        trace_to_csv(res.trace, args.trace)
    return 0


def cmd_pf(args) -> int:
    problem = _load_problem(args)
    if not 0 <= args.index < len(problem.constraints):
        raise ProblemFormatError(
            f"--index must be in [0, {len(problem.constraints) - 1}]", path="--index")
    spec = problem.constraints[args.index]
    if spec.quadratic is None:
        raise ProblemFormatError(
            f"constraint {spec.name!r} is a black-box limit state; pf diagnostics "
            "need an explicit quadratic (run 'solve' to fit surrogates)",
            path=f"constraints[{args.index}]")
    mu_design = _design_point(args, problem)
    snmap = standard_normal_map(problem.variables_at(problem.full_mean(mu_design)), problem.corr)
    qn = to_standard_normal(spec.quadratic, snmap)
    pf, diag = pf_quadratic(qn)
    print(f"constraint        {spec.name}")
    print(f"mu_design         {np.round(mu_design, 6).tolist()}")
    print(f"pf                {pf:.6g}")
    print(f"beta_generalized  {beta_generalized(pf):.6g}")
    print(f"branch            {diag.branch.value}")
    print(f"kappa             {diag.kappa:.6g}")
    if diag.h is not None:
        print(f"h                 {diag.h:.6g}")
    if diag.q0 is not None:
        print(f"q0                {diag.q0:.6g}")
    if diag.degenerate:
        print("degenerate        constant limit state")
    return 0


def cmd_mc_check(args) -> int:
    problem = _load_problem(args)
    mu_design = _design_point(args, problem)
    # audit first, so that an audit that fails leaves stdout empty
    estimates = mc_audit(problem, mu_design, n=args.mc_n, seed=args.seed)
    print(f"mu_design         {np.round(mu_design, 6).tolist()}")
    _print_mc(problem.constraints, estimates)
    return 0


def cmd_doe(args) -> int:
    problem = _load_problem(args)
    mu_full = problem.full_mean(_design_point(args, problem))
    beta_d = max(s.beta_target for s in problem.constraints)
    scheme = Scheme(args.scheme) if args.scheme else problem.doe_scheme
    plan = doe_plan(problem, mu_full, beta_d, scheme)
    plan_to_csv(plan, [v.name for v in problem.variables], args.out)
    print(f"wrote {plan.size} {plan.scheme.value} points to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.list:
        for name in sorted(builtin_problems()):
            print(name)
        return 0
    if args.problem is None:
        raise ProblemFormatError("bench needs a problem name (or --list)", path="problem")
    args.method = "rssl"
    return cmd_solve(args)


def cmd_compare(args) -> int:
    problem = _load_problem(args)  # neither solve mutates it
    rows = {}
    for method in ("rssl", "form-double-loop"):
        res = _run_method(problem, method)
        if args.mc_n > 0:
            res.pf_mc = mc_audit(problem, res.mu_opt, n=args.mc_n, seed=args.seed)
        rows[method] = res

    nd = len(problem.design_indices)
    labels = [f"mu_{problem.variables[i].name}" for i in problem.design_indices]
    labels.append("objective")
    for spec in problem.constraints:
        labels.append(f"pf_mc[{spec.name}] %")

    print(f"{'':18s}" + "".join(f"{m:>20s}" for m in rows))
    for j, label in enumerate(labels):
        line = f"{label:18s}"
        for res in rows.values():
            if j < nd:
                val = f"{res.mu_opt[j]:.4f}"
            elif j == nd:
                val = f"{res.objective_value:.4f}"
            else:
                est = res.pf_mc[j - nd - 1] if res.pf_mc else None
                val = f"{100 * est.pf_hat:.4f}" if est else "-"
            line += f"{val:>20s}"
        print(line)
    return 0


def _add_common(sub, at=False):
    sub.add_argument("problem", nargs="?" if sub.prog.endswith("bench") else None,
                     help="builtin problem name or JSON problem file")
    sub.add_argument("--beta", type=float, default=None,
                     help="override the target reliability index for every constraint")
    sub.add_argument("--pf", type=float, default=None,
                     help="override the allowed failure probability for every constraint")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--coeff-file", default=None,
                     help="coefficient CSV for the crashworthiness builtin")
    if at:
        sub.add_argument("--at", default=None,
                         help="comma-separated design means (default: start point)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrel",
        description="Reliability-based design optimization with closed-form "
                    "failure probabilities for quadratic limit states.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="run one RBDO method on a problem")
    _add_common(p)
    p.add_argument("--method", choices=("rssl", "form-double-loop", "deterministic"),
                   default="rssl")
    p.add_argument("--mc-n", type=int, default=0,
                   help="Monte Carlo audit sample count, one draw shared by every "
                        "constraint (0 = skip)")
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.add_argument("--trace", default=None, help="write the iteration trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("pf", help="closed-form pf diagnostics for one constraint")
    _add_common(p, at=True)
    p.add_argument("--index", type=int, default=0, help="constraint index (0-based)")
    p.set_defaults(func=cmd_pf)

    p = subs.add_parser("mc-check", help="Monte Carlo audit at a design point")
    _add_common(p, at=True)
    p.add_argument("--mc-n", type=int, default=10_000_000)
    p.set_defaults(func=cmd_mc_check)

    p = subs.add_parser("doe", help="emit a sampling plan CSV")
    _add_common(p, at=True)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_doe)

    p = subs.add_parser("bench", help="run a named builtin with default settings")
    _add_common(p)
    p.add_argument("--list", action="store_true", help="list builtin problems")
    p.add_argument("--mc-n", type=int, default=1_000_000)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("compare", help="run rssl and the FORM double loop side by side")
    _add_common(p)
    p.add_argument("--mc-n", type=int, default=1_000_000)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # bind the token after --at to the flag, so argparse does not read a
    # value such as -0.4,-0.5 as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--at":
            argv[i:i + 2] = [f"--at={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        _check_mc_flags(args)
        return args.func(args)
    except (SolverFailureError, ConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ProblemFormatError as exc:
        where = f" (at {exc.path})" if exc.path else ""
        print(f"input error: {exc}{where}", file=sys.stderr)
        return 2
    except (QuadrelError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
