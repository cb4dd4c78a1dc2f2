"""The benchmark's workloads: which solves and audits one pass runs, the
inputs each seed gives them, and the checks on their outputs.

Seed 0 starts every single-loop solve from the problem's own
``design_start()``.  Any other seed draws ``STARTS`` deterministic-phase
starts per problem uniformly inside the design bounds, and pass ``i`` of a
run solves from start ``i mod STARTS``: the cost of one solve depends on
its start, so a run covers several.  Seeds also move the Monte Carlo
streams.  The FORM double loop always starts from ``design_start()``: from
other starts it settles in other local optima, which would make its
checks meaningless.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from quadrel import problems
from quadrel.errors import QuadrelError
from quadrel.solver import mc_audit, rbdo_double_loop_form, rssl_solve

ROOT = Path(__file__).resolve().parent.parent
CRASH_CSV = ROOT / "tests" / "data" / "crash_coefficients.csv"

# Tolerated closed-form constraint violation at a reported optimum; the
# solver's own FEASIBILITY_SLACK.
PF_SLACK = 1e-9
BOUND_SLACK = 1e-9

BUILDERS = {
    "crashworthiness": lambda: problems.crashworthiness(CRASH_CSV),
    "bench-3g": problems.bench_3g,
    "bench-quad4-beta3": lambda: problems.bench_quad4(beta_d=3.0),
    "demo-ellipse": problems.demo_ellipse,
    "demo-ellipse-lognormal": problems.demo_ellipse_lognormal,
    "demo-ellipse-det": problems.demo_ellipse_det,
    "demo-ellipse-varstd": problems.demo_ellipse_varstd,
}

# Optimum references, each taken from an existing test of the package:
# (problem, method) -> (objective, tolerance, expected mu_opt or None, mu tolerance).
REFERENCES = {
    ("bench-3g", "rssl"): (6.7168, 0.02, None, None),                 # acceptance 04
    ("bench-quad4-beta3", "rssl"): (0.8665, 0.02, None, None),        # acceptance 06
    ("bench-quad4-beta3", "form"): (0.9109, 0.005,                    # acceptance 06
                                   [-0.4138, -0.4966, -0.4966, -0.4966], 0.01),
    ("demo-ellipse", "rssl"): (None, None, [0.0], 1e-6),              # test_solver
}

BUILTINS = ["bench-3g", "bench-quad4-beta3", "demo-ellipse", "demo-ellipse-lognormal",
            "demo-ellipse-det", "demo-ellipse-varstd"]

# Monte Carlo audits: fixed design points with nonzero pf, the sample
# count per constraint, and per-constraint reference pf from one
# 1e7-sample run of mc_audit (seed 990001) at the same point.
MC_AUDITS = {
    "crashworthiness": ([1.0, 0.9, 1.0, 1.0, 1.75, 0.8, 0.8], 200_000,
                        [0.0097653, 0.0, 0.0006117, 5.54e-05, 4.8e-06, 0.0, 0.0,
                         0.0036285, 0.0052836, 0.0009135]),
    "bench-3g": ([3.4368, 3.2681], 2_000_000, [0.0016554, 0.0013539, 0.0]),
    "demo-ellipse-lognormal": ([5.0], 2_000_000, [0.0043224]),
}
STARTS = 5
MC_TINY_N = 20_000
MC_SEED_BASE = 1234
MC_SEED_STRIDE = 100

# Each workload and the host-speed probe that does its kind of work (see probe.py).
WORKLOADS = {"crash-single-loop": "solver", "builtins-compare": "solver", "mc-audit": "bulk"}


@dataclass
class Op:
    """One timed call into quadrel and what its output must satisfy."""

    label: str
    method: str  # "rssl", "form" or "mc"
    problem_name: str
    problem: object
    starts: list = field(default_factory=lambda: [None])  # start of pass i: i mod len
    mc_point: np.ndarray = None
    mc_n: int = 0
    mc_seed: int = 0
    mc_ref: list = None

    @property
    def mc_work(self) -> int:
        """Samples x constraints one audit evaluates."""
        return self.mc_n * len(self.problem.constraints) if self.method == "mc" else 0


@dataclass
class Outcome:
    op: Op
    seconds: float
    result: object = None
    error: str = None                      # raised QuadrelError, "Type: message"
    check_failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.check_failures)

    def fingerprint(self):
        """What must repeat exactly when the same op runs again."""
        if self.error is not None:
            return ("error", self.error)
        if self.op.method == "mc":
            return ("mc", tuple(e.pf_hat for e in self.result))
        r = self.result
        c = r.counters
        return ("solve", r.objective_value, tuple(r.mu_opt.tolist()), c.deterministic_g_evals,
                c.gstar_evals, c.objective_evals, r.doe_evals)


def draw_starts(problem_index: int, problem, seed: int, count: int) -> list:
    """Deterministic-phase starts: [None] (design_start) for seed 0."""
    if seed == 0:
        return [None]
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    rng = np.random.default_rng([seed, problem_index])
    return [rng.uniform(lo, hi) for _ in range(count)]


def build(workload: str, seed: int, tiny: bool = False) -> list:
    """The ops of one pass of ``workload`` for ``seed``."""
    count = 1 if tiny else STARTS
    if workload == "crash-single-loop":
        p = BUILDERS["crashworthiness"]()
        return [Op("rssl:crashworthiness", "rssl", "crashworthiness", p,
                   starts=draw_starts(0, p, seed, count))]
    if workload == "builtins-compare":
        built = {name: BUILDERS[name]() for name in BUILTINS}
        ops = [Op(f"rssl:{name}", "rssl", name, p, starts=draw_starts(i + 1, p, seed, count))
               for i, (name, p) in enumerate(built.items())]
        ops += [Op(f"form:{name}", "form", name, p) for name, p in built.items()]
        return ops
    if workload == "mc-audit":
        ops = []
        for name, (point, n, ref) in MC_AUDITS.items():
            ops.append(Op(f"mc:{name}", "mc", name, BUILDERS[name](),
                          mc_point=np.array(point), mc_n=MC_TINY_N if tiny else n,
                          mc_seed=MC_SEED_BASE + MC_SEED_STRIDE * seed, mc_ref=ref))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warm_up():
    """Load scipy's and numpy's lazy parts before anything is timed."""
    p = problems.demo_ellipse()
    rssl_solve(p)
    rbdo_double_loop_form(p)
    mc_audit(p, np.array([4.85]), n=1_000, seed=0)


def run(op: Op, pass_index: int, tracer=None) -> Outcome:
    """Time one op; a raised QuadrelError is a counted failure.

    With a tracer the call is the root span ``op.<method>``; the output
    check runs outside it.
    """
    start = op.starts[pass_index % len(op.starts)]
    t0 = perf_counter()
    try:
        with tracer.span(f"op.{op.method}") if tracer is not None else nullcontext():
            if op.method == "rssl":
                result = rssl_solve(op.problem, start=start)
            elif op.method == "form":
                result = rbdo_double_loop_form(op.problem, start=start)
            else:
                result = mc_audit(op.problem, op.mc_point, n=op.mc_n, seed=op.mc_seed)
    except QuadrelError as exc:
        return Outcome(op, perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    out = Outcome(op, perf_counter() - t0, result=result)
    out.check_failures = check(op, result)
    return out


def check(op: Op, result) -> list:
    """Reasons the output is wrong; empty when it is right."""
    if op.method == "mc":
        return _check_mc(op, result)
    problem = op.problem
    bad = []
    mu = np.asarray(result.mu_opt, dtype=float)
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    if not result.success:
        bad.append(f"success is False: {result.message}")
    if np.any(mu < lo - BOUND_SLACK) or np.any(mu > hi + BOUND_SLACK):
        bad.append(f"mu_opt {mu.tolist()} outside the design bounds")
    for spec, pf in zip(problem.constraints, result.pf_closed_form):
        if not pf <= spec.pf_target + PF_SLACK:
            bad.append(f"{spec.name}: pf {pf:.6g} above its target {spec.pf_target:.6g}")
    ref = REFERENCES.get((op.problem_name, op.method))
    if ref is not None:
        obj, obj_tol, mu_ref, mu_tol = ref
        if obj is not None and not abs(result.objective_value - obj) <= obj_tol:
            bad.append(f"objective {result.objective_value:.6g} differs from the "
                       f"reference {obj} by more than {obj_tol}")
        if mu_ref is not None and not np.allclose(mu, mu_ref, rtol=0.0, atol=mu_tol):
            bad.append(f"mu_opt {mu.tolist()} differs from the reference {mu_ref} "
                       f"by more than {mu_tol}")
    return bad


def _check_mc(op: Op, estimates) -> list:
    bad = []
    if len(estimates) != len(op.problem.constraints):
        return [f"{len(estimates)} estimates for {len(op.problem.constraints)} constraints"]
    for spec, est, ref in zip(op.problem.constraints, estimates, op.mc_ref):
        # six standard errors of the audit, plus 6/n so that a zero
        # reference still allows a few failures
        tol = 6.0 * math.sqrt(ref * (1.0 - ref) / op.mc_n) + 6.0 / op.mc_n
        if est.n != op.mc_n or not abs(est.pf_hat - ref) <= tol:
            bad.append(f"{spec.name}: pf_hat {est.pf_hat:.6g} (n={est.n}) is more than "
                       f"{tol:.3g} from the reference {ref:.6g}")
    return bad
