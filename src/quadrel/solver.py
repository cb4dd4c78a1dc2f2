"""Single-loop RBDO driver and a FORM double-loop baseline.

Pipeline: deterministic solve, DOE around the deterministic optimum,
quadratic surrogate fits, then one constrained optimization over
closed-form probabilistic constraints that never touches the original
limit states again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import minimize

from .doe import DoeBox, Scheme, bbd_points, ccd_points, doe_box, fit_quadratic, inscribed_ccd_2
from .errors import ConvergenceError, DomainError, SolverFailureError
from .form import (
    FD_REL_STEP,
    beta_scale,
    fd_gradient,
    form_mpp,
    once_per_row,
    per_point,
    quadratic_mpp,
)
from .montecarlo import marginal_map, mc_pf
from .pf import PfBatch, pf_batch, require_finite
from .pf import pf_quadratic  # noqa: F401 -- perfbench's tracer wraps solver.pf_quadratic
from .quadratic import (
    CorrelationModel,
    QuadraticForm,
    eigenbasis,
    monomial_product,
    row_dot,
    standard_normal_map,
    to_standard_normal,
)
from .variables import Kind, Role, std_normal, std_normal_inv

# Tolerated closed-form constraint violation at the reported optimum.
FEASIBILITY_SLACK = 1e-9


@dataclass(frozen=True)
class ConstraintSpec:
    """One probabilistic constraint: Prob[g(z) < 0] <= pf target.

    Exactly one of ``beta_d`` / ``pf_all`` must be given, and exactly one
    of ``g``, a black-box evaluator over (m, n) arrays, / ``quadratic``,
    the limit state given explicitly.
    """

    name: str
    g: object = None
    quadratic: QuadraticForm = None
    beta_d: float = None
    pf_all: float = None

    def __post_init__(self):
        if (self.beta_d is None) == (self.pf_all is None):
            raise DomainError(f"{self.name}: give exactly one of beta_d / pf_all")
        if (self.g is None) == (self.quadratic is None):
            raise DomainError(f"{self.name}: give exactly one of a black-box g / an explicit quadratic")

    @property
    def pf_target(self) -> float:
        if self.pf_all is not None:
            return self.pf_all
        return float(std_normal(-self.beta_d)[1])

    @property
    def beta_target(self) -> float:
        if self.beta_d is not None:
            return self.beta_d
        return -std_normal_inv(self.pf_all)

    def evaluate(self, z):
        if self.quadratic is not None:
            return self.quadratic(z)
        return self.g(z)


@dataclass
class StdMode:
    """Constant sigma (``t`` None), or proportional sigma = t * mu for design variables."""

    t: np.ndarray = None

    def __post_init__(self):
        if self.t is not None:
            self.t = np.asarray(self.t, dtype=float)
            if np.any(self.t <= 0.0):
                raise DomainError("proportional std mode requires t > 0")


@dataclass
class EvalCounters:
    deterministic_g_evals: int = 0
    gstar_evals: int = 0
    objective_evals: int = 0


@dataclass
class RbdoProblem:
    """Full problem description over the stacked variable vector."""

    variables: list
    objective: object  # callable over the design-mean vector
    constraints: list
    corr: CorrelationModel = None
    std_mode: StdMode = field(default_factory=StdMode)
    shared_evaluations: bool = False
    doe_scheme: Scheme = None
    doe_halfwidth_overrides: dict = field(default_factory=dict)
    doe_c_r_design: float = None
    doe_c_r_parameter: float = None

    def __post_init__(self):
        self.design_indices = [
            i for i, v in enumerate(self.variables) if v.is_design
        ]
        if not self.design_indices:
            raise DomainError("problem has no design variables")
        for i in self.design_indices:
            v = self.variables[i]
            if not (np.isfinite(v.lower) and np.isfinite(v.upper)):
                raise DomainError(f"{v.name}: design variables need finite bounds")
            if v.kind is Kind.LOGNORMAL and v.lower <= FD_REL_STEP:
                raise DomainError(f"{v.name}: lognormal design variables need "
                                  f"lower > {FD_REL_STEP}, got {v.lower}")
        if self.std_mode.t is not None and self.std_mode.t.shape != (len(self.design_indices),):
            raise DomainError("proportional t must have one entry per design variable")

    @property
    def bounds(self):
        return [
            (self.variables[i].lower, self.variables[i].upper) for i in self.design_indices
        ]

    def design_start(self) -> np.ndarray:
        return np.array([self.variables[i].mean for i in self.design_indices])

    def full_mean(self, mu_design) -> np.ndarray:
        """Assemble the stacked mean vector from a design-mean vector, or
        one per row of a stack (P, n_design)."""
        mu_design = np.asarray(mu_design, dtype=float)
        mu = np.empty(mu_design.shape[:-1] + (len(self.variables),))
        mu[...] = [v.mean for v in self.variables]
        mu[..., self.design_indices] = mu_design
        return mu

    def variables_at(self, mu_full) -> list:
        """Variable list with means set to ``mu_full`` (and proportional stds)."""
        out = []
        design_pos = {idx: j for j, idx in enumerate(self.design_indices)}
        for i, v in enumerate(self.variables):
            if self.std_mode.t is not None and i in design_pos and v.role is Role.DESIGN_VARIABLE:
                std = self.std_mode.t[design_pos[i]] * abs(mu_full[i])
                out.append(v.with_mean(mu_full[i], std))
            else:
                out.append(v.with_mean(mu_full[i]))
        return out


@dataclass
class RbdoResult:
    method: str
    mu_opt: np.ndarray
    objective_value: float
    pf_closed_form: list
    counters: EvalCounters
    trace: list
    success: bool
    message: str = ""
    pf_mc: list = None
    mu_det: np.ndarray = None
    doe_evals: int = 0


def _counted_limit_states(problem: RbdoProblem, counters: EvalCounters):
    """The one stacker, ``stacked_limit_states``, over a batch (m, n), counted.

    Each row counts one black-box evaluation per black-box constraint.  With
    shared evaluations one system call serves every constraint, so a row
    counts once.  No point comes twice: the deterministic phase memoizes its
    points (``once_per_row``) and a DOE plan's rows are distinct.
    """
    n_blackbox = sum(spec.quadratic is None for spec in problem.constraints)
    per_row = min(n_blackbox, 1) if problem.shared_evaluations else n_blackbox
    limit_states = stacked_limit_states(problem.constraints)

    def evaluate(z_batch):
        z_batch = np.atleast_2d(np.asarray(z_batch, dtype=float))
        counters.deterministic_g_evals += per_row * z_batch.shape[0]
        return limit_states(z_batch)

    return evaluate


def _counted_objective(problem: RbdoProblem, counters: EvalCounters):
    def objective(mu):
        counters.objective_evals += 1
        return float(problem.objective(mu))
    return once_per_row(per_point(objective))


def quadratic_gradients(problem: RbdoProblem):
    """z -> (n_con, n_z) exact gradients 2Az + k of every limit state at ``z``,
    or None when any limit state is a black box."""
    quadratics = [spec.quadratic for spec in problem.constraints]
    if any(q is None for q in quadratics):
        return None
    return lambda z: np.array([q.gradient(z) for q in quadratics])


def solve_deterministic(problem: RbdoProblem, start=None,
                        counters: EvalCounters = None) -> np.ndarray:
    """Minimize the objective subject to g_i >= 0 at the means and bounds.

    Explicit quadratics give SLSQP their exact Jacobian (``quadratic_gradients``).
    The one exception to ``fd_gradient``: the objective, and the limit
    states of a problem with any black box, keep SLSQP's own one-sided
    differences, since central ones would double the limit-state calls.
    """
    counters = counters if counters is not None else EvalCounters()
    limit_states = _counted_limit_states(problem, counters)
    x0 = np.asarray(start, dtype=float) if start is not None else problem.design_start()
    objective = _counted_objective(problem, counters)
    g = once_per_row(lambda mus: limit_states(problem.full_mean(mus)).T)
    con = {"type": "ineq", "fun": g}
    gradients = quadratic_gradients(problem)
    if gradients is not None:
        con["jac"] = lambda mu: gradients(problem.full_mean(mu))[:, problem.design_indices]

    def run(x):
        return minimize(objective, x, method="SLSQP", bounds=problem.bounds,
                        constraints=[con], options={"maxiter": 500, "ftol": 1e-10})

    res = run(x0)
    if not res.success:  # e.g. stuck at a corner where a limit state's gradient is 0
        feasible = [k for k, v in g.values.items() if k in objective.values and np.all(v >= 0)]
        if feasible:  # restart once, from the lowest-objective point seen with every g_i >= 0
            res = run(np.frombuffer(min(feasible, key=objective.values.get)))
    if not res.success:
        raise SolverFailureError(
            f"deterministic solve failed: {res.message}", phase="deterministic"
        )
    return np.asarray(res.x, dtype=float)


def _default_plan(box: DoeBox, scheme: Scheme = None):
    """Plan of ``scheme``; by default inscribed-ccd2 for a 2-D box, else BBD."""
    if scheme is None:
        scheme = Scheme.INSCRIBED_CCD2 if box.dim == 2 else Scheme.BBD
    if scheme is Scheme.INSCRIBED_CCD2:
        return inscribed_ccd_2(box)
    return (bbd_points if scheme is Scheme.BBD else ccd_points)(box)


def doe_plan(problem: RbdoProblem, mu_full, beta_d: float, scheme: Scheme = None):
    """Sampling plan around the stacked means ``mu_full``, sized by ``beta_d``."""
    box = doe_box(problem.variables_at(mu_full), beta_d, mu_full,
                  halfwidth_overrides=problem.doe_halfwidth_overrides,
                  c_r_design=problem.doe_c_r_design,
                  c_r_parameter=problem.doe_c_r_parameter)
    return _default_plan(box, scheme)


def build_surrogates(problem: RbdoProblem, mu_det, beta_d_max: float,
                     counters: EvalCounters = None):
    """Fit one quadratic per constraint around the deterministic solution.

    Constraints that already carry an explicit quadratic are passed
    through untouched and cost no evaluations.  Returns
    (surrogates, plan_or_None).
    """
    counters = counters if counters is not None else EvalCounters()
    if all(s.quadratic is not None for s in problem.constraints):
        return [s.quadratic for s in problem.constraints], None

    mu_full = problem.full_mean(np.asarray(mu_det, dtype=float))
    plan = doe_plan(problem, mu_full, beta_d_max, problem.doe_scheme)
    values = _counted_limit_states(problem, counters)(plan.points)
    surrogates = [
        spec.quadratic if spec.quadratic is not None else fit_quadratic(plan.points, v)
        for spec, v in zip(problem.constraints, values)
    ]
    return surrogates, plan


def _map_is_constant(problem: RbdoProblem) -> bool:
    """Whether the standard-normal map S T D is the same at every design point.

    It is when no std scales with the mean and every variable is normal or
    deterministic: equivalent normalization then returns each variable's
    own (mean, std), so only mu_eq = mu moves.
    """
    return problem.std_mode.t is None and all(
        v.is_deterministic or v.kind is Kind.NORMAL for v in problem.variables
    )


def probabilistic_constraint(surrogates: list, problem: RbdoProblem,
                             counters: EvalCounters = None):
    """Analytic constraints g*(mu_design) = pf_target - pf_closed_form(mu).

    Returns one function of the design means giving the vector over
    ``problem.constraints``, or of a stack (P, n_design) of them giving
    one row per point.  The points not seen before run through the closed
    form in one batched pass over P * n_con rows.  One stacked transform
    through each point's standard-normal map (M, mu_eq) gives every
    A' = M'AM with its eigenbasis, then k' and c'.  A fixed map
    (``_map_is_constant``) is built once, here; otherwise each evaluation
    builds it at each point.  No evaluation calls a black-box limit state.
    Each design point is evaluated and counted once: ``gstar.batch`` is the
    memo (``once_per_row``), and ``gstar.batch(mu)`` is the point's ``PfBatch``.
    """
    targets = np.array([spec.pf_target for spec in problem.constraints])
    a = np.stack([q.a for q in surrogates])
    two_a = 2.0 * a
    k = np.stack([q.k for q in surrogates])
    c = np.array([q.c for q in surrogates])
    n_con, n = k.shape

    def transform(mu_full):
        """(M', eigenbasis of every A', mu_eq) under the maps at the rows (P, n) of ``mu_full``."""
        maps = [standard_normal_map(problem.variables_at(mu), problem.corr) for mu in mu_full]
        m = np.stack([m for m, _ in maps])[:, None]  # (P, 1, n, n) against the n_con forms
        m_t = np.swapaxes(m, -1, -2)
        a_n = np.matmul(np.matmul(m_t, a), m)
        a_n = 0.5 * (a_n + np.swapaxes(a_n, -1, -2))  # as QuadraticForm symmetrizes A
        require_finite(a_n)
        return m_t, eigenbasis(a_n), np.stack([mu_eq for _, mu_eq in maps])

    fixed = None
    if _map_is_constant(problem):  # every variable keeps its own mean: mu_eq = mu
        fixed = transform(problem.full_mean(problem.design_start()[None]))[:2]

    def kernel(points) -> list:
        """The closed form at a stack (P, n_design): one ``PfBatch`` of n_con rows per point."""
        if counters is not None:
            counters.gstar_evals += n_con * len(points)
        mu_full = problem.full_mean(points)
        m_t, (gamma, p), mu_eq = transform(mu_full) if fixed is None else (*fixed, mu_full)
        mu_eq = mu_eq[:, None, :]
        # Q_N(z) = Q(M z + mu_eq) row by row as to_standard_normal associates it, bit for bit
        k_n = np.matmul(m_t, (k + np.matmul(two_a, mu_eq[..., None])[..., 0])[..., None])[..., 0]
        c_n = c + row_dot(np.matmul(mu_eq[..., None, :], a)[..., 0, :], mu_eq) + row_dot(k, mu_eq)
        require_finite(k_n, c_n)
        k_n = k_n.reshape(-1, n)
        gamma = np.broadcast_to(gamma, (len(points), n_con, n)).reshape(-1, n)
        p = np.broadcast_to(p, (len(points), n_con, n, n)).reshape(-1, n, n)
        rows = vars(pf_batch(gamma, p, k_n, c_n.reshape(-1)))
        return [PfBatch(**{f: v[j:j + n_con] for f, v in rows.items()})
                for j in range(0, len(k_n), n_con)]

    batches = once_per_row(kernel)

    def gstar(mu_design):
        shape = np.shape(mu_design)[:-1] + (n_con,)
        return targets - np.reshape([b.pf for b in batches(np.atleast_2d(mu_design))], shape)

    gstar.batch = batches
    return gstar


def _constrained_minimize(objective, gstar, scales, x0, bounds, trace):
    """One SLSQP pass over the scaled inequality constraints g*/scale >= 0."""
    def fun(mu):
        return gstar(mu) / scales

    def record(xk):
        trace.append((len(trace), np.array(xk), float(objective(xk)), float(gstar(xk).min())))

    con = {"type": "ineq", "fun": fun, "jac": partial(fd_gradient, fun)}
    return minimize(objective, x0, jac=partial(fd_gradient, objective), method="SLSQP",
                    bounds=bounds, constraints=[con], callback=record,
                    options={"maxiter": 400, "ftol": 1e-12})


def rssl_solve(problem: RbdoProblem, start=None) -> RbdoResult:
    """Response-surface single-loop solve.

    Deterministic solve, one DOE batch, quadratic fits, then a single
    SLSQP pass over the analytic probabilistic constraints, started at the
    deterministic optimum.  A pass that fails, or ends with a closed-form
    violation above ``FEASIBILITY_SLACK``, raises ``SolverFailureError``
    with SLSQP's message, the violation and every constraint whose
    closed-form pf exceeds its target by more than the slack where the
    pass stopped.
    """
    counters = EvalCounters()
    mu_det = solve_deterministic(problem, start=start, counters=counters)
    evals_before_doe = counters.deterministic_g_evals

    beta_d_max = max(s.beta_target for s in problem.constraints)
    surrogates, plan = build_surrogates(problem, mu_det, beta_d_max, counters=counters)
    doe_evals = counters.deterministic_g_evals - evals_before_doe
    frozen_evals = counters.deterministic_g_evals

    gstar = probabilistic_constraint(surrogates, problem, counters=counters)
    scales = np.array([spec.pf_target for spec in problem.constraints])
    objective = _counted_objective(problem, counters)

    trace = []
    res = _constrained_minimize(objective, gstar, scales, mu_det, problem.bounds, trace)
    # success already bounds the summed scaled violation by ftol; this is the safety net
    violation = float(np.max(-gstar(res.x)))
    if not res.success or violation > FEASIBILITY_SLACK:
        over = ", ".join(f"{spec.name} (pf {pf:.3g} > target {spec.pf_target:.3g})"
                         for spec, pf in zip(problem.constraints, gstar.batch(res.x).pf)
                         if pf - spec.pf_target > FEASIBILITY_SLACK)
        raise SolverFailureError(f"single-loop optimization failed: {res.message} "
                                 f"(max violation {violation:.3g}); above target at the "
                                 f"stopping point: {over or 'none'}",
                                 phase="single-loop", trace=trace)
    if counters.deterministic_g_evals != frozen_evals:
        raise SolverFailureError("black-box limit state called during the single loop",
                                 phase="single-loop", trace=trace)

    mu_opt = np.asarray(res.x, dtype=float)
    return RbdoResult(
        method="rssl", mu_opt=mu_opt, objective_value=float(res.fun),
        pf_closed_form=gstar.batch(mu_opt).pf.tolist(), counters=counters, trace=trace,
        success=True, message=str(res.message), mu_det=mu_det, doe_evals=doe_evals,
    )


class FormMargins:
    """FORM constraints beta_HL_i(mu) - beta_d_i over ``problem.constraints``
    as a function of the design means, and their Jacobian.

    Each distinct design point runs one MPP search per constraint, once.
    ``jacobian`` takes d beta / d mu from those MPPs (``form.beta_scale``),
    so it starts no search at a point the margins were evaluated at.  Where
    every variable is normal or deterministic, an explicit quadratic is exact
    in standard-normal space at every point, and its MPP comes in closed
    form (``form.quadratic_mpp``): a failure set that is empty there gives
    beta = +inf and a zero row, and one that is everything raises
    ``SolverFailureError``.  Any other constraint runs ``form.form_mpp``; an
    explicit quadratic's search takes its exact gradient 2Az + k in place of a
    stencil, and its Hessian 2A (built once) for the SQP step.  The searches
    at a point share its marginal map.  Every limit-state row evaluated, and
    every exact gradient, counts one call in ``counters.deterministic_g_evals``:
    a closed-form MPP counts 2, its check of g at u* and its gradient; the
    Hessian is a coefficient, not an evaluation, and counts none.
    """

    def __init__(self, problem: RbdoProblem, counters: EvalCounters):
        self.problem = problem
        self.targets = np.array([spec.beta_target for spec in problem.constraints])
        self._mpps = once_per_row(per_point(self._search))

        def counted(f):  # one call per row of z, and per point (n,) a gradient is taken at
            def call(z):
                counters.deterministic_g_evals += np.atleast_2d(z).shape[0]
                return f(z)
            return call

        self._limit_states = [counted(spec.evaluate) for spec in problem.constraints]
        self._derivatives = [(None, None) if spec.quadratic is None
                             else (counted(spec.quadratic.gradient), 2.0 * spec.quadratic.a)
                             for spec in problem.constraints]
        normal = all(v.is_deterministic or v.kind is Kind.NORMAL for v in problem.variables)
        self._closed_form = [normal and spec.quadratic is not None for spec in problem.constraints]

    def _search(self, mu):
        """(margins, [(beta, u*, grad) or None per constraint]) at ``mu``."""
        problem = self.problem
        vars_at = problem.variables_at(problem.full_mean(mu))
        to_z = marginal_map(vars_at, problem.corr)
        snmap = standard_normal_map(vars_at, problem.corr) if any(self._closed_form) else None
        mpps = []
        for spec, closed_form, g, (grad, hess) in zip(problem.constraints, self._closed_form,
                                                      self._limit_states, self._derivatives):
            try:
                if closed_form:
                    mpp = quadratic_mpp(g, to_z, to_standard_normal(spec.quadratic, snmap), grad)
                else:
                    mpp = form_mpp(g, to_z, gradient=grad, hessian=hess)
            except ConvergenceError as exc:
                raise ConvergenceError(f"{exc} (constraint {spec.name} at mu = {mu.tolist()})",
                                       trace=exc.trace) from exc
            if mpp[0] == -math.inf:
                raise SolverFailureError(f"constraint {spec.name} at mu = {mu.tolist()} "
                                         "fails with probability 1", phase="double-loop")
            mpps.append(None if mpp[0] == math.inf else mpp)
        betas = np.array([math.inf if m is None else m[0] for m in mpps])
        return betas - self.targets, mpps

    def __call__(self, mu) -> np.ndarray:
        return self._mpps(mu)[0]

    def jacobian(self, mu) -> np.ndarray:
        """(n_con, n_design) d beta_i / d mu_j at the MPPs found at ``mu``.

        dG_i/d mu is the central difference of each limit state at its own
        fixed u*, mapped through the transform at the moved means: one
        marginal map per stencil point, shared by every constraint.
        """
        _, mpps = self._mpps(mu)
        problem = self.problem
        scales = np.array([0.0 if m is None else beta_scale(*m) for m in mpps])

        def at_mpps(m):
            to_z = marginal_map(problem.variables_at(problem.full_mean(m)), problem.corr)
            return np.array([0.0 if mpp is None else g(to_z(mpp[1][None, :]))[0]
                             for g, mpp in zip(self._limit_states, mpps)])

        return scales[:, None] * fd_gradient(per_point(at_mpps), mu)


def rbdo_double_loop_form(problem: RbdoProblem, start=None) -> RbdoResult:
    """FORM-based double loop: constraints beta_HL_i(mu) >= beta_d_i.

    Baseline method; every new design point runs one MPP search per
    constraint, and the constraint Jacobian comes from those MPPs
    (``FormMargins``).
    """
    counters = EvalCounters()
    margins = FormMargins(problem, counters)
    objective = _counted_objective(problem, counters)
    x0 = np.asarray(start, dtype=float) if start is not None else problem.design_start()
    trace = []

    def record(xk):
        trace.append((len(trace), np.array(xk), float(objective(xk)), float(margins(xk).min())))

    # beta = +inf reaches SLSQP as a finite margin: with its zero Jacobian
    # row any positive value is inactive, while +inf makes the QP fail
    con = {"type": "ineq", "fun": lambda mu: np.nan_to_num(margins(mu), posinf=1.0),
           "jac": margins.jacobian}
    res = minimize(objective, x0, jac=partial(fd_gradient, objective), method="SLSQP",
                   bounds=problem.bounds, constraints=[con], callback=record,
                   options={"maxiter": 300, "ftol": 1e-10})
    if not res.success:
        raise SolverFailureError(f"double-loop FORM solve failed: {res.message}",
                                 phase="double-loop", trace=trace)

    mu_opt = np.asarray(res.x, dtype=float)
    pf_cf = [float(std_normal(-beta)[1]) for beta in margins(mu_opt) + margins.targets]
    return RbdoResult(
        method="form-double-loop", mu_opt=mu_opt, objective_value=float(res.fun),
        pf_closed_form=pf_cf, counters=counters, trace=trace, success=True,
        message=str(res.message),
    )


def stacked_limit_states(constraints: list[ConstraintSpec]):
    """Every constraint's values at a batch z (m, n), stacked (n_con, m) in
    constraint order: the one stacker, serving the deterministic phase and the
    DOE batch (through ``_counted_limit_states``) and the Monte Carlo audit.

    The explicit quadratics are evaluated together, as one product over
    their monomials (``monomial_product``, built once here, with a zero form
    in each black box's row); each black box is then called on its own and
    fills its row: one value per row of z, none NaN (NaN < 0 is False, so NaN
    would pass as safe).  A quadratic's row agrees with ``spec.evaluate`` to roundoff.
    """
    black_box = [(i, spec) for i, spec in enumerate(constraints) if spec.g is not None]
    quadratics = [spec.quadratic for spec in constraints if spec.quadratic is not None]
    if quadratics:
        n = quadratics[0].dim
        zero = QuadraticForm(np.zeros((n, n)), np.zeros(n), 0.0)
        product = monomial_product([zero if spec.quadratic is None else spec.quadratic
                                    for spec in constraints])

    def limit_states(z):
        values = product(z) if quadratics else np.empty((len(constraints), len(z)))
        for i, spec in black_box:
            row = np.asarray(spec.g(z), dtype=float)
            if row.shape != (len(z),):
                raise DomainError(f"{spec.name}: g returned shape {row.shape} for {len(z)} samples")
            values[i] = row
        if black_box and np.isnan(values).any():  # one check per batch, not one per row
            bad = [spec.name for spec, row in zip(constraints, values) if np.isnan(row).any()]
            raise DomainError(f"{', '.join(bad)}: g is NaN at some of {len(z)} points")
        return values

    return limit_states


def mc_audit(problem: RbdoProblem, mu_design, n: int, seed: int):
    """Monte Carlo estimates at a design point, one per constraint.

    One draw of ``n`` samples is shared by every constraint (common random
    numbers): a single ``mc_pf`` call evaluates all the limit states on each
    chunk, stacked (n_con, m) by ``stacked_limit_states``: the explicit
    quadratics as one product over their monomials, the black boxes one by
    one.  Every estimate carries ``seed``.  A quadratic's values agree with
    ``spec.evaluate`` to roundoff, so each failure count equals that of
    ``mc_pf`` on the constraint alone with the same seed except for samples
    whose g lies within roundoff of 0, which one evaluation can count and the
    other not.
    """
    mu_full = problem.full_mean(np.asarray(mu_design, dtype=float))
    vars_at = problem.variables_at(mu_full)
    return mc_pf(stacked_limit_states(problem.constraints), vars_at, problem.corr, n=n, seed=seed)
