"""Solver plumbing: deterministic phase, surrogate building, analytic
probabilistic constraints, counters, the FORM double loop and the audit
helpers."""

import dataclasses
import math
import os

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.optimize import minimize as scipy_minimize

import quadrel.form
import quadrel.solver
from quadrel.errors import ConvergenceError, DomainError, SolverFailureError
from quadrel.form import _g_in_standard_space, fd_gradient, form_mpp, per_point, quadratic_mpp
from quadrel.montecarlo import marginal_map
from quadrel.pf import pf_batch, pf_quadratic
from quadrel.problem_io import build_problem
from quadrel.problems import (
    ELLIPSE_FLAT,
    bench_3g,
    bench_quad4,
    builtin_problems,
    crashworthiness,
    demo_ellipse,
    demo_ellipse_det,
    demo_ellipse_lognormal,
    demo_ellipse_varstd,
)
from quadrel.solver import (
    FEASIBILITY_SLACK,
    ConstraintSpec,
    EvalCounters,
    FormMargins,
    RbdoProblem,
    build_surrogates,
    mc_audit,
    probabilistic_constraint,
    quadratic_gradients,
    rbdo_double_loop_form,
    rssl_solve,
    solve_deterministic,
)
from quadrel.quadratic import (
    QuadraticForm,
    correlation_decompose,
    standard_normal_map,
    to_standard_normal,
)
from quadrel.variables import Kind, RandomVariable, Role

CRASH_CSV = os.path.join(os.path.dirname(__file__), "data", "crash_coefficients.csv")


def design(name, mean, std, lower, upper):
    return RandomVariable(name, Kind.NORMAL, Role.DESIGN_VARIABLE, mean, std, lower, upper)


def builtin(name):
    builder = builtin_problems()[name]
    return builder(CRASH_CSV) if name == "crashworthiness" else builder()


def demo_ellipse_lognormal_black_box():
    """demo-ellipse-lognormal with its limit state as a black box: the MPP
    search takes stencils and plain HLRF steps, with no Hessian."""
    problem = demo_ellipse_lognormal()
    problem.constraints = [ConstraintSpec(name=spec.name, g=spec.quadratic, beta_d=spec.beta_d)
                           for spec in problem.constraints]
    return problem


def demo_ellipse_det_black_box():
    """demo-ellipse-det with its limit state as a black box: the Jacobian's
    deterministic design column has no slope to take the search's gradient through."""
    problem = demo_ellipse_det()
    problem.constraints = [ConstraintSpec(name=spec.name, g=spec.quadratic, beta_d=spec.beta_d)
                           for spec in problem.constraints]
    return problem


def bench_3g_correlated():
    """bench-3g with its two design variables under a 0.5 correlation."""
    problem = bench_3g()
    problem.corr = correlation_decompose(np.array([[1.0, 0.5], [0.5, 1.0]]))
    return problem


def perfectly_correlated_ellipse():
    """The ellipse with x1 and p1 perfectly correlated (rho = 1), x1 in [5.5, 15]
    from 8.0, where the limit state binds: the correlation has an eigenvalue 0,
    so the search's gradient leaves x1's column undetermined."""
    return build_problem({
        "variables": [{"name": "x1", "kind": "normal", "role": "design-variable", "mean": 8.0,
                       "std": 0.3, "lower": 5.5, "upper": 15.0},
                      {"name": "p1", "kind": "normal", "role": "parameter", "mean": 3.4,
                       "std": 0.3}],
        "objective": {"builtin": "sum"},
        "constraints": [{"name": "g", "quadratic": ELLIPSE_FLAT}],
        "targets": {"beta_d": 3.0},
        "correlation": [[1.0, 1.0], [1.0, 1.0]],
    })


def crashworthiness_lognormal():
    """crashworthiness with p1 lognormal: its ten explicit quadratics are no
    longer exact in standard-normal space, so each takes the iterative search."""
    problem = builtin("crashworthiness")
    problem.variables = [dataclasses.replace(v, kind=Kind.LOGNORMAL) if v.name == "p1" else v
                         for v in problem.variables]
    return problem


def bounds_of(problem):
    return (np.array([b[0] for b in problem.bounds]),
            np.array([b[1] for b in problem.bounds]))


def branch_problem(kind=Kind.NORMAL, t=None):
    """Two design variables under six explicit quadratics that take, over a
    stack of points in the box, every closed-form branch: mixed signs,
    same sign on both the p and the 1 - p side, linear, and exact 0 and 1."""
    def q(a, k, c):
        return QuadraticForm(a=np.array(a, dtype=float), k=np.array(k, dtype=float), c=c)

    forms = [q([[0.1, 0.0], [0.0, -0.2]], [1.0, 0.5], 3.0),
             q([[0.05, 0.01], [0.01, 0.08]], [-0.6, -0.3], 1.0),
             q([[-0.05, -0.01], [-0.01, -0.08]], [0.6, 0.3], 2.0),
             q(np.zeros((2, 2)), [1.0, -0.5], 4.0),
             q(np.eye(2), [0.0, 0.0], 1.0),        # never below 0: pf exactly 0
             q(-np.eye(2), [0.0, 0.0], -1.0)]      # never above 0: pf exactly 1
    return RbdoProblem(
        variables=[RandomVariable("x1", kind, Role.DESIGN_VARIABLE, 2.0, 0.3, 0.5, 10.0),
                   design("x2", 3.0, 0.4, 0.5, 10.0)],
        objective=lambda mu: float(np.sum(mu)),
        constraints=[ConstraintSpec(name=f"g{i}", quadratic=f, beta_d=3.0)
                     for i, f in enumerate(forms)],
        proportional_t=t,
    )


def stack_problem(name):
    """(problem, surrogates) for the stacked-g* tests: a builtin with its
    surrogates fitted around the deterministic optimum, or a branch problem."""
    if name.startswith("branches"):
        problem = {"branches": branch_problem(),
                   "branches-lognormal": branch_problem(kind=Kind.LOGNORMAL),
                   "branches-varstd": branch_problem(t=[0.1, 0.2])}[name]
    else:
        problem = builtin(name)
    if all(spec.quadratic is not None for spec in problem.constraints):
        return problem, [spec.quadratic for spec in problem.constraints]
    mu_det = solve_deterministic(problem)
    beta = max(spec.beta_target for spec in problem.constraints)
    return problem, build_surrogates(problem, mu_det, beta)[0]


class TestConstraintSpec:
    def test_exactly_one_target(self):
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        with pytest.raises(DomainError):
            ConstraintSpec(name="g", quadratic=q)
        with pytest.raises(DomainError):
            ConstraintSpec(name="g", quadratic=q, beta_d=3.0, pf_all=0.01)

    def test_needs_limit_state(self):
        with pytest.raises(DomainError):
            ConstraintSpec(name="g", beta_d=3.0)

    def test_rejects_both_limit_states(self):
        # evaluate() would run one and ignore the other, and count no black-box call
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        with pytest.raises(DomainError):
            ConstraintSpec(name="g", g=q, quadratic=q, beta_d=3.0)

    def test_target_round_trip(self):
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        a = ConstraintSpec(name="a", quadratic=q, beta_d=3.0)
        b = ConstraintSpec(name="b", quadratic=q, pf_all=a.pf_target)
        assert b.beta_target == pytest.approx(3.0, abs=1e-12)


class TestProblemValidation:
    def test_needs_design_variable(self):
        v = RandomVariable("p", Kind.NORMAL, Role.PARAMETER, 0.0, 1.0)
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        with pytest.raises(DomainError):
            RbdoProblem(variables=[v], objective=lambda mu: 0.0,
                        constraints=[ConstraintSpec(name="g", quadratic=q, beta_d=3.0)])

    def test_design_needs_finite_bounds(self):
        v = RandomVariable("x", Kind.NORMAL, Role.DESIGN_VARIABLE, 0.0, 1.0)
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        with pytest.raises(DomainError):
            RbdoProblem(variables=[v], objective=lambda mu: 0.0,
                        constraints=[ConstraintSpec(name="g", quadratic=q, beta_d=3.0)])

    @pytest.mark.parametrize("lower", [0.0, -1.0, 1e-9])
    def test_lognormal_design_needs_positive_lower(self, lower):
        # a lognormal mean <= 0 has no marginal: the box must exclude it up
        # front, with the central-difference step the solvers take below it
        v = RandomVariable("x1", Kind.LOGNORMAL, Role.DESIGN_VARIABLE, 2.0, 0.3, lower, 15.0)
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        message = r"x1: lognormal design variables need lower > 1e-06, got"
        with pytest.raises(DomainError, match=message):
            RbdoProblem(variables=[v], objective=lambda mu: 0.0,
                        constraints=[ConstraintSpec(name="g", quadratic=q, beta_d=3.0)])

    def test_proportional_t_shape(self):
        v = design("x", 1.0, 0.1, 0.0, 5.0)
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)
        with pytest.raises(DomainError):
            RbdoProblem(variables=[v], objective=lambda mu: 0.0,
                        constraints=[ConstraintSpec(name="g", quadratic=q, beta_d=3.0)],
                        proportional_t=np.array([0.1, 0.1]))

    def test_std_mode_has_one_value(self):
        # proportional_t None is constant sigma; any t is proportional sigma = t * mu
        v = design("x", 2.0, 0.3, 0.0, 5.0)
        q = QuadraticForm(a=np.zeros((1, 1)), k=np.ones(1), c=0.0)

        def problem(t):
            return RbdoProblem(variables=[v], objective=lambda mu: 0.0,
                               constraints=[ConstraintSpec(name="g", quadratic=q, beta_d=3.0)],
                               proportional_t=t)

        assert problem(None).variables_at(np.array([4.0]))[0].std == 0.3
        assert problem([0.1]).proportional_t.tolist() == [0.1]
        assert problem([0.1]).variables_at(np.array([4.0]))[0].std == pytest.approx(0.4)
        with pytest.raises(DomainError):
            problem([0.0])


class TestDeterministicPhase:
    def test_three_constraint_anchor(self):
        problem = bench_3g()
        counters = EvalCounters()
        mu = solve_deterministic(problem, counters=counters)
        assert mu == pytest.approx([3.1139, 2.0626], abs=2e-3)
        assert problem.objective(mu) == pytest.approx(5.1765, abs=2e-3)
        assert counters.deterministic_g_evals > 0

    def test_active_constraints_feasible(self):
        problem = bench_3g()
        mu = solve_deterministic(problem)
        z = problem.full_mean(mu)[None, :]
        for spec in problem.constraints:
            assert spec.evaluate(z)[0] >= -1e-7

    @pytest.mark.parametrize("start", [
        [8.747157060899472, 7.680656182251676],
        [9.706235709310157, 3.8932148298375955],
        [6.28829198410258, 4.051509812546245],
        [6.037764732972446, 8.042059976242157],
        [9.894808795661376, 6.873337680759337],
        [0.03631681647305984, 7.199107365104391],
        [4.541481523470619, 8.460788958981007],
    ])
    def test_restart_after_stalled_pass(self, start, monkeypatch):
        # with BLAS at one thread SLSQP ends these starts at the corner mu = 0,
        # where g1 = x1^2 x2 / 20 - 1 = -1 has a zero gradient and its
        # linearization has no solution; one restart from the best feasible
        # point already evaluated reaches the optimum, and no point is
        # evaluated or counted twice
        rows = []
        counted = quadrel.solver._counted_limit_states

        def recording(problem, counters):
            evaluate = counted(problem, counters)

            def recorded(z):
                rows.extend(row.tobytes() for row in np.atleast_2d(z))
                return evaluate(z)
            return recorded

        problem = bench_3g()
        reference = solve_deterministic(problem)
        monkeypatch.setattr(quadrel.solver, "_counted_limit_states", recording)
        counters = EvalCounters()
        mu = solve_deterministic(problem, start=np.array(start), counters=counters)
        assert mu == pytest.approx(reference, abs=1e-6)
        assert len(set(rows)) == len(rows) == counters.deterministic_g_evals  # shared system

    @pytest.mark.parametrize("name", sorted(builtin_problems()))
    def test_exact_jacobian_only_for_explicit_quadratics(self, name, monkeypatch):
        # a black-box problem keeps SLSQP's one-sided differences: central
        # ones would double its phase-1 limit-state calls
        constraints = []
        minimize = quadrel.solver.minimize

        def recorded(*args, **kwargs):
            constraints.extend(kwargs["constraints"])
            return minimize(*args, **kwargs)

        monkeypatch.setattr(quadrel.solver, "minimize", recorded)
        problem = builtin(name)
        solve_deterministic(problem)
        explicit = all(spec.quadratic is not None for spec in problem.constraints)
        assert constraints and all(("jac" in con) == explicit for con in constraints)
        assert (quadratic_gradients(problem) is None) == (not explicit)

    @pytest.mark.parametrize("name", ["crashworthiness", "demo-ellipse", "demo-ellipse-det",
                                      "demo-ellipse-lognormal", "demo-ellipse-varstd"])
    def test_exact_jacobian_matches_fd_gradient(self, name):
        problem = builtin(name)
        gradients = quadratic_gradients(problem)

        def limit_states(mu):
            return np.array([spec.evaluate(problem.full_mean(mu)) for spec in problem.constraints])

        lo, hi = bounds_of(problem)
        for frac in (0.1, 0.5, 0.8):
            mu = lo + frac * (hi - lo)
            exact = gradients(problem.full_mean(mu))[:, problem.design_indices]
            np.testing.assert_allclose(exact, fd_gradient(per_point(limit_states), mu),
                                       rtol=1e-6, atol=1e-9)

    def test_no_feasible_point_raises(self):
        # g = -1 - x^2 is negative everywhere: no evaluated point can seed a restart
        problem = RbdoProblem(
            variables=[design("x", 1.0, 0.1, -5.0, 5.0)],
            objective=lambda mu: float(mu[0]),
            constraints=[ConstraintSpec(name="g", g=lambda z: -1.0 - z[:, 0] ** 2, beta_d=3.0)],
        )
        with pytest.raises(SolverFailureError) as err:
            solve_deterministic(problem)
        assert err.value.phase == "deterministic"


class TestSurrogates:
    def test_explicit_quadratic_costs_nothing(self):
        problem = demo_ellipse()
        counters = EvalCounters()
        surrogates, plan = build_surrogates(problem, np.array([2.0]), 3.0,
                                            counters=counters)
        assert plan is None
        assert counters.deterministic_g_evals == 0
        assert surrogates[0] is problem.constraints[0].quadratic

    def test_shared_bench_costs_one_batch(self):
        # three limit states probed at the same 9 inscribed-design points
        # of a shared system cost 9 evaluations, not 27
        problem = bench_3g()
        counters = EvalCounters()
        mu_det = solve_deterministic(problem, counters=counters)
        before = counters.deterministic_g_evals
        surrogates, plan = build_surrogates(problem, mu_det, 3.0, counters=counters)
        assert plan.size == 9
        assert counters.deterministic_g_evals - before == 9
        assert len(surrogates) == 3

    def test_exact_on_quadratic_truth(self):
        # a quadratic black box is recovered exactly by the fit
        q = QuadraticForm(a=np.array([[0.2, 0.1], [0.1, -0.3]]),
                          k=np.array([1.0, -2.0]), c=4.0)
        problem = RbdoProblem(
            variables=[design("x1", 3.0, 0.3, 0.0, 10.0), design("x2", 3.0, 0.3, 0.0, 10.0)],
            objective=lambda mu: float(np.sum(mu)),
            constraints=[ConstraintSpec(name="g", g=q, beta_d=3.0)],
        )
        surrogates, _ = build_surrogates(problem, np.array([3.0, 3.0]), 3.0)
        assert np.allclose(surrogates[0].a, q.a, atol=1e-9)
        assert np.allclose(surrogates[0].k, q.k, atol=1e-9)


class TestProbabilisticConstraint:
    def test_infeasible_interval_roots(self):
        # with the ellipse limit state at beta_d = 3, the analytic
        # constraint crosses zero near mu = 3.86 and mu = 5.93; the
        # failure probability peaks between the roots, so the interior
        # is the infeasible band
        problem = demo_ellipse(beta_d=3.0)
        spec = problem.constraints[0]
        gstar = probabilistic_constraint([spec.quadratic], problem)
        f = lambda mu: gstar(np.array([mu]))[0]
        lo = brentq(f, 2.0, 4.85, xtol=1e-10)
        hi = brentq(f, 4.85, 8.0, xtol=1e-10)
        assert lo == pytest.approx(3.86, abs=0.02)
        assert hi == pytest.approx(5.93, abs=0.02)
        assert f(4.85) < 0.0
        assert f(2.0) > 0.0 and f(8.0) > 0.0

    def test_proportional_matches_constant_at_crossing(self):
        # at mu = 3 the proportional std t*mu equals the constant 0.3, so
        # both models give the same analytic constraint value
        const = demo_ellipse(beta_d=3.0)
        prop = demo_ellipse_varstd(beta_d=3.0)
        mu = np.array([3.0])
        g_const = probabilistic_constraint([const.constraints[0].quadratic], const)(mu)[0]
        g_prop = probabilistic_constraint([prop.constraints[0].quadratic], prop)(mu)[0]
        assert abs(g_const - g_prop) <= 1e-10

    def test_counts_gstar_evals(self):
        problem = demo_ellipse()
        spec = problem.constraints[0]
        counters = EvalCounters()
        gstar = probabilistic_constraint([spec.quadratic], problem, counters=counters)
        gstar(np.array([4.0]))
        gstar(np.array([5.0]))
        assert counters.gstar_evals == 2

    def test_repeated_point_counts_once(self):
        # a point already evaluated is read back, for g* and for its PfBatch
        problem = demo_ellipse()
        counters = EvalCounters()
        gstar = probabilistic_constraint([problem.constraints[0].quadratic], problem,
                                         counters=counters)
        first = gstar(np.array([4.0])).tolist()
        assert gstar(np.array([4.0])).tolist() == first
        pf = gstar.batch(np.array([4.0])).pf
        assert (problem.constraints[0].pf_target - pf).tolist() == first
        assert counters.gstar_evals == 1

    def test_objective_counts_each_point_once(self):
        counters = EvalCounters()
        objective = quadrel.solver._counted_objective(demo_ellipse(), counters)
        assert objective(np.array([4.0])) == objective(np.array([4.0])) == 4.0
        assert objective(np.array([5.0])) == 5.0
        assert counters.objective_evals == 2

    @pytest.mark.parametrize("name", ["crashworthiness", "demo-ellipse-lognormal",
                                      "demo-ellipse-varstd", "demo-ellipse-det"])
    def test_vector_matches_each_constraint(self, name):
        problem = builtin(name)
        surrogates = [spec.quadratic for spec in problem.constraints]
        gstar = probabilistic_constraint(surrogates, problem)
        lo, hi = bounds_of(problem)
        for frac in (0.0, 0.3, 0.5, 0.9):
            mu = lo + frac * (hi - lo)
            mu_full = problem.full_mean(mu)
            snmap = standard_normal_map(problem.variables_at(mu_full), problem.corr)
            expected = [spec.pf_target - pf_quadratic(to_standard_normal(q, snmap))[0]
                        for q, spec in zip(surrogates, problem.constraints)]
            assert gstar(mu).tolist() == expected

    @pytest.mark.parametrize("name", sorted(builtin_problems())
                             + ["branches", "branches-lognormal", "branches-varstd"])
    def test_stack_matches_each_point(self, name):
        # one kernel pass over a stack gives each point the floats it gets alone
        problem, surrogates = stack_problem(name)
        lo, hi = bounds_of(problem)
        rng = np.random.default_rng(11)
        points = np.vstack([problem.design_start(), lo, hi,
                            rng.uniform(lo, hi, size=(12, len(lo)))])
        alone = probabilistic_constraint(surrogates, problem)
        stacked = probabilistic_constraint(surrogates, problem)
        assert np.array_equal(stacked(points), np.array([alone(mu) for mu in points]))
        branches, exact = set(), 0
        for mu in points:
            a, b = alone.batch(mu), stacked.batch(mu)
            for field in ("pf_raw", "kappa", "branch", "h", "q0", "degenerate"):
                assert np.array_equal(getattr(a, field), getattr(b, field), equal_nan=True)
            branches.update(b.branch.tolist())
            exact += np.count_nonzero(np.isinf(b.kappa))
        if name.startswith("branches"):
            assert branches == {0, 1, 2, 3} and exact >= 2 * len(points)

    def test_stack_counts_each_new_point_once(self, monkeypatch):
        rows = []
        monkeypatch.setattr(quadrel.solver, "pf_batch",
                            lambda *args: rows.append(len(args[2])) or pf_batch(*args))
        problem = builtin("crashworthiness")
        n_con = len(problem.constraints)
        counters = EvalCounters()
        gstar = probabilistic_constraint([s.quadratic for s in problem.constraints], problem,
                                         counters=counters)
        lo, hi = bounds_of(problem)
        a, b, c = (lo + frac * (hi - lo) for frac in (0.2, 0.5, 0.7))
        seen = gstar(a)
        out = gstar(np.stack([a, b, b, c, a]))
        assert counters.gstar_evals == 3 * n_con
        assert rows == [n_con, 2 * n_con]
        assert np.array_equal(out[0], seen) and np.array_equal(out[4], seen)
        assert np.array_equal(out[1], out[2])
        gstar(np.stack([c, b]))
        assert counters.gstar_evals == 3 * n_con and len(rows) == 2

    def test_one_map_per_design_point(self, monkeypatch):
        # every constraint shares the design point's variables and map
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(RbdoProblem, "variables_at",
                            counted("variables_at", RbdoProblem.variables_at))
        monkeypatch.setattr(quadrel.solver, "standard_normal_map",
                            counted("standard_normal_map", standard_normal_map))
        problem = builtin("crashworthiness")
        counters = EvalCounters()
        gstar = probabilistic_constraint([s.quadratic for s in problem.constraints], problem,
                                         counters=counters)
        assert gstar(problem.design_start()).shape == (10,)
        assert calls == ["variables_at", "standard_normal_map"]
        assert counters.gstar_evals == 10


    @pytest.mark.parametrize("name,constant", [
        ("crashworthiness", True), ("demo-ellipse-det", True),
        ("demo-ellipse-lognormal", False), ("demo-ellipse-varstd", False),
    ])
    def test_constant_map_built_once_per_solve(self, name, constant, monkeypatch):
        # normal variables with constant std give one map and one
        # eigendecomposition per constraint for the whole solve; lognormal
        # or proportional-std variables need a fresh map per design point
        problem = builtin(name)
        maps, matrices = [], []

        def counted_map(*args):
            maps.append(1)
            return standard_normal_map(*args)

        eigh = np.linalg.eigh

        def counted_eigh(a):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a)

        monkeypatch.setattr(quadrel.solver, "standard_normal_map", counted_map)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        gstar = probabilistic_constraint([s.quadratic for s in problem.constraints], problem)
        lo, hi = bounds_of(problem)
        calls = 4
        for frac in np.linspace(0.1, 0.9, calls):
            gstar(lo + frac * (hi - lo))
        n_con = len(problem.constraints)
        if constant:
            assert len(maps) == 1 and sum(matrices) == n_con
        else:
            assert len(maps) == calls and matrices == [n_con] * calls


class TestRsslSolve:
    def test_ellipse_optimum_at_bound(self):
        # minimizing mu itself runs to the lower bound, which is feasible
        # because the failure probability is negligible far from the peak
        result = rssl_solve(demo_ellipse(beta_d=3.0))
        assert result.success
        assert result.mu_opt[0] == pytest.approx(0.0, abs=1e-6)
        assert result.doe_evals == 0
        assert result.counters.deterministic_g_evals == 0

    def test_ellipse_lands_on_feasibility_edge(self):
        # pulling the objective toward the infeasible band makes the
        # optimum sit on the nearer zero crossing of the constraint
        base = demo_ellipse(beta_d=3.0)
        problem = RbdoProblem(
            variables=base.variables,
            objective=lambda mu: float((mu[0] - 5.0) ** 2),
            constraints=base.constraints,
        )
        result = rssl_solve(problem)
        assert result.success
        assert result.mu_opt[0] == pytest.approx(5.93, abs=0.02)

    def test_bench_counters_frozen_after_doe(self):
        result = rssl_solve(bench_3g())
        assert result.doe_evals == 9
        # the single loop itself never touches the black box: every call
        # was either the deterministic phase or the DOE batch
        det_phase = result.counters.deterministic_g_evals - result.doe_evals
        assert det_phase > 0
        assert result.counters.gstar_evals > 0
        assert result.objective_value == pytest.approx(6.7168, abs=0.05)

    def test_deterministic_and_repeatable(self):
        a = rssl_solve(demo_ellipse(beta_d=3.0))
        b = rssl_solve(demo_ellipse(beta_d=3.0))
        assert np.array_equal(a.mu_opt, b.mu_opt)
        assert a.objective_value == b.objective_value

    @pytest.mark.parametrize("name", sorted(builtin_problems()))
    def test_every_builtin_solves(self, name):
        problem = builtin(name)
        result = rssl_solve(problem)
        lo, hi = bounds_of(problem)
        assert result.success
        assert np.all(result.mu_opt >= lo) and np.all(result.mu_opt <= hi)
        for pf, spec in zip(result.pf_closed_form, problem.constraints):
            assert pf <= spec.pf_target + 1e-9

    @pytest.mark.parametrize("build,start,objective", [
        (bench_3g, [6.8, 2.1], 6.7168),                              # acceptance 04
        (bench_3g, [3.1, 8.0], 6.7168),
        (bench_3g, [10.0, 1.4], 6.7168),
        (lambda: bench_quad4(beta_d=3.0), [1.4, -2.3, -1.5, 2.4], 0.8665),   # acceptance 06
        (lambda: bench_quad4(beta_d=3.0), [4.0, -2.9, -3.4, -2.6], 0.8665),
        (lambda: bench_quad4(beta_d=3.0), [-3.2, 0.5, -4.0, -0.3], 0.8665),
    ])
    def test_off_centre_starts(self, build, start, objective):
        # deterministic-phase starts spread over the full design box reach
        # the same single-loop optimum as design_start()
        problem = build()
        result = rssl_solve(problem, start=np.array(start))
        assert result.success
        assert result.objective_value == pytest.approx(objective, abs=0.02)
        for pf, spec in zip(result.pf_closed_form, problem.constraints):
            assert pf <= spec.pf_target + 1e-9

    @pytest.mark.parametrize("name", sorted(builtin_problems()) + ["bench-quad4 beta=3"])
    def test_one_slsqp_pass_per_start_ends_feasible(self, name, monkeypatch):
        # SLSQP reports success only when its summed scaled violation is
        # below ftol = 1e-12, far inside FEASIBILITY_SLACK, so one pass from
        # the deterministic optimum is the whole single loop
        problem = bench_quad4(beta_d=3.0) if name == "bench-quad4 beta=3" else builtin(name)
        passes = []
        one_pass = quadrel.solver._constrained_minimize

        def recorded(objective, gstar, scales, x0, *args):
            res = one_pass(objective, gstar, scales, x0, *args)
            passes.append((np.array(x0), res.success, float(np.max(-gstar(res.x)))))
            return res

        monkeypatch.setattr(quadrel.solver, "_constrained_minimize", recorded)
        lo, hi = bounds_of(problem)
        rng = np.random.default_rng(0)
        for _ in range(2):
            passes.clear()
            result = rssl_solve(problem, start=rng.uniform(lo, hi))
            assert len(passes) == 1
            x0, ok, violation = passes[0]
            assert np.array_equal(x0, result.mu_det)
            assert ok and violation <= FEASIBILITY_SLACK

    @pytest.mark.parametrize("failure", ["failed", "infeasible"])
    def test_failed_pass_raises(self, failure, monkeypatch):
        # a pass that fails, or "succeeds" at an infeasible point, ends the
        # solve with SLSQP's own message and the pass's trace
        one_pass = quadrel.solver._constrained_minimize
        messages = []

        def broken(objective, gstar, scales, x0, bounds, trace):
            res = one_pass(objective, gstar, scales, x0, bounds, trace)
            if failure == "failed":
                res.success, res.message = False, "Iteration limit reached"
            else:  # pf(x1 = 5) is about 4.2e-3, above the target 1.35e-3
                res.x, res.fun = np.array([5.0]), 5.0
            messages.append(str(res.message))
            return res

        monkeypatch.setattr(quadrel.solver, "_constrained_minimize", broken)
        with pytest.raises(SolverFailureError) as err:
            rssl_solve(demo_ellipse())
        assert err.value.phase == "single-loop"
        assert messages[0] in str(err.value) and "max violation" in str(err.value)
        if failure == "infeasible":
            assert "above target at the stopping point: g (pf 0.0042" in str(err.value)
        assert err.value.trace

    def test_failure_names_the_violated_constraint(self, monkeypatch):
        # at beta_d = 2.5 g01's closed-form pf exceeds its target over the
        # whole box; SLSQP's own message alone does not say so
        one_pass = quadrel.solver._constrained_minimize
        messages = []

        def recorded(*args):
            res = one_pass(*args)
            messages.append(str(res.message))
            return res

        monkeypatch.setattr(quadrel.solver, "_constrained_minimize", recorded)
        with pytest.raises(SolverFailureError) as err:
            rssl_solve(crashworthiness(CRASH_CSV, beta_d=2.5))
        message = str(err.value)
        assert messages[0] in message
        assert "above target at the stopping point: g01 (pf 0.00985 > target 0.00621)" in message
        assert "infeasible" not in message

    @pytest.mark.parametrize("name", sorted(builtin_problems()))
    def test_one_kernel_pass_per_point(self, name, monkeypatch):
        # every distinct point SLSQP passes, alone or inside a stencil stack,
        # runs through the closed form exactly once; the trace, the
        # feasibility check and the report read the stored results
        rows, points, in_callback = [], set(), []
        monkeypatch.setattr(quadrel.solver, "pf_batch",
                            lambda *args: rows.append(len(args[2])) or pf_batch(*args))
        minimize = quadrel.solver.minimize

        def flag_callback(*args, callback=None, **kwargs):
            def flagged(xk):
                in_callback.append(1)
                try:
                    return callback(xk)
                finally:
                    in_callback.pop()
            return minimize(*args, callback=callback and flagged, **kwargs)

        one_pass = quadrel.solver._constrained_minimize

        def recorded(objective, gstar, *args):
            def from_slsqp(mu):
                if not in_callback:
                    points.update(x.tobytes() for x in np.atleast_2d(np.asarray(mu, dtype=float)))
                return gstar(mu)
            return one_pass(objective, from_slsqp, *args)

        monkeypatch.setattr(quadrel.solver, "minimize", flag_callback)
        monkeypatch.setattr(quadrel.solver, "_constrained_minimize", recorded)
        problem = builtin(name)
        result = rssl_solve(problem)
        assert result.trace
        n_con = len(problem.constraints)
        assert sum(rows) == len(points) * n_con
        assert result.counters.gstar_evals == len(points) * n_con

    @pytest.mark.parametrize("name", sorted(builtin_problems()))
    def test_report_matches_each_constraint(self, name, monkeypatch):
        # the report reads the kernel's PfBatch: the same floats as the
        # per-constraint reference path
        built = []
        factory = quadrel.solver.probabilistic_constraint

        def recorded(surrogates, *args, **kwargs):
            built.append(surrogates)
            return factory(surrogates, *args, **kwargs)

        monkeypatch.setattr(quadrel.solver, "probabilistic_constraint", recorded)
        problem = builtin(name)
        result = rssl_solve(problem)
        snmap = standard_normal_map(problem.variables_at(problem.full_mean(result.mu_opt)),
                                    problem.corr)
        assert result.pf_closed_form == [pf_quadratic(to_standard_normal(q, snmap))[0]
                                         for q in built[0]]

    def test_result_reports_pf_within_target(self):
        result = rssl_solve(demo_ellipse(beta_d=3.0))
        pf = result.pf_closed_form[0]
        assert 0.0 <= pf <= demo_ellipse().constraints[0].pf_target + 1e-9


def counted_mpp_searches(monkeypatch):
    """Patch the solver's MPP search to count its calls; returns the count list."""
    calls = []
    search = quadrel.solver.form_mpp

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(quadrel.solver, "form_mpp", counted)
    return calls


def counted_fallbacks(monkeypatch):
    """Patch the MPP search's fallback minimizer to count its calls; returns the count list."""
    calls = []
    minimize = quadrel.form.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(quadrel.form, "minimize", counted)
    return calls


def least_norm(g, to_z, u):
    """The least ||v|| subject to G(v) = 0 that SLSQP reaches from v = 0 or from
    ``u``: a point counts where |G| <= 1e-8 max(1, |G(0)|), whatever SLSQP's status."""
    g_n = _g_in_standard_space(g, to_z)
    tol = 1e-8 * max(1.0, abs(g_n(np.zeros(to_z.n))))
    norms = []
    for start in (np.zeros(to_z.n), u):
        res = scipy_minimize(lambda v: v @ v, start, jac=lambda v: 2.0 * v, method="SLSQP",
                             constraints=[{"type": "eq", "fun": g_n}],
                             options={"maxiter": 500, "ftol": 1e-14})
        if abs(g_n(res.x)) <= tol:
            norms.append(math.sqrt(res.x @ res.x))
    return min(norms)


class TestFormDoubleLoop:
    @pytest.mark.parametrize("build,mu", [
        (bench_3g, [3.4, 3.3]),
        (bench_3g, [4.0, 3.0]),
        (lambda: bench_quad4(beta_d=3.0), [-0.4, -0.5, -0.5, -0.5]),
        (lambda: bench_quad4(beta_d=3.0), [0.2, -0.1, 0.3, 0.0]),
        (demo_ellipse_lognormal, [2.0]),      # lognormal and correlated
        (demo_ellipse_lognormal, [5.0]),
        (demo_ellipse_det, [2.4, 0.5]),       # deterministic design variable
        (demo_ellipse_det, [3.0, 2.0]),
        (demo_ellipse_varstd, [2.0]),         # proportional std
        (demo_ellipse_varstd, [5.0]),
        (bench_3g_correlated, [3.4, 3.3]),    # black boxes under a 0.5 correlation
        (demo_ellipse_det_black_box, [2.4, 0.5]),         # a black box's deterministic column
        (demo_ellipse_lognormal_black_box, [2.0]),        # a black box's lognormal column
        (perfectly_correlated_ellipse, [8.0]),            # rho = 1: x1's column undetermined
    ])
    def test_jacobian_matches_outer_differences(self, build, mu):
        margins = FormMargins(build(), EvalCounters())
        mu = np.array(mu)
        # outer central differences at steps of 1e-5 * max(1, |mu_i|), in fd_gradient's order
        steps = np.diag(1e-5 * np.maximum(1.0, np.abs(mu)))
        reference = np.stack([(margins(mu + e) - margins(mu - e)) / (2.0 * e.max())
                              for e in steps], axis=1)
        np.testing.assert_allclose(margins.jacobian(mu), reference, rtol=1e-4)

    @pytest.mark.parametrize("build,mu,rows", [
        (bench_3g, [3.4, 3.3], 0),
        (bench_3g_correlated, [3.4, 3.3], 0),
        (demo_ellipse_det_black_box, [2.4, 0.5], 2),  # d1's column: 2 rows
        (perfectly_correlated_ellipse, [8.0], 2),     # x1's column: 2 rows
    ], ids=["bench-3g", "bench-3g-correlated", "demo-ellipse-det-black-box", "ellipse-rho-1"])
    def test_jacobian_at_cached_point_starts_no_search(self, build, mu, rows, monkeypatch):
        # the search supplied grad_u G: the Jacobian takes grad_z g back from it
        # with no call, and differences g along z_j at z*, over one column, only
        # where that leaves the column undetermined
        calls = counted_mpp_searches(monkeypatch)
        stencils = []
        monkeypatch.setattr(quadrel.solver, "fd_gradient",
                            lambda f, x: stencils.append(len(x)) or fd_gradient(f, x))
        counters = EvalCounters()
        problem = build()
        margins = FormMargins(problem, counters)
        mu = np.array(mu)
        margins(mu)
        searches, evals = len(calls), counters.deterministic_g_evals
        assert searches == len(problem.constraints)
        margins.jacobian(mu)
        assert len(calls) == searches
        assert counters.deterministic_g_evals - evals == len(problem.constraints) * rows
        assert stencils == [rows // 2] * len(problem.constraints) if rows else not stencils

    @pytest.mark.parametrize("name,index,fallback", [
        ("bench-3g", 0, False),          # g1 converges in HLRF
        ("crashworthiness", 1, True),    # g02 ends in the SLSQP fallback
    ])
    def test_search_gradient_at_the_mpp(self, name, index, fallback, monkeypatch):
        # a black box's is a fresh fd_gradient at u*, bit for bit; an explicit
        # quadratic's is its exact gradient at u*, which FD approximates
        problem = builtin(name)
        spec = problem.constraints[index]
        q = spec.quadratic
        variables = problem.variables_at(problem.full_mean(problem.design_start()))
        fallbacks = counted_fallbacks(monkeypatch)
        to_z = marginal_map(variables, problem.corr)
        _, u, grad = form_mpp(spec.evaluate, to_z, gradient=None if q is None else q.gradient)
        assert bool(fallbacks) == fallback
        fresh = fd_gradient(per_point(lambda v: float(spec.evaluate(to_z(v[None, :]))[0])), u)
        if q is None:
            assert np.array_equal(grad, fresh)
        else:
            z = to_z(u[None, :])[0]
            assert np.array_equal(grad, to_z.chain_rule(z, q.gradient(z)))
            np.testing.assert_allclose(grad, fresh, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("name", [
        name for name in sorted(builtin_problems())
        if any(spec.quadratic is None for spec in builtin(name).constraints)])
    def test_stacked_black_box_matches_each_row(self, name):
        # the map and the builtin black boxes are elementwise, so one call on
        # a stencil gives each row the value of its own one-row call
        problem = builtin(name)
        rng = np.random.default_rng(11)
        lo, hi = bounds_of(problem)
        for frac in (0.2, 0.7):
            variables = problem.variables_at(problem.full_mean(lo + frac * (hi - lo)))
            n = len(variables)
            for spec in problem.constraints:
                g_n = _g_in_standard_space(spec.g, marginal_map(variables, problem.corr))
                for m in rng.integers(1, 2 * n + 4, size=50):
                    stack = 3.0 * rng.standard_normal((m, n))
                    assert np.array_equal(g_n(stack), [g_n(u) for u in stack])

    @pytest.mark.parametrize("name", ["crashworthiness", "demo-ellipse", "demo-ellipse-det",
                                      "demo-ellipse-lognormal", "demo-ellipse-varstd"])
    def test_exact_search_gradient_matches_fd_gradient(self, name):
        # normal, lognormal and correlated, deterministic and proportional-std maps
        problem = builtin(name)
        rng = np.random.default_rng(5)
        lo, hi = bounds_of(problem)
        for frac in (0.1, 0.5, 0.8):
            variables = problem.variables_at(problem.full_mean(lo + frac * (hi - lo)))
            to_z = marginal_map(variables, problem.corr)
            for q in (spec.quadratic for spec in problem.constraints):
                for u in (np.zeros(len(variables)), rng.standard_normal(len(variables))):
                    z = to_z(u[None, :])[0]
                    fd = fd_gradient(per_point(lambda v: q(to_z(v[None, :]))[0]), u)
                    np.testing.assert_allclose(to_z.chain_rule(z, q.gradient(z)), fd,
                                               rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("build", [lambda: builtin("demo-ellipse-lognormal"),
                                       crashworthiness_lognormal],
                             ids=["demo-ellipse-lognormal", "crashworthiness-lognormal"])
    def test_explicit_quadratic_search_has_no_stencil(self, build, monkeypatch):
        # every iterative search of an explicit quadratic (here, with a lognormal
        # variable) takes the exact gradient: g sees one row per call, and each
        # row and each gradient counts one limit-state call
        rows, gradients = [], []
        search = quadrel.solver.form_mpp

        def logged(g, *args, gradient=None, **kwargs):
            assert gradient is not None

            def g_logged(z):
                rows.append(len(z))
                return g(z)
            return search(g_logged, *args,
                          gradient=lambda z: gradients.append(1) or gradient(z), **kwargs)

        monkeypatch.setattr(quadrel.solver, "form_mpp", logged)
        problem = build()
        counters = EvalCounters()
        margins = FormMargins(problem, counters)
        lo, hi = bounds_of(problem)
        for frac in (0.3, 0.6):
            margins(lo + frac * (hi - lo))
        assert gradients and rows and set(rows) == {1}
        assert counters.deterministic_g_evals == len(rows) + len(gradients)

    # exact_calls: the limit-state calls of the exact-Hessian searches that end
    # without the SLSQP fallback, before the secant step; they may only go down.
    # A fallback's calls move with the BLAS thread count, inside scipy's SLSQP
    @pytest.mark.parametrize("name,points,exact_calls", [
        ("demo-ellipse", 20, 208),
        ("demo-ellipse-det", 20, 296),
        ("demo-ellipse-lognormal", 20, 223),
        ("demo-ellipse-varstd", 20, 259),
        ("crashworthiness", 6, 780),  # its stalled searches take about 0.1 s each
    ])
    def test_exact_hessian_keeps_the_secant_beta(self, name, points, exact_calls, monkeypatch):
        # at seeded design points each explicit quadratic's beta equals that of
        # the search with its Hessian withheld (the secant step) to rtol 1e-7,
        # wherever that search succeeds
        problem = builtin(name)
        fallbacks = counted_fallbacks(monkeypatch)
        lo, hi = bounds_of(problem)
        total = 0
        for mu in lo + np.random.default_rng(20).random((points, lo.size)) * (hi - lo):
            to_z = marginal_map(problem.variables_at(problem.full_mean(mu)), problem.corr)
            for q in (spec.quadratic for spec in problem.constraints):
                searches = []
                for hessian in (None, 2.0 * q.a):
                    calls = []

                    def counted(f):
                        return lambda z: calls.append(len(np.atleast_2d(z))) or f(z)
                    fallbacks.clear()
                    try:
                        beta = form_mpp(counted(q), to_z, gradient=counted(q.gradient),
                                        hessian=hessian)[0]
                    except ConvergenceError:
                        beta = None
                    searches.append((beta, sum(calls), bool(fallbacks)))
                (beta_secant, _, _), (beta, calls, stalled) = searches
                if beta_secant is not None:
                    assert beta == pytest.approx(beta_secant, rel=1e-7)
                if not stalled:
                    total += calls
        assert total <= exact_calls

    # secant_calls: the limit-state calls of the black-box searches, which take
    # the secant step, modified where its Hessian is indefinite; they may only go
    # down
    @pytest.mark.parametrize("name,secant_calls", [("bench-3g", 3656), ("bench-quad4", 4165)])
    def test_secant_search_reaches_the_minimum_norm_point(self, name, secant_calls,
                                                          monkeypatch):
        # at seeded design points each black box's search ends without raising or
        # falling back, at the beta of a minimum of ||u|| subject to G = 0 that
        # SLSQP reaches from u = 0 or from the search's u*, to rtol 1e-7
        problem = builtin(name)
        fallbacks = counted_fallbacks(monkeypatch)
        lo, hi = bounds_of(problem)
        total = 0
        for mu in lo + np.random.default_rng(20).random((40, lo.size)) * (hi - lo):
            to_z = marginal_map(problem.variables_at(problem.full_mean(mu)), problem.corr)
            for spec in problem.constraints:
                calls = []
                beta, u, _ = form_mpp(lambda z: calls.append(len(z)) or spec.evaluate(z), to_z)
                total += sum(calls)
                assert abs(beta) == pytest.approx(least_norm(spec.evaluate, to_z, u), rel=1e-7)
        assert not fallbacks
        assert total <= secant_calls

    @pytest.mark.parametrize("name", ["bench-3g", "bench-quad4"])
    def test_fallback_accepts_the_minimum_norm_point(self, name, monkeypatch):
        # every black box's search sent straight to the SLSQP fallback, from
        # u = 0, ends without raising, at the beta of the least_norm reference
        # to rtol 1e-7, also where SLSQP reports failure at the MPP ("Rank-
        # deficient equality constraint subproblem HFTI" on bench-quad4's g2)
        monkeypatch.setattr(quadrel.form, "MPP_MAX_ITER", 0)
        problem = builtin(name)
        fallbacks = counted_fallbacks(monkeypatch)
        lo, hi = bounds_of(problem)
        searches = 0
        for mu in lo + np.random.default_rng(20).random((40, lo.size)) * (hi - lo):
            to_z = marginal_map(problem.variables_at(problem.full_mean(mu)), problem.corr)
            for spec in problem.constraints:
                beta, u, _ = form_mpp(spec.evaluate, to_z)
                searches += 1
                assert abs(beta) == pytest.approx(least_norm(spec.evaluate, to_z, u), rel=1e-7)
        assert len(fallbacks) == searches

    # parent_evals: the calls of the FORM loop before the closed-form search and
    # the secant step; limit-state calls may only go down from there.  No search
    # of these ends in the SLSQP fallback, so the counts hold at any BLAS thread
    # count (before, crashworthiness made 10261 calls at one thread and 10647 at
    # two, and bench-3g 1107 and 1267)
    @pytest.mark.parametrize("name,build,objective,parent_evals", [
        ("bench-3g", bench_3g, 6.725659, 520),
        ("bench-quad4", bench_quad4, 0.0154656, 841),
        ("bench-quad4 beta=3", lambda: bench_quad4(beta_d=3.0), 0.910632, 1216),
        ("demo-ellipse", demo_ellipse, 0.0, 6),
        ("demo-ellipse-lognormal", demo_ellipse_lognormal, 0.1, 75),
        # the rssl optimum; the unsigned beta ended at 2.436275, where MC gives pf 0.9985
        ("demo-ellipse-det", demo_ellipse_det, 0.1, 12),
        ("demo-ellipse-varstd", demo_ellipse_varstd, 0.0, 4),
        # lower-bound corner
        ("crashworthiness", lambda: builtin("crashworthiness"), 3.8675, 60),
    ])
    def test_optimum_with_fewer_limit_state_calls(self, name, build, objective, parent_evals):
        problem = build()
        result = rbdo_double_loop_form(problem)
        assert result.success
        assert result.objective_value == pytest.approx(objective, abs=1e-4)
        assert result.counters.deterministic_g_evals <= parent_evals
        for pf, spec in zip(result.pf_closed_form, problem.constraints):
            assert pf <= spec.pf_target + 1e-9

    @pytest.mark.parametrize("name,calls", [("crashworthiness", 60), ("bench-3g", 520),
                                            ("bench-quad4 beta=3", 1216)])
    def test_same_calls_at_any_blas_thread_count(self, name, calls, monkeypatch):
        # crashworthiness's searches are closed-form and the black boxes' take the
        # secant step, modified where indefinite: none runs the SLSQP fallback,
        # whose calls moved with the BLAS thread count.  Tier-1 runs at one and at
        # two threads
        fallbacks = counted_fallbacks(monkeypatch)
        problem = bench_quad4(beta_d=3.0) if name == "bench-quad4 beta=3" else builtin(name)
        result = rbdo_double_loop_form(problem)
        assert not fallbacks
        assert result.counters.deterministic_g_evals == calls

    @pytest.mark.parametrize("name", ["crashworthiness", "demo-ellipse", "demo-ellipse-det",
                                      "demo-ellipse-varstd"])
    def test_closed_form_search_makes_two_calls(self, name, monkeypatch):
        # every variable is normal or deterministic: each explicit quadratic's
        # search is given its exact standard-normal form and stops at that
        # form's closed-form MPP, with one call for g there and one for its
        # gradient, and none falls back
        starts = []
        search = quadrel.solver.form_mpp

        def logged(*args, exact=None, **kwargs):
            mpp = search(*args, exact=exact, **kwargs)
            starts.append(exact is not None and np.array_equal(mpp[1], quadratic_mpp(exact)))
            return mpp

        monkeypatch.setattr(quadrel.solver, "form_mpp", logged)
        fallbacks = counted_fallbacks(monkeypatch)
        problem = builtin(name)
        counters = EvalCounters()
        margins = FormMargins(problem, counters)
        lo, hi = bounds_of(problem)
        for mu in lo + np.random.default_rng(3).random((6, lo.size)) * (hi - lo):
            before = counters.deterministic_g_evals
            assert np.isfinite(margins(mu)).all()
            assert counters.deterministic_g_evals - before == 2 * len(problem.constraints)
        assert len(starts) == 6 * len(problem.constraints) and all(starts)
        assert not fallbacks

    def test_one_map_per_design_point(self, monkeypatch):
        # every constraint's search at a design point shares its variables and
        # map; a design point searched before builds neither again
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(RbdoProblem, "variables_at",
                            counted("variables_at", RbdoProblem.variables_at))
        monkeypatch.setattr(quadrel.solver, "marginal_map", counted("marginal_map", marginal_map))
        searches = counted_mpp_searches(monkeypatch)
        problem = bench_3g()
        margins = FormMargins(problem, EvalCounters())
        for mu in ([3.4, 3.3], [4.0, 3.0], [3.4, 3.3]):
            margins(np.array(mu))
        assert calls == ["variables_at", "marginal_map"] * 2
        assert len(searches) == 2 * len(problem.constraints)

    def test_perfectly_correlated_optimum(self):
        # rho = 1 leaves the search's gradient nothing to take x1's column back
        # through; its difference along z_x1 gives the optimum that a stencil
        # over the design means gave in 28 calls, in 24
        result = rbdo_double_loop_form(perfectly_correlated_ellipse())
        assert result.objective_value == pytest.approx(6.7797959, abs=1e-6)
        assert result.counters.deterministic_g_evals <= 24

    def test_optimum_with_deterministic_design_passes_mc(self):
        # the signed beta keeps the optimum out of the failure set; the
        # unsigned one ended at d1 = 2.436, x1 = 0, where MC gives pf 0.9985
        problem = demo_ellipse_det()
        result = rbdo_double_loop_form(problem)
        target = problem.constraints[0].pf_target
        est = mc_audit(problem, result.mu_opt, n=200_000, seed=7)[0]
        assert est.pf_hat <= target + 6.0 * math.sqrt(target * (1.0 - target) / est.n)

    def test_limit_state_that_cannot_fail(self):
        # at mu = 0 x1's std is 0 and the ellipse is positive for every p1
        problem = demo_ellipse_varstd()
        margins = FormMargins(problem, EvalCounters())
        assert margins(np.array([0.0]))[0] == math.inf
        assert np.array_equal(margins.jacobian(np.array([0.0])), [[0.0]])
        assert math.isfinite(margins(np.array([2.0]))[0])
        result = rbdo_double_loop_form(problem)
        assert result.success
        assert result.mu_opt[0] == 0.0
        assert result.pf_closed_form == [0.0]

    def test_black_box_that_cannot_fail_still_raises(self):
        # the same limit state as a black box gives no proof that it cannot fail
        problem = demo_ellipse_varstd()
        q = problem.constraints[0].quadratic
        problem.constraints = [ConstraintSpec(name="g", g=q, beta_d=3.0)]
        with pytest.raises(ConvergenceError) as err:
            FormMargins(problem, EvalCounters())(np.array([0.0]))
        # the search's own error, naming the constraint and the design point
        assert str(err.value) == "MPP search did not converge (constraint g at mu = [0.0])"
        assert err.value.trace

    def test_limit_state_that_always_fails(self):
        # -1 - x1^2 - p1^2 < 0 everywhere: beta = -inf, and no margin or
        # Jacobian row can lead SLSQP out of it
        problem = demo_ellipse()
        problem.constraints = [ConstraintSpec(
            name="g_never_safe", quadratic=QuadraticForm(-np.eye(2), np.zeros(2), -1.0),
            beta_d=3.0)]
        with pytest.raises(SolverFailureError) as err:
            rbdo_double_loop_form(problem)
        assert err.value.phase == "double-loop"
        assert str(err.value) == "constraint g_never_safe at mu = [2.0] fails with probability 1"

    @pytest.mark.parametrize("build,fallback", [
        (demo_ellipse_det, False),        # closed-form start: each search evaluates u* alone
        (bench_3g, False),
        (demo_ellipse_lognormal, False),  # the SQP step: no search falls back
        (demo_ellipse_lognormal_black_box, False),  # the secant step: none falls back either
    ])
    def test_each_search_evaluates_a_row_once(self, build, fallback, monkeypatch):
        searches = []

        def logged(search):
            def run(g, *args, **kwargs):
                rows = []
                searches.append(rows)

                def g_logged(z):
                    rows.extend(map(bytes, np.atleast_2d(z)))
                    return g(z)
                return search(g_logged, *args, **kwargs)
            return run

        monkeypatch.setattr(quadrel.solver, "form_mpp", logged(quadrel.solver.form_mpp))
        fallbacks = counted_fallbacks(monkeypatch)
        rbdo_double_loop_form(build())
        assert bool(fallbacks) == fallback
        assert searches and all(len(set(rows)) == len(rows) for rows in searches)

    def test_trace_records_cached_min_margin(self):
        # every iterate SLSQP reports was evaluated, so each trace row reads
        # the cache; the MPP search is a deterministic function of mu
        problem = bench_3g()
        result = rbdo_double_loop_form(problem)
        assert result.trace
        fresh = FormMargins(problem, EvalCounters())
        for _, mu, _, margin in result.trace:
            assert margin == fresh(mu).min()


class TestMcAudit:
    def test_reproducible_and_sane(self):
        problem = demo_ellipse(beta_d=2.0)
        a = mc_audit(problem, np.array([4.85]), n=200_000, seed=99)
        b = mc_audit(problem, np.array([4.85]), n=200_000, seed=99)
        assert [e.pf_hat for e in a] == [e.pf_hat for e in b]
        assert 0.0 < a[0].pf_hat < 1.0

    @pytest.mark.parametrize("run", [
        pytest.param(lambda p: mc_audit(p, np.array([3.4, 3.3]), n=1_000, seed=0), id="audit"),
        pytest.param(rssl_solve, id="phase1"),
        pytest.param(lambda p: build_surrogates(p, np.array([3.4, 3.3]), 3.0), id="doe")])
    @pytest.mark.parametrize("shape", [(), (1,), (None, 1)])
    def test_black_box_of_another_shape_names_its_constraint(self, shape, run):
        # a scalar would otherwise fill its row of the stack for every sample;
        # None stands for the batch's rows (m, 1)
        problem = bench_3g()
        g1, g2, g3 = problem.constraints
        bad = ConstraintSpec("g_bad", beta_d=3.0,
                             g=lambda z: np.ones([len(z) if s is None else s for s in shape]))
        problem.constraints = [g1, bad, g2, g3]
        with pytest.raises(DomainError, match="g_bad: g returned shape"):
            run(problem)

    @staticmethod
    def log_problem(n):
        """g = log(x1 - 4.5) + ... over n variables ~ N(5, 0.3): NaN wherever some x_i < 4.5."""
        return build_problem({
            "variables": [{"name": f"x{i+1}", "kind": "normal", "role": "design-variable",
                           "mean": 5.0, "std": 0.3, "lower": 0.0, "upper": 10.0}
                          for i in range(n)],
            "objective": {"builtin": "sum"},
            "constraints": [{"name": "g_log",
                             "expression": " + ".join(f"log(x{i+1} - 4.5)" for i in range(n))}],
            "targets": {"beta_d": 3.0}})

    def test_nan_black_box_names_its_constraint_in_the_audit(self):
        # NaN < 0 is False: the samples below 4.5 would count as safe, and the
        # audit would report pf 0.904 where the exact pf is Phi(0.5 / 0.3) = 0.952
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="g_log: g is NaN"):
            mc_audit(self.log_problem(1), np.array([5.0]), n=100_000, seed=0)

    def test_nan_black_box_names_its_constraint_in_the_single_loop(self):
        # the DOE box around the deterministic optimum (5.5, 5.5) reaches below 4.5
        with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="g_log: g is NaN"):
            rssl_solve(self.log_problem(2))
