"""Most-probable-point search, its sensitivities and the Breitung curvature
correction."""

import math

import numpy as np
import pytest
from scipy.stats import lognorm

import quadrel.form
from quadrel.errors import BreitungSingularityError, ConvergenceError, DomainError
from quadrel.form import (
    beta_scale,
    fd_gradient,
    form_mpp,
    once_per_row,
    per_point,
    quadratic_mpp,
    sorm_breitung,
)
from quadrel.montecarlo import marginal_map, mc_pf, transform_samples
from quadrel.quadratic import (
    QuadraticForm,
    correlation_decompose,
    standard_normal_map,
    to_standard_normal,
)
from quadrel.variables import Kind, RandomVariable, Role, std_normal


def snv(name="z"):
    return RandomVariable(name, Kind.NORMAL, Role.PARAMETER, 0.0, 1.0)


def point_by_point_fd_gradient(f, x):
    """The loop ``fd_gradient`` ran before it took the stencil as one stack."""
    x = np.asarray(x, dtype=float)
    jac = None
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        col = (f(xp) - f(xm)) / (2.0 * h)
        if jac is None:
            jac = np.empty(x.shape + np.shape(col))
        jac[i] = col
    return jac.T


class TestOncePerRow:
    def test_each_new_row_once_per_stack(self):
        # one call per stack with unseen rows, holding each of them once and
        # in order, even where a row repeats inside the stack
        calls = []

        def fn(points):
            calls.append(points.tolist())
            return points.sum(axis=1)

        memo = once_per_row(fn)
        a, b, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
        assert memo(np.array([a, b, a])) == [3.0, 7.0, 3.0]
        assert memo(np.array([b, c, c, a])) == [7.0, 11.0, 11.0, 3.0]
        one = memo(np.array(c))  # one point (n,) gives its result, not a list
        assert isinstance(one, np.float64) and one == 11.0
        d, e = [7.0, 8.0], [9.0, 1.0]
        assert memo(np.array([d, e])) == [15.0, 10.0]
        assert calls == [[a, b], [c], [d, e]]
        stored = [(np.array(x).tobytes(), sum(x)) for x in (a, b, c, d, e)]
        assert list(memo.values.items()) == stored


class TestFdGradient:
    def test_one_call_on_the_stencil(self):
        calls = []

        def f(points):
            calls.append(points.copy())
            return points @ np.array([1.0, 2.0, 3.0])

        x = np.array([0.5, -4.0, 0.0])
        fd_gradient(f, x)
        h = 1e-6 * np.array([1.0, 4.0, 1.0])
        expected = np.repeat(x[None], 6, axis=0)
        for i in range(3):
            expected[2 * i, i] = x[i] + h[i]
            expected[2 * i + 1, i] = x[i] - h[i]
        assert len(calls) == 1 and np.array_equal(calls[0], expected)

    @pytest.mark.parametrize("vector", [False, True])
    def test_per_point_matches_the_point_by_point_loop(self, vector):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 5))
        if vector:
            f = lambda x: np.sin(a @ x) * np.exp(x[:3])
        else:
            f = lambda x: float(np.cos(x @ x) + x[0] ** 3)
        for x in (rng.normal(size=5), 40.0 * rng.normal(size=5), np.zeros(5)):
            assert np.array_equal(fd_gradient(per_point(f), x),
                                  point_by_point_fd_gradient(f, x))

    def test_scalar_is_central_difference(self):
        f = lambda x: float(np.exp(x[0]) * x[1] ** 3)
        x = np.array([0.4, -2.5])
        expected = np.empty(2)
        for i in range(2):
            step = np.zeros(2)
            step[i] = 1e-6 * max(1.0, abs(x[i]))
            expected[i] = (f(x + step) - f(x - step)) / (2.0 * step[i])
        assert np.array_equal(fd_gradient(per_point(f), x), expected)

    def test_vector_jacobian_stacks_scalar_gradients(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        f = lambda x: np.sin(a @ x)
        x = rng.normal(size=4)
        rows = [fd_gradient(per_point(lambda x, i=i: float(f(x)[i])), x) for i in range(3)]
        assert np.array_equal(fd_gradient(per_point(f), x), np.stack(rows))


class TestFormMpp:
    def test_linear_limit_state(self):
        # g = k.z + beta*||k||: beta_HL = beta, MPP at -beta*k/||k||
        k = np.array([0.6, -0.8])
        beta = 2.5

        def g(z):
            return z @ k + beta

        beta_hl, z_n, _ = form_mpp(g, marginal_map([snv("z1"), snv("z2")], None))
        assert beta_hl == pytest.approx(beta, abs=1e-8)
        assert z_n == pytest.approx(-beta * k, abs=1e-6)

    def test_stationarity_on_curved_state(self):
        variables = [
            RandomVariable("x1", Kind.NORMAL, Role.PARAMETER, 5.0, 0.3),
            RandomVariable("x2", Kind.NORMAL, Role.PARAMETER, 2.0, 0.3),
        ]

        def g(z):
            return z[:, 0] ** 2 * z[:, 1] / 20.0 - 1.0

        beta_hl, z_n, _ = form_mpp(g, marginal_map(variables, None))
        z = transform_samples(z_n[None, :], variables, None)[0]
        # at the MPP: g = 0 and z_n is antiparallel to the gradient scaled
        # by beta (first-order optimality of the norm minimization)
        assert abs(g(z[None, :])[0]) <= 1e-6
        h = 1e-6
        grad = np.empty(2)
        for i in range(2):
            zp = z_n.copy(); zp[i] += h
            zm = z_n.copy(); zm[i] -= h
            gp = form_mpp.__globals__["_g_in_standard_space"](g, marginal_map(variables, None))
            grad[i] = (gp(zp) - gp(zm)) / (2 * h)
        cosine = z_n @ grad / (np.linalg.norm(z_n) * np.linalg.norm(grad))
        assert abs(abs(cosine) - 1.0) <= 1e-4
        assert beta_hl == pytest.approx(np.linalg.norm(z_n), rel=1e-12)

    def test_lognormal_exact_beta(self):
        # one-dimensional threshold: failure x < q has pf = F(q) exactly,
        # and the standard-space distance is -Phi^{-1}(F(q))
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)
        q = 0.45

        def g(z):
            return z[:, 0] - q

        beta_hl, z_n, _ = form_mpp(g, marginal_map([v], None))
        z = transform_samples(z_n[None, :], [v], None)[0]
        lam, zeta = v.log_params()
        cdf = lognorm(zeta, scale=math.exp(lam)).cdf(q)
        pf_form = std_normal(-beta_hl)[1]
        assert pf_form == pytest.approx(cdf, rel=1e-6)
        assert z[0] == pytest.approx(q, rel=1e-8)

    def test_correlated_linear(self):
        # g = z1 - z2 + b with corr rho: variance of z1 - z2 is 2(1-rho)
        rho = 0.5
        corr = correlation_decompose(np.array([[1.0, rho], [rho, 1.0]]))
        b = 3.0

        def g(z):
            return z[:, 0] - z[:, 1] + b

        beta_hl, _, _ = form_mpp(g, marginal_map([snv("z1"), snv("z2")], corr))
        assert beta_hl == pytest.approx(b / np.sqrt(2.0 * (1.0 - rho)), rel=1e-6)

    def test_beta_is_negative_where_the_means_fail(self):
        # g = k.z - 2.5 with ||k|| = 1 is -2.5 at the means: pf = Phi(2.5) and
        # beta_HL = -2.5, with the MPP at +2.5 k
        k = np.array([0.6, -0.8])

        def g(z):
            return z @ k - 2.5

        beta_hl, z_n, _ = form_mpp(g, marginal_map([snv("z1"), snv("z2")], None))
        assert beta_hl == pytest.approx(-2.5, abs=1e-8)
        assert z_n == pytest.approx(2.5 * k, abs=1e-6)


    def test_origin_evaluated_once(self):
        # g at the means sets beta's sign and the tolerance scale, and it is
        # the first HLRF iterate: one call serves both
        k = np.array([0.6, -0.8])
        rows = []

        def g(z):
            rows.extend(map(tuple, z))
            return z @ k + 2.5

        form_mpp(g, marginal_map([snv("z1"), snv("z2")], None))
        assert rows.count((0.0, 0.0)) == 1
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("h_diag,secant,expected", [
        ((-3.0, 1.0), True, [1.25, 1.25]),  # B = diag(-2, 2): the step with |B| = 2I
        ((-3.0, 1.0), False, None),         # an exact Hessian takes no such step
        ((-1.0, 1.0), True, None),          # B = diag(0, 2) is singular
    ])
    def test_sqp_step_where_b_is_not_positive_definite(self, h_diag, secant, expected):
        # at u = (1, 1) with grad = (-1, -1), lambda = 1 and B = I + diag(h)
        u, grad, gval = np.ones(2), -np.ones(2), 0.5
        step = quadrel.form._sqp_step(u, gval, grad, np.diag(h_diag), secant)
        if expected is None:
            assert step is None
        else:
            np.testing.assert_allclose(step, expected, rtol=1e-15)
            assert gval + grad @ (step - u) == pytest.approx(0.0, abs=1e-15)


def closed_form_mpp(q, variables, corr=None):
    """``form_mpp`` of the explicit quadratic ``q`` over ``variables``, given
    its exact standard-normal form: the search from the closed-form MPP."""
    qn = to_standard_normal(q, standard_normal_map(variables, corr))
    return form_mpp(q, marginal_map(variables, corr), gradient=q.gradient, hessian=2.0 * q.a,
                    exact=qn)


def brute_force_beta(q, directions):
    """min over unit ``directions`` v of the least t > 0 with Q(t v) = 0, for
    Q(0) > 0: the beta of a dense search over the sphere, from above."""
    v = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    a = np.einsum("ij,jk,ik->i", v, q.a, v)
    b = v @ q.k
    disc = b * b - 4.0 * a * q.c
    with np.errstate(invalid="ignore", divide="ignore"):
        roots = np.stack([(-b - np.sqrt(disc)) / (2.0 * a), (-b + np.sqrt(disc)) / (2.0 * a),
                          np.where(a == 0.0, -q.c / b, np.nan)])
    return np.nanmin(np.where(roots > 0.0, roots, np.nan))


class TestQuadraticMpp:
    def test_matches_the_iterative_search(self):
        # seeded quadratics over correlated normals and a deterministic column:
        # the closed form's beta is form_mpp's to rtol 1e-7, of either sign
        rng = np.random.default_rng(31)
        f = rng.standard_normal((4, 4))
        cov = f @ f.T
        corr = correlation_decompose(cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov))))
        variables = [RandomVariable("x1", Kind.NORMAL, Role.PARAMETER, 1.0, 0.3),
                     RandomVariable("x2", Kind.NORMAL, Role.PARAMETER, 2.0, 0.5),
                     RandomVariable("d", Kind.DETERMINISTIC, Role.PARAMETER, 1.5, 0.0),
                     RandomVariable("x3", Kind.NORMAL, Role.PARAMETER, 3.0, 0.2)]
        means = np.array([v.mean for v in variables])
        compared = 0
        for corr_used in (None, corr):
            to_z = marginal_map(variables, corr_used)
            for _ in range(25):
                a = rng.standard_normal((4, 4))
                k = rng.standard_normal(4)
                at_means = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.5)
                q = QuadraticForm(a, k, 0.0)
                q = QuadraticForm(a, k, at_means - q(means))
                beta, u, grad = closed_form_mpp(q, variables, corr_used)
                assert math.copysign(1.0, beta) == math.copysign(1.0, at_means)
                try:
                    beta_hl, _, grad_hl = form_mpp(q, to_z, gradient=q.gradient, hessian=2.0 * q.a)
                except ConvergenceError:
                    continue
                assert beta == pytest.approx(beta_hl, rel=1e-7)
                z = to_z(u[None, :])[0]
                assert np.array_equal(grad, to_z.chain_rule(z, q.gradient(z)))
                compared += 1
        assert compared >= 40

    @pytest.mark.parametrize("gamma,kbar,c,hard", [
        ([-1.0, 1.0, 2.0], [0.0, 1.0, 1.0], 1.0, True),    # kbar = 0 on the binding eigenvector
        ([-1.0, -1.0, 2.0], [0.0, 0.0, 1.0], 1.0, True),   # on both of a double one
        ([1.0, -1.0, -2.0], [0.0, -1.0, -1.0], -1.0, True),  # the first, where the means fail
        ([-1.0, 1.0, 2.0], [0.05, 1.0, 1.0], 1.0, False),  # next to it: a pole, no hard case
        ([-1.0, 1.0, 2.0], [1e-10, 1.0, 1.0], 1.0, False),  # a root within 1e-10 of the pole
        ([-1.0, 1.0, 2.0], [0.0, 3.0, 1.0], 1.0, False),   # kbar = 0 there, but a root comes first
    ])
    def test_hard_case_matches_a_brute_force_minimum(self, gamma, kbar, c, hard, monkeypatch):
        # in a rotated eigenbasis over three standard normals
        rng = np.random.default_rng(7)
        rotation = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        q = QuadraticForm(rotation @ np.diag(gamma) @ rotation.T, rotation @ np.array(kbar), c)
        if hard:  # closed form: no root is searched for
            monkeypatch.setattr(quadrel.form, "brentq", None)
        beta, u, _ = closed_form_mpp(q, [snv("z1"), snv("z2"), snv("z3")])
        assert abs(q(u)) <= 1e-12
        assert math.copysign(1.0, beta) == c
        brute = brute_force_beta(QuadraticForm(q.a * c, q.k * c, q.c * c),
                                 rng.standard_normal((400_000, 3)))
        assert abs(beta) <= brute * (1.0 + 1e-12)
        assert brute <= abs(beta) * (1.0 + 1e-3)

    def test_least_eigenvalue_sets_the_pole(self):
        # eigh lists -5e-13 first; with no slope along it, it drops out as 0,
        # ahead of the sloped -3e-13 it no longer sorts below
        q = QuadraticForm(np.diag([-5e-13, -3e-13, 1.0]), np.array([0.0, 0.4, 0.5]), 0.1)
        beta, u, _ = closed_form_mpp(q, [snv("z1"), snv("z2"), snv("z3")])
        assert abs(q(u)) <= 1e-12
        brute = brute_force_beta(q, np.random.default_rng(8).standard_normal((400_000, 3)))
        assert beta <= brute * (1.0 + 1e-12)
        assert brute <= beta * (1.0 + 1e-3)

    @pytest.mark.parametrize("a,k,c,beta", [
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 1.0, math.inf),     # >= 1 everywhere
        ([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0], -1.0, -math.inf),  # <= -1 everywhere
        ([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0], 1.0, math.inf),     # flat along z2, >= 1
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 0.25, math.inf),    # touches 0 at (-1/2, 0) only
        ([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.1], 1.0, 10.0),         # flat along z2 but sloped
        # a curvature within the zero tolerance still bounds a slope along it:
        # min G = 0.1 - 0.25 / 4 - (4.7e-12)^2 / (4 * 5e-13) > 0
        ([[1.0, 0.0], [0.0, 5e-13]], [0.5, 4.7e-12], 0.1, math.inf),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], 0.0, 0.0),          # the means on G = 0
    ])
    def test_no_root_is_an_infinite_beta(self, a, k, c, beta):
        q = QuadraticForm(np.array(a), np.array(k), c)
        found = closed_form_mpp(q, [snv("z1"), snv("z2")])
        if math.isinf(beta):
            assert found == (beta, None, None)
        else:
            assert found[0] == pytest.approx(beta, rel=1e-12)
            assert found[1] == pytest.approx([0.0, -beta], abs=1e-9)


    def test_a_start_accepted_is_the_closed_form(self):
        # seeded quadratics over 1-6 normals, some with a near-zero eigenvalue,
        # |c'| from 0.1 to 1e8: a search that makes one row of g and one
        # gradient returns quadratic_mpp's point bit for bit, beta = +/-||u*||
        # signed as c'; where there is no root it makes no call.  Only a beta
        # past 1e7 may miss its start by more than a step can recover
        rng = np.random.default_rng(32)
        accepted = finite = 0
        for _ in range(500):
            n = int(rng.integers(1, 7))
            means, stds = rng.normal(0.0, 2.0, n), rng.uniform(0.1, 2.0, n)
            variables = [RandomVariable(f"z{i}", Kind.NORMAL, Role.PARAMETER, m, s)
                         for i, (m, s) in enumerate(zip(means, stds))]
            rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
            gamma = rng.standard_normal(n)
            if rng.random() < 0.3:
                gamma[0] = 1e-13 * rng.standard_normal()
            q = QuadraticForm(rotation @ np.diag(gamma) @ rotation.T, rng.standard_normal(n), 0.0)
            at_means = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 8.0)
            q = QuadraticForm(q.a, q.k, at_means - q(means[None])[0])
            qn = to_standard_normal(q, standard_normal_map(variables, None))
            to_z = marginal_map(variables, None)
            start = quadratic_mpp(qn)
            rows, gradients = [], []
            try:
                beta, u, grad = form_mpp(lambda z: rows.append(len(z)) or q(z), to_z,
                                         gradient=lambda z: gradients.append(1) or q.gradient(z),
                                         hessian=2.0 * q.a, exact=qn)
            except ConvergenceError:
                assert np.linalg.norm(start) > 1e7
                continue
            if start is None:
                assert beta == math.copysign(math.inf, qn.c) and not rows and not gradients
                continue
            finite += 1
            if sum(rows) == 1 and len(gradients) == 1:
                accepted += 1
                assert np.array_equal(u, start)
                assert beta == math.copysign(math.sqrt(start @ start), qn.c)
                z = to_z(u[None, :])[0]
                assert np.array_equal(grad, to_z.chain_rule(z, q.gradient(z)))
        assert accepted >= 0.95 * finite and finite >= 400

    def test_far_limit_state_recovers_from_roundoff(self, monkeypatch):
        # |beta| = 469 952.8: G at the closed-form point carries roundoff far
        # above MPP_TOL |c'|, so the start is not accepted; the exact-Hessian
        # SQP step from there lands on it without the fallback
        fallbacks = []
        minimize = quadrel.form.minimize
        monkeypatch.setattr(quadrel.form, "minimize",
                            lambda *args, **kwargs: fallbacks.append(1) or minimize(*args, **kwargs))
        q = QuadraticForm.from_flat([1000.0, 0.0013, -0.0017, 2.0, 1.9, 1.805], 2)
        variables = [snv("z1"), snv("z2")]
        qn = to_standard_normal(q, standard_normal_map(variables, None))
        closed = np.linalg.norm(quadratic_mpp(qn))
        assert closed == pytest.approx(469_952.8, abs=0.1)
        beta, _, _ = closed_form_mpp(q, variables)
        assert beta == pytest.approx(closed, rel=1e-6)
        assert not fallbacks


class TestBetaSensitivity:
    # g = a.x - b over independent normals x with means theta: the signed
    # beta_HL is (a.theta - b) / s with s = ||a sigma||, negative where the
    # means fail, so d beta / d theta = a / s = alpha_j / sigma_j on both sides
    a = np.array([1.5, -0.7])
    sigma = np.array([0.3, 0.5])

    def g(self, z):
        return z @ self.a - 1.0

    def variables(self, theta):
        return [RandomVariable(f"x{j}", Kind.NORMAL, Role.DESIGN_VARIABLE, t, s, -10.0, 10.0)
                for j, (t, s) in enumerate(zip(theta, self.sigma))]

    def sensitivity(self, theta, beta, u, grad):
        # dG/d theta at fixed u*, through the transform at the moved means
        at_u = lambda t: float(self.g(transform_samples(u[None, :], self.variables(t), None))[0])
        return beta_scale(beta, u, grad) * fd_gradient(per_point(at_u), theta)

    @pytest.mark.parametrize("theta,sign", [([2.0, 1.0], 1.0), ([-1.0, 1.0], 1.0)])
    def test_linear_state_is_alpha_over_sigma(self, theta, sign):
        theta = np.array(theta)
        beta, u, grad = form_mpp(self.g, marginal_map(self.variables(theta), None))
        s = np.linalg.norm(self.a * self.sigma)
        np.testing.assert_allclose(self.sensitivity(theta, beta, u, grad), sign * self.a / s,
                                   rtol=1e-6)

    def test_signed_form_at_zero_beta(self):
        # the means lie on g = 0: u* = 0 and beta grows along +a
        theta = np.array([1.0, 0.5 / 0.7])
        s = np.linalg.norm(self.a * self.sigma)
        np.testing.assert_allclose(self.sensitivity(theta, 0.0, np.zeros(2), self.a * self.sigma),
                                   self.a / s, rtol=1e-6)


class TestSormBreitung:
    def paraboloid(self, beta, a, n):
        # Q(z) = z_1 + beta + a * sum_{i>=2} z_i^2; MPP at (-beta, 0, ...)
        amat = np.zeros((n, n))
        for i in range(1, n):
            amat[i, i] = a
        k = np.zeros(n)
        k[0] = 1.0
        return QuadraticForm(a=amat, k=k, c=beta)

    def test_matches_monte_carlo(self):
        beta, a, n = 2.0, 0.05, 3
        qn = self.paraboloid(beta, a, n)
        z_mpp = np.zeros(n)
        z_mpp[0] = -beta
        pf = sorm_breitung(qn, beta, z_mpp)
        est, = mc_pf(lambda z: qn(z)[None], [snv(f"z{i}") for i in range(n)], None,
                     n=4_000_000, seed=42)
        assert abs(pf - est.pf_hat) <= max(3.0 * est.ci95_halfwidth, 0.1 * est.pf_hat)

    def test_convex_away_shrinks(self):
        beta, n = 2.0, 3
        z_mpp = np.zeros(n)
        z_mpp[0] = -beta
        pf_flat = std_normal(-beta)[1]
        pf_curved = sorm_breitung(self.paraboloid(beta, 0.1, n), beta, z_mpp)
        assert pf_curved < pf_flat

    def test_curvature_factor_value(self):
        # analytic factor: rho = -2a, pf = Phi(-beta) (1 + 2 a beta)^{-(n-1)/2}
        beta, a, n = 2.5, 0.08, 4
        z_mpp = np.zeros(n)
        z_mpp[0] = -beta
        pf = sorm_breitung(self.paraboloid(beta, a, n), beta, z_mpp)
        ref = std_normal(-beta)[1] * (1.0 + 2.0 * a * beta) ** (-(n - 1) / 2.0)
        assert pf == pytest.approx(ref, rel=1e-10)

    def test_rotated_paraboloid_gives_the_axis_aligned_pf(self):
        # every other test puts the MPP on a coordinate axis; Q(R'z) has its
        # MPP at R z* and the same curvatures, so the same pf
        beta, n = 2.5, 4
        qn = QuadraticForm(a=np.diag([0.0, 0.08, -0.05, 0.12]), k=np.eye(n)[0], c=beta)
        z_mpp = -beta * np.eye(n)[0]
        rot, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
        rotated = QuadraticForm(a=rot @ qn.a @ rot.T, k=rot @ qn.k, c=beta)
        assert rotated(rot @ z_mpp) == pytest.approx(0.0, abs=1e-12)
        assert sorm_breitung(rotated, beta, rot @ z_mpp) == pytest.approx(
            sorm_breitung(qn, beta, z_mpp), rel=1e-12)

    def test_singularity_raises(self):
        beta, a, n = 2.0, -0.3, 2
        z_mpp = np.zeros(n)
        z_mpp[0] = -beta
        with pytest.raises(BreitungSingularityError):
            sorm_breitung(self.paraboloid(beta, a, n), beta, z_mpp)

    def test_beta_validation(self):
        qn = self.paraboloid(2.0, 0.1, 2)
        with pytest.raises(DomainError):
            sorm_breitung(qn, 0.0, np.zeros(2))
