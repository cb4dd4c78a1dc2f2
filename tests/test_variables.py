"""Scalar probability primitives: normal functions, random variables, the
marginal inverse CDF and equivalent normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import lognorm, norm

from quadrel.errors import DomainError
from quadrel.form import fd_gradient
from quadrel.montecarlo import marginal_map, transform_samples
from quadrel.problems import builtin_problems
from quadrel.quadratic import standard_normal_map
from quadrel.variables import (
    Kind,
    RandomVariable,
    Role,
    std_normal,
    std_normal_inv,
)


def nv(mean, std, name="x", role=Role.PARAMETER, **kw):
    return RandomVariable(name, Kind.NORMAL, role, mean, std, **kw)


def marginal(v):
    """The reference marginal of a normal or lognormal ``v``, from scipy.stats."""
    if v.kind is Kind.LOGNORMAL:
        lam, zeta = v.log_params()
        return lognorm(zeta, scale=math.exp(lam))
    return norm(v.mean, v.std)


class TestStdNormal:
    def test_at_zero(self):
        pdf, cdf = std_normal(0.0)
        assert pdf == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)
        assert cdf == 0.5

    def test_inverse_at_half(self):
        assert std_normal_inv(0.5) == 0.0

    def test_cdf_minus_three(self):
        # high-precision reference value of Phi(-3)
        _, cdf = std_normal(-3.0)
        assert cdf == pytest.approx(0.001349898031630095, rel=1e-12)

    @given(st.floats(min_value=-8.0, max_value=5.0))
    @settings(max_examples=200)
    def test_inverse_round_trip(self, x):
        # the upper tail loses absolute precision through cdf values that
        # round to 1, so the deep round trip is exercised on the lower
        # tail and mirrored by symmetry
        _, cdf = std_normal(x)
        assert abs(std_normal_inv(cdf) - x) <= 1e-10

    @given(st.floats(min_value=5.0, max_value=8.0))
    def test_tail_symmetry(self, x):
        _, lo = std_normal(-x)
        _, hi = std_normal(x)
        assert lo + hi == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(min_value=-8.0, max_value=4.0), st.floats(min_value=1e-4, max_value=1e-3))
    def test_pdf_is_cdf_derivative(self, x, h):
        pdf, _ = std_normal(x)
        _, up = std_normal(x + h)
        _, dn = std_normal(x - h)
        fd = (up - dn) / (2.0 * h)
        assert fd == pytest.approx(pdf, rel=1e-3, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_inverse_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_inv(p)

    def test_monotone(self):
        xs = np.linspace(-6, 6, 101)
        cdfs = std_normal(xs)[1]
        assert np.all(np.diff(cdfs) > 0)


class TestRandomVariable:
    def test_negative_std_rejected(self):
        with pytest.raises(DomainError):
            nv(0.0, -1.0)

    def test_deterministic_requires_zero_std(self):
        with pytest.raises(DomainError):
            RandomVariable("d", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 1.0, 0.5)

    def test_lognormal_needs_positive_mean(self):
        with pytest.raises(DomainError):
            RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, -1.0, 0.3)

    def test_mean_outside_bounds(self):
        with pytest.raises(DomainError):
            nv(12.0, 1.0, lower=0.0, upper=10.0)

    def test_with_mean_drops_bounds(self):
        v = nv(5.0, 0.3, role=Role.DESIGN_VARIABLE, lower=0.0, upper=10.0)
        moved = v.with_mean(11.0)
        assert moved.mean == 11.0
        assert moved.lower == -math.inf and moved.upper == math.inf


def mapped(v, u):
    """``v`` at the standard normal draw ``u``, through the program's marginal
    map, and its density there: phi(u) over the map's slope dx/du."""
    apply = marginal_map([v], None)
    x = apply(np.array([[u]]))[0]
    slope = apply.chain_rule(x, np.ones(1))[0]
    return x[0], std_normal(u)[0] / slope


class TestMarginals:
    def test_normal_at_mean(self):
        x, pdf = mapped(nv(0.0, 1.0), 0.0)
        assert x == 0.0
        assert pdf == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_normal_scaling(self):
        x, pdf = mapped(nv(2.0, 0.5), 1.0)
        assert x == pytest.approx(2.5, rel=1e-15)
        assert pdf == pytest.approx(std_normal(1.0)[0] / 0.5, rel=1e-12)

    def test_lognormal_median(self):
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 2.0, 0.6)
        lam, _ = v.log_params()
        x, _ = mapped(v, 0.0)
        assert x == pytest.approx(math.exp(lam), rel=1e-15)

    def test_lognormal_point_values(self):
        # frozen quadrature oracle for Lognormal(mean=1, std=0.3) at x=1:
        # pdf directly from the density, cdf by adaptive quadrature
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)
        x, pdf = mapped(v, ndtri(0.558347239143))
        assert x == pytest.approx(1.0, rel=1e-9)
        assert pdf == pytest.approx(1.344417984756, rel=1e-9)

    def test_lognormal_stays_positive(self):
        # deep in the lower tail the map still lands in the lognormal's domain
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)
        x, pdf = mapped(v, -8.0)
        assert x > 0.0 and pdf > 0.0
        assert pdf == pytest.approx(marginal(v).pdf(x), rel=1e-9)

    def test_deterministic_is_its_value(self):
        v = RandomVariable("d", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 2.0)
        apply = marginal_map([v], None)
        z = apply(np.array([[-1.0], [0.0], [3.0]]))
        assert np.all(z == 2.0)
        assert apply.chain_rule(z[0], np.ones(1))[0] == 0.0

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_inverse_cdf_round_trip(self, p):
        # transform_samples is the marginal inverse CDF that MC and FORM run
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.5, 0.4)
        x = transform_samples(np.array([[ndtri(p)]]), [v], None)[0, 0]
        assert marginal(v).cdf(x) == pytest.approx(p, abs=1e-10)


class TestEquivalentNormal:
    """The closed form's map is equivalent normalization at the means."""

    def test_normal_is_identity(self):
        m, mu_eq = standard_normal_map([nv(3.4, 0.3)], None)
        assert (m[0, 0], mu_eq[0]) == (0.3, 3.4)

    def test_deterministic(self):
        v = RandomVariable("d1", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 2.0)
        m, mu_eq = standard_normal_map([v], None)
        assert (m[0, 0], mu_eq[0]) == (0.0, 2.0)

    def test_lognormal_frozen(self):
        # frozen oracle: the Rackwitz-Fiessler match at the mean, as first computed
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)
        m, mu_eq = standard_normal_map([v], None)
        assert mu_eq[0] == pytest.approx(0.9569111518794738, rel=1e-15)
        assert m[0, 0] == pytest.approx(0.29356037920852385, rel=1e-15)

    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=100)
    def test_matches_pdf_and_cdf(self, mean, cv):
        # defining property: the equivalent normal reproduces the marginal
        # pdf and cdf of the variable at its mean
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, mean, cv * mean)
        m, mu_eq = standard_normal_map([v], None)
        sigma_eq = m[0, 0]
        pdf, cdf = marginal(v).pdf(mean), marginal(v).cdf(mean)
        n_pdf, n_cdf = std_normal((mean - mu_eq[0]) / sigma_eq)
        assert n_pdf / sigma_eq == pytest.approx(pdf, rel=1e-12)
        assert n_cdf == pytest.approx(cdf, rel=1e-12)

    @given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=100)
    def test_normal_reproduced_exactly(self, mean, std):
        m, mu_eq = standard_normal_map([nv(mean, std)], None)
        assert abs(mu_eq[0] - mean) <= 1e-12
        assert abs(m[0, 0] - std) <= 1e-12

    def test_sigma_positive_interior(self):
        for std in (0.01, 0.3, 1.0, 3.0):
            v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, std)
            assert standard_normal_map([v], None)[0][0, 0] > 0.0

    @pytest.mark.parametrize("name", ["demo-ellipse-lognormal", "demo-ellipse-det"])
    def test_tangent_of_marginal_map(self, name):
        # the map is the marginal map's Jacobian at the draw that maps to the means
        problem = builtin_problems()[name]()
        variables = problem.variables_at(problem.full_mean(problem.design_start()))
        means = np.array([v.mean for v in variables])
        y = np.array([0.0 if v.is_deterministic else ndtri(marginal(v).cdf(v.mean))
                      for v in variables])
        corr = problem.corr
        u = y if corr is None else np.linalg.solve(corr.l, y)
        to_z = marginal_map(variables, corr)
        np.testing.assert_allclose(to_z(u[None, :])[0], means, rtol=1e-12)
        m, mu_eq = standard_normal_map(variables, corr)
        np.testing.assert_allclose(fd_gradient(to_z, u), m, rtol=1e-6)
        np.testing.assert_allclose(mu_eq + m @ u, means, rtol=1e-12)  # tangent through the means
