"""Chunked Monte Carlo failure-probability estimation."""

import numpy as np
import pytest

from quadrel.errors import DomainError
from quadrel.montecarlo import mc_pf, transform_samples
from quadrel.quadratic import QuadraticForm, correlation_decompose
from quadrel.variables import Kind, RandomVariable, Role


def snv(name):
    return RandomVariable(name, Kind.NORMAL, Role.PARAMETER, 0.0, 1.0)


class TestReproducibility:
    def test_same_seed_same_estimate(self):
        qn = QuadraticForm(a=np.diag([0.05, -0.08]),
                                     k=np.array([0.3, -0.2]), c=1.2)
        variables = [snv("z1"), snv("z2")]
        a = mc_pf(qn, variables, None, n=200_000, seed=7)
        b = mc_pf(qn, variables, None, n=200_000, seed=7)
        assert a.pf_hat == b.pf_hat
        assert a.ci95_halfwidth == b.ci95_halfwidth

    def test_chunking_invariant(self):
        # the estimate depends on (seed, n), not on how the stream is cut
        # into chunks: consecutive draws from one generator concatenate
        qn = QuadraticForm(a=np.zeros((2, 2)),
                                     k=np.array([1.0, 0.0]), c=2.0)
        variables = [snv("z1"), snv("z2")]
        a = mc_pf(qn, variables, None, n=300_000, seed=11, chunk_size=50_000)
        b = mc_pf(qn, variables, None, n=300_000, seed=11, chunk_size=300_000)
        assert a.pf_hat == b.pf_hat

    def test_different_seeds_differ(self):
        qn = QuadraticForm(a=np.zeros((1, 1)),
                                     k=np.array([1.0]), c=1.5)
        a = mc_pf(qn, [snv("z")], None, n=100_000, seed=1)
        b = mc_pf(qn, [snv("z")], None, n=100_000, seed=2)
        assert a.pf_hat != b.pf_hat


class TestAccuracy:
    def test_linear_anchor(self):
        # g = 3 - z fails with probability Phi(-3) = 1.3499e-3
        qn = QuadraticForm(a=np.zeros((1, 1)),
                                     k=np.array([-1.0]), c=3.0)
        est = mc_pf(qn, [snv("z")], None, n=10_000_000, seed=5)
        assert est.pf_hat == pytest.approx(0.001349898, abs=4e-5)
        assert est.n == 10_000_000
        # binomial CI check: halfwidth = 1.96 sqrt(p(1-p)/n)
        p = est.pf_hat
        assert est.ci95_halfwidth == pytest.approx(
            1.96 * np.sqrt(p * (1 - p) / est.n), rel=1e-9)

    def test_callable_limit_state(self):
        # mc_pf accepts a plain batch callable in physical space
        variables = [RandomVariable("x", Kind.NORMAL, Role.PARAMETER, 2.0, 0.5)]

        def g(x):
            return x[:, 0]

        est = mc_pf(g, variables, None, n=2_000_000, seed=3)
        assert est.pf_hat == pytest.approx(3.1671e-5, abs=1.2e-5)


class TestTransformSamples:
    def test_lognormal_moments_recovered(self):
        variables = [RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 2.0, 0.6)]
        z_n = np.random.default_rng(9).standard_normal((1_000_000, 1))
        x = transform_samples(z_n, variables, None)
        assert x.shape == (1_000_000, 1)
        assert np.mean(x) == pytest.approx(2.0, rel=3e-3)
        assert np.std(x) == pytest.approx(0.6, rel=1e-2)
        assert np.all(x > 0.0)

    def test_correlation_recovered(self):
        rho = 0.7
        corr = correlation_decompose(np.array([[1.0, rho], [rho, 1.0]]))
        variables = [snv("z1"), snv("z2")]
        z_n = np.random.default_rng(13).standard_normal((1_000_000, 2))
        x = transform_samples(z_n, variables, corr)
        assert np.corrcoef(x.T)[0, 1] == pytest.approx(rho, abs=5e-3)

    def test_normal_affine(self):
        variables = [RandomVariable("x", Kind.NORMAL, Role.PARAMETER, 3.0, 0.4)]
        z_n = np.array([[-1.0], [0.0], [2.5]])
        x = transform_samples(z_n, variables, None)
        assert np.allclose(x[:, 0], 3.0 + 0.4 * z_n[:, 0])

    def test_deterministic_column_constant(self):
        variables = [
            RandomVariable("d", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 4.0),
            snv("z"),
        ]
        z_n = np.random.default_rng(1).standard_normal((10_000, 2))
        x = transform_samples(z_n, variables, None)
        assert np.all(x[:, 0] == 4.0)


class TestValidation:
    def test_n_too_small(self):
        qn = QuadraticForm(a=np.zeros((1, 1)), k=np.array([1.0]), c=1.0)
        with pytest.raises(DomainError):
            mc_pf(qn, [snv("z")], None, n=500, seed=0)

    def test_bad_chunk(self):
        qn = QuadraticForm(a=np.zeros((1, 1)), k=np.array([1.0]), c=1.0)
        with pytest.raises(DomainError):
            mc_pf(qn, [snv("z")], None, n=10_000, seed=0, chunk_size=0)
