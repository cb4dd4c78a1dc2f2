"""Chunked Monte Carlo failure-probability estimation."""

import dataclasses
import gc
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrel import montecarlo, problems
from quadrel.errors import DomainError
from quadrel.form import fd_gradient
from quadrel.montecarlo import BLOCK_SIZE, DEFAULT_CHUNK, marginal_map, mc_pf, transform_samples
from quadrel.quadratic import QuadraticForm, correlation_decompose
from quadrel.solver import ConstraintSpec, mc_audit, stacked_limit_states
from quadrel.variables import Kind, RandomVariable, Role

CRASH_CSV = os.path.join(os.path.dirname(__file__), "data", "crash_coefficients.csv")

# perfbench's three mc-audit design points
AUDIT_POINTS = {
    "crashworthiness": (lambda: problems.crashworthiness(CRASH_CSV),
                        [1.0, 0.9, 1.0, 1.0, 1.75, 0.8, 0.8]),
    "bench-3g": (problems.bench_3g, [3.4368, 3.2681]),
    "demo-ellipse-lognormal": (problems.demo_ellipse_lognormal, [5.0]),
}


def interleaved():
    """bench-3g's three black boxes with two explicit quadratics between them."""
    problem = problems.bench_3g()
    g1, g2, g3 = problem.constraints
    q1 = ConstraintSpec("q1", quadratic=QuadraticForm([[0.0, 0.25], [0.25, 0.0]], [0.0, 0.0], -5.3),
                        beta_d=3.0)
    q2 = ConstraintSpec("q2", quadratic=QuadraticForm([[1.0, 0.0], [0.0, 0.0]], [0.0, -1.0], -8.0),
                        beta_d=3.0)
    return dataclasses.replace(problem, constraints=[g1, q1, g2, q2, g3])


# and one problem whose limit states mix both kinds, at bench-3g's point
AUDIT_CASES = {**AUDIT_POINTS, "interleaved": (interleaved, [3.4368, 3.2681])}


def snv(name):
    return RandomVariable(name, Kind.NORMAL, Role.PARAMETER, 0.0, 1.0)


def stack_of_one(g):
    """One limit state's (m,) values as the (1, m) stack ``mc_pf`` takes."""
    return lambda z: g(z)[None]


def reference_transform(z_n, variables, corr):
    """The marginal map one column at a time: the loop the blocked kernel replaced."""
    y = z_n @ corr.l.T if corr is not None else z_n
    z = np.empty_like(y)
    for i, v in enumerate(variables):
        if v.is_deterministic:
            z[:, i] = v.mean
        elif v.kind is Kind.NORMAL:
            z[:, i] = v.mean + v.std * y[:, i]
        else:
            lam, zeta = v.log_params()
            z[:, i] = np.exp(lam + zeta * y[:, i])
    return z


@st.composite
def variable_lists(draw):
    variables = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(list(Kind)))
        mean = draw(st.floats(min_value=0.1, max_value=10.0))
        if kind is Kind.DETERMINISTIC:
            variables.append(RandomVariable(f"d{i}", kind, Role.DETERMINISTIC_DESIGN, mean))
        else:
            std = draw(st.floats(min_value=0.0 if kind is Kind.NORMAL else 1e-3,
                                 max_value=3.0))
            variables.append(RandomVariable(f"x{i}", kind, Role.PARAMETER, mean, std))
    return variables


def random_correlation(rng, n):
    """The decomposed correlation of a random full-rank covariance."""
    a = rng.standard_normal((n, n + 1))
    cov = a @ a.T
    s = 1.0 / np.sqrt(np.diag(cov))
    return correlation_decompose(s[:, None] * cov * s[None, :])


def singular_correlation(rng, n):
    """A random correlation whose first two variables are perfectly correlated
    (rho = 1): one zero eigenvalue, whose eigenvector reaches those two columns."""
    a = rng.standard_normal((n, n + 1))
    a[1] = a[0]
    cov = a @ a.T
    s = 1.0 / np.sqrt(np.diag(cov))
    return correlation_decompose(s[:, None] * cov * s[None, :])


class TestReproducibility:
    def test_same_seed_same_estimate(self):
        qn = QuadraticForm(a=np.diag([0.05, -0.08]),
                                     k=np.array([0.3, -0.2]), c=1.2)
        variables = [snv("z1"), snv("z2")]
        a, = mc_pf(stack_of_one(qn), variables, None, n=200_000, seed=7)
        b, = mc_pf(stack_of_one(qn), variables, None, n=200_000, seed=7)
        assert a.pf_hat == b.pf_hat
        assert a.ci95_halfwidth == b.ci95_halfwidth

    def test_chunking_invariant(self, monkeypatch):
        # the estimate depends on (seed, n), not on how the stream is cut
        # into chunks: consecutive draws from one generator concatenate
        qn = QuadraticForm(a=np.zeros((2, 2)),
                                     k=np.array([1.0, 0.0]), c=2.0)
        variables = [snv("z1"), snv("z2")]
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 50_000)
        a, = mc_pf(stack_of_one(qn), variables, None, n=300_000, seed=11)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 300_000)
        b, = mc_pf(stack_of_one(qn), variables, None, n=300_000, seed=11)
        assert a.pf_hat == b.pf_hat

    @pytest.mark.parametrize("name", AUDIT_POINTS)
    def test_chunking_invariant_at_benchmark_points(self, name, monkeypatch):
        # crash's explicit quadratics, bench-3g's black boxes and the
        # correlated lognormal: the map and g give each row the same value
        # whatever rows share its chunk
        build, point = AUDIT_POINTS[name]
        problem = build()
        variables = problem.variables_at(problem.full_mean(np.array(point)))
        n = 20_000

        def chunked(g, seed, chunk):
            monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", chunk)
            return mc_pf(g, variables, problem.corr, n=n, seed=seed)

        chunks = (7, 999, DEFAULT_CHUNK, n)
        for i, spec in enumerate(problem.constraints):
            pf = {chunk: chunked(stack_of_one(spec.evaluate), 5 + i, chunk)[0].pf_hat
                  for chunk in chunks}
            assert len(set(pf.values())) == 1, (spec.name, pf)
        # and every constraint stacked on one draw by mc_audit's evaluator
        g = stacked_limit_states(problem.constraints)
        pf = {chunk: tuple(e.pf_hat for e in chunked(g, 5, chunk)) for chunk in chunks}
        assert len(set(pf.values())) == 1, pf

    @pytest.mark.parametrize("name", AUDIT_CASES)
    def test_audit_gives_each_constraint_the_same_samples(self, name):
        # one shared draw: constraint i's estimate is that of mc_pf on it
        # alone with the call's seed, bit for bit, whichever kind its limit
        # state is and wherever it sits among the others
        build, point = AUDIT_CASES[name]
        problem = build()
        variables = problem.variables_at(problem.full_mean(np.array(point)))
        n = 20_000
        audit = mc_audit(problem, np.array(point), n=n, seed=5)
        assert len(audit) == len(problem.constraints)
        for spec, est in zip(problem.constraints, audit):
            alone, = mc_pf(stack_of_one(spec.evaluate), variables, problem.corr, n=n, seed=5)
            assert est == alone, spec.name

    def test_different_seeds_differ(self):
        qn = QuadraticForm(a=np.zeros((1, 1)),
                                     k=np.array([1.0]), c=1.5)
        a, = mc_pf(stack_of_one(qn), [snv("z")], None, n=100_000, seed=1)
        b, = mc_pf(stack_of_one(qn), [snv("z")], None, n=100_000, seed=2)
        assert a.pf_hat != b.pf_hat


class TestDrawThread:
    """Every chunk is drawn, mapped and evaluated on the calling thread."""

    @pytest.fixture(autouse=True)
    def ten_chunks(self, monkeypatch):
        # n = 10 000 in 10 chunks of 1 000 rows
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 1_000)

    @staticmethod
    def linear():
        return QuadraticForm(a=np.zeros((1, 1)), k=np.array([1.0]), c=2.0)

    def test_generator_and_g_on_the_caller_and_no_thread_started(self, monkeypatch):
        draw_threads, g_threads, counts = set(), set(), set()
        default_rng = np.random.default_rng

        class Recorded:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, *args, **kwargs):
                draw_threads.add(threading.get_ident())
                return self.rng.standard_normal(*args, **kwargs)

        def g(z):
            g_threads.add(threading.get_ident())
            counts.add(threading.active_count())
            return self.linear()(z)[None]

        monkeypatch.setattr(montecarlo.np.random, "default_rng", Recorded)
        before = threading.active_count()
        mc_pf(g, [snv("z")], None, n=10_000, seed=0)
        assert draw_threads == g_threads == {threading.get_ident()}
        assert counts == {before}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("fail_on", [1, 3, 10])
    def test_failing_limit_state_raises_and_leaves_no_thread(self, fail_on, k):
        # first chunk, a middle one and the last, of a stack of one and of two
        before = threading.active_count()
        calls = [0]

        def g(z):
            calls[0] += 1
            if calls[0] == fail_on:
                raise ZeroDivisionError("limit state failed")
            return np.stack([self.linear()(z), -self.linear()(z)][:k])

        with pytest.raises(ZeroDivisionError, match="limit state failed"):
            mc_pf(g, [snv("z")], None, n=10_000, seed=0)
        assert calls[0] == fail_on
        assert threading.active_count() == before

    def test_concurrent_calls_under_fast_switching(self, monkeypatch):
        # more callers than cores, each with its own generator and buffer,
        # switching every microsecond: a draw from another call's generator,
        # or into another call's buffer, moves the failure count
        variables = [snv("z1"), RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)]
        corr = correlation_decompose(np.array([[1.0, 0.5], [0.5, 1.0]]))

        def g(z):
            return (1.4 - z[:, 1] + 0.1 * z[:, 0])[None]

        def run(seed):
            return mc_pf(g, variables, corr, n=30_000, seed=seed)[0].pf_hat

        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 30_000)
        expected = {seed: run(seed) for seed in range(4)}
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 97)
        got = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda s=seed: got.update({s: run(s)}))
                       for seed in expected]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_no_thread_left_after_a_return(self):
        before = threading.active_count()
        mc_pf(stack_of_one(self.linear()), [snv("z")], None, n=10_000, seed=0)
        assert threading.active_count() == before

    def test_stacked_limit_state_returns_one_estimate_per_row(self):
        before = threading.active_count()
        q = self.linear()
        single, = mc_pf(stack_of_one(q), [snv("z")], None, n=10_000, seed=0)
        two = mc_pf(lambda z: np.stack([q(z), -q(z)]), [snv("z")], None, n=10_000, seed=0)
        assert two[0] == single
        assert round(two[1].pf_hat * 10_000) == 10_000 - round(single.pf_hat * 10_000)
        assert threading.active_count() == before


class TestAccuracy:
    def test_linear_anchor(self):
        # g = 3 - z fails with probability Phi(-3) = 1.3499e-3
        qn = QuadraticForm(a=np.zeros((1, 1)),
                                     k=np.array([-1.0]), c=3.0)
        est, = mc_pf(stack_of_one(qn), [snv("z")], None, n=10_000_000, seed=5)
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
            return x[:, :1].T

        est, = mc_pf(g, variables, None, n=2_000_000, seed=3)
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


class TestBlockedKernel:
    """The blocked marginal map equals the per-column loop bit for bit."""

    @given(variable_lists(), st.booleans(), st.sampled_from(["one", "below", "on", "above"]),
           st.booleans(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_column_reference(self, variables, correlated, rows, in_place,
                                          infinite, seed):
        n = len(variables)
        block_rows = BLOCK_SIZE // n
        m = {"one": 1, "below": block_rows - 1, "on": block_rows, "above": block_rows + 1}[rows]
        rng = np.random.default_rng(seed)
        corr = random_correlation(rng, n) if correlated else None
        z_n = rng.standard_normal((m, n))
        if infinite:  # a deterministic column keeps its value, not mean + 0 * inf
            z_n[0] = np.inf
        with np.errstate(invalid="ignore"):  # 0 * inf and inf - inf are nan on both sides
            expected = reference_transform(z_n, variables, corr)
            got = transform_samples(z_n, variables, corr, out=z_n if in_place else None)
        assert got is z_n or not in_place
        assert np.array_equal(got, expected, equal_nan=True)

    def test_mc_audit_pinned_at_benchmark_points(self):
        # pf_hat at perfbench's three mc-audit design points, n = 20 000,
        # seed 5: any change to the draw, its order or the transform moves them
        n = 20_000
        cases = [
            (problems.crashworthiness(CRASH_CSV), [1.0, 0.9, 1.0, 1.0, 1.75, 0.8, 0.8],
             [199, 0, 11, 1, 0, 0, 0, 69, 113, 14]),
            (problems.bench_3g(), [3.4368, 3.2681], [32, 27, 0]),
            (problems.demo_ellipse_lognormal(), [5.0], [90]),
        ]
        for problem, point, failures in cases:
            est = mc_audit(problem, np.array(point), n=n, seed=5)
            assert [e.pf_hat for e in est] == [k / n for k in failures]


    @given(variable_lists(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_hessian_chain_rule_matches_differences_of_chain_rule(self, variables, correlated,
                                                                  seed):
        # a quadratic's standard-normal Hessian is the Jacobian of its
        # standard-normal gradient, over normal, lognormal and deterministic columns
        n = len(variables)
        rng = np.random.default_rng(seed)
        corr = random_correlation(rng, n) if correlated else None
        q = QuadraticForm(rng.standard_normal((n, n)), rng.standard_normal(n), 0.0)
        to_z = marginal_map(variables, corr)
        u = rng.standard_normal(n)
        z = to_z(u[None, :])[0]
        hessian = to_z.hessian_chain_rule(z, q.gradient(z), 2.0 * q.a)

        def gradients(points):
            return np.array([to_z.chain_rule(y, q.gradient(y)) for y in to_z(points)])
        fd = fd_gradient(gradients, u)
        np.testing.assert_allclose(hessian, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(fd).max()))

    @given(variable_lists(), st.sampled_from(["none", "full-rank", "singular"]),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_gradient_in_z_inverts_the_chain_rule(self, variables, correlation, seed):
        # grad_z back from L'(d * grad_z) on every resolved column, 0 on the rest;
        # a column is unresolved where its slope is 0 (deterministic) or within
        # 1e-12 of the largest, or where it reaches into the null space of a
        # singular correlation
        n = len(variables)
        rng = np.random.default_rng(seed)
        scale = np.array([v.log_params()[1] if v.kind is Kind.LOGNORMAL else v.std
                          for v in variables])
        resolved = scale > 1e-12 * scale.max()
        corr = None
        if correlation == "full-rank":
            corr = random_correlation(rng, n)
        elif correlation == "singular" and n > 1:
            corr = singular_correlation(rng, n)
            resolved[:2] = False
        to_z = marginal_map(variables, corr)
        z = to_z(rng.standard_normal((1, n)))[0]
        grad_z = rng.standard_normal(n)
        back, got = to_z.gradient_in_z(z, to_z.chain_rule(z, grad_z))
        assert np.array_equal(got, resolved)
        assert not back[~resolved].any()
        # d * grad_z is what the inversion recovers, to roundoff; divided by a
        # small slope its error grows, so it is compared before the division
        # (and to 1e-300 absolute, where a subnormal std keeps few bits)
        d = marginal_map(variables, None).chain_rule(z, np.ones(n))
        w = d * grad_z
        np.testing.assert_allclose((d * back)[resolved], w[resolved],
                                   rtol=1e-12 if corr is None else 0.0,
                                   atol=1e-300 + (0.0 if corr is None else 1e-9 * np.abs(w).max()))

    @given(variable_lists(), st.booleans(), st.booleans(),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_dz_dmu_matches_differences_of_the_map(self, variables, correlated, proportional,
                                                  seed):
        # at a fixed draw, the map's derivative in each variable's own mean is
        # the central difference over maps built at moved means, with each
        # std t |mean| where t > 0
        n = len(variables)
        rng = np.random.default_rng(seed)
        corr = random_correlation(rng, n) if correlated else None
        t = np.where(rng.random(n) < 0.5, rng.uniform(0.05, 0.5, n), 0.0) if proportional \
            else np.zeros(n)
        t[[v.is_deterministic for v in variables]] = 0.0

        def moved(j, mean):
            v = variables[j]
            return variables[:j] + [v.with_mean(mean, t[j] * mean if t[j] else None)] \
                + variables[j + 1:]
        base = [v.with_mean(v.mean, t[i] * v.mean if t[i] else None)
                for i, v in enumerate(variables)]
        u = rng.standard_normal(n)
        fd = np.empty(n)
        for j, v in enumerate(variables):
            h = 1e-6 * max(1.0, v.mean)
            up = marginal_map(moved(j, v.mean + h), corr)(u[None])[0, j]
            down = marginal_map(moved(j, v.mean - h), corr)(u[None])[0, j]
            fd[j] = (up - down) / (2.0 * h)
        np.testing.assert_allclose(marginal_map(base, corr).dz_dmu(u, t), fd,
                                   rtol=1e-6, atol=1e-6)

    def test_map_is_freed_without_the_garbage_collector(self):
        # mc_pf builds a map per chunk: a reference cycle through the map
        # would hold its tiles until a collection ran, not until it is dropped
        variables = [snv("z1"), RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)]
        gc.disable()
        try:
            apply = marginal_map(variables, correlation_decompose(np.eye(2)))
            apply(np.zeros((BLOCK_SIZE, 2)))
            ref = weakref.ref(apply)
            del apply
            assert ref() is None
        finally:
            gc.enable()


class TestValidation:
    def test_n_too_small(self):
        qn = QuadraticForm(a=np.zeros((1, 1)), k=np.array([1.0]), c=1.0)
        with pytest.raises(DomainError):
            mc_pf(stack_of_one(qn), [snv("z")], None, n=500, seed=0)

    def test_n_not_integer(self):
        qn = QuadraticForm(a=np.zeros((1, 1)), k=np.array([1.0]), c=1.0)
        with pytest.raises(DomainError, match="integer n"):
            mc_pf(stack_of_one(qn), [snv("z")], None, n=2e3, seed=0)

    @pytest.mark.parametrize("seed,match", [(-1, "seed >= 0"), (1.5, "integer seed")])
    def test_bad_seed(self, seed, match):
        qn = QuadraticForm(a=np.zeros((1, 1)), k=np.array([1.0]), c=1.0)
        with pytest.raises(DomainError, match=match):
            mc_pf(stack_of_one(qn), [snv("z")], None, n=10_000, seed=seed)

    @pytest.mark.parametrize("shape", [(), (1,), (2, 1), (10_000, 1), (1, 2, 10_000), (10_000,)])
    def test_limit_state_values_of_another_shape(self, shape):
        # an (m, 1) column would otherwise count as m limit states of one sample,
        # and one limit state's (m,) values are a stack of one, (1, m)
        with pytest.raises(DomainError, match="mc_pf needs"):
            mc_pf(lambda z: np.ones(shape), [snv("z")], None, n=10_000, seed=0)

    def test_more_columns_than_variables(self):
        # the extra column would be returned uninitialized
        with pytest.raises(DomainError, match=r"\(2, 3\) need 2 columns"):
            transform_samples(np.ones((2, 3)), [snv("z1"), snv("z2")], None)

    def test_fewer_columns_than_variables(self):
        with pytest.raises(DomainError, match=r"\(2, 1\) need 2 columns"):
            transform_samples(np.ones((2, 1)), [snv("z1"), snv("z2")], None)
