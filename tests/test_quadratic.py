"""Quadratic-form algebra: correlation decomposition, the transform into
uncorrelated standard-normal space, the eigenbasis and the moment sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrel.errors import DomainError, NotACorrelationMatrixError
from quadrel.problems import demo_ellipse_varstd
from quadrel.quadratic import (
    CorrelationModel,
    QuadraticForm,
    correlation_decompose,
    eigenbasis,
    moment_sums,
    monomial_product,
    spectral,
    standard_normal_map,
    to_standard_normal,
)
from quadrel.variables import Kind, RandomVariable, Role


def normal(name, mean, std, role=Role.PARAMETER):
    return RandomVariable(name, Kind.NORMAL, role, mean, std)


ELLIPSE = QuadraticForm(
    a=np.array([[1.0 / 24.0, 1.0 / 40.0], [1.0 / 40.0, 1.0 / 24.0]]),
    k=np.array([-8.0 / 15.0, -2.0 / 15.0]),
    c=31.0 / 30.0,
)


class TestQuadraticForm:
    def test_symmetrized(self):
        q = QuadraticForm(a=np.array([[1.0, 2.0], [0.0, 3.0]]), k=np.zeros(2), c=0.0)
        assert np.allclose(q.a, q.a.T)
        assert q.a[0, 1] == 1.0

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            QuadraticForm(a=np.zeros((2, 3)), k=np.zeros(2), c=0.0)
        with pytest.raises(DomainError):
            QuadraticForm(a=np.zeros((2, 2)), k=np.zeros(3), c=0.0)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        q = QuadraticForm(a=rng.normal(size=(3, 3)), k=rng.normal(size=3), c=1.3)
        pts = rng.normal(size=(5, 3))
        batch = q(pts)
        for i in range(5):
            assert batch[i] == pytest.approx(q(pts[i]), rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(1)
        q = QuadraticForm(a=rng.normal(size=(3, 3)), k=rng.normal(size=3), c=0.0)
        z = rng.normal(size=3)
        h = 1e-6
        for i in range(3):
            zp = z.copy(); zp[i] += h
            zm = z.copy(); zm[i] -= h
            fd = (q(zp) - q(zm)) / (2.0 * h)
            assert q.gradient(z)[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_flat_round_trip(self, n, seed):
        # the flat layout is (c, k_1..k_n, upper triangle of A row-major)
        rng = np.random.default_rng(seed)
        q = QuadraticForm(a=rng.uniform(-5.0, 5.0, (n, n)), k=rng.uniform(-5.0, 5.0, n),
                          c=rng.uniform(-5.0, 5.0))
        flat = np.concatenate(([q.c], q.k, q.a[np.triu_indices(n)]))
        q2 = QuadraticForm.from_flat(flat, n)
        assert np.array_equal(q2.a, q.a)
        assert np.array_equal(q2.k, q.k)
        assert q2.c == q.c

    def test_from_flat_length_check(self):
        with pytest.raises(DomainError):
            QuadraticForm.from_flat(np.zeros(7), 3)


class TestMonomialProduct:
    """A stack of quadratics evaluated as one product over their monomials."""

    @given(st.sampled_from(["dense", "diagonal", "mixed", "linear"]),
           st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5),
           st.sampled_from([1, 7, 999, 20_000]), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_rows_match_each_form(self, sparsity, n, k, m, seed):
        # row i is forms[i](z) to roundoff, relative to the sum of its terms'
        # magnitudes; "linear" stacks have A = 0 and so no monomial at all,
        # and 20 000 samples span several blocks of four or more monomial rows
        rng = np.random.default_rng(seed)
        forms = []
        for _ in range(k):
            pattern = rng.choice(["dense", "diagonal", "zero", "sparse"]) \
                if sparsity == "mixed" else sparsity
            a = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
            if pattern == "diagonal":
                a = np.diag(np.diag(a))
            elif pattern == "sparse":
                a = a * (rng.random((n, n)) < 0.3)
            elif pattern in ("zero", "linear"):
                a = np.zeros((n, n))
            forms.append(QuadraticForm(a, rng.standard_normal(n) * 3.0, rng.standard_normal()))
        z = rng.standard_normal((m, n)) * 2.0
        got = monomial_product(forms)(z)
        assert got.shape == (k, m)
        for q, row in zip(forms, got):
            scale = np.einsum("ij,jk,ik->i", np.abs(z), np.abs(q.a), np.abs(z)) \
                + np.abs(z) @ np.abs(q.k) + abs(q.c)
            assert np.all(np.abs(row - q(z)) <= 1e-12 * scale), (q, row - q(z))

    def test_shape_validation(self):
        two = QuadraticForm(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(DomainError):
            monomial_product([two, QuadraticForm(np.eye(3), np.zeros(3), 0.0)])
        with pytest.raises(DomainError):
            monomial_product([two])(np.zeros((4, 3)))
        with pytest.raises(DomainError):
            monomial_product([two])(np.zeros(2))


class TestCorrelation:
    def test_decompose_reconstructs(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        cm = correlation_decompose(c)
        assert np.allclose(cm.l @ cm.l.T, c, atol=1e-10)

    def test_not_symmetric(self):
        with pytest.raises(NotACorrelationMatrixError):
            correlation_decompose(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_bad_diagonal(self):
        with pytest.raises(NotACorrelationMatrixError):
            correlation_decompose(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_not_psd(self):
        with pytest.raises(NotACorrelationMatrixError):
            correlation_decompose(np.array([[1.0, 1.2], [1.2, 1.0]]))

    @given(st.floats(min_value=-0.95, max_value=0.95))
    def test_two_by_two_family(self, rho):
        cm = correlation_decompose(np.array([[1.0, rho], [rho, 1.0]]))
        assert np.allclose(cm.l @ cm.l.T, [[1.0, rho], [rho, 1.0]], atol=1e-10)
        # L's columns are eigenvectors scaled by the square roots of 1 -+ |rho|
        assert np.allclose(np.sort(np.sum(cm.l ** 2, axis=0)), [1.0 - abs(rho), 1.0 + abs(rho)],
                           atol=1e-10)


class TestToStandardNormal:
    def test_worked_example_matrices(self):
        # mu_x1-parametric transform of the ellipse with sigma = 0.3 on
        # both variables: reference matrices and polynomials
        mu_x1 = 4.0
        variables = [normal("x1", mu_x1, 0.3, Role.DESIGN_VARIABLE), normal("p1", 3.4, 0.3)]
        snmap = standard_normal_map(variables, None)
        qn = to_standard_normal(ELLIPSE, snmap)
        assert np.allclose(qn.a, [[0.00375, 0.00225], [0.00225, 0.00375]], atol=1e-12)
        assert qn.k[0] == pytest.approx(mu_x1 / 40.0 - 0.109, abs=1e-12)
        assert qn.k[1] == pytest.approx(3.0 * mu_x1 / 200.0 + 0.045, abs=1e-12)
        assert qn.c == pytest.approx(mu_x1**2 / 24.0 - 0.363333333333 * mu_x1 + 1.0616666667,
                                     abs=1e-9)

    def test_eigenvalues_of_worked_example(self):
        variables = [normal("x1", 2.0, 0.3), normal("p1", 3.4, 0.3)]
        snmap = standard_normal_map(variables, None)
        qn = to_standard_normal(ELLIPSE, snmap)
        gamma = np.linalg.eigvalsh(qn.a)
        assert gamma == pytest.approx([0.0015, 0.006], abs=1e-12)

    def test_exact_identity_uncorrelated(self):
        # defining property: Q_N(z_N) = Q(sigma*z_N + mu) for normals
        rng = np.random.default_rng(3)
        q = QuadraticForm(a=rng.normal(size=(3, 3)), k=rng.normal(size=3), c=0.7)
        means = np.array([1.0, -2.0, 0.5])
        stds = np.array([0.3, 1.2, 0.05])
        variables = [normal(f"x{i}", means[i], stds[i]) for i in range(3)]
        qn = to_standard_normal(q, standard_normal_map(variables, None))
        for z_n in rng.normal(size=(20, 3)):
            z = means + stds * z_n
            assert qn(z_n) == pytest.approx(q(z), rel=1e-10, abs=1e-10)

    def test_exact_identity_correlated(self):
        rng = np.random.default_rng(4)
        q = QuadraticForm(a=rng.normal(size=(2, 2)), k=rng.normal(size=2), c=-0.4)
        corr = correlation_decompose(np.array([[1.0, 0.6], [0.6, 1.0]]))
        means = np.array([2.0, 3.4])
        stds = np.array([0.3, 0.3])
        variables = [normal("x1", 2.0, 0.3), normal("p1", 3.4, 0.3)]
        qn = to_standard_normal(q, standard_normal_map(variables, corr))
        for z_n in rng.normal(size=(20, 2)):
            z = means + stds * (corr.l @ z_n)
            assert qn(z_n) == pytest.approx(q(z), rel=1e-10, abs=1e-10)

    def test_deterministic_rows_vanish(self):
        rng = np.random.default_rng(5)
        q = QuadraticForm(a=rng.normal(size=(3, 3)), k=rng.normal(size=3), c=0.0)
        variables = [
            RandomVariable("d1", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 2.0),
            normal("x1", 1.0, 0.5),
            normal("p1", 0.0, 1.0),
        ]
        qn = to_standard_normal(q, standard_normal_map(variables, None))
        assert np.all(qn.a[0, :] == 0.0) and np.all(qn.a[:, 0] == 0.0)
        assert qn.k[0] == 0.0

    def test_uncorrelated_map_is_the_scaled_identity(self):
        # diag(sigma_eq) is the product sigma_eq * I it replaced, bit for bit,
        # at seeded points of the builtin whose stds move with the means
        problem = demo_ellipse_varstd()
        (lo, hi), = problem.bounds
        for mu in np.random.default_rng(3).uniform(lo, hi, size=(20, 1)):
            variables = problem.variables_at(problem.full_mean(mu))
            sigma_eq = np.array([v.std for v in variables])
            m, _ = standard_normal_map(variables, None)
            assert m.tobytes() == (sigma_eq[:, None] * np.eye(2)).tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            to_standard_normal(ELLIPSE,
                               standard_normal_map([normal("x", 0.0, 1.0)], None))


class TestSpectral:
    def test_moment_sums_definition(self):
        rng = np.random.default_rng(6)
        gamma = rng.normal(size=4)
        kbar = rng.normal(size=4)
        m1, m2, m3, m4 = moment_sums(gamma, kbar)
        for r, m in zip(range(1, 5), (m1, m2, m3, m4)):
            ref = np.sum(gamma**r + (r / 4.0) * gamma ** (r - 2) * kbar**2)
            assert m == pytest.approx(ref, rel=1e-12)

    def test_kbar_norm_preserved(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        qn = QuadraticForm(a=a, k=rng.normal(size=4), c=0.0)
        _, p = spectral(qn)
        kbar = p[0].T @ qn.k
        assert np.linalg.norm(kbar) == pytest.approx(np.linalg.norm(qn.k), rel=1e-12)

    def test_same_sign_zero_regularized(self):
        # structurally zero eigenvalue from a deterministic row: replaced
        # by +eps so the one-sign closed form applies
        a = np.zeros((3, 3))
        a[1:, 1:] = [[0.00375, 0.00225], [0.00225, 0.00375]]
        qn = QuadraticForm(a=a, k=np.array([0.0, 0.1, -0.2]), c=1.0)
        gamma, _ = spectral(qn)
        assert sorted(np.round(gamma[0], 10)) == pytest.approx([1e-7, 0.0015, 0.006])

    def test_mixed_sign_keeps_zeros(self):
        qn = QuadraticForm(a=np.diag([0.5, -0.5, 0.0]),
                                     k=np.array([0.0, 0.0, 1.0]), c=1.0)
        gamma, _ = spectral(qn)
        assert np.count_nonzero(gamma == 0.0) == 1

    def test_eigenbasis_zero_tolerance(self):
        # |gamma| <= SIGN_ZERO_TOL * max(1, ||A'||_F) counts as zero; a
        # mixed-sign form keeps it at 0 rather than lifting it
        gamma, _ = eigenbasis(np.diag([1.0, -1.0, 1e-18])[None])
        assert gamma[0].tolist() == [-1.0, 0.0, 1.0]
