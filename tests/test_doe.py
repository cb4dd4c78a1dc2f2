"""Experimental designs, sampling boxes and quadratic surrogate fitting."""

import math

import numpy as np
import pytest

from quadrel.doe import (
    DoeBox,
    Scheme,
    bbd_points,
    ccd_points,
    doe_box,
    fit_quadratic,
    inscribed_ccd_2,
    n_quadratic_coefficients,
    plan_to_csv,
)
from quadrel.errors import (
    DomainError,
    SingularFitError,
    UnsupportedDesignError,
    ZeroHalfwidthError,
)
from quadrel.quadratic import QuadraticForm
from quadrel.variables import Kind, RandomVariable, Role


def unit_box(n):
    return DoeBox(center=np.zeros(n), halfwidths=np.ones(n))


def design(name, mean, std):
    return RandomVariable(name, Kind.NORMAL, Role.DESIGN_VARIABLE, mean, std)


def param(name, mean, std):
    return RandomVariable(name, Kind.NORMAL, Role.PARAMETER, mean, std)


class TestPlanSizes:
    @pytest.mark.parametrize("n,size", [(3, 13), (4, 25), (5, 41)])
    def test_bbd_counts(self, n, size):
        plan = bbd_points(unit_box(n))
        assert plan.size == size
        assert plan.scheme is Scheme.BBD

    @pytest.mark.parametrize("n,size", [(2, 9), (3, 15), (5, 27), (9, 147)])
    def test_ccd_counts(self, n, size):
        plan = ccd_points(unit_box(n))
        assert plan.size == size
        assert plan.scheme is Scheme.CCD

    def test_center_is_first_row(self):
        box = DoeBox(center=np.array([2.0, -1.0, 0.5]), halfwidths=np.array([1.0, 0.5, 2.0]))
        for plan in (bbd_points(box), ccd_points(box)):
            assert np.allclose(plan.points[0], box.center)

    def test_points_unique(self):
        for plan in (bbd_points(unit_box(4)), ccd_points(unit_box(5))):
            assert len({tuple(np.round(p, 12)) for p in plan.points}) == plan.size

    def test_bbd_too_small(self):
        with pytest.raises(UnsupportedDesignError):
            bbd_points(unit_box(2))

    def test_ccd_out_of_range(self):
        with pytest.raises(UnsupportedDesignError):
            ccd_points(unit_box(13))


class TestInscribedCcd:
    def test_star_on_boundary_corners_inside(self):
        box = DoeBox(center=np.array([1.0, 2.0]), halfwidths=np.array([0.5, 0.8]))
        plan = inscribed_ccd_2(box)
        assert plan.size == 9
        dev = np.abs(plan.points - box.center) / box.halfwidths
        assert np.all(dev <= 1.0 + 1e-9)
        # rows 1..4 are the axial star points, pinned to the boundary
        assert np.max(dev[1:5], axis=1) == pytest.approx(np.ones(4), abs=1e-12)
        # rows 5..8 are the factorial corners, pulled in by 1/sqrt(2)
        assert np.all(np.abs(dev[5:] - 1.0 / np.sqrt(2.0)) <= 1e-12)

    def test_coded_rows_exact(self):
        # the 2-D CCD's rows in its order, with the four corners divided by sqrt(2)
        s = 1.0 / math.sqrt(2.0)
        coded = [[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0],
                 [-s, -s], [-s, s], [s, -s], [s, s]]
        assert inscribed_ccd_2(unit_box(2)).points.tolist() == coded
        assert ccd_points(unit_box(2)).points[:5].tolist() == coded[:5]

    def test_wrong_dimension(self):
        with pytest.raises(UnsupportedDesignError):
            inscribed_ccd_2(unit_box(3))


class TestDoeBoxSizing:
    def test_halfwidth_rules(self):
        variables = [
            design("x1", 5.0, 0.3),
            param("p1", 3.4, 0.3),
            RandomVariable("d1", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 2.0),
        ]
        box = doe_box(variables, beta_d=3.0, det_solution=[5.0, 3.4, 2.0])
        assert box.halfwidths[0] == pytest.approx(1.4 * 3.0 * 0.3)  # 1.26
        assert box.halfwidths[1] == pytest.approx(3.0 * 0.3)        # 0.90
        assert box.halfwidths[2] == pytest.approx(1.4 * 3.0 * 2.0 / 10.0)  # 0.84

    def test_zero_deterministic_value_errors(self):
        variables = [RandomVariable("d1", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, 0.0)]
        with pytest.raises(ZeroHalfwidthError):
            doe_box(variables, beta_d=3.0, det_solution=[0.0])

    def test_override_wins(self):
        variables = [design("x1", 5.0, 0.3)]
        box = doe_box(variables, beta_d=3.0, det_solution=[5.0],
                      halfwidth_overrides={"x1": 0.2})
        assert box.halfwidths[0] == 0.2

    def test_override_must_be_positive(self):
        variables = [design("x1", 5.0, 0.3)]
        with pytest.raises(ZeroHalfwidthError):
            doe_box(variables, beta_d=3.0, det_solution=[5.0],
                    halfwidth_overrides={"x1": 0.0})

    def test_rescaling_constants_override(self):
        variables = [design("x1", 5.0, 0.3), param("p1", 3.4, 0.3)]
        box = doe_box(variables, beta_d=2.0, det_solution=[5.0, 3.4],
                      c_r_design=2.0, c_r_parameter=0.5)
        assert box.halfwidths[0] == pytest.approx(2.0 * 2.0 * 0.3)
        assert box.halfwidths[1] == pytest.approx(0.5 * 2.0 * 0.3)
        with pytest.raises(DomainError):
            doe_box(variables, beta_d=2.0, det_solution=[5.0, 3.4], c_r_design=-1.0)

    def test_lognormal_uses_equivalent_sigma(self):
        v = RandomVariable("x", Kind.LOGNORMAL, Role.PARAMETER, 1.0, 0.3)
        box = doe_box([v], beta_d=3.0, det_solution=[1.0])
        # equivalent sigma at the mean of a lognormal is zeta * mean, not the nominal std
        zeta = math.sqrt(math.log1p(0.3 ** 2))
        assert box.halfwidths[0] == pytest.approx(3.0 * zeta * 1.0, rel=1e-15)

    def test_beta_d_validation(self):
        with pytest.raises(DomainError):
            doe_box([design("x1", 1.0, 0.1)], beta_d=0.0, det_solution=[1.0])


class TestFitQuadratic:
    def rand_quadratic(self, n, seed):
        rng = np.random.default_rng(seed)
        return QuadraticForm(a=rng.normal(size=(n, n)), k=rng.normal(size=n),
                             c=float(rng.normal()))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_exact_recovery_on_ccd(self, n):
        q = self.rand_quadratic(n, seed=n)
        box = DoeBox(center=np.full(n, 2.0), halfwidths=np.linspace(0.5, 1.5, n))
        plan = ccd_points(box)
        fit = fit_quadratic(plan.points, q(plan.points))
        assert np.allclose(fit.a, q.a, atol=1e-8)
        assert np.allclose(fit.k, q.k, atol=1e-8)
        assert fit.c == pytest.approx(q.c, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 4])
    def test_exact_recovery_on_bbd(self, n):
        q = self.rand_quadratic(n, seed=10 + n)
        plan = bbd_points(unit_box(n))
        fit = fit_quadratic(plan.points, q(plan.points))
        assert np.allclose(fit.a, q.a, atol=1e-8)

    def test_exact_recovery_on_inscribed(self):
        q = self.rand_quadratic(2, seed=20)
        plan = inscribed_ccd_2(unit_box(2))
        fit = fit_quadratic(plan.points, q(plan.points))
        assert np.allclose(fit.a, q.a, atol=1e-8)
        assert np.allclose(fit.k, q.k, atol=1e-8)

    def test_insufficient_points(self):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(SingularFitError):
            fit_quadratic(pts, np.zeros(5))

    def test_rank_deficiency_names_direction(self):
        # sampling on a coordinate cross gives no z1*z2 information
        pts = np.array([
            [0.0, 0.0],
            [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0],
            [-0.5, 0.0], [0.5, 0.0], [0.0, -0.5], [0.0, 0.5],
        ])
        with pytest.raises(SingularFitError) as err:
            fit_quadratic(pts, np.zeros(9))
        assert err.value.deficient_direction == "z1*z2"

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            fit_quadratic(np.zeros(6), np.zeros(6))
        with pytest.raises(DomainError):
            fit_quadratic(np.zeros((6, 2)), np.zeros(5))

    def test_coefficient_counts(self):
        assert [n_quadratic_coefficients(n) for n in (2, 3, 4, 5)] == [6, 10, 15, 21]


class TestPlanCsv:
    def test_round_trip(self, tmp_path):
        plan = ccd_points(unit_box(2))
        path = tmp_path / "plan.csv"
        plan_to_csv(plan, ["x1", "p1"], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x1,p1"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.allclose(data, plan.points)
