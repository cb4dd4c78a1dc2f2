"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete; the full module takes a few minutes because of
the 1e7-sample Monte Carlo audits.
"""

import functools

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from quadrel.doe import DoeBox, Scheme, bbd_points, ccd_points, inscribed_ccd_2
from quadrel.errors import QuadrelError
from quadrel.form import form_mpp
from quadrel.montecarlo import marginal_map, mc_pf
from quadrel.pf import Branch, beta_generalized, pf_quadratic
from quadrel.problems import (
    CRASH_LOWER,
    CRASH_UPPER,
    bench_3g,
    bench_quad4,
    crashworthiness,
    demo_ellipse,
)
from quadrel.quadratic import QuadraticForm, standard_normal_map, to_standard_normal
from quadrel.solver import mc_audit, rbdo_double_loop_form, rssl_solve
from quadrel.variables import Kind, RandomVariable, Role, std_normal

AUDIT_N = 10_000_000
AUDIT_SEED = 1234
CRASH_CSV = "tests/data/crash_coefficients.csv"


def report(num, desc, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def ellipse_qn(mu_x1):
    problem = demo_ellipse()
    mu_full = problem.full_mean(np.array([mu_x1], dtype=float))
    return to_standard_normal(problem.constraints[0].quadratic,
                              standard_normal_map(problem.variables_at(mu_full), None))


@functools.lru_cache(maxsize=None)
def solved_bench_3g():
    result = rssl_solve(bench_3g())
    result.pf_mc = mc_audit(bench_3g(), result.mu_opt, n=AUDIT_N, seed=AUDIT_SEED)
    return result


@functools.lru_cache(maxsize=None)
def solved_quad4_loose():
    result = rssl_solve(bench_quad4())
    result.pf_mc = mc_audit(bench_quad4(), result.mu_opt, n=AUDIT_N, seed=AUDIT_SEED)
    return result


@functools.lru_cache(maxsize=None)
def solved_quad4_tight():
    result = rssl_solve(bench_quad4(beta_d=3.0))
    result.pf_mc = mc_audit(bench_quad4(beta_d=3.0), result.mu_opt,
                            n=AUDIT_N, seed=AUDIT_SEED)
    return result


def test_criterion_01_transform_reference_values():
    qn = ellipse_qn(2.0)
    ok_a = np.allclose(qn.a, [[0.0037, 0.0022], [0.0022, 0.0037]], atol=5e-5)
    gamma = np.sort(np.linalg.eigvalsh(qn.a))
    ok_g = np.allclose(gamma, [0.0015, 0.0060], atol=5e-5)
    ok_q0 = True
    for mu in np.linspace(0.5, 14.5, 8):
        _, diag = pf_quadratic(ellipse_qn(mu))
        ok_q0 = ok_q0 and abs(diag.q0 - 1.0) <= 1e-9
    report(1, "standard-normal transform matches reference matrices, "
              "eigenvalues and q0 = 1", ok_a and ok_g and ok_q0)


def test_criterion_02_constraint_geometry():
    def gstar(mu):
        pf, _ = pf_quadratic(ellipse_qn(mu))
        return std_normal(-3.0)[1] - pf

    lo = brentq(gstar, 1.0, 4.85, xtol=1e-12)
    hi = brentq(gstar, 4.85, 9.0, xtol=1e-12)
    peak = minimize_scalar(lambda mu: -pf_quadratic(ellipse_qn(mu))[0],
                           bounds=(0.0, 15.0), method="bounded",
                           options={"xatol": 1e-10})
    pf_max = -peak.fun
    ok = (abs(lo - 3.86) <= 0.02 and abs(hi - 5.93) <= 0.02
          and abs(pf_max - 0.0043) <= 0.0005)
    report(2, f"constraint roots {lo:.3f}/{hi:.3f} and peak pf {pf_max:.5f} "
              "match references", ok)


def test_criterion_03_closed_form_tracks_mc_on_grid():
    problem = demo_ellipse()
    q = problem.constraints[0].quadratic
    worst = 0.0
    ok = True
    for i, mu in enumerate(np.linspace(0.0, 15.0, 31)):
        pf_cf, _ = pf_quadratic(ellipse_qn(mu))
        mu_full = problem.full_mean(np.array([mu]))
        est, = mc_pf(lambda z: q(z)[None], problem.variables_at(mu_full), None,
                     n=AUDIT_N, seed=1000 + i)
        # a zero-count estimate still bounds the truth by the rule of
        # three: pf_true <= 3/n at 95 %
        tol = max(3.0 * est.ci95_halfwidth, 0.1 * est.pf_hat, 3.0 / AUDIT_N)
        err = abs(pf_cf - est.pf_hat)
        worst = max(worst, err - tol)
        ok = ok and err <= tol
    report(3, "closed form within max(3 CI, 10 %) of 1e7-sample MC on the "
              "31-point design grid", ok)


def test_criterion_04_bench_3g():
    result = solved_bench_3g()
    beta_mc = [beta_generalized(e.pf_hat) for e in result.pf_mc]
    ok_obj = abs(result.objective_value - 6.7168) <= 0.02
    ok_doe = result.doe_evals == 9
    ok_b1 = 2.92 <= beta_mc[0] <= 3.02
    ok_b2 = 2.95 <= beta_mc[1] <= 3.05
    report(4, f"bench-3g: objective {result.objective_value:.4f}, DOE "
              f"{result.doe_evals}, audited betas {beta_mc[0]:.3f}/{beta_mc[1]:.3f}",
           ok_obj and ok_doe and ok_b1 and ok_b2)


def test_criterion_05_quad4_loose():
    result = solved_quad4_loose()
    ok_mu = np.all(np.abs(result.mu_opt) <= 1e-3)
    ok_obj = result.objective_value <= 1e-5
    pf1, pf2 = (e.pf_hat for e in result.pf_mc)
    ok_pf1 = abs(pf1 - 0.007068) <= 0.0005
    ok_pf2 = abs(pf2 - 0.01431) <= 0.0007
    report(5, f"bench-quad4 loose: optimum at origin, audited pf "
              f"{100 * pf1:.4f} % / {100 * pf2:.4f} %",
           ok_mu and ok_obj and ok_pf1 and ok_pf2)


def test_criterion_06_quad4_tight_beats_form():
    rssl = solved_quad4_tight()
    form = rbdo_double_loop_form(bench_quad4(beta_d=3.0))
    form.pf_mc = mc_audit(bench_quad4(beta_d=3.0), form.mu_opt,
                          n=AUDIT_N, seed=AUDIT_SEED)
    ok_obj = abs(rssl.objective_value - 0.8665) <= 0.02
    ok_form_mu = np.allclose(form.mu_opt, [-0.4138, -0.4966, -0.4966, -0.4966],
                             atol=0.01)
    ok_form_obj = abs(form.objective_value - 0.9109) <= 0.005
    target = std_normal(-3.0)[1]
    worst_rssl = max(e.pf_hat for e in rssl.pf_mc)
    worst_form = max(e.pf_hat for e in form.pf_mc)
    ok_closer = abs(worst_rssl - target) < abs(worst_form - target)
    report(6, f"bench-quad4 tight: rssl objective {rssl.objective_value:.4f}, "
              f"FORM baseline {form.objective_value:.4f}, worst audited pf "
              f"{100 * worst_rssl:.4f} % vs {100 * worst_form:.4f} % "
              f"(target {100 * target:.4f} %)",
           ok_obj and ok_form_mu and ok_form_obj and ok_closer)


def test_criterion_07_linear_exactness():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 7))
        k = rng.normal(size=n)
        k /= np.linalg.norm(k)
        beta = rng.uniform(0.5, 4.0)
        pf, diag = pf_quadratic(QuadraticForm(
            a=np.zeros((n, n)), k=k, c=beta))
        ok = ok and abs(pf - std_normal(-beta)[1]) <= 1e-12
        ok = ok and abs(diag.kappa + beta) <= 1e-12
        ok = ok and diag.branch is Branch.LINEAR_EXACT
    report(7, "100 random linear limit states reproduce pf = Phi(-beta) to "
              "1e-12 with kappa = -beta", ok)


def test_criterion_08_design_sizes():
    box = lambda n: DoeBox(center=np.zeros(n), halfwidths=np.ones(n))
    ok = all(bbd_points(box(n)).size == s for n, s in [(3, 13), (4, 25), (5, 41)])
    ok = ok and all(ccd_points(box(n)).size == s
                    for n, s in [(2, 9), (5, 27), (9, 147)])
    b2 = DoeBox(center=np.array([1.0, -2.0]), halfwidths=np.array([0.4, 0.9]))
    plan = inscribed_ccd_2(b2)
    dev = np.abs(plan.points - b2.center) / b2.halfwidths
    ok = ok and np.all(dev <= 1.0 + 1e-9)
    ok = ok and np.allclose(np.max(dev[1:5], axis=1), 1.0, atol=1e-12)
    report(8, "plan sizes 13/25/41 (Box-Behnken), 9/27/147 (composite) and "
              "inscribed star points on the box boundary", ok)


def test_criterion_09_randomized_closed_form_vs_form():
    def min_on_sphere(a, k, beta):
        # minimize z'Az + k'z on ||z|| = beta via the secular equation
        # z(lam) = -(A - lam I)^{-1} k / 2 with lam below the spectrum
        gam, p = np.linalg.eigh(a)
        kb = p.T @ k

        def norm2(lam):
            return float(np.sum(kb**2 / (4.0 * (gam - lam) ** 2)))

        hi = gam[0] - 1e-12
        if norm2(hi) < beta**2:
            return None  # interior (hard) case, skip the draw
        lo = gam[0] - 1.0
        while norm2(lo) - beta**2 > 0:
            lo = gam[0] - 2.0 * (gam[0] - lo)
        lam = brentq(lambda t: norm2(t) - beta**2, lo, hi, xtol=1e-14)
        zb = -kb / (2.0 * (gam - lam))
        return float(zb @ (gam * zb) + kb @ zb)

    rng = np.random.default_rng(2024)
    made, tries, rows = 0, 0, []
    while made < 220 and tries < 1100:
        tries += 1
        n = int(rng.integers(2, 7))
        a = rng.normal(0.0, 1.0, (n, n))
        a = 0.5 * (a + a.T)
        a *= rng.uniform(0.01, 0.35) / np.linalg.norm(a)
        k = rng.normal(0.0, 1.0, n)
        k /= np.linalg.norm(k)
        beta_t = rng.uniform(1.0, 3.5)
        mval = min_on_sphere(a, k, beta_t)
        if mval is None or -mval <= 0:
            continue
        qn = QuadraticForm(a=a, k=k, c=-mval)
        variables = [RandomVariable(f"z{i}", Kind.NORMAL, Role.PARAMETER, 0.0, 1.0)
                     for i in range(n)]
        try:
            beta_hl, _, _ = form_mpp(qn, marginal_map(variables, None))
            pf_cf, _ = pf_quadratic(qn)
        except QuadrelError:
            continue
        if not 1.0 <= beta_hl <= 3.5:
            continue
        z = np.random.default_rng(made).standard_normal((10**6, n))
        pf_mc = float(np.mean(qn(z) < 0.0))
        if pf_mc == 0.0:
            continue
        rows.append((np.linalg.norm(a), pf_cf, std_normal(-beta_hl)[1], pf_mc))
        made += 1

    res = np.array(rows)
    assert len(res) >= 200
    rel_cf = np.abs(res[:, 1] - res[:, 3]) / res[:, 3]
    hi_curv = res[:, 0] >= 0.05
    beat = (np.abs(res[hi_curv, 1] - res[hi_curv, 3])
            < np.abs(res[hi_curv, 2] - res[hi_curv, 3]))
    median = float(np.median(rel_cf))
    beat_rate = float(np.mean(beat))
    ok = median <= 0.15 and beat_rate >= 0.70
    report(9, f"{len(res)} random quadratics: median closed-form error "
              f"{100 * median:.1f} % (<= 15 %), beats first-order estimate in "
              f"{100 * beat_rate:.0f} % of high-curvature cases (>= 70 %)", ok)


def test_criterion_10_crashworthiness_end_to_end():
    problem = crashworthiness(CRASH_CSV)
    result = rssl_solve(problem)
    lo = np.asarray(CRASH_LOWER)
    hi = np.asarray(CRASH_UPPER)
    ok = (result.success
          and len(result.pf_closed_form) == 10
          and bool(np.all(result.mu_opt >= lo - 1e-9))
          and bool(np.all(result.mu_opt <= hi + 1e-9))
          and all(pf <= problem.constraints[0].pf_target + 1e-9
                  for pf in result.pf_closed_form))
    report(10, "crashworthiness benchmark loads the shipped coefficient file "
               "and solves end to end within bounds", ok)
