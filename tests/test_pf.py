"""Closed-form probability of failure: branch dispatch, linear exactness,
and agreement with frozen Monte Carlo oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrel.errors import DivisionGuardError, DomainError
from quadrel.pf import Branch, beta_generalized, pf_batch, pf_quadratic, pf_same_sign
from quadrel.quadratic import QuadraticForm, eigenbasis
from quadrel.variables import std_normal

# Frozen Monte Carlo oracles (2e7 standard-normal samples, seed 123,
# independent sampler).  The closed forms are series approximations, so
# the tolerance allows 15 % relative model error on top of 3x the
# sampling CI.
MC_ORACLES = [
    # (A, k, c, pf_mc, ci95, expected branch)
    (np.diag([0.05, -0.08]), [0.3, -0.2], 1.2, 3.893050e-3, 2.73e-5, Branch.MIXED_SIGNS),
    (np.diag([0.1, -0.1, 0.02]), [0.0, -1.0, 0.3], 2.5, 1.789465e-2, 5.81e-5, Branch.MIXED_SIGNS),
    (np.diag([-0.04, -0.06]), [0.3, 0.1], 2.2, 1.1750e-5, 1.50e-6, Branch.SAME_SIGN_ONE_MINUS_P),
    (np.diag([0.03, 0.05]), [-0.5, 0.2], 0.8, 4.055470e-2, 8.65e-5, Branch.SAME_SIGN_P),
    ([[0.06, 0.02], [0.02, 0.09]], [-0.4, 0.1], 0.55, 2.564510e-2, 6.93e-5, Branch.SAME_SIGN_P),
]


def qn_of(a, k, c):
    return QuadraticForm(a=np.asarray(a, dtype=float),
                                   k=np.asarray(k, dtype=float), c=float(c))


class TestLinearExact:
    def test_linear_is_phi(self):
        qn = qn_of(np.zeros((2, 2)), [0.6, -0.8], 2.4)
        pf, diag = pf_quadratic(qn)
        beta = 2.4 / 1.0
        assert diag.branch is Branch.LINEAR_EXACT
        assert pf == pytest.approx(std_normal(-beta)[1], abs=1e-15)
        assert diag.kappa == pytest.approx(-beta, abs=1e-15)

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.5, max_value=3.5))
    @settings(max_examples=100)
    def test_random_linear_family(self, n, seed, beta):
        rng = np.random.default_rng(seed)
        k = rng.normal(size=n)
        k /= np.linalg.norm(k)
        qn = qn_of(np.zeros((n, n)), k, beta)
        pf, diag = pf_quadratic(qn)
        assert abs(pf - std_normal(-beta)[1]) <= 1e-12
        assert abs(diag.kappa + beta) <= 1e-12

    def test_degenerate_constant(self):
        pf_safe, d_safe = pf_quadratic(qn_of(np.zeros((2, 2)), np.zeros(2), 1.0))
        pf_fail, d_fail = pf_quadratic(qn_of(np.zeros((2, 2)), np.zeros(2), -1.0))
        assert pf_safe == 0.0 and d_safe.degenerate
        assert pf_fail == 1.0 and d_fail.degenerate


class TestBranches:
    @pytest.mark.parametrize("a,k,c,pf_mc,ci,branch", MC_ORACLES)
    def test_against_frozen_mc(self, a, k, c, pf_mc, ci, branch):
        pf, diag = pf_quadratic(qn_of(a, k, c))
        assert diag.branch is branch
        assert abs(pf - pf_mc) <= max(3.0 * ci, 0.15 * pf_mc)

    def test_worked_example_q0_is_one(self):
        # the ellipse example collapses to q0 = 1 for every design mean
        a_full = np.array([[1 / 24, 1 / 40], [1 / 40, 1 / 24]])
        k_full = np.array([-8 / 15, -2 / 15])
        for mu in (1.0, 3.0, 4.85, 8.0):
            a = np.array([[0.00375, 0.00225], [0.00225, 0.00375]])
            k = np.array([mu / 40.0 - 0.109, 3.0 * mu / 200.0 + 0.045])
            mu_vec = np.array([mu, 3.4])
            c_exact = 31 / 30 + mu_vec @ a_full @ mu_vec + k_full @ mu_vec
            pf, diag = pf_quadratic(qn_of(a, k, c_exact))
            assert diag.q0 == pytest.approx(1.0, abs=1e-9)
            assert diag.branch in (Branch.SAME_SIGN_P, Branch.SAME_SIGN_ONE_MINUS_P)

    def test_pf_clamped(self):
        pf, diag = pf_quadratic(qn_of(np.diag([0.2, 0.4]), [0.0, 0.0], 1e-12))
        assert 0.0 <= pf <= 1.0

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            pf_quadratic(qn_of(np.diag([np.inf, 1.0]), [0.0, 0.0], 1.0))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150)
    def test_pf_always_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n)) * rng.uniform(0.01, 0.5)
        k = rng.normal(size=n)
        c = rng.uniform(-3.0, 3.0)
        try:
            pf, _ = pf_quadratic(qn_of(a, k, c))
        except DivisionGuardError:
            return
        assert 0.0 <= pf <= 1.0


class TestSameSignKernel:
    def test_m1_guard(self):
        gamma = np.array([[1.0, -1.0]])
        with pytest.raises(DivisionGuardError):
            pf_same_sign(gamma, np.zeros((1, 2)), np.array([1.0]))

    @pytest.mark.parametrize("a,k,c,exact", [
        (np.eye(2), [0.0, 0.0], 1.0, 0.0),
        ([[0.1]], [1.0], 3.0, 0.0),
        ([[0.00375]], [0.045], 1.06, 0.0),
        (-np.eye(2), [0.0, 0.0], -1.0, 1.0),
    ])
    def test_limit_state_that_cannot_change_sign(self, a, k, c, exact):
        # every gamma > 0 with q0 <= 0 never fails; the mirror always does
        pf, _ = pf_quadratic(qn_of(a, k, c))
        assert pf == exact

    def test_flip_branch_consistency(self):
        # concave limit state: the kernel reports its P on the mirrored
        # problem and the dispatcher takes 1 - P; both stay in [0, 1]
        pf, diag = pf_quadratic(qn_of(np.diag([-0.04, -0.06]), [0.3, 0.1], 2.2))
        assert diag.branch is Branch.SAME_SIGN_ONE_MINUS_P
        assert 0.0 < pf < 1.0


# Row kinds of a random stack: each exercises one branch or special case.
FORM_KINDS = ["mixed", "convex", "concave", "linear", "constant", "never-fails",
              "always-fails", "deterministic-row"]


def random_form(kind, n, rng):
    """One standard-normal quadratic of the given kind in n variables."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = rng.uniform(0.01, 0.3, size=n)
    k = rng.normal(size=n)
    c = rng.uniform(-3.0, 3.0)
    if kind == "mixed":
        d[rng.permutation(n)[: max(1, n // 2)]] *= -1.0
        if n == 1:
            kind = "linear"
    if kind in ("concave", "always-fails"):
        d = -d
    if kind in ("never-fails", "always-fails"):
        # Q_N = sum d_j y_j^2 + c keeps the sign of d when c does
        k[:] = 0.0
        c = abs(c) * np.sign(d[0])
    a = (q * d) @ q.T
    if kind in ("linear", "constant"):
        a[:] = 0.0
    if kind == "constant":
        k[:] = 0.0
    if kind == "deterministic-row":
        # a variable with zero std: its row, column and k entry vanish
        a = np.diag(d)
        j = rng.integers(n)
        a[j, :] = a[:, j] = 0.0
        k[j] = 0.0
    return QuadraticForm(a=a, k=k, c=c)


class TestBatchedKernel:
    """pf_batch on a stack equals pf_quadratic (a batch of one) row by row."""

    @given(st.lists(st.sampled_from(FORM_KINDS), min_size=1, max_size=8),
           st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_one_form_at_a_time(self, kinds, n, seed):
        rng = np.random.default_rng(seed)
        forms = [random_form(kind, n, rng) for kind in kinds]
        a = np.stack([f.a for f in forms])
        k = np.stack([f.k for f in forms])
        c = np.array([f.c for f in forms])
        gamma, p = eigenbasis(a)
        singles, guarded = [], False
        for f in forms:
            try:
                singles.append(pf_quadratic(f))
            except DivisionGuardError:
                guarded = True
        if guarded:
            with pytest.raises(DivisionGuardError):
                pf_batch(gamma, p, k, c)
            return
        batch = pf_batch(gamma, p, k, c)
        for i, (pf, diag) in enumerate(singles):
            assert batch.pf[i] == pf
            assert batch.diagnostics(i) == diag

    @given(st.lists(st.sampled_from(["mixed", "convex", "tiny-mixed", "tiny-convex"]),
                    min_size=1, max_size=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_guard_in_any_row_raises(self, kinds, seed):
        # eigenvalues so small that m2 underflows to 0 hit the division
        # guard of their branch; the stack raises whenever one row does
        rng = np.random.default_rng(seed)
        rows = []
        for kind in kinds:
            scale = 1e-200 if kind.startswith("tiny") else 1.0
            gamma = rng.uniform(0.01, 0.3, size=3) * scale
            if kind.endswith("mixed"):
                gamma[0] = -gamma[0]
            kbar = rng.normal(size=3) * scale
            rows.append((gamma, kbar, rng.uniform(-3.0, 3.0)))

        def form(rows):
            # an identity eigenbasis: kbar is k, bit for bit
            gamma = np.array([r[0] for r in rows])
            p = np.broadcast_to(np.eye(3), (len(rows), 3, 3))
            return gamma, p, np.array([r[1] for r in rows]), np.array([r[2] for r in rows])

        singles, guarded = [], False
        for row in rows:
            try:
                singles.append(pf_batch(*form([row])))
            except DivisionGuardError:
                guarded = True
        assert guarded == any(kind.startswith("tiny") for kind in kinds)
        if guarded:
            with pytest.raises(DivisionGuardError):
                pf_batch(*form(rows))
            return
        batch = pf_batch(*form(rows))
        for i, single in enumerate(singles):
            assert batch.diagnostics(i) == single.diagnostics(0)


class TestBetaGeneralized:
    def test_round_trip(self):
        for beta in (0.5, 1.0, 3.0):
            pf = std_normal(-beta)[1]
            assert beta_generalized(pf) == pytest.approx(beta, abs=1e-12)

    def test_sentinels(self):
        assert beta_generalized(0.0) == math.inf
        assert beta_generalized(1.0) == -math.inf
