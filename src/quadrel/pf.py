"""Closed-form probability of failure for quadratic limit states.

Failure is Q_N(z_N) < 0 with z_N iid standard normal.  Two second-order
closed forms are used depending on the sign pattern of the eigenvalues:
an Edgeworth-corrected normal approximation when signs are mixed, and a
power-transformed noncentral chi-square approximation when all
eigenvalues share one sign (elliptic limit states).  A purely linear
form reduces to the exact FORM result.

Every formula runs on a stack of forms at once (one row per form);
``pf_quadratic`` enters with a stack of one.  ``pf_batch`` rotates the
linear terms into the eigenbasis once; each branch sums moments on its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivisionGuardError, DomainError
from .quadratic import QuadraticForm, moment_sums, row_dot, spectral
from .variables import std_normal, std_normal_inv


class Branch(str, Enum):
    MIXED_SIGNS = "mixed-signs"
    SAME_SIGN_P = "same-sign-p"
    SAME_SIGN_ONE_MINUS_P = "same-sign-1-p"
    LINEAR_EXACT = "linear-exact"


# PfBatch.branch codes index this tuple
BRANCHES = tuple(Branch)
_MIXED, _SAME_P, _SAME_1MP, _LINEAR = range(4)


@dataclass(frozen=True)
class PfDiagnostics:
    branch: Branch
    kappa: float
    pf_raw: float
    h: float | None = None
    q0: float | None = None
    degenerate: bool = False


@dataclass(frozen=True)
class PfBatch:
    """Closed-form results for a stack of forms, one entry per row.

    ``h`` and ``q0`` are NaN where the row's branch has none; ``branch``
    holds indices into ``BRANCHES``.
    """

    pf_raw: np.ndarray
    kappa: np.ndarray
    branch: np.ndarray
    h: np.ndarray
    q0: np.ndarray
    degenerate: np.ndarray

    @property
    def pf(self) -> np.ndarray:
        """``pf_raw`` clamped to [0, 1]."""
        return np.minimum(np.maximum(self.pf_raw, 0.0), 1.0)

    def diagnostics(self, i: int) -> PfDiagnostics:
        h, q0 = float(self.h[i]), float(self.q0[i])
        return PfDiagnostics(
            branch=BRANCHES[self.branch[i]], kappa=float(self.kappa[i]),
            pf_raw=float(self.pf_raw[i]), h=None if math.isnan(h) else h,
            q0=None if math.isnan(q0) else q0, degenerate=bool(self.degenerate[i]),
        )


# x**p through the C library's pow, the one Python floats use: numpy's
# ``**`` has its own vectorized pow, which can differ from it in the last
# bit, and a last-bit change in g* moves SLSQP's path
_pow = np.float_power


def pf_mixed(gamma, kbar, cprime):
    """Closed form for eigenvalues of differing signs (saddle limit states).

    Returns (pf_raw, kappa1), one entry per row of (gamma, kbar, cprime).
    """
    _, m2, m3, m4 = moment_sums(gamma, kbar)
    bad = m2 <= 0.0
    if bad.any():
        raise DivisionGuardError(f"mixed-sign branch requires m2 > 0, got {m2[bad][0]}")
    var = np.add.reduce(2.0 * gamma**2 + kbar**2, -1)
    kappa1 = -(cprime + np.add.reduce(gamma, -1)) / np.sqrt(var)
    pdf, cdf = std_normal(kappa1)
    # Edgeworth expansion in the standardized quadratic, with the probabilists'
    # Hermite polynomials H2 (skewness), H3 (kurtosis) and H5 (skewness squared)
    h2 = kappa1 * kappa1 - 1.0
    h3 = kappa1 * kappa1 * kappa1 - 3.0 * kappa1
    h5 = _pow(kappa1, 5) - 10.0 * _pow(kappa1, 3) + 15.0 * kappa1
    corr = (
        math.sqrt(2.0) / 3.0 * h2 * m3 / _pow(m2, 1.5)
        + h5 / 9.0 * _pow(m3, 2) / _pow(m2, 3)
        + h3 / 2.0 * m4 / _pow(m2, 2)
    )
    return cdf - pdf * corr, kappa1


def pf_same_sign(gamma, kbar, cprime):
    """Closed form for eigenvalues all of one sign (elliptic limit states).

    Returns (pf_raw, kappa2, h, q0, flipped), one entry per row of (gamma,
    kbar, cprime), where ``flipped`` records whether the 1 - P side of the
    dispatch was taken.  When Q_N cannot change sign the answer is exact:
    pf is 0 or 1, kappa2 is -inf or +inf and h is NaN.
    """
    m1, m2, m3, m4 = moment_sums(gamma, kbar)
    if (m1 == 0.0).any():
        raise DivisionGuardError("same-sign branch requires m1 != 0")
    bad = m2 <= 0.0
    if bad.any():
        raise DivisionGuardError(f"same-sign branch requires m2 > 0, got {m2[bad][0]}")
    sign_gamma = np.where(gamma[:, 0] > 0.0, 1.0, -1.0)
    q0 = np.add.reduce(kbar**2 / (4.0 * gamma), -1) - cprime
    # Q_N = sum_j gamma_j (y_j + kbar_j / 2 gamma_j)^2 - q0: with every
    # gamma > 0 and q0 <= 0 it never drops below 0, and the mirror case
    # never rises above 0
    exact = sign_gamma * q0 <= 0.0
    m2_2, m2_3, m3_2 = _pow(m2, 2), _pow(m2, 3), _pow(m3, 2)
    h = 1.0 - 2.0 * m1 * m3 / (3.0 * m2_2)
    if (h[~exact] == 0.0).any():
        raise DivisionGuardError("same-sign branch hit h = 0")
    # exact rows may divide by h = 0 below; their values are replaced
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.abs(q0 / m1)
        kappa2 = (
            np.abs(m1)
            / np.sqrt(2.0 * h * h * m2)
            * (_pow(ratio, h) - 1.0 - h * (h - 1.0) * m2 / _pow(m1, 2))
        )
        pdf, cdf = std_normal(kappa2)
        h3 = kappa2 * kappa2 * kappa2 - 3.0 * kappa2  # Hermite H3; H1 is kappa2 itself
        p = cdf - pdf * (
            h3 * (m4 / (2.0 * m2_2) - 20.0 * m3_2 / (27.0 * m2_3) + 2.0 * m3 / (9.0 * m1 * m2))
            + kappa2 * (-2.0 * m3_2 / (3.0 * m2_3) + 2.0 * m3 / (3.0 * m1 * m2))
        )
    flipped = (sign_gamma * h < 0.0) & ~exact
    pf_raw = np.where(exact, np.where(sign_gamma > 0.0, 0.0, 1.0),
                      np.where(flipped, 1.0 - p, p))
    kappa2 = np.where(exact, -sign_gamma * math.inf, kappa2)
    return pf_raw, kappa2, np.where(exact, math.nan, h), q0, flipped


def pf_batch(gamma, p, k, cprime) -> PfBatch:
    """Probability that each row's Q_N(z_N) < 0, dispatching on its eigenvalue signs.

    ``(gamma, P)`` comes from ``eigenbasis``, which zeroes structurally
    zero eigenvalues and lifts them to +/-eps when the rest share one sign,
    so each row's sign pattern alone picks its branch.  ``k`` holds the
    unrotated linear terms (m, n) and ``cprime`` the constants; rows with
    no nonzero eigenvalue take the exact linear result from the norm of k.
    """
    kbar = np.matmul(np.swapaxes(p, -1, -2), k[..., None])[..., 0]
    n = gamma.shape[0]
    pos = (gamma > 0.0).any(axis=-1)
    neg = (gamma < 0.0).any(axis=-1)
    pf_raw = np.empty(n)
    kappa = np.empty(n)
    branch = np.full(n, _MIXED)
    h = np.full(n, math.nan)
    q0 = np.full(n, math.nan)
    degenerate = np.zeros(n, dtype=bool)

    rows = pos & neg
    if rows.any():
        pf_raw[rows], kappa[rows] = pf_mixed(gamma[rows], kbar[rows], cprime[rows])
    rows = pos ^ neg
    if rows.any():
        pf_raw[rows], kappa[rows], h[rows], q0[rows], flipped = pf_same_sign(
            gamma[rows], kbar[rows], cprime[rows])
        branch[rows] = np.where(flipped, _SAME_1MP, _SAME_P)
    rows = ~(pos | neg)
    if rows.any():
        c = cprime[rows]
        k_lin = k[rows]
        k_norm = np.sqrt(row_dot(k_lin, k_lin))
        # a degenerate constant limit state fails everywhere or nowhere
        deg = k_norm == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            kap = np.where(deg, np.copysign(math.inf, -c), -c / k_norm)
        pf_raw[rows] = np.where(deg, np.where(c < 0.0, 1.0, 0.0), std_normal(kap)[1])
        kappa[rows] = kap
        branch[rows] = _LINEAR
        degenerate[rows] = deg
    return PfBatch(pf_raw, kappa, branch, h, q0, degenerate)


def require_finite(*arrays):
    """Raise DomainError unless every coefficient is finite."""
    if not all(np.isfinite(x).all() for x in arrays):
        raise DomainError("the closed form requires finite coefficients")


def pf_quadratic(qn: QuadraticForm):
    """Probability that Q_N(z_N) < 0, dispatching on the eigenvalue signs.

    Returns (pf, diagnostics); pf is clamped to [0, 1], the raw value is
    kept in the diagnostics.  This is ``pf_batch`` on a batch of one.
    """
    require_finite(qn.a, qn.k, qn.c)
    batch = pf_batch(*spectral(qn), qn.k[None], np.array([qn.c]))
    return float(batch.pf[0]), batch.diagnostics(0)


def beta_generalized(pf: float) -> float:
    """Generalized reliability index beta = -Phi^{-1}(pf).

    Saturated probabilities map to +/-inf sentinels.
    """
    if pf <= 0.0:
        return math.inf
    if pf >= 1.0:
        return -math.inf
    return -std_normal_inv(pf)
