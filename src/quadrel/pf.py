"""Closed-form probability of failure for quadratic limit states.

Failure is Q_N(z_N) < 0 with z_N iid standard normal.  Two second-order
closed forms are used depending on the sign pattern of the eigenvalues:
an Edgeworth-corrected normal approximation when signs are mixed, and a
power-transformed noncentral chi-square approximation when all
eigenvalues share one sign (elliptic limit states).  A purely linear
form reduces to the exact FORM result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivisionGuardError, DomainError
from .quadratic import QuadraticForm, SpectralForm, spectral
from .variables import hermite_prob, std_normal, std_normal_inv


class Branch(str, Enum):
    MIXED_SIGNS = "mixed-signs"
    SAME_SIGN_P = "same-sign-p"
    SAME_SIGN_ONE_MINUS_P = "same-sign-1-p"
    LINEAR_EXACT = "linear-exact"


@dataclass(frozen=True)
class PfDiagnostics:
    branch: Branch
    kappa: float
    pf_raw: float
    h: float | None = None
    q0: float | None = None
    degenerate: bool = False


def pf_mixed(s: SpectralForm):
    """Closed form for eigenvalues of differing signs (saddle limit states).

    Returns (pf_raw, kappa1).
    """
    _, m2, m3, m4 = s.m
    if m2 <= 0.0:
        raise DivisionGuardError(f"mixed-sign branch requires m2 > 0, got {m2}")
    var = float(np.sum(2.0 * s.gamma**2 + s.kbar**2))
    kappa1 = -(s.cprime + float(np.sum(s.gamma))) / math.sqrt(var)
    pdf, cdf = std_normal(kappa1)
    # Edgeworth expansion in the standardized quadratic: skewness term
    # with H2, kurtosis term with H3, skewness-squared term with H5
    # (H5 computed inline; the public Hermite helper stops at degree 3).
    h5 = kappa1**5 - 10.0 * kappa1**3 + 15.0 * kappa1
    corr = (
        math.sqrt(2.0) / 3.0 * hermite_prob(2, kappa1) * m3 / m2**1.5
        + h5 / 9.0 * m3**2 / m2**3
        + hermite_prob(3, kappa1) / 2.0 * m4 / m2**2
    )
    return cdf - pdf * corr, kappa1


def pf_same_sign(s: SpectralForm):
    """Closed form for eigenvalues all of one sign (elliptic limit states).

    Returns (pf_raw, kappa2, h, q0, flipped) where ``flipped`` records
    whether the 1 - P side of the dispatch was taken.  When Q_N cannot
    change sign the answer is exact: pf is 0 or 1, kappa2 is -inf or
    +inf and h is None.
    """
    m1, m2, m3, m4 = s.m
    if m1 == 0.0:
        raise DivisionGuardError("same-sign branch requires m1 != 0")
    if m2 <= 0.0:
        raise DivisionGuardError(f"same-sign branch requires m2 > 0, got {m2}")
    sign_gamma = 1.0 if s.gamma[0] > 0.0 else -1.0
    q0 = float(np.sum(s.kbar**2 / (4.0 * s.gamma))) - s.cprime
    # Q_N = sum_j gamma_j (y_j + kbar_j / 2 gamma_j)^2 - q0: with every
    # gamma > 0 and q0 <= 0 it never drops below 0, and the mirror case
    # never rises above 0
    if sign_gamma * q0 <= 0.0:
        pf = 0.0 if sign_gamma > 0.0 else 1.0
        return pf, math.copysign(math.inf, -sign_gamma), None, q0, False
    h = 1.0 - 2.0 * m1 * m3 / (3.0 * m2**2)
    if h == 0.0:
        raise DivisionGuardError("same-sign branch hit h = 0")
    ratio = abs(q0 / m1)
    kappa2 = (
        abs(m1)
        / math.sqrt(2.0 * h * h * m2)
        * (ratio**h - 1.0 - h * (h - 1.0) * m2 / m1**2)
    )
    pdf, cdf = std_normal(kappa2)
    p = cdf - pdf * (
        hermite_prob(3, kappa2)
        * (m4 / (2.0 * m2**2) - 20.0 * m3**2 / (27.0 * m2**3) + 2.0 * m3 / (9.0 * m1 * m2))
        + hermite_prob(1, kappa2) * (-2.0 * m3**2 / (3.0 * m2**3) + 2.0 * m3 / (3.0 * m1 * m2))
    )
    flipped = sign_gamma * h < 0.0
    pf_raw = 1.0 - p if flipped else p
    return pf_raw, kappa2, h, q0, flipped


def pf_quadratic(qn: QuadraticForm):
    """Probability that Q_N(z_N) < 0, dispatching on the eigenvalue signs.

    Returns (pf, diagnostics); pf is clamped to [0, 1], the raw value is
    kept in the diagnostics.
    """
    if not (np.all(np.isfinite(qn.a)) and np.all(np.isfinite(qn.k)) and math.isfinite(qn.c)):
        raise DomainError("pf_quadratic requires finite coefficients")

    # spectral zeroes structurally zero eigenvalues and lifts them to
    # +/-eps when the rest share one sign, so s.gamma's sign pattern
    # alone picks the branch
    s = spectral(qn)
    if not s.gamma.any():
        k_norm = float(np.linalg.norm(qn.k))
        if k_norm == 0.0:
            # degenerate constant limit state: failed everywhere or nowhere
            pf = 1.0 if qn.c < 0.0 else 0.0
            diag = PfDiagnostics(
                branch=Branch.LINEAR_EXACT, kappa=math.copysign(math.inf, -qn.c),
                pf_raw=pf, degenerate=True,
            )
            return pf, diag
        kappa1 = -qn.c / k_norm
        _, pf = std_normal(kappa1)
        return pf, PfDiagnostics(branch=Branch.LINEAR_EXACT, kappa=kappa1, pf_raw=pf)

    if (s.gamma > 0.0).any() and (s.gamma < 0.0).any():
        pf_raw, kappa1 = pf_mixed(s)
        diag = PfDiagnostics(branch=Branch.MIXED_SIGNS, kappa=kappa1, pf_raw=pf_raw)
    else:
        pf_raw, kappa2, h, q0, flipped = pf_same_sign(s)
        branch = Branch.SAME_SIGN_ONE_MINUS_P if flipped else Branch.SAME_SIGN_P
        diag = PfDiagnostics(branch=branch, kappa=kappa2, pf_raw=pf_raw, h=h, q0=q0)
    return float(np.clip(pf_raw, 0.0, 1.0)), diag


def beta_generalized(pf: float) -> float:
    """Generalized reliability index beta = -Phi^{-1}(pf).

    Saturated probabilities map to +/-inf sentinels.
    """
    if pf <= 0.0:
        return math.inf
    if pf >= 1.0:
        return -math.inf
    return -std_normal_inv(pf)
