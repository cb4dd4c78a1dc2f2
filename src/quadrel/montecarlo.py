"""Monte Carlo probability-of-failure estimation.

Samples are drawn as iid standard normals, mixed through the correlation
eigen-decomposition and mapped through the exact marginal inverse CDFs,
so the estimator is a valid independent oracle for the closed forms
(which rely on equivalent normalization instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadratic import CorrelationModel
from .variables import Kind, RandomVariable

DEFAULT_CHUNK = 1_000_000


@dataclass(frozen=True)
class McEstimate:
    pf_hat: float
    ci95_halfwidth: float
    n: int
    seed: int


def transform_samples(z_n: np.ndarray, variables: list[RandomVariable],
                      corr: CorrelationModel | None) -> np.ndarray:
    """Map standard normal draws (m, n) to the original variable space."""
    if corr is not None:
        y = z_n @ corr.l.T
    else:
        y = z_n
    z = np.empty_like(y)
    for i, v in enumerate(variables):
        if v.is_deterministic:
            z[:, i] = v.mean
        elif v.kind is Kind.NORMAL:
            z[:, i] = v.mean + v.std * y[:, i]
        elif v.kind is Kind.LOGNORMAL:
            lam, zeta = v.log_params()
            z[:, i] = np.exp(lam + zeta * y[:, i])
        else:
            raise DomainError(f"{v.name}: cannot sample kind {v.kind}")
    return z


def mc_pf(g, variables: list[RandomVariable], corr: CorrelationModel | None,
          n: int, seed: int, chunk_size: int = DEFAULT_CHUNK) -> McEstimate:
    """Estimate Prob[g(z) < 0] with ``n`` samples.

    ``g`` must accept an (m, nvar) array and return (m,) values.  The
    draw is chunked; results are bit-reproducible for fixed
    (seed, n, chunk_size).
    """
    if n < 1_000:
        raise DomainError(f"mc_pf requires n >= 1000, got {n}")
    if chunk_size < 1:
        raise DomainError(f"mc_pf requires chunk_size >= 1, got {chunk_size}")
    rng = np.random.default_rng(seed)
    nvar = len(variables)
    failures = 0
    remaining = n
    while remaining > 0:
        m = min(chunk_size, remaining)
        z_n = rng.standard_normal((m, nvar))
        z = transform_samples(z_n, variables, corr)
        failures += int(np.count_nonzero(np.asarray(g(z)) < 0.0))
        remaining -= m
    pf_hat = failures / n
    hw = 1.96 * np.sqrt(pf_hat * (1.0 - pf_hat) / n)
    return McEstimate(pf_hat=pf_hat, ci95_halfwidth=float(hw), n=n, seed=seed)
