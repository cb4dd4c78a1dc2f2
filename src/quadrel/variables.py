"""Scalar probability primitives.

Standard normal pdf/cdf/inverse and the random variables of a problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class Kind(str, Enum):
    NORMAL = "normal"
    LOGNORMAL = "lognormal"
    DETERMINISTIC = "deterministic"


class Role(str, Enum):
    DESIGN_VARIABLE = "design-variable"
    PARAMETER = "parameter"
    DETERMINISTIC_DESIGN = "deterministic-design"


def std_normal(x):
    """Return (pdf, cdf) of the standard normal at x."""
    x = np.asarray(x, dtype=float)
    pdf = np.exp(-0.5 * x * x) / _SQRT_2PI
    cdf = ndtr(x)
    if pdf.ndim == 0:
        return float(pdf), float(cdf)
    return pdf, cdf


def std_normal_inv(p):
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError(f"std_normal_inv requires 0 < p < 1, got {p}")
    out = ndtri(arr)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RandomVariable:
    """One component of the stacked variable vector.

    ``mean``/``std`` always describe the variable itself (for a lognormal
    the arithmetic mean and standard deviation, converted internally to
    log-scale parameters).  ``lower``/``upper`` bound the mean for design
    roles only.
    """

    name: str
    kind: Kind
    role: Role
    mean: float
    std: float = 0.0
    lower: float = field(default=-math.inf)
    upper: float = field(default=math.inf)

    def __post_init__(self):
        if self.std < 0.0:
            raise DomainError(f"{self.name}: std must be >= 0, got {self.std}")
        if (self.kind is Kind.DETERMINISTIC or self.role is Role.DETERMINISTIC_DESIGN) and self.std != 0.0:
            raise DomainError(f"{self.name}: deterministic variables must have std = 0")
        if self.kind is Kind.LOGNORMAL and self.mean <= 0.0:
            raise DomainError(f"{self.name}: lognormal mean must be > 0, got {self.mean}")
        if not (self.lower <= self.mean <= self.upper):
            raise DomainError(
                f"{self.name}: mean {self.mean} outside bounds [{self.lower}, {self.upper}]"
            )

    @property
    def is_deterministic(self) -> bool:
        return self.kind is Kind.DETERMINISTIC or self.role is Role.DETERMINISTIC_DESIGN

    @property
    def is_design(self) -> bool:
        return self.role in (Role.DESIGN_VARIABLE, Role.DETERMINISTIC_DESIGN)

    def with_mean(self, mean: float, std: float | None = None) -> "RandomVariable":
        """Copy with a new mean (and optionally std).

        Bounds are dropped: trial points during optimization may sit a
        finite-difference step outside the design box.
        """
        if std is None:
            std = self.std
        return replace(
            self, mean=float(mean), std=float(std), lower=-math.inf, upper=math.inf
        )

    def log_params(self):
        """(lambda, zeta) of the underlying normal for a lognormal variable."""
        if self.kind is not Kind.LOGNORMAL:
            raise DomainError(f"{self.name}: log_params only defined for lognormal")
        zeta2 = math.log1p((self.std / self.mean) ** 2)
        lam = math.log(self.mean) - 0.5 * zeta2
        return lam, math.sqrt(zeta2)
