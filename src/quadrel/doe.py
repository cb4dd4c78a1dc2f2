"""Design-of-experiments plans and quadratic response-surface fitting.

Box-Behnken and central composite plans sized by the target reliability
level, plus a stable least-squares fit of the full quadratic basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SingularFitError, UnsupportedDesignError, ZeroHalfwidthError
from .quadratic import QuadraticForm, n_quadratic_coefficients, standard_normal_map
from .variables import RandomVariable, Role

# Rescaling constant applied to design-variable box halfwidths so the
# surrogate stays valid out to the probabilistic optimum.
C_R_DESIGN = 1.4
C_R_PARAMETER = 1.0

# Fraction f of the 2^(n-f) factorial part of a central composite design.
_CCD_FRACTION = {2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2, 10: 3, 11: 4, 12: 4}

# Generator columns (as indices into the n-f base factors) for the
# regular fractional factorials, highest-resolution standard choices.
_CCD_GENERATORS = {
    (5, 1): [(0, 1, 2, 3)],
    (6, 1): [(0, 1, 2, 3, 4)],
    (7, 1): [(0, 1, 2, 3, 4, 5)],
    (8, 2): [(0, 1, 2, 3), (0, 1, 4, 5)],
    (9, 2): [(0, 2, 3, 5, 6), (1, 2, 4, 5, 6)],
    (10, 3): [(0, 1, 2, 6), (1, 2, 3, 4), (0, 2, 3, 5)],
    (11, 4): [(0, 1, 2, 6), (1, 2, 3, 4), (0, 2, 3, 5), (0, 1, 2, 3, 4, 5, 6)],
    (12, 4): [(0, 1, 2, 6), (1, 2, 3, 4), (0, 2, 3, 5), (0, 1, 2, 3, 4, 5, 6, 7)],
}


class Scheme(str, Enum):
    BBD = "bbd"
    CCD = "ccd"
    INSCRIBED_CCD2 = "inscribed-ccd2"


@dataclass(frozen=True)
class DoeBox:
    """Sampling box: center (the deterministic solution) and halfwidths."""

    center: np.ndarray
    halfwidths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "halfwidths", np.asarray(self.halfwidths, dtype=float))
        if self.center.shape != self.halfwidths.shape:
            raise DomainError("center and halfwidths must have matching shapes")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class DoePlan:
    scheme: Scheme
    points: np.ndarray  # (m, n), first row is the box center

    @property
    def size(self) -> int:
        return self.points.shape[0]


def doe_box(variables: list[RandomVariable], beta_d: float, det_solution,
            halfwidth_overrides: dict | None = None,
            c_r_design: float = None, c_r_parameter: float = None) -> DoeBox:
    """Box around the deterministic solution.

    Halfwidths: 1.4*beta_d*sigma_eq for random design variables,
    beta_d*sigma_eq for parameters, 1.4*beta_d*d/10 for deterministic
    design variables (override required when d = 0).  The two rescaling
    constants can be overridden per problem.
    """
    if beta_d <= 0.0:
        raise DomainError(f"beta_d must be > 0, got {beta_d}")
    cr_design = C_R_DESIGN if c_r_design is None else float(c_r_design)
    cr_param = C_R_PARAMETER if c_r_parameter is None else float(c_r_parameter)
    if cr_design <= 0.0 or cr_param <= 0.0:
        raise DomainError("rescaling constants must be > 0")
    det_solution = np.asarray(det_solution, dtype=float)
    overrides = halfwidth_overrides or {}
    at_det = [v.with_mean(d) for v, d in zip(variables, det_solution)]
    sigma_eq = standard_normal_map(at_det, None)[0].diagonal()
    hw = np.empty(len(variables))
    for i, v in enumerate(variables):
        if v.name in overrides:
            hw[i] = float(overrides[v.name])
            if hw[i] <= 0.0:
                raise ZeroHalfwidthError(f"{v.name}: halfwidth override must be > 0")
            continue
        if v.role is Role.DETERMINISTIC_DESIGN:
            if det_solution[i] == 0.0:
                raise ZeroHalfwidthError(
                    f"{v.name}: deterministic design value is 0, supply an explicit "
                    "halfwidth override"
                )
            hw[i] = cr_design * beta_d * abs(det_solution[i]) / 10.0
        else:
            c_r = cr_design if v.role is Role.DESIGN_VARIABLE else cr_param
            if sigma_eq[i] <= 0.0:
                raise ZeroHalfwidthError(f"{v.name}: zero equivalent standard deviation")
            hw[i] = c_r * beta_d * sigma_eq[i]
    return DoeBox(center=det_solution, halfwidths=hw)


def _scale(coded: np.ndarray, box: DoeBox) -> np.ndarray:
    return box.center + coded * box.halfwidths


def bbd_points(box: DoeBox) -> DoePlan:
    """Box-Behnken plan: all pairwise edge midpoints plus one center.

    4*C(n,2) + 1 points for n = ``box.dim``; matches the reference counts
    for n = 3..5.
    """
    n = box.dim
    if n < 3:
        raise UnsupportedDesignError(f"Box-Behnken is undefined for n = {n} (< 3)")
    rows = [np.zeros(n)]
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in itertools.product((-1.0, 1.0), repeat=2):
            row = np.zeros(n)
            row[i], row[j] = si, sj
            rows.append(row)
    coded = np.array(rows)
    return DoePlan(scheme=Scheme.BBD, points=_scale(coded, box))


def _fractional_factorial(n: int, f: int) -> np.ndarray:
    base = n - f
    full = np.array(list(itertools.product((-1.0, 1.0), repeat=base)))
    if f == 0:
        return full
    gens = _CCD_GENERATORS[(n, f)]
    cols = [full]
    for gen in gens:
        cols.append(np.prod(full[:, gen], axis=1, keepdims=True))
    return np.hstack(cols)


def _ccd_coded(n: int) -> np.ndarray:
    """Coded central composite rows: center, then -/+ each axis, then the 2^(n-f) corners."""
    if n < 2 or n > 12:
        raise UnsupportedDesignError(f"CCD supported for 2 <= n <= 12, got {n}")
    axes = np.zeros((2 * n, n))
    for i in range(n):
        axes[2 * i:2 * i + 2, i] = (-1.0, 1.0)
    return np.vstack([np.zeros((1, n)), axes, _fractional_factorial(n, _CCD_FRACTION[n])])


def ccd_points(box: DoeBox) -> DoePlan:
    """Central composite plan: center + 2n axis points + 2^(n-f) corners, n = ``box.dim``."""
    return DoePlan(scheme=Scheme.CCD, points=_scale(_ccd_coded(box.dim), box))


def inscribed_ccd_2(box: DoeBox) -> DoePlan:
    """Two-variable CCD scaled so every point lies inside the box.

    Star points sit on the box boundary; factorial corners are pulled in
    by 1/sqrt(2).
    """
    if box.dim != 2:
        raise UnsupportedDesignError(f"inscribed CCD is defined for n = 2, got {box.dim}")
    coded = _ccd_coded(2)
    coded[5:] /= np.sqrt(2.0)
    return DoePlan(scheme=Scheme.INSCRIBED_CCD2, points=_scale(coded, box))


def _basis_names(n: int):
    names = ["1"] + [f"z{i+1}" for i in range(n)]
    names += [f"z{i+1}^2" for i in range(n)]
    names += [f"z{i+1}*z{j+1}" for i, j in itertools.combinations(range(n), 2)]
    return names


def fit_quadratic(points, values) -> QuadraticForm:
    """Least-squares fit of the full quadratic basis to sampled values.

    Points are centered and scaled internally so the design matrix stays
    well conditioned; coefficients are mapped back to the original space.
    Exact on quadratics given a full-rank plan.
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    if points.ndim != 2:
        raise DomainError("points must be a 2-D array (rows = samples)")
    m, n = points.shape
    if values.shape != (m,):
        raise DomainError(f"values has shape {values.shape}, expected ({m},)")
    ncoef = n_quadratic_coefficients(n)
    if m < ncoef:
        raise SingularFitError(
            f"need at least {ncoef} samples for a quadratic in {n} variables, got {m}"
        )

    center = points.mean(axis=0)
    span = np.abs(points - center).max(axis=0)
    span[span == 0.0] = 1.0
    u = (points - center) / span

    pairs = list(itertools.combinations(range(n), 2))
    cols = [np.ones(m)]
    cols += [u[:, i] for i in range(n)]
    cols += [u[:, i] ** 2 for i in range(n)]
    cols += [u[:, i] * u[:, j] for i, j in pairs]
    x = np.column_stack(cols)

    _, sv, vt = np.linalg.svd(x, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(m, ncoef) * np.finfo(float).eps * 10))
    if rank < ncoef:
        null_vec = vt[-1]
        names = _basis_names(n)
        worst = names[int(np.argmax(np.abs(null_vec)))]
        raise SingularFitError(
            f"design matrix is rank deficient ({rank}/{ncoef}); "
            f"no information along basis direction {worst}",
            deficient_direction=worst,
        )
    coef, *_ = np.linalg.lstsq(x, values, rcond=None)

    c_u = coef[0]
    k_u = coef[1 : 1 + n]
    a_u = np.diag(coef[1 + n : 1 + 2 * n]).astype(float)
    for (i, j), val in zip(pairs, coef[1 + 2 * n :]):
        a_u[i, j] = a_u[j, i] = 0.5 * val

    # map u = (z - center)/span back to z
    sinv = 1.0 / span
    a_z = a_u * np.outer(sinv, sinv)
    k_z = k_u * sinv - 2.0 * a_z @ center
    c_z = c_u + center @ a_z @ center - (k_u * sinv) @ center
    return QuadraticForm(a=a_z, k=k_z, c=float(c_z))


def plan_to_csv(plan: DoePlan, names: list[str], path):
    """Write a plan as CSV, one sample per row, header = variable names."""
    header = ",".join(names)
    np.savetxt(path, plan.points, delimiter=",", header=header, comments="")
