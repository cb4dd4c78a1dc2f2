"""Built-in benchmark and demo problems.

The internal failure convention is g < 0.  Benchmarks stated with
g >= 0 safety load unchanged; benchmarks stated as Prob[g > 0] bounded
are negated at load so one convention holds everywhere.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DomainError, ProblemFormatError
from .quadratic import QuadraticForm, correlation_decompose, n_quadratic_coefficients
from .solver import ConstraintSpec, RbdoProblem, StdMode
from .variables import Kind, RandomVariable, Role


# ----------------------------------------------------------------------
# bench-3g: two normal design variables, three limit states tied to one
# system (shared evaluations), sigma = 0.3, bounds [0, 10].

def _g3_1(z):
    return z[:, 0] ** 2 * z[:, 1] / 20.0 - 1.0


def _g3_2(z):
    return (z[:, 0] + z[:, 1] - 5.0) ** 2 / 30.0 + (z[:, 0] - z[:, 1] - 12.0) ** 2 / 120.0 - 1.0


def _g3_3(z):
    return 80.0 / (z[:, 0] ** 2 + 8.0 * z[:, 1] + 5.0) - 1.0


def bench_3g(beta_d: float = 3.0, pf_all: float = None) -> RbdoProblem:
    target = {"pf_all": pf_all} if pf_all is not None else {"beta_d": beta_d}
    variables = [
        RandomVariable("x1", Kind.NORMAL, Role.DESIGN_VARIABLE, 5.0, 0.3, 0.0, 10.0),
        RandomVariable("x2", Kind.NORMAL, Role.DESIGN_VARIABLE, 5.0, 0.3, 0.0, 10.0),
    ]
    return RbdoProblem(
        variables=variables,
        objective=lambda mu: float(mu[0] + mu[1]),
        constraints=[
            ConstraintSpec(name="g1", g=_g3_1, **target),
            ConstraintSpec(name="g2", g=_g3_2, **target),
            ConstraintSpec(name="g3", g=_g3_3, **target),
        ],
        shared_evaluations=True,
    )


# ----------------------------------------------------------------------
# bench-quad4: four N(mu, 1) design variables, two quadratic limit
# states published with a Prob[g > 0] bound, negated at load.

def _q4_1(z):
    return -(z[:, 0] ** 2 + 2.0 * z[:, 0] + z[:, 1] ** 2
             + 0.5 * z[:, 0] * z[:, 1] - 13.0)


def _q4_2(z):
    return -(-z[:, 0] ** 2 - z[:, 1] ** 2 - z[:, 2] ** 2 - z[:, 3] ** 2
             + 10.0 * z[:, 0] + 12.0 * z[:, 1] + 12.0 * z[:, 2] + 12.0 * z[:, 3] - 43.0)


def bench_quad4(beta_d: float = None, pf_all: float = 0.015) -> RbdoProblem:
    target = {"beta_d": beta_d} if beta_d is not None else {"pf_all": pf_all}
    variables = [
        RandomVariable(f"x{i+1}", Kind.NORMAL, Role.DESIGN_VARIABLE, 1.0, 1.0, -4.0, 4.0)
        for i in range(4)
    ]
    return RbdoProblem(
        variables=variables,
        objective=lambda mu: float(np.sum(np.asarray(mu) ** 2)),
        constraints=[
            ConstraintSpec(name="g1", g=_q4_1, **target),
            ConstraintSpec(name="g2", g=_q4_2, **target),
        ],
        shared_evaluations=True,
    )


# ----------------------------------------------------------------------
# Ellipse demos: one design variable against a fixed parameter, the
# limit state an explicit quadratic so no DOE runs are needed.

ELLIPSE_A = np.array([[1.0 / 24.0, 1.0 / 40.0], [1.0 / 40.0, 1.0 / 24.0]])
ELLIPSE_K = np.array([-8.0 / 15.0, -2.0 / 15.0])
ELLIPSE_C = 31.0 / 30.0


def ellipse_form() -> QuadraticForm:
    return QuadraticForm(a=ELLIPSE_A, k=ELLIPSE_K, c=ELLIPSE_C)


def demo_ellipse(beta_d: float = 3.0, mu_x1: float = 2.0, sigma_x1: float = 0.3) -> RbdoProblem:
    variables = [
        RandomVariable("x1", Kind.NORMAL, Role.DESIGN_VARIABLE, mu_x1, sigma_x1, 0.0, 15.0),
        RandomVariable("p1", Kind.NORMAL, Role.PARAMETER, 3.4, 0.3),
    ]
    return RbdoProblem(
        variables=variables,
        objective=lambda mu: float(mu[0]),
        constraints=[ConstraintSpec(name="g", quadratic=ellipse_form(), beta_d=beta_d)],
    )


def demo_ellipse_varstd(beta_d: float = 3.0, mu_x1: float = 2.0, t: float = 0.1) -> RbdoProblem:
    p = demo_ellipse(beta_d=beta_d, mu_x1=mu_x1, sigma_x1=t * mu_x1)
    p.std_mode = StdMode(t=np.array([t]))
    return p


def demo_ellipse_lognormal(beta_d: float = 3.0, mu_x1: float = 2.0,
                           sigma_x1: float = 0.3, rho: float = 0.5) -> RbdoProblem:
    variables = [
        RandomVariable("x1", Kind.LOGNORMAL, Role.DESIGN_VARIABLE, mu_x1, sigma_x1, 0.1, 15.0),
        RandomVariable("p1", Kind.NORMAL, Role.PARAMETER, 3.4, 0.3),
    ]
    corr = correlation_decompose(np.array([[1.0, rho], [rho, 1.0]]))
    return RbdoProblem(
        variables=variables,
        objective=lambda mu: float(mu[0]),
        constraints=[ConstraintSpec(name="g", quadratic=ellipse_form(), beta_d=beta_d)],
        corr=corr,
    )


def demo_ellipse_det(beta_d: float = 3.0, d1: float = 2.0, mu_x1: float = 2.0) -> RbdoProblem:
    """Ellipse with a deterministic design variable d1 stacked first."""
    a = np.zeros((3, 3))
    a[1:, 1:] = ELLIPSE_A
    # the -d1 term enters through the linear coefficient of the stacked
    # deterministic variable; the raw constant is 61/30
    q = QuadraticForm(a=a, k=np.array([-1.0, -8.0 / 15.0, -2.0 / 15.0]), c=61.0 / 30.0)
    variables = [
        RandomVariable("d1", Kind.DETERMINISTIC, Role.DETERMINISTIC_DESIGN, d1,
                       0.0, 0.1, 10.0),
        RandomVariable("x1", Kind.NORMAL, Role.DESIGN_VARIABLE, mu_x1, 0.3, 0.0, 15.0),
        RandomVariable("p1", Kind.NORMAL, Role.PARAMETER, 3.4, 0.3),
    ]
    return RbdoProblem(
        variables=variables,
        objective=lambda mu: float(mu[0] + mu[1]),
        constraints=[ConstraintSpec(name="g", quadratic=q, beta_d=beta_d)],
    )


# ----------------------------------------------------------------------
# Crashworthiness: 7 random design variables + 4 parameters; the ten
# quadratic constraints and the linear objective come from an external
# coefficient file (the published surrogate tables are not shipped).

CRASH_SIGMA_X = [0.03, 0.03, 0.03, 0.03, 0.05, 0.03, 0.03]
CRASH_MU_X_IN = [1.0, 0.9, 1.0, 1.0, 1.75, 0.8, 0.8]
CRASH_LOWER = [0.5, 0.45, 0.5, 0.5, 0.875, 0.4, 0.4]
CRASH_UPPER = [1.5, 1.35, 1.5, 1.5, 2.625, 1.2, 1.2]
CRASH_MU_P = [0.345, 0.192, 0.0, 0.0]
CRASH_SIGMA_P = [0.006, 0.006, 10.0, 10.0]
CRASH_NZ = 11


def crashworthiness_variables():
    out = [
        RandomVariable(f"x{i+1}", Kind.NORMAL, Role.DESIGN_VARIABLE,
                       CRASH_MU_X_IN[i], CRASH_SIGMA_X[i],
                       CRASH_LOWER[i], CRASH_UPPER[i])
        for i in range(7)
    ]
    out += [
        RandomVariable(f"p{i+1}", Kind.NORMAL, Role.PARAMETER,
                       CRASH_MU_P[i], CRASH_SIGMA_P[i])
        for i in range(4)
    ]
    return out


def load_crash_coefficients(path):
    """Read the constraint/objective coefficient CSV.

    One row per entry: name followed by the flat quadratic layout
    (c, k_1..k_11, upper triangle of A row-major, 78 numbers total).
    Every coefficient is a finite number.  A row named ``objective`` is
    required and must be linear (zero A).
    Returns (objective_form, {name: QuadraticForm}).
    """
    n_flat = n_quadratic_coefficients(CRASH_NZ)
    forms = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ProblemFormatError("empty coefficient file", path="")
        for lineno, row in enumerate(reader, start=2):
            if not row or not row[0].strip():
                continue
            name = row[0].strip()
            try:
                coeffs = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ProblemFormatError(f"row {name!r}: {exc}", path=f"line {lineno}") from exc
            if len(coeffs) != n_flat:
                raise ProblemFormatError(
                    f"row {name!r} has {len(coeffs)} coefficients, expected {n_flat}",
                    path=f"line {lineno}",
                )
            if not all(map(math.isfinite, coeffs)):
                raise ProblemFormatError(f"row {name!r} has a coefficient that is not finite",
                                         path=f"line {lineno}")
            forms[name] = QuadraticForm.from_flat(np.array(coeffs), CRASH_NZ)
    if "objective" not in forms:
        raise ProblemFormatError("coefficient file must contain an 'objective' row",
                                 path="objective")
    obj = forms.pop("objective")
    if np.any(obj.a != 0.0):
        raise ProblemFormatError("objective row must be linear (zero quadratic part)",
                                 path="objective")
    if len(forms) != 10:
        raise ProblemFormatError(
            f"expected 10 constraint rows, found {len(forms)}", path=""
        )
    return obj, forms


def crashworthiness(coefficient_file=None, beta_d: float = None,
                    rd: float = 0.9) -> RbdoProblem:
    if coefficient_file is None:
        raise DomainError(
            "the crashworthiness benchmark needs an external coefficient file: "
            "the published quadratic surrogate tables are not distributed with "
            "this package (supply --coeff-file with the documented CSV layout)"
        )
    obj, forms = load_crash_coefficients(coefficient_file)
    if beta_d is None:
        pf_all = 1.0 - rd
        target = {"pf_all": pf_all}
    else:
        target = {"beta_d": beta_d}
    variables = crashworthiness_variables()
    obj_k = obj.k[:7]
    obj_c = obj.c + float(obj.k[7:] @ np.array(CRASH_MU_P))
    return RbdoProblem(
        variables=variables,
        objective=lambda mu: float(obj_k @ np.asarray(mu) + obj_c),
        constraints=[ConstraintSpec(name=name, quadratic=q, **target)
                     for name, q in sorted(forms.items())],
        shared_evaluations=True,
    )


BUILTIN_BUILDERS = {
    "bench-3g": bench_3g,
    "bench-quad4": bench_quad4,
    "demo-ellipse": demo_ellipse,
    "demo-ellipse-varstd": demo_ellipse_varstd,
    "demo-ellipse-lognormal": demo_ellipse_lognormal,
    "demo-ellipse-det": demo_ellipse_det,
    "crashworthiness": crashworthiness,
}


def builtin_problems():
    """Registry of builtin problem builders, keyed by name."""
    return dict(BUILTIN_BUILDERS)
