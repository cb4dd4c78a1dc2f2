"""Built-in benchmark and demo problems, each a problem document.

Every builder writes its problem in the problem-file layout (README,
"Problem files") and returns ``build_problem`` of that document, so a
builtin and a file go through the one parser.

The internal failure convention is g < 0.  Benchmarks stated with
g >= 0 safety load unchanged; benchmarks stated as Prob[g > 0] bounded
are negated at load so one convention holds everywhere.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DomainError, ProblemFormatError
from .problem_io import build_problem
from .quadratic import n_quadratic_coefficients
from .solver import RbdoProblem


def _variable(name, role, mean, std, bounds=(), kind="normal") -> dict:
    """One entry of a document's ``variables``; ``bounds`` is () or (lower, upper)."""
    return {"name": name, "kind": kind, "role": role, "mean": mean, "std": std,
            **dict(zip(("lower", "upper"), bounds))}


# ----------------------------------------------------------------------
# bench-3g: two normal design variables, three limit states tied to one
# system (shared evaluations), sigma = 0.3, bounds [0, 10].

BENCH_3G = [
    "x1 ** 2 * x2 / 20.0 - 1.0",
    "(x1 + x2 - 5.0) ** 2 / 30.0 + (x1 - x2 - 12.0) ** 2 / 120.0 - 1.0",
    "80.0 / (x1 ** 2 + 8.0 * x2 + 5.0) - 1.0",
]


def bench_3g(beta_d: float = 3.0) -> RbdoProblem:
    return build_problem({
        "variables": [_variable(f"x{i}", "design-variable", 5.0, 0.3, (0.0, 10.0))
                      for i in (1, 2)],
        "objective": {"builtin": "sum"},
        "constraints": [{"name": f"g{i+1}", "expression": e} for i, e in enumerate(BENCH_3G)],
        "targets": {"beta_d": beta_d},
        "shared_evaluations": True,
    })


# ----------------------------------------------------------------------
# bench-quad4: four N(mu, 1) design variables, two quadratic limit
# states published with a Prob[g > 0] bound, negated at load.

BENCH_QUAD4 = [
    "-(x1 ** 2 + 2.0 * x1 + x2 ** 2 + 0.5 * x1 * x2 - 13.0)",
    "-(-x1 ** 2 - x2 ** 2 - x3 ** 2 - x4 ** 2"
    " + 10.0 * x1 + 12.0 * x2 + 12.0 * x3 + 12.0 * x4 - 43.0)",
]


def bench_quad4(beta_d: float = None, pf_all: float = 0.015) -> RbdoProblem:
    return build_problem({
        "variables": [_variable(f"x{i}", "design-variable", 1.0, 1.0, (-4.0, 4.0))
                      for i in range(1, 5)],
        "objective": {"builtin": "sum-of-squares"},
        "constraints": [{"name": f"g{i+1}", "expression": e} for i, e in enumerate(BENCH_QUAD4)],
        "targets": {"beta_d": beta_d} if beta_d is not None else {"pf_all": pf_all},
        "shared_evaluations": True,
    })


# ----------------------------------------------------------------------
# Ellipse demos: one design variable against a fixed parameter, the
# limit state an explicit quadratic so no DOE runs are needed.

# flat layout [c, k1, k2, a11, a12, a22] over (x1, p1)
ELLIPSE_FLAT = [31.0 / 30.0, -8.0 / 15.0, -2.0 / 15.0, 1.0 / 24.0, 1.0 / 40.0, 1.0 / 24.0]


def _ellipse(beta_d: float, x1: dict) -> dict:
    """The ellipse document with design variable ``x1`` against p1 ~ N(3.4, 0.3)."""
    return {
        "variables": [x1, _variable("p1", "parameter", 3.4, 0.3)],
        "objective": {"builtin": "sum"},
        "constraints": [{"name": "g", "quadratic": ELLIPSE_FLAT}],
        "targets": {"beta_d": beta_d},
    }


def demo_ellipse(beta_d: float = 3.0) -> RbdoProblem:
    return build_problem(_ellipse(beta_d, _variable("x1", "design-variable", 2.0, 0.3,
                                                    (0.0, 15.0))))


def demo_ellipse_varstd(beta_d: float = 3.0) -> RbdoProblem:
    doc = _ellipse(beta_d, _variable("x1", "design-variable", 2.0, 0.2, (0.0, 15.0)))
    doc["solver"] = {"proportional_t": [0.1]}
    return build_problem(doc)


def demo_ellipse_lognormal(beta_d: float = 3.0) -> RbdoProblem:
    doc = _ellipse(beta_d, _variable("x1", "design-variable", 2.0, 0.3, (0.1, 15.0),
                                     kind="lognormal"))
    doc["correlation"] = [[1.0, 0.5], [0.5, 1.0]]
    return build_problem(doc)


def demo_ellipse_det(beta_d: float = 3.0) -> RbdoProblem:
    """Ellipse with a deterministic design variable d1 stacked first."""
    doc = _ellipse(beta_d, _variable("x1", "design-variable", 2.0, 0.3, (0.0, 15.0)))
    doc["variables"].insert(0, _variable("d1", "deterministic-design", 2.0, 0.0, (0.1, 10.0),
                                         kind="deterministic"))
    # the -d1 term is the linear coefficient of the stacked deterministic
    # variable, whose row and column of A are zero; the raw constant is 61/30
    doc["constraints"][0]["quadratic"] = [61.0 / 30.0, -1.0, *ELLIPSE_FLAT[1:3],
                                          0.0, 0.0, 0.0, *ELLIPSE_FLAT[3:]]
    return build_problem(doc)


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


def _crash_rows(path):
    """Read the constraint/objective coefficient CSV: (objective row, {name: row}).

    One row per entry: name followed by the flat quadratic layout
    (c, k_1..k_11, upper triangle of A row-major, 78 numbers total).
    Every coefficient is a finite number.  A row named ``objective`` is
    required and must be linear (zero A).
    """
    n_flat = n_quadratic_coefficients(CRASH_NZ)
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:  # the header line
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
                raise ProblemFormatError(f"row {name!r} has {len(coeffs)} coefficients, "
                                         f"expected {n_flat}", path=f"line {lineno}")
            if not all(map(math.isfinite, coeffs)):
                raise ProblemFormatError(f"row {name!r} has a coefficient that is not finite",
                                         path=f"line {lineno}")
            rows[name] = coeffs
    if "objective" not in rows:
        raise ProblemFormatError("coefficient file must contain an 'objective' row",
                                 path="objective")
    objective = rows.pop("objective")
    if any(objective[1 + CRASH_NZ:]):
        raise ProblemFormatError("objective row must be linear (zero quadratic part)",
                                 path="objective")
    if len(rows) != 10:
        raise ProblemFormatError(f"expected 10 constraint rows, found {len(rows)}", path="")
    return objective, rows


def crashworthiness(coefficient_file=None, beta_d: float = None) -> RbdoProblem:
    if coefficient_file is None:
        raise DomainError(
            "the crashworthiness benchmark needs an external coefficient file: "
            "the published quadratic surrogate tables are not distributed with "
            "this package (supply --coeff-file with the documented CSV layout)"
        )
    objective, rows = _crash_rows(coefficient_file)
    variables = [_variable(f"x{i+1}", "design-variable", CRASH_MU_X_IN[i], CRASH_SIGMA_X[i],
                           (CRASH_LOWER[i], CRASH_UPPER[i])) for i in range(7)]
    variables += [_variable(f"p{i+1}", "parameter", CRASH_MU_P[i], CRASH_SIGMA_P[i])
                  for i in range(4)]
    # the objective's parameter terms enter at the parameter means
    constant = objective[0] + float(np.array(objective[8:12]) @ np.array(CRASH_MU_P))
    return build_problem({
        "variables": variables,
        "objective": {"linear": objective[1:8], "constant": constant},
        "constraints": [{"name": name, "quadratic": row} for name, row in sorted(rows.items())],
        "targets": {"pf_all": 1.0 - 0.9} if beta_d is None else {"beta_d": beta_d},
        "shared_evaluations": True,
    })


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
