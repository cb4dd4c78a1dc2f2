"""quadrel: reliability-based design optimization with closed-form
second-order failure probabilities for quadratic limit states.

The pipeline: fit (or accept) quadratic limit states, transform them
into uncorrelated standard-normal space, evaluate the probability of
failure in closed form, and optimize the design means in a single loop.
The FORM double loop (first-order pf Phi(-beta)) and Monte Carlo audits are
the baselines.  A problem's stds are constant, or proportional to the
design means with ``RbdoProblem(proportional_t=...)``.  Lower-level helpers
come from their submodules, among them ``form.sorm_breitung``, a standalone
SORM correction that no solver calls.
"""

from .errors import QuadrelError
from .variables import Kind, RandomVariable, Role
from .quadratic import QuadraticForm, correlation_decompose, standard_normal_map, to_standard_normal
from .pf import pf_quadratic
from .solver import (
    ConstraintSpec,
    RbdoProblem,
    mc_audit,
    rbdo_double_loop_form,
    rssl_solve,
)
from .problems import builtin_problems
from .problem_io import build_problem

__version__ = "1.0.0"

__all__ = [
    "QuadrelError",
    "Kind", "RandomVariable", "Role",
    "QuadraticForm", "correlation_decompose", "standard_normal_map", "to_standard_normal",
    "pf_quadratic",
    "ConstraintSpec", "RbdoProblem",
    "mc_audit", "rbdo_double_loop_form", "rssl_solve",
    "builtin_problems", "build_problem",
]
