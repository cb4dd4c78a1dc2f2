"""Problem-file ingestion and result serialization.

A problem file is a JSON document with sections ``variables``,
``correlation`` (optional), ``objective``, ``constraints``, ``targets``
(optional global default), ``solver`` and ``doe`` (both optional).
``build_problem`` checks each field as it builds it and reports the
JSON path of the offending one; a key outside an object's documented
fields is an error too.
"""

from __future__ import annotations

import ast
import json
import keyword
import math
import sys

import numpy as np

from .doe import Scheme
from .errors import ProblemFormatError
from .montecarlo import McEstimate
from .pf import beta_generalized
from .quadratic import QuadraticForm, correlation_decompose, n_quadratic_coefficients
from .solver import ConstraintSpec, RbdoProblem, RbdoResult
from .variables import Kind, RandomVariable, Role

_KINDS = {k.value for k in Kind}
_ROLES = {r.value for r in Role}
_SCHEMES = {s.value for s in Scheme}

# Names usable inside constraint/objective expressions besides the
# variable columns themselves.
_EXPR_NAMES = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "pi": math.pi,
}


def _require(cond, message, path):
    if not cond:
        raise ProblemFormatError(message, path=path)


def _known_fields(obj: dict, known, path: str):
    """Reject a key of ``obj`` outside ``known``, at ``path.key``."""
    for key in obj:
        _require(key in known, f"unknown field {key!r}; expected one of {sorted(known)}",
                 f"{path}.{key}" if path else key)


def _is_number(val) -> bool:
    """A JSON number a float holds finitely: not a bool, NaN (it fails every comparison),
    +/-inf (json reads ``Infinity`` and ``1e999`` as inf) or an int past the float range."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _number(val, key, path, above=None, below=None):
    """``val`` as a float, optionally strictly between ``above`` and ``below``."""
    _require(_is_number(val), f"{key!r} must be a finite number, got {val!r}", path)
    _require(above is None or val > above, f"{key!r} must be > {above}, got {val!r}", path)
    _require(below is None or val < below, f"{key!r} must be < {below}, got {val!r}", path)
    return float(val)


def _get_number(obj, key, path, default=None, required=False, **bounds):
    """``obj[key]`` checked by ``_number``, reported at ``path.key``."""
    if key not in obj:
        _require(not required, f"missing required field {key!r}", path)
        return default
    return _number(obj[key], key, f"{path}.{key}", **bounds)


# beta_d > 0 and 0 < pf_all < 0.5 each say target beta > 0, the domain the DOE box assumes.
_TARGET_RANGES = {"beta_d": {"above": 0.0}, "pf_all": {"above": 0.0, "below": 0.5}}


def target_value(key: str, val, path: str) -> float:
    """``val`` as the target ``key`` (beta_d or pf_all), in range or an error at ``path``."""
    return _number(val, key, path, **_TARGET_RANGES[key])


def _get_array(val, shape: tuple, path: str) -> np.ndarray:
    """``val`` as a float array of ``shape`` whose entries are all finite JSON numbers."""
    arr = np.array(val, dtype=object)
    _require(arr.shape == shape and all(map(_is_number, arr.flat)),
             f"must be a finite numeric array of shape {shape}", path)
    return arr.astype(float)


def load_document(path) -> dict:
    """Read a problem file's JSON object; ``build_problem`` checks its fields."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}", path="") from exc
    _require(isinstance(doc, dict), "problem file must be a JSON object", "")
    return doc


def _build_variable(v, p: str, names: list[str]) -> RandomVariable:
    _require(isinstance(v, dict), "variable entries must be objects", p)
    _known_fields(v, {"name", "kind", "role", "mean", "value", "std", "cv", "lower", "upper"}, p)
    name = v.get("name")
    _require(isinstance(name, str) and name.isidentifier() and not keyword.iskeyword(name),
             "variable name must be an identifier and not a Python keyword", f"{p}.name")
    _require(name not in _EXPR_NAMES,
             f"variable name {name!r} is taken by an expression function or constant", f"{p}.name")
    _require(name not in names, f"duplicate variable name {name!r}", f"{p}.name")
    _require(v.get("kind") in _KINDS, f"kind must be one of {sorted(_KINDS)}", f"{p}.kind")
    _require(v.get("role") in _ROLES, f"role must be one of {sorted(_ROLES)}", f"{p}.role")
    has_mean = "mean" in v
    _require(has_mean != ("value" in v), "give exactly one of 'mean' / 'value'", p)
    mean = _get_number(v, "mean" if has_mean else "value", p, required=True)
    _require("std" not in v or "cv" not in v, "give at most one of 'std' / 'cv'", p)
    std = _get_number(v, "std", p, default=0.0)
    cv = _get_number(v, "cv", p)
    if cv is not None:
        _require(cv >= 0.0, "cv must be >= 0", f"{p}.cv")
        std = cv * abs(mean)
    _require(std >= 0.0, "std must be >= 0", f"{p}.std")
    return RandomVariable(
        name=name, kind=Kind(v["kind"]), role=Role(v["role"]), mean=mean, std=std,
        lower=_get_number(v, "lower", p, default=-math.inf),
        upper=_get_number(v, "upper", p, default=math.inf),
    )


def _loaded_names(code) -> set:
    """The names ``code`` and the code objects nested in it (a lambda, or a
    comprehension before Python 3.12) load; their own locals are not names."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            names |= _loaded_names(const)
    return names


def _compile_expression(expr, names: list[str], path: str):
    """Compile an expression over named variable columns, once, into g(z): the
    body of a function whose parameters are the variable names, so a call passes
    z's columns and builds no namespace.  An exception raised while it
    evaluates is an input error at ``path``."""
    _require(isinstance(expr, str), "'expression' must be a string", path)
    try:
        body = ast.parse(expr, "<constraint>", "eval").body
    except SyntaxError as exc:
        raise ProblemFormatError(f"bad expression: {exc}", path=path) from exc
    used = _loaded_names(compile(ast.Expression(body), "<constraint>", "eval"))
    unknown = sorted(used - set(names) - set(_EXPR_NAMES))
    _require(not unknown, f"unknown names {unknown} in expression", path)
    _require(used & set(names), "expression names no variable", path)
    at = {"lineno": 1, "col_offset": 0}  # compile needs a place on each new node
    params = ast.arguments(posonlyargs=[], args=[ast.arg(name, **at) for name in names],
                           kwonlyargs=[], kw_defaults=[], defaults=[])
    tree = ast.Expression(ast.Lambda(params, body, **at))
    f = eval(compile(tree, "<constraint>", "eval"), {**_EXPR_NAMES, "__builtins__": {}})

    def g(z):
        try:  # a batch (m, n) gives m values; one point (n,), like a QuadraticForm, one
            return np.asarray(f(*np.asarray(z, dtype=float).T), dtype=float)
        except Exception as exc:
            raise ProblemFormatError(f"expression failed: {exc}", path=path) from exc

    return g


def _build_objective(spec, design_names: list[str]):
    _require(isinstance(spec, dict), "'objective' must be an object", "objective")
    _require(len({"linear", "quadratic", "expression", "builtin"} & set(spec)) == 1,
             "objective needs exactly one of 'linear', 'quadratic', "
             "'expression', 'builtin'", "objective")
    _known_fields(spec, {"linear", "constant"} if "linear" in spec else
                  {"quadratic", "expression", "builtin"}, "objective")
    nd = len(design_names)
    if "builtin" in spec:
        _require(spec["builtin"] in ("sum", "sum-of-squares"),
                 "builtin objective must be 'sum' or 'sum-of-squares'",
                 "objective.builtin")
        if spec["builtin"] == "sum":  # np.add.reduce: np.sum's own reduction, minus its dispatch
            return lambda mu: float(np.add.reduce(mu))
        return lambda mu: float(np.add.reduce(np.square(mu)))
    if "linear" in spec:
        coeffs = _get_array(spec["linear"], (nd,), "objective.linear")
        const = _get_number(spec, "constant", "objective", default=0.0)
        return lambda mu: float(coeffs @ np.asarray(mu, dtype=float) + const)
    if "quadratic" in spec:
        coeffs = _get_array(spec["quadratic"], (n_quadratic_coefficients(nd),),
                            "objective.quadratic")
        q = QuadraticForm.from_flat(coeffs, nd)
        return lambda mu: float(q(np.asarray(mu, dtype=float)))
    g = _compile_expression(spec["expression"], design_names, "objective.expression")
    return lambda mu: float(g(np.atleast_2d(mu))[0])


def _build_constraint(con, i: int, names: list[str], targets: dict) -> ConstraintSpec:
    p = f"constraints[{i}]"
    _require(isinstance(con, dict), "constraint entries must be objects", p)
    _known_fields(con, {"name", "quadratic", "expression", *_TARGET_RANGES}, p)
    _require(len({"quadratic", "expression"} & set(con)) == 1,
             "constraint needs exactly one of 'quadratic' / 'expression'", p)
    if "quadratic" in con:
        coeffs = _get_array(con["quadratic"], (n_quadratic_coefficients(len(names)),),
                            f"{p}.quadratic")
        limit_state = {"quadratic": QuadraticForm.from_flat(coeffs, len(names))}
    else:
        limit_state = {"g": _compile_expression(con["expression"], names, f"{p}.expression")}
    _require(not ("beta_d" in con and "pf_all" in con),
             "give at most one of beta_d / pf_all", p)
    # the constraint's own target wins over the global default
    for source, path in ((con, p), (targets, "targets")):
        for key, bounds in _TARGET_RANGES.items():
            if key in source:
                return ConstraintSpec(name=con.get("name", f"g{i+1}"), **limit_state,
                                      **{key: _get_number(source, key, path, **bounds)})
    raise ProblemFormatError("constraint has no target and no global targets section", path=p)


def build_problem(doc: dict) -> RbdoProblem:
    """Check a problem document field by field and build its RbdoProblem.

    The first bad field raises ProblemFormatError with its JSON path.
    """
    _require(isinstance(doc, dict), "problem file must be a JSON object", "")
    _known_fields(doc, {"variables", "correlation", "objective", "constraints", "targets",
                        "solver", "doe", "shared_evaluations"}, "")
    entries = doc.get("variables")
    _require(isinstance(entries, list) and entries,
             "'variables' must be a non-empty list", "variables")
    variables = []
    for i, v in enumerate(entries):
        variables.append(_build_variable(v, f"variables[{i}]", [u.name for u in variables]))
    names = [v.name for v in variables]
    n = len(variables)

    corr = doc.get("correlation")
    if corr is not None:
        corr = correlation_decompose(_get_array(corr, (n, n), "correlation"))

    design_names = [v.name for v in variables if v.is_design]
    objective = _build_objective(doc.get("objective"), design_names)

    constraints = doc.get("constraints")
    _require(isinstance(constraints, list) and constraints,
             "'constraints' must be a non-empty list", "constraints")
    targets = doc.get("targets", {})
    _require(isinstance(targets, dict), "'targets' must be an object", "targets")
    _known_fields(targets, _TARGET_RANGES, "targets")
    _require(not ("beta_d" in targets and "pf_all" in targets),
             "give at most one of targets.beta_d / targets.pf_all", "targets")
    for key, bounds in _TARGET_RANGES.items():  # checked even where no constraint uses it
        _get_number(targets, key, "targets", **bounds)
    specs = [_build_constraint(con, i, names, targets) for i, con in enumerate(constraints)]

    solver = doc.get("solver", {})
    _require(isinstance(solver, dict), "'solver' must be an object", "solver")
    _known_fields(solver, {"proportional_t"}, "solver")
    proportional_t = None
    if "proportional_t" in solver:
        proportional_t = _get_array(solver["proportional_t"], (len(design_names),),
                                    "solver.proportional_t")
        _require(np.all(proportional_t > 0.0), "every entry must be > 0",
                 "solver.proportional_t")

    doe = doc.get("doe", {})
    _require(isinstance(doe, dict), "'doe' must be an object", "doe")
    _known_fields(doe, {"scheme", "halfwidth_overrides", "c_r_design", "c_r_parameter"}, "doe")
    scheme = doe.get("scheme")
    if "scheme" in doe:
        _require(scheme in _SCHEMES, f"doe scheme must be one of {sorted(_SCHEMES)}",
                 "doe.scheme")
        scheme = Scheme(scheme)
    overrides = doe.get("halfwidth_overrides", {})
    _require(isinstance(overrides, dict), "halfwidth_overrides must be an object",
             "doe.halfwidth_overrides")
    halfwidths = {}
    for key in overrides:
        _require(key in names, f"unknown variable {key!r}",
                 f"doe.halfwidth_overrides.{key}")
        halfwidths[key] = _get_number(overrides, key, "doe.halfwidth_overrides", above=0.0)
    shared = doc.get("shared_evaluations", False)
    _require(isinstance(shared, bool), "'shared_evaluations' must be true or false",
             "shared_evaluations")

    return RbdoProblem(
        variables=variables,
        objective=objective,
        constraints=specs,
        corr=corr,
        proportional_t=proportional_t,
        shared_evaluations=shared,
        doe_scheme=scheme,
        doe_halfwidth_overrides=halfwidths,
        doe_c_r_design=_get_number(doe, "c_r_design", "doe", above=0.0),
        doe_c_r_parameter=_get_number(doe, "c_r_parameter", "doe", above=0.0),
    )


def _json_beta(pf: float):
    """beta = -Phi^{-1}(pf), or None (JSON null) where pf = 0 or 1 makes it infinite."""
    beta = beta_generalized(pf)
    return beta if math.isfinite(beta) else None


def mc_estimate_to_dict(est: McEstimate) -> dict:
    return {
        "pf": est.pf_hat,
        "ci95_halfwidth": est.ci95_halfwidth,
        "beta_mc": _json_beta(est.pf_hat),
        "n": est.n,
        "seed": est.seed,
    }


def result_to_dict(res: RbdoResult, wall_time: float = None) -> dict:
    """Serializable report of a solver run (schema documented in README)."""
    out = {
        "method": res.method,
        "success": res.success,
        "message": res.message,
        "mu_opt": np.asarray(res.mu_opt, dtype=float).tolist(),
        "objective": res.objective_value,
        "pf_closed_form": [float(p) for p in res.pf_closed_form],
        "beta_closed_form": [_json_beta(float(p)) for p in res.pf_closed_form],
        "counters": {
            "deterministic_g_evals": res.counters.deterministic_g_evals,
            "gstar_evals": res.counters.gstar_evals,
            "objective_evals": res.counters.objective_evals,
        },
        "doe_evals": res.doe_evals,
    }
    if res.mu_det is not None:
        out["mu_det"] = np.asarray(res.mu_det, dtype=float).tolist()
    if res.pf_mc is not None:
        out["pf_mc"] = [mc_estimate_to_dict(e) for e in res.pf_mc]
    if wall_time is not None:
        out["wall_time_s"] = wall_time
    return out


def save_result(res: RbdoResult, path, wall_time: float = None):
    # RFC 8259 has no Infinity or NaN: a non-finite number raises before the file opens
    text = json.dumps(result_to_dict(res, wall_time=wall_time), indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def trace_to_csv(trace, path):
    """Write a solver trace as CSV: iteration, mu components, objective, min g*."""
    with open(path, "w") as fh:
        if trace:
            ncomp = len(trace[0][1])
            cols = ["iteration"] + [f"mu{i+1}" for i in range(ncomp)]
            fh.write(",".join(cols + ["objective", "min_gstar"]) + "\n")
        for it, mu, obj, gmin in trace:
            row = [str(it)] + [repr(float(m)) for m in mu] + [repr(obj), repr(gmin)]
            fh.write(",".join(row) + "\n")
