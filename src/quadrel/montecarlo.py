"""Monte Carlo probability-of-failure estimation.

Samples are drawn as iid standard normals, mixed through the correlation
eigen-decomposition and mapped through the exact marginal inverse CDFs,
so the estimator is a valid independent oracle for the closed forms
(which use only this map's tangent at the means).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .variables import Kind, RandomVariable

DEFAULT_CHUNK = 16_384

# The fewest samples ``mc_pf`` takes.
MIN_SAMPLES = 1_000

# ``gradient_in_z`` counts as 0 a correlation eigenvalue, or a marginal slope
# (std or zeta), at or below RANK_TOL times the largest, and a column's squared
# reach into the correlation's null space at or below RANK_TOL.
RANK_TOL = 1e-12

# Elements per block of the marginal map's affine step.  A block is whole
# rows against a (shift, scale) tiled to the same shape, so numpy's inner
# loop runs over the block, not over one row, whatever the number of variables.
BLOCK_SIZE = 16_384


@dataclass(frozen=True)
class McEstimate:
    pf_hat: float
    ci95_halfwidth: float
    n: int
    seed: int


def marginal_table(variables: list[RandomVariable]):
    """Each variable's (shift, scale), the deterministic (index, value) pairs
    and the lognormal indices: a variable is shift + scale * y of its mixed
    standard-normal draw y, with (mean, std) for a normal, (lambda, zeta) then
    exp for a lognormal and (value, 0) for a deterministic one."""
    n = len(variables)
    shift = np.empty(n)
    scale = np.empty(n)
    fixed, lognormal = [], []
    for i, v in enumerate(variables):
        if v.is_deterministic:
            shift[i], scale[i] = v.mean, 0.0
            fixed.append((i, v.mean))
        elif v.kind is Kind.NORMAL:
            shift[i], scale[i] = v.mean, v.std
        elif v.kind is Kind.LOGNORMAL:
            shift[i], scale[i] = v.log_params()
            lognormal.append(i)
        else:
            raise DomainError(f"{v.name}: cannot sample kind {v.kind}")
    return shift, scale, fixed, lognormal


def marginal_map(variables: list[RandomVariable], corr: CorrelationModel | None):
    """The map ``apply(z_n, out=None)`` from standard normal draws (m, n) to
    the original variable space, built once for repeated use.

    Each variable maps through its ``marginal_table`` entry, and a
    deterministic column is then set to its value.  The result is written to
    ``out`` when given (which may be ``z_n`` itself), else to a new array; with
    a correlation, the mixed array is transformed in place.  ``apply.n`` is n,
    ``apply.chain_rule`` takes a gradient at a mapped point back through it,
    ``apply.gradient_in_z`` inverts that where it can, and ``apply.dz_dmu`` is
    the map's derivative in each variable's own mean.  Both build what they
    need when called: Monte Carlo builds a map per chunk and calls neither.
    """
    n = len(variables)
    shift, scale, fixed, lognormal = marginal_table(variables)
    mix = None if corr is None else corr.l.T
    block_rows = max(1, BLOCK_SIZE // max(n, 1))
    tiles = [shift[None, :], scale[None, :]]  # (rows, n) shift and scale, grown on demand

    def apply(z_n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        z_n = np.asarray(z_n, dtype=float)
        if z_n.ndim != 2 or z_n.shape[1] != n:
            raise DomainError(f"draws of shape {z_n.shape} need {n} columns, one per variable")
        if mix is not None:
            z_n = out = np.matmul(z_n, mix, out=out)
        elif out is None:
            out = np.empty(z_n.shape)
        m = z_n.shape[0]
        rows = max(1, min(m, block_rows))
        if len(tiles[0]) < rows:
            tiles[:] = [shift[None, :].repeat(rows, axis=0), scale[None, :].repeat(rows, axis=0)]
        shifts, scales = tiles
        for start in range(0, m, rows):
            block = out[start:start + rows]
            np.multiply(z_n[start:start + rows], scales[:len(block)], out=block)
            block += shifts[:len(block)]
        for i, value in fixed:
            out[:, i] = value
        for i in lognormal:  # exp on a contiguous copy, the loop a per-column map runs
            col = out[:, i].copy()
            out[:, i] = np.exp(col, out=col)
        return out

    def slope(z: np.ndarray) -> np.ndarray:
        """d = dz/dy at the mapped point ``z``: the std of a normal, zeta * z of a
        lognormal and 0 of a deterministic variable."""
        d = scale.copy()
        d[lognormal] *= z[lognormal]
        return d

    def chain_rule(z: np.ndarray, grad_z: np.ndarray) -> np.ndarray:
        """The standard-normal gradient L'(d * grad_z) of a function whose
        gradient at the mapped point ``z`` (n,) is ``grad_z``, with d = ``slope(z)``
        and L' = ``mix``.  It holds no reference to ``apply``: a cycle would
        keep each map's tiles until the garbage collector ran."""
        grad_y = slope(z) * grad_z
        return grad_y if mix is None else mix @ grad_y

    def hessian_chain_rule(z: np.ndarray, grad_z: np.ndarray, hess_z: np.ndarray) -> np.ndarray:
        """The standard-normal Hessian L'(D H_z D + diag(d2 * grad_z))L of a
        function with gradient ``grad_z`` and Hessian ``hess_z`` (n, n) at the
        mapped point ``z``: D = diag(``slope(z)``), and d2 = d^2z/dy^2 is
        zeta^2 * z of a lognormal and 0 otherwise.  Like ``chain_rule`` it
        holds no reference to ``apply``."""
        d = slope(z)
        h_y = d[:, None] * hess_z * d
        h_y[lognormal, lognormal] += scale[lognormal] * d[lognormal] * grad_z[lognormal]
        return h_y if mix is None else mix @ h_y @ mix.T

    def gradient_in_z(z: np.ndarray, grad_u: np.ndarray):
        """(grad_z, resolved): the gradient at the mapped point ``z`` (n,) of a
        function whose standard-normal gradient is ``grad_u``, ``chain_rule``
        inverted (grad_u = L'(d * grad_z)), on the columns ``resolved``, and 0
        on the others, which grad_u does not determine: a deterministic column
        (d = 0) and one that reaches into the null space of a singular
        correlation."""
        resolved = scale > RANK_TOL * scale.max(initial=0.0)
        if mix is None:
            w = grad_u
        else:  # C = L L' with L = T diag(s): L's column norms are s
            s2 = np.sum(corr.l * corr.l, axis=0)
            rank = s2 > RANK_TOL * s2.max()
            lead = corr.l[:, rank] / s2[rank]  # L^-T on range(C), as T diag(1/s)
            w = lead @ grad_u[rank]
            # 1 - sum_k T_jk^2 over the range is column j's reach into null(C)
            resolved &= 1.0 - np.sum(lead * corr.l[:, rank], axis=1) <= RANK_TOL
        return np.divide(w, slope(z), out=np.zeros(n), where=resolved), resolved

    def dz_dmu(u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """dz_j / d mean_j of the map at a fixed draw ``u`` (n,), with the std of
        each variable j t_j |mean_j| where t_j > 0, else constant.  With y = L u
        the correlated score: 1 for a normal or deterministic variable of
        constant std, 1 + t sign(mean) y under a proportional one; for a
        lognormal, z = exp(lambda + zeta y) gives z (d lambda/d mean +
        y d zeta/d mean), with v = std / mean and zeta^2 = log(1 + v^2), and
        z / mean under a proportional std (v constant)."""
        y = u if mix is None else mix.T @ u
        means = np.array([v.mean for v in variables])
        d = 1.0 + t * np.sign(means) * y
        if lognormal:
            mean, zeta, y_l = means[lognormal], scale[lognormal], y[lognormal]
            v2 = np.array([variables[i].std ** 2 for i in lognormal]) / (mean * mean)
            z = np.exp(shift[lognormal] + zeta * y_l)
            # mean (1 + v^2) times d lambda/d mean = 1 + 2 v^2, and times
            # d zeta/d mean = -v^2 / zeta (0 at zeta = 0)
            dzeta = np.divide(-v2, zeta, out=np.zeros(len(lognormal)), where=zeta != 0.0)
            constant = z * (1.0 + 2.0 * v2 + y_l * dzeta) / (mean * (1.0 + v2))
            d[lognormal] = np.where(t[lognormal] > 0.0, z / mean, constant)
        return d

    apply.n = n
    apply.chain_rule = chain_rule
    apply.gradient_in_z = gradient_in_z
    apply.dz_dmu = dz_dmu
    apply.hessian_chain_rule = hessian_chain_rule
    return apply


def transform_samples(z_n: np.ndarray, variables: list[RandomVariable],
                      corr: CorrelationModel | None, out: np.ndarray | None = None) -> np.ndarray:
    """Map standard normal draws (m, n) to the original variable space.

    The result is written to ``out`` when given (``out=z_n`` transforms in
    place); see ``marginal_map``.
    """
    return marginal_map(variables, corr)(z_n, out)


def _require_count(name: str, value, least: int):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"mc_pf requires an integer {name}, got {value!r}")
    if value < least:
        raise DomainError(f"mc_pf requires {name} >= {least}, got {value}")


def mc_pf(g, variables: list[RandomVariable], corr: CorrelationModel | None,
          n: int, seed: int) -> list[McEstimate]:
    """Estimate Prob[g_i(z) < 0] of k stacked limit states with ``n`` samples.

    ``g`` must accept an (m, nvar) array and return (k, m) values, k limit
    states on the same samples (one is a stack of one).  The k estimates each
    carry this call's ``seed``; failures are counted per row, so row i's
    estimate equals that of a call whose ``g`` returns row i alone.  Chunks
    of min(DEFAULT_CHUNK, n) rows are drawn, on the calling thread, into one
    buffer of that many rows x nvar floats, mapped there in place with
    ``transform_samples`` and evaluated with ``g``.  Consecutive draws from
    one generator concatenate, so the estimate depends on (seed, n) only,
    not on the chunk size, up to samples whose g lies within roundoff of 0:
    a quadratic's value at a sample may differ in the last bit with the
    number of rows evaluated alongside it (numpy's and BLAS's kernels depend
    on the shape), for ``QuadraticForm`` and ``monomial_product`` alike, so
    such a sample can be counted at one chunk size and not at another.
    """
    _require_count("n", n, MIN_SAMPLES)
    _require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    buffer = np.empty((min(DEFAULT_CHUNK, n), len(variables)))
    failures = 0
    for start in range(0, n, DEFAULT_CHUNK):
        z = rng.standard_normal(out=buffer[:min(DEFAULT_CHUNK, n - start)])
        z = transform_samples(z, variables, corr, out=z)
        failures += _count_failures(g(z), len(z))
    return [_estimate(int(k), n, seed) for k in failures]


def _count_failures(values, m: int):
    """Failures per row of one chunk's (k, m) limit-state values: a function,
    so that a chunk's values, k times its column, are freed before the next's."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != m:
        raise DomainError(f"g returned shape {values.shape} for {m} samples; mc_pf needs (k, {m})")
    return np.count_nonzero(values < 0.0, axis=1)


def _estimate(failures: int, n: int, seed: int) -> McEstimate:
    pf_hat = failures / n
    hw = 1.96 * np.sqrt(pf_hat * (1.0 - pf_hat) / n)
    return McEstimate(pf_hat=pf_hat, ci95_halfwidth=float(hw), n=n, seed=seed)
