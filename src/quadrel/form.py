"""First- and second-order reliability methods.

Most-probable-point search: in closed form for a quadratic that is exact in
standard-normal space, otherwise via damped SQP steps (with an explicit
quadratic's exact Hessian, or a secant estimate; the Hasofer-Lind-Rackwitz-
Fiessler step where neither allows one) with a constrained-minimization
fallback; and the Breitung curvature correction evaluated on a quadratic limit
state at the MPP.
Also the one per-row evaluation memo, shared by the solver and the MPP search,
and the one finite-difference helper, which evaluates its stencil as a stack.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import BreitungSingularityError, ConvergenceError, DomainError
from .quadratic import SIGN_ZERO_TOL, QuadraticForm
from .variables import std_normal

# HLRF convergence: |g| and the MPP's tangential part (relative), and the step limit.
MPP_TOL = 1e-8
MPP_OPT_TOL = 1e-6
MPP_MAX_ITER = 200
FD_REL_STEP = 1e-6  # fd_gradient's step, relative to max(1, |x_i|)
SR1_SKIP = 1e-8  # the SR1 update is skipped where |v . s| <= SR1_SKIP ||v|| ||s||


def once_per_row(fn):
    """``fn`` of a stack (m, n) run once per distinct row: the memo of a stack
    sends its rows not seen before to ``fn`` in one call, each once and in
    order, and returns the list of results at the stack's rows; of one point
    (n,), its result.  ``.values`` maps each row's bytes to its result."""
    values = {}

    def memo(points):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:  # a stack of one, without the key lists: most calls are one point
            key = points.tobytes()
            if key not in values:
                values[key] = fn(points[None])[0]
            return values[key]
        keys = [row.tobytes() for row in points]
        new = {key: row for key, row in zip(keys, points) if key not in values}
        if len(new) == len(keys):  # all rows new and distinct: the stack as it is
            values.update(zip(keys, fn(points)))
        elif new:
            values.update(zip(new, fn(np.stack(list(new.values())))))
        return [values[key] for key in keys]

    memo.values = values
    return memo


def _g_in_standard_space(g, to_z):
    """Wrap g(z) as g_N(z_N) through the exact marginal transform ``to_z``: one
    point (n,) to a float, or a stack (m, n) to its values in one call of g."""
    def g_n(z_n):
        out = np.asarray(g(to_z(np.atleast_2d(z_n))), dtype=float)
        return out if np.ndim(z_n) == 2 else float(out[0])

    return g_n


def per_point(f):
    """``f`` of one point lifted to a stack of points: the list of its values at the rows."""
    return lambda points: [f(x) for x in points]


def fd_gradient(f, x, rel_step=FD_REL_STEP):
    """Central-difference gradient (n,) of a scalar ``f`` at ``x``, or the
    Jacobian (m, n) of an ``f`` returning an (m,) vector.

    ``f`` takes the whole stencil in one call: the stack (2n, n) of
    x + h_i e_i, x - h_i e_i for i = 1..n, in that order, and returns one
    value (or row) per point.  Wrap an ``f`` of one point in ``per_point``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    stencil = np.empty((2 * n, n))
    stencil[:] = x
    flat = stencil.reshape(-1)  # entry (2i, i) of the stencil, and (2i + 1, i) n further on
    flat[::2 * n + 1] = x + h
    flat[n::2 * n + 1] = x - h
    values = np.asarray(f(stencil))
    return (values[0::2] - values[1::2]).T / (2.0 * h)


def _sqp_step(u, gval, grad, h_u):
    """The SQP iterate u + d for min ||u||^2 / 2 subject to G(u) = 0 (Liu & Der
    Kiureghian 1991), or None where its Hessian is not positive definite.

    B = I + lambda H_u is the Lagrangian Hessian, with the multiplier
    lambda = -(u . grad) / ||grad||^2 of the least-squares stationarity
    u + lambda grad = 0; d = -B^-1 (u + nu grad) with nu such that
    G + grad . d = 0.  With B = I (lambda = 0, at u = 0) it is the HLRF iterate.
    """
    b = np.eye(u.size) - (u @ grad) / (grad @ grad) * h_u
    try:
        np.linalg.cholesky(b)  # raises unless B is positive definite
    except np.linalg.LinAlgError:
        return None
    b_u, b_grad = np.linalg.solve(b, np.stack((u, grad), axis=1)).T
    nu = (gval - grad @ b_u) / (grad @ b_grad)
    return u - b_u - nu * b_grad


def _sr1_update(h, s, r):
    """The symmetric rank-one secant update of ``h`` in place, so that h s = r
    (s the step, r the gradient's change over it); skipped where the update's
    denominator is within 1e-8 of orthogonal (Nocedal & Wright, sec. 6.2)."""
    v = r - h @ s
    vs = v @ s
    if abs(vs) > SR1_SKIP * math.sqrt((v @ v) * (s @ s)):
        h += np.outer(v, v / vs)


def form_mpp(g, to_z, gradient=None, hessian=None):
    """Find the most probable point of Prob[g(z) < 0].

    ``to_z`` is the design point's ``montecarlo.marginal_map``.  Returns
    (beta_hl, u*, grad): beta_hl = +/-||u*|| signed as g at the means
    (negative where they fail), u* the MPP in standard-normal space and grad
    the limit state's standard-space gradient there.  The search runs a
    damped SQP iteration (``_sqp_step``, which falls back to the HLRF iterate)
    in uncorrelated standard-normal space and, on stall, one SLSQP run of
    min ||u|| s.t. g = 0 from where it stopped.  It calls ``g`` once per stack
    of distinct original-space rows it has not seen (``once_per_row``).  Each
    gradient is ``fd_gradient`` over one call on its stencil or, given
    ``gradient`` (z -> dg/dz at one original-space point (n,)), exact through
    the marginal map's chain rule.  The step's Hessian H_u is, given
    ``hessian`` (the constant d^2g/dz^2 (n, n) of an explicit quadratic),
    exact through the second-order chain rule; otherwise it is a symmetric
    rank-one (SR1) secant estimate, started at 0 (so the first step is HLRF)
    and updated from consecutive iterates' gradients, at no extra call.
    """
    g_n = _g_in_standard_space(once_per_row(g), to_z)

    def derivatives_at(u):
        """The gradient of g_N at u, and its Hessian given ``hessian`` (else None)."""
        if gradient is None:
            return fd_gradient(g_n, u), None
        z = to_z(u[None, :])[0]
        grad_z = gradient(z)
        h_u = None if hessian is None else to_z.hessian_chain_rule(z, grad_z, hessian)
        return to_z.chain_rule(z, grad_z), h_u

    z = np.zeros(to_z.n)
    gval = g0 = g_n(z)
    scale = max(abs(g0), 1.0)
    secant = np.zeros((z.size, z.size)) if hessian is None else None
    trace = []
    converged = False
    for it in range(MPP_MAX_ITER):
        grad, h_u = derivatives_at(z)
        gnorm = math.sqrt(grad @ grad)
        znorm = math.sqrt(z @ z)
        trace.append((it, znorm, float(gval)))
        if gnorm == 0.0:
            break
        alpha = grad / gnorm
        tangential = z - (z @ alpha) * alpha
        converged = (abs(gval) <= MPP_TOL * scale
                     and math.sqrt(tangential @ tangential) <= MPP_OPT_TOL * max(1.0, znorm))
        if converged:
            break
        if secant is not None:
            if it > 0:
                _sr1_update(secant, z - z_prev, grad - grad_prev)
            h_u, z_prev, grad_prev = secant, z, grad
        z_new = None if h_u is None else _sqp_step(z, gval, grad, h_u)
        if z_new is None:
            z_new = (grad @ z - gval) / gnorm * alpha
        d = z_new - z
        # merit line search: m(z) = 0.5||z||^2 + c_m |g(z)|
        c_m = 2.0 * math.sqrt(z_new @ z_new) / gnorm + 10.0
        m0 = 0.5 * z @ z + c_m * abs(gval)
        step = 1.0
        for _ in range(8):
            z_try = z + step * d
            g_try = g_n(z_try)
            if 0.5 * z_try @ z_try + c_m * abs(g_try) < m0:
                break
            step *= 0.5
        else:
            break  # stalled; switch to the fallback solver
        z, gval = z_try, g_try

    if not converged:  # minimize ||z||^2 subject to g_N = 0 from where the search stopped
        res = minimize(lambda u: u @ u, z, jac=lambda u: 2.0 * u, method="SLSQP",
                       constraints=[{"type": "eq", "fun": lambda u: g_n(u) / scale}],
                       options={"maxiter": 300, "ftol": 1e-12})
        if not res.success or abs(g_n(res.x)) > 1e-6 * scale:
            raise ConvergenceError("MPP search did not converge", trace=trace)
        z = res.x
        grad = derivatives_at(z)[0]
    return math.copysign(math.sqrt(z @ z), g0), z, grad


def quadratic_mpp(g, to_z, qn: QuadraticForm, gradient):
    """``form_mpp``'s (beta_hl, u*, grad) in closed form, for an explicit
    quadratic g whose standard-normal form ``qn`` is exact (every variable
    normal or deterministic): Q_N(u) = g(to_z(u)).  Where Q_N keeps the sign
    of c' = Q_N(0) everywhere it returns (+/-inf, None, None), signed as c'.

    min ||u|| subject to Q_N(u) = 0 (Moré 1993): in the eigenbasis
    A' = P diag(gamma) P', kbar = P'k', y_i = -lambda kbar_i / (1 + 2 lambda gamma_i),
    with lambda the root of phi(lambda) = Q_N(y(lambda))
    = c' - sum_i kbar_i^2 lambda (1 + lambda gamma_i) / (1 + 2 lambda gamma_i)^2
    where I + 2 lambda Gamma is positive definite.  phi' < 0 there, so the
    root is unique and has the sign of c' (``_secular_root`` solves for
    sign(c') Q_N).  A kbar within SIGN_ZERO_TOL of 0 (relative) counts as 0,
    and so does an eigenvalue within it (relative, as ``eigenbasis`` takes
    them) where its kbar is 0: such a direction, a deterministic column's
    say, drops out.  One whose kbar is not 0 keeps its eigenvalue, since
    lambda gamma_i need not be small at the root.  It calls ``g`` once, at u*, to
    check |g| <= MPP_TOL max(1, |c'|) (a miss raises ``ConvergenceError``), and
    ``gradient`` once there.
    """
    c = qn.c
    sign = math.copysign(1.0, c)
    gamma, p = np.linalg.eigh(sign * qn.a)
    kbar = p.T @ (sign * qn.k)
    tol = SIGN_ZERO_TOL * max(1.0, math.sqrt(np.sum(qn.a * qn.a)))
    kbar[np.abs(kbar) <= SIGN_ZERO_TOL * max(1.0, math.sqrt(kbar @ kbar))] = 0.0
    gamma[(np.abs(gamma) <= tol) & (kbar == 0.0)] = 0.0
    if c == 0.0:
        u = np.zeros(qn.dim)
    else:
        y = _secular_root(gamma, kbar, abs(c), tol)
        if y is None:
            return math.copysign(math.inf, c), None, None
        u = p @ y
    z = to_z(u[None, :])
    gval = float(np.asarray(g(z))[0])
    if abs(gval) > MPP_TOL * max(1.0, abs(c)):
        raise ConvergenceError(f"closed-form MPP misses the limit state (g = {gval:.3g})",
                               trace=[(0, math.sqrt(u @ u), gval)])
    return math.copysign(math.sqrt(u @ u), c), u, to_z.chain_rule(z[0], gradient(z[0]))


def _secular_root(gamma, kbar, c, tol):
    """The minimizer y of ||y|| on sum_i gamma_i y_i^2 + kbar_i y_i + c = 0, for
    c > 0, or None where that sum is >= 0 everywhere.

    Every term of c - phi is >= 0 for lambda in (0, lambda_max), so a bound
    on one term's growth brackets the root in a finite interval.  It is found
    in lambda, except past lambda_max / 2 below a pole lambda_max =
    -1 / (2 gamma_0), gamma_0 the least gamma, where it is found in
    w = d_0 = 1 + 2 lambda gamma_0, so that d_0 keeps its precision there.
    Where phi stays >= 0 up to the pole and
    kbar is 0 on gamma_0's eigenvectors (the hard case), lambda = lambda_max
    and y adds the step along the first of them that brings the sum to 0.
    Eigenvalues within ``tol`` of gamma_0 count as equal to it.
    """
    active = kbar != 0.0

    def at_lambda(lam):
        return lam, 1.0 + 2.0 * lam * gamma

    at, lo = at_lambda, 0.0
    gamma_0 = gamma.min()
    if gamma_0 < 0.0:
        lam_max = -0.5 / gamma_0
        gamma = np.where(gamma <= gamma_0 + tol, gamma_0, gamma)
        ratio = gamma / gamma_0

        def at_w(w):
            return lam_max * (1.0 - w), (1.0 - ratio) + w * ratio  # d_0 = w exactly

        binding = ratio == 1.0
        k_bind = kbar[binding] @ kbar[binding]
        if k_bind > 0.0:  # phi -> -inf at the pole; the binding terms alone reach 2c at w_lo
            w_lo = math.sqrt(k_bind * lam_max / (4.0 * c + k_bind * lam_max))
        else:
            w_lo = 0.0
            lam, d = at_w(0.0)
            phi = c - _secular_terms(lam, d, kbar, active)
            if phi >= 0.0:  # the hard case: lambda at the pole, the rest along binding[0]
                y = _secular_point(lam, d, kbar, active)
                y[np.flatnonzero(binding)[0]] = math.sqrt(2.0 * lam_max * phi)
                return y
        if c > _secular_terms(*at_w(0.5), kbar, active):  # the root lies past lambda_max / 2
            at, lo, hi = at_w, w_lo, 0.5
        else:
            hi = 0.5 * lam_max
    else:
        flat = gamma == 0.0
        k_flat = kbar[flat] @ kbar[flat]
        if k_flat > 0.0:  # phi <= c - lambda k_flat
            hi = 2.0 * c / k_flat
        else:
            curved = active & ~flat
            reach = np.sum(kbar[curved] ** 2 / (4.0 * gamma[curved]))  # c - phi(inf)
            if reach <= c:
                return None
            # c - phi(lambda) = reach - sum kbar^2 / (4 gamma d^2) >= reach - reach / d_min^2
            d_min = math.sqrt(2.0 * reach / (reach - c))
            hi = (d_min - 1.0) / (2.0 * np.min(gamma[curved]))
    root = brentq(lambda v: c - _secular_terms(*at(v), kbar, active), lo, hi,
                  xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    return _secular_point(*at(root), kbar, active)


def _secular_point(lam, d, kbar, active):
    """y_i = -lambda kbar_i / d_i, and 0 where kbar_i is."""
    return np.where(active, -lam * kbar / np.where(active, d, 1.0), 0.0)


def _secular_terms(lam, d, kbar, active):
    """sum_i kbar_i^2 lambda (1 + lambda gamma_i) / d_i^2 over the active i,
    with 1 + lambda gamma_i = (1 + d_i) / 2."""
    k2, d = kbar[active] ** 2, d[active]
    return lam * np.sum(k2 * (1.0 + d) / (2.0 * d * d))


def beta_scale(beta: float, u, grad) -> float:
    """d beta / d G at a known MPP u* with standard-space gradient ``grad``.

    Hohenbichler & Rackwitz (1986): a parameter theta of the transform
    moves beta_HL by d beta / d theta = beta_scale * dG/dtheta, with
    dG/dtheta taken at fixed u*; the scale is -(u* . grad) / (beta ||grad||^2),
    and 1 / ||grad|| (the signed form) at beta = 0.
    """
    grad_sq = grad @ grad
    return -(u @ grad) / (beta * grad_sq) if beta != 0.0 else 1.0 / np.sqrt(grad_sq)


def _tangent_basis(alpha: np.ndarray) -> np.ndarray:
    """Orthonormal matrix whose last column is ``alpha`` (Householder)."""
    n = alpha.size
    e = np.zeros(n)
    e[-1] = 1.0
    v = alpha - e
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        return np.eye(n)
    v = v / nv
    return np.eye(n) - 2.0 * np.outer(v, v)


def sorm_breitung(qn: QuadraticForm, beta_hl: float, mpp_zN) -> float:
    """Breitung's curvature-corrected failure probability for a quadratic
    limit state at a known MPP.

    Curvatures rho_i are the eigenvalues of the tangent-space block of
    the Hessian divided by the signed radial gradient component, so that
    a failure surface curving away from the origin shrinks the estimate.
    """
    if beta_hl <= 0.0:
        raise DomainError(f"sorm_breitung requires beta_hl > 0, got {beta_hl}")
    z = np.asarray(mpp_zN, dtype=float)
    alpha = z / beta_hl
    grad = qn.a @ z * 2.0 + qn.k
    g_alpha = float(grad @ alpha)
    if g_alpha == 0.0:
        raise DomainError("gradient orthogonal to the MPP direction")
    r = _tangent_basis(alpha)
    hess = 2.0 * qn.a
    block = (r.T @ hess @ r)[:-1, :-1] / g_alpha
    rho = np.linalg.eigvalsh(block)
    factors = 1.0 - beta_hl * rho
    if np.any(factors <= 0.0):
        raise BreitungSingularityError(
            f"1 - beta*rho non-positive (min {factors.min():.3e}); "
            "Breitung's formula is singular here"
        )
    _, cdf = std_normal(-beta_hl)
    return float(cdf * np.prod(factors**-0.5))
