"""Quadratic-form algebra.

Correlation eigen-decomposition, the equivalent-normal map at the means
and the exact affine transformation of stacked quadratic limit states into
uncorrelated standard-normal space, plus the eigenbasis (gamma, P) of a
stack of transformed forms with its zero tolerance and epsilon lift, and
the moment sums the closed-form kernels in ``pf`` take on their own rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotACorrelationMatrixError
from .montecarlo import marginal_table
from .variables import RandomVariable

# Magnitude that structurally zero eigenvalues of a one-sign form are lifted to.
LIFT_EPS = 1e-7

# Eigenvalues below this (relative) threshold count as structurally zero
# when classifying the sign pattern of the transformed quadratic.
SIGN_ZERO_TOL = 1e-12

# Elements of ``monomial_product``'s monomial rows per block of samples: a
# block's rows stay in cache between their build and their product, and a
# call holds one block, not the rows of its whole batch.
MONOMIAL_BLOCK = 65_536


def n_quadratic_coefficients(n: int) -> int:
    """Coefficients of a full quadratic over n variables: c, k and the upper triangle of A."""
    return (n + 1) * (n + 2) // 2


@dataclass(frozen=True)
class QuadraticForm:
    """Q(z) = z'Az + k'z + c with A symmetrized on construction."""

    a: np.ndarray
    k: np.ndarray
    c: float

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError(f"A must be square, got shape {a.shape}")
        if k.shape != (a.shape[0],):
            raise DomainError(f"k has shape {k.shape}, expected ({a.shape[0]},)")
        object.__setattr__(self, "a", 0.5 * (a + a.T))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", float(self.c))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __call__(self, z):
        """Evaluate at one point (n,) or a batch (m, n)."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            return float(z @ self.a @ z + self.k @ z + self.c)
        return np.einsum("ij,ij->i", z @ self.a, z) + z @ self.k + self.c

    def gradient(self, z):
        z = np.asarray(z, dtype=float)
        return 2.0 * self.a @ z + self.k

    @classmethod
    def from_flat(cls, coeffs, dim: int) -> "QuadraticForm":
        coeffs = np.asarray(coeffs, dtype=float)
        expected = n_quadratic_coefficients(dim)
        if coeffs.shape != (expected,):
            raise DomainError(
                f"flat quadratic for dim {dim} needs {expected} coefficients, got {coeffs.shape}"
            )
        c = coeffs[0]
        k = coeffs[1 : 1 + dim]
        a = np.zeros((dim, dim))
        a[np.triu_indices(dim)] = coeffs[1 + dim :]
        # mirror the strict upper triangle; diagonal stays as given
        a = a + np.triu(a, 1).T
        return cls(a=a, k=k, c=c)


def monomial_product(forms: list[QuadraticForm]):
    """The evaluator ``values = evaluate(z)`` of a stack of k quadratics over the
    same n variables: (k, m) values at a batch z (m, n), as one product.

    A quadratic is linear in its monomials:
    Q_i(z) = sum_p w_ip z_{I_p} z_{J_p} + k_i . z + c_i, over the upper-triangle
    pairs (I_p, J_p) that any form of the stack uses, with w_ip = a_ij on the
    diagonal and 2 a_ij off it (A is symmetric).  A call builds the monomial
    rows F of its batch -- the products, z itself and a row of ones, shape
    (p + n + 1, m) -- once, a block of whole samples at a time, with the p
    products as one gather of z's rows I and J and one multiply, and writes
    ``coef @ F`` of each block into the (k, m) result.  Row i agrees with
    ``forms[i](z)`` to roundoff, not bit for bit: the sums run in another order.

    The rows cost p + n + 1 floats per sample, against n for a form's own
    (m, n) x (n, n) product, so a stack of a few dense forms in many
    variables runs slower this way than form by form.
    """
    n = forms[0].dim
    if any(q.dim != n for q in forms):
        raise DomainError(f"a stack of quadratics needs one dim, got {[q.dim for q in forms]}")
    iu, ju = np.triu_indices(n)
    upper = np.stack([q.a[iu, ju] for q in forms])
    used = np.flatnonzero(np.any(upper != 0.0, axis=0))
    i_used, j_used = iu[used], ju[used]
    p = len(used)
    coef = np.hstack([upper[:, used] * np.where(i_used == j_used, 1.0, 2.0),
                      np.stack([q.k for q in forms]), [[q.c] for q in forms]])

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != n:
            raise DomainError(f"a batch of shape {z.shape} needs {n} columns, one per variable")
        m = len(z)
        rows = max(1, min(m, MONOMIAL_BLOCK // (p + n + 1)))
        values = np.empty((len(forms), m))
        f = np.empty((p + n + 1, rows))
        f[-1] = 1.0
        right = np.empty((p, rows))
        for start in range(0, m, rows):
            r = min(rows, m - start)
            block = f[:, :r]
            zt = block[p:p + n]
            zt[...] = z[start:start + r].T
            # take with out and mode="clip" (the indices are in range) writes
            # in place; z[I] would allocate and gather more slowly
            np.take(zt, i_used, axis=0, out=block[:p], mode="clip")
            np.take(zt, j_used, axis=0, out=right[:, :r], mode="clip")
            np.multiply(block[:p], right[:, :r], out=block[:p])
            np.matmul(coef, block, out=values[:, start:start + r])
        return values

    return evaluate


@dataclass(frozen=True)
class CorrelationModel:
    """A correlation matrix C = L L' by its eigen-decomposition, L = T diag(d):
    T the eigenvectors and d the square roots of the eigenvalues of C."""

    l: np.ndarray  # the mixing matrix, mapping uncorrelated scores to correlated ones


def correlation_decompose(c) -> CorrelationModel:
    """Eigen-decompose a correlation matrix into (T, D) with (TD)(TD)' = C."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise NotACorrelationMatrixError(f"correlation matrix must be square, got {c.shape}")
    if not np.allclose(c, c.T, atol=1e-10):
        raise NotACorrelationMatrixError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-10):
        raise NotACorrelationMatrixError("correlation matrix must have unit diagonal")
    c = 0.5 * (c + c.T)
    lam, t = np.linalg.eigh(c)
    if np.any(lam < -1e-10):
        raise NotACorrelationMatrixError(
            f"correlation matrix is not positive semidefinite (min eigenvalue {lam.min():.3e})"
        )
    lam = np.clip(lam, 0.0, None)
    return CorrelationModel(l=t * np.sqrt(lam))


def standard_normal_map(
    variables: list[RandomVariable], corr: CorrelationModel | None
) -> tuple[np.ndarray, np.ndarray]:
    """The affine map (S T D, mu_eq) from uncorrelated standard normals.

    It is the tangent of the marginal map (``marginal_table``) at the draw
    that maps to the means: equivalent normalization at each variable's own
    mean.  Normal and deterministic entries keep (mean, std) and (value, 0);
    a lognormal's mean sits at y = zeta/2, so sigma_eq = zeta * mean and
    mu_eq = mean - (zeta/2) * sigma_eq.  The map depends only on the design
    point, so every constraint at that point shares it.
    """
    mu_eq, sigma_eq, _, lognormal = marginal_table(variables)
    for i in lognormal:  # the table holds (lambda, zeta) here
        mean, zeta = variables[i].mean, sigma_eq[i]
        sigma_eq[i] = zeta * mean
        mu_eq[i] = mean - 0.5 * zeta * sigma_eq[i]
    if corr is None:  # sigma_eq times an identity, bit for bit
        return np.diag(sigma_eq), mu_eq
    return sigma_eq[:, None] * corr.l, mu_eq


def standard_normal_a(a, m):
    """A' = M'AM of forms a (..., n, n) through maps m (..., n, n), broadcast,
    symmetrized as ``QuadraticForm`` does: the part of ``standard_normal_forms``
    that depends on the map's M alone."""
    a_n = np.matmul(np.matmul(np.swapaxes(m, -1, -2), a), m)
    return 0.5 * (a_n + np.swapaxes(a_n, -1, -2))


def standard_normal_kc(a, k, c, m, mu_eq):
    """(k', c') with k' = M'(k + 2A mu_eq) and c' = c + mu_eq'A mu_eq + k'mu_eq:
    the part of ``standard_normal_forms`` that moves with mu_eq."""
    k_n = np.matmul(np.swapaxes(m, -1, -2),
                    (k + np.matmul(2.0 * a, mu_eq[..., None])[..., 0])[..., None])[..., 0]
    c_n = c + row_dot(np.matmul(mu_eq[..., None, :], a)[..., 0, :], mu_eq) + row_dot(k, mu_eq)
    return k_n, c_n


def standard_normal_forms(a, k, c, m, mu_eq):
    """Forms z'Az + k'z + c through maps z = M z_N + mu_eq: (A', k', c'), from
    ``standard_normal_a`` and ``standard_normal_kc``.  Forms a (..., n, n),
    k (..., n), c (...) broadcast against maps m (..., n, n), mu_eq (..., n)."""
    return (standard_normal_a(a, m), *standard_normal_kc(a, k, c, m, mu_eq))


def to_standard_normal(q: QuadraticForm, snmap: tuple[np.ndarray, np.ndarray]) -> QuadraticForm:
    """Q through the map ``snmap = (S T D, mu_eq)`` of ``standard_normal_map``:
    ``standard_normal_forms`` on a stack of one, Q_N(z_N) = Q(S T D z_N + mu_eq)."""
    m, mu_eq = snmap
    if m.shape[0] != q.dim:
        raise DomainError(f"quadratic has dim {q.dim} but the map has {m.shape[0]} variables")
    a_n, k_n, c_n = standard_normal_forms(q.a, q.k, q.c, m[None], mu_eq[None])
    return QuadraticForm(a=a_n[0], k=k_n[0], c=c_n[0])


def moment_sums(gamma: np.ndarray, kbar: np.ndarray) -> tuple:
    """m_r = sum_j (gamma_j^r + (r/4) gamma_j^{r-2} kbar_j^2), r = 1..4.

    ``gamma`` and ``kbar`` are (m, n): one set of sums per form.  For r = 1 a zero
    eigenvalue with a nonzero kbar component yields an infinite term;
    that combination only occurs in the mixed-sign branch, which never
    consumes m_1.
    """
    g2 = gamma * gamma
    k2 = kbar * kbar
    with np.errstate(divide="ignore", invalid="ignore"):
        m1_terms = np.where(k2 == 0.0, gamma, gamma + 0.25 / gamma * k2)
    total = np.add.reduce
    return (total(m1_terms, -1), total(g2 + 0.5 * k2, -1),
            total(g2 * gamma + 0.75 * gamma * k2, -1), total(g2 * g2 + g2 * k2, -1))


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i . y_i over the last axis, one BLAS dot per row.

    A 1-D ``x @ y`` is the same dot, so a row of a stack gets exactly the
    value its form gets on its own.
    """
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def eigenbasis(a: np.ndarray):
    """Eigenvalues and eigenvectors (gamma, P) of a stack (m, n, n) of symmetric A'.

    Eigenvalues with |gamma| <= SIGN_ZERO_TOL * max(1, ||A'||_F) become 0,
    so structurally singular forms (deterministic rows) route to the
    intended branch.  In a form whose other eigenvalues share one sign
    they are then lifted to that sign's +/-LIFT_EPS; a mixed-sign form
    keeps its zeros.
    """
    gamma, p = np.linalg.eigh(a)
    flat = a.reshape(a.shape[:-2] + (-1,))
    tol = (SIGN_ZERO_TOL * np.maximum(1.0, np.sqrt(row_dot(flat, flat))))[..., None]
    pos = gamma > tol
    neg = gamma < -tol
    has_pos = pos.any(axis=-1, keepdims=True)
    has_neg = neg.any(axis=-1, keepdims=True)
    lift = np.where(has_pos & has_neg, 0.0,
                    np.where(has_pos, LIFT_EPS, np.where(has_neg, -LIFT_EPS, 0.0)))
    return np.where(pos | neg, gamma, lift), p


def spectral(qn: QuadraticForm):
    """``eigenbasis`` of one standard-normal quadratic, as a stack of one."""
    return eigenbasis(qn.a[None])
