"""Special functions and shifted-Jacobi-polynomial primitives on [0, 1].

Everything downstream (kernel construction, error calculus) is built on the
Gamma/Beta functions and on shifted Jacobi polynomials, i.e. polynomials
orthogonal on [0, 1] under the weight ``(1 - t)**mu * t**kappa`` with
``mu, kappa > -1``.

Kernel coefficients are generated exactly, as integer numerators over one
shared denominator, so that orthogonality-based cancellations hold
*exactly*.  Quantities that need no exact cancellation (the least polynomial
zero of the design surfaces and the Gauss-Jacobi rules of the continuous
variance) come from the float Jacobi matrix of the weight, broadcast over
arrays of exponents.
"""

from __future__ import annotations

import math

import numpy as np

__all__: list[str] = []


def _jacobi_numerators(degree: int, mu: int, kappa: int, den: int) -> list[int]:
    """Integer numerators of the shifted Jacobi coefficients, ascending in t.

    The exponents are ``mu/den`` and ``kappa/den``; coefficient j is the
    returned N_j over the common denominator ``den**degree * degree!``, with
    N_j = (-1)**(degree+j) C(degree, j) prod_{i=j+1..degree}(kappa + i*den)
    * prod_{l<j}(mu + kappa + (degree+1+l)*den).  This is the ratio
    recurrence c_{j+1}/c_j = (j-degree)(degree+mu+kappa+1+j) /
    ((kappa+1+j)(j+1)) with its (kappa+1+j) denominators telescoped away, so
    no step divides.
    """
    suffix = [1] * (degree + 1)  # prod_{i=j+1..degree}(kappa + i*den)
    for j in range(degree - 1, -1, -1):
        suffix[j] = suffix[j + 1] * (kappa + (j + 1) * den)
    out = []
    prefix = 1  # prod_{l<j}(mu + kappa + (degree+1+l)*den)
    for j in range(degree + 1):
        out.append((-1) ** (degree + j) * math.comb(degree, j) * suffix[j] * prefix)
        prefix *= mu + kappa + (degree + 1 + j) * den
    return out


def _lgamma(x) -> np.ndarray:
    """`math.lgamma` elementwise, in the shape of ``x``.

    A float gives a NumPy float, so that sums of such values still raise
    under `np.errstate` (a Python float's ``inf - inf`` is a silent nan).
    """
    if isinstance(x, float):
        return np.float64(math.lgamma(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _log_beta(a, b) -> np.ndarray:
    """log B(a, b) elementwise for a, b > 0 (NumPy has no log-Gamma)."""
    return _lgamma(a) + _lgamma(b) - _lgamma(a + b)


# exponents near the float range overflow the entries: an error, not inf or nan
@np.errstate(over="raise", invalid="raise", divide="raise")
def _jacobi_matrix(size: int, mu, kappa) -> np.ndarray:
    """Symmetric tridiagonal Jacobi matrix of the weight (1-t)**mu * t**kappa.

    Row k holds the recurrence t*p_k = sqrt(b_k)*p_{k-1} + a_k*p_k +
    sqrt(b_{k+1})*p_{k+1} of the orthonormal polynomials on [0, 1], so its
    eigenvalues are the zeros of the degree-``size`` polynomial and it yields
    the ``size``-point Gauss rule (Golub and Welsch, Math. Comp. 23, 1969).
    ``mu`` and ``kappa`` broadcast; the result has shape ``(..., size, size)``.
    """
    mu, kappa = np.asarray(mu, dtype=float)[..., None], np.asarray(kappa, dtype=float)[..., None]
    # in terms of mu + 1, kappa + 1 and r = mu + kappa + 2, which keep their
    # relative precision as the exponents approach -1; a_0 and b_1 have their
    # common factors cancelled, as the textbook forms are 0/0 at mu + kappa = 0
    # and at mu + kappa = -1
    m1, k1 = mu + 1, kappa + 1
    r = m1 + k1
    out = np.zeros(r.shape[:-1] + (size, size))
    flat = out.reshape(r.shape[:-1] + (size * size,))  # a view: row-major entries
    diag, off = flat[..., :: size + 1], flat[..., 1 :: size + 1]  # (k, k) and (k, k+1)
    # the entries in the order a_0, a_k, b_1, b_k, as the first to overflow
    # names the error; the a_k (k >= 1) exist from size 2 and the b_k (k >= 2)
    # from size 3, but the a_k's numerator and b_1 are evaluated at size 1
    # too, so that exponents past the float range raise at every size
    diag[..., :1] = k1 / r
    skew = (kappa - mu) * (r - 2)
    if size > 1:
        u = 2 * np.arange(size - 1) + r  # 2k + mu + kappa for k >= 1
        diag[..., 1:] = 0.5 + skew / (2 * u * (u + 2))
    off[..., :1] = m1 * k1 / (r**2 * (r + 1))
    if size > 2:
        k = np.arange(2, size)
        v = 2 * (k - 1) + r
        off[..., 1:] = k * (k - 1 + m1) * (k - 1 + k1) * (k - 2 + r) / (v**2 * (v + 1) * (v - 1))
    np.sqrt(off, out=off)
    flat[..., size :: size + 1] = off  # (k+1, k)
    return out


def _least_zero(degree: int, mu, kappa) -> np.ndarray:
    """Smallest zero of the degree-``degree`` polynomial, elementwise: the
    least eigenvalue of the Jacobi matrix, within a few units of 1e-16."""
    return np.linalg.eigvalsh(_jacobi_matrix(degree, mu, kappa))[..., 0]


def _gauss_rule(size: int, mu, kappa) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, each ``(..., size)``, of the ``size``-point Gauss rule.

    Exact for polynomials of degree below 2 * size; the weights sum to 1, so
    they integrate against the weight divided by B(kappa + 1, mu + 1).
    """
    nodes, vectors = np.linalg.eigh(_jacobi_matrix(size, mu, kappa))
    return nodes, vectors[..., 0, :] ** 2


def _jacobi_values(degree: int, mu, kappa, t) -> list[np.ndarray]:
    """Values of the polynomials of degree 0..``degree`` at ``t``, in floats.

    Same normalization as `_jacobi_numerators`: P_d(0) = (-1)**d C(d + kappa, d).
    Evaluated by the three-term recurrence in x = 2t - 1; ``mu``, ``kappa``
    and ``t`` broadcast.
    """
    mu, kappa, t = (np.asarray(v, dtype=float) for v in (mu, kappa, t))
    s = mu + kappa
    x = 2.0 * t - 1.0
    values = [np.ones(np.broadcast_shapes(s.shape, x.shape))]
    if degree >= 1:
        values.append((mu + 1) + (s + 2) * (t - 1))
    for k in range(1, degree):
        # 2(k+1)(k+s+1)(2k+s) P_{k+1} = (2k+s+1)((2k+s+2)(2k+s) x + mu^2 - kappa^2) P_k
        #                               - 2(k+mu)(k+kappa)(2k+s+2) P_{k-1}
        u = 2 * k + s
        upper = (u + 1) * ((u + 2) * u * x + (mu - kappa) * s) * values[k]
        lower = 2 * (k + mu) * (k + kappa) * (u + 2) * values[k - 1]
        values.append((upper - lower) / (2 * (k + 1) * (k + s + 1) * u))
    return values

