"""Exact verification of the real and complex zonal harmonic formulas.

A polynomial is a dict from exponent tuples to exact coefficients, with no
zero coefficient stored, so equality is dict equality.  The zonal
polynomials are written out by the multinomial theorem, and the gamma
ratios in the real zonal formula telescope over even summation indices, so
no floating gamma evaluation ever happens.  One operator, ``laplacian``,
sums second derivatives over a list of index pairs; the real and complex
Laplacians differ only in their pairs.  Dimension formulas are
cross-checked against the rank-nullity oracle: the exact kernel of the
Laplacian from homogeneous (bi)degree monomials to lower degree.  Its rank
is the number of target monomials, certified by a triangular minor: each
target f has a source, x_0^2 f or z_0 zbar_0 f, whose image is f plus
monomials of higher x_0-exponent (Axler, Bourdon and Ramey, Harmonic
Function Theory, 2001, ch. 5).  A target without one fails its record;
nothing is eliminated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import numpy as np


def real_pairs(n):
    """Index pairs of the real Laplacian sum_j d^2/dx_j^2."""
    return [(j, j) for j in range(n)]


def complex_pairs(n):
    """Index pairs of sum_j d^2/dz_j dzbar_j on variables z_0..z_{n-1},
    zb_0..zb_{n-1}; the complex Laplacian is 4 times this operator, and the
    factor changes neither its kernel nor its rank."""
    return [(j, n + j) for j in range(n)]


def laplacian(poly, pairs):
    """sum of d^2/dx_i dx_k over ``pairs``: x^e goes to
    e_i (e_k - [i = k]) x^(e - delta_i - delta_k)."""
    out = {}
    for e, c in poly.items():
        for i, k in pairs:
            a = e[i] * (e[k] - (i == k))
            if a:
                d = list(e)
                d[i] -= 1
                d[k] -= 1
                d = tuple(d)
                out[d] = out.get(d, 0) + a * c
    return {d: c for d, c in out.items() if c}


def evaluate(poly, point):
    """Exact at a point of ints and Fractions, floating otherwise."""
    exact = all(isinstance(x, (int, Fraction)) for x in point)
    total = Fraction(0) if exact else 0.0
    for e, c in poly.items():
        term = c if exact else float(c)
        for x, k in zip(point, e):
            term = term * x**k
        total = total + term
    return total


def _multinomial(k, e):
    out = factorial(k)
    for j in e:
        out //= factorial(j)
    return out


def real_zonal_poly(m, n):
    """Rotation-invariant harmonic of degree m, value 1 at e_n.

    Sum over even nu of
      (-1)^(nu/2) m! / (2^nu (nu/2)! (m-nu)! prod_{t<nu/2} ((n-1)/2 + t))
      * (x_1^2+...+x_{n-1}^2)^(nu/2) * x_n^(m-nu),
    with the power of the sum of squares expanded by the multinomial theorem.
    """
    if n < 2 or m < 0:
        raise ValueError("n >= 2 and m >= 0 required")
    out = {}
    for nu in range(0, m + 1, 2):
        h = nu // 2
        gamma_ratio = Fraction(1)
        for t in range(h):
            gamma_ratio *= Fraction(n - 1, 2) + t
        coef = Fraction((-1) ** h * factorial(m), 2**nu * factorial(h) * factorial(m - nu))
        coef /= gamma_ratio
        for e in _monomials(h, n - 1):
            out[tuple(2 * j for j in e) + (m - nu,)] = coef * _multinomial(h, e)
    return out


def complex_zonal_poly(m1, m2, n):
    """Invariant harmonic of bidegree (m1, m2), value 1 at e_n.

    Sum over nu of (-1)^nu C(m1,nu) C(m2,nu) / C(nu+n-2, n-2)
      * (|z_1|^2+...+|z_{n-1}|^2)^nu * z_n^(m1-nu) * zbar_n^(m2-nu),
    with the power of the sum expanded by the multinomial theorem.
    """
    if n < 2 or m1 < 0 or m2 < 0:
        raise ValueError("n >= 2 and m1, m2 >= 0 required")
    out = {}
    for nu in range(0, min(m1, m2) + 1):
        coef = Fraction((-1) ** nu * comb(m1, nu) * comb(m2, nu), comb(nu + n - 2, n - 2))
        for e in _monomials(nu, n - 1):
            out[e + (m1 - nu,) + e + (m2 - nu,)] = coef * _multinomial(nu, e)
    return out


def harmonic_dim_real(m, n):
    if n < 2 or m < 0:
        raise ValueError("n >= 2 and m >= 0 required")
    if m == 0:
        return 1
    if n == 2:
        return 2
    num = (2 * m + n - 2) * comb(m + n - 2, n - 2)
    assert num % (m + n - 2) == 0
    return num // (m + n - 2)


def harmonic_dim_complex(m1, m2, n):
    if n < 2 or m1 < 0 or m2 < 0:
        raise ValueError("n >= 2 and m1, m2 >= 0 required")
    num = (m1 + m2 + n - 1) * comb(m1 + n - 2, n - 2) * comb(m2 + n - 2, n - 2)
    assert num % (n - 1) == 0
    return num // (n - 1)


def _monomials(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _monomials(total - head, nvars - 1):
            yield (head,) + rest


def _minor_kernel_dim(monos, targets, pairs, lift):
    """Exact kernel dimension of ``laplacian(., pairs)`` from the span of
    ``monos`` to that of ``targets``: each target f needs the source lift(f)
    in ``monos``, whose image is f with a non-zero coefficient plus terms
    of higher x_0-exponent.  Ordered by x_0-exponent, these sources give a
    triangular minor with a non-zero diagonal, so the rank is #targets, the
    most it can be.  For the first target without one, says so instead."""
    domain = set(monos)
    rank = 0
    for f in targets:
        src = lift(f)
        image = laplacian({src: 1}, pairs) if src in domain else {}
        if not image.get(f) or any(e[0] <= f[0] and e != f for e in image):
            return f"no triangular pivot at the target {f}"
        rank += 1
    return len(domain) - rank


def kernel_dim_real(m, n):
    """Exact kernel dimension of the Laplacian on degree-m monomials; the
    source of f is x_0^2 f, coefficient (f_0 + 2)(f_0 + 1).  There are no
    monomials of negative degree, so m < 2 has no target."""
    return _minor_kernel_dim(_monomials(m, n), _monomials(m - 2, n), real_pairs(n),
                             lambda f: (f[0] + 2,) + f[1:])


def kernel_dim_complex(m1, m2, n):
    """Exact kernel dimension of the complex Laplacian on bidegree monomials;
    the source of f is z_0 zbar_0 f, coefficient (f_0 + 1)(f_n + 1)."""
    monos = (a + b for a in _monomials(m1, n) for b in _monomials(m2, n))
    targets = (a + b for a in _monomials(m1 - 1, n) for b in _monomials(m2 - 1, n))
    return _minor_kernel_dim(monos, targets, complex_pairs(n),
                             lambda f: (f[0] + 1,) + f[1:n] + (f[n] + 1,) + f[n + 1:])


def monomial_count(total, nvars, cap):
    """C(total + nvars - 1, nvars - 1), the number of degree-``total``
    monomials in ``nvars`` variables, or the first partial product over
    ``cap``: they only grow, so huge bounds cost a few steps."""
    k, count = min(total, nvars - 1), 1
    for i in range(1, k + 1):
        count = count * (total + nvars - 1 - k + i) // i
        if count > cap:
            break
    return count


def e_n_point_real(n):
    return tuple([0] * (n - 1) + [1])


def e_n_point_complex(n):
    return tuple([0] * (n - 1) + [1] + [0] * (n - 1) + [1])


def rotation_invariance_residual(poly, n, samples=20, seed=0):
    """Sampled numerical invariance under block rotations of the head coords."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        theta = rng.uniform(0, 2 * np.pi)
        i, j = (rng.choice(n - 1, size=2, replace=False) if n > 2 else (0, 0))
        x = rng.normal(size=n)
        y = x.copy()
        if n > 2:
            y[i] = np.cos(theta) * x[i] - np.sin(theta) * x[j]
            y[j] = np.sin(theta) * x[i] + np.cos(theta) * x[j]
        else:
            y[0] = -x[0]
        worst = max(worst, abs(evaluate(poly, tuple(x)) - evaluate(poly, tuple(y))))
    return worst
