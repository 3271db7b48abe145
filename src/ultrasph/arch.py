"""Exact verification of the real and complex zonal harmonic formulas.

A polynomial is a dict from exponent tuples to exact coefficients, with no
zero coefficient stored, so equality is dict equality.  The zonal
polynomials are written out by the multinomial theorem, and the gamma
ratios in the real zonal formula telescope over even summation indices, so
no floating gamma evaluation ever happens.  One operator, ``laplacian``,
sums second derivatives over a list of index pairs; the real and complex
Laplacians differ only in their pairs.  Dimension formulas are
cross-checked against the rank-nullity oracle: the exact kernel of the
Laplacian from homogeneous (bi)degree monomials to lower degree, its rank
taken by fraction-free integer elimination on each connected component of
the matrix's non-zero pattern.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

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


def _rank_exact(rows):
    """Row rank over Q of an integer matrix by fraction-free elimination:
    each pivot row clears its column from the rest by
    r <- lead[col] * r - r[col] * lead, and each updated row is divided by
    the gcd of its entries, so every entry stays an integer (Bareiss 1968)."""
    rows = [list(r) for r in rows]
    rank = 0
    while rows:
        lead = rows.pop()
        col = next((j for j, c in enumerate(lead) if c), None)
        if col is not None:
            p = lead[col]
            rows = [_primitive([p * a - r[col] * b for a, b in zip(r, lead)]) if r[col] else r
                    for r in rows]
            rank += 1
    return rank


def _primitive(row):
    g = gcd(*row)
    return [c // g for c in row] if g > 1 else row


def _kernel_dim(monos, pairs):
    """Exact kernel dimension of ``laplacian(., pairs)`` on the span of
    ``monos``: the matrix is block-diagonal over the connected components of
    its non-zero pattern (monomials joined when their images share a
    monomial), so its rank is the sum of the blocks' exact ranks.  The split
    reads the pattern only and assumes nothing about which monomials the
    operator couples."""
    images = [laplacian({e: 1}, pairs) for e in monos]
    root = list(range(len(monos)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    first = {}
    for i, image in enumerate(images):
        for e in image:
            root[find(i)] = find(first.setdefault(e, i))
    blocks = {}
    for i in range(len(monos)):
        blocks.setdefault(find(i), []).append(images[i])
    rank = 0
    for block in blocks.values():
        targets = list(dict.fromkeys(e for image in block for e in image))
        rank += _rank_exact([[image.get(e, 0) for e in targets] for image in block])
    return len(monos) - rank


def kernel_dim_real(m, n):
    """Exact kernel dimension of the Laplacian on degree-m monomials."""
    return _kernel_dim(list(_monomials(m, n)), real_pairs(n))


def kernel_dim_complex(m1, m2, n):
    """Exact kernel dimension of the complex Laplacian on bidegree monomials."""
    monos = [a + b for a in _monomials(m1, n) for b in _monomials(m2, n)]
    return _kernel_dim(monos, complex_pairs(n))


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
