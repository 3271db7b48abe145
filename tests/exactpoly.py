"""``ExactPoly``, the Fraction polynomial class the archimedean checks used
to be built on, with the builders written over it.

The package keeps polynomials as plain ``{exponent tuple: Fraction}`` dicts,
writes the zonal polynomials out by the multinomial theorem and takes ranks
by fraction-free integer elimination.  The references here build the same
objects by polynomial products and powers, and take ranks in ``Fraction``
arithmetic, so the tests can compare the two.
"""

from fractions import Fraction
from math import comb, factorial


class ExactPoly:
    """Multivariate polynomial with Fraction coefficients.

    Monomials are exponent tuples of fixed length; zero coefficients are
    never stored, so equality is structural.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        self.nvars = nvars
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[tuple(e)] = c

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ExactPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) - c
        return ExactPoly(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactPoly(
                self.nvars, {e: c * Fraction(other) for e, c in self.coeffs.items()}
            )
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ExactPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = ExactPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i):
        out = {}
        for e, c in self.coeffs.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return ExactPoly(self.nvars, out)

    def evaluate(self, point):
        total = Fraction(0) if all(isinstance(p, (int, Fraction)) for p in point) else 0.0
        for e, c in self.coeffs.items():
            term = c if isinstance(total, Fraction) else float(c)
            for x, k in zip(point, e):
                term = term * x**k
            total = total + term
        return total

    @property
    def is_zero(self):
        return not self.coeffs

    def is_homogeneous(self, degree):
        return all(sum(e) == degree for e in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ExactPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(
                f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k
            )
            parts.append(f"{c}" + ("*" + mono if mono else ""))
        return " + ".join(parts)


def reference_laplacian_real(p, n):
    out = ExactPoly(p.nvars, {})
    for j in range(n):
        out = out + p.diff(j).diff(j)
    return out


def reference_laplacian_complex(p, n):
    """4 * sum_j d^2/dz_j dzbar_j; variables are z_0..z_{n-1}, zb_0..zb_{n-1}."""
    out = ExactPoly(p.nvars, {})
    for j in range(n):
        out = out + p.diff(j).diff(n + j)
    return 4 * out


def reference_real_zonal_poly(m, n):
    """Rotation-invariant harmonic of degree m, value 1 at e_n.

    Sum over even nu of
      (-1)^(nu/2) m! / (2^nu (nu/2)! (m-nu)! prod_{t<nu/2} ((n-1)/2 + t))
      * (x_1^2+...+x_{n-1}^2)^(nu/2) * x_n^(m-nu).
    """
    if n < 2 or m < 0:
        raise ValueError("n >= 2 and m >= 0 required")
    r2 = ExactPoly(n, {})
    for j in range(n - 1):
        xj = ExactPoly.variable(n, j)
        r2 = r2 + xj * xj
    xn = ExactPoly.variable(n, n - 1)
    out = ExactPoly(n, {})
    for nu in range(0, m + 1, 2):
        h = nu // 2
        gamma_ratio = Fraction(1)
        for t in range(h):
            gamma_ratio *= Fraction(n - 1, 2) + t
        coef = Fraction((-1) ** h * factorial(m), 2**nu * factorial(h) * factorial(m - nu))
        coef /= gamma_ratio
        out = out + coef * (r2**h) * (xn ** (m - nu))
    return out


def reference_complex_zonal_poly(m1, m2, n):
    """Invariant harmonic of bidegree (m1, m2), value 1 at e_n.

    Sum over nu of (-1)^nu C(m1,nu) C(m2,nu) / C(nu+n-2, n-2)
      * (|z_1|^2+...+|z_{n-1}|^2)^nu * z_n^(m1-nu) * zbar_n^(m2-nu).
    """
    if n < 2 or m1 < 0 or m2 < 0:
        raise ValueError("n >= 2 and m1, m2 >= 0 required")
    nv = 2 * n
    r2 = ExactPoly(nv, {})
    for j in range(n - 1):
        r2 = r2 + ExactPoly.variable(nv, j) * ExactPoly.variable(nv, n + j)
    zn = ExactPoly.variable(nv, n - 1)
    zbn = ExactPoly.variable(nv, 2 * n - 1)
    out = ExactPoly(nv, {})
    for nu in range(0, min(m1, m2) + 1):
        coef = Fraction((-1) ** nu * comb(m1, nu) * comb(m2, nu), comb(nu + n - 2, n - 2))
        out = out + coef * (r2**nu) * (zn ** (m1 - nu)) * (zbn ** (m2 - nu))
    return out


def reference_rank_fractions(rows):
    """Row rank over Q by Gaussian elimination in Fraction arithmetic: each
    pivot row is scaled by its pivot's inverse and cleared from the rest."""
    rows = [list(r) for r in rows]
    rank = 0
    while rows:
        lead = rows.pop()
        col = next((j for j, c in enumerate(lead) if c), None)
        if col is not None:
            inv = Fraction(1) / lead[col]
            lead = [c * inv for c in lead]
            rows = [[a - r[col] * b for a, b in zip(r, lead)] if r[col] else r for r in rows]
            rank += 1
    return rank
