"""The scalar evaluator: the tests' reference for every value the package
computes in columns.

`EvalContext` evaluates a compiled side (`identities`) at one binding of
plain ints and returns a `CycInt`, reducing each term as it goes. Its
point sums (`f21_point_idx`, `f1_point_idx`) and the Jacobi and binomial
weights (`_jacobi_counts`) are Python loops over u, independent of the
package's column kernels (`hypergeometric._point_counts`,
`characters.binom_counts`); its roots of unity are `root_of_unity`,
reduced one at a time. At q <= 9 a loop is several times faster than a
one-row call of a column kernel, which is why the reference keeps them.
"""

from __future__ import annotations

import functools

from appellfq.characters import binomial_table
from appellfq.cyclotomic import CycInt, cyc_zero, root_of_unity
from appellfq.fields import FieldTable
from appellfq.hypergeometric import _reduced, f1_charsum_idx, f21_charsum_idx
from appellfq.identities import binthm_counts, power_sum_counts, theta_counts


def _jacobi_counts(ft: FieldTable, a: int, b: int, shift: int = 0) -> list[int]:
    """Root-of-unity weights of sum_u zeta^(a*log u + b*log(1-u) + shift)."""
    n = ft.n
    counts = [0] * n
    om = ft.one_minus_idx
    for u in range(1, ft.q):  # u != 0
        v = om[u]
        if v == 0:  # u = 1 contributes B(0) = 0
            continue
        counts[(a * (u - 1) + b * (v - 1) + shift) % n] += 1
    return counts


def jacobi(ft: FieldTable, a: int, b: int) -> CycInt:
    """J(chi_a, chi_b) = sum over u of chi_a(u) chi_b(1 - u)."""
    return CycInt.from_powers(ft.n, _jacobi_counts(ft, a, b))


def binom(ft: FieldTable, a: int, b: int) -> CycInt:
    """[chi_a|chi_b] = chi_b(-1) J(chi_a, chi_b-inverse)."""
    n = ft.n
    return CycInt.from_powers(n, _jacobi_counts(ft, a, -b % n, (b * ft.log_minus_one) % n))


def f21_point_idx(ft: FieldTable, a, b, c, xi):
    """The 2F1 point sum at exponents a, b, c and element index xi."""
    n = ft.n
    if xi == 0:
        return cyc_zero(n)
    om = ft.one_minus_idx
    pref = ((b + c) * ft.log_minus_one) % n
    e2 = (c - b) % n
    e3 = (-a) % n
    lx = xi - 1
    counts = [0] * n
    for lu in range(n):
        i1 = om[lu + 1]  # 1 - u
        if i1 == 0:
            continue
        i2 = om[(lu + lx) % n + 1]  # 1 - ux
        if i2 == 0:
            continue
        counts[(pref + b * lu + e2 * (i1 - 1) + e3 * (i2 - 1)) % n] += 1
    return CycInt.from_powers(n, counts)


def f1_point_idx(ft: FieldTable, a, b, bp, c, xi, yi):
    """The Appell F1 point sum at exponents a, b, b', c and element indices
    xi, yi."""
    n = ft.n
    if xi == 0 or yi == 0:
        return cyc_zero(n)
    om = ft.one_minus_idx
    pref = ((a + c) * ft.log_minus_one) % n
    e2 = (c - a) % n
    e3 = (-b) % n
    e4 = (-bp) % n
    lx = xi - 1
    ly = yi - 1
    counts = [0] * n
    for lu in range(n):
        i1 = om[lu + 1]  # 1 - u
        if i1 == 0:
            continue
        i2 = om[(lu + lx) % n + 1]  # 1 - ux
        if i2 == 0:
            continue
        i3 = om[(lu + ly) % n + 1]  # 1 - uy
        if i3 == 0:
            continue
        counts[
            (pref + a * lu + e2 * (i1 - 1) + e3 * (i2 - 1) + e4 * (i3 - 1)) % n
        ] += 1
    return CycInt.from_powers(n, counts)


class _Roots(dict):
    """zeta_n^k as roots[k], for 0 <= k < n."""

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, k: int) -> CycInt:
        v = self[k] = root_of_unity(self.n, k)
        return v


@functools.lru_cache(maxsize=None)
def all_roots(n: int) -> _Roots:
    """The roots zeta_n^0 .. zeta_n^(n-1) by exponent; cached, and each root
    is reduced on its first read."""
    return _Roots(n)


class EvalContext:
    """Compiled per-field helpers for identity evaluation.

    Element arguments are enumeration indices (0 is the zero element,
    index i > 0 has discrete log i - 1); characters are exponents mod q-1.
    """

    def __init__(self, ft: FieldTable):
        self.ft = ft
        self.n = ft.n
        self.q = ft.q
        self.qm1 = ft.q - 1
        self.om = ft.one_minus_idx
        self.ng = ft.neg_idx
        self.lm1 = ft.log_minus_one
        self.zero = cyc_zero(ft.n)
        self.roots = all_roots(ft.n)  # filled on first read
        self.bt = binomial_table(ft)

    # element ops on enumeration indices
    def sub(self, i, j):
        return self.ft.sub_idx(i, j)

    def div(self, i, j):
        return self.ft.div_idx(i, j)

    def eps(self, i):
        """eps(x) as a 0/1 integer factor."""
        return 0 if i == 0 else 1

    def delta(self, i):
        """delta on field elements: 1 iff the element is 0."""
        return 1 if i == 0 else 0

    def dchar(self, e):
        """delta on characters: 1 iff trivial."""
        return 1 if e % self.n == 0 else 0

    def sign(self, e):
        """chi_e(-1), a unit, as a CycInt."""
        return self.roots[(e * self.lm1) % self.n]

    def cp(self, *pairs):
        """Product of character values chi_e(elem); zero if any arg is 0."""
        t = 0
        for e, i in pairs:
            if i == 0:
                return self.zero
            t += e * (i - 1)
        return self.roots[t % self.n]

    def intv(self, v):
        return CycInt.from_int(self.n, v)

    def binom(self, i, j):
        return self.bt[i % self.n][j % self.n]

    def f21(self, a, b, c, x):
        return f21_point_idx(self.ft, a, b, c, x)

    def f1(self, a, b, bp, c, x, y):
        return f1_point_idx(self.ft, a, b, bp, c, x, y)

    def f21_sum(self, a, b, c, x):
        return f21_charsum_idx(self.ft, a, b, c, x)

    def f1_sum(self, a, b, bp, c, x, y):
        return f1_charsum_idx(self.ft, a, b, bp, c, x, y)

    def power_sum(self, step):
        return CycInt.from_powers(self.n, power_sum_counts(self.ft, step)[0].tolist())

    def binthm(self, A, x):
        return _reduced(self.n, binthm_counts(self.ft, A, x), self.n)

    def theta(self, t, X, coeffs, k, *xis):
        return _reduced(self.n, theta_counts(self.ft, t, X, coeffs, k, *xis), self.n)
