"""The scalar evaluator: the tests' reference for every value the package
computes in columns.

`EvalContext` evaluates a compiled side (`identities`) at one binding of
plain ints and returns a `CycInt`. No package kernel takes part: its
point sums (`f21_point_idx`, `f1_point_idx`) and the Jacobi and binomial
weights (`_jacobi_counts`) are Python loops over u, independent of the
package's column kernels (`hypergeometric._point_counts`,
`characters.binom_idx`), and its roots of unity are `root_of_unity`,
reduced one at a time (`root_rows` stacks them, to reduce rows of counts). Its sums over characters (binthm, power_sum,
f21_sum, f1_sum, theta) are their literal loops over chi, (chi, lambda)
and theta, of terms built from those loops alone, where the package
gathers the few terms that survive (`characters._slope_index`).

`_CounterStream` is the scalar word stream of the sampler, one word and
one draw at a time, which `verifier._draws` computes in columns.
"""

from __future__ import annotations

import functools

import numpy as np

from appellfq.cyclotomic import CycInt, cyc_zero, root_of_unity
from appellfq.fields import FieldTable
from appellfq.verifier import _GOLDEN, _U64, _splitmix64


class _CounterStream:
    """Word stream that is a pure function of (seed, counter). A numpy uint64
    array of counters gives one stream per entry with the same words, since
    uint64 arithmetic wraps modulo 2^64 as the masked ints do."""

    def __init__(self, seed: int, counter: int):
        self._base = _splitmix64(_splitmix64(seed & _U64) ^ ((counter + 1) & _U64))
        self._i = 0

    def word(self) -> int:
        self._i += 1
        return _splitmix64((self._base + (self._i * _GOLDEN & _U64)) & _U64)

    def below(self, bound: int) -> int:
        # unbiased draw in [0, bound)
        lim = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.word()
            if w < lim:
                return w % bound


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


def _binom_counts(ft: FieldTable, a: int, b: int) -> list[int]:
    """[chi_a|chi_b] = chi_b(-1) J(chi_a, chi_b-inverse), as weights."""
    n = ft.n
    return _jacobi_counts(ft, a, -b % n, (b * ft.log_minus_one) % n)


def binom(ft: FieldTable, a: int, b: int) -> CycInt:
    """[chi_a|chi_b], reduced."""
    return CycInt.from_powers(ft.n, _binom_counts(ft, a, b))


def f21_point_idx(ft: FieldTable, a, b, c, xi):
    """The 2F1 point sum at exponents a, b, c and element index xi."""
    if xi == 0:
        return cyc_zero(ft.n)
    return CycInt.from_powers(ft.n, _f21_point_counts(ft, a, b, c, xi))


def _f21_point_counts(ft: FieldTable, a, b, c, xi) -> list[int]:
    """The root-of-unity weights of the 2F1 point sum, for xi != 0."""
    n = ft.n
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
    return counts


def f1_point_idx(ft: FieldTable, a, b, bp, c, xi, yi):
    """The Appell F1 point sum at exponents a, b, b', c and element indices
    xi, yi."""
    if xi == 0 or yi == 0:
        return cyc_zero(ft.n)
    return CycInt.from_powers(ft.n, _f1_point_counts(ft, a, b, bp, c, xi, yi))


def _f1_point_counts(ft: FieldTable, a, b, bp, c, xi, yi) -> list[int]:
    """The root-of-unity weights of the F1 point sum, for xi, yi != 0."""
    n = ft.n
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
    return counts


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


@functools.lru_cache(maxsize=None)
def root_rows(n: int) -> np.ndarray:
    """The (n, phi) int64 matrix whose row j is zeta_n^j reduced by the
    Python division (`root_of_unity`): counts @ root_rows(n) reduces rows
    of counts independently of `_Ring.reduce_rows`; cached."""
    return np.array([all_roots(n)[j].coeffs for j in range(n)],
                    dtype=np.int64).reshape(n, -1)


class EvalContext:
    """Compiled per-field helpers for identity evaluation.

    Element arguments are enumeration indices (0 is the zero element,
    index i > 0 has discrete log i - 1); characters are exponents mod q-1.

    A sum over characters adds up, over every character, terms that are
    products of the reference's binomials (`_binom_counts`, the
    `_jacobi_counts` loop), values chi_k(x) = zeta^(k log x) (0 at x = 0,
    for the trivial character too) and point sums (the loops over u
    above), all as weight vectors multiplied by `_times`, and reduces the
    sum once. Binomials, products of binomials and point sums are
    memoized by their arguments, since a sum over a domain reads each of
    them many times.
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
        self._memo: dict = {}

    def _memoized(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    # element ops on enumeration indices
    def sub(self, i, j):
        """x_i - x_j by coefficient vectors over F_p."""
        els = self.ft.elements
        diff = [a - b for a, b in zip(els[i].coeffs, els[j].coeffs)]
        return self.ft.from_coeffs(diff).index

    def div(self, i, j):
        """x_i / x_j by discrete logs."""
        if j == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return 0 if i == 0 else (i - j) % self.n + 1

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
        """[chi_i|chi_j], reduced."""
        key = ("binom", i % self.n, j % self.n)
        return self._memoized(
            key, lambda: CycInt.from_powers(self.n, self._binoms(key[1:])))

    def f21(self, a, b, c, x):
        return f21_point_idx(self.ft, a, b, c, x)

    def f1(self, a, b, bp, c, x, y):
        return f1_point_idx(self.ft, a, b, bp, c, x, y)

    def _binoms(self, *pairs) -> list[int]:
        """The product of the binomials [chi_a|chi_b] over `pairs` (a, b)."""
        key = tuple((a % self.n, b % self.n) for a, b in pairs)
        if len(key) == 1:
            return self._memoized(key, lambda: _binom_counts(self.ft, *key[0]))
        return self._memoized(key, lambda: _times(self._binoms(*key[:-1]),
                                                  self._binoms(key[-1])))

    def _sum(self, terms) -> CycInt:
        """The sum of (weights, character pairs) terms, each weight vector
        times prod chi_e(x) over its pairs (e, x)."""
        n = self.n
        total = [0] * n
        for weights, pairs in terms:
            if any(x == 0 for _, x in pairs):  # chi(0) = 0
                continue
            shift = sum(e * (x - 1) for e, x in pairs)
            for j, w in enumerate(weights):
                total[(j + shift) % n] += w
        return CycInt.from_powers(n, total)

    # the sums over characters, uncleared
    def power_sum(self, step):
        """sum over k = 0 .. n-1 of zeta^(k step)."""
        counts = [0] * self.n
        for k in range(self.n):
            counts[k * step % self.n] += 1
        return CycInt.from_powers(self.n, counts)

    def binthm(self, A, x):
        """sum over chi of [A chi|chi] chi(x)."""
        return self._sum((self._binoms((A + k, k)), [(k, x)]) for k in range(self.n))

    def f21_sum(self, a, b, c, x):
        """sum over chi of [A chi|chi] [B chi|C chi] chi(x)."""
        return self._sum((self._binoms((a + k, k), (b + k, c + k)), [(k, x)])
                         for k in range(self.n))

    def f1_sum(self, a, b, bp, c, x, y):
        """sum over chi, lam of [A chi lam|C chi lam] [B chi|chi] [B' lam|lam]
        chi(x) lam(y)."""
        n = self.n
        return self._sum(
            (_times(self._binoms((a + k + m, c + k + m)),
                    self._binoms((b + k, k), (bp + m, m))), [(k, x), (m, y)])
            for k in range(n) for m in range(n))

    def theta(self, t, X, coeffs, k, *xis):
        """sum over theta of [X theta|theta] theta(t) S(theta), where S(theta)
        is the point sum whose exponents, in the order of
        `hypergeometric.point_rows` ((B, C, A) of a 2F1[A, B; C; x], (A, C,
        B, B') of an F1), are `coeffs` with the one in position k shifted
        by theta."""
        n = self.n
        if 0 in xis:  # every point sum at an element 0 is 0
            return self.zero
        terms = []
        for th in range(n):
            e = [c % n for c in coeffs]
            e[k] = (e[k] + th) % n
            if len(xis) == 1:
                args = (e[2], e[0], e[1], *xis)
                point = self._memoized(args, lambda: _f21_point_counts(self.ft, *args))
            else:
                args = (e[0], e[2], e[3], e[1], *xis)
                point = self._memoized(args, lambda: _f1_point_counts(self.ft, *args))
            terms.append((_times(self._binoms((X + th, th)), point), [(th, t)]))
        return self._sum(terms)


def _times(u: list[int], v: list[int]) -> list[int]:
    """The product of two weight vectors of powers of zeta_n, cyclically."""
    n = len(u)
    out = [0] * n
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[(i + j) % n] += a * b
    return out
