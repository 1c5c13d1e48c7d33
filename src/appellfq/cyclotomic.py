"""Exact arithmetic in the cyclotomic integer ring Z[zeta_n].

Values are coefficient vectors in the power basis {1, z, ..., z^(phi(n)-1)}
reduced modulo the n-th cyclotomic polynomial, with unbounded Python ints
as coefficients, so equality is plain vector equality and no precision is
ever lost. Character sums accumulate root-of-unity counts in a length-n
vector and reduce once at the end. Reduction folds with z^n = 1 and then
divides by Phi_n over its nonzero terms only, and multiplication skips the
zero coefficients of its sparser operand, so the cost follows the number
of nonzero terms rather than phi(n).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import factorize


def euler_phi(n: int) -> int:
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def _divisors(n: int) -> list[int]:
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def _mobius(n: int) -> int:
    fac = factorize(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def _mul_binomial(poly: list[int], m: int) -> list[int]:
    """poly * (x^m - 1)."""
    out = [0] * (len(poly) + m)
    for i, c in enumerate(poly):
        out[i + m] += c
        out[i] -= c
    return out


def _div_binomial(poly: list[int], m: int) -> list[int]:
    """Exact poly / (x^m - 1)."""
    rem = list(poly)
    qdeg = len(poly) - 1 - m
    quot = [0] * (qdeg + 1)
    for i in range(len(rem) - 1, m - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - m] = c
        rem[i] = 0
        rem[i - m] += c
    if any(rem):
        raise ArithmeticError("inexact division by x^m - 1")
    return quot


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low-to-high, monic of degree phi(n).

    Computed as the product of (x^(n/d) - 1)^mobius(d) over d | n, which
    equals the classical construction dividing x^n - 1 by Phi_d for every
    proper divisor d.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [1]
    divs = [(d, _mobius(d)) for d in _divisors(n)]
    for d, mu in divs:
        if mu == 1:
            poly = _mul_binomial(poly, n // d)
    for d, mu in divs:
        if mu == -1:
            poly = _div_binomial(poly, n // d)
    return tuple(poly)


class _Ring:
    """Per-n context: Phi_n and the reduction modulo it."""

    def __init__(self, n: int):
        poly = cyclotomic_poly(n)
        self.n = n
        self.phi = len(poly) - 1
        # z^phi = sum t * z^i over the nonzero lower terms of the monic Phi_n
        self.tail = tuple((i, -c) for i, c in enumerate(poly[:-1]) if c)
        # split by t = 1, t = -1 and the rest, so that the division needs a
        # product only for the rare |t| > 1 (none below n = 105)
        self.plus = tuple(i for i, t in self.tail if t == 1)
        self.minus = tuple(i for i, t in self.tail if t == -1)
        self.other = tuple((i, t) for i, t in self.tail if abs(t) > 1)
        # n / p for each prime p | n: the shifts of `vanishes`
        self.shifts = tuple(n // p for p in factorize(n))

    def vanishes(self, a: np.ndarray) -> np.ndarray:
        """Which rows of an (S, n) int64 array of zeta-power counts are 0.

        x^n - 1 is squarefree and every proper divisor of n divides some
        n / p, so Phi_n divides c iff c * prod over p | n of (x^(n/p) - 1)
        is 0 mod x^n - 1 (Moree, J. Number Theory 129, 2009): one pass of
        shift by n / p and subtract per prime, which at most doubles the
        sum of |count| of a row. So the test is exact while that sum
        times 2^len(shifts) stays below 2^63; the caller checks this.
        """
        for m in self.shifts:
            a = np.concatenate((a[:, -m:], a[:, :-m]), axis=1) - a
        # `any` along each row as a bool matvec: numpy reduces a short
        # axis row by row, 3-4 times slower at n <= 12
        return ~((a != 0) @ np.ones(self.n, dtype=bool))

    def reduce(self, vec: list[int]) -> tuple[int, ...]:
        """Reduce sum vec[k] * z^k to the power basis; consumes vec.

        Folds with z^n = 1, then divides by Phi_n from the top degree down,
        touching only its nonzero terms: (min(len, n) - phi) * len(tail)
        additions at most.
        """
        n, phi, plus, minus, other = (self.n, self.phi, self.plus,
                                      self.minus, self.other)
        for k in range(n, len(vec)):
            vec[k % n] += vec[k]
        for k in range(min(len(vec), n) - 1, phi - 1, -1):
            c = vec[k]
            if c:
                base = k - phi
                for i in plus:
                    vec[base + i] += c
                for i in minus:
                    vec[base + i] -= c
                for i, t in other:
                    vec[base + i] += c * t
        if len(vec) < phi:
            vec += [0] * (phi - len(vec))
        return tuple(vec[:phi])

    @functools.cached_property
    def np_rows(self) -> np.ndarray:
        """(n, phi) int64 matrix whose row j is z^j reduced, for numpy callers.

        Past the unit rows, row j is z * row(j-1): row(j-1) shifted up one
        place plus its top coefficient c times the tail. `top` bounds every
        |entry| so far and grows by at most |c| max|tail| a step, so a step
        that could pass 2^63 raises ValueError naming n before it is taken.
        """
        n, phi = self.n, self.phi
        tail = np.zeros(phi, dtype=np.int64)
        tail[[i for i, _ in self.tail]] = [t for _, t in self.tail]
        rows = np.eye(n, phi, dtype=np.int64)
        top, widest = 1, int(np.abs(tail).max())
        for j in range(phi, n):
            c = int(rows[j - 1, -1])
            top += abs(c) * widest
            if top >= 2**63:
                raise ValueError(f"n = {n}: reducing z^{j} can reach {top}, "
                                 f"past the int64 limit 2^63 - 1")
            rows[j, 1:] = rows[j - 1, :-1]
            rows[j] += c * tail
        return rows

    @functools.cached_property
    def row_max(self) -> int:
        """max |entry| of `np_rows`, found without an (n, phi) temporary."""
        rows = self.np_rows
        return max(int(rows.max()), -int(rows.min()))


@functools.lru_cache(maxsize=None)
def _ring(n: int) -> _Ring:
    return _Ring(n)


class CycInt:
    """An element of Z[zeta_n] in canonical reduced form. Immutable."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        ring = _ring(n)
        coeffs = tuple(coeffs)
        if len(coeffs) != ring.phi:
            raise ValueError(
                f"need {ring.phi} coefficients for n = {n}, got {len(coeffs)}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycInt is immutable")

    # --- constructors ---------------------------------------------------

    @staticmethod
    def from_int(n: int, v: int) -> "CycInt":
        phi = _ring(n).phi
        return _new(n, (v,) + (0,) * (phi - 1))

    @staticmethod
    def from_powers(n: int, weights) -> "CycInt":
        """Sum of weights[j] * zeta_n^j for a length-<=n weight vector."""
        return _new(n, _ring(n).reduce(list(weights)))

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.n != self.n:
                raise ValueError(f"mixed rings: n={self.n} vs n={other.n}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.n, other)
        return None

    # --- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(self.n, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(self.n, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, int):
            return _new(self.n, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # the sparser operand outside, skipping its zero terms, so a root
        # of unity costs about nnz * phi products
        a, b = self.coeffs, o.coeffs
        if a.count(0) < b.count(0):
            a, b = b, a
        ring = _ring(self.n)
        prod = [0] * (2 * ring.phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    prod[k] += ai * bj
        return _new(self.n, ring.reduce(prod))

    __rmul__ = __mul__

    # --- structure ---------------------------------------------------------

    def galois(self, k: int) -> "CycInt":
        """The automorphism zeta -> zeta^k, for k coprime to n."""
        n = self.n
        k %= n
        if math.gcd(k, n) != 1:
            raise ValueError(f"k = {k} is not coprime to n = {n}")
        counts = [0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                counts[(i * k) % n] += c
        return _new(n, _ring(n).reduce(counts))

    def as_integer(self) -> int | None:
        """The value as a rational integer, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # --- comparisons / rendering -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.as_integer() == other
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __repr__(self):
        v = self.as_integer()
        if v is not None:
            return f"CycInt({self.n}; {v})"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(f"{c}*{z}" if c != 1 else z)
        return f"CycInt({self.n}; {' + '.join(terms)})"

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(d: dict) -> "CycInt":
        return CycInt(int(d["n"]), tuple(int(c) for c in d["coeffs"]))


def _new(n: int, coeffs: tuple[int, ...]) -> CycInt:
    """A CycInt from coefficients the ring just produced, without checks."""
    out = object.__new__(CycInt)
    object.__setattr__(out, "n", n)
    object.__setattr__(out, "coeffs", coeffs)
    return out


def cyc_zero(n: int) -> CycInt:
    return CycInt.from_int(n, 0)


def cyc_one(n: int) -> CycInt:
    return CycInt.from_int(n, 1)


def root_of_unity(n: int, k: int) -> CycInt:
    """zeta_n^k in canonical form."""
    return _new(n, _ring(n).reduce([0] * (k % n) + [1]))
