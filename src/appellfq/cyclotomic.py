"""Exact arithmetic in the cyclotomic integer ring Z[zeta_n].

Values are coefficient vectors in the power basis {1, z, ..., z^(phi(n)-1)}
reduced modulo the n-th cyclotomic polynomial, with unbounded Python ints
as coefficients, so equality is plain vector equality and no precision is
ever lost. Character sums accumulate root-of-unity counts in a length-n
vector and reduce once at the end. Reduction folds with z^n = 1 and then
divides by Phi_n over its nonzero terms only, and multiplication skips the
zero coefficients of its sparser operand, so the cost follows the number
of nonzero terms rather than phi(n). The package's numpy callers reduce
their rows of counts by the same division in int64 (`_Ring.reduce_rows`),
run over the degrees of Phi_rad(n), under a bound checked before it runs.
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

    With m = rad(n) and s = n / m, Phi_n(x) = Phi_m(x^s) (Lidl and
    Niederreiter, Finite Fields, ch. 2), so Phi_m's coefficients are spread
    at stride s. Phi_m is the product of (x^(m/d) - 1)^mobius(d) over
    d | m, which equals the classical construction dividing x^m - 1 by
    Phi_d for every proper divisor d.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = math.prod(factorize(n))
    poly = [1]
    divs = [(d, _mobius(d)) for d in _divisors(m)]
    for d, mu in divs:
        if mu == 1:
            poly = _mul_binomial(poly, m // d)
    for d, mu in divs:
        if mu == -1:
            poly = _div_binomial(poly, m // d)
    spread = [0] * ((len(poly) - 1) * (n // m) + 1)
    spread[::n // m] = poly
    return tuple(spread)


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
        primes = factorize(n)
        # n / p for each prime p | n: the shifts of `vanishes`
        self.shifts = tuple(n // p for p in primes)
        # s = n / rad(n): Phi_n(z) = Phi_m(z^s) for m = rad(n), so the tail
        # sits at multiples of s, and the tail of Phi_m at its indices / s
        self.stride = n // math.prod(primes)

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

    def reduce_rows(self, a: np.ndarray, mass: int) -> np.ndarray:
        """The (S, phi) int64 reduction of each row of (S, n) int64 counts
        whose sum |count| in a row is at most `mass`: the division of
        `reduce` through the radical. With m = rad(n), s = n / m and
        y = z^s, z^(i s + r) = y^i z^r and Phi_n(z) = Phi_m(y), so the
        counts as (m, s S) rows, row i holding y^i's s S counts, are divided
        by Phi_m with one slice add a degree of Phi_m, and their first
        phi(m) rows are the phi(n) = phi(m) s coefficients in order.

        int64 arithmetic is exact mod 2^64 and the division is a ring map,
        so only its result needs a bound: count times a coefficient of some
        reduced z^j, summed over a row, at most mass * `row_max`. Where that
        can reach 2^63, a ValueError naming q = n + 1 is raised before any
        work.
        """
        if (bound := mass * self.row_max) >= 2**63:
            raise ValueError(f"q = {self.n + 1}: reduced values can reach {bound}, "
                             f"past the int64 limit 2^63 - 1")
        s, size = self.stride, len(a)
        m, phi = self.n // s, self.phi // s
        at, tail = zip(*self.tail)
        col = np.zeros((phi, 1), dtype=np.int64)
        col[np.array(at) // s, 0] = tail
        t = np.array(a.reshape(size, m, s).transpose(1, 2, 0), dtype=np.int64,
                     order="C").reshape(m, s * size)
        for k in range(m - 1, phi - 1, -1):
            t[k - phi:k] += col * t[k]
        return t[:phi].reshape(phi * s, size).T

    def cycints(self, a: np.ndarray) -> list[CycInt]:
        """Each row of (S, n) int64 counts as a `CycInt`, by one
        `reduce_rows` whose mass is the largest sum |count| of a row: its
        bound holds iff each row's own bound does."""
        mass = int(np.abs(a).sum(axis=1).max(initial=0))
        return [CycInt(self.n, v) for v in self.reduce_rows(a, mass).tolist()]

    @functools.cached_property
    def row_max(self) -> int:
        """max |coefficient| of z^j reduced over 0 <= j < n, keeping one row.

        That of y^i reduced mod Phi_m over 0 <= i < m, m = rad(n): z^(i s +
        r) reduces to y^i reduced, times z^r (`reduce_rows`). Past the unit
        rows, row i is y * row(i-1): row(i-1) shifted up one place plus its
        top coefficient c times the tail. Row i is the window of phi(m)
        from buf[m-1-i], so the shift moves the window and only the tail's
        terms change. `top` bounds every |coefficient| so far and grows by
        at most |c| max|tail| a step, so a step that could pass 2^63 raises
        ValueError naming q = n + 1 before it is taken.
        """
        s = self.stride
        m, phi = self.n // s, self.phi // s
        at, tail = (np.array(v, dtype=np.int64) for v in zip(*self.tail))
        at //= s
        buf = np.zeros(m, dtype=np.int64)
        buf[-1] = best = top = 1  # row phi - 1, the last unit row
        widest = int(np.abs(tail).max())
        for w in range(m - 1 - phi, -1, -1):  # row m - 1 - w
            if c := int(buf[w + phi]):
                top += abs(c) * widest
                if top >= 2**63:
                    raise ValueError(f"q = {self.n + 1}: reducing z^{(m - 1 - w) * s} can "
                                     f"reach {top}, past the int64 limit 2^63 - 1")
                buf[w + at] += c * tail
                best = max(best, int(np.abs(buf[w + at]).max()))
        return best


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
        v = self.as_integer()  # an integer value hashes as the int it equals
        return hash((self.n, self.coeffs)) if v is None else hash(v)

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
