"""Finite fields F_{p^r} with generator-relative exp/log tables.

Construction fixes the model: p, r, the modulus and the generator. Every
table derived from them (the coefficient vector of each element in
enumeration order, the inverse by base-p code, and the indices of -x and
1 - x) is an int64 array built on its first read, by doubling and numpy
passes, so a field costs only what its first reader uses. The evaluators
do their arithmetic on enumeration indices and these tables
(`identities.BatchContext`), not on element objects; a `FieldElement` is
made only when the scalar API reads it.

Construction is deterministic. The modulus is the lexicographically first
monic irreducible polynomial of degree r (coefficient tuples ordered with
the constant term first), and the generator is the first element in
coefficient order whose multiplicative order is exactly q - 1. Identities
computed downstream are isomorphism-invariant, so the model only matters
for reproducible output.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_TABLE_CAP = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Split a prime power q into (p, r). Raises ValueError otherwise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, r), = fac.items()
    return p, r


# ----------------------------------------------------------------------
# Polynomials over F_p: coefficient lists, low-to-high degree.
# ----------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(num, den, p):
    """num mod the monic polynomial den, over F_p."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        f = num[i]
        if f:  # subtract f x^(i - dd) den, which clears num[i]
            for j in range(dd):
                num[i - dd + j] = (num[i - dd + j] - f * den[j]) % p
    return _poly_trim(num[:dd])


def _poly_mulmod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_mod(out, modulus, p)


def _mul_matrix(a, modulus, p) -> np.ndarray:
    """The r x r matrix over F_p of multiplication by a, acting on row
    vectors: row i holds the coefficients of x^i a mod the modulus."""
    rows, row = [], list(a)
    for _ in range(len(modulus) - 1):
        rows.append(row)
        # x row: shift up, and x^r = -(m_0 + ... + m_(r-1) x^(r-1))
        row = [(c - row[-1] * m) % p for c, m in zip([0] + row[:-1], modulus)]
    return np.array(rows, dtype=np.int64)


def _is_irreducible(poly, p):
    """Monic poly over F_p, degree >= 1, tested by trial division against
    all monic polynomials of degree 1 .. deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not _poly_mod(poly, div, p):
                return False
    return True


def _find_modulus(p, r):
    """Lexicographically first monic irreducible of degree r over F_p."""
    for tail in itertools.product(range(p), repeat=r):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible polynomial of degree {r} over F_{p}")


def _poly_generator(p, r, modulus, n, primes):
    """The first nonzero coefficient tuple g with g^(n/l) != 1 for each
    prime l | n in `primes`, by square-and-multiply mod the modulus."""

    def poly_pow(base, e):
        result = [1]
        b = list(base)
        while e:
            if e & 1:
                result = _poly_mulmod(result, b, modulus, p)
            e >>= 1
            if e:
                b = _poly_mulmod(b, b, modulus, p)
        return result

    for tail in itertools.product(range(p), repeat=r):
        if not any(tail):
            continue
        cand = list(tail)
        if any(poly_pow(cand, n // ell) == [1] for ell in primes):
            continue
        return tuple(tail)
    raise RuntimeError(f"no generator found for q={p ** r}")


@dataclass(frozen=True)
class FieldParams:
    p: int
    r: int
    q: int
    modulus: tuple[int, ...]  # length r + 1, monic, low-to-high


class FieldElement:
    """Element of F_q in canonical coefficient representation.

    `log` is the discrete log against the field's generator (None for 0),
    and `index` the position in enumeration order (0 for 0, 1 + log else).
    """

    __slots__ = ("q", "coeffs", "log", "index")

    def __init__(self, q, coeffs, log, index):
        self.q = q
        self.coeffs = coeffs
        self.log = log
        self.index = index

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def is_zero(self):
        return self.log is None

    def __repr__(self):
        if len(self.coeffs) == 1:
            return f"F{self.q}({self.coeffs[0]})"
        return f"F{self.q}({list(self.coeffs)})"


class FieldTable:
    """F_q as its model, fixed at construction: p, r, the modulus and the
    generator g. Every table derived from them is an int64 array built on
    first read, and an element object is made only when read.

    Enumeration order is zero first, then powers of the generator
    (exp-table order), so element index i > 0 has discrete log i - 1.
    `_caches` holds the tables that other modules derive from these, each
    filled on first use and never changed after.
    """

    def __init__(self, params: FieldParams):
        self.params = params
        p, r, q = params.p, params.r, params.q
        self.p, self.r, self.q = p, r, q
        self.n = q - 1  # order of the multiplicative group
        self.generator_coeffs = self._find_generator(p, r, q, params.modulus)
        # -1 is the one element of order 2 of the cyclic group F_q^*, so
        # g^(n/2); in characteristic 2 it is 1
        self.log_minus_one = 0 if p == 2 else self.n // 2
        self._elements: dict[int, FieldElement] = {}
        self._caches: dict = {}

        if q == 2:
            warnings.warn(
                "q = 2 is degenerate: the character group is trivial",
                RuntimeWarning,
                stacklevel=3,
            )

    @staticmethod
    def _find_generator(p, r, q, modulus):
        """The first element in coefficient order of order q - 1, that is
        whose power g^(n/l) is not 1 for any prime l | n: by builtin `pow`
        in a prime field, else by `_poly_generator`."""
        n = q - 1
        primes = list(factorize(n)) if n > 1 else []
        if r == 1:
            for g in range(1, p):
                if all(pow(g, n // ell, p) != 1 for ell in primes):
                    return (g,)
            raise RuntimeError(f"no generator found for q={q}")
        return _poly_generator(p, r, modulus, n, primes)

    # --- tables, each built on first read --------------------------------

    @functools.cached_property
    def coeff_rows(self) -> np.ndarray:
        """The (q, r) coefficient vectors in enumeration order: 0, then
        g^0 .. g^(n-1), by doubling. With P_m the matrix over F_p of
        multiplication by g^m, rows g^m .. g^(2m-1) are rows g^0 .. g^(m-1)
        times P_m, and P_2m = P_m^2: log2(n) steps. A product entry sums r
        terms below p^2, refused where that could pass int64."""
        p, r, n = self.p, self.r, self.n
        if (bound := r * (p - 1) ** 2) >= 2**63:
            raise ValueError(f"q = {self.q}: field products can reach {bound}, "
                             f"past the int64 limit 2^63 - 1")
        rows = np.zeros((self.q, r), dtype=np.int64)
        powers = rows[1:]
        powers[0, 0] = 1
        mat, m = _mul_matrix(self.generator_coeffs, self.params.modulus, p), 1
        while m < n:
            block = powers[m:2 * m]
            np.matmul(powers[:len(block)], mat, out=block)
            np.remainder(block, p, out=block)
            m *= 2
            if m < n:
                mat = mat @ mat % p
        return rows

    @functools.cached_property
    def place(self) -> np.ndarray:
        """The base-p place values: an element's code is coeffs @ place."""
        return self.p ** np.arange(self.r, dtype=np.int64)

    @functools.cached_property
    def _codes(self) -> np.ndarray:
        return self.coeff_rows @ self.place

    @functools.cached_property
    def code_index(self) -> np.ndarray:
        """The enumeration index of each element by its code, by one
        scatter; a RuntimeError unless the q codes are distinct."""
        codes, q = self._codes, self.q
        if np.count_nonzero(np.bincount(codes, minlength=q)) != q:
            raise RuntimeError("generator order check failed during build")
        index = np.empty(q, dtype=np.int64)
        index[codes] = np.arange(q)
        return index

    @functools.cached_property
    def neg_idx(self) -> np.ndarray:
        """The index of -x: log(-x) = log x + log(-1), and -0 = 0."""
        n = self.n
        return np.concatenate(([0], (np.arange(n) + self.log_minus_one) % n + 1))

    @functools.cached_property
    def one_minus_idx(self) -> np.ndarray:
        """The index of 1 - x = 1 + (-x): adding 1 changes only the constant
        coefficient, so the code of -x goes up by 1, or down by p - 1 where
        that coefficient is p - 1."""
        ng, p = self.neg_idx, self.p
        step = np.where(self.coeff_rows[ng, 0] == p - 1, 1 - p, 1)
        return self.code_index[self._codes[ng] + step]

    # --- element objects, each made on first read ----------------------

    def element(self, i: int) -> FieldElement:
        """The element of enumeration index i."""
        el = self._elements.get(i)
        if el is None:
            coeffs = tuple(self.coeff_rows[i].tolist())
            el = self._elements[i] = FieldElement(self.q, coeffs, i - 1 if i else None, i)
        return el

    @property
    def zero(self) -> FieldElement:
        return self.element(0)

    @property
    def one(self) -> FieldElement:
        return self.element(1)

    @property
    def generator(self) -> FieldElement:
        return self.from_coeffs(self.generator_coeffs)

    @functools.cached_property
    def elements(self) -> list[FieldElement]:
        """Every element in enumeration order: q objects, for the tests."""
        return [self.element(i) for i in range(self.q)]

    @functools.cached_property
    def exp_table(self) -> list[FieldElement]:
        """g^0 .. g^(n-1): `elements` without zero."""
        return self.elements[1:]

    def from_coeffs(self, coeffs) -> FieldElement:
        key = [c % self.p for c in coeffs]
        if len(key) > self.r:
            raise ValueError(f"coefficient vector longer than r = {self.r}")
        code = sum(c * self.p**i for i, c in enumerate(key))
        return self.element(int(self.code_index[code]))

    def from_int(self, v: int) -> FieldElement:
        """Residue v in the prime subfield."""
        return self.from_coeffs((v,))

    def describe(self) -> dict:
        gen = self.generator_coeffs
        return {
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "modulus": list(self.params.modulus),
            "generator": gen[0] if self.r == 1 else list(gen),
            "characters": self.n,
        }

    def __repr__(self):
        return f"FieldTable(q={self.q})"


def build_field(p: int, r: int, max_q: int | None = None) -> FieldTable:
    """Construct F_{p^r} deterministically; p prime, p^r within the table cap."""
    if not isinstance(p, int) or not isinstance(r, int):
        raise ValueError("p and r must be integers")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 1:
        raise ValueError(f"r = {r} must be positive")
    cap = DEFAULT_TABLE_CAP if max_q is None else max_q
    q = p**r
    if q > cap:
        raise ValueError(f"q = {q} exceeds the table cap {cap}")
    modulus = _find_modulus(p, r)
    return FieldTable(FieldParams(p=p, r=r, q=q, modulus=modulus))
