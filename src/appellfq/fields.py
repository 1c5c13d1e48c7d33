"""Finite fields F_{p^r} with generator-relative exp/log tables.

A field is fully materialized at construction: every element exists as a
canonical object with its coefficient vector over F_p and its discrete log
against a fixed generator, and the tables of 1 - x and -x are built once.
The evaluators do their arithmetic on enumeration indices and these tables
(`identities.BatchContext`), not on element objects.

Construction is deterministic. The modulus is the lexicographically first
monic irreducible polynomial of degree r (coefficient tuples ordered with
the constant term first), and the generator is the first element in
coefficient order whose multiplicative order is exactly q - 1. Identities
computed downstream are isomorphism-invariant, so the model only matters
for reproducible output.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

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
    num = list(num)
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        f = (c * inv_lead) % p
        for j, dj in enumerate(den):
            num[i - dd + j] = (num[i - dd + j] - f * dj) % p
    return _poly_trim(num[:dd])


def _poly_mulmod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, modulus, p)


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
    """Materialized F_q: canonical elements plus exp/log/one-minus tables.

    Immutable after construction; safe for concurrent reads. Enumeration
    order is zero first, then powers of the generator (exp-table order),
    so element index i > 0 has discrete log i - 1.
    """

    def __init__(self, params: FieldParams):
        self.params = params
        p, r, q = params.p, params.r, params.q
        self.p, self.r, self.q = p, r, q
        self.n = q - 1  # order of the multiplicative group
        modulus = params.modulus

        by_coeffs: dict[tuple, FieldElement] = {}
        zero = FieldElement(q, (0,) * r, None, 0)
        by_coeffs[zero.coeffs] = zero

        gen_coeffs = self._find_generator(p, r, q, modulus)

        # exp table: g^0 .. g^{q-2}
        exp_coeffs = [(1,) + (0,) * (r - 1)]
        cur = list(exp_coeffs[0])
        g = list(gen_coeffs)
        for _ in range(self.n - 1):
            cur = _poly_mulmod(cur, g, modulus, p)
            cur = cur + [0] * (r - len(cur))
            exp_coeffs.append(tuple(cur))

        exp_table = []
        for k, coeffs in enumerate(exp_coeffs):
            el = FieldElement(q, coeffs, k, k + 1)
            exp_table.append(el)
            by_coeffs[coeffs] = el

        self.zero = zero
        self.one = exp_table[0]
        self.generator = by_coeffs[gen_coeffs]
        self.exp_table = exp_table
        self.elements = [zero] + exp_table  # enumeration order
        self._by_coeffs = by_coeffs

        if len(by_coeffs) != q:
            raise RuntimeError("generator order check failed during build")

        # index tables for 1 - x and -x
        one_c = self.one.coeffs
        self.one_minus_idx = [
            by_coeffs[tuple((oc - c) % p for oc, c in zip(one_c, el.coeffs))].index
            for el in self.elements
        ]
        self.neg_idx = [
            by_coeffs[tuple((-c) % p for c in el.coeffs)].index
            for el in self.elements
        ]
        self.log_minus_one = self.elements[self.neg_idx[1]].log  # log(-1)

        self._caches: dict = {}

        if q == 2:
            warnings.warn(
                "q = 2 is degenerate: the character group is trivial",
                RuntimeWarning,
                stacklevel=3,
            )

    @staticmethod
    def _find_generator(p, r, q, modulus):
        n = q - 1
        prime_facs = list(factorize(n)) if n > 1 else []

        def poly_pow(base, e):
            result = [1]
            b = list(base)
            while e:
                if e & 1:
                    result = _poly_mulmod(result, b, modulus, p)
                b = _poly_mulmod(b, b, modulus, p)
                e >>= 1
            return result

        for tail in itertools.product(range(p), repeat=r):
            if not any(tail):
                continue
            cand = list(tail)
            if any(poly_pow(cand, n // ell) == [1] for ell in prime_facs):
                continue
            return tuple(tail)
        raise RuntimeError(f"no generator found for q={q}")

    # --- element constructors -----------------------------------------

    def from_coeffs(self, coeffs) -> FieldElement:
        key = tuple(c % self.p for c in coeffs)
        if len(key) > self.r:
            raise ValueError(f"coefficient vector longer than r = {self.r}")
        if len(key) < self.r:
            key = key + (0,) * (self.r - len(key))
        return self._by_coeffs[key]

    def from_int(self, v: int) -> FieldElement:
        """Residue v in the prime subfield."""
        return self.from_coeffs((v % self.p,) + (0,) * (self.r - 1))

    def describe(self) -> dict:
        gen = self.generator
        return {
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "modulus": list(self.params.modulus),
            "generator": gen.coeffs[0] if self.r == 1 else list(gen.coeffs),
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
