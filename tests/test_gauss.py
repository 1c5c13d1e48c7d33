"""Gauss sums as an oracle that does not read the Zech-log table.

Every route of the package, and the Fourier check of the verifier, is
built on one table, `FieldTable.one_minus_idx`. These tests check the
Jacobi sums against Gauss sums computed from the element coefficients,
the modulus and the exponent table alone:

    g(A) = sum over x != 0 of A(x) zeta_p^Tr(x),  in Z[zeta_{p n}],

with the trace Tr(x) = x + x^p + ... + x^(p^(r-1)) computed here by
polynomial arithmetic mod the field's modulus, and assert

    g(A) g(B) = J(A, B) g(AB)   for AB nontrivial,
    g(A) g(A~) = A(-1) q        for A nontrivial

(Berndt, Evans and Williams, *Gauss and Jacobi Sums*, 1998, Theorems
1.1.4 and 2.1.3, with the convention chi(0) = 0 for every character).
"""

import itertools

import numpy as np
import pytest

from appellfq import build_field
from appellfq.characters import Character, jacobi_sum
from appellfq.cyclotomic import CycInt
from appellfq.fields import prime_power_decompose

EXHAUSTIVE_Q = (3, 4, 5, 7, 8, 9)
SAMPLED_Q = (16, 25, 27)


def _mulmod(a, b, modulus, p):
    """a b mod (modulus, p), polynomials low-to-high, modulus monic."""
    r = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    for k in range(len(out) - 1, r - 1, -1):
        c = out[k]
        if c:
            for i, m in enumerate(modulus):
                out[k - r + i] = (out[k - r + i] - c * m) % p
    return (out + [0] * r)[:r]


def _traces(ft):
    """Tr(x) mod p of every element, in enumeration order."""
    p, r, modulus = ft.p, ft.r, list(ft.params.modulus)
    basis = []  # Tr(alpha^i), i < r
    for i in range(r):
        y = [0] * r
        y[i] = 1
        total = [0] * r
        for _ in range(r):
            total = [(s + t) % p for s, t in zip(total, y)]
            power = [1] + [0] * (r - 1)
            for _ in range(p):
                power = _mulmod(power, y, modulus, p)
            y = power
        assert not any(total[1:]), "a trace lies in F_p"
        basis.append(total[0])
    return [sum(c * t for c, t in zip(el.coeffs, basis)) % p for el in ft.elements]


class _Gauss:
    """Gauss sums of one field in Z[zeta_{p n}], and the embedding of
    Z[zeta_n] in it, zeta_n = zeta_{p n}^p."""

    def __init__(self, ft):
        self.ft, self.m = ft, ft.p * ft.n
        self.traces = _traces(ft)

    def g(self, a):
        ft, m = self.ft, self.m
        counts = [0] * m
        for i in range(1, ft.q):  # index i > 0 has discrete log i - 1
            counts[(ft.p * a * (i - 1) + ft.n * self.traces[i]) % m] += 1
        return CycInt.from_powers(m, counts)

    def embed(self, v: CycInt) -> CycInt:
        counts = [0] * self.m
        for i, c in enumerate(v.coeffs):
            counts[self.ft.p * i] += c
        return CycInt.from_powers(self.m, counts)


def _failures(ft, pairs):
    """The (a, b) of `pairs` at which either relation fails."""
    G, n, q = _Gauss(ft), ft.n, ft.q
    gauss = {a: G.g(a) for a in range(n)}
    bad = []
    for a, b in pairs:
        A, B = Character(ft, a), Character(ft, b)
        if (a + b) % n and gauss[a] * gauss[b] != G.embed(jacobi_sum(A, B)) * gauss[(a + b) % n]:
            bad.append((a, b))
        if a % n and b == 0 and gauss[a] * gauss[-a % n] != G.embed(A.eval_minus_one()) * q:
            bad.append((a, b))
    return bad


def _field(q):
    return build_field(*prime_power_decompose(q))


@pytest.mark.parametrize("q", EXHAUSTIVE_Q)
def test_gauss_sums_give_every_jacobi_sum(q):
    ft = _field(q)
    assert _failures(ft, itertools.product(range(ft.n), repeat=2)) == []


@pytest.mark.parametrize("q", SAMPLED_Q)
def test_gauss_sums_give_sampled_jacobi_sums(q):
    ft = _field(q)
    rng = np.random.default_rng(q)
    pairs = [(int(a), int(b)) for a, b in rng.integers(0, ft.n, (40, 2))]
    pairs += [(a, 0) for a in range(1, ft.n)]  # g(A) g(A~) at every A
    assert _failures(ft, pairs) == []


@pytest.mark.parametrize("q", [7, 9])
def test_a_swapped_one_minus_entry_fails(q):
    # two entries of the Zech-log table swapped, before any table derived
    # from it is built: the Jacobi sums move, the Gauss sums do not
    ft = _field(q)
    om = ft.one_minus_idx
    om[2], om[3] = om[3], om[2]
    assert _failures(ft, itertools.product(range(ft.n), repeat=2))
