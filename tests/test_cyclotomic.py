"""Cyclotomic integer ring: canonical forms, exact ops, Galois action."""

import math
import random

import numpy as np
import pytest

from appellfq import (
    CycInt,
    cyc_one,
    cyc_zero,
    cyclotomic_poly,
    euler_phi,
    root_of_unity,
)
from appellfq.cyclotomic import _ring, _Ring


def _naive_cyclotomic(n, _cache={}):
    """Oracle: divide x^n - 1 by Phi_d for every proper divisor d."""
    if n in _cache:
        return _cache[n]
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _naive_cyclotomic(d)
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(poly) - 1, len(den) - 2, -1):
                c = poly[i]
                if c == 0:
                    continue
                out[i - len(den) + 1] = c
                for j, dj in enumerate(den):
                    poly[i - len(den) + 1 + j] -= c * dj
            poly = out
    _cache[n] = poly
    return poly


def test_cyclotomic_poly_known_values():
    assert cyclotomic_poly(1) == (-1, 1)  # x - 1
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)  # x^2 + 1
    assert cyclotomic_poly(6) == (1, -1, 1)  # x^2 - x + 1
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_poly_vs_naive_divide_down():
    for n in range(1, 41):
        assert list(cyclotomic_poly(n)) == _naive_cyclotomic(n)
        assert len(cyclotomic_poly(n)) == euler_phi(n) + 1


def test_root_of_unity_values():
    assert root_of_unity(4, 2) == CycInt(4, (-1, 0))
    assert root_of_unity(6, 3).as_integer() == -1
    for n in (1, 2, 3, 4, 6, 8, 12):
        assert root_of_unity(n, n) == cyc_one(n)
        assert root_of_unity(n, 0) == cyc_one(n)


def test_high_powers_wrap():
    for n in (4, 6, 8, 12):
        for k in range(2 * n):
            assert root_of_unity(n, k) == root_of_unity(n, k % n)


def test_phi_n_vanishes_at_zeta():
    for n in (2, 3, 4, 6, 8, 12, 15):
        poly = cyclotomic_poly(n)
        acc = cyc_zero(n)
        for i, c in enumerate(poly):
            acc = acc + root_of_unity(n, i) * c
        assert acc.is_zero


def _random_cyc(rng, n):
    phi = euler_phi(n)
    return CycInt(n, tuple(rng.randint(-50, 50) for _ in range(phi)))


def test_ring_axioms_seeded():
    rng = random.Random(20240811)
    for n in (2, 4, 6, 8, 12):
        for _ in range(60):
            a, b, c = (_random_cyc(rng, n) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == cyc_zero(n)
            assert a * cyc_one(n) == a


def test_canonicality():
    # zeta^j with j >= phi(n) compares equal to its reduced representation
    for n in (4, 6, 8, 12):
        for j in range(n):
            weights = [0] * n
            weights[j] = 1
            assert CycInt.from_powers(n, weights) == root_of_unity(n, j)
    # Eisenstein relation: 1 + zeta_3 + zeta_3^2 = 0
    s = cyc_one(3) + root_of_unity(3, 1) + root_of_unity(3, 2)
    assert s.is_zero


def test_mul_example_n6():
    z = root_of_unity(6, 1)
    assert z * z == CycInt(6, (-1, 1))  # x^2 mod x^2 - x + 1 = x - 1


def test_scalar_roundtrip():
    rng = random.Random(7)
    for n in (2, 4, 6, 12):
        for _ in range(20):
            a = _random_cyc(rng, n)
            m = rng.choice([1, -1, 2, 3, 17])
            assert (a * m).coeffs == tuple(c * m for c in a.coeffs)
            assert m * a == a * m == a * CycInt.from_int(n, m)


def test_galois():
    z = root_of_unity(4, 1)
    assert z.galois(3) == -z  # complex conjugation on Z[i]
    assert CycInt.from_int(4, 9).galois(3) == 9  # integers are fixed
    rng = random.Random(99)
    for _ in range(40):
        a = _random_cyc(rng, 12)
        b = _random_cyc(rng, 12)
        for k in (1, 5, 7, 11):
            assert a.galois(k) * b.galois(k) == (a * b).galois(k)
            for kp in (5, 7):
                assert a.galois(k).galois(kp) == a.galois((k * kp) % 12)
        assert a.galois(1) == a
    with pytest.raises(ValueError):
        root_of_unity(6, 1).galois(2)


def test_as_integer():
    assert cyc_zero(4).as_integer() == 0
    assert root_of_unity(4, 1).as_integer() is None
    assert (root_of_unity(3, 1) + root_of_unity(3, 2)).as_integer() == -1


def test_mixed_ring_rejected():
    with pytest.raises(ValueError):
        root_of_unity(4, 1) + root_of_unity(6, 1)


def test_int_coercion():
    v = root_of_unity(4, 1)
    assert v + 0 == v
    assert 1 + v == v + cyc_one(4)
    assert 3 * v == v * 3
    assert v - v == 0
    assert (2 - cyc_one(4)).as_integer() == 1


def test_json_roundtrip_huge_coefficients():
    big = 10**40
    v = CycInt(8, (big, -big - 1, 3, 0))
    doc = v.to_json()
    assert doc["n"] == 8
    assert doc["coeffs"][0] == str(big)
    assert CycInt.from_json(doc) == v


def test_immutability():
    v = cyc_one(4)
    with pytest.raises(AttributeError):
        v.coeffs = (0, 0)


def test_repr_forms():
    assert "3" in repr(CycInt.from_int(6, 3))
    assert "z" in repr(root_of_unity(8, 1))


# large n: Phi_1025 (phi = 800) has 65 nonzero terms, Phi_1155 (phi = 480)
# has 343 with coefficients up to 3; sympy's remainder at 1025 takes seconds
ORACLE_N = list(range(1, 61)) + [100, pytest.param(1025, marks=pytest.mark.slow), 1155]


def _sympy_rem(sympy, n, poly):
    """Oracle: the power-basis coefficients of poly mod Phi_n, via sympy."""
    x = sympy.Symbol("x")
    rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(n, x), x))
    low_to_high = [int(c) for c in reversed(rem.all_coeffs())]
    return tuple(low_to_high + [0] * (euler_phi(n) - len(low_to_high)))


@pytest.mark.parametrize("n", ORACLE_N)
def test_kernel_matches_sympy_oracle(n):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def poly(terms):
        return sympy.Poly.from_dict(dict(((k,), c) for k, c in terms) or {(0,): 0}, x)

    rng = random.Random(n)
    big = 10**30  # far outside int64: a truncating fast path cannot pass
    phi = euler_phi(n)

    weights = [rng.randint(-big, big) for _ in range(n)]
    assert CycInt.from_powers(n, weights).coeffs == _sympy_rem(
        sympy, n, poly(enumerate(weights))
    )

    a = [rng.randint(-big, big) for _ in range(phi)]
    b = [rng.randint(-big, big) for _ in range(phi)]
    sparse = [0] * phi
    for i in rng.sample(range(phi), min(phi, 3)):
        sparse[i] = rng.choice((-big, big + 1))
    k = rng.randrange(n)
    root = root_of_unity(n, k).coeffs
    assert root == _sympy_rem(sympy, n, poly([(k, 1)]))
    for u, v in [(a, b), (a, sparse), (sparse, sparse), (a, root)]:
        want = _sympy_rem(sympy, n, poly(enumerate(u)) * poly(enumerate(v)))
        assert (CycInt(n, u) * CycInt(n, v)).coeffs == want
        assert (CycInt(n, v) * CycInt(n, u)).coeffs == want

    for g in [g for g in range(1, n) if math.gcd(g, n) == 1][:3]:
        image = [(i * g, c) for i, c in enumerate(a)]  # g is a unit: no clashes
        assert CycInt(n, a).galois(g).coeffs == _sympy_rem(sympy, n, poly(image))


# the recurrence against one exact reduction per row; n = 1155 = 3*5*7*11
# has max |row| = 9, and 252 and 1020 have repeated prime factors
@pytest.mark.parametrize("n", list(range(1, 201)) + [252, 1020, 1155])
def test_np_rows_are_reduced_roots(n):
    rows = _ring(n).np_rows
    assert rows.shape == (n, euler_phi(n))
    for j in range(n):
        assert tuple(int(v) for v in rows[j]) == root_of_unity(n, j).coeffs
    assert _ring(n).row_max == max(abs(int(v)) for v in rows.flat)


def test_np_rows_refuse_to_pass_int64():
    # phi(30) = 8; with the tail scaled by 2^61, z^8 has entries 2^61 and
    # z^9 could reach 2^122, so the second step refuses before it is taken
    ring = _Ring(30)
    ring.tail = tuple((i, t * 2**61) for i, t in ring.tail)
    with pytest.raises(ValueError, match=r"n = 30: reducing z\^9 .*2\^63"):
        ring.np_rows


def _cyclic(poly, g, n):
    """poly * g mod x^n - 1, as n counts."""
    out = [0] * n
    for i, a in enumerate(poly):
        for j, b in enumerate(g):
            out[(i + j) % n] += a * b
    return out


# the zero test against reduction by the rows, at every n up to 79, at
# n = 100 (squared primes) and at n with three or four primes (105, 210,
# 1155)
@pytest.mark.parametrize("n", list(range(1, 80)) + [100, 105, 210, 1155])
def test_vanishes_agrees_with_the_reduction_rows(n):
    ring, rng = _ring(n), np.random.default_rng(n)
    phi_n = cyclotomic_poly(n)
    multiples = np.array([_cyclic(phi_n, rng.integers(-3, 4, n).tolist(), n)
                          for _ in range(10)])
    # a multiple plus one term is nonzero
    off = multiples.copy()
    off[np.arange(10), rng.integers(0, n, 10)] += rng.choice([-2, -1, 1, 2], 10)
    a = np.concatenate((np.zeros((1, n), dtype=np.int64), multiples, off,
                        rng.integers(-3, 4, (20, n))))
    want = ~(a @ ring.np_rows).any(axis=1)
    assert want[:11].all() and not want[11:21].any()
    assert (ring.vanishes(a) == want).all()
    # (x^n - 1) / Phi_n, the product of every other Phi_d with d | n, is
    # not 0 at zeta_n
    psi = [1]
    for d in range(1, n):
        if n % d == 0:
            psi = np.convolve(psi, cyclotomic_poly(d)).tolist()
    assert not ring.vanishes(np.array([_cyclic(psi, [1], n)]))[0]
