"""Field construction and its tables, against polynomial arithmetic over
F_p mod the field's modulus written here."""

import itertools

import numpy as np
import pytest

from appellfq import build_field, is_prime, prime_power_decompose
from appellfq.fields import DEFAULT_TABLE_CAP, _find_modulus
from appellfq.identities import BatchContext

SMALL_QS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.fixture(scope="module")
def fields():
    return {p**r: build_field(p, r) for p, r in SMALL_QS}


def test_build_examples(fields):
    ft3 = fields[3]
    assert ft3.generator.coeffs == (2,)
    # oracle: 2 is the first element of multiplicative order 2 in F_3
    assert pow(2, 1, 3) != 1 and pow(2, 2, 3) == 1

    ft4 = fields[4]
    assert ft4.params.modulus == (1, 1, 1)  # x^2 + x + 1, the only one

    ft5 = fields[5]
    assert ft5.generator.coeffs == (2,)
    # oracle: direct order computation of every candidate below 2
    assert pow(2, 4, 5) == 1 and pow(2, 2, 5) != 1 and pow(2, 1, 5) != 1


def test_enumeration_order(fields):
    assert [e.coeffs[0] for e in fields[3].elements] == [0, 1, 2]
    assert len(set(fields[4].elements)) == 4
    # zero first, then powers of the generator 2
    assert [e.coeffs[0] for e in fields[5].elements] == [0, 1, 2, 4, 3]


def test_element_index_and_log(fields):
    for ft in fields.values():
        assert ft.elements[0].is_zero()
        for i, el in enumerate(ft.elements):
            assert el.index == i
            if i > 0:
                assert el.log == i - 1
                assert ft.exp_table[el.log] is el


def _unit(ft, v):
    """The prime-field residue v as a coefficient tuple."""
    return (v % ft.p,) + (0,) * (ft.r - 1)


def _add(ft, a, b):
    """a + b on coefficient tuples over F_p."""
    return tuple((x + y) % ft.p for x, y in zip(a, b))


def _sub(ft, a, b):
    """a - b on coefficient tuples over F_p."""
    return tuple((x - y) % ft.p for x, y in zip(a, b))


def _poly_mul(ft, a, b):
    """a * b on coefficient tuples: the product over F_p reduced mod the
    monic modulus by x^r = -(m_0 + m_1 x + ... + m_(r-1) x^(r-1))."""
    p, r, m = ft.p, ft.r, ft.params.modulus
    prod = [0] * (2 * r - 1)
    for i, j in itertools.product(range(r), repeat=2):
        prod[i + j] += a[i] * b[j]
    for k in range(2 * r - 2, r - 1, -1):
        top, prod[k] = prod[k], 0
        for i in range(r):
            prod[k - r + i] -= top * m[i]
    return tuple(c % p for c in prod[:r])


def _poly_pow(ft, a, k):
    out = _unit(ft, 1)
    for _ in range(k):
        out = _poly_mul(ft, out, a)
    return out


def _mul(ft, a, b):
    """a * b by the field's exp/log tables."""
    if a.is_zero() or b.is_zero():
        return ft.zero
    return ft.exp_table[(a.log + b.log) % ft.n]


def test_field_axioms_exhaustive(fields):
    # the exp/log product distributes over coefficient-vector addition,
    # and every element has its inverses
    for ft in fields.values():
        els = ft.elements
        for a, b, c in itertools.product(els, repeat=3):
            bc = ft.from_coeffs(_add(ft, b.coeffs, c.coeffs))
            ab, ac = _mul(ft, a, b), _mul(ft, a, c)
            assert _mul(ft, a, bc) is ft.from_coeffs(_add(ft, ab.coeffs, ac.coeffs))
        for a in els:
            assert _add(ft, a.coeffs, els[ft.neg_idx[a.index]].coeffs) == _unit(ft, 0)
            if not a.is_zero():
                inv = ft.exp_table[-a.log % ft.n]
                assert _poly_mul(ft, a.coeffs, inv.coeffs) == _unit(ft, 1)


def test_exp_log_roundtrip(fields):
    # the exp table against products of polynomials mod the modulus
    for ft in fields.values():
        exp = ft.exp_table
        assert exp[0].coeffs == _unit(ft, 1)
        for el in ft.elements[1:]:
            assert exp[el.log] is el
        for i, j in itertools.product(range(ft.n), repeat=2):
            want = _poly_mul(ft, exp[i].coeffs, exp[j].coeffs)
            assert exp[(i + j) % ft.n].coeffs == want


def test_generator_order_is_exact(fields):
    for ft in fields.values():
        n, g = ft.n, ft.generator.coeffs
        for d in range(1, n):
            if n % d == 0:
                assert _poly_pow(ft, g, d) != _unit(ft, 1)
        assert _poly_pow(ft, g, n) == _unit(ft, 1)


def test_frobenius(fields):
    for ft in fields.values():
        for el in ft.elements:
            assert _poly_pow(ft, el.coeffs, ft.q) == el.coeffs
            if not el.is_zero():
                frob = ft.exp_table[el.log * ft.p % ft.n]
                assert _poly_pow(ft, el.coeffs, ft.p) == frob.coeffs


def test_one_minus_and_neg_tables(fields):
    for ft in fields.values():
        one = _unit(ft, 1)
        for el in ft.elements:
            assert ft.elements[ft.one_minus_idx[el.index]].coeffs == \
                _sub(ft, one, el.coeffs)
            assert ft.elements[ft.neg_idx[el.index]].coeffs == \
                _sub(ft, _unit(ft, 0), el.coeffs)
        assert ft.exp_table[ft.log_minus_one].coeffs == _unit(ft, -1)


def test_index_ops_match_element_ops(fields):
    # `BatchContext.sub`/`div` on enumeration indices against the
    # polynomial arithmetic above
    for ft in fields.values():
        els, bc = ft.elements, BatchContext(ft)
        i, j = np.divmod(np.arange(ft.q * ft.q), ft.q)
        for a, b, d in zip(i.tolist(), j.tolist(), bc.sub(i, j).tolist()):
            assert els[d].coeffs == _sub(ft, els[a].coeffs, els[b].coeffs)
        i, j = i[j != 0], j[j != 0]
        for a, b, d in zip(i.tolist(), j.tolist(), bc.div(i, j).tolist()):
            assert _poly_mul(ft, els[d].coeffs, els[b].coeffs) == els[a].coeffs


def test_extension_field_mul():
    ft = build_field(2, 2)  # F_4 = F_2[x]/(x^2+x+1)
    x = ft.from_coeffs((0, 1))
    assert _mul(ft, x, x) == ft.from_coeffs((1, 1))  # x^2 = x + 1
    assert _poly_mul(ft, x.coeffs, x.coeffs) == (1, 1)


def test_one_minus_one_is_zero(fields):
    for ft in fields.values():
        assert ft.one_minus_idx[ft.one.index] == 0


def test_mul_simple():
    ft = build_field(5, 1)
    assert _mul(ft, ft.from_int(2), ft.from_int(3)) == ft.from_int(1)


def test_errors():
    with pytest.raises(ValueError):
        build_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        build_field(5, 0)
    with pytest.raises(ValueError):
        build_field(2, 17)  # 2^17 over default cap
    with pytest.raises(ValueError):
        build_field(2, 5, max_q=16)
    ft = build_field(5, 1)
    with pytest.raises(ZeroDivisionError):
        BatchContext(ft).div(1, 0)
    with pytest.raises(ValueError):
        ft.from_coeffs((1, 2))  # too many coefficients


def test_q2_degenerate_warns():
    with pytest.warns(RuntimeWarning):
        ft = build_field(2, 1)
    assert ft.n == 1


def test_determinism():
    a = build_field(3, 2)
    b = build_field(3, 2)
    assert a.params == b.params
    assert a.generator == b.generator
    assert [e.coeffs for e in a.elements] == [e.coeffs for e in b.elements]


def test_modulus_is_lex_first_irreducible():
    # degree-2 over F_3: enumerate in constant-term-first order and pick the
    # first with no root (degree 2 irreducible iff rootless)
    def has_root(c0, c1):
        return any((v * v + c1 * v + c0) % 3 == 0 for v in range(3))

    expected = next(
        (c0, c1, 1)
        for c0, c1 in itertools.product(range(3), repeat=2)
        if not has_root(c0, c1)
    )
    assert _find_modulus(3, 2) == expected
    assert build_field(3, 2).params.modulus == expected


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]


def test_prime_power_decompose():
    assert prime_power_decompose(4) == (2, 2)
    assert prime_power_decompose(16) == (2, 4)
    assert prime_power_decompose(25) == (5, 2)
    assert prime_power_decompose(7) == (7, 1)
    for bad in (1, 12, 100):
        with pytest.raises(ValueError):
            prime_power_decompose(bad)


def test_describe():
    doc = build_field(5, 1).describe()
    assert doc == {
        "p": 5,
        "r": 1,
        "q": 5,
        "modulus": [0, 1],
        "generator": 2,
        "characters": 4,
    }


def test_table_cap_default():
    assert DEFAULT_TABLE_CAP == 1 << 16
