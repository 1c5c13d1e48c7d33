"""Point-sum vs character-sum routes for the 2F1 and F1 analogues."""

import functools
import itertools
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from appellfq import (
    AppellF1Params,
    Character,
    Hyp2F1Params,
    appell_f1_char_sum,
    appell_f1_point_sum,
    binom,
    binomial_table,
    build_field,
    cyc_zero,
    f21_char_sum,
    f21_point_sum,
)
from appellfq.cyclotomic import _ring
from appellfq.fields import prime_power_decompose
from appellfq.hypergeometric import (
    f1_charsum_idx,
    f1_point_idx,
    f21_charsum_idx,
    f21_point_idx,
)
from scalar_reference import all_roots


@pytest.fixture(scope="module")
def fields():
    return {q: build_field(p, r) for q, (p, r) in
            {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}.items()}


def _f21p(ft, a, b, c, xi):
    return f21_point_sum(
        Hyp2F1Params(Character(ft, a), Character(ft, b), Character(ft, c),
                     ft.elements[xi])
    )


def _f21c(ft, a, b, c, xi):
    return f21_char_sum(
        Hyp2F1Params(Character(ft, a), Character(ft, b), Character(ft, c),
                     ft.elements[xi])
    )


def _f1p(ft, a, b, bp, c, xi, yi):
    return appell_f1_point_sum(
        AppellF1Params(Character(ft, a), Character(ft, b), Character(ft, bp),
                       Character(ft, c), ft.elements[xi], ft.elements[yi])
    )


def _f1c(ft, a, b, bp, c, xi, yi):
    return appell_f1_char_sum(
        AppellF1Params(Character(ft, a), Character(ft, b), Character(ft, bp),
                       Character(ft, c), ft.elements[xi], ft.elements[yi])
    )


def test_zero_argument_gives_zero(fields):
    ft = fields[5]
    for a, b, c in itertools.product(range(4), repeat=3):
        assert _f21p(ft, a, b, c, 0).is_zero
        assert _f21c(ft, a, b, c, 0).is_zero
    for a, b, bp, c in itertools.product(range(4), repeat=4):
        assert _f1p(ft, a, b, bp, c, 0, 3).is_zero
        assert _f1p(ft, a, b, bp, c, 3, 0).is_zero
        assert _f1c(ft, a, b, bp, c, 0, 3).is_zero


def test_gauss_evaluation_at_one(fields):
    # 2F1[A,B;C;1] = A(-1) * binom(B, A~C)
    for ft in fields.values():
        chars = [Character(ft, e) for e in range(ft.n)]
        for a, b, c in itertools.product(range(ft.n), repeat=3):
            lhs = _f21p(ft, a, b, c, 1)
            rhs = chars[a].eval_minus_one() * binom(
                chars[b], chars[a].inverse() * chars[c]
            )
            assert lhs == rhs


def test_f21_routes_agree_exhaustive(fields):
    for q in (3, 4, 5):
        ft = fields[q]
        for a, b, c in itertools.product(range(ft.n), repeat=3):
            for xi in range(q):
                assert _f21p(ft, a, b, c, xi) == _f21c(ft, a, b, c, xi)


def test_f1_routes_agree_exhaustive(fields):
    for q in (3, 4):
        ft = fields[q]
        for a, b, bp, c in itertools.product(range(ft.n), repeat=4):
            for xi, yi in itertools.product(range(q), repeat=2):
                assert _f1p(ft, a, b, bp, c, xi, yi) == _f1c(ft, a, b, bp, c, xi, yi)


def test_f1_routes_agree_sampled_q7(fields):
    ft = fields[7]
    rng = random.Random(404)
    for _ in range(300):
        a, b, bp, c = (rng.randrange(6) for _ in range(4))
        xi, yi = rng.randrange(7), rng.randrange(7)
        assert _f1p(ft, a, b, bp, c, xi, yi) == _f1c(ft, a, b, bp, c, xi, yi)


def test_q5_point_equals_char_example(fields):
    ft = fields[5]
    assert _f21p(ft, 2, 2, 2, ft.from_int(2).index) == _f21c(
        ft, 2, 2, 2, ft.from_int(2).index
    )


def test_appell_symmetry(fields):
    for q in (4, 5):
        ft = fields[q]
        for a, b, bp, c in itertools.product(range(ft.n), repeat=4):
            for xi, yi in itertools.product(range(q), repeat=2):
                assert _f1p(ft, a, b, bp, c, xi, yi) == _f1p(
                    ft, a, bp, b, c, yi, xi
                )


def test_appell_diagonal_reduces_to_f21(fields):
    for q in (4, 5):
        ft = fields[q]
        for a, b, bp, c in itertools.product(range(ft.n), repeat=4):
            for xi in range(q):
                assert _f1p(ft, a, b, bp, c, xi, xi) == _f21p(
                    ft, (b + bp) % ft.n, a, c, xi
                )


def test_appell_y_equals_one(fields):
    for q in (4, 5):
        ft = fields[q]
        for a, b, bp, c in itertools.product(range(ft.n), repeat=4):
            for xi in range(q):
                lhs = _f1p(ft, a, b, bp, c, xi, 1)
                rhs = Character(ft, bp).eval_minus_one() * _f21p(
                    ft, b, a, (c - bp) % ft.n, xi
                )
                assert lhs == rhs


def _f1_charsum_reference(ft, a, b, bp, c, xi, yi):
    """Independent double loop over character pairs, CycInt arithmetic."""
    n = ft.n
    if xi == 0 or yi == 0:
        return cyc_zero(n)
    bt = binomial_table(ft)
    roots = all_roots(n)
    lx, ly = xi - 1, yi - 1
    total = cyc_zero(n)
    for k in range(n):
        for l in range(n):
            term = (
                bt[(a + k + l) % n][(c + k + l) % n]
                * bt[(b + k) % n][k]
                * bt[(bp + l) % n][l]
            )
            total = total + term * roots[(k * lx + l * ly) % n]
    return total


def test_f1_charsum_tensor_path_vs_reference(fields):
    for q in (4, 5):
        ft = fields[q]
        for a, b, bp, c in itertools.product(range(ft.n), repeat=4):
            for xi, yi in itertools.product(range(1, q), repeat=2):
                assert f1_charsum_idx(ft, a, b, bp, c, xi, yi) * ft.n ** 2 == \
                    _f1_charsum_reference(ft, a, b, bp, c, xi, yi)
    ft = fields[7]
    rng = random.Random(11)
    for _ in range(120):
        a, b, bp, c = (rng.randrange(6) for _ in range(4))
        xi, yi = rng.randrange(1, 7), rng.randrange(1, 7)
        assert f1_charsum_idx(ft, a, b, bp, c, xi, yi) * ft.n ** 2 == \
            _f1_charsum_reference(ft, a, b, bp, c, xi, yi)


def _f1_bindings(ft, rng, count):
    """`count` random (a, b, b', c, x, y) with x, y != 0, after bindings
    with trivial characters, x = y and x = 1 (index 1 is the element 1)."""
    n, q = ft.n, ft.q
    rand = [tuple(rng.randrange(n) for _ in range(4))
            + (rng.randrange(1, q), rng.randrange(1, q)) for _ in range(count)]
    x = rng.randrange(2, q)
    return [
        (0, 0, 0, 0, x, x), (0, 0, 0, 0, 1, x), (0, 0, 0, 0, 1, 1),
        rand[0][:4] + (x, x), rand[1][:4] + (1, x), rand[2][:4] + (1, 1),
    ] + rand


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_f1_charsum_vs_reference_extension_fields(p, r):
    ft = build_field(p, r)
    rng = random.Random(ft.q)
    for binding in _f1_bindings(ft, rng, 12):
        assert f1_charsum_idx(ft, *binding) * ft.n ** 2 == \
            _f1_charsum_reference(ft, *binding)


LARGE_Q = [(7, 2), (101, 1), (1021, 1), pytest.param(4099, 1, marks=pytest.mark.slow)]


@pytest.mark.parametrize("p,r", LARGE_Q)
def test_f1_charsum_vs_point_route_large_q(p, r):
    ft = build_field(p, r)
    rng = random.Random(ft.q)
    for binding in _f1_bindings(ft, rng, 10):
        assert f1_charsum_idx(ft, *binding) == f1_point_idx(ft, *binding)


@pytest.mark.parametrize("p,r", LARGE_Q)
def test_f21_charsum_vs_point_route_large_q(p, r):
    ft = build_field(p, r)
    rng = random.Random(ft.q)
    for a, b, _, c, xi, _ in _f1_bindings(ft, rng, 10):
        assert f21_charsum_idx(ft, a, b, c, xi) == f21_point_idx(ft, a, b, c, xi)


def test_f1_charsum_peak_memory_within_admitted_estimate():
    # its arrays are a few rows over the q - 2 binomial pairs, so a warm
    # call's peak is linear in q
    for q in (1021, 4099):
        ft = build_field(q, 1)
        args = (1, 2, 3, 4, 2, 3)
        f1_charsum_idx(ft, *args)  # the per-field caches belong to no one call
        tracemalloc.start()
        try:
            f1_charsum_idx(ft, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * q, (q, peak)


def _f21_charsum_reference(ft, a, b, c, xi):
    """Independent loop over characters, scalar binom and CycInt arithmetic."""
    A, B, C = Character(ft, a), Character(ft, b), Character(ft, c)
    x = ft.elements[xi]
    total = cyc_zero(ft.n)
    for k in range(ft.n):
        chi = Character(ft, k)
        total = total + binom(A * chi, chi) * binom(B * chi, C * chi) * chi(x)
    return total


def test_f21_charsum_vs_reference(fields):
    for q in (3, 4, 5, 7):
        ft = fields[q]
        for a, b, c in itertools.product(range(ft.n), repeat=3):
            for xi in range(q):
                assert f21_charsum_idx(ft, a, b, c, xi) * ft.n == \
                    _f21_charsum_reference(ft, a, b, c, xi)
    rng = random.Random(12)
    for p, r in ((2, 3), (3, 2), (5, 2)):
        ft = build_field(p, r)
        for _ in range(40):
            a, b, c = (rng.randrange(ft.n) for _ in range(3))
            xi = rng.randrange(ft.q)
            assert f21_charsum_idx(ft, a, b, c, xi) * ft.n == \
                _f21_charsum_reference(ft, a, b, c, xi)


def _charsum_columns(ft, chars, elems, count, rng):
    """Every binding as int64 columns at q <= 4, else `count` random ones:
    exponents in [-2n, 2n), as a side's sums and negations give them, and
    after row 0 the rows x = 0, x = 1, y = 0 and x = y."""
    shape = (ft.n,) * chars + (ft.q,) * elems
    if ft.q <= 4:
        return list(np.unravel_index(np.arange(np.prod(shape)), shape))
    cols = [rng.integers(-2 * ft.n, 2 * ft.n, count) for _ in range(chars)]
    cols += [rng.integers(0, ft.q, count) for _ in range(elems)]
    x = cols[chars]
    x[1], x[2] = 0, 1
    if elems == 2:
        y = cols[chars + 1]
        y[3], y[4] = 0, x[4]
    return cols


CHARSUMS = {  # kernel, its reference, characters, elements, random rows
    "f21": (f21_charsum_idx, _f21_charsum_reference, 3, 1, 30),
    "f1": (f1_charsum_idx, _f1_charsum_reference, 4, 2, 12),
}


# the F1 reference takes about 3 s a binding at q = 101
@pytest.mark.parametrize("name,q", [
    pytest.param(name, q, marks=pytest.mark.slow) if (name, q) == ("f1", 101)
    else (name, q) for name in CHARSUMS for q in (2, 3, 4, 16, 25, 27, 101)
])
def test_charsum_columns_vs_reference(name, q):
    """A character sum's column form, the kernel of `BatchContext`, times n
    (n^2 for F1) and reduced, against the independent loop over characters
    row by row; at q > 4 also with some arguments given as ints, which
    stand for every row, except for F1 at q = 101, which is checked on
    row 0 and the four boundary rows only."""
    kernel, reference, chars, elems, count = CHARSUMS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q = 2 warns
        ft = build_field(*prime_power_decompose(q))
    rows = _ring(ft.n).np_rows
    few = (name, q) == ("f1", 101)
    if few:
        count = 5
    cols = _charsum_columns(ft, chars, elems, count, np.random.default_rng(q))
    want = functools.cache(lambda *b: reference(ft, *b).coeffs)
    ints = [(), (0, len(cols) - 1), tuple(range(1, len(cols)))]
    for at in ints[:1] if q <= 4 or few else ints:
        args = [int(col[0]) if i in at else col for i, col in enumerate(cols)]
        got = kernel(ft, *args) @ rows * ft.n ** (chars - 2)
        assert got.shape == (len(cols[0]), rows.shape[1])
        for r, row in enumerate(got.tolist()):
            binding = [a if i in at else int(a[r]) for i, a in enumerate(args)]
            assert tuple(row) == want(*binding), (at, binding)


def _char_routes_match_point_routes(ft):
    """Both character routes equal the point routes on a few bindings;
    neither route has a size limit to refuse the field with."""
    for a, b, bp, c, xi, yi in ((1, 2, 3, 4, 2, 3), (0, 5, 0, 7, 9, 9)):
        assert f21_charsum_idx(ft, a, b, c, xi) == f21_point_idx(ft, a, b, c, xi)
        assert f1_charsum_idx(ft, a, b, bp, c, xi, yi) == \
            f1_point_idx(ft, a, b, bp, c, xi, yi)


def test_char_routes_match_point_routes_in_time_at_q7919():
    ft = build_field(7919, 1)
    # the character routes count in O(q) and reduce in Python ints, so no
    # int64 bound applies to them
    t0 = time.perf_counter()
    _char_routes_match_point_routes(ft)
    assert time.perf_counter() - t0 < 4
    ft = build_field(101, 1)
    args = (Character(ft, 1), Character(ft, 2), Character(ft, 3), Character(ft, 4),
            ft.elements[2], ft.elements[3])
    assert appell_f1_char_sum(AppellF1Params(*args)) == \
        appell_f1_point_sum(AppellF1Params(*args))


def test_char_routes_match_point_routes_in_time_at_q6199():
    ft = build_field(6199, 1)
    # the character routes need O(q) memory and never build reduction rows
    t0 = time.perf_counter()
    _char_routes_match_point_routes(ft)
    assert time.perf_counter() - t0 < 4
    assert "np_rows" not in vars(_ring(ft.n)) and "rows" not in ft._caches


def test_params_validation():
    ft3, ft5 = build_field(3, 1), build_field(5, 1)
    with pytest.raises(ValueError):
        Hyp2F1Params(
            Character(ft3, 0), Character(ft5, 0), Character(ft5, 0), ft5.one
        )
    with pytest.raises(ValueError):
        AppellF1Params(
            Character(ft5, 0), Character(ft5, 0), Character(ft5, 0),
            Character(ft5, 0), ft3.one, ft5.one,
        )
