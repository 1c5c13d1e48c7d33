"""Generating-function left sides (thm4.*) and the group-ring contraction.

The left sides are computed from two theta histograms and one `ring_dot`;
here they are checked against the plain theta loop over scalar point sums,
and `ring_dot` against a `CycInt` product-sum.
"""

import itertools
import random
import warnings

import numpy as np
import pytest

from appellfq import build_field, get_identity
from appellfq.cyclotomic import CycInt, cyc_zero, root_of_unity
from appellfq.fields import prime_power_decompose
from appellfq.hypergeometric import f1_point_idx, f21_point_idx, ring_dot
from appellfq.identities import EvalContext


def _field(q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q = 2 warns
        return build_field(*prime_power_decompose(q))


# The shifted point sum of each left side, as (X, S(theta)) of
# sum_theta [X theta|theta] S(theta) theta(t).
def _thm41(c, A, B, Bp, C, x, y, t):
    return A - C, lambda th: f1_point_idx(c.ft, A + th, B, Bp, C, x, y)


def _thm42(c, A, B, Bp, C, x, y, t):
    return B, lambda th: f1_point_idx(c.ft, A, B + th, Bp, C, x, y)


def _thm43a(c, A, B, C, x, t):
    return A - C, lambda th: f21_point_idx(c.ft, B, A + th, C, x)


def _thm43b(c, A, B, C, x, t):
    return B, lambda th: f21_point_idx(c.ft, B + th, A, C, x)


SHIFTS = {"thm4.1": _thm41, "thm4.2": _thm42, "thm4.3-a": _thm43a, "thm4.3-b": _thm43b}


def _reference(c, identity_id, binding):
    """sum over theta of binom * point sum * root, in scalar CycInt steps."""
    X, term = SHIFTS[identity_id](c, *binding)
    t = binding[-1]
    if t == 0:
        return cyc_zero(c.n)
    total = cyc_zero(c.n)
    for th in range(c.n):
        total = total + c.binom(X + th, th) * term(th) * root_of_unity(
            c.n, th * (t - 1))
    return total


def _bindings(entry, ft, limit, rng):
    """Every binding over all elements (t = 1 included) when there are at
    most `limit`, else `limit` random ones plus each with an element 0."""
    k, m = len(entry.chars), len(entry.elems)
    if ft.n**k * ft.q**m <= limit:
        return [a + e for a in itertools.product(range(ft.n), repeat=k)
                for e in itertools.product(range(ft.q), repeat=m)]
    out = []
    for i in range(limit):
        chars = tuple(rng.randrange(ft.n) for _ in range(k))
        elems = [rng.randrange(ft.q) for _ in range(m)]
        if i < 3 * m:  # zero each element in turn, then pairs of them
            elems[i % m] = 0
            if i >= m:
                elems[(i + 1) % m] = 0
        out.append(chars + tuple(elems))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("identity_id", sorted(SHIFTS))
def test_theta_sum_matches_theta_loop_small_q(identity_id, q):
    ft = _field(q)
    c = EvalContext(ft)
    entry = get_identity(identity_id)
    bindings = _bindings(entry, ft, 2000, random.Random(q))
    assert any(0 in b[len(entry.chars):] for b in bindings)
    for b in bindings:
        assert entry.lhs(c, b) == _reference(c, identity_id, b), b


@pytest.mark.parametrize("q,count", [(16, 60), (25, 60), (101, 8)])
@pytest.mark.parametrize("identity_id", sorted(SHIFTS))
def test_theta_sum_matches_theta_loop_sampled(identity_id, q, count):
    ft = _field(q)
    c = EvalContext(ft)
    entry = get_identity(identity_id)
    for b in _bindings(entry, ft, count, random.Random(1000 + q)):
        assert entry.lhs(c, b) == _reference(c, identity_id, b), b


@pytest.mark.parametrize("q", [2, 3, 5, 25, 101])  # n = 1, 2, 4, 24, 100
def test_ring_dot_matches_cycint_product_sum(q):
    ft = _field(q)
    n = ft.n
    rng = np.random.default_rng(q)
    for rows in (1, 3, n):
        U = rng.integers(-50, 50, size=(rows, n))
        V = rng.integers(0, 50, size=(rows, n))
        got = ring_dot(ft, U, V)
        # the unreduced group-ring sum, term by term
        want = [sum(int(U[k, i]) * int(V[k, (m - i) % n])
                    for k in range(rows) for i in range(n)) for m in range(n)]
        assert got.tolist() == want
        total = cyc_zero(n)
        for k in range(rows):
            total = total + (CycInt.from_powers(n, U[k].tolist())
                             * CycInt.from_powers(n, V[k].tolist()))
        assert CycInt.from_powers(n, got.tolist()) == total
