"""Generating-function left sides (thm4.*) and the slope join.

Each left side is one `_join` of the binomial row with the point-sum row
on their slopes; here they are checked against the plain theta loop over
scalar point sums, and `_join` against enumeration of all pairs.
"""

import itertools
import random
import warnings

import numpy as np
import pytest

from appellfq import build_field, get_identity
from appellfq.cyclotomic import cyc_zero, root_of_unity
from appellfq.fields import prime_power_decompose
from appellfq.hypergeometric import _join, f1_point_idx, f21_point_idx
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
def test_join_matches_pair_enumeration(q):
    n = _field(q).n
    rng = np.random.default_rng(q)
    # sizes 0 give empty rows; slopes drawn from a few values past n give
    # slope classes of several entries on both sides, negative ones included
    for m1, m2 in ((0, 0), (0, 5), (5, 0), (1, 1), (7, 30), (40, 3), (n, n)):
        s1, s2 = (rng.integers(-3 * n, 3 * n, size=m, endpoint=True)
                  for m in (m1, m2))
        e1, e2 = (rng.integers(-50, 50, size=m) for m in (m1, m2))
        got = sorted(zip(*(v.tolist() for v in _join(n, s1, e1, s2, e2))))
        want = sorted((int(s1[i]), int(e1[i] + e2[j]))
                      for i in range(m1) for j in range(m2)
                      if (s1[i] + s2[j]) % n == 0)
        assert got == want
