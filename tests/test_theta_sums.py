"""Generating-function left sides (thm4.*) against the plain theta loop.

Each left side is `identities.theta_form`: at each point u of the
point sum, the sum over theta keeps only the binomial pair whose slope
cancels theta's coefficient at u, found by one gather. Here the left
side on the reference `EvalContext` (`scalar_reference`, a literal loop
over theta) and in its column form on `BatchContext` are checked against
the sum over theta of scalar binomials times the reference's point-sum
loops.
"""

import functools
import itertools
import random
import warnings

import numpy as np
import pytest

from appellfq import build_field, get_identity
from appellfq.cyclotomic import cyc_zero, root_of_unity
from appellfq.fields import prime_power_decompose
from appellfq.identities import BatchContext
from scalar_reference import EvalContext, f1_point_idx, f21_point_idx, root_rows


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
    most `limit`, else `limit` random ones: first each with an element 0,
    then x = 1 and x = y (y the second element)."""
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
        elif i == 3 * m:
            elems[0] = 1
        elif i == 3 * m + 1:
            elems[1] = elems[0]
        out.append(chars + tuple(elems))
    return out


def _check(entry, ft, bindings, rng):
    """The lhs at each binding against `_reference`: scalar, and in the
    column form of `BatchContext`, reduced row by row, with the exponents
    moved into [-2n, 2n) as a side's sums and negations give them, once
    as columns and once with the characters of the first binding as ints.
    """
    c = EvalContext(ft)
    ref = functools.cache(lambda b: _reference(c, entry.id, b))
    for b in bindings:
        assert entry.lhs(c, b) == ref(b), b
    k, n = len(entry.chars), ft.n
    cols = [np.array([v + n * rng.randrange(-2, 2) for v in col]) if i < k
            else np.array(col) for i, col in enumerate(zip(*bindings))]
    rows = root_rows(n)
    for at in ((), range(k)):
        args = tuple(int(col[0]) if i in at else col for i, col in enumerate(cols))
        got = entry.lhs(BatchContext(ft), args).counts() @ rows
        for r, row in enumerate(got.tolist()):
            b = tuple(bindings[0 if i in at else r][i] for i in range(len(cols)))
            assert tuple(row) == ref(b).coeffs, (list(at), b)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("identity_id", sorted(SHIFTS))
def test_theta_sum_matches_theta_loop_small_q(identity_id, q):
    ft = _field(q)
    entry = get_identity(identity_id)
    rng = random.Random(q)
    # every binding at q <= 4 (5184 for thm4.1 at q = 4)
    bindings = _bindings(entry, ft, 6000 if q <= 4 else 2000, rng)
    assert any(0 in b[len(entry.chars):] for b in bindings)
    _check(entry, ft, bindings, rng)


@pytest.mark.parametrize("q,count", [(16, 60), (25, 60), (27, 60), (101, 8)])
@pytest.mark.parametrize("identity_id", sorted(SHIFTS))
def test_theta_sum_matches_theta_loop_sampled(identity_id, q, count):
    ft = _field(q)
    entry = get_identity(identity_id)
    rng = random.Random(1000 + q)
    _check(entry, ft, _bindings(entry, ft, count, rng), rng)
