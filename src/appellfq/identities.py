"""Registry of verified character-sum identities.

Every entry states one exact equality in Z[zeta_{q-1}] between two
evaluators over a declared parameter domain (character exponents and field
elements, with boundary exclusions where a transformation argument such as
x/(x-1) is undefined or the equality genuinely fails on a boundary slice).

Identities whose statements carry a 1/(q-1)^k factor are registered in
cleared form: the summed side stays undivided and the closed side is
multiplied by (q-1)^k, with exact divisibility of the sum asserted
separately. Right sides are encoded term by term, including eps() and
delta() factors, with no algebraic simplification.

Bindings are plain int tuples: character exponents first, then element
enumeration indices, in the order of `chars` + `elems`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characters import _binom_logs, binomial_table
from .cyclotomic import CycInt, all_roots, cyc_zero
from .fields import FieldTable
from .hypergeometric import (
    _join,
    _power_sum,
    f1_charsum_idx,
    f1_point_idx,
    f21_charsum_idx,
    f21_point_idx,
    point_logs,
)


class EvalContext:
    """Compiled per-field helpers for identity evaluation.

    Element arguments are enumeration indices (0 is the zero element,
    index i > 0 has discrete log i - 1); characters are exponents mod q-1.
    """

    def __init__(self, ft: FieldTable):
        self.ft = ft
        self.n = ft.n
        self.q = ft.q
        self.qm1 = ft.q - 1
        self.om = ft.one_minus_idx
        self.ng = ft.neg_idx
        self.lm1 = ft.log_minus_one
        self.zero = cyc_zero(ft.n)
        self.roots = all_roots(ft.n)  # filled on first read
        self.bt = binomial_table(ft)

    # element ops on enumeration indices
    def sub(self, i, j):
        return self.ft.sub_idx(i, j)

    def div(self, i, j):
        return self.ft.div_idx(i, j)

    def eps(self, i):
        """eps(x) as a 0/1 integer factor."""
        return 0 if i == 0 else 1

    def delta(self, i):
        """delta on field elements: 1 iff the element is 0."""
        return 1 if i == 0 else 0

    def dchar(self, e):
        """delta on characters: 1 iff trivial."""
        return 1 if e % self.n == 0 else 0

    def sign(self, e):
        """chi_e(-1), a unit, as a CycInt."""
        return self.roots[(e * self.lm1) % self.n]

    def cp(self, *pairs):
        """Product of character values chi_e(elem); zero if any arg is 0."""
        t = 0
        for e, i in pairs:
            if i == 0:
                return self.zero
            t += e * (i - 1)
        return self.roots[t % self.n]

    def intv(self, v):
        return CycInt.from_int(self.n, v)

    def binom(self, i, j):
        return self.bt[i % self.n][j % self.n]

    def f21(self, a, b, c, x):
        return f21_point_idx(self.ft, a, b, c, x)

    def f1(self, a, b, bp, c, x, y):
        return f1_point_idx(self.ft, a, b, bp, c, x, y)

    def f21_sum(self, a, b, c, x):
        return f21_charsum_idx(self.ft, a, b, c, x)

    def f1_sum(self, a, b, bp, c, x, y):
        return f1_charsum_idx(self.ft, a, b, bp, c, x, y)


@dataclass(frozen=True)
class Mutation:
    """A documented single-token flip used for encoding-sensitivity tests."""

    description: str
    side: str  # "lhs" or "rhs"
    fn: Callable


@dataclass(frozen=True)
class IdentityCase:
    id: str
    statement: str
    chars: tuple[str, ...]
    elems: tuple[str, ...]
    lhs: Callable
    rhs: Callable
    excluded: dict[str, frozenset[int]] | None = None
    clearing_factor: int = 0  # power of (q-1) cleared into the closed side
    div_power: int = 0  # power of (q-1) asserted to divide the summed side
    mutation: Mutation | None = None

    def elem_domain(self, ft: FieldTable, name: str) -> list[int]:
        excl = (self.excluded or {}).get(name, frozenset())
        return [i for i in range(ft.q) if i not in excl]

    def domain_shape(self, ft: FieldTable) -> list[int]:
        ns = [ft.n] * len(self.chars)
        return ns + [len(self.elem_domain(ft, e)) for e in self.elems]

    def domain_size(self, ft: FieldTable) -> int:
        total = 1
        for s in self.domain_shape(ft):
            total *= s
        return total


_NOT_ONE = frozenset({1})
_NOT_ZERO_ONE = frozenset({0, 1})


# ----------------------------------------------------------------------
# Encodings. Bindings unpack positionally: chars then elems.
# ----------------------------------------------------------------------

def _thm11_lhs(c, b):
    A, B, C, x = b
    return c.f21_sum(A, B, C, x)


def _thm11_rhs(c, b):
    A, B, C, x = b
    return c.f21(A, B, C, x) * c.qm1


def _thm11_mut(c, b):
    A, B, C, x = b
    return c.f21(B, A, C, x) * c.qm1


def _thm12_lhs(c, b):
    A, B, C = b
    return c.f21(A, B, C, 1)


def _thm12_rhs(c, b):
    A, B, C = b
    return c.sign(A) * c.binom(B, C - A)


def _thm12_mut(c, b):
    A, B, C = b
    return c.sign(A) * c.binom(B, C + A)


def _thm13_lhs(c, b):
    A, B, Bp, C, x, y = b
    return c.f1_sum(A, B, Bp, C, x, y)


def _thm13_rhs(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, B, Bp, C, x, y) * (c.qm1 * c.qm1)


def _thm13_mut(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, B, Bp, C, y, x) * (c.qm1 * c.qm1)


def _cor11_sym_lhs(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, B, Bp, C, x, y)


def _cor11_sym_rhs(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, Bp, B, C, y, x)


def _cor11_sym_mut(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, Bp, B, C, x, y)


def _cor11_diag_lhs(c, b):
    A, B, Bp, C, x = b
    return c.f1(A, B, Bp, C, x, x)


def _cor11_diag_rhs(c, b):
    A, B, Bp, C, x = b
    return c.f21(B + Bp, A, C, x)


def _cor11_diag_mut(c, b):
    A, B, Bp, C, x = b
    return c.f21(B - Bp, A, C, x)


def _cor11_y1_lhs(c, b):
    A, B, Bp, C, x = b
    return c.f1(A, B, Bp, C, x, 1)


def _cor11_y1_rhs(c, b):
    A, B, Bp, C, x = b
    return c.sign(Bp) * c.f21(B, A, C - Bp, x)


def _cor11_y1_mut(c, b):
    A, B, Bp, C, x = b
    return c.sign(Bp) * c.f21(B, A, C + Bp, x)


def _prop21a_lhs(c, b):
    A, B = b
    return c.binom(A, B)


def _prop21a_rhs(c, b):
    A, B = b
    return c.binom(A, A - B)


def _prop21a_mut(c, b):
    A, B = b
    return c.binom(A, B - A)


def _prop21b_lhs(c, b):
    A, B, C = b
    return c.binom(C, A) * c.binom(A, B)


def _prop21b_rhs(c, b):
    A, B, C = b
    corr = c.sign(B) * c.dchar(A) - c.sign(A + B) * c.dchar(B - C)
    return c.binom(C, B) * c.binom(C - B, A - B) - corr * c.qm1


def _prop21b_mut(c, b):
    A, B, C = b
    corr = c.sign(B) * c.dchar(A) + c.sign(A + B) * c.dchar(B - C)
    return c.binom(C, B) * c.binom(C - B, A - B) - corr * c.qm1


def _binthm_sum(c, A, x):
    # sum over chi of binom(A chi, chi) chi(x), exact and uncleared: chi_k has
    # exponent A l1 + k (l1 + l2 + log x), so only slope 0 survives, n times
    if x == 0:
        return c.zero
    l1, l2 = _binom_logs(c.ft)
    return _power_sum(c.n, A * l1[(l1 + l2 + (x - 1)) % c.n == 0]) * c.n


def _prop22_lhs(c, b):
    A, x = b
    return c.cp((-A, c.om[x])) * c.qm1


def _prop22_rhs(c, b):
    A, x = b
    return c.intv(c.delta(x) * c.qm1) + _binthm_sum(c, A, x)


def _prop22_mut(c, b):
    A, x = b
    return c.intv(c.delta(c.om[x]) * c.qm1) + _binthm_sum(c, A, x)


def _prop23a_lhs(c, b):
    (t,) = b
    if t == 0:
        return c.zero
    n = c.n
    lt = t - 1
    counts = [0] * n
    for k in range(n):
        counts[(k * lt) % n] += 1
    return CycInt.from_powers(n, counts)


def _prop23a_rhs(c, b):
    (t,) = b
    return c.intv(c.qm1 * c.delta(c.sub(t, 1)))


def _prop23a_mut(c, b):
    (t,) = b
    return c.intv(c.qm1 * c.delta(t))


def _prop23b_lhs(c, b):
    (chi,) = b
    n = c.n
    counts = [0] * n
    for l in range(n):
        counts[(chi * l) % n] += 1
    return CycInt.from_powers(n, counts)


def _prop23b_rhs(c, b):
    (chi,) = b
    return c.intv(c.qm1 * c.dchar(chi))


def _prop23b_mut(c, b):
    (chi,) = b
    return c.intv(c.q * c.dchar(chi))


def _thm31a_lhs(c, b):
    A, B, C, x, y = b
    return c.f1(A, B, 0, C, x, y)


def _thm31a_rhs(c, b):
    A, B, C, x, y = b
    t2 = c.cp((C - A, c.om[y]), (B - C, y), (-B, c.sub(y, x)))
    return c.eps(y) * c.f21(B, A, C, x) - c.eps(x) * t2


def _thm31a_mut(c, b):
    A, B, C, x, y = b
    t2 = c.cp((C - A, c.om[y]), (B - C, y), (-B, c.sub(y, x)))
    return c.eps(y) * c.f21(B, A, C, x) + c.eps(x) * t2


def _thm31b_lhs(c, b):
    A, Bp, C, x, y = b
    return c.f1(A, 0, Bp, C, x, y)


def _thm31b_rhs(c, b):
    A, Bp, C, x, y = b
    t2 = c.cp((C - A, c.om[x]), (Bp - C, x), (-Bp, c.sub(x, y)))
    return c.eps(x) * c.f21(Bp, A, C, y) - c.eps(y) * t2


def _thm31b_mut(c, b):
    A, Bp, C, x, y = b
    t2 = c.cp((C - A, c.om[x]), (Bp - C, x), (-Bp, c.sub(x, y)))
    return c.eps(x) * c.f21(Bp, A, C, y) + c.eps(y) * t2


def _thm33a_lhs(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, B, Bp, C, x, y)


def _thm33a_rhs(c, b):
    A, B, Bp, C, x, y = b
    pre = c.sign(C) * c.cp((-B, c.om[x]), (-Bp, c.om[y]))
    return pre * c.f1(
        C - A, B, Bp, C, c.div(x, c.sub(x, 1)), c.div(y, c.sub(y, 1))
    )


def _thm33a_mut(c, b):
    A, B, Bp, C, x, y = b
    pre = c.sign(C) * c.cp((B, c.om[x]), (-Bp, c.om[y]))
    return pre * c.f1(
        C - A, B, Bp, C, c.div(x, c.sub(x, 1)), c.div(y, c.sub(y, 1))
    )


def _eps_xmy_f1(c, b):
    A, B, Bp, C, x, y = b
    return c.eps(c.sub(x, y)) * c.f1(A, B, Bp, C, x, y)


def _thm33b_rhs(c, b):
    A, B, Bp, C, x, y = b
    return (
        c.eps(y)
        * c.cp((-A, c.om[x]))
        * c.f1(
            A, C - B - Bp, Bp, C,
            c.div(x, c.sub(x, 1)), c.div(c.sub(y, x), c.om[x]),
        )
    )


def _thm33b_mut(c, b):
    A, B, Bp, C, x, y = b
    return (
        c.eps(y)
        * c.cp((A, c.om[x]))
        * c.f1(
            A, C - B - Bp, Bp, C,
            c.div(x, c.sub(x, 1)), c.div(c.sub(y, x), c.om[x]),
        )
    )


def _thm33c_rhs(c, b):
    A, B, Bp, C, x, y = b
    pre = c.eps(y) * c.sign(C) * c.cp((C - A - B, c.om[x]), (-Bp, c.om[y]))
    return pre * c.f1(
        C - A, C - B - Bp, Bp, C, x, c.div(c.sub(x, y), c.om[y])
    )


def _thm33c_mut(c, b):
    A, B, Bp, C, x, y = b
    pre = c.eps(y) * c.sign(C) * c.cp((C - A - B, c.om[x]), (-Bp, c.om[y]))
    return pre * c.f1(
        C - A, C - B - Bp, Bp, C, x, c.div(c.sub(y, x), c.om[y])
    )


def _thm34a_rhs(c, b):
    A, B, Bp, C, x, y = b
    return (
        c.eps(x)
        * c.cp((-A, c.om[y]))
        * c.f1(
            A, B, C - B - Bp, C,
            c.div(c.sub(x, y), c.om[y]), c.div(y, c.sub(y, 1)),
        )
    )


def _thm34a_mut(c, b):
    A, B, Bp, C, x, y = b
    return (
        c.eps(x)
        * c.cp((A, c.om[y]))
        * c.f1(
            A, B, C - B - Bp, C,
            c.div(c.sub(x, y), c.om[y]), c.div(y, c.sub(y, 1)),
        )
    )


def _thm34b_rhs(c, b):
    A, B, Bp, C, x, y = b
    pre = c.eps(x) * c.sign(C) * c.cp((-B, c.om[x]), (C - A - Bp, c.om[y]))
    return pre * c.f1(
        C - A, B, C - B - Bp, C, c.div(c.sub(y, x), c.om[x]), y
    )


def _thm34b_mut(c, b):
    A, B, Bp, C, x, y = b
    pre = c.eps(x) * c.sign(C) * c.cp((B, c.om[x]), (C - A - Bp, c.om[y]))
    return pre * c.f1(
        C - A, B, C - B - Bp, C, c.div(c.sub(y, x), c.om[x]), y
    )


def _cor31_lhs(c, b):
    A, B, C, x = b
    return c.f21(B, A, C, x)


def _cor31_rhs(c, b):
    A, B, C, x = b
    return (
        c.sign(C)
        * c.cp((-B, c.om[x]))
        * c.f21(B, C - A, C, c.div(x, c.sub(x, 1)))
    )


def _cor31_mut(c, b):
    A, B, C, x = b
    return (
        c.sign(C)
        * c.cp((-B, c.om[x]))
        * c.f21(B, C - A, C, c.div(x, c.sub(1, x)))
    )


def _cor31ext_lhs(c, b):
    A, B, C, x = b
    return c.f21(A, B, C, x)


def _cor31ext_rhs(c, b):
    A, B, C, x = b
    if x == 1:
        t1 = c.zero  # prefactor A~(1-x) = A~(0) = 0
    else:
        t1 = (
            c.sign(C)
            * c.cp((-A, c.om[x]))
            * c.f21(A, C - B, C, c.div(x, c.sub(x, 1)))
        )
    return t1 + c.sign(A) * c.binom(B, C - A) * c.delta(c.om[x])


def _cor31ext_mut(c, b):
    A, B, C, x = b
    if x == 1:
        t1 = c.zero
    else:
        t1 = (
            c.sign(C)
            * c.cp((-A, c.om[x]))
            * c.f21(A, C - B, C, c.div(x, c.sub(x, 1)))
        )
    return t1 + c.sign(A) * c.binom(B, C - A) * c.delta(x)


def _cor32_lhs(c, b):
    A, B, Bp, x, y = b
    return c.eps(c.sub(x, y)) * c.f1(A, B, Bp, B + Bp, x, y)


def _cor32a_rhs(c, b):
    A, B, Bp, x, y = b
    t1 = (
        c.eps(x) * c.eps(y)
        * c.cp((-A, c.om[x]))
        * c.f21(Bp, A, B + Bp, c.div(c.sub(y, x), c.om[x]))
    )
    t2 = c.eps(c.sub(y, x)) * c.cp((-B, c.ng[x]), (-Bp, c.ng[y]))
    return t1 - t2


def _cor32a_mut(c, b):
    A, B, Bp, x, y = b
    t1 = (
        c.eps(x) * c.eps(y)
        * c.cp((-A, c.om[x]))
        * c.f21(Bp, A, B + Bp, c.div(c.sub(y, x), c.om[x]))
    )
    t2 = c.eps(c.sub(y, x)) * c.cp((-B, x), (-Bp, c.ng[y]))
    return t1 - t2


def _cor32b_rhs(c, b):
    A, B, Bp, x, y = b
    t1 = (
        c.eps(x) * c.eps(y)
        * c.sign(B + Bp)
        * c.cp((Bp - A, c.om[x]), (-Bp, c.om[y]))
        * c.f21(Bp, B + Bp - A, B + Bp, c.div(c.sub(x, y), c.om[y]))
    )
    t2 = c.eps(c.sub(x, y)) * c.cp((-B, c.ng[x]), (-Bp, c.ng[y]))
    return t1 - t2


def _cor32b_mut(c, b):
    A, B, Bp, x, y = b
    t1 = (
        c.eps(x) * c.eps(y)
        * c.sign(B + Bp)
        * c.cp((Bp - A, c.om[x]), (-Bp, c.om[y]))
        * c.f21(Bp, B + Bp - A, B + Bp, c.div(c.sub(x, y), c.om[y]))
    )
    t2 = c.eps(c.sub(x, y)) * c.cp((-B, c.ng[x]), (-Bp, y))
    return t1 - t2


def _thm37_lhs(c, b):
    A, B, Bp, C, x, y = b
    return c.f1(A, B, Bp, C, x, y)


def _thm37_rhs(c, b):
    A, B, Bp, C, x, y = b
    return c.sign(B + Bp) * c.f1(A, B, Bp, A + B + Bp - C, c.om[x], c.om[y])


def _thm37_mut(c, b):
    A, B, Bp, C, x, y = b
    return c.sign(B + Bp) * c.f1(A, B, Bp, A + B + Bp + C, c.om[x], c.om[y])


def _cor33_lhs(c, b):
    A, B, C, x = b
    return c.f21(B, A, C, x)


def _cor33_rhs(c, b):
    A, B, C, x = b
    return (
        c.sign(B) * c.f21(B, A, A + B - C, c.om[x])
        + c.sign(B) * c.binom(A, C - B) * c.delta(c.om[x])
        - c.binom(A, C) * c.delta(x)
    )


def _cor33_mut(c, b):
    A, B, C, x = b
    return (
        c.sign(B) * c.f21(B, A, A + B - C, c.om[x])
        + c.sign(B) * c.binom(A, C - B) * c.delta(c.om[x])
        + c.binom(A, C) * c.delta(x)
    )


def _theta_sum(c, t, X, e0, d):
    """sum over theta of [X theta|theta] theta(t) S(theta), uncleared, where
    S(theta) is the point sum whose exponent at its terms is e0 + theta d.

    [X theta|theta] theta(t) has exponent X l1 + theta (l1 + l2 + log t) at
    its binomial pairs (l1, l2), so the sum is n times one `_join` of the
    binomial row with the point-sum row on their slopes.
    """
    if t == 0 or not e0.size:
        return c.zero
    l1, l2 = _binom_logs(c.ft)
    _, e = _join(c.n, l1 + l2 + (t - 1), X * l1, d, e0)
    return _power_sum(c.n, e) * c.n


def _thm41_lhs(c, b):
    A, B, Bp, C, x, y, t = b
    L = point_logs(c.ft, x, y)  # F1(A theta;B,B';C;x,y)
    return _theta_sum(c, t, A - C, np.dot((A, C, B, Bp), L), L[0])


def _thm41_rhs(c, b):
    A, B, Bp, C, x, y, t = b
    t1 = (
        c.eps(t)
        * c.cp((-A, c.om[t]))
        * c.f1(A, B, Bp, C, c.div(x, c.om[t]), c.div(y, c.om[t]))
    )
    t2 = (
        c.eps(x) * c.eps(y)
        * c.cp((C - A, c.ng[t]))
        * c.cp((-B, c.om[x]), (-Bp, c.om[y]))
    )
    return (t1 - t2) * c.qm1


def _thm41_mut(c, b):
    A, B, Bp, C, x, y, t = b
    t1 = (
        c.eps(t)
        * c.cp((-A, c.om[t]))
        * c.f1(A, B, Bp, C, c.div(x, c.om[t]), c.div(y, c.om[t]))
    )
    t2 = (
        c.eps(x) * c.eps(y)
        * c.cp((C - A, t))
        * c.cp((-B, c.om[x]), (-Bp, c.om[y]))
    )
    return (t1 - t2) * c.qm1


def _thm42_lhs(c, b):
    A, B, Bp, C, x, y, t = b
    L = point_logs(c.ft, x, y)  # F1(A;B theta,B';C;x,y)
    return _theta_sum(c, t, B, np.dot((A, C, B, Bp), L), L[2])


def _thm42_rhs(c, b):
    A, B, Bp, C, x, y, t = b
    t1 = (
        c.eps(t)
        * c.cp((-B, c.om[t]))
        * c.f1(A, B, Bp, C, c.div(x, c.om[t]), y)
    )
    t2 = c.eps(y) * c.cp(
        (-B, c.ng[t]), (Bp - C, x), (C - A, c.om[x]), (-Bp, c.sub(x, y))
    )
    return (t1 - t2) * c.qm1


def _thm42_mut(c, b):
    A, B, Bp, C, x, y, t = b
    t1 = (
        c.eps(t)
        * c.cp((B, c.om[t]))
        * c.f1(A, B, Bp, C, c.div(x, c.om[t]), y)
    )
    t2 = c.eps(y) * c.cp(
        (-B, c.ng[t]), (Bp - C, x), (C - A, c.om[x]), (-Bp, c.sub(x, y))
    )
    return (t1 - t2) * c.qm1


def _thm43a_lhs(c, b):
    A, B, C, x, t = b
    L = point_logs(c.ft, x)  # 2F1[B,A theta;C;x]
    return _theta_sum(c, t, A - C, np.dot((A, C, B), L), L[0])


def _thm43a_rhs(c, b):
    A, B, C, x, t = b
    t1 = c.eps(t) * c.cp((-A, c.om[t])) * c.f21(B, A, C, c.div(x, c.om[t]))
    t2 = c.eps(x) * c.cp((C - A, c.ng[t]), (-B, c.om[x]))
    return (t1 - t2) * c.qm1


def _thm43a_mut(c, b):
    A, B, C, x, t = b
    t1 = c.eps(t) * c.cp((-A, c.om[t])) * c.f21(B, A, C, c.div(x, c.om[t]))
    t2 = c.eps(x) * c.cp((C - A, t), (-B, c.om[x]))
    return (t1 - t2) * c.qm1


def _thm43b_lhs(c, b):
    A, B, C, x, t = b
    L = point_logs(c.ft, x)  # 2F1[B theta,A;C;x]
    return _theta_sum(c, t, B, np.dot((A, C, B), L), L[2])


def _thm43b_rhs(c, b):
    A, B, C, x, t = b
    t1 = c.eps(t) * c.cp((-B, c.om[t])) * c.f21(B, A, C, c.div(x, c.om[t]))
    t2 = c.cp((-B, c.ng[t]), (C - A, c.om[x]), (-C, x))
    return (t1 - t2) * c.qm1


def _thm43b_mut(c, b):
    A, B, C, x, t = b
    t1 = c.eps(t) * c.cp((-B, c.om[t])) * c.f21(B, A, C, c.div(x, c.om[t]))
    t2 = c.cp((-B, c.ng[t]), (C - A, c.om[x]), (C, x))
    return (t1 - t2) * c.qm1


def _entry(id, statement, chars, elems, lhs, rhs, mut_desc, mut_fn,
           excluded=None, clearing_factor=0, div_power=0, mut_side="rhs"):
    return IdentityCase(
        id=id,
        statement=statement,
        chars=tuple(chars),
        elems=tuple(elems),
        lhs=lhs,
        rhs=rhs,
        excluded=excluded,
        clearing_factor=clearing_factor,
        div_power=div_power,
        mutation=Mutation(mut_desc, mut_side, mut_fn),
    )


_REGISTRY: list[IdentityCase] | None = None


def registry() -> list[IdentityCase]:
    """All registered identities, in stable order with stable ids."""
    global _REGISTRY
    if _REGISTRY is not None:
        return _REGISTRY
    R = [
        _entry(
            "thm1.1",
            "sum_chi [A chi|chi][B chi|C chi] chi(x) = (q-1) 2F1[A,B;C;x]",
            "ABC", "x", _thm11_lhs, _thm11_rhs,
            "swap A and B on the point-sum side", _thm11_mut,
            clearing_factor=1, div_power=1,
        ),
        _entry(
            "thm1.2",
            "2F1[A,B;C;1] = A(-1) [B|A~C]",
            "ABC", "", _thm12_lhs, _thm12_rhs,
            "A~C -> AC in the binomial", _thm12_mut,
        ),
        _entry(
            "thm1.3",
            "sum_{chi,lam} [A chi lam|C chi lam][B chi|chi][B' lam|lam]"
            " chi(x) lam(y) = (q-1)^2 F1(A;B,B';C;x,y)",
            ("A", "B", "Bp", "C"), ("x", "y"), _thm13_lhs, _thm13_rhs,
            "swap x and y on the point-sum side", _thm13_mut,
            clearing_factor=2, div_power=2,
        ),
        _entry(
            "cor1.1-sym",
            "F1(A;B,B';C;x,y) = F1(A;B',B;C;y,x)",
            ("A", "B", "Bp", "C"), ("x", "y"), _cor11_sym_lhs, _cor11_sym_rhs,
            "drop the x,y swap on the right side", _cor11_sym_mut,
        ),
        _entry(
            "cor1.1-diag",
            "F1(A;B,B';C;x,x) = 2F1[BB',A;C;x]",
            ("A", "B", "Bp", "C"), "x", _cor11_diag_lhs, _cor11_diag_rhs,
            "BB' -> B B'~ in the 2F1", _cor11_diag_mut,
        ),
        _entry(
            "cor1.1-y1",
            "F1(A;B,B';C;x,1) = B'(-1) 2F1[B,A;B'~C;x]",
            ("A", "B", "Bp", "C"), "x", _cor11_y1_lhs, _cor11_y1_rhs,
            "B'~C -> B'C in the 2F1", _cor11_y1_mut,
        ),
        _entry(
            "prop2.1-a",
            "[A|B] = [A|A B~]",
            "AB", "", _prop21a_lhs, _prop21a_rhs,
            "A B~ -> A~ B", _prop21a_mut,
        ),
        _entry(
            "prop2.1-b",
            "[C|A][A|B] = [C|B][C B~|A B~]"
            " - (q-1)(B(-1) d(A) - AB(-1) d(B C~))",
            "ABC", "", _prop21b_lhs, _prop21b_rhs,
            "flip the sign of the AB(-1) d(B C~) term", _prop21b_mut,
        ),
        _entry(
            "prop2.2",
            "(q-1) A~(1-x) = (q-1) d(x) + sum_chi [A chi|chi] chi(x)",
            "A", "x", _prop22_lhs, _prop22_rhs,
            "d(x) -> d(1-x)", _prop22_mut,
            clearing_factor=1,
        ),
        _entry(
            "prop2.3-a",
            "sum_chi chi(t) = (q-1) d(t-1)",
            "", "t", _prop23a_lhs, _prop23a_rhs,
            "d(t-1) -> d(t)", _prop23a_mut,
        ),
        _entry(
            "prop2.3-b",
            "sum_t chi(t) = (q-1) d(chi)",
            ("chi",), "", _prop23b_lhs, _prop23b_rhs,
            "(q-1) -> q", _prop23b_mut,
        ),
        _entry(
            "thm3.1-a",
            "F1(A;B,eps;C;x,y) = eps(y) 2F1[B,A;C;x]"
            " - eps(x) A~C(1-y) B C~(y) B~(y-x)",
            "ABC", "xy", _thm31a_lhs, _thm31a_rhs,
            "flip the sign of the boundary term", _thm31a_mut,
        ),
        _entry(
            "thm3.1-b",
            "F1(A;eps,B';C;x,y) = eps(x) 2F1[B',A;C;y]"
            " - eps(y) A~C(1-x) B' C~(x) B'~(x-y)",
            ("A", "Bp", "C"), "xy", _thm31b_lhs, _thm31b_rhs,
            "flip the sign of the boundary term", _thm31b_mut,
        ),
        _entry(
            "thm3.3-a",
            "F1(A;B,B';C;x,y) = C(-1) B~(1-x) B'~(1-y)"
            " F1(A~C;B,B';C;x/(x-1),y/(y-1))   [x,y != 1]",
            ("A", "B", "Bp", "C"), "xy", _thm33a_lhs, _thm33a_rhs,
            "B~(1-x) -> B(1-x)", _thm33a_mut,
            excluded={"x": _NOT_ONE, "y": _NOT_ONE},
        ),
        _entry(
            "thm3.3-b",
            "eps(x-y) F1(A;B,B';C;x,y) = eps(y) A~(1-x)"
            " F1(A;B~B'~C,B';C;x/(x-1),(y-x)/(1-x))   [x != 1]",
            ("A", "B", "Bp", "C"), "xy", _eps_xmy_f1, _thm33b_rhs,
            "A~(1-x) -> A(1-x)", _thm33b_mut,
            excluded={"x": _NOT_ONE},
        ),
        _entry(
            "thm3.3-c",
            "eps(x-y) F1(A;B,B';C;x,y) = eps(y) C(-1) A~B~C(1-x) B'~(1-y)"
            " F1(A~C;B~B'~C,B';C;x,(x-y)/(1-y))   [x,y != 1]",
            ("A", "B", "Bp", "C"), "xy", _eps_xmy_f1, _thm33c_rhs,
            "(x-y)/(1-y) -> (y-x)/(1-y)", _thm33c_mut,
            excluded={"x": _NOT_ONE, "y": _NOT_ONE},
        ),
        _entry(
            "thm3.4-a",
            "eps(x-y) F1(A;B,B';C;x,y) = eps(x) A~(1-y)"
            " F1(A;B,B~B'~C;C;(x-y)/(1-y),y/(y-1))   [y != 1]",
            ("A", "B", "Bp", "C"), "xy", _eps_xmy_f1, _thm34a_rhs,
            "A~(1-y) -> A(1-y)", _thm34a_mut,
            excluded={"y": _NOT_ONE},
        ),
        _entry(
            "thm3.4-b",
            "eps(x-y) F1(A;B,B';C;x,y) = eps(x) C(-1) B~(1-x) A~B'~C(1-y)"
            " F1(A~C;B,B~B'~C;C;(y-x)/(1-x),y)   [x,y != 1]",
            ("A", "B", "Bp", "C"), "xy", _eps_xmy_f1, _thm34b_rhs,
            "B~(1-x) -> B(1-x)", _thm34b_mut,
            excluded={"x": _NOT_ONE, "y": _NOT_ONE},
        ),
        _entry(
            "cor3.1",
            "2F1[B,A;C;x] = C(-1) B~(1-x) 2F1[B,A~C;C;x/(x-1)]   [x != 1]",
            "ABC", "x", _cor31_lhs, _cor31_rhs,
            "x/(x-1) -> x/(1-x)", _cor31_mut,
            excluded={"x": _NOT_ONE},
        ),
        _entry(
            "cor3.1-greene-extended",
            "2F1[A,B;C;x] = C(-1) A~(1-x) 2F1[A,C B~;C;x/(x-1)]"
            " + A(-1) [B|A~C] d(1-x)",
            "ABC", "x", _cor31ext_lhs, _cor31ext_rhs,
            "d(1-x) -> d(x)", _cor31ext_mut,
        ),
        _entry(
            "cor3.2-a",
            "eps(x-y) F1(A;B,B';BB';x,y) = eps(xy) A~(1-x)"
            " 2F1[B',A;BB';(y-x)/(1-x)] - eps(y-x) B~(-x) B'~(-y)   [x != 1]",
            ("A", "B", "Bp"), "xy", _cor32_lhs, _cor32a_rhs,
            "B~(-x) -> B~(x)", _cor32a_mut,
            excluded={"x": _NOT_ONE},
        ),
        _entry(
            "cor3.2-b",
            "eps(x-y) F1(A;B,B';BB';x,y) = eps(xy) BB'(-1) A~B'(1-x) B'~(1-y)"
            " 2F1[B',A~BB';BB';(x-y)/(1-y)] - eps(x-y) B~(-x) B'~(-y)"
            "   [x,y != 1]",
            ("A", "B", "Bp"), "xy", _cor32_lhs, _cor32b_rhs,
            "B'~(-y) -> B'~(y)", _cor32b_mut,
            excluded={"x": _NOT_ONE, "y": _NOT_ONE},
        ),
        _entry(
            "thm3.7",
            "F1(A;B,B';C;x,y) = BB'(-1) F1(A;B,B';ABB'C~;1-x,1-y)"
            "   [x,y not in {0,1}]",
            ("A", "B", "Bp", "C"), "xy", _thm37_lhs, _thm37_rhs,
            "ABB'C~ -> ABB'C", _thm37_mut,
            excluded={"x": _NOT_ZERO_ONE, "y": _NOT_ZERO_ONE},
        ),
        _entry(
            "cor3.3",
            "2F1[B,A;C;x] = B(-1) 2F1[B,A;ABC~;1-x]"
            " + B(-1) [A|B~C] d(1-x) - [A|C] d(x)",
            "ABC", "x", _cor33_lhs, _cor33_rhs,
            "flip the sign of the [A|C] d(x) term", _cor33_mut,
        ),
        _entry(
            "thm4.1",
            "sum_th [A C~ th|th] F1(A th;B,B';C;x,y) th(t) ="
            " (q-1)(eps(t) A~(1-t) F1(A;B,B';C;x/(1-t),y/(1-t))"
            " - eps(xy) A~C(-t) B~(1-x) B'~(1-y))   [t != 1]",
            ("A", "B", "Bp", "C"), "xyt", _thm41_lhs, _thm41_rhs,
            "A~C(-t) -> A~C(t)", _thm41_mut,
            excluded={"t": _NOT_ONE}, clearing_factor=1, div_power=1,
        ),
        _entry(
            "thm4.2",
            "sum_th [B th|th] F1(A;B th,B';C;x,y) th(t) ="
            " (q-1)(eps(t) B~(1-t) F1(A;B,B';C;x/(1-t),y)"
            " - eps(y) B~(-t) B'C~(x) A~C(1-x) B'~(x-y))   [t != 1]",
            ("A", "B", "Bp", "C"), "xyt", _thm42_lhs, _thm42_rhs,
            "B~(1-t) -> B(1-t)", _thm42_mut,
            excluded={"t": _NOT_ONE}, clearing_factor=1, div_power=1,
        ),
        _entry(
            "thm4.3-a",
            "sum_th [A C~ th|th] 2F1[B,A th;C;x] th(t) ="
            " (q-1)(eps(t) A~(1-t) 2F1[B,A;C;x/(1-t)]"
            " - eps(x) A~C(-t) B~(1-x))   [t != 1]",
            "ABC", "xt", _thm43a_lhs, _thm43a_rhs,
            "A~C(-t) -> A~C(t)", _thm43a_mut,
            excluded={"t": _NOT_ONE}, clearing_factor=1, div_power=1,
        ),
        _entry(
            "thm4.3-b",
            "sum_th [B th|th] 2F1[B th,A;C;x] th(t) ="
            " (q-1)(eps(t) B~(1-t) 2F1[B,A;C;x/(1-t)]"
            " - B~(-t) A~C(1-x) C~(x))   [t != 1]",
            "ABC", "xt", _thm43b_lhs, _thm43b_rhs,
            "C~(x) -> C(x)", _thm43b_mut,
            excluded={"t": _NOT_ONE}, clearing_factor=1, div_power=1,
        ),
    ]
    _REGISTRY = R
    return R


def get_identity(identity_id: str) -> IdentityCase:
    for entry in registry():
        if entry.id == identity_id:
            return entry
    raise KeyError(f"unknown identity id: {identity_id!r}")
