"""Gauss and Appell-type hypergeometric sums over F_q, two routes each.

Conventions (q-scaled throughout, chi(0) = 0 including the trivial
character; "~" below means character inversion):

    2F1[A,B;C;x]      = eps(x) (BC)(-1) sum_u B(u) (B~C)(1-u) A~(1-ux)
    F1(A;B,B';C;x,y)  = eps(xy) (AC)(-1) sum_u A(u) (A~C)(1-u) B~(1-ux) B'~(1-uy)

The point sums above are the canonical Theta(q) evaluators
(`f21_point_idx`, `f1_point_idx`). One `np.bincount` over u gives the
(S, n) zeta-power counts of S bindings given as int64 columns,
unreduced: the kernel of `identities.BatchContext` and of the f21/f1
`table`. With int arguments the same body counts one row and reduces it
to a `CycInt`. The character sum forms are independent routes used for
cross-validation:

    2F1 = 1/(q-1)   sum_chi     [A chi | chi] [B chi | C chi] chi(x)
    F1  = 1/(q-1)^2 sum_chi,lam [A chi lam | C chi lam] [B chi | chi]
                                [B' lam | lam] chi(x) lam(y)

where [.|.] is the scaled binomial coefficient from `characters.binom`.
Both divisions are exact by construction (below), so the kernels count
the quotient directly.

At a binomial pair each factor of a character sum has an exponent
intercept + k slope, linear in the summed character chi_k, and
sum_k zeta^(kD) = n [D = 0 mod n]. A pair's slope is injective, so for
each pair of one factor the sum over k keeps at most one pair of the
other, the one whose slope cancels it (`characters._slope_index`). Each
character sum is thus one gather and one `np.bincount` of the summed
intercepts, O(q) per binding, in one body for ints and for columns. Each
kept term occurs n times over k (n^2 times over k, l for F1), so the
counts of each kept term once are the sum divided by q - 1 (or (q-1)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import Character, _binom_logs, _slope_index
from .cyclotomic import CycInt
from .fields import FieldElement, FieldTable


@dataclass(frozen=True)
class Hyp2F1Params:
    A: Character
    B: Character
    C: Character
    x: FieldElement

    def __post_init__(self):
        q = self.A.field.q
        if not (self.B.field.q == q == self.C.field.q and self.x.q == q):
            raise ValueError("2F1 parameters must share one field")


@dataclass(frozen=True)
class AppellF1Params:
    A: Character
    B: Character
    Bp: Character
    C: Character
    x: FieldElement
    y: FieldElement

    def __post_init__(self):
        q = self.A.field.q
        ok = all(ch.field.q == q for ch in (self.B, self.Bp, self.C))
        if not (ok and self.x.q == q and self.y.q == q):
            raise ValueError("F1 parameters must share one field")


# ----------------------------------------------------------------------
# Point-sum evaluators on raw indices (exponents mod n, enumeration
# indices for elements), as ints or as int64 columns.
# ----------------------------------------------------------------------

def f21_point_idx(ft: FieldTable, a, b, c, xi):
    """The 2F1 point sum at exponents a, b, c and element index xi.

    If any argument is an int64 column, the others stand for every row
    and the result is the (S, n) int64 array of zeta-power counts of
    each row, unreduced (`_point_counts`); with int arguments, its one
    row reduced to a `CycInt`.
    """
    counts = _point_counts(ft, (b, c, a), (xi,))
    if any(isinstance(v, np.ndarray) for v in (a, b, c, xi)):
        return counts
    return _reduced(ft.n, counts)


def f1_point_idx(ft: FieldTable, a, b, bp, c, xi, yi):
    """The Appell F1 point sum; ints or int64 columns as `f21_point_idx`."""
    counts = _point_counts(ft, (a, c, b, bp), (xi, yi))
    if any(isinstance(v, np.ndarray) for v in (a, b, bp, c, xi, yi)):
        return counts
    return _reduced(ft.n, counts)


def point_rows(ft: FieldTable, *xis) -> tuple[list, np.ndarray]:
    """Rows L of the point-sum exponents by lu = log u, which are linear
    in the characters, and the mask of the u that contribute.

    Over the u where none of u, 1 - u, 1 - ux (x in `xis`) is zero, the
    point sum of 2F1[A,B;C;x] has exponent B L0 + C L1 + A L2 at u, and
    that of F1(A;B,B';C;x,y) has A L0 + C L1 + B L2 + B' L3, with
    L0 = log(-1) + log u - log(1-u), L1 = log(-1) + log(1-u) and
    L2, L3 = -log(1-ux), -log(1-uy). No u contributes when some x is 0.
    Each x is an int or an int64 column; its row and the mask have one
    row per binding (one row for an int).
    """
    n = ft.n
    base, neg = _point_table(ft)
    ar = np.arange(n)
    ls = [neg[(_col(xi) - 1) % n + ar] for xi in xis]
    ok = neg[:n] <= 0
    for xi, row in zip(xis, ls):
        ok = ok & (row <= 0) & (_col(xi) != 0)
    return [base[0], base[1], *ls], ok


def _point_counts(ft: FieldTable, coeffs, xis) -> np.ndarray:
    """(S, n) zeta-power counts of the point sums whose exponent at u is
    coeffs . L (L = `point_rows`), one `np.bincount` for every row."""
    n = ft.n
    L, ok = point_rows(ft, *xis)
    e = sum(_col(c) * row for c, row in zip(coeffs, L))
    return _row_counts(n, e, ok)


def _col(v) -> np.ndarray:
    """An int column (S,) as (S, 1), or an int as (1, 1), to broadcast
    against a row of length m."""
    return np.asarray(v, dtype=np.int64).reshape(-1, 1)


def _row_counts(n: int, e: np.ndarray, keep=True) -> np.ndarray:
    """(S, n) counts of the exponents e (S, m) mod n in each row, over the
    entries where `keep`, with one `np.bincount`."""
    e, keep = np.broadcast_arrays(e, keep)
    rows = e.shape[0]
    e = e % n + n * np.arange(rows)[:, None]
    return np.bincount(e[keep], minlength=rows * n).reshape(rows, n)


def _point_table(ft: FieldTable) -> tuple[np.ndarray, np.ndarray]:
    """(L0, L1) by lu = log u, and -log(1 - g^k) for k = 0 .. 2n-1, where
    1 marks 1 - g^k = 0 (valid values are <= 0); cached."""
    tab = ft._caches.get("point_table")
    if tab is None:
        n, lm1 = ft.n, ft.log_minus_one
        ar = np.arange(n)
        l1 = np.array(ft.one_minus_idx[1:], dtype=np.int64) - 1
        tab = ft._caches["point_table"] = (
            np.stack((lm1 + ar - l1, lm1 + l1)), np.concatenate((-l1, -l1)))
    return tab


# ----------------------------------------------------------------------
# Character-sum evaluators (with their 1/(q-1)^k factor), on raw indices
# as ints or as int64 columns, as the point sums.
# ----------------------------------------------------------------------

def f21_charsum_idx(ft: FieldTable, a, b, c, xi):
    """1/(q-1) sum_chi [A chi|chi][B chi|C chi] chi(x), exact in Z[zeta_n].

    At binomial pairs (l1, l2), with chi = chi_k and s = l1 + l2, the two
    factors have exponents a l1 + k (s + log x) and b l1 + c l2 + k s, so
    the sum over k keeps, for each pair i of the first, the pair j (if
    any) whose slope cancels that of i (`_slope_index`), n times; each is
    counted once. Ints or int64 columns as `f21_point_idx`.
    """
    n = ft.n
    inv, m1, m2 = _slope_index(ft)
    l1, l2 = _binom_logs(ft)
    x = _col(xi)
    j = inv[-(l1 + l2 + x - 1) % n]
    e = _col(a) * l1 + _col(b) * m1[j] + _col(c) * m2[j]
    counts = _row_counts(n, e, (j >= 0) & (x != 0))
    if any(isinstance(v, np.ndarray) for v in (a, b, c, xi)):
        return counts
    return _reduced(n, counts)


def f1_charsum_idx(ft: FieldTable, a, b, bp, c, xi, yi):
    """1/(q-1)^2 sum_{chi,lam} [A chi lam|C chi lam][B chi|chi][B' lam|lam]
    chi(x) lam(y).

    At binomial pairs (l1, l2), with chi = chi_k, lam = chi_l and
    s = l1 + l2, the three factors have exponents b l1 + k (s + log x),
    b' l1 + l (s + log y) and a l1 + c l2 + (k + l) s. For pair i of the
    chi(x) factor, of slope t, the sum over k keeps the pair j of the
    [A chi lam|C chi lam] factor of slope -t, and the sum over l then the
    pair of the lam(y) factor whose slope cancels that of j: n^2 times at
    most one term per i, O(q) work. So the (q-1)^2 division is exact by
    construction; the tests' `_f1_charsum_reference`, which enumerates
    (chi, lam), checks it. Ints or int64 columns as `f21_point_idx`.
    """
    n = ft.n
    inv, m1, m2 = _slope_index(ft)
    l1, l2 = _binom_logs(ft)
    x, y = _col(xi), _col(yi)
    t = l1 + l2 + x - 1
    j = inv[-t % n]
    k = inv[(t - y + 1) % n]
    e = _col(b) * l1 + _col(a) * m1[j] + _col(c) * m2[j] + _col(bp) * m1[k]
    counts = _row_counts(n, e, (j >= 0) & (k >= 0) & (x != 0) & (y != 0))
    if any(isinstance(v, np.ndarray) for v in (a, b, bp, c, xi, yi)):
        return counts
    return _reduced(n, counts)


def _reduced(n: int, counts: np.ndarray) -> CycInt:
    """Row 0 of `counts` as a `CycInt`."""
    return CycInt.from_powers(n, counts[0].tolist())


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------

def f21_point_sum(params: Hyp2F1Params) -> CycInt:
    """The 2F1 point sum; zero whenever x = 0."""
    return f21_point_idx(
        params.A.field,
        params.A.exponent,
        params.B.exponent,
        params.C.exponent,
        params.x.index,
    )


def f21_char_sum(params: Hyp2F1Params) -> CycInt:
    """The 2F1 character-sum route, with its 1/(q - 1)."""
    return f21_charsum_idx(
        params.A.field,
        params.A.exponent,
        params.B.exponent,
        params.C.exponent,
        params.x.index,
    )


def appell_f1_point_sum(params: AppellF1Params) -> CycInt:
    """The two-variable point sum; zero whenever x = 0 or y = 0."""
    return f1_point_idx(
        params.A.field,
        params.A.exponent,
        params.B.exponent,
        params.Bp.exponent,
        params.C.exponent,
        params.x.index,
        params.y.index,
    )


def appell_f1_char_sum(params: AppellF1Params) -> CycInt:
    """The double character-sum route, with its 1/(q - 1)^2."""
    return f1_charsum_idx(
        params.A.field,
        params.A.exponent,
        params.B.exponent,
        params.Bp.exponent,
        params.C.exponent,
        params.x.index,
        params.y.index,
    )
