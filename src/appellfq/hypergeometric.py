"""Gauss and Appell-type hypergeometric sums over F_q, two routes each.

Conventions (q-scaled throughout, chi(0) = 0 including the trivial
character; "~" below means character inversion):

    2F1[A,B;C;x]      = eps(x) (BC)(-1) sum_u B(u) (B~C)(1-u) A~(1-ux)
    F1(A;B,B';C;x,y)  = eps(xy) (AC)(-1) sum_u A(u) (A~C)(1-u) B~(1-ux) B'~(1-uy)

The point sums above are the canonical Theta(q) evaluators
(`f21_point_idx`, `f1_point_idx`). Each kernel returns the linear form
of its exponents over u, `(pairs, keep)` as `characters.binom_idx`, for
S bindings given as int64 columns (an int stands for every row):
`identities.BatchContext` makes it terms, for the verifier and the
f21/f1 `table`, and the public functions count and reduce it at one
binding (`characters._value`). Every kernel is u-major: bindings are
(1, S) rows (`_col`) and the u, or binomial pairs, (m, 1) columns, so
each numpy pass over the (m, S) exponents runs along the S bindings of a
chunk, not along n (2 to 4 at q <= 5). The character sum forms are
independent routes used for cross-validation:

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
intercepts, O(q) per binding, in the column form of the point sums. Each
kept term occurs n times over k (n^2 times over k, l for F1), so the
counts of each kept term once are the sum divided by q - 1 (or (q-1)^2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .characters import Character, _binom_logs, _col, _mod, _slope_index, _value
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
# indices for elements), as int64 columns.
# ----------------------------------------------------------------------

def f21_point_idx(ft: FieldTable, a, b, c, xi):
    """The 2F1 point sums at exponents a, b, c and element index xi.

    Each argument is an int64 column with one entry per binding, or an
    int that stands for every row; the form is the exponent at u of
    `point_rows`, over its mask.
    """
    L, ok = point_rows(ft, xi)
    return list(zip((b, c, a), L)), ok


def f1_point_idx(ft: FieldTable, a, b, bp, c, xi, yi):
    """The Appell F1 point sums; columns and form as `f21_point_idx`."""
    L, ok = point_rows(ft, xi, yi)
    return list(zip((a, c, b, bp), L)), ok


def point_rows(ft: FieldTable, *xis) -> tuple[list, np.ndarray]:
    """Rows L of the point-sum exponents by lu = log u, which are linear
    in the characters, and the mask of the u that contribute.

    Over the u where none of u, 1 - u, 1 - ux (x in `xis`) is zero, the
    point sum of 2F1[A,B;C;x] has exponent B L0 + C L1 + A L2 at u, and
    that of F1(A;B,B';C;x,y) has A L0 + C L1 + B L2 + B' L3, with
    L0 = log(-1) + log u - log(1-u), L1 = log(-1) + log(1-u) and
    L2, L3 = -log(1-ux), -log(1-uy). No u contributes when some x is 0.
    Each x is an int or an int64 column. Rows and mask are u-major, (n, 1)
    or (n, S): one column per binding (one for an int).
    """
    n = ft.n
    base, neg = _point_table(ft)
    ar = np.arange(n)[:, None]
    ls = [neg[_mod(_col(xi) - 1, n) + ar] for xi in xis]
    ok = neg[:n, None] <= 0
    for xi, row in zip(xis, ls):
        ok = ok & (row <= 0) & (_col(xi) != 0)
    return [base[0], base[1], *ls], ok


def _point_table(ft: FieldTable) -> tuple[np.ndarray, np.ndarray]:
    """(L0, L1) as (n, 1) columns by lu = log u, and -log(1 - g^k) for
    k = 0 .. 2n-1, where 1 marks 1 - g^k = 0 (valid values <= 0); cached."""
    tab = ft._caches.get("point_table")
    if tab is None:
        n, lm1 = ft.n, ft.log_minus_one
        ar = np.arange(n)
        l1 = ft.one_minus_idx[1:] - 1
        tab = ft._caches["point_table"] = (
            np.stack((lm1 + ar - l1, lm1 + l1))[:, :, None], np.concatenate((-l1, -l1)))
    return tab


# ----------------------------------------------------------------------
# Character-sum evaluators (with their 1/(q-1)^k factor), on raw indices
# as int64 columns, as the point sums.
# ----------------------------------------------------------------------

def f21_charsum_idx(ft: FieldTable, a, b, c, xi):
    """1/(q-1) sum_chi [A chi|chi][B chi|C chi] chi(x), exact in Z[zeta_n].

    At binomial pairs (l1, l2), with chi = chi_k and s = l1 + l2, the two
    factors have exponents a l1 + k (s + log x) and b l1 + c l2 + k s, so
    the sum over k keeps, for each pair i of the first, the pair j (if
    any) whose slope cancels that of i (`_slope_index`), n times; each is
    counted once. Columns and form as `f21_point_idx`.
    """
    n = ft.n
    inv, m1, m2 = _slope_index(ft)
    l1, l2 = _binom_logs(ft)
    x = _col(xi)
    j = inv[_mod((1 - x) - (l1 + l2), n)]
    return [(a, l1), (b, m1[j]), (c, m2[j])], (j >= 0) & (x != 0)


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
    (chi, lam), checks it. Columns and form as `f21_point_idx`.
    """
    n = ft.n
    inv, m1, m2 = _slope_index(ft)
    l1, l2 = _binom_logs(ft)
    x, y = _col(xi), _col(yi)
    t = (l1 + l2) + (x - 1)
    j = inv[_mod(-t, n)]
    k = inv[_mod(t - (y - 1), n)]
    return ([(b, l1), (a, m1[j]), (c, m2[j]), (bp, m1[k])],
            (j >= 0) & (k >= 0) & (x != 0) & (y != 0))


# ----------------------------------------------------------------------
# Public operations
# ----------------------------------------------------------------------

def _public(kernel, params) -> CycInt:
    """`kernel` at the character exponents and element indices of `params`,
    in field order, as one `CycInt` (`characters._value`)."""
    ft = params.A.field
    args = [getattr(params, f.name) for f in fields(params)]
    idx = [v.exponent if isinstance(v, Character) else v.index for v in args]
    return _value(ft, kernel(ft, *idx))


def f21_point_sum(params: Hyp2F1Params) -> CycInt:
    """The 2F1 point sum; zero whenever x = 0."""
    return _public(f21_point_idx, params)


def f21_char_sum(params: Hyp2F1Params) -> CycInt:
    """The 2F1 character-sum route, with its 1/(q - 1)."""
    return _public(f21_charsum_idx, params)


def appell_f1_point_sum(params: AppellF1Params) -> CycInt:
    """The two-variable point sum; zero whenever x = 0 or y = 0."""
    return _public(f1_point_idx, params)


def appell_f1_char_sum(params: AppellF1Params) -> CycInt:
    """The double character-sum route, with its 1/(q - 1)^2."""
    return _public(f1_charsum_idx, params)
