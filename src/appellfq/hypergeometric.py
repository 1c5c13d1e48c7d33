"""Gauss and Appell-type hypergeometric sums over F_q, two routes each.

Conventions (q-scaled throughout, chi(0) = 0 including the trivial
character; "~" below means character inversion):

    2F1[A,B;C;x]      = eps(x) (BC)(-1) sum_u B(u) (B~C)(1-u) A~(1-ux)
    F1(A;B,B';C;x,y)  = eps(xy) (AC)(-1) sum_u A(u) (A~C)(1-u) B~(1-ux) B'~(1-uy)

The point sums above are the canonical Theta(q) evaluators. The character
sum forms are independent routes used for cross-validation:

    2F1 = 1/(q-1)   sum_chi     [A chi | chi] [B chi | C chi] chi(x)
    F1  = 1/(q-1)^2 sum_chi,lam [A chi lam | C chi lam] [B chi | chi]
                                [B' lam | lam] chi(x) lam(y)

where [.|.] is the scaled binomial coefficient from `characters.binom`.
Both divisions are exact; a remaining remainder raises and signals a bug
or a convention mismatch.

At a binomial pair (or a point) each factor of a character sum has an
exponent intercept + k slope, linear in the summed character chi_k, and
sum_k zeta^(kD) = n [D = 0 mod n]. So every character sum here is n (or
n^2) times one `np.bincount` of summed intercepts over the entries whose
slopes cancel (`_join`): O(q) time and memory, with no int64 bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import Character, _binom_logs
from .cyclotomic import CycInt, cyc_zero
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
# indices for elements). These are the hot paths of the verifier.
# ----------------------------------------------------------------------

def f21_point_idx(ft: FieldTable, a: int, b: int, c: int, xi: int) -> CycInt:
    n = ft.n
    if xi == 0:
        return cyc_zero(n)
    om = ft.one_minus_idx
    pref = ((b + c) * ft.log_minus_one) % n
    e2 = (c - b) % n
    e3 = (-a) % n
    lx = xi - 1
    counts = [0] * n
    for lu in range(n):
        i1 = om[lu + 1]  # 1 - u
        if i1 == 0:
            continue
        i2 = om[(lu + lx) % n + 1]  # 1 - ux
        if i2 == 0:
            continue
        counts[(pref + b * lu + e2 * (i1 - 1) + e3 * (i2 - 1)) % n] += 1
    return CycInt.from_powers(n, counts)


def f1_point_idx(
    ft: FieldTable, a: int, b: int, bp: int, c: int, xi: int, yi: int
) -> CycInt:
    n = ft.n
    if xi == 0 or yi == 0:
        return cyc_zero(n)
    om = ft.one_minus_idx
    pref = ((a + c) * ft.log_minus_one) % n
    e2 = (c - a) % n
    e3 = (-b) % n
    e4 = (-bp) % n
    lx = xi - 1
    ly = yi - 1
    counts = [0] * n
    for lu in range(n):
        i1 = om[lu + 1]  # 1 - u
        if i1 == 0:
            continue
        i2 = om[(lu + lx) % n + 1]  # 1 - ux
        if i2 == 0:
            continue
        i3 = om[(lu + ly) % n + 1]  # 1 - uy
        if i3 == 0:
            continue
        counts[
            (pref + a * lu + e2 * (i1 - 1) + e3 * (i2 - 1) + e4 * (i3 - 1)) % n
        ] += 1
    return CycInt.from_powers(n, counts)


# ----------------------------------------------------------------------
# Character-sum evaluators (uncleared: without the 1/(q-1)^k factor).
# ----------------------------------------------------------------------

def _join(n: int, s1: np.ndarray, e1: np.ndarray, s2: np.ndarray, e2: np.ndarray):
    """(s1[i], e1[i] + e2[j]) over every pair i, j with s1[i] + s2[j] = 0 mod n.

    A row entry (s, e) stands for zeta^(e + k s) in a sum over k = 0 .. n-1,
    and sum_k zeta^(k (s1 + s2)) = n [s1 + s2 = 0 mod n], so these pairs are
    the only terms of the product of two rows that survive the sum over k.
    The second row is sorted by slope class, and each entry of the first is
    repeated over its class, so a class may hold any number of entries.
    """
    key = s2 % n
    order = np.argsort(key, kind="stable")
    key = key[order]
    want = -s1 % n
    lo = np.searchsorted(key, want)
    reps = np.searchsorted(key, want, side="right") - lo
    i = np.repeat(np.arange(len(s1)), reps)
    # a match's place in `key`: its entry's `lo` plus its rank in the class
    at = np.arange(len(i)) + np.repeat(lo + reps - np.cumsum(reps), reps)
    return s1[i], e1[i] + e2[order[at]]


def _power_sum(n: int, e: np.ndarray) -> CycInt:
    """sum_i zeta_n^e[i], exact."""
    return CycInt.from_powers(n, np.bincount(e % n, minlength=n).tolist())


def point_logs(ft: FieldTable, *xis: int) -> np.ndarray:
    """Rows L of the point-sum exponents, which are linear in the characters.

    Over the u where none of u, 1 - u, 1 - ux (x in `xis`) is zero, the
    point sum of 2F1[A,B;C;x] has exponent B L0 + C L1 + A L2 at u, and
    that of F1(A;B,B';C;x,y) has A L0 + C L1 + B L2 + B' L3, with
    L0 = log(-1) + log u - log(1-u), L1 = log(-1) + log(1-u) and
    L2, L3 = -log(1-ux), -log(1-uy). No u contributes when some x is 0.
    """
    if 0 in xis:
        return np.zeros((2 + len(xis), 0), dtype=np.int64)
    n = ft.n
    base, neg = _point_table(ft)
    ls = [neg[xi - 1:xi - 1 + n] for xi in xis]  # -log(1 - g^lu x) by lu
    ok = np.maximum.reduce([neg[:n], *ls]) <= 0
    return np.vstack((base, *ls))[:, ok]


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


def f21_charsum_idx(ft: FieldTable, a: int, b: int, c: int, xi: int) -> CycInt:
    """sum_chi [A chi|chi][B chi|C chi] chi(x), exact in Z[zeta_n].

    At binomial pairs (l1, l2), with chi = chi_k and s = l1 + l2, the two
    rows have exponents a l1 + k (s + log x) and b l1 + c l2 + k s, so the
    sum over k is n times one `_join` of the rows on their slopes.
    """
    n = ft.n
    if xi == 0:
        return cyc_zero(n)
    l1, l2 = _binom_logs(ft)
    s = l1 + l2
    _, e = _join(n, s + (xi - 1), a * l1, s, b * l1 + c * l2)
    return _power_sum(n, e) * n


def f1_charsum_idx(
    ft: FieldTable, a: int, b: int, bp: int, c: int, xi: int, yi: int
) -> CycInt:
    """sum_{chi,lam} [A chi lam|C chi lam][B chi|chi][B' lam|lam] chi(x) lam(y).

    At binomial pairs (l1, l2), with chi = chi_k, lam = chi_l and
    s = l1 + l2, the three rows have exponents b l1 + k (s + log x),
    b' l1 + l (s + log y) and a l1 + c l2 + (k + l) s. The sums over k and
    l each keep only the terms whose slopes cancel, so the whole sum is
    n^2 times two `_join`s around the [A chi lam|C chi lam] row: O(q) work.
    The (q-1)^2 division is thus exact by construction; the thm1.3 batch,
    which enumerates (chi, lam), still checks it. Only binomial pairs are
    read, never the point-sum tables.
    """
    n = ft.n
    if xi == 0 or yi == 0:
        return cyc_zero(n)
    l1, l2 = _binom_logs(ft)
    s = l1 + l2
    t, e = _join(n, s + (xi - 1), b * l1, s, a * l1 + c * l2)  # k
    _, e = _join(n, -t, e, s + (yi - 1), bp * l1)  # l: the slope t again
    return _power_sum(n, e) * (n * n)


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
    """The 2F1 character-sum route, exactly divided by q - 1."""
    ft = params.A.field
    s = f21_charsum_idx(
        ft, params.A.exponent, params.B.exponent, params.C.exponent, params.x.index
    )
    return s.exact_div_int(ft.q - 1)


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
    """The double character-sum route, exactly divided by (q - 1)^2."""
    ft = params.A.field
    s = f1_charsum_idx(
        ft,
        params.A.exponent,
        params.B.exponent,
        params.Bp.exponent,
        params.C.exponent,
        params.x.index,
        params.y.index,
    )
    return s.exact_div_int((ft.q - 1) ** 2)
