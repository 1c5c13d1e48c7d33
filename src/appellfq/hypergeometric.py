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
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .characters import Character, binom_counts
from .cyclotomic import CycInt, _ring, cyc_zero
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

def _np_ctx(ft: FieldTable) -> tuple[np.ndarray, np.ndarray]:
    """(idx, ar), idx[m, i] = (m - i) mod n and ar = 0..n-1; cached."""
    ctx = ft._caches.get("np_ctx")
    if ctx is None:
        ar = np.arange(ft.n)
        ctx = ft._caches["np_ctx"] = ((ar[:, None] - ar[None, :]) % ft.n, ar)
    return ctx


def _admit(ft: FieldTable, bound: int, rows: int, cells: int = 0) -> None:
    """Refuse, before anything is allocated, a call whose exact int64 counts
    can reach `bound` (2^63 or more), or whose int64 arrays would pass half
    of physical memory: `rows` rows of q - 2 pairs (three such arrays are
    alive at once while they are counted) and `cells` further entries."""
    q = ft.q
    if bound >= 2**63:
        raise ValueError(
            f"q = {q}: exact character sums here can reach {bound}, past "
            f"the int64 limit 2^63 - 1; the point-sum route has no such limit"
        )
    need = 8 * (3 * rows * (q - 2) + cells)
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    if need > budget:
        raise ValueError(
            f"q = {q}: this exact sum needs about {need} bytes of int64 "
            f"arrays, over the budget of {budget} bytes (half of physical "
            f"memory); the point-sum route (--route point) needs O(q)"
        )


def _reduction_rows(ft: FieldTable, rows: int, cells: int) -> np.ndarray:
    """The (n, phi) rows that reduce zeta-power counts, once the int64
    tensor paths are known not to overflow on this field and the caller's
    arrays to fit in memory (`_admit`).

    Binomial counts have mass q - 2, so the uncleared F1 sum has mass at
    most n^2 (q-2)^3 and the point side of the thm1.3 batch, P_red (q-1)^2,
    at most (q-2)(q-1)^2; reducing multiplies by at most max |rows|. Past
    2^63, or past the memory budget, this raises ValueError before any
    tensor, or the rows, is built.
    """
    n, q = ft.n, ft.q
    bound = max(n * n * (q - 2) ** 3, (q - 2) * (q - 1) ** 2)
    _admit(ft, bound, rows, cells)
    red = ft._caches.get("rows")
    if red is None:
        red = _ring(n).np_rows
        _admit(ft, bound * int(np.abs(red).max()), 0)
        ft._caches["rows"] = red
    return red


def ring_dot(ft: FieldTable, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """sum_k U[k] * V[k] in the group ring Z[C_n], for (K, n) count arrays.

    One (n, n) integer matmul, then a sum over its anti-diagonals mod n;
    exact while the result's mass (sum_k |U[k]| |V[k]|) stays below 2^63.
    """
    idx, ar = _np_ctx(ft)
    return (U.T @ V)[ar, idx].sum(axis=1)


def theta_counts(ft: FieldTable, e0: np.ndarray, d) -> np.ndarray:
    """(n, n) counts whose row theta is the histogram of (e0 + theta d) mod n:
    the zeta powers of a sum whose exponents shift linearly in theta."""
    _, ar = _np_ctx(ft)
    n = ft.n
    e = (e0 + ar[:, None] * d) % n + n * ar[:, None]
    return np.bincount(e.ravel(), minlength=n * n).reshape(n, n)


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

    Two binomial rows per chi, counted in one call, multiplied and summed in
    the group ring Z[C_n] by one `ring_dot`; the mass is at most n (q-2)^2.
    """
    n = ft.n
    if xi == 0:
        return cyc_zero(n)
    _admit(ft, n * (ft.q - 2) ** 2, 2 * n)
    _, ar = _np_ctx(ft)
    # [A chi_k | chi_k] chi_k(x) and [B chi_k | C chi_k] for every k
    U, V = binom_counts(ft, [a + ar, b + ar], [ar, c + ar], np.outer([xi - 1, 0], ar))
    return CycInt.from_powers(n, ring_dot(ft, U, V).tolist())


def f1_charsum_idx(
    ft: FieldTable, a: int, b: int, bp: int, c: int, xi: int, yi: int
) -> CycInt:
    """sum_{chi,lam} [A chi lam|C chi lam][B chi|chi][B' lam|lam] chi(x) lam(y).

    Grouped by s = chi*lam: the pairwise group-ring products of the chi and
    lam rows are one (n, n, n) integer tensor, collapsed to one row per s and
    contracted with the [A s|C s] rows by `ring_dot`, over 3n binomials
    counted in one call. A field where int64 could overflow, or where the
    tensors would not fit in memory, is refused first (`_reduction_rows`).
    """
    n = ft.n
    if xi == 0 or yi == 0:
        return cyc_zero(n)
    rows = _reduction_rows(ft, 3 * n, 3 * n**3)
    idx, ar = _np_ctx(ft)
    # [B chi_k | chi_k] chi_k(x), [B' lam_k | lam_k] lam_k(y), [A s_k | C s_k]
    U, V, W = binom_counts(ft, [b + ar, bp + ar, a + ar], [ar, ar, c + ar],
                           np.outer([xi - 1, yi - 1, 0], ar))
    # pairwise group-ring products U[k] * V[l], then collapse k+l = s
    C1 = np.einsum("ki,lmi->klm", U, V[:, idx])
    G = C1[ar[:, None], idx.T, :].sum(axis=0)  # (s, m); idx.T[k,s] = s-k
    reduced = ring_dot(ft, W, G) @ rows
    return CycInt(n, tuple(int(v) for v in reduced))


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
