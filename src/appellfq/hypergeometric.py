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


def _reduction_rows(ft: FieldTable) -> np.ndarray:
    """The (n, phi) rows that reduce zeta-power counts, once the int64
    tensor paths are known not to overflow on this field.

    Binomial counts have mass q - 2, so the uncleared F1 sum has mass at
    most n^2 (q-2)^3 and the point side of the thm1.3 batch, P_red (q-1)^2,
    at most (q-2)(q-1)^2; reducing multiplies by at most max |rows|. Past
    2^63 this raises ValueError before any tensor, or the rows, is built.
    """
    rows = ft._caches.get("rows")
    if rows is None:
        n, q = ft.n, ft.q
        bound = max(n * n * (q - 2) ** 3, (q - 2) * (q - 1) ** 2)
        if bound < 2**63:
            bound *= int(np.abs(_ring(n).np_rows).max())
        if bound >= 2**63:
            raise ValueError(
                f"q = {q}: exact character sums here can reach {bound}, past "
                f"the int64 limit 2^63 - 1; the point-sum route has no such limit"
            )
        rows = ft._caches["rows"] = _ring(n).np_rows
    return rows


def f21_charsum_idx(ft: FieldTable, a: int, b: int, c: int, xi: int) -> CycInt:
    """sum_chi [A chi|chi][B chi|C chi] chi(x), exact in Z[zeta_n].

    A product in the group ring Z[C_n] of two binomial rows per chi, counted
    in one call; its mass is at most n (q-2)^2, far inside int64.
    """
    n = ft.n
    if xi == 0:
        return cyc_zero(n)
    idx, ar = _np_ctx(ft)
    # [A chi_k | chi_k] chi_k(x) and [B chi_k | C chi_k] for every k
    U, V = binom_counts(ft, [a + ar, b + ar], [ar, c + ar], np.outer([xi - 1, 0], ar))
    total = np.einsum("ki,kmi->m", U, V[:, idx])
    return CycInt.from_powers(n, total.tolist())


def f1_charsum_idx(
    ft: FieldTable, a: int, b: int, bp: int, c: int, xi: int, yi: int
) -> CycInt:
    """sum_{chi,lam} [A chi lam|C chi lam][B chi|chi][B' lam|lam] chi(x) lam(y).

    Grouped by s = chi*lam and evaluated as integer tensor contractions in
    the group ring Z[C_n] over its 3n binomials, counted in one call; a
    field where int64 could overflow is refused (`_reduction_rows`).
    """
    n = ft.n
    if xi == 0 or yi == 0:
        return cyc_zero(n)
    rows = _reduction_rows(ft)
    idx, ar = _np_ctx(ft)
    # [B chi_k | chi_k] chi_k(x), [B' lam_k | lam_k] lam_k(y), [A s_k | C s_k]
    U, V, W = binom_counts(ft, [b + ar, bp + ar, a + ar], [ar, ar, c + ar],
                           np.outer([xi - 1, yi - 1, 0], ar))
    # pairwise group-ring products U[k] * V[l], then collapse k+l = s
    C1 = np.einsum("ki,lmi->klm", U, V[:, idx])
    G = C1[ar[:, None], idx.T, :].sum(axis=0)  # (s, m); idx.T[k,s] = s-k
    S = np.einsum("si,smi->m", W, G[:, idx])
    reduced = S @ rows
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
