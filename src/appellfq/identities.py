"""Registry of verified character-sum identities.

Every entry states one exact equality in Z[zeta_{q-1}] between two
evaluators over a declared parameter domain (character exponents and field
elements, with boundary exclusions where a transformation argument such as
x/(x-1) is undefined or the equality genuinely fails on a boundary slice).

Identities whose statements carry a 1/(q-1)^k factor are registered in
cleared form: the summed side stays undivided and the closed side is
multiplied by (q-1)^k; the verifier checks equality alone, and the tests
check each summed side against its literal sum over characters. Right
sides are encoded term by term, including eps() and delta() factors,
with no algebraic simplification.

Each side is written once, as a Python expression over `c` (a
`BatchContext`) and the binding names, and compiled when this module is
imported into a plain function `side(c, b)`. An entry's documented
mutation is one edit of its rhs text, (description, old, new): `old`
must occur exactly once in the rhs, and the mutant is the rhs with it
replaced by `new`, compiled the same way.

A binding holds character exponents first, then element enumeration
indices, in the order of `chars` + `elems`, each an int64 column with one
entry per binding (or an int that stands for every row). At fixed
elements a side is a finite sum of terms c zeta^j psi_v(chi) over the
character tuples chi, psi_v(chi) = zeta^<v, chi>, and a compiled side
returns that sum for a whole chunk of bindings as `Terms`, so it is
written without Python branches on its bindings. `BatchContext(ft,
width)` is the one evaluator. At width 0 (the verifier's sampled scan and
records, and `table`) the characters are int columns, folded into j, and
`Terms.counts` gives each binding's zeta-power counts; at width k (the
exhaustive check) the characters are the k unit `Form`s, and the terms
are the side's coefficients as a function of the characters. The kernels
return their linear forms, which the context makes terms at every width,
so no exponent is written twice. The tests keep a scalar `CycInt`
evaluator of the same sides as their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.fft  # noqa: F401 (np.fft is lazy: load it at import, not mid-verify)

from .characters import _col, _mod, _slope_index, binom_idx
from .characters import binomial_table  # noqa: F401 (wrapped by perfbench/spans.py)
from .fields import FieldTable
from .hypergeometric import (
    f1_charsum_idx,
    f1_point_idx,
    f21_charsum_idx,
    f21_point_idx,
    point_rows,
)


# ----------------------------------------------------------------------
# The sums over characters of Sections 2 and 4 other than f21/f1, of
# int64 columns (an int stands for every row), by the gather of
# `hypergeometric.f21_charsum_idx`, u-major and returning forms as there.
# ----------------------------------------------------------------------

def power_sum_form(ft: FieldTable, step):
    """sum over k = 0 .. n-1 of zeta^(k step)."""
    return [(step, np.arange(ft.n)[:, None])], True


def binthm_form(ft: FieldTable, A, x):
    """sum over chi of [A chi|chi] chi(x), before a factor n.

    chi_k has exponent A l1 + k (l1 + l2 + log x) at the binomial pair
    (l1, l2), so only the one pair of slope -log x survives, n times.
    """
    n = ft.n
    inv, m1, _ = _slope_index(ft)
    x = _col(x)
    i = inv[_mod(1 - x, n)]
    return [(A, m1[i])], (i >= 0) & (x != 0)


def theta_form(ft: FieldTable, t, X, coeffs, k, *xis):
    """sum over theta of [X theta|theta] theta(t) S(theta), before a factor n.

    S(theta) is the point sum at `xis` whose exponent at u is
    coeffs . L + theta L[k], L = `point_rows`(xis): the sum's parameter
    in position k shifted by theta. [X theta|theta] theta(t) has exponent
    X l1 + theta (l1 + l2 + log t) at the binomial pair (l1, l2), so at
    each u the sum over theta keeps the pair whose slope cancels
    L[k] + log t, n times.
    """
    n = ft.n
    L, ok = point_rows(ft, *xis)
    inv, m1, _ = _slope_index(ft)
    t = _col(t)
    i = inv[_mod((1 - t) - L[k], n)]
    return [(X, m1[i]), *zip(coeffs, L)], ok & (i >= 0) & (t != 0)


class Form:
    """A character at width k (`BatchContext`): the linear form
    sum v_i chi_i in the characters chi_i of a binding, held as its int v.

    Forms add, negate and scale by ints, and the int 0 passed as a
    character is the trivial one. A constant added to a form, chi_(A+1),
    raises TypeError: a side is linear in its characters only without one,
    and the exhaustive check rests on that linearity.
    """

    __slots__ = ("v",)
    __array_ufunc__ = None

    def __init__(self, v):
        self.v = tuple(v)

    def __add__(self, other):
        if not isinstance(other, Form):
            raise TypeError(f"a constant {other!r} in a character exponent: a "
                            f"character is a linear form in the binding's characters")
        return Form(a + b for a, b in zip(self.v, other.v))

    __radd__ = __add__

    def __neg__(self):
        return Form(-a for a in self.v)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Form(a * k for a in self.v)

    __rmul__ = __mul__


# the most (term, element tuple) cells a product of two `Terms` may hold:
# with the difference of the sides, its keys and their sort, a cell takes
# about 260 bytes at the exhaustive check's peak (tracemalloc), so 2^19
# cells bound it at about 135 MB; prop2.1-b's binomial times binomial,
# (q - 2)^2 cells, is refused there from q = 727 on
_PRODUCT_CELLS = 1 << 19


def _check_product(n: int, cells: int) -> None:
    """Refuse a product of `cells` cells, past `_PRODUCT_CELLS`, naming q."""
    if cells > _PRODUCT_CELLS:
        raise ValueError(f"q = {n + 1}: a product of term lists would hold {cells} "
                         f"cells, past the limit of {_PRODUCT_CELLS}")


class Terms:
    """S values as functions of the characters chi of a binding: the sum
    over terms of c zeta^j psi_v(chi) / n^den, psi_v(chi) = zeta^<v, chi>,
    as int64 arrays: the exponent rows `e` (width + 1, terms, S), the v_i
    then j, and the coefficients `c` (terms, S); a last axis of 1 stands
    for every tuple. Exponents are not reduced mod n. At width 0 the
    characters are ints folded into j, and `counts` gives the zeta-power
    counts; `den` counts the `dchar` factors of a form, whose value
    (1/n) sum_k psi_(k f) is the one fraction a side holds.

    `mass` is a Python-int bound on sum |c| over the terms of one tuple,
    carried through every operation, so no |c| passes it. These are ring
    operations, exact modulo 2^64 in int64, so a result that `mass` keeps
    below 2^63 is exact: the zero test while mass * 2^omega(n) is, and the
    reduced coefficients while mass * `_Ring.row_max` is. `counts` and the
    FFT product (`_convolve`) check their own float64 bounds.
    """

    __slots__ = ("n", "e", "c", "mass", "den")
    __array_ufunc__ = None  # a numpy column defers to the reflected operators

    def __init__(self, n: int, e: np.ndarray, c: np.ndarray, mass: int, den: int = 0):
        self.n, self.e, self.c, self.mass, self.den = n, e, c, mass, den

    def counts(self) -> np.ndarray:
        """The (S, n) int64 zeta-power counts of a width-0 value (one row if
        neither array has a column per tuple) by one weighted `np.bincount`,
        exact in float64 below mass 2^53; past it refused first, naming q."""
        n = self.n
        if self.mass >= 2**53:
            raise ValueError(f"q = {n + 1}: counts of mass {self.mass} are exact in "
                             f"float64 only below 2^53")
        (j,), c = self.e, self.c
        rows = j.shape[1] if c.shape[1] == 1 else c.shape[1]
        at = _mod(j, n) + n * np.arange(rows)
        w = np.empty(at.shape)  # the float64 weights, c broadcast into them
        w[...] = c
        return np.bincount(at.ravel(), w.ravel(), rows * n).astype(np.int64).reshape(rows, n)

    def _over(self, den: int) -> Terms:
        """The same value over n^den."""
        if den == self.den:
            return self
        k = self.n ** (den - self.den)
        return Terms(self.n, self.e, self.c * k, self.mass * k, den)

    def __add__(self, other):
        if not isinstance(other, Terms):
            other = _constant(self.n, len(self.e) - 1, other)
        den = max(self.den, other.den)
        a, b = self._over(den), other._over(den)
        return Terms(self.n, _join(a.e, b.e, 1), _join(a.c, b.c, 0), a.mass + b.mass, den)

    __radd__ = __add__

    def __neg__(self):
        return Terms(self.n, self.e, -self.c, self.mass, self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """Every term by every term of `other` (one FFT of the counts for two
        numeric factors of more than one term each), or the coefficients
        scaled by an int or by an int column (one factor per tuple)."""
        if isinstance(other, Terms):
            if len(self.e) == len(other.e) == 1 and min(len(self.c), len(other.c)) > 1:
                return _convolve(self, other)
            return _product(self, other)
        k = _col(other) if isinstance(other, np.ndarray) else int(other)
        return Terms(self.n, self.e, self.c * k, self.mass * _bound(other), self.den)

    __rmul__ = __mul__


def _join(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """x and y joined along `axis`, one tuple broadcast to the other's
    tuples (the last axis) only where the two differ."""
    if x.shape[-1] != y.shape[-1]:
        cols = x.shape[-1] if y.shape[-1] == 1 else y.shape[-1]
        x, y = (np.broadcast_to(t, (*t.shape[:-1], cols)) for t in (x, y))
    return np.concatenate((x, y), axis=axis)


def _bound(v) -> int:
    """max |v| for an int or an int column v."""
    return int(np.abs(v).max(initial=0)) if isinstance(v, np.ndarray) else abs(int(v))


def _constant(n: int, width: int, v) -> Terms:
    """v zeta^0 psi_0 for each tuple, for an int or an int column v."""
    return Terms(n, np.zeros((width + 1, 1, 1), dtype=np.int64), _col(v), _bound(v))


def _product(a: Terms, b: Terms) -> Terms:
    """The m1 m2 terms of two term lists; refused past `_PRODUCT_CELLS`."""
    m1, m2 = len(a.c), len(b.c)
    _check_product(a.n, m1 * m2 * max(a.e.shape[2], a.c.shape[1], b.e.shape[2], b.c.shape[1]))
    e = a.e[:, :, None] + b.e[:, None]
    c = a.c[:, None] * b.c[None]
    return Terms(a.n, e.reshape(len(e), m1 * m2, e.shape[3]), c.reshape(m1 * m2, c.shape[2]),
                 a.mass * b.mass, a.den + b.den)


def _norms(a: np.ndarray, mass: int) -> np.ndarray:
    """||row||_2 of each row of counts whose sum |count| `mass` bounds, from
    an exact sum of squares (in Python ints once mass^2 could pass 2^63)."""
    a = a if mass < 2**31 else a.astype(object)
    return np.sqrt((a * a).sum(axis=1).astype(np.float64))


def _convolve(u: Terms, v: Terms) -> Terms:
    """Two numeric factors of more than one term each multiplied as counts,
    out[m] = sum_j u[j] v[m - j], by one float64 FFT product, rounded.

    That is exact while every output is an integer float64 holds and its
    rounding error stays below 1/2. For a radix-2 FFT the error is at most
    about 13 log2(n) 2^-53 ||u||_2 ||v||_2 (Percival, Math. Comp. 72,
    2003; Brent and Zimmermann, Modern Computer Arithmetic, 2010, section
    3.3); c = 64 per log2(n) + 1 leaves room for pocketfft's mixed radices
    and Bluestein's FFTs of length >= 2n - 1. So unless mass(u) mass(v) <
    2^52 and max over rows ||u||_2 ||v||_2 2^-53 c (log2(n) + 1) < 1/4,
    the product is refused with a ValueError before any FFT runs. Binomial
    rows have ||.||_2 <= q - 2, so the registry's one such product,
    binomial times binomial, stays below 3e-5 at n = 16380.
    """
    a, b = u.counts(), v.counts()
    n, mass = u.n, u.mass * v.mass
    bound = ((_norms(a, u.mass) * _norms(b, v.mass)).max(initial=0)
             * 2.0**-53 * 64 * (math.log2(n) + 1))
    if mass >= 2**52 or bound >= 0.25:
        raise ValueError(f"an FFT product at n = {n} is exact only while mass < 2^52 and "
                         f"max ||u|| ||v|| 2^-53 64 (log2 n + 1) < 1/4: here mass "
                         f"{mass}, bound {bound:.3g}")
    f = np.fft.rfft(a, axis=1) * np.fft.rfft(b, axis=1)
    out = np.rint(np.fft.irfft(f, n, axis=1)).astype(np.int64)
    return Terms(n, np.arange(n).reshape(1, n, 1), out.T, mass)


class BatchContext:
    """The helpers a compiled side calls: the package's one evaluator.

    Element arguments are enumeration indices (0 is the zero element,
    index i > 0 has discrete log i - 1); characters are exponents mod q-1
    at `width` 0, the numeric evaluation, and the unit `Form`s `chars` at
    width k, the exhaustive check. Each argument is an int64 column with
    one entry per binding (per element tuple at width k), or an int for
    every row, and each value is `Terms`: a chunk in one call. The point
    sums and the five sums over characters (f21, f1, theta, binthm,
    power_sum) are the column kernels, whose linear forms `_terms` makes
    terms, with a bound on their mass (a point sum counts the q - 2 u
    outside {0, 1}); `sign` and `cp` are one term. The element
    helpers (sub, div, om, ng, eps, delta) are numeric columns at every
    width; `of` keeps one context a field and width.
    """

    def __init__(self, ft: FieldTable, width: int = 0):
        self.ft = ft
        self.n = ft.n
        self.q = ft.q
        self.qm1 = ft.q - 1
        self.lm1 = ft.log_minus_one
        self.width = width
        self.chars = tuple(Form(int(i == k) for i in range(width)) for k in range(width))

    @classmethod
    def of(cls, ft: FieldTable, width: int = 0) -> BatchContext:
        """The context of `ft` at `width`, made once and kept in its caches."""
        key = ("context", width)
        if key not in ft._caches:
            ft._caches[key] = cls(ft, width)
        return ft._caches[key]

    @property
    def om(self) -> np.ndarray:
        return self.ft.one_minus_idx

    @property
    def ng(self) -> np.ndarray:
        return self.ft.neg_idx

    def sub(self, i, j):
        """x_i - x_j by coefficient vectors, O(r) per binding."""
        ft = self.ft
        rows = ft.coeff_rows
        return ft.code_index[_mod(rows[i] - rows[j], ft.p) @ ft.place]

    def div(self, i, j):
        if np.any(np.asarray(j) == 0):
            raise ZeroDivisionError("inverse of 0 in F_q")
        return np.where(np.asarray(i) == 0, 0, _mod(np.asarray(i - j), self.n) + 1)

    def eps(self, i):
        return (np.asarray(i) != 0).astype(np.int64)

    def delta(self, i):
        return (np.asarray(i) == 0).astype(np.int64)

    def dchar(self, e):
        """[e trivial]: a 0/1 column, or (1/n) sum_k psi_(k e) for a form e."""
        if not isinstance(e, Form):
            return (_mod(np.asarray(e), self.n) == 0).astype(np.int64)
        return Terms(self.n, *self._terms(*power_sum_form(self.ft, e)), self.n, 1)

    def _terms(self, pairs, keep=True):
        """A kernel's linear form `(pairs, keep)` with one term per entry,
        as the `e` and `c` of `Terms`. A `Form` coefficient f adds f_i row
        to v_i, an int or int column k adds k row to j; c is the mask
        `keep`, a (terms, 1) column of ones for an unmasked form."""
        rows = [None] * (self.width + 1)  # None: no term yet, a row of 0

        def add(i, term):  # a row starts from its first product
            rows[i] = term if rows[i] is None else rows[i] + term

        for k, row in pairs:
            if isinstance(k, Form):
                for i, f in enumerate(k.v):
                    if f:
                        add(i, f * row)
            else:
                add(-1, _col(k) * row)
        if len(rows) == 1:  # numeric: j alone, a (terms, S) row, viewed
            e = rows[0][None]
        else:  # one assignment a row: np.stack of the broadcast rows is slower
            e = np.empty((len(rows), *np.broadcast_shapes((1, 1), *map(np.shape, rows))),
                         dtype=np.int64)
            for dst, row in zip(e, rows):
                dst[...] = 0 if row is None else row
        if keep is True:
            return e, np.ones((e.shape[1], 1), dtype=np.int64)
        return e, np.asarray(keep, dtype=np.int64)

    def _sum(self, kernel, mass, *args):
        """A kernel's terms at `args`, with `mass` bounding sum |c| a tuple."""
        return Terms(self.n, *self._terms(*kernel(self.ft, *args)), mass)

    def _one(self, pairs, keep=True):
        """keep zeta^e with e = sum c row over `pairs`: a character value."""
        return Terms(self.n, *self._terms(pairs, keep), 1)

    def sign(self, e):
        return self._one([(e, self.lm1)])

    def cp(self, *pairs):
        keep = np.logical_and.reduce([np.asarray(i) != 0 for _, i in pairs])
        return self._one([(e, i - 1) for e, i in pairs], _col(keep))

    def intv(self, v):
        return v if isinstance(v, Terms) else _constant(self.n, self.width, v)

    def binom(self, i, j):
        return self._sum(binom_idx, self.q - 2, i, j)

    def f21(self, a, b, c, x):
        return self._sum(f21_point_idx, self.q - 2, a, b, c, x)

    def f1(self, a, b, bp, c, x, y):
        return self._sum(f1_point_idx, self.q - 2, a, b, bp, c, x, y)

    def f21_sum(self, a, b, c, x):
        return self._sum(f21_charsum_idx, self.q - 2, a, b, c, x) * self.n

    def f1_sum(self, a, b, bp, c, x, y):
        return self._sum(f1_charsum_idx, self.q - 2, a, b, bp, c, x, y) * (self.n * self.n)

    def power_sum(self, step):
        return self._sum(power_sum_form, self.n, step)

    def binthm(self, A, x):
        return self._sum(binthm_form, 1, A, x) * self.n

    def theta(self, t, X, coeffs, k, *xis):
        return self._sum(theta_form, self.n, t, X, coeffs, k, *xis) * self.n


# perfbench/child.py, kernels.py and spans.py build and wrap the context by this name
EvalContext = BatchContext


@dataclass(frozen=True)
class Mutation:
    """A documented single-token flip used for encoding-sensitivity tests."""

    description: str
    fn: Callable  # the mutated rhs


@dataclass(frozen=True)
class IdentityCase:
    id: str
    statement: str
    chars: tuple[str, ...]
    elems: tuple[str, ...]
    lhs: Callable
    rhs: Callable
    excluded: dict[str, frozenset[int]] | None = None
    mutation: Mutation | None = None

    def elem_domain(self, ft: FieldTable, name: str) -> np.ndarray:
        """The indices of F_q outside the element's exclusion set."""
        return _domain(ft, (self.excluded or {}).get(name, frozenset()))

    def domain_size(self, ft: FieldTable) -> int:
        return ft.n ** len(self.chars) * math.prod(
            len(self.elem_domain(ft, e)) for e in self.elems
        )


def _domain(ft: FieldTable, excluded: frozenset[int]) -> np.ndarray:
    """range(q) minus `excluded` as an int64 array, made once a field and
    exclusion set and kept, read-only, in its caches, since every caller
    shares it."""
    key = ("domain", excluded)
    if key not in ft._caches:
        dom = np.arange(ft.q, dtype=np.int64)
        dom = ft._caches[key] = dom[~np.isin(dom, list(excluded))]
        dom.flags.writeable = False
    return ft._caches[key]


def char_domain(ft: FieldTable) -> np.ndarray:
    """The character exponents 0 .. n-1 as an int64 array, made once a
    field and kept, read-only, in its caches."""
    key = ("domain", "characters")
    if key not in ft._caches:
        dom = ft._caches[key] = np.arange(ft.n, dtype=np.int64)
        dom.flags.writeable = False
    return ft._caches[key]


def _side(id, names, expr):
    """`expr` compiled into `side(c, b)`, which unpacks b into `names`."""
    src = f"def side(c, b):\n    {', '.join(names)}, = b\n    return {expr}\n"
    ns: dict = {}
    exec(compile(src, f"<{id}>", "exec"), ns)
    return ns["side"]


def _entry(id, statement, chars, elems, lhs, rhs, mutation, excluded=None):
    description, old, new = mutation
    if rhs.count(old) != 1:
        raise ValueError(
            f"{id}: the mutation's text {old!r} occurs {rhs.count(old)} "
            f"times in the rhs, not once"
        )
    chars, elems = tuple(chars), tuple(elems)
    names = chars + elems
    return IdentityCase(
        id=id,
        statement=statement,
        chars=chars,
        elems=elems,
        lhs=_side(id, names, lhs),
        rhs=_side(id, names, rhs),
        excluded=excluded,
        mutation=Mutation(description, _side(id, names, rhs.replace(old, new))),
    )


_NOT_ONE = frozenset({1})
_NOT_ZERO_ONE = frozenset({0, 1})
_F1_CHARS = ("A", "B", "Bp", "C")
_F1 = "c.f1(A, B, Bp, C, x, y)"
_EPS_F1 = "c.eps(c.sub(x, y)) * " + _F1

_REGISTRY: list[IdentityCase] = [
    _entry(
        "thm1.1",
        "sum_chi [A chi|chi][B chi|C chi] chi(x) = (q-1) 2F1[A,B;C;x]",
        "ABC", "x", "c.f21_sum(A, B, C, x)",
        "c.f21(A, B, C, x) * c.qm1",
        ("swap A and B on the point-sum side", "(A, B", "(B, A"),
    ),
    _entry(
        "thm1.2",
        "2F1[A,B;C;1] = A(-1) [B|A~C]",
        "ABC", "", "c.f21(A, B, C, 1)",
        "c.sign(A) * c.binom(B, C - A)",
        ("A~C -> AC in the binomial", "C - A", "C + A"),
    ),
    _entry(
        "thm1.3",
        "sum_{chi,lam} [A chi lam|C chi lam][B chi|chi][B' lam|lam]"
        " chi(x) lam(y) = (q-1)^2 F1(A;B,B';C;x,y)",
        _F1_CHARS, ("x", "y"), "c.f1_sum(A, B, Bp, C, x, y)",
        _F1 + " * (c.qm1 * c.qm1)",
        ("swap x and y on the point-sum side", "x, y", "y, x"),
    ),
    _entry(
        "cor1.1-sym",
        "F1(A;B,B';C;x,y) = F1(A;B',B;C;y,x)",
        _F1_CHARS, ("x", "y"), _F1,
        "c.f1(A, Bp, B, C, y, x)",
        ("drop the x,y swap on the right side", "y, x", "x, y"),
    ),
    _entry(
        "cor1.1-diag",
        "F1(A;B,B';C;x,x) = 2F1[BB',A;C;x]",
        _F1_CHARS, "x", "c.f1(A, B, Bp, C, x, x)",
        "c.f21(B + Bp, A, C, x)",
        ("BB' -> B B'~ in the 2F1", "B + Bp", "B - Bp"),
    ),
    _entry(
        "cor1.1-y1",
        "F1(A;B,B';C;x,1) = B'(-1) 2F1[B,A;B'~C;x]",
        _F1_CHARS, "x", "c.f1(A, B, Bp, C, x, 1)",
        "c.sign(Bp) * c.f21(B, A, C - Bp, x)",
        ("B'~C -> B'C in the 2F1", "C - Bp", "C + Bp"),
    ),
    _entry(
        "prop2.1-a",
        "[A|B] = [A|A B~]",
        "AB", "", "c.binom(A, B)",
        "c.binom(A, A - B)",
        ("A B~ -> A~ B", "A - B", "B - A"),
    ),
    _entry(
        "prop2.1-b",
        "[C|A][A|B] = [C|B][C B~|A B~]"
        " - (q-1)(B(-1) d(A) - AB(-1) d(B C~))",
        "ABC", "", "c.binom(C, A) * c.binom(A, B)",
        "c.binom(C, B) * c.binom(C - B, A - B)"
        " - (c.sign(B) * c.dchar(A) - c.sign(A + B) * c.dchar(B - C)) * c.qm1",
        ("flip the sign of the AB(-1) d(B C~) term",
         "- c.sign(A + B)", "+ c.sign(A + B)"),
    ),
    _entry(
        "prop2.2",
        "(q-1) A~(1-x) = (q-1) d(x) + sum_chi [A chi|chi] chi(x)",
        "A", "x", "c.cp((-A, c.om[x])) * c.qm1",
        "c.intv(c.delta(x) * c.qm1) + c.binthm(A, x)",
        ("d(x) -> d(1-x)", "c.delta(x)", "c.delta(c.om[x])"),
    ),
    _entry(
        "prop2.3-a",
        "sum_chi chi(t) = (q-1) d(t-1)",
        "", "t", "c.eps(t) * c.power_sum(t - 1)",
        "c.intv(c.qm1 * c.delta(c.sub(t, 1)))",
        ("d(t-1) -> d(t)", "c.delta(c.sub(t, 1))", "c.delta(t)"),
    ),
    _entry(
        "prop2.3-b",
        "sum_t chi(t) = (q-1) d(chi)",
        ("chi",), "", "c.power_sum(chi)",
        "c.intv(c.qm1 * c.dchar(chi))",
        ("(q-1) -> q", "c.qm1", "c.q"),
    ),
    _entry(
        "thm3.1-a",
        "F1(A;B,eps;C;x,y) = eps(y) 2F1[B,A;C;x]"
        " - eps(x) A~C(1-y) B C~(y) B~(y-x)",
        "ABC", "xy", "c.f1(A, B, 0, C, x, y)",
        "c.eps(y) * c.f21(B, A, C, x)"
        " - c.eps(x) * c.cp((C - A, c.om[y]), (B - C, y), (-B, c.sub(y, x)))",
        ("flip the sign of the boundary term", "- c.eps(x)", "+ c.eps(x)"),
    ),
    _entry(
        "thm3.1-b",
        "F1(A;eps,B';C;x,y) = eps(x) 2F1[B',A;C;y]"
        " - eps(y) A~C(1-x) B' C~(x) B'~(x-y)",
        ("A", "Bp", "C"), "xy", "c.f1(A, 0, Bp, C, x, y)",
        "c.eps(x) * c.f21(Bp, A, C, y)"
        " - c.eps(y) * c.cp((C - A, c.om[x]), (Bp - C, x), (-Bp, c.sub(x, y)))",
        ("flip the sign of the boundary term", "- c.eps(y)", "+ c.eps(y)"),
    ),
    _entry(
        "thm3.3-a",
        "F1(A;B,B';C;x,y) = C(-1) B~(1-x) B'~(1-y)"
        " F1(A~C;B,B';C;x/(x-1),y/(y-1))   [x,y != 1]",
        _F1_CHARS, "xy", _F1,
        "c.sign(C) * c.cp((-B, c.om[x]), (-Bp, c.om[y]))"
        " * c.f1(C - A, B, Bp, C, c.div(x, c.sub(x, 1)), c.div(y, c.sub(y, 1)))",
        ("B~(1-x) -> B(1-x)", "(-B, c.om[x])", "(B, c.om[x])"),
        excluded={"x": _NOT_ONE, "y": _NOT_ONE},
    ),
    _entry(
        "thm3.3-b",
        "eps(x-y) F1(A;B,B';C;x,y) = eps(y) A~(1-x)"
        " F1(A;B~B'~C,B';C;x/(x-1),(y-x)/(1-x))   [x != 1]",
        _F1_CHARS, "xy", _EPS_F1,
        "c.eps(y) * c.cp((-A, c.om[x])) * c.f1(A, C - B - Bp, Bp, C,"
        " c.div(x, c.sub(x, 1)), c.div(c.sub(y, x), c.om[x]))",
        ("A~(1-x) -> A(1-x)", "(-A, c.om[x])", "(A, c.om[x])"),
        excluded={"x": _NOT_ONE},
    ),
    _entry(
        "thm3.3-c",
        "eps(x-y) F1(A;B,B';C;x,y) = eps(y) C(-1) A~B~C(1-x) B'~(1-y)"
        " F1(A~C;B~B'~C,B';C;x,(x-y)/(1-y))   [x,y != 1]",
        _F1_CHARS, "xy", _EPS_F1,
        "c.eps(y) * c.sign(C) * c.cp((C - A - B, c.om[x]), (-Bp, c.om[y]))"
        " * c.f1(C - A, C - B - Bp, Bp, C, x, c.div(c.sub(x, y), c.om[y]))",
        ("(x-y)/(1-y) -> (y-x)/(1-y)", "c.sub(x, y)", "c.sub(y, x)"),
        excluded={"x": _NOT_ONE, "y": _NOT_ONE},
    ),
    _entry(
        "thm3.4-a",
        "eps(x-y) F1(A;B,B';C;x,y) = eps(x) A~(1-y)"
        " F1(A;B,B~B'~C;C;(x-y)/(1-y),y/(y-1))   [y != 1]",
        _F1_CHARS, "xy", _EPS_F1,
        "c.eps(x) * c.cp((-A, c.om[y])) * c.f1(A, B, C - B - Bp, C,"
        " c.div(c.sub(x, y), c.om[y]), c.div(y, c.sub(y, 1)))",
        ("A~(1-y) -> A(1-y)", "(-A, c.om[y])", "(A, c.om[y])"),
        excluded={"y": _NOT_ONE},
    ),
    _entry(
        "thm3.4-b",
        "eps(x-y) F1(A;B,B';C;x,y) = eps(x) C(-1) B~(1-x) A~B'~C(1-y)"
        " F1(A~C;B,B~B'~C;C;(y-x)/(1-x),y)   [x,y != 1]",
        _F1_CHARS, "xy", _EPS_F1,
        "c.eps(x) * c.sign(C) * c.cp((-B, c.om[x]), (C - A - Bp, c.om[y]))"
        " * c.f1(C - A, B, C - B - Bp, C, c.div(c.sub(y, x), c.om[x]), y)",
        ("B~(1-x) -> B(1-x)", "(-B, c.om[x])", "(B, c.om[x])"),
        excluded={"x": _NOT_ONE, "y": _NOT_ONE},
    ),
    _entry(
        "cor3.1",
        "2F1[B,A;C;x] = C(-1) B~(1-x) 2F1[B,A~C;C;x/(x-1)]   [x != 1]",
        "ABC", "x", "c.f21(B, A, C, x)",
        "c.sign(C) * c.cp((-B, c.om[x]))"
        " * c.f21(B, C - A, C, c.div(x, c.sub(x, 1)))",
        ("x/(x-1) -> x/(1-x)", "c.sub(x, 1)", "c.sub(1, x)"),
        excluded={"x": _NOT_ONE},
    ),
    # at x = 1 the first term's prefactor A~(1-x) = A~(0) is 0, and its
    # argument x/(x-1) is undefined; it is evaluated as x/(x - eps(1-x)),
    # since the 0/1 of eps is also the index of the element 0 or 1
    _entry(
        "cor3.1-greene-extended",
        "2F1[A,B;C;x] = C(-1) A~(1-x) 2F1[A,C B~;C;x/(x-1)]"
        " + A(-1) [B|A~C] d(1-x)",
        "ABC", "x", "c.f21(A, B, C, x)",
        "c.sign(C) * c.cp((-A, c.om[x]))"
        " * c.f21(A, C - B, C, c.div(x, c.sub(x, c.eps(c.om[x]))))"
        " + c.sign(A) * c.binom(B, C - A) * c.delta(c.om[x])",
        ("d(1-x) -> d(x)", "c.delta(c.om[x])", "c.delta(x)"),
    ),
    _entry(
        "cor3.2-a",
        "eps(x-y) F1(A;B,B';BB';x,y) = eps(xy) A~(1-x)"
        " 2F1[B',A;BB';(y-x)/(1-x)] - eps(y-x) B~(-x) B'~(-y)   [x != 1]",
        ("A", "B", "Bp"), "xy", "c.eps(c.sub(x, y)) * c.f1(A, B, Bp, B + Bp, x, y)",
        "c.eps(x) * c.eps(y) * c.cp((-A, c.om[x]))"
        " * c.f21(Bp, A, B + Bp, c.div(c.sub(y, x), c.om[x]))"
        " - c.eps(c.sub(y, x)) * c.cp((-B, c.ng[x]), (-Bp, c.ng[y]))",
        ("B~(-x) -> B~(x)", "(-B, c.ng[x])", "(-B, x)"),
        excluded={"x": _NOT_ONE},
    ),
    _entry(
        "cor3.2-b",
        "eps(x-y) F1(A;B,B';BB';x,y) = eps(xy) BB'(-1) A~B'(1-x) B'~(1-y)"
        " 2F1[B',A~BB';BB';(x-y)/(1-y)] - eps(x-y) B~(-x) B'~(-y)"
        "   [x,y != 1]",
        ("A", "B", "Bp"), "xy", "c.eps(c.sub(x, y)) * c.f1(A, B, Bp, B + Bp, x, y)",
        "c.eps(x) * c.eps(y) * c.sign(B + Bp)"
        " * c.cp((Bp - A, c.om[x]), (-Bp, c.om[y]))"
        " * c.f21(Bp, B + Bp - A, B + Bp, c.div(c.sub(x, y), c.om[y]))"
        " - c.eps(c.sub(x, y)) * c.cp((-B, c.ng[x]), (-Bp, c.ng[y]))",
        ("B'~(-y) -> B'~(y)", "(-Bp, c.ng[y])", "(-Bp, y)"),
        excluded={"x": _NOT_ONE, "y": _NOT_ONE},
    ),
    _entry(
        "thm3.7",
        "F1(A;B,B';C;x,y) = BB'(-1) F1(A;B,B';ABB'C~;1-x,1-y)"
        "   [x,y not in {0,1}]",
        _F1_CHARS, "xy", _F1,
        "c.sign(B + Bp) * c.f1(A, B, Bp, A + B + Bp - C, c.om[x], c.om[y])",
        ("ABB'C~ -> ABB'C", "Bp - C", "Bp + C"),
        excluded={"x": _NOT_ZERO_ONE, "y": _NOT_ZERO_ONE},
    ),
    _entry(
        "cor3.3",
        "2F1[B,A;C;x] = B(-1) 2F1[B,A;ABC~;1-x]"
        " + B(-1) [A|B~C] d(1-x) - [A|C] d(x)",
        "ABC", "x", "c.f21(B, A, C, x)",
        "c.sign(B) * c.f21(B, A, A + B - C, c.om[x])"
        " + c.sign(B) * c.binom(A, C - B) * c.delta(c.om[x])"
        " - c.binom(A, C) * c.delta(x)",
        ("flip the sign of the [A|C] d(x) term",
         "- c.binom(A, C)", "+ c.binom(A, C)"),
    ),
    # thm4.*: the point sum's parameter k in (A, C, B, B') of point_rows
    # is shifted by theta (k = 0 for A, 2 for B)
    _entry(
        "thm4.1",
        "sum_th [A C~ th|th] F1(A th;B,B';C;x,y) th(t) ="
        " (q-1)(eps(t) A~(1-t) F1(A;B,B';C;x/(1-t),y/(1-t))"
        " - eps(xy) A~C(-t) B~(1-x) B'~(1-y))   [t != 1]",
        _F1_CHARS, "xyt", "c.theta(t, A - C, (A, C, B, Bp), 0, x, y)",
        "(c.eps(t) * c.cp((-A, c.om[t]))"
        " * c.f1(A, B, Bp, C, c.div(x, c.om[t]), c.div(y, c.om[t]))"
        " - c.eps(x) * c.eps(y) * c.cp((C - A, c.ng[t]))"
        " * c.cp((-B, c.om[x]), (-Bp, c.om[y]))) * c.qm1",
        ("A~C(-t) -> A~C(t)", "(C - A, c.ng[t])", "(C - A, t)"),
        excluded={"t": _NOT_ONE},
    ),
    _entry(
        "thm4.2",
        "sum_th [B th|th] F1(A;B th,B';C;x,y) th(t) ="
        " (q-1)(eps(t) B~(1-t) F1(A;B,B';C;x/(1-t),y)"
        " - eps(y) B~(-t) B'C~(x) A~C(1-x) B'~(x-y))   [t != 1]",
        _F1_CHARS, "xyt", "c.theta(t, B, (A, C, B, Bp), 2, x, y)",
        "(c.eps(t) * c.cp((-B, c.om[t])) * c.f1(A, B, Bp, C, c.div(x, c.om[t]), y)"
        " - c.eps(y) * c.cp((-B, c.ng[t]), (Bp - C, x), (C - A, c.om[x]),"
        " (-Bp, c.sub(x, y)))) * c.qm1",
        ("B~(1-t) -> B(1-t)", "(-B, c.om[t])", "(B, c.om[t])"),
        excluded={"t": _NOT_ONE},
    ),
    _entry(
        "thm4.3-a",
        "sum_th [A C~ th|th] 2F1[B,A th;C;x] th(t) ="
        " (q-1)(eps(t) A~(1-t) 2F1[B,A;C;x/(1-t)]"
        " - eps(x) A~C(-t) B~(1-x))   [t != 1]",
        "ABC", "xt", "c.theta(t, A - C, (A, C, B), 0, x)",
        "(c.eps(t) * c.cp((-A, c.om[t])) * c.f21(B, A, C, c.div(x, c.om[t]))"
        " - c.eps(x) * c.cp((C - A, c.ng[t]), (-B, c.om[x]))) * c.qm1",
        ("A~C(-t) -> A~C(t)", "(C - A, c.ng[t])", "(C - A, t)"),
        excluded={"t": _NOT_ONE},
    ),
    _entry(
        "thm4.3-b",
        "sum_th [B th|th] 2F1[B th,A;C;x] th(t) ="
        " (q-1)(eps(t) B~(1-t) 2F1[B,A;C;x/(1-t)]"
        " - B~(-t) A~C(1-x) C~(x))   [t != 1]",
        "ABC", "xt", "c.theta(t, B, (A, C, B), 2, x)",
        "(c.eps(t) * c.cp((-B, c.om[t])) * c.f21(B, A, C, c.div(x, c.om[t]))"
        " - c.cp((-B, c.ng[t]), (C - A, c.om[x]), (-C, x))) * c.qm1",
        ("C~(x) -> C(x)", "(-C, x)", "(C, x)"),
        excluded={"t": _NOT_ONE},
    ),
]


def registry() -> list[IdentityCase]:
    """All registered identities, in stable order with stable ids."""
    return _REGISTRY


def get_identity(identity_id: str) -> IdentityCase:
    for entry in registry():
        if entry.id == identity_id:
            return entry
    raise KeyError(f"unknown identity id: {identity_id!r}")
