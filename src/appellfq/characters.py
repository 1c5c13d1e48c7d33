"""Multiplicative characters of F_q^*, Jacobi sums and binomial coefficients.

A character is indexed by an exponent e mod q-1 against the field's fixed
generator g: chi(g^k) = zeta_{q-1}^{e*k}, extended to all of F_q by
chi(0) = 0 for every character including the trivial one. Values live in
Z[zeta_{q-1}].

The binomial coefficient here is the q-scaled variant
binom(A, B) = B(-1) * J(A, B-inverse), where J(A, B) is the Jacobi sum
sum over u in F_q of A(u) * B(1 - u). Both are one row of the column
kernel `binom_idx`, reduced once by the package's one checked int64
division (`cyclotomic._Ring.reduce_rows`) and kept in `binomial_table`;
a Jacobi sum is the binomial of B-inverse times B(-1).
"""

from __future__ import annotations

import numpy as np

from .cyclotomic import CycInt, _ring, cyc_zero, root_of_unity
from .fields import FieldElement, FieldTable


class Character:
    """A multiplicative character of F_q^*, immutable."""

    __slots__ = ("field", "exponent")

    def __init__(self, field: FieldTable, exponent: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "exponent", exponent % field.n)

    def __setattr__(self, *a):
        raise AttributeError("Character is immutable")

    def _check(self, other: "Character"):
        if other.field.q != self.field.q:
            raise ValueError(
                f"characters of different fields: q={self.field.q} vs q={other.field.q}"
            )

    def __mul__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(self.field, self.exponent + other.exponent)

    def inverse(self) -> "Character":
        """The conjugate character (inverse in the character group)."""
        return Character(self.field, -self.exponent)

    @property
    def is_trivial(self) -> bool:
        return self.exponent == 0

    def __call__(self, x: FieldElement) -> CycInt:
        ft = self.field
        if x.q != ft.q:
            raise ValueError(f"element of F_{x.q} fed to character of F_{ft.q}")
        if x.log is None:
            return cyc_zero(ft.n)
        return root_of_unity(ft.n, self.exponent * x.log)

    def eval_minus_one(self) -> CycInt:
        return root_of_unity(self.field.n, self.exponent * self.field.log_minus_one)

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.field.q == other.field.q and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.field.q, self.exponent))

    def __repr__(self):
        return f"Character(q={self.field.q}, exponent={self.exponent})"

    def to_json(self) -> dict:
        return {"q": self.field.q, "exponent": self.exponent}


def trivial_character(field: FieldTable) -> Character:
    return Character(field, 0)


def all_characters(field: FieldTable) -> list[Character]:
    """The q-1 characters in exponent order, trivial first."""
    return [Character(field, e) for e in range(field.n)]


def delta_elem(x: FieldElement) -> int:
    """1 if x = 0, else 0."""
    return 1 if x.log is None else 0


def delta_char(chi: Character) -> int:
    """1 if chi is trivial, else 0."""
    return 1 if chi.exponent == 0 else 0


# ----------------------------------------------------------------------
# Jacobi sums and binomial coefficients
# ----------------------------------------------------------------------

def jacobi_sum(A: Character, B: Character) -> CycInt:
    """J(A, B) = sum over u in F_q of A(u) B(1 - u), which is
    B(-1) [A|B~] by the definition of `binom` read backwards."""
    return binom(A, B.inverse()) * B.eval_minus_one()


def binom(A: Character, B: Character) -> CycInt:
    """The scaled binomial coefficient B(-1) * J(A, B-inverse): one
    `binom_idx` row, reduced once and kept in `binomial_table`."""
    A._check(B)
    return binomial_table(A.field)[A.exponent][B.exponent]


def _mod(e, n: int):
    """e mod n in [0, n) by floor division, which numpy runs by libdivide,
    about 4 times faster than `%`; exact for int64 e and n >= 1 (mod 2^64)."""
    return e - n * (e // n)


def _col(v) -> np.ndarray:
    """An int column (S,) as a (1, S) row, or an int as (1, 1), to
    broadcast against an (m, 1) column of u or of binomial pairs."""
    return np.asarray(v, dtype=np.int64).reshape(1, -1)


def _row_counts(n: int, e: np.ndarray, keep=True) -> np.ndarray:
    """(S, n) counts of the exponents e (m, S) mod n of each binding (a
    column of e), over the entries where `keep`, with one `np.bincount`."""
    e, mask = np.broadcast_arrays(e, keep)
    rows = e.shape[1]
    e = _mod(e, n) + n * np.arange(rows)
    picked = e.ravel() if keep is True else e[mask]
    return np.bincount(picked, minlength=rows * n).reshape(rows, n)


def _counts(n: int, pairs, keep=True) -> np.ndarray:
    """The default sink of every kernel: (S, n) counts of its linear form,
    the exponents sum c row over its `pairs` (c, row) where `keep`.

    A kernel hands its form, the coefficient of each exponent row (a
    character or an int column) with the row, and its mask, to a sink; the
    verifier's exhaustive check passes a sink that keeps the form whole
    (`identities.FormContext`), so no exponent is written twice.
    """
    (c, row), *rest = pairs
    e = _col(c) * row
    for c, row in rest:
        e = e + _col(c) * row
    return _row_counts(n, e, keep)


def _binom_logs(ft: FieldTable) -> tuple[np.ndarray, np.ndarray]:
    """l1 = log u and l2 = log(-1) - log(1 - u), (q - 2, 1) columns over u
    outside {0, 1}: binom(chi_a, chi_b) = sum_u zeta^(a l1 + b l2); cached."""
    logs = ft._caches.get("binom_logs")
    if logs is None:
        om = np.array(ft.one_minus_idx, dtype=np.int64)
        us = np.flatnonzero(om[1:])[:, None] + 1  # indices of the u outside {0, 1}
        logs = ft._caches["binom_logs"] = (us - 1, ft.log_minus_one + 1 - om[us])
    return logs


def _slope_index(ft: FieldTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inv, m1, m2): inv[v] is the binomial pair whose slope l1 + l2 is
    v mod n, or -1, and m1, m2 are `_binom_logs` with a 0 appended for
    that -1 to read (callers mask those entries out); cached.

    The slope l1 + l2 = log(-u / (1 - u)) is injective on u outside
    {0, 1}, so a slope class holds at most one pair, and slope 0 none.
    """
    tab = ft._caches.get("slope_index")
    if tab is None:
        l1, l2 = _binom_logs(ft)
        inv = np.full(ft.n, -1, dtype=np.int64)
        inv[_mod(l1 + l2, ft.n).ravel()] = np.arange(len(l1))
        tab = ft._caches["slope_index"] = (inv, np.append(l1, 0), np.append(l2, 0))
    return tab


def binom_idx(ft: FieldTable, a, b, sink=_counts):
    """binom(chi_a, chi_b) for int64 columns a and b (an int stands for
    every row): the form a l1 + b l2 over the q - 2 binomial pairs, to
    `sink`; by default (S, n) counts, from one bincount."""
    l1, l2 = _binom_logs(ft)
    return sink(ft.n, [(a, l1), (b, l2)])


class _BinomRow(dict):
    """Row a of the binomial table; an entry is computed on first read."""

    def __init__(self, ft: FieldTable, a: int):
        self.ft, self.a = ft, a

    def __missing__(self, b: int) -> CycInt:
        ft = self.ft  # mass q - 2: a count of 1 for each u outside {0, 1}
        counts = binom_idx(ft, self.a, b)
        v = self[b] = CycInt(ft.n, _ring(ft.n).reduce_rows(counts, ft.q - 2)[0].tolist())
        return v


class _BinomTable(dict):
    """The rows of the binomial table; a row is made on first read."""

    def __init__(self, ft: FieldTable):
        self.ft = ft

    def __missing__(self, a: int) -> _BinomRow:
        row = self[a] = _BinomRow(self.ft, a)
        return row


def binomial_table(ft: FieldTable) -> _BinomTable:
    """binom(chi_i, chi_j) as tab[i][j] for 0 <= i, j < n, cached on the
    field and filled on demand, so that a run pays only for the rows and
    entries it reads (one value at q = 65521 would otherwise make 65,520
    rows first, 0.3 s and 29 MB)."""
    tab = ft._caches.get("binom_table")
    if tab is None:
        tab = ft._caches["binom_table"] = _BinomTable(ft)
    return tab
