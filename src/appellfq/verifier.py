"""Exhaustive and seeded-sampling verification of registered identities.

Exhaustive mode reports the full declared domain in a fixed order
(character exponents lexicographically, then element indices); sampled
mode draws bindings from a counter-based splitmix64 stream so that
sample i depends only on (seed, i). Both modes therefore produce
identical reports for identical inputs.

Both modes run in one process, and both call each compiled side once
a chunk on one `identities.BatchContext`, whose values are `Terms`: at
fixed elements each side is a sum of terms c zeta^j psi_v(chi) over the
character tuples chi, psi_v(chi) = zeta^<v, chi>.

Exhaustive mode checks by Fourier coefficients (`_failing_elements`): by
orthogonality of characters lhs = rhs at every chi iff the two sides'
psi_v coefficients agree in Z[zeta_n]. Each side is evaluated once a
chunk of element tuples at the width of its characters, and each
(element tuple, v) row of the terms of lhs - rhs is zero-tested by
`cyclotomic._Ring.vanishes`, which needs no reduction. If no element
tuple fails, the report is the whole domain's, with no records. Where one
fails, the same test with the first characters fixed finds its failing
bindings, prefix by prefix in domain order (`_search`), and the first
`cap` of them are the records.

The numeric scan (`_scan`) evaluates bindings as int64 columns at width
0, a chunk at a time: the records of an exhaustive check, and the draws
of sampled mode, made with the stream vectorized in numpy uint64. It
decides every binding by the same zero test of the counts of lhs - rhs
(`Terms.counts`). The report values of a chunk's failing bindings are
their sides' counts, reduced by one checked int64 division a side
(`_Ring.cycints`), so a passing check reduces nothing. Counts or keys
that could pass their exact range are refused with a ValueError naming
q, in both modes, and an exhaustive check of more than
`_EXHAUSTIVE_CASES` bindings is refused before any work.

Comparison is exact equality in Z[zeta_{q-1}] after clearing, and it is
the only condition a binding is checked for.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .characters import _mod
from .cyclotomic import _ring
from .fields import FieldTable
from .identities import BatchContext, IdentityCase, char_domain, get_identity, registry

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# the same constants and shifts as uint64 scalars, for the array path
_GOLDEN_U64, _M1_U64, _M2_U64 = np.uint64(_GOLDEN), np.uint64(_M1), np.uint64(_M2)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64(z):
    """One splitmix64 step of a Python int, or of each word of a uint64
    array, in place on one new array: uint64 arithmetic wraps modulo 2^64
    as `& _U64` does, so every word is the int path's."""
    if not isinstance(z, np.ndarray):
        z = (z + _GOLDEN) & _U64
        z = ((z ^ (z >> 30)) * _M1) & _U64
        z = ((z ^ (z >> 27)) * _M2) & _U64
        return z ^ (z >> 31)
    z = z + _GOLDEN_U64
    z ^= z >> _S30
    z *= _M1_U64
    z ^= z >> _S27
    z *= _M2_U64
    z ^= z >> _S31
    return z


@dataclass
class VerifyReport:
    """Outcome of checking one identity over one field."""

    identity_id: str
    q: int
    mode: str  # "exhaustive" | "sampled"
    seed: int | None
    cases: int
    counterexamples: list[dict] = field(default_factory=list)
    wall_ms: float = 0.0
    error: str | None = None

    @classmethod
    def from_error(cls, identity_id: str, q: int, mode: str, seed: int | None,
                   exc: Exception) -> VerifyReport:
        """The report of a verify that raised `exc`: no cases, and the
        exception's type and message as its error."""
        return cls(identity_id=identity_id, q=q, mode=mode,
                   seed=(seed or 0) if mode == "sampled" else None, cases=0,
                   error=f"{type(exc).__name__}: {exc}")

    @property
    def passed(self) -> bool:
        return self.error is None and not self.counterexamples

    def to_json(self) -> dict:
        # "ms" is rendered null: reports are required to be byte-identical
        # across reruns, which wall-clock time is not.
        return {
            "id": self.identity_id,
            "q": self.q,
            "mode": self.mode,
            "seed": self.seed,
            "cases": self.cases,
            "counterexamples": [
                {
                    "binding": ce["binding"],
                    "lhs": ce["lhs"].to_json(),
                    "rhs": ce["rhs"].to_json(),
                }
                for ce in self.counterexamples
            ],
            **({"error": self.error} if self.error is not None else {}),
            "ms": None,
        }


def _decode(domains: list[np.ndarray], shape: list[int],
            index: np.ndarray) -> tuple[np.ndarray, ...]:
    """The bindings at the domain positions `index`, as one int64 column
    per parameter (in domain order the last parameter varies fastest)."""
    cols = [None] * len(shape)
    for pos in range(len(shape) - 1, -1, -1):
        cols[pos] = domains[pos][_mod(index, shape[pos])]
        index = index // shape[pos]
    return tuple(cols)


def _entry_domains(entry: IdentityCase, ft: FieldTable) -> list[np.ndarray]:
    """The entry's parameter domains in binding order, each an int64 array
    made once a field: `char_domain` for each character, then each
    element's `elem_domain`."""
    return ([char_domain(ft)] * len(entry.chars)
            + [entry.elem_domain(ft, e) for e in entry.elems])


# int64 cells of a chunk's widest temporaries, which are (q, bindings):
# 128 KB each; a whole verify peaks at 1.1-1.4 MB (tracemalloc, q <= 25)
_CHUNK_CELLS = 1 << 14

# the most bindings an exhaustive check is admitted with, counted over the
# whole domain: thm4.* at q = 25 has 5.0e9, thm1.3 at q = 101 about 1e12.
# A check that passes evaluates each element tuple once (the Fourier
# check), so its work is the element tuples times the sides' terms
_EXHAUSTIVE_CASES = 2**34


def _step(q: int) -> int:
    """Bindings per chunk."""
    return max(1, _CHUNK_CELLS // q)


def _scan(entry, ft, chunks, cap):
    """The first `cap` counterexample records over the bindings that
    `chunks` yields, a chunk at a time, as tuples of int64 columns, one
    entry per binding.

    A binding fails where the counts of lhs - rhs (`Terms.counts`) are
    not zero in Z[zeta_n] (`_Ring.vanishes`). The records hold the sides'
    counts of a chunk's failing bindings, counted only in such a chunk and
    reduced by one `_Ring.cycints` a side. A chunk where the mass of
    lhs - rhs times 2^omega(n) could reach 2^63 raises ValueError naming q.
    """
    q, n, names = ft.q, ft.n, (*entry.chars, *entry.elems)
    ring, batch = _ring(n), BatchContext.of(ft)
    cex: list[dict] = []
    for cols in chunks:
        lhs, rhs = entry.lhs(batch, cols), entry.rhs(batch, cols)
        diff = lhs - rhs
        _check_zero_test(q, diff.mass, ring)
        size = len(cols[0])
        unequal = np.broadcast_to(~ring.vanishes(diff.counts()), size)
        rows = np.flatnonzero(unequal)[:cap - len(cex)]
        if not len(rows):
            continue
        values = (ring.cycints(np.broadcast_to(side.counts(), (size, n))[rows])
                  for side in (lhs, rhs))
        for r, lv, rv in zip(rows.tolist(), *values):
            cex.append({"binding": dict(zip(names, (int(c[r]) for c in cols))),
                        "lhs": lv, "rhs": rv})
        if len(cex) >= cap:
            break
    return cex


def _check_zero_test(q: int, mass: int, ring) -> None:
    """Refuse, naming q, counts of row mass `mass` whose zero test
    (`_Ring.vanishes`, which at most doubles a row's mass a prime of n)
    could reach 2^63."""
    bound = mass << len(ring.shifts)
    if bound >= 2**63:
        raise ValueError(f"q = {q}: the zero test can reach {bound}, past "
                         f"the int64 limit 2^63 - 1")


def _scan_range(entry, ft, cols):
    """`_scan` over the bindings `cols`, int64 columns, in chunks of
    `_step(q)`: the records of those that fail."""
    step, size = _step(ft.q), len(cols[0])
    chunks = (tuple(c[lo:lo + step] for c in cols) for lo in range(0, size, step))
    return _scan(entry, ft, chunks, size)


def _check_key(q: int, rows: int, width: int) -> None:
    """Refuse, naming q, a Fourier check whose keys (element tuple, v, j),
    for `rows` tuples a chunk and `width` characters, could reach 2^63."""
    bound = rows * (q - 1) ** (width + 1)
    if bound >= 2**63:
        raise ValueError(f"q = {q}: the Fourier check's keys can reach {bound}, "
                         f"past the int64 limit 2^63 - 1")


def _failing_elements(entry, ft, domains):
    """For each chunk of `_step(q) / 2` element tuples, in domain order, the
    index of its first tuple and the cells of those that fail, where lhs !=
    rhs at some character tuple (see the module docstring).

    Each side is called once a chunk on the `BatchContext` of width k, its
    k characters, for its terms (`identities.Terms`); the terms of
    lhs - rhs are summed by the key (element tuple, v, j), v and j mod n,
    and each (element tuple, v) row of counts over j is zero-tested
    (`_unequal`): exact equality at all n^k character tuples at once. The
    key and the zero test are refused where they could pass int64
    (`_check_key`, `_check_zero_test`).
    """
    q, n, width = ft.q, ft.n, len(entry.chars)
    ctx, ring = BatchContext.of(ft, width), _ring(n)
    doms = domains[width:]
    shape = [len(d) for d in doms]
    # half a numeric chunk: both sides' terms, and their difference, are
    # held at once, each about a numeric chunk's widest temporary
    total, step = math.prod(shape), max(1, _step(q) // 2)
    _check_key(q, min(step, total), width)
    for lo in range(0, total, step):
        rows = min(lo + step, total) - lo
        b = (*ctx.chars, *_decode(doms, shape, np.arange(lo, lo + rows)))
        diff = entry.lhs(ctx, b) - entry.rhs(ctx, b)
        _check_zero_test(q, diff.mass, ring)
        yield lo, _unequal(diff, rows, ring)


def _unequal(diff, rows: int, ring):
    """The cells of the terms `diff` of `rows` element tuples, summed by the
    key (element tuple, v, j), in the (element tuple, v) rows that are not
    zero in Z[zeta_n] (`_nonzero`): none if every tuple passes."""
    n, (size, terms, _) = ring.n, diff.e.shape
    e, c = np.broadcast_to(diff.e, (size, terms, rows)), np.broadcast_to(diff.c, (terms, rows))
    kept = c != 0
    digits = _mod(e[:, kept], n)  # (width + 1, kept terms)
    place = n ** np.arange(len(digits) - 1, -1, -1)
    key = np.nonzero(kept)[1] * n ** len(digits) + place @ digits
    return _nonzero(key, c[kept], ring)


def _nonzero(key, c, ring):
    """The counts c summed by key, row * n + j, in key order, of the rows
    whose counts over j are not zero in Z[zeta_n]. A row of one nonzero
    count c zeta^j is never zero; the rows of two or more are zero-tested a
    block of rows at a time."""
    n, order = ring.n, np.argsort(key)
    key, c = key[order], c[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))[:len(key)]
    sums = np.add.reduceat(c, first)
    key, sums = key[first][sums != 0], sums[sums != 0]
    if not len(key):
        return key, sums
    row = key // n
    starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
    size = np.diff(np.append(starts, len(key)))  # nonzero counts a row
    rid = np.repeat(np.arange(len(starts)), size)
    keep, multi = size == 1, size > 1
    # the cells of the rows of two or more counts, by their rank among them
    dense = multi[rid]
    mid, mkey, msums = (np.cumsum(multi) - 1)[rid[dense]], key[dense], sums[dense]
    rows, block = int(multi.sum()), max(1, _CHUNK_CELLS // n)
    bad = np.zeros(rows, dtype=bool)
    for lo in range(0, rows, block):
        s, e = np.searchsorted(mid, (lo, lo + block))
        bad[lo:lo + block] = _failing(mid[s:e] - lo, _mod(mkey[s:e], n), msums[s:e],
                                      min(block, rows - lo), ring)
    keep[multi] = bad
    keep = keep[rid]
    return key[keep], sums[keep]


def _failing(rid, j, c, rows: int, ring) -> np.ndarray:
    """Which of `rows` rows of counts over j, each count c added at (rid,
    j), are not zero in Z[zeta_n]."""
    a = np.zeros(rows * ring.n, dtype=np.int64)
    np.add.at(a, rid * ring.n + j, c)
    return ~ring.vanishes(a.reshape(rows, ring.n))


def _search(key, c, ring, width, cap, bound):
    """The first `cap` failing bindings of a chunk, among those whose
    character tuple has a code (its exponents read as base-n digits) below
    `bound`, in domain order, as int64 arrays of codes and of element tuples
    in the chunk; from the chunk's cells (`_unequal`).

    Fixing the first characters chi_1 .. chi_d to a_1 .. a_d turns each
    term c zeta^j psi_v(chi) into c zeta^(j + sum v_i a_i) psi_v'(chi'),
    v' and chi' the rest. So some binding with that prefix fails at an
    element tuple iff one of its rows of the substituted, regrouped cells
    is not zero (`_nonzero`), and a zero row stays zero, so it is dropped.
    The search expands the next character over its values, in blocks of
    at most `_CHUNK_CELLS` cells, and descends in increasing order only
    into the prefixes that have a failing binding.
    """
    n, found = ring.n, [np.zeros(0, dtype=np.int64)] * 2

    def record(code, at):
        take = cap - len(found[0])
        found[:] = np.append(found[0], code[:take]), np.append(found[1], at[:take])

    def visit(key, c, w, prefix):
        # key = (element tuple * n^w + v) * n + j, v over the w characters left
        span, low = n ** w, _mod(key, n ** w)
        v, j, rows = _mod(key // span, n), _mod(key, n), int(key[-1] // (span * n)) + 1
        top = min(n, -(-bound // (span // n)) - prefix * n)
        block = max(1, _CHUNK_CELLS // max(len(key), rows * n))
        for a0 in range(0, top, block):
            a = np.arange(a0, min(a0 + block, top))[:, None]
            # each cell at the row (value, element tuple, v'), exponent j + v a
            at = (np.arange(len(a))[:, None] * rows + key // (span * n)) * (span // n)
            jj, cs = _mod(j + v * a, n), np.tile(c, len(a))
            if w == 1:  # whole tuples: the rows are (value, element tuple)
                bad = np.flatnonzero(_failing(at.ravel(), jj.ravel(), cs, len(a) * rows, ring))
                record(prefix * n + a0 + bad // rows, bad % rows)
            else:
                sub, sums = _nonzero((at * n + low - j + jj).ravel(), cs, ring)
                size = rows * span
                for b in np.unique(sub // size):
                    s, e = np.searchsorted(sub, (b * size, (b + 1) * size))
                    if len(found[0]) < cap:
                        visit(sub[s:e] - b * size, sums[s:e], w - 1, prefix * n + a0 + int(b))
            if len(found[0]) >= cap:
                return

    if not width:  # no characters: the rows are the element tuples
        at = np.unique(key // n)
        record(np.zeros_like(at), at)
    else:
        visit(key, c, width, 0)
    return found


def _check_exhaustive(entry, ft, domains, cap):
    """The records of an exhaustive check: its first `cap` failing bindings
    in domain order, which `_search` finds in the chunks where
    `_failing_elements` finds a failing element tuple, evaluated by
    `_scan_range`. A chunk only searches the character tuples that come
    before the last of `cap` bindings already found."""
    width, ring = len(entry.chars), _ring(ft.n)
    codes = elems = np.zeros(0, dtype=np.int64)
    for lo, (key, c) in _failing_elements(entry, ft, domains):
        if len(key):
            bound = codes[-1] if len(codes) == cap else ft.n**width
            code, at = _search(key, c, ring, width, cap, bound)
            codes, elems = np.concatenate((codes, code)), np.concatenate((elems, lo + at))
            order = np.lexsort((elems, codes))[:cap]
            codes, elems = codes[order], elems[order]
        if len(codes) == cap and not codes[-1]:
            break  # no later binding comes before the last record
    if not len(codes):
        return []
    shape = [len(d) for d in domains]
    return _scan_range(entry, ft, (*_decode(domains[:width], shape[:width], codes),
                                   *_decode(domains[width:], shape[width:], elems)))


# The registered thm1.3 is checked under this name only so that the
# benchmark's span wrappers (perfbench/spans.py, ROADMAP item 4) can time
# it on their own; it is `_check_exhaustive` itself, not a second algorithm.
_thm13_exhaustive_batch = _check_exhaustive


def _sample_binding(entry, domains, seed, i) -> tuple[int, ...]:
    """Sample i: one column of `_draws`, as a tuple of domain values."""
    draws = _draws(seed, i, i + 1, [len(d) for d in domains])
    return tuple(dom[int(d[0])] for dom, d in zip(domains, draws))


def _draws(seed, start, stop, bounds):
    """Samples start .. stop - 1 as one uint64 row per bound b: for each
    sample i, a draw in [0, b) for each bound in turn, the next word of the
    stream of (seed, i) mod b, every word from one `_splitmix64` pass. A
    word past 2^64 - 1 - (2^64 mod b) is rejected, so the draws are
    unbiased: its draw and every later draw of its sample move on by one
    word, and the words are computed again (at odds below b / 2^64)."""
    counter = np.arange(start, stop, dtype=np.uint64) + np.uint64(1)
    base = _splitmix64(_splitmix64(seed & _U64) ^ counter)
    b = np.array(bounds, dtype=np.uint64).reshape(-1, 1)
    top = np.array([_U64 - (1 << 64) % bound for bound in bounds], dtype=np.uint64)
    word = np.arange(1, len(bounds) + 1, dtype=np.uint64).reshape(-1, 1)
    while True:
        w = _splitmix64(base + word * _GOLDEN_U64)
        bad = w > top.reshape(-1, 1)
        if not bad.any():
            return w % b
        word = word + (np.cumsum(bad, axis=0) > 0)


def _scan_samples(entry, ft, domains, seed, cases, cap):
    """`_scan` over the samples 0 .. cases - 1."""
    bounds, step = [len(d) for d in domains], _step(ft.q)
    chunks = (tuple(dom[d] for dom, d in
                    zip(domains, _draws(seed, lo, min(lo + step, cases), bounds)))
              for lo in range(0, cases, step))
    return _scan(entry, ft, chunks, cap)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def verify(
    identity: str | IdentityCase,
    field: FieldTable,
    mode: str = "exhaustive",
    sample_count: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
    max_counterexamples: int = 10,
) -> VerifyReport:
    """Check one identity over one field and report exactly.

    Both modes run batched in one process. Exhaustive mode reports the
    whole domain as `cases`, and the first `max_counterexamples` records
    in domain order, found by Fourier coefficients (see the module
    docstring).
    `jobs` is deprecated and ignored once validated (>= 1), so every
    report is the same at every `jobs`.
    """
    entry = get_identity(identity) if isinstance(identity, str) else identity
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    if max_counterexamples < 1:
        # with no record kept, a failing identity would report a pass
        raise ValueError(
            f"max_counterexamples must be >= 1, not {max_counterexamples}")
    if mode == "sampled" and (not sample_count or sample_count < 1):
        raise ValueError("sampled mode requires sample_count >= 1")
    cap = max_counterexamples
    domains = _entry_domains(entry, field)
    if mode == "sampled" and not all(map(len, domains)):
        raise ValueError(
            f"identity {entry.id} has an empty parameter domain at q={field.q}"
        )
    t0 = time.perf_counter()

    if mode == "exhaustive":
        cases, seed = entry.domain_size(field), None
        if cases > _EXHAUSTIVE_CASES:
            raise ValueError(
                f"q = {field.q}: {cases} bindings, over the exhaustive limit "
                f"of {_EXHAUSTIVE_CASES}; check this field with --sampled")
        check = (_thm13_exhaustive_batch if entry is get_identity("thm1.3")
                 else _check_exhaustive)
        cex = check(entry, field, domains, cap)
    else:
        cases, seed = sample_count, seed or 0
        cex = _scan_samples(entry, field, domains, seed, cases, cap)

    return VerifyReport(
        identity_id=entry.id,
        q=field.q,
        mode=mode,
        seed=seed,
        cases=cases,
        counterexamples=cex,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )


def verify_all(
    field: FieldTable,
    ids: list[str] | None = None,
    mode: str = "exhaustive",
    sample_count: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
    max_counterexamples: int = 10,
) -> list[VerifyReport]:
    """Run every registry entry (or the given ids); per-entry errors are
    captured in the report instead of aborting the batch. `jobs` is
    deprecated and ignored, as in `verify`."""
    entries = registry() if ids is None else [get_identity(i) for i in ids]
    kw = dict(mode=mode, sample_count=sample_count, seed=seed, jobs=jobs,
              max_counterexamples=max_counterexamples)
    reports = []
    for entry in entries:
        try:
            reports.append(verify(entry, field, **kw))
        except Exception as exc:  # keep the batch going
            reports.append(
                VerifyReport.from_error(entry.id, field.q, mode, seed, exc))
    return reports


def find_counterexample(
    entry: IdentityCase,
    field: FieldTable,
    lhs=None,
    rhs=None,
) -> tuple[int, ...] | None:
    """First binding (in domain order) where lhs != rhs, or None.

    Used by mutation-sensitivity tests: pass a mutated side to confirm the
    encoding is not vacuous.
    """
    probe = dataclasses.replace(entry, lhs=lhs or entry.lhs, rhs=rhs or entry.rhs)
    cex = _check_exhaustive(probe, field, _entry_domains(entry, field), 1)
    return tuple(cex[0]["binding"].values()) if cex else None


def mutated_case(entry: IdentityCase) -> tuple:
    """(lhs, rhs) pair with the entry's documented mutation applied."""
    mut = entry.mutation
    if mut is None:
        raise ValueError(f"identity {entry.id} has no registered mutation")
    return entry.lhs, mut.fn
