"""Exhaustive and seeded-sampling verification of registered identities.

Exhaustive mode enumerates the full declared domain in a fixed order
(character exponents lexicographically, then element indices); sampled
mode draws bindings from a counter-based splitmix64 stream so that
sample i depends only on (seed, i). Both modes therefore produce
identical reports for identical inputs.

Both modes run in one process. The numeric path feeds one loop int64
columns, a chunk of bindings at a time: exhaustive mode decodes them
from their domain positions (`_orbit_columns`, the one walk of a
domain), and sampled mode draws with the stream vectorized in numpy
uint64. The loop calls each compiled side once per chunk on an
`identities.BatchContext`, whose values are unreduced zeta-power counts,
and decides every binding on those counts with a zero test that needs
no reduction (`cyclotomic._Ring.vanishes`). A failing binding's report
values are its counts reduced by one checked int64 division
(`_Ring.reduce_rows`), so nothing is evaluated twice and a passing check
reduces nothing. A chunk whose counts could pass the int64 bound of that
test is refused with a ValueError naming q, in both modes, and an
exhaustive check of more than `_EXHAUSTIVE_CASES` bindings is refused
before any work.

Exhaustive mode first checks by Fourier coefficients
(`_failing_elements`): at fixed elements each side is a sum of terms
c zeta^j psi_v(chi) over the character tuples chi, psi_v(chi) =
zeta^<v, chi>, and by orthogonality of characters lhs = rhs at every chi
iff the two sides' psi_v coefficients agree in Z[zeta_n]. Each side is
evaluated once a chunk of element tuples on `identities.FormContext`,
whose characters are linear forms and whose kernels hand over their
linear forms instead of counts; the terms of lhs - rhs are summed by
(element tuple, v, j) and each (element tuple, v) row is zero-tested by
`_Ring.vanishes`. That is exact equality at all n^k character tuples of
an element tuple. If no element tuple fails, the report is the whole
domain's, with no records. If one fails, the check stops at that chunk,
and the records are those of the numeric scan below.

The numeric scan of an exhaustive domain goes by orbits. Every side is
equivariant under the automorphisms sigma_k: zeta -> zeta^k, k a unit
of Z/n: multiplying every character exponent by k applies sigma_k to
both sides, which keeps equality (tests/test_orbits.py guards this for
every side). So a binding fails iff the binding with the least
character tuple of its orbit, and the same elements, fails; and that one
comes no later in domain order. The scan first evaluates only those
representatives, about domain / phi(n) bindings. The first that fails
is the first failing binding of the domain: at a cap of 1 its record is
the report, and otherwise the same walk, with no units, resumes at that
binding. Either way the report is the one a scan of every binding
gives, and `cases` is the domain size.

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
from .cyclotomic import CycInt, _ring
from .fields import FieldTable
from .hypergeometric import _reduced
from .identities import BatchContext, FormContext, IdentityCase, get_identity, registry

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


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


def _entry_domains(entry: IdentityCase, ft: FieldTable) -> list[list[int]]:
    doms: list[list[int]] = [list(range(ft.n)) for _ in entry.chars]
    doms += [entry.elem_domain(ft, e) for e in entry.elems]
    return doms


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

    A binding fails where the counts of lhs - rhs are not zero in
    Z[zeta_n] (`_Ring.vanishes`). The records hold the sides' counts
    reduced by `hypergeometric._reduced`. A chunk where the mass of lhs -
    rhs times 2^omega(n) could reach 2^63 raises ValueError naming q.
    """
    q, n, names = ft.q, ft.n, (*entry.chars, *entry.elems)
    ring, batch = _ring(n), BatchContext.of(ft)
    cex: list[dict] = []
    for cols in chunks:
        lhs, rhs = entry.lhs(batch, cols), entry.rhs(batch, cols)
        diff = lhs - rhs
        _check_zero_test(q, diff.mass, ring)
        unequal = np.broadcast_to(~ring.vanishes(diff.a), len(cols[0]))
        for r in np.flatnonzero(unequal)[:cap - len(cex)]:
            cex.append({"binding": dict(zip(names, (int(c[r]) for c in cols))),
                        "lhs": _value(lhs.a, r, n), "rhs": _value(rhs.a, r, n)})
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


def _value(a: np.ndarray, r: int, n: int) -> CycInt:
    """Row r of counts `a` (a single row stands for every row), reduced."""
    return _reduced(n, a[min(r, len(a) - 1):])


def _scan_range(entry, ft, domains, cap, start=0, units=()):
    """`_scan` over the bindings of `_orbit_columns`, in chunks of
    `_step(q)`: every binding from the domain position `start` on, or with
    `units`, those whose character tuple is least of its orbit under
    them."""
    doms = [np.asarray(d, dtype=np.int64) for d in domains]
    chunks = _orbit_columns(doms, [len(d) for d in doms], len(entry.chars),
                            units, _step(ft.q), start)
    return _scan(entry, ft, chunks, cap)


def _orbit_columns(doms, shape, width, units, step, start=0):
    """Chunks of `step` bindings (the last one may be shorter), as int64
    columns (`_decode`), in domain order from the position `start`, of the
    bindings whose character tuple (the first `width` parameters,
    exponents mod n) is least of its orbit under multiplying every
    exponent by each of `units`: of every binding if there are none. The
    tuple of the binding at `start` must be such a least one.

    A tuple is compared by its code, its exponents read as base-n digits,
    which orders tuples as the domain does; each code stands for the
    element bindings that follow it. Codes are tested a block at a time
    against every unit at once, in blocks whose digits and their
    multiples by the units take at most `_CHUNK_CELLS` cells, and a kept
    code's bindings are decoded as they fill chunks, so memory stays
    O(chunk) at any domain size and the test costs width * len(units)
    cells a code.
    """
    n = shape[0]  # the domain of a character exponent is 0 .. n - 1
    total, per_code = n**width, math.prod(shape[width:])
    if not per_code:  # an empty element domain has no bindings
        return
    place = n ** np.arange(width - 1, -1, -1)
    units = np.array(units, dtype=np.int64).reshape(-1, 1)
    block = max(1, _CHUNK_CELLS // ((len(units) + 1) * max(width, 1)))
    kept = np.empty(0, dtype=np.int64)  # codes with bindings still to yield
    first, done = divmod(start, per_code)  # done: bindings of kept[0] yielded
    for lo in range(first, total, block):
        codes = np.arange(lo, min(lo + block, total))
        digits = _mod(codes[:, None, None] // place, n)  # (codes, 1, width)
        least = (codes[:, None] <= _mod(digits * units, n) @ place).all(axis=1)
        kept = np.concatenate([kept, codes[least]])
        last = lo + block >= total
        while len(kept) * per_code > done and (
                last or len(kept) * per_code - done >= step):
            stop = min(done + step, len(kept) * per_code)
            j = np.arange(done, stop)
            yield _decode(doms, shape, kept[j // per_code] * per_code + _mod(j, per_code))
            kept, done = kept[stop // per_code:], stop % per_code


def _check_key(q: int, rows: int, width: int) -> None:
    """Refuse, naming q, a Fourier check whose keys (element tuple, v, j),
    for `rows` tuples a chunk and `width` characters, could reach 2^63."""
    bound = rows * (q - 1) ** (width + 1)
    if bound >= 2**63:
        raise ValueError(f"q = {q}: the Fourier check's keys can reach {bound}, "
                         f"past the int64 limit 2^63 - 1")


def _failing_elements(entry, ft, domains):
    """For each chunk of `_step(q) / 2` element tuples, in domain order, which
    of them fail: where lhs != rhs at some character tuple.

    As a function of the characters chi in (Z/n)^k, each side is a sum of
    terms c zeta^j psi_v(chi), psi_v(chi) = zeta^<v, chi>
    (`identities.Terms`, from one call a chunk on `FormContext`). By
    orthogonality of characters, lhs = rhs at every chi iff for every v
    the two sides' coefficients of psi_v are equal in Z[zeta_n]. So the
    terms of lhs - rhs are summed by the key (element tuple, v, j), v and
    j mod n, into int64 counts, and each (element tuple, v) row of counts
    over j is zero-tested by `_Ring.vanishes`: exact equality at all n^k
    character tuples at once. The key and the zero test are refused where
    they could pass int64 (`_check_key`, `_check_zero_test`).
    """
    q, n, width = ft.q, ft.n, len(entry.chars)
    ctx, ring = FormContext.of(ft, width), _ring(n)
    doms = [np.asarray(d, dtype=np.int64) for d in domains[width:]]
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
        yield _unequal(diff, rows, ring)


def _unequal(diff, rows: int, ring) -> np.ndarray:
    """Which of `rows` element tuples have some (v, j) row of the terms
    `diff` whose counts are not zero in Z[zeta_n]."""
    n, t = ring.n, diff.t
    t = np.broadcast_to(t, (*t.shape[:2], rows))
    kept = t[-1] != 0
    digits = _mod(t[:-1, kept], n)  # (width + 1, kept terms)
    place = n ** np.arange(len(digits) - 1, -1, -1)
    key = np.nonzero(kept)[1] * n ** len(digits) + place @ digits
    order = np.argsort(key)
    key, c = key[order], t[-1, kept][order]
    bad = np.zeros(rows, dtype=bool)
    if not len(key):
        return bad
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    sums = np.add.reduceat(c, first)
    key, sums = key[first][sums != 0], sums[sums != 0]
    if not len(key):
        return bad
    # the rows (element tuple, v) of the nonzero counts, a block at a time
    row = key // n
    new = np.concatenate(([True], row[1:] != row[:-1]))
    rid, heads = np.cumsum(new) - 1, row[new]
    block = max(1, _CHUNK_CELLS // n)
    for lo in range(0, len(heads), block):
        s, e = np.searchsorted(rid, (lo, lo + block))
        a = np.zeros((min(block, len(heads) - lo), n), dtype=np.int64)
        a[rid[s:e] - lo, _mod(key[s:e], n)] = sums[s:e]
        bad[heads[lo:lo + block][~ring.vanishes(a)] // n ** (len(t) - 2)] = True
    return bad


def _check_exhaustive(entry, ft, domains, cap):
    """The records of an exhaustive check: none if `_failing_elements`
    finds no failing element tuple, which settles every binding; else,
    from the first failing chunk, those of `_scan_exhaustive`."""
    if not any(bad.any() for bad in _failing_elements(entry, ft, domains)):
        return []
    return _scan_exhaustive(_scan_range, entry, ft, domains, cap)


# The registered thm1.3 is checked under this name only so that the
# benchmark's span wrappers (perfbench/spans.py, ROADMAP item 4) can time
# it on their own; it is `_check_exhaustive` itself, not a second algorithm.
_thm13_exhaustive_batch = _check_exhaustive


def _scan_exhaustive(scan, entry, ft, domains, cap):
    """The records of `scan` over the whole domain, found first over one
    character tuple per orbit of the units of Z/n (see the module
    docstring)."""
    n = ft.n
    units = [k for k in range(2, n) if math.gcd(k, n) == 1] if entry.chars else []
    start = 0
    if units:
        first = scan(entry, ft, domains, 1, units=units)
        if not first or cap == 1:
            return first
        digits = [d.index(v) for d, v in zip(domains, first[0]["binding"].values())]
        start = int(np.ravel_multi_index(digits, [len(d) for d in domains]))
    return scan(entry, ft, domains, cap, start=start)


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
        w = _splitmix64(base + word * np.uint64(_GOLDEN))
        bad = w > top.reshape(-1, 1)
        if not bad.any():
            return w % b
        word = word + (np.cumsum(bad, axis=0) > 0)


def _scan_samples(entry, ft, domains, seed, cases, cap):
    """`_scan` over the samples 0 .. cases - 1."""
    doms = [np.asarray(d, dtype=np.int64) for d in domains]
    bounds, step = [len(d) for d in doms], _step(ft.q)
    chunks = (tuple(dom[d] for dom, d in
                    zip(doms, _draws(seed, lo, min(lo + step, cases), bounds)))
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
    in domain order; it checks every character tuple of an element tuple
    at once by Fourier coefficients, and scans one character tuple per
    orbit of the units of Z/n only if that check fails (see the module
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
    if mode == "sampled" and any(not d for d in domains):
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
    cex = _scan_range(probe, field, _entry_domains(entry, field), 1)
    return tuple(cex[0]["binding"].values()) if cex else None


def mutated_case(entry: IdentityCase) -> tuple:
    """(lhs, rhs) pair with the entry's documented mutation applied."""
    mut = entry.mutation
    if mut is None:
        raise ValueError(f"identity {entry.id} has no registered mutation")
    return entry.lhs, mut.fn
