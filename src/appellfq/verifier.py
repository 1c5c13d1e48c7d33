"""Exhaustive and seeded-sampling verification of registered identities.

Exhaustive mode enumerates the full declared domain in a fixed order
(character exponents lexicographically, then element indices); sampled
mode draws bindings from a counter-based splitmix64 stream so that
sample i depends only on (seed, i). Both modes therefore produce
identical reports for identical inputs.

Both modes run in one process and feed one loop int64 columns, a chunk
of bindings at a time: exhaustive mode decodes a range of its domain,
and sampled mode draws with the stream vectorized in numpy uint64. The
loop calls each compiled side once per chunk on an
`identities.BatchContext`, whose values are unreduced zeta-power counts,
and decides every binding on those counts with a zero test that needs
no reduction (`cyclotomic._Ring.vanishes`). A failing binding's report
values are its counts reduced exactly in Python ints, so nothing is
evaluated twice. A chunk whose counts could pass the int64 bound of that
test is refused with a ValueError naming q, in both modes, and an
exhaustive check of more than `_EXHAUSTIVE_CASES` bindings is refused
before any work.

Exhaustive mode scans by orbits. Every side is equivariant under the
automorphisms sigma_k: zeta -> zeta^k, k a unit of Z/n: multiplying every
character exponent by k applies sigma_k to both sides, which keeps
equality and divisibility by (q-1)^d (tests/test_orbits.py guards this
for every side). So a binding fails iff the binding with the least
character tuple of its orbit, and the same elements, fails; and that
one comes no later in domain order. The scan first evaluates only those
representatives, about domain / phi(n) bindings. If none fails, that is
the report of the whole domain. If one fails, it is the first failing
binding of the domain: at a cap of 1 its record is the report, and
otherwise the ordinary scan resumes at the chunk that holds it. Either
way the report is the one a scan of every binding gives, and `cases`
is the domain size.

Comparison is exact equality in Z[zeta_{q-1}] after clearing. Entries
registered with a div_power additionally assert that every coefficient of
the summed side is divisible by (q-1)^div_power; a remainder is recorded
as a counterexample marked "divisibility".
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import CycInt, _ring
from .fields import FieldTable
from .identities import BatchContext, IdentityCase, get_identity, registry

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class _CounterStream:
    """Word stream that is a pure function of (seed, counter). A numpy uint64
    array of counters gives one stream per entry with the same words, since
    uint64 arithmetic wraps modulo 2^64 as the masked ints do."""

    def __init__(self, seed: int, counter: int):
        self._base = _splitmix64(_splitmix64(seed & _U64) ^ ((counter + 1) & _U64))
        self._i = 0

    def word(self) -> int:
        self._i += 1
        return _splitmix64((self._base + (self._i * _GOLDEN & _U64)) & _U64)

    def below(self, bound: int) -> int:
        # unbiased draw in [0, bound)
        lim = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self.word()
            if w < lim:
                return w % bound


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
        # across reruns and worker counts, which wall-clock time is not.
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
                    **({"note": ce["note"]} if "note" in ce else {}),
                }
                for ce in self.counterexamples
            ],
            **({"error": self.error} if self.error is not None else {}),
            "ms": None,
        }


def _columns(domains: list[np.ndarray], shape: list[int], start: int,
             stop: int) -> tuple[np.ndarray, ...]:
    """The bindings start .. stop - 1 in domain order, as one int64 column
    per parameter (the last parameter varies fastest)."""
    return _decode(domains, shape, np.arange(start, stop))


def _decode(domains: list[np.ndarray], shape: list[int],
            index: np.ndarray) -> tuple[np.ndarray, ...]:
    """The bindings at the domain positions `index`, as in `_columns`."""
    cols = [None] * len(shape)
    for pos in range(len(shape) - 1, -1, -1):
        index, digit = np.divmod(index, shape[pos])
        cols[pos] = domains[pos][digit]
    return tuple(cols)


def _entry_domains(entry: IdentityCase, ft: FieldTable) -> list[list[int]]:
    doms: list[list[int]] = [list(range(ft.n)) for _ in entry.chars]
    doms += [entry.elem_domain(ft, e) for e in entry.elems]
    return doms


# int64 cells of a chunk's widest temporaries, which are (bindings, q):
# 128 KB each; a whole verify peaks at 1.1-1.4 MB (tracemalloc, q <= 25)
_CHUNK_CELLS = 1 << 14

# the most bindings an exhaustive check is admitted with, counted over the
# whole domain: thm4.* at q = 25 has 5.0e9, thm1.3 at q = 101 about 1e12.
# A check that passes evaluates one character tuple per unit orbit, so its
# work is about domain / phi(n) bindings
_EXHAUSTIVE_CASES = 2**34


def _step(q: int) -> int:
    """Bindings per chunk."""
    return max(1, _CHUNK_CELLS // q)


def _scan(entry, ft, chunks, cap):
    """The first `cap` counterexample records over the bindings that
    `chunks` yields, a chunk at a time, as tuples of int64 columns, one
    entry per binding.

    A binding fails where the counts of lhs - rhs are not zero in
    Z[zeta_n] (`_Ring.vanishes`), or where the lhs leaves a remainder mod
    (q-1)^div_power: its counts are tested entrywise, and a row that
    fails that test is reduced exactly before it is recorded. The
    records hold the sides' counts reduced by `CycInt.from_powers`. A
    chunk where the mass of lhs - rhs times 2^omega(n) could reach 2^63
    raises ValueError naming q.
    """
    q, n, names = ft.q, ft.n, (*entry.chars, *entry.elems)
    ring, batch = _ring(n), BatchContext(ft)
    divisor = (q - 1) ** entry.div_power if entry.div_power else None
    cex: list[dict] = []
    for cols in chunks:
        size = len(cols[0])
        lhs, rhs = entry.lhs(batch, cols), entry.rhs(batch, cols)
        diff = lhs - rhs
        bound = diff.mass << len(ring.shifts)
        if bound >= 2**63:
            raise ValueError(f"q = {q}: the zero test can reach {bound}, past "
                             f"the int64 limit 2^63 - 1")
        unequal = np.broadcast_to(~ring.vanishes(diff.a), size)
        undivided = np.zeros(size, dtype=bool)
        if divisor is not None:
            undivided = np.broadcast_to((lhs.a % divisor).any(axis=1), size)
        for r in np.flatnonzero(unequal | undivided):
            if len(cex) >= cap:
                break
            record = {"binding": dict(zip(names, (int(c[r]) for c in cols))),
                      "lhs": _value(lhs.a, r, n), "rhs": _value(rhs.a, r, n)}
            if unequal[r]:
                cex.append(record)
            if undivided[r] and any(c % divisor for c in record["lhs"].coeffs):
                cex.append({**record, "note": "divisibility"})
        if len(cex) >= cap:
            break
    return cex[:cap]


def _value(a: np.ndarray, r: int, n: int) -> CycInt:
    """Row r of counts `a` (a single row stands for every row), reduced."""
    return CycInt.from_powers(n, a[min(r, len(a) - 1)].tolist())


def _scan_range(entry, ft, domains, cases, cap, start=0, units=()):
    """`_scan` over the bindings start .. cases - 1 in domain order, in
    chunks of `_step(q)` from `start`; with `units`, over the bindings
    whose character tuple is least of its orbit under them
    (`_orbit_columns`) instead."""
    doms = [np.asarray(d, dtype=np.int64) for d in domains]
    shape = [len(d) for d in doms]
    step = _step(ft.q)
    if units:
        chunks = _orbit_columns(doms, shape, len(entry.chars), units, step)
    else:
        chunks = (_columns(doms, shape, lo, min(lo + step, cases))
                  for lo in range(start, cases, step))
    return _scan(entry, ft, chunks, cap)


def _orbit_columns(doms, shape, width, units, step):
    """Chunks of at most `step` bindings, as `_columns` gives them, in
    domain order, of the bindings whose character tuple (the first `width`
    parameters, exponents mod n) is least of its orbit under multiplying
    every exponent by each of `units`.

    A tuple is compared by its code, its exponents read as base-n digits,
    which orders tuples as the domain does; each code stands for the
    element bindings that follow it. Codes are tested a block at a time
    against every unit at once, in blocks of at most `_CHUNK_CELLS`
    (code, unit, digit) cells, and a kept code's bindings are decoded as
    they fill chunks, so memory stays O(chunk) at any domain size and
    the test costs width * len(units) cells a code.
    """
    n = shape[0]  # the domain of a character exponent is 0 .. n - 1
    total, per_code = n**width, math.prod(shape[width:])
    place = n ** np.arange(width - 1, -1, -1)
    units = np.array(units).reshape(-1, 1)
    block = max(1, _CHUNK_CELLS // (len(units) * width))
    kept = np.empty(0, dtype=np.int64)  # codes with bindings still to yield
    done = 0  # bindings of kept[0] already yielded
    for lo in range(0, total, block):
        codes = np.arange(lo, min(lo + block, total))
        digits = codes[:, None, None] // place % n  # (codes, 1, width)
        least = (codes[:, None] <= digits * units % n @ place).all(axis=1)
        kept = np.concatenate([kept, codes[least]])
        last = lo + block >= total
        while len(kept) * per_code > done and (
                last or len(kept) * per_code - done >= step):
            stop = min(done + step, len(kept) * per_code)
            j = np.arange(done, stop)
            yield _decode(doms, shape, kept[j // per_code] * per_code + j % per_code)
            kept, done = kept[stop // per_code:], stop % per_code


# The registered thm1.3 is scanned under this name only so that the
# benchmark's span wrappers (perfbench/spans.py, ROADMAP item 5) can time
# it on their own; it is `_scan_range` itself, not a second algorithm.
_thm13_exhaustive_batch = _scan_range


def _scan_exhaustive(scan, entry, ft, domains, cases, cap):
    """The records of `scan` over the whole domain, found first over one
    character tuple per orbit of the units of Z/n (see the module
    docstring)."""
    n = ft.n
    units = [k for k in range(2, n) if math.gcd(k, n) == 1] if entry.chars else []
    start = 0
    if units:
        first = scan(entry, ft, domains, cases, 1, units=units)
        if not first or cap == 1:
            return first
        step = _step(ft.q)
        start = _position(domains, first[0]["binding"].values()) // step * step
    return scan(entry, ft, domains, cases, cap, start=start)


def _position(domains: list[list[int]], values) -> int:
    """The domain position of the binding with these parameter values."""
    pos = 0
    for dom, v in zip(domains, values):
        pos = pos * len(dom) + dom.index(v)
    return pos


def _sample_binding(entry, domains, seed, i) -> tuple[int, ...]:
    stream = _CounterStream(seed, i)
    return tuple(dom[stream.below(len(dom))] for dom in domains)


def _draws(seed, start, stop, bounds):
    """`_CounterStream(seed, i).below(b)` for each bound b in turn, drawn
    from one word each, for i = start .. stop - 1, in one `_splitmix64`
    pass: one uint64 row per bound, and the mask of samples where a word
    fell in `below`'s rejection zone (words past 2^64 - 1 - (2^64 mod b),
    none for a power of two), whose draws are therefore not these."""
    base = _CounterStream(seed, np.arange(start, stop, dtype=np.uint64))._base
    step = np.arange(1, len(bounds) + 1, dtype=np.uint64).reshape(-1, 1)
    words = _splitmix64(base + step * np.uint64(_GOLDEN))
    b = np.array(bounds, dtype=np.uint64).reshape(-1, 1)
    top = np.array([_U64 - (1 << 64) % bound for bound in bounds], dtype=np.uint64)
    return words % b, (words > top.reshape(-1, 1)).any(axis=0)


def _sample_columns(entry, domains, seed, start, stop):
    """The samples start .. stop - 1 of `_sample_binding` as int64 columns,
    from the domains as int64 arrays."""
    draws, rejected = _draws(seed, start, stop, [len(d) for d in domains])
    cols = tuple(dom[d] for dom, d in zip(domains, draws))
    for r in np.flatnonzero(rejected):
        for col, v in zip(cols, _sample_binding(entry, domains, seed, start + int(r))):
            col[r] = v
    return cols


def _scan_samples(entry, ft, domains, seed, cases, cap):
    """`_scan` over the samples 0 .. cases - 1."""
    doms = [np.asarray(d, dtype=np.int64) for d in domains]
    step = _step(ft.q)
    chunks = (_sample_columns(entry, doms, seed, lo, min(lo + step, cases))
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
    in domain order, but evaluates one character tuple per orbit of the
    units of Z/n until a binding fails (see the module docstring).
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
        scan = (_thm13_exhaustive_batch if entry is get_identity("thm1.3")
                else _scan_range)
        cex = _scan_exhaustive(scan, entry, field, domains, cases, cap)
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
    probe = dataclasses.replace(
        entry, lhs=lhs or entry.lhs, rhs=rhs or entry.rhs, div_power=0)
    domains = _entry_domains(entry, field)
    cex = _scan_range(probe, field, domains, entry.domain_size(field), 1)
    return tuple(cex[0]["binding"].values()) if cex else None


def mutated_case(entry: IdentityCase) -> tuple:
    """(lhs, rhs) pair with the entry's documented mutation applied."""
    mut = entry.mutation
    if mut is None:
        raise ValueError(f"identity {entry.id} has no registered mutation")
    return entry.lhs, mut.fn
