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
`identities.BatchContext`, whose values are unreduced zeta-power counts;
only failing bindings are evaluated again, one at a time on the
`EvalContext`, to build the report. A sampled chunk whose counts could
pass the int64 bound, or whose (n, phi) reduction rows would pass
`_ROWS_BYTES`, is checked binding by binding instead.

Comparison is exact equality in Z[zeta_{q-1}] after clearing. Entries
registered with a div_power additionally assert that every coefficient of
the summed side is divisible by (q-1)^div_power; a remainder is recorded
as a counterexample marked "divisibility".
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import _ring
from .fields import FieldTable
from .identities import (
    BatchContext,
    Counts,
    EvalContext,
    IdentityCase,
    get_identity,
    registry,
)

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
    index = np.arange(start, stop)
    cols = [None] * len(shape)
    for pos in range(len(shape) - 1, -1, -1):
        index, digit = np.divmod(index, shape[pos])
        cols[pos] = domains[pos][digit]
    return tuple(cols)


def _entry_domains(entry: IdentityCase, ft: FieldTable) -> list[list[int]]:
    doms: list[list[int]] = [list(range(ft.n)) for _ in entry.chars]
    doms += [entry.elem_domain(ft, e) for e in entry.elems]
    return doms


def _binding_dict(entry: IdentityCase, binding: tuple[int, ...]) -> dict:
    return dict(zip((*entry.chars, *entry.elems), binding))


def _check_binding(entry, ctx, binding, divisor):
    """Returns a list of counterexample records for one binding."""
    lhs, rhs = entry.lhs(ctx, binding), entry.rhs(ctx, binding)
    record = {"binding": _binding_dict(entry, binding), "lhs": lhs, "rhs": rhs}
    out = [record] if lhs != rhs else []
    if divisor is not None and any(c % divisor for c in lhs.coeffs):
        out.append({**record, "note": "divisibility"})
    return out


# int64 cells of a chunk's widest temporaries, which are (bindings, q):
# 128 KB each; a whole verify peaks at 1.1-1.4 MB (tracemalloc, q <= 25)
_CHUNK_CELLS = 1 << 14

# bytes of the (n, phi) rows a batched scan may build, which stay cached
# with `_ring(n)`: 44.7 MB at q = 4099, 113 MB at 8191, 17.2 GB at 65536
_ROWS_BYTES = 1 << 27


def _admit_rows(ft: FieldTable) -> np.ndarray:
    """`_ring(n).np_rows`, or a ValueError naming q if the rows would pass
    `_ROWS_BYTES` (checked before they are built) or int64."""
    ring = _ring(ft.n)
    need = 8 * ft.n * ring.phi
    try:
        if need > _ROWS_BYTES:
            raise ValueError(f"the (n, phi) reduction rows need {need} bytes, "
                             f"over the budget of {_ROWS_BYTES}")
        return ring.np_rows
    except ValueError as exc:
        raise ValueError(f"q = {ft.q}: {exc}") from None


def _reduce(value: Counts, rows: np.ndarray, ft: FieldTable) -> np.ndarray:
    """The coefficients of `value` reduced by the (n, phi) `rows`, one row
    per row of `value`: exact iff mass * max|row| < 2^63, which is checked
    first, else a ValueError naming q."""
    bound = value.mass * _ring(ft.n).row_max
    if bound >= 2**63:
        raise ValueError(f"q = {ft.q}: reduced values can reach {bound}, past "
                         f"the int64 limit 2^63 - 1")
    return value.a @ rows


def _scan(entry, ft, columns, cases, cap, refuse=None):
    """The first `cap` counterexample records over the bindings
    0 .. cases - 1, which `columns(lo, hi)` gives a chunk at a time as a
    tuple of int64 columns, one entry per binding.

    A binding fails where lhs - rhs reduces to nonzero (by the (n, phi)
    rows that reduce z^j), or where the reduced lhs leaves a remainder mod
    (q-1)^div_power. Each failing binding, up to `cap` records, is checked
    again on an `EvalContext`, so the report holds the scalar sides'
    values. A chunk that `_reduce` refuses, or every chunk if the rows pass
    `_ROWS_BYTES` or int64, is checked binding by binding, or raises
    ValueError if `refuse` names a way out.
    """
    q = ft.q
    try:
        rows = _admit_rows(ft)
    except ValueError as exc:
        if refuse is not None:
            raise ValueError(f"{exc}; {refuse}") from None
        rows = None
    ctx, batch = EvalContext(ft), BatchContext(ft)
    divisor = (q - 1) ** entry.div_power if entry.div_power else None
    cex: list[dict] = []
    step = max(1, _CHUNK_CELLS // q)
    for lo in range(0, cases, step):
        cols = columns(lo, min(lo + step, cases))
        unequal = None
        if rows is not None:
            lhs = entry.lhs(batch, cols)
            diff = lhs - entry.rhs(batch, cols)
            try:
                unequal = _reduce(diff, rows, ft).any(axis=1)
            except ValueError as exc:
                if refuse is not None:
                    raise ValueError(f"{exc}; {refuse}") from None
        if unequal is None:
            for binding in zip(*(col.tolist() for col in cols)):
                found = _check_binding(entry, ctx, binding, divisor)
                cex.extend(found[: cap - len(cex)])
            continue
        size = len(cols[0])
        unequal = np.broadcast_to(unequal, size)
        undivided = np.zeros(size, dtype=bool)
        if divisor is not None:
            # lhs has at most the mass of lhs - rhs
            undivided = np.broadcast_to(
                (_reduce(lhs, rows, ft) % divisor).any(axis=1), size)
        for r in np.flatnonzero(unequal | undivided):
            if len(cex) >= cap:
                break
            binding = tuple(int(col[r]) for col in cols)
            found = _check_binding(entry, ctx, binding, divisor)
            notes = [False] * int(unequal[r]) + [True] * int(undivided[r])
            if ["note" in ce for ce in found] != notes:
                raise RuntimeError(
                    f"{entry.id}: batched and scalar evaluation disagree at "
                    f"{_binding_dict(entry, binding)}"
                )
            cex.extend(found[: cap - len(cex)])
    return cex


def _scan_range(entry, ft, domains, cases, cap):
    """`_scan` over the first `cases` bindings in domain order."""
    doms = [np.asarray(d, dtype=np.int64) for d in domains]
    shape = [len(d) for d in doms]
    return _scan(entry, ft, lambda lo, hi: _columns(doms, shape, lo, hi),
                 cases, cap,
                 refuse="sampled verification (--sampled) has no such limit")


# The registered thm1.3 is scanned under this name only so that the
# benchmark's span wrappers (perfbench/spans.py, ROADMAP item 5) can time
# it on their own; it is `_scan_range` itself, not a second algorithm.
_thm13_exhaustive_batch = _scan_range


def _sample_binding(entry, domains, seed, i) -> tuple[int, ...]:
    stream = _CounterStream(seed, i)
    return tuple(dom[stream.below(len(dom))] for dom in domains)


def _draws(seed, start, stop, bounds):
    """`_CounterStream(seed, i).below(b)` for each bound b in turn, drawn
    from one word each, for i = start .. stop - 1: one uint64 column per
    bound, and the mask of samples where a word fell in `below`'s
    rejection zone, whose draws are therefore not these."""
    stream = _CounterStream(seed, np.arange(start, stop, dtype=np.uint64))
    draws, rejected = [], np.zeros(stop - start, dtype=bool)
    for bound in bounds:
        w = stream.word()
        lim = (1 << 64) - ((1 << 64) % bound)
        if lim <= _U64:  # else, for a power of two, no word is rejected
            rejected |= w >= lim
        draws.append(w % bound)
    return draws, rejected


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
    return _scan(entry, ft, lambda lo, hi: _sample_columns(entry, doms, seed, lo, hi),
                 cases, cap)


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

    Both modes run batched in one process. `jobs` is deprecated and
    ignored once validated (>= 1), so every report is the same at every
    `jobs`.
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
        scan = (_thm13_exhaustive_batch if entry is get_identity("thm1.3")
                else _scan_range)
        cex = scan(entry, field, domains, cases, cap)
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
