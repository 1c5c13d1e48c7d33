"""Exhaustive and seeded-sampling verification of registered identities.

Exhaustive mode enumerates the full declared domain in a fixed order
(character exponents lexicographically, then element indices); sampled
mode draws bindings from a counter-based PRNG so that sample i depends
only on (seed, i). Both modes therefore produce identical reports for
identical inputs, independent of the worker count: work is split into
contiguous index chunks and merged back in order.

Comparison is exact equality in Z[zeta_{q-1}] after clearing. Entries
registered with a div_power additionally assert that every coefficient of
the summed side is divisible by (q-1)^div_power; a remainder is recorded
as a counterexample marked "divisibility".
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .characters import binom_counts
from .cyclotomic import _ring
from .fields import FieldTable, build_field
from .identities import EvalContext, IdentityCase, get_identity

_U64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


class _CounterStream:
    """Word stream that is a pure function of (seed, counter)."""

    def __init__(self, seed: int, counter: int):
        self._base = _splitmix64(_splitmix64(seed & _U64) ^ ((counter + 1) & _U64))
        self._i = 0

    def word(self) -> int:
        self._i += 1
        return _splitmix64((self._base + self._i * _GOLDEN) & _U64)

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
            "ms": None,
        }


def _decode(entry: IdentityCase, domains: list[list[int]], shape: list[int],
            index: int) -> tuple[int, ...]:
    out = [0] * len(shape)
    for pos in range(len(shape) - 1, -1, -1):
        index, digit = divmod(index, shape[pos])
        out[pos] = domains[pos][digit]
    return tuple(out)


def _entry_domains(entry: IdentityCase, ft: FieldTable) -> list[list[int]]:
    doms: list[list[int]] = [list(range(ft.n)) for _ in entry.chars]
    doms += [entry.elem_domain(ft, e) for e in entry.elems]
    return doms


def _binding_dict(entry: IdentityCase, binding: tuple[int, ...]) -> dict:
    names = list(entry.chars) + list(entry.elems)
    return dict(zip(names, binding))


def _check_binding(entry, ctx, binding, divisor):
    """Returns a list of counterexample records for one binding."""
    lhs = entry.lhs(ctx, binding)
    rhs = entry.rhs(ctx, binding)
    out = []
    if lhs != rhs:
        out.append({"binding": _binding_dict(entry, binding), "lhs": lhs, "rhs": rhs})
    if divisor is not None and any(c % divisor for c in lhs.coeffs):
        out.append(
            {
                "binding": _binding_dict(entry, binding),
                "lhs": lhs,
                "rhs": rhs,
                "note": "divisibility",
            }
        )
    return out


def _scan_range(entry, ctx, domains, shape, start, stop, cap):
    divisor = (ctx.q - 1) ** entry.div_power if entry.div_power else None
    cex: list[dict] = []
    failures = 0
    for index in range(start, stop):
        binding = _decode(entry, domains, shape, index)
        found = _check_binding(entry, ctx, binding, divisor)
        if found:
            failures += len(found)
            if len(cex) < cap:
                cex.extend(found[: cap - len(cex)])
    return failures, cex


def _sample_binding(entry, domains, seed, i) -> tuple[int, ...]:
    stream = _CounterStream(seed, i)
    return tuple(dom[stream.below(len(dom))] for dom in domains)


def _scan_samples(entry, ctx, domains, seed, start, stop, cap):
    divisor = (ctx.q - 1) ** entry.div_power if entry.div_power else None
    cex: list[dict] = []
    failures = 0
    for i in range(start, stop):
        binding = _sample_binding(entry, domains, seed, i)
        found = _check_binding(entry, ctx, binding, divisor)
        if found:
            failures += len(found)
            if len(cex) < cap:
                cex.extend(found[: cap - len(cex)])
    return failures, cex


# ----------------------------------------------------------------------
# Parallel workers (fork-based; bindings and reports are plain data)
# ----------------------------------------------------------------------

def _worker(args):
    p, r, identity_id, mode, seed, start, stop, cap = args
    # the parent already admitted this field under its own table cap
    ft = build_field(p, r, max_q=p**r)
    ctx = EvalContext(ft)
    entry = get_identity(identity_id)
    domains = _entry_domains(entry, ft)
    if mode == "exhaustive":
        shape = [len(d) for d in domains]
        return _scan_range(entry, ctx, domains, shape, start, stop, cap)
    return _scan_samples(entry, ctx, domains, seed, start, stop, cap)


def _run_parallel(entry, ft, mode, seed, total, cap, jobs):
    chunk = (total + 4 * jobs - 1) // (4 * jobs)
    chunk = max(chunk, 1)
    tasks = [
        (ft.p, ft.r, entry.id, mode, seed, s, min(s + chunk, total), cap)
        for s in range(0, total, chunk)
    ]
    mp = multiprocessing.get_context("fork")
    with mp.Pool(processes=jobs) as pool:
        parts = pool.map(_worker, tasks)
    failures = sum(p[0] for p in parts)
    cex: list[dict] = []
    for _, part_cex in parts:
        for ce in part_cex:
            if len(cex) >= cap:
                break
            cex.append(ce)
    return failures, cex


# ----------------------------------------------------------------------
# Batched exhaustive path for the double character sum (thm1.3), where a
# per-binding loop would dominate the whole suite. Exact int64 tensor
# algebra; mismatches are re-evaluated on the scalar path for reporting.
# ----------------------------------------------------------------------

def _reduction_rows(ft: FieldTable) -> np.ndarray:
    """The (n, phi) rows that reduce zeta-power counts, once the batch is
    known to fit. Binomial counts have mass q - 2, so its int64 counts
    reach at most n^2 (q-2)^3 on the character side and (q-2)(q-1)^2 on the
    point side, times max |rows| once reduced; its arrays (three
    (n, n, q - 2) temporaries for the n^2 binomial rows, two n^5 and two n^4
    for the rotation gather) must fit in half of physical memory. Past
    either, this raises ValueError before any array, or the rows, is built.
    """
    n, q = ft.n, ft.q

    def within_int64(bound):
        if bound >= 2**63:
            raise ValueError(
                f"q = {q}: exact character sums here can reach {bound}, past "
                f"the int64 limit 2^63 - 1; the point-sum route has no such limit"
            )

    bound = max(n * n * (q - 2) ** 3, (q - 2) * (q - 1) ** 2)
    within_int64(bound)
    need = 8 * (3 * n * n * (q - 2) + 2 * n**5 + 2 * n**4)
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
    if need > budget:
        raise ValueError(
            f"q = {q}: this exact sum needs about {need} bytes of int64 "
            f"arrays, over the budget of {budget} bytes (half of physical "
            f"memory); the point-sum route (--route point) needs O(q)"
        )
    rows = _ring(n).np_rows
    within_int64(bound * int(np.abs(rows).max()))
    return rows


def _thm13_exhaustive_batch(entry, ctx, cap):
    import itertools

    ft = ctx.ft
    n, q = ft.n, ft.q
    qm1sq = (q - 1) ** 2
    rows = _reduction_rows(ft)
    ar = np.arange(n)
    idx = (ar[:, None] - ar[None, :]) % n  # idx[m, i] = (m - i) mod n
    bc = binom_counts(ft, ar[:, None], ar[None, :])  # (n, n, n)
    om = ft.one_minus_idx

    # point-sum tables shared by all character tuples
    L2 = np.array([om[lu + 1] - 1 for lu in range(n)], dtype=np.int64)
    L3 = np.array(
        [[om[(lu + lx) % n + 1] - 1 for lx in range(n)] for lu in range(n)],
        dtype=np.int64,
    )
    valid = (L2[:, None, None] >= 0) & (L3[:, :, None] >= 0) & (L3[:, None, :] >= 0)
    LU = np.broadcast_to(ar[:, None, None], (n, n, n))
    LXI = np.broadcast_to(ar[None, :, None], (n, n, n))
    LYI = np.broadcast_to(ar[None, None, :], (n, n, n))
    l3x = L3[:, :, None]
    l3y = L3[:, None, :]

    # rotation gather for the character-sum side
    SH = (ar[:, None] * ar[None, :]) % n  # SH[l, k] = k*l mod n
    IND = (
        ar[None, None, None, None, :]
        - SH[:, None, :, None, None]
        - SH[None, :, None, :, None]
    ) % n  # [lx, ly, k, l, m]
    KK = ar[None, None, :, None, None]
    LL = ar[None, None, None, :, None]

    failures = 0
    cex: list[dict] = []
    divisor = qm1sq if entry.div_power else None
    mism_bindings = []

    for a, b, bp, cc in itertools.product(range(n), repeat=4):
        # point side for all nonzero x, y
        pref = ((a + cc) * ft.log_minus_one) % n
        E = (
            pref
            + a * LU
            + ((cc - a) % n) * L2[:, None, None]
            + ((-b) % n) * l3x
            + ((-bp) % n) * l3y
        ) % n
        P = np.zeros((n, n, n), dtype=np.int64)
        np.add.at(P, (LXI[valid], LYI[valid], E[valid]), 1)
        P_red = P.reshape(n * n, n) @ rows

        # character-sum side for all nonzero x, y
        U0 = bc[(b + ar) % n, ar]
        V0 = bc[(bp + ar) % n, ar]
        W = bc[(a + ar) % n, (cc + ar) % n]
        P2 = np.einsum("ki,lmi->klm", U0, V0[:, idx])
        Wkl = W[(ar[:, None] + ar[None, :]) % n]
        T = np.einsum("kli,klmi->klm", P2, Wkl[:, :, idx])
        S = T[KK, LL, IND].sum(axis=(2, 3))  # [lx, ly, m]
        S_red = S.reshape(n * n, n) @ rows

        bad = np.nonzero((S_red != P_red * qm1sq).any(axis=1))[0]
        if divisor is not None:
            bad_div = np.nonzero((S_red % divisor != 0).any(axis=1))[0]
            bad = np.union1d(bad, bad_div)
        for flat in bad:
            lx, ly = divmod(int(flat), n)
            mism_bindings.append((a, b, bp, cc, lx + 1, ly + 1))

    for binding in mism_bindings:
        found = _check_binding(entry, ctx, binding, divisor)
        failures += len(found)
        if len(cex) < cap:
            cex.extend(found[: cap - len(cex)])
    return failures, cex


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
    """Check one identity over one field and report exactly."""
    entry = get_identity(identity) if isinstance(identity, str) else identity
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled":
        if not sample_count or sample_count < 1:
            raise ValueError("sampled mode requires sample_count >= 1")
        if seed is None:
            seed = 0
    cap = max_counterexamples
    ctx = EvalContext(field)
    domains = _entry_domains(entry, field)
    if mode == "sampled" and any(not d for d in domains):
        raise ValueError(
            f"identity {entry.id} has an empty parameter domain at q={field.q}"
        )
    t0 = time.perf_counter()

    if mode == "exhaustive":
        total = entry.domain_size(field)
        if entry.id == "thm1.3" and entry is get_identity("thm1.3"):
            failures, cex = _thm13_exhaustive_batch(entry, ctx, cap)
        elif jobs > 1 and total >= 4096:
            failures, cex = _run_parallel(entry, field, mode, seed, total, cap, jobs)
        else:
            shape = [len(d) for d in domains]
            failures, cex = _scan_range(entry, ctx, domains, shape, 0, total, cap)
        report_seed = None
        cases = total
    else:
        total = sample_count
        if jobs > 1 and total >= 4096:
            failures, cex = _run_parallel(entry, field, mode, seed, total, cap, jobs)
        else:
            failures, cex = _scan_samples(entry, ctx, domains, seed, 0, total, cap)
        report_seed = seed
        cases = total

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return VerifyReport(
        identity_id=entry.id,
        q=field.q,
        mode=mode,
        seed=report_seed,
        cases=cases,
        counterexamples=cex,
        wall_ms=wall_ms,
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
    captured in the report instead of aborting the batch."""
    from .identities import registry

    entries = registry() if ids is None else [get_identity(i) for i in ids]
    reports = []
    for entry in entries:
        try:
            reports.append(
                verify(
                    entry,
                    field,
                    mode=mode,
                    sample_count=sample_count,
                    seed=seed,
                    jobs=jobs,
                    max_counterexamples=max_counterexamples,
                )
            )
        except Exception as exc:  # keep the batch going
            reports.append(
                VerifyReport(
                    identity_id=entry.id,
                    q=field.q,
                    mode=mode,
                    seed=seed if mode == "sampled" else None,
                    cases=0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
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
    ctx = EvalContext(field)
    lhs_fn = lhs or entry.lhs
    rhs_fn = rhs or entry.rhs
    domains = _entry_domains(entry, field)
    shape = [len(d) for d in domains]
    total = entry.domain_size(field)
    for index in range(total):
        binding = _decode(entry, domains, shape, index)
        if lhs_fn(ctx, binding) != rhs_fn(ctx, binding):
            return binding
    return None


def mutated_case(entry: IdentityCase) -> tuple:
    """(lhs, rhs) pair with the entry's documented mutation applied."""
    mut = entry.mutation
    if mut is None:
        raise ValueError(f"identity {entry.id} has no registered mutation")
    if mut.side == "lhs":
        return mut.fn, entry.rhs
    return entry.lhs, mut.fn
