"""Fixed-input timings of single layers, the same on every workload.

Each kernel is called until it has run at least three times and for at
least a tenth of a second, or, for slow kernels, until two seconds are
spent. Caches the kernel reads (binomial tables, the numpy context) are
filled before timing; the cold `EvalContext` kernel builds a fresh field
outside the timed call, so its binomial table is never cached.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time

MUL_N = (24, 100)
SUM_Q = (25, 101)
CTX_Q = (25, 64, 101)


def _enough(times: list[float]) -> bool:
    spent = sum(times)
    return spent >= 2.0 or (len(times) >= 3 and spent >= 0.1)


def _summary(times: list[float]) -> dict:
    return {"calls": len(times), "median_us": statistics.median(times) * 1e6}


def _time(fn) -> dict:
    times: list[float] = []
    while not _enough(times):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _summary(times)


def _dense(cyc, n: int, salt: int):
    """A fixed element of Z[zeta_n] with small dense coefficients."""
    phi = cyc.euler_phi(n)
    return cyc.CycInt(n, [((i * 7 + salt) * 2654435761 >> 7) % 19 - 9 for i in range(phi)])


def _pool_start():
    with multiprocessing.get_context("fork").Pool(processes=2) as pool:
        pool.map(abs, range(2))


def run(afq) -> dict:
    """{kernel name: {"calls", "median_us"}} for the imported package."""
    cyc, hyp, ids, ver = afq.cyclotomic, afq.hypergeometric, afq.identities, afq.verifier
    prime_power = afq.fields.prime_power_decompose

    out: dict[str, dict] = {}
    for n in MUL_N:
        a, b = _dense(cyc, n, 1), _dense(cyc, n, 2)
        root = cyc.root_of_unity(n, n // 3 + 1)
        out[f"cyclotomic.kernel.mul_general_n{n}"] = _time(lambda: a * b)
        out[f"cyclotomic.kernel.mul_root_n{n}"] = _time(lambda: a * root)

    fields = {}
    for q in CTX_Q:
        times: list[float] = []
        while not _enough(times):
            ft = afq.build_field(*prime_power(q))
            t0 = time.perf_counter()
            ids.EvalContext(ft)
            times.append(time.perf_counter() - t0)
        fields[q] = ft
        out[f"identities.kernel.ctx_cold_q{q}"] = _summary(times)

    for q in SUM_Q:
        ft = fields[q]
        n = ft.n
        a, b, bp, c, x, y = 1, 2, 3, 4 % n, 2, 3
        hyp.f1_charsum_idx(ft, a, b, bp, c, x, y)  # fills the numpy context
        out[f"hypergeometric.kernel.f21_point_q{q}"] = _time(
            lambda: hyp.f21_point_idx(ft, a, b, c, x))
        out[f"hypergeometric.kernel.f1_point_q{q}"] = _time(
            lambda: hyp.f1_point_idx(ft, a, b, bp, c, x, y))
        out[f"hypergeometric.kernel.f21_charsum_q{q}"] = _time(
            lambda: hyp.f21_charsum_idx(ft, a, b, c, x))
        out[f"hypergeometric.kernel.f1_charsum_q{q}"] = _time(
            lambda: hyp.f1_charsum_idx(ft, a, b, bp, c, x, y))

    ft = fields[25]
    entry = ids.get_identity("thm1.3")
    domains = ver._entry_domains(entry, ft)
    counter = iter(range(1 << 62))
    out["verifier.kernel.prng_draw"] = _time(
        lambda: ver._sample_binding(entry, domains, 20240811, next(counter)))

    out["verifier.pool.start"] = _time(_pool_start)
    return out
