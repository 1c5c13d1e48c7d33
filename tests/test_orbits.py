"""Exhaustive verification over one character tuple per unit orbit.

For k prime to n = q - 1, the automorphism sigma_k: zeta -> zeta^k of
Q(zeta_n) sends chi_e to chi_(ke). An exhaustive `verify` first scans
only the bindings whose character tuple is least of its orbit under
these k, and scans the whole domain, from the first failing binding
on, only when one of them fails. That is sound only if every side is
equivariant: side(k chars, elems) = sigma_k(side(chars, elems)), which
on the batch counts means that column j moves to column k j mod n. This
is the soundness condition any new registry entry (and its documented
mutant) must meet, and `test_every_side_is_equivariant` checks it; a
constant inside a character exponent, such as chi_(A+1)(x), breaks it.

`verify` in exhaustive mode must also report exactly what one scan of
every binding in domain order (`verifier._scan_range`) finds, record for
record, at every cap, and hold O(chunk) memory at any domain size.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import appellfq.verifier as V
from appellfq import build_field, get_identity, registry, verify
from appellfq.fields import prime_power_decompose
from appellfq.identities import BatchContext, _side
from appellfq.verifier import _entry_domains, mutated_case

EQUIVARIANCE_Q = (4, 5, 7, 8, 9, 13)
BINDINGS = 400  # seeded bindings per side, field and unit


def _field(q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q = 2 is degenerate
        return build_field(*prime_power_decompose(q))


def _units(n):
    """The units of Z/n other than 1."""
    return [k for k in range(2, n) if math.gcd(k, n) == 1]


def _seeded_columns(entry, ft, rng):
    return tuple(np.asarray(d, dtype=np.int64)[rng.integers(0, len(d), BINDINGS)]
                 for d in _entry_domains(entry, ft))


def _moved_rows(side, entry, ft, k, cols):
    """Rows where the counts of side(k chars, elems) differ from those of
    side(chars, elems) with column j moved to column k j mod n."""
    n, width, batch = ft.n, len(entry.chars), BatchContext(ft)
    scaled = tuple(c * k % n for c in cols[:width]) + cols[width:]
    a = np.broadcast_to(side(batch, cols).a, (BINDINGS, n))
    moved = np.zeros_like(a)
    moved[:, np.arange(n) * k % n] = a
    b = np.broadcast_to(side(batch, scaled).a, (BINDINGS, n))
    return int((moved != b).any(axis=1).sum())


@pytest.mark.parametrize("q", EQUIVARIANCE_Q)
def test_every_side_is_equivariant(q):
    ft = _field(q)
    rng = np.random.default_rng(q)
    checks = 0
    for entry in registry():
        cols = _seeded_columns(entry, ft, rng)
        sides = {"lhs": entry.lhs, "rhs": entry.rhs, "mutant": entry.mutation.fn}
        for name, side in sides.items():
            for k in _units(ft.n):
                assert _moved_rows(side, entry, ft, k, cols) == 0, (entry.id, name, k)
                checks += 1
    assert checks == 3 * len(registry()) * len(_units(ft.n))


def test_a_constant_in_a_character_exponent_is_caught():
    # chi_(A+1)(x) goes to chi_(kA+1)(x), not to chi_(k(A+1))(x); the check
    # that guards the orbit scan must see it at some field and unit. (A
    # constant in a sign is harmless: chi_(A+1)(-1) = chi_1(-1) chi_A(-1),
    # and chi_1(-1) = +-1 is fixed by every sigma_k.)
    entry = get_identity("prop2.2")  # characters A, elements x
    control = _side("control", ("A", "x"), "c.cp((A + 1, x))")
    found = 0
    for q in EQUIVARIANCE_Q:
        ft = _field(q)
        cols = _seeded_columns(entry, ft, np.random.default_rng(q))
        found += sum(_moved_rows(control, entry, ft, k, cols) for k in _units(ft.n))
    assert found > 0


def _mutant(entry):
    lhs, rhs = mutated_case(entry)
    return dataclasses.replace(entry, lhs=lhs, rhs=rhs)


@pytest.mark.parametrize("q", [4, 5])
def test_exhaustive_records_equal_a_whole_domain_scan(q):
    ft = _field(q)
    for entry in map(_mutant, registry()):
        domains = _entry_domains(entry, ft)
        cases = entry.domain_size(ft)
        for cap in (1, 3, 10**6):
            rep = verify(entry, ft, max_counterexamples=cap)
            whole = V._scan_range(entry, ft, domains, cases, cap)
            assert rep.cases == cases
            assert rep.counterexamples == whole, (entry.id, cap)


def test_a_huge_admitted_domain_keeps_chunk_memory():
    # thm4.3-a at q = 101 has 1.01e10 bindings, inside the exhaustive limit;
    # its mutant's first record is found in O(chunk) memory
    ft = _field(101)
    entry = _mutant(get_identity("thm4.3-a"))
    assert entry.domain_size(ft) == 101 * 100**4 <= V._EXHAUSTIVE_CASES
    tracemalloc.start()
    try:
        rep = verify(entry, ft, max_counterexamples=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [tuple(ce["binding"].values()) for ce in rep.counterexamples] == [
        (0, 0, 1, 2, 2)]
    assert rep.cases == entry.domain_size(ft)
    assert peak <= 4 * 2**20, peak


def test_one_character_scans_zero_and_the_divisors_of_n():
    # the orbit of an exponent a under the units of Z/n is every exponent
    # with the same gcd(a, n), so its least member is that gcd: at
    # n = 16380 = 2^2 3^2 5 7 13 the scan evaluates 0 and the 71 divisors
    # below n, 72 of 16,380 bindings, testing all phi(n) = 3456 units
    ft = _field(16381)
    entry = get_identity("prop2.3-b")
    seen = []

    def counted(c, b):
        seen.extend(b[0].tolist())
        return entry.lhs(c, b)

    rep = verify(dataclasses.replace(entry, lhs=counted), ft)
    assert rep.passed and rep.cases == ft.n
    assert seen == [0] + [d for d in range(1, ft.n + 1) if ft.n % d == 0][:-1]
