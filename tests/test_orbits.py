"""Exhaustive verification: equivariance, the records, and memory.

For k prime to n = q - 1, the automorphism sigma_k: zeta -> zeta^k of
Q(zeta_n) sends chi_e to chi_(ke). Every side is equivariant:
side(k chars, elems) = sigma_k(side(chars, elems)), which on the batch
counts means that column j moves to column k j mod n.
`test_every_side_is_equivariant` checks it for every registry entry and
documented mutant. A constant inside a character exponent, such as
chi_(A+1)(x), would break it; such a side is refused outright by the
Fourier check of an exhaustive `verify` (`verifier._failing_elements`,
tests/test_fourier.py), where characters are linear forms, and
`test_a_constant_in_a_character_exponent_is_caught` keeps showing that
the numeric check sees it too.

`verify` in exhaustive mode must also report exactly what one chunk of
every binding, listed by `itertools.product` in domain order, finds,
record for record, at every cap: an oracle that shares no code with the
search over character prefixes that finds a failing check's records
(`verifier._search`, `_decode`). That holds with the default chunks and
with Fourier chunks of 1 to 3 element tuples, and for a side whose
earliest failing character tuple lies in the last element chunk. And it
must hold O(chunk) memory at any domain size: the Fourier check's pass,
and the search's expansion of a character over its n values.
"""

import dataclasses
import itertools
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
    # chi_(A+1)(x) goes to chi_(kA+1)(x), not to chi_(k(A+1))(x); the
    # equivariance check must see it at some field and unit. (A
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


def _one_chunk(entry, ft):
    """The records of `verifier._scan` over one chunk that holds every
    binding, listed by `itertools.product`, with no cap."""
    bindings = list(itertools.product(*_entry_domains(entry, ft)))
    chunks = [tuple(np.array(col, dtype=np.int64) for col in zip(*bindings))]
    return V._scan(entry, ft, chunks if bindings else [], 10**6)


def _last_chunk_side(ft):
    """On prop2.2's domain, lhs - rhs = 1 at the last x, and [A != 0] at
    every other x: the earliest failing character tuple, A = 0, lies in
    the last element chunk, after chunks whose failures come later."""
    entry = get_identity("prop2.2")  # characters A, elements x
    last = _entry_domains(entry, ft)[-1][-1]
    lhs = _side("last-chunk", ("A", "x"), f"c.intv(1 * (x == {last})) "
                f"+ c.intv(1 * (x != {last}) * (1 - c.dchar(A)))")
    return dataclasses.replace(entry, id="last-chunk", lhs=lhs,
                               rhs=_side("zero", ("A", "x"), "c.intv(0)"))


# q = 2 has thm3.7's empty element domain; 6 q cells make Fourier chunks
# of 3 element tuples, so that a search's records merge across chunks and
# a later chunk searches only the character tuples before the last record
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_exhaustive_records_equal_a_whole_domain_scan(q, monkeypatch):
    ft = _field(q)
    entries = registry() + [_mutant(e) for e in registry()] + [_last_chunk_side(ft)]
    wholes = [_one_chunk(entry, ft) for entry in entries]
    assert wholes[-1][0]["binding"] == {"A": 0, "x": q - 1}
    for cells in (V._CHUNK_CELLS, 6 * q):
        monkeypatch.setattr(V, "_CHUNK_CELLS", cells)
        for entry, whole in zip(entries, wholes):
            for cap in (1, 3, 10**6):
                rep = verify(entry, ft, max_counterexamples=cap)
                assert rep.cases == entry.domain_size(ft)
                assert rep.counterexamples == whole[:cap], (entry.id, cells, cap)


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


def test_one_character_expands_in_blocks_of_chunk_memory():
    # prop2.3-b's mutant at q = 16381 fails only at chi = 0. Past a cap of
    # 1 the search expands chi over all n = 16380 values, each over the n
    # cells of the check, in blocks of at most `_CHUNK_CELLS` cells: whole,
    # that expansion would be n^2 = 2.7e8 cells, 2.1 GB of int64
    ft = _field(16381)
    entry = _mutant(get_identity("prop2.3-b"))
    for cap in (1, 10):
        tracemalloc.start()
        try:
            rep = verify(entry, ft, max_counterexamples=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [ce["binding"] for ce in rep.counterexamples] == [{"chi": 0}]
        assert rep.cases == ft.n
        assert peak <= 6 * 2**20, (cap, peak)
