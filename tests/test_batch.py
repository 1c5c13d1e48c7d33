"""Batched evaluation (`identities.BatchContext`) against the scalar sides.

The exhaustive verifier compares sides on chunks of bindings as unreduced
zeta-power counts and re-evaluates only failing bindings on `EvalContext`.
A wrong batch value at a passing binding would never reach a report, so
these tests compare values, not only pass or fail: every row of every
side of every entry (lhs, rhs and the documented mutant), reduced, must
equal the scalar `CycInt`.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

import appellfq.verifier as V
from appellfq import build_field, get_identity, registry, verify
from appellfq.cyclotomic import _ring
from appellfq.fields import prime_power_decompose
from appellfq.identities import BatchContext, EvalContext
from appellfq.verifier import (
    _columns,
    _entry_domains,
    find_counterexample,
    mutated_case,
)

EXHAUSTIVE_MAX = 50_000  # bindings per entry checked exhaustively
SUBSET = 1500  # seeded bindings per entry beyond that
SLOW_Q = (7, 8, 9)


def _field(q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q = 2 is degenerate
        return build_field(*prime_power_decompose(q))


def _bindings(entry, ft, rng):
    """Columns of every binding, or of a seeded subset of a large domain."""
    domains = [np.array(d, dtype=np.int64) for d in _entry_domains(entry, ft)]
    shape = [len(d) for d in domains]
    total = entry.domain_size(ft)
    if total <= EXHAUSTIVE_MAX:
        return _columns(domains, shape, 0, total)
    picked = np.sort(rng.choice(total, SUBSET, replace=False))
    cols = [_columns(domains, shape, i, i + 1) for i in picked]
    return tuple(np.concatenate(c) for c in zip(*cols))


@pytest.mark.parametrize("q", [
    pytest.param(q, marks=pytest.mark.slow) if q in SLOW_Q else q
    for q in (2, 3, 4, 5, 7, 8, 9)
])
def test_batch_values_equal_scalar_values(q):
    ft = _field(q)
    ctx, batch = EvalContext(ft), BatchContext(ft)
    rows = _ring(ft.n).np_rows
    rng = np.random.default_rng(q)
    for entry in registry():
        cols = _bindings(entry, ft, rng)
        count = len(cols[0])
        bindings = list(zip(*(c.tolist() for c in cols)))
        for side, fn in (("lhs", entry.lhs), ("rhs", entry.rhs),
                         ("mutant", entry.mutation.fn)):
            got = np.broadcast_to(fn(batch, cols).a, (count, ft.n)) @ rows
            for row, binding in zip(got.tolist(), bindings):
                want = fn(ctx, binding).coeffs
                assert tuple(row) == want, (entry.id, side, binding)


def _mutant(identity_id):
    entry = get_identity(identity_id)
    lhs, rhs = mutated_case(entry)
    return dataclasses.replace(entry, lhs=lhs, rhs=rhs)


@pytest.mark.parametrize("identity_id", ["thm3.7", "thm4.2", "thm1.1", "cor3.3"])
def test_split_domain_keeps_counterexample_order(identity_id, monkeypatch):
    ft = _field(5)
    mutant = _mutant(identity_id)

    def report():
        doc = verify(mutant, ft, max_counterexamples=10**6).to_json()
        return [ce["binding"] for ce in doc["counterexamples"]], json.dumps(doc)

    whole, first = report(), find_counterexample(mutant, ft)
    assert whole[0]
    # a chunk of 3 bindings splits every domain, and the chunk boundaries
    # fall inside runs of failing bindings
    monkeypatch.setattr(V, "_CHUNK_CELLS", 3 * ft.q)
    split = report()
    assert split[0] == whole[0]  # a short message if the order differs
    assert split[1] == whole[1]
    assert find_counterexample(mutant, ft) == first


def test_find_counterexample_is_the_first_failing_binding():
    ft = _field(4)
    for entry in registry():
        lhs, rhs = mutated_case(entry)
        ctx = EvalContext(ft)
        domains = _entry_domains(entry, ft)
        shape = [len(d) for d in domains]
        cols = _columns([np.array(d) for d in domains], shape, 0,
                        entry.domain_size(ft))
        first = next(
            (b for b in zip(*(c.tolist() for c in cols))
             if lhs(ctx, b) != rhs(ctx, b)),
            None,
        )
        assert find_counterexample(entry, ft, lhs=lhs, rhs=rhs) == first, entry.id


def test_int64_bound_is_checked_and_names_q():
    ft = _field(5)
    base = get_identity("thm1.1")
    # 2^62 times lhs - rhs, of mass 28, is past 2^63; the scalar path has
    # no such bound, so sampled verification still passes
    huge = dataclasses.replace(
        base, id="huge",
        lhs=lambda c, b: base.lhs(c, b) * 2**62,
        rhs=lambda c, b: base.rhs(c, b) * 2**62,
    )
    with pytest.raises(ValueError, match=r"q = 5: .*int64"):
        verify(huge, ft)
    assert verify(huge, ft, mode="sampled", sample_count=20).passed
    # lhs - rhs has mass n (q - 2) + n (q - 1) = 28, and 28 * 2^58 < 2^63
    fits = dataclasses.replace(
        base, id="fits",
        lhs=lambda c, b: base.lhs(c, b) * 2**58,
        rhs=lambda c, b: base.rhs(c, b) * 2**58,
    )
    assert verify(fits, ft).passed
