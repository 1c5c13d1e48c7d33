"""The exhaustive check by Fourier coefficients (`verifier._failing_elements`).

Each side, at fixed elements, is a sum of terms c zeta^j psi_v(chi) over
the character tuples chi; by orthogonality of characters lhs = rhs at
every chi iff the two sides' psi_v coefficients agree. These tests hold
the check to the numeric walk, which evaluates every binding:

- at q in {2, 3, 4, 5, 7, 8}, for every side and documented mutant, the
  check flags exactly the element tuples at which some character tuple
  fails;
- above q = 13, where the numeric walk of a domain is no longer
  affordable, every failing seeded sample of a mutant lies on a flagged
  element tuple, and every registered id passes both checks;
- a constant in a character exponent is refused, and each int64 bound of
  the check is admitted at its limit and refused one step past it.
"""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import appellfq.identities as I
import appellfq.verifier as V
from appellfq import build_field, get_identity, registry, verify
from appellfq.cyclotomic import _ring
from appellfq.fields import prime_power_decompose
from appellfq.identities import BatchContext, FormContext, _side
from appellfq.verifier import _entry_domains


def _field(q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # q = 2 is degenerate
        return build_field(*prime_power_decompose(q))


def _sides(entry):
    """The entry and its documented mutant."""
    return entry, dataclasses.replace(entry, rhs=entry.mutation.fn)


def _element_tuples(entry, ft):
    return list(itertools.product(*_entry_domains(entry, ft)[len(entry.chars):]))


def _flagged(entry, ft):
    """The element tuples that the Fourier check flags: those it keeps
    cells of, at the keys (element tuple, v, j)."""
    tuples, place = _element_tuples(entry, ft), ft.n ** (len(entry.chars) + 1)
    return {tuples[lo + int(r)]
            for lo, (key, _) in V._failing_elements(entry, ft, _entry_domains(entry, ft))
            for r in np.unique(key // place)}


def _numeric(entry, ft):
    """The element tuples at which the numeric walk of every binding, each
    domain position decoded (`_decode`) a chunk at a time, finds lhs !=
    rhs."""
    doms = [np.asarray(d, dtype=np.int64) for d in _entry_domains(entry, ft)]
    shape, width, found = [len(d) for d in doms], len(entry.chars), set()
    batch, ring = BatchContext.of(ft), _ring(ft.n)
    total, step = math.prod(shape), V._step(ft.q)
    for lo in range(0, total, step):
        cols = V._decode(doms, shape, np.arange(lo, min(lo + step, total)))
        diff = entry.lhs(batch, cols) - entry.rhs(batch, cols)
        for r in np.flatnonzero(np.broadcast_to(~ring.vanishes(diff.a), len(cols[0]))):
            found.add(tuple(int(c[r]) for c in cols[width:]))
    return found


@pytest.mark.parametrize("q", [2, 3, 4, 5, pytest.param(7, marks=pytest.mark.slow),
                               pytest.param(8, marks=pytest.mark.slow)])
def test_flags_equal_the_numeric_walk(q):
    ft = _field(q)
    failing = 0
    for entry in registry():
        for side in _sides(entry):
            flagged = _flagged(side, ft)
            assert flagged == _numeric(side, ft), (entry.id, side is entry)
            assert not (side is entry and flagged), entry.id
            failing += bool(flagged)
    assert failing > 0 or q == 2


@pytest.mark.parametrize("q", [16, 25, 27])
def test_sampled_failures_lie_on_flagged_tuples(q):
    ft = _field(q)
    kw = dict(mode="sampled", sample_count=200, seed=q, max_counterexamples=10**6)
    caught = 0
    for entry in registry():
        assert verify(entry, ft).passed, entry.id
        assert verify(entry, ft, **kw).passed, entry.id
        mutant = _sides(entry)[1]
        flagged = _flagged(mutant, ft)
        rep = verify(mutant, ft, **kw)
        for ce in rep.counterexamples:
            elems = tuple(ce["binding"][e] for e in entry.elems)
            assert elems in flagged, (entry.id, ce["binding"])
        caught += bool(rep.counterexamples)
    # in characteristic 2, -1 = 1 leaves some mutants equal to their rhs
    # (22 of 28 are caught at q = 16)
    assert caught >= 20


def test_a_constant_in_a_character_exponent_is_refused():
    ft = _field(5)
    ctx = FormContext.of(ft, 1)
    (A,) = ctx.chars
    x = np.arange(1, 5)
    with pytest.raises(TypeError, match="constant 1 in a character exponent"):
        ctx.cp((A + 1, x))
    for bad in (lambda: 1 + A, lambda: A - 1, lambda: 1 - A, lambda: A + x):
        with pytest.raises(TypeError, match="in a character exponent"):
            bad()
    # through a verify, the refusal is the report's error
    control = dataclasses.replace(get_identity("prop2.2"),
                                  rhs=_side("control", ("A", "x"), "c.cp((A + 1, x))"))
    with pytest.raises(TypeError, match="in a character exponent"):
        verify(control, ft)
    # forms scale by ints, and 0 is the trivial character, which thm3.1-a
    # passes to c.f1
    assert (2 * A - A).v == A.v and (-A).v == (-1,)
    assert verify(get_identity("thm3.1-a"), ft).passed
    assert ctx.f1(A, A, 0, A, x, x).t.shape == (3, ft.n, len(x))


def test_the_key_bound_is_checked_at_its_limit():
    # keys (element tuple, v, j) take rows n^(width + 1) values
    q, width = 8192, 4
    limit = (2**63 - 1) // (q - 1) ** (width + 1)
    V._check_key(q, limit, width)
    with pytest.raises(ValueError, match=r"q = 8192: the Fourier check's keys .* int64"):
        V._check_key(q, limit + 1, width)


def test_a_verify_past_the_key_bound_is_refused_before_any_side(monkeypatch):
    # thm1.3 at q = 8192: 8191^5 is past 2^63 at one element tuple a chunk
    ft = _field(8192)
    entry = get_identity("thm1.3")
    probe = dataclasses.replace(entry, lhs=lambda c, b: pytest.fail("evaluated"))
    monkeypatch.setattr(V, "_EXHAUSTIVE_CASES", entry.domain_size(ft))
    with pytest.raises(ValueError, match=r"q = 8192: the Fourier check's keys"):
        verify(probe, ft)


def test_the_zero_test_bound_is_checked_at_its_limit():
    ring = _ring(30)  # three primes: the test can multiply a row's mass by 8
    limit = (2**63 - 1) >> 3
    V._check_zero_test(31, limit, ring)
    with pytest.raises(ValueError, match=r"q = 31: the zero test can reach .* int64"):
        V._check_zero_test(31, limit + 1, ring)


def test_the_product_bound_is_checked_at_its_limit(monkeypatch):
    I._check_product(4, I._PRODUCT_CELLS)
    with pytest.raises(ValueError, match=r"q = 5: a product of term lists would hold"):
        I._check_product(4, I._PRODUCT_CELLS + 1)
    # prop2.1-b's binomial times binomial holds (q - 2)^2 = 9 cells at q = 5,
    # refused before the product is built
    ft = _field(5)
    monkeypatch.setattr(I, "_PRODUCT_CELLS", 9)
    assert verify("prop2.1-b", ft).passed
    monkeypatch.setattr(I, "_PRODUCT_CELLS", 8)
    [rep] = V.verify_all(ft, ids=["prop2.1-b"])
    assert rep.error == "ValueError: q = 5: a product of term lists would hold 9 " \
                        "cells, past the limit of 8"
