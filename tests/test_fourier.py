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
  the check is admitted at its limit and refused one step past it;
- a row of a single nonzero count is flagged without the dense zero test;
- the two evaluations of one side on `BatchContext`, numeric (width 0)
  and with forms (width k), agree in value at seeded bindings once the
  binding's characters are substituted into the terms.
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
from appellfq.identities import BatchContext, _side
from appellfq.verifier import _entry_domains
from scalar_reference import root_rows


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
        for r in np.flatnonzero(np.broadcast_to(~ring.vanishes(diff.counts()), len(cols[0]))):
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
    ctx = BatchContext.of(ft, 1)
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
    terms = ctx.f1(A, A, 0, A, x, x)
    assert terms.e.shape == (2, ft.n, len(x)) and terms.c.shape == (ft.n, len(x))


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


def test_single_count_rows_skip_the_dense_test(monkeypatch):
    # at n = 16, z^8 = -1: row 1 is 1 + z^8 = 0, row 3 is z + z^2; row 0
    # holds 2 z^3, and row 2 holds 3 z^7 once z^5 - z^5 cancels
    tested = []
    failing = V._failing
    monkeypatch.setattr(V, "_failing", lambda *a: tested.append(a[3]) or failing(*a))
    key = np.array([3, 16, 24, 37, 37, 39, 49, 50])
    c = np.array([2, 1, 1, 1, -1, 3, 1, 1])
    got_key, got_sums = V._nonzero(key, c, _ring(16))
    assert got_key.tolist() == [3, 39, 49, 50]
    assert got_sums.tolist() == [2, 3, 1, 1]
    assert tested == [2]  # rows 1 and 3 alone, in one block


CROSS_BINDINGS = 40  # seeded bindings a side and field


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_numeric_values_equal_the_terms_with_characters_substituted(q):
    """At seeded bindings of every side and documented mutant, the numeric
    counts (width 0) equal the side's terms with forms (width k), each term
    c zeta^(j + <v, chi>) at the binding's characters chi, summed by j mod
    n in int64 (`np.add.at`, not the float64 bincount of `counts`). Where
    a `dchar` form leaves a fraction, over n^den, the two are compared as
    elements of Z[zeta_n]."""
    ft = _field(q)
    n, rows, size = ft.n, root_rows(ft.n), CROSS_BINDINGS
    rng = np.random.default_rng(q)
    numeric, fractions = BatchContext.of(ft), 0
    for entry in registry():
        width = len(entry.chars)
        forms = BatchContext.of(ft, width)
        doms = [np.asarray(d, dtype=np.int64) for d in _entry_domains(entry, ft)]
        cols = tuple(d[rng.integers(0, len(d), size)] for d in doms)
        for name, side in (("lhs", entry.lhs), ("rhs", entry.rhs),
                           ("mutant", entry.mutation.fn)):
            want = np.broadcast_to(side(numeric, cols).counts(), (size, n))
            terms = side(forms, (*forms.chars, *cols[width:]))
            j = terms.e[-1] + sum(v * chi for v, chi in zip(terms.e[:-1], cols))
            j, c = (np.broadcast_to(a, (len(terms.c), size)) for a in (j, terms.c))
            got = np.zeros((size, n), dtype=np.int64)
            np.add.at(got, (np.broadcast_to(np.arange(size), j.shape), j % n), c)
            if terms.den:
                fractions += 1
                scaled = want * n**terms.den
                assert np.array_equal(scaled @ rows, got @ rows), (entry.id, name)
            else:
                assert np.array_equal(want, got), (entry.id, name)
    assert fractions > 0  # prop2.1-b's and prop2.3-b's dchar of a form
