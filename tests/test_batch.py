"""Batched evaluation (`identities.BatchContext`) against the scalar sides.

The verifier decides every binding on chunks of unreduced zeta-power
counts, and reports a failing binding's counts reduced, so every value in
a report comes from `BatchContext`, the package's one evaluator. A wrong
batch value would reach a report, or hide a counterexample, unseen, so
these tests compare values, not only pass or fail: every row of every
side of every entry (lhs, rhs and the documented mutant), reduced, must
equal the `CycInt` of the tests' scalar `EvalContext` (`scalar_reference`).
"""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import appellfq.verifier as V
from appellfq import build_field, get_identity, registry, verify
from appellfq.characters import Character, _mod
from appellfq.cyclotomic import CycInt, _ring, cyc_zero, root_of_unity
from appellfq.fields import prime_power_decompose
from appellfq.hypergeometric import f1_point_idx, f21_point_idx
from appellfq.identities import BatchContext, Counts, _OneHot, _const, _convolve, _norms
from appellfq.verifier import (
    _decode,
    _entry_domains,
    find_counterexample,
    mutated_case,
)
import scalar_reference as ref
from scalar_reference import EvalContext

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
        return _decode(domains, shape, np.arange(total))
    return _decode(domains, shape, np.sort(rng.choice(total, SUBSET, replace=False)))


@pytest.mark.parametrize("q", [
    pytest.param(q, marks=pytest.mark.slow) if q in SLOW_Q else q
    for q in (2, 3, 4, 5, 7, 8, 9)
])
def test_batch_values_equal_scalar_values(q):
    ft = _field(q)
    ctx, batch = EvalContext(ft), BatchContext(ft)
    rows = ref.root_rows(ft.n)
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


def test_reference_is_not_the_package_evaluator():
    assert EvalContext is not BatchContext


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 16, 25, 27, 101])
@pytest.mark.parametrize("kernel,chars,elems", [(f21_point_idx, 3, 1),
                                                (f1_point_idx, 4, 2)])
def test_point_columns_equal_int_loop(q, kernel, chars, elems):
    """The column form of a point sum (the kernel of `BatchContext` and
    `table`) against the reference's int loop, row by row: every binding
    at q <= 7, and at larger q random columns, exponents outside
    0 .. n-1 included, with the rows x = 0, x = 1, y = 0 and x = y, also
    with some arguments given as ints, and there the kernel at each row's
    binding of ints (its one row, reduced: two rows of counts can be the
    same element of Z[zeta_n])."""
    ft = _field(q)
    loop = getattr(ref, kernel.__name__)
    rows = ref.root_rows(ft.n)
    shape = (ft.n,) * chars + (ft.q,) * elems
    if q <= 7:
        cols = list(np.unravel_index(np.arange(np.prod(shape)), shape))
    else:
        rng = np.random.default_rng(q)
        # exponents in [-2n, 2n), as a side's sums and negations give them
        cols = [rng.integers(-2 * ft.n, 2 * ft.n, 300) for _ in range(chars)]
        cols += [rng.integers(0, ft.q, 300) for _ in range(elems)]
        x = cols[chars]
        x[:2] = 0, 1
        if elems == 2:
            y = cols[chars + 1]
            y[2], y[3] = 0, x[3]
    ints = [(), (0, len(cols) - 1), tuple(range(1, len(cols)))]
    for at in ints if q > 7 else ints[:1]:
        args = [int(col[0]) if i in at else col for i, col in enumerate(cols)]
        got = kernel(ft, *args) @ rows
        assert got.shape == (len(cols[0]), rows.shape[1])
        for r, row in enumerate(got.tolist()):
            binding = [a if i in at else int(a[r]) for i, a in enumerate(args)]
            want = loop(ft, *binding)
            assert tuple(row) == want.coeffs, (at, binding)
            if not at and q > 7:
                one = kernel(ft, *binding)
                assert one.shape == (1, ft.n), binding
                assert CycInt.from_powers(ft.n, one[0].tolist()) == want, binding


def _binthm_oracle(ft, a, x):
    """sum over k of binom(chi_(a+k), chi_k) chi_k(x), term by term through
    `Character` and the reference's binomial (the `_jacobi_counts` loop)."""
    total = cyc_zero(ft.n)
    for k in range(ft.n):
        chi = Character(ft, k)
        total = total + ref.binom(ft, a + k, k) * chi(ft.elements[x])
    return total


def _power_sum_oracle(ft, step):
    """sum over k of zeta^(k step), one root of unity at a time."""
    total = cyc_zero(ft.n)
    for k in range(ft.n):
        total = total + root_of_unity(ft.n, k * step)
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_sums_over_characters_equal_oracle(q):
    """`binthm` and `power_sum`, in the int form of the reference
    `EvalContext` and the column form of `BatchContext`, against
    term-by-term sums over the characters: every binding at q <= 9, and
    at larger q random ones, exponents outside 0 .. n-1 and the rows
    x = 0 and x = 1 included."""
    ft = _field(q)
    n = ft.n
    ctx, batch = EvalContext(ft), BatchContext(ft)
    rows = ref.root_rows(n)
    if q <= 9:
        a, x = (col.ravel() for col in np.mgrid[-n:2 * n, 0:q])
        step = np.arange(-2 * n, 2 * n)
    else:
        rng = np.random.default_rng(q)
        a, x = rng.integers(-2 * n, 2 * n, 200), rng.integers(0, q, 200)
        x[:2] = 0, 1
        step = rng.integers(-2 * n, 2 * n, 50)
    got = np.broadcast_to(batch.binthm(a, x).a, (len(a), n)) @ rows
    for row, ai, xi in zip(got.tolist(), a.tolist(), x.tolist()):
        want = _binthm_oracle(ft, ai, xi)
        assert ctx.binthm(ai, xi) == want, (ai, xi)
        assert tuple(row) == want.coeffs, (ai, xi)
    got = np.broadcast_to(batch.power_sum(step).a, (len(step), n)) @ rows
    for row, k in zip(got.tolist(), step.tolist()):
        want = _power_sum_oracle(ft, k)
        assert ctx.power_sum(k) == want, k
        assert tuple(row) == want.coeffs, k


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
        cols = _decode([np.array(d) for d in domains], shape,
                       np.arange(entry.domain_size(ft)))
        first = next(
            (b for b in zip(*(c.tolist() for c in cols))
             if lhs(ctx, b) != rhs(ctx, b)),
            None,
        )
        assert find_counterexample(entry, ft, lhs=lhs, rhs=rhs) == first, entry.id


def _scaled(base, rhs, k, id):
    return dataclasses.replace(base, id=id, lhs=lambda c, b: base.lhs(c, b) * k,
                               rhs=lambda c, b: rhs(c, b) * k)


def test_int64_bound_is_checked_and_names_q():
    ft = _field(5)
    base = get_identity("thm1.1")
    # lhs - rhs has mass n (q - 2) + (q - 2)(q - 1) = 24, and the zero test
    # at n = 4 (one prime) doubles it: 48 * 2^58 is past 2^63, in both modes
    huge = _scaled(base, base.rhs, 2**58, "huge")
    with pytest.raises(ValueError, match=r"q = 5: .*int64"):
        verify(huge, ft)
    with pytest.raises(ValueError, match=r"q = 5: .*int64"):
        verify(huge, ft, mode="sampled", sample_count=20)
    # and 48 * 2^57 < 2^63
    assert verify(_scaled(base, base.rhs, 2**57, "fits"), ft).passed
    # inside the bound a mutant fails at the same bindings, with its
    # reported values scaled exactly
    kw = dict(mode="sampled", sample_count=300, seed=4, max_counterexamples=10**6)
    want = verify(_scaled(base, base.mutation.fn, 1, "mutant"), ft, **kw)
    got = verify(_scaled(base, base.mutation.fn, 2**57, "mutant"), ft, **kw)
    assert want.counterexamples
    assert [ce["binding"] for ce in got.counterexamples] == [
        ce["binding"] for ce in want.counterexamples]
    for g, w in zip(got.counterexamples, want.counterexamples):
        assert (g["lhs"], g["rhs"]) == (w["lhs"] * 2**57, w["rhs"] * 2**57)


def test_passing_verify_never_reduces(monkeypatch):
    ft = _field(13)
    cases = [get_identity("thm4.1"), get_identity("cor3.3")]
    kw = dict(mode="sampled", sample_count=200, seed=7, max_counterexamples=10**6)
    sampled = [json.dumps(verify(e, ft, **kw).to_json()) for e in cases]
    exhaustive = json.dumps(verify(get_identity("cor3.3"), ft).to_json())
    assert all('"counterexamples": []' in r for r in [*sampled, exhaustive])

    def reduced(*args):
        raise AssertionError("reduced")

    # a property is a data descriptor, so it wins over any value cached on
    # the instance
    ring = _ring(ft.n)
    monkeypatch.setattr(type(ring), "reduce_rows", reduced)
    monkeypatch.setattr(type(ring), "row_max", property(reduced))
    assert [json.dumps(verify(e, ft, **kw).to_json()) for e in cases] == sampled
    assert json.dumps(verify(get_identity("cor3.3"), ft).to_json()) == exhaustive
    # a failing binding's record is reduced, so the patch is live
    mutant = _mutant("thm4.3-a")
    with pytest.raises(AssertionError, match="reduced"):
        verify(mutant, ft, **kw)
    monkeypatch.undo()
    # the reported values are the scalar sides' at each failing binding
    ctx = EvalContext(ft)
    for ce in verify(mutant, ft, **kw).counterexamples:
        binding = tuple(ce["binding"].values())
        assert ce["lhs"] == mutant.lhs(ctx, binding), binding
        assert ce["rhs"] == mutant.rhs(ctx, binding), binding


def test_exhaustive_work_is_admitted_before_any_work(monkeypatch):
    ft = _field(101)
    entry = get_identity("thm1.3")
    # about 10^12 bindings: refused before a single chunk is evaluated
    monkeypatch.setattr(V, "_scan", lambda *a: pytest.fail("scanned"))
    with pytest.raises(ValueError, match=r"q = 101: \d+ bindings, over .*--sampled"):
        verify(entry, ft)
    assert entry.domain_size(ft) > V._EXHAUSTIVE_CASES
    # the limit is inclusive; find_counterexample has none
    monkeypatch.undo()
    small = _field(5)
    monkeypatch.setattr(V, "_EXHAUSTIVE_CASES", entry.domain_size(small))
    assert verify(entry, small).passed
    monkeypatch.setattr(V, "_EXHAUSTIVE_CASES", entry.domain_size(small) - 1)
    with pytest.raises(ValueError, match=r"q = 5: "):
        verify(entry, small)
    assert find_counterexample(_mutant("thm1.3"), small) is not None


def test_find_counterexample_stops_at_its_first_chunk():
    # the thm4.1 mutant fails at (0, 0, 0, 1, 2, 2, 2), in the first chunk
    # of a domain of 2,654,208 bindings
    ft = _field(9)
    entry = get_identity("thm4.1")
    lhs, rhs = mutated_case(entry)
    calls = []

    def counted(c, b):
        # the last parameter, t, is an element: a column in both contexts
        calls.append((type(c).__name__, len(b[-1])))
        return lhs(c, b)

    # the Fourier check of the 648 element tuples, one chunk, and the
    # search over its character prefixes find the first failing binding,
    # the one binding evaluated numerically, for its record
    assert find_counterexample(entry, ft, lhs=counted, rhs=rhs) == (0, 0, 0, 1, 2, 2, 2)
    assert calls == [("FormContext", 648), ("BatchContext", 1)]
    # a verify is the same search at its cap, and still reports the domain
    mutant = dataclasses.replace(entry, lhs=counted, rhs=rhs)
    calls.clear()
    rep = verify(mutant, ft, max_counterexamples=1)
    assert calls == [("FormContext", 648), ("BatchContext", 1)]
    assert len(rep.counterexamples) == 1
    assert rep.cases == entry.domain_size(ft)
    calls.clear()
    rep = verify(mutant, ft, mode="sampled", sample_count=10**5, max_counterexamples=3)
    assert len(rep.counterexamples) == 3 and rep.cases == 10**5
    assert {name for name, _ in calls} == {"BatchContext"}
    assert sum(size for _, size in calls) < 10**5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mass_bounds_every_row(q, monkeypatch):
    """`mass` bounds sum |count| in every row of every `Counts` a verify
    builds, and |k| of every `_OneHot` factor k zeta^j (with j reduced mod
    n), as the zero test's int64 bound and `_convolve`'s FFT bound trust."""
    ft = _field(q)
    init, onehot_init, seen = Counts.__init__, _OneHot.__init__, []

    def checked(self, a, mass):
        assert np.abs(a).sum(axis=1).max(initial=0) <= mass, (a, mass)
        seen.append(mass)
        init(self, a, mass)

    def checked_onehot(self, k, j, n, mass):
        onehot_init(self, k, j, n, mass)
        assert np.abs(self.k).max(initial=0) <= mass, (self.k, mass)
        assert ((0 <= self.j) & (self.j < n)).all(), self.j
        seen.append(mass)

    monkeypatch.setattr(Counts, "__init__", checked)
    monkeypatch.setattr(_OneHot, "__init__", checked_onehot)
    kw = (dict(max_counterexamples=10**6) if q <= 5 else
          dict(mode="sampled", sample_count=300, seed=q, max_counterexamples=10**6))
    for entry in registry():
        if not all(_entry_domains(entry, ft)):
            continue  # sampled mode refuses an empty domain
        for case in (entry, _mutant(entry.id)):
            verify(case, ft, **kw)
    # one-hot factors and wider ones were both built (at q = 2, where
    # q - 2 = 0, every point sum is 0)
    assert min(seen) <= 1 < max(seen)


def _convolve_reference(a, b):
    """out[r, m] = sum_j a[r, j] b[r, (m - j) mod n] in Python ints, with
    a (1, n) operand standing for every row."""
    rows, n = np.broadcast_shapes(a.shape, b.shape)
    a, b = np.broadcast_to(a, (rows, n)).tolist(), np.broadcast_to(b, (rows, n)).tolist()
    return [[sum(a[r][j] * b[r][(m - j) % n] for j in range(n)) for m in range(n)]
            for r in range(rows)]


def _one_hot(rng, rows, n):
    """Rows +-zeta^j or 0, with each kind present once rows >= 3."""
    a = np.zeros((rows, n), dtype=np.int64)
    k = rng.choice([1, -1, 0], rows)
    k[:3] = [1, -1, 0][:rows]
    a[np.arange(rows), rng.integers(0, n, rows)] = k
    return Counts(a, 1)


# 7, 31 and 127 are prime: there pocketfft runs Bluestein's algorithm
@pytest.mark.parametrize("n", [1, 2, 4, 7, 24, 31, 100, 127])
def test_convolve_equals_reference(n):
    rng = np.random.default_rng(n)

    def wide(rows):
        a = rng.integers(-50, 50, (rows, n))
        return Counts(a, int(np.abs(a).sum(axis=1).max(initial=0)) + 2)

    for rows in (0, 1, 6):
        # dense one-hot rows on either side and of either height, a full
        # one, both one-hot, and neither: `_convolve` takes every pair to
        # the FFT (a `_OneHot` factor is gathered before it is reached)
        for u, v in [(_one_hot(rng, rows, n), wide(rows)),
                     (wide(rows), _one_hot(rng, rows, n)),
                     (_one_hot(rng, 1, n), wide(rows)),
                     (wide(rows), _one_hot(rng, 1, n)),
                     (_one_hot(rng, rows, n), wide(1)),
                     (wide(1), _one_hot(rng, rows, n)),
                     (_one_hot(rng, rows, n), _one_hot(rng, rows, n)),
                     (_one_hot(rng, 1, n), _one_hot(rng, rows, n)),
                     (wide(rows), wide(rows)),
                     (wide(1), wide(rows)),
                     (_const(n, 0), wide(rows)),
                     (wide(rows), _const(n, rng.integers(-1, 2, rows)))]:
            got = _convolve(u, v)
            assert got.a.dtype == np.int64 and got.mass == u.mass * v.mass
            assert got.a.tolist() == _convolve_reference(u.a, v.a), (u.a, v.a)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 100])
def test_onehot_times_dense_is_the_rotation(n, monkeypatch):
    """k zeta^j times dense counts, for every j and k in -2 .. 2, on either
    side, as S rows, one row or none against S rows, one row or none: a
    gather, with no FFT."""
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **kw: pytest.fail("an FFT ran"))
    rng = np.random.default_rng(n)
    k, j = (g.ravel() for g in np.meshgrid(np.arange(-2, 3), np.arange(n)))
    rows = len(k)
    dense = [Counts(rng.integers(-50, 50, (h, n)), 50 * n) for h in (rows, 1, 0)]
    pairs = [(_OneHot(k, j, n, 2), dense[0]), (_OneHot(k, j, n, 2), dense[1]),
             (_OneHot(k[:0], j[:0], n, 2), dense[1]), (_OneHot(1, 0, n, 1), dense[2])]
    pairs += [(_OneHot(ki, ji, n, abs(ki)), dense[0]) for ki, ji in zip(k, j)]
    for u, v in pairs:
        want = _roll_sum(u.a, v.a)
        if n <= 7:
            assert want.tolist() == _convolve_reference(u.a, v.a)
        for got in (u * v, v * u):
            assert type(got) is Counts and got.mass == u.mass * v.mass
            assert got.a.dtype == np.int64 and np.array_equal(got.a, want)


def test_onehot_products_and_dense_form():
    """`sign` and `cp` are `_OneHot` factors whose dense `a` is the bincount
    of their exponents that they replace; a product of two, or of one by
    an int or an int column, stays one."""
    c = BatchContext(_field(25))
    n, rng = c.n, np.random.default_rng(25)
    e = np.concatenate([rng.integers(-10**12, 10**12, 40), [0, -1, n, -n, 10**15]])
    i = rng.integers(0, c.q, len(e))  # enumeration indices, 0 included
    i[:3] = 0

    def bincount(t, keep):  # the former one-hot form: one bincount of t mod n
        idx = (t % n + n * np.arange(len(t)))[keep]
        return np.bincount(idx, minlength=len(t) * n).reshape(len(t), n)

    u, v = c.cp((e, i)), c.sign(e[::-1])
    assert np.array_equal(u.a, bincount(e * (i - 1), i != 0))
    assert np.array_equal(v.a, bincount(e[::-1] * c.lm1, np.ones(len(e), dtype=bool)))
    assert np.array_equal(c.sign(3).a, bincount(np.array([3 * c.lm1]), np.array([True])))
    col = rng.integers(-3, 4, len(e))
    for got, mass, want in [
            (u * v, 1, _convolve_reference(u.a, v.a)),
            (u * c.sign(5), 1, _convolve_reference(u.a, c.sign(5).a)),
            (u * -3, 3, (u.a * -3).tolist()),
            (u * col, 3, (u.a * col[:, None]).tolist()),
            (col * u, 3, (u.a * col[:, None]).tolist()),
            (c.intv(col) * u, 3, (u.a * col[:, None]).tolist())]:
        assert type(got) is _OneHot and got.mass == mass
        assert got.a.tolist() == want


def test_mod_is_the_remainder_at_int64_extremes():
    top = np.iinfo(np.int64).max
    e = np.concatenate([-top - 1 + np.arange(70000), top - np.arange(70000),
                        np.arange(-70000, 70000)]).astype(np.int64)
    for n in (1, 2, 3, 7918, 65520):
        got = _mod(e, n)
        assert got.dtype == np.int64 and np.array_equal(got, e % n), n
    assert _mod(-7, 3) == -7 % 3 and _mod(2**70 + 5, 7) == (2**70 + 5) % 7


def test_onehot_product_at_large_n_keeps_one_row():
    # no (n, n) table of rotations: one product at n = 16380 stays O(n)
    n = 16380
    b = Counts(np.arange(n, dtype=np.int64)[None, :], n * n)
    u = _OneHot(-1, 7, n, 1)
    tracemalloc.start()
    try:
        got = u * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert np.array_equal(got.a, -np.roll(b.a, 7, axis=1))


def _roll_sum(a, b):
    """sum_j a[:, j] times b rolled by j, in int64: an O(n^2) oracle for
    the FFT product."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
    for j in np.flatnonzero(a.any(axis=0)):
        out += a[:, j, None] * np.roll(b, j, axis=1)
    return out


@pytest.mark.parametrize("q", [8192, 16381])
def test_fft_product_of_binomials_is_exact_at_large_n(q):
    # n = 8191 is prime (Bluestein), n = 16380 is not
    c = BatchContext(_field(q))
    rng = np.random.default_rng(q)
    A, B, C = (rng.integers(0, c.n, 2) for _ in range(3))
    u, v = c.binom(C, A), c.binom(A, B)
    assert u.mass > 1 and v.mass > 1
    assert np.array_equal(_convolve(u, v).a, _roll_sum(u.a, v.a))


def test_fft_bound_refuses_before_any_fft(monkeypatch):
    def row(*entries, mass=None):
        a = np.zeros((1, 8), dtype=np.int64)
        a[0, :len(entries)] = entries
        return Counts(a, int(np.abs(a).sum()) if mass is None else mass)

    # at n = 8 the bound is ||u|| ||v|| 2^-53 64 (3 + 1) = ||u|| ||v|| 2^-45
    refused = [
        (row(2**22), row(2**21)),  # bound 1/4 exactly, mass 2^43
        (row(2**45), row(1, 1)),  # bound 2^0.5; squares past int64
        (row(1, 1, mass=2**26), row(1, 1, mass=2**26)),  # mass 2^52
    ]
    accepted = [
        (row(2**21), row(2**21)),  # bound 1/8
        (row(2**40, 3), row(1, 1)),  # squares past int64, bound 2^-4.5
        (row(1, 1, mass=2**26), row(1, 1, mass=2**26 - 1)),  # mass < 2^52
    ]

    def no_fft(*args, **kwargs):
        pytest.fail("the FFT ran before the bound was checked")

    monkeypatch.setattr(np.fft, "rfft", no_fft)
    for u, v in refused:
        with pytest.raises(ValueError, match=r"FFT product at n = 8 .* < 2\^52 .* < 1/4"):
            _convolve(u, v)
    monkeypatch.undo()
    for u, v in accepted:
        got = _convolve(u, v)
        assert got.a.tolist() == _convolve_reference(u.a, v.a)
        assert got.mass == u.mass * v.mass
    # the norms are exact past int64's squares
    assert _norms(row(2**40, 3)).tolist() == [float(math.isqrt(2**80 + 9))]


def test_a_refused_product_is_a_verify_error(monkeypatch):
    # a looser mass bound, 2^26 (q - 2), on each binomial puts prop2.1-b's
    # product past 2^52: the verify reports the bound as its error (in
    # sampled mode, as an exhaustive one multiplies no counts)
    binom = BatchContext.binom
    monkeypatch.setattr(BatchContext, "binom",
                        lambda self, i, j: Counts(binom(self, i, j).a, 2**26 * (self.q - 2)))
    [rep] = V.verify_all(_field(5), ids=["prop2.1-b"], mode="sampled", sample_count=20)
    assert rep.error.startswith("ValueError: an FFT product at n = 4 is exact only")
    assert not rep.passed


def test_wide_product_is_two_rfft_and_one_irfft(monkeypatch):
    calls = {"roll": 0, "rfft": 0, "irfft": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np, "roll")
    counted(np.fft, "rfft")
    counted(np.fft, "irfft")
    rng = np.random.default_rng(0)
    for n in (4, 100, 16380):
        u, v = (Counts(rng.integers(-3, 4, (2, n)), 3 * n) for _ in range(2))
        calls.update(dict.fromkeys(calls, 0))
        _convolve(u, v)
        assert calls == {"roll": 0, "rfft": 2, "irfft": 1}, n


def test_const_is_column_zero():
    for n in (1, 4, 24):
        c = _const(n, 3)
        assert c.a.tolist() == [[3] + [0] * (n - 1)] and c.mass == 3
        c = _const(n, np.array([2, -5, 0]))
        assert c.a.tolist() == [[v] + [0] * (n - 1) for v in (2, -5, 0)]
        assert c.a.dtype == np.int64 and c.mass == 5
        assert _const(n, np.array([], dtype=np.int64)).a.shape == (0, n)


SEEDS = (0, 2**64 - 1, 20240811)


def _stream_draws(seed, i, bounds):
    """The draws of sample i, one bound at a time, by the scalar stream."""
    stream = ref._CounterStream(seed, i)
    return [stream.below(b) for b in bounds]


@pytest.mark.parametrize("q", [2, 5, 13, 25, 101])
def test_vectorized_samples_equal_sample_binding(q):
    # q = 2 has domains of size 1, and q = 2 and 5 domains of size 2 and 4:
    # there `below` rejects no word, and its limit 2^64 has no uint64 form
    ft = _field(q)
    for entry in registry():
        domains = _entry_domains(entry, ft)
        if not all(domains):
            continue  # sampled mode refuses an empty domain
        bounds = [len(d) for d in domains]
        for seed in SEEDS:
            for start in (0, 2**62 - 5, 2**64 - 12):
                draws = V._draws(seed, start, start + 12, bounds)
                assert draws.shape == (len(bounds), 12)
                for r in range(12):
                    want = _stream_draws(seed, start + r, bounds)
                    assert draws[:, r].tolist() == want, (entry.id, seed, start + r)
                    assert V._sample_binding(entry, domains, seed, start + r) == \
                        tuple(d[w] for d, w in zip(domains, want))


def test_draws_flag_the_words_that_below_rejects():
    # 2^64 mod (2^63 + 1) = 2^63 - 1, so about half of all words are
    # rejected: every row, rejected ones included, is the scalar stream's
    bound = 2**63 + 1
    for bounds in ([bound, 7, bound], [1, 2, 3, 5, 16, 101], [9]):
        for seed in SEEDS + (77,):
            for start in (0, 2**62 - 100, 2**64 - 200):
                draws = V._draws(seed, start, start + 200, bounds)
                for r in range(200):
                    assert draws[:, r].tolist() == \
                        _stream_draws(seed, start + r, bounds), (bounds, seed, start + r)
    # about half of the rows have a first word past the limit
    first = [ref._CounterStream(7, r).word() for r in range(200)]
    assert 50 < sum(w >= 2**64 - (2**63 - 1) for w in first) < 150


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 101])
def test_batch_sub_equals_sub_idx(q):
    ft = _field(q)
    i, j = np.divmod(np.arange(q * q), q)
    ref = EvalContext(ft)  # the reference's subtraction by coefficient vectors
    got = BatchContext(ft).sub(i, j)
    assert got.tolist() == [ref.sub(a, b) for a, b in zip(i.tolist(), j.tolist())]
    assert BatchContext(ft).sub(q - 1, 1) == ref.sub(q - 1, 1)
