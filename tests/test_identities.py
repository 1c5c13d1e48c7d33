"""Registry structure and verifier behavior (determinism, domains, caps)."""

import dataclasses
import itertools
import json
import time

import numpy as np
import pytest

import appellfq.fields
from appellfq import build_field, get_identity, registry, verify, verify_all
from appellfq.cyclotomic import root_of_unity
from appellfq.identities import EvalContext, _entry
from appellfq.verifier import (
    _columns,
    _entry_domains,
    find_counterexample,
    mutated_case,
)


@pytest.fixture(scope="module")
def ft5():
    return build_field(5, 1)


@pytest.fixture(scope="module")
def ft4():
    return build_field(2, 2)


def test_registry_size_and_ids():
    entries = registry()
    assert len(entries) >= 26
    ids = [e.id for e in entries]
    assert len(ids) == len(set(ids))
    for expected in [
        "thm1.1", "thm1.2", "thm1.3",
        "cor1.1-sym", "cor1.1-diag", "cor1.1-y1",
        "prop2.1-a", "prop2.1-b", "prop2.2", "prop2.3-a", "prop2.3-b",
        "thm3.1-a", "thm3.1-b",
        "thm3.3-a", "thm3.3-b", "thm3.3-c",
        "thm3.4-a", "thm3.4-b",
        "cor3.1", "cor3.1-greene-extended", "cor3.2-a", "cor3.2-b",
        "thm3.7", "cor3.3",
        "thm4.1", "thm4.2", "thm4.3-a", "thm4.3-b",
    ]:
        assert expected in ids


def test_registry_param_shapes():
    e = get_identity("thm3.3-a")
    assert e.chars == ("A", "B", "Bp", "C")
    assert e.elems == ("x", "y")
    e = get_identity("prop2.3-a")
    assert e.chars == ()
    assert e.elems == ("t",)


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        get_identity("bogus-id")


def test_case_counts(ft5):
    # thm1.3 at q=4: 3^4 char tuples x 4^2 elements = 1296
    ft4 = build_field(2, 2)
    rep = verify("thm1.3", ft4)
    assert rep.cases == 3**4 * 16 == 1296
    assert rep.passed
    # thm1.2 at q=3: 2^3 = 8
    ft3 = build_field(3, 1)
    rep = verify("thm1.2", ft3)
    assert rep.cases == 8
    assert rep.passed
    # thm1.3 at q=5: 4^4 * 25 = 6400
    rep = verify("thm1.3", ft5)
    assert rep.cases == 6400
    assert rep.passed


def test_domain_restrictions_enumerated(ft5):
    entry = get_identity("thm3.7")
    assert entry.elem_domain(ft5, "x") == [2, 3, 4]  # indices of F_5 \ {0,1}
    domains = _entry_domains(entry, ft5)
    shape = [len(d) for d in domains]
    total = entry.domain_size(ft5)
    assert total == ft5.n**4 * 3 * 3
    cols = _columns([np.array(d) for d in domains], shape, 0, total)
    assert not np.isin(cols[4], (0, 1)).any() and not np.isin(cols[5], (0, 1)).any()
    assert len(set(zip(*map(list, cols)))) == total
    # entries with a division by 1-x exclude only x = 1
    assert get_identity("thm3.3-b").elem_domain(ft5, "x") == [0, 2, 3, 4]
    assert get_identity("thm3.3-b").elem_domain(ft5, "y") == [0, 1, 2, 3, 4]


def test_deliberately_mutated_entry_fails():
    # rhs sign flip must produce counterexamples at q=3
    ft3 = build_field(3, 1)
    base = get_identity("thm1.2")
    flipped = dataclasses.replace(
        base, id="thm1.2-flipped", rhs=lambda c, b: -base.rhs(c, b)
    )
    rep = verify(flipped, ft3)
    assert rep.counterexamples
    ce = rep.counterexamples[0]
    assert set(ce["binding"]) == {"A", "B", "C"}
    assert ce["lhs"] != ce["rhs"]


def test_mutation_sensitivity_spot(ft5):
    for ident in ("thm1.1", "prop2.2", "cor3.3"):
        entry = get_identity(ident)
        lhs, rhs = mutated_case(entry)
        assert find_counterexample(entry, ft5, lhs=lhs, rhs=rhs) is not None


def test_counterexample_cap(ft5):
    base = get_identity("prop2.1-a")
    broken = dataclasses.replace(
        base, id="broken", rhs=lambda c, b: base.rhs(c, b) + 1
    )
    rep = verify(broken, ft5, max_counterexamples=3)
    assert len(rep.counterexamples) == 3
    assert rep.cases == ft5.n**2


def test_sampled_determinism(ft5):
    kw = dict(mode="sampled", sample_count=800, seed=42)
    r1 = verify("thm3.3-a", ft5, **kw)
    r2 = verify("thm3.3-a", ft5, **kw)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    r3 = verify("thm3.3-a", ft5, mode="sampled", sample_count=800, seed=43)
    assert r3.seed == 43
    assert r1.passed and r3.passed


def test_sampled_respects_exclusions(ft5):
    entry = get_identity("thm3.7")
    from appellfq.verifier import _sample_binding

    domains = _entry_domains(entry, ft5)
    for i in range(500):
        b = _sample_binding(entry, domains, 9, i)
        assert b[4] not in (0, 1) and b[5] not in (0, 1)


def test_jobs_parallel_matches_serial(ft5):
    r1 = verify("thm3.1-a", ft5, jobs=1)
    r2 = verify("thm3.1-a", ft5, jobs=2)
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())
    kw = dict(mode="sampled", sample_count=5000, seed=3)
    s1 = verify("cor3.3", ft5, jobs=1, **kw)
    s2 = verify("cor3.3", ft5, jobs=2, **kw)
    assert json.dumps(s1.to_json()) == json.dumps(s2.to_json())


def test_jobs_sampled_checks_the_entry_given():
    # fork workers rebuild a registered entry by id; a mutant must not be
    # swapped for it (it was, and passed, at jobs=2)
    entry = get_identity("thm3.7")
    lhs, rhs = mutated_case(entry)
    mutant = dataclasses.replace(entry, lhs=lhs, rhs=rhs)
    kw = dict(mode="sampled", sample_count=4096, seed=1)
    ft = build_field(7, 1)
    serial = verify(mutant, ft, jobs=1, **kw)
    assert not serial.passed
    assert json.dumps(verify(mutant, ft, jobs=2, **kw).to_json()) == \
        json.dumps(serial.to_json())


def test_jobs_parallel_respects_table_cap(monkeypatch):
    # forked workers must admit a field the caller built above the default cap
    monkeypatch.setattr(appellfq.fields, "DEFAULT_TABLE_CAP", 4)
    ft = build_field(5, 1, max_q=5)
    r1 = verify("cor1.1-sym", ft, jobs=1)
    r2 = verify("cor1.1-sym", ft, jobs=2)
    assert r2.passed
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())


def _scalar_exhaustive(entry, ft):
    """(cases, every counterexample) of an exhaustive verify, from a plain
    loop over the domain that evaluates both sides on `EvalContext`, one
    binding at a time."""
    ctx = EvalContext(ft)
    names = (*entry.chars, *entry.elems)
    bindings = list(itertools.product(*_entry_domains(entry, ft)))
    cex = []
    for binding in bindings:
        lhs, rhs = entry.lhs(ctx, binding), entry.rhs(ctx, binding)
        record = {"binding": dict(zip(names, binding)), "lhs": lhs, "rhs": rhs}
        if lhs != rhs:
            cex.append(record)
        if entry.div_power and any(c % (ft.q - 1) ** entry.div_power
                                   for c in lhs.coeffs):
            cex.append({**record, "note": "divisibility"})
    return len(bindings), cex


def _plus_one(side):
    return lambda c, b: side(c, b) + c.intv(1)


def test_thm13_batch_path_matches_generic(ft4, ft5):
    # the batched scan of the registered thm1.3 and of its mutant against
    # the scalar loop, with a cap that keeps every counterexample; the
    # mutant has some at both q. Both shifted by 1 on each side, the lhs is
    # never divisible by (q-1)^2: the shifted entry fails divisibility only,
    # and the shifted mutant has bindings with both records
    base = get_identity("thm1.3")
    broken = dataclasses.replace(base, id="thm1.3-mutant",
                                 rhs=mutated_case(base)[1])
    entries = [base, broken] + [
        dataclasses.replace(e, id=e.id + "+1", lhs=_plus_one(e.lhs),
                            rhs=_plus_one(e.rhs)) for e in (base, broken)]
    for ft, undivided, unequal in ((ft4, 1296, 216), (ft5, 6400, 2080)):
        cap = 2 * base.domain_size(ft)
        reports = [verify(entry, ft, max_counterexamples=cap) for entry in entries]
        for entry, rep in zip(entries, reports):
            assert (rep.cases, rep.counterexamples) == _scalar_exhaustive(entry, ft)
        assert reports[0].passed and not reports[1].passed
        notes = [[ce.get("note") for ce in rep.counterexamples]
                 for rep in reports[2:]]
        assert notes[0] == ["divisibility"] * undivided
        assert notes[1].count("divisibility") == undivided
        assert notes[1].count(None) == unequal


def test_batch_path_reports_mutations(ft5):
    # a broken variant routed through the scalar path must be caught; the
    # batch path is exercised against it via the registry's id check
    base = get_identity("thm1.3")
    lhs, rhs = mutated_case(base)
    assert find_counterexample(base, ft5, lhs=lhs, rhs=rhs) is not None


def test_verify_all_collects_errors(ft5):
    reports = verify_all(ft5, ids=["thm1.2", "prop2.1-a"])
    assert [r.identity_id for r in reports] == ["thm1.2", "prop2.1-a"]
    assert all(r.passed for r in reports)

    import appellfq.verifier as V

    bad = dataclasses.replace(
        get_identity("thm1.2"), id="explodes",
        rhs=lambda c, b: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    orig = V.get_identity
    try:
        V.get_identity = lambda i: bad if i == "explodes" else orig(i)
        reports = verify_all(ft5, ids=["explodes", "thm1.2"])
    finally:
        V.get_identity = orig
    assert reports[0].error is not None and "boom" in reports[0].error
    assert reports[1].passed


def test_error_report_keeps_its_error_and_the_sampled_seed(ft5, monkeypatch):
    import appellfq.verifier as V

    bad = dataclasses.replace(
        get_identity("thm1.2"), id="explodes",
        rhs=lambda c, b: (_ for _ in ()).throw(RuntimeError("boom")),
    )
    orig = V.get_identity
    monkeypatch.setattr(V, "get_identity",
                        lambda i: bad if i == "explodes" else orig(i))
    # seed=None: the error report records the seed 0 that verify uses
    reports = verify_all(ft5, ids=["explodes", "thm1.2"], mode="sampled",
                         sample_count=5)
    assert reports[0].to_json() == {
        "id": "explodes", "q": 5, "mode": "sampled", "seed": 0, "cases": 0,
        "counterexamples": [], "error": "RuntimeError: boom", "ms": None,
    }
    assert reports[1].seed == 0 and "error" not in reports[1].to_json()
    [report] = verify_all(ft5, ids=["explodes"])
    assert report.seed is None and report.to_json()["error"] == "RuntimeError: boom"


def test_report_json_schema(ft5):
    rep = verify("prop2.3-a", ft5)
    doc = rep.to_json()
    assert list(doc) == ["id", "q", "mode", "seed", "cases",
                         "counterexamples", "ms"]
    assert doc["id"] == "prop2.3-a"
    assert doc["q"] == 5
    assert doc["mode"] == "exhaustive"
    assert doc["seed"] is None
    assert doc["cases"] == 5
    assert doc["counterexamples"] == []
    assert doc["ms"] is None  # timing withheld for byte-identical reports
    assert rep.wall_ms >= 0


def test_counterexample_cap_and_jobs_below_one_rejected(ft5):
    # with no counterexample kept, thm3.7's failing mutant used to pass
    entry = get_identity("thm3.7")
    lhs, rhs = mutated_case(entry)
    mutant = dataclasses.replace(entry, lhs=lhs, rhs=rhs)
    assert not verify(mutant, ft5, max_counterexamples=1).passed
    for kw in ({"max_counterexamples": 0}, {"max_counterexamples": -2},
               {"jobs": 0}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            verify(mutant, ft5, **kw)


def test_verify_mode_validation(ft5):
    with pytest.raises(ValueError):
        verify("thm1.2", ft5, mode="sampled")  # missing sample_count
    with pytest.raises(ValueError):
        verify("thm1.2", ft5, mode="nonsense")


def test_statements_present():
    for entry in registry():
        assert entry.statement
        assert entry.mutation is not None


def test_mutation_text_must_occur_once():
    for rhs in ("c.binom(A, B)", "c.binom(A, A - B) * c.binom(B, A - B)"):
        with pytest.raises(ValueError, match="prop2.1-x"):
            _entry("prop2.1-x", "[A|B] = [A|A B~]", "AB", "", "c.binom(A, B)",
                   rhs, ("A B~ -> A~ B", "A - B", "B - A"))


def test_mutants_differ_from_their_rhs():
    for entry in registry():
        assert entry.mutation.fn is not entry.rhs
        assert entry.mutation.fn.__code__ != entry.rhs.__code__, entry.id


def test_eval_context_helpers(ft5):
    ctx = EvalContext(ft5)
    assert ctx.eps(0) == 0 and ctx.eps(3) == 1
    assert ctx.delta(0) == 1 and ctx.delta(2) == 0
    assert ctx.dchar(0) == 1 and ctx.dchar(ft5.n) == 1 and ctx.dchar(1) == 0
    assert ctx.cp((1, 0)).is_zero
    assert ctx.cp((0, 3)) == ctx.roots[0]
    assert ctx.sign(0).as_integer() == 1


def test_eval_context_fills_roots_on_demand():
    ft = appellfq.fields.build_field(7919, 1)
    t0 = time.perf_counter()
    ctx = EvalContext(ft)
    assert time.perf_counter() - t0 < 1.0
    for k in (0, 1, 2, ft.n // 2, ft.n - 1):
        assert ctx.roots[k] == root_of_unity(ft.n, k)
    assert ctx.sign(1) == root_of_unity(ft.n, ft.log_minus_one)
