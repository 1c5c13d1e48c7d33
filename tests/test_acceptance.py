"""Acceptance suite: one test per criterion, exact (zero-tolerance)
equality in Z[zeta_{q-1}] throughout. Each test prints one PASS line.

Criteria:
  1  foundation identities exhaustive, q in {3,4,5,7,8,9}
  2  transformation/reduction identities exhaustive, q in {3,4,5,7,8,9}
  3  generating-function identities exhaustive, q in {3,4,5,7}
  4  every summed side equals its literal sum over characters, and every
     coefficient of it is divisible by its (q-1) power
  5  sampled large-q suite, 10k seeded bindings, byte-identical reports
  6  convention validation (Jacobi sum definition, chi(0)=0)
  7  mutation sensitivity of every registry encoding at q=5
  8  point-sum vs character-sum route agreement (implementation redundancy)
and one run beyond them: the generating-function identities exhaustive at
q in {8, 9}, about 2.7 million bindings each for thm4.1 and thm4.2 at q = 9.
Every test but criterion 4 is slow: they share module fixtures that take
minutes to build.
"""

import itertools
import json

import numpy as np
import pytest

import appellfq as afq
from appellfq import (
    AppellF1Params,
    Character,
    Hyp2F1Params,
    appell_f1_char_sum,
    appell_f1_point_sum,
    build_field,
    f21_char_sum,
    f21_point_sum,
    jacobi_sum,
    trivial_character,
    verify,
)
from appellfq.cyclotomic import CycInt
from appellfq.identities import BatchContext, registry
from appellfq.verifier import _entry_domains, find_counterexample, mutated_case
from scalar_reference import EvalContext

FOUNDATION_IDS = [
    "prop2.1-a", "prop2.1-b", "prop2.2", "prop2.3-a", "prop2.3-b",
    "thm1.1", "thm1.2", "thm1.3",
    "cor1.1-sym", "cor1.1-diag", "cor1.1-y1",
]
SEC3_IDS = [
    "thm3.1-a", "thm3.1-b",
    "thm3.3-a", "thm3.3-b", "thm3.3-c",
    "thm3.4-a", "thm3.4-b",
    "cor3.1", "cor3.1-greene-extended",
    "cor3.2-a", "cor3.2-b",
    "thm3.7", "cor3.3",
]
SEC4_IDS = ["thm4.1", "thm4.2", "thm4.3-a", "thm4.3-b"]

EXHAUSTIVE_PR = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
SEC4_PR = [(3, 1), (2, 2), (5, 1), (7, 1)]
SAMPLED_PR = [(11, 1), (13, 1), (2, 4), (17, 1), (5, 2)]
SAMPLED_SEED = 20240811
SAMPLED_COUNT = 10000
JOBS = 2


@pytest.fixture(scope="module")
def fields():
    return {p**r: build_field(p, r) for p, r in EXHAUSTIVE_PR + SAMPLED_PR}


def _run_suite(ids, qs, fields):
    reports = {}
    for q in qs:
        for ident in ids:
            reports[(ident, q)] = verify(ident, fields[q], jobs=JOBS)
    return reports


@pytest.fixture(scope="module")
def foundation_reports(fields):
    return _run_suite(FOUNDATION_IDS, [3, 4, 5, 7, 8, 9], fields)


@pytest.fixture(scope="module")
def sec3_reports(fields):
    return _run_suite(SEC3_IDS, [3, 4, 5, 7, 8, 9], fields)


@pytest.fixture(scope="module")
def sec4_reports(fields):
    return _run_suite(SEC4_IDS, [3, 4, 5, 7], fields)


def _assert_all_pass(reports):
    failures = [
        (ident, q, len(r.counterexamples), r.error)
        for (ident, q), r in reports.items()
        if not r.passed
    ]
    assert failures == []


@pytest.mark.slow
def test_criterion_1_foundation_suite(foundation_reports):
    _assert_all_pass(foundation_reports)
    # spot-check the enumerated domain sizes
    assert foundation_reports[("thm1.3", 4)].cases == 1296
    assert foundation_reports[("thm1.3", 9)].cases == 8**4 * 81
    assert foundation_reports[("thm1.2", 3)].cases == 8
    print("\nACCEPTANCE criterion 1 (foundation suite, q in 3..9): PASS")


@pytest.mark.slow
def test_criterion_2_section3_suite(sec3_reports):
    _assert_all_pass(sec3_reports)
    # domains exclude exactly the boundary slices where a printed
    # transformation argument is undefined or the equality fails
    assert sec3_reports[("thm3.3-a", 9)].cases == 8**4 * 8 * 8
    assert sec3_reports[("thm3.3-b", 9)].cases == 8**4 * 8 * 9
    assert sec3_reports[("thm3.7", 9)].cases == 8**4 * 7 * 7
    print("ACCEPTANCE criterion 2 (transformation/reduction suite): PASS")


@pytest.mark.slow
def test_criterion_3_section4_suite(sec4_reports):
    _assert_all_pass(sec4_reports)
    assert sec4_reports[("thm4.1", 7)].cases == 6**4 * 7 * 7 * 6
    print("ACCEPTANCE criterion 3 (generating-function suite): PASS")


@pytest.mark.slow
def test_section4_exhaustive_at_q8_q9(fields):
    reports = _run_suite(SEC4_IDS, [8, 9], fields)
    _assert_all_pass(reports)
    assert reports[("thm4.1", 9)].cases == 8**4 * 9 * 9 * 8
    assert reports[("thm4.3-b", 8)].cases == 7**3 * 8 * 7
    print("ACCEPTANCE generating-function suite exhaustive at q in {8, 9}: PASS")


# the summed sides and the power of q - 1 their statements divide them by
SUMMED = {"thm1.1": 1, "thm1.3": 2, "thm4.1": 1, "thm4.2": 1, "thm4.3-a": 1,
          "thm4.3-b": 1}


def _literal_check(ident, ft, sample=None):
    """The bindings of `ident` over `ft` (every one, or `sample` seeded
    ones) where the verifier's lhs differs from the literal sum over
    characters (`scalar_reference.EvalContext`), or where a coefficient of
    the literal sum leaves a remainder mod (q-1)^power."""
    entry, power = afq.get_identity(ident), SUMMED[ident]
    bindings = list(itertools.product(*_entry_domains(entry, ft)))
    if sample is not None:
        rng = np.random.default_rng(ft.q)
        bindings = [bindings[i] for i in rng.choice(len(bindings), sample, replace=False)]
    cols = tuple(np.array(col, dtype=np.int64) for col in zip(*bindings))
    got = np.broadcast_to(entry.lhs(BatchContext(ft), cols).counts(), (len(bindings), ft.n))
    literal = EvalContext(ft)
    bad = []
    for binding, row in zip(bindings, got.tolist()):
        want = entry.lhs(literal, binding)
        if (CycInt.from_powers(ft.n, row) != want
                or any(c % (ft.q - 1) ** power for c in want.coeffs)):
            bad.append(binding)
    return bad


def test_criterion_4_divisibility():
    # each summed side, at every binding, is its literal sum over chi (and
    # lam, or theta) from the reference's own loops, and is divisible by
    # (q-1)^power coefficientwise: so the cleared form that the registry
    # checks by equality alone is the statement's divided form
    fields = {p**r: build_field(p, r) for p, r in SEC4_PR}
    checks = [(ident, q, None) for q in (3, 4, 5) for ident in SUMMED]
    for ident, q, sample in checks + [("thm1.1", 7, None), ("thm1.3", 7, 3000)]:
        bad = _literal_check(ident, fields[q], sample)
        assert bad == [], (ident, q, bad[:3])
    print("ACCEPTANCE criterion 4 (summed sides are their literal sums, "
          "divisible by their (q-1) power): PASS")


@pytest.mark.slow
def test_criterion_5_sampled_large_q(fields):
    ids = [e.id for e in registry()]
    for p, r in SAMPLED_PR:
        ft = fields[p**r]
        for ident in ids:
            rep = verify(
                ident, ft, mode="sampled", sample_count=SAMPLED_COUNT,
                seed=SAMPLED_SEED, jobs=JOBS,
            )
            assert rep.passed, (ident, ft.q, rep.counterexamples[:1])
            assert rep.cases == SAMPLED_COUNT

    # byte-identical reports across re-runs and jobs settings
    ft13 = fields[13]
    for ident in ids:
        kw = dict(mode="sampled", sample_count=SAMPLED_COUNT, seed=SAMPLED_SEED)
        first = json.dumps(verify(ident, ft13, jobs=1, **kw).to_json())
        again = json.dumps(verify(ident, ft13, jobs=1, **kw).to_json())
        forked = json.dumps(verify(ident, ft13, jobs=2, **kw).to_json())
        assert first == again == forked
    ft25 = fields[25]
    kw = dict(mode="sampled", sample_count=SAMPLED_COUNT, seed=SAMPLED_SEED)
    assert json.dumps(verify("thm1.3", ft25, jobs=1, **kw).to_json()) == \
        json.dumps(verify("thm1.3", ft25, jobs=2, **kw).to_json())
    print("ACCEPTANCE criterion 5 (sampled large-q suite): PASS")


@pytest.mark.slow
def test_criterion_6_convention_validation(fields):
    # J(eps, eps) = q - 2 at every tested q
    for ft in fields.values():
        eps = trivial_character(ft)
        assert jacobi_sum(eps, eps).as_integer() == ft.q - 2
    # J(A,B) sigma_{-1}(J(A,B)) = q for A, B, AB nontrivial
    for q in (5, 7, 8, 9):
        ft = fields[q]
        chars = [Character(ft, e) for e in range(ft.n)]
        for a, b in itertools.product(range(1, ft.n), repeat=2):
            if (a + b) % ft.n == 0:
                continue
            j = jacobi_sum(chars[a], chars[b])
            assert (j * j.galois(-1)).as_integer() == ft.q
    # chi(0) = 0 including the trivial character
    for ft in fields.values():
        for chi in (trivial_character(ft), Character(ft, 1)):
            assert chi(ft.zero).is_zero
    print("ACCEPTANCE criterion 6 (convention validation): PASS")


@pytest.mark.slow
def test_criterion_7_mutation_sensitivity(fields):
    ft5 = fields[5]
    vacuous = []
    for entry in registry():
        lhs, rhs = mutated_case(entry)
        if find_counterexample(entry, ft5, lhs=lhs, rhs=rhs) is None:
            vacuous.append(entry.id)
    assert vacuous == []
    print("ACCEPTANCE criterion 7 (mutation sensitivity, 28 entries): PASS")


@pytest.mark.slow
def test_criterion_8_route_cross_check(fields, foundation_reports):
    # the thm1.1/thm1.3 reports of criterion 1 compare the two routes on
    # the full sweep; restate through the public API as well
    for q in (3, 4, 5, 7, 8, 9):
        assert foundation_reports[("thm1.1", q)].passed
        assert foundation_reports[("thm1.3", q)].passed
    for q in (3, 4, 5, 7, 8, 9):
        ft = fields[q]
        chars = [Character(ft, e) for e in range(ft.n)]
        for a, b, c in itertools.product(range(ft.n), repeat=3):
            for x in ft.elements:
                prm = Hyp2F1Params(chars[a], chars[b], chars[c], x)
                assert f21_point_sum(prm) == f21_char_sum(prm)
    for q in (3, 4, 5):
        ft = fields[q]
        chars = [Character(ft, e) for e in range(ft.n)]
        for a, b, bp, c in itertools.product(range(ft.n), repeat=4):
            for x in ft.elements:
                for y in ft.elements:
                    prm = AppellF1Params(
                        chars[a], chars[b], chars[bp], chars[c], x, y
                    )
                    assert appell_f1_point_sum(prm) == appell_f1_char_sum(prm)
    print("ACCEPTANCE criterion 8 (route cross-check): PASS")
