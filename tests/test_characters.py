"""Characters, Jacobi sums, binomial coefficients, orthogonality."""

import itertools

import numpy as np
import pytest

from appellfq import (
    Character,
    all_characters,
    binom,
    binomial_table,
    build_field,
    cyc_zero,
    delta_char,
    delta_elem,
    jacobi_sum,
    trivial_character,
)
from appellfq.characters import binom_idx
from appellfq.cyclotomic import CycInt
from appellfq.identities import BatchContext, Terms
import scalar_reference as ref
from scalar_reference import _jacobi_counts

QS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.fixture(scope="module")
def fields():
    return {p**r: build_field(p, r) for p, r in QS}


def test_all_characters(fields):
    assert len(all_characters(fields[3])) == 2
    assert len(all_characters(fields[5])) == 4
    chars4 = all_characters(fields[4])
    assert len(chars4) == 3
    # group of order 3: each nontrivial character is the square of the other
    assert chars4[1] * chars4[1] == chars4[2]
    assert chars4[2] * chars4[2] == chars4[1]


def test_char_eval_at_zero_is_zero(fields):
    for ft in fields.values():
        zero = ft.zero
        for chi in all_characters(ft):
            assert chi(zero).is_zero  # including the trivial character


def test_trivial_character_is_one_on_units(fields):
    for ft in fields.values():
        eps = trivial_character(ft)
        for el in ft.elements[1:]:
            assert eps(el).as_integer() == 1


def test_q5_quadratic_at_square():
    ft = build_field(5, 1)
    chi = Character(ft, 2)
    four = ft.from_int(4)  # 4 = g^2 for g = 2
    assert chi(four).as_integer() == 1
    two = ft.from_int(2)
    assert chi(two).as_integer() == -1


def test_multiplicativity_exhaustive(fields):
    for ft in fields.values():
        for chi in all_characters(ft):
            for x in ft.elements[1:]:
                for y in ft.elements[1:]:
                    xy = ft.exp_table[(x.log + y.log) % ft.n]
                    assert chi(xy) == chi(x) * chi(y)


def test_orthogonality_over_characters(fields):
    # sum over chi of chi(t) = (q-1) * [t == 1]
    for ft in fields.values():
        for t in ft.elements:
            acc = cyc_zero(ft.n)
            for chi in all_characters(ft):
                acc = acc + chi(t)
            expected = ft.n if t == ft.one else 0
            assert acc.as_integer() == expected


def test_orthogonality_over_elements(fields):
    # sum over t of chi(t) = (q-1) * [chi trivial]
    for ft in fields.values():
        for chi in all_characters(ft):
            acc = cyc_zero(ft.n)
            for t in ft.elements:
                acc = acc + chi(t)
            assert acc.as_integer() == (ft.n if chi.is_trivial else 0)


def test_group_operations(fields):
    for ft in fields.values():
        for chi in all_characters(ft):
            assert (chi * chi.inverse()).is_trivial
        eps = trivial_character(ft)
        assert eps.eval_minus_one().as_integer() == 1
    chi = Character(fields[5], 2)
    # -1 = g^2 in F_5, so the quadratic character is 1 there
    assert chi.eval_minus_one().as_integer() == 1
    odd = Character(fields[5], 1)
    assert odd.eval_minus_one().as_integer() == -1


def test_delta_functions(fields):
    ft = fields[5]
    assert delta_elem(ft.zero) == 1
    assert delta_elem(ft.one) == 0
    assert delta_char(trivial_character(ft)) == 1
    assert delta_char(Character(ft, 2)) == 0


def test_jacobi_trivial_counts(fields):
    for ft in fields.values():
        eps = trivial_character(ft)
        assert jacobi_sum(eps, eps).as_integer() == ft.q - 2


def test_jacobi_examples():
    ft5 = build_field(5, 1)
    chi = Character(ft5, 2)
    # direct 3-term summation over u in {2,3,4}: values chi(u)chi(1-u)
    # u=2: chi(2)chi(4) = (-1)(+1); u=3: chi(3)chi(3) = +1; u=4: chi(4)chi(2) = -1
    assert jacobi_sum(chi, chi).as_integer() == -1
    ft3 = build_field(3, 1)
    chi3 = Character(ft3, 1)
    # single term u=2: chi(2)^2 = 1
    assert jacobi_sum(chi3, chi3).as_integer() == 1


def test_binom_examples():
    ft = build_field(5, 1)
    eps = trivial_character(ft)
    chi = Character(ft, 2)
    assert binom(eps, eps).as_integer() == 3  # q - 2
    assert binom(chi, chi).as_integer() == -1  # chi(-1)=1, J(chi, chi~)=J(chi,chi)


def test_binom_symmetry_instance(fields):
    # [A|B] = [A|A B~] over every pair
    for ft in (fields[5], fields[4]):
        chars = all_characters(ft)
        for A, B in itertools.product(chars, repeat=2):
            assert binom(A, B) == binom(A, A * B.inverse())


def test_jacobi_absolute_value(fields):
    # J(A,B) * conj(J(A,B)) = q when A, B and AB are all nontrivial
    for ft in fields.values():
        chars = all_characters(ft)
        for A, B in itertools.product(chars, repeat=2):
            if A.is_trivial or B.is_trivial or (A * B).is_trivial:
                continue
            j = jacobi_sum(A, B)
            assert (j * j.galois(-1)).as_integer() == ft.q


def test_binomial_table_matches_binom(fields):
    for ft in (fields[5], fields[8]):
        tab = binomial_table(ft)
        chars = all_characters(ft)
        for a, b in itertools.product(range(ft.n), repeat=2):
            assert tab[a][b] == binom(chars[a], chars[b])


@pytest.mark.parametrize("p,r", QS + [(11, 1)])
def test_binom_counts_matches_scalar_oracle(p, r):
    ft = build_field(p, r)
    n, lm1 = ft.n, ft.log_minus_one
    chars = all_characters(ft)
    expect = np.array([
        _jacobi_counts(ft, a, -b % n, (b * lm1) % n)
        for a, b in itertools.product(range(n), repeat=2)
    ])
    ctx = BatchContext(ft)

    def counts(a, b):  # the form's terms on the context, counted
        return Terms(n, *ctx._terms(*binom_idx(ft, a, b)), ft.q - 2).counts()

    for a, b in itertools.product(range(n), repeat=2):
        one = counts(a, b)
        assert one.shape == (1, n)
        assert one[0].tolist() == expect[a * n + b].tolist()
        assert counts(a + n, b - n).tolist() == one.tolist()
        assert CycInt.from_powers(n, one[0].tolist()) == binom(chars[a], chars[b])
        # at odd q, B(-1) = -1 for odd b, so a lost B(-1) changes half of these
        assert jacobi_sum(chars[a], chars[b]) == ref.jacobi(ft, a, b), (a, b)
    ar = np.arange(n)
    flat = counts(np.repeat(ar, n), np.tile(ar, n))
    assert flat.shape == (n * n, n)
    assert (flat == expect).all()


def test_binomial_table_fills_on_demand():
    ft = build_field(101, 1)
    tab = binomial_table(ft)
    assert len(tab) == 0  # rows, too, are made on first read
    chars = all_characters(ft)
    value = binom(chars[37], Character(ft, -5))
    assert list(tab) == [37] and len(tab[37]) == 1
    assert value == ref.binom(ft, 37, 95)
    assert binom(chars[37], chars[95]) is value
    assert tab[37][95] is value
    # a Jacobi sum reads the binomial of B-inverse: J(chi_37, chi_5)
    assert jacobi_sum(chars[37], chars[5]) == ref.jacobi(ft, 37, 5)
    assert sum(map(len, tab.values())) == 1


def test_field_mismatch_rejected():
    ft3, ft5 = build_field(3, 1), build_field(5, 1)
    with pytest.raises(ValueError):
        jacobi_sum(trivial_character(ft3), trivial_character(ft5))
    with pytest.raises(ValueError):
        trivial_character(ft3)(ft5.one)


def test_character_json():
    ft = build_field(5, 1)
    assert Character(ft, 3).to_json() == {"q": 5, "exponent": 3}


def test_exponent_reduced_mod_n():
    ft = build_field(5, 1)
    assert Character(ft, 6).exponent == 2
    assert Character(ft, -1).exponent == 3
