from operator import sub

import pytest

from tropicone.monomial import NoNextOccurrence, a_monomial, lowest_term, render, unit
from tropicone.rootsystem import CartanType, cartan_matrix
from tropicone.wordtools import validate_word

import fixture_data as fx
from fixture_data import ev


def test_unit_zero_exp():
    u = unit(9, 3)
    assert u[2] == 1
    assert sum(abs(x) for x in u) == 1
    assert u == ev(9, {3: 1})


def test_render_forms():
    assert render((0, 0, 0)) == "1"
    assert render(ev(9, {1: 1})) == "t_1"
    assert render(ev(9, {2: 1, 3: -1})) == "t_2/t_3"
    assert render(ev(9, {3: 1, 5: 2, 6: -1})) == "t_3*t_5^2/t_6"
    assert render(ev(9, {7: 1, 8: -1, 9: -1})) == "t_7/(t_8*t_9)"
    assert render(ev(6, {5: 1, 6: -3})) == "t_5/t_6^3"
    assert render(ev(4, {2: -1})) == "1/t_2"


def test_a_monomial_c3(c3, c3_word):
    # position 1 carries letter 2, next occurrence at 3, letter 3 in between
    assert a_monomial(c3, c3_word, 1) == ev(9, {1: 1, 2: -1, 3: 1})
    # position 2 carries letter 3, next at 6, letters 2,1,2 in between
    assert a_monomial(c3, c3_word, 2) == ev(9, {2: 1, 3: -2, 5: -2, 6: 1})


def test_a_monomial_d4(d4, d4_word):
    assert a_monomial(d4, d4_word, 1) == ev(12, {1: 1, 2: -1, 3: -1, 4: 1})


def test_a_monomial_no_next(c3, c3_word):
    with pytest.raises(NoNextOccurrence):
        a_monomial(c3, c3_word, 7)
    with pytest.raises(NoNextOccurrence):
        a_monomial(c3, c3_word, 9)


@pytest.mark.parametrize("j", [-2, 0, 4], ids=["negative", "zero", "N+1"])
def test_a_monomial_rejects_a_position_outside_the_word(j):
    a2 = cartan_matrix(CartanType.parse("A2"))
    w = validate_word(a2, (1, 2, 1))
    with pytest.raises(ValueError, match=r"position -?\d+ out of \[1, 3\]"):
        a_monomial(a2, w, j)


def test_edges_divide_by_a_monomials(c3, c3_word):
    for src, j, dst in fx.C3_EDGES:
        lhs = tuple(map(sub, ev(9, src), a_monomial(c3, c3_word, j)))
        assert lhs == ev(9, dst)


def test_lowest_term(c3, c3_word, d4, d4_word, g2, g2_word_a):
    assert lowest_term(c3, c3_word, 2) == ev(9, {7: 1, 8: -1, 9: -1})
    assert lowest_term(c3, c3_word, 1) == unit(9, 9)
    assert lowest_term(c3, c3_word, 3) == unit(9, 8)
    assert lowest_term(d4, d4_word, 2) == ev(12, fx.D4_SINK)
    assert lowest_term(g2, g2_word_a, 1) == ev(6, {5: 1, 6: -3})
    assert lowest_term(g2, g2_word_a, 2) == unit(6, 6)
