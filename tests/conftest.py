import gc

import pytest

from tropicone.rootsystem import CartanType, cartan_matrix
from tropicone.wordtools import validate_word

import fixture_data as fx


@pytest.fixture
def gc_disabled():
    """The cyclic collector off for one test, from a collected heap.

    A later gc.collect() then counts what reference counting left behind.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture(scope="session")
def c3():
    return cartan_matrix(CartanType.parse("C3"))


@pytest.fixture(scope="session")
def d4():
    return cartan_matrix(CartanType.parse("D4"))


@pytest.fixture(scope="session")
def g2():
    return cartan_matrix(CartanType.parse("G2"))


@pytest.fixture(scope="session")
def a3():
    return cartan_matrix(CartanType.parse("A3"))


@pytest.fixture(scope="session")
def b3():
    return cartan_matrix(CartanType.parse("B3"))


@pytest.fixture(scope="session")
def b4():
    return cartan_matrix(CartanType.parse("B4"))


@pytest.fixture(scope="session")
def c3_word(c3):
    return validate_word(c3, fx.C3_WORD)


@pytest.fixture(scope="session")
def d4_word(d4):
    return validate_word(d4, fx.D4_WORD)


@pytest.fixture(scope="session")
def g2_word_a(g2):
    return validate_word(g2, fx.G2_WORD_A)


@pytest.fixture(scope="session")
def g2_word_b(g2):
    return validate_word(g2, fx.G2_WORD_B)
