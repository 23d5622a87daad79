import random

import pytest

from tropicone.rootsystem import CartanType, cartan_matrix, dual_cartan, positive_roots, root_table, simple_root
from tropicone.wordtools import (
    LimitExceeded,
    NotReducedOrNotLongest,
    WordError,
    WrongLength,
    enumerate_w0_letters,
    enumerate_w0_words,
    j_plus,
    parse_word,
    source_index,
    validate_word,
)

import fixture_data as fx
from references import random_word, reflection_beta_sequence


def test_validate_fixture_words(c3, d4, g2):
    for cd, letters in [(c3, fx.C3_WORD), (c3, fx.C3_WORD_ALT), (d4, fx.D4_WORD), (g2, fx.G2_WORD_A), (g2, fx.G2_WORD_B)]:
        w = validate_word(cd, letters)
        assert w.letters == letters
        assert w.N == len(letters)


def test_word_str_and_letter(c3_word):
    assert str(c3_word) == "2,3,2,1,2,3,2,3,1"
    assert c3_word.letter(1) == 2
    assert c3_word.letter(9) == 1


def test_wrong_length(c3):
    with pytest.raises(WrongLength):
        validate_word(c3, (2, 3, 2, 1, 2, 3, 2, 3))
    with pytest.raises(WrongLength):
        validate_word(c3, fx.C3_WORD + (1,))


def test_not_reduced(c3):
    with pytest.raises(NotReducedOrNotLongest):
        validate_word(c3, (2, 2, 2, 1, 2, 3, 2, 3, 1))


def test_letter_out_of_range(c3):
    with pytest.raises(WordError):
        validate_word(c3, (2, 3, 2, 1, 2, 3, 2, 3, 4))


def test_parse_word(c3):
    w = parse_word(c3, " 2, 3,2,1,2,3,2,3,1")
    assert w.letters == fx.C3_WORD
    with pytest.raises(WordError):
        parse_word(c3, "2,x,2,1,2,3,2,3,1")


def test_beta_sequence_is_positive_roots(c3, c3_word, b3):
    assert set(c3_word.beta) == set(positive_roots(c3))
    wb = validate_word(b3, (1, 2, 1, 3, 2, 1, 3, 2, 3))
    assert set(wb.beta) == set(positive_roots(b3))


# (name, how many seeded words); None takes every reduced word
BETA_CASES = [("A3", None), ("B3", None), ("C3", None), ("G2", None)] + [
    (name, 3) for name in ("B4", "C4", "D4", "F4", "E6", "E7", "E8")
]


@pytest.mark.parametrize("name, count", BETA_CASES, ids=[name for name, _ in BETA_CASES])
def test_beta_sequence_matches_prefix_reflections(name, count):
    cd = cartan_matrix(CartanType.parse(name))
    if count is None:
        words = [w.letters for w in enumerate_w0_words(cd)]
    else:
        rng = random.Random(name)
        words = [random_word(cd, rng).letters for _ in range(count)]
    dual = dual_cartan(cd)
    for letters in words:
        for m in (cd, dual):
            assert validate_word(m, letters).beta == reflection_beta_sequence(m, letters), (str(m.ctype), letters)
        # the coroot sequence is the dual matrix's beta sequence, read off cd's table
        coroots = root_table(cd).coroots
        w = validate_word(cd, letters)
        assert tuple(coroots[r] for r in w.beta_ids) == reflection_beta_sequence(dual, letters), letters
    # the right length, but s_{i_1} s_{i_1} = 1: not reduced
    letters = words[0]
    broken = letters[:1] + letters[:1] + letters[2:]
    for m in (cd, dual):
        with pytest.raises(NotReducedOrNotLongest):
            validate_word(m, broken)


def test_source_index(c3, c3_word, d4_word, g2_word_a, g2_word_b):
    assert source_index(c3_word, 2) == 1
    assert source_index(c3_word, 1) == 9
    assert source_index(c3_word, 3) == 8
    assert c3_word.beta[0] == simple_root(3, 2)
    assert source_index(d4_word, 2) == 1
    assert source_index(d4_word, 1) == 8
    assert source_index(g2_word_a, 1) == 1
    assert source_index(g2_word_a, 2) == 6
    assert source_index(g2_word_b, 2) == 1
    assert source_index(g2_word_b, 1) == 6


def test_j_plus(c3_word):
    # letters: 2 3 2 1 2 3 2 3 1
    assert j_plus(c3_word, 1) == 3
    assert j_plus(c3_word, 2) == 6
    assert j_plus(c3_word, 4) == 9
    assert j_plus(c3_word, 8) == 10  # sentinel N+1
    assert j_plus(c3_word, 9) == 10


@pytest.mark.parametrize("name,count", [("A2", 2), ("G2", 2), ("A3", 16), ("B3", 42), ("C3", 42)])
def test_enumeration_counts(name, count):
    from tropicone.rootsystem import CartanType, cartan_matrix

    cd = cartan_matrix(CartanType.parse(name))
    words = list(enumerate_w0_words(cd))
    assert len(words) == count
    assert len({w.letters for w in words}) == count
    # the bare letters the command line keeps are the validated words' letters
    assert list(enumerate_w0_letters(cd)) == [w.letters for w in words]


def test_enumeration_is_lexicographic(a3):
    words = [w.letters for w in enumerate_w0_words(a3)]
    assert words == sorted(words)
    assert words[0] == (1, 2, 1, 3, 2, 1)
    assert words[-1] == (3, 2, 3, 1, 2, 3)


def test_enumeration_limit(a3):
    gen = enumerate_w0_words(a3, limit=5)
    got = []
    with pytest.raises(LimitExceeded):
        for w in gen:
            got.append(w)
    assert len(got) == 5
    # a cap equal to the count yields every word; one below raises on the last
    every = list(enumerate_w0_letters(a3, limit=16))
    assert len(every) == 16
    got = []
    with pytest.raises(LimitExceeded, match="more than 15 reduced words"):
        for letters in enumerate_w0_letters(a3, limit=15):
            got.append(letters)
    assert got == every[:15]
