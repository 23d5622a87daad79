"""Randomized structural checks, drawn from pools of enumerated words."""

import random
from functools import lru_cache
from itertools import islice
from operator import sub

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tropicone.rootsystem import (
    CartanType,
    cartan_matrix,
    fundamental_weight,
    minuscule_indices,
    reflect,
    reflect_root,
)
from tropicone.wordtools import enumerate_w0_words, j_plus
from tropicone.monomial import a_monomial, render
from tropicone.decograph import b_from_d, build_graph, firing_labels_minuscule, verify_graph
from tropicone.stringcone import ConeSystem, dual_kostant_count, string_cone, weight_census, weights_up_to

from references import brute_force_census, out_labels, reflection_beta_sequence, render_reference

CDS = [cartan_matrix(CartanType.parse(name)) for name in ("A3", "B3", "C3", "D4", "G2", "F4")]
WORD_POOL = [
    (cd, w)
    for cd in (cartan_matrix(CartanType.parse(n)) for n in ("A3", "B3", "C3"))
    for w in enumerate_w0_words(cd)
]


@st.composite
def cd_and_weight(draw):
    cd = draw(st.sampled_from(CDS))
    coords = draw(st.lists(st.integers(-4, 4), min_size=cd.n, max_size=cd.n))
    return cd, tuple(coords), draw(st.integers(1, cd.n))


@given(cd_and_weight())
def test_reflect_is_an_involution(args):
    cd, lam, j = args
    assert reflect(cd, j, reflect(cd, j, lam)) == lam
    assert reflect(cd, j, lam)[j - 1] == -lam[j - 1]


@st.composite
def cd_and_root_vec(draw):
    cd = draw(st.sampled_from(CDS))
    coords = draw(st.lists(st.integers(-4, 4), min_size=cd.n, max_size=cd.n))
    return cd, tuple(coords), draw(st.integers(1, cd.n))


@given(cd_and_root_vec())
def test_reflect_root_is_an_involution(args):
    cd, beta, j = args
    assert reflect_root(cd, j, reflect_root(cd, j, beta)) == beta


# every word for A3/B3/C3, the first 50 in lexicographic order for D5/E6/F4/G2,
# the first one for E7/E8
LITERAL_WORD_COUNTS = {"A3": None, "B3": None, "C3": None, "D5": 50, "E6": 50, "F4": 50, "G2": 50, "E7": 1, "E8": 1}


@lru_cache(maxsize=None)
def literal_pool(name):
    cd = cartan_matrix(CartanType.parse(name))
    return cd, list(islice(enumerate_w0_words(cd), LITERAL_WORD_COUNTS[name]))


def b_by_nested_sum(cd, w, i, d):
    """b_t = d_t + <h_{i_t}, s_i Lambda_i> - sum_{l>t} b_l a_{i_t, i_l}, from t = N down."""
    silam = reflect(cd, i, fundamental_weight(cd.n, i))
    b = [0] * w.N
    for t in range(w.N, 0, -1):
        later = sum(b[l - 1] * cd.a(w.letter(t), w.letter(l)) for l in range(t + 1, w.N + 1))
        b[t - 1] = d[t - 1] + silam[w.letter(t) - 1] - later
    return tuple(b)


@pytest.mark.parametrize("name", LITERAL_WORD_COUNTS)
def test_beta_matches_the_reflection_chain(name):
    cd, words = literal_pool(name)
    for w in words:
        assert w.beta == reflection_beta_sequence(cd, w.letters), str(w)


@pytest.mark.parametrize("name", LITERAL_WORD_COUNTS)
def test_b_from_d_matches_the_nested_sum(name):
    cd, words = literal_pool(name)
    rng = random.Random(name)
    for w in words:
        for i in range(1, cd.n + 1):
            d = tuple(rng.randint(-3, 3) for _ in range(w.N))
            assert b_from_d(cd, w, i, d) == b_by_nested_sum(cd, w, i, d), (str(w), i, d)


@st.composite
def word_and_position(draw):
    cd, w = draw(st.sampled_from(WORD_POOL))
    repeating = [j for j in range(1, w.N + 1) if j_plus(w, j) <= w.N]
    return cd, w, draw(st.sampled_from(repeating))


@given(word_and_position())
def test_a_monomial_shape(args):
    cd, w, j = args
    jp = j_plus(w, j)
    a = a_monomial(cd, w, j)
    assert a[j - 1] == 1 and a[jp - 1] == 1
    assert all(a[l - 1] <= 0 for l in range(j + 1, jp))
    assert all(a[l - 1] == 0 for l in list(range(1, j)) + list(range(jp + 1, w.N + 1)))


@st.composite
def word_and_index(draw):
    cd, w = draw(st.sampled_from(WORD_POOL))
    return cd, w, draw(st.integers(1, cd.n))


@settings(max_examples=25, deadline=None)
@given(word_and_index())
def test_graph_invariants_hold(args):
    cd, w, i = args
    report = verify_graph(build_graph(cd, w, i))
    assert report["status"] == "pass", report


@given(st.sampled_from(WORD_POOL))
def test_jplus_table_matches_scan(pair):
    _, w = pair
    for j in range(1, w.N + 1):
        later = [l for l in range(j + 1, w.N + 1) if w.letter(l) == w.letter(j)]
        assert w.jplus[j - 1] == (later[0] if later else w.N + 1)


@example(())
@example((0, 0, 0))
@example((0, 1, -1))
@example((2, 0, -3))
@example((0, 0, -1, -2))
@example((1, 2, 5, -1, 0, -4))
@given(st.lists(st.integers(-5, 5), max_size=12).map(tuple))
def test_render_matches_reference(d):
    assert render(d) == render_reference(d)


@st.composite
def word_index_and_monomial(draw):
    cd, w, i = draw(word_and_index())
    d = draw(st.lists(st.integers(-3, 3), min_size=w.N, max_size=w.N))
    return cd, w, i, tuple(d)


@settings(max_examples=50)
@given(word_index_and_monomial())
def test_b_shift_identity_holds_at_every_monomial(args):
    # b_from_d is affine with an i-independent linear part, which is what
    # lets build_graph check the shift once per word instead of per edge
    cd, w, i, d = args
    b = b_from_d(cd, w, i, d)
    for j in range(1, w.N + 1):
        jp = w.jplus[j - 1]
        if jp > w.N:
            continue
        shifted = list(b)
        shifted[j - 1] += 1
        shifted[jp - 1] -= 1
        assert b_from_d(cd, w, i, tuple(map(sub, d, a_monomial(cd, w, j)))) == tuple(shifted), j


@st.composite
def word_and_minuscule_index(draw):
    cd, w = draw(st.sampled_from(WORD_POOL))
    return cd, w, draw(st.sampled_from(sorted(minuscule_indices(cd))))


@settings(max_examples=25, deadline=None)
@given(word_and_minuscule_index())
def test_generic_rule_builds_the_minuscule_graph(args):
    # the same labels at every vertex of the FIFO build give the same graph
    cd, w, i = args
    for d, fired in out_labels(build_graph(cd, w, i)).items():
        assert firing_labels_minuscule(w, d) == fired, d


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(WORD_POOL))
def test_census_counts_dual_partitions_up_to_weight_three(pair):
    cd, w = pair
    cone = string_cone(cd, w)
    for mvec in weights_up_to(cd.n, 3):
        assert weight_census(cone, mvec) == dual_kostant_count(cd, mvec), mvec


@lru_cache(maxsize=None)
def pooled_cone(k):
    cd, w = WORD_POOL[k]
    return string_cone(cd, w)


CUT_POOL = [k for k, (cd, _) in enumerate(WORD_POOL) if cd.ctype.family in "BC"]


@st.composite
def cut_cone_and_weight(draw):
    cone = pooled_cone(draw(st.sampled_from(CUT_POOL)))
    entries = draw(st.dictionaries(st.integers(0, cone.N - 1), st.integers(-2, 2), min_size=1, max_size=4))
    row = tuple(entries.get(l, 0) for l in range(cone.N))
    letters = draw(st.lists(st.integers(0, cone.cd.n - 1), min_size=1, max_size=3))
    mvec = tuple(letters.count(t) for t in range(cone.cd.n))
    return ConeSystem(cone.cd, cone.word, cone.rows + ((0, row),)), mvec


@settings(max_examples=150, deadline=None)
@given(cut_cone_and_weight())
def test_census_of_a_randomly_cut_cone_matches_brute_force(args):
    # weights with zero-sum letter classes, and cuts that empty the frontier,
    # beyond the fixed cut cones of test_stringcone
    cut, mvec = args
    assert weight_census(cut, mvec) == brute_force_census(cut, mvec), (cut.word.letters, cut.rows[-1], mvec)
