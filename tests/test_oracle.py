import random
import weakref
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tropicone import oracle
from tropicone.rootsystem import (
    CartanType,
    NotMinuscule,
    RootSystemError,
    cartan_matrix,
    fundamental_weight,
    minuscule_indices,
    reflect,
)
from tropicone.wordtools import WordError, enumerate_w0_words, validate_word
from tropicone.decograph import build_graph
from tropicone.oracle import (
    MixedSigns,
    NotTypeA,
    agreement_report,
    minuscule_trail_monomials,
    minuscule_weight_diagram,
    typeA_minor_poly,
)

import fixture_data as fx
from references import crosscheck_b_equals_c, random_word, unpruned_minor, unpruned_trails


def test_a1_minor_is_single_variable():
    a1 = cartan_matrix(CartanType.parse("A1"))
    w = validate_word(a1, (1,))
    p = typeA_minor_poly(a1, w, 1)
    assert p == {(1,): 1}
    rep = agreement_report(build_graph(a1, w, 1))
    assert rep["status"] == "pass"
    assert rep["graph_count"] == rep["trail_count"] == rep["minor_count"] == 1


def test_not_type_a(c3, c3_word):
    with pytest.raises(NotTypeA):
        typeA_minor_poly(c3, c3_word, 1)


def test_minor_rejects_a_word_of_another_root_system(a3):
    # a reduced word of w0 in A3 spells none in A4, and the minor oracle used to answer {}
    a4 = cartan_matrix(CartanType.parse("A4"))
    w = validate_word(a3, (1, 2, 1, 3, 2, 1))
    with pytest.raises(WordError, match="validated for A3, not A4"):
        typeA_minor_poly(a4, w, 2)


def test_trails_reject_a_word_of_another_root_system(b3, c3, c3_word):
    # B3 and C3 share their reduced words, and the trails used to answer for the wrong one
    w = validate_word(b3, c3_word.letters)
    with pytest.raises(WordError, match="validated for B3, not C3"):
        minuscule_trail_monomials(c3, w, 1)


@pytest.mark.parametrize("i", [0, -1, 4])
def test_minor_rejects_index_out_of_range(a3, i):
    w = validate_word(a3, (1, 2, 1, 3, 2, 1))
    with pytest.raises(RootSystemError):
        typeA_minor_poly(a3, w, i)


# the factor x_{-m}(t) with a sign mistyped on its diagonal
@pytest.mark.parametrize(
    "block",
    [(({-1: -1}, {}), ({0: 1}, {1: 1})), (({-1: 1}, {}), ({0: 1}, {1: -1}))],
)
def test_wrong_sign_block_gives_mixed_signs(a3, monkeypatch, block):
    monkeypatch.setattr(oracle, "_BLOCK", block)
    with pytest.raises(MixedSigns):
        typeA_minor_poly(a3, validate_word(a3, (2, 3, 1, 2, 1, 3)), 2)


def test_negated_off_diagonal_block_raises_on_all_negative_minors(a3, monkeypatch):
    # x_{-m}(t) conjugated by diag(1, -1, 1, ...): every minor comes out as
    # plus or minus the true one, and the all-negative ones must not pass
    a2 = cartan_matrix(CartanType.parse("A2"))
    cases = [(cd, w, i) for cd in (a2, a3) for w in enumerate_w0_words(cd) for i in range(1, cd.n + 1)]
    true = [typeA_minor_poly(*case) for case in cases]
    monkeypatch.setattr(oracle, "_BLOCK", (({-1: 1}, {}), ({0: -1}, {1: 1})))
    raised = 0
    for case, poly in zip(cases, true):
        try:
            assert typeA_minor_poly(*case) == poly, case
        except MixedSigns:
            raised += 1
    assert (len(cases), raised) == (52, 20)


def _numeric_product(n, letters, ts):
    """x_{-i_1}(t_1) ... x_{-i_N}(t_N) as an explicit matrix of fractions."""
    size = n + 1
    prod = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
    for m, t in zip(letters, ts):
        factor = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
        factor[m - 1][m - 1] = 1 / t
        factor[m][m - 1] = Fraction(1)
        factor[m][m] = t
        prod = [
            [sum(prod[r][k] * factor[k][c] for k in range(size)) for c in range(size)]
            for r in range(size)
        ]
    return prod


def _det(sub):
    """Determinant by Gaussian elimination over the rationals."""
    sub = [list(row) for row in sub]
    size, det = len(sub), Fraction(1)
    for k in range(size):
        pivot = next((r for r in range(k, size) if sub[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            sub[k], sub[pivot] = sub[pivot], sub[k]
            det = -det
        det *= sub[k][k]
        for r in range(k + 1, size):
            ratio = sub[r][k] / sub[k][k]
            sub[r] = [x - ratio * y for x, y in zip(sub[r], sub[k])]
    return det


def _evaluate(poly, ts):
    total = Fraction(0)
    for expo, coeff in poly.items():
        term = Fraction(coeff)
        for t, e in zip(ts, expo):
            term *= t**e
        total += term
    return total


A4_WORDS = [
    (1, 2, 1, 3, 2, 1, 4, 3, 2, 1),
    # seeded random words
    (2, 4, 1, 3, 2, 3, 4, 3, 1, 2),
    (1, 2, 1, 4, 3, 4, 2, 1, 3, 2),
    (2, 4, 1, 3, 4, 2, 1, 3, 4, 2),
]


def test_minor_matches_numeric_determinant(a3):
    a4 = cartan_matrix(CartanType.parse("A4"))
    cases = [(a3, w) for w in enumerate_w0_words(a3)]
    cases += [(a4, validate_word(a4, letters)) for letters in A4_WORDS]
    rng = random.Random(4)
    for cd, w in cases:
        n = cd.n
        polys = {i: typeA_minor_poly(cd, w, i) for i in range(1, n + 1)}
        for _ in range(3):
            ts = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(w.N)]
            prod = _numeric_product(n, w.letters, ts)
            for i, poly in polys.items():
                # rows {n+2-i..n+1}, columns [1,i-1] u {i+1}, here 0-based
                cols = list(range(i - 1)) + [i]
                sub = [[prod[r][c] for c in cols] for r in range(n + 1 - i, n + 1)]
                assert _evaluate(poly, ts) == _det(sub), (w.letters, i, ts)


def test_weight_diagram_c3_vector_rep(c3, c3_word):
    diagram = minuscule_weight_diagram(c3, 1)
    assert len(diagram) == 6
    with pytest.raises(NotMinuscule):
        minuscule_weight_diagram(c3, 2)


# 54 minuscule (type, i) in all
MINUSCULE_TYPES = (
    [f"A{n}" for n in range(1, 8)]
    + [f"{fam}{n}" for fam in "BC" for n in range(2, 6)]
    + [f"D{n}" for n in range(3, 8)]
    + ["E6", "E7"]
)


@pytest.mark.parametrize("name", MINUSCULE_TYPES)
def test_weight_diagram_is_the_orbit_of_minus_w0_lambda(name):
    cd = cartan_matrix(CartanType.parse(name))
    w = next(enumerate_w0_words(cd, limit=1))
    for i in sorted(minuscule_indices(cd)):
        # reference: -w0 Lambda_i with w0 = s_{i_1} ... s_{i_N} read off the word
        top = fundamental_weight(cd.n, i)
        for letter in reversed(w.letters):
            top = reflect(cd, letter, top)
        top = tuple(-x for x in top)
        orbit, frontier = {top}, [top]
        while frontier:
            mu = frontier.pop()
            for j in range(1, cd.n + 1):
                nu = reflect(cd, j, mu)
                if nu not in orbit:
                    orbit.add(nu)
                    frontier.append(nu)
        diagram = minuscule_weight_diagram(cd, i)
        assert diagram == orbit, i
        assert [mu for mu in diagram if min(mu) >= 0] == [top], i


def test_trails_match_graph_c3(c3, c3_word):
    mons = minuscule_trail_monomials(c3, c3_word, 1)
    assert mons == set(build_graph(c3, c3_word, 1).vertices)


def test_trails_match_graph_d4(d4, d4_word):
    for i in (1, 3, 4):
        mons = minuscule_trail_monomials(d4, d4_word, i)
        assert mons == set(build_graph(d4, d4_word, i).vertices)


@pytest.mark.parametrize("consume", [minuscule_trail_monomials, build_graph], ids=["trails", "graph"])
def test_word_freed_without_cyclic_gc(d4, consume, gc_disabled):
    # reference counting alone must free the word and its cache: no call leaves a cycle through it
    w = validate_word(d4, fx.D4_WORD)
    ref = weakref.ref(w)
    assert consume(d4, w, 1)
    del w
    assert ref() is None


def test_crosscheck_b_equals_c(c3, c3_word, d4, d4_word):
    for cd, w, i in [(c3, c3_word, 1), (d4, d4_word, 1), (d4, d4_word, 3)]:
        rep = crosscheck_b_equals_c(cd, w, i)
        assert rep["status"] == "pass"
        assert rep["mismatches"] == []
        assert rep["trails"] >= 1


def words_of(name, seeded):
    """Every reduced word of the type, or that many seeded ones."""
    cd = cartan_matrix(CartanType.parse(name))
    if not seeded:
        return cd, list(enumerate_w0_words(cd))
    rng = random.Random(name)
    return cd, [random_word(cd, rng) for _ in range(seeded)]


def trail_mismatches(cd, words):
    """The (word, i) at the minuscule indices where the engine's trail monomials differ from the unpruned walk's.

    Multiplicities are compared too: each d-vector must come from exactly one trail.
    """
    return [
        (str(w), i)
        for w in words
        for i in sorted(minuscule_indices(cd))
        if oracle._minor(oracle._trail_module(cd, i), w) != Counter(d for _, d in unpruned_trails(cd, w, i))
    ]


def minor_mismatches(cd, words):
    """The (word, i) where the pruned minor differs from the unpruned propagation."""
    return [
        (str(w), i)
        for w in words
        for i in range(1, cd.n + 1)
        if typeA_minor_poly(cd, w, i) != unpruned_minor(cd, w, i)
    ]


# D4's minuscule indices are 1, 3, 4; D5's 1, 4, 5; E6's 1, 5
@pytest.mark.parametrize("name, seeded", [("A3", 0), ("A4", 0), ("D4", 0), ("D5", 30), ("E6", 4)])
def test_live_trail_walk_matches_the_unpruned_walk(name, seeded):
    cd, words = words_of(name, seeded)
    assert trail_mismatches(cd, words) == []


@pytest.mark.parametrize("name, seeded", [("A3", 0), ("A4", 0), ("A5", 40), ("A6", 20)])
def test_pruned_minor_matches_the_unpruned_propagation(name, seeded):
    cd, words = words_of(name, seeded)
    assert minor_mismatches(cd, words) == []


@pytest.mark.parametrize("drop", ["lowest", "highest"])
@pytest.mark.parametrize("mismatches", [trail_mismatches, minor_mismatches], ids=["weights", "columns"])
def test_a_live_pass_missing_one_state_is_caught(monkeypatch, mismatches, drop):
    # the one live pass forgets one live weight, or column set, halfway through the word
    real = oracle._live_states

    def forgetful(module, w):
        live = real(module, w)
        states = live[len(live) // 2]
        live[len(live) // 2] &= ~(states & -states if drop == "lowest" else 1 << states.bit_length() - 1)
        return live

    monkeypatch.setattr(oracle, "_live_states", forgetful)
    assert mismatches(*words_of("A3", 0))


# A hand-built module that neither the trails nor the type A minors produce:
# two paths from state 0 reach state 1 with the same monomial, state 1 moves
# by a two-term polynomial at letter 1, and state 2 is dead (it never
# reaches the target 1).
TOY_MOVES = (
    (
        [(0, {1: 1}), (1, {1: 1}), (2, {0: 1})],
        [(1, {0: 1, 2: 3})],
        [(2, {1: 1})],
    ),
    (
        [(1, {0: 1})],
        [(1, {0: 1}), (0, {-1: 1})],
        [(2, {0: 2})],
    ),
)


def toy_minor_by_paths(letters):
    """Sum over every path of moves from state 0 to state 1, dead or not, of the product of its f's."""
    out = Counter()
    paths = [(0, (), 1)]
    for letter in letters:
        paths = [
            (s2, e + (power,), c * cf)
            for s, e, c in paths
            for s2, f in TOY_MOVES[letter - 1][s]
            for power, cf in f.items()
        ]
    for s, e, c in paths:
        if s == 1:
            out[e] += c
    return dict(out)


@pytest.mark.parametrize(
    "letters",
    [(1, 2), (1, 2, 1), (2, 1, 2, 1), (1, 1, 2, 2, 1), (1, 2, 1, 2, 1, 2)],
    ids=lambda t: ",".join(map(str, t)),
)
def test_engine_matches_a_sum_over_all_paths(letters):
    module = oracle._module(TOY_MOVES, 0, 1)
    w = SimpleNamespace(letters=letters, N=len(letters))
    want = toy_minor_by_paths(letters)
    assert oracle._minor(module, w) == want
    assert max(want.values()) >= 2
    # the dead state is never live, though paths from the start reach it
    assert all(not live >> 2 & 1 for live in oracle._live_states(module, w))


def test_two_paths_to_one_monomial_add_up():
    # 0 -> 0 -> 1 and 0 -> 1 -> 1 both give t_1, so its coefficient is 2
    w = SimpleNamespace(letters=(1, 2), N=2)
    assert oracle._minor(oracle._module(TOY_MOVES, 0, 1), w) == {(1, 0): 2}


def test_a2_agreement_all_words():
    a2 = cartan_matrix(CartanType.parse("A2"))
    for w in enumerate_w0_words(a2):
        for i in (1, 2):
            rep = agreement_report(build_graph(a2, w, i))
            assert rep["status"] == "pass"
            assert rep["missing_in_graph"] == [] and rep["extra_in_graph"] == []
            assert all(c == 1 for c in rep["coefficient_table"].values())


def test_a3_agreement_fixture_word(a3):
    w = validate_word(a3, (1, 2, 1, 3, 2, 1))
    for i in (1, 2, 3):
        rep = agreement_report(build_graph(a3, w, i))
        assert rep["status"] == "pass"
        assert rep["graph_count"] == rep["trail_count"] == rep["minor_count"]
        assert all(c == 1 for c in rep["coefficient_table"].values())


def test_agreement_report_shape(a3):
    w = validate_word(a3, (1, 2, 1, 3, 2, 1))
    rep = agreement_report(build_graph(a3, w, 2))
    assert rep["input"] == {"type": "A3", "word": [1, 2, 1, 3, 2, 1], "i": 2}
    for key in ("status", "graph_count", "trail_count", "minor_count", "notes"):
        assert key in rep


def test_no_oracle_applies_to_a_non_minuscule_index_outside_type_a(c3, c3_word):
    with pytest.raises(NotMinuscule, match=r"no oracle applies to \(C3, i=2\)"):
        agreement_report(build_graph(c3, c3_word, 2))


def test_trail_only_report_outside_type_a(c3, c3_word):
    rep = agreement_report(build_graph(c3, c3_word, 1))
    assert rep["status"] == "pass" and rep["notes"] == []
    assert rep["graph_count"] == rep["trail_count"] == 1
    assert rep["minor_count"] is None and rep["coefficient_table"] is None


def test_oracles_that_disagree_fail_the_report(a3, monkeypatch):
    trails = oracle.minuscule_trail_monomials
    # the trail oracle loses its lowest monomial, the minor oracle keeps it
    monkeypatch.setattr(oracle, "minuscule_trail_monomials", lambda *a: set(sorted(trails(*a))[1:]))
    rep = agreement_report(build_graph(a3, validate_word(a3, (1, 2, 1, 3, 2, 1)), 2))
    assert rep["status"] == "fail"
    assert rep["notes"] == ["trail and minor oracles disagree with each other"]
    assert rep["trail_count"] == rep["minor_count"] - 1
