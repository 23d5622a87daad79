"""Acceptance gate: one test per shipped claim, each printing a PASS/FAIL line.

Every test rebuilds its objects from scratch, compares against the frozen
fixture data, and enforces a wall-clock budget where the claim carries one.
"""

import time
from contextlib import contextmanager

from tropicone.monomial import unit
from tropicone.rootsystem import CartanType, cartan_matrix
from tropicone.wordtools import enumerate_w0_words, validate_word
from tropicone.decograph import build_graph, firing_labels_minuscule, verify_graph
from tropicone.oracle import agreement_report
from tropicone.stringcone import dual_kostant_count, render, string_cone, weight_census, weights_up_to

import fixture_data as fx
from fixture_data import ev
from references import crosscheck_b_equals_c, out_labels


@contextmanager
def criterion(capsys, n, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {n}: {desc}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        with capsys.disabled():
            print(f"[FAIL] criterion {n}: {desc} ({dt:.2f}s, budget {budget}s)")
        raise AssertionError(f"criterion {n} took {dt:.2f}s, budget was {budget}s")
    with capsys.disabled():
        print(f"[PASS] criterion {n}: {desc} ({dt:.2f}s)")


def test_criterion_1_c3_exact_graph(capsys, c3, c3_word):
    with criterion(capsys, 1, "C3 graph for i=2 matches the worked example", budget=1.0):
        g = build_graph(c3, c3_word, 2)
        assert g.vertices == {ev(9, m): b for m, b in fx.C3_VERTICES}
        assert set(g.edges) == {(ev(9, s), j, ev(9, t)) for s, j, t in fx.C3_EDGES}
        assert len(g.vertices) == 12 and len(g.edges) == 14
        assert g.source == unit(9, 1)
        assert g.sinks() == [ev(9, fx.C3_SINK)]


def test_criterion_2_c3_singletons_and_cone(capsys, c3, c3_word):
    with criterion(capsys, 2, "C3 singleton graphs and the 14-row system", budget=1.0):
        for i, pos in [(1, 9), (3, 8)]:
            g = build_graph(c3, c3_word, i)
            assert list(g.vertices) == [unit(9, pos)] and g.edges == []
        cone = string_cone(c3, c3_word)
        assert list(cone.rows) == [(i, ev(9, m)) for i, m in fx.C3_CONE_ROWS]
        assert render(cone, "text") == fx.C3_CONE_TEXT


def test_criterion_3_d4_graphs_and_cone(capsys, d4, d4_word):
    with criterion(capsys, 3, "D4 graphs for every index and the 25-row system", budget=1.0):
        g = build_graph(d4, d4_word, 2)
        num = {k: ev(12, m) for k, m in fx.D4_MONOMIALS.items()}
        assert len(g.vertices) == 21 and len(g.edges) == 27
        assert set(g.vertices) == set(num.values())
        assert set(g.edges) == {(num[s], j, num[t]) for s, j, t in fx.D4_EDGES}
        assert g.vertices[num[1]] == fx.D4_INITIAL_B
        g1 = build_graph(d4, d4_word, 1)
        assert g1.edges == [(unit(12, 8), 8, ev(12, {9: 1, 10: -1}))]
        assert list(build_graph(d4, d4_word, 3).vertices) == [unit(12, 11)]
        assert list(build_graph(d4, d4_word, 4).vertices) == [unit(12, 12)]
        cone = string_cone(d4, d4_word)
        assert len(cone.rows) == 25
        extra = [(i, ev(12, m)) for i, m in fx.D4_EXTRA_ROWS]
        assert [r for r in cone.rows if r[0] != 2] == extra


def test_criterion_4_g2_both_words(capsys, g2, g2_word_a, g2_word_b):
    with criterion(capsys, 4, "G2 graphs for both reduced words", budget=1.0):
        ga = build_graph(g2, g2_word_a, 1)
        assert ga.vertices == {ev(6, m): b for m, b in fx.G2A_VERTICES}
        assert {(s, t) for s, _, t in ga.edges} == {(ev(6, s), ev(6, t)) for s, t in fx.G2A_EDGE_PAIRS}
        assert len(ga.edges) == 13
        assert list(build_graph(g2, g2_word_a, 2).vertices) == [unit(6, 6)]
        gb = build_graph(g2, g2_word_b, 2)
        assert gb.edges == [(ev(6, s), j, ev(6, t)) for s, j, t in fx.G2B_CHAIN]
        assert list(build_graph(g2, g2_word_b, 1).vertices) == [unit(6, 6)]


# seeded random words of w0, each letter undoing a uniformly chosen descent
# of the longest permutation, away from the lexicographically first ones
TYPE_A_WORDS = [
    ("A5", (2, 1, 4, 2, 5, 4, 3, 4, 2, 1, 5, 3, 4, 2, 3)),
    ("A5", (1, 2, 1, 4, 3, 5, 4, 3, 2, 5, 1, 3, 4, 2, 3)),
    ("A6", (2, 6, 1, 4, 2, 5, 4, 6, 5, 3, 2, 4, 1, 5, 6, 3, 4, 5, 2, 3, 4)),
    ("A6", (1, 2, 1, 5, 3, 6, 5, 4, 3, 2, 5, 1, 6, 3, 4, 5, 3, 4, 2, 3, 4)),
    ("A7", (2, 6, 1, 4, 2, 5, 7, 4, 6, 3, 2, 7, 1, 5, 6, 4, 5, 6, 3, 7, 2, 4, 1, 3, 5, 4, 6, 5)),
]


def test_criterion_5_type_a_three_way_oracle(capsys):
    with criterion(capsys, 5, "type A minors, trail sums and graphs agree", budget=30.0):
        cases = []
        for name in ("A2", "A3"):
            cd = cartan_matrix(CartanType.parse(name))
            cases += [(cd, w) for w in enumerate_w0_words(cd)]
        for name, letters in TYPE_A_WORDS:
            cd = cartan_matrix(CartanType.parse(name))
            cases.append((cd, validate_word(cd, letters)))
        for cd, w in cases:
            for i in range(1, cd.n + 1):
                rep = agreement_report(build_graph(cd, w, i))
                assert rep["status"] == "pass", rep
                assert rep["graph_count"] == rep["trail_count"] == rep["minor_count"]
                assert all(c == 1 for c in rep["coefficient_table"].values())
                cross = crosscheck_b_equals_c(cd, w, i)
                assert cross["status"] == "pass", cross


def test_criterion_6_invariants_across_words(capsys, d4, d4_word, g2, g2_word_a, g2_word_b):
    with criterion(capsys, 6, "structural invariants over all A3/B3/C3 words", budget=60.0):
        fixtures = [(d4, d4_word, i) for i in range(1, 5)]
        fixtures += [(g2, wd, i) for wd in (g2_word_a, g2_word_b) for i in (1, 2)]
        for cd, w, i in fixtures:
            report = verify_graph(build_graph(cd, w, i))
            assert report["status"] == "pass", (str(cd.ctype), w.letters, i, report)
        for name in ("A3", "B3", "C3"):
            cd = cartan_matrix(CartanType.parse(name))
            for w in enumerate_w0_words(cd):
                for i in range(1, cd.n + 1):
                    report = verify_graph(build_graph(cd, w, i))
                    assert report["status"] == "pass", (name, w.letters, i, report)


def test_criterion_7_fast_path_equals_generic(capsys):
    with criterion(capsys, 7, "minuscule firing rule fires as the generic rule at every vertex"):
        cases = [("A2", (1, 2)), ("A3", (1, 2, 3)), ("C3", (1,)), ("B3", (3,)), ("D4", (1, 3, 4))]
        for name, indices in cases:
            cd = cartan_matrix(CartanType.parse(name))
            for w in enumerate_w0_words(cd):
                for i in indices:
                    for d, fired in out_labels(build_graph(cd, w, i)).items():
                        assert firing_labels_minuscule(w, d) == fired, (name, w.letters, i, d)


def test_criterion_8_census_across_words(capsys, c3, a3):
    with criterion(capsys, 8, "lattice point census is word independent and counts partitions", budget=120.0):
        c3_words = [validate_word(c3, fx.C3_WORD), validate_word(c3, fx.C3_WORD_ALT)]
        a3_all = list(enumerate_w0_words(a3))
        a3_words = [a3_all[k] for k in (0, 5, 10, 15)]
        for cd, words in [(c3, c3_words), (a3, a3_words)]:
            cones = [string_cone(cd, w) for w in words]
            for mv in weights_up_to(cd.n, 4):
                counts = {weight_census(cone, mv) for cone in cones}
                assert len(counts) == 1, (str(cd.ctype), mv, counts)
                assert counts == {dual_kostant_count(cd, mv)}, (str(cd.ctype), mv)
