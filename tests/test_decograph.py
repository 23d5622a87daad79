import json
import random
from itertools import product
from operator import sub

import pytest

from tropicone import decograph
from tropicone.jsontext import emit
from tropicone.monomial import a_monomial, unit
from tropicone.rootsystem import (
    CartanType,
    RootSystemError,
    cartan_matrix,
    fundamental_weight,
    minuscule_indices,
    reflect,
)
from tropicone.wordtools import WordError, enumerate_w0_words, source_index, validate_word
from tropicone.decograph import (
    BUpdateMismatch,
    ClosedFormMismatch,
    GraphError,
    SupportStatus,
    UnsupportedIndex,
    VertexCapExceeded,
    b_from_d,
    build_graph,
    firing_labels,
    firing_labels_minuscule,
    initial_vertex,
    supported,
    to_dot,
    to_json_dict,
    verify_graph,
)

import fixture_data as fx
from fixture_data import ev
from references import out_labels, random_word, reflection_closed_form, tuple_keyed_graph


def test_supported_classical():
    for name in ("A3", "B3", "C3", "D4"):
        ct = CartanType.parse(name)
        for i in range(1, ct.rank + 1):
            assert supported(ct, i) is SupportStatus.PAIRING_PROVEN


def test_supported_g2():
    ct = CartanType.parse("G2")
    assert supported(ct, 1) is SupportStatus.G2_PROVEN
    assert supported(ct, 2) is SupportStatus.G2_PROVEN


def _orbit_max_pairing(cd, i):
    """max |<h_t, mu>| over the Weyl orbit of Lambda_i, walked until it reaches 3.

    The orbit holds the vertices of the weight polytope of V(Lambda_i), and
    W(-w0 Lambda_i) = -W Lambda_i, so this is also the max over the weights
    of V(-w0 Lambda_i).
    """
    start = fundamental_weight(cd.n, i)
    seen, frontier, top = {start}, [start], 1
    while frontier and top < 3:
        lam = frontier.pop()
        top = max(top, *(abs(c) for c in lam))
        for j in range(1, cd.n + 1):
            mu = reflect(cd, j, lam)
            if mu not in seen:
                seen.add(mu)
                frontier.append(mu)
    return top


TYPES_UP_TO_RANK_8 = [
    f"{family}{n}" for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 9)
] + ["E6", "E7", "E8", "F4", "G2"]


@pytest.mark.parametrize("name", TYPES_UP_TO_RANK_8)
def test_supported_matches_orbit_walk(name):
    cd = cartan_matrix(CartanType.parse(name))
    for i in range(1, cd.n + 1):
        top = _orbit_max_pairing(cd, i)
        if cd.ctype.family == "G":
            expected = SupportStatus.G2_PROVEN
        else:
            expected = SupportStatus.PAIRING_PROVEN if top <= 2 else SupportStatus.UNPROVEN
        assert supported(cd.ctype, i) is expected, i
        assert (i in minuscule_indices(cd)) == (top <= 1), i
    for i in (0, cd.n + 1):
        with pytest.raises(RootSystemError):
            supported(cd.ctype, i)


def test_error_hierarchy():
    assert issubclass(ClosedFormMismatch, GraphError)
    assert issubclass(BUpdateMismatch, GraphError)
    assert issubclass(VertexCapExceeded, GraphError)
    assert not issubclass(UnsupportedIndex, GraphError)


def test_b_from_d_fixtures(c3, c3_word, d4, d4_word, g2, g2_word_a):
    assert b_from_d(c3, c3_word, 2, unit(9, 1)) == (0, 0, 1, 1, 0, 1, 2, 1, 1)
    assert b_from_d(d4, d4_word, 2, unit(12, 1)) == fx.D4_INITIAL_B
    assert b_from_d(g2, g2_word_a, 1, unit(6, 1)) == (0, 0, 1, 3, 2, 3)
    for mono, b in fx.C3_VERTICES:
        assert b_from_d(c3, c3_word, 2, ev(9, mono)) == b


def test_initial_vertex(c3, c3_word, g2, g2_word_a):
    assert initial_vertex(c3, c3_word, 2) == (unit(9, 1), (0, 0, 1, 1, 0, 1, 2, 1, 1))
    assert initial_vertex(g2, g2_word_a, 1) == (unit(6, 1), (0, 0, 1, 3, 2, 3))


def test_closed_form_matches_reflections_on_every_rank_two_and_three_word():
    cases = 0
    for name in ("A3", "B3", "C3", "G2"):
        cd = cartan_matrix(CartanType.parse(name))
        for w in enumerate_w0_words(cd):
            for i in range(1, cd.n + 1):
                k = source_index(w, i)
                assert decograph._initial_b_closed_form(cd, w, i, k) == reflection_closed_form(cd, w, i, k), (
                    name, str(w), i,
                )
                cases += 1
    assert cases == 304


@pytest.mark.parametrize("name", ["B4", "C4", "D4", "F4", "E6", "E7", "E8"])
def test_closed_form_matches_reflections_on_seeded_words(name):
    cd = cartan_matrix(CartanType.parse(name))
    rng = random.Random(name)
    for _ in range(3):
        w = random_word(cd, rng)
        for i in range(1, cd.n + 1):
            k = source_index(w, i)
            assert decograph._initial_b_closed_form(cd, w, i, k) == reflection_closed_form(cd, w, i, k), (str(w), i)


def test_firing_labels(c3, c3_word):
    g = build_graph(c3, c3_word, 2)
    # d_3 = d_5 = 1 with the (0,0)...(-1,1) chain at 3, and d_7 = -1 < d_5
    assert firing_labels(g, ev(9, {3: 1, 5: 1, 7: -1})) == [3, 5]
    # the sink fires nothing
    assert firing_labels(g, ev(9, fx.C3_SINK)) == []
    assert {d: firing_labels(g, d) for d in g.vertices} == out_labels(g)


def test_c3_graph_exact(c3, c3_word):
    g = build_graph(c3, c3_word, 2)
    assert g.vertices == {ev(9, m): b for m, b in fx.C3_VERTICES}
    assert set(g.edges) == {(ev(9, s), j, ev(9, t)) for s, j, t in fx.C3_EDGES}
    assert g.source == unit(9, 1)
    assert g.sinks() == [ev(9, fx.C3_SINK)]
    assert g.status is SupportStatus.PAIRING_PROVEN
    assert not g.forced


def test_c3_singleton_graphs(c3, c3_word):
    for i, pos in [(1, 9), (3, 8)]:
        g = build_graph(c3, c3_word, i)
        assert list(g.vertices) == [unit(9, pos)]
        assert g.edges == []


def test_d4_graph_exact(d4, d4_word):
    g = build_graph(d4, d4_word, 2)
    num = {k: ev(12, m) for k, m in fx.D4_MONOMIALS.items()}
    assert set(g.vertices) == set(num.values())
    assert len(g.vertices) == 21 and len(g.edges) == 27
    assert set(g.edges) == {(num[s], j, num[t]) for s, j, t in fx.D4_EDGES}
    assert g.vertices[num[1]] == fx.D4_INITIAL_B
    # the lowest term is a sink but not the only one here: t_4*t_6/t_9 also fires nothing
    assert set(g.sinks()) == {num[8], ev(12, fx.D4_SINK)}


def test_d4_other_indices(d4, d4_word):
    g1 = build_graph(d4, d4_word, 1)
    assert set(g1.vertices) == {unit(12, 8), ev(12, {9: 1, 10: -1})}
    assert g1.edges == [(unit(12, 8), 8, ev(12, {9: 1, 10: -1}))]
    assert list(build_graph(d4, d4_word, 3).vertices) == [unit(12, 11)]
    assert list(build_graph(d4, d4_word, 4).vertices) == [unit(12, 12)]


def test_g2_graph_word_a(g2, g2_word_a):
    g = build_graph(g2, g2_word_a, 1)
    assert g.vertices == {ev(6, m): b for m, b in fx.G2A_VERTICES}
    pairs = {(s, t) for s, _, t in g.edges}
    assert pairs == {(ev(6, s), ev(6, t)) for s, t in fx.G2A_EDGE_PAIRS}
    assert g.sinks() == [ev(6, {5: 1, 6: -3})]
    assert list(build_graph(g2, g2_word_a, 2).vertices) == [unit(6, 6)]


def test_g2_graph_word_b(g2, g2_word_b):
    g = build_graph(g2, g2_word_b, 2)
    assert g.edges == [(ev(6, s), j, ev(6, t)) for s, j, t in fx.G2B_CHAIN]
    assert len(g.vertices) == 6
    assert list(build_graph(g2, g2_word_b, 1).vertices) == [unit(6, 6)]


def test_unsupported_requires_force():
    f4 = cartan_matrix(CartanType.parse("F4"))
    w = next(enumerate_w0_words(f4, limit=1))
    with pytest.raises(UnsupportedIndex):
        build_graph(f4, w, 2)
    g = build_graph(f4, w, 2, force=True)
    assert g.forced and g.status is SupportStatus.UNPROVEN
    assert verify_graph(g)["status"] == "pass"
    # a supported index of the same type builds without force
    gs = build_graph(f4, w, 1)
    assert not gs.forced and gs.status is SupportStatus.PAIRING_PROVEN


# no theorem covers these (type, i): verify_graph's recomputation is the
# evidence that the forced build is right
FORCED_UNPROVEN = [
    ("F4", False, 2), ("F4", False, 3), ("F4", True, 2), ("F4", True, 3),
    ("E6", False, 3), ("E6", True, 3),
    ("E7", False, 3), ("E7", False, 4), ("E7", False, 5),
]


@pytest.mark.parametrize(
    "name, seeded, i",
    FORCED_UNPROVEN,
    ids=[f"{n}-{'seeded' if s else 'lex-first'}-i{i}" for n, s, i in FORCED_UNPROVEN],
)
def test_verify_graph_passes_on_forced_unproven(name, seeded, i):
    cd = cartan_matrix(CartanType.parse(name))
    w = validate_word(cd, fx.EXCEPTIONAL_WORDS[name]) if seeded else next(enumerate_w0_words(cd, limit=1))
    g = build_graph(cd, w, i, force=True)
    assert g.status is SupportStatus.UNPROVEN
    report = verify_graph(g)
    assert report["status"] == "pass", [c for c in report["checks"] if c["status"] == "fail"]


def test_word_of_another_cartan_matrix_is_rejected(b3, c3):
    # one word, valid for both B3 and C3, validated for C3
    w = validate_word(c3, fx.C3_WORD)
    assert len(build_graph(c3, w, 2).vertices) == 12
    with pytest.raises(WordError, match="validated for C3, not B3"):
        build_graph(b3, w, 2)
    assert len(build_graph(b3, validate_word(b3, fx.C3_WORD), 2).vertices) == 19


def test_minuscule_rule_matches_generic(c3, b3):
    for cd, w, i in [(c3, validate_word(c3, fx.C3_WORD_ALT), 1), (b3, next(enumerate_w0_words(b3, limit=1)), 3)]:
        for d, fired in out_labels(build_graph(cd, w, i)).items():
            assert firing_labels_minuscule(w, d) == fired, d


def test_edges_hold_the_stored_vertex_keys(c3, c3_word):
    e6 = cartan_matrix(CartanType.parse("E6"))
    g = build_graph(c3, c3_word, 2)
    # more edges than a tree on the vertices: some edges end at a merge
    assert (len(g.vertices), len(g.edges)) == (12, 14)
    for g in (g, build_graph(e6, next(enumerate_w0_words(e6, limit=1)), 3, force=True)):
        keys = {id(d) for d in g.vertices}
        assert all(id(src) in keys and id(dst) in keys for src, _, dst in g.edges)


def graph_cases():
    c3 = cartan_matrix(CartanType.parse("C3"))
    g2 = cartan_matrix(CartanType.parse("G2"))
    e6 = cartan_matrix(CartanType.parse("E6"))
    cases = [(c3, validate_word(c3, fx.C3_WORD), i) for i in (1, 2, 3)]
    cases += [(g2, validate_word(g2, letters), i) for letters in (fx.G2_WORD_A, fx.G2_WORD_B) for i in (1, 2)]
    cases.append((e6, next(enumerate_w0_words(e6, limit=1)), 3))
    seeded = validate_word(e6, fx.EXCEPTIONAL_WORDS["E6"])
    cases += [(e6, seeded, i) for i in range(1, 7)]
    # seeded words of the classical types, and forced F4 and E7, each at every i;
    # every graph of the first E7 word of its seed stays under the default cap
    for name, count in (("B4", 2), ("C4", 2), ("D5", 2), ("F4", 1), ("E7", 1)):
        cd = cartan_matrix(CartanType.parse(name))
        rng = random.Random(name)
        for _ in range(count):
            w = random_word(cd, rng)
            cases += [(cd, w, i) for i in range(1, cd.n + 1)]
    return cases


def test_build_matches_a_tuple_keyed_bfs():
    for cd, w, i in graph_cases():
        g = build_graph(cd, w, i, force=True)
        vertices, edges = tuple_keyed_graph(cd, w, i)
        assert list(g.vertices.items()) == vertices, (str(cd.ctype), str(w), i)
        assert g.edges == edges, (str(cd.ctype), str(w), i)


def test_firing_records_keep_the_nonzero_entries_of_a():
    width = decograph._key_width(100000)
    seen = set()
    exponents = set()
    for cd, w, _ in graph_cases():
        if id(w) in seen:
            continue
        seen.add(id(w))
        records = decograph._firing_table(cd, w, width)
        assert len(records) == w.N
        for j, (rec, jp) in enumerate(zip(records, w.jplus), start=1):
            if jp > w.N:
                assert rec is None
                continue
            a = a_monomial(cd, w, j)
            assert (rec.j, rec.jp) == (j, jp)
            assert rec.entries == tuple((p, e) for p, e in enumerate(a) if e), (str(cd.ctype), str(w), j)
            assert rec.key == decograph._pack(a, width), (str(cd.ctype), str(w), j)
            exponents.update(e for _, e in rec.entries)
    # G2's -3 and the -2 of B and C are among them
    assert {-3, -2, -1, 1} <= exponents


@pytest.mark.parametrize("how", ["drop", "bump"])
@pytest.mark.parametrize("name, letters, i", [("C3", fx.C3_WORD, 2), ("G2", fx.G2_WORD_A, 1)])
def test_a_tampered_firing_record_is_caught(name, letters, i, how):
    cd = cartan_matrix(CartanType.parse(name))
    # a fresh word: the firing table is kept on the word instance
    w = validate_word(cd, letters)
    g = build_graph(cd, w, i)
    width = decograph._key_width(100000)
    records = w.cache[("firing", width)]
    # the first edge into a vertex is the one that created it; take one whose
    # record has an entry strictly inside its window, adjacent to i_j
    created, target = set(), None
    for _, j, dst in g.edges:
        if dst not in created:
            created.add(dst)
            if target is None and len(records[j - 1].entries) > 2:
                target = j
    assert target is not None
    rec = records[target - 1]
    if how == "drop":
        entries = rec.entries[:1] + rec.entries[2:]
    else:
        entries = rec.entries[:-1] + ((rec.jp - 1, 2),)
    tampered = list(records)
    tampered[target - 1] = rec._replace(entries=entries)
    w.cache[("firing", width)] = tuple(tampered)

    g = build_graph(cd, w, i)
    failed = {c["name"] for c in verify_graph(g)["checks"] if c["status"] == "fail"}
    assert "edges_divide_by_a" in failed
    vertices, edges = tuple_keyed_graph(cd, w, i)
    assert (list(g.vertices.items()), g.edges) != (vertices, edges)


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_key_width_holds_every_entry_a_build_can_reach(cap):
    width = decograph._key_width(cap)
    bound = 3 * cap + 1
    assert 2 ** (width - 1) > bound
    values = range(-bound, bound + 1)
    keys = {decograph._pack(v, width) for v in product(values, repeat=3)}
    assert len(keys) == len(values) ** 3


def test_a_cap_that_just_fits_gives_the_same_graph(c3, c3_word):
    # a small cap means narrow key fields: the build must not merge distinct vertices
    g = build_graph(c3, c3_word, 2)
    tight = build_graph(c3, c3_word, 2, max_vertices=len(g.vertices))
    assert list(tight.vertices.items()) == list(g.vertices.items()) and tight.edges == g.edges
    with pytest.raises(VertexCapExceeded):
        build_graph(c3, c3_word, 2, max_vertices=len(g.vertices) - 1)


def test_vertex_cap(c3, c3_word):
    with pytest.raises(GraphError, match="cap"):
        build_graph(c3, c3_word, 2, max_vertices=5)


def test_verify_graph_passes(c3, c3_word, d4, d4_word, g2, g2_word_a):
    for cd, w, i in [(c3, c3_word, 2), (d4, d4_word, 2), (g2, g2_word_a, 1)]:
        report = verify_graph(build_graph(cd, w, i))
        assert report["status"] == "pass"
        assert all(c["status"] == "pass" for c in report["checks"])
    names = {c["name"] for c in verify_graph(build_graph(c3, c3_word, 2))["checks"]}
    assert {
        "unique_nonnegative_source",
        "lowest_term_is_sink",
        "edges_divide_by_a",
        "b_update_on_edges",
        "edge_gate_b_positive",
        "l_drops_on_edges",
        "b_entries_nonnegative",
        "b_matches_recursion",
    } <= names


def test_verify_graph_includes_rule_check_when_minuscule(d4, d4_word):
    report = verify_graph(build_graph(d4, d4_word, 1))
    assert "minuscule_rule_equivalent" in {c["name"] for c in report["checks"]}
    assert report["status"] == "pass"


def test_corrupted_a_monomial_is_caught(c3, monkeypatch):
    # a fresh word: the firing table is kept on the word instance
    w = validate_word(c3, fx.C3_WORD)
    real = decograph.a_monomial

    def corrupted(cd, word, j):
        a = real(cd, word, j)
        if j != 5:
            return a
        return a[:5] + (a[5] - 1,) + a[6:]

    monkeypatch.setattr(decograph, "a_monomial", corrupted)
    with pytest.raises(BUpdateMismatch, match="j=5"):
        build_graph(c3, w, 2)
    with pytest.raises(BUpdateMismatch):
        build_graph(c3, w, 2, force=True)


@pytest.mark.parametrize("stray", [2, 9], ids=["before", "after"])
def test_a_monomial_with_a_stray_entry_outside_its_window_is_caught(c3, monkeypatch, stray):
    # the proof reads A_j on its window j..j+ and must still see an entry outside it;
    # in 2,3,2,1,2,3,2,3,1 the window of A_5 is 5..7
    w = validate_word(c3, fx.C3_WORD)
    real = decograph.a_monomial

    def strayed(cd, word, j):
        a = list(real(cd, word, j))
        if j == 5:
            a[stray - 1] = 1
        return tuple(a)

    monkeypatch.setattr(decograph, "a_monomial", strayed)
    with pytest.raises(BUpdateMismatch, match="j=5"):
        build_graph(c3, w, 2)


@pytest.mark.parametrize("name", ["c3", "b3"])
def test_transposed_a_monomial_is_caught(name, request, monkeypatch):
    # A_j with a_{i_j, i_l} in place of a_{i_l, i_j}: the same on a symmetric
    # Cartan matrix, wrong on B3 and C3, where the word's window 2, 3, 2 tells them apart
    cd = request.getfixturevalue(name)
    w = validate_word(cd, fx.C3_WORD)
    real = decograph.a_monomial

    def transposed(cd, word, j):
        a = list(real(cd, word, j))
        for l in range(j + 1, word.jplus[j - 1]):
            a[l - 1] = cd.a(word.letter(j), word.letter(l))
        return tuple(a)

    monkeypatch.setattr(decograph, "a_monomial", transposed)
    with pytest.raises(BUpdateMismatch, match="j=1"):
        build_graph(cd, w, 2)


def test_verify_graph_catches_altered_b(c3, c3_word):
    g = build_graph(c3, c3_word, 2)
    d = ev(9, fx.C3_SINK)
    g.vertices[d] = (1, 1, 1, 2, 1, 1, 0, 1, 0)
    failed = {c["name"] for c in verify_graph(g)["checks"] if c["status"] == "fail"}
    assert "b_matches_recursion" in failed


def test_verify_graph_flags_closed_gate(c3, c3_word):
    # firing 3 at the source has b_5 = 0: not an edge of the graph
    g = build_graph(c3, c3_word, 2)
    d0, b0 = g.source, g.vertices[g.source]
    assert b0[4] == 0
    d2 = tuple(map(sub, d0, a_monomial(c3, c3_word, 3)))
    shifted = list(b0)
    shifted[2] += 1
    shifted[4] -= 1
    g.vertices[d2] = tuple(shifted)
    g.edges.append((d0, 3, d2))
    failed = {c["name"] for c in verify_graph(g)["checks"] if c["status"] == "fail"}
    assert "edge_gate_b_positive" in failed
    assert "b_update_on_edges" not in failed and "b_matches_recursion" not in failed


@pytest.mark.parametrize("label", [9, 0, 10, -1], ids=["N", "zero", "N+1", "negative"])
def test_verify_graph_fails_an_edge_label_that_names_no_a(c3, c3_word, label):
    # position 9 is the last 1 of the word, so A_9 does not exist either
    g = build_graph(c3, c3_word, 2)
    g.edges.append((g.source, label, g.sinks()[0]))
    report = verify_graph(g)
    assert report["status"] == "fail"
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == {"edges_divide_by_a"}


@pytest.mark.parametrize("end", [0, 2], ids=["source", "target"])
def test_verify_graph_reports_an_edge_end_that_is_not_a_vertex(c3, c3_word, end):
    g = build_graph(c3, c3_word, 2)
    del g.vertices[g.edges[0][end]]
    report = verify_graph(g)
    assert report["status"] == "fail"
    (check,) = [c for c in report["checks"] if c["name"] == "b_update_on_edges"]
    assert check["status"] == "fail"


def _tamper(g, how):
    """One change to an honest graph that the minuscule closure rejects."""
    w = g.word
    d0 = g.source
    firing = out_labels(g)[d0]
    j = next(j for j in range(1, w.N + 1) if w.jplus[j - 1] <= w.N and j not in firing)
    extra = tuple(map(sub, d0, a_monomial(g.cd, w, j)))
    assert extra not in g.vertices
    if how == "drop_edge":
        g.edges.pop()
    if how in ("unreachable_vertex", "non_firing_edge"):
        g.vertices[extra] = b_from_d(g.cd, w, g.i, extra)
    if how == "non_firing_edge":
        g.edges.append((d0, j, extra))


@pytest.mark.parametrize("how", ["honest", "drop_edge", "unreachable_vertex", "non_firing_edge"])
@pytest.mark.parametrize("name, letters", [("D4", fx.D4_WORD), ("C3", fx.C3_WORD_ALT)])
def test_minuscule_rule_equivalent_verdicts(name, letters, how):
    cd = cartan_matrix(CartanType.parse(name))
    g = build_graph(cd, validate_word(cd, letters), 1)
    assert g.edges
    if how != "honest":
        _tamper(g, how)
    (check,) = [c for c in verify_graph(g)["checks"] if c["name"] == "minuscule_rule_equivalent"]
    assert check == {
        "name": "minuscule_rule_equivalent",
        "status": "pass" if how == "honest" else "fail",
        "details": "",
    }


def test_to_dot(c3, c3_word):
    dot = to_dot(build_graph(c3, c3_word, 2))
    assert dot.startswith('digraph "C3_i2"')
    assert dot.count("label=") == 12 + 14
    assert 'v0 [label="t_1"];' in dot


def test_to_json(c3, c3_word):
    g = build_graph(c3, c3_word, 2)
    doc = to_json_dict(g)
    assert doc["meta"]["vertex_count"] == 12
    assert doc["meta"]["edge_count"] == 14
    assert doc["meta"]["type"] == "C3" and doc["meta"]["i"] == 2
    assert len(doc["vertices"]) == 12 and len(doc["edges"]) == 14
    assert doc["source"] == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert json.loads(emit(to_json_dict(g))) == doc
