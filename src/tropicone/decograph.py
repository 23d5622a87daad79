"""The monomial graph of one half-potential summand.

Vertices are Laurent monomials in t_1..t_N, exponent tuples d, each mapped
to its b integer tuple; edges divide by an A_j monomial, that is subtract its
exponents. Construction starts from the single all-nonnegative monomial t_k
and repeatedly fires the paper's one arrow rule:

  a position j fires when j+ <= N, d_j > 0, b_{j+} > 0 and either
    (a) d_{j+} < d_j, or
    (b) d_{j+} = d_j and the chain j^{2+}, j^{3+}, ... shows the pattern
        (d, b) = (0, 0) until it terminates in (d, b) = (-1, 1).

It is proven for every i whose weights of V(-w0 Lambda_i) pair with every h_t
inside {-2, ..., 2}. On minuscule i it reduces to d_j = 1, d_{j+} != 1, a
predicate that verify_graph checks finished graphs against.

Each fire produces d' = d / A_j and b' = b with +1 at j and -1 at j+. The b
recursion is affine in d with a linear part T that depends on the word
alone, so b(d / A_j) - b(d) = e_j - e_{j+} is a fact about (word, j): it
holds when A_j = T e_{j+} - T e_j, which is zero outside the window j..j+
because i_{j+} = i_j. It is proven once per word, on each window, and a
failure, a convention bug, always raises, forced build or not. The same pass
keeps one Firing record per position: j+, the nonzero entries of A_j (at j,
at j+ and at the positions between whose letter is adjacent to i_j), the
chain j^{2+}, j^{3+}, ... that rule (b) walks, and the packed key of A_j;
build_graph applies the rule inline on these records, the one place it lives.
From then on b is a function of d, so a vertex keeps the b it was first
reached with. The source b is checked against a closed form read off the
coroot sequence beta_t^vee = s_{i_N} ... s_{i_{t+1}}(h_{i_t}), looked up in
the root table through the word's beta indices, and verify_graph recomputes
b from the recursion at every vertex of a finished graph, independently of
the build.

A build keeps one store, its vertices in creation order, which is also the
FIFO order, and looks them up by one integer key per d, the entries of d
packed into signed bit fields. The key is linear in d, so an edge computes
key(d / A_j) = key(d) - key(A_j), and only a new vertex builds its d tuple: a
copy of its parent's with A_j's nonzero entries subtracted, so a fire touches
nothing else. The keys stay inside the build: DecoGraph maps d tuples to b
tuples.

The quantity L = sum_t t * b_t drops by exactly j+ - j along every edge,
which is what makes the worklist terminate and the graph acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress
from operator import lshift, sub
from typing import NamedTuple

from .monomial import a_monomial, lowest_term, render, unit
from .rootsystem import (
    CartanData,
    CartanType,
    RootSystemError,
    cartan_matrix,
    fundamental_weight,
    max_coroot_coefficients,
    minuscule_indices,
    reflect,
    root_table,
)
from .wordtools import ReducedWord, check_validated_for, source_index


class GraphError(RuntimeError):
    """Base for internal assertion failures during graph construction."""


class ClosedFormMismatch(GraphError):
    """The b recursion and its closed form disagree on the initial vertex."""


class BUpdateMismatch(GraphError):
    """The per-word proof of the b shift of a firing failed against the b recursion."""


class VertexCapExceeded(GraphError):
    """The build reached its vertex cap: a resource limit, not a failed invariant."""


class UnsupportedIndex(RuntimeError):
    """No correctness result covers this (type, i); pass force to build anyway."""


class SupportStatus(Enum):
    # proven by the pairing condition; the JSON value keeps its historical name
    PAIRING_PROVEN = "minuscule_like"
    G2_PROVEN = "g2_proven"
    UNPROVEN = "unproven"


def supported(ctype: CartanType, i: int) -> SupportStatus:
    """Whether the paper proves the monomial description for (ctype, i).

    G2 is proven on its own; otherwise the proof needs every weight of
    V(-w0 Lambda_i) to pair with every h_t inside {-2, ..., 2}, which
    PAIRING_PROVEN marks, minuscule or not.
    """
    if not 1 <= i <= ctype.rank:
        raise RootSystemError(f"index {i} out of [1, {ctype.rank}]")
    if ctype.family == "G":
        return SupportStatus.G2_PROVEN
    if max_coroot_coefficients(cartan_matrix(ctype))[i - 1] <= 2:
        return SupportStatus.PAIRING_PROVEN
    return SupportStatus.UNPROVEN


@dataclass
class DecoGraph:
    cd: CartanData
    word: ReducedWord
    i: int
    # exponent tuple d -> its b tuple, in creation order
    vertices: dict[tuple[int, ...], tuple[int, ...]]
    edges: list[tuple[tuple[int, ...], int, tuple[int, ...]]]
    source: tuple[int, ...]
    status: SupportStatus
    forced: bool = False

    def sinks(self) -> list[tuple[int, ...]]:
        has_out = {src for src, _, _ in self.edges}
        return [d for d in self.vertices if d not in has_out]


@lru_cache(maxsize=None)
def _recursion_terms(cd: CartanData, i: int) -> tuple:
    """(s_i Lambda_i, per letter c the nonzero (c', a_{c,c'}) of Cartan row c), 0-based, per root system and index."""
    silam = reflect(cd, i, fundamental_weight(cd.n, i))
    return silam, tuple(tuple((c2, a) for c2, a in enumerate(row) if a) for row in cd.rows)


def b_from_d(cd: CartanData, w: ReducedWord, i: int, d: tuple[int, ...]) -> tuple[int, ...]:
    """The b integers of a monomial, from the downward recursion.

    b_N = d_N + <h_{i_N}, s_i Lambda_i> and, going down,
    b_t = d_t + <h_{i_t}, s_i Lambda_i> - sum_{l=t}^{N-1} b_{l+1} a_{i_t, i_{l+1}}.
    The sum is grouped by letter: later[c] holds the sum of b_l over l > t
    with i_l = c+1, so b_t = d_t + <h_{i_t}, s_i Lambda_i> - sum_c a_{i_t, c+1} later[c],
    summed over the nonzero entries of the Cartan row only.
    """
    silam, terms = _recursion_terms(cd, i)
    later = [0] * cd.n
    b = [0] * w.N
    for t0 in range(w.N - 1, -1, -1):
        c0 = w.letters[t0] - 1
        bt = d[t0] + silam[c0]
        for c, a in terms[c0]:
            bt -= a * later[c]
        b[t0] = bt
        later[c0] += bt
    return tuple(b)


def _initial_b_closed_form(cd: CartanData, w: ReducedWord, i: int, k: int) -> tuple[int, ...]:
    """b at the source, read off the coroot sequence instead of the recursion.

    b_t = <beta_t^vee, Lambda_i> below k, b_k = 0, and above k
    b_t = <beta_t^vee, s_i Lambda_i> = <s_i beta_t^vee, Lambda_i>, since
    <h_{i_t}, s_{i_{t+1}} ... s_{i_N} mu> = <beta_t^vee, mu>. Both pairings are
    coroot coefficients of alpha_i^vee, looked up in the root table: beta_t^vee
    is the coroot of the word's root beta_t, and s_i beta_t^vee that of s_i beta_t.
    """
    table = root_table(cd)
    coroots, s_i = table.coroots, table.reflections[i - 1]
    ids = w.beta_ids
    below = tuple(coroots[r][i - 1] for r in ids[: k - 1])
    above = tuple(coroots[s_i[r]][i - 1] for r in ids[k:])
    return below + (0,) + above


def initial_vertex(cd: CartanData, w: ReducedWord, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The source (d, b) of t_k, with its b vector checked two independent ways."""
    k = source_index(w, i)
    d = unit(w.N, k)
    b = b_from_d(cd, w, i, d)
    closed = _initial_b_closed_form(cd, w, i, k)
    if b != closed:
        raise ClosedFormMismatch(
            f"initial b mismatch for {cd.ctype} i={i} word {w}: recursion {b}, closed form {closed}"
        )
    return d, b


def firing_labels_minuscule(w: ReducedWord, d: tuple[int, ...]) -> list[int]:
    """The minuscule rule d_j = 1, d_{j+} != 1; equals a build's out-labels on minuscule (type, i)."""
    N = w.N
    return [j for j, jp in enumerate(w.jplus, start=1) if jp <= N and d[j - 1] == 1 and d[jp - 1] != 1]


def _key_width(max_vertices: int) -> int:
    """Bits per field of a vertex key: a signed field that holds +-(3 * max_vertices + 1).

    An edge changes an entry by at most 3: the entries of A_j are 1 and the
    a_{c,i_j} of a finite Cartan matrix, never below -3. A build stores
    V <= max(max_vertices, 1) vertices, and each is reached from the source,
    whose entries are 0 and 1, along a BFS-tree path of at most V - 1 edges.
    So an entry of a vertex, or of a candidate one edge further, has size at
    most 3 * V + 1. Fields of size below 2^(width - 1) make _pack injective:
    where two packed vectors first differ, the difference of the fields is
    below 2^width in size and would have to be a nonzero multiple of it.
    """
    return (3 * max(max_vertices, 1) + 1).bit_length() + 1


def _pack(values: tuple[int, ...], width: int, start: int = 0) -> int:
    """sum_t values[t] * 2^(width * (start + t)): one integer per exponent vector."""
    return sum(map(lshift, values, range(width * start, width * (start + len(values)), width)))


class Firing(NamedTuple):
    """The facts about a position j that a build reads to fire it, proven once per word."""

    j: int
    # j+, the next position with letter i_j
    jp: int
    # (0-based position, exponent) for each nonzero entry of A_j, ascending:
    # j, j+ and the positions between whose letter is adjacent to i_j
    entries: tuple[tuple[int, int], ...]
    # j^{2+}, j^{3+}, ... up to N: the positions rule (b) walks
    chain: tuple[int, ...]
    # _pack(A_j, width), packed from the same proven window as entries
    key: int


def _firing_table(cd: CartanData, w: ReducedWord, width: int) -> tuple:
    """Per position j, its Firing record, or None when j+ > N; kept on the word per key width.

    Proves the shift identity once per word, for every i: b(d / A_j) - b(d)
    = -T^{-1} A_j, which is e_j - e_{j+} exactly when A_j = T e_{j+} - T e_j,
    for T the linear part of the forward map d = T b - s. Solving the b
    recursion for d gives d_t = b_t + sum_{l>t} a_{i_t, i_l} b_l - s_t, so T
    is unit upper triangular with T[t][l] = a_{i_t, i_l} above the diagonal.
    Columns j and j+ of T agree above j, because i_{j+} = i_j, and both are
    zero below j+, so T e_{j+} - T e_j is zero outside the window j..j+ and
    reads a_{i_j, i_j} - 1, a_{i_l, i_j} for j < l < j+, and 1 on it. The
    proof compares a_monomial with those entries, read from cd.rows as
    b_from_d reads them, and requires it to be zero outside the window. The
    record's nonzero entries and its key are both read off that proven
    window, so they cannot disagree.
    """
    name = ("firing", width)
    table = w.cache.get(name)
    if table is not None:
        return table
    letters, jplus, N = w.letters, w.jplus, w.N
    # columns[c][t-1] = a_{i_t, c+1}, T's entry at row t in a column of letter c+1
    columns = [tuple(row[c] for row in (cd.rows[x - 1] for x in letters)) for c in range(cd.n)]
    table = []
    for j, jp in enumerate(jplus, start=1):
        if jp > N:
            table.append(None)
            continue
        a = a_monomial(cd, w, j)
        c = letters[j - 1] - 1
        expected = (cd.rows[c][c] - 1, *columns[c][j : jp - 1], 1)
        window = a[j - 1 : jp]
        if window != expected or any(a[: j - 1]) or any(a[jp:]):
            needed = (0,) * (j - 1) + expected + (0,) * (N - jp)
            raise BUpdateMismatch(
                f"b update for {cd.ctype} word {w} at j={j}: A_j is {render(a)}, "
                f"the forward map of the b recursion needs {render(needed)}"
            )
        chain = []
        pos = jplus[jp - 1]
        while pos <= N:
            chain.append(pos)
            pos = jplus[pos - 1]
        entries = tuple((p, e) for p, e in enumerate(window, start=j - 1) if e)
        table.append(Firing(j, jp, entries, tuple(chain), _pack(window, width, j - 1)))
    table = w.cache[name] = tuple(table)
    return table


def build_graph(
    cd: CartanData,
    w: ReducedWord,
    i: int,
    force: bool = False,
    max_vertices: int = 100000,
) -> DecoGraph:
    """Worklist construction of the whole monomial graph for one index i.

    FIFO over vertices, each expanded exactly once, labels ascending. The
    firing rule runs inline on the word's Firing records (_firing_table),
    the one place it lives; the same records prove the b update once per
    word, so a new vertex stores its parent's b shifted at j and j+, and
    verify_graph still recomputes b from the recursion at every vertex.
    force only lifts UnsupportedIndex for a (type, i) without a proven
    description. A word validated for another Cartan matrix raises
    WordError; reaching max_vertices raises VertexCapExceeded.

    The build keeps one store, a list of (d, b, key) in creation order that
    the loop walks while it grows, so it is also the FIFO queue; vertices
    gets each new vertex as it is created. A vertex is found by its key
    _pack(d, width), with width from _key_width; an edge subtracts the key of
    A_j from its record, and only a new vertex builds its d tuple, a copy of
    its parent's with the record's nonzero entries of A_j subtracted.
    """
    check_validated_for(cd, w)
    status = supported(cd.ctype, i)
    if status is SupportStatus.UNPROVEN and not force:
        raise UnsupportedIndex(
            f"no proven monomial description for ({cd.ctype}, i={i}); use force to build anyway"
        )

    d0, b0 = initial_vertex(cd, w, i)
    width = _key_width(max_vertices)
    records = _firing_table(cd, w, width)
    key0 = _pack(d0, width)
    # a list iterator also yields what is appended while it runs: FIFO
    store = [(d0, b0, key0)]
    vertices = {d0: b0}
    found = {key0: d0}
    edges = []

    for d, b, key in store:
        # only a position with d_j != 0 can fire, and the records ascend in j
        for rec in compress(records, d):
            if rec is None:
                continue
            j, jp, entries, chain, a_key = rec
            dj = d[j - 1]
            if dj <= 0 or b[jp - 1] <= 0:
                continue
            djp = d[jp - 1]
            if djp > dj:
                continue
            if djp == dj:
                # (b): (d, b) = (0, 0) along the chain until it ends in (-1, 1)
                for pos in chain:
                    if d[pos - 1] or b[pos - 1]:
                        break
                else:
                    continue
                if d[pos - 1] != -1 or b[pos - 1] != 1:
                    continue
            key2 = key - a_key
            d2 = found.get(key2)
            if d2 is None:
                if len(store) >= max_vertices:
                    raise VertexCapExceeded(f"vertex cap {max_vertices} hit building ({cd.ctype}, i={i}, word {w})")
                d2 = list(d)
                for p, e in entries:
                    d2[p] -= e
                d2 = found[key2] = tuple(d2)
                b2 = list(b)
                b2[j - 1] += 1
                b2[jp - 1] -= 1
                b2 = vertices[d2] = tuple(b2)
                store.append((d2, b2, key2))
            # an edge holds the stored d tuple, not an equal copy
            edges.append((d, j, d2))

    return DecoGraph(
        cd=cd,
        word=w,
        i=i,
        vertices=vertices,
        edges=edges,
        source=d0,
        status=status,
        forced=force,
    )


def firing_labels(g: DecoGraph, d: tuple[int, ...]) -> list[int]:
    """The positions that fire at the vertex d of g, ascending: the labels of its out-edges.

    Read off the finished graph, so the rule itself runs only in build_graph.
    """
    return [j for src, j, _ in g.edges if src == d]


def _weight_L(b: tuple[int, ...]) -> int:
    return sum(t * bt for t, bt in enumerate(b, start=1))


def verify_graph(g: DecoGraph) -> dict:
    """Recheck the structural invariants of a finished graph, from scratch.

    Returns {"checks": [{"name", "status", "details"}...], "status": "pass"|"fail"}.
    """
    cd, w, i = g.cd, g.word, g.i
    checks = []

    def add(name: str, ok: bool, details: str = "") -> None:
        checks.append({"name": name, "status": "pass" if ok else "fail", "details": details})

    source = unit(w.N, source_index(w, i))
    nonneg = [d for d in g.vertices if all(e >= 0 for e in d)]
    ok = nonneg == [g.source] and g.source == source
    add("unique_nonnegative_source", ok, f"nonnegative vertices: {[render(d) for d in nonneg]}")

    lt = lowest_term(cd, w, i)
    sinks = g.sinks()
    add(
        "lowest_term_is_sink",
        lt in g.vertices and lt in sinks,
        f"lowest term {render(lt)}, sinks {[render(d) for d in sinks]}",
    )

    # a label names an A_j only when 1 <= j and j+ <= N; the other edges
    # fail here and carry nothing for the checks below
    named = [e for e in g.edges if 0 < e[1] <= w.N and w.jplus[e[1] - 1] <= w.N]
    bad_div = len(g.edges) - len(named)
    # each A_j once per call, from a_monomial rather than the build's cached table
    a = {j: a_monomial(cd, w, j) for j in {e[1] for e in named}}
    bad_div += sum(dst != tuple(map(sub, src, a[j])) for src, j, dst in named)
    add("edges_divide_by_a", not bad_div, f"{bad_div} bad edges")

    bad_b = []
    bad_gate = []
    bad_l = []
    for src, j, dst in named:
        jp = w.jplus[j - 1]
        bs, bd = g.vertices.get(src), g.vertices.get(dst)
        if bs is None or bd is None:
            # an endpoint that is not a vertex carries no b to check
            bad_b.append((render(src), j))
            continue
        shifted = list(bs)
        shifted[j - 1] += 1
        shifted[jp - 1] -= 1
        if tuple(shifted) != bd:
            bad_b.append((render(src), j))
        if bs[jp - 1] <= 0:
            bad_gate.append((render(src), j))
        if _weight_L(bd) != _weight_L(bs) + j - jp or jp <= j:
            bad_l.append((render(src), j))
    add("b_update_on_edges", not bad_b, f"{len(bad_b)} bad edges")
    add("edge_gate_b_positive", not bad_gate, f"{len(bad_gate)} bad edges")
    add("l_drops_on_edges", not bad_l, f"{len(bad_l)} bad edges")

    bad_bneg = [render(d) for d, b in g.vertices.items() if any(x < 0 for x in b)]
    add("b_entries_nonnegative", not bad_bneg, f"{len(bad_bneg)} vertices")

    bad_rec = [render(d) for d, b in g.vertices.items() if b != b_from_d(cd, w, i, d)]
    add("b_matches_recursion", not bad_rec, f"{len(bad_rec)} vertices")

    if i in minuscule_indices(cd):
        # Every division by A_j lowers L by j+ - j, so these edges and vertices
        # form exactly the closure of the source under the minuscule rule.
        fired = {(d, j) for d in g.vertices for j in firing_labels_minuscule(w, d)}
        reached = {source} | {dst for _, _, dst in g.edges}
        same = {(src, j) for src, j, _ in g.edges} == fired and set(g.vertices) == reached
        add("minuscule_rule_equivalent", same and not bad_div, "")

    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return {"checks": checks, "status": status}


def to_dot(g: DecoGraph) -> str:
    """DOT text; vertex labels are the rendered monomials, edge labels the positions."""
    names = {d: f"v{idx}" for idx, d in enumerate(g.vertices)}
    lines = [f'digraph "{g.cd.ctype}_i{g.i}" {{', "  rankdir=TB;"]
    for d, name in names.items():
        lines.append(f'  {name} [label="{render(d)}"];')
    for src, j, dst in g.edges:
        lines.append(f'  {names[src]} -> {names[dst]} [label="{j}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(g: DecoGraph) -> dict:
    return {
        "meta": {
            "type": str(g.cd.ctype),
            "rank": g.cd.n,
            "word": list(g.word.letters),
            "i": g.i,
            "support": g.status.value,
            "rule": "generic",
            "forced": g.forced,
            "vertex_count": len(g.vertices),
            "edge_count": len(g.edges),
        },
        "vertices": [
            {"d": list(d), "b": list(b), "monomial": render(d)} for d, b in g.vertices.items()
        ],
        "edges": [{"src": list(s), "j": j, "dst": list(t)} for s, j, t in g.edges],
        "source": list(g.source),
        "sinks": [list(d) for d in g.sinks()],
        "violations": [],
    }
