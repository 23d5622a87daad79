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
recursion is affine in d with a linear part that depends on the word alone,
so b(d / A_j) - b(d) = e_j - e_{j+} is a fact about (word, j): it is proven
once per word, and a failure, a convention bug, always raises, forced build
or not. From then on b is a function of d, so a vertex keeps the b it was
first reached with. The source b is checked against a closed form, and
verify_graph recomputes b from the recursion at every vertex of a finished
graph, independently of the build.

The quantity L = sum_t t * b_t drops by exactly j+ - j along every edge,
which is what makes the worklist terminate and the graph acyclic.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import mul, sub

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
)
from .wordtools import ReducedWord, WordError, source_index


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


def b_from_d(cd: CartanData, w: ReducedWord, i: int, d: tuple[int, ...]) -> tuple[int, ...]:
    """The b integers of a monomial, from the downward recursion.

    b_N = d_N + <h_{i_N}, s_i Lambda_i> and, going down,
    b_t = d_t + <h_{i_t}, s_i Lambda_i> - sum_{l=t}^{N-1} b_{l+1} a_{i_t, i_{l+1}}.
    The sum is grouped by letter: later[c] holds the sum of b_l over l > t
    with i_l = c+1, so b_t = d_t + <h_{i_t}, s_i Lambda_i> - sum_c a_{i_t, c+1} later[c].
    """
    silam = reflect(cd, i, fundamental_weight(cd.n, i))
    later = [0] * cd.n
    b = [0] * w.N
    for t0 in range(w.N - 1, -1, -1):
        c0 = w.letters[t0] - 1
        bt = d[t0] + silam[c0] - sum(map(mul, cd.rows[c0], later))
        b[t0] = bt
        later[c0] += bt
    return tuple(b)


def _initial_b_closed_form(cd: CartanData, w: ReducedWord, i: int, k: int) -> tuple[int, ...]:
    """b at the source, via suffix reflections instead of the recursion.

    Above k the pairing is taken against s_{i_{t+1}} ... s_{i_N} s_i Lambda_i,
    below k against s_{i_{t+1}} ... s_{i_N} Lambda_i, and b_k = 0.
    """
    N = w.N
    out = [0] * N
    mu = reflect(cd, i, fundamental_weight(cd.n, i))
    for t in range(N, k, -1):
        out[t - 1] = mu[w.letter(t) - 1]
        mu = reflect(cd, w.letter(t), mu)
    nu = fundamental_weight(cd.n, i)
    for t in range(N, 0, -1):
        val = nu[w.letter(t) - 1]
        nu = reflect(cd, w.letter(t), nu)
        if t < k:
            out[t - 1] = val
    return tuple(out)


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


def _condition_b(w: ReducedWord, d: tuple[int, ...], b: tuple[int, ...], j: int) -> bool:
    """The (d,b) = (0,0) ... (-1,1) chain test along j^{2+}, j^{3+}, ..."""
    jplus, N = w.jplus, w.N
    pos = jplus[jplus[j - 1] - 1]
    while pos <= N:
        dp, bp = d[pos - 1], b[pos - 1]
        if dp == -1 and bp == 1:
            return True
        if dp or bp:
            return False
        pos = jplus[pos - 1]
    return False


def firing_labels(w: ReducedWord, d: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """All positions that fire from (d, b), ascending."""
    N = w.N
    out = []
    for j, jp in enumerate(w.jplus, start=1):
        if jp > N:
            continue
        dj = d[j - 1]
        if dj <= 0 or b[jp - 1] <= 0:
            continue
        djp = d[jp - 1]
        if djp < dj or (djp == dj and _condition_b(w, d, b, j)):
            out.append(j)
    return out


def firing_labels_minuscule(w: ReducedWord, d: tuple[int, ...]) -> list[int]:
    """The minuscule rule d_j = 1, d_{j+} != 1; equals firing_labels on minuscule (type, i)."""
    N = w.N
    return [j for j, jp in enumerate(w.jplus, start=1) if jp <= N and d[j - 1] == 1 and d[jp - 1] != 1]


def _firing_table(cd: CartanData, w: ReducedWord, i: int, d0: tuple[int, ...], b0: tuple[int, ...]) -> tuple:
    """The exponents of A_j for every j (None when j+ > N), kept on the word.

    Proves the shift identity once per word, at the source (d0, b0): by the
    affine argument it then holds at every vertex, for every i.
    """
    table = w.cache.get("a_monomials")
    if table is not None:
        return table
    table = []
    for j, jp in enumerate(w.jplus, start=1):
        if jp > w.N:
            table.append(None)
            continue
        a = a_monomial(cd, w, j)
        d2 = tuple(map(sub, d0, a))
        shifted = list(b0)
        shifted[j - 1] += 1
        shifted[jp - 1] -= 1
        expected = b_from_d(cd, w, i, d2)
        if expected != tuple(shifted):
            raise BUpdateMismatch(
                f"b update for {cd.ctype} word {w} i={i} at j={j} from {render(d0)}: "
                f"shifted {shifted}, recursion on {render(d2)} gives {expected}"
            )
        table.append(a)
    table = w.cache["a_monomials"] = tuple(table)
    return table


def build_graph(
    cd: CartanData,
    w: ReducedWord,
    i: int,
    force: bool = False,
    max_vertices: int = 100000,
) -> DecoGraph:
    """Worklist construction of the whole monomial graph for one index i.

    FIFO over vertices, each expanded exactly once, labels ascending. With
    the b update proven once per word by the affine argument (_firing_table),
    an edge is a subtraction by the cached A_j, and a new vertex stores its
    parent's b shifted at j and j+; verify_graph still recomputes b from the
    recursion at every vertex. force only lifts UnsupportedIndex for a
    (type, i) without a proven description. A word validated for another
    Cartan matrix raises WordError; reaching max_vertices raises
    VertexCapExceeded.
    """
    if w.cd != cd:
        raise WordError(f"word {w} was validated for {w.cd.ctype}, not {cd.ctype}")
    status = supported(cd.ctype, i)
    if status is SupportStatus.UNPROVEN and not force:
        raise UnsupportedIndex(
            f"no proven monomial description for ({cd.ctype}, i={i}); use force to build anyway"
        )

    d0, b0 = initial_vertex(cd, w, i)
    table = _firing_table(cd, w, i, d0, b0)
    jplus = w.jplus
    vertices = {d0: b0}
    # each d tuple once: an edge holds the stored key, not an equal copy
    keys = {d0: d0}
    edges = []
    queue = deque([d0])

    while queue:
        d = queue.popleft()
        b = vertices[d]
        for j in firing_labels(w, d, b):
            d2 = tuple(map(sub, d, table[j - 1]))
            key = keys.setdefault(d2, d2)
            if key is d2:
                if len(vertices) >= max_vertices:
                    raise VertexCapExceeded(f"vertex cap {max_vertices} hit building ({cd.ctype}, i={i})")
                b2 = list(b)
                b2[j - 1] += 1
                b2[jplus[j - 1] - 1] -= 1
                vertices[d2] = tuple(b2)
                queue.append(d2)
            edges.append((d, j, key))

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
    bad_div += sum(dst != tuple(map(sub, src, a_monomial(cd, w, j))) for src, j, dst in named)
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


def to_json(g: DecoGraph) -> str:
    return json.dumps(to_json_dict(g), indent=2) + "\n"
