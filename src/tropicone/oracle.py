"""Independent brute-force recomputations of the monomial sets.

Two oracles, deliberately sharing nothing with the graph builder:

* trail enumeration in a minuscule weight diagram, walking weight paths
  gamma_0 -> gamma_N with steps of 0 or 1 times a simple root, which yields
  both the exponent vectors c and the monomials d. The diagram depends on
  the root system and i alone: it is the Weyl orbit of -Lambda_i, built once
  per (root system, i) without the word, with a table of weight ids and of
  the down step gamma -> gamma - alpha_j between them. Every path starts at
  the diagram's one dominant weight -w0 Lambda_i. Per word, one backward
  pass marks the weights from which -s_i Lambda_i is still reachable at each
  position, and the walk steps only onto those, so it visits no dead state;
* the relevant minor of the matrix product x_{-i_1}(t_1) ... x_{-i_N}(t_N)
  in type A, exact as a Laurent polynomial and computed by propagation:
  only the minors on its fixed rows are carried through the word, each
  updated per letter by Cauchy-Binet. The same kind of backward pass, over
  column sets, drops every minor that can no longer reach the target
  columns, and t_l's exponent is appended at letter l, where t_l first
  occurs. It also recovers the positive integer coefficients the graph
  never sees. The factors are totally positive, so no term of any minor
  cancels and a coefficient <= 0 is a hard error.

agreement_report compares both with a graph the caller built, so the
command line builds each (word, i) graph once for the report and the cone.
Monomials are exponent tuples, as in the graph; a Laurent polynomial is a
dict from exponent tuple to its positive integer coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

from .decograph import DecoGraph
from .monomial import render
from .rootsystem import (
    CartanData,
    NotMinuscule,
    RootSystemError,
    fundamental_weight,
    minuscule_indices,
    reflect,
    simple_root_weight,
)
from .wordtools import ReducedWord


class NotTypeA(ValueError):
    """The minor oracle only speaks type A."""


class MixedSigns(RuntimeError):
    """A minor coefficient <= 0: the factors are totally positive, so the sign convention is broken."""


# ---------------------------------------------------------------- trails


@lru_cache(maxsize=None)
def minuscule_weight_diagram(cd: CartanData, i: int) -> frozenset[tuple[int, ...]]:
    """The weight set of the minuscule representation with highest weight -w0 Lambda_i.

    The single Weyl orbit of -Lambda_i, cached per root system and index; its
    one dominant weight is -w0 Lambda_i. Every pairing with a coroot lands in
    {-1, 0, 1}, which is asserted because the trail walk depends on it.
    """
    if i not in minuscule_indices(cd):
        raise NotMinuscule(f"index {i} of {cd.ctype} is not minuscule")
    start = tuple(-x for x in fundamental_weight(cd.n, i))
    weights = {start}
    frontier = [start]
    while frontier:
        mu = frontier.pop()
        for j in range(1, cd.n + 1):
            nu = reflect(cd, j, mu)
            if nu not in weights:
                weights.add(nu)
                frontier.append(nu)
    for mu in weights:
        if any(abs(c) > 1 for c in mu):
            raise AssertionError(f"non-minuscule pairing in diagram for ({cd.ctype}, {i}): {mu}")
    return frozenset(weights)


@lru_cache(maxsize=None)
def _trail_table(cd: CartanData, i: int) -> tuple:
    """The tables of the i-trail walk, per root system and index: (weights, down, lifts, start, target).

    Weights get ids in sorted order, and each is kept as its tuple of pairings
    with h_1..h_n. down[j-1][g] is the id of weight g - alpha_j, or None when
    that leaves the diagram; lifts[j-1] pairs, for every g with such a down
    step, the bits (1 << down[j-1][g], 1 << g) that the backward pass reads.
    start is the id of the dominant weight -w0 Lambda_i, target that of
    -s_i Lambda_i.
    """
    weights = sorted(minuscule_weight_diagram(cd, i))
    ids = {mu: g for g, mu in enumerate(weights)}
    down = tuple(
        tuple(ids.get(tuple(map(sub, mu, simple_root_weight(cd, j)))) for mu in weights)
        for j in range(1, cd.n + 1)
    )
    lifts = tuple(tuple((1 << h, 1 << g) for g, h in enumerate(row) if h is not None) for row in down)
    start = next(g for g, mu in enumerate(weights) if min(mu) >= 0)
    target = ids[tuple(-x for x in reflect(cd, i, fundamental_weight(cd.n, i)))]
    return tuple(weights), down, lifts, start, target


def _live_weights(table: tuple, w: ReducedWord) -> list[int]:
    """live[k], a bit mask over weight ids: the gamma_k from which -s_i Lambda_i is still reachable.

    One backward pass: live[N] holds the target alone, and gamma is live at
    k - 1 when gamma (c_k = 0) or gamma - alpha_{i_k} (c_k = 1) is live at k.
    """
    _, _, lifts, _, target = table
    live = [0] * w.N + [1 << target]
    for k in range(w.N, 0, -1):
        after = mask = live[k]
        for low, high in lifts[w.letters[k - 1] - 1]:
            if after & low:
                mask |= high
        live[k - 1] = mask
    return live


def _trails(cd: CartanData, w: ReducedWord, i: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (c-vector, d-vector) pairs of weight paths -w0 Lambda_i -> -s_i Lambda_i.

    gamma_0 is the diagram's dominant weight, gamma_{k-1} = gamma_k + c_k
    alpha_{i_k} with c_k in {0, 1} and every gamma_k inside the weight
    diagram; d_k = <h_{i_k}, gamma_k> + c_k. The walk is depth first over
    weight ids and steps only onto states that _live_weights marks, so every
    state it visits lies on a trail; the trails come in lexicographic order
    of c.
    """
    weights, down, _, start, _ = table = _trail_table(cd, i)
    live = _live_weights(table, w)
    letters, N = w.letters, w.N
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # an explicit stack: a nested recursive function would be a reference
    # cycle holding w; c = 1 is pushed first so that c = 0 is taken first
    stack = [(0, start, (), ())] if live[0] >> start & 1 else []
    while stack:
        k, g, cs, ds = stack.pop()
        if k == N:
            out.append((cs, ds))
            continue
        j0 = letters[k] - 1
        after = live[k + 1]
        h = down[j0][g]
        if h is not None and after >> h & 1:
            stack.append((k + 1, h, cs + (1,), ds + (weights[h][j0] + 1,)))
        if after >> g & 1:
            stack.append((k + 1, g, cs + (0,), ds + (weights[g][j0],)))
    return out


def minuscule_trail_monomials(cd: CartanData, w: ReducedWord, i: int) -> set[tuple[int, ...]]:
    """The monomial set read off from the trails alone."""
    return {ds for _, ds in _trails(cd, w, i)}


# ---------------------------------------------------------------- type A minors


# The 2x2 block [[t^-1, 0], [1, t]] of the factor x_{-m}(t) on columns
# (m-1, m), each entry a polynomial in that factor's t as {power: coefficient}.
# The only place the sign convention lives.
_BLOCK = (({-1: 1}, {}), ({0: 1}, {1: 1}))


def _block_det(block) -> dict[int, int]:
    """ad - bc of a block [[a, b], [c, d]] of polynomials in t."""
    (a, b), (c, d) = block
    out: dict[int, int] = {}
    for sign, f, g in ((1, a, d), (-1, b, c)):
        for s1, c1 in f.items():
            for s2, c2 in g.items():
                out[s1 + s2] = out.get(s1 + s2, 0) + sign * c1 * c2
    return {s: v for s, v in out.items() if v}


def _moves(block) -> tuple:
    """Per state of a column set J at a letter, the (swap, f) by which D_J feeds D_K.

    The state is 2 * (J holds q) + (J holds p) for the letter's adjacent
    columns p, q; K is J, or J with p and q exchanged when swap is set, and
    f is the block minor D_{J,K}(F), a polynomial in the letter's t. Holding
    neither, J feeds itself unchanged; holding p alone, a to J and b to
    J - p + q; holding q alone, d to J and c to J - q + p; holding both,
    ad - bc to J. Moves whose f is 0 are left out.
    """
    (a, b), (c, d) = block
    moves = (((False, {0: 1}),), ((False, a), (True, b)), ((False, d), (True, c)), ((False, _block_det(block)),))
    return tuple(tuple(move for move in state if move[1]) for state in moves)


def _live_columns(moves: tuple, w: ReducedWord, cols: int) -> list[set[int]]:
    """live[l]: the column sets K whose minor after letter l can still reach the columns cols.

    One backward pass: live[N] is {cols}, and J is live at l - 1 when one of
    its moves at letter l lands in live[l]. A move keeps J or exchanges its
    columns p and q, so a live K is fed by itself through a stay move of
    its own state, and by K with p, q exchanged through a swap move of that
    set's state.
    """
    stays = tuple(any(not swap for swap, _ in state) for state in moves)
    swaps = tuple(any(swap for swap, _ in state) for state in moves)
    live = [set() for _ in range(w.N)] + [{cols}]
    for l in range(w.N, 0, -1):
        p = w.letters[l - 1] - 1
        pq = 3 << p
        before = live[l - 1]
        for K in live[l]:
            if stays[K >> p & 3]:
                before.add(K)
            if swaps[(K ^ pq) >> p & 3]:
                before.add(K ^ pq)
    return live


def _accumulate(out: dict, f: dict[int, int], poly: dict, tail: tuple[int, ...]) -> None:
    """out += f(t_l) * poly, in place: each exponent tuple of poly, padded by tail, gains t_l's power."""
    for s, cf in f.items():
        ext = tail + (s,)
        for e, c in poly.items():
            e2 = e + ext
            out[e2] = out.get(e2, 0) + cf * c


def typeA_minor_poly(cd: CartanData, w: ReducedWord, i: int) -> dict[tuple[int, ...], int]:
    """The minor on rows {n+2-i..n+1}, columns [1,i-1] u {i+1}, exactly.

    The matrix is the product over the word of the one-parameter factors,
    each the identity except for the 2x2 block [[t^-1, 0], [1, t]] at the
    letter's position. Only the minors D_K on the fixed rows are carried, one
    per column set K, starting from the identity. Right multiplication by a
    factor F on the adjacent columns p, q updates them by Cauchy-Binet,
    D_K(PF) = sum over J of D_J(P) * D_{J,K}(F), through the moves of
    _moves. p and q are adjacent, so exchanging one for the other keeps every
    other column in place and the 1x1 cofactor sign is +. Only the minors
    that _live_columns marks are kept, since the others never reach the
    target columns. t_l first occurs at letter l, so an exponent tuple covers
    t_1 up to the last letter that touched its minor, and is padded with zeros
    when a later letter extends it. The result is {exponent tuple: coefficient}.

    Every minor of the block is 0, 1, t^-1 or t, and its determinant is 1, so
    by Cauchy-Binet every coefficient is positive and no term ever cancels
    (Fomin-Zelevinsky, Double Bruhat cells and total positivity, 1999). A
    coefficient <= 0 therefore raises MixedSigns: it can only come from a
    broken sign convention.
    """
    if cd.ctype.family != "A":
        raise NotTypeA(f"minor oracle needs type A, got {cd.ctype}")
    n, N = cd.n, w.N
    if not 1 <= i <= n:
        raise RootSystemError(f"index {i} out of [1, {n}]")
    moves = _moves(_BLOCK)
    # column sets as bit masks over the 0-based columns 0..n
    rows = sum(1 << r for r in range(n + 1 - i, n + 1))
    cols = sum(1 << col for col in range(i - 1)) | 1 << i
    live = _live_columns(moves, w, cols)
    minors = {rows: {(): 1}} if rows in live[0] else {}
    for l in range(1, N + 1):
        p = w.letters[l - 1] - 1
        pq = 3 << p
        after = live[l]
        new: dict[int, dict] = {}
        for J, poly in minors.items():
            state = J >> p & 3
            if not state:
                new[J] = poly  # t_l does not occur, and no other J feeds this K = J
                continue
            tail = (0,) * (l - 1 - len(next(iter(poly))))
            for swap, f in moves[state]:
                K = J ^ pq if swap else J
                if K in after:
                    _accumulate(new.setdefault(K, {}), f, poly, tail)
        minors = new
    minor = {e + (0,) * (N - len(e)): v for e, v in minors.get(cols, {}).items()}
    if any(v <= 0 for v in minor.values()):
        raise MixedSigns(f"minor for ({cd.ctype}, i={i}, word {w}) has a coefficient <= 0")
    return minor


# ---------------------------------------------------------------- agreement


def agreement_report(g: DecoGraph) -> dict:
    """Compare a finished graph's vertex set against every oracle that applies.

    Type A gets the three-way comparison with coefficients; other types with
    a minuscule index get the trail comparison only. The graph is the
    caller's, so one build can serve this report and a string cone.
    """
    cd, w, i = g.cd, g.word, g.i
    graph_set = set(g.vertices)
    trail_set = minuscule_trail_monomials(cd, w, i) if i in minuscule_indices(cd) else None
    minor = typeA_minor_poly(cd, w, i) if cd.ctype.family == "A" else None

    applicable = [set(s) for s in (minor, trail_set) if s is not None]
    if not applicable:
        raise NotMinuscule(f"no oracle applies to ({cd.ctype}, i={i})")
    oracle_set = applicable[0]
    notes = []
    if any(s != oracle_set for s in applicable):
        notes.append("trail and minor oracles disagree with each other")

    missing = sorted(oracle_set - graph_set)
    extra = sorted(graph_set - oracle_set)
    status = "pass" if not missing and not extra and not notes else "fail"
    report = {
        "input": {"type": str(cd.ctype), "word": list(w.letters), "i": i},
        "status": status,
        "graph_count": len(graph_set),
        "trail_count": len(trail_set) if trail_set is not None else None,
        "minor_count": len(minor) if minor is not None else None,
        "missing_in_graph": [render(d) for d in missing],
        "extra_in_graph": [render(d) for d in extra],
        "coefficient_table": (
            {render(e): c for e, c in sorted(minor.items())} if minor is not None else None
        ),
        "notes": notes,
    }
    return report
