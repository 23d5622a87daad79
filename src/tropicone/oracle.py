"""Independent brute-force recomputations of the monomial sets.

Two oracles, sharing nothing with the graph builder beyond the DecoGraph
type they read. Each is one matrix coefficient of the word's product of
one-parameter factors, taken in its own module, and one engine computes both:

* the i-trails, in the minuscule module V(-w0 Lambda_i): the states are the
  weights of its diagram, and a path's exponent tuple is the trail's d-vector;
* the relevant minor of x_{-i_1}(t_1) ... x_{-i_N}(t_N) in type A, in
  wedge^i of the natural module: the states are the column sets of the
  minors on its fixed rows. It also recovers the positive integer
  coefficients the graph never sees; the factors are totally positive, so a
  coefficient <= 0 is a hard error.

A module is a table built once per (root system, i), without the word: per
letter and state, the moves to other states, each weighted by a polynomial
in that letter's t. Per word, the engine makes one backward pass that marks
the states from which the target is still reachable, and one forward pass
that carries a Laurent polynomial for the live states only.

agreement_report compares both with a graph the caller built, so the
command line builds each (word, i) graph once for the report and the cone.
Monomials are exponent tuples, as in the graph; a Laurent polynomial is a
dict from exponent tuple to its positive integer coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import sub
from typing import NamedTuple

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
from .wordtools import ReducedWord, check_validated_for


class NotTypeA(ValueError):
    """The minor oracle only speaks type A."""


class MixedSigns(RuntimeError):
    """A minor coefficient <= 0: the factors are totally positive, so the sign convention is broken."""


# ---------------------------------------------------------------- engine


class _Module(NamedTuple):
    """A module as the engine's table, numbered per (root system, i).

    moves[j-1][s] lists the (s2, f) by which state s feeds s2 at letter j, f
    a nonzero polynomial in that letter's t as {power: coefficient}. For the
    backward pass, stays[j-1] masks the states that feed themselves and
    lifts[j-1] holds the bits (1 << s2, 1 << s) of every other move.
    """

    moves: tuple
    start: int
    target: int
    stays: tuple
    lifts: tuple


def _module(moves, start: int, target: int) -> _Module:
    """The table of the given moves, the zero ones left out, with its backward-pass bits."""
    moves = tuple(tuple(tuple((s2, f) for s2, f in state if f) for state in row) for row in moves)
    stays = tuple(sum(1 << s for s, state in enumerate(row) if any(s2 == s for s2, _ in state)) for row in moves)
    lifts = tuple(
        tuple((1 << s2, 1 << s) for s, state in enumerate(row) for s2, _ in state if s2 != s) for row in moves
    )
    return _Module(moves, start, target, stays, lifts)


def _live_states(module: _Module, w: ReducedWord) -> list[int]:
    """live[k], a bit mask over states: those from which the target is still reachable after letter k.

    One backward pass: live[N] holds the target alone, and s is live at
    k - 1 when one of its moves at letter k lands in live[k].
    """
    live = [0] * w.N + [1 << module.target]
    for k in range(w.N, 0, -1):
        j0 = w.letters[k - 1] - 1
        after = live[k]
        mask = after & module.stays[j0]
        for low, high in module.lifts[j0]:
            if after & low:
                mask |= high
        live[k - 1] = mask
    return live


def _minor(module: _Module, w: ReducedWord) -> dict[tuple[int, ...], int]:
    """The start-to-target coefficient of the word's product of factors: {exponent tuple: coefficient}.

    One forward pass carries, per live state, the polynomial of the paths
    from the start to it. At letter k a move (s2, f) adds it times f(t_k) to
    s2's, appending t_k's power to each exponent tuple.
    """
    live = _live_states(module, w)
    polys = {module.start: {(): 1}}
    for k, letter in enumerate(w.letters, 1):
        after = live[k]
        row = module.moves[letter - 1]
        new: dict[int, dict] = {}
        for s, poly in polys.items():
            for s2, f in row[s]:
                if after >> s2 & 1:
                    out = new.setdefault(s2, {})
                    for power, cf in f.items():
                        tail = (power,)
                        for e, c in poly.items():
                            e2 = e + tail
                            out[e2] = out.get(e2, 0) + cf * c
        polys = new
    return polys.get(module.target, {})


# ---------------------------------------------------------------- trails


def minuscule_weight_diagram(cd: CartanData, i: int) -> frozenset[tuple[int, ...]]:
    """The weight set of the minuscule representation with highest weight -w0 Lambda_i.

    The single Weyl orbit of -Lambda_i; its one dominant weight is
    -w0 Lambda_i. Every pairing with a coroot lands in {-1, 0, 1}, which is
    asserted because _trail_module, cached per (root system, i), needs it.
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
def _trail_module(cd: CartanData, i: int) -> _Module:
    """The minuscule module V(-w0 Lambda_i) as the engine's table, per root system and index.

    States are the diagram's weights in sorted order. At letter j, c_k = 0
    keeps gamma, with power <h_j, gamma>, and c_k = 1 steps to
    gamma - alpha_j when that is a weight, with power <h_j, gamma - alpha_j>
    + 1, so a path's exponent tuple is its d-vector. The start is the
    dominant weight -w0 Lambda_i, the target -s_i Lambda_i.
    """
    weights = sorted(minuscule_weight_diagram(cd, i))
    ids = {mu: g for g, mu in enumerate(weights)}
    moves = []
    for j in range(1, cd.n + 1):
        alpha = simple_root_weight(cd, j)
        row = []
        for g, mu in enumerate(weights):
            nu = tuple(map(sub, mu, alpha))
            row.append([(g, {mu[j - 1]: 1})] + ([(ids[nu], {nu[j - 1] + 1: 1})] if nu in ids else []))
        moves.append(row)
    start = next(g for g, mu in enumerate(weights) if min(mu) >= 0)
    target = ids[tuple(-x for x in reflect(cd, i, fundamental_weight(cd.n, i)))]
    return _module(moves, start, target)


def minuscule_trail_monomials(cd: CartanData, w: ReducedWord, i: int) -> set[tuple[int, ...]]:
    """The monomial set read off from the trails alone; a word validated for another root system raises WordError."""
    check_validated_for(cd, w)
    return set(_minor(_trail_module(cd, i), w))


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


@lru_cache(maxsize=None)
def _column_module(n: int, i: int, block: tuple) -> _Module:
    """wedge^i of the natural module of sl_{n+1} as the engine's table, per block content.

    block is _BLOCK's a, b, c, d as (power, coefficient) pairs, a cache key.
    States are the column sets J of the minors D_J on the fixed rows, as bit
    masks over the 0-based columns, in increasing order. Letter m's block
    sits on the adjacent columns p = m-1, q = m, and Cauchy-Binet,
    D_K(PF) = sum over J of D_J(P) D_{J,K}(F), gives J's moves: holding
    neither, 1 to J; p alone, a to J and b to J - p + q; q alone, d to J and
    c to J - q + p; both, ad - bc to J. Exchanging adjacent columns keeps the
    others in place, so every cofactor sign is +. The start is the rows
    {n+1-i..n}, the target the columns [0, i-2] u {i}.
    """
    a, b, c, d = map(dict, block)
    det = _block_det(((a, b), (c, d)))
    # per state 2 * (J holds q) + (J holds p): the (exchange p and q, f) of each move
    feeds = (((False, {0: 1}),), ((False, a), (True, b)), ((False, d), (True, c)), ((False, det),))
    sets = sorted(sum(1 << col for col in cols) for cols in combinations(range(n + 1), i))
    ids = {J: s for s, J in enumerate(sets)}
    moves = [
        [[(ids[J ^ (3 << p) if swap else J], f) for swap, f in feeds[J >> p & 3]] for J in sets]
        for p in range(n)
    ]
    rows = sum(1 << r for r in range(n + 1 - i, n + 1))
    cols = sum(1 << col for col in range(i - 1)) | 1 << i
    return _module(moves, ids[rows], ids[cols])


def typeA_minor_poly(cd: CartanData, w: ReducedWord, i: int) -> dict[tuple[int, ...], int]:
    """The minor on rows {n+2-i..n+1}, columns [1,i-1] u {i+1}, exactly: {exponent tuple: coefficient}.

    The matrix is the product over the word of the factors x_{-m}(t), each
    the identity except for _BLOCK on columns (m-1, m). Every minor of the
    block is 0, 1, t^-1 or t and its determinant is 1, so by Cauchy-Binet no
    term ever cancels (Fomin-Zelevinsky, Double Bruhat cells and total
    positivity, 1999). A coefficient <= 0 therefore raises MixedSigns: only a
    broken sign convention gives one. A word validated for another root
    system raises WordError.
    """
    check_validated_for(cd, w)
    if cd.ctype.family != "A":
        raise NotTypeA(f"minor oracle needs type A, got {cd.ctype}")
    if not 1 <= i <= cd.n:
        raise RootSystemError(f"index {i} out of [1, {cd.n}]")
    block = tuple([tuple(f.items()) for row in _BLOCK for f in row])
    minor = _minor(_column_module(cd.n, i, block), w)
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
