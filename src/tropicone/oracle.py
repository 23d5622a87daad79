"""Independent brute-force recomputations of the monomial sets.

Two oracles, deliberately sharing nothing with the graph builder:

* trail enumeration in a minuscule weight diagram, walking weight paths
  gamma_0 -> gamma_N with steps of 0 or 1 times a simple root, which yields
  both the exponent vectors c and the monomials d. The diagram depends on
  the root system and i alone: it is the Weyl orbit of -Lambda_i, built once
  per (root system, i) without the word, and every path starts at its one
  dominant weight -w0 Lambda_i;
* the relevant minor of the matrix product x_{-i_1}(t_1) ... x_{-i_N}(t_N)
  in type A, exact as a Laurent polynomial and computed by propagation:
  only the minors on its fixed rows are carried through the word, each
  updated per letter by Cauchy-Binet. It also recovers the positive integer
  coefficients the graph never sees. The factors are totally positive, so
  no term of any minor cancels and a coefficient <= 0 is a hard error.

Monomials are exponent tuples, as in the graph; a Laurent polynomial is a
dict from exponent tuple to its positive integer coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from operator import sub

from .decograph import build_graph
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


def _trails(cd: CartanData, w: ReducedWord, i: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (c-vector, d-vector) pairs of weight paths -w0 Lambda_i -> -s_i Lambda_i.

    gamma_0 is the diagram's dominant weight, gamma_{k-1} = gamma_k + c_k
    alpha_{i_k} with c_k in {0, 1} and every gamma_k inside the weight
    diagram; d_k = <h_{i_k}, gamma_k> + c_k.
    """
    weights = minuscule_weight_diagram(cd, i)
    start = next(mu for mu in weights if min(mu) >= 0)
    target = tuple(-x for x in reflect(cd, i, fundamental_weight(cd.n, i)))
    alphas = {j: simple_root_weight(cd, j) for j in set(w.letters)}
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # depth first on an explicit stack: a nested recursive function would be a
    # reference cycle holding w; c = 1 is pushed first so that c = 0 is taken first
    stack = [(1, start, (), ())]
    while stack:
        k, gamma, cs, ds = stack.pop()
        if k > w.N:
            if gamma == target:
                out.append((cs, ds))
            continue
        letter = w.letter(k)
        for c in (1, 0):
            nxt = tuple(map(sub, gamma, alphas[letter])) if c else gamma
            if nxt in weights:
                stack.append((k + 1, nxt, cs + (c,), ds + (nxt[letter - 1] + c,)))
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


def _accumulate(out: dict, f: dict[int, int], poly: dict, k: int) -> None:
    """out += f(t_{k+1}) * poly, in place; f is a polynomial in t_{k+1} alone."""
    for s, cf in f.items():
        for e, c in poly.items():
            e2 = e[:k] + (e[k] + s,) + e[k + 1 :]
            out[e2] = out.get(e2, 0) + cf * c


def typeA_minor_poly(cd: CartanData, w: ReducedWord, i: int) -> dict[tuple[int, ...], int]:
    """The minor on rows {n+2-i..n+1}, columns [1,i-1] u {i+1}, exactly.

    The matrix is the product over the word of the one-parameter factors,
    each the identity except for the 2x2 block [[t^-1, 0], [1, t]] at the
    letter's position. Only the minors D_K on the fixed rows are carried, one
    per column set K, starting from the identity. Right multiplication by a
    factor F on the adjacent columns p, q updates them by Cauchy-Binet,
    D_K(PF) = sum over J of D_J(P) * D_{J,K}(F): with the block [[a, b], [c, d]],
    a K holding p but not q becomes a*D_K + c*D_{K-p+q}, one holding q but not
    p becomes d*D_K + b*D_{K-q+p}, one holding both becomes (ad - bc)*D_K, and
    one holding neither is unchanged. The result is {exponent tuple: coefficient}.

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
    (a, b), (c, d) = _BLOCK
    det = _block_det(_BLOCK)
    # column sets as bit masks over the 0-based columns 0..n
    rows = sum(1 << r for r in range(n + 1 - i, n + 1))
    minors = {rows: {(0,) * N: 1}}
    for l in range(1, N + 1):
        bp, bq = 1 << (w.letter(l) - 1), 1 << w.letter(l)
        new: dict[int, dict] = {}
        for J, poly in minors.items():
            has_p, has_q = bool(J & bp), bool(J & bq)
            if not has_p and not has_q:
                new[J] = poly  # no other J reaches this K = J
                continue
            if has_p and has_q:
                targets = [(J, det)]
            elif has_p:
                # p and q are adjacent, so swapping one for the other keeps
                # every other column in place and the 1x1 cofactor sign is +
                targets = [(J, a), (J ^ bp ^ bq, b)]
            else:
                targets = [(J, d), (J ^ bp ^ bq, c)]
            for K, f in targets:
                _accumulate(new.setdefault(K, {}), f, poly, l - 1)
        minors = {K: poly for K, poly in new.items() if poly}
    cols = sum(1 << col for col in range(i - 1)) | 1 << i
    minor = minors.get(cols, {})
    if any(v <= 0 for v in minor.values()):
        raise MixedSigns(f"minor for ({cd.ctype}, i={i}, word {w}) has a coefficient <= 0")
    return minor


# ---------------------------------------------------------------- agreement


def agreement_report(cd: CartanData, w: ReducedWord, i: int) -> dict:
    """Compare the graph vertex set against every oracle that applies.

    Type A gets the three-way comparison with coefficients; other types with
    a minuscule index get the trail comparison only.
    """
    graph_set = set(build_graph(cd, w, i).vertices)
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
