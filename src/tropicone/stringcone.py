"""Tropicalization of the monomial sets into an inequality system.

Each monomial prod t_l^{d_l} contributes the row sum_l d_l z_l >= 0; the
minimum of linear forms is nonnegative exactly when every form is, so the
system over all indices i cuts out the cone. The rows are read from the
word's graphs one graph at a time, so a lazy source of builds keeps one
graph alive, and a caller that already built the graphs passes them in
(cone_from_graphs). Lattice points graded by letter sums are counted
against the Kostant partition function of the dual root system. The count
is exact: the rows themselves are first shown to imply z >= 0, by an
integer chain of rows found once per cone, so each letter class ranges over
the nonnegative compositions of its sum. A cone whose rows do not yield that
chain is refused, not counted. The classes are merged into a frontier of
partial row sums under one pruning rule: a partial sum stays while the later
classes' maxima could still bring every row to 0. A class whose letter sum
is 0 has the zero vector as its one candidate, so the merge skips it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress
from numbers import Integral
from operator import sub

import numpy as np

from .decograph import DecoGraph, build_graph
from .jsontext import emit
from .rootsystem import CartanData, dual_cartan, positive_roots
from .wordtools import ReducedWord


@dataclass(frozen=True)
class ConeSystem:
    cd: CartanData
    word: ReducedWord
    # (i, exponent tuple d) per row
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    # per-cone facts the census proves once and keeps (see orthant_certificate)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def N(self) -> int:
        return self.word.N


def string_cone(cd: CartanData, w: ReducedWord, force: bool = False) -> ConeSystem:
    """One inequality row per monomial over all i, ordered by i then creation.

    No row repeats. The summand for i is homogeneous of weight alpha_i under
    the grading t_l -> beta_l: its source t_k has beta_k = alpha_i and every
    A_j grades to 0. So the summands for distinct i share no monomial.
    """
    return cone_from_graphs(cd, w, (build_graph(cd, w, i, force=force) for i in range(1, cd.n + 1)))


def cone_from_graphs(cd: CartanData, w: ReducedWord, graphs: Iterable[DecoGraph]) -> ConeSystem:
    """The cone whose rows are the vertices of the given graphs of w, one for each i in order.

    Each graph is dropped before the next is drawn, so a lazy iterable of
    builds keeps one graph alive at a time.
    """
    return ConeSystem(cd, w, tuple(chain.from_iterable(map(_graph_rows, graphs))))


def _graph_rows(g: DecoGraph) -> list[tuple[int, tuple[int, ...]]]:
    return [(g.i, d) for d in g.vertices]


class CensusUncertified(ValueError):
    """Some coordinate of the cone is not proven nonnegative, so no census is taken."""


def orthant_certificate(cone: ConeSystem) -> tuple[int, ...]:
    """For each position l, the index of a row that proves z_l >= 0 on the cone.

    A row proves z_l >= 0 when its only positive entry is d_l and every
    negative entry sits at a position already proven: then
    d_l z_l >= sum |d_m| z_m >= 0. The sources are single-entry rows, so the
    scan runs to a fixpoint from them. Exact integer reasoning, computed once
    per cone and cached on it; raises CensusUncertified when some l stays
    unproven.
    """
    cert = cone.cache.get("orthant")
    if cert is not None:
        return cert
    pending = []
    for r, (_, row) in enumerate(cone.rows):
        pos = [l for l, c in enumerate(row) if c > 0]
        if len(pos) == 1:
            pending.append((pos[0], {l for l, c in enumerate(row) if c < 0}, r))
    proof: dict[int, int] = {}
    grew = True
    while grew:
        grew = False
        rest = []
        for l, neg, r in pending:
            if l in proof:
                continue
            if all(m in proof for m in neg):
                proof[l] = r
                grew = True
            else:
                rest.append((l, neg, r))
        pending = rest
    if len(proof) < cone.N:
        l = next(l for l in range(cone.N) if l not in proof)
        raise CensusUncertified(
            f"census of ({cone.cd.ctype}, word {cone.word}): "
            f"no certificate that z_{l + 1} >= 0"
        )
    cert = cone.cache["orthant"] = tuple(proof[l] for l in range(cone.N))
    return cert


@lru_cache(maxsize=256)
def _compositions(total: int, size: int) -> np.ndarray:
    """All nonnegative integer vectors of the given size summing to total, one per row."""
    # stars and bars: the size - 1 bar positions among total + size - 1 slots
    picks = list(combinations(range(total + size - 1), size - 1))
    k = len(picks)
    bars = np.array(picks, dtype=np.int64).reshape(k, size - 1)
    edges = np.hstack([np.full((k, 1), -1), bars, np.full((k, 1), total + size - 1)])
    out = np.diff(edges, axis=1) - 1
    out.flags.writeable = False
    return out


def weights_up_to(n: int, bound: int) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors of length n with sum <= bound, in lexicographic order.

    The census's own compositions of bound into n + 1 parts, the last part
    (the slack) dropped; for n = 0 that is the empty vector alone. A
    negative bound gives nothing, which _compositions would not.
    """
    if bound < 0:
        return []
    return list(map(tuple, _compositions(bound, n + 1)[:, :-1].tolist()))


def _class_blocks(cone: ConeSystem) -> list[np.ndarray]:
    """Per letter t, the rows' coefficients at the positions carrying t, as positions x rows.

    Every letter occurs in a reduced word of w0, so no block is empty.
    """
    blocks = cone.cache.get("classes")
    if blocks is None:
        row_mat = np.array([row for _, row in cone.rows], dtype=np.int64).reshape(-1, cone.N)
        letters = np.array(cone.word.letters)
        blocks = [row_mat[:, letters == t].T.copy() for t in range(1, cone.cd.n + 1)]
        cone.cache["classes"] = blocks
    return blocks


def _weight(n: int, mvec) -> tuple[int, ...]:
    """mvec as a tuple of n nonnegative Python ints; ValueError otherwise."""
    mv = tuple(mvec)
    # the exact-type test first: the ABC check is a large share of a small query
    if len(mv) != n or not all((type(x) is int or isinstance(x, Integral)) and x >= 0 for x in mv):
        raise ValueError(f"weight must be {n} nonnegative integers, got {mv!r}")
    return tuple(int(x) for x in mv)


def weight_census(cone: ConeSystem, mvec) -> int:
    """Count the lattice points of the cone with prescribed letter sums.

    For each letter value t, the coordinates at positions carrying t must sum
    to mvec[t-1]. The count is exact: `orthant_certificate` first proves
    z >= 0 on the whole cone (once, cached on it), so every coordinate of
    class t lies in [0, mvec[t-1]] and the candidates are the nonnegative
    compositions of mvec[t-1] over the class's positions. A cone without that
    certificate raises CensusUncertified at every weight, the zero weight
    included; no box is assumed.

    Only the classes with mvec[t-1] > 0 take part: a class of sum 0 has the
    zero vector as its one candidate, which adds nothing to a row, so the
    zero weight counts the origin alone. Each such class keeps only its
    candidates' contributions to every row, never the points, and their
    row-wise maxima, taken once. The classes are merged one at a time,
    fewest candidates first, into a frontier of partial row sums that starts
    as the first class's contributions. After each merge an entry survives
    only while the later classes' maxima could still bring every row to 0.
    That is the one pruning rule: a candidate no completion can use leaves at
    its own class's merge, and at the last merge the rule is the exact row
    check. Memory is bounded by the surviving frontier rather than by the
    product of the classes.
    """
    mv = _weight(cone.cd.n, mvec)
    orthant_certificate(cone)
    if sum(mv) == 0:
        return 1
    contribs = sorted(
        (_compositions(m_t, len(block)) @ block for m_t, block in zip(mv, _class_blocks(cone)) if m_t),
        key=len,
    )

    best = [c.max(axis=0) for c in contribs]
    rest = sum(best)
    frontier = None
    for c, top in zip(contribs, best):
        rest -= top
        if frontier is not None:
            c = (frontier[:, None, :] + c).reshape(-1, len(rest))
        frontier = c[(c >= -rest).all(axis=1)]
        if not len(frontier):
            return 0
    return len(frontier)


@lru_cache(maxsize=None)
def _dual_positive_root_list(cd: CartanData) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(positive_roots(dual_cartan(cd))))


@lru_cache(maxsize=None)
def _kostant(cd: CartanData, idx: int, remaining: tuple[int, ...]) -> int:
    """Multisets of the dual positive roots from index idx on that sum to remaining."""
    if not any(remaining):
        return 1
    roots = _dual_positive_root_list(cd)
    if idx == len(roots):
        return 0
    root = roots[idx]
    total = 0
    while True:
        total += _kostant(cd, idx + 1, remaining)
        if any(rv > r for rv, r in zip(root, remaining)):
            return total
        remaining = tuple(map(sub, remaining, root))


def dual_kostant_count(cd: CartanData, mvec) -> int:
    """Number of multisets of dual positive roots summing to sum mvec[t-1] alpha_t.

    This is the reference count the census must reproduce; the dual
    (transposed-matrix) system is used here and nowhere else. The recursion
    is memoized per (root system, root index, remainder) for the whole
    process, so weights checked one after another share their subproblems.
    """
    return _kostant(cd, 0, _weight(cd.n, mvec))


class _Terms(dict):
    """The text of coefficient c times z_l, as a leading or a later term, made on first use.

    A cone repeats few (l, c) pairs over its rows, so each text is built once per cone.
    """

    def __init__(self, l: int, leading: bool) -> None:
        super().__init__()
        self.l, self.leading = l, leading

    def __missing__(self, c: int) -> str:
        mag = abs(c)
        body = f"z_{self.l}" if mag == 1 else f"{mag}z_{self.l}"
        if self.leading:
            text = body if c > 0 else f"-{body}"
        else:
            text = (" + " if c > 0 else " - ") + body
        self[c] = text
        return text


def _row_texts(cone: ConeSystem) -> list[str]:
    """The left-hand side of every row, walking only its nonzero coefficients."""
    columns = range(cone.N)
    leading = [_Terms(l, True) for l in range(1, cone.N + 1)]
    later = [_Terms(l, False) for l in range(1, cone.N + 1)]
    texts = []
    for _, row in cone.rows:
        nonzero = compress(columns, row)
        first = next(nonzero, None)
        if first is None:
            texts.append("0")
        else:
            texts.append(leading[first][row[first]] + "".join([later[l][row[l]] for l in nonzero]))
    return texts


def render(cone: ConeSystem, fmt: str = "text") -> str:
    """The system as text, LaTeX or JSON; one row per line for the text forms."""
    if fmt == "text":
        return "\n".join([text + " >= 0" for text in _row_texts(cone)]) + "\n"
    if fmt == "latex":
        lines = [f"{text} &\\geq 0 \\\\" for text in _row_texts(cone)]
        return "\\begin{align*}\n" + "\n".join(lines) + "\n\\end{align*}\n"
    if fmt == "json":
        return emit(to_json_dict(cone))
    raise ValueError(f"unknown format {fmt!r}")


def to_json_dict(cone: ConeSystem) -> dict:
    return {
        "type": str(cone.cd.ctype),
        "rank": cone.cd.n,
        "word": list(cone.word.letters),
        "rows": [{"i": i, "coeffs": list(row)} for i, row in cone.rows],
    }
