"""Tropicalization of the monomial sets into an inequality system.

Each monomial prod t_l^{d_l} contributes the row sum_l d_l z_l >= 0; the
minimum of linear forms is nonnegative exactly when every form is, so the
system over all indices i cuts out the cone. Lattice points graded by
letter sums are counted against the Kostant partition function of the dual
root system.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decograph import build_graph
from .rootsystem import CartanData, dual_cartan, positive_roots
from .wordtools import ReducedWord


@dataclass(frozen=True)
class ConeSystem:
    cd: CartanData
    word: ReducedWord
    # (i, exponent tuple d) per row
    rows: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def N(self) -> int:
        return self.word.N


def half_potential_monomials(
    cd: CartanData, w: ReducedWord, force: bool = False
) -> dict[int, list[tuple[int, ...]]]:
    """For each index i, the monomial set of its summand, in creation order."""
    return {
        i: list(build_graph(cd, w, i, force=force).vertices)
        for i in range(1, cd.n + 1)
    }


def string_cone(cd: CartanData, w: ReducedWord, force: bool = False) -> ConeSystem:
    """One inequality row per monomial over all i, deduplicated, ordered by i then creation."""
    rows: list[tuple[int, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for i, monomials in half_potential_monomials(cd, w, force=force).items():
        for d in monomials:
            if d not in seen:
                seen.add(d)
                rows.append((i, d))
    return ConeSystem(cd, w, tuple(rows))


def _class_tuples(size: int, total: int, bound: int) -> list[tuple[int, ...]]:
    """All integer tuples of the given size with entries in [-bound, bound] summing to total."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int, remaining: int) -> None:
        if left == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        lo = max(-bound, remaining - bound * (left - 1))
        hi = min(bound, remaining + bound * (left - 1))
        for x in range(lo, hi + 1):
            prefix.append(x)
            rec(prefix, left - 1, remaining - x)
            prefix.pop()

    rec([], size, total)
    return out


def weights_up_to(n: int, bound: int):
    """All nonnegative integer vectors of length n with sum <= bound, in lexicographic order."""

    def rec(prefix, left, budget):
        if left == 0:
            yield tuple(prefix)
            return
        for x in range(budget + 1):
            prefix.append(x)
            yield from rec(prefix, left - 1, budget - x)
            prefix.pop()

    yield from rec([], n, bound)


def weight_census(cone: ConeSystem, mvec) -> int:
    """Count lattice points of the cone with prescribed letter sums.

    For each letter value t, the coordinates at positions carrying t must sum
    to mvec[t-1]. Candidates range over [-S, S] per coordinate with
    S = sum(mvec); this box is assumed, not certified.

    Each letter class keeps only its candidates' contributions to every row,
    never the points. A fixpoint filter drops a candidate once some row stays
    negative even when every other class gives that row its maximum; for a
    row supported inside one class this is the exact row check. The classes
    are then merged one at a time, fewest candidates first, into a frontier
    of partial row sums. After each merge an entry survives only while it
    could still reach every row's bound with the later classes' maxima; at
    the last merge that is the exact check, so memory is bounded by the
    surviving frontier rather than by the product of the classes.
    """
    w = cone.word
    n, N = cone.cd.n, cone.N
    mv = tuple(int(x) for x in mvec)
    if len(mv) != n or any(x < 0 for x in mv):
        raise ValueError(f"mvec must be {n} nonnegative integers")
    S = sum(mv)
    if S == 0:
        return 1
    row_mat = np.array([row for _, row in cone.rows], dtype=np.int64).reshape(-1, N)

    letters = np.array(w.letters)
    contribs = []
    for t, m_t in enumerate(mv, start=1):
        cols = np.flatnonzero(letters == t)
        if cols.size == 0:
            if m_t > 0:
                return 0
            continue
        arr = np.array(_class_tuples(cols.size, m_t, S), dtype=np.int64).reshape(-1, cols.size)
        contribs.append(arr @ row_mat[:, cols].T)

    # one row per surviving candidate, all classes stacked in order; cls names its class
    cand = np.concatenate(contribs)
    cls = np.repeat(np.arange(len(contribs)), [len(c) for c in contribs])
    while True:
        counts = np.bincount(cls, minlength=len(contribs))
        if not counts.all():
            return 0
        best = np.maximum.reduceat(cand, np.cumsum(counts) - counts, axis=0)
        keep = (cand + (best.sum(axis=0) - best)[cls] >= 0).all(axis=1)
        if keep.all():
            break
        cand, cls = cand[keep], cls[keep]

    rest = best.sum(axis=0)
    frontier = np.zeros((1, cand.shape[1]), dtype=np.int64)
    for k in np.argsort(counts, kind="stable"):
        rest -= best[k]
        block = cand[cls == k]
        frontier = (frontier[:, None, :] + block[None, :, :]).reshape(-1, frontier.shape[1])
        frontier = frontier[(frontier + rest >= 0).all(axis=1)]
        if frontier.shape[0] == 0:
            return 0
    return frontier.shape[0]


@lru_cache(maxsize=None)
def _dual_positive_root_list(cd: CartanData) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(positive_roots(dual_cartan(cd))))


def dual_kostant_count(cd: CartanData, mvec) -> int:
    """Number of multisets of dual positive roots summing to sum mvec[t-1] alpha_t.

    This is the reference count the census must reproduce; the dual
    (transposed-matrix) system is used here and nowhere else.
    """
    roots = _dual_positive_root_list(cd)
    target = tuple(int(x) for x in mvec)

    @lru_cache(maxsize=None)
    def count(idx: int, remaining: tuple[int, ...]) -> int:
        if not any(remaining):
            return 1
        if idx == len(roots):
            return 0
        root = roots[idx]
        total = 0
        rem = list(remaining)
        while True:
            total += count(idx + 1, tuple(rem))
            if any(rv > r for rv, r in zip(root, rem)):
                break
            for t in range(len(rem)):
                rem[t] -= root[t]
        return total

    return count(0, target)


def _row_text(row: tuple[int, ...]) -> str:
    terms = []
    for l, c in enumerate(row, start=1):
        if c == 0:
            continue
        mag = abs(c)
        body = f"z_{l}" if mag == 1 else f"{mag}z_{l}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    if not terms:
        return "0"
    return " ".join(terms)


def render(cone: ConeSystem, fmt: str = "text") -> str:
    """The system as text, LaTeX or JSON; one row per line for the text forms."""
    if fmt == "text":
        return "\n".join(f"{_row_text(row)} >= 0" for _, row in cone.rows) + "\n"
    if fmt == "latex":
        lines = [f"{_row_text(row)} &\\geq 0 \\\\" for _, row in cone.rows]
        return "\\begin{align*}\n" + "\n".join(lines) + "\n\\end{align*}\n"
    if fmt == "json":
        return json.dumps(to_json_dict(cone), indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def to_json_dict(cone: ConeSystem) -> dict:
    return {
        "type": str(cone.cd.ctype),
        "rank": cone.cd.n,
        "word": list(cone.word.letters),
        "rows": [{"i": i, "coeffs": list(row)} for i, row in cone.rows],
    }
