"""Plain reference implementations that tests compare the package against.

Each one recomputes something the package computes faster, the slow way and
without sharing the package's shortcut: the source b by chains of
reflections, the firing rule by a scan over every position, the graph by a
BFS keyed by the d tuples themselves, b at the ends of the i-trails by
the recursion, and the census by testing every row at every candidate point.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from operator import sub

from tropicone.decograph import _condition_b, b_from_d, initial_vertex
from tropicone.monomial import a_monomial
from tropicone.oracle import _trails
from tropicone.rootsystem import fundamental_weight, reflect


def reflection_closed_form(cd, w, i, k):
    """b at the source by suffix reflections.

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


def scan_firing_labels(w, d, b):
    """The firing rule tested at every position j in turn, ascending."""
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


def tuple_keyed_graph(cd, w, i):
    """The FIFO build keyed by d tuples: ([(d, b) in creation order], [(src, j, dst)]).

    Every edge subtracts a fresh a_monomial, and every new vertex takes its b
    from the recursion.
    """
    d0, b0 = initial_vertex(cd, w, i)
    vertices = {d0: b0}
    edges = []
    queue = deque([d0])
    while queue:
        d = queue.popleft()
        for j in scan_firing_labels(w, d, vertices[d]):
            d2 = tuple(map(sub, d, a_monomial(cd, w, j)))
            if d2 not in vertices:
                vertices[d2] = b_from_d(cd, w, i, d2)
                queue.append(d2)
            edges.append((d, j, d2))
    return list(vertices.items()), edges


def crosscheck_b_equals_c(cd, w, i):
    """For every trail, the b recursion on its d-vector must return its c-vector."""
    trails = _trails(cd, w, i)
    mismatches = []
    for cs, ds in trails:
        b = b_from_d(cd, w, i, ds)
        if b != cs:
            mismatches.append({"d": list(ds), "c": list(cs), "b": list(b)})
    return {
        "input": {"type": str(cd.ctype), "word": list(w.letters), "i": i},
        "trails": len(trails),
        "status": "pass" if not mismatches else "fail",
        "mismatches": mismatches,
    }


def compositions(total, size):
    """The nonnegative integer tuples of the given size summing to total."""
    if size == 1:
        yield (total,)
        return
    for x in range(total + 1):
        for rest in compositions(total - x, size - 1):
            yield (x, *rest)


def brute_force_census(cone, mvec):
    """The cone's lattice points with letter sums mvec, each row checked at each point.

    The points range over the product, per letter t, of the nonnegative
    compositions of mvec[t-1] over the positions carrying t.
    """
    classes = [[l for l, t in enumerate(cone.word.letters) if t == s] for s in range(1, cone.cd.n + 1)]
    count = 0
    for parts in product(*(compositions(m, len(pos)) for m, pos in zip(mvec, classes))):
        z = [0] * cone.N
        for pos, part in zip(classes, parts):
            for l, x in zip(pos, part):
                z[l] = x
        count += all(sum(c * x for c, x in zip(row, z)) >= 0 for _, row in cone.rows)
    return count
