"""Plain reference implementations that tests compare the package against.

Each one recomputes something the package computes faster, the slow way and
without sharing the package's shortcut: seeded reduced words by reflecting
simple roots through each prefix, the beta sequence by one reflection at a
time, the source b by chains of reflections, the firing rule by a scan over
every position with its own chain test, the graph by a
BFS keyed by the d tuples themselves, b at the ends of the i-trails by
the recursion, the i-trails by a walk over every state of the weight
diagram, the type A minor by carrying every minor on its rows over full-length
exponent tuples, the census by testing every row at every candidate point,
and the text of a monomial from its numerator and denominator pair lists.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from operator import sub

from tropicone import oracle
from tropicone.decograph import b_from_d, initial_vertex
from tropicone.monomial import a_monomial
from tropicone.oracle import minuscule_weight_diagram
from tropicone.rootsystem import fundamental_weight, reflect, reflect_root, simple_root, simple_root_weight
from tropicone.wordtools import validate_word


def random_word(cd, rng):
    """A seeded reduced word of w0: extend the prefix w by a letter j with w(alpha_j) > 0."""
    letters = []
    while True:
        allowed = []
        for j in range(1, cd.n + 1):
            root = simple_root(cd.n, j)
            for letter in reversed(letters):
                root = reflect_root(cd, letter, root)
            if min(root) >= 0:
                allowed.append(j)
        if not allowed:
            return validate_word(cd, letters)
        letters.append(rng.choice(allowed))


def reflection_beta_sequence(cd, letters):
    """beta_k = s_{i_N} ... s_{i_{k+1}}(alpha_{i_k}) for every k, one reflection at a time."""
    out = []
    for k, letter in enumerate(letters, start=1):
        beta = simple_root(cd.n, letter)
        for later in letters[k:]:
            beta = reflect_root(cd, later, beta)
        out.append(beta)
    return tuple(out)


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


def _condition_b(w, d, b, j):
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


def out_labels(g):
    """The labels of each vertex's out-edges in edge order: what fired there, ascending."""
    out = {d: [] for d in g.vertices}
    for src, j, _ in g.edges:
        out[src].append(j)
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
    trails = unpruned_trails(cd, w, i)
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


def unpruned_trails(cd, w, i):
    """The (c, d) pairs of the i-trails by a depth-first walk over every state inside the diagram.

    Each step tries c = 0 and c = 1 wherever gamma stays a weight, whether or
    not the target is still reachable, and tests for it only at the end.
    """
    weights = minuscule_weight_diagram(cd, i)
    start = next(mu for mu in weights if min(mu) >= 0)
    target = tuple(-x for x in reflect(cd, i, fundamental_weight(cd.n, i)))
    alphas = {j: simple_root_weight(cd, j) for j in set(w.letters)}
    out = []
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


def unpruned_minor(cd, w, i):
    """The type A minor by carrying every minor on its rows, over full-length exponent tuples.

    The per-letter Cauchy-Binet update of typeA_minor_poly, written out case
    by case, with no live-set pass: each step re-slices every exponent tuple
    to add t_l's power at position l.
    """
    n, N = cd.n, w.N
    (a, b), (c, d) = oracle._BLOCK
    det = oracle._block_det(oracle._BLOCK)
    rows = sum(1 << r for r in range(n + 1 - i, n + 1))
    minors = {rows: {(0,) * N: 1}}
    for l in range(1, N + 1):
        bp, bq = 1 << (w.letter(l) - 1), 1 << w.letter(l)
        new = {}
        for J, poly in minors.items():
            has_p, has_q = bool(J & bp), bool(J & bq)
            if not has_p and not has_q:
                new[J] = poly
                continue
            if has_p and has_q:
                targets = [(J, det)]
            elif has_p:
                targets = [(J, a), (J ^ bp ^ bq, b)]
            else:
                targets = [(J, d), (J ^ bp ^ bq, c)]
            for K, f in targets:
                out = new.setdefault(K, {})
                for s, cf in f.items():
                    for e, coeff in poly.items():
                        e2 = e[: l - 1] + (e[l - 1] + s,) + e[l:]
                        out[e2] = out.get(e2, 0) + cf * coeff
        minors = {K: poly for K, poly in new.items() if poly}
    cols = sum(1 << col for col in range(i - 1)) | 1 << i
    return minors.get(cols, {})


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


def render_reference(d):
    """The text of a monomial, one pass per sign over (position, exponent) pairs."""

    def factor(l, e):
        return f"t_{l}" if e == 1 else f"t_{l}^{e}"

    num = [(l, e) for l, e in enumerate(d, start=1) if e > 0]
    den = [(l, -e) for l, e in enumerate(d, start=1) if e < 0]
    num_s = "*".join(factor(l, e) for l, e in num) if num else "1"
    if not den:
        return num_s
    if len(den) == 1:
        return num_s + "/" + factor(*den[0])
    return num_s + "/(" + "*".join(factor(l, e) for l, e in den) + ")"
