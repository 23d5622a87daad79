"""Seeded random reduced words of the longest Weyl group element.

The rule is the one `tropicone.wordtools.enumerate_w0_words` walks: a prefix
w may be extended by letter j exactly when w(alpha_j) is still positive. The
sampler picks uniformly among those letters at each step, so every reduced
word of w0 has positive probability.
"""

from __future__ import annotations

import random


def random_reduced_word(cd, rng: random.Random) -> tuple[int, ...]:
    """One reduced word of w0 for the Cartan data cd, drawn with rng."""
    n = cd.n
    # cols[c][r]: coefficient of alpha_{r+1} in w(alpha_{c+1})
    cols = [[int(r == c) for r in range(n)] for c in range(n)]
    word: list[int] = []
    while True:
        allowed = [j0 for j0 in range(n) if all(x >= 0 for x in cols[j0])]
        if not allowed:
            return tuple(word)
        j0 = rng.choice(allowed)
        base = cols[j0]
        # w' = w s_j: col_c -= a[j][c] * col_j
        for c0, acoef in enumerate(cd.rows[j0]):
            if acoef:
                cols[c0] = [x - acoef * y for x, y in zip(cols[c0], base)]
        word.append(j0 + 1)
