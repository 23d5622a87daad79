"""Cartan matrices, weights, roots and simple reflections for the finite types.

Conventions, fixed once for the whole package:

* the Cartan matrix is stored as ``a[i][j] = alpha_j(h_i)``, with 1-based
  indices in every public signature;
* weights and roots are plain integer tuples of length n, hashed and
  compared as they are;
* a weight lives in fundamental-weight coordinates, entry t-1 is
  ``<h_t, lam>``;
* a root lives in simple-root coordinates, entry t-1 is the coefficient of
  ``alpha_t``.

The root table (root_table, built once per root system) lists every root
with its coroot and, per simple reflection, the permutation of their indices;
positive_roots, the largest coroot coefficients and the word code in
wordtools read it.

Diagrams are numbered as in Kac's tables: A/B/C are chains 1..n with the
asymmetric bond at the tail (B has a[n][n-1] = -2, C has a[n-1][n] = -2),
D forks at the tail (n-1 and n both attached to n-2), E6/E7/E8 hang their
last node off node 3/4/5 of the chain, F4 has a[3][2] = -2, and G2 has
a[2][1] = -3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class RootSystemError(ValueError):
    """Illegal Cartan type, rank or index."""


class NotMinuscule(ValueError):
    """The fundamental representation for this index is not minuscule."""


_FAMILIES = "ABCDEFG"
_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class CartanType:
    """A family letter plus a rank, e.g. C3 or E7."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise RootSystemError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if not isinstance(self.rank, int) or self.rank < lo or (hi is not None and self.rank > hi):
            raise RootSystemError(f"rank {self.rank} is out of range for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        """Parse strings like "C3", "d4", " g2 " (case-insensitive)."""
        s = text.strip().upper()
        if len(s) < 2 or s[0] not in _FAMILIES or not s[1:].isdigit():
            raise RootSystemError(f"cannot parse a Cartan type from {text!r}")
        return cls(s[0], int(s[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class CartanData:
    """A Cartan matrix with its type tag.

    ``rows[i-1][j-1]`` is a_{i,j} = alpha_j(h_i).
    """

    ctype: CartanType
    n: int
    rows: tuple[tuple[int, ...], ...]

    def a(self, i: int, j: int) -> int:
        """Entry a_{i,j} = alpha_j(h_i), both indices 1-based."""
        return self.rows[i - 1][j - 1]


def fundamental_weight(n: int, i: int) -> tuple[int, ...]:
    """Lambda_i as a weight of length n."""
    if not 1 <= i <= n:
        raise RootSystemError(f"index {i} out of [1, {n}]")
    return tuple(1 if t == i - 1 else 0 for t in range(n))


def simple_root(n: int, j: int) -> tuple[int, ...]:
    """alpha_j as a root of length n."""
    if not 1 <= j <= n:
        raise RootSystemError(f"index {j} out of [1, {n}]")
    return tuple(1 if t == j - 1 else 0 for t in range(n))


def simple_root_weight(cd: CartanData, j: int) -> tuple[int, ...]:
    """alpha_j written in fundamental-weight coordinates (column j of the Cartan matrix)."""
    return tuple(cd.rows[t][j - 1] for t in range(cd.n))


def _bonds(ctype: CartanType) -> list[tuple[int, int, int, int]]:
    """Dynkin bonds as (i, j, a_ij, a_ji) with i < j."""
    fam, n = ctype.family, ctype.rank
    chain = [(i, i + 1, -1, -1) for i in range(1, n)]
    if fam == "A":
        return chain
    if fam == "B":
        chain[-1] = (n - 1, n, -1, -2)
        return chain
    if fam == "C":
        chain[-1] = (n - 1, n, -2, -1)
        return chain
    if fam == "D":
        return [(i, i + 1, -1, -1) for i in range(1, n - 2)] + [
            (n - 2, n - 1, -1, -1),
            (n - 2, n, -1, -1),
        ]
    if fam == "E":
        branch = {6: 3, 7: 4, 8: 5}[n]
        return [(i, i + 1, -1, -1) for i in range(1, n - 1)] + [(branch, n, -1, -1)]
    if fam == "F":
        return [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
    # G2
    return [(1, 2, -1, -3)]


@lru_cache(maxsize=None)
def cartan_matrix(ctype: CartanType) -> CartanData:
    """The Cartan matrix of the given type, a_{i,j} = alpha_j(h_i)."""
    n = ctype.rank
    m = [[2 if r == c else 0 for c in range(n)] for r in range(n)]
    for i, j, aij, aji in _bonds(ctype):
        m[i - 1][j - 1] = aij
        m[j - 1][i - 1] = aji
    return CartanData(ctype, n, tuple(tuple(row) for row in m))


def dual_cartan(cd: CartanData) -> CartanData:
    """The transposed Cartan matrix; the type tag is kept only as bookkeeping."""
    return CartanData(cd.ctype, cd.n, tuple(zip(*cd.rows)))


def reflect(cd: CartanData, j: int, lam: tuple[int, ...]) -> tuple[int, ...]:
    """s_j(lambda) = lambda - <h_j, lambda> alpha_j in fundamental coordinates."""
    cj = lam[j - 1]
    if cj == 0:
        return lam
    return tuple(lam[t] - cj * cd.rows[t][j - 1] for t in range(cd.n))


def reflect_root(cd: CartanData, j: int, beta: tuple[int, ...]) -> tuple[int, ...]:
    """s_j(beta) = beta - <h_j, beta> alpha_j in simple-root coordinates."""
    pairing = sum(a * c for a, c in zip(cd.rows[j - 1], beta))
    if pairing == 0:
        return beta
    out = list(beta)
    out[j - 1] -= pairing
    return tuple(out)


@dataclass(frozen=True)
class RootTable:
    """Every root of a root system with its coroot, and how each s_j permutes them.

    ``roots`` lists the positive roots first, alpha_1 .. alpha_n at indices
    0 .. n-1, then their negatives in the same order, so a root is positive
    exactly when its index is below ``positive``. ``coroots[r]`` is the coroot
    of ``roots[r]`` in simple-coroot coordinates, and ``reflections[j-1][r]``
    is the index of s_j(roots[r]).
    """

    positive: int
    roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    reflections: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def root_table(cd: CartanData) -> RootTable:
    """The root table of cd, built once per root system.

    The positive roots are the reflection closure of the simple roots inside
    the positive cone. A root reached as s_j(beta) gets the coroot
    s_j(beta^vee), reflected through the dual matrix: the coroot map commutes
    with the Weyl group, and the simple coroots have the simple roots'
    coordinates.
    """
    dual = dual_cartan(cd)
    roots = [simple_root(cd.n, j) for j in range(1, cd.n + 1)]
    coroots = list(roots)
    images = []  # images[r][j-1] = s_j(roots[r]), for the positive roots
    index = {beta: r for r, beta in enumerate(roots)}
    for beta, gamma in zip(roots, coroots):  # both lists grow while this walks them
        images.append([reflect_root(cd, j, beta) for j in range(1, cd.n + 1)])
        for j, img in enumerate(images[-1], start=1):
            # the image of a root is a root, so no negative coefficient means positive
            if min(img) >= 0 and img not in index:
                index[img] = len(roots)
                roots.append(img)
                coroots.append(reflect_root(dual, j, gamma))
    positive = len(roots)
    for r in range(positive):
        roots.append(tuple(-x for x in roots[r]))
        coroots.append(tuple(-x for x in coroots[r]))
        index[roots[-1]] = positive + r
    # s_j(-beta) = -s_j(beta), and negation moves an index by positive
    up = [[index[img] for img in column] for column in zip(*images)]
    reflections = tuple(
        tuple(row) + tuple(r + positive if r < positive else r - positive for r in row) for row in up
    )
    return RootTable(positive, tuple(roots), tuple(coroots), reflections)


def positive_roots(cd: CartanData) -> frozenset[tuple[int, ...]]:
    """All positive roots."""
    table = root_table(cd)
    return frozenset(table.roots[: table.positive])


@lru_cache(maxsize=None)
def max_coroot_coefficients(cd: CartanData) -> tuple[int, ...]:
    """Entry i-1: the largest alpha_i^vee coefficient of a positive coroot.

    That is max |<h_t, mu>| over t and the weights mu of V(-w0 Lambda_i), whose
    extremal weights -W Lambda_i pair with h_t as Lambda_i with the coroots.
    """
    table = root_table(cd)
    return tuple(map(max, zip(*table.coroots[: table.positive])))


@lru_cache(maxsize=None)
def minuscule_indices(cd: CartanData) -> frozenset[int]:
    """Indices i whose fundamental representation is minuscule.

    Criterion: every positive coroot pairs with Lambda_i in {0, 1}.
    """
    return frozenset(i for i, top in enumerate(max_coroot_coefficients(cd), start=1) if top <= 1)
