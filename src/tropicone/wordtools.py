"""Reduced words of the longest Weyl group element.

A word (i_1, ..., i_N) is validated through its beta sequence
beta_k = s_{i_N} s_{i_N-1} ... s_{i_k+1} (alpha_{i_k}): the word is a reduced
word of w0 exactly when N = |Phi+| and the beta_k are N pairwise distinct
positive roots. The sequence is cached on the word because source_index and
several downstream checks reuse it, and so is the table of next occurrences
j -> j+ that every firing step reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rootsystem import (
    CartanData,
    RootVec,
    positive_roots,
    reflect_root,
    simple_root,
)


class WordError(ValueError):
    """A letter sequence that is not usable as a reduced word input."""


class WrongLength(WordError):
    """The sequence does not have length |Phi+|."""


class NotReducedOrNotLongest(WordError):
    """The beta sequence repeats or leaves the positive roots."""


class LimitExceeded(RuntimeError):
    """The word enumeration hit its cap."""


@dataclass(frozen=True)
class ReducedWord:
    cd: CartanData
    letters: tuple[int, ...]
    beta: tuple[RootVec, ...] = field(repr=False)
    # jplus[j-1] = j+, the next position with letter i_j, or N+1 when none
    jplus: tuple[int, ...] = field(repr=False, compare=False)
    # per-word facts other modules prove once and keep (see decograph)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def N(self) -> int:
        return len(self.letters)

    def letter(self, j: int) -> int:
        """i_j, 1-based j."""
        return self.letters[j - 1]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


def _beta_sequence(cd: CartanData, letters: tuple[int, ...]) -> tuple[RootVec, ...]:
    N = len(letters)
    betas = []
    for k0 in range(N):
        beta = simple_root(cd.n, letters[k0])
        # innermost reflection first: s_{i_{k+1}}, then s_{i_{k+2}}, ..., s_{i_N}
        for l0 in range(k0 + 1, N):
            beta = reflect_root(cd, letters[l0], beta)
        betas.append(beta)
    return tuple(betas)


def _next_occurrences(letters: tuple[int, ...]) -> tuple[int, ...]:
    """j+ for every 1-based position j, in one reverse pass."""
    N = len(letters)
    seen: dict[int, int] = {}
    out = [N + 1] * N
    for j in range(N, 0, -1):
        letter = letters[j - 1]
        out[j - 1] = seen.get(letter, N + 1)
        seen[letter] = j
    return tuple(out)


def validate_word(cd: CartanData, letters) -> ReducedWord:
    """Check that letters form a reduced word of w0 and cache its beta sequence."""
    seq = tuple(int(x) for x in letters)
    for x in seq:
        if not 1 <= x <= cd.n:
            raise WordError(f"letter {x} out of [1, {cd.n}]")
    expected = len(positive_roots(cd))
    if len(seq) != expected:
        raise WrongLength(f"expected {expected} letters for {cd.ctype}, got {len(seq)}")
    betas = _beta_sequence(cd, seq)
    if not all(b.is_positive for b in betas) or len(set(betas)) != len(betas):
        raise NotReducedOrNotLongest(f"{seq} is not a reduced word of the longest element")
    return ReducedWord(cd, seq, betas, _next_occurrences(seq))


def parse_word(cd: CartanData, text: str) -> ReducedWord:
    """Parse a comma-separated word like "2,3,2,1,2,3,2,3,1"."""
    parts = [p for p in text.replace(" ", "").split(",") if p]
    try:
        seq = [int(p) for p in parts]
    except ValueError as e:
        raise WordError(f"cannot parse word from {text!r}") from e
    return validate_word(cd, seq)


def source_index(w: ReducedWord, i: int) -> int:
    """The unique k with beta_k = alpha_i."""
    target = simple_root(w.cd.n, i)
    for k, beta in enumerate(w.beta, start=1):
        if beta == target:
            return k
    raise WordError(f"no position carries alpha_{i}; the word is corrupt")


def j_plus(w: ReducedWord, j: int) -> int:
    """Next position after j with the same letter; N+1 when there is none."""
    return w.jplus[j - 1]


def enumerate_w0_words(cd: CartanData, limit: int = 100000):
    """Yield every reduced word of w0 in lexicographic order.

    Depth-first search over prefixes; a letter j may extend a prefix w exactly
    when w(alpha_j) is still positive. The running product is kept as the
    matrix of w on simple-root coordinates, columnwise. Raises LimitExceeded
    on the word after the cap.
    """
    n = cd.n
    N = len(positive_roots(cd))
    # cols[c][r]: coefficient of alpha_{r+1} in w(alpha_{c+1})
    cols = [[1 if r == c else 0 for r in range(n)] for c in range(n)]
    word: list[int] = []
    emitted = 0

    def walk():
        nonlocal emitted
        if len(word) == N:
            if emitted >= limit:
                raise LimitExceeded(f"more than {limit} reduced words")
            emitted += 1
            yield validate_word(cd, tuple(word))
            return
        for j0 in range(n):
            base = cols[j0]
            if any(x < 0 for x in base):
                continue
            saved = [col[:] for col in cols]
            ajrow = cd.rows[j0]
            base = base[:]
            # w' = w composed with s_j: col_c -= a[j][c] * col_j
            for c0 in range(n):
                acoef = ajrow[c0]
                if acoef:
                    colc = cols[c0]
                    for r in range(n):
                        colc[r] -= acoef * base[r]
            word.append(j0 + 1)
            yield from walk()
            word.pop()
            for c0 in range(n):
                cols[c0][:] = saved[c0]
        return

    yield from walk()
