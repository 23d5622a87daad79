"""Reduced words of the longest Weyl group element.

A word (i_1, ..., i_N) is validated through its beta sequence
beta_k = s_{i_N} s_{i_N-1} ... s_{i_k+1} (alpha_{i_k}): the word is a reduced
word of w0 exactly when N = |Phi+| and the beta_k are N pairwise distinct
positive roots. The product M = s_{i_N} ... s_{i_k+1} is carried as its
columns on simple-root coordinates from k = N down, so beta_k is column i_k
of M and one column update per letter gives the next M; enumeration keeps
the running product of a prefix the same way. The sequence is cached on the
word because source_index and several downstream checks reuse it, and so is
the table of next occurrences j -> j+ that every firing step reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rootsystem import CartanData, positive_roots, simple_root


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
    beta: tuple[tuple[int, ...], ...] = field(repr=False)
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


def _identity_columns(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if r == c else 0 for r in range(n)) for c in range(n)]


def _times_reflection(cd: CartanData, cols: list[tuple[int, ...]], j0: int) -> None:
    """cols <- cols * s_{j0+1}: col_c -= a[j][c] * col_j, rebinding only the changed columns."""
    base = cols[j0]
    for c0, acoef in enumerate(cd.rows[j0]):
        if acoef:
            cols[c0] = tuple(x - acoef * y for x, y in zip(cols[c0], base))


def _beta_sequence(cd: CartanData, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # cols[c][r]: coefficient of alpha_{r+1} in M(alpha_{c+1}), M = s_{i_N} ... s_{i_{k+1}}
    cols = _identity_columns(cd.n)
    betas = []
    for letter in reversed(letters):
        betas.append(cols[letter - 1])
        _times_reflection(cd, cols, letter - 1)
    return tuple(reversed(betas))


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
    positive = all(any(b) and min(b) >= 0 for b in betas)
    if not positive or len(set(betas)) != len(betas):
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
    cols = _identity_columns(n)
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
            if min(cols[j0]) < 0:
                continue
            saved = cols[:]
            _times_reflection(cd, cols, j0)
            word.append(j0 + 1)
            yield from walk()
            word.pop()
            cols[:] = saved

    yield from walk()
