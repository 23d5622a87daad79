"""Reduced words of the longest Weyl group element.

A word (i_1, ..., i_N) is validated through its beta sequence
beta_k = s_{i_N} s_{i_N-1} ... s_{i_k+1} (alpha_{i_k}): the word is a reduced
word of w0 exactly when N = |Phi+| and the beta_k are N pairwise distinct
positive roots. Each beta_k is walked through the root table of the root
system (rootsystem.root_table, built once per root system), which lists
every root and, per letter, the index of its reflection: beta_k costs N - k
table lookups, and the word keeps the root indices, from which the coroot
sequence is read off the same table. Enumeration carries each prefix as the
permutation of the table's roots it induces; its search already proves each
word reduced and longest, so it can yield bare letter tuples. The word also
keeps the table of next occurrences j -> j+ that every firing step reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rootsystem import CartanData, RootSystemError, root_table


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
    # beta_ids[k-1]: the index of beta_k in root_table(cd).roots
    beta_ids: tuple[int, ...] = field(repr=False, compare=False)
    # jplus[j-1] = j+, the next position with letter i_j, or N+1 when none
    jplus: tuple[int, ...] = field(repr=False, compare=False)
    # per-word facts other modules prove once and keep (see decograph)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def N(self) -> int:
        return len(self.letters)

    @property
    def beta(self) -> tuple[tuple[int, ...], ...]:
        """The beta sequence as roots in simple-root coordinates."""
        roots = root_table(self.cd).roots
        return tuple(roots[r] for r in self.beta_ids)

    def letter(self, j: int) -> int:
        """i_j, 1-based j."""
        return self.letters[j - 1]

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)


def _beta_sequence(cd: CartanData, letters: tuple[int, ...]) -> tuple[int, ...]:
    """beta_1, ..., beta_N as indices into root_table(cd).roots.

    alpha_{i_k} has index i_k - 1, and beta_k is its image under
    s_{i_{k+1}}, then s_{i_{k+2}}, ..., then s_{i_N}: each letter moves the
    roots of every earlier position one reflection on, one lookup each.
    """
    reflections = root_table(cd).reflections
    ids: list[int] = []
    for x in letters:
        step = reflections[x - 1]
        ids = [step[r] for r in ids]
        ids.append(x - 1)
    return tuple(ids)


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
    """Check that letters form a reduced word of w0 and keep its beta sequence."""
    seq = tuple(int(x) for x in letters)
    for x in seq:
        if not 1 <= x <= cd.n:
            raise WordError(f"letter {x} out of [1, {cd.n}]")
    expected = root_table(cd).positive
    if len(seq) != expected:
        raise WrongLength(f"expected {expected} letters for {cd.ctype}, got {len(seq)}")
    ids = _beta_sequence(cd, seq)
    if max(ids) >= expected or len(set(ids)) != len(ids):
        raise NotReducedOrNotLongest(f"{seq} is not a reduced word of the longest element")
    return ReducedWord(cd, seq, ids, _next_occurrences(seq))


def check_validated_for(cd: CartanData, w: ReducedWord) -> None:
    """Raise WordError unless w was validated for cd; B3 and C3, say, share their reduced words."""
    if w.cd != cd:
        raise WordError(f"word {w} was validated for {w.cd.ctype}, not {cd.ctype}")


def parse_letters(text: str) -> tuple[int, ...]:
    """The letters of a comma-separated word like "2,3,2,1,2,3,2,3,1", not yet validated."""
    parts = [p for p in text.replace(" ", "").split(",") if p]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as e:
        raise WordError(f"cannot parse word from {text!r}") from e


def parse_word(cd: CartanData, text: str) -> ReducedWord:
    """Parse and validate a comma-separated word like "2,3,2,1,2,3,2,3,1"."""
    return validate_word(cd, parse_letters(text))


def source_index(w: ReducedWord, i: int) -> int:
    """The unique k with beta_k = alpha_i."""
    if not 1 <= i <= w.cd.n:
        raise RootSystemError(f"index {i} out of [1, {w.cd.n}]")
    try:
        # alpha_i is root i - 1 of the table
        return w.beta_ids.index(i - 1) + 1
    except ValueError:
        raise WordError(f"no position carries alpha_{i}; the word is corrupt") from None


def j_plus(w: ReducedWord, j: int) -> int:
    """Next position after j with the same letter; N+1 when there is none."""
    return w.jplus[j - 1]


def _extensions(reflections, N: int, word: list[int], perm: list[int]):
    """The reduced words of w0 that extend the prefix word, in lexicographic order.

    perm[r] is the index of w(roots[r]) for the prefix w, so w s_j is perm
    read through s_j's reflection row. word grows and shrinks in place.
    """
    if len(word) == N:
        yield tuple(word)
        return
    for j0, step in enumerate(reflections):
        # w s_j stays reduced exactly when w(alpha_j) is positive, that is below
        # index N; alpha_{j0+1} is root j0
        if perm[j0] < N:
            word.append(j0 + 1)
            yield from _extensions(reflections, N, word, [perm[r] for r in step])
            word.pop()


def enumerate_w0_letters(cd: CartanData, limit: int = 100000):
    """Yield the letters of every reduced word of w0 in lexicographic order.

    The search (_extensions) only appends a letter that keeps its prefix
    reduced, so its words are yielded unvalidated. Raises LimitExceeded on
    the word after the first limit.
    """
    table = root_table(cd)
    words = _extensions(table.reflections, table.positive, [], list(range(len(table.roots))))
    for emitted, letters in enumerate(words):
        if emitted >= limit:
            raise LimitExceeded(f"more than {limit} reduced words")
        yield letters


def enumerate_w0_words(cd: CartanData, limit: int = 100000):
    """Every reduced word of w0 in lexicographic order, validated (enumerate_w0_letters)."""
    for letters in enumerate_w0_letters(cd, limit):
        yield validate_word(cd, letters)
