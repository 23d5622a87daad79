"""Exact Laurent monomials in t_1 .. t_N as plain integer exponent tuples.

The monomial prod_l t_l^{d_l} is the tuple (d_1, ..., d_N); it is hashed,
compared and used as a dict key as it is.
"""

from __future__ import annotations

from .rootsystem import CartanData
from .wordtools import ReducedWord, j_plus


class NoNextOccurrence(ValueError):
    """a_monomial asked at a position whose letter never repeats."""


def unit(N: int, l: int) -> tuple[int, ...]:
    """The single variable t_l, 1-based l."""
    return tuple(1 if t == l - 1 else 0 for t in range(N))


def render(d: tuple[int, ...]) -> str:
    """Readable form, e.g. "t_1*t_5^2/t_6" or "t_7/(t_8*t_9)" or "1"."""
    num, den = [], []
    for l, e in enumerate(d, start=1):
        if e > 0:
            num.append(f"t_{l}" if e == 1 else f"t_{l}^{e}")
        elif e < 0:
            den.append(f"t_{l}" if e == -1 else f"t_{l}^{-e}")
    num_s = "*".join(num) if num else "1"
    if not den:
        return num_s
    if len(den) == 1:
        return num_s + "/" + den[0]
    return num_s + "/(" + "*".join(den) + ")"


def a_monomial(cd: CartanData, w: ReducedWord, j: int) -> tuple[int, ...]:
    """A_j = t_j t_{j+} prod_{j<l<j+} t_l^{a_{i_l, i_j}}.

    Every graph edge divides by one of these. A position outside [1, N]
    raises ValueError.
    """
    if not 1 <= j <= w.N:
        raise ValueError(f"position {j} out of [1, {w.N}]")
    jp = j_plus(w, j)
    if jp > w.N:
        raise NoNextOccurrence(f"letter {w.letter(j)} does not occur again after position {j}")
    c = w.letters[j - 1] - 1
    out = [0] * w.N
    out[j : jp - 1] = [cd.rows[x - 1][c] for x in w.letters[j : jp - 1]]
    out[j - 1] = out[jp - 1] = 1
    return tuple(out)


def lowest_term(cd: CartanData, w: ReducedWord, i: int) -> tuple[int, ...]:
    """t_J prod_{l>J} t_l^{a_{i_l, i}} with J the last position carrying letter i."""
    J = max(l for l in range(1, w.N + 1) if w.letter(l) == i)
    out = [0] * w.N
    out[J - 1] = 1
    for l in range(J + 1, w.N + 1):
        out[l - 1] = cd.a(w.letter(l), i)
    return tuple(out)
