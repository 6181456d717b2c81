"""Classic de Bruijn sequences over the alphabet ``1..n``.

A cyclic sequence of order k contains every length-k word exactly once
among its ``n**k`` cyclic windows.  The acyclic form has length
``n**k + k - 1``, contains every word exactly once as a plain substring
and repeats its first ``k - 1`` symbols at the end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

# Generation and exhaustive enumeration are meant for desk scale.
GENERATE_LIMIT = 2**20  # max n**k (k when n = 1) for generate_cyclic
ENUMERATE_LIMIT = 2**20  # max count_cyclic(n, k) for enumerate_all_cyclic


class SequenceError(Exception):
    pass


class TooLargeError(SequenceError):
    pass


class BadIndexError(SequenceError):
    pass


def count_cyclic(n: int, k: int) -> int:
    """Number of cyclic de Bruijn sequences, rotations counted once."""
    _check_order(n, k)
    return math.factorial(n) ** (n ** (k - 1)) // n**k


def count_acyclic(n: int, k: int) -> int:
    """Number of acyclic de Bruijn sequences."""
    _check_order(n, k)
    return math.factorial(n) ** (n ** (k - 1))


def count_log10(n: int, k: int, cyclic: bool = True) -> float:
    """``log10`` of :func:`count_cyclic` (or :func:`count_acyclic`),
    from ``lgamma`` and without building the count; ``inf`` past the
    float range.  Size guards read it: counts can have millions of
    digits."""
    _check_order(n, k)
    if n == 1:
        return 0.0
    try:
        log10 = float(n) ** (k - 1) * math.lgamma(n + 1) / math.log(10)
        return log10 - k * math.log10(n) if cyclic else log10
    except OverflowError:
        return math.inf


def _check_order(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise SequenceError("need n >= 1 and k >= 1")


def _check_length(n: int, k: int) -> None:
    """Refuse (n, k) whose sequence passes :data:`GENERATE_LIMIT` symbols:
    n**k of them, or for n = 1 the acyclic length n**k + k - 1 = k.  For
    n >= 2, n**k >= 2**k, so k > 20 settles it without building n**k."""
    if n == 1:
        if k > GENERATE_LIMIT:
            raise TooLargeError(f"k exceeds the {GENERATE_LIMIT} generation budget")
    elif k > math.log2(GENERATE_LIMIT) or n**k > GENERATE_LIMIT:
        raise TooLargeError(f"n**k exceeds the {GENERATE_LIMIT} generation budget")


def _windows_distinct(symbols: Sequence[int], k: int) -> bool:
    length = len(symbols)
    seen = set()
    for i in range(length):
        win = tuple(symbols[(i + j) % length] for j in range(k))
        if win in seen:
            return False
        seen.add(win)
    return True


def is_cyclic_debruijn(symbols: Sequence[int], n: int, k: int) -> bool:
    """True iff ``symbols`` is a cyclic de Bruijn sequence for (n, k)."""
    _check_order(n, k)
    if len(symbols) != n**k:
        return False
    if any(s < 1 or s > n for s in symbols):
        return False
    return _windows_distinct(symbols, k)


def is_acyclic_debruijn(symbols: Sequence[int], n: int, k: int) -> bool:
    """True iff ``symbols`` is an acyclic de Bruijn sequence for (n, k).

    Once the last ``k - 1`` symbols repeat the first, the plain windows
    of the whole word are the cyclic windows of its first ``n**k``
    symbols.
    """
    _check_order(n, k)
    if len(symbols) != n**k + k - 1:
        return False
    if tuple(symbols[: k - 1]) != tuple(symbols[len(symbols) - (k - 1) :]):
        return False
    return is_cyclic_debruijn(symbols[: n**k], n, k)


@dataclass(frozen=True)
class DeBruijnSequence:
    """A validated de Bruijn sequence; construction checks the window property."""

    n: int
    k: int
    symbols: tuple[int, ...]
    cyclic: bool = True

    def __post_init__(self) -> None:
        ok = (
            is_cyclic_debruijn(self.symbols, self.n, self.k)
            if self.cyclic
            else is_acyclic_debruijn(self.symbols, self.n, self.k)
        )
        if not ok:
            form = "cyclic" if self.cyclic else "acyclic"
            raise SequenceError(
                f"not a valid {form} de Bruijn sequence for n={self.n}, k={self.k}"
            )

    def __len__(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        return "(" + ",".join(str(s) for s in self.symbols) + ")"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "form": "cyclic" if self.cyclic else "acyclic",
            "symbols": list(self.symbols),
        }


def rotated(symbols: Sequence[int], start: int) -> tuple[int, ...]:
    """Cyclic left rotation: element ``start`` becomes the first element."""
    length = len(symbols)
    return tuple(symbols[(start + i) % length] for i in range(length))


def acyclic_from_cyclic(seq: DeBruijnSequence, start: int = 0) -> DeBruijnSequence:
    """Read the acyclic form starting at position ``start`` of a cyclic one.

    Walks ``n**k + k - 1`` symbols around the cycle, so the first ``k - 1``
    symbols reappear at the end.  Raises :class:`BadIndexError` unless
    ``0 <= start < n**k``.
    """
    if not seq.cyclic:
        raise SequenceError("input must be cyclic")
    if not 0 <= start < len(seq.symbols):
        raise BadIndexError(f"start must lie in 0..{len(seq.symbols) - 1}")
    symbols = rotated(seq.symbols, start)
    # The one-color cycle (1,) is shorter than the k - 1 symbols it repeats.
    wrap = symbols[: seq.k - 1] if seq.n > 1 else symbols * (seq.k - 1)
    return DeBruijnSequence(seq.n, seq.k, symbols + wrap, cyclic=False)


def _lex_least_cyclic(n: int, k: int) -> tuple[int, ...]:
    # Lyndon word concatenation; emits the lexicographically least cyclic
    # sequence, which reads the all-1 word first and always prefers the
    # smallest feasible symbol.  Duval's loop walks the Lyndon words of
    # length at most k in lexicographic order; those whose length divides
    # k are concatenated.
    out: list[int] = []
    word = [-1]
    while word:
        word[-1] += 1
        p = len(word)
        if k % p == 0:
            out.extend(word)
        while len(word) < k:
            word.append(word[-p])
        while word and word[-1] == n - 1:
            word.pop()
    return tuple(s + 1 for s in out)


def _eulerian_cyclic(n: int, k: int, rng: random.Random) -> tuple[int, ...]:
    # Hierholzer circuit on the graph whose vertices are (k-1)-words and
    # whose edges append one symbol; edge pick order is rng-shuffled.
    start = (1,) * (k - 1)
    out_edges: dict[tuple[int, ...], list[int]] = {}
    stack = [start]
    sym_stack: list[int] = []
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        if v not in out_edges:
            out_edges[v] = list(range(1, n + 1))
            rng.shuffle(out_edges[v])
        if out_edges[v]:
            s = out_edges[v].pop()
            stack.append((v + (s,))[1:])
            sym_stack.append(s)
        else:
            stack.pop()
            if sym_stack:
                circuit.append(sym_stack.pop())
    circuit.reverse()
    return tuple(circuit)


def generate_cyclic(
    n: int, k: int, method: str = "greedy-least", seed: int | None = 0
) -> DeBruijnSequence:
    """Generate one cyclic de Bruijn sequence.

    ``greedy-least`` is deterministic and yields the lexicographically
    least sequence, the one beginning with the all-1 word that extends by
    the smallest feasible symbol.  ``eulerian`` draws a seeded random
    Eulerian circuit of the order-(k-1) transition graph.
    """
    _check_order(n, k)
    _check_length(n, k)
    if method == "greedy-least":
        symbols = _lex_least_cyclic(n, k)
    elif method == "eulerian":
        symbols = _eulerian_cyclic(n, k, random.Random(seed))
    else:
        raise SequenceError(f"unknown method {method!r}")
    return DeBruijnSequence(n, k, symbols, cyclic=True)


def enumerate_all_cyclic(n: int, k: int) -> list[DeBruijnSequence]:
    """All cyclic de Bruijn sequences for (n, k), one per rotation class.

    Each class is reported by its lexicographically least rotation, which
    is the unique rotation starting with the all-1 window; results come
    out in lexicographic order.  Guarded by :data:`ENUMERATE_LIMIT` and,
    as :func:`generate_cyclic` is, by :data:`GENERATE_LIMIT`.
    """
    if (
        count_log10(n, k) > math.log10(ENUMERATE_LIMIT) + 1
        or count_cyclic(n, k) > ENUMERATE_LIMIT
    ):
        raise TooLargeError(
            f"would enumerate more than {ENUMERATE_LIMIT} sequences, over the budget"
        )
    _check_length(n, k)
    length = n**k
    results: list[DeBruijnSequence] = []
    word = [1] * length
    seen = {(1,) * k}

    def window_at(pos: int) -> tuple[int, ...]:
        return tuple(word[(pos + j) % length] for j in range(k))

    def fill(pos: int) -> None:
        # positions k..length-1; windows ending at earlier slots are fixed
        if pos == length:
            wrap = [window_at(length - k + 1 + i) for i in range(k - 1)]
            if len(set(wrap)) == len(wrap) and not (set(wrap) & seen):
                results.append(
                    DeBruijnSequence(n, k, tuple(word), cyclic=True)
                )
            return
        for s in range(1, n + 1):
            word[pos] = s
            win = tuple(word[pos - k + 1 : pos + 1])
            if win not in seen:
                seen.add(win)
                fill(pos + 1)
                seen.discard(win)
        word[pos] = 1

    if length == 1:
        return [DeBruijnSequence(n, k, (1,), cyclic=True)]
    fill(k)
    return results

