"""Cyclic and acyclic de Bruijn sequences: counts, checks, generators."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prismatic import (
    DeBruijnSequence,
    acyclic_from_cyclic,
    count_acyclic,
    count_cyclic,
    enumerate_all_cyclic,
    generate_cyclic,
    is_acyclic_debruijn,
    is_cyclic_debruijn,
)
from prismatic.debruijn import (
    BadIndexError,
    SequenceError,
    TooLargeError,
    count_log10,
    rotated,
)

from goldens import CYC16, LEX_LEAST


def test_count_formulas():
    assert count_cyclic(2, 2) == 1
    assert count_cyclic(2, 3) == 2
    assert count_cyclic(2, 4) == 16
    assert count_cyclic(3, 2) == 24
    assert count_acyclic(2, 3) == 16
    assert count_acyclic(3, 2) == 216
    # acyclic = cyclic * n^k (one start per term)
    for n, k in [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]:
        assert count_acyclic(n, k) == count_cyclic(n, k) * n**k


def test_known_cyclic_sequence_checks():
    assert is_cyclic_debruijn(CYC16, 2, 4)
    assert not is_cyclic_debruijn(CYC16[:-1], 2, 4)
    broken = (1,) + CYC16[1:]
    assert not is_cyclic_debruijn(broken, 2, 4)


def test_cyclic_check_wraps_around():
    assert is_cyclic_debruijn((1, 1, 2, 2), 2, 2)
    assert not is_cyclic_debruijn((1, 2, 1, 2), 2, 2)


def test_acyclic_check():
    word = CYC16 + CYC16[:3]
    assert is_acyclic_debruijn(word, 2, 4)
    assert not is_acyclic_debruijn(CYC16, 2, 4)  # wrong length
    assert not is_acyclic_debruijn(word[:-1] + (word[-1] % 2 + 1,), 2, 4)


def test_sequence_dataclass_validates():
    seq = DeBruijnSequence(2, 4, CYC16)
    assert seq.text() == "(" + ",".join(str(s) for s in CYC16) + ")"
    with pytest.raises(SequenceError):
        DeBruijnSequence(2, 4, CYC16[:-1])
    with pytest.raises(SequenceError):
        DeBruijnSequence(2, 4, (1,) + CYC16[1:])


def test_acyclic_from_cyclic_start_zero():
    seq = DeBruijnSequence(2, 4, CYC16)
    acyc = acyclic_from_cyclic(seq, 0)
    assert acyc.symbols == CYC16 + (2, 1, 2)
    assert not acyc.cyclic
    assert acyc.symbols[: 3] == acyc.symbols[-3:]


def test_acyclic_from_cyclic_every_start():
    seq = DeBruijnSequence(2, 4, CYC16)
    words = {acyclic_from_cyclic(seq, s).symbols for s in range(16)}
    assert len(words) == 16
    assert all(is_acyclic_debruijn(w, 2, 4) for w in words)


def test_acyclic_from_cyclic_bad_start():
    seq = DeBruijnSequence(2, 4, CYC16)
    with pytest.raises(BadIndexError):
        acyclic_from_cyclic(seq, 16)
    with pytest.raises(BadIndexError):
        acyclic_from_cyclic(seq, -1)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_acyclic_from_cyclic_one_color(k):
    # The cycle (1,) is shorter than the k - 1 symbols the acyclic form repeats.
    assert acyclic_from_cyclic(DeBruijnSequence(1, k, (1,)), 0).symbols == (1,) * k


def test_lex_least_generator_goldens():
    for (n, k), expected in LEX_LEAST.items():
        seq = generate_cyclic(n, k, method="greedy-least")
        assert seq.symbols == expected
        assert is_cyclic_debruijn(seq.symbols, n, k)


def test_lex_least_is_minimal_among_rotations():
    seq = generate_cyclic(2, 4)
    assert seq.symbols == min(rotated(seq.symbols, i) for i in range(len(seq)))


def test_lex_least_is_global_minimum_small():
    # against full enumeration with all rotations
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        best = min(
            rotated(s.symbols, i) for s in enumerate_all_cyclic(n, k) for i in range(len(s))
        )
        assert generate_cyclic(n, k).symbols == best


def test_eulerian_generator_seeded():
    for seed in range(6):
        seq = generate_cyclic(3, 2, method="eulerian", seed=seed)
        assert is_cyclic_debruijn(seq.symbols, 3, 2)
    a = generate_cyclic(3, 2, method="eulerian", seed=3)
    b = generate_cyclic(3, 2, method="eulerian", seed=3)
    assert a == b


def test_generator_rejects_unknown_method():
    with pytest.raises(SequenceError):
        generate_cyclic(2, 3, method="by-hand")


def test_generator_rejects_huge_orders():
    with pytest.raises(TooLargeError):
        generate_cyclic(10, 7)


def test_enumerate_matches_formula():
    assert len(enumerate_all_cyclic(2, 2)) == 1
    assert len(enumerate_all_cyclic(2, 3)) == 2
    assert len(enumerate_all_cyclic(2, 4)) == 16
    assert len(enumerate_all_cyclic(3, 2)) == 24


def test_enumerate_matches_brute_force():
    # independent oracle: generate every word, filter, dedupe by rotation
    def brute(n, k):
        length = n**k
        reps = set()
        for word in itertools.product(range(1, n + 1), repeat=length):
            if is_cyclic_debruijn(word, n, k):
                reps.add(
                    min(
                        tuple(word[(i + j) % length] for j in range(length))
                        for i in range(length)
                    )
                )
        return reps

    for n, k in [(2, 2), (2, 3), (3, 2)]:
        enumerated = {
            min(rotated(s.symbols, i) for i in range(len(s))) for s in enumerate_all_cyclic(n, k)
        }
        assert enumerated == brute(n, k)


def test_enumerate_yields_distinct_valid_sequences():
    seqs = enumerate_all_cyclic(2, 4)
    assert len({s.symbols for s in seqs}) == 16
    for s in seqs:
        assert is_cyclic_debruijn(s.symbols, 2, 4)
        assert s.symbols[:4] == (1, 1, 1, 1)


# The enumeration budget admits every n >= 2 pair below with at most
# 2**20 sequences; n >= 11 or k >= 6 pass it.  These are the pairs of at
# most 2**15 sequences: (9, 1), (3, 3) and (10, 1) list 40,320 to 373,248
# and take 1.4 to 36 s.
ENUMERATED_PAIRS = [
    (n, k) for n in range(2, 11) for k in range(1, 6) if count_log10(n, k) <= 15 * math.log10(2)
]


@pytest.mark.parametrize("n, k", ENUMERATED_PAIRS + [(1, 1), (1, 2), (1, 997), (1, 2000)])
def test_generator_gives_the_first_enumerated_sequence(n, k):
    assert generate_cyclic(n, k) == enumerate_all_cyclic(n, k)[0]


def test_one_color_orders_past_the_budget_are_refused():
    assert generate_cyclic(1, 2**20, method="eulerian").symbols == (1,)
    for call in (generate_cyclic, enumerate_all_cyclic):
        with pytest.raises(TooLargeError):
            call(1, 2**20 + 1)


def test_enumerate_rejects_huge_orders():
    with pytest.raises(TooLargeError):
        enumerate_all_cyclic(4, 4)


def test_rotated():
    assert rotated((1, 2, 3, 4), 2) == (3, 4, 1, 2)
    assert rotated((1, 2, 3, 4), 0) == (1, 2, 3, 4)


def test_trivial_single_symbol_cases():
    # one symbol: the cyclic sequence has length 1^k = 1
    assert count_cyclic(1, 2) == 1
    assert is_cyclic_debruijn((1,), 1, 2)
    seq = generate_cyclic(1, 2)
    assert seq.symbols == (1,)
    assert len(enumerate_all_cyclic(1, 2)) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)]),
    st.integers(0, 999),
)
def test_eulerian_output_is_always_valid(order, seed):
    n, k = order
    seq = generate_cyclic(n, k, method="eulerian", seed=seed)
    assert is_cyclic_debruijn(seq.symbols, n, k)
    assert len(seq.symbols) == n**k


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 3), (2, 4), (3, 2)]), st.integers(0, 99))
def test_every_rotation_is_cyclic_debruijn(order, seed):
    n, k = order
    seq = generate_cyclic(n, k, method="eulerian", seed=seed)
    for i in range(len(seq)):
        assert is_cyclic_debruijn(rotated(seq.symbols, i), n, k)
