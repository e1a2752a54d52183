"""The halving table: one split, the same on every register representation."""

import random

import pytest

from gf2kq.halving import SUBCALLS, list_halves, pad_odd, split_even, xor_lists


def _bits(x, n):
    return [(x >> i) & 1 for i in range(n)]


def _mask_halves(h):
    return lambda x: (x & ((1 << h) - 1), x >> h)


@pytest.mark.parametrize("n", range(2, 65, 2))
def test_split_even_masks_agree_with_bit_lists(n):
    rng = random.Random(n)
    for _ in range(20):
        regs = [rng.getrandbits(n) for _ in range(4)]
        on_masks = split_even(regs, lambda x, y: x ^ y, _mask_halves(n // 2))
        on_lists = split_even([_bits(x, n) for x in regs], xor_lists, list_halves)
        assert [[_bits(x, n // 2) for x in call] for call in on_masks] == on_lists


def test_split_even_follows_the_table():
    regs = [[1, 2], [4, 8], [16, 32], [64, 128]]
    calls = split_even(regs, xor_lists, list_halves)
    assert len(calls) == len(SUBCALLS) == 3
    assert calls == [
        [[3], [12], [32], [64]],
        [[2], [8], [96], [192]],
        [[1], [4], [48], [96]],
    ]


def test_pad_odd_uses_fresh_zeros():
    a, b, c, cp = pad_odd([1], [2], [4], [8], list)
    assert (a, b, c, cp) == ([1, []], [2, []], [4, 8], [[], []])
    assert cp[0] is not cp[1]
