"""The halving table: one split, the same on every register representation."""

import random

import pytest

from gf2kq.halving import SUBCALLS, list_halves, pad_odd, reshape, shrink, split_even, xor_lists


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


def test_shrink_undoes_pad_odd():
    regs = ([1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12])
    padded = pad_odd(*regs, int)
    assert padded == ([1, 2, 3, 0], [4, 5, 6, 0], [7, 8, 9, 10], [11, 12, 0, 0])
    assert shrink(*padded) == regs


def _shape(k, zero_top):
    """Size-k registers of distinct nonzero forms; a and b zero at the top if asked."""
    a, b, c, cp = ([r * 100 + i + 1 for i in range(k)] for r in range(4))
    if zero_top:
        a[-1] = b[-1] = 0
    return a, b, c, cp


@pytest.mark.parametrize(
    "k,zero_top,size,step",
    [
        (1, False, 1, "kept"),
        (2, False, 2, "kept"),
        (3, False, 4, "padded"),
        (2, True, 1, "shrunk"),
        (3, True, 2, "shrunk"),
        (5, True, 4, "shrunk"),
        (4, True, 4, "kept"),
        (6, True, 6, "kept"),
    ],
)
def test_reshape_shrinks_zero_topped_odd_and_size_two_then_pads_odd(k, zero_top, size, step):
    regs = _shape(k, zero_top)
    out = reshape(*regs, int)
    assert len(out) == 4 and all(len(r) == size for r in out)
    want = {"kept": regs, "padded": pad_odd(*regs, int), "shrunk": shrink(*regs)}[step]
    assert tuple(out) == tuple(want)
