"""The halving recursion behind every Karatsuba-style construction.

An even-size instance of the phase polynomial g(a,b,c) xor h(a,b,c') splits
into three half-size instances of itself; an odd one first grows by one
position. `SUBCALLS` writes the split once for `ccz_count`, the builders in
`synth` and the identity checks in `phasepoly`.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")

A, B, C, CP = range(4)  # registers, in the order (a, b, c, c')
# Part 2*r is the low half of register r and part 2*r + 1 its high half.
A_L, A_R, B_L, B_R, C_L, C_R, CP_L, CP_R = range(8)

# For each sub-call, its a, b, c and c' as XORs of parts. Builders emit the
# sub-calls, and the parts of each entry, in this order.
SUBCALLS = (
    ((A_L, A_R), (B_L, B_R), (C_R,), (CP_L,)),
    ((A_R,), (B_R,), (CP_L, C_R), (CP_L, CP_R)),
    ((A_L,), (B_L,), (C_L, C_R), (CP_L, C_R)),
)
_PAIRS = tuple(tuple((e[0], e[1] if len(e) > 1 else None) for e in call) for call in SUBCALLS)


def split_even(
    regs: Sequence[T], combine: Callable[[T, T], T], halves: Callable[[T], tuple[T, T]]
) -> list[list[T]]:
    """The three half-size sub-instances (a, b, c, c') of an even instance.

    `halves(r)` splits a register into its (low, high) halves and
    `combine(x, y)` XORs two halves; a one-part entry is the half itself.
    """
    parts: list[T] = []
    for r in regs:
        parts += halves(r)
    calls = []
    for call in _PAIRS:
        sub = []
        for i, j in call:
            sub.append(parts[i] if j is None else combine(parts[i], parts[j]))
        calls.append(sub)
    return calls


def pad_odd(a: list[T], b: list[T], c: list[T], cp: list[T], zero: Callable[[], T]):
    """Grow registers by one position: zeros for a/b, c'_0 moves into c.

    `zero()` makes each new entry, so mutable zeros are never shared.
    """
    return a + [zero()], b + [zero()], c + [cp[0]], cp[1:] + [zero(), zero()]


def xor_lists(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """`combine` for registers held as lists of bit masks."""
    return list(map(operator.xor, u, v))


def list_halves(x: list[T]) -> tuple[list[T], list[T]]:
    """`halves` for registers held as lists."""
    h = len(x) // 2
    return x[:h], x[h:]
