"""The halving recursion behind every Karatsuba-style construction.

An even-size instance of the phase polynomial g(a,b,c) xor h(a,b,c') splits
into three half-size instances of itself (`SUBCALLS`). `reshape` readies
each instance for the split: one whose a and b are zero at the top, as the
(A_R, B_R) sub-call of a padded instance is, drops that position
(`shrink`, the inverse of `pad_odd`), and an odd one grows by one
(`pad_odd`). A size-k instance thus recurses on two instances of size
ceil(k/2) and one of size floor(k/2), and has Karatsuba's unbalanced count
of base cases, M(k) = 2 M(ceil(k/2)) + M(floor(k/2)) with M(1) = 1, which
is at most 3^ceil(log2 k). The table and `reshape` write the recursion once
for `ccz_count`, the builders in `synth` and the identity checks in
`phasepoly`; `SCHEDULES`, derived from the table, places the sub-calls of
every builder on wires, given which of them it runs at the same time
(`GROUPINGS`).
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
# The sub-call on (A_R, B_R), which inherits its parent's zero top of a and b.
RIGHT = [call[:2] for call in SUBCALLS].index(((A_R,), (B_R,)))
_PAIRS = tuple(tuple((e[0], e[1] if len(e) > 1 else None) for e in call) for call in SUBCALLS)


def zero_topped(a: Sequence, b: Sequence) -> bool:
    """Whether an instance's a and b are zero (falsy) at the top."""
    return not a[-1] and not b[-1]


def read_span(entry: int, size: int, call: int | None = None, zero_top: bool = False) -> int:
    """How many low positions of its entry `entry` a size-`size` sub-call reads.

    A size-k instance's h puts a_i b_j on c'_(i+j-k), and i + j <= 2k - 2,
    so it reads c' only at 0..k-2: a builder may leave the top c' position
    unbuilt. The (A_R, B_R) sub-call (`call`) of a `zero_top` parent has a
    and b zero at the top too; then i, j <= k - 2 and it reads c' only at
    0..k-4. Whatever an unbuilt slot holds stays above what the sub-call
    reads, is padded into a zero-topped instance's dead positions, or is
    dropped by a shrink.
    """
    if entry != CP:
        return size
    return max(size - 3, 0) if zero_top and call == RIGHT else size - 1


def _route(entry: tuple[int, ...], named: list[int]) -> tuple[int | None, tuple[int, ...]]:
    """Where an entry of `SUBCALLS` lives, as (home, sources).

    A one-part entry is its part as it is: (part, ()). A two-part entry
    with a part named once in `named`, the parts of the calls run with it,
    is that part, with the other summed into it in place. Any other entry
    gets new wires (home None) holding the sum of its parts.
    """
    own = [part for part in entry if len(entry) == 1 or named.count(part) == 1]
    if not own:
        return None, entry
    return own[0], tuple(part for part in entry if part != own[0])


def prep_steps(
    routing: Sequence[Sequence[tuple]], calls: Sequence[int]
) -> list[tuple[int, int, int]]:
    """The XORs of `routing`'s `calls` as (call, entry, part) steps, in a shallow order.

    Entries of two or more sources go first: each step takes the earliest
    layer after its entry's last step in which neither its part nor its
    target has a step. In-place sums then fill the gaps left on their
    parts. Steps come out layer by layer, in table order within a layer.
    """
    entries = [(c, e) for c in calls for e in range(len(routing[c]))]
    entries.sort(key=lambda ce: len(routing[ce[0]][ce[1]][1]) < 2)
    busy = set()
    placed = []
    for c, e in entries:
        home, sources = routing[c][e]
        target = (c, e) if home is None else home
        layer = 0
        for part in sources:
            while (layer, part) in busy or (layer, target) in busy:
                layer += 1
            busy |= {(layer, part), (layer, target)}
            placed.append((layer, c, e, part))
            layer += 1
    return [step[1:] for step in sorted(placed)]


def schedule(grouping: Sequence[Sequence[int]]) -> tuple[tuple, tuple]:
    """(routes, groups) when the sub-calls of each group of `grouping` run side
    by side. A group is (calls, steps, undo): its `prep_steps`, and the earlier
    groups whose prep is undone, latest first, before it runs, as they sum
    into a part it names. A last group with no calls undoes the rest."""
    routes: list = [()] * len(SUBCALLS)
    groups: list[tuple] = []
    applied: dict[int, set[int]] = {}  # group -> the parts its prep sums into
    for calls in [*grouping, ()]:
        named = [part for c in calls for entry in SUBCALLS[c] for part in entry]
        for c in calls:
            routes[c] = tuple(_route(entry, named) for entry in SUBCALLS[c])
        undo = [u for u in applied if not calls or applied[u] & set(named)]
        for u in undo:
            del applied[u]
        applied[len(groups)] = {home for c in calls for home, srcs in routes[c] if srcs} - {None}
        groups.append((tuple(calls), prep_steps(routes, calls), tuple(reversed(undo))))
    return tuple(routes), tuple(groups)


# Which sub-calls each builder runs at the same time, group after group:
# compact one at a time, linear-depth {0, 1} then {2}, log-depth all three.
GROUPINGS = {
    "compact": ((0,), (1,), (2,)),
    "linear_depth": ((0, 1), (2,)),
    "log_depth": ((0, 1, 2),),
}
SCHEDULES = {variant: schedule(grouping) for variant, grouping in GROUPINGS.items()}
# The log-depth builder's routing and prep order: no part is the home of two
# entries, so the three sub-calls share no wire.
ROUTES = SCHEDULES["log_depth"][0]
PREP = SCHEDULES["log_depth"][1][0][1]


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


def shrink(a: list[T], b: list[T], c: list[T], cp: list[T]):
    """`pad_odd` backwards: drop the top position, c_(k-1) moves into c'_0.

    Valid when a and b are zero at the top: the size-(k-1) instance then
    has the same g xor h.
    """
    return a[:-1], b[:-1], c[:-1], [c[-1], *cp[: len(cp) - 2]]


def reshape(a: list[T], b: list[T], c: list[T], cp: list[T], zero: Callable[[], T]):
    """The instance to split or, at size 1, to take as the base case.

    A zero-topped instance (a and b falsy at the top) shrinks when its
    size is odd or 2. An even one above 2 is split as it is: its zero top
    passes to its (A_R, B_R) sub-call, at the same M(k - 1) base cases,
    where a shrink would be padded straight back with new zero c' entries,
    which the scheduled builders give helper wires. Then an odd instance
    above size 1 is padded; being even, it never shrinks back.
    """
    if (len(a) % 2 or len(a) == 2) and zero_topped(a, b):
        a, b, c, cp = shrink(a, b, c, cp)
    if len(a) % 2 and len(a) > 1:
        return pad_odd(a, b, c, cp, zero)
    return a, b, c, cp


def xor_lists(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """`combine` for registers held as lists of bit masks."""
    return list(map(operator.xor, u, v))


def list_halves(x: list[T]) -> tuple[list[T], list[T]]:
    """`halves` for registers held as lists."""
    h = len(x) // 2
    return x[:h], x[h:]
