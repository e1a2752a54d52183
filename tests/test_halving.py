"""The halving table: one split, the same on every register representation."""

import random

import pytest

from gf2kq.halving import (
    A_L,
    A_R,
    B_L,
    B_R,
    C_L,
    C_R,
    CP_L,
    CP_R,
    GROUPINGS,
    PREP,
    ROUTES,
    SCHEDULES,
    SUBCALLS,
    list_halves,
    pad_odd,
    prep_steps,
    reshape,
    shrink,
    split_even,
    xor_lists,
)
from gf2kq.synth import Slot


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


def test_pad_odd_structure():
    c0 = Slot(1, 10)
    cp0 = Slot(2, 11)
    a, b, c, cp = pad_odd([Slot(1, 0)], [Slot(1, 5)], [c0], [cp0], Slot)
    assert [s.form for s in a] == [1, 0]
    assert c == [c0, cp0]
    assert [s.form for s in cp] == [0, 0]
    a, b, c, cp = pad_odd(
        [Slot(1, 0)] * 3,
        [Slot(1, 5)] * 3,
        [Slot(4, 8)] * 3,
        [Slot(8, 12), Slot(9, 13), Slot(10, 14)],
        Slot,
    )
    assert len(a) == len(b) == len(c) == len(cp) == 4
    assert c[-1].form == 8


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


def _routing_faults(routing, groups):
    """Why `routing` and the `groups` of its schedule cannot run the sub-calls
    of each group side by side on disjoint wires."""
    faults = []
    for c, (call, entries) in enumerate(zip(SUBCALLS, routing)):
        for e, (entry, (home, sources)) in enumerate(zip(call, entries)):
            routed = [home] * (home is not None) + list(sources)
            if sorted(routed) != sorted(entry):
                faults.append(f"call {c} entry {e} routes {routed}, not {list(entry)}")
    for calls, steps, _ in groups:
        entries = [entry for c in calls for entry in routing[c]]
        homes = [home for home, _ in entries if home is not None]
        faults += [f"part {part} is the home of two entries" for part in set(homes) if homes.count(part) > 1]
        written = {home for home, sources in entries if sources}
        read = {part for _, _, part in steps}
        faults += [f"part {part} is summed into and read" for part in written & read]
        want = sorted((c, e, part) for c in calls for e, (_, sources) in enumerate(routing[c]) for part in sources)
        if sorted(steps) != want:
            faults.append(f"the steps of {calls} are not one XOR per routed source")
    return faults


def _routed_masks(routing, groups, regs, h):
    """Each entry's wires, on registers held as bit masks, as its group runs,
    and whether every wire is back at its start when the node returns."""
    wires = {}
    for r, x in enumerate(regs):
        wires[2 * r], wires[2 * r + 1] = _mask_halves(h)(x)
    homes = [[(c, e) if home is None else home for e, (home, _) in enumerate(entries)]
             for c, entries in enumerate(routing)]
    for entries in homes:
        wires.update((key, 0) for key in entries if key not in wires)
    start = dict(wires)
    calls = [None] * len(routing)
    for group, steps, undo in groups:
        for u in undo:
            for c, e, part in reversed(groups[u][1]):
                wires[homes[c][e]] ^= wires[part]
        for c, e, part in steps:
            wires[homes[c][e]] ^= wires[part]
        for c in group:
            calls[c] = [wires[key] for key in homes[c]]
    return calls, wires == start


def _sums(routing, calls):
    """The routed entries of `calls` that take a sum, as (home, sources), in table order."""
    return [(home, sources) for c in calls for home, sources in routing[c] if sources]


def test_routes_cover_the_table_on_disjoint_wires():
    for variant in GROUPINGS:
        routes, groups = SCHEDULES[variant]
        assert _routing_faults(routes, groups) == [], variant
        assert [calls for calls, _, _ in groups] == [*GROUPINGS[variant], ()], variant
    # Log-depth: fresh wires only for the entries that need a new sum: A_L+A_R,
    # B_L+B_R and CP_L+C_R twice; C_L and CP_R take their sums in place.
    fresh = [sources for entries in ROUTES for home, sources in entries if home is None]
    assert len(fresh) == 4 and sum(map(len, fresh)) == 8
    assert sum(len(sources) for entries in ROUTES for _, sources in entries) == 10
    assert ROUTES[2][2] == (C_L, (C_R,))
    # As gates in this order, the steps take 3 layers, the fewest: C_R is read three times.
    level = {}
    for c, e, part in PREP:
        home = ROUTES[c][e][0]
        target = (c, e) if home is None else home
        level[part] = level[target] = max(level.get(part, 0), level.get(target, 0)) + 1
    assert max(level.values()) == 3


def test_linear_depth_and_compact_routings():
    # Linear-depth: {0, 1} fold the operand halves in place, CP_R takes CP_L, and
    # CP_L + C_R gets fresh wires; {2} sums in place on C_L and CP_L, after {0, 1}
    # is undone, as it names A_L.
    routes, groups = SCHEDULES["linear_depth"]
    assert _sums(routes, (0, 1)) == [
        (A_L, (A_R,)), (B_L, (B_R,)), (None, (CP_L, C_R)), (CP_R, (CP_L,))
    ]
    assert _sums(routes, (2,)) == [(C_L, (C_R,)), (CP_L, (C_R,))]
    assert [undo for _, _, undo in groups] == [(), (0,), (1,)]
    # Compact: only call 0's a and b are sums, folded in place and unfolded
    # before call 2, which names A_L and B_L; c goes through a per-leaf solve.
    routes, groups = SCHEDULES["compact"]
    assert [(h, s) for h, s in _sums(routes, (0,)) if h < C_L] == [(A_L, (A_R,)), (B_L, (B_R,))]
    assert [h for c in (1, 2) for h, s in routes[c][:2] if s] == []
    assert [undo for _, _, undo in groups] == [(), (), (1, 0), (2,)]


@pytest.mark.parametrize("n", [2, 4, 10, 64])
def test_routed_entries_hold_their_sums_on_masks(n):
    rng = random.Random(n)
    for _ in range(50):
        regs = [rng.getrandbits(n) for _ in range(4)]
        want = split_even(regs, lambda x, y: x ^ y, _mask_halves(n // 2))
        for variant in GROUPINGS:
            routes, groups = SCHEDULES[variant]
            assert _routed_masks(routes, groups, regs, n // 2) == (want, True), variant


def test_routing_that_hands_a_part_to_two_calls_fails():
    # C_R becomes the home of call 1's c, CP_L + C_R, as well as call 0's c.
    broken = [list(entries) for entries in ROUTES]
    broken[1][2] = (C_R, (CP_L,))
    groups = [((0, 1, 2), prep_steps(broken, (0, 1, 2)), ()), ((), [], (0,))]
    faults = _routing_faults(broken, groups)
    assert f"part {C_R} is the home of two entries" in faults
    regs = [0b1100, 0b1010, 0b0110, 0b1001]
    calls, _ = _routed_masks(broken, groups, regs, 2)
    assert calls != split_even(regs, lambda x, y: x ^ y, _mask_halves(2))
