"""Multiplier circuit synthesis for GF(2^n).

Builds circuits mapping |a>|b>|c>|0> to |a>|b>|c xor AB mod P>|0> in four
variants. The three Karatsuba-style ones differ in which recursive calls run
at the same time, and `halving.SCHEDULES` places those calls on wires:

* ``baseline``  - three-stage quadratic construction, built in ccz form,
  exactly n^2 CCZs (or Toffolis) in diagonal order, toffoli depth 2n, no
  ancillas.
* ``compact``   - Karatsuba-style CCZ core with in-place CNOT basis changes
  (a and b folded half onto half, c re-expressed by a solve per base case),
  M(n) CCZ gates and zero ancillas. M is Karatsuba's unbalanced count,
  M(n) = 2 M(ceil(n/2)) + M(floor(n/2)) with M(1) = 1, at most
  3^ceil(log2 n).
* ``linear_depth`` - same CCZ count; the two independent recursive calls run
  on disjoint wires so total depth grows linearly, using O(n log n) helper
  wires.
* ``log_depth`` - for moduli of the form x^n+x^k+1 or sum x^(ik); the
  three recursive calls share no wire and run side by side, on 4h - 1 fresh
  wires per size-2h node for the sums that must be new, giving O(log n)
  depth with O(n^1.585) helper wires.

The ccz-form output is an H sandwich on the c register. Inside the core,
helper ancillas only ever hold XOR combinations of c-register values
(written and unwritten by CNOTs), so each CCZ applies a phase that is a
product of two a/b-side bits and one linear form of the c register, and
all ancillas end in |0> on every basis input. The quantity bounded by the
subquadratic claim is the CCZ count of this form.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, starmap
from typing import Callable, Optional, Sequence

from .circuit import K_CCZ, K_CNOT, K_H, Circuit, Gate, RegisterLayout
from .errors import FormError, InputError, SynthesisError, UnsupportedFamilyError
from .gf2 import BinaryPolynomial, Gf2Matrix, build_reduction_matrix, is_irreducible
from .halving import (C, SCHEDULES, list_halves, read_span, reshape, split_even,
                      xor_lists, zero_topped)
from .phasepoly import LinearWireState, _bits
from .simulate import to_toffoli_form

VARIANTS = ("compact", "linear_depth", "log_depth", "baseline")
LADDER_STYLES = ("sequential", "prefix_ancilla")
# Inside this module a CNOT fragment is a list of (control, target) wire pairs.
_Pairs = list[tuple[int, int]]


@dataclass(frozen=True)
class SynthesisOptions:
    """What to synthesize: variant, modulus, output form, ladder style."""

    variant: str
    modulus: BinaryPolynomial
    output_form: str = "ccz_form"
    ladder_style: str = "prefix_ancilla"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        if self.output_form not in ("ccz_form", "toffoli_form"):
            raise InputError(f"unknown output form {self.output_form!r}")
        if self.ladder_style not in LADDER_STYLES:
            raise InputError(f"unknown ladder style {self.ladder_style!r}")


# ---------------------------------------------------------------------------
# modulus families


def trinomial_split(p: BinaryPolynomial) -> Optional[int]:
    """k if p = x^n + x^k + 1 with 1 < k < n, else None."""
    exps = p.exponents()
    if len(exps) == 3 and exps[2] == 0 and 1 < exps[1] < exps[0]:
        return exps[1]
    return None


def equally_spaced_split(p: BinaryPolynomial) -> Optional[tuple[int, int]]:
    """(terms, k) if p = sum_{i=0..terms} x^(i*k) with 0 < k < terms, else None.

    The polynomial degree is terms*k.
    """
    exps = sorted(p.exponents())
    if len(exps) < 3 or exps[0] != 0:
        return None
    k = exps[1]
    terms = len(exps) - 1
    if exps != [i * k for i in range(terms + 1)]:
        return None
    if not 0 < k < terms:
        return None
    return terms, k


# ---------------------------------------------------------------------------
# CNOT ladders and reduction-matrix fragments


def cnot_ladder(wires: Sequence[int], style: str = "sequential") -> list[Gate]:
    """Running-parity operator along `wires`: w_i ends as x_0 xor ... xor x_i.

    ``sequential`` is the obvious chain (depth len-1). ``prefix_ancilla``
    emits a Brent-Kung parallel-prefix network over the same wires: depth
    at most 2*ceil(log2 m) with no extra wires, so it stays inside the
    "at most m ancillas, restored" budget trivially.
    """
    if len(wires) < 2:
        raise InputError("ladder needs at least 2 wires")
    return list(starmap(Gate.cnot, _ladder(wires, style)))


def _ladder(wires: Sequence[int], style: str) -> _Pairs:
    """`cnot_ladder`'s (control, target) pairs; none for fewer than 2 wires."""
    m = len(wires)
    if style == "sequential":
        return list(zip(wires, wires[1:]))
    if style != "prefix_ancilla":
        raise InputError(f"unknown ladder style {style!r}")
    pairs = []
    d = 1
    while 2 * d <= m:
        pairs += [(wires[base - d], wires[base]) for base in range(2 * d - 1, m, 2 * d)]
        d *= 2
    d //= 2
    while d >= 1:
        pairs += [(wires[base], wires[base + d]) for base in range(2 * d - 1, m - d, 2 * d)]
        d //= 2
    return pairs


def reduction_cnot_trinomial(
    n: int, k: int, wires: Optional[Sequence[int]] = None, style: str = "sequential"
) -> list[Gate]:
    """In-place CNOT fragment applying the reduction map of x^n + x^k + 1.

    Acting on n wires holding (e_0..e_(n-2), t): wire j ends holding the
    j-th row of Q e for the first n-1 unit inputs. Structure: one
    descending running-parity ladder per residue class mod (n-k), then a
    parallel layer of CNOT(i -> i+k).
    """
    if not 1 < k < n:
        raise UnsupportedFamilyError("trinomial fragment needs 1 < k < n")
    if wires is None:
        wires = list(range(n))
    if len(wires) != n:
        raise InputError("fragment needs exactly n wires")
    return list(starmap(Gate.cnot, _trinomial_pairs(n, k, wires, style)))


def _trinomial_pairs(n: int, k: int, wires: Sequence[int], style: str) -> _Pairs:
    pairs = []
    for res in range(n - k):
        pairs += _ladder(wires[res : n - 1 : n - k][::-1], style)
    # Shift layer: w_(i+k) ^= old w_i for all i < n-k. Within a residue
    # class mod k this is the pairwise-difference operator, the inverse of
    # the running-parity ladder, so the same prefix network flattens it.
    for res in range(k):
        pairs += _ladder(wires[res::k], style)[::-1]
    return pairs


def reduction_cnot_equally_spaced(
    terms: int, k: int, wires: Optional[Sequence[int]] = None, style: str = "sequential"
) -> list[Gate]:
    """In-place CNOT fragment for the reduction map of sum_{i<=terms} x^(ik).

    Per stride (j, k+j, ..., (terms-1)k+j): a pairwise-difference pass then
    a running-parity ladder, i.e. two ladders per stride.
    """
    if not 0 < k < terms:
        raise UnsupportedFamilyError("equally spaced fragment needs 0 < k < terms")
    n = terms * k
    if wires is None:
        wires = list(range(n))
    if len(wires) != n:
        raise InputError("fragment needs exactly n wires")
    return list(starmap(Gate.cnot, _equally_spaced_pairs(terms, k, wires, style)))


def _equally_spaced_pairs(terms: int, k: int, wires: Sequence[int], style: str) -> _Pairs:
    pairs = []
    for j in range(k):
        stride = wires[j::k]
        # pairwise differences toward low indices = inverse of the
        # running-parity ladder on the reversed stride
        pairs += _ladder(stride[::-1], style)[::-1]
        pairs += _ladder(stride, style)
    return pairs


def cprime_ancilla_circuit(q: Gf2Matrix) -> Circuit:
    """Out-of-place circuit |c>|0> -> |c>|Q^T c| on n + (n-1) wires.

    CNOT count equals popcount(Q); gates are emitted in diagonal rounds so
    the ASAP depth stays O(n).
    """
    layout = RegisterLayout(n=q.n_rows, ancillas=q.n_rows - 1)
    kinds, ops = bytearray(), array("i")
    pairs = _cprime_gates(q, layout.c_range, layout.anc_range)
    _put(kinds, ops, K_CNOT, ((s, t, -1) for s, t in pairs))
    return Circuit.from_records(layout, kinds, ops)


def _cprime_gates(q: Gf2Matrix, c_wires: Sequence[int], anc_wires: Sequence[int]) -> _Pairs:
    """One CNOT c_row -> anc_col per set entry of Q, by diagonal ((row - col) mod n, col)."""
    n = q.n_rows
    entries = [(row, col) for row, bits in enumerate(q.rows) for col in _bits(bits)]
    entries.sort(key=lambda rc: ((rc[0] - rc[1]) % n, rc[1]))
    return [(c_wires[row], anc_wires[col]) for row, col in entries]


# ---------------------------------------------------------------------------
# generic in-place linear synthesis (the baseline reduction stage, compact's restore)


def _gauss_jordan(rows: Sequence[int], support: Optional[Sequence[int]] = None) -> _Pairs:
    """Row additions (source, target) that, applied in order as
    rows[target] ^= rows[source], reduce an invertible GF(2) matrix to I.

    Only the rows and columns `support` (ascending; all by default) take
    part. That gives the same additions whenever every other row is a unit
    row whose bit no row of `support` holds, as no addition touches it.
    """
    idx = range(len(rows)) if support is None else support
    work = list(rows)
    cols = [0] * len(rows)  # cols[k]: the rows of `idx` holding bit k, as a mask
    for j in idx:
        for k in _bits(work[j]):
            cols[k] |= 1 << j
    ops: _Pairs = []
    for i in idx:
        below = cols[i] >> i
        if not below & 1:
            j = i + _low(below)
            ops.append((j, i))
            work[i] ^= work[j]
            for k in _bits(work[j]):
                cols[k] ^= 1 << i
        hits = cols[i] ^ 1 << i
        if hits:
            pivot = work[i]
            for j in _bits(hits):
                work[j] ^= pivot
                ops.append((i, j))
            for k in _bits(pivot):
                cols[k] ^= hits
    return ops


def _reduction_stage_gates(
    p: BinaryPolynomial, q: Gf2Matrix, wires: Sequence[int], style: str
) -> _Pairs:
    """CNOT pairs applying an invertible extension of e -> Qe on the result wires."""
    tri = trinomial_split(p)
    if tri is not None:
        return _trinomial_pairs(p.degree, tri, wires, style)
    es = equally_spaced_split(p)
    if es is not None:
        return _equally_spaced_pairs(*es, wires, style)
    # M = [Q | x^(n-1)] has columns x^(n-1) * x^j mod p, j < n: a basis, as x is
    # invertible mod p. e -> M e is Gauss-Jordan's row additions, reversed.
    n = q.n_rows
    rows = [*q.rows[:-1], q.rows[-1] | 1 << (n - 1)]
    return [(wires[s], wires[t]) for s, t in reversed(_gauss_jordan(rows))]


# ---------------------------------------------------------------------------
# baseline variant


def _check_modulus(p: BinaryPolynomial) -> None:
    """Raise InputError unless p is an irreducible modulus of degree >= 2."""
    if p.degree < 2:
        raise InputError("modulus degree must be >= 2")
    if not is_irreducible(p):
        raise InputError(f"modulus {p} is reducible")


def synth_baseline(
    p: BinaryPolynomial, ladder_style: str = "sequential"
) -> Circuit:
    """Three-stage quadratic multiplier, Toffoli form, exactly n^2 Toffolis.

    The high product half is accumulated on the result register conjugated
    by the reduction-stage CNOT circuit, then the low half is added
    directly; that keeps the construction ancilla-free and correct for any
    initial value of the result register. Each product stage runs in n
    diagonal layers (`_diagonal_stage`), so the toffoli depth is 2n.
    """
    return synth(SynthesisOptions("baseline", p, "toffoli_form", ladder_style))


def _baseline(p: BinaryPolynomial, ladder_style: str) -> Circuit:
    """`synth_baseline`'s construction in ccz form, for an already checked modulus.

    The whole construction sits between H layers on c: each Toffoli (all
    target c) becomes a CCZ, and each stage-2 CNOT, which acts within c,
    reverses direction. `to_toffoli_form` turns it back. The products a_j b_k
    with j + k >= n go on c_(j+k-n) between the two copies of the reduction
    stage, the others on c_(j+k) after them, each stage in diagonal order.
    """
    n = p.degree
    c = range(2 * n, 3 * n)
    stage2 = _reduction_stage_gates(p, build_reduction_matrix(p), c, ladder_style)
    h_layer = [(w, -1, -1) for w in c]
    stage2 = [(t, s, -1) for s, t in stage2]
    kinds, ops = bytearray(), array("i")
    _put(kinds, ops, K_H, h_layer)
    _put(kinds, ops, K_CNOT, stage2[::-1])
    _put(kinds, ops, K_CCZ, _diagonal_stage(n, high=True))
    _put(kinds, ops, K_CNOT, stage2)
    _put(kinds, ops, K_CCZ, _diagonal_stage(n, high=False))
    _put(kinds, ops, K_H, h_layer)
    return Circuit.from_records(RegisterLayout(n=n), kinds, ops)


def _diagonal_stage(n: int, high: bool):
    """One baseline product stage's (a_j, b_k, c) wire triples, in n diagonal layers.

    Layer t = 0..n-1 holds the products with k = (j - t) mod n, j ascending,
    that belong to the stage: j + k >= n for the high one, j + k < n for the
    low one. For j < t, k = j - t + n and j + k >= n iff j >= ceil(t/2); for
    j >= t, k = j - t and j + k >= n iff j >= ceil((n+t)/2). A layer uses
    each a and b wire at most once; the circuit's toffoli depth is 2n on the
    catalog, where grouping each stage by result bit gave about 4n - 4. The
    gates of a stage are all CCZs, diagonal, and commute (in Toffoli form:
    controls on a and b only, targets on c only), so the order changes no
    result. Wires a_j, b_k and c_i are j, n + k and 2n + i, so each triple
    ascends: the canonical operand order of a CCZ and a Toffoli.
    """
    runs = []
    for t in range(n):
        half, mid = (t + 1) // 2, (n + t + 1) // 2
        wrapped, straight = ((half, t), (mid, n)) if high else ((0, half), (t, mid))
        for (lo, hi), shift in ((wrapped, n - t), (straight, -t)):
            # k = j + shift; c_i with i = j + k, less n in the high stage.
            c_base = 2 * n + shift - (n if high else 0)
            runs.append(zip(range(lo, hi), range(n + lo + shift, n + hi + shift),
                            range(c_base + 2 * lo, c_base + 2 * hi, 2)))
    return chain.from_iterable(runs)


def _put(kinds: bytearray, ops: array, code: int, triples) -> None:
    """Append a record of kind `code` for each operand triple (-1 padded)."""
    start = len(ops)
    ops.extend(chain.from_iterable(triples))
    kinds += bytes([code]) * ((len(ops) - start) // 3)


# ---------------------------------------------------------------------------
# the Karatsuba-style recursion over slot forms


def _forms_recursion(
    a: list[int],
    b: list[int],
    c: list[int],
    cp: list[int],
    leaf: Callable[[int, int, int], None],
    fold: Callable[[tuple[list[int], list[int]], list[tuple[int, int, int]]], None],
    done: Callable[[int], None],
) -> None:
    """Drive the halving recursion on plain linear forms in compact's schedule.

    `leaf(alpha, beta, gamma)` is called once per base case; zero forms are
    passed through so the leaf can drop vanishing terms. `fold((a, b), sums)`
    gets a split instance's a and b and the in-place sums (register, home,
    part) of their halves to emit before a group of sub-calls runs. `done(k)`
    is called when a split instance of size k returns.
    """
    a, b, c, cp = reshape(a, b, c, cp, int)  # int() is the zero form
    if len(a) == 1:
        leaf(a[0], b[0], c[0])
        return
    calls = split_even((a, b, c, cp), xor_lists, list_halves)
    for group, sums in _COMPACT_FOLDS:
        if sums:
            fold((a, b), sums)
        for call in group:
            _forms_recursion(*calls[call], leaf, fold, done)
    done(len(a))


def ccz_count(p: BinaryPolynomial) -> int:
    """CCZ count of the Karatsuba core for modulus p, without building gates.

    Runs the same recursion as the builders and counts base cases whose
    three operand forms are all nonzero. Zero-topped sub-instances shrink
    (`halving.reshape`), so this is M(n) = 2 M(ceil(n/2)) + M(floor(n/2)),
    M(1) = 1, on every catalog modulus, at most `ccz_count_bound(n)`.
    """
    n = p.degree
    if n < 2:
        raise InputError("modulus degree must be >= 2")
    q = build_reduction_matrix(p)
    count = 0

    def leaf(fa: int, fb: int, fc: int) -> None:
        nonlocal count
        if fa and fb and fc:
            count += 1

    ones = [1 << i for i in range(n)]
    _forms_recursion(ones, ones, ones, [*q.columns(), 0], leaf, lambda a, b: None, lambda k: None)
    return count


def ccz_count_bound(n: int) -> int:
    """3^ceil(log2 n), the advertised CCZ bound."""
    return 3 ** math.ceil(math.log2(n)) if n > 1 else 1


# ---------------------------------------------------------------------------
# compact builder: in-place materialization of linear forms

# Compact returns c to its initial value after every sub-call this large, so
# each such subtree's solve starts from the identity, not from what ran before.
_RESTORE_SIZE = 32
_COMPACT_ROUTES, _COMPACT_GROUPS = SCHEDULES["compact"]
# Per group of compact's schedule, its calls and the a and b sums to emit before
# they run: those of the preps it undoes, then its own. c goes to the solve.
_COMPACT_FOLDS = [
    (calls, [(r, _COMPACT_ROUTES[c][r][0], part) for u in (*undo, g)
             for c, r, part in _COMPACT_GROUPS[u][1] if r < C])
    for g, (calls, _, undo) in enumerate(_COMPACT_GROUPS)
]


class _InPlaceGroup:
    """Wires of one register whose contents are re-expressed by CNOTs.

    The wire state stays invertible; `materialize` makes some wire hold a
    requested nonzero form, appending CNOT records within the group, and
    `restore` puts every wire back to its initial value.
    """

    def __init__(self, wires: Sequence[int], kinds: bytearray, ops: array):
        self.wires = list(wires)
        self.state = LinearWireState(len(wires))
        self.dirty = 0  # mask of the wires `materialize` has targeted
        self.kinds = kinds
        self.ops = ops

    def materialize(self, form: int) -> int:
        if form == 0:
            raise SynthesisError("cannot materialize the zero form")
        sel = self.state.solve(form)
        tgt = _low(sel)
        # XOR every other selected wire onto the lowest one, in wire order:
        # one CNOT each, one state update for the whole run. A form already
        # on a wire selects only that wire and emits nothing.
        wires = self.wires
        wt = wires[tgt]
        others = sel & (sel - 1)
        _put(self.kinds, self.ops, K_CNOT, ((wires[j], wt, -1) for j in _bits(others)))
        self.state.fan_in(others, tgt)
        self.dirty |= 1 << tgt
        return wt

    def restore(self) -> None:
        """Emit the CNOTs that return every wire to its initial value, then
        start again from the identity state.

        A row that no `materialize` targeted is still a unit row, so the
        reduction runs over the targeted rows and the columns they hold only.
        """
        rows = self.state.rows
        support = self.dirty
        for w in _bits(self.dirty):
            support |= rows[w]
        wires = self.wires
        undo = _gauss_jordan(rows, list(_bits(support)))
        _put(self.kinds, self.ops, K_CNOT, ((wires[s], wires[t], -1) for s, t in undo))
        self.state = LinearWireState(len(wires))
        self.dirty = 0


def _low(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# scheduled builders (linear-depth and log-depth)


@dataclass
class Slot:
    """A c-side or operand-side value holder: linear form plus its wire.

    Zero-valued slots are false and may have no wire until something is
    XORed into them; `Slot()` is such a zero slot.
    """

    form: int = 0
    wire: Optional[int] = None

    def __bool__(self) -> bool:
        return self.form != 0


class _ScheduledCore:
    """Emit the recursion with helper wires so independent calls overlap.

    Helper wires are handed out in windows: simultaneous branches get
    disjoint windows, sequential branches reuse them. `peak` tracks the
    total helper count.
    """

    def __init__(self, kinds: bytearray, ops: array, anc_base: int, schedule: tuple):
        self.kinds = kinds
        self.ops = ops
        self.anc_base = anc_base
        self.routes, self.groups = schedule
        self.peak = 0

    def _xor_into(self, src: Slot, tgt: Slot, journal: list, cur: int) -> int:
        if src.form == 0:
            return cur
        if src is tgt:
            raise SynthesisError("slot aliased with itself")
        allocated = False
        if tgt.wire is None:
            if tgt.form != 0:
                raise SynthesisError("nonzero slot without a wire")
            tgt.wire = self.anc_base + cur
            cur += 1
            self.peak = max(self.peak, cur)
            allocated = True
        self.kinds.append(K_CNOT)
        self.ops.extend((src.wire, tgt.wire, -1))
        tgt.form ^= src.form
        journal.append((src, tgt, allocated))
        return cur

    def _unprep(self, journal: list) -> None:
        # Wires handed to lazily-materialized slots are released once the
        # journal unwinds; sibling branches may reuse the window.
        for src, tgt, allocated in reversed(journal):
            self.kinds.append(K_CNOT)
            self.ops.extend((src.wire, tgt.wire, -1))
            tgt.form ^= src.form
            if allocated:
                if tgt.form != 0:
                    raise SynthesisError("released slot still holds a value")
                tgt.wire = None

    def rec(self, a, b, c, cp, base) -> int:
        """Emit the size-len(a) instance with helpers from offset `base`; return the peak."""
        a, b, c, cp = reshape(a, b, c, cp, Slot)
        if len(a) == 1:
            if a[0].form and b[0].form and c[0].form:
                self.kinds.append(K_CCZ)
                self.ops.extend(sorted((a[0].wire, b[0].wire, c[0].wire)))
            return base
        # Each entry sits on its home part's slots, with any other part summed
        # in place, or on fresh slots. The calls of a group share no wire and
        # run side by side on chained windows; the groups run one by one. A
        # zero top of a and b passes to the (A_R, B_R) call, which reads less c'.
        h = len(a) // 2
        zero_top = zero_topped(a, b)
        parts = [a[:h], a[h:], b[:h], b[h:], c[:h], c[h:], cp[:h], cp[h:]]
        calls = _routed(self.routes, parts, lambda: [Slot() for _ in range(h)])
        journals: list[list] = [[] for _ in self.groups]
        cur = peak = base
        for journal, (group, steps, undo) in zip(journals, self.groups):
            for u in undo:
                self._unprep(journals[u])
            for call, entry, part in steps:
                span = read_span(entry, h, call, zero_top)
                for src, slot in zip(parts[part][:span], calls[call][entry]):
                    cur = self._xor_into(src, slot, journal, cur)
            top = cur
            for call in group:
                top = self.rec(*calls[call], top)
            peak = max(peak, top)
        return peak


def _routed(routes, parts: list, fresh: Callable[[], list]) -> list:
    """Each sub-call's entries on `parts` per `routes`, a new `fresh()` for each homeless one."""
    return [[fresh() if home is None else parts[home] for home, _ in call] for call in routes]


# ---------------------------------------------------------------------------
# depth-2 preparation fragments: the linear-depth builder's schedule


def prepare_parallel(
    a_wires: Sequence[int],
    b_wires: Sequence[int],
    c_wires: Sequence[int],
    cp_wires: Sequence[int],
    fresh_wires: Sequence[int],
) -> list[Gate]:
    """Depth-2 CNOT fragment readying two disjoint half-size calls.

    Linear-depth's prep of its first group (`halving.SCHEDULES`): right
    operand halves fold into left ones, and the fresh wires take the left
    c' half, then the right c half while the right c' half gets the left,
    all but the top position, which the sub-call does not read.
    """
    k = len(a_wires)
    if k % 2 or len(b_wires) != k or len(c_wires) != k or len(cp_wires) != k:
        raise InputError("prepare_parallel needs even equal-size registers")
    if len(fresh_wires) != k // 2:
        raise InputError("need k/2 fresh wires")
    return _linear_prep(0, (a_wires, b_wires, c_wires, cp_wires), fresh_wires)


def prepare_second(c_wires: Sequence[int], cp_wires: Sequence[int]) -> list[Gate]:
    """Depth-2 CNOT fragment feeding the third recursive call."""
    k = len(c_wires)
    if k % 2 or len(cp_wires) != k:
        raise InputError("prepare_second needs even equal-size registers")
    return _linear_prep(1, ((), (), c_wires, cp_wires), ())


def _linear_prep(g: int, regs, fresh_wires: Sequence[int]) -> list[Gate]:
    """The CNOTs of linear-depth's group-g prep on the wires of (a, b, c, c'),
    its new sums on `fresh_wires`."""
    routes, groups = SCHEDULES["linear_depth"]
    parts = [half for r in regs for half in list_halves(r)]
    calls = _routed(routes, parts, lambda: list(fresh_wires))  # one new sum, in the first group
    h = len(regs[C]) // 2
    pairs = (zip(parts[part][: read_span(entry, h)], calls[call][entry])
             for call, entry, part in groups[g][1])
    return list(starmap(Gate.cnot, chain.from_iterable(pairs)))


# ---------------------------------------------------------------------------
# scratch preparation of c' = Q^T c for the scheduled variants


def _scratch_prep_trinomial(n, k, c_wires, scratch_wires, style) -> _Pairs:
    pairs = [(c_wires[m], scratch_wires[m]) for m in range(n - 1)]
    pairs += [(c_wires[k + i], scratch_wires[i]) for i in range(n - k)]
    for res in range(n - k):
        pairs += _ladder(scratch_wires[res :: n - k], style)
    return pairs


def _scratch_prep_equally_spaced(terms, k, c_wires, scratch_wires, temp_wires, style) -> _Pairs:
    n = terms * k
    pairs = [(c_wires[m - k], scratch_wires[m]) for m in range(k, n - 1)]
    for j in range(k):
        temps = temp_wires[j * terms : (j + 1) * terms]
        copy = list(zip(c_wires[j::k], temps))
        ladder = _ladder(temps, style)
        pairs += copy + ladder + [(temps[-1], scratch_wires[j])] + ladder[::-1] + copy[::-1]
    return pairs


# ---------------------------------------------------------------------------
# top-level assembly


def _core_gates(
    kinds: bytearray,
    ops: array,
    mode: str,
    n: int,
    cp_forms: list[int],
    cp_wires: Sequence[Optional[int]],
    anc_base: int,
) -> int:
    """Append the recursion core on a, b, c = wires 0..3n-1; return its helper count.

    c'_i has form `cp_forms[i]` over the c wires, then the c' wires, and sits
    on `cp_wires[i]` (None for no wire). Helpers start at wire `anc_base`.
    """
    a_wires, b_wires, c_wires = range(n), range(n, 2 * n), range(2 * n, 3 * n)
    ones = [1 << i for i in range(n)]
    if mode == "compact":
        # a and b are folded in place: each form sits on the wire of its lowest
        # term, as a fold adds A_R_i into A_L_i, whose lowest term is lower.
        # Only c goes through the in-place solve, which starts again from the
        # identity after every sub-call of size _RESTORE_SIZE or more.
        gc = _InPlaceGroup([*c_wires, *(w for w in cp_wires if w is not None)], kinds, ops)

        def fold(ab: tuple[list[int], list[int]], sums: list[tuple[int, int, int]]) -> None:
            parts = [half for r in ab for half in list_halves(r)]
            for r, home, part in sums:
                halves = zip(parts[part], parts[home])
                pairs = ((r * n + _low(y), r * n + _low(x), -1) for y, x in halves if x and y)
                _put(kinds, ops, K_CNOT, pairs)

        def leaf(fa: int, fb: int, fc: int) -> None:
            if fa and fb and fc:
                wc = gc.materialize(fc)
                kinds.append(K_CCZ)
                ops.extend((_low(fa), n + _low(fb), wc))

        def done(k: int) -> None:
            if k >= _RESTORE_SIZE:
                gc.restore()

        _forms_recursion(ones, ones, ones, cp_forms, leaf, fold, done)
        gc.restore()
        return 0
    sched = _ScheduledCore(kinds, ops, anc_base, SCHEDULES[mode])
    a, b, c = ([Slot(1 << i, w) for i, w in enumerate(ws)] for ws in (a_wires, b_wires, c_wires))
    sched.rec(a, b, c, [Slot(f, w) for f, w in zip(cp_forms, cp_wires)], 0)
    return sched.peak


def _karatsuba_circuit(p: BinaryPolynomial, variant: str, ladder_style: str) -> Circuit:
    n = p.degree
    q = build_reduction_matrix(p)
    c_wires = list(range(2 * n, 3 * n))
    anc_base = 3 * n
    # The scheduled variants first copy c' = Q^T c onto scratch wires.
    scratch: list[int] = []
    temps: list[int] = []
    prep: _Pairs = []
    if variant != "compact":
        scratch = [anc_base + i for i in range(n - 1)]
        tri = trinomial_split(p)
        es = equally_spaced_split(p)
        if variant == "linear_depth":
            prep = _cprime_gates(q, c_wires, scratch)
        elif tri is not None:
            prep = _scratch_prep_trinomial(n, tri, c_wires, scratch, ladder_style)
        elif es is not None:
            terms, kk = es
            temps = [anc_base + (n - 1) + i for i in range(kk * terms)]
            prep = _scratch_prep_equally_spaced(terms, kk, c_wires, scratch, temps, ladder_style)
        else:
            raise UnsupportedFamilyError(
                f"log_depth needs a trinomial or equally spaced modulus, got {p}"
            )
    h_layer = [(w, -1, -1) for w in c_wires]
    prep = [(s, t, -1) for s, t in prep]
    kinds, ops = bytearray(), array("i")
    _put(kinds, ops, K_H, h_layer)
    _put(kinds, ops, K_CNOT, prep)
    cp_forms = [*q.columns(), 0]
    own = len(scratch) + len(temps)
    cp_wires = scratch + [None] * (n - len(scratch))
    helpers = _core_gates(kinds, ops, variant, n, cp_forms, cp_wires, anc_base + own)
    _put(kinds, ops, K_CNOT, prep[::-1])
    _put(kinds, ops, K_H, h_layer)
    return Circuit.from_records(RegisterLayout(n=n, ancillas=own + helpers), kinds, ops)


def synth(options: SynthesisOptions) -> Circuit:
    """Synthesize a multiplier circuit per the options.

    ccz_form circuits carry the H sandwich on the c register; toffoli_form
    is available for the baseline and compact variants (the scheduled
    variants use in-core helper wires that have no gate-local classical
    rewrite, see README).
    """
    p = options.modulus
    _check_modulus(p)
    toffoli = options.output_form == "toffoli_form"
    if toffoli and options.variant not in ("baseline", "compact"):
        raise FormError(
            f"{options.variant} emits ccz_form only; its helper wires have "
            "no gate-local Toffoli rewrite"
        )

    if options.variant == "baseline":
        circ = _baseline(p, options.ladder_style)
    else:
        circ = _karatsuba_circuit(p, options.variant, options.ladder_style)
    return to_toffoli_form(circ) if toffoli else circ


def karatsuba_core(k: int, mode: str = "compact") -> Circuit:
    """Standalone recursion fragment over free slot variables.

    Registers a, b, c of size k plus k helper wires holding the free
    c'-side variables. The fragment's extracted phase equals the size-k
    target polynomial and its net wire transform is the identity; k = 1
    emits exactly one CCZ.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if mode not in SCHEDULES:
        raise InputError(f"unknown mode {mode!r}")
    kinds, ops = bytearray(), array("i")
    cp_forms = [1 << (k + i) for i in range(k)]
    extra = _core_gates(kinds, ops, mode, k, cp_forms, range(3 * k, 4 * k), 4 * k)
    return Circuit.from_records(RegisterLayout(n=k, ancillas=k + extra), kinds, ops)
