"""Multiplier circuit synthesis for GF(2^n).

Builds circuits mapping |a>|b>|c>|0> to |a>|b>|c xor AB mod P>|0> in four
variants:

* ``baseline``  - three-stage quadratic construction, native Toffoli form,
  exactly n^2 Toffolis, no ancillas.
* ``compact``   - Karatsuba-style CCZ core with in-place CNOT basis changes,
  at most 3^ceil(log2 n) CCZ gates and zero ancillas.
* ``linear_depth`` - same CCZ count; the two independent recursive calls run
  on disjoint wires so total depth grows linearly, using O(n log n) helper
  wires.
* ``log_depth`` - for moduli of the form x^n+x^k+1 or sum x^(ik); every
  recursive call gets private register copies, giving O(log n) depth with
  O(n^1.585) helper wires.

The ccz-form output is an H sandwich on the c register. Inside the core,
helper ancillas only ever hold XOR combinations of c-register values
(written and unwritten by CNOTs), so each CCZ applies a phase that is a
product of two a/b-side bits and one linear form of the c register, and
all ancillas end in |0> on every basis input. The quantity bounded by the
subquadratic claim is the CCZ count of this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import halving
from .circuit import Circuit, Gate, RegisterLayout
from .errors import FormError, InputError, SynthesisError, UnsupportedFamilyError
from .gf2 import BinaryPolynomial, Gf2Matrix, build_reduction_matrix, is_irreducible
from .halving import SUBCALLS, list_halves, split_even, xor_lists
from .phasepoly import LinearWireState, _bits
from .simulate import to_ccz_form, to_toffoli_form

VARIANTS = ("compact", "linear_depth", "log_depth", "baseline")
LADDER_STYLES = ("sequential", "prefix_ancilla")


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
    m = len(wires)
    if m < 2:
        raise InputError("ladder needs at least 2 wires")
    if style == "sequential":
        return [Gate.cnot(wires[i - 1], wires[i]) for i in range(1, m)]
    if style != "prefix_ancilla":
        raise InputError(f"unknown ladder style {style!r}")
    gates = []
    d = 1
    while 2 * d <= m:
        for base in range(2 * d - 1, m, 2 * d):
            gates.append(Gate.cnot(wires[base - d], wires[base]))
        d *= 2
    d //= 2
    while d >= 1:
        for base in range(2 * d - 1, m - d, 2 * d):
            gates.append(Gate.cnot(wires[base], wires[base + d]))
        d //= 2
    return gates


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
    gates: list[Gate] = []
    for res in range(n - k):
        chain = [wires[pos] for pos in range(res, n - 1, n - k)]
        if len(chain) >= 2:
            gates.extend(cnot_ladder(list(reversed(chain)), style))
    # Shift layer: w_(i+k) ^= old w_i for all i < n-k. Within a residue
    # class mod k this is the pairwise-difference operator, the inverse of
    # the running-parity ladder, so the same prefix network flattens it.
    for res in range(k):
        cls = [wires[pos] for pos in range(res, n, k)]
        if len(cls) >= 2:
            gates.extend(reversed(cnot_ladder(cls, style)))
    return gates


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
    gates: list[Gate] = []
    for j in range(k):
        stride = [wires[i * k + j] for i in range(terms)]
        # pairwise differences toward low indices = inverse of the
        # running-parity ladder on the reversed stride
        gates.extend(reversed(cnot_ladder(list(reversed(stride)), style)))
        gates.extend(cnot_ladder(stride, style))
    return gates


def cprime_ancilla_circuit(q: Gf2Matrix) -> Circuit:
    """Out-of-place circuit |c>|0> -> |c>|Q^T c| on n + (n-1) wires.

    CNOT count equals popcount(Q); gates are emitted in diagonal rounds so
    the ASAP depth stays O(n).
    """
    layout = RegisterLayout(n=q.n_rows, ancillas=q.n_rows - 1)
    return Circuit(layout, _cprime_gates(q, layout.c_range, layout.anc_range))


def _cprime_gates(q: Gf2Matrix, c_wires: Sequence[int], anc_wires: Sequence[int]) -> list[Gate]:
    n = q.n_rows
    gates = []
    for shift in range(n):
        for col in range(q.n_cols):
            row = (col + shift) % n
            if q[row, col]:
                gates.append(Gate.cnot(c_wires[row], anc_wires[col]))
    return gates


# ---------------------------------------------------------------------------
# generic in-place linear synthesis (used by the baseline reduction stage)


def _completion_column(q: Gf2Matrix) -> int:
    """Index i such that appending e_i to Q's columns gives full rank."""
    basis: list[int] = []

    def reduce(v: int) -> int:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        return v

    for col in q.columns():
        r = reduce(col)
        if r == 0:
            raise SynthesisError("reduction matrix columns are dependent")
        basis.append(r)
    for i in range(q.n_rows):
        if reduce(1 << i):
            return i
    raise SynthesisError("no completion column found")


def _gauss_jordan(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Row additions (source, target) that, applied in order as
    rows[target] ^= rows[source], reduce an invertible GF(2) matrix to I.
    """
    work = list(rows)
    n = len(work)
    ops: list[tuple[int, int]] = []
    for i in range(n):
        if not (work[i] >> i) & 1:
            j = next(j for j in range(i + 1, n) if (work[j] >> i) & 1)
            work[i] ^= work[j]
            ops.append((j, i))
        for j in range(n):
            if j != i and (work[j] >> i) & 1:
                work[j] ^= work[i]
                ops.append((i, j))
    return ops


def _linear_gates_from_matrix(rows: Sequence[int], wires: Sequence[int]) -> list[Gate]:
    """CNOT list whose classical action is x -> M x for invertible M."""
    return [Gate.cnot(wires[s], wires[t]) for s, t in reversed(_gauss_jordan(rows))]


def _reduction_stage_gates(
    p: BinaryPolynomial, q: Gf2Matrix, wires: Sequence[int], style: str
) -> list[Gate]:
    """Gates applying an invertible extension of e -> Qe on the result wires."""
    tri = trinomial_split(p)
    if tri is not None:
        return reduction_cnot_trinomial(p.degree, tri, wires, style)
    es = equally_spaced_split(p)
    if es is not None:
        return reduction_cnot_equally_spaced(es[0], es[1], wires, style)
    n = q.n_rows
    cols = list(q.columns()) + [1 << _completion_column(q)]
    rows = [sum(((cols[j] >> r) & 1) << j for j in range(n)) for r in range(n)]
    return _linear_gates_from_matrix(rows, wires)


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
    initial value of the result register.
    """
    _check_modulus(p)
    return Circuit(*_baseline_gates(p, ladder_style))


def _baseline_gates(p: BinaryPolynomial, ladder_style: str) -> tuple[RegisterLayout, list[Gate]]:
    """Layout and gate list of `synth_baseline` for an already checked modulus."""
    n = p.degree
    q = build_reduction_matrix(p)
    layout = RegisterLayout(n=n, ancillas=0, phase_wires=frozenset())
    a, b, c = layout.a_range, layout.b_range, layout.c_range
    stage2 = _reduction_stage_gates(p, q, c, ladder_style)
    gates = stage2[::-1]
    gates += [
        Gate.toffoli(a[j], b[n + i - j], c[i]) for i in range(n - 1) for j in range(i + 1, n)
    ]
    gates += stage2
    gates += [Gate.toffoli(a[j], b[i - j], c[i]) for i in range(n) for j in range(i + 1)]
    return layout, gates


# ---------------------------------------------------------------------------
# the Karatsuba-style recursion over slot forms


def _forms_recursion(
    a: list[int], b: list[int], c: list[int], cp: list[int], leaf: Callable[[int, int, int], None]
) -> None:
    """Drive the halving recursion on plain linear forms.

    `leaf(alpha, beta, gamma)` is called once per base case; zero forms are
    passed through so the leaf can drop vanishing terms.
    """
    k = len(a)
    if k == 1:
        leaf(a[0], b[0], c[0])
    elif k % 2:
        _forms_recursion(*halving.pad_odd(a, b, c, cp, int), leaf)  # int() is the zero form
    else:
        for sub in split_even((a, b, c, cp), xor_lists, list_halves):
            _forms_recursion(*sub, leaf)


def ccz_count(p: BinaryPolynomial) -> int:
    """CCZ count of the Karatsuba core for modulus p, without building gates.

    Runs the same recursion as the builders and counts base cases whose
    three operand forms are all nonzero.
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
    _forms_recursion(ones, ones, ones, [*q.columns(), 0], leaf)
    return count


def ccz_count_bound(n: int) -> int:
    """3^ceil(log2 n), the advertised CCZ bound."""
    return 3 ** math.ceil(math.log2(n)) if n > 1 else 1


# ---------------------------------------------------------------------------
# compact builder: in-place materialization of linear forms


class _CnotCache(dict):
    """Maps a (control, target) wire pair to its CNOT Gate, built on first use.

    Gates are immutable and the recursion repeats most CNOTs: compact at
    n = 256 emits 241,905 CNOTs over 31,602 wire pairs.
    """

    def __missing__(self, pair: tuple[int, int]) -> Gate:
        gate = self[pair] = Gate.cnot(*pair)
        return gate


class _InPlaceGroup:
    """Wires of one register whose contents are re-expressed by CNOTs.

    The wire state stays invertible; `materialize` makes some wire hold a
    requested nonzero form, emitting CNOTs within the group.
    """

    def __init__(self, wires: Sequence[int], emit: Callable[[Gate], None]):
        self.wires = list(wires)
        self.state = LinearWireState(len(wires), track_solver=True)
        self.emit = emit
        self.cnots = _CnotCache()

    def materialize(self, form: int) -> int:
        if form == 0:
            raise SynthesisError("cannot materialize the zero form")
        state = self.state
        w = state.find_wire(form)
        if w is not None:
            return self.wires[w]
        sel = state.solve(form)
        tgt = (sel & -sel).bit_length() - 1
        # XOR every other selected wire onto the lowest one, in wire order.
        wires, cnots, emit, cnot = self.wires, self.cnots, self.emit, state.cnot
        wt = wires[tgt]
        for j in _bits(sel & (sel - 1)):
            emit(cnots[wires[j], wt])
            cnot(j, tgt)
        return wt

    def restore(self) -> None:
        """Return every wire to its initial value (emits CNOTs)."""
        for src, tgt in _gauss_jordan(self.state.rows):
            self.emit(self.cnots[self.wires[src], self.wires[tgt]])
            self.state.cnot(src, tgt)


# ---------------------------------------------------------------------------
# scheduled builders (linear-depth and log-depth)


@dataclass
class Slot:
    """A c-side or operand-side value holder: linear form plus its wire.

    Zero-valued slots may have no wire until something is XORed into them;
    `Slot()` is such a zero slot.
    """

    form: int = 0
    wire: Optional[int] = None


def pad_odd(a: list[Slot], b: list[Slot], c: list[Slot], cp: list[Slot]):
    """Grow odd-size slot vectors by one: zeros for a/b, cp_0 moves into c."""
    if len(a) % 2 == 0:
        raise InputError("pad_odd needs odd-size slot vectors")
    return halving.pad_odd(a, b, c, cp, Slot)


class _ScheduledCore:
    """Emit the recursion with helper wires so independent calls overlap.

    Helper wires are handed out in windows: simultaneous branches get
    disjoint windows, sequential branches reuse them. `peak` tracks the
    total helper count.
    """

    def __init__(self, emit: Callable[[Gate], None], anc_base: int, mode: str):
        self.emit = emit
        self.anc_base = anc_base
        self.mode = mode
        self.peak = 0
        self.cnots = _CnotCache()

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
        self.emit(self.cnots[src.wire, tgt.wire])
        tgt.form ^= src.form
        journal.append((src, tgt, allocated))
        return cur

    def _unprep(self, journal: list) -> None:
        # Wires handed to lazily-materialized slots are released once the
        # journal unwinds; sibling branches may reuse the window.
        for src, tgt, allocated in reversed(journal):
            self.emit(self.cnots[src.wire, tgt.wire])
            tgt.form ^= src.form
            if allocated:
                if tgt.form != 0:
                    raise SynthesisError("released slot still holds a value")
                tgt.wire = None

    def rec(self, a, b, c, cp, base) -> int:
        """Emit the size-len(a) instance with helpers from offset `base`; return the peak."""
        k = len(a)
        if k == 1:
            if a[0].form and b[0].form and c[0].form:
                self.emit(Gate.ccz(a[0].wire, b[0].wire, c[0].wire))
            return base
        if k % 2:
            return self.rec(*pad_odd(a, b, c, cp), base)
        if self.mode == "linear_depth":
            return self._rec_linear(a, b, c, cp, base)
        return self._rec_log(a, b, c, cp, base)

    def _rec_linear(self, a, b, c, cp, base) -> int:
        # Calls one and two run side by side on the folded halves and fresh
        # wires; the third runs after both are undone, on the same window.
        h = len(a) // 2
        cur = base
        prep: list = []

        def xor(src: Slot, tgt: Slot) -> None:
            nonlocal cur
            cur = self._xor_into(src, tgt, prep, cur)

        fresh = [Slot() for _ in range(h)]
        _prepare_parallel(xor, a, b, c, cp, fresh)
        peak_a = self.rec(a[:h], b[:h], c[h:], cp[:h], cur)
        peak_b = self.rec(a[h:], b[h:], fresh, cp[h:], peak_a)
        self._unprep(prep)
        prep.clear()
        _prepare_second(xor, c, cp)
        peak_c = self.rec(a[:h], b[:h], c[:h], cp[:h], cur)
        self._unprep(prep)
        return max(peak_a, peak_b, peak_c)

    def _rec_log(self, a, b, c, cp, base) -> int:
        # Every entry of every sub-call gets fresh wires, so the three calls
        # share no wire and run side by side.
        h = len(a) // 2
        parts = [half for r in (a, b, c, cp) for half in list_halves(r)]
        cur = base
        prep: list = []
        calls = []
        for call in SUBCALLS:
            sub = [[Slot() for _ in range(h)] for _ in call]
            for entry, column in zip(call, sub):
                for i, slot in enumerate(column):
                    for part in entry:
                        cur = self._xor_into(parts[part][i], slot, prep, cur)
            calls.append(sub)
        peak = cur
        for sub in calls:
            peak = self.rec(*sub, peak)
        self._unprep(prep)
        return peak


# ---------------------------------------------------------------------------
# depth-2 preparation fragments: the linear-depth builder's schedule


def _prepare_parallel(xor, a, b, c, cp, fresh) -> None:
    h = len(a) // 2
    for i in range(h):
        xor(a[h + i], a[i])
    for i in range(h):
        xor(b[h + i], b[i])
    for i in range(h):
        xor(cp[i], cp[h + i])
    for i in range(h):
        xor(c[h + i], fresh[i])
    for i in range(h):
        xor(cp[i], fresh[i])


def _prepare_second(xor, c, cp) -> None:
    h = len(c) // 2
    for i in range(h):
        xor(c[h + i], c[i])
    for i in range(h):
        xor(c[h + i], cp[i])


def prepare_parallel(
    a_wires: Sequence[int],
    b_wires: Sequence[int],
    c_wires: Sequence[int],
    cp_wires: Sequence[int],
    fresh_wires: Sequence[int],
) -> list[Gate]:
    """Depth-2 CNOT fragment readying two disjoint half-size calls.

    Layer 1 folds right operand halves into left ones, right c' half gets
    the left one, and the fresh wires copy the right c half; layer 2 adds
    the left c' half onto the fresh wires.
    """
    k = len(a_wires)
    if k % 2 or len(b_wires) != k or len(c_wires) != k or len(cp_wires) != k:
        raise InputError("prepare_parallel needs even equal-size registers")
    if len(fresh_wires) != k // 2:
        raise InputError("need ceil(k/2) fresh wires")
    return _cnots(_prepare_parallel, a_wires, b_wires, c_wires, cp_wires, fresh_wires)


def prepare_second(c_wires: Sequence[int], cp_wires: Sequence[int]) -> list[Gate]:
    """Depth-2 CNOT fragment feeding the third recursive call."""
    k = len(c_wires)
    if k % 2 or len(cp_wires) != k:
        raise InputError("prepare_second needs even equal-size registers")
    return _cnots(_prepare_second, c_wires, cp_wires)


def _cnots(fragment, *wires) -> list[Gate]:
    """The gates of a fragment body run on wire lists, one CNOT per xor."""
    gates: list[Gate] = []
    fragment(lambda s, t: gates.append(Gate.cnot(s, t)), *wires)
    return gates


# ---------------------------------------------------------------------------
# scratch preparation of c' = Q^T c for the scheduled variants


def _scratch_prep_trinomial(n, k, c_wires, scratch_wires, style) -> list[Gate]:
    gates = [Gate.cnot(c_wires[m], scratch_wires[m]) for m in range(n - 1)]
    gates += [Gate.cnot(c_wires[k + i], scratch_wires[i]) for i in range(n - k)]
    for res in range(n - k):
        chain = [scratch_wires[pos] for pos in range(res, n - 1, n - k)]
        if len(chain) >= 2:
            gates.extend(cnot_ladder(chain, style))
    return gates


def _scratch_prep_equally_spaced(terms, k, c_wires, scratch_wires, temp_wires, style) -> list[Gate]:
    n = terms * k
    gates = [Gate.cnot(c_wires[m - k], scratch_wires[m]) for m in range(k, n - 1)]
    for j in range(k):
        temps = temp_wires[j * terms : (j + 1) * terms]
        copy = [Gate.cnot(c_wires[i * k + j], temps[i]) for i in range(terms)]
        ladder = cnot_ladder(temps, style)
        gates += copy + ladder
        gates.append(Gate.cnot(temps[-1], scratch_wires[j]))
        gates += [g for g in reversed(ladder)]
        gates += [g for g in reversed(copy)]
    return gates


# ---------------------------------------------------------------------------
# top-level assembly


def _core_gates(
    gates: list[Gate],
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
        c_group = [*c_wires, *(w for w in cp_wires if w is not None)]
        ga, gb, gc = (_InPlaceGroup(ws, gates.append) for ws in (a_wires, b_wires, c_group))

        def leaf(fa: int, fb: int, fc: int) -> None:
            if not (fa and fb and fc):
                return
            wc = gc.materialize(fc)
            wa = ga.materialize(fa)
            wb = gb.materialize(fb)
            gates.append(Gate.ccz(wa, wb, wc))

        _forms_recursion(ones, ones, ones, cp_forms, leaf)
        for group in (ga, gb, gc):
            group.restore()
        return 0
    sched = _ScheduledCore(gates.append, anc_base, mode)
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
    prep: list[Gate] = []
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
    h_layer = [Gate.h(w) for w in c_wires]
    gates = h_layer + prep
    cp_forms = [*q.columns(), 0]
    own = len(scratch) + len(temps)
    cp_wires = scratch + [None] * (n - len(scratch))
    helpers = _core_gates(gates, variant, n, cp_forms, cp_wires, anc_base + own)
    gates += reversed(prep)
    gates += h_layer
    return Circuit(RegisterLayout(n=n, ancillas=own + helpers), gates)


def synth(options: SynthesisOptions) -> Circuit:
    """Synthesize a multiplier circuit per the options.

    ccz_form circuits carry the H sandwich on the c register; toffoli_form
    is available for the baseline and compact variants (the scheduled
    variants use in-core helper wires that have no gate-local classical
    rewrite, see README).
    """
    p = options.modulus
    _check_modulus(p)

    if options.variant == "baseline":
        layout, gates = _baseline_gates(p, options.ladder_style)
        if options.output_form == "ccz_form":
            return to_ccz_form(layout, gates)
        return Circuit(layout, gates)

    circ = _karatsuba_circuit(p, options.variant, options.ladder_style)
    if options.output_form == "toffoli_form":
        if options.variant != "compact":
            raise FormError(
                f"{options.variant} emits ccz_form only; its helper wires have "
                "no gate-local Toffoli rewrite"
            )
        circ = to_toffoli_form(circ)
    return circ


def karatsuba_core(k: int, mode: str = "compact") -> Circuit:
    """Standalone recursion fragment over free slot variables.

    Registers a, b, c of size k plus k helper wires holding the free
    c'-side variables. The fragment's extracted phase equals the size-k
    target polynomial and its net wire transform is the identity; k = 1
    emits exactly one CCZ.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if mode not in ("compact", "linear_depth", "log_depth"):
        raise InputError(f"unknown mode {mode!r}")
    gates: list[Gate] = []
    cp_forms = [1 << (k + i) for i in range(k)]
    extra = _core_gates(gates, mode, k, cp_forms, range(3 * k, 4 * k), 4 * k)
    return Circuit(RegisterLayout(n=k, ancillas=k + extra), gates)
