"""Simulation, the Toffoli-form rewrite, and end-to-end multiplier verification.

Two simulation paths:

* classical circuits (CNOT/Toffoli/X) are run directly on basis states;
* H-sandwich circuits are run with exact phase-kickback bookkeeping: the
  sandwiched wires become symbols, and every wire carries an affine form
  over those symbols, kept as one int with the symbol mask in its low
  bits. A CCZ with one symbol-carrying operand adds the product of its
  two plain operands into an accumulator keyed by that operand's symbol
  mask; the kickback is deferred and expanded into per-symbol flips once,
  after the last gate. The output on a sandwiched wire is its input XOR
  its accumulated flip. This is exact for circuits where every CCZ has at
  most one symbol-carrying operand, which covers everything the
  synthesizer emits.

Both paths are bit-sliced: a wire's value across T test inputs is one
T-bit integer, so verification over thousands of inputs costs one gate
walk. `verify_multiplier` stays on columns end to end: inputs are drawn
as seeded random columns (or, in exhaustive mode, all 4^n operand pairs,
run twice), the expected product is computed on columns, and whole
columns are compared; only the lowest failing trial is decoded into a
counterexample, which the same seed reproduces.
"""

from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import compress, count
from operator import gt, itemgetter
from typing import Optional, Sequence

from .circuit import K_CCZ, K_CNOT, K_H, K_TOF, K_X, KINDS, Circuit, RegisterLayout
from .errors import FormError, InputError, SimulationError
from .gf2 import BinaryPolynomial, _mod, _mul, build_reduction_matrix
from .phasepoly import _bits

DEFAULT_SEED = 0x6F2C0DE
SEED_ENV_VAR = "GF2KQ_SEED"


def default_seed() -> int:
    """The seed from GF2KQ_SEED (any int literal), else DEFAULT_SEED."""
    raw = os.environ.get(SEED_ENV_VAR)
    try:
        return int(raw, 0) if raw else DEFAULT_SEED
    except ValueError:
        raise InputError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


# ---------------------------------------------------------------------------
# CCZ form -> Toffoli form


def _split_sandwich(circuit: Circuit) -> tuple[frozenset, Circuit]:
    """The phase wires and the core inside the H layers.

    The core's records are memoryviews of the circuit's, not copies. While
    they live, the circuit's arrays cannot be resized, so callers release
    them (`with core.kinds, core.ops:`) before they return.
    """
    kinds, ops = circuit.kinds, circuit.ops
    h = bytes([K_H])
    lo = len(kinds) - len(kinds.lstrip(h))
    if lo == len(kinds):
        # no core at all: the two layers make up the whole gate list
        if lo % 2:
            raise FormError("odd all-H gate list is not an H sandwich")
        lo = hi = lo // 2
    else:
        hi = len(kinds.rstrip(h))
    front = set(ops[0 : 3 * lo : 3])
    back = set(ops[3 * hi :: 3])
    if not front or front != back:
        raise FormError("circuit is not an H sandwich (layers missing or unequal)")
    if len(front) != lo or len(back) != len(kinds) - hi:
        raise FormError("duplicate H on one wire in a sandwich layer")
    if front != circuit.layout.phase_wires:
        raise FormError("H layers do not match the layout's phase wires")
    core = Circuit(circuit.layout)
    core.kinds, core.ops = memoryview(kinds)[lo:hi], memoryview(ops)[3 * lo : 3 * hi]
    return frozenset(front), core


def to_toffoli_form(circuit: Circuit) -> Circuit:
    """Strip the H sandwich, turning each CCZ into a Toffoli on its phase wire.

    Requires every CCZ to touch exactly one sandwiched wire and every CNOT
    to touch either none or both; CNOTs between sandwiched wires reverse
    direction. The result is purely classical-reversible.

    The rewrite works on whole columns, as the simulators do. A flag int
    holds one byte per core gate: 1 where the gate is of some kind, or
    where one of its operands is a phase wire. Each check and the CNOT
    reversal are then a few big-int operations, not a loop over the gates.
    """
    phase, core = _split_sandwich(circuit)
    layout = RegisterLayout(
        circuit.layout.n, circuit.layout.ancillas, phase_wires=frozenset()
    )
    with core.kinds, core.ops:
        kinds = bytes(core.kinds)
        ops = array("i", bytes(core.ops))
    n = len(kinds)
    u, v, w = (ops[i::3] for i in range(3))
    # Per wire, 1 on a phase wire, and as a 32-bit word, all ones on one.
    # Index -1, read for unused operand slots, is a plain wire.
    mark = bytearray(circuit.wire_count + 1)
    word = [bytes(4)] * len(mark)
    for x in phase:
        mark[x], word[x] = 1, b"\xff" * 4
    wide = b"".join(map(word.__getitem__, u))
    cnot, ccz, gx, gh = (_flags(kinds.translate(_IS[k])) for k in (K_CNOT, K_CCZ, K_X, K_H))
    every = _flags(b"\1" * n)
    pu = _flags(wide[::4]) & every
    pv, pw = (_flags(bytes(map(mark.__getitem__, col))) for col in (v, w))
    not_one = pu ^ pv ^ pw ^ every | pu & pv & pw  # not exactly one phase operand
    fault = cnot & (pu ^ pv) | ccz & not_one | gx & pu | gh | every ^ cnot ^ ccz ^ gx ^ gh
    if fault:
        i = ((fault & -fault).bit_length() - 1) // 8
        raise FormError(_core_fault(kinds[i], u[i], v[i], w[i], mark))
    # A CNOT between phase wires reverses: both operands XOR with u ^ v. Past
    # the checks, a first operand on a phase wire is such a CNOT or a CCZ,
    # and a CCZ is rebuilt below from its operands in any order.
    wu, wv = (int.from_bytes(col.tobytes(), "little") for col in (u, v))
    swap = (wu ^ wv) & int.from_bytes(wide, "little")
    ops[0::3], ops[1::3] = (array("i", (x ^ swap).to_bytes(4 * n, "little")) for x in (wu, wv))
    # A CCZ becomes a Toffoli with ascending controls and its phase wire as
    # target. The builders emit CCZs in that order; any other is rebuilt.
    moved = ccz & (pu | pv | _flags(bytes(map(gt, u, v))))
    by_mark = partial(sorted, key=mark.__getitem__)
    for i in compress(count(), moved.to_bytes(n, "little")):
        ops[3 * i : 3 * i + 3] = array("i", by_mark(sorted(ops[3 * i : 3 * i + 3])))
    kinds = bytearray(kinds.replace(bytes([K_CCZ]), bytes([K_TOF])))
    return Circuit.from_records(layout, kinds, ops)


def _flags(flags: bytes) -> int:
    """One 0/1 byte per gate as a flag int: bitwise ops act gate by gate."""
    return int.from_bytes(flags, "little")


def _core_fault(k: int, u: int, v: int, w: int, mark: bytearray) -> str:
    """Why the core gate (k, u, v, w) has no Toffoli-form rewrite."""
    if k == K_CNOT:
        return f"CNOT {(u, v)} mixes phase and plain wires"
    if k == K_CCZ:
        return f"CCZ {(u, v, w)} touches {mark[u] + mark[v] + mark[w]} phase wires"
    if k == K_H:
        return "H gate inside the sandwich core"
    if k == K_X:
        return "X on a phase wire has no classical rewrite"
    return f"unsupported core gate {KINDS[k]}"


# _IS[k] is the bytes.translate table that maps kind code k to 1, all else to 0.
_IS = [bytes(c == k for c in range(256)) for k in range(len(KINDS))]


# ---------------------------------------------------------------------------
# simulators


def is_classical(circuit: Circuit) -> bool:
    return K_CCZ not in circuit.kinds and K_H not in circuit.kinds


def simulate(circuit: Circuit, state: Sequence[int]) -> tuple[int, ...]:
    """Apply a classical reversible circuit to one basis state."""
    if len(state) != circuit.wire_count:
        raise InputError("state length must equal wire count")
    if not is_classical(circuit):
        raise InputError("simulate handles CNOT/TOF/X circuits only")
    cols = [bit & 1 for bit in state]
    _run_classical(circuit, cols, 1)
    return tuple(cols)


def _run_classical(circuit: Circuit, cols: list[int], full: int) -> None:
    for k, u, v, w in circuit.records():
        if k == K_CNOT:
            cols[v] ^= cols[u]
        elif k == K_TOF:
            cols[w] ^= cols[u] & cols[v]
        else:  # X: callers check `is_classical` first
            cols[u] ^= full


_TWO_SYMBOLS = "CCZ with two symbol-carrying operands is not basis-preserving"


def _run_sandwich(circuit: Circuit, cols: list[int], tmask: int) -> list[int]:
    """Bit-sliced phase-kickback run; returns output columns.

    Wire w's state is one int, (value << m) | symbols: its classical value
    across the trials above the mask of the m phase-wire symbols it
    carries (symbol k is the k-th phase wire in ascending order). A CNOT is
    then a single XOR. Each CCZ with one symbolic operand adds the product
    of its two plain operands to `acc[symbols]`; the accumulated products
    are expanded into per-phase-wire flips once, at the end.
    """
    phase, core = _split_sandwich(circuit)
    order = sorted(phase)
    m = len(order)
    zfull = (1 << m) - 1
    st = [col << m for col in cols]
    for k, w in enumerate(order):
        st[w] = 1 << k
    xbits = tmask << m
    acc: dict[int, int] = {}
    with core.kinds, core.ops:
        for k, u, v, w in core.records():
            if k == K_CNOT:
                st[v] ^= st[u]
            elif k == K_CCZ:
                su = st[u]
                sv = st[v]
                sw = st[w]
                zu = su & zfull
                zv = sv & zfull
                zw = sw & zfull
                if zu:
                    if zv or zw:
                        raise SimulationError(_TWO_SYMBOLS)
                    z, prod = zu, sv & sw
                elif zv:
                    if zw:
                        raise SimulationError(_TWO_SYMBOLS)
                    z, prod = zv, su & sw
                elif zw:
                    z, prod = zw, su & sv
                else:
                    continue  # per-input global phase only
                if prod:
                    acc[z] = acc.get(z, 0) ^ prod
            elif k == K_TOF:
                su = st[u]
                sv = st[v]
                if su & zfull or sv & zfull:
                    raise SimulationError("Toffoli control carries symbols")
                st[w] ^= su & sv
            elif k == K_X:
                if st[u] & zfull:
                    raise SimulationError("X on a symbol-carrying wire")
                st[u] ^= xbits
            else:
                raise SimulationError(f"unsupported core gate {KINDS[k]}")
    flips = [f >> m for f in _kickback(acc, m)]
    rank = {w: k for k, w in enumerate(order)}
    out = [0] * circuit.wire_count
    for w, s in enumerate(st):
        k = rank.get(w)
        if k is not None:
            if s & zfull != 1 << k:
                raise SimulationError("sandwich core is not the identity on phase wires")
            if s >> m:
                raise SimulationError("classical offset left on a phase wire")
            out[w] = cols[w] ^ flips[k]
        else:
            if s & zfull:
                raise SimulationError(f"wire {w} stays entangled with phase wires")
            out[w] = s >> m
    return out


def _kickback(acc: dict[int, int], m: int) -> list[int]:
    """flips[k] = XOR of acc[z] over the masks z with bit k. Each product goes to one
    bucket per byte of its mask; each bucket, not each product, is expanded into bits."""
    buckets = acc.items()  # a mask of one byte is its own bucket
    if m > 8:
        width = (m + 7) // 8
        table = [0] * (256 * width)
        bases = range(0, 256 * width, 256)
        for z, prod in acc.items():
            for base, byte in zip(bases, z.to_bytes(width, "little")):
                if byte:
                    table[base + byte] ^= prod
        buckets = filter(itemgetter(1), enumerate(table))
    flips = [0] * (m + 7 & ~7)
    for key, prod in buckets:
        base = key >> 8 << 3
        for k in _bits(key & 255):
            flips[base + k] ^= prod
    return flips[:m]


def run_batch(circuit: Circuit, cols: Sequence[int], trials: int) -> list[int]:
    """Run `trials` basis inputs at once; cols[w] holds wire w across trials."""
    tmask = (1 << trials) - 1
    if is_classical(circuit):
        out = list(cols)
        _run_classical(circuit, out, tmask)
        return out
    return _run_sandwich(circuit, list(cols), tmask)


# ---------------------------------------------------------------------------
# multiplier verification


@dataclass(frozen=True)
class VerificationReport:
    modulus: BinaryPolynomial
    variant: str
    mode: str
    trials: int
    seed: Optional[int]
    passed: bool
    ancillas_clean: bool
    operands_preserved: bool
    counterexample: Optional[dict]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [
            f"{status} modulus={self.modulus.exponent_list()}",
            f"mode={self.mode}",
            f"trials={self.trials}",
        ]
        if self.variant:
            parts.insert(1, f"variant={self.variant}")
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.counterexample is not None:
            ce = self.counterexample
            parts.append(
                "counterexample a=%s b=%s c0=%s got=%s want=%s"
                % (ce["a"], ce["b"], ce["c0"], ce["got"], ce["want"])
            )
        return " ".join(parts)


def _pretty(bits: int) -> str:
    return str(BinaryPolynomial(bits))


EXHAUSTIVE_CAP = 8


def _index_columns(bits: int) -> list[int]:
    """Column k holds bit k of the trial index, over all 2^bits trials.

    Built by doubling: 2^k zeros then 2^k ones, repeated out to 2^bits bits.
    """
    width = 1 << bits
    cols = []
    for k in range(bits):
        half = 1 << k
        col = ((1 << half) - 1) << half
        span = 2 * half
        while span < width:
            col |= col << span
            span *= 2
        cols.append(col)
    return cols


def product_columns(
    a_cols: Sequence[int], b_cols: Sequence[int], p: BinaryPolynomial
) -> list[int]:
    """Bit-sliced a*b mod p: column k of the result is bit k over all trials.

    The schoolbook product gives d_m = XOR_{i+j=m} a_i & b_j; each d_m with
    m >= n then folds into the rows set in column m - n of the reduction
    matrix, as `mastrovito_product` does for one input.
    """
    n = p.degree
    d = [0] * (2 * n - 1)
    for i, ai in enumerate(a_cols):
        for j, bj in enumerate(b_cols):
            d[i + j] ^= ai & bj
    want = d[:n]
    if n >= 2:
        for k, row in enumerate(build_reduction_matrix(p).rows):
            for j in _bits(row):
                want[k] ^= d[n + j]
    return want


def _decode(cols: Sequence[int], idx: int) -> int:
    return sum(((col >> idx) & 1) << i for i, col in enumerate(cols))


def verify_multiplier(
    circuit: Circuit,
    p: BinaryPolynomial,
    exhaustive: bool = False,
    trials: int = 1000,
    seed: Optional[int] = None,
    variant: str = "",
) -> VerificationReport:
    """Check circuit output = c0 xor (a*b mod p) on many basis inputs at once.

    Inputs are drawn as whole columns from `random.Random(seed)`. Exhaustive
    mode runs all 4^n operand pairs (trial a*2^n + b) twice: once with
    c0 = 0, then with one `getrandbits(4^n)` column per c wire. Randomized
    mode draws one `getrandbits(trials)` column per a, b and c wire, in that
    order, and needs trials >= 1. The counterexample is the lowest failing
    trial; the same seed reproduces it, and its bits replay through
    `run_batch`. Operand preservation and ancilla cleanliness are always
    checked.
    """
    n = p.degree
    lay = circuit.layout
    if lay.n != n:
        raise InputError(f"circuit registers are size {lay.n}, modulus degree is {n}")
    if exhaustive and n > EXHAUSTIVE_CAP:
        raise InputError(f"exhaustive mode is capped at n = {EXHAUSTIVE_CAP}")
    if not exhaustive and trials < 1:
        raise InputError(f"randomized verification needs trials >= 1, got {trials}")
    if seed is None:
        seed = default_seed()
    rng = random.Random(seed)

    if exhaustive:
        t = 1 << (2 * n)
        index = _index_columns(2 * n)
        a_cols, b_cols = index[n:], index[:n]
        c0_passes = [[0] * n, [rng.getrandbits(t) for _ in range(n)]]
        mode = "exhaustive"
    else:
        t = trials
        a_cols = [rng.getrandbits(t) for _ in range(n)]
        b_cols = [rng.getrandbits(t) for _ in range(n)]
        c0_passes = [[rng.getrandbits(t) for _ in range(n)]]
        mode = f"randomized({trials})"

    product = product_columns(a_cols, b_cols, p)
    for c0_cols in c0_passes:
        report = _verify_batch(
            circuit, p, a_cols, b_cols, c0_cols, product, t, mode, seed, variant
        )
        if not report.passed:
            return report
    return report


def _verify_batch(
    circuit, p, a_cols, b_cols, c0_cols, product, t, mode, seed, variant
) -> VerificationReport:
    lay = circuit.layout
    cols = [0] * circuit.wire_count
    for reg, reg_cols in ((lay.a_range, a_cols), (lay.b_range, b_cols), (lay.c_range, c0_cols)):
        for w, col in zip(reg, reg_cols):
            cols[w] = col
    out = run_batch(circuit, cols, t)

    got_cols = [out[w] for w in lay.c_range]
    bad = 0  # trial mask of failures
    for got, c0, prod in zip(got_cols, c0_cols, product):
        bad |= got ^ c0 ^ prod
    operands_ok = all(out[w] == cols[w] for w in (*lay.a_range, *lay.b_range))
    anc_ok = not any(out[w] for w in lay.anc_range)

    passed = bad == 0 and operands_ok and anc_ok
    counterexample = None
    if bad:
        idx = (bad & -bad).bit_length() - 1
        a, b, c0, got = (_decode(cs, idx) for cs in (a_cols, b_cols, c0_cols, got_cols))
        counterexample = {
            "a": _pretty(a),
            "b": _pretty(b),
            "c0": _pretty(c0),
            "got": _pretty(got),
            "want": _pretty(c0 ^ _mod(_mul(a, b), p.bits)),
            "a_bits": a,
            "b_bits": b,
            "c0_bits": c0,
            "got_bits": got,
        }
    elif not (operands_ok and anc_ok):
        counterexample = {
            "a": "-", "b": "-", "c0": "-",
            "got": "operand or ancilla register disturbed",
            "want": "registers preserved, ancillas zero",
        }
    return VerificationReport(
        modulus=p,
        variant=variant,
        mode=mode,
        trials=t,
        seed=seed,
        passed=passed,
        ancillas_clean=anc_ok,
        operands_preserved=operands_ok,
        counterexample=counterexample,
    )
