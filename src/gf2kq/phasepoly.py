"""Cubic phase-polynomial semantics for CNOT+CCZ circuits.

A circuit of CNOTs and CCZs maps a basis state |x> to (-1)^f(x) |Tx| with
T an invertible linear transform and f a homogeneous cubic multilinear
polynomial over GF(2). This module extracts (f, T) from circuits, builds
the target polynomial for GF(2^n) multiplication, and checks the recursion
identities the synthesizer relies on, both symbolically and on random
assignments. Evaluation and symbolic expansion are implemented separately
so each can cross-check the other.

Variable convention for polynomials tied to an n-qubit multiplier:
a_i -> i, b_i -> n+i, c_i -> 2n+i, c'_i -> 3n+i.
"""

from __future__ import annotations

import operator
import random
from functools import reduce
from itertools import compress, count
from typing import Callable, Iterable, NamedTuple, Optional

from . import halving
from .circuit import K_CCZ, K_CNOT, KINDS, Circuit
from .errors import InputError
from .gf2 import Gf2Matrix, _mul
from .halving import C, CP, SUBCALLS, list_halves, pad_odd, split_even, xor_lists


class CubicPhasePolynomial:
    """Set of degree-3 multilinear monomials with mod-2 coefficients.

    A monomial is a sorted index triple; adding one twice removes it.
    """

    __slots__ = ("monomials",)

    def __init__(self, monomials: Iterable[tuple[int, int, int]] = ()):
        self.monomials: set[tuple[int, int, int]] = set()
        for m in monomials:
            self.xor_monomial(*m)

    def xor_monomial(self, i: int, j: int, k: int) -> None:
        if i == j or j == k or i == k:
            raise InputError(f"degenerate monomial ({i},{j},{k})")
        self.monomials ^= {tuple(sorted((i, j, k)))}

    def xor_product(self, f1: int, f2: int, f3: int) -> None:
        """Expand the product of three linear forms (bit masks) into monomials."""
        if f1 & f2 or f1 & f3 or f2 & f3:
            raise InputError("linear forms share a variable; product is not cubic")
        acc = self.monomials
        for i in _bits(f1):
            for j in _bits(f2):
                for k in _bits(f3):
                    acc ^= {tuple(sorted((i, j, k)))}
        self.monomials = acc

    def __xor__(self, other: "CubicPhasePolynomial") -> "CubicPhasePolynomial":
        out = CubicPhasePolynomial()
        out.monomials = self.monomials ^ other.monomials
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, CubicPhasePolynomial) and self.monomials == other.monomials

    def __len__(self) -> int:
        return len(self.monomials)

    def is_empty(self) -> bool:
        return not self.monomials

    def evaluate(self, assignment: int) -> int:
        val = 0
        for i, j, k in self.monomials:
            val ^= (assignment >> i) & (assignment >> j) & (assignment >> k) & 1
        return val

    def restricted_to_zero(self, variables) -> "CubicPhasePolynomial":
        """Set the given variables to 0: drop monomials touching any of them."""
        dead = set(variables)
        out = CubicPhasePolynomial()
        out.monomials = {m for m in self.monomials if not dead.intersection(m)}
        return out

    def __repr__(self) -> str:
        return f"CubicPhasePolynomial({sorted(self.monomials)!r})"


def _bits(mask: int):
    """Indices of the set bits of a nonnegative mask, lowest first."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class LinearWireState:
    """Invertible GF(2) matrix giving each wire's value over initial values.

    Row w is a bit mask: wire w currently holds the XOR of the initial
    values selected by the mask. CNOT(c, t) adds row c to row t. The state
    also keeps the inverse matrix N in two forms:

    - row form: `_inv[k]` is the set of wires whose rows XOR to the unit
      form 1 << k, so `solve(form)` XORs one of them per set bit of `form`.
    - column form: bit k of `_nt[j]` is set when `_inv[k]` holds wire j.

    `fan_in(controls, t)` applies CNOT(j, t) for every j in `controls`;
    `cnot` is a run of one. The run leaves `_nt[t]` fixed, so it costs one
    XOR into `rows[t]` and one into `_nt[j]` per control, then one XOR of
    the whole control mask into `_inv[k]` per set bit k of `_nt[t]`.
    Nothing maps a row back to its wire: `find_wire` scans the rows.
    """

    __slots__ = ("n", "rows", "_nt", "_inv")

    def __init__(self, n: int):
        self.n = n
        self.rows = [1 << i for i in range(n)]
        self._nt = self.rows.copy()
        self._inv = self.rows.copy()

    def cnot(self, control: int, target: int) -> None:
        self.fan_in(1 << control, target)

    def fan_in(self, controls: int, target: int) -> None:
        """CNOT(j, target) for each wire j in the mask `controls` (they commute)."""
        if not controls:
            return
        if controls >> target & 1:
            raise InputError("CNOT control equals target")
        rows, nt, inv = self.rows, self._nt, self._inv
        row = rows[target]
        col = nt[target]
        for j in _bits(controls):
            row ^= rows[j]
            nt[j] ^= col
        rows[target] = row
        for k in _bits(col):
            inv[k] ^= controls

    def row(self, wire: int) -> int:
        return self.rows[wire]

    def is_identity(self) -> bool:
        return all(r == 1 << i for i, r in enumerate(self.rows))

    def solve(self, form: int) -> int:
        """Wire-selection mask s with XOR of rows[j] over j in s == form."""
        return reduce(operator.xor, map(self._inv.__getitem__, _bits(form)), 0)

    def find_wire(self, form: int) -> Optional[int]:
        """Lowest wire currently holding exactly `form`, if any."""
        return next((w for w, r in enumerate(self.rows) if r == form), None)


def extract_phase(
    circuit: Circuit, initial: Optional[LinearWireState] = None
) -> tuple[CubicPhasePolynomial, LinearWireState]:
    """Walk a {CNOT, CCZ} circuit and return (phase polynomial, wire state).

    CCZ operands whose current rows share a variable would break the
    homogeneous-cubic invariant, so they raise instead of being folded.
    Consecutive CNOTs onto one target commute, so each such run is applied
    as one `fan_in`, which updates the inverse once per run, not per CNOT.
    """
    state = initial if initial is not None else LinearWireState(circuit.wire_count)
    poly = CubicPhasePolynomial()
    controls = target = 0
    for k, u, v, w in circuit.records():
        if k == K_CNOT and v == target:
            controls ^= 1 << u
            continue
        state.fan_in(controls, target)
        controls = 0
        if k == K_CNOT:
            controls, target = 1 << u, v
        elif k == K_CCZ:
            poly.xor_product(state.row(u), state.row(v), state.row(w))
        else:
            raise InputError(f"extract_phase supports CNOT and CCZ only, got {KINDS[k]}")
    state.fan_in(controls, target)
    return poly, state


# ---------------------------------------------------------------------------
# variable numbering and the multiplication target polynomial


def var_a(n: int, i: int) -> int:
    return i


def var_b(n: int, i: int) -> int:
    return n + i


def var_c(n: int, i: int) -> int:
    return 2 * n + i


def var_cprime(n: int, i: int) -> int:
    return 3 * n + i


def target_polynomial(n: int) -> CubicPhasePolynomial:
    """g(a,b,c) xor h(a,b,c') as monomials; exactly n^2 of them.

    g sums a_j b_(i-j) c_i over j <= i < n; h sums a_j b_(n+i-j) c'_i over
    i < j < n, i <= n-2.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    a, b, c, cp = _free_forms(n)
    return _sym_g(a, b, c, n) ^ _sym_h(a, b, cp, n)


def _free_forms(n: int) -> list[list[int]]:
    """a, b, c, c' as one free variable per position."""
    return [[1 << var(n, i) for i in range(n)] for var in (var_a, var_b, var_c, var_cprime)]


def _sym_g(a, b, c, n: int) -> CubicPhasePolynomial:
    """g over vectors of linear forms, expanded into monomials."""
    poly = CubicPhasePolynomial()
    for i in range(n):
        for j in range(i + 1):
            poly.xor_product(a[j], b[i - j], c[i])
    return poly


def _sym_h(a, b, cp, n: int) -> CubicPhasePolynomial:
    """h over vectors of linear forms, expanded into monomials."""
    poly = CubicPhasePolynomial()
    for i in range(n - 1):
        for j in range(i + 1, n):
            poly.xor_product(a[j], b[n + i - j], cp[i])
    return poly


def substitute_cprime(poly: CubicPhasePolynomial, q: Gf2Matrix) -> CubicPhasePolynomial:
    """Replace each c'_i by the form sum_j Q[j][i] c_j and re-expand."""
    n = q.n_rows
    cp_base = 3 * n
    for m in poly.monomials:
        for v in m:
            if v >= cp_base + q.n_cols:
                raise InputError("polynomial c' arity exceeds cols(Q)")
    out = CubicPhasePolynomial()
    for m in poly.monomials:
        cps = [v for v in m if v >= cp_base]
        rest = [v for v in m if v < cp_base]
        if not cps:
            out.monomials ^= {m}
            continue
        if len(cps) > 1:
            raise InputError("monomial with two c' variables cannot be substituted")
        col = q.column(cps[0] - cp_base)
        for j in _bits(col):
            out.xor_monomial(rest[0], rest[1], var_c(n, j))
    return out


# ---------------------------------------------------------------------------
# fast evaluators (independent of the symbolic expansion)


def g_value(a: int, b: int, c: int, n: int) -> int:
    """g(a,b,c) evaluated on bit-mask assignments of size n."""
    low = _mul(a, b) & ((1 << n) - 1)
    return (low & c).bit_count() & 1


def h_value(a: int, b: int, cp: int, n: int) -> int:
    """h(a,b,c') on bit masks; only c'_0..c'_(n-2) are read."""
    high = (_mul(a, b) >> n) & ((1 << (n - 1)) - 1)
    return (high & cp).bit_count() & 1


# ---------------------------------------------------------------------------
# the recursion identities, symbolic and on random bit masks


def _mask_halves(h: int):
    """`halves` for size-2h registers held as bit masks."""
    low = (1 << h) - 1
    return lambda x: (x & low, x >> h)


def _on_lists(rule: Callable, regs, n: int):
    """`rule` applied to list registers: (the new registers, their size)."""
    out = rule(*regs)
    return out, len(out[0])


def _on_bit_lists(rule: Callable, regs, n: int):
    """`rule` applied to size-n bit-mask registers, by way of their bit lists."""
    out = rule(*([(x >> i) & 1 for i in range(n)] for x in regs))
    return [sum(v << i for i, v in enumerate(r)) for r in out], len(out[0])


def _pad(a, b, c, cp):
    return pad_odd(a, b, c, cp, int)


def _reshape(a, b, c, cp):
    return halving.reshape(a, b, c, cp, int)


def _zero_top(a, b, c, cp):
    return a[:-1] + [0], b[:-1] + [0], c, cp


class _Model(NamedTuple):
    """How registers are held and g, h evaluated: linear forms or bit masks."""

    g: Callable  # g(a, b, c, n)
    h: Callable  # h(a, b, c', n)
    combine: Callable  # XOR of two half registers
    halves: Callable  # halves(h) splits a size-2h register into (low, high)
    lists: Callable  # lists(rule, regs, n) applies a list-register rule such as pad_odd


_FORMS = _Model(_sym_g, _sym_h, xor_lists, lambda h: list_halves, _on_lists)
_MASKS = _Model(g_value, h_value, operator.xor, _mask_halves, _on_bit_lists)


def _instances(n: int, trials: int, symbolic: bool, seed: int):
    """The free symbolic registers if `symbolic`, then `trials` random bit masks."""
    if symbolic:
        yield _free_forms(n), _FORMS
    rng = random.Random(seed)
    for _ in range(trials):
        yield [rng.getrandbits(n) for _ in range(4)], _MASKS


def _gh(model: _Model, regs, n: int):
    a, b, c, cp = regs
    return model.g(a, b, c, n) ^ model.h(a, b, cp, n)


def _halving_holds(
    regs, n: int, model: _Model, dead: Optional[int], drop_term: Optional[int]
) -> bool:
    """g ^ h of `regs` equals the XOR of its halving terms, less `drop_term`.

    The terms are g and h of each sub-call, in `SUBCALLS` order. With
    register `dead` set to zero, the terms whose c-side reads only that
    register vanish, and `drop_term` indexes the terms left.
    """
    if dead is not None:
        regs = list(regs)
        regs[dead] = model.combine(regs[dead], regs[dead])  # x ^ x: the zero register
    k = n // 2
    terms = []
    for a, b, c, cp in split_even(regs, model.combine, model.halves(k)):
        terms += (model.g(a, b, c, k), model.h(a, b, cp, k))
    c_sides = [entry for call in SUBCALLS for entry in call[2:]]
    live = [t for t, side in zip(terms, c_sides) if any(part // 2 != dead for part in side)]
    rhs = reduce(operator.xor, (t for i, t in enumerate(live) if i != drop_term))
    return _gh(model, regs, n) == rhs


def check_halving_identity(
    n: int,
    trials: int = 0,
    symbolic: bool = False,
    seed: int = 0,
    drop_term: Optional[int] = None,
) -> bool:
    """Check the even-size halving identity; `drop_term` mutates the RHS."""
    return _check_halving(n, trials, symbolic, seed, drop_term, (None,))


def _padding_sides(n: int, regs=None, model: _Model = _FORMS):
    """Both sides of the padding identity, over free symbolic registers by default."""
    if regs is None:
        regs = _free_forms(n)
    return _gh(model, regs, n), _gh(model, *model.lists(_pad, regs, n))


def check_padding_identity(
    n: int, trials: int = 0, symbolic: bool = False, seed: int = 0
) -> bool:
    """Check the odd-to-even padding identity at size n."""
    if n < 1:
        raise InputError("n must be >= 1")
    for regs, model in _instances(n, trials, symbolic, seed):
        lhs, rhs = _padding_sides(n, regs, model)
        if lhs != rhs:
            return False
    return True


def check_shrink_identity(
    n: int, trials: int = 0, symbolic: bool = False, seed: int = 0
) -> bool:
    """Check the shrink identity at size n: with a_(n-1) = b_(n-1) = 0, g ^ h
    is unchanged by `halving.shrink` and by `halving.reshape`, which shrinks
    only some zero-topped sizes and pads odd ones.
    """
    if n < 2:
        raise InputError("the shrink identity needs n >= 2")
    for regs, model in _instances(n, trials, symbolic, seed):
        regs, _ = model.lists(_zero_top, regs, n)
        lhs = _gh(model, regs, n)
        # `halving.shrink` is looked up here, so a test can swap in a faulty one.
        for rule in (halving.shrink, _reshape):
            if _gh(model, *model.lists(rule, regs, n)) != lhs:
                return False
    return True


def check_split_identities(
    n: int,
    trials: int = 0,
    symbolic: bool = False,
    seed: int = 0,
    drop_term: Optional[int] = None,
) -> bool:
    """Check the separate g-split and h-split halving identities.

    They are the halving identity with c' = 0 and with c = 0. `drop_term`
    removes one surviving RHS term from each split (negative control).
    """
    return _check_halving(n, trials, symbolic, seed, drop_term, (CP, C))


def _check_halving(n, trials, symbolic, seed, drop_term, deads) -> bool:
    if n < 2 or n % 2:
        raise InputError("halving identities need even n >= 2")
    return all(
        _halving_holds(regs, n, model, dead, drop_term)
        for regs, model in _instances(n, trials, symbolic, seed)
        for dead in deads
    )
