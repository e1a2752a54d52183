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

import random
from typing import Iterable, Optional, Sequence

from .circuit import CCZ, CNOT, Circuit
from .errors import InputError
from .gf2 import Gf2Matrix, _mul


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
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class LinearWireState:
    """Invertible GF(2) matrix giving each wire's value over initial values.

    Row w is a bit mask: wire w currently holds the XOR of the initial
    values selected by the mask. CNOT(c, t) adds row c to row t. When
    `track_solver` is set, every CNOT also updates two structures: the
    inverse transpose, so `solve` can express an arbitrary form as an XOR
    of current wire rows, and a dict from row to wire, so `find_wire` is
    one lookup. The rows are distinct because the state is invertible.
    """

    __slots__ = ("n", "rows", "_nt", "_where")

    def __init__(self, n: int, track_solver: bool = False):
        self.n = n
        self.rows = [1 << i for i in range(n)]
        self._nt = [1 << i for i in range(n)] if track_solver else None
        self._where = {r: w for w, r in enumerate(self.rows)} if track_solver else None

    def cnot(self, control: int, target: int) -> None:
        if control == target:
            raise InputError("CNOT control equals target")
        rows = self.rows
        where = self._where
        if where is None:
            rows[target] ^= rows[control]
            return
        del where[rows[target]]
        rows[target] ^= rows[control]
        where[rows[target]] = target
        self._nt[control] ^= self._nt[target]

    def row(self, wire: int) -> int:
        return self.rows[wire]

    def is_identity(self) -> bool:
        return all(r == 1 << i for i, r in enumerate(self.rows))

    def solve(self, form: int) -> int:
        """Wire-selection mask s with XOR of rows[j] over j in s == form."""
        if self._nt is None:
            raise InputError("state was built without solver tracking")
        # Bit i of s is the parity of nt[i] & form: one byte per bit, then
        # the bytes, most significant first, read as a base-2 numeral.
        bits = bytes([(x & form).bit_count() & 1 for x in self._nt])
        return int(bits.translate(_DIGITS)[::-1], 2) if bits else 0

    def find_wire(self, form: int) -> Optional[int]:
        """Lowest wire currently holding exactly `form`, if any."""
        if self._where is not None:
            return self._where.get(form)
        for w, r in enumerate(self.rows):
            if r == form:
                return w
        return None


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def extract_phase(
    circuit: Circuit, initial: Optional[LinearWireState] = None
) -> tuple[CubicPhasePolynomial, LinearWireState]:
    """Walk a {CNOT, CCZ} circuit and return (phase polynomial, wire state).

    CCZ operands whose current rows share a variable would break the
    homogeneous-cubic invariant, so they raise instead of being folded.
    """
    state = initial if initial is not None else LinearWireState(circuit.wire_count)
    poly = CubicPhasePolynomial()
    for g in circuit.gates:
        if g.kind == CNOT:
            state.cnot(*g.operands)
        elif g.kind == CCZ:
            p, q, r = g.operands
            poly.xor_product(state.row(p), state.row(q), state.row(r))
        else:
            raise InputError(f"extract_phase supports CNOT and CCZ only, got {g.kind}")
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
    poly = CubicPhasePolynomial()
    for i in range(n):
        for j in range(i + 1):
            poly.xor_monomial(var_a(n, j), var_b(n, i - j), var_c(n, i))
    for i in range(n - 1):
        for j in range(i + 1, n):
            poly.xor_monomial(var_a(n, j), var_b(n, n + i - j), var_cprime(n, i))
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
# symbolic g/h over vectors of linear forms


def _sym_g(poly: CubicPhasePolynomial, av, bv, cv) -> None:
    n = len(av)
    for i in range(n):
        for j in range(i + 1):
            poly.xor_product(av[j], bv[i - j], cv[i])


def _sym_h(poly: CubicPhasePolynomial, av, bv, cpv) -> None:
    n = len(av)
    for i in range(n - 1):
        for j in range(i + 1, n):
            poly.xor_product(av[j], bv[n + i - j], cpv[i])


def _xor_lists(u: Sequence[int], v: Sequence[int]) -> list[int]:
    return [x ^ y for x, y in zip(u, v)]


def _halving_sides(n: int, drop_term: Optional[int]):
    """Return (lhs, rhs) as symbolic polynomials over free a, b, c, c'."""
    a = [1 << var_a(n, i) for i in range(n)]
    b = [1 << var_b(n, i) for i in range(n)]
    c = [1 << var_c(n, i) for i in range(n)]
    cp = [1 << var_cprime(n, i) for i in range(n)]
    lhs = CubicPhasePolynomial()
    _sym_g(lhs, a, b, c)
    _sym_h(lhs, a, b, cp)
    h = n // 2
    aL, aR = a[:h], a[h:]
    bL, bR = b[:h], b[h:]
    cL, cR = c[:h], c[h:]
    cpL, cpR = cp[:h], cp[h:]
    terms = [
        ("g", _xor_lists(aL, aR), _xor_lists(bL, bR), cR),
        ("h", _xor_lists(aL, aR), _xor_lists(bL, bR), cpL),
        ("g", aR, bR, _xor_lists(cpL, cR)),
        ("h", aR, bR, _xor_lists(cpL, cpR)),
        ("g", aL, bL, _xor_lists(cL, cR)),
        ("h", aL, bL, _xor_lists(cpL, cR)),
    ]
    rhs = CubicPhasePolynomial()
    for idx, (kind, ta, tb, tc) in enumerate(terms):
        if idx == drop_term:
            continue
        (_sym_g if kind == "g" else _sym_h)(rhs, ta, tb, tc)
    return lhs, rhs


def check_halving_identity(
    n: int,
    trials: int = 0,
    symbolic: bool = False,
    seed: int = 0,
    drop_term: Optional[int] = None,
) -> bool:
    """Check the even-size halving identity; `drop_term` mutates the RHS."""
    if n < 2 or n % 2:
        raise InputError("halving identity needs even n >= 2")
    if symbolic:
        lhs, rhs = _halving_sides(n, drop_term)
        if lhs != rhs:
            return False
    if trials:
        h = n // 2
        mh = (1 << h) - 1
        rng = random.Random(seed)
        for _ in range(trials):
            a, b, c, cp = (rng.getrandbits(n) for _ in range(4))
            lhs = g_value(a, b, c, n) ^ h_value(a, b, cp, n)
            aL, aR = a & mh, a >> h
            bL, bR = b & mh, b >> h
            cL, cR = c & mh, c >> h
            cpL, cpR = cp & mh, cp >> h
            vals = [
                g_value(aL ^ aR, bL ^ bR, cR, h),
                h_value(aL ^ aR, bL ^ bR, cpL, h),
                g_value(aR, bR, cpL ^ cR, h),
                h_value(aR, bR, cpL ^ cpR, h),
                g_value(aL, bL, cL ^ cR, h),
                h_value(aL, bL, cpL ^ cR, h),
            ]
            rhs = 0
            for idx, v in enumerate(vals):
                if idx != drop_term:
                    rhs ^= v
            if lhs != rhs:
                return False
    return True


def _padding_sides(n: int):
    a = [1 << var_a(n, i) for i in range(n)]
    b = [1 << var_b(n, i) for i in range(n)]
    c = [1 << var_c(n, i) for i in range(n)]
    cp = [1 << var_cprime(n, i) for i in range(n)]
    lhs = CubicPhasePolynomial()
    _sym_g(lhs, a, b, c)
    _sym_h(lhs, a, b, cp)
    at = a + [0]
    bt = b + [0]
    ct = c + [cp[0]]
    cpt = cp[1:] + [0, 0]
    rhs = CubicPhasePolynomial()
    _sym_g(rhs, at, bt, ct)
    _sym_h(rhs, at, bt, cpt)
    return lhs, rhs


def check_padding_identity(
    n: int, trials: int = 0, symbolic: bool = False, seed: int = 0
) -> bool:
    """Check the odd-to-even padding identity at size n."""
    if n < 1:
        raise InputError("n must be >= 1")
    if symbolic:
        lhs, rhs = _padding_sides(n)
        if lhs != rhs:
            return False
    if trials:
        rng = random.Random(seed)
        for _ in range(trials):
            a, b, c, cp = (rng.getrandbits(n) for _ in range(4))
            lhs = g_value(a, b, c, n) ^ h_value(a, b, cp, n)
            at, bt = a, b  # top bit of the padded vectors is zero
            ct = c | ((cp & 1) << n)
            cpt = cp >> 1
            rhs = g_value(at, bt, ct, n + 1) ^ h_value(at, bt, cpt, n + 1)
            if lhs != rhs:
                return False
    return True


def _split_sides(n: int, which: str, drop_term: Optional[int]):
    a = [1 << var_a(n, i) for i in range(n)]
    b = [1 << var_b(n, i) for i in range(n)]
    c = [1 << var_c(n, i) for i in range(n)]
    cp = [1 << var_cprime(n, i) for i in range(n)]
    h = n // 2
    aL, aR = a[:h], a[h:]
    bL, bR = b[:h], b[h:]
    lhs = CubicPhasePolynomial()
    if which == "g":
        cL, cR = c[:h], c[h:]
        _sym_g(lhs, a, b, c)
        terms = [
            ("g", _xor_lists(aL, aR), _xor_lists(bL, bR), cR),
            ("g", aR, bR, cR),
            ("g", aL, bL, _xor_lists(cL, cR)),
            ("h", aL, bL, cR),
        ]
    else:
        cpL, cpR = cp[:h], cp[h:]
        _sym_h(lhs, a, b, cp)
        terms = [
            ("h", _xor_lists(aL, aR), _xor_lists(bL, bR), cpL),
            ("g", aR, bR, cpL),
            ("h", aR, bR, _xor_lists(cpL, cpR)),
            ("h", aL, bL, cpL),
        ]
    rhs = CubicPhasePolynomial()
    for idx, (kind, ta, tb, tc) in enumerate(terms):
        if idx == drop_term:
            continue
        (_sym_g if kind == "g" else _sym_h)(rhs, ta, tb, tc)
    return lhs, rhs


def check_split_identities(
    n: int,
    trials: int = 0,
    symbolic: bool = False,
    seed: int = 0,
    drop_term: Optional[int] = None,
) -> bool:
    """Check the separate g-split and h-split halving identities.

    `drop_term` removes one RHS term from each split (negative control).
    """
    if n < 2 or n % 2:
        raise InputError("split identities need even n >= 2")
    if symbolic:
        for which in ("g", "h"):
            lhs, rhs = _split_sides(n, which, drop_term)
            if lhs != rhs:
                return False
    if trials:
        h = n // 2
        mh = (1 << h) - 1
        rng = random.Random(seed)
        for _ in range(trials):
            a, b, c, cp = (rng.getrandbits(n) for _ in range(4))
            aL, aR = a & mh, a >> h
            bL, bR = b & mh, b >> h
            cL, cR = c & mh, c >> h
            cpL, cpR = cp & mh, cp >> h
            g_terms = [
                g_value(aL ^ aR, bL ^ bR, cR, h),
                g_value(aR, bR, cR, h),
                g_value(aL, bL, cL ^ cR, h),
                h_value(aL, bL, cR, h),
            ]
            h_terms = [
                h_value(aL ^ aR, bL ^ bR, cpL, h),
                g_value(aR, bR, cpL, h),
                h_value(aR, bR, cpL ^ cpR, h),
                h_value(aL, bL, cpL, h),
            ]
            g_rhs = 0
            for idx, v in enumerate(g_terms):
                if idx != drop_term:
                    g_rhs ^= v
            h_rhs = 0
            for idx, v in enumerate(h_terms):
                if idx != drop_term:
                    h_rhs ^= v
            if g_value(a, b, c, n) != g_rhs or h_value(a, b, cp, n) != h_rhs:
                return False
    return True
