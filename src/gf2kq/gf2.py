"""Polynomial and bit-matrix arithmetic over GF(2).

Polynomials are stored as nonnegative ints, bit i holding the coefficient
of x^i, so addition is ``^`` and the zero polynomial is ``0``. The module
provides two independent classical multipliers for GF(2^n): schoolbook
multiply-then-reduce (`poly_mul_mod`) and the matrix route through the
reduction matrix Q (`mastrovito_product`). The two never share code so
each can serve as an oracle for the other and for synthesized circuits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError

# ---------------------------------------------------------------------------
# int-encoded polynomial helpers


def _degree(a: int) -> int:
    return a.bit_length() - 1


def _mul(a: int, b: int) -> int:
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _square(a: int) -> int:
    """a^2 over GF(2): bit i of a moves to bit 2i, so zeros interleave its bits."""
    return int("0".join(format(a, "b")), 2)


def _divmod(a: int, b: int):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    size = b.bit_length()
    q = 0
    shift = a.bit_length() - size
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - size
    return q, a


def _mod(a: int, b: int) -> int:
    """a mod b; each step clears the top bit of a, so its degree only falls."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    size = b.bit_length()
    shift = a.bit_length() - size
    while shift >= 0:
        a ^= b << shift
        shift = a.bit_length() - size
    return a


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _mod(a, b)
    return a


def _is_irreducible(p: int) -> bool:
    n = _degree(p)
    if n < 1:
        return False
    if n == 1:
        return True
    if not p & 1:
        return False  # divisible by x
    # Butler/Rabin: p irreducible iff x^(2^n) == x (mod p) and
    # gcd(x^(2^i) - x, p) == 1 for 1 <= i <= n/2.
    r = 2  # the polynomial x
    for i in range(1, n + 1):
        r = _mod(_square(r), p)
        if i <= n // 2 and _gcd(r ^ 2, p) != 1:
            return False
    return r == 2


# ---------------------------------------------------------------------------
# public polynomial type

_TERM_RE = re.compile(r"^(?:1|x(?:\^(\d+))?)$")


@dataclass(frozen=True, order=True)
class BinaryPolynomial:
    """Element of GF(2)[x], canonically an int with bit i = coeff of x^i."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise InputError("polynomial bits must be nonnegative")

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "BinaryPolynomial":
        bits = 0
        for e in exponents:
            if e < 0:
                raise InputError(f"negative exponent {e}")
            bits ^= 1 << e
        return cls(bits)

    @classmethod
    def parse(cls, text: str) -> "BinaryPolynomial":
        """Parse either an exponent list ("9,7,0") or a sum form ("x^9+x^7+1")."""
        s = text.strip().replace(" ", "")
        if not s:
            raise InputError("empty polynomial")
        exps = []
        if re.fullmatch(r"[\d,]+", s):
            for tok in s.split(","):
                if not tok:
                    raise InputError(f"bad exponent list {text!r}")
                exps.append(int(tok))
        else:
            for term in s.split("+"):
                m = _TERM_RE.match(term)
                if not m:
                    raise InputError(f"bad polynomial term {term!r} in {text!r}")
                if term == "1":
                    exps.append(0)
                elif m.group(1) is None:
                    exps.append(1)
                else:
                    exps.append(int(m.group(1)))
        if len(set(exps)) != len(exps):
            raise InputError(f"repeated exponent in {text!r}")
        return cls.from_exponents(exps)

    @property
    def degree(self) -> int:
        """Largest i with bit i set; -1 marks the zero polynomial."""
        return _degree(self.bits)

    def exponents(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.bits.bit_length() - 1, -1, -1) if (self.bits >> i) & 1)

    def coefficient(self, i: int) -> int:
        return (self.bits >> i) & 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return BinaryPolynomial(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return BinaryPolynomial(_mul(self.bits, other.bits))

    def __mod__(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return BinaryPolynomial(_mod(self.bits, other.bits))

    def __divmod__(self, other: "BinaryPolynomial"):
        q, r = _divmod(self.bits, other.bits)
        return BinaryPolynomial(q), BinaryPolynomial(r)

    def gcd(self, other: "BinaryPolynomial") -> "BinaryPolynomial":
        return BinaryPolynomial(_gcd(self.bits, other.bits))

    def is_irreducible(self) -> bool:
        return _is_irreducible(self.bits)

    def __str__(self) -> str:
        if self.bits == 0:
            return "0"
        parts = []
        for e in self.exponents():
            parts.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
        return "+".join(parts)

    def exponent_list(self) -> str:
        """Render as the CLI/CSV exponent form, e.g. "9,7,0"."""
        return ",".join(str(e) for e in self.exponents())

    def __repr__(self) -> str:
        return f"BinaryPolynomial({self})"


def is_irreducible(p: BinaryPolynomial) -> bool:
    """True iff p is irreducible over GF(2). Degree must be >= 1."""
    if p.degree < 1:
        raise InputError("irreducibility is defined for degree >= 1")
    return p.is_irreducible()


# ---------------------------------------------------------------------------
# bit matrices


def _transpose(vecs: Sequence[int], width: int) -> list[int]:
    """Bit-matrix transpose: bit j of out[i] is bit i of vecs[j], for i < width.

    Each vector is written as `width` binary digits, lowest first; zipping
    the digit strings reads them off position by position.
    """
    if not vecs or not width:
        return [0] * width
    mask = (1 << width) - 1
    digits = [format(v & mask, f"0{width}b")[::-1] for v in vecs]
    return [int("".join(bits)[::-1], 2) for bits in zip(*digits)]


class Gf2Matrix:
    """Dense bit matrix; row i is an int with bit j = entry (i, j)."""

    __slots__ = ("n_rows", "n_cols", "rows", "_columns")

    def __init__(self, n_rows: int, n_cols: int, rows: Sequence[int]):
        if len(rows) != n_rows:
            raise InputError("row count mismatch")
        mask = (1 << n_cols) - 1
        for r in rows:
            if r < 0 or r & ~mask:
                raise InputError("row bits outside column range")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows = tuple(rows)
        self._columns: tuple[int, ...] | None = None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Gf2Matrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != n_cols:
                raise InputError("ragged rows")
            packed.append(sum((bit & 1) << j for j, bit in enumerate(row)))
        return cls(n_rows, n_cols, packed)

    @classmethod
    def from_columns(cls, n_rows: int, cols: Sequence[int]) -> "Gf2Matrix":
        return cls(n_rows, len(cols), _transpose(cols, n_rows))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise InputError(f"index ({i},{j}) out of bounds")
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        if not 0 <= j < self.n_cols:
            raise InputError(f"column {j} out of bounds")
        return self.columns()[j]

    def columns(self) -> tuple[int, ...]:
        """Every column as a bit mask (bit i = entry (i, j)), transposed once."""
        if self._columns is None:
            self._columns = tuple(_transpose(self.rows, self.n_cols))
        return self._columns

    def popcount(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def mul_vec(self, v: int) -> int:
        """Matrix-vector product over GF(2); v and result are bit masks."""
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row & v).bit_count() & 1) << i
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n_rows, self.n_cols, self.rows))

    def __repr__(self) -> str:
        body = "\n".join(
            " ".join(str((r >> j) & 1) for j in range(self.n_cols)) for r in self.rows
        )
        return f"Gf2Matrix {self.n_rows}x{self.n_cols}\n{body}"


# ---------------------------------------------------------------------------
# the two multiplication oracles and the reduction matrix


def poly_mul_mod(
    a: BinaryPolynomial, b: BinaryPolynomial, p: BinaryPolynomial
) -> BinaryPolynomial:
    """Schoolbook product of a and b reduced mod p (oracle #1)."""
    n = p.degree
    if n < 1:
        raise InputError("modulus must have degree >= 1")
    if a.degree >= n or b.degree >= n:
        raise InputError("operands must have degree < deg(p)")
    return BinaryPolynomial(_mod(_mul(a.bits, b.bits), p.bits))


def build_reduction_matrix(p: BinaryPolynomial) -> Gf2Matrix:
    """n x (n-1) matrix whose column j holds x^(n+j) mod p as a bit column.

    Column 0 is the low part of p itself, and column j + 1 is x times
    column j, reduced: Q[i][0] = p_i and Q[i][j+1] = Q[i-1][j] ^ (p_i &
    Q[n-1][j]), with row -1 zero. The columns' top bits give the row
    Q[n-1]; each row then follows from the previous one in one shift.
    """
    n = p.degree
    if n < 2:
        raise InputError("reduction matrix needs deg(p) >= 2")
    mask = (1 << n) - 1
    low = p.bits & mask
    cols = []
    col, top = low, 0
    for j in range(n - 1):
        cols.append(col)
        carry = col >> (n - 1)
        top |= carry << j
        col = ((col << 1) & mask) ^ (low if carry else 0)
    row_mask = (1 << (n - 1)) - 1
    rows = []
    row = 0
    for i in range(n):
        p_i = (low >> i) & 1
        row = (((row ^ top if p_i else row) << 1) | p_i) & row_mask
        rows.append(row)
    q = Gf2Matrix(n, n - 1, rows)
    q._columns = tuple(cols)
    return q


def _vec_to_mask(v: Sequence[int]) -> int:
    return sum((bit & 1) << i for i, bit in enumerate(v))


def _mask_to_vec(m: int, size: int) -> tuple[int, ...]:
    return tuple((m >> i) & 1 for i in range(size))


def lower_product_matrix(a: Sequence[int]) -> Gf2Matrix:
    """n x n lower-triangular matrix L with L[i][j] = a_(i-j) for j <= i."""
    n = len(a)
    rows = [sum((a[i - j] & 1) << j for j in range(i + 1)) for i in range(n)]
    return Gf2Matrix(n, n, rows)


def upper_product_matrix(a: Sequence[int]) -> Gf2Matrix:
    """(n-1) x n matrix U with U[i][j] = a_(n+i-j) for j > i, else 0."""
    n = len(a)
    rows = [
        sum((a[n + i - j] & 1) << j for j in range(i + 1, n)) for i in range(n - 1)
    ]
    return Gf2Matrix(n - 1, n, rows)


def mastrovito_vectors(a: Sequence[int], b: Sequence[int]):
    """Return (d, e) with d = L b and e = U b, both as bit tuples.

    L and U are built from `a` alone; this is deliberately independent of
    the polynomial-product route so the coefficient-split property can be
    tested rather than assumed.
    """
    if len(a) != len(b):
        raise InputError("a and b must have the same size")
    n = len(a)
    if n < 1:
        raise InputError("vectors must be nonempty")
    bm = _vec_to_mask(b)
    d = lower_product_matrix(a).mul_vec(bm)
    e = upper_product_matrix(a).mul_vec(bm) if n > 1 else 0
    return _mask_to_vec(d, n), _mask_to_vec(e, n - 1)


def mastrovito_product(a: Sequence[int], b: Sequence[int], q: Gf2Matrix):
    """d xor Q e, the matrix-route product (oracle #2)."""
    n = q.n_rows
    if len(a) != n or len(b) != n:
        raise InputError("vector size must equal rows(Q)")
    d, e = mastrovito_vectors(a, b)
    out = _vec_to_mask(d) ^ q.mul_vec(_vec_to_mask(e))
    return _mask_to_vec(out, n)


def transpose_apply(q: Gf2Matrix, c: Sequence[int]) -> tuple[int, ...]:
    """c' with c'_i = sum_j Q[j][i] c_j (mod 2).

    This is the linear functional that turns the result-register terms
    sum_i c_i (Qe)_i into sum_k e_k c'_k.
    """
    if len(c) != q.n_rows:
        raise InputError("vector size must equal rows(Q)")
    cm = _vec_to_mask(c)
    out = 0
    for j, col in enumerate(q.columns()):
        out |= ((col & cm).bit_count() & 1) << j
    return _mask_to_vec(out, q.n_cols)
