"""Oracle and structure tests for the GF(2) core.

`reference_is_irreducible` (generic multiply, then a division that
recomputes the degree on every step) and `reference_from_columns` (the
bit-by-bit transpose) are the first versions of `_is_irreducible` and
`Gf2Matrix.from_columns`, kept as oracles for the faster ones.
"""

import random

import pytest

from gf2kq.catalog import catalog_entries, catalog_lookup
from gf2kq.errors import InputError
from gf2kq.gf2 import (
    BinaryPolynomial,
    Gf2Matrix,
    _is_irreducible,
    build_reduction_matrix,
    is_irreducible,
    lower_product_matrix,
    mastrovito_product,
    mastrovito_vectors,
    poly_mul_mod,
    transpose_apply,
    upper_product_matrix,
)

P7 = BinaryPolynomial.parse("7,5,3,1,0")  # x^7+x^5+x^3+x+1

# Hand-checkable reference fixtures: reduction matrices for three moduli,
# derived by long division of x^(n+j) by P (see test below that recomputes them).
Q7_ROWS = [
    [1, 0, 1, 0, 0, 0],
    [1, 1, 1, 1, 0, 0],
    [0, 1, 1, 1, 1, 0],
    [1, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 1],
    [1, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0],
]

Q9_ROWS = [
    [1, 0, 1, 0, 1, 0, 1, 0],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [1, 0, 1, 0, 1, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 1],
]

Q8_ROWS = [
    [1, 0, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0],
]


def test_parse_forms_agree():
    assert BinaryPolynomial.parse("x^9+x^7+1") == BinaryPolynomial.parse("9,7,0")
    assert BinaryPolynomial.parse("x^2+x") == BinaryPolynomial.from_exponents([2, 1])
    assert str(BinaryPolynomial.parse("9,7,0")) == "x^9+x^7+1"
    assert BinaryPolynomial.parse("9,7,0").exponent_list() == "9,7,0"


def test_parse_rejects_garbage():
    for bad in ["", "x^", "y^2", "2x", "3,,1"]:
        with pytest.raises(InputError):
            BinaryPolynomial.parse(bad)


def test_degree_and_zero_marker():
    assert BinaryPolynomial(0).degree == -1
    assert BinaryPolynomial(0).is_zero()
    assert BinaryPolynomial.parse("x^5+x^3+1").degree == 5


def test_poly_mul_mod_worked_example():
    a = BinaryPolynomial.parse("x^5+x^3+1")
    b = BinaryPolynomial.parse("x^2+x")
    assert poly_mul_mod(a, b, P7) == BinaryPolynomial.parse("x^6+x^4+x^3+x^2+1")


def test_poly_mul_mod_identity():
    one = BinaryPolynomial(1)
    p = BinaryPolynomial.parse("4,1,0")
    for bits in range(1, 16):
        b = BinaryPolynomial(bits)
        assert poly_mul_mod(one, b, p) == b


def test_poly_mul_mod_hand_division():
    # x^3 * x = x^4 = x + 1 mod x^4+x+1
    p = BinaryPolynomial.parse("4,1,0")
    assert poly_mul_mod(
        BinaryPolynomial.parse("x^3"), BinaryPolynomial.parse("x"), p
    ) == BinaryPolynomial.parse("x+1")


def test_poly_mul_mod_degree_precondition():
    p = BinaryPolynomial.parse("4,1,0")
    with pytest.raises(InputError):
        poly_mul_mod(BinaryPolynomial.parse("x^4"), BinaryPolynomial(1), p)


def test_reduction_matrix_printed_examples():
    assert build_reduction_matrix(P7) == Gf2Matrix.from_rows(Q7_ROWS)
    assert build_reduction_matrix(BinaryPolynomial.parse("9,7,0")) == Gf2Matrix.from_rows(Q9_ROWS)
    assert build_reduction_matrix(
        BinaryPolynomial.parse("8,6,4,2,0")
    ) == Gf2Matrix.from_rows(Q8_ROWS)


def test_reduction_matrix_rejects_degree_below_two():
    with pytest.raises(InputError):
        build_reduction_matrix(BinaryPolynomial.parse("x+1"))


@pytest.mark.parametrize("exps", ["4,1,0", "5,2,0", "7,5,3,1,0", "9,7,0", "8,6,4,2,0"])
def test_reduction_matrix_columns_are_powers(exps):
    p = BinaryPolynomial.parse(exps)
    n = p.degree
    q = build_reduction_matrix(p)
    for j in range(n - 1):
        power = BinaryPolynomial.from_exponents([n + j]) % p
        assert q.column(j) == power.bits


def test_mastrovito_vectors_worked_example():
    a = (1, 0, 0, 1, 0, 1, 0)
    b = (0, 1, 1, 0, 0, 0, 0)
    d, e = mastrovito_vectors(a, b)
    assert d == (0, 1, 1, 0, 1, 1, 1)
    assert e == (1, 0, 0, 0, 0, 0)


def test_mastrovito_vectors_zero_annihilates():
    d, e = mastrovito_vectors((0,) * 5, (1, 1, 0, 1, 1))
    assert d == (0,) * 5 and e == (0,) * 4


def test_mastrovito_vectors_n2_by_hand():
    d, e = mastrovito_vectors((1, 1), (1, 0))
    assert d == (1, 1)
    assert e == (0,)


def test_mastrovito_vectors_size_mismatch():
    with pytest.raises(InputError):
        mastrovito_vectors((1, 0), (1, 0, 1))


def test_mastrovito_product_worked_example():
    q = build_reduction_matrix(P7)
    a = (1, 0, 0, 1, 0, 1, 0)
    b = (0, 1, 1, 0, 0, 0, 0)
    assert mastrovito_product(a, b, q) == (1, 0, 1, 1, 1, 0, 1)


def test_mastrovito_product_unit_b():
    q = build_reduction_matrix(BinaryPolynomial.parse("5,2,0"))
    rng = random.Random(1)
    for _ in range(20):
        a = tuple(rng.randint(0, 1) for _ in range(5))
        assert mastrovito_product(a, (1, 0, 0, 0, 0), q) == a


def test_oracles_agree_exhaustively_to_n8():
    for exps in ["2,1,0", "3,1,0", "4,1,0", "5,2,0", "6,3,0", "7,1,0", "8,4,3,1,0"]:
        p = BinaryPolynomial.parse(exps)
        n = p.degree
        q = build_reduction_matrix(p)
        for abits in range(1 << n):
            a = tuple((abits >> i) & 1 for i in range(n))
            for bbits in range(1 << n):
                b = tuple((bbits >> i) & 1 for i in range(n))
                got = mastrovito_product(a, b, q)
                want = poly_mul_mod(
                    BinaryPolynomial(abits), BinaryPolynomial(bbits), p
                ).bits
                assert got == tuple((want >> i) & 1 for i in range(n))


def test_oracles_agree_randomized_to_64():
    rng = random.Random(0xC0FFEE)
    from gf2kq.catalog import catalog_lookup

    for n in [7, 11, 16, 23, 33, 48, 64]:
        p = catalog_lookup(n).polynomial
        q = build_reduction_matrix(p)
        for _ in range(50):
            abits = rng.getrandbits(n)
            bbits = rng.getrandbits(n)
            a = tuple((abits >> i) & 1 for i in range(n))
            b = tuple((bbits >> i) & 1 for i in range(n))
            want = poly_mul_mod(BinaryPolynomial(abits), BinaryPolynomial(bbits), p).bits
            assert mastrovito_product(a, b, q) == tuple((want >> i) & 1 for i in range(n))


def test_d_e_reproduce_product_split():
    # d must be the low n coefficients of the unreduced product, e the high ones.
    for n in range(1, 7):
        for abits in range(1 << n):
            for bbits in range(1 << n):
                a = tuple((abits >> i) & 1 for i in range(n))
                b = tuple((bbits >> i) & 1 for i in range(n))
                d, e = mastrovito_vectors(a, b)
                prod = (BinaryPolynomial(abits) * BinaryPolynomial(bbits)).bits
                assert d == tuple((prod >> i) & 1 for i in range(n))
                assert e == tuple((prod >> (n + i)) & 1 for i in range(n - 1))


def test_lu_structure():
    rng = random.Random(7)
    n = 9
    a = tuple(rng.randint(0, 1) for _ in range(n))
    lo = lower_product_matrix(a)
    up = upper_product_matrix(a)
    for i in range(n):
        for j in range(n):
            if j > i:
                assert lo[i, j] == 0
            elif j == i:
                assert lo[i, j] == a[0]
    for i in range(n - 1):
        assert up[i, 0] == 0
        for j in range(n):
            if j <= i:
                assert up[i, j] == 0


def test_is_irreducible_known_cases():
    assert is_irreducible(BinaryPolynomial.parse("x^2+x+1"))
    assert not is_irreducible(BinaryPolynomial.parse("x^4+x^2+1"))  # (x^2+x+1)^2
    assert is_irreducible(P7)
    assert not is_irreducible(BinaryPolynomial.parse("x^2+1"))  # (x+1)^2
    assert is_irreducible(BinaryPolynomial.parse("x"))
    assert is_irreducible(BinaryPolynomial.parse("x+1"))


def test_reference_family_moduli_are_reducible():
    # These two family-shaped moduli factor over GF(2); their reduction
    # matrices are still well defined and are checked above.
    nine = BinaryPolynomial.parse("9,7,0")
    assert not is_irreducible(nine)
    factor = BinaryPolynomial.parse("4,1,0") * BinaryPolynomial.parse("5,3,2,1,0")
    assert factor == nine
    eight = BinaryPolynomial.parse("8,6,4,2,0")
    assert not is_irreducible(eight)
    root = BinaryPolynomial.parse("4,3,2,1,0")
    assert root * root == eight


def test_is_irreducible_matches_trial_division():
    def brute(pbits):
        n = pbits.bit_length() - 1
        for f in range(2, 1 << (n // 2 + 1)):
            if f.bit_length() - 1 < 1:
                continue
            q, r = divmod(BinaryPolynomial(pbits), BinaryPolynomial(f))
            if r.bits == 0:
                return False
        return True

    for pbits in range(2, 1 << 9):
        if pbits.bit_length() - 1 < 1:
            continue
        assert BinaryPolynomial(pbits).is_irreducible() == brute(pbits), bin(pbits)


def test_transpose_apply_reads_rows():
    q = build_reduction_matrix(P7)
    # c = e_6 picks out row 6 of Q
    c = tuple(1 if i == 6 else 0 for i in range(7))
    assert transpose_apply(q, c) == (0, 1, 0, 0, 0, 0)
    assert transpose_apply(q, (0,) * 7) == (0,) * 6
    for i in range(7):
        c = tuple(1 if j == i else 0 for j in range(7))
        assert transpose_apply(q, c) == tuple(q[i, k] for k in range(6))


def test_transpose_apply_matches_phase_rearrangement():
    # sum_i c_i (Qe)_i == sum_k e_k c'_k for random c, e
    rng = random.Random(3)
    q = build_reduction_matrix(BinaryPolynomial.parse("5,2,0"))
    for _ in range(100):
        c = tuple(rng.randint(0, 1) for _ in range(5))
        e = tuple(rng.randint(0, 1) for _ in range(4))
        qe = q.mul_vec(sum(b << i for i, b in enumerate(e)))
        lhs = sum(c[i] & ((qe >> i) & 1) for i in range(5)) & 1
        cp = transpose_apply(q, c)
        rhs = sum(e[k] & cp[k] for k in range(4)) & 1
        assert lhs == rhs


def test_gf2matrix_bounds_and_popcount():
    q = Gf2Matrix.from_rows([[1, 0], [1, 1], [0, 1]])
    assert q.popcount() == 4
    assert q.column(0) == 0b011
    with pytest.raises(InputError):
        q[3, 0]
    with pytest.raises(InputError):
        q.column(2)


def _ref_mul(a, b):
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _ref_mod(a, b):
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _ref_gcd(a, b):
    while b:
        a, b = b, _ref_mod(a, b)
    return a


def reference_is_irreducible(p):
    n = p.bit_length() - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if not p & 1:
        return False
    r = 2
    for i in range(1, n + 1):
        r = _ref_mod(_ref_mul(r, r), p)
        if i <= n // 2 and _ref_gcd(r ^ 2, p) != 1:
            return False
    return r == 2


def test_is_irreducible_matches_reference():
    for p in range(1 << 13):  # every polynomial of degree <= 12
        assert _is_irreducible(p) == reference_is_irreducible(p), bin(p)
    # Every catalog modulus up to n = 256 and at n = 511, 512. The reference
    # takes about 20 s on the rest of the catalog, so it runs on a sample.
    moduli = {e.polynomial.bits for e in catalog_entries() if e.n <= 256 or e.n >= 511}
    # Products of two large irreducibles: the gcd finds the smaller factor
    # only at step i = deg(factor), near the end of the test.
    f127, f128, f255, f256 = (catalog_lookup(n).polynomial.bits for n in (127, 128, 255, 256))
    products = {_ref_mul(a, b) for a, b in ((f127, f128), (f128, f128), (f255, f256), (f256, f256))}
    for p in moduli | products:
        assert _is_irreducible(p) == reference_is_irreducible(p) == (p in moduli), hex(p)


def reference_columns(p):
    """Column j of Q: x^(n+j) mod p, one multiply-by-x step at a time."""
    n = p.degree
    mask = (1 << n) - 1
    col = p.bits & mask
    cols = [col]
    for _ in range(n - 2):
        col <<= 1
        if (col >> n) & 1:
            col = (col ^ p.bits) & mask
        cols.append(col)
    return cols


def reference_from_columns(n_rows, cols):
    rows = [0] * n_rows
    for j, col in enumerate(cols):
        for i in range(n_rows):
            if (col >> i) & 1:
                rows[i] |= 1 << j
    return Gf2Matrix(n_rows, len(cols), rows)


def test_reduction_matrix_rows_match_from_columns_on_catalog():
    for entry in catalog_entries():
        p = entry.polynomial
        cols = reference_columns(p)
        q = build_reduction_matrix(p)
        assert q == Gf2Matrix.from_columns(p.degree, cols), entry
        assert list(q.columns()) == cols
        assert [q.column(j) for j in range(p.degree - 1)] == cols
    assert build_reduction_matrix(catalog_lookup(64).polynomial) == reference_from_columns(
        64, reference_columns(catalog_lookup(64).polynomial)
    )


def test_from_columns_and_columns_match_bitwise_transpose():
    rng = random.Random(12)
    for _ in range(200):
        n_rows, n_cols = rng.randint(0, 40), rng.randint(0, 40)
        # columns may carry bits at or above n_rows; from_columns ignores them
        cols = [rng.getrandbits(n_rows + 3) for _ in range(n_cols)]
        m = Gf2Matrix.from_columns(n_rows, cols)
        assert m == reference_from_columns(n_rows, cols)
        masked = [c & ((1 << n_rows) - 1) for c in cols]
        assert list(m.columns()) == masked
        assert list(Gf2Matrix(m.n_rows, m.n_cols, m.rows).columns()) == masked
