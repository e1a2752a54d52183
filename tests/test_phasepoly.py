"""Phase-polynomial semantics and recursion-identity tests."""

import operator
import random
from functools import reduce

import pytest

from gf2kq import halving
from gf2kq.circuit import Circuit, Gate, RegisterLayout
from gf2kq.errors import InputError
from gf2kq.gf2 import BinaryPolynomial, Gf2Matrix, build_reduction_matrix
from gf2kq.phasepoly import (
    CubicPhasePolynomial,
    LinearWireState,
    _bits,
    check_split_identities,
    check_halving_identity,
    check_padding_identity,
    check_shrink_identity,
    extract_phase,
    g_value,
    h_value,
    substitute_cprime,
    target_polynomial,
    var_a,
    var_b,
    var_c,
    var_cprime,
)


def _plain(n, ancillas=0):
    return RegisterLayout(n=n, ancillas=ancillas, phase_wires=frozenset())


def test_monomial_mod2_semantics():
    poly = CubicPhasePolynomial()
    poly.xor_monomial(0, 1, 2)
    poly.xor_monomial(2, 1, 0)
    assert poly.is_empty()
    with pytest.raises(InputError):
        poly.xor_monomial(0, 0, 1)


def test_target_polynomial_small():
    assert target_polynomial(1).monomials == {(0, 1, 2)}  # a0 b0 c0
    n = 2
    want = {
        tuple(sorted((var_a(n, 0), var_b(n, 0), var_c(n, 0)))),
        tuple(sorted((var_a(n, 0), var_b(n, 1), var_c(n, 1)))),
        tuple(sorted((var_a(n, 1), var_b(n, 0), var_c(n, 1)))),
        tuple(sorted((var_a(n, 1), var_b(n, 1), var_cprime(n, 0)))),
    }
    assert target_polynomial(2).monomials == want


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_target_polynomial_has_n_squared_monomials(n):
    assert len(target_polynomial(n)) == n * n


def test_target_polynomial_reads_cprime_only_below_the_top():
    # `halving.read_span`: a size-k instance needs no c'_(k-1), and does need c'_(k-2).
    for k in range(1, 17):
        used = {v for mono in target_polynomial(k).monomials for v in mono}
        span = halving.read_span(halving.CP, k)
        assert span == k - 1
        assert var_cprime(k, k - 1) not in used, k
        assert all(var_cprime(k, i) in used for i in range(span)), k


def test_zero_topped_target_reads_cprime_only_within_its_span():
    # With a and b zero at the top, a size-k instance reads c' at 0..k-4 and
    # needs all of them.
    for k in range(2, 17):
        top = (var_a(k, k - 1), var_b(k, k - 1))
        used = {v for mono in target_polynomial(k).restricted_to_zero(top).monomials for v in mono}
        span = halving.read_span(halving.CP, k, halving.RIGHT, zero_top=True)
        assert span == max(k - 3, 0)
        assert {v for v in used if v >= var_cprime(k, 0)} == {var_cprime(k, i) for i in range(span)}, k


def test_substitute_cprime_single_column():
    # P = x^2+x+1: Q = [1,1]^T, so c'_0 -> c_0 xor c_1
    q = build_reduction_matrix(BinaryPolynomial.parse("2,1,0"))
    poly = CubicPhasePolynomial([(var_a(2, 1), var_b(2, 1), var_cprime(2, 0))])
    out = substitute_cprime(poly, q)
    assert out.monomials == {
        tuple(sorted((var_a(2, 1), var_b(2, 1), var_c(2, 0)))),
        tuple(sorted((var_a(2, 1), var_b(2, 1), var_c(2, 1)))),
    }


def test_substitute_cprime_zero_column_drops_monomials():
    q = Gf2Matrix.from_rows([[0], [0], [0]])  # synthetic 3x1 zero column
    poly = CubicPhasePolynomial([(var_a(3, 0), var_b(3, 0), var_cprime(3, 0))])
    assert substitute_cprime(poly, q).is_empty()


def test_substitute_cprime_arity_check():
    q = build_reduction_matrix(BinaryPolynomial.parse("2,1,0"))
    poly = CubicPhasePolynomial([(var_a(2, 0), var_b(2, 0), var_cprime(2, 1))])
    with pytest.raises(InputError):
        substitute_cprime(poly, q)


def test_extract_phase_cnot_rewrites_ccz():
    # CNOT(0,1) then CCZ(1,2,3): phase (x0 xor x1) x2 x3
    c = Circuit(_plain(2), [Gate.cnot(0, 1), Gate.ccz(1, 2, 3)])
    poly, state = extract_phase(c)
    assert poly.monomials == {(0, 2, 3), (1, 2, 3)}
    assert state.row(1) == 0b11
    assert not state.is_identity()


def test_extract_phase_empty_and_inverse():
    poly, state = extract_phase(Circuit(_plain(2), []))
    assert poly.is_empty() and state.is_identity()

    rng = random.Random(9)
    gates = []
    for _ in range(12):
        kind = rng.choice(["cnot", "ccz"])
        if kind == "cnot":
            gates.append(Gate.cnot(*rng.sample(range(6), 2)))
        else:
            gates.append(Gate.ccz(*rng.sample(range(6), 3)))
    circ = Circuit(_plain(2), gates + [g for g in reversed(gates)])
    try:
        poly, state = extract_phase(circ)
    except InputError:
        return  # a random CCZ hit overlapping rows; degeneracy is rejected
    assert poly.is_empty()
    assert state.is_identity()


def test_extract_phase_rejects_h_and_degenerate_ccz():
    with pytest.raises(InputError):
        extract_phase(Circuit(_plain(2), [Gate.h(0)]))
    # after CNOT(0,1), rows of wires 0 and 1 share variable 0
    c = Circuit(_plain(2), [Gate.cnot(0, 1), Gate.ccz(0, 1, 2)])
    with pytest.raises(InputError):
        extract_phase(c)


def test_extract_phase_is_homomorphism():
    lay = _plain(2)
    g1 = [Gate.cnot(0, 1), Gate.ccz(0, 2, 4)]
    g2 = [Gate.cnot(2, 3), Gate.ccz(1, 3, 5)]
    whole_poly, whole_state = extract_phase(Circuit(lay, g1 + g2))
    p1, s1 = extract_phase(Circuit(lay, g1))
    p2_rewritten, s2 = extract_phase(Circuit(lay, g2), initial=s1)
    assert whole_poly == p1 ^ p2_rewritten
    assert whole_state.rows == s2.rows


def test_extract_phase_runs_match_gate_by_gate_walk():
    # Few CNOT targets make runs onto one target, repeated controls that
    # cancel, and runs broken by a CCZ that reads the target.
    rng = random.Random(41)
    lay = _plain(3)  # 9 wires
    for _ in range(60):
        gates = []
        for _ in range(rng.randrange(1, 30)):
            if rng.random() < 0.8:
                target = rng.randrange(3)
                gates.append(Gate.cnot(rng.choice([w for w in range(6) if w != target]), target))
            else:
                gates.append(Gate.ccz(*rng.sample(range(8), 3)))
        rows = [1 << i for i in range(lay.total_wires)]
        want = CubicPhasePolynomial()
        try:
            for g in gates:
                if g.kind == "CNOT":
                    rows[g.operands[1]] ^= rows[g.operands[0]]
                else:
                    want.xor_product(*(rows[w] for w in g.operands))
        except InputError:
            with pytest.raises(InputError):
                extract_phase(Circuit(lay, gates))
            continue
        poly, state = extract_phase(Circuit(lay, gates))
        assert poly == want and state.rows == rows
        for k in range(lay.total_wires):
            sel = state.solve(1 << k)
            assert reduce(operator.xor, (rows[j] for j in _bits(sel)), 0) == 1 << k


def test_linear_wire_state_solver():
    st = LinearWireState(3)
    st.cnot(0, 1)
    st.cnot(1, 2)
    for form in range(1, 8):
        sel = st.solve(form)
        acc = 0
        for j in range(3):
            if (sel >> j) & 1:
                acc ^= st.row(j)
        assert acc == form


def test_linear_wire_state_find_wire_and_solve():
    rng = random.Random(31)
    n = 10
    state = LinearWireState(n)
    for _ in range(400):
        control, target = rng.sample(range(n), 2)
        state.cnot(control, target)
    assert not state.is_identity()
    held = set(state.rows)
    for w, r in enumerate(state.rows):
        assert state.find_wire(r) == w
    absent = [form for form in range(1 << n) if form not in held]
    assert 0 in absent and len(absent) > 900
    for form in absent:
        assert state.find_wire(form) is None
    for form in range(1 << n):
        assert _xor_of_rows(state, state.solve(form)) == form
    with pytest.raises(InputError):
        state.cnot(3, 3)
    assert LinearWireState(0).solve(0) == 0


def test_g_h_values_match_monomial_evaluation():
    rng = random.Random(17)
    for n in (1, 2, 3, 5, 8):
        target = target_polynomial(n)
        for _ in range(30):
            a, b, c, cp = (rng.getrandbits(n) for _ in range(4))
            assignment = a | (b << n) | (c << (2 * n)) | (cp << (3 * n))
            direct = g_value(a, b, c, n) ^ h_value(a, b, cp, n)
            assert direct == target.evaluate(assignment)


def test_halving_identity_exhaustive_n2():
    n = 2
    for bits in range(1 << (4 * n)):
        a = bits & 3
        b = (bits >> 2) & 3
        c = (bits >> 4) & 3
        cp = (bits >> 6) & 3
        lhs = g_value(a, b, c, n) ^ h_value(a, b, cp, n)
        rhs = (
            g_value((a & 1) ^ (a >> 1), (b & 1) ^ (b >> 1), c >> 1, 1)
            ^ h_value((a & 1) ^ (a >> 1), (b & 1) ^ (b >> 1), cp & 1, 1)
            ^ g_value(a >> 1, b >> 1, (cp & 1) ^ (c >> 1), 1)
            ^ h_value(a >> 1, b >> 1, (cp & 1) ^ (cp >> 1), 1)
            ^ g_value(a & 1, b & 1, (c & 1) ^ (c >> 1), 1)
            ^ h_value(a & 1, b & 1, (cp & 1) ^ (c >> 1), 1)
        )
        assert lhs == rhs
    assert check_halving_identity(2, trials=256, symbolic=True)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_halving_identity_symbolic(n):
    assert check_halving_identity(n, symbolic=True)


def test_halving_identity_randomized_large_and_input_checks():
    assert check_halving_identity(8, trials=1000)
    assert check_halving_identity(64, trials=300)
    with pytest.raises(InputError):
        check_halving_identity(5)


@pytest.mark.parametrize("drop", range(6))
def test_halving_identity_mutations_detected(drop):
    assert not check_halving_identity(4, trials=400, symbolic=True, drop_term=drop)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 11])
def test_padding_identity_symbolic_and_random(n):
    assert check_padding_identity(n, trials=300, symbolic=True)


def test_padding_identity_base_case_is_single_monomial():
    from gf2kq.phasepoly import _padding_sides

    lhs, rhs = _padding_sides(1)
    assert lhs.monomials == rhs.monomials == {(0, 1, 2)}


@pytest.mark.parametrize("n", [2, 4, 6, 8, 12])
def test_split_identities_symbolic(n):
    assert check_split_identities(n, symbolic=True)


def test_split_identities_random_and_mutations():
    assert check_split_identities(2, trials=256, symbolic=True)
    assert check_split_identities(64, trials=300)
    for drop in range(4):
        assert not check_split_identities(6, trials=400, symbolic=True, drop_term=drop)
    with pytest.raises(InputError):
        check_split_identities(3)


# ---------------------------------------------------------------------------
# the solver's inverse forms against a plain state and a reference solve


def reference_solve(state, form):
    """Column-form solve: bit j of s is the parity of column j of the inverse & form."""
    bits = bytes([(x & form).bit_count() & 1 for x in state._nt])
    return int(bits.translate(bytes.maketrans(b"\x00\x01", b"01"))[::-1], 2) if bits else 0


def _xor_of_rows(state, sel):
    acc = 0
    for j in range(state.n):
        if (sel >> j) & 1:
            acc ^= state.row(j)
    return acc


def _check_against_plain(tracked, plain, rng):
    n = tracked.n
    assert tracked.rows == plain.rows
    for w, r in enumerate(plain.rows):
        assert tracked.find_wire(r) == w
    forms = [rng.getrandbits(n) for _ in range(20)] + [1 << rng.randrange(n), 0]
    for form in forms:
        assert tracked.find_wire(form) == plain.find_wire(form)
        sel = tracked.solve(form)
        assert sel == reference_solve(tracked, form)
        assert _xor_of_rows(tracked, sel) == form


@pytest.mark.parametrize("n", [1, 2, 10, 64, 300])
def test_solver_tracks_cnot_walks_and_batched_updates(n):
    rng = random.Random(700 + n)
    tracked = LinearWireState(n)
    plain = LinearWireState(n)
    for step in range(120):
        target = rng.randrange(n)
        if n > 1 and step < 40:
            # single CNOTs only, so `cnot` alone must keep the solver current
            control = rng.choice([w for w in range(n) if w != target])
            tracked.cnot(control, target)
            plain.cnot(control, target)
        else:
            controls = rng.getrandbits(n) & ~(1 << target)
            if rng.random() < 0.3:
                controls &= rng.getrandbits(n) & rng.getrandbits(n)
            tracked.fan_in(controls, target)
            for j in range(n):
                if (controls >> j) & 1:
                    plain.cnot(j, target)
        if step % 10 == 9:
            _check_against_plain(tracked, plain, rng)
    assert n < 10 or not tracked.is_identity()
    with pytest.raises(InputError):
        tracked.fan_in(1 << (n - 1), n - 1)


def test_solver_batched_update_replaces_target_row():
    st = LinearWireState(4)
    st.fan_in(0b1010, 0)
    assert st.rows == [0b1011, 0b0010, 0b0100, 0b1000]
    assert st.find_wire(0b0001) is None
    assert st.find_wire(0b1011) == 0
    assert st.solve(0b0001) == 0b1011
    st.fan_in(0b0001, 2)
    assert st.rows == [0b1011, 0b0010, 0b1111, 0b1000]
    assert st.find_wire(0b0100) is None and st.find_wire(0b1111) == 2
    for form in range(16):
        assert _xor_of_rows(st, st.solve(form)) == form


def _reference_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_matches_generator_reference():
    rng = random.Random(5000)
    masks = [0, *(1 << i for i in range(0, 5000, 37)), (1 << 5000) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 5001)) for _ in range(200)]
    masks += [rng.getrandbits(5000) & rng.getrandbits(5000) & rng.getrandbits(5000) for _ in range(20)]
    for mask in masks:
        assert list(_bits(mask)) == list(_reference_bits(mask))


@pytest.mark.parametrize("n", range(2, 13))
def test_shrink_identity_symbolic(n):
    assert check_shrink_identity(n, symbolic=True)


@pytest.mark.parametrize("n", [*range(2, 18), 31, 32, 33, 63, 64])
def test_shrink_identity_on_random_masks(n):
    assert check_shrink_identity(n, trials=1000, seed=n)


def test_shrink_identity_input_check():
    with pytest.raises(InputError):
        check_shrink_identity(1)


def _shrink_dropping_top_c(a, b, c, cp):
    """A faulty shrink: c_(k-1) is dropped, not moved into c'_0."""
    return a[:-1], b[:-1], c[:-1], cp[: len(cp) - 1]


def test_shrink_identity_catches_a_dropped_top_c(monkeypatch):
    monkeypatch.setattr(halving, "shrink", _shrink_dropping_top_c)
    # At n = 2 the product has no x^1 term once a_1 = b_1 = 0, so c_1 reads
    # nothing there and the faulty shrink is still exact.
    assert check_shrink_identity(2, symbolic=True)
    for n in range(3, 13):
        assert not check_shrink_identity(n, symbolic=True)
    for n in (*range(3, 18), 31, 32, 33, 63, 64):
        assert not check_shrink_identity(n, trials=1000, seed=n)
