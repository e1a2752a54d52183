"""Simulator, form conversion, and verification-path tests.

`reference_run_sandwich` is the plain phase-kickback simulator (symbol
masks and values in separate lists, flips applied per CCZ) kept as the
oracle for `_run_sandwich`.
"""

import random

import pytest

from gf2kq.catalog import catalog_entries, catalog_lookup
from gf2kq.circuit import CCZ, CNOT, TOFFOLI, Circuit, Gate, RegisterLayout, X
from gf2kq.errors import FormError, InputError, SimulationError
from gf2kq.gf2 import (
    BinaryPolynomial,
    build_reduction_matrix,
    mastrovito_product,
    poly_mul_mod,
)
from gf2kq.netlist import emit_netlist, parse_netlist
from gf2kq.phasepoly import _bits, extract_phase
from gf2kq.simulate import (
    _run_sandwich,
    _split_sandwich,
    is_classical,
    product_columns,
    run_batch,
    simulate,
    to_toffoli_form,
    verify_multiplier,
)
from gf2kq.synth import SynthesisOptions, equally_spaced_split, synth, trinomial_split

P4 = BinaryPolynomial.parse("4,1,0")


def _plain(n, ancillas=0):
    return RegisterLayout(n=n, ancillas=ancillas, phase_wires=frozenset())


def test_simulate_gate_semantics():
    c = Circuit(_plain(1), [Gate.toffoli(0, 1, 2)])
    assert simulate(c, (1, 1, 0)) == (1, 1, 1)
    assert simulate(c, (1, 0, 0)) == (1, 0, 0)
    cx = Circuit(_plain(1), [Gate.x(2), Gate.cnot(2, 0)])
    assert simulate(cx, (0, 0, 0)) == (1, 0, 1)


def test_simulate_all_zero_fixed_point():
    rng = random.Random(0)
    lay = _plain(2)
    c = Circuit(lay)
    for _ in range(30):
        kind = rng.choice(["cnot", "tof"])
        if kind == "cnot":
            c.append(Gate.cnot(*rng.sample(range(6), 2)))
        else:
            c.append(Gate.toffoli(*rng.sample(range(6), 3)))
    assert simulate(c, (0,) * 6) == (0,) * 6


def test_simulate_rejects_non_classical():
    with pytest.raises(InputError):
        simulate(Circuit(_plain(1), [Gate.h(0)]), (0, 0, 0))
    with pytest.raises(InputError):
        simulate(Circuit(_plain(1), [Gate.ccz(0, 1, 2)]), (0, 0, 0))
    with pytest.raises(InputError):
        simulate(Circuit(_plain(1), []), (0, 0))


def test_to_toffoli_form_single_ccz():
    lay = RegisterLayout(n=1, ancillas=0)  # phase wire = {2}
    c = Circuit(lay, [Gate.h(2), Gate.ccz(0, 1, 2), Gate.h(2)])
    t = to_toffoli_form(c)
    assert t.gates == [Gate.toffoli(0, 1, 2)]


def test_to_toffoli_form_reverses_phase_internal_cnot():
    lay = RegisterLayout(n=1, ancillas=1, phase_wires=frozenset({2, 3}))
    c = Circuit(lay, [Gate.h(2), Gate.h(3), Gate.cnot(2, 3), Gate.h(2), Gate.h(3)])
    t = to_toffoli_form(c)
    assert t.gates == [Gate.cnot(3, 2)]


def test_to_toffoli_form_empty_core():
    lay = RegisterLayout(n=1, ancillas=0)
    c = Circuit(lay, [Gate.h(2), Gate.h(2)])
    assert to_toffoli_form(c).gates == []


def test_to_toffoli_form_errors():
    lay = RegisterLayout(n=1, ancillas=1, phase_wires=frozenset({2}))
    with pytest.raises(FormError):  # not a sandwich at all
        to_toffoli_form(Circuit(lay, [Gate.cnot(0, 1)]))
    with pytest.raises(FormError):  # CCZ with no phase wire
        to_toffoli_form(Circuit(lay, [Gate.h(2), Gate.ccz(0, 1, 3), Gate.h(2)]))
    lay2 = RegisterLayout(n=1, ancillas=1, phase_wires=frozenset({2, 3}))
    with pytest.raises(FormError):  # CCZ with two phase wires
        to_toffoli_form(
            Circuit(lay2, [Gate.h(2), Gate.h(3), Gate.ccz(1, 2, 3), Gate.h(2), Gate.h(3)])
        )
    with pytest.raises(FormError):  # CNOT mixing phase and plain wires
        to_toffoli_form(Circuit(lay, [Gate.h(2), Gate.cnot(2, 0), Gate.h(2)]))
    with pytest.raises(FormError):  # H strictly inside the core
        to_toffoli_form(
            Circuit(
                lay2,
                [Gate.h(2), Gate.h(3), Gate.cnot(2, 3), Gate.h(3), Gate.cnot(2, 3), Gate.h(2), Gate.h(3)],
            )
        )


def test_hadamard_conjugated_cnot_direction_by_phase_semantics():
    # The converted CNOT(3,2) must realize the same function the sandwich
    # computes: wire 2 picks up wire 3's kickback.
    lay = RegisterLayout(n=1, ancillas=1, phase_wires=frozenset({2, 3}))
    sandwich = Circuit(
        lay,
        [Gate.h(2), Gate.h(3), Gate.cnot(2, 3), Gate.ccz(0, 1, 3), Gate.cnot(2, 3), Gate.h(2), Gate.h(3)],
    )
    classical = to_toffoli_form(sandwich)
    for bits in range(16):
        state = tuple((bits >> i) & 1 for i in range(4))
        got = simulate(classical, state)
        want = run_batch(sandwich, list(state), 1)
        assert list(got) == want


def test_phase_polynomial_predicts_converted_function():
    # ccz-form core phase with c_i-monomials gives exactly the classical
    # flip function computed by the Toffoli form.
    for n in (2, 3, 4, 5):
        p = catalog_lookup(n).polynomial
        ccz = synth(SynthesisOptions(variant="compact", modulus=p))
        core = Circuit(ccz.layout, [g for g in ccz.gates if g.kind != "H"])
        poly, _ = extract_phase(core)
        toffoli = to_toffoli_form(ccz)
        lay = ccz.layout
        rng = random.Random(n)
        for _ in range(60):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            state = [0] * ccz.wire_count
            for i in range(n):
                state[lay.a(i)] = (a >> i) & 1
                state[lay.b(i)] = (b >> i) & 1
            out = simulate(toffoli, state)
            assignment = sum(bit << w for w, bit in enumerate(state))
            for i in range(n):
                coeff = 0
                for mono in poly.monomials:
                    if lay.c(i) in mono:
                        rest = [v for v in mono if v != lay.c(i)]
                        coeff ^= (
                            (assignment >> rest[0]) & (assignment >> rest[1]) & 1
                        )
                assert out[lay.c(i)] == coeff


def test_baseline_reproduces_reference_product():
    p = BinaryPolynomial.parse("7,5,3,1,0")
    circ = synth(SynthesisOptions(variant="baseline", modulus=p, output_form="toffoli_form"))
    lay = circ.layout
    a = (1, 0, 0, 1, 0, 1, 0)
    b = (0, 1, 1, 0, 0, 0, 0)
    state = [0] * circ.wire_count
    for i in range(7):
        state[lay.a(i)] = a[i]
        state[lay.b(i)] = b[i]
    out = simulate(circ, state)
    assert tuple(out[lay.c(i)] for i in range(7)) == (1, 0, 1, 1, 1, 0, 1)


def test_run_batch_matches_single_simulation():
    p = catalog_lookup(3).polynomial
    circ = synth(SynthesisOptions(variant="compact", modulus=p, output_form="toffoli_form"))
    rng = random.Random(8)
    states = [[rng.randint(0, 1) for _ in range(circ.wire_count)] for _ in range(64)]
    cols = [0] * circ.wire_count
    for t, st in enumerate(states):
        for w, bit in enumerate(st):
            cols[w] |= bit << t
    out_cols = run_batch(circ, cols, len(states))
    for t, st in enumerate(states):
        single = simulate(circ, st)
        got = tuple((out_cols[w] >> t) & 1 for w in range(circ.wire_count))
        assert got == single


def test_sandwich_batch_rejects_double_symbolic_ccz():
    lay = RegisterLayout(n=1, ancillas=1, phase_wires=frozenset({2, 3}))
    c = Circuit(lay, [Gate.h(2), Gate.h(3), Gate.ccz(0, 2, 3), Gate.h(2), Gate.h(3)])
    with pytest.raises(SimulationError):
        run_batch(c, [0, 0, 0, 0], 1)


def test_verify_multiplier_pass_and_fail():
    circ = synth(SynthesisOptions(variant="compact", modulus=P4))
    rep = verify_multiplier(circ, P4, exhaustive=True)
    assert rep.passed and rep.ancillas_clean and rep.operands_preserved

    # dropping the last CCZ breaks it, with a replayable counterexample
    broken = _drop_last_ccz(circ)
    rep = verify_multiplier(broken, P4, exhaustive=True)
    assert not rep.passed
    ce = rep.counterexample
    assert ce is not None
    # the counterexample replays: re-simulating reproduces the wrong output
    got = simulate_product(broken, ce["a_bits"], ce["b_bits"], ce["c0_bits"])
    assert got == ce["got_bits"]
    # exhaustive trials run in the order a*2^n + b; the first pass has c0 = 0
    first_bad = next(
        (a, b)
        for a in range(16)
        for b in range(16)
        if simulate_product(broken, a, b) != simulate_product(circ, a, b)
    )
    assert (ce["a_bits"], ce["b_bits"], ce["c0_bits"]) == (*first_bad, 0)

    # randomized mode catches the same mutant, with a counterexample that
    # the seed reproduces and that replays the same way
    for n in (4, 16):
        p = catalog_lookup(n).polynomial
        broken = _drop_last_ccz(synth(SynthesisOptions(variant="compact", modulus=p)))
        for trials in (64, 1000):
            rep = verify_multiplier(broken, p, trials=trials, seed=n)
            assert not rep.passed, (n, trials)
            assert rep == verify_multiplier(broken, p, trials=trials, seed=n)
            ce = rep.counterexample
            got = simulate_product(broken, ce["a_bits"], ce["b_bits"], ce["c0_bits"])
            assert got == ce["got_bits"]
            assert got != ce["c0_bits"] ^ poly_mul_mod(
                BinaryPolynomial(ce["a_bits"]), BinaryPolynomial(ce["b_bits"]), p
            ).bits


def _drop_last_ccz(circ):
    gates = list(circ.gates)
    del gates[max(i for i, g in enumerate(gates) if g.kind == "CCZ")]
    return Circuit(circ.layout, gates)


def simulate_product(circ, a, b, c0=0):
    lay = circ.layout
    cols = [0] * circ.wire_count
    for i in range(lay.n):
        cols[lay.a(i)] = (a >> i) & 1
        cols[lay.b(i)] = (b >> i) & 1
        cols[lay.c(i)] = (c0 >> i) & 1
    out = run_batch(circ, cols, 1)
    return sum(out[lay.c(i)] << i for i in range(lay.n))


def test_verify_multiplier_wrong_modulus_fails():
    circ = synth(SynthesisOptions(variant="compact", modulus=P4))
    other = BinaryPolynomial.parse("4,3,0")
    assert not verify_multiplier(circ, other, exhaustive=True).passed


def test_verify_multiplier_zero_operand_annihilates():
    p = catalog_lookup(3).polynomial
    circ = synth(SynthesisOptions(variant="compact", modulus=p))
    lay = circ.layout
    rng = random.Random(5)
    for _ in range(20):
        c0 = rng.getrandbits(3)
        cols = [0] * circ.wire_count
        for i in range(3):
            cols[lay.b(i)] = rng.randint(0, 1)
            cols[lay.c(i)] = (c0 >> i) & 1
        out = run_batch(circ, cols, 1)
        assert sum(out[lay.c(i)] << i for i in range(3)) == c0


def test_verify_multiplier_guards():
    circ = synth(SynthesisOptions(variant="compact", modulus=P4))
    with pytest.raises(InputError):
        verify_multiplier(circ, BinaryPolynomial.parse("5,2,0"))
    for trials in (0, -1):  # a request that checks nothing
        with pytest.raises(InputError):
            verify_multiplier(circ, P4, trials=trials)
    big = catalog_lookup(9).polynomial
    big_circ = synth(SynthesisOptions(variant="compact", modulus=big))
    with pytest.raises(InputError):
        verify_multiplier(big_circ, big, exhaustive=True)


def test_verify_seed_is_reproducible():
    p = catalog_lookup(6).polynomial
    circ = synth(SynthesisOptions(variant="compact", modulus=p))
    r1 = verify_multiplier(circ, p, trials=50, seed=42)
    r2 = verify_multiplier(circ, p, trials=50, seed=42)
    assert r1 == r2


def test_product_columns_match_both_oracles():
    rng = random.Random(11)
    width = 24
    for n in (*range(2, 17), 64, 255):
        p = catalog_lookup(n).polynomial
        q = build_reduction_matrix(p)
        a_cols = [rng.getrandbits(width) for _ in range(n)]
        b_cols = [rng.getrandbits(width) for _ in range(n)]
        want_cols = product_columns(a_cols, b_cols, p)
        for t in range(width):
            a, b, want = (
                [(col >> t) & 1 for col in cols] for cols in (a_cols, b_cols, want_cols)
            )
            pa = BinaryPolynomial(sum(bit << i for i, bit in enumerate(a)))
            pb = BinaryPolynomial(sum(bit << i for i, bit in enumerate(b)))
            assert sum(bit << i for i, bit in enumerate(want)) == poly_mul_mod(pa, pb, p).bits
            assert tuple(want) == mastrovito_product(a, b, q)


def test_phasewires_header_must_match_h_layers():
    circ = synth(SynthesisOptions(variant="compact", modulus=P4))
    lay = circ.layout
    text = emit_netlist(circ)
    header = "PHASEWIRES " + ",".join(str(w) for w in lay.c_range)
    assert header in text
    # the header names one wire fewer than the H layers touch
    short = ",".join(str(w) for w in list(lay.c_range)[:-1])
    mismatched = parse_netlist(text.replace(header, "PHASEWIRES " + short))
    with pytest.raises(FormError):
        verify_multiplier(mismatched, P4, trials=8)
    with pytest.raises(FormError):
        to_toffoli_form(mismatched)


def test_is_classical():
    assert is_classical(Circuit(_plain(1), [Gate.cnot(0, 1)]))
    assert not is_classical(Circuit(_plain(1), [Gate.h(0)]))


def reference_run_sandwich(circuit, cols, tmask):
    """The phase-kickback run as first written: one flip update per CCZ."""
    phase, core = _split_sandwich(circuit)
    zmask = [0] * circuit.wire_count
    vals = list(cols)
    flips = {w: 0 for w in phase}
    for w in phase:
        zmask[w] = 1 << w
        vals[w] = 0
    for g in core:
        if g.kind == CNOT:
            c, t = g.operands
            zmask[t] ^= zmask[c]
            vals[t] ^= vals[c]
        elif g.kind == X:
            w = g.operands[0]
            if zmask[w]:
                raise SimulationError("X on a symbol-carrying wire")
            vals[w] ^= tmask
        elif g.kind in (CCZ, TOFFOLI):
            ops = g.operands
            sym = [w for w in ops if zmask[w]]
            if g.kind == TOFFOLI:
                c1, c2, t = ops
                if zmask[c1] or zmask[c2]:
                    raise SimulationError("Toffoli control carries symbols")
                vals[t] ^= vals[c1] & vals[c2]
                continue
            if len(sym) > 1:
                raise SimulationError(
                    "CCZ with two symbol-carrying operands is not basis-preserving"
                )
            if not sym:
                continue
            plain = [w for w in ops if w != sym[0]]
            prod = vals[plain[0]] & vals[plain[1]]
            if prod:
                for zbit in _bits(zmask[sym[0]]):
                    flips[zbit] ^= prod
        else:
            raise SimulationError(f"unsupported core gate {g.kind}")
    out = [0] * circuit.wire_count
    for w in range(circuit.wire_count):
        if w in phase:
            if zmask[w] != 1 << w:
                raise SimulationError("sandwich core is not the identity on phase wires")
            if vals[w]:
                raise SimulationError("classical offset left on a phase wire")
            out[w] = cols[w] ^ flips[w]
        else:
            if zmask[w]:
                raise SimulationError(f"wire {w} stays entangled with phase wires")
            out[w] = vals[w]
    return out


def _outcome(kernel, circuit, cols, trials):
    """The kernel's output columns, or the message of the SimulationError it raised."""
    try:
        return kernel(circuit, list(cols), (1 << trials) - 1)
    except SimulationError as exc:
        return str(exc)


def test_sandwich_kernel_matches_reference_on_synthesized_circuits():
    rng = random.Random(55)
    seen = set()
    for n in (*range(2, 17), 33, 64):
        for p in {e.polynomial for e in catalog_entries(n)}:
            structured = trinomial_split(p) is not None or equally_spaced_split(p) is not None
            variants = ("compact", "linear_depth", "baseline", "log_depth")
            for variant in variants if structured else variants[:3]:
                circ = synth(SynthesisOptions(variant, p))
                trials = rng.choice((1, 64, 200))
                cols = [rng.getrandbits(trials) for _ in range(circ.wire_count)]
                want = reference_run_sandwich(circ, list(cols), (1 << trials) - 1)
                assert run_batch(circ, cols, trials) == want, (n, p, variant)
                seen.add(variant)
    assert len(seen) == 4


def _random_sandwich(rng):
    """An H-sandwich circuit: CNOTs that spread the symbols, a middle of CCZ,
    CNOT, X and TOF gates that leaves every symbol mask as it is, then the
    spreading CNOTs undone. Returns the circuit and the positions a symbolic
    CCZ operand took."""
    lay = RegisterLayout(n=rng.randint(1, 3), ancillas=rng.randint(0, 3))
    wires = range(lay.total_wires)
    zmask = [1 << w if w in lay.phase_wires else 0 for w in wires]
    spread = [Gate.cnot(*rng.sample(wires, 2)) for _ in range(rng.randint(0, 6))]
    for g in spread:
        c, t = g.operands
        zmask[t] ^= zmask[c]
    sym = [w for w in wires if zmask[w]]
    plain = [w for w in wires if not zmask[w]]
    middle, positions = [], set()
    for _ in range(rng.randint(1, 12)):
        kind = rng.choice((CCZ, CCZ, CCZ, CNOT, X, TOFFOLI))
        if kind == CCZ and sym and len(plain) >= 2:
            ops = rng.sample(plain, 2)
            pos = rng.randrange(3)
            ops.insert(pos, rng.choice(sym))
            middle.append(Gate(CCZ, tuple(ops)))
            positions.add(pos)
        elif kind == CCZ and len(plain) >= 3:
            middle.append(Gate(CCZ, tuple(rng.sample(plain, 3))))
        elif kind == CNOT and len(plain) >= 2:
            middle.append(Gate.cnot(*rng.sample(plain, 2)))
        elif kind == X and plain and rng.random() < 0.3:
            middle.append(Gate.x(rng.choice(plain)))
        elif kind == TOFFOLI and len(plain) >= 2 and rng.random() < 0.3:
            c1, c2 = rng.sample(plain, 2)
            t = rng.choice([w for w in wires if w not in (c1, c2)])
            middle.append(Gate.toffoli(c1, c2, t))
    h = [Gate.h(w) for w in sorted(lay.phase_wires)]
    return Circuit(lay, h + spread + middle + spread[::-1] + h), positions


def test_sandwich_kernel_matches_reference_on_random_circuits():
    rng = random.Random(91)
    passed, positions = 0, set()
    for _ in range(200):
        circ, pos = _random_sandwich(rng)
        trials = rng.randint(1, 80)
        cols = [rng.getrandbits(trials) for _ in range(circ.wire_count)]
        want = _outcome(reference_run_sandwich, circ, cols, trials)
        assert _outcome(_run_sandwich, circ, cols, trials) == want, circ.gates
        if not isinstance(want, str):
            passed += 1
            positions |= pos
    assert passed >= 100
    assert positions == {0, 1, 2}


# One core for each SimulationError the sandwich kernel raises; phase wires
# are {2, 3} (n = 1, one ancilla).
KERNEL_ERRORS = [
    ([Gate.x(2)], "X on a symbol-carrying wire"),
    ([Gate.cnot(2, 0), Gate.x(0)], "X on a symbol-carrying wire"),
    ([Gate.cnot(3, 1), Gate.toffoli(0, 1, 2)], "Toffoli control carries symbols"),
    ([Gate.toffoli(2, 0, 1)], "Toffoli control carries symbols"),
    ([Gate(CCZ, (2, 3, 0))], "CCZ with two symbol-carrying operands is not basis-preserving"),
    ([Gate(CCZ, (2, 0, 3))], "CCZ with two symbol-carrying operands is not basis-preserving"),
    ([Gate.cnot(2, 0), Gate(CCZ, (1, 0, 3))],
     "CCZ with two symbol-carrying operands is not basis-preserving"),
    ([Gate.cnot(2, 3)], "sandwich core is not the identity on phase wires"),
    ([Gate.cnot(0, 3)], "classical offset left on a phase wire"),
    ([Gate.toffoli(0, 1, 3)], "classical offset left on a phase wire"),
    ([Gate.cnot(3, 1)], "wire 1 stays entangled with phase wires"),
    ([Gate.cnot(0, 1), Gate.h(0), Gate.cnot(0, 1)], "unsupported core gate H"),
]


@pytest.mark.parametrize("core,message", KERNEL_ERRORS)
def test_sandwich_kernel_error_paths(core, message):
    lay = RegisterLayout(n=1, ancillas=1, phase_wires=frozenset({2, 3}))
    h = [Gate.h(2), Gate.h(3)]
    circ = Circuit(lay, h + core + h)
    cols = [1, 1, 0, 1]
    for kernel in (_run_sandwich, reference_run_sandwich):
        with pytest.raises(SimulationError) as err:
            kernel(circ, list(cols), 1)
        assert str(err.value) == message
    with pytest.raises(SimulationError, match=message):
        run_batch(circ, cols, 1)
