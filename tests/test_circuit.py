"""Circuit IR, scheduling metrics, and netlist round-trip tests."""

import random

import pytest

from gf2kq.circuit import (
    CCZ,
    CNOT,
    TOFFOLI,
    H,
    X,
    Circuit,
    Gate,
    RegisterLayout,
    asap_layers,
    compute_depth,
    inverse,
)
from gf2kq.catalog import catalog_entries
from gf2kq.errors import InputError, NetlistParseError
from gf2kq.netlist import emit_netlist, parse_netlist
from gf2kq.simulate import simulate
from gf2kq.synth import SynthesisOptions, equally_spaced_split, synth, trinomial_split


def _circ(n=2, ancillas=0, gates=()):
    return Circuit(RegisterLayout(n=n, ancillas=ancillas), gates)


def test_append_preserves_order():
    c = _circ(gates=[Gate.cnot(0, 1)])
    assert len(c) == 1
    c.append(Gate.cnot(1, 2))
    assert [g.operands for g in c.gates] == [(0, 1), (1, 2)]


def test_ccz_canonicalized_ascending():
    assert Gate.ccz(2, 1, 0).operands == (0, 1, 2)
    assert Gate.toffoli(5, 4, 0).operands == (4, 5, 0)


def test_append_rejects_bad_operands():
    c = _circ()
    with pytest.raises(InputError):
        c.append(Gate.cnot(0, 0))
    with pytest.raises(InputError):
        c.append(Gate.cnot(0, 99))
    with pytest.raises(InputError):
        c.append(Gate("NOPE", (0,)))


# (gate, netlist line, InputError message) for each check Circuit.extend makes;
# the circuits below have n = 2 and 6 wires.
BAD_GATES = [
    (Gate("NOPE", (0,)), "NOPE 0", "unknown gate kind"),
    (Gate(CNOT, (0, 1, 2)), "CNOT 0 1 2", "CNOT takes 2 operands"),
    (Gate(H, ()), "H", "H takes 1 operands"),
    (Gate(CNOT, (1, 1)), "CNOT 1 1", "duplicate operand"),
    (Gate(CCZ, (0, 0, 1)), "CCZ 0 0 1", "duplicate operand"),
    (Gate(CCZ, (0, 1, 0)), "CCZ 0 1 0", "duplicate operand"),
    (Gate(TOFFOLI, (0, 1, 1)), "TOF 0 1 1", "duplicate operand"),
    (Gate(CNOT, (0, 6)), "CNOT 0 6", "operand 6 outside 6-wire circuit"),
    (Gate(TOFFOLI, (0, 1, 6)), "TOF 0 1 6", "operand 6 outside 6-wire circuit"),
    (Gate(X, (-1,)), "X -1", "operand -1 outside 6-wire circuit"),
    (Gate(CCZ, (-2, 0, 1)), "CCZ -2 0 1", "operand -2 outside 6-wire circuit"),
]


@pytest.mark.parametrize("bad,line,message", BAD_GATES)
def test_extend_validates_every_gate_all_or_nothing(bad, line, message):
    lay = RegisterLayout(n=2)
    good = [Gate.cnot(0, 1), Gate.h(4)]
    with pytest.raises(InputError, match=message):
        Circuit(lay, good + [bad, Gate.x(3)])
    c = Circuit(lay, good)
    for batch in ([Gate.cnot(1, 0), bad, Gate.x(3)], (bad,), iter([Gate.x(3), bad])):
        with pytest.raises(InputError, match=message):
            c.extend(batch)
        assert c.gates == good
    with pytest.raises(InputError, match=message):
        c.append(bad)
    assert c.gates == good
    header = "QUBITS 6\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:6\nPHASEWIRES 4,5\n"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(header + f"CNOT 0 1\n{line}\nX 3\n")
    assert err.value.line_no == 5


def test_layout_ranges():
    lay = RegisterLayout(n=3, ancillas=2)
    assert list(lay.a_range) == [0, 1, 2]
    assert list(lay.b_range) == [3, 4, 5]
    assert list(lay.c_range) == [6, 7, 8]
    assert list(lay.anc_range) == [9, 10]
    assert lay.phase_wires == frozenset({6, 7, 8})
    with pytest.raises(InputError):
        lay.anc(2)
    with pytest.raises(InputError):
        RegisterLayout(n=2, ancillas=0, phase_wires=frozenset({17}))


def test_depth_disjoint_vs_chained():
    assert compute_depth(_circ(gates=[Gate.cnot(0, 1), Gate.cnot(2, 3)])).depth == 1
    assert compute_depth(_circ(gates=[Gate.cnot(0, 1), Gate.cnot(1, 2)])).depth == 2


def test_depth_counts_every_kind_toffoli_depth_weighted():
    gates = [Gate.h(0), Gate.cnot(0, 1), Gate.toffoli(0, 1, 2), Gate.h(2)]
    rep = compute_depth(_circ(gates=gates))
    assert rep.depth == 4
    assert rep.toffoli_depth == 1
    assert rep.spacetime == rep.qubit_count * rep.depth


def test_asap_layers_are_wire_disjoint():
    rng = random.Random(5)
    lay = RegisterLayout(n=4, ancillas=2)
    c = Circuit(lay)
    wires = lay.total_wires
    for _ in range(120):
        kind = rng.choice(["cnot", "ccz", "tof", "h"])
        ops = rng.sample(range(wires), 3)
        if kind == "cnot":
            c.append(Gate.cnot(ops[0], ops[1]))
        elif kind == "ccz":
            c.append(Gate.ccz(*ops))
        elif kind == "tof":
            c.append(Gate.toffoli(*ops))
        else:
            c.append(Gate.h(ops[0]))
    layers = asap_layers(c)
    assert sum(len(l) for l in layers) == len(c)
    assert len(layers) == compute_depth(c).depth
    for layer in layers:
        seen = set()
        for g in layer:
            assert not seen.intersection(g.operands)
            seen.update(g.operands)
    # ASAP minimality: each gate conflicts with something in the previous layer
    for idx in range(1, len(layers)):
        for g in layers[idx]:
            prior = {w for gg in layers[idx - 1] for w in gg.operands}
            assert prior.intersection(g.operands) or any(
                True
                for gg in layers[idx - 1]
                if set(gg.operands) & set(g.operands)
            )


def test_inverse_reverses_and_cancels():
    gates = [Gate.cnot(0, 1), Gate.cnot(1, 2)]
    inv = inverse(_circ(gates=gates))
    assert [g.operands for g in inv.gates] == [(1, 2), (0, 1)]
    assert len(inverse(_circ()).gates) == 0

    rng = random.Random(11)
    lay = RegisterLayout(n=4, ancillas=0, phase_wires=frozenset())
    c = Circuit(lay)
    for _ in range(10):
        u, v = rng.sample(range(lay.total_wires), 2)
        c.append(Gate.cnot(u, v))
    both = Circuit(lay, list(c.gates) + list(inverse(c).gates))
    for _ in range(100):
        state = tuple(rng.randint(0, 1) for _ in range(lay.total_wires))
        assert simulate(both, state) == state


def test_netlist_single_gate():
    c = _circ(n=1, gates=[Gate.cnot(0, 1)])
    text = emit_netlist(c)
    assert text.splitlines()[0] == "QUBITS 3"
    assert "CNOT 0 1" in text
    assert parse_netlist(text) == c


def test_netlist_round_trip_randomized():
    rng = random.Random(2024)
    for trial in range(25):
        n = rng.randint(1, 5)
        anc = rng.randint(0, 4)
        lay = RegisterLayout(n=n, ancillas=anc)
        c = Circuit(lay)
        wires = lay.total_wires
        for _ in range(rng.randint(0, 40)):
            kind = rng.choice(["cnot", "ccz", "tof", "h", "x"])
            if kind in ("cnot",) and wires >= 2:
                c.append(Gate.cnot(*rng.sample(range(wires), 2)))
            elif kind in ("ccz", "tof") and wires >= 3:
                ops = rng.sample(range(wires), 3)
                c.append(Gate.ccz(*ops) if kind == "ccz" else Gate.toffoli(*ops))
            else:
                c.append(Gate.h(rng.randrange(wires)) if kind == "h" else Gate.x(rng.randrange(wires)))
        assert parse_netlist(emit_netlist(c)) == c, trial


def test_netlist_comments_and_blank_lines():
    text = "QUBITS 6\n# comment\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:6\nPHASEWIRES 4,5\n\nCNOT 0 1  # inline\n"
    c = parse_netlist(text)
    assert c.gates == [Gate.cnot(0, 1)]
    assert c.layout.phase_wires == frozenset({4, 5})


def test_netlist_parse_errors_carry_line_numbers():
    good_header = "QUBITS 6\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:6\nPHASEWIRES\n"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(good_header + "CNOTT 0 1\n")
    assert err.value.line_no == 4
    with pytest.raises(NetlistParseError):
        parse_netlist(good_header + "CNOT 0 99\n")
    with pytest.raises(NetlistParseError):
        parse_netlist(good_header + "CNOT 0\n")
    with pytest.raises(NetlistParseError):
        parse_netlist("QUBITS x\n" + good_header[9:])
    with pytest.raises(NetlistParseError):
        parse_netlist("QUBITS 6\nREGISTERS a=0:2 b=2:4 c=4:6\nPHASEWIRES\n")


def test_netlist_repeated_gate_lines():
    c = _circ(n=2, gates=[Gate.cnot(0, 1), Gate.ccz(0, 2, 4), Gate.cnot(0, 1), Gate.cnot(0, 1)])
    assert parse_netlist(emit_netlist(c)) == c
    # a bad line that repeats reports where it first occurs
    good_header = "QUBITS 6\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:6\nPHASEWIRES\n"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(good_header + "CNOT 0 1\nCNOT 3 3\nCNOT 0 1\nCNOT 3 3\n")
    assert err.value.line_no == 5


def test_empty_phasewires_round_trip():
    lay = RegisterLayout(n=2, ancillas=1, phase_wires=frozenset())
    c = Circuit(lay, [Gate.toffoli(0, 2, 4)])
    text = emit_netlist(c)
    assert "PHASEWIRES\n" in text
    assert parse_netlist(text) == c


# n = 4 and 12 wires, so operands 10 and 11 exist.
HEADER12 = "QUBITS 12\nREGISTERS a=0:4 b=4:8 c=8:12 anc=12:12\nPHASEWIRES 8,9,10,11\n"

PARSE_ERRORS = [
    ("CNOTT 0 1", "unknown gate token 'CNOTT'"),
    ("cnot 0 1", "unknown gate token 'cnot'"),
    ("CNOT 0", "CNOT takes 2 operands, got 1"),
    ("CCZ 0 1 2 3", "CCZ takes 3 operands, got 4"),
    ("H", "H takes 1 operands, got 0"),
    ("CNOT 0 x", "non-integer operand in 'CNOT 0 x'"),
    ("TOF 0 1 2.0  # trailing", "non-integer operand in 'TOF 0 1 2.0'"),
    ("X 0x1", "non-integer operand in 'X 0x1'"),
    ("CNOT 0 12", "operand 12 overflows 12 wires"),
    ("X 99999999999999999999", "operand 99999999999999999999 overflows 12 wires"),
    ("CCZ 0 -1 2", "operand -1 overflows 12 wires"),
    ("CNOT 3 3", "duplicate operand in Gate(kind='CNOT', operands=(3, 3))"),
    ("TOF 1 2 01", "duplicate operand in Gate(kind='TOF', operands=(1, 2, 1))"),
]


@pytest.mark.parametrize("line,message", PARSE_ERRORS)
def test_parse_error_messages_and_line_numbers(line, message):
    # the bad line is line 7, after a good gate, a blank line and a comment
    text = HEADER12 + "CNOT 0 1\n\n# note\n" + line + "\nCNOT 0 1\n"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert err.value.line_no == 7
    assert str(err.value) == f"line 7: {message}"


def test_parse_reports_first_bad_line_when_it_repeats():
    body = "CNOT 0 1\n\n# c\nX 12\n   \nCNOT 0 1\n# X 12\nX 12\nCNOT 5 5\nX 12\n"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(HEADER12 + body)
    assert err.value.line_no == 7
    assert str(err.value) == "line 7: operand 12 overflows 12 wires"
    # a different bad line earlier than the repeats wins
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(HEADER12 + "CNOT 5 5\n" + body)
    assert str(err.value) == "line 4: duplicate operand in Gate(kind='CNOT', operands=(5, 5))"


def test_parse_operand_spellings_and_inline_comments():
    plain = parse_netlist(HEADER12 + "CNOT 1 2\nCCZ 10 3 4\nX 11\nTOF 0 5 10\n")
    assert plain.gates == [
        Gate(CNOT, (1, 2)),
        Gate(CCZ, (10, 3, 4)),
        Gate(X, (11,)),
        Gate(TOFFOLI, (0, 5, 10)),
    ]
    spelled = parse_netlist(
        HEADER12
        + "CNOT +1 02\n\tCCZ 1_0 +3 004  # inline comment\nX 1_1#tight\nTOF 00 +5 1_0 \n"
    )
    assert spelled == plain


def test_parse_shares_gates_and_wire_ints():
    lay = RegisterLayout(n=100, ancillas=200)
    gates = [Gate.cnot(299, 450), Gate.ccz(250, 300, 450), Gate.cnot(299, 450), Gate.x(450)]
    circ = parse_netlist(emit_netlist(Circuit(lay, gates)))
    assert circ.gates == gates
    g0, g1, g2, g3 = circ.gates
    assert g0 is g2
    assert g0.operands[1] is g1.operands[2] is g3.operands[0]
    assert g0.kind is CNOT and g1.kind is CCZ and g3.kind is X


def test_parse_round_trips_every_variant():
    checked = set()
    for n in (5, 16, 64):
        for p in {e.polynomial for e in catalog_entries(n)}:
            structured = trinomial_split(p) is not None or equally_spaced_split(p) is not None
            styles = ("sequential", "prefix_ancilla") if structured else ("prefix_ancilla",)
            cases = [("compact", "ccz_form", "prefix_ancilla"),
                     ("compact", "toffoli_form", "prefix_ancilla"),
                     ("linear_depth", "ccz_form", "prefix_ancilla")]
            for style in styles:
                cases += [("baseline", "ccz_form", style), ("baseline", "toffoli_form", style)]
                if structured:
                    cases.append(("log_depth", "ccz_form", style))
            for variant, form, style in cases:
                circ = synth(SynthesisOptions(variant, p, form, style))
                assert parse_netlist(emit_netlist(circ)) == circ, (n, p, variant, form, style)
                checked.add(variant)
    assert checked == {"compact", "linear_depth", "baseline", "log_depth"}
