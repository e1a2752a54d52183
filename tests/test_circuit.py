"""Circuit IR, scheduling metrics, and netlist round-trip tests."""

import io
import random
import tracemalloc
from array import array

import pytest

from gf2kq.circuit import (
    CCZ,
    CNOT,
    TOFFOLI,
    H,
    KINDS,
    X,
    Circuit,
    Gate,
    RegisterLayout,
    asap_layers,
    compute_depth,
    inverse,
)
from gf2kq import netlist
from gf2kq.catalog import catalog_entries, catalog_lookup
from gf2kq.errors import InputError, NetlistParseError
from gf2kq.netlist import emit_netlist, parse_netlist
from gf2kq.simulate import simulate
from gf2kq.synth import SynthesisOptions, equally_spaced_split, synth, trinomial_split
from test_netlist_golden import golden_cases


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


def test_from_records_checks_every_record():
    lay = RegisterLayout(n=2)
    good = Circuit(lay, [Gate.cnot(0, 1), Gate.ccz(0, 2, 4), Gate.h(4), Gate.toffoli(1, 0, 5)])
    assert list(good.records()) == [(0, 0, 1, -1), (1, 0, 2, 4), (3, 4, -1, -1), (2, 0, 1, 5)]
    assert Circuit.from_records(lay, bytearray(good.kinds), array("i", good.ops)) == good
    for kinds, ops, message in [
        (b"\x07", [0, -1, -1], "unknown gate kind 7"),
        (b"\x00", [0, 1, 2], "operand slots past its arity"),
        (b"\x03", [4, 0, -1], "operand slots past its arity"),
        (b"\x00\x00", [0, 1, -1], "three operand slots per kind code"),
        (b"\x01", [0, 2, 2], "duplicate operand"),
        (b"\x04", [6, -1, -1], "operand 6 outside 6-wire circuit"),
    ]:
        with pytest.raises(InputError, match=message):
            Circuit.from_records(lay, kinds, array("i", ops))


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
    ("CNOT 12 12", "operand 12 overflows 12 wires"),
    ("CNOT 0 x 1", "CNOT takes 2 operands, got 3"),
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


def test_parse_keeps_gate_kinds_and_operands():
    lay = RegisterLayout(n=100, ancillas=200)
    gates = [Gate.cnot(299, 450), Gate.ccz(250, 300, 450), Gate.cnot(299, 450), Gate.x(450)]
    circ = parse_netlist(emit_netlist(Circuit(lay, gates)))
    assert circ.gates == gates
    g0, g1, g2, g3 = circ.gates
    assert g0 is g2
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


# parse_netlist reads its text in slices of about _PARSE_SLICE characters cut
# after a "\n"; the texts below span several slices.
SLICE = netlist._PARSE_SLICE
FILLER = {"CNOT 0 1": Gate(CNOT, (0, 1)), "CCZ 8 2 5": Gate(CCZ, (8, 2, 5)),
          "X 11": Gate(X, (11,)), "TOF 3 4 9": Gate(TOFFOLI, (3, 4, 9)), "H 10": Gate(H, (10,))}


def _filler(chars: int) -> str:
    """Good gate lines, each ended by "\\n", of at least `chars` characters in all."""
    block = "\n".join(FILLER) + "\n"
    return block * (chars // len(block) + 1)


def _slice_of(text: str, line_no: int) -> int:
    """The index of the slice that holds line `line_no` of `text`."""
    return sum(first <= line_no for first, _ in netlist._slices(text)) - 1


def test_parse_error_in_a_later_slice_names_its_line():
    head = HEADER12 + _filler(2 * SLICE)
    text = head + "CNOT 0 12\n" + _filler(SLICE)
    bad = head.count("\n") + 1
    assert _slice_of(text, bad) == 2
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == f"line {bad}: operand 12 overflows 12 wires"


def test_parse_reports_the_first_slice_a_repeated_bad_line_occurs_in():
    head = HEADER12 + _filler(SLICE)
    text = head + "X 12\n" + _filler(SLICE) + "CNOT 5 5\nX 12\n" + _filler(SLICE) + "X 12"
    bad = head.count("\n") + 1
    assert _slice_of(text, bad) == 1 and _slice_of(text, text.count("\n") + 1) == 3
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == f"line {bad}: operand 12 overflows 12 wires"


def test_parse_header_after_more_than_a_slice_of_comments():
    body = _filler(SLICE)
    want = parse_netlist(HEADER12 + body)
    assert want.gates[:5] == list(FILLER.values())
    preamble = "# preamble\n" * (SLICE // 10)
    assert parse_netlist(preamble + HEADER12 + body) == want
    # the header's own lines may sit in different slices
    qubits, rest = HEADER12.split("\n", 1)
    text = qubits + "\n" + preamble + rest + body
    phasewires = text.count("\n") - body.count("\n")
    assert _slice_of(text, 1) == 0 and _slice_of(text, phasewires) == 1
    assert parse_netlist(text) == want
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text + "CNOT 4 4\n")
    assert err.value.line_no == text.count("\n") + 1


def _ended(lines: list[str], endings: tuple[str, ...]) -> str:
    """`lines`, each but the last ended by the next of `endings` in turn."""
    return "".join(line + endings[i % len(endings)] for i, line in enumerate(lines[:-1])) + lines[-1]


@pytest.mark.parametrize("endings", [("\r\n",), ("\r",), ("\n", "\r", "\r\n", "\n")])
def test_parse_line_endings_across_slices_match_splitlines(endings):
    lines = (HEADER12 + _filler(3 * SLICE)).splitlines()
    text = _ended(lines, endings)
    assert text.splitlines() == lines and not text.endswith(("\r", "\n"))
    circuit = parse_netlist(text)
    assert circuit.layout == RegisterLayout(n=4)
    assert circuit.gates == [FILLER[line] for line in lines[3:]]
    bad = len(lines) - 10
    lines[bad - 1] = "H 12"
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(_ended(lines, endings))
    assert str(err.value) == f"line {bad}: operand 12 overflows 12 wires"


def test_parse_missing_header_names_the_last_line():
    with pytest.raises(NetlistParseError) as err:
        parse_netlist("")
    assert str(err.value) == "line 0: missing header lines"
    text = "QUBITS 12\n" + "# no header yet\n" * (SLICE // 8) + HEADER12.split("\n")[1] + "\n\n"
    last = text.count("\n")
    assert _slice_of(text, last) >= 1
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == f"line {last}: missing header lines"


def _reference_records(text: str) -> tuple[bytearray, array]:
    """The gate records of a good netlist, parsed one line at a time."""
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    gates = [toks for toks in lines if toks][3:]
    kinds = bytearray(KINDS.index(toks[0]) for toks in gates)
    ops = array("i", [w for toks in gates for w in [*map(int, toks[1:]), -1, -1][:3]])
    return kinds, ops


def _spelled(rng: random.Random, w: int) -> str:
    """Wire `w` as one of the spellings int() accepts."""
    spellings = [str(w), f"+{w}", f"0{w}"] + [f"{w // 10}_{w % 10}"] * (w >= 10)
    return rng.choice(spellings)


def _random_netlist(seed: int, chars: int) -> str:
    """HEADER12 and random good gate lines of every kind and spelling, tabs,
    comments, blank lines and mixed line ends, of at least `chars` characters."""
    rng = random.Random(seed)
    arity = {CNOT: 2, CCZ: 3, TOFFOLI: 3, H: 1, X: 1}
    parts = [HEADER12]
    size = len(HEADER12)
    while size < chars:
        roll = rng.random()
        if roll < 0.05:
            line = rng.choice(["", "   ", "\t", "# comment only"])
        else:
            kind = rng.choice(KINDS)
            ops = [_spelled(rng, w) for w in rng.sample(range(12), arity[kind])]
            line = rng.choice([" ", "\t", "  "]).join([kind, *ops])
            if roll < 0.15:
                line = rng.choice(["\t", ""]) + line + rng.choice(["  # note", "#x", " \t"])
        part = line + rng.choice(["\n", "\r\n"])
        parts.append(part)
        size += len(part)
    return "".join(parts)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_matches_the_per_line_reference(seed):
    text = _random_netlist(seed, 3 * SLICE)
    assert _slice_of(text, text.count("\n")) >= 2
    assert "\r\n" in text and "\t" in text and "#" in text and "1_0" in text
    circuit = parse_netlist(text)
    assert (circuit.kinds, circuit.ops) == _reference_records(text)
    assert set(circuit.kinds) == set(range(len(KINDS)))


@pytest.mark.parametrize("line,message", PARSE_ERRORS)
def test_parse_error_after_slices_of_mixed_arity(line, message):
    # more than a slice of repeated good lines, then new good lines of each
    # arity in the bad line's slice, so the slice's columns hold several groups
    head = HEADER12 + _filler(SLICE + SLICE // 2) + "CNOT 7 6\nX 3\n\nTOF 6 7 8  # c\n"
    text = head + line + "\n" + _filler(SLICE)
    bad = head.count("\n") + 1
    assert _slice_of(text, bad) == 1
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(text)
    assert str(err.value) == f"line {bad}: {message}"


def test_parse_error_on_a_line_of_300_tokens():
    line = "CNOT " + " ".join(map(str, range(299)))
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(HEADER12 + "X 1\nCCZ 1 2 3\n" + line + "\n")
    assert str(err.value) == "line 6: CNOT takes 2 operands, got 299"


def test_parse_qubits_count_must_be_decimal_digits():
    # "²".isdigit() is true, but int() refuses it
    for count in ("\u00b2", "12\u00b2", "-12", "1.2"):
        with pytest.raises(NetlistParseError) as err:
            parse_netlist(HEADER12.replace("12", count, 1))
        assert str(err.value) == f"line 1: expected 'QUBITS <total>', got 'QUBITS {count}'"
    # int() takes every Unicode decimal digit, so the header does too
    arabic = "\u0661\u0662"
    assert parse_netlist(HEADER12.replace("12", arabic, 1)).layout == RegisterLayout(n=4)


def test_parse_qubits_total_must_fit_a_32_bit_wire_number():
    # wire numbers are stored as 32-bit ints; the parse sizes nothing by the
    # wire count, so a netlist of 2^31 - 1 wires parses in a few bytes
    def text(total):
        regs = f"REGISTERS a=0:2 b=2:4 c=4:6 anc=6:{total}"
        return f"QUBITS {total}\n{regs}\nPHASEWIRES\nX {total - 1}\n"

    circuit = parse_netlist(text(2**31 - 1))
    assert circuit.layout.total_wires == 2**31 - 1
    assert circuit.gates == [Gate(X, (2**31 - 2,))]
    for total in (2**31, 3_000_000_000):
        with pytest.raises(NetlistParseError) as err:
            parse_netlist(text(total))
        assert str(err.value) == f"line 1: QUBITS {total} is above the 2^31 - 1 wire limit"


def _traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of the call fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_netlist_io_keeps_no_string_per_line():
    # Holding one str per netlist line peaks at 7.5x the text to emit and
    # 7.8x to parse below; chunked emit reads 2.0x and sliced parse 2.3x.
    circuit = synth(SynthesisOptions("compact", catalog_lookup(128).polynomial))
    text = emit_netlist(circuit)
    assert _traced_peak(emit_netlist, circuit) <= 4 * len(text)
    # 100,000 gate lines over several slices, repeating 5,000 distinct lines
    rng = random.Random(12)
    pool = ["CNOT %d %d" % tuple(rng.sample(range(300), 2)) for _ in range(5000)]
    header = "QUBITS 300\nREGISTERS a=0:100 b=100:200 c=200:300 anc=300:300\nPHASEWIRES\n"
    text = header + "\n".join(pool + rng.choices(pool, k=95_000)) + "\n"
    assert _slice_of(text, text.count("\n")) >= 4
    assert _traced_peak(parse_netlist, text) <= 5 * len(text)
    # about 120,000 distinct gate lines over more than 20 slices: the parse
    # keeps no line from one slice to the next (12.7x with a memo of every
    # distinct line of the netlist, 2.4x without)
    pairs = [divmod(i, 1000) for i in rng.sample(range(1_000_000), 120_000)]
    body = "\n".join([f"CNOT {u} {v}" for u, v in pairs if u != v])
    text = "QUBITS 1000\nREGISTERS a=0:300 b=300:600 c=600:900 anc=900:1000\nPHASEWIRES\n" + body
    assert _slice_of(text, text.count("\n")) > 20
    assert _traced_peak(parse_netlist, text) <= 4 * len(text)


@pytest.mark.parametrize("n", [5, 12, 33])
def test_parse_of_a_file_equals_parse_of_its_text_on_the_golden_sample(n, tmp_path):
    path = tmp_path / "circuit.qnl"
    for _, variant, form, style, p in golden_cases(n):
        text = emit_netlist(synth(SynthesisOptions(variant, p, form, style)))
        path.write_text(text, encoding="utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            assert parse_netlist(fh) == parse_netlist(text), (p, variant, form, style)
        # a file is cut into the slices of its text, read one at a time
        assert [*netlist._file_slices(io.StringIO(text))] == [*netlist._slices(text)]


def _error_of(source):
    with pytest.raises(NetlistParseError) as err:
        parse_netlist(source)
    return err.value.line_no, str(err.value)


@pytest.mark.parametrize("line,message", PARSE_ERRORS)
def test_parse_of_a_file_reports_the_errors_of_its_text(line, message, tmp_path):
    head = HEADER12 + _filler(SLICE + SLICE // 2) + "CNOT 7 6\n"
    texts = [
        HEADER12 + "CNOT 0 1\n\n# note\n" + line + "\nCNOT 0 1\n",
        head + line + "\n" + _filler(SLICE),
        _ended((head + _filler(SLICE) + line).splitlines(), ("\r\n", "\n")),
        "QUBITS 12\n" + "# no header yet\n" * (SLICE // 8) + line + "\n",
    ]
    path = tmp_path / "bad.qnl"
    for text in texts:
        want = _error_of(text)
        assert _error_of(io.StringIO(text)) == want
        path.write_bytes(text.encode())
        for newline in (None, ""):
            with open(path, "r", encoding="utf-8", newline=newline) as fh:
                assert _error_of(fh) == want
    for text in texts[:3]:
        line_no, error = _error_of(text)
        assert error == f"line {line_no}: {message}"
