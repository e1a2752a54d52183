"""Bit-exact, line-oriented netlist format for circuits.

    QUBITS <total>
    REGISTERS a=<start>:<end> b=<start>:<end> c=<start>:<end> anc=<start>:<end>
    PHASEWIRES <comma-separated indices, possibly empty>
    <GATE> <operand> ...

Ranges are half-open. `#` starts a comment. The format round-trips:
parse_netlist(emit_netlist(c)) equals c structurally.
"""

from __future__ import annotations

from itertools import chain, islice
from struct import Struct

from .circuit import _ARITY, _CODE, KINDS, Circuit, Gate, RegisterLayout
from .errors import NetlistParseError


def emit_netlist(circuit: Circuit) -> str:
    lay = circuit.layout
    lines = [f"QUBITS {lay.total_wires}"]
    lines.append(
        "REGISTERS "
        f"a={lay.a_range.start}:{lay.a_range.stop} "
        f"b={lay.b_range.start}:{lay.b_range.stop} "
        f"c={lay.c_range.start}:{lay.c_range.stop} "
        f"anc={lay.anc_range.start}:{lay.anc_range.stop}"
    )
    phase = ",".join(str(w) for w in sorted(lay.phase_wires))
    lines.append(f"PHASEWIRES {phase}".rstrip())
    # One " <w>" string per wire and "" for the -1 padding slot, so each gate
    # line joins its kind and its three operand slots.
    op = [f" {w}" for w in range(lay.total_wires)]
    op.append("")
    words = map(op.__getitem__, circuit.ops)
    lines += map("".join, zip(map(KINDS.__getitem__, circuit.kinds), words, words, words))
    return "\n".join(lines) + "\n"


def _parse_range(token: str, name: str, line_no: int) -> range:
    try:
        key, span = token.split("=")
        lo, hi = span.split(":")
        if key != name:
            raise ValueError
        return range(int(lo), int(hi))
    except ValueError:
        raise NetlistParseError(f"bad register token {token!r}", line_no) from None


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit, validating every gate line.

    Each distinct raw gate line is parsed and checked once, in order of
    first occurrence, into its record; large netlists repeat most of their
    lines. A line is checked for a known gate kind, its operand count,
    integer operands (any spelling `int()` accepts, so `+1`, `01` and `1_0`
    name wires 1, 1 and 10), operands inside the wire range and distinct
    operands, in that order; the first failed check raises NetlistParseError
    at the line where the bad line first occurs. A good line becomes its
    record in bytes, and the circuit's records are cut from the bytes of
    every line, with no loop per gate.
    """
    lines = text.splitlines()
    numbered = ((i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(lines, start=1))
    body = ((i, line) for i, line in numbered if line)
    header = list(islice(body, 3))
    if len(header) < 3:
        raise NetlistParseError("missing header lines", len(lines))

    (ln1, l1), (ln2, l2), (ln3, l3) = header
    parts = l1.split()
    if len(parts) != 2 or parts[0] != "QUBITS" or not parts[1].isdigit():
        raise NetlistParseError(f"expected 'QUBITS <total>', got {l1!r}", ln1)
    total = int(parts[1])

    toks = l2.split()
    if len(toks) != 5 or toks[0] != "REGISTERS":
        raise NetlistParseError(f"expected REGISTERS line, got {l2!r}", ln2)
    ra = _parse_range(toks[1], "a", ln2)
    rb = _parse_range(toks[2], "b", ln2)
    rc = _parse_range(toks[3], "c", ln2)
    ranc = _parse_range(toks[4], "anc", ln2)
    n = len(ra)
    if (
        n < 1
        or len(rb) != n
        or len(rc) != n
        or ra.start != 0
        or rb.start != n
        or rc.start != 2 * n
        or ranc.start != 3 * n
        or ranc.stop != total
    ):
        raise NetlistParseError("register ranges are not the canonical layout", ln2)

    ptoks = l3.split(None, 1)
    if ptoks[0] != "PHASEWIRES":
        raise NetlistParseError(f"expected PHASEWIRES line, got {l3!r}", ln3)
    phase: frozenset[int] = frozenset()
    if len(ptoks) == 2:
        try:
            phase = frozenset(int(t) for t in ptoks[1].split(","))
        except ValueError:
            raise NetlistParseError(f"bad phase wire list {ptoks[1]!r}", ln3) from None
    for w in phase:
        if not 0 <= w < total:
            raise NetlistParseError(f"phase wire {w} out of range", ln3)

    layout = RegisterLayout(n=n, ancillas=len(ranc), phase_wires=phase)
    start = ln3  # index of the first line after the header
    # Distinct raw lines in order of first occurrence, each mapped to its
    # record's bytes; blank and comment-only lines keep b"".
    seen: dict[str, bytes] = dict.fromkeys(islice(lines, start, None), b"")
    arity = _ARITY
    for raw in seen:
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        kind = toks[0]
        want = arity.get(kind)
        if want is None:
            error = f"unknown gate token {kind!r}"
        elif want != len(toks) - 1:
            error = f"{kind} takes {want} operands, got {len(toks) - 1}"
        else:
            try:
                ops = tuple(map(int, toks[1:]))
            except ValueError:
                ops = None
            if ops is None:
                error = f"non-integer operand in {line.strip()!r}"
            elif min(ops) < 0 or max(ops) >= total:
                w = next(w for w in ops if not 0 <= w < total)
                error = f"operand {w} overflows {total} wires"
            elif len(set(ops)) < want:
                error = f"duplicate operand in {Gate(kind, ops)}"
            else:
                seen[raw] = _RECORD.pack(_CODE[kind], *(ops + (-1, -1))[:3])
                continue
        raise NetlistParseError(error, lines.index(raw, start) + 1)
    # Not b"".join: it holds an 80-byte buffer view per line while it runs.
    records = bytearray(chain.from_iterable(map(seen.__getitem__, islice(lines, start, None))))
    del lines, seen  # the per-line tables are the parse's peak; free them first
    circuit = Circuit(layout)
    circuit.kinds = records[:: _RECORD.size]
    del records[:: _RECORD.size]
    circuit.ops.frombytes(records)
    return circuit


# A gate as bytes: kind code, then its three operand slots as Circuit.ops ints.
_RECORD = Struct("=B3i")
