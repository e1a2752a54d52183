"""Bit-exact, line-oriented netlist format for circuits.

    QUBITS <total>
    REGISTERS a=<start>:<end> b=<start>:<end> c=<start>:<end> anc=<start>:<end>
    PHASEWIRES <comma-separated indices, possibly empty>
    <GATE> <operand> ...

Ranges are half-open. `#` starts a comment. The format round-trips:
parse_netlist(emit_netlist(c)) equals c structurally.
"""

from __future__ import annotations

from itertools import islice
from sys import intern

from .circuit import Circuit, Gate, RegisterLayout, _ARITY, _check_gates
from .errors import InputError, NetlistParseError


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
    # One " <w>" string per wire, so each gate line is a single concatenation.
    op = [f" {w}" for w in range(lay.total_wires)]
    add = lines.append
    for g in circuit.gates:
        ops = g.operands
        k = len(ops)
        if k == 2:
            add(g.kind + op[ops[0]] + op[ops[1]])
        elif k == 3:
            add(g.kind + op[ops[0]] + op[ops[1]] + op[ops[2]])
        else:
            add(g.kind + op[ops[0]])
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
    first occurrence, and every repeat of it appends the same (immutable)
    Gate; large netlists repeat most of their lines. A line whose first
    token is a known gate kind with the right operand count is read with
    one `split()` and `int()` per operand, so every spelling `int()`
    accepts (`+1`, `01`, `1_0`) names the same wire; any other line, and
    any operand out of range or repeated, goes through `_parse_gate` and
    the `Circuit` checks, which raise the error and line number of the
    first bad line. Gates share one str object per kind and one int object
    per wire, so a parsed netlist holds no per-line copies of either.
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
    # Distinct raw lines in order of first occurrence; blank and comment-only
    # lines keep the value None.
    seen: dict[str, Gate | None] = dict.fromkeys(islice(lines, start, None))
    wire = list(range(total)).__getitem__
    arity = _ARITY
    for raw in seen:
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        ops = None
        if arity.get(kind) == len(toks) - 1:
            try:
                ops = tuple(map(int, toks[1:]))
            except ValueError:
                pass
        if ops and min(ops) >= 0 and max(ops) < total and len(set(ops)) == len(ops):
            seen[raw] = Gate(intern(kind), tuple(map(wire, ops)))
        else:
            seen[raw] = _checked_gate(raw, lines.index(raw, start) + 1, total)
    circuit = Circuit(layout)
    circuit.gates = list(filter(None, map(seen.__getitem__, islice(lines, start, None))))
    return circuit


def _checked_gate(raw: str, line_no: int, total: int) -> Gate:
    """The slow path for one gate line: the error for a bad line, or its Gate."""
    gate = _parse_gate(raw.split("#", 1)[0].strip(), line_no, total)
    try:
        _check_gates((gate,), total)
    except InputError as exc:
        raise NetlistParseError(str(exc), line_no) from None
    return gate


def _parse_gate(line: str, line_no: int, total: int) -> Gate:
    toks = line.split()
    kind = toks[0]
    if kind not in _ARITY:
        raise NetlistParseError(f"unknown gate token {kind!r}", line_no)
    if len(toks) - 1 != _ARITY[kind]:
        raise NetlistParseError(
            f"{kind} takes {_ARITY[kind]} operands, got {len(toks) - 1}", line_no
        )
    try:
        ops = tuple(int(t) for t in toks[1:])
    except ValueError:
        raise NetlistParseError(f"non-integer operand in {line!r}", line_no) from None
    for w in ops:
        if not 0 <= w < total:
            raise NetlistParseError(f"operand {w} overflows {total} wires", line_no)
    return Gate(kind, ops)
