"""Bit-exact, line-oriented netlist format for circuits.

    QUBITS <total>
    REGISTERS a=<start>:<end> b=<start>:<end> c=<start>:<end> anc=<start>:<end>
    PHASEWIRES <comma-separated indices, possibly empty>
    <GATE> <operand> ...

Ranges are half-open. `#` starts a comment. The format round-trips:
parse_netlist(emit_netlist(c)) equals c structurally.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, combinations, compress, islice, repeat
from operator import contains, eq, itemgetter
from struct import Struct
from typing import TextIO

from .circuit import _ARITY, _CODE, KINDS, Circuit, Gate, RegisterLayout
from .errors import NetlistParseError

# Gate lines per emitted chunk and characters per parsed slice: netlist I/O
# holds one chunk's or one slice's lines at a time, never one str per line
# of the whole netlist.
_EMIT_CHUNK = 8192
_PARSE_SLICE = 64 * 1024


def emit_netlist(circuit: Circuit) -> str:
    """The netlist text of `circuit`, joined from chunks of at most 8,192 gate lines."""
    return "".join(_emit_chunks(circuit))


def _emit_chunks(circuit: Circuit) -> Iterator[str]:
    """`emit_netlist`'s text in pieces: the header, the gate lines in chunks, the last newline."""
    lay = circuit.layout
    phase = ",".join(str(w) for w in sorted(lay.phase_wires))
    yield (
        f"QUBITS {lay.total_wires}\n"
        "REGISTERS "
        f"a={lay.a_range.start}:{lay.a_range.stop} "
        f"b={lay.b_range.start}:{lay.b_range.stop} "
        f"c={lay.c_range.start}:{lay.c_range.stop} "
        f"anc={lay.anc_range.start}:{lay.anc_range.stop}\n"
        + f"PHASEWIRES {phase}".rstrip()
    )
    # One " <w>" string per wire and "" for the -1 padding slot, so each gate
    # line joins its kind and its three operand slots. Each gate line starts
    # with the newline that ends the line before it.
    op = [f" {w}" for w in range(lay.total_wires)]
    op.append("")
    words = map(op.__getitem__, circuit.ops)
    kinds = map(["\n" + kind for kind in KINDS].__getitem__, circuit.kinds)
    lines = map("".join, zip(kinds, words, words, words))
    while chunk := "".join(islice(lines, _EMIT_CHUNK)):
        yield chunk
    yield "\n"


def _parse_range(token: str, name: str, line_no: int) -> range:
    try:
        key, span = token.split("=")
        lo, hi = span.split(":")
        if key != name:
            raise ValueError
        return range(int(lo), int(hi))
    except ValueError:
        raise NetlistParseError(f"bad register token {token!r}", line_no) from None


def _slices(text: str) -> Iterator[tuple[int, list[str]]]:
    """(number of the first line, lines) for each slice of `text` in order.

    Each slice is at least `_PARSE_SLICE` characters, extended to just after
    a "\n", so it splits into the same lines as the whole text does there.
    A text of one slice is not copied.
    """
    pos, line_no = 0, 1
    while pos < len(text):
        cut = text.find("\n", pos + _PARSE_SLICE) + 1 or len(text)
        lines = text[pos:cut].splitlines()
        # Counted before the caller edits the list.
        first, line_no = line_no, line_no + len(lines)
        yield first, lines
        pos = cut


def _file_slices(fh: TextIO) -> Iterator[tuple[int, list[str]]]:
    """`_slices` of an open text file: the same slices, read one at a time.

    Each slice is `_PARSE_SLICE` characters and the rest of the line they
    end in, so it ends at the same "\n" as the slice of the whole text.
    """
    line_no = 1
    while chunk := fh.read(_PARSE_SLICE):
        lines = (chunk + fh.readline()).splitlines()
        first, line_no = line_no, line_no + len(lines)
        yield first, lines


def parse_netlist(text: str | TextIO) -> Circuit:
    """Parse netlist text, or an open text file, into a Circuit, validating every gate line.

    The text is read in slices of about 64 KiB cut at line ends, so the
    parse holds one slice's lines at a time, never a str per line of the
    whole netlist; a file is read a slice at a time, so its whole text
    never exists. Each distinct raw gate line of a slice is checked once
    in that slice; large netlists repeat many of their lines within a
    slice. Nothing is kept from one slice to the next but the records. A
    slice's distinct lines are grouped by token count and checked a column
    at a time, with no Python step per line: kinds of that arity, integer
    operands (any spelling `int()` accepts, so `+1`, `01` and `1_0` name
    wires 1, 1 and 10), operands inside the wire range, distinct operands.
    If a check fails, the slice's distinct lines are checked again one at a
    time, in order, for a known gate kind, its operand count, integer
    operands, the range and distinct operands, in that order; the first
    failed check raises NetlistParseError at the line where the bad line
    first occurs. Each slice's records are cut from the bytes of its lines'
    records, with no loop per gate. A QUBITS total above 2^31 - 1 is
    refused: wire numbers are stored as 32-bit ints.
    """
    slices = _slices(text) if isinstance(text, str) else _file_slices(text)
    header: list[tuple[int, str]] = []
    first, lines = 1, []
    for first, lines in slices:
        numbered = ((i, raw.split("#", 1)[0].strip()) for i, raw in enumerate(lines, first))
        header += islice(((i, line) for i, line in numbered if line), 3 - len(header))
        if len(header) == 3:
            break
    else:
        raise NetlistParseError("missing header lines", first + len(lines) - 1)

    (ln1, l1), (ln2, l2), (ln3, l3) = header
    parts = l1.split()
    if len(parts) != 2 or parts[0] != "QUBITS" or not parts[1].isdecimal():
        raise NetlistParseError(f"expected 'QUBITS <total>', got {l1!r}", ln1)
    total = int(parts[1])
    if total > 2**31 - 1:
        raise NetlistParseError(f"QUBITS {total} is above the 2^31 - 1 wire limit", ln1)

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
    circuit = Circuit(layout)
    # The header's slice continues with the first body line.
    del lines[: ln3 + 1 - first]
    for first, lines in chain([(ln3 + 1, lines)], slices):
        # The slice's distinct raw lines, each mapped to its record's bytes;
        # blank and comment-only lines keep b"".
        seen = dict.fromkeys(lines, b"")
        if not _pack([*seen], total, seen):
            for raw in seen:
                if error := _line_error(raw, total):
                    raise NetlistParseError(error, first + lines.index(raw))
            raise RuntimeError("column check refused a slice whose lines each pass")
        # join holds an 80-byte buffer view per line while it runs: a slice's worth.
        records = bytearray().join(map(seen.__getitem__, lines))
        circuit.kinds += records[:: _RECORD.size]
        del records[:: _RECORD.size]
        circuit.ops.frombytes(records)
        # The memo's keys are this slice's lines: free both before the next slice is split.
        del seen, lines[:]
    return circuit


# A gate as bytes: kind code, then its three operand slots as Circuit.ops ints.
_RECORD = Struct("=B3i")
# For each token count of a gate line, the codes of the kinds with that many operands.
_FITS = {a + 1: {k: _CODE[k] for k in KINDS if _ARITY[k] == a} for a in _ARITY.values()}


def _pack(raws: list[str], total: int, seen: dict[str, bytes]) -> bool:
    """Store the record of each gate line of `raws` in `seen`; False if any line fails a check.

    The lines are grouped by token count, and each group is checked and
    packed a column at a time: its kind tokens, then each operand slot.
    """
    lines = raws
    if any(map(contains, raws, repeat("#"))):
        lines = [*map(itemgetter(0), map(str.partition, raws, repeat("#")))]
    sizes = [*map(len, map(str.split, lines))]
    for size in set(sizes) - {0}:
        fits = _FITS.get(size)
        if fits is None:
            return False
        picked = [*map(size.__eq__, sizes)]
        flat = " ".join(compress(lines, picked)).split()
        try:
            kinds = [*map(fits.__getitem__, flat[::size])]
            cols = [[*map(int, flat[i::size])] for i in range(1, size)]
        except (KeyError, ValueError):
            return False
        if min(map(min, cols)) < 0 or max(map(max, cols)) >= total:
            return False
        if any(any(map(eq, u, v)) for u, v in combinations(cols, 2)):
            return False
        pads = [repeat(-1)] * (4 - size)
        seen.update(zip(compress(raws, picked), map(_RECORD.pack, kinds, *cols, *pads)))
    return True


def _line_error(raw: str, total: int) -> str | None:
    """The message of the first check the gate line `raw` fails, or None if it passes."""
    line = raw.split("#", 1)[0]
    toks = line.split()
    if not toks:
        return None
    kind, ops = toks[0], toks[1:]
    want = _ARITY.get(kind)
    if want is None:
        return f"unknown gate token {kind!r}"
    if want != len(ops):
        return f"{kind} takes {want} operands, got {len(ops)}"
    try:
        ops = tuple(map(int, ops))
    except ValueError:
        return f"non-integer operand in {line.strip()!r}"
    for w in ops:
        if not 0 <= w < total:
            return f"operand {w} overflows {total} wires"
    if len(set(ops)) < want:
        return f"duplicate operand in {Gate(kind, ops)}"
    return None
