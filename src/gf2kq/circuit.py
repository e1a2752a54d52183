"""Gate-level circuit IR: registers, gates, and scheduling-based metrics.

A Circuit is an ordered gate list over a RegisterLayout, stored as records.
Depth is the as-soon-as-possible layering: a gate lands in the earliest layer
after the last layer touching any of its wires. `toffoli_depth` counts only
layers weighted by CCZ/Toffoli gates, since those dominate fault-tolerant cost.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import starmap

from .errors import InputError

CNOT = "CNOT"
CCZ = "CCZ"
TOFFOLI = "TOF"
H = "H"
X = "X"

_ARITY = {CNOT: 2, CCZ: 3, TOFFOLI: 3, H: 1, X: 1}
KINDS = tuple(_ARITY)
K_CNOT, K_CCZ, K_TOF, K_H, K_X = range(len(KINDS))
_CODE = {kind: code for code, kind in enumerate(KINDS)}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate; operand order is canonical (CCZ sorted, TOF controls sorted)."""

    kind: str
    operands: tuple[int, ...]

    @staticmethod
    def cnot(control: int, target: int) -> "Gate":
        return Gate(CNOT, (control, target))

    @staticmethod
    def ccz(a: int, b: int, c: int) -> "Gate":
        # CCZ is symmetric in its operands.
        return Gate(CCZ, tuple(sorted((a, b, c))))

    @staticmethod
    def toffoli(c1: int, c2: int, target: int) -> "Gate":
        lo, hi = sorted((c1, c2))
        return Gate(TOFFOLI, (lo, hi, target))

    @staticmethod
    def h(q: int) -> "Gate":
        return Gate(H, (q,))

    @staticmethod
    def x(q: int) -> "Gate":
        return Gate(X, (q,))


@dataclass(frozen=True)
class RegisterLayout:
    """Wire map: a, b, c registers then an ancilla block, all contiguous.

    `phase_wires` marks the wires that get the Hadamard sandwich in
    ccz-form circuits (the c register for synthesized multipliers).
    """

    n: int
    ancillas: int = 0
    phase_wires: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 1 or self.ancillas < 0:
            raise InputError("bad layout sizes")
        if self.phase_wires is None:
            object.__setattr__(self, "phase_wires", frozenset(self.c_range))
        else:
            object.__setattr__(self, "phase_wires", frozenset(self.phase_wires))
            for w in self.phase_wires:
                if not 0 <= w < self.total_wires:
                    raise InputError("phase wire out of range")

    @property
    def a_range(self) -> range:
        return range(0, self.n)

    @property
    def b_range(self) -> range:
        return range(self.n, 2 * self.n)

    @property
    def c_range(self) -> range:
        return range(2 * self.n, 3 * self.n)

    @property
    def anc_range(self) -> range:
        return range(3 * self.n, 3 * self.n + self.ancillas)

    @property
    def total_wires(self) -> int:
        return 3 * self.n + self.ancillas

    def a(self, i: int) -> int:
        return self._reg(self.a_range, i)

    def b(self, i: int) -> int:
        return self._reg(self.b_range, i)

    def c(self, i: int) -> int:
        return self._reg(self.c_range, i)

    def anc(self, i: int) -> int:
        return self._reg(self.anc_range, i)

    @staticmethod
    def _reg(rng: range, i: int) -> int:
        if not 0 <= i < len(rng):
            raise InputError(f"register index {i} out of range")
        return rng[i]


class Circuit:
    """Ordered gates over a layout. Built once, then treated as immutable.

    Gate i is a record, not an object: kind code `kinds[i]` (its index in
    KINDS) and operands `ops[3 * i : 3 * i + 3]`, -1 past the kind's arity.
    `gates` builds a fresh list on every call, one Gate per distinct record;
    iteration builds a Gate per record.
    """

    def __init__(self, layout: RegisterLayout, gates=()):
        self.layout = layout
        self.kinds, self.ops = bytearray(), array("i")
        self.extend(gates)

    @classmethod
    def from_records(cls, layout: RegisterLayout, kinds, ops) -> "Circuit":
        """The circuit that keeps the records `kinds` and `ops`, checked as `extend` checks."""
        _check_records(kinds, ops, layout.total_wires)
        circuit = cls(layout)
        circuit.kinds, circuit.ops = kinds, ops
        return circuit

    @property
    def wire_count(self) -> int:
        return self.layout.total_wires

    @property
    def gates(self) -> list[Gate]:
        made: dict = {}
        return [made.get(r) or made.setdefault(r, _gate(*r)) for r in self.records()]

    def __iter__(self):
        return starmap(_gate, self.records())

    def records(self):
        """(kind code, three operand slots) per gate, in order, as ints."""
        it = iter(self.ops)
        return zip(self.kinds, it, it, it)

    def append(self, gate: Gate) -> "Circuit":
        return self.extend((gate,))

    def extend(self, gates) -> "Circuit":
        """Append `gates` in order, all or nothing.

        Every gate is checked first, in one pass: a known kind, its arity,
        distinct operands, each inside the layout's wires. The first bad
        gate raises InputError and leaves the circuit unchanged.
        """
        total = self.layout.total_wires
        kinds, ops = bytearray(), array("i")
        for g in gates:
            if _ARITY.get(g.kind) != len(g.operands) or not all(0 <= w < total for w in g.operands):
                _check_records(kinds, ops, total)  # so the first bad gate is the one reported
                raise _gate_error(g, total)
            ops.fromlist([*g.operands, -1, -1][:3])
            kinds.append(_CODE[g.kind])
        _check_records(kinds, ops, total)
        self.kinds += kinds
        self.ops += ops
        return self

    def counts(self) -> dict[str, int]:
        return {kind: self.kinds.count(code) for code, kind in enumerate(KINDS)}

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.layout == other.layout
            and self.kinds == other.kinds
            and self.ops == other.ops
        )

    def __repr__(self) -> str:
        return f"Circuit(n={self.layout.n}, ancillas={self.layout.ancillas}, gates={len(self)})"


def _gate(k: int, u: int, v: int, w: int) -> Gate:
    kind = KINDS[k]
    return Gate(kind, (u, v, w)[: _ARITY[kind]])


def _check_records(kinds, ops, total: int) -> None:
    """Raise InputError for the first record `Circuit.extend` must refuse."""
    if len(ops) != 3 * len(kinds):
        raise InputError("gate records need three operand slots per kind code")
    it = iter(ops)
    for k, u, v, w in zip(kinds, it, it, it):
        if k == K_CNOT:
            ok = w == -1 and u != v and 0 <= u < total and 0 <= v < total
        elif k == K_CCZ or k == K_TOF:
            ok = u != v != w != u and 0 <= u < total and 0 <= v < total and 0 <= w < total
        else:
            ok = k < len(KINDS) and v == w == -1 and 0 <= u < total
        if not ok:
            raise _gate_error(_gate(k, u, v, w) if k < len(KINDS) else Gate(k, ()), total)


def _gate_error(gate: Gate, total: int) -> InputError:
    """The error for a gate `Circuit.extend` refused, checks taken in order."""
    if gate.kind not in _ARITY:
        return InputError(f"unknown gate kind {gate.kind!r}")
    if len(gate.operands) != _ARITY[gate.kind]:
        return InputError(f"{gate.kind} takes {_ARITY[gate.kind]} operands")
    if len(set(gate.operands)) != len(gate.operands):
        return InputError(f"duplicate operand in {gate}")
    for w in gate.operands:
        if not 0 <= w < total:
            return InputError(f"operand {w} outside {total}-wire circuit")
    return InputError(f"{gate} has operand slots past its arity")


@dataclass(frozen=True)
class ResourceReport:
    """Gate counts plus scheduled depth and the qubits x depth cost."""

    counts: dict
    total_gates: int
    depth: int
    toffoli_depth: int
    qubit_count: int
    ancilla_count: int
    spacetime: int

    def __post_init__(self):
        assert self.depth >= self.toffoli_depth
        assert self.spacetime == self.qubit_count * self.depth


def compute_depth(circuit: Circuit) -> ResourceReport:
    """ASAP layering over all gates; toffoli_depth weights only CCZ/TOF.

    A gate lands one layer after the latest of its wires. Every 3-operand
    gate is a CCZ or Toffoli and adds one to the toffoli level; CNOT, H
    and X carry the latest toffoli level of their wires along. Levels only
    grow, so the depths are the final maxima over the wires.
    """
    qubits = circuit.wire_count
    level = [0] * qubits
    tlevel = [0] * qubits
    for k, u, v, w in circuit.records():
        if k == K_CNOT:
            t = level[u]
            x = level[v]
            if x > t:
                t = x
            level[u] = level[v] = t + 1
            t = tlevel[u]
            x = tlevel[v]
            if x > t:
                t = x
            tlevel[u] = tlevel[v] = t
        elif w >= 0:
            t = level[u]
            x = level[v]
            if x > t:
                t = x
            x = level[w]
            if x > t:
                t = x
            level[u] = level[v] = level[w] = t + 1
            t = tlevel[u]
            x = tlevel[v]
            if x > t:
                t = x
            x = tlevel[w]
            if x > t:
                t = x
            tlevel[u] = tlevel[v] = tlevel[w] = t + 1
        else:
            level[u] += 1
    depth = max(level, default=0)
    return ResourceReport(
        counts=circuit.counts(),
        total_gates=len(circuit),
        depth=depth,
        toffoli_depth=max(tlevel, default=0),
        qubit_count=qubits,
        ancilla_count=circuit.layout.ancillas,
        spacetime=qubits * depth,
    )


def asap_layers(circuit: Circuit) -> list[list[Gate]]:
    """The explicit ASAP layers; gates within a layer touch disjoint wires."""
    level = [0] * circuit.wire_count
    layers: list[list[Gate]] = []
    for g in circuit:
        t = 1 + max(level[w] for w in g.operands)
        for w in g.operands:
            level[w] = t
        while len(layers) < t:
            layers.append([])
        layers[t - 1].append(g)
    return layers


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the gate list; every supported gate kind is self-inverse."""
    flipped = circuit.ops[::-1]  # the gates reversed, each operand triple too
    ops = array("i", flipped)
    ops[0::3], ops[2::3] = flipped[2::3], flipped[0::3]
    return Circuit.from_records(circuit.layout, circuit.kinds[::-1], ops)
