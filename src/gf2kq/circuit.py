"""Gate-level circuit IR: registers, gates, and scheduling-based metrics.

A Circuit is an ordered gate list over a RegisterLayout. Depth is the
as-soon-as-possible layering: a gate lands in the earliest layer after the
last layer touching any of its wires. `toffoli_depth` counts only layers
weighted by CCZ/Toffoli gates, since those dominate fault-tolerant cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import InputError

CNOT = "CNOT"
CCZ = "CCZ"
TOFFOLI = "TOF"
H = "H"
X = "X"

_ARITY = {CNOT: 2, CCZ: 3, TOFFOLI: 3, H: 1, X: 1}
_KIND = attrgetter("kind")
_OPERANDS = attrgetter("operands")


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
    """Ordered gate list over a layout. Built once, then treated as immutable."""

    def __init__(self, layout: RegisterLayout, gates=()):
        self.layout = layout
        self.gates: list[Gate] = []
        self.extend(gates)

    @property
    def wire_count(self) -> int:
        return self.layout.total_wires

    def append(self, gate: Gate) -> "Circuit":
        return self.extend((gate,))

    def extend(self, gates) -> "Circuit":
        """Append `gates` in order, all or nothing.

        Every gate is checked first, in one pass: a known kind, its arity,
        distinct operands, each inside the layout's wires. The first bad
        gate raises InputError and leaves `self.gates` unchanged.
        """
        if not isinstance(gates, (list, tuple)):
            gates = list(gates)
        _check_gates(gates, self.layout.total_wires)
        self.gates += gates
        return self

    def counts(self) -> dict[str, int]:
        tally = Counter(map(_KIND, self.gates))
        return {k: tally[k] for k in _ARITY}

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.layout == other.layout
            and self.gates == other.gates
        )

    def __repr__(self) -> str:
        return f"Circuit(n={self.layout.n}, ancillas={self.layout.ancillas}, gates={len(self.gates)})"


def _check_gates(gates, total: int) -> None:
    """Raise InputError for the first gate `Circuit.extend` must refuse."""
    arity = _ARITY
    for g in gates:
        ops = g.operands
        k = len(ops)
        if arity.get(g.kind) != k:
            raise _gate_error(g, total)
        if k == 2:
            u, v = ops
            if u == v or not (0 <= u < total and 0 <= v < total):
                raise _gate_error(g, total)
        elif k == 3:
            u, v, w = ops
            if (
                u == v
                or u == w
                or v == w
                or not (0 <= u < total and 0 <= v < total and 0 <= w < total)
            ):
                raise _gate_error(g, total)
        elif not 0 <= ops[0] < total:
            raise _gate_error(g, total)


def _gate_error(gate: Gate, total: int) -> InputError:
    """The error for a gate `_check_gates` refused, checks taken in order."""
    if gate.kind not in _ARITY:
        return InputError(f"unknown gate kind {gate.kind!r}")
    if len(gate.operands) != _ARITY[gate.kind]:
        return InputError(f"{gate.kind} takes {_ARITY[gate.kind]} operands")
    if len(set(gate.operands)) != len(gate.operands):
        return InputError(f"duplicate operand in {gate}")
    w = next(w for w in gate.operands if not 0 <= w < total)
    return InputError(f"operand {w} outside {total}-wire circuit")


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
    for ops in map(_OPERANDS, circuit.gates):
        k = len(ops)
        if k == 2:
            u, v = ops
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
        elif k == 3:
            u, v, w = ops
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
            level[ops[0]] += 1
    depth = max(level, default=0)
    return ResourceReport(
        counts=circuit.counts(),
        total_gates=len(circuit.gates),
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
    for g in circuit.gates:
        t = 1 + max(level[w] for w in g.operands)
        for w in g.operands:
            level[w] = t
        while len(layers) < t:
            layers.append([])
        layers[t - 1].append(g)
    return layers


def inverse(circuit: Circuit) -> Circuit:
    """Reverse the gate list; every supported gate kind is self-inverse."""
    return Circuit(circuit.layout, reversed(circuit.gates))
