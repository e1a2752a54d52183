"""Benchmark harness: per-size resource rows, CSV emission, scaling fits."""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, fields

from .catalog import GENERIC, catalog_lookup
from .circuit import compute_depth
from .errors import Gf2kqError
from .gf2 import BinaryPolynomial
from .synth import SynthesisOptions, synth

@dataclass(frozen=True)
class BenchRow:
    n: int
    polynomial: str
    variant: str
    ccz: int
    toffoli: int
    cnot: int
    h: int
    total_gates: int
    depth: int
    toffoli_depth: int
    qubits: int
    ancillas: int
    spacetime: int
    wall_time_ms: float

    def as_list(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


CSV_FIELDS = tuple(f.name for f in fields(BenchRow))


def bench_row(
    n: int,
    variant: str,
    family: str = GENERIC,
    ladder_style: str = "prefix_ancilla",
    modulus: BinaryPolynomial | None = None,
) -> BenchRow:
    """Synthesize one (n, variant) pair and measure its resources."""
    p = modulus if modulus is not None else catalog_lookup(n, family).polynomial
    t0 = time.perf_counter()
    circ = synth(SynthesisOptions(variant=variant, modulus=p, ladder_style=ladder_style))
    wall = (time.perf_counter() - t0) * 1000.0
    rep = compute_depth(circ)
    return BenchRow(
        n=n,
        polynomial=p.exponent_list(),
        variant=variant,
        ccz=rep.counts["CCZ"],
        toffoli=rep.counts["TOF"],
        cnot=rep.counts["CNOT"],
        h=rep.counts["H"],
        total_gates=rep.total_gates,
        depth=rep.depth,
        toffoli_depth=rep.toffoli_depth,
        qubits=rep.qubit_count,
        ancillas=rep.ancilla_count,
        spacetime=rep.spacetime,
        wall_time_ms=round(wall, 3),
    )


def run_bench(
    sizes: list[int],
    variants: list[str],
    family: str = GENERIC,
    ladder_style: str = "prefix_ancilla",
) -> tuple[list[BenchRow], list[str]]:
    """One row per (n, variant), sorted; failures become skip notes."""
    rows: list[BenchRow] = []
    notes: list[str] = []
    for n in sorted(set(sizes)):
        for variant in variants:
            try:
                rows.append(bench_row(n, variant, family, ladder_style))
            except Gf2kqError as exc:
                notes.append(f"skip n={n} variant={variant}: {exc}")
    rows.sort(key=lambda r: (r.n, r.variant))
    return rows, notes


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow(row.as_list())
    return buf.getvalue()


def fit_loglog(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        raise Gf2kqError("need at least two positive points to fit")
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def fit_lines(rows: list[BenchRow]) -> list[str]:
    """Per-variant log-log slopes of ccz and depth against n, over powers of two."""
    lines = []
    for variant in sorted({r.variant for r in rows}):
        sub = [r for r in rows if r.variant == variant and (r.n & (r.n - 1)) == 0]
        if len(sub) < 2:
            continue
        counts = [(r.n, r.ccz if r.ccz else r.toffoli) for r in sub]
        depths = [(r.n, r.depth) for r in sub]
        lines.append(
            "FIT variant=%s ccz_slope=%.4f depth_slope=%.4f over n=%s"
            % (
                variant,
                fit_loglog(counts),
                fit_loglog(depths),
                ",".join(str(r.n) for r in sub),
            )
        )
    return lines
