"""The two user pipelines, the oracle checks, and the traced probes.

`compile_case` follows `gf2kq synth`: modulus -> synth -> emit_netlist ->
compute_depth. `verify_case` follows `gf2kq verify`: parse_netlist ->
verify_multiplier. Both call the library directly, in the CLI's order, and
wrap every call in a span named after the module it enters.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import dataclass, field

from gf2kq.circuit import CCZ, CNOT, TOFFOLI, Circuit, compute_depth
from gf2kq.gf2 import BinaryPolynomial, build_reduction_matrix, is_irreducible
from gf2kq.netlist import emit_netlist, parse_netlist
from gf2kq.simulate import run_batch, verify_multiplier
from gf2kq.synth import SynthesisOptions, ccz_count, ccz_count_bound, synth

from workloads import KARATSUBA, Case


@dataclass
class CaseResult:
    case: Case
    compile_s: float = 0.0
    verify_s: float = 0.0
    # perf_counter() at the start of the timed run, for hostspeed.HostSpeed.
    compile_at: float = 0.0
    verify_at: float = 0.0
    cost: dict = field(default_factory=dict)  # ccz, cnot, depth, toffoli_depth, qubits, gates
    netlist_bytes: int = 0
    netlist_sha256: str = ""
    inputs: int = 0  # basis inputs verification checked
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def compile_case(case: Case, span):
    """`gf2kq synth`: returns the circuit, its resource report and the netlist text."""
    p = BinaryPolynomial.parse(case.poly)
    options = SynthesisOptions(variant=case.variant, modulus=p, output_form=case.form,
                               ladder_style=case.ladder)
    with span("synth.synth"):
        circuit = synth(options)
    with span("netlist.emit"):
        text = emit_netlist(circuit)
    with span("circuit.compute_depth"):
        report = compute_depth(circuit)
    return circuit, report, text


def verify_case(case: Case, text: str, span):
    """`gf2kq verify`: returns the parsed circuit and the verification report."""
    p = BinaryPolynomial.parse(case.poly)
    with span("netlist.parse"):
        circuit = parse_netlist(text)
    with span("simulate.verify"):
        report = verify_multiplier(circuit, p, exhaustive=case.exhaustive, trials=case.trials,
                                   seed=case.verify_seed, variant=case.variant)
    return circuit, report


def circuit_cost(report) -> dict:
    return {
        "ccz": report.counts[CCZ] + report.counts[TOFFOLI],
        "cnot": report.counts[CNOT],
        "depth": report.depth,
        "toffoli_depth": report.toffoli_depth,
        "qubits": report.qubit_count,
        "gates": report.total_gates,
    }


class Oracle:
    """Expected CCZ counts, computed once per modulus and never timed."""

    def __init__(self):
        self._karatsuba: dict[str, int] = {}

    def ccz_failures(self, case: Case, ccz: int) -> list[str]:
        if case.variant not in KARATSUBA:
            want = case.n * case.n
            return [] if ccz == want else [f"ccz {ccz} != n^2 = {want}"]
        if case.poly not in self._karatsuba:
            self._karatsuba[case.poly] = ccz_count(BinaryPolynomial.parse(case.poly))
        want = self._karatsuba[case.poly]
        out = [] if ccz == want else [f"ccz {ccz} != ccz_count(p) = {want}"]
        if ccz > ccz_count_bound(case.n):
            out.append(f"ccz {ccz} > 3^ceil(log2 n) = {ccz_count_bound(case.n)}")
        return out


def _repeat(step, min_total: float):
    """Run step() until its runs add up to `min_total` seconds, at most 10 times.

    Returns (seconds, start) of the fastest run and each run's result. With
    min_total 0 the step runs once.
    """
    times, outs = [], []
    while not times or (sum(t for t, _ in times) < min_total and len(times) < 10):
        t0 = time.perf_counter()
        outs.append(step())
        times.append((time.perf_counter() - t0, t0))
    return min(times), outs


def run_case(case: Case, oracle: Oracle, tracer, min_sample_s: float = 0.0) -> CaseResult:
    """Compile and verify one case, timing each pipeline; checks run untimed.

    A pipeline that ends in under `min_sample_s` seconds is run again, back to
    back, and its fastest run counts: one run of a millisecond pipeline is
    mostly timer and scheduler noise.

    A case fails if any step raises, if verification does not PASS, if a
    repeated pipeline gives a different result, if the parsed netlist differs
    from the synthesized circuit, or if its CCZ count is wrong.
    """
    result = CaseResult(case)
    span = tracer.span
    try:
        (result.compile_s, result.compile_at), compiled = _repeat(
            lambda: compile_case(case, span), min_sample_s)
        circuit, report, text = compiled[0]
        (result.verify_s, result.verify_at), verified = _repeat(
            lambda: verify_case(case, text, span), min_sample_s)
        parsed, vreport = verified[0]
    except Exception as exc:  # a case that raises is counted, not fatal
        result.failures.append(f"raised {type(exc).__name__}: {exc}")
        return result
    result.cost = circuit_cost(report)
    data = text.encode()
    result.netlist_bytes = len(data)
    result.netlist_sha256 = hashlib.sha256(data).hexdigest()
    result.inputs = vreport.trials * (2 if case.exhaustive else 1)
    if not vreport.passed:
        result.failures.append("verify: " + vreport.summary())
    if parsed != circuit:
        result.failures.append("netlist round trip changed the circuit")
    if any(t != text for _, _, t in compiled[1:]):
        result.failures.append("repeated compile emitted a different netlist")
    if any(r != vreport for _, r in verified[1:]):
        result.failures.append("repeated verify gave a different report")
    result.failures.extend(oracle.ccz_failures(case, result.cost["ccz"]))
    if tracer.enabled:
        _probes(case, circuit, span)
    return result


def _probes(case: Case, circuit: Circuit, span) -> None:
    """Work outside the user path that prices single layers; traced runs only."""
    p = BinaryPolynomial.parse(case.poly)
    with span("gf2.is_irreducible"):
        is_irreducible(p)
    with span("gf2.reduction_matrix"):
        build_reduction_matrix(p)
    if case.variant in KARATSUBA:
        with span("synth.recursion"):
            ccz_count(p)
    with span("circuit.build"):
        Circuit(circuit.layout, circuit.gates)
    # run_batch alone, on columns as wide as verify_multiplier's batches.
    width = 1 << (2 * case.n) if case.exhaustive else case.trials
    rng = random.Random(case.verify_seed)
    lay = circuit.layout
    cols = [0] * circuit.wire_count
    for w in (*lay.a_range, *lay.b_range, *lay.c_range):
        cols[w] = rng.getrandbits(width)
    for _ in range(2 if case.exhaustive else 1):
        with span("simulate.run_batch"):
            run_batch(circuit, cols, width)


def run_pass(cases: list[Case], oracle: Oracle, tracer,
             min_sample_s: float = 0.0) -> list[CaseResult]:
    """One closed-loop pass: one case at a time, in order."""
    results = []
    for i, case in enumerate(cases):
        # Every case starts from the same collector state, so one case's
        # garbage is not collected on the next case's clock.
        gc.collect()
        if tracer.enabled:
            tracer.case = i
        results.append(run_case(case, oracle, tracer, min_sample_s))
    return results
