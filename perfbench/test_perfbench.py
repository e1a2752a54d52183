"""Tests of the benchmark itself: its failure counting, its refusal of empty
verify requests, its circuit-cost columns and its seeded workloads.

Run from the root of the checkout: python3 -m pytest perfbench -q
"""

import time

import pytest

import hostspeed
import pipeline
import run
import workloads
from gf2kq.bench import bench_row
from gf2kq.catalog import catalog_lookup
from tracing import NullTracer, Tracer


def _case(variant, n, family="generic", **kw):
    poly = catalog_lookup(n, family).polynomial.exponent_list()
    return workloads.Case(variant, family, poly, n, **kw)


def _drop_first_ccz(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("CCZ "))
    return "".join(lines[:first] + lines[first + 1:])


@pytest.mark.parametrize("exhaustive", [True, False])
def test_circuit_with_one_ccz_deleted_is_counted_failed(monkeypatch, exhaustive):
    emit = pipeline.emit_netlist
    monkeypatch.setattr(pipeline, "emit_netlist", lambda c: _drop_first_ccz(emit(c)))
    cases = [_case("compact", 4, exhaustive=exhaustive, verify_seed=7)]
    results = pipeline.run_pass(cases, pipeline.Oracle(), NullTracer())
    assert any(f.startswith("verify: FAIL") for f in results[0].failures)
    attempted, failed, problems = run.check_passes([results])
    assert (attempted, failed) == (1, 1)
    assert problems


def test_unmutated_cases_pass():
    cases = [_case("compact", 4, exhaustive=True), _case("log_depth", 7, "trinomial")]
    results = pipeline.run_pass(cases, pipeline.Oracle(), NullTracer())
    assert run.check_passes([results]) == (2, 0, [])


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_request_checking_nothing_is_refused(trials):
    with pytest.raises(ValueError):
        _case("compact", 9, trials=trials)
    _case("compact", 4, exhaustive=True, trials=0)  # exhaustive mode ignores trials


@pytest.mark.parametrize(
    "variant,n,family",
    [("compact", 5, "generic"), ("linear_depth", 6, "generic"),
     ("log_depth", 7, "trinomial"), ("baseline", 9, "generic")],
)
def test_case_cost_equals_bench_row(variant, n, family):
    _, report, _ = pipeline.compile_case(_case(variant, n, family), NullTracer().span)
    cost = pipeline.circuit_cost(report)
    row = bench_row(n, variant, family)
    for key in ("ccz", "cnot", "depth", "toffoli_depth", "qubits"):
        assert cost[key] == getattr(row, key), key


def test_netlist_digest_repeats():
    cases = [_case("compact", 6), _case("baseline", 5, form="toffoli_form")]
    first = pipeline.run_pass(cases, pipeline.Oracle(), NullTracer(), min_sample_s=0.05)
    second = pipeline.run_pass(cases, pipeline.Oracle(), Tracer())
    assert run.pass_digest(first) == run.pass_digest(second)
    assert run.check_passes([first, second]) == (4, 0, [])


def test_traced_pass_emits_every_span():
    cases = [_case(v, 5) for v in ("compact", "linear_depth", "log_depth", "baseline")]
    tracer = Tracer()
    results = pipeline.run_pass(cases, pipeline.Oracle(), tracer)
    metrics = run.per_layer_metrics(tracer, results, Tracer())
    for v in workloads.VARIANTS:
        for name in ("synth.synth_s", "circuit.compute_depth_s", "circuit.build_s",
                     "netlist.emit_s", "netlist.parse_s", "simulate.verify_s",
                     "simulate.run_batch_s", "circuit.gates", "netlist.bytes"):
            assert metrics[f"{name}.{v}"][0] > 0, (name, v)


def test_setup_is_timed_in_fresh_interpreters():
    times = run.timed_setups("compile-large", 1, 2)
    assert len(times) == 2 and all(0 < t < 30 for t in times)


def _speed_with_probes(probes):
    """A HostSpeed holding synthetic probes: (start, end, timed seconds) each."""
    speed = hostspeed.HostSpeed()
    for start, end, timed in probes:
        speed.starts.append(start)
        speed.ends.append(end)
        speed.durations.append(timed)
    return speed


def test_reference_seconds_takes_out_probes_and_scales_by_host_speed():
    ref = hostspeed.REFERENCE_S
    # The host runs at half speed around [10, 11]; one probe call of 0.01 s
    # ran inside the interval.
    speed = _speed_with_probes([(9.99, 10.0, 2 * ref), (10.5, 10.51, 2 * ref),
                                (11.01, 11.02, 2 * ref), (20.0, 20.01, ref)])
    assert speed.reference_seconds(10.0, 11.0) == pytest.approx(0.99 / 2)
    # No probe within PROBE_EVERY_S: the nearest probe on each side counts.
    assert speed.reference_seconds(15.0, 15.5) == pytest.approx(0.5 * (0.5 + 1.0) / 2)
    assert hostspeed.HostSpeed().reference_seconds(1.0, 3.0) == 2.0


def test_host_speed_probes_inside_a_timed_interval():
    with hostspeed.HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    inside = [s for s in speed.starts if t0 <= s < t1]
    assert len(inside) >= 2
    assert 0 < speed.reference_seconds(t0, t1) < 10 * (t1 - t0)


def test_workloads_are_seeded():
    span = NullTracer().span
    for draw in workloads.WORKLOADS.values():
        assert draw(3, span) == draw(3, span)
    assert workloads.sweep_mid(3, span) != workloads.sweep_mid(4, span)
    assert [c.key for c in workloads.compile_large(3, span)] == \
        [c.key for c in workloads.compile_large(4, span)]


def test_sweep_mid_covers_its_mix():
    cases = workloads.sweep_mid(11, NullTracer().span)
    assert all(9 <= c.n <= 60 for c in cases[:-1]) and cases[-1].n == 128
    assert {c.n % 2 for c in cases} == {0, 1}
    assert {c.variant for c in cases} == set(workloads.VARIANTS)
    assert {(c.variant, c.form) for c in cases if c.form == "toffoli_form"} == {
        ("compact", "toffoli_form"), ("baseline", "toffoli_form")}
    log_depth = {(c.family, c.ladder) for c in cases if c.variant == "log_depth"}
    assert log_depth == {(f, lad) for f in ("trinomial", "equally_spaced")
                         for lad in ("prefix_ancilla", "sequential")}
    for c in cases:
        same = [d for d in cases if (d.variant, d.family, d.form, d.ladder) ==
                (c.variant, c.family, c.form, c.ladder)]
        assert {d.n % 2 for d in same} == {0, 1} or c.family == "equally_spaced"


def test_verify_exhaustive_covers_the_small_catalog():
    cases = workloads.verify_exhaustive(1, NullTracer().span)
    assert all(c.exhaustive and c.n <= 7 for c in cases)
    assert {c.variant for c in cases} == set(workloads.VARIANTS)
    assert len(cases) == 51
