"""gf2kq benchmark: compile and verify multiplier circuits, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compile-large --seed 1 --seconds 40 --trace 0

One process, one thread, one case at a time. The case list is repeated for
`--seconds` seconds, at least once. An untraced run's last pass may stop
part-way; in a traced run another pass starts only if it is expected to
end in time. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
the end-to-end metrics; `--trace 1` runs each case untraced, then traced,
and reports the per-layer metrics, including the tracing overhead. Spans of
a traced run are written to `.perfbench_out/` when it ends.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# setup_s is the median of set-ups, each timed in a fresh interpreter by
# setup_probe.py and scaled to reference seconds: 3 before the first pass,
# then one between cases whenever SETUP_PROBE_EVERY_S has passed since the
# last. The host's speed changes within seconds, so set-ups spread evenly
# over the run agree from run to run better than set-ups timed at a few
# moments of it.
SETUP_PROBES = 3
SETUP_PROBE_EVERY_S = 1.5
# A traced run draws the workload this many times; catalog.lookup_s is the
# mean draw's lookup time.
LOOKUP_DRAWS = 5
# Untraced runs repeat a pipeline shorter than this; see pipeline.run_case.
MIN_SAMPLE_S = 0.05


def timed_setups(workload: str, seed: int, count: int) -> list[float]:
    """Reference seconds of `count` set-ups, each in its own fresh interpreter."""
    times = []
    for _ in range(count):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return times


def run_timed(seconds: float, one_iteration) -> list:
    """Repeat one_iteration until the next one would end after `seconds`."""
    start = time.perf_counter()
    out = []
    while True:
        t0 = time.perf_counter()
        out.append(one_iteration())
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return out


def run_cases_timed(seconds: float, cases, run_one) -> list[list]:
    """Run the cases in order, pass after pass, until the next case would end
    after `seconds`.

    The first pass always runs whole; the last may stop part-way, so a run
    uses its time even when a pass takes more than half of it. A case's
    expected time is its time in the previous pass.
    """
    start = time.perf_counter()
    passes: list[list] = []
    last_s = [0.0] * len(cases)
    while True:
        results = []
        for i, case in enumerate(cases):
            if passes and time.perf_counter() - start + last_s[i] > seconds:
                return passes + [results] if results else passes
            t0 = time.perf_counter()
            results.append(run_one(case))
            last_s[i] = time.perf_counter() - t0
        passes.append(results)


def geomean(values) -> float:
    """Geometric mean; 0 when no case produced a circuit."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_digest(results) -> str:
    """sha256 over every case's key and netlist digest, in case order."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.case.key} {r.netlist_sha256}\n".encode())
    return h.hexdigest()


def check_passes(passes) -> tuple[int, int, list[str]]:
    """attempted, failed, and the problems found across passes.

    A later pass, which may be partial, is checked against as many cases
    of the first.
    """
    problems = []
    attempted = failed = 0
    for k, results in enumerate(passes):
        for r in results:
            attempted += 1
            if r.failed:
                failed += 1
                problems.append(f"pass {k} case {r.case.key}: {'; '.join(r.failures)}")
    first = passes[0]
    for k, results in enumerate(passes[1:], start=1):
        head = first[:len(results)]
        if pass_digest(results) != pass_digest(head):
            problems.append(f"pass {k} emitted different netlists than pass 0")
        if [r.cost for r in results] != [r.cost for r in head]:
            problems.append(f"pass {k} reported different circuit costs than pass 0")
    return attempted, failed, problems


def end_to_end_metrics(setup_times, passes, speed) -> dict:
    # Each case contributes the median over passes of its pipeline times in
    # reference seconds (hostspeed.py). The per-case fastest pass of raw
    # seconds, used before, spread 0.2-0.45 from run to run: a slow spell of
    # the host can last a whole run.
    first = passes[0]

    def total(timed):
        # timed(result) is (start, seconds) of one of the result's pipelines.
        return sum(statistics.median(speed.reference_seconds(t0, t0 + seconds)
                                     for t0, seconds in (timed(p[i]) for p in passes
                                                         if i < len(p)))
                   for i in range(len(first)))

    compile_s = total(lambda r: (r.compile_at, r.compile_s))
    verify_s = total(lambda r: (r.verify_at, r.verify_s))
    costs = [r.cost for r in first if r.cost]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "compile_s": (compile_s, "s"),
        "verify_s": (verify_s, "s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for key, unit in (("ccz", "count"), ("cnot", "count"), ("depth", "layers"),
                      ("toffoli_depth", "layers"), ("qubits", "count")):
        metrics[f"{key}.geomean"] = (geomean(c[key] for c in costs), unit)
    return metrics


def per_layer_metrics(tracer, results, setup_tracer) -> dict:
    """Per-layer numbers from one traced pass."""
    from workloads import VARIANTS

    by_name: dict[str, float] = {}
    for name, t0, t1, case in tracer.spans:
        variant = results[case].case.variant
        for key in (name, f"{name}.{variant}"):
            by_name[key] = by_name.get(key, 0.0) + (t1 - t0)
    lookups = sum(t1 - t0 for name, t0, t1, _ in setup_tracer.spans if name == "catalog.lookup")

    m = {
        "catalog.lookup_s": (lookups / LOOKUP_DRAWS, "s"),
        "gf2.is_irreducible_s": (by_name.get("gf2.is_irreducible", 0.0), "s"),
        "gf2.reduction_matrix_s": (by_name.get("gf2.reduction_matrix", 0.0), "s"),
        "synth.recursion_s": (by_name.get("synth.recursion", 0.0), "s"),
    }
    spans_by_variant = (
        ("synth.synth_s", "synth.synth"),
        ("circuit.compute_depth_s", "circuit.compute_depth"),
        ("circuit.build_s", "circuit.build"),
        ("netlist.emit_s", "netlist.emit"),
        ("netlist.parse_s", "netlist.parse"),
        ("simulate.verify_s", "simulate.verify"),
        ("simulate.run_batch_s", "simulate.run_batch"),
    )
    for v in VARIANTS:
        mine = [r for r in results if r.case.variant == v and r.cost]
        for metric, span in spans_by_variant:
            m[f"{metric}.{v}"] = (by_name.get(f"{span}.{v}", 0.0), "s")
        ccz = sum(r.cost["ccz"] for r in mine)
        m[f"circuit.gates.{v}"] = (sum(r.cost["gates"] for r in mine), "count")
        m[f"circuit.cnot_per_ccz.{v}"] = (sum(r.cost["cnot"] for r in mine) / ccz if ccz else 0.0,
                                          "ratio")
        m[f"netlist.bytes.{v}"] = (sum(r.netlist_bytes for r in mine), "bytes")

    run_batch_s = by_name.get("simulate.run_batch", 0.0)
    verify_s = by_name.get("simulate.verify", 0.0)
    gate_inputs = sum(r.cost["gates"] * r.inputs for r in results if r.cost)
    m["simulate.run_batch_share"] = (run_batch_s / verify_s if verify_s else 0.0, "ratio")
    m["simulate.inputs"] = (sum(r.inputs for r in results), "count")
    m["simulate.gate_inputs_per_s"] = (gate_inputs / run_batch_s if run_batch_s else 0.0, "1/s")
    return m


def pipeline_seconds(results) -> float:
    return sum(r.compile_s + r.verify_s for r in results)


def write_spans(workload: str, seed: int, traced) -> Path:
    """Write every span of the traced passes, one JSON object per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for k, (tracer, results) in enumerate(traced):
            for name, t0, t1, case in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "pass": k,
                                     "case": results[case].case.key}) + "\n")
    return path


def host_line() -> str:
    return (f"host python={platform.python_version()} impl={platform.python_implementation()} "
            f"nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
            f"machine={platform.machine()} system={platform.system()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gf2kq" / "__init__.py").is_file():
        print(f"error: no gf2kq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import hostspeed
    import pipeline
    from tracing import NullTracer, Tracer

    setup_tracer = Tracer() if args.trace else NullTracer()
    for _ in range(LOOKUP_DRAWS if args.trace else 1):
        cases = workloads.WORKLOADS[args.workload](args.seed, setup_tracer.span)
    oracle = pipeline.Oracle()
    print(host_line())
    print(f"workload {args.workload} seed={args.seed} cases={len(cases)}")

    if not args.trace:
        setup_times = timed_setups(args.workload, args.seed, SETUP_PROBES)
        last_probe = time.perf_counter()

        def case_then_setup(case):
            nonlocal last_probe
            [result] = pipeline.run_pass([case], oracle, NullTracer(), MIN_SAMPLE_S)
            if time.perf_counter() - last_probe >= SETUP_PROBE_EVERY_S:
                setup_times.extend(timed_setups(args.workload, args.seed, 1))
                last_probe = time.perf_counter()
            return result

        with hostspeed.HostSpeed() as speed:
            passes = run_cases_timed(args.seconds, cases, case_then_setup)
    else:
        def untraced_and_traced():
            # Each case runs untraced, then traced, back to back: the host's
            # speed changes within seconds, and a change then hits both sides
            # of the overhead ratio alike.
            plain, tracer, traced_pass = [], Tracer(), []
            for i, case in enumerate(cases):
                gc.collect()
                plain.append(pipeline.run_case(case, oracle, NullTracer()))
                gc.collect()
                tracer.case = i
                traced_pass.append(pipeline.run_case(case, oracle, tracer))
            return plain, tracer, traced_pass

        iterations = run_timed(args.seconds, untraced_and_traced)
        passes = [it[0] for it in iterations] + [it[2] for it in iterations]
        traced = [(it[1], it[2]) for it in iterations]

    attempted, failed, problems = check_passes(passes)
    for line in problems:
        print("FAIL", line)
    digest = pass_digest(passes[0])
    print(f"netlist_digest workload={args.workload} seed={args.seed} sha256={digest}")
    print(f"failed_cases {failed} of {attempted} attempted over {len(passes)} passes")

    if not args.trace:
        metrics = end_to_end_metrics(setup_times, passes, speed)
        slowdowns = [d / hostspeed.REFERENCE_S for d in speed.durations]
        print(f"host slowdown over {len(slowdowns)} probes: median "
              f"{statistics.median(slowdowns):.3f}, max {max(slowdowns):.3f}")
    else:
        per_pass = [per_layer_metrics(tracer, results, setup_tracer)
                    for tracer, results in traced]
        metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
                   for name, (_, unit) in per_pass[0].items()}
        ratios = [pipeline_seconds(traced_pass) / pipeline_seconds(plain)
                  for plain, _, traced_pass in iterations if pipeline_seconds(plain)]
        metrics["trace.overhead_ratio"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
        print(f"spans written to {write_spans(args.workload, args.seed, traced)}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
