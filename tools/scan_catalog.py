#!/usr/bin/env python3
"""Compare the circuits two checkouts build across the catalog.

For every distinct catalog modulus of each scanned degree, each checkout
synthesizes the ccz-form circuit of every variant that applies (log-depth
only on trinomial and equally spaced moduli, where it and the baseline
take each ladder style) and records the sha256 of its netlist and its
CCZ, CNOT, depth, toffoli depth and qubit counts. It also builds the
toffoli form of baseline and compact, reported as the rows
`baseline/toffoli` and `compact/toffoli`, where the ccz column counts
Toffolis. Each checkout runs in its own process with its own `src` on the
path. Per variant the tool then prints how many netlists are byte
identical, how many hold the same lines in some order (`same gates`: the
change moved only gate order), the geometric mean of the change/parent
ratio of each metric, how many cases rise in some metric and the worst
rise. Run from anywhere:

    python3 tools/scan_catalog.py PARENT_DIR CHANGE_DIR --verify-trials 1000

`--sizes` takes degrees as a comma list with a..b ranges (by default every
n <= 128 and 163, 233, 255, 256, 257, 511, 512). With `--verify-trials T`
the second checkout also verifies every circuit whose netlist differs from
the first's: exhaustively up to n = 8, with T random inputs above.

The exit status is 1 when a verification fails, otherwise 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

METRICS = ("ccz", "cnot", "depth", "toffoli_depth", "qubits")
VARIANTS = ("compact", "linear_depth", "log_depth", "baseline")
TOFFOLI_VARIANTS = ("compact", "baseline")  # the variants with a toffoli form
DEFAULT_SIZES = "2..128,163,233,255,256,257,511,512"
EXHAUSTIVE_UP_TO = 8


def parse_sizes(text: str) -> list[int]:
    """Degrees from a comma list of n and a..b ranges, in order, without repeats."""
    sizes: list[int] = []
    for item in text.split(","):
        lo, _, hi = item.partition("..")
        sizes += range(int(lo), int(hi or lo) + 1)
    return list(dict.fromkeys(sizes))


def scan(sizes: list[int], verify_against: dict[str, str], trials: int) -> list[dict]:
    """One record per (variant, form, ladder style, modulus) built by the `gf2kq` on the path.

    Runs in the child process, so `gf2kq` is imported here and in `_case`,
    from the checkout that `run_checkout` put on the path. Cases whose digest differs from `verify_against` (when that holds the
    key) are verified, with `trials` random inputs above n = 8.
    """
    from gf2kq.catalog import catalog_entries
    from gf2kq.synth import LADDER_STYLES, equally_spaced_split, trinomial_split

    records = []
    for n in sizes:
        for p in dict.fromkeys(e.polynomial for e in catalog_entries(n)):
            structured = trinomial_split(p) is not None or equally_spaced_split(p) is not None
            for variant in VARIANTS:
                if variant == "log_depth" and not structured:
                    continue
                laddered = structured and variant in ("baseline", "log_depth")
                forms = ("ccz_form", "toffoli_form") if variant in TOFFOLI_VARIANTS else ("ccz_form",)
                for form in forms:
                    for style in LADDER_STYLES if laddered else ("prefix_ancilla",):
                        records.append(_case(variant, form, style, p, verify_against, trials))
    return records


def _case(variant: str, form: str, style: str, p, verify_against: dict[str, str],
          trials: int) -> dict:
    """`scan`'s record of one circuit."""
    from gf2kq.circuit import compute_depth
    from gf2kq.netlist import emit_netlist
    from gf2kq.simulate import verify_multiplier
    from gf2kq.synth import SynthesisOptions, synth

    n = p.degree
    circ = synth(SynthesisOptions(variant, p, form, style))
    rep = compute_depth(circ)
    label = variant if form == "ccz_form" else f"{variant}/toffoli"
    text = emit_netlist(circ)
    rec = {
        "key": f"{label} {style} {p}", "variant": label,
        "sha": hashlib.sha256(text.encode()).hexdigest(),
        "gates": hashlib.sha256("\n".join(sorted(text.splitlines())).encode()).hexdigest(),
        "ccz": rep.counts["CCZ"] + rep.counts["TOF"], "cnot": rep.counts["CNOT"],
        "depth": rep.depth,
        "toffoli_depth": rep.toffoli_depth, "qubits": rep.qubit_count,
    }
    if trials and verify_against.get(rec["key"], rec["sha"]) != rec["sha"]:
        exhaustive = n <= EXHAUSTIVE_UP_TO
        rec["passed"] = verify_multiplier(circ, p, exhaustive=exhaustive, trials=trials,
                                          seed=n).passed
        rec["verified"] = "exhaustive" if exhaustive else f"{trials} samples"
    return rec


def run_checkout(checkout: Path, sizes: str, against: dict[str, str], trials: int) -> list[dict]:
    """`scan` in a child process that imports `checkout`'s `src`."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", sizes, str(trials)],
        input=json.dumps(against), env=env, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{checkout}: scan exited {out.returncode}\n{out.stderr[-2000:]}")
    return json.loads(out.stdout)


def compare(first: list[dict], second: list[dict]) -> list[dict]:
    """Per variant: cases, identical netlists, netlists with the same lines in some
    order, geomean ratios, rises and the worst rise."""
    by_key = {r["key"]: r for r in first}
    rows = []
    for variant in (row for v in VARIANTS for row in (v, f"{v}/toffoli")):
        pairs = [(by_key[r["key"]], r) for r in second
                 if r["variant"] == variant and r["key"] in by_key]
        if not pairs:
            continue
        logs = dict.fromkeys(METRICS, 0.0)
        rises, worst = 0, None
        for a, b in pairs:
            rose = False
            for m in METRICS:
                logs[m] += math.log(b[m] / a[m])
                if b[m] > a[m]:
                    rose = True
                    rel = b[m] / a[m] - 1
                    if worst is None or rel > worst[0]:
                        worst = (rel, m, b["key"], a[m], b[m])
            rises += rose
        rows.append({
            "variant": variant, "cases": len(pairs),
            "identical": sum(a["sha"] == b["sha"] for a, b in pairs),
            "same_gates": sum(a["gates"] == b["gates"] for a, b in pairs),
            "geomean": {m: math.exp(logs[m] / len(pairs)) for m in METRICS},
            "rises": rises, "worst": worst,
        })
    return rows


def print_report(rows: list[dict], second: list[dict]) -> int:
    """Print the comparison and the verification tally; return the exit status."""
    print(f"{'variant':<16} {'cases':>5} {'identical':>9} {'same gates':>10} "
          + " ".join(f"{m:>13}" for m in METRICS) + f" {'rises':>5}")
    for row in rows:
        print(f"{row['variant']:<16} {row['cases']:>5} {row['identical']:>9} "
              f"{row['same_gates']:>10} "
              + " ".join(f"{row['geomean'][m]:>13.4f}" for m in METRICS) + f" {row['rises']:>5}")
        if row["worst"]:
            rel, m, key, a, b = row["worst"]
            print(f"  worst rise: {m} of {key}: {a} -> {b} (+{rel:.2%})")
    checked = [r for r in second if "passed" in r]
    failed = [r["key"] for r in checked if not r["passed"]]
    modes = sorted({r["verified"] for r in checked})
    print(f"verified {len(checked)} changed circuits ({', '.join(modes) or 'none'}): "
          f"{len(checked) - len(failed)} passed, {len(failed)} failed")
    for key in failed:
        print(f"  FAILED: {key}")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        records = scan(parse_sizes(argv[1]), json.load(sys.stdin), int(argv[2]))
        json.dump(records, sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path, help="checkout of the parent")
    parser.add_argument("second", type=Path, help="checkout of the change")
    parser.add_argument("--sizes", type=parse_sizes, default=DEFAULT_SIZES,
                        help=f"degrees (default {DEFAULT_SIZES})")
    parser.add_argument("--verify-trials", type=int, default=0, metavar="T",
                        help="verify the second side's changed circuits, T samples above n = 8")
    args = parser.parse_args(argv)
    sizes = ",".join(map(str, args.sizes))
    first = run_checkout(args.first, sizes, {}, 0)
    against = {r["key"]: r["sha"] for r in first}
    second = run_checkout(args.second, sizes, against, args.verify_trials)
    return print_report(compare(first, second), second)


if __name__ == "__main__":
    sys.exit(main())
