"""Command-line interface.

Subcommands: synth (write a netlist plus a resource report), verify (check
a netlist against the classical oracle), bench (CSV resource table with
optional scaling fits), catalog (list known moduli).

Exit codes: 0 ok, 1 verification failure, 2 invalid modulus or request,
3 unsupported family or form, 4 parse or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .bench import fit_lines, rows_to_csv, run_bench
from .catalog import FAMILIES, catalog_entries, catalog_lookup
from .circuit import compute_depth
from .errors import (
    CatalogError,
    FormError,
    InputError,
    NetlistParseError,
    SimulationError,
    UnsupportedFamilyError,
)
from .gf2 import BinaryPolynomial
from .netlist import _emit_chunks, parse_netlist
from .simulate import DEFAULT_SEED, SEED_ENV_VAR, verify_multiplier
from .synth import SynthesisOptions, synth

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_MODULUS = 2
EXIT_UNSUPPORTED = 3
EXIT_PARSE_IO = 4

_VARIANTS = {
    "compact": "compact",
    "linear-depth": "linear_depth",
    "log-depth": "log_depth",
    "baseline": "baseline",
}
_LADDERS = {"sequential": "sequential", "prefix": "prefix_ancilla"}
_FAMILIES = {"generic": "generic", "trinomial": "trinomial", "equally-spaced": "equally_spaced"}


def _parse_poly(text: str) -> BinaryPolynomial:
    p = BinaryPolynomial.parse(text)
    if p.degree < 1:
        raise InputError(f"modulus {text!r} has no degree")
    return p


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise InputError(f"bad --sizes {text!r}: want a list (4,8,16) or a range (2..64)") from None


def _parse_variants(text: str) -> list[str]:
    try:
        return [_VARIANTS[v] for v in text.split(",") if v]
    except KeyError as exc:
        choices = ", ".join(sorted(_VARIANTS))
        raise InputError(f"unknown variant {exc} (choose from {choices})") from None


def _report_lines(report) -> list[str]:
    lines = [f"qubits {report.qubit_count} (ancillas {report.ancilla_count})"]
    for kind in ("CCZ", "TOF", "CNOT", "H", "X"):
        if report.counts.get(kind):
            lines.append(f"{kind.lower()} {report.counts[kind]}")
    lines.append(f"total_gates {report.total_gates}")
    lines.append(f"depth {report.depth}")
    lines.append(f"toffoli_depth {report.toffoli_depth}")
    lines.append(f"spacetime {report.spacetime}")
    return lines


def cmd_synth(args) -> int:
    p = _parse_poly(args.poly)
    options = SynthesisOptions(
        variant=_VARIANTS[args.variant],
        modulus=p,
        output_form="ccz_form" if args.form == "ccz" else "toffoli_form",
        ladder_style=_LADDERS[args.ladder],
    )
    circuit = synth(options)
    try:
        # Chunk by chunk, so the whole netlist text never exists in memory.
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(_emit_chunks(circuit))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_PARSE_IO
    print(f"wrote {args.out}")
    for line in _report_lines(compute_depth(circuit)):
        print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    p = _parse_poly(args.poly)
    try:
        with open(args.circuit, "r", encoding="utf-8") as fh:
            circuit = parse_netlist(fh)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.circuit}: {exc}", file=sys.stderr)
        return EXIT_PARSE_IO
    report = verify_multiplier(
        circuit,
        p,
        exhaustive=args.exhaustive,
        trials=args.trials,
        seed=args.seed,
    )
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    variants = _parse_variants(args.variant)
    rows, notes = run_bench(
        sizes, variants, family=_FAMILIES[args.family], ladder_style=_LADDERS[args.ladder]
    )
    text = rows_to_csv(rows)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
            return EXIT_PARSE_IO
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(text)
    for note in notes:
        print(note, file=sys.stderr)
    if args.fit:
        for line in fit_lines(rows):
            print(line)
    return EXIT_OK


def cmd_catalog(args) -> int:
    family = _FAMILIES[args.family] if args.family else None
    if args.n is not None:
        entries = catalog_entries(args.n, family)
    else:
        entries = catalog_entries(None, family) if family else [
            catalog_lookup(n) for n in range(2, 65)
        ]
    for e in entries:
        print(e.describe())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gf2kq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a multiplier netlist")
    ps.add_argument("--poly", required=True, help='modulus, e.g. "4,1,0" or "x^4+x+1"')
    ps.add_argument("--variant", required=True, choices=sorted(_VARIANTS))
    ps.add_argument("--form", default="ccz", choices=["ccz", "toffoli"])
    ps.add_argument("--ladder", default="prefix", choices=sorted(_LADDERS))
    ps.add_argument("--out", required=True, help="netlist output path")
    ps.set_defaults(func=cmd_synth)

    pv = sub.add_parser("verify", help="verify a netlist against the oracle")
    pv.add_argument("--circuit", required=True)
    pv.add_argument("--poly", required=True)
    pv.add_argument("--exhaustive", action="store_true")
    pv.add_argument("--trials", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=None,
                    help=f"PRNG seed (default from {SEED_ENV_VAR}, else {DEFAULT_SEED})")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="resource table as CSV")
    pb.add_argument("--sizes", required=True, help='"4,8,16" or "2..64"')
    pb.add_argument("--variant", required=True, help="comma-separated variant list")
    pb.add_argument("--family", default="generic", choices=sorted(_FAMILIES))
    pb.add_argument("--ladder", default="prefix", choices=sorted(_LADDERS))
    pb.add_argument("--fit", action="store_true", help="print log-log slopes")
    pb.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    pb.set_defaults(func=cmd_bench)

    pc = sub.add_parser("catalog", help="list catalog moduli")
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--family", default=None, choices=sorted(_FAMILIES))
    pc.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetlistParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_IO
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except (UnsupportedFamilyError, FormError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODULUS


if __name__ == "__main__":
    sys.exit(main())
