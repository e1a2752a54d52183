"""Benchmark harness and CLI surface tests."""

import csv
import io

from gf2kq.bench import CSV_FIELDS, bench_row, fit_loglog, rows_to_csv, run_bench
from gf2kq.catalog import catalog_lookup
from gf2kq.cli import main
from gf2kq.netlist import _EMIT_CHUNK, emit_netlist
from gf2kq.synth import SynthesisOptions, synth


def test_fit_loglog_exact_powers():
    pts = [(n, n**2) for n in (4, 8, 16, 32)]
    assert abs(fit_loglog(pts) - 2.0) < 1e-9
    pts = [(n, 7 * n**1.5) for n in (4, 8, 16)]
    assert abs(fit_loglog(pts) - 1.5) < 1e-9


def test_bench_rows_shape_and_invariants():
    rows, notes = run_bench([4, 8], ["compact", "baseline"])
    assert not notes
    assert [(r.n, r.variant) for r in rows] == [
        (4, "baseline"),
        (4, "compact"),
        (8, "baseline"),
        (8, "compact"),
    ]
    for r in rows:
        assert r.spacetime == r.qubits * r.depth
        assert r.total_gates == r.ccz + r.toffoli + r.cnot + r.h
    text = rows_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_FIELDS)
    assert parsed[1][1] == "4,1,0"  # polynomial field quoted/parsed intact


def test_bench_csv_deterministic_modulo_walltime():
    r1 = rows_to_csv(run_bench([4, 8], ["compact"])[0])
    r2 = rows_to_csv(run_bench([4, 8], ["compact"])[0])
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
    assert strip(r1) == strip(r2)


def test_bench_skips_unsupported_family_rows():
    rows, notes = run_bench([7], ["log_depth"])  # generic degree-7 modulus
    assert not rows and len(notes) == 1


def test_bench_compact_slope_window():
    rows, _ = run_bench([4, 8, 16, 32, 64], ["compact"])
    slope = fit_loglog([(r.n, r.ccz) for r in rows])
    assert 1.50 <= slope <= 1.66


def test_cli_synth_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "m4.qc"
    assert main(["synth", "--poly", "4,1,0", "--variant", "linear-depth", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ccz 9" in text
    assert out.exists()
    assert main(["verify", "--circuit", str(out), "--poly", "4,1,0", "--exhaustive"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "x.qc"
    # reducible modulus -> 2
    assert main(["synth", "--poly", "4,2,0", "--variant", "compact", "--out", str(out)]) == 2
    # log-depth on a generic modulus -> 3
    assert main(["synth", "--poly", "7,5,3,1,0", "--variant", "log-depth", "--out", str(out)]) == 3
    # toffoli form for a scheduled variant -> 3
    assert (
        main(["synth", "--poly", "4,1,0", "--variant", "linear-depth", "--form", "toffoli", "--out", str(out)])
        == 3
    )
    # bad polynomial syntax -> 2
    assert main(["synth", "--poly", "y^2", "--variant", "compact", "--out", str(out)]) == 2
    capsys.readouterr()


def test_cli_synth_writes_the_emit_netlist_text(tmp_path, capsys):
    p = catalog_lookup(128).polynomial
    out = tmp_path / "m128.qc"
    assert main(["synth", "--poly", str(p), "--variant", "compact", "--out", str(out)]) == 0
    want = emit_netlist(synth(SynthesisOptions("compact", p)))
    assert want.count("\n") > 2 * _EMIT_CHUNK  # the file is written in several chunks
    assert out.read_bytes() == want.encode()
    capsys.readouterr()


def test_cli_synth_unwritable_out_exits_4(tmp_path, capsys):
    for out in (tmp_path / "no-such-dir" / "m4.qc", tmp_path):
        assert main(["synth", "--poly", "4,1,0", "--variant", "compact", "--out", str(out)]) == 4
        assert "cannot write" in capsys.readouterr().err


def test_cli_trinomial_log_depth_succeeds(tmp_path, capsys):
    out = tmp_path / "t9.qc"
    assert main(["synth", "--poly", "9,4,0", "--variant", "log-depth", "--out", str(out)]) == 0
    assert main(["verify", "--circuit", str(out), "--poly", "9,4,0", "--trials", "200"]) == 0
    capsys.readouterr()


def test_cli_verify_failure_paths(tmp_path, capsys):
    out = tmp_path / "m4.qc"
    main(["synth", "--poly", "4,1,0", "--variant", "compact", "--out", str(out)])
    # corrupt: drop the last CCZ line
    lines = out.read_text().splitlines()
    idx = max(i for i, l in enumerate(lines) if l.startswith("CCZ"))
    del lines[idx]
    bad = tmp_path / "bad.qc"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--circuit", str(bad), "--poly", "4,1,0", "--exhaustive"]) == 1
    assert "counterexample" in capsys.readouterr().out
    # mismatched modulus -> 1
    assert main(["verify", "--circuit", str(out), "--poly", "4,3,0", "--exhaustive"]) == 1
    # unparseable netlist -> 4
    mangled = tmp_path / "mangled.qc"
    mangled.write_text(out.read_text().replace("CCZ", "CZZ", 1))
    assert main(["verify", "--circuit", str(mangled), "--poly", "4,1,0"]) == 4
    # missing file -> 4
    assert main(["verify", "--circuit", str(tmp_path / "nope.qc"), "--poly", "4,1,0"]) == 4
    capsys.readouterr()
    # a request that checks nothing -> 2, never a PASS
    assert main(["verify", "--circuit", str(bad), "--poly", "4,1,0", "--trials", "0"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_cli_bench_and_fit(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    assert (
        main(
            [
                "bench",
                "--sizes",
                "4,8,16",
                "--variant",
                "compact,baseline",
                "--fit",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "FIT variant=baseline" in out and "FIT variant=compact" in out
    rows = list(csv.reader(io.StringIO(csv_path.read_text())))
    assert rows[0] == list(CSV_FIELDS)
    assert len(rows) == 1 + 6


def test_cli_bench_range_syntax(capsys):
    assert main(["bench", "--sizes", "2..4", "--variant", "compact"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 4  # header + three rows


def test_cli_catalog(capsys):
    assert main(["catalog", "--n", "7"]) == 0
    out = capsys.readouterr().out
    assert "7,5,3,1,0" in out and "pinned" in out
    assert main(["catalog", "--n", "9", "--family", "trinomial"]) == 0
    assert "9,4,0" in capsys.readouterr().out


def test_cli_env_seed(tmp_path, capsys, monkeypatch):
    out = tmp_path / "m5.qc"
    main(["synth", "--poly", "5,2,0", "--variant", "compact", "--out", str(out)])
    monkeypatch.setenv("GF2KQ_SEED", "12345")
    assert main(["verify", "--circuit", str(out), "--poly", "5,2,0", "--trials", "64"]) == 0
    assert "seed=12345" in capsys.readouterr().out


def test_cli_malformed_seed_env(tmp_path, capsys, monkeypatch):
    out = tmp_path / "m4.qc"
    main(["synth", "--poly", "4,1,0", "--variant", "compact", "--out", str(out)])
    monkeypatch.setenv("GF2KQ_SEED", "xyz")
    # commands that draw no seed are unaffected
    assert main(["catalog", "--n", "4"]) == 0
    capsys.readouterr()
    assert main(["verify", "--circuit", str(out), "--poly", "4,1,0", "--trials", "8"]) == 2
    assert "GF2KQ_SEED" in capsys.readouterr().err
    # an explicit seed needs no variable
    assert main(["verify", "--circuit", str(out), "--poly", "4,1,0", "--seed", "7"]) == 0


def test_cli_bench_rejects_bad_sizes_and_variant(capsys):
    assert main(["bench", "--sizes", "4,x", "--variant", "compact"]) == 2
    assert "--sizes" in capsys.readouterr().err
    assert main(["bench", "--sizes", "2..x", "--variant", "compact"]) == 2
    capsys.readouterr()
    assert main(["bench", "--sizes", "4", "--variant", "compact,fast"]) == 2
    captured = capsys.readouterr()
    assert "fast" in captured.err and not captured.out


def test_cli_verify_refused_core_and_undecodable_file(tmp_path, capsys):
    # a CCZ between two sandwiched wires: the simulator refuses the core -> 1
    refused = tmp_path / "refused.qc"
    refused.write_text(
        "QUBITS 6\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:6\nPHASEWIRES 4,5\n"
        "H 4\nH 5\nCCZ 0 4 5\nH 4\nH 5\n"
    )
    assert main(["verify", "--circuit", str(refused), "--poly", "2,1,0"]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("error: ")
    # a netlist that is not UTF-8 -> 4, like a missing file
    undecodable = tmp_path / "undecodable.qc"
    undecodable.write_bytes(b"QUBITS 6\n\xff\xfe\n")
    assert main(["verify", "--circuit", str(undecodable), "--poly", "2,1,0"]) == 4
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_cli_verify_header_count_that_int_refuses_exits_4(tmp_path, capsys):
    # "²".isdigit() is true but int("²") raises: a parse error, not a traceback
    netlist = tmp_path / "squared.qc"
    netlist.write_text("QUBITS ²\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:6\nPHASEWIRES 4,5\n",
                       encoding="utf-8")
    assert main(["verify", "--circuit", str(netlist), "--poly", "2,1,0"]) == 4
    assert capsys.readouterr().err == "error: line 1: expected 'QUBITS <total>', got 'QUBITS ²'\n"


def test_cli_verify_wire_count_above_32_bits_exits_4(tmp_path, capsys):
    # the gate's wire number passes the range check but not a 32-bit slot
    netlist = tmp_path / "wide.qc"
    netlist.write_text("QUBITS 3000000000\nREGISTERS a=0:2 b=2:4 c=4:6 anc=6:3000000000\n"
                       "PHASEWIRES\nX 2999999999\n", encoding="utf-8")
    assert main(["verify", "--circuit", str(netlist), "--poly", "2,1,0"]) == 4
    assert capsys.readouterr().err == (
        "error: line 1: QUBITS 3000000000 is above the 2^31 - 1 wire limit\n")
