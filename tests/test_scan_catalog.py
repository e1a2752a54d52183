"""tools/scan_catalog.py: a checkout against itself, and its comparison arithmetic."""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("scan_catalog", _ROOT / "tools" / "scan_catalog.py")
scan_catalog = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan_catalog)


def test_parse_sizes_takes_lists_and_ranges():
    assert scan_catalog.parse_sizes("2..4,7,3,9..9") == [2, 3, 4, 7, 9]


def test_checkout_against_itself_is_identical_with_no_rise(capsys):
    assert scan_catalog.main([str(_ROOT), str(_ROOT), "--sizes", "2..8", "--verify-trials", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:] if not line.startswith(" ")}
    # 13 distinct catalog moduli for n <= 8; the 7 trinomial or equally spaced
    # ones take both ladder styles in log-depth and baseline.
    cases = {"compact": "13", "linear_depth": "13", "log_depth": "14", "baseline": "20"}
    for variant, count in cases.items():
        got_cases, identical, *ratios, rises = rows[variant]
        assert got_cases == identical == count, variant
        assert ratios == ["1.0000"] * 5 and rises == "0", variant
    assert "worst rise" not in "\n".join(lines)
    assert lines[-1] == "verified 0 changed circuits (none): 0 passed, 0 failed"


def test_both_forms_against_itself_are_identical_with_no_rise(capsys):
    assert scan_catalog.main([str(_ROOT), str(_ROOT), "--sizes", "2..8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:] if not line.startswith(" ")}
    # The toffoli rows repeat compact's 13 moduli and baseline's 20 cases.
    cases = {"compact": "13", "compact/toffoli": "13", "linear_depth": "13",
             "log_depth": "14", "baseline": "20", "baseline/toffoli": "20"}
    assert [line.split()[0] for line in lines[1:-1]] == list(cases)
    for variant, count in cases.items():
        got_cases, identical, *ratios, rises = rows[variant]
        assert got_cases == identical == count, variant
        assert ratios == ["1.0000"] * 5 and rises == "0", variant


def _rec(key, sha, **metrics):
    return {"key": key, "variant": key.split()[0], "sha": sha,
            **dict.fromkeys(scan_catalog.METRICS, 10), **metrics}


def test_compare_counts_rises_and_keeps_the_worst():
    first = [_rec("compact p", "x"), _rec("compact q", "y"), _rec("compact r", "z")]
    second = [_rec("compact p", "x"), _rec("compact q", "w", cnot=5, depth=12),
              _rec("compact r", "v", qubits=11)]
    (row,) = scan_catalog.compare(first, second)
    assert (row["cases"], row["identical"], row["rises"]) == (3, 1, 2)
    rel, *worst = row["worst"]
    assert rel == pytest.approx(0.2) and worst == ["depth", "compact q", 10, 12]
    assert abs(row["geomean"]["cnot"] - 0.5 ** (1 / 3)) < 1e-12
    assert row["geomean"]["ccz"] == 1.0
