"""Command-line interface: flags, JSON output, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circmds
from circmds import props
from circmds.cli import main
from circmds.field import get_field


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# -- field-info -------------------------------------------------------------------


def test_field_info_11d(capsys):
    code, doc, _ = run_json(capsys, "field-info", "--field", "8:0x11D")
    assert code == 0
    assert doc["m"] == 8
    assert doc["poly"] == "0x11D"
    assert doc["irreducible"] is True
    assert doc["x_primitive"] is True
    assert doc["multiplicative_group_order"] == 255


def test_field_info_11b(capsys):
    code, doc, _ = run_json(capsys, "field-info", "--field", "8:0x11B")
    assert code == 0
    assert doc["irreducible"] is True
    assert doc["x_primitive"] is False
    assert doc["x_order"] == 51


def test_field_info_reducible_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "field-info", "--field", "4:0x18")
    assert code == 2
    assert out == ""
    assert "reducible" in err.lower()


def test_field_flag_syntax_errors(capsys):
    code, _, err = run_cli(capsys, "field-info", "--field", "0x11D")
    assert code == 2 and "m:POLYHEX" in err
    code, _, err = run_cli(capsys, "field-info", "--field", "8:xyz")
    assert code == 2


# -- check ---------------------------------------------------------------------------


def test_check_aes_matrix(capsys):
    code, doc, _ = run_json(capsys, "check", "--field", "8:0x11B",
                            "--circulant", "0x02,0x03,0x01,0x01")
    assert code == 0
    assert doc["mds"] is True
    assert doc["involutory"] is False
    assert doc["orthogonal"] is False
    assert doc["category"] == "POW2"


def test_check_reference_instance(capsys):
    code, doc, _ = run_json(capsys, "check", "--field", "8:0x11D",
                            "--circulant", "0x02,0x03,0x06")
    assert code == 0
    assert doc["semi_orthogonal"]["found"] is True
    assert doc["semi_orthogonal"]["trace_d1"] != "0x00"
    assert doc["semi_orthogonal"]["trace_d2"] != "0x00"
    assert doc["mds"] is True


def test_check_singular_row_reports_not_crashes(capsys):
    code, doc, _ = run_json(capsys, "check", "--field", "2:0x7",
                            "--circulant", "0x1,0x1")
    assert code == 0
    assert doc["singular"] is True
    assert doc["mds"] is False
    assert doc["mds_witness"] is not None
    assert doc["semi_orthogonal"]["found"] is False


def test_check_full_matrix_input(capsys):
    code, doc, _ = run_json(capsys, "check", "--field", "3:0xB",
                            "--matrix", "0x1,0x0,0x1,0x1", "--rows", "2", "--cols", "2")
    assert code == 0
    assert doc["circulant"] is False
    assert doc["first_row"] is None
    assert doc["singular"] is False


def test_check_matrix_needs_consistent_shape(capsys):
    code, _, err = run_cli(capsys, "check", "--field", "3:0xB",
                           "--matrix", "0x1,0x0,0x1", "--rows", "2", "--cols", "2")
    assert code == 2


def test_check_refuses_an_mds_test_above_the_minor_limit(capsys, monkeypatch):
    # a 4x4 Cauchy matrix, whose largest layer keeps 18 minors
    gf = get_field(8, 0x11D)
    entries = ",".join(f"{gf.inv(x ^ y):X}" for x in range(4) for y in range(4, 8))
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 17)
    code, out, err = run_cli(capsys, "check", "--field", "8:0x11D",
                             "--matrix", entries, "--rows", "4", "--cols", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_element_out_of_range(capsys):
    code, _, err = run_cli(capsys, "check", "--field", "2:0x7",
                           "--circulant", "0x9,0x1")
    assert code == 2


# -- scan ---------------------------------------------------------------------------------


def test_scan_small_exhaustive(capsys):
    code, doc, _ = run_json(capsys, "scan", "--field", "2:0x7", "--order", "4",
                            "--suite", "SO-POW2,SI-POW2")
    assert code == 0
    assert doc["ok"] is True
    assert doc["examined"] == 256
    assert doc["suites"]["SO-POW2"]["counterexamples"] == []
    assert "elapsed_seconds" in doc


def test_scan_incompatible_suite(capsys):
    code, _, err = run_cli(capsys, "scan", "--field", "2:0x7", "--order", "3",
                           "--suite", "SO-POW2")
    assert code == 2
    assert "order" in err


def test_scan_budget_guard(capsys):
    code, _, err = run_cli(capsys, "scan", "--field", "8:0x11D", "--order", "4",
                           "--suite", "SO-POW2")
    assert code == 2
    assert "budget" in err


def test_scan_random_with_included_row(capsys):
    code, doc, _ = run_json(capsys, "scan", "--field", "8:0x11D", "--order", "3",
                            "--suite", "SO-ODD-EXIST", "--mode", "random",
                            "--seed", "5", "--samples", "100",
                            "--include-row", "0x02,0x03,0x06")
    assert code == 0
    assert doc["examined"] == 101
    assert doc["extra_rows"] == [["0x02", "0x03", "0x06"]]
    assert doc["suites"]["SO-ODD-EXIST"]["extras"]["nonzero_trace"] >= 1


def test_scan_include_row_wrong_length_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "scan", "--field", "2:0x7", "--order", "3",
                             "--suite", "INV-NONE", "--include-row", "0x1,0x2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "order 3" in err


SCAN_GF4_N3 = ("scan", "--field", "2:0x7", "--order", "3", "--suite", "INV-NONE")


@pytest.mark.parametrize("argv", [
    SCAN_GF4_N3 + ("--jobs", "0"),
    SCAN_GF4_N3 + ("--jobs", "-3"),
    SCAN_GF4_N3 + ("--mode", "random", "--samples", "-5"),
    ("search", "--field", "2:0x7", "--order", "3", "--require", "mds",
     "--mode", "random", "--samples", "-5"),
    ("verify-paper", "--scale", "small", "--jobs", "0"),
    ("verify-paper", "--scale", "small", "--jobs", "-3"),
    ("search", "--field", "2:0x7", "--order", "0", "--require", "mds"),
    ("search", "--field", "2:0x7", "--order", "-1", "--require", "mds"),
    ("check", "--field", "2:0x7", "--matrix", "1,2,3,1", "--rows", "-2", "--cols", "-2"),
    ("search", "--field", "2:0x7", "--order", "3", "--require", ",,,"),
    ("search", "--field", "2:0x7", "--order", "3", "--require", "mds", "--limit", "-1"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# -- search --------------------------------------------------------------------------------


def test_search_limit_zero(capsys):
    code, out, err = run_cli(capsys, "search", "--field", "8:0x11D", "--order", "3",
                             "--require", "mds", "--limit", "0")
    assert code == 0
    assert out == ""
    assert "found 0" in err


def test_search_into_a_closed_pipe_exits_141_quietly():
    # the reader stops after 100 bytes of about 900 matches, as `| head -c 100` does
    env = {**os.environ, "PYTHONPATH": str(Path(circmds.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "circmds.cli", "search", "--field", "3:0xB",
         "--order", "4", "--require", "semi-orthogonal", "--limit", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_search_orthogonal_mds_order4_finds_nothing(capsys):
    for field in ("2:0x7", "3:0xB"):
        code, out, err = run_cli(capsys, "search", "--field", field, "--order", "4",
                                 "--require", "orthogonal,mds", "--limit", "1")
        assert code == 0
        assert out == ""
        assert "found 0" in err


def test_search_finds_nonzero_trace_semi_orthogonal_instance(capsys):
    code, out, err = run_cli(capsys, "search", "--field", "8:0x11D", "--order", "3",
                             "--require", "semi-orthogonal,mds,nonzero-trace",
                             "--limit", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["semi_orthogonal"]["found"] is True
    assert doc["mds"] is True
    assert (doc["semi_orthogonal"]["trace_d1"] != "0x00"
            or doc["semi_orthogonal"]["trace_d2"] != "0x00")
    assert "found 1" in err


def test_search_unknown_predicate(capsys):
    code, _, err = run_cli(capsys, "search", "--field", "2:0x7", "--order", "2",
                           "--require", "shiny")
    assert code == 2
    assert "shiny" in err


# -- verify-paper -----------------------------------------------------------------------------


def test_verify_paper_small_scale(capsys):
    code, doc, err = run_json(capsys, "verify-paper", "--scale", "small")
    # golden instance 1 passes everything; instance 2 carries a zero-trace
    # diagonal pair, so its nonzero-trace assertion fails and the command
    # honestly exits 1
    assert code == 1
    ex1, ex2 = doc["examples"]
    assert ex1["ok"] is True
    assert ex2["ok"] is False
    failing = [a["name"] for a in ex2["assertions"] if not a["ok"]]
    assert failing == ["nonzero_traces"]
    assert all(scan["ok"] for scan in doc["scans"])
    assert "[PASS] example 1" in err
    assert "[FAIL] example 2" in err


def test_deterministic_output_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "check", "--field", "8:0x11D",
                         "--circulant", "0x02,0x03,0x06")
    _, out2, _ = run_cli(capsys, "check", "--field", "8:0x11D",
                         "--circulant", "0x02,0x03,0x06")
    assert out1 == out2
