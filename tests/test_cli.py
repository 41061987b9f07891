"""Command-line interface: flags, JSON output, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import circmds
from circmds import props
from circmds.cli import main
from circmds.field import get_field
from circmds.matgf import diag_trace
from circmds.props import Properties, classify
from circmds.verify import DEFAULT_SEED, random_rows
from reference import count_folds, index_to_row


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


def test_check_matrix_classifies_a_circulant_from_its_first_row(capsys, monkeypatch):
    # a circulant matrix takes the row path, with no dense inverse, generic
    # solver or dense identity check, and gets the record of its first row;
    # a matrix that is not circulant takes all four
    calls = Counter()

    def counting(name):
        real = getattr(props, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(props, name, wrapper)

    dense = ("inverse", "diagonal_scaling_solve", "is_involutory", "is_orthogonal")
    for name in dense:
        counting(name)
    for field, row in (("8:0x11D", (0x02, 0x03, 0x06)), ("8:0x11B", (0x02, 0x03, 0x01, 0x01)),
                       ("3:0xB", (1, 2, 3, 4, 5, 6)), ("4:0x13", (1, 0, 1, 0, 1))):
        n = len(row)
        entries = ",".join(f"{row[(j - i) % n]:X}" for i in range(n) for j in range(n))
        code, doc, _ = run_json(capsys, "check", "--field", field, "--matrix", entries,
                                "--rows", str(n), "--cols", str(n))
        assert code == 0 and calls == Counter(), row
        assert doc.pop("circulant") is True and len(doc.pop("matrix")) == n
        _, want, _ = run_json(capsys, "check", "--field", field,
                              "--circulant", ",".join(f"{v:X}" for v in row))
        assert doc == want, row
    code, doc, _ = run_json(capsys, "check", "--field", "3:0xB",
                            "--matrix", "0x1,0x0,0x1,0x1", "--rows", "2", "--cols", "2")
    assert code == 0 and doc["circulant"] is False and doc["first_row"] is None
    assert all(calls[name] >= 1 for name in dense), calls


def test_check_matrix_needs_consistent_shape(capsys):
    code, _, err = run_cli(capsys, "check", "--field", "3:0xB",
                           "--matrix", "0x1,0x0,0x1", "--rows", "2", "--cols", "2")
    assert code == 2


def test_check_refuses_an_mds_test_above_the_minor_limit(capsys, monkeypatch):
    # a 4x4 Cauchy matrix, whose largest layer keeps 36 minors
    gf = get_field(8, 0x11D)
    entries = ",".join(f"{gf.inv(x ^ y):X}" for x in range(4) for y in range(4, 8))
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 17)
    code, out, err = run_cli(capsys, "check", "--field", "8:0x11D",
                             "--matrix", entries, "--rows", "4", "--cols", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_check_refuses_a_circulant_mds_test_above_the_minor_limit(capsys, monkeypatch):
    # the Whirlpool circulant keeps 700 minors of size 4
    monkeypatch.setattr(props, "MAX_LAYER_MINORS", 392)
    code, out, err = run_cli(capsys, "check", "--field", "8:0x11D",
                             "--circulant", "1,1,4,1,8,5,2,9")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "700 minors of size 4" in err


def test_check_empty_circulant_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "check", "--field", "8:0x11D", "--circulant", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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


def test_scan_random_samples_above_the_budget_are_refused(capsys, monkeypatch):
    # 2^40 samples would list 2^26 chunk spans before reading a row; the
    # config is refused first, and a scan that started anyway fails here
    # instead of allocating them
    import tracemalloc

    from circmds import cli

    def started(config):
        raise AssertionError("the scan started")

    monkeypatch.setattr(cli, "run_suite", started)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "scan", "--field", "3:0xB", "--order", "12",
                                 "--suite", "SO-MOD4", "--mode", "random",
                                 "--samples", str(1 << 40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "--budget" in lines[0]
    assert "Traceback" not in err
    assert peak < 1 << 20
    # within the budget the same scan runs
    monkeypatch.undo()
    code, doc, _ = run_json(capsys, "scan", "--field", "3:0xB", "--order", "12",
                            "--suite", "SO-MOD4", "--mode", "random", "--samples", "8",
                            "--budget", "8")
    assert code == 0 and doc["examined"] == 8


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
    ("scan", "--field", "2:0x7", "--order", "0", "--suite", "SO-MOD4"),
    ("scan", "--field", "2:0x7", "--order", "-4", "--suite", "SO-MOD4"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_scan_and_search_refuse_an_order_below_one_in_the_same_words(capsys):
    # orders 0 and -4 pass SO-MOD4's order test (both are 0 mod 4), so only
    # the order rule, asked first, refuses them
    for order in ("0", "-4"):
        search = run_cli(capsys, "search", "--field", "2:0x7", "--order", order, "--require", "mds")
        scan = run_cli(capsys, "scan", "--field", "2:0x7", "--order", order, "--suite", "SO-MOD4")
        assert search == scan == (2, "", f"error: order must be at least 1, got {order}\n")


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


def test_the_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(Path(circmds.__file__).parents[1])}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "circmds", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    # a usage error, from argparse (no --field) and from the row parser
    usage = run("check", "--circulant", "")
    bad_row = run("check", "--field", "8:0x11D", "--circulant", "")
    for proc in (usage, bad_row):
        assert proc.returncode == 2 and proc.stdout == ""
        assert sum("error:" in line for line in proc.stderr.splitlines()) == 1
    assert bad_row.stderr.startswith("error:") and bad_row.stderr.count("\n") == 1
    proc = run("field-info", "--field", "8:0x11D")
    assert proc.returncode == 0 and json.loads(proc.stdout)["poly"] == "0x11D"


def test_search_prints_the_first_matches_in_index_order(capsys):
    # an exhaustive search walks the space in index order (c_0 fastest) and
    # stops after --limit matches; GF(4) n = 3 has 18 MDS rows
    gf = get_field(2, 0x7)
    every = [index_to_row(i, 4, 3) for i in range(4 ** 3)]
    matches = [row for row in every if classify(gf, row).mds.is_mds]
    assert len(matches) == 18
    for limit in (1, 7, 18, 100):
        code, out, err = run_cli(capsys, "search", "--field", "2:0x7", "--order", "3",
                                 "--require", "mds", "--limit", str(limit))
        # each record ends with its top-level brace on a line of its own
        docs = [json.loads(part + "}") for part in out.split("\n}\n") if part]
        want = matches[:limit]
        assert code == 0 and f"found {len(want)} matching" in err
        assert [tuple(int(v, 16) for v in doc["first_row"]) for doc in docs] == want


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


def test_search_folds_only_the_rows_that_pass_the_xor_tests(capsys, monkeypatch):
    # a row stops at its first false test, and the tests run cheapest first:
    # (semi-)involutory is one XOR fold of the row, (semi-)orthogonal a fold
    # with products, whatever order --require names them in.  So the
    # autocorrelation folds only the semi-involutory rows with a nonzero row
    # sum, 69 of 20,000, where testing semi-orthogonal first folded 18,745
    folds = count_folds(monkeypatch)
    gf = get_field(4, 0x13)
    rows = random_rows(DEFAULT_SEED, 16, 6, 0, 20000)
    want = sum(1 for row in rows if diag_trace(row) and Properties(gf, row).semi("involutory").found)
    assert not folds and want == 69
    code, out, err = run_cli(capsys, "search", "--field", "4:0x13", "--order", "6",
                             "--require", "semi-orthogonal,semi-involutory", "--mode", "random",
                             "--samples", "20000", "--limit", "100000")
    assert code == 0 and "found 11 matching" in err
    assert len(folds) == want
    docs = [json.loads(part + "}") for part in out.split("\n}\n") if part]
    assert all(doc["semi_orthogonal"]["found"] and doc["semi_involutory"]["found"] for doc in docs)


def test_search_random_above_two_to_the_64_rows_finishes(capsys):
    # 256^9 = 2^72 candidate rows: each draw takes two words of the stream
    argv = ("search", "--field", "8:0x11D", "--order", "9", "--require", "orthogonal",
            "--mode", "random", "--samples", "50", "--seed", "3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == ""
    assert "found 0" in err


@pytest.mark.parametrize("mode, refused, allowed, examined", [
    ((), ("--budget", "4095"), ("--budget", "4096"), 4096),  # GF(8) n = 4 has 4,096 rows
    (("--mode", "random"), ("--samples", "100000000", "--budget", "10"),
     ("--samples", "10", "--budget", "10"), 10),
    (("--mode", "random"), ("--samples", "-5"), ("--samples", "0"), 0),
], ids=["exhaustive-above-budget", "random-above-budget", "negative-samples"])
def test_search_and_scan_refuse_a_space_in_the_same_words(capsys, monkeypatch, mode, refused,
                                                           allowed, examined):
    # one rule and one `error:` line for both commands, before a row is drawn
    from circmds import cli

    def started(*args, **kwargs):
        raise AssertionError("the command started")

    for name in ("random_rows", "product", "run_suite"):
        monkeypatch.setattr(cli, name, started)
    space = ("--field", "3:0xB", "--order", "4", *mode)
    search = ("search", "--require", "orthogonal,mds", *space)
    scan = ("scan", "--suite", "SO-POW2", *space)
    code, out, err = run_cli(capsys, *search, *refused)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in err
    assert run_cli(capsys, *scan, *refused) == (2, "", err)
    # at the bound both commands run
    monkeypatch.undo()
    code, out, err = run_cli(capsys, *search, *allowed)
    assert code == 0 and out == "" and "found 0" in err
    code, doc, _ = run_json(capsys, *scan, *allowed)
    assert code == 0 and doc["examined"] == examined


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
