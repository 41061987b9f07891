"""Scan engine: configuration, determinism, suites, oracle, golden instances."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circmds
from circmds import props, verify
from circmds.field import get_field
from circmds.circulant import build, inverse_row
from circmds.matgf import Singular, diag_trace, sandwich
from circmds.props import (
    Properties,
    circulant_semi_pair,
    classify,
    semi_involutory_check,
    semi_orthogonal_check,
)
from circmds.verify import (
    EXAMPLES,
    EXHAUSTIVE,
    RANDOM,
    BudgetExceeded,
    IncompatibleSuite,
    ScanConfig,
    SplitMix64,
    index_to_row,
    oracle_semi_search,
    row_to_index,
    run_suite,
    verification_plan,
    verify_example,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
F11D = get_field(8, 0x11D)


# -- deterministic random stream ------------------------------------------------


def test_splitmix64_reference_vectors():
    # first outputs of the published SplitMix64 stream for seed 0
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_splitmix64_same_seed_same_stream():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_below(1000) for _ in range(50)] == [
        b.next_below(1000) for _ in range(50)
    ]


def test_next_below_in_range():
    g = SplitMix64(42)
    for _ in range(200):
        assert 0 <= g.next_below(7) < 7


# -- candidate enumeration --------------------------------------------------------


def test_index_row_round_trip():
    for idx in range(64):
        row = index_to_row(idx, 4, 3)
        assert row_to_index(row, 4) == idx


def test_enumeration_order_least_significant_first():
    assert index_to_row(0, 8, 3) == (0, 0, 0)
    assert index_to_row(1, 8, 3) == (1, 0, 0)
    assert index_to_row(8, 8, 3) == (0, 1, 0)
    assert index_to_row(8 * 8, 8, 3) == (0, 0, 1)


# -- configuration validation -------------------------------------------------------


def test_incompatible_suites_rejected():
    with pytest.raises(IncompatibleSuite):
        run_suite(ScanConfig(field=GF8, order=3, suites=("SO-POW2",)))
    with pytest.raises(IncompatibleSuite):
        run_suite(ScanConfig(field=GF8, order=4, suites=("SI-GEN",)))
    with pytest.raises(IncompatibleSuite):
        run_suite(ScanConfig(field=GF8, order=8, suites=("SO-MOD2",)))
    with pytest.raises(IncompatibleSuite):
        run_suite(ScanConfig(field=GF8, order=4, suites=("NO-SUCH-SUITE",)))
    with pytest.raises(IncompatibleSuite):
        run_suite(ScanConfig(field=GF8, order=2, suites=("INV-NONE",)))
    with pytest.raises(IncompatibleSuite):
        run_suite(ScanConfig(field=GF8, order=2, suites=("ORTH-NONE",)))


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        run_suite(ScanConfig(field=F11D, order=4, suites=("SO-POW2",)))


def test_bad_extra_rows_rejected():
    with pytest.raises(ValueError):
        run_suite(ScanConfig(field=GF4, order=3, suites=("INV-NONE",),
                             extra_rows=((1, 2),)))
    with pytest.raises(ValueError):
        run_suite(ScanConfig(field=GF4, order=3, suites=("INV-NONE",),
                             extra_rows=((1, 2, 9),)))


@pytest.mark.parametrize("changes", [
    {"worker_count": 0}, {"worker_count": -3}, {"mode": RANDOM, "sample_count": -5},
])
def test_out_of_range_counts_rejected(changes):
    config = ScanConfig(field=GF4, order=3, suites=("INV-NONE",), **changes)
    with pytest.raises(ValueError):
        config.validate()
    with pytest.raises(ValueError):
        run_suite(config)


# -- small scans ----------------------------------------------------------------------


def test_one_euclidean_inverse_per_row(monkeypatch):
    # both relations share one inverse on a row with a zero entry, a
    # full-support row never runs it, and classify reuses its singularity test
    zero_row, full_row = (1, 0, 2, 4), (1, 2, 3, 5)
    rows = (zero_row, full_row)
    assert all(inverse_row(GF8, row) is not None for row in rows)
    want = {row: (circulant_semi_pair(GF8, row, "orthogonal"),
                  circulant_semi_pair(GF8, row, "involutory")) for row in rows}
    calls = []

    def counting(gf, row):
        calls.append(tuple(row))
        return inverse_row(gf, row)

    monkeypatch.setattr(props, "inverse_row", counting)
    for row in rows:
        p = Properties(GF8, row)
        assert (p.semi("orthogonal").pair, p.semi("involutory").pair) == want[row]
    assert calls == [zero_row]
    calls.clear()
    for row in rows:
        classify(GF8, row)
    assert calls == [zero_row, full_row]


def test_so_pow2_gf4_order4_exhaustive():
    report = run_suite(ScanConfig(field=GF4, order=4, suites=("SO-POW2",)))
    assert report.space_size == 256
    assert report.examined == 256
    res = report.suites["SO-POW2"]
    assert res.counterexamples == []
    assert res.hypothesis_count == res.conclusion_count
    assert report.ok()


def test_inv_none_gf8_order3():
    report = run_suite(ScanConfig(field=GF8, order=3, suites=("INV-NONE",)))
    assert report.examined == 512
    assert report.suites["INV-NONE"].hypothesis_count == 0
    assert report.ok()


def test_semi_instances_get_power_scalar_checked():
    report = run_suite(ScanConfig(field=GF4, order=2, suites=("SO-POW2", "SI-POW2")))
    so = report.suites["SO-POW2"]
    si = report.suites["SI-POW2"]
    assert so.hypothesis_count > 0  # orthogonal 2x2 instances exist
    checked_pairs = so.hypothesis_count + si.hypothesis_count
    assert report.power_scalar_checked == 2 * checked_pairs
    assert report.power_scalar_failures == []


def test_import_does_not_load_multiprocessing():
    # only a scan with more than one worker needs the process pool
    code = "import sys, circmds; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(circmds.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "False\n"


def test_report_identical_across_worker_counts():
    payloads = []
    for workers in (1, 2, 3):
        report = run_suite(ScanConfig(field=GF8, order=4,
                                      suites=("SO-POW2", "SI-POW2"),
                                      worker_count=workers))
        payloads.append(json.dumps(report.payload(), sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


def test_random_mode_reproducible_and_seed_sensitive():
    def payload(seed):
        report = run_suite(ScanConfig(field=GF8, order=3, suites=("SO-ODD-EXIST",),
                                      mode=RANDOM, seed=seed, sample_count=300))
        return json.dumps(report.payload(), sort_keys=True)

    assert payload(7) == payload(7)
    report = run_suite(ScanConfig(field=GF8, order=3, suites=("SO-ODD-EXIST",),
                                  mode=RANDOM, seed=7, sample_count=300))
    assert report.examined == 300
    assert report.space_size == 512


def test_extra_rows_are_examined_first():
    example_row = EXAMPLES[1]["row"]
    report = run_suite(ScanConfig(field=F11D, order=3, suites=("SO-ODD-EXIST",),
                                  mode=RANDOM, seed=1, sample_count=64,
                                  extra_rows=(example_row,)))
    assert report.examined == 65
    extras = report.suites["SO-ODD-EXIST"].extras
    # the forced instance alone guarantees a nonzero-trace hit
    assert extras.get("nonzero_trace", 0) >= 1
    assert report.ok()


def test_mod2_and_mod4_suites_run_in_random_mode():
    report = run_suite(ScanConfig(field=GF4, order=6, suites=("SO-MOD2",),
                                  mode=RANDOM, seed=3, sample_count=500))
    assert report.ok()
    report = run_suite(ScanConfig(field=GF4, order=12, suites=("SO-MOD4",),
                                  mode=RANDOM, seed=3, sample_count=200))
    assert report.ok()


def test_report_payload_shape():
    report = run_suite(ScanConfig(field=GF4, order=2, suites=("SO-POW2",)))
    doc = report.payload()
    assert doc["schema_version"] == 1
    assert doc["field"] == {"m": 2, "poly": "0x7"}
    assert doc["mode"] == EXHAUSTIVE
    assert doc["seed"] is None  # exhaustive scans carry no seed
    assert doc["ok"] is True
    assert "elapsed_seconds" not in doc
    full = report.to_dict()
    assert "elapsed_seconds" in full and "worker_count" in full


def test_side_invariant_wiring_on_even_order_mds():
    # an even-order MDS instance seen by a scan must trigger the
    # interleaved-sums side check and pass it, once per row even though
    # both suites ask for MDS (the suites' order gates are not applied here)
    part = verify._scan_chunk((2, 0x7, ("SO-MOD4", "SI-GEN"), ("rows", ((1, 2),))))
    assert part["suites"]["SO-MOD4"]["hyp"] == part["suites"]["SI-GEN"]["hyp"] == 1
    assert part["inter_checked"] == 1
    assert part["inter_failures"] == []
    assert part["power_checked"] == 4


# -- brute-force oracle ------------------------------------------------------------------


def test_oracle_identity_finds_identity_pair():
    pair = oracle_semi_search(GF4, [[1, 0], [0, 1]], "involutory")
    assert pair.d1 == (1, 1) and pair.d2 == (1, 1)


def test_oracle_budget_guard():
    with pytest.raises(BudgetExceeded):
        oracle_semi_search(F11D, build((1, 2, 3)), "involutory")
    with pytest.raises(BudgetExceeded):
        oracle_semi_search(GF4, build((1, 2, 3, 1)), "involutory")


def test_oracle_singular_raises():
    with pytest.raises(Singular):
        oracle_semi_search(GF4, build((1, 1)), "orthogonal")


def test_oracle_unknown_relation():
    with pytest.raises(ValueError):
        oracle_semi_search(GF4, [[1]], "sideways")


def test_oracle_solution_satisfies_relation():
    from circmds.matgf import inverse, transpose

    A = build((1, 2, 4))
    for relation, target in (
        ("involutory", inverse(GF8, A)),
        ("orthogonal", transpose(inverse(GF8, A))),
    ):
        pair = oracle_semi_search(GF8, A, relation)
        if pair is not None:
            assert sandwich(GF8, pair.d1, A, pair.d2) == target


def test_oracle_agrees_with_solver_gf8_sample():
    for idx in range(0, 512, 7):
        row = index_to_row(idx, 8, 3)
        A = build(row)
        try:
            fast = semi_involutory_check(GF8, A)
        except Singular:
            continue
        slow = oracle_semi_search(GF8, A, "involutory")
        assert (fast is None) == (slow is None)


# -- golden instances -----------------------------------------------------------------------


def test_example1_all_assertions_pass():
    record = verify_example(1)
    assert record.ok
    assert [name for name, ok, _ in record.assertions] == [
        "nonsingular", "mds", "semi_orthogonal", "stated_pair_verbatim",
        "canonical_matches_stated", "nonzero_traces",
    ]


def test_example2_honest_outcome():
    # the recorded 5x5 pair satisfies the sandwich identity verbatim but both
    # diagonal traces are zero, and zero trace survives the scalar orbit, so
    # the nonzero-trace assertion cannot hold for any representative
    record = verify_example(2)
    outcomes = {name: ok for name, ok, _ in record.assertions}
    assert outcomes["nonsingular"]
    assert outcomes["mds"]
    assert outcomes["semi_orthogonal"]
    assert outcomes["stated_pair_verbatim"]
    assert outcomes["canonical_matches_stated"]
    assert not outcomes["nonzero_traces"]
    assert not record.ok


def test_example2_stated_traces_are_zero():
    assert diag_trace(EXAMPLES[2]["d1"]) == 0
    assert diag_trace(EXAMPLES[2]["d2"]) == 0


def test_example1_negative_control_in_aes_field():
    record = verify_example(1, poly=0x11B)
    outcomes = {name: ok for name, ok, _ in record.assertions}
    assert not outcomes["stated_pair_verbatim"]
    assert not record.ok


def test_example_record_json():
    doc = verify_example(1).to_dict()
    assert doc["example"] == 1
    assert doc["ok"] is True
    assert len(doc["assertions"]) == 6


def test_injected_multiplication_fault_surfaces(monkeypatch):
    # negative control: corrupting a single product that the golden sandwich
    # depends on must flip the instance-1 verdict
    from circmds.field import GF2m

    real_mul = GF2m.mul

    def flaky(self, a, b):
        r = real_mul(self, a, b)
        if {a, b} == {0xE2, 0x02}:
            r ^= 1
        return r

    monkeypatch.setattr(GF2m, "mul", flaky)
    assert not verify_example(1).ok


# -- bundled plan -----------------------------------------------------------------------------


def test_verification_plan_configs_validate():
    small = verification_plan("small")
    full = verification_plan("full", worker_count=2)
    assert len(full) > len(small)
    for cfg in full:
        cfg.validate()
    small_keys = {(c.field.poly, c.order, c.suites) for c in small}
    full_keys = {(c.field.poly, c.order, c.suites) for c in full}
    assert small_keys <= full_keys


def test_verification_plan_rejects_unknown_scale():
    with pytest.raises(ValueError):
        verification_plan("medium")
