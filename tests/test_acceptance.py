"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact equality (finite-field arithmetic has no rounding)
plus the stated wall-clock bounds.  Shared scans run once in module-scoped
fixtures and feed several criteria.

Criterion 2 note: the recorded 5x5 golden diagonals satisfy the sandwich
identity verbatim but both have trace zero, and zero trace is invariant
under the scalar orbit of the pair, so the nonzero-trace assertion is
mathematically unsatisfiable for that instance.  The criterion is asserted
as stated and fails honestly; see the first-differing-value detail in the
assertion message.
"""

import json
import random
import time

import pytest

from circmds import verify
from circmds.circulant import build
from circmds.field import get_field
from circmds.matgf import Singular, diag_trace, inverse, sandwich, transpose
from circmds.props import (
    diagonal_scaling_solve,
    is_involutory,
    is_mds,
    is_orthogonal,
    power_scalar,
)
from circmds.verify import RANDOM, ScanConfig, run_suite, verify_example
from reference import dense_semi_pair, index_to_row, oracle_semi_search

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
GF16 = get_field(4, 0x13)
F11D = get_field(8, 0x11D)
F11B = get_field(8, 0x11B)

AXIOM_TRIPLES = 100_000
WORKERS = 4


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- shared scans ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pow2_reports():
    """Criterion 6 scans; also feed criterion 10."""
    out = []
    started = time.perf_counter()
    for gf in (GF4, GF8):
        for order in (2, 4):
            out.append(run_suite(ScanConfig(
                field=gf, order=order, suites=("SO-POW2", "SI-POW2"))))
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def gf8_order6_report():
    """Criteria 7 and 8 share one pass over the 262,144-candidate space."""
    started = time.perf_counter()
    report = run_suite(ScanConfig(field=GF8, order=6,
                                  suites=("SO-MOD2", "SI-GEN"),
                                  worker_count=WORKERS))
    return report, time.perf_counter() - started


@pytest.fixture(scope="module")
def si_gen_small_reports():
    out = []
    started = time.perf_counter()
    for order in (3, 5):
        out.append(run_suite(ScanConfig(field=GF8, order=order, suites=("SI-GEN",))))
    return out, time.perf_counter() - started


@pytest.fixture(scope="module")
def oracle_agreement():
    """Criterion 9 sweep; collects every solver pair for criterion 10."""
    started = time.perf_counter()
    checked = 0
    agreements = 0
    pairs = []  # (gf, order, pair) for every found instance
    for gf, order in ((GF4, 2), (GF4, 3), (GF8, 2), (GF8, 3)):
        for idx in range(gf.order ** order):
            row = index_to_row(idx, gf.order, order)
            A = build(row)
            for relation in ("involutory", "orthogonal"):
                try:
                    fast = dense_semi_pair(gf, A, relation)
                except Singular:
                    continue
                slow = oracle_semi_search(gf, A, relation)
                checked += 1
                if (fast is None) == (slow is None):
                    agreements += 1
                if fast is not None:
                    pairs.append((gf, order, fast))
    return {
        "checked": checked,
        "agreements": agreements,
        "pairs": pairs,
        "elapsed": time.perf_counter() - started,
    }


# -- criteria ---------------------------------------------------------------------------


def test_c01_example1_golden():
    started = time.perf_counter()
    record = verify_example(1)
    elapsed = time.perf_counter() - started
    ok = record.ok and elapsed < 1.0
    announce("C01 example-1-golden", ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0
    assert record.ok, record.to_dict()


def test_c02_example2_golden():
    started = time.perf_counter()
    record = verify_example(2)
    elapsed = time.perf_counter() - started
    ok = record.ok and elapsed < 1.0
    announce("C02 example-2-golden", ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0
    failing = [(name, detail) for name, passed, detail in record.assertions
               if not passed]
    assert record.ok, (
        "example 2 assertions failed: "
        f"{failing}; the recorded diagonals XOR to zero entrywise "
        "(each coefficient bit appears an even number of times across the "
        "five entries), and trace scales linearly along the only solution "
        "orbit, so no associated pair of this matrix has nonzero trace"
    )


def test_c03_aes_sanity():
    started = time.perf_counter()
    A = build((0x02, 0x03, 0x01, 0x01))
    mds = is_mds(F11B, A).is_mds
    inv = is_involutory(F11B, A)
    orth = is_orthogonal(F11B, A)
    elapsed = time.perf_counter() - started
    ok = mds and not inv and not orth and elapsed < 1.0
    announce("C03 aes-sanity", ok, f"{elapsed:.3f}s")
    assert mds and not inv and not orth
    assert elapsed < 1.0


def test_c04_inv_none_exhaustive():
    worst = 0.0
    hits = 0
    for gf in (GF4, GF8):
        for order in (3, 4, 5):
            started = time.perf_counter()
            report = run_suite(ScanConfig(field=gf, order=order,
                                          suites=("INV-NONE",)))
            elapsed = time.perf_counter() - started
            worst = max(worst, elapsed)
            hits += report.suites["INV-NONE"].hypothesis_count
            assert report.examined == gf.order ** order
    ok = hits == 0 and worst < 10.0
    announce("C04 inv-none-exhaustive", ok, f"worst scan {worst:.2f}s, {hits} hits")
    assert hits == 0
    assert worst < 10.0


def test_c05_orth_none_exhaustive():
    worst = 0.0
    hits = 0
    for gf in (GF4, GF8):
        started = time.perf_counter()
        report = run_suite(ScanConfig(field=gf, order=4, suites=("ORTH-NONE",)))
        worst = max(worst, time.perf_counter() - started)
        hits += report.suites["ORTH-NONE"].hypothesis_count
    ok = hits == 0 and worst < 10.0
    announce("C05 orth-none-exhaustive", ok, f"worst scan {worst:.2f}s, {hits} hits")
    assert hits == 0
    assert worst < 10.0


def test_c06_pow2_trace_zero(pow2_reports):
    reports, elapsed = pow2_reports
    instances = 0
    for report in reports:
        for name in ("SO-POW2", "SI-POW2"):
            res = report.suites[name]
            assert res.counterexamples == [], res.counterexamples
            assert res.hypothesis_count == res.conclusion_count
            instances += res.hypothesis_count
    ok = elapsed < 30.0
    announce("C06 pow2-trace-zero", ok,
             f"{elapsed:.2f}s, {instances} semi instances, 0 counterexamples")
    assert instances > 0  # the scans genuinely exercise the implication
    assert elapsed < 30.0


def test_c07_so_mod2_exhaustive(gf8_order6_report):
    report, elapsed = gf8_order6_report
    res = report.suites["SO-MOD2"]
    ok = res.counterexamples == [] and elapsed < 300.0
    announce("C07 so-mod2-order6", ok,
             f"{elapsed:.2f}s with {WORKERS} workers, "
             f"{res.hypothesis_count} qualifying instances, "
             f"{len(res.counterexamples)} counterexamples")
    assert report.examined == 8 ** 6
    assert res.counterexamples == []
    assert res.hypothesis_count == res.conclusion_count
    assert elapsed < 300.0


def test_c08_si_gen_exhaustive(gf8_order6_report, si_gen_small_reports):
    big_report, big_elapsed = gf8_order6_report
    small_reports, small_elapsed = si_gen_small_reports
    total = big_elapsed + small_elapsed
    instances = 0
    for report in small_reports + [big_report]:
        res = report.suites["SI-GEN"]
        assert res.counterexamples == [], res.counterexamples
        assert res.hypothesis_count == res.conclusion_count
        instances += res.hypothesis_count
    ok = total < 300.0
    announce("C08 si-gen-orders-3-5-6", ok,
             f"{total:.2f}s, {instances} semi-involutory MDS instances")
    assert total < 300.0


def test_c09_oracle_equivalence(oracle_agreement):
    res = oracle_agreement
    ok = res["agreements"] == res["checked"] and res["elapsed"] < 120.0
    announce("C09 oracle-equivalence", ok,
             f"{res['elapsed']:.2f}s, {res['agreements']}/{res['checked']} agree")
    assert res["checked"] == 1072  # nonsingular rows of the four spaces, both relations
    assert res["agreements"] == res["checked"]
    assert len(res["pairs"]) == 218
    assert res["elapsed"] < 120.0


def test_c10_power_scalar_side_invariant(
    pow2_reports, gf8_order6_report, si_gen_small_reports, oracle_agreement
):
    reports = pow2_reports[0] + si_gen_small_reports[0] + [gf8_order6_report[0]]
    scan_failures = []
    scan_checked = 0
    for report in reports:
        scan_checked += report.power_scalar_checked
        scan_failures.extend(report.power_scalar_failures)

    direct_failures = []
    for gf, order, pair in oracle_agreement["pairs"]:
        if power_scalar(gf, pair.d1, order) is None:
            direct_failures.append((order, pair.d1))
        if power_scalar(gf, pair.d2, order) is None:
            direct_failures.append((order, pair.d2))

    ok = not scan_failures and not direct_failures
    announce("C10 power-scalar-invariant", ok,
             f"{scan_checked} scan checks + {2 * len(oracle_agreement['pairs'])} "
             f"direct checks, {len(scan_failures) + len(direct_failures)} failures")
    assert scan_checked > 0
    assert scan_failures == []
    assert direct_failures == []


# -- criterion 11: property suites --------------------------------------------------------


def test_c11a_field_axioms_bulk():
    started = time.perf_counter()
    rng = random.Random(0xAC5)
    for gf in (GF4, GF8, GF16, F11D, F11B):
        q = gf.order
        mul = gf.mul
        inv = gf.inv
        for _ in range(AXIOM_TRIPLES):
            a = rng.randrange(q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert (a ^ b) ^ c == a ^ (b ^ c)
            assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
            if a:
                assert mul(a, inv(a)) == 1
    elapsed = time.perf_counter() - started
    announce("C11a field-axioms", True,
             f"{elapsed:.2f}s, {AXIOM_TRIPLES} triples x 5 fields")


def test_c11b_sandwich_exactness():
    rng = random.Random(0xBEEF)
    for _ in range(300):
        gf = rng.choice((GF8, F11D))
        n = rng.randrange(1, 6)
        A = [[rng.randrange(gf.order) for _ in range(n)] for _ in range(n)]
        d1 = [rng.randrange(1, gf.order) for _ in range(n)]
        d2 = [rng.randrange(1, gf.order) for _ in range(n)]
        B = sandwich(gf, d1, A, d2)
        pair = diagonal_scaling_solve(gf, A, B)
        assert pair is not None
        assert all(v != 0 for v in pair.d1 + pair.d2)
        assert sandwich(gf, pair.d1, A, pair.d2) == B
    announce("C11b sandwich-exactness", True, "300 planted instances recovered")


def test_c11c_scalar_freedom_orbit():
    rng = random.Random(0xCAFE)
    for _ in range(60):
        n = rng.randrange(2, 6)
        # full support guarantees a connected pattern, hence one orbit
        A = [[rng.randrange(1, GF8.order) for _ in range(n)] for _ in range(n)]
        d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
        d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
        B = sandwich(GF8, d1, A, d2)
        low = diagonal_scaling_solve(GF8, A, B)
        # anchored at the last row: reverse the rows, then reverse d1 back
        rev = diagonal_scaling_solve(GF8, A[::-1], B[::-1])
        high_d1, high_d2 = rev.d1[::-1], rev.d2
        quotients = {GF8.mul(h, GF8.inv(l)) for h, l in zip(high_d1, low.d1)}
        assert len(quotients) == 1
        c = quotients.pop()
        cinv = GF8.inv(c)
        assert all(h == GF8.mul(cinv, l) for h, l in zip(high_d2, low.d2))
        # predicates must not depend on the anchor
        assert (diag_trace(low.d1) == 0) == (diag_trace(high_d1) == 0)
        assert (power_scalar(GF8, low.d1, n) is None) == (
            power_scalar(GF8, high_d1, n) is None)
    announce("C11c scalar-freedom-orbit", True, "60 re-anchored solves consistent")


def test_c11d_mds_scaling_invariance():
    rng = random.Random(0xD1CE)
    for _ in range(50):
        n = rng.randrange(2, 5)
        A = [[rng.randrange(GF8.order) for _ in range(n)] for _ in range(n)]
        verdict = is_mds(GF8, A).is_mds
        assert is_mds(GF8, transpose(A)).is_mds is verdict
        d1 = [rng.randrange(1, GF8.order) for _ in range(n)]
        d2 = [rng.randrange(1, GF8.order) for _ in range(n)]
        assert is_mds(GF8, sandwich(GF8, d1, A, d2)).is_mds is verdict
    announce("C11d mds-scaling-invariance", True, "50 instances")


def test_c11e_report_determinism_across_workers():
    payloads = []
    for workers in (1, 2, 4):
        report = run_suite(ScanConfig(field=GF8, order=4,
                                      suites=("SO-POW2", "SI-POW2"),
                                      worker_count=workers))
        payloads.append(json.dumps(report.payload(), sort_keys=True))
    ok = payloads[0] == payloads[1] == payloads[2]
    announce("C11e report-determinism", ok, "workers 1/2/4 bit-identical")
    assert ok

    rand_payloads = []
    for workers in (1, 3):
        report = run_suite(ScanConfig(field=F11D, order=3,
                                      suites=("SO-ODD-EXIST",), mode=RANDOM,
                                      seed=99, sample_count=2000,
                                      worker_count=workers))
        rand_payloads.append(json.dumps(report.payload(), sort_keys=True))
    assert rand_payloads[0] == rand_payloads[1]

    # 8^6 rows are 37,450 scalar classes, three chunks of at most 16,384:
    # two workers run them in a process pool
    pooled = []
    for workers in (1, 2):
        report = run_suite(ScanConfig(field=GF8, order=6, suites=("SO-MOD2", "SI-GEN"),
                                      worker_count=workers))
        pooled.append(json.dumps(report.payload(), sort_keys=True))
    assert len(verify._chunk_spans(report.config)) == 3
    assert pooled[0] == pooled[1]


def test_c11f_example1_inverse_identity():
    # A * A^-1 == I and A^-T == D1*A*D2 for the recorded pair, bit-exact
    A = build((0x02, 0x03, 0x06))
    Ainv = inverse(F11D, A)
    from circmds.matgf import identity, mat_mul

    assert mat_mul(F11D, A, Ainv) == identity(3)
    assert transpose(Ainv) == sandwich(F11D, [0xE2] * 3, A, [0x5A] * 3)
    announce("C11f reference-sandwich", True, "bit-exact")
