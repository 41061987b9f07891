"""Scan engine: configuration, determinism, suites, oracle, golden instances, package surface."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from itertools import product
from math import gcd
from pathlib import Path

import pytest

import circmds
from circmds import props, verify
from circmds.field import get_field
from circmds.circulant import build, is_singular_row, scalar_square_root
from circmds.matgf import Singular, diag_trace, inverse, sandwich, transpose
from circmds.props import (
    Properties,
    circulant_semi_pair,
    classify,
    is_involutory,
    is_mds,
    is_orthogonal,
)
from circmds.verify import (
    CHUNK,
    EXAMPLES,
    EXHAUSTIVE,
    RANDOM,
    BudgetExceeded,
    IncompatibleSuite,
    ScanConfig,
    ScanReport,
    class_count,
    random_rows,
    run_suite,
    verification_plan,
    verify_example,
)
from census import GATE_SPACES
from reference import (
    SplitMix64,
    class_rows,
    count_folds,
    decided,
    dense_semi_pair,
    disconnected_rows,
    every_row_tally,
    index_to_row,
    next_below,
    oracle_semi_search,
    row_by_row,
    semi_involutory_count,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
GF16 = get_field(4, 0x13)
F11D = get_field(8, 0x11D)
GF32 = get_field(5, 0x25)
GF64 = get_field(6, 0x43)


GF2 = get_field(1, 0x3)


def _images(gf, row):
    """The rows sigma^f(row), f < m: each entry squared f times."""
    images = [tuple(row)]
    for _ in range(gf.m - 1):
        images.append(tuple(gf.mul(v, v) for v in images[-1]))
    return images


def _transpose(row):
    """tau(row) = row(x^-1), the first row of the transposed circulant."""
    return tuple(row[-j] for j in range(len(row)))


def _representative(gf, row):
    """The scalar multiple of a nonzero row whose first nonzero entry is 1."""
    lead = gf.inv(next(v for v in row if v))
    return tuple(gf.mul(lead, v) for v in row)


def _least_image(gf, row):
    """The representative, among those of the images sigma^f(row) and
    sigma^f(tau(row)), that comes first in enumeration order."""
    images = _images(gf, row) + _images(gf, _representative(gf, _transpose(row)))
    return min(images, key=lambda image: image[::-1])


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
    assert [next_below(a, 1000) for _ in range(50)] == [
        next_below(b, 1000) for _ in range(50)
    ]


def test_next_below_in_range():
    g = SplitMix64(42)
    for _ in range(200):
        assert 0 <= next_below(g, 7) < 7


def test_next_below_refuses_bounds_above_two_to_the_64():
    assert next_below(SplitMix64(9), 1 << 64) == SplitMix64(9).next_u64()
    for bound in (0, (1 << 64) + 1):
        with pytest.raises(ValueError):
            next_below(SplitMix64(9), bound)


def test_random_rows_extend_the_one_word_stream_and_split_anywhere():
    # up to 2^64 rows a draw is the rejection draw of `next_below`; above, it
    # takes more words, and the high word reaches the last entries.  Up to
    # q = 2^12 the digits are read 12 // m at a time from a table: every m
    # from 1 to 16, orders that end partway through such a chunk (GF(4)
    # n = 5 and 13, GF(8) n = 5, GF(32) n = 3 and 13, GF(2^6) n = 7), m = 12
    # and 13 either side of the table, and draws of two and three words at
    # small m (GF(2) n = 65 and 150, GF(4) n = 33, GF(8) n = 22 and 50)
    spaces = [(1 << m, n) for m in range(1, 17) for n in (1, 4)] + [
        (8, 3), (4, 12), (4, 5), (4, 13), (8, 5), (64, 7), (256, 8), (256, 9), (1 << 16, 9),
        (32, 3), (32, 13), (1 << 12, 6), (1 << 12, 7), (1 << 13, 5), (1 << 13, 6),
        (2, 65), (2, 150), (4, 33), (8, 22), (8, 50)]
    for q, n in spaces:
        rows = list(random_rows(99, q, n, 0, 40))
        assert all(len(row) == n and max(row) < q for row in rows)
        if q ** n <= 1 << 64:
            rng = SplitMix64(99)
            assert rows == [index_to_row(next_below(rng, q ** n), q, n) for _ in range(40)]
        else:
            # a draw is ceil(log2(q^n) / 64) words, low word first, and
            # index_to_row keeps its low log2(q^n) bits
            words = -(-n * (q.bit_length() - 1) // 64)
            rng = SplitMix64(99)
            assert rows == [index_to_row(sum(rng.next_u64() << 64 * w for w in range(words)), q, n)
                            for _ in range(40)]
            assert any(row[-1] for row in rows)
        assert list(random_rows(99, q, n, 13, 40)) == rows[13:]


def test_random_rows_match_the_scalar_stream_across_block_edges():
    # a span computes _BLOCK outputs per block, so spans that start just
    # before, at and just after draw _BLOCK // words and run over two block
    # edges read every draw of a block's tail, the next block's state, and,
    # at three words, draws split between two blocks: one word (GF(2^8)
    # n = 3), two and three words (GF(4) n = 33, GF(2) n = 150), and two
    # words above the digit table (GF(2^13) n = 5)
    for q, n in ((256, 3), (4, 33), (2, 150), (1 << 13, 5)):
        words = -(-n * (q.bit_length() - 1) // 64)
        edge = verify._BLOCK // words
        span = 2 * verify._BLOCK // words + 2
        rng = SplitMix64(7)
        want = [index_to_row(sum(rng.next_u64() << 64 * w for w in range(words)), q, n)
                for _ in range(edge + 1 + span)]
        assert span * words > 2 * verify._BLOCK
        for start in (edge - 1, edge, edge + 1):
            assert list(random_rows(7, q, n, start, start + span)) == want[start:start + span]
    # the published seed-0 outputs, each one row of GF(2^16) n = 4
    vectors = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    assert list(random_rows(0, 1 << 16, 4, 0, 3)) == [index_to_row(v, 1 << 16, 4) for v in vectors]
    assert [v for block in verify._outputs(0, 3) for v in block] == list(vectors)


def test_random_scan_above_two_to_the_64_rows_finishes():
    # 256^9 = 2^72 rows; the forced row makes a second chunk, so two workers
    # start the pool
    payloads = []
    for workers in (1, 2):
        report = run_suite(ScanConfig(field=F11D, order=9, suites=("SO-ODD-EXIST",),
                                      mode=RANDOM, seed=5, sample_count=3,
                                      extra_rows=((1,) * 9,), worker_count=workers))
        payloads.append(json.dumps(report.payload(), sort_keys=True))
    assert payloads[0] == payloads[1]
    assert report.examined == 4 and report.space_size == 1 << 72


# -- candidate enumeration --------------------------------------------------------


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
    {"order": 0}, {"order": -4},
])
def test_out_of_range_counts_rejected(changes):
    config = ScanConfig(**{"field": GF4, "order": 3, "suites": ("INV-NONE",), **changes})
    with pytest.raises(ValueError):
        config.validate()
    with pytest.raises(ValueError):
        run_suite(config)


# -- small scans ----------------------------------------------------------------------


def test_one_euclidean_inverse_per_row(monkeypatch):
    # the semi pairs never ask the gcd test, on a connected support, with or
    # without a zero entry, or a disconnected one (split_row, whose block is
    # (1, 2) at g = 2); classify asks it once for the singularity flag of a
    # row that is not MDS, and never for an MDS row
    zero_row, split_row, full_row = (1, 0, 2, 4), (1, 0, 2, 0), (1, 2, 3, 5)
    rows = (zero_row, split_row, full_row)
    assert not any(is_singular_row(GF8, row) for row in rows)
    want = {row: (circulant_semi_pair(Properties(GF8, row), "orthogonal"),
                  circulant_semi_pair(Properties(GF8, row), "involutory")) for row in rows}
    assert all(pair is not None for pair in want[split_row])
    calls = []

    def counting(gf, row):
        calls.append(tuple(row))
        return is_singular_row(gf, row)

    monkeypatch.setattr(props, "is_singular_row", counting)
    for row in rows:
        p = Properties(GF8, row)
        assert (p.semi("orthogonal").pair, p.semi("involutory").pair) == want[row]
    assert calls == []
    for row in rows:  # GF(8) n = 4 has no MDS row
        classify(GF8, row)
    assert calls == list(rows)
    not_mds = []
    for row in product(range(8), repeat=3):
        if not classify(GF8, row).mds.is_mds:
            not_mds.append(row)
    assert calls[3:] == not_mds and 0 < len(not_mds) < 8 ** 3


def test_involutory_relation_folds_once_and_never_tries_a_root_of_unity(monkeypatch):
    # the scan goes by orbits: INV-NONE and SI-GEN share the one fold that
    # the chunk screen makes in place of each evaluated representative,
    # which stands for its whole orbit, and hands to the row it admits, so
    # no `scalar_square_root` runs again; no mu is tried for the involutory
    # relation (no lane fold, no geometric pair), and no row, on any
    # support, asks the gcd test
    calls = {"screened": [], "square_root": 0, "geometric": 0, "singular": []}

    def screen(gf, relations, n, items):
        items = list(items)
        calls["screened"] += [item[0] for item in items]
        return real_screen(gf, relations, n, items)

    def square_root(row):
        calls["square_root"] += 1
        return scalar_square_root(row)

    def geometric(*args):
        calls["geometric"] += 1
        return real_geometric(*args)

    def gcd_test(gf, row):
        calls["singular"].append(tuple(row))
        return is_singular_row(gf, row)

    folds = count_folds(monkeypatch)
    real_screen, real_geometric = verify.pair_screen, props._geometric_pair
    monkeypatch.setattr(verify, "pair_screen", screen)
    monkeypatch.setattr(props, "scalar_square_root", square_root)
    monkeypatch.setattr(props, "_geometric_pair", geometric)
    monkeypatch.setattr(props, "is_singular_row", gcd_test)
    report = run_suite(ScanConfig(field=GF8, order=5, suites=("INV-NONE", "SI-GEN")))
    assert report.ok() and report.examined == 8 ** 5
    classes = class_count(8, 5)
    zero = classes - 1
    kept = [row for row in class_rows(8, 5, 0, zero) if row == _least_image(GF8, row)]
    kept.append((0,) * 5)
    # 805 nonzero orbits under sigma and tau, and the zero row; at odd n
    # only the rows (r, 0, 0, 0, 0) have a scalar square, the orbit of the
    # representative (1, 0, 0, 0, 0)
    assert classes == 4682 and len(kept) == 806
    assert sorted(calls["screened"]) == sorted(kept)
    assert calls["square_root"] == 0 and folds == [] and calls["geometric"] == 0
    # the representatives x^s with s != 0 (4 shifts paired by tau) have a
    # disconnected support and no scalar square, and ask nothing more
    assert (0, 1, 0, 0, 0) in kept and (0, 0, 1, 0, 0) in kept
    assert calls["singular"] == []


def test_orthogonal_relation_folds_once_per_representative(monkeypatch):
    # SO-POW2 and ORTH-NONE declare the orthogonal relation: the gate folds
    # each evaluated representative with a nonzero row sum once, and both
    # suites read that fold; a zero row sum folds nothing
    folds = count_folds(monkeypatch)
    report = run_suite(ScanConfig(field=GF8, order=4, suites=("SO-POW2", "ORTH-NONE")))
    assert report.ok() and report.examined == 8 ** 4
    kept = [rep for rep, _, _ in verify.orbit_representatives(GF8, 4, 0, class_count(8, 4))]
    # 117 orbits and the zero row, 100 of them with a nonzero row sum
    assert len(kept) == 118 and len(folds) == sum(1 for rep in kept if diag_trace(rep)) == 100


def test_scan_builds_a_matrix_only_for_mds_and_the_solver(monkeypatch):
    # a scan decides every row from its first row: `is_mds` tests the row
    # without its dense matrix, and a disconnected support is decided on its
    # order-n/g block, so no matrix is built, the generic solver never runs
    # and no row asks the gcd test, which only classify's singularity flag
    # reads
    counts = dict.fromkeys(("is_mds", "build", "diagonal_scaling_solve", "is_singular_row",
                            "inverse"), 0)
    for module, name in ((props, "is_mds"), (props, "build"), (verify, "build"),
                         (props, "diagonal_scaling_solve"), (verify, "diagonal_scaling_solve"),
                         (props, "is_singular_row"), (props, "inverse"), (verify, "inverse")):
        def counting(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counting)
    report = run_suite(ScanConfig(field=GF8, order=4, suites=(
        "INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2")))
    assert report.ok()
    # the pairs include those of disconnected supports, such as (1, 0, 2, 0)
    assert (report.suites["SO-POW2"].hypothesis_count,
            report.suites["SI-POW2"].hypothesis_count) == (896, 448)
    assert counts["is_mds"] > 0
    assert counts == {"is_mds": counts["is_mds"], "build": 0, "diagonal_scaling_solve": 0,
                      "is_singular_row": 0, "inverse": 0}


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
    # 4^8 rows are 21,846 scalar classes, two chunks, so two workers start
    # the pool
    pooled = []
    for workers in (1, 2):
        report = run_suite(ScanConfig(field=GF4, order=8, suites=(
            "INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2"), worker_count=workers))
        pooled.append(json.dumps(report.payload(), sort_keys=True))
    assert verify._chunk_spans(report.config) == [(0, CHUNK), (CHUNK, 21846)]
    assert pooled[0] == pooled[1]


def test_pool_never_larger_than_chunks_or_cpus(monkeypatch):
    # a stand-in pool records its size and maps in-process: no process starts
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    gf2 = get_field(1, 0x3)
    two_chunks = {"field": gf2, "order": 15, "suites": ("INV-NONE",)}
    four_chunks = {"field": gf2, "order": 16, "suites": ("INV-NONE",)}
    serial = {
        15: json.dumps(run_suite(ScanConfig(**two_chunks)).payload(), sort_keys=True),
        16: json.dumps(run_suite(ScanConfig(**four_chunks)).payload(), sort_keys=True),
    }
    assert sizes == []
    for cpus, kw, workers, expect in (
        (64, two_chunks, 100_000, [2]),  # capped by the chunks
        (3, four_chunks, 100_000, [3]),  # capped by the CPUs
        (64, four_chunks, 2, [2]),  # below both caps: as asked
        (1, four_chunks, 4, []),  # one CPU: in-process
        (None, four_chunks, 100_000, []),  # CPU count unknown: in-process
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        report = run_suite(ScanConfig(worker_count=workers, **kw))
        assert sizes == expect, (cpus, kw["order"], workers)
        assert json.dumps(report.payload(), sort_keys=True) == serial[kw["order"]]
        assert report.to_dict()["worker_count"] == workers


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
    config = ScanConfig(field=GF4, order=2, suites=("SO-MOD4", "SI-GEN"), extra_rows=((1, 2),))
    part = verify._scan_chunk((config, None))
    assert part.suites["SO-MOD4"].hypothesis_count == part.suites["SI-GEN"].hypothesis_count == 1
    assert part.interleaved_checked == 1
    assert part.interleaved_failures == []
    assert part.power_scalar_checked == 4


def test_merge_adds_counts_and_concatenates_lists_in_order():
    config = ScanConfig(field=GF4, order=2, suites=("SO-POW2", "SI-POW2"))
    first, second = ScanReport(config), ScanReport(config)
    for part, rows, extras in ((first, [(1, 0), (2, 0)], {"a": 1, "b": 2}),
                               (second, [(3, 0)], {"b": 5, "c": 1})):
        part.examined = 10 * len(rows)
        part.power_scalar_checked = 2 * len(rows)
        part.power_scalar_failures = [("semi-orthogonal", "d1", r) for r in rows]
        part.interleaved_checked = len(rows)
        part.interleaved_failures = list(rows)
        res = part.suites["SO-POW2"]
        res.hypothesis_count = 3 * len(rows)
        res.conclusion_count = len(rows)
        res.counterexamples = list(rows)
        res.extras = dict(extras)
    first.merge(second)
    assert first.examined == 30
    assert first.power_scalar_checked == 6 and first.interleaved_checked == 3
    assert [r for _, _, r in first.power_scalar_failures] == [(1, 0), (2, 0), (3, 0)]
    assert first.interleaved_failures == [(1, 0), (2, 0), (3, 0)]
    res = first.suites["SO-POW2"]
    assert (res.hypothesis_count, res.conclusion_count) == (9, 3)
    assert res.counterexamples == [(1, 0), (2, 0), (3, 0)]
    assert res.extras == {"a": 1, "b": 7, "c": 1}
    untouched = first.suites["SI-POW2"]
    assert (untouched.hypothesis_count, untouched.counterexamples, untouched.extras) == (0, [], {})
    # the merged-in report is left as it was
    assert second.examined == 10 and second.suites["SO-POW2"].counterexamples == [(3, 0)]


def test_counterexamples_merge_across_chunks_forced_row_first(monkeypatch):
    # GF(4) n = 8 is 2 chunks of scalar classes; the runner fails on rows
    # with at most one nonzero entry, a count that c*sigma^f*tau keeps: the
    # failing representatives lie 1 in the first chunk and 8 in the second,
    # and the forced row, which the enumeration meets again in the second,
    # comes first
    def sparse(row):
        return sum(1 for v in row if v) <= 1

    def run(p):
        return True, not sparse(p.row), {"seen": 1}

    monkeypatch.setitem(verify.SUITES, "INV-NONE", verify.SuiteDef(
        "INV-NONE", lambda n: True, "any order", run))
    forced = (0,) * 7 + (3,)
    config = ScanConfig(field=GF4, order=8, suites=("INV-NONE",), extra_rows=(forced,))
    spans = verify._chunk_spans(config)
    assert spans[0] is None
    assert [sum(map(sparse, class_rows(4, 8, *span))) for span in spans[1:]] == [1, 8]
    report = run_suite(config)
    failing = [i for i in range(4 ** 8) if sparse(index_to_row(i, 4, 8))]
    assert len(failing) == 1 + 8 * 3
    res = report.suites["INV-NONE"]
    assert res.counterexamples == [forced] + [index_to_row(i, 4, 8) for i in failing]
    assert report.examined == res.hypothesis_count == 4 ** 8 + 1
    assert res.conclusion_count == 4 ** 8 - len(failing)
    assert res.extras == {"seen": 4 ** 8 + 1}
    assert not report.ok()


# -- scalar-Frobenius orbits -------------------------------------------------------------


def test_class_rows_cover_every_row_once():
    # the nonzero multiples of the representatives, and the zero row, are
    # every row once; a span of the classes is a slice of them
    for gf, n in ((GF4, 1), (GF4, 3), (GF4, 8), (GF8, 4), (GF16, 3)):
        q = gf.order
        total = class_count(q, n)
        reps = list(class_rows(q, n, 0, total))
        assert len(reps) == total == (q ** n - 1) // (q - 1) + 1
        assert reps[-1] == (0,) * n
        assert all(next(v for v in rep if v) == 1 for rep in reps[:-1])
        members = [tuple(gf.mul(c, v) for v in rep) for rep in reps[:-1] for c in range(1, q)]
        assert sorted(members + reps[-1:]) == list(product(range(q), repeat=n))
        for start, end in ((0, 1), (1, total - 1), (total - 2, total), (5, 5), (CHUNK, total)):
            assert list(class_rows(q, n, start, end)) == reps[start:end]


def test_suites_declare_the_relation_their_hypothesis_implies():
    # wherever a suite's hypothesis holds, the pair of its declared relation
    # exists, so a row without it can be left out of the suite's tally; the
    # hypothesis is also evaluated with MDS taken as true, which makes INV-NONE
    # and ORTH-NONE hold on the rows with a scalar square or a Gram root
    # (A^-1 == I*A*(r^-2*I) and A^-T == I*A*(t^-2*I)), and SO-MOD2 on the
    # disconnected GF(16) n = 6 rows with a non-periodic pair
    assert {name: suite.relation for name, suite in verify.SUITES.items()} == {
        "INV-NONE": "involutory", "ORTH-NONE": "orthogonal",
        "SO-POW2": "orthogonal", "SI-POW2": "involutory", "SO-MOD4": "orthogonal",
        "SO-MOD2": "orthogonal", "SI-GEN": "involutory", "SO-ODD-EXIST": "orthogonal"}
    held = dict.fromkeys(verify.SUITES, 0)
    spaces = [(gf, n, product(range(gf.order), repeat=n)) for gf, n in GATE_SPACES]
    spaces.append((GF16, 6, disconnected_rows(GF16, 6, lead_one=True)))
    for gf, n, rows in spaces:
        suites = [suite for suite in verify.SUITES.values() if suite.order_ok(n)]
        for row in rows:
            for suite in suites:
                for assume_mds in (False, True):
                    p = Properties(gf, row)
                    if assume_mds:
                        p.mds_verdict = props.MdsVerdict(True)
                    if suite.run(p)[0]:
                        assert p.semi(suite.relation).found, (suite.name, gf.m, row)
                        held[suite.name] += 1
    # SO-MOD4 admits no order of these spaces
    assert [name for name, count in held.items() if not count] == ["SO-MOD4"], held


def test_gated_scans_equal_the_ungated_tally():
    # a scan rejects a row on its relations' folds before the row gets a
    # `Properties`; its payload equals that of the whole battery on every
    # row, at 1 and 2 workers: each suite alone on every row of small
    # spaces, the benchmark's three exhaustive configs, and its two sampled
    # configs at three seeds
    configs = [ScanConfig(field=gf, order=n, suites=(name,))
               for gf, n in GATE_SPACES for name, suite in verify.SUITES.items()
               if suite.order_ok(n)]
    configs += [
        ScanConfig(field=GF4, order=6, suites=("SO-MOD2", "SI-GEN")),
        ScanConfig(field=GF8, order=4, suites=("INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2")),
        ScanConfig(field=GF32, order=3, suites=("INV-NONE", "SI-GEN")),
    ]
    for seed in (1, 2, 3):
        configs += [
            ScanConfig(field=F11D, order=3, suites=("SO-ODD-EXIST",), mode=RANDOM, seed=seed,
                       sample_count=2048, extra_rows=(EXAMPLES[1]["row"],)),
            ScanConfig(field=GF4, order=12, suites=("SO-MOD4",), mode=RANDOM, seed=seed,
                       sample_count=2048),
        ]
    assert len(configs) == 27 + 3 + 6
    held = 0
    for config in configs:
        want = every_row_tally(config)
        held += sum(res["hypothesis_count"] for res in want["suites"].values())
        for workers in (1, 2):
            got = decided(run_suite(dataclasses.replace(config, worker_count=workers)))
            assert got == want, (config.field.m, config.order, config.suites, config.seed, workers)
    assert held > 0


def test_scan_by_classes_equals_the_row_by_row_scan():
    configs = list(verification_plan("small"))
    configs += [
        ScanConfig(field=GF16, order=3, suites=("INV-NONE", "SI-GEN")),
        ScanConfig(field=GF16, order=4, suites=("INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2")),
        ScanConfig(field=GF32, order=3, suites=("INV-NONE", "SI-GEN")),
        ScanConfig(field=get_field(1, 0x3), order=10, suites=("INV-NONE",)),
        ScanConfig(field=GF8, order=5, suites=("INV-NONE", "SI-GEN"),
                   extra_rows=((1, 0, 2, 0, 3), (0, 0, 0, 0, 0))),
    ]
    for config in configs:
        plain = row_by_row(config)
        for workers in (1, 2):
            reduced = decided(run_suite(dataclasses.replace(config, worker_count=workers)))
            assert reduced == plain, (config.field, config.order, config.suites, workers)


def test_failure_lists_by_classes_equal_the_row_by_row_lists(monkeypatch):
    # every list populated, over five class chunks and a forced row: a probe
    # suite evaluates MDS on every row and fails on rows with at most one
    # nonzero entry, every even-order MDS row fails its interleaved sums,
    # and every semi pair fails its scalar powers.  GF(2) has no MDS row of
    # order 10, but its other lists are sorted back into index order from
    # the order of its classes too
    def probe(p):
        p.mds()
        return True, sum(1 for v in p.row if v) > 1, {"seen": 1}

    monkeypatch.setitem(verify.SUITES, "PROBE", verify.SuiteDef(
        "PROBE", lambda n: True, "any order", probe))
    monkeypatch.setattr(verify, "interleaved_sums", lambda row: (0, 0))
    monkeypatch.setattr(props, "power_scalar", lambda gf, d, n: None)
    monkeypatch.setattr(verify, "CHUNK", 1024)
    gf16 = ScanConfig(field=GF16, order=4, extra_rows=((0, 0, 5, 0),),
                      suites=("INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2", "PROBE"))
    gf2 = ScanConfig(field=get_field(1, 0x3), order=10, extra_rows=((0,) * 9 + (1,),),
                     suites=("INV-NONE", "SO-MOD2", "SI-GEN", "PROBE"))
    assert len(verify._chunk_spans(gf16)) == 1 + 5 and len(verify._chunk_spans(gf2)) == 1 + 1
    for config, probed, minimums in (
            (gf16, 1 + 1 + 4 * 15, {"power_scalar_failures": 1000, "interleaved_failures": 1000}),
            (gf2, 1 + 1 + 10, {"power_scalar_failures": 100})):
        plain = row_by_row(config)
        want = plain["suites"]["PROBE"]["counterexamples"]
        lists = plain["side_invariants"]
        forced = [config.field.format_element(v) for v in config.extra_rows[0]]
        assert len(want) == probed and want[0] == forced
        assert all(len(lists[key]) > bound for key, bound in minimums.items())
        for workers in (1, 2):
            reduced = decided(run_suite(dataclasses.replace(config, worker_count=workers)))
            assert reduced == plain, (config.field.m, workers)


def test_random_mode_tallies_dense_block_and_involutory_rows_in_draw_order(monkeypatch):
    # a random scan does not sort its failure lists, so a chunk must tally
    # the rows its screen admits in draw order.  A probe that declares the
    # orthogonal relation fails on every row with a semi-orthogonal pair;
    # beside SI-GEN, which declares the involutory one, such a row is
    # admitted by the lane fold of a dense row, by `block_roots` of a row
    # with at least n/2 zero entries, or by the involutory fold.  Over four
    # spans of seeded GF(16) n = 6 draws and three forced rows (a block
    # row, an involutory row and a dense row), the probe's counterexamples
    # are the paired rows in draw order, forced rows first, and the payload
    # equals the tally of each row on its own, at 1 and 2 workers
    def probe(p):
        return p.semi("orthogonal").found, False, None

    monkeypatch.setitem(verify.SUITES, "PROBE", verify.SuiteDef(
        "PROBE", lambda n: True, "any order", probe, relation="orthogonal"))
    monkeypatch.setattr(verify, "CHUNK", 1024)
    forced = ((1, 0, 2, 0, 10, 0), (0, 3, 9, 4, 3, 9), (1, 14, 2, 3, 5, 4))
    config = ScanConfig(field=GF16, order=6, suites=("PROBE", "SI-GEN"), mode=RANDOM, seed=0,
                        sample_count=4000, extra_rows=forced)
    assert len(verify._chunk_spans(config)) == 1 + 4
    want = every_row_tally(config)
    paired = [row for row in forced + tuple(random_rows(0, 16, 6, 0, 4000))
              if Properties(GF16, row).semi("orthogonal").found]
    assert want["suites"]["PROBE"]["counterexamples"] == [
        [GF16.format_element(v) for v in row] for row in paired]
    kinds = Counter("involutory" if scalar_square_root(row) else
                    "block" if 2 * row.count(0) >= 6 else "dense" for row in paired)
    assert paired[:3] == list(forced) and kinds == {"dense": 38, "block": 2, "involutory": 3}
    for workers in (1, 2):
        assert decided(run_suite(dataclasses.replace(config, worker_count=workers))) == want


def test_transposed_rows_list_their_power_scalar_failures_swapped(monkeypatch):
    # every real pair has scalar powers, and its d1 and d2 agree, so the
    # swap shows only on a fault: this one fails d1 when a_1 == 0 and d2
    # when a_(n-1) == 0, a rule that scalars and sigma keep and that tau
    # swaps, as it swaps the pair.  A transposed row must list the other
    # label, in the order of a row tallied on its own
    real_semi = Properties.semi

    def semi(p, relation):
        rep = real_semi(p, relation)
        if rep.found:
            rep = p.semi_reports[relation] = rep._replace(
                k1=None if p.row[1] == 0 else rep.k1, k2=None if p.row[-1] == 0 else rep.k2)
        return rep

    monkeypatch.setattr(Properties, "semi", semi)
    for config in (ScanConfig(field=GF4, order=6, suites=("SO-MOD2", "SI-GEN")),
                   ScanConfig(field=GF8, order=4, suites=("SO-POW2", "SI-POW2"))):
        plain = row_by_row(config)
        labels = {}
        for failure in plain["side_invariants"]["power_scalar_failures"]:
            key = (failure["relation"], tuple(failure["first_row"]))
            labels.setdefault(key, []).append(failure["diagonal"])
        assert set(map(tuple, labels.values())) == {("d1",), ("d2",), ("d1", "d2")}
        for workers in (1, 2):
            reduced = decided(run_suite(dataclasses.replace(config, worker_count=workers)))
            assert reduced == plain, (config.field.m, workers)


# every class representative of these spaces, the zero row last
_ORBIT_SPACES = [(gf, n) for gf, top in ((GF2, 10), (GF4, 6), (GF8, 4), (GF16, 3), (GF32, 3))
                 for n in range(1, top + 1)]


def test_image_scales_the_row_before_the_frobenius_power():
    # _image(c, f, row) is sigma^f(c*row), not c*sigma^f(row): the two
    # differ once sigma^f moves c.  A scan lists the images over all q - 1
    # scalars and sorts them, where both give one set, so only this pins it
    for gf in (GF16, F11D):
        for c in (1, 3, 0x1D % gf.order, gf.order - 1):
            for row in ((1, 0, 2), (5, 7, 0, 9), (0, 0, 1)):
                for f in range(gf.m):
                    want = _images(gf, tuple(gf.mul(c, v) for v in row))[f]
                    assert verify._image(gf, c, f, row) == want, (gf.m, c, row, f)


def test_frobenius_orbits_match_the_explicit_images(monkeypatch):
    # the generator yields, in class order, exactly the representatives that
    # are least among the representatives of their images under sigma^f and
    # sigma^f*tau, each with the number of distinct sigma images and whether
    # tau's class is outside them; the kept orbits times their q - 1
    # scalars, doubled when tau leaves the sigma-orbit, with the zero row,
    # are every row.  GF(16) n = 4 and GF(64) n = 3 reach the ties of the
    # top digits, and the rescaled tau of blocks p >= 1, at m = 4 and m = 6.
    # A span of the chunks of a smaller CHUNK yields its slice of the whole
    for gf, n in _ORBIT_SPACES + [(GF16, 4), (GF64, 3)]:
        q = gf.order
        classes = class_rows(q, n, 0, class_count(q, n))
        want = []
        for rep in classes[:-1]:
            if rep == _least_image(gf, rep):
                images = set(_images(gf, rep))
                flipped = _representative(gf, _transpose(rep))
                want.append((rep, len(images), flipped not in images))
        want.append(((0,) * n, 1, False))
        assert list(verify.orbit_representatives(gf, n, 0, len(classes))) == want, (gf.m, n)
        covered = 1 + sum((q - 1) * size * (1 + transposed) for _, size, transposed in want[:-1])
        assert covered == q ** n, (gf.m, n)
        if (gf, n) in ((GF4, 6), (GF8, 4), (GF32, 3)):
            # the representatives the benchmark's spaces evaluate, with the
            # zero row: 715, 206 and 218 by sigma alone
            assert len(want) == {2: 395, 3: 118, 5: 114}[gf.m]
        index = {rep: i for i, rep in enumerate(classes)}
        for chunk in (64, 1024):
            monkeypatch.setattr(verify, "CHUNK", chunk)
            for start, end in verify._chunk_spans(ScanConfig(field=gf, order=n, suites=())):
                assert list(verify.orbit_representatives(gf, n, start, end)) == [
                    kept for kept in want if start <= index[kept[0]] < end], (gf.m, n, start)


def test_small_chunks_keep_the_row_by_row_payload(monkeypatch):
    # at CHUNK = 64 some spans hold no least representative, and the chunks
    # split the blocks of the class order, block 0 of GF(8) n = 5 into 64
    monkeypatch.setattr(verify, "CHUNK", 64)
    for config in (ScanConfig(field=GF8, order=5, suites=("INV-NONE", "SI-GEN"),
                              extra_rows=((0, 3, 0, 0, 5),)),
                   ScanConfig(field=GF4, order=6, suites=("SO-MOD2", "SI-GEN"))):
        spans = verify._chunk_spans(config)
        assert len(spans) == (1 + 74 if config.extra_rows else 22)
        assert any(not list(verify.orbit_representatives(config.field, config.order, *span))
                   for span in spans if span)
        plain = row_by_row(config)
        for workers in (1, 2):
            reduced = decided(run_suite(dataclasses.replace(config, worker_count=workers)))
            assert reduced == plain, (config.field.m, workers)


def test_every_runner_is_invariant_on_the_orbit():
    # every suite's runner returns the same result on a, c*a, sigma(a) and
    # tau(a), at any order, which lets a kept representative stand for its
    # orbit; every row of each space is met, so the field generator w
    # stands for every scalar c
    held = 0
    for gf, n in _ORBIT_SPACES:
        square = [gf.mul(v, v) for v in range(gf.order)]
        w = gf.exp_table[1]
        results = {}
        for row in product(range(gf.order), repeat=n):
            p = Properties(gf, row)
            results[row] = [suite.run(p) for suite in verify.SUITES.values()]
        for row, result in results.items():
            for image in (tuple(gf.mul(w, v) for v in row), tuple(square[v] for v in row),
                          _transpose(row)):
                assert results[image] == result, (gf.m, row, image)
            held += sum(1 for hyp, _, _ in result if hyp)
    assert held > 0


def _semi_summary(p):
    """What a scan counts of each semi pair of `p`, per relation: whether it
    is found, and for d1 then d2 whether k is None, whether the trace is
    zero and (at even order, for the semi-orthogonal pair) whether it is
    nonperiodic."""
    out = {}
    for relation in ("involutory", "orthogonal"):
        rep = p.semi(relation)
        if not rep.found:
            out[relation] = None
            continue
        nonperiodic = (None, None)
        if relation == "orthogonal" and p.n % 2 == 0:
            nonperiodic = p.nonperiodic()
        out[relation] = tuple(
            (k is None, trace == 0, np)
            for k, trace, np in ((rep.k1, rep.trace_d1, nonperiodic[0]),
                                 (rep.k2, rep.trace_d2, nonperiodic[1])))
    return out


def test_transposition_swaps_the_semi_reports():
    # tau(a) has the pair (D2, D1), rescaled on each component of the
    # nonzero pattern: what a scan counts of its d1 is what it counts of
    # a's d2, and the other way round; the fold, the Gram root and the MDS
    # verdict are the same.  On every row with a pair, d1 and d2 in fact
    # agree (the disconnected case of the module docstring's lemma).  The
    # disconnected rows of GF(16) n = 8 are taken up to scalars, 8,738 of
    # 131,070, as the scalar lemma carries them to every multiple: decided
    # on their blocks, all of them would take about 2.7 s instead of 0.3 s
    # (one core of a shared 2-core x86-64 host), about doubling this test
    spaces = [(gf, [row for n in range(1, top + 1) for row in product(range(gf.order), repeat=n)])
              for gf, top in ((GF2, 12), (GF4, 6), (GF8, 4))]
    spaces += [(GF16, list(product(range(16), repeat=4))),
               (GF16, disconnected_rows(GF16, 6)),
               (GF16, disconnected_rows(GF16, 8, lead_one=True))]
    pairs, disconnected = 0, 0
    for gf, rows in spaces:
        facts = {}

        def evaluate(row):
            if row not in facts:
                p = Properties(gf, row)
                facts[row] = (_semi_summary(p), p.square_root(), p.gram_root(), p.mds().is_mds)
            return facts[row]

        for row in rows:
            semi, *roots_and_mds = evaluate(row)
            semi_t, *roots_and_mds_t = evaluate(_transpose(row))
            assert roots_and_mds == roots_and_mds_t, (gf.m, row)
            for relation, diagonals in semi.items():
                assert semi_t[relation] == (diagonals and diagonals[::-1]), (gf.m, row, relation)
                if diagonals:
                    assert diagonals[0] == diagonals[1], (gf.m, row, relation)
                    support = [j for j, v in enumerate(row) if v]
                    pairs += 1
                    disconnected += gcd(len(row), *(j - support[0] for j in support)) > 1
    # pairs found, counted per row and relation, and those on a disconnected support
    assert (pairs, disconnected) == (17690, 4526)


def test_a_cyclic_shift_keeps_semi_orthogonal_but_not_semi_involutory():
    # A*P for the cyclic shift P: on a connected support the semi-involutory
    # relation is A^2 == k*I, and (AP)^2 == k*P^2 is not scalar for n >= 3;
    # the semi-orthogonal relation survives, since P*P^T == I.  So a shift
    # reduction may serve the semi-orthogonal suites only
    for gf, n, si_rows, so_rows in ((GF4, 6, 192, 360), (GF8, 4, 448, 896)):
        counts = {"involutory": 0, "orthogonal": 0}
        for row in product(range(gf.order), repeat=n):
            shifted = row[-1:] + row[:-1]
            for relation in counts:
                if Properties(gf, row).semi(relation).found:
                    counts[relation] += 1
                    kept = Properties(gf, shifted).semi(relation).found
                    assert kept == (relation == "orthogonal"), (gf.m, row, relation)
        assert counts == {"involutory": si_rows, "orthogonal": so_rows}, (gf.m, n)


def _dense_scalars(gf, row, test):
    return {c for c in range(1, gf.order) if test(gf, build([gf.mul(c, v) for v in row]))}


def test_nonzero_roots_find_the_involutory_and_orthogonal_multiples():
    # r = square_root() != 0 exactly when some dense c*A is involutory, and
    # t = gram_root() != 0 exactly when some dense c*A is orthogonal, with
    # c = r^-1 or t^-1; c*a has the roots c*r and c*t, so INV-NONE and
    # ORTH-NONE ask the same of every row of a scalar class
    held = 0
    for gf, top in ((GF4, 6), (GF8, 4), (GF16, 3)):
        for n in range(1, top + 1):
            roots = {}
            for row in product(range(gf.order), repeat=n):
                p = Properties(gf, row)
                roots[row] = p.square_root(), p.gram_root()
            for row, (r, t) in roots.items():
                if not any(row):
                    continue
                assert _dense_scalars(gf, row, is_involutory) == ({gf.inv(r)} if r else set())
                assert _dense_scalars(gf, row, is_orthogonal) == ({gf.inv(t)} if t else set())
                for c in range(2, gf.order):
                    image = tuple(gf.mul(c, v) for v in row)
                    assert roots[image] == (gf.mul(c, r), gf.mul(c, t)), (gf.m, row, c)
                held += (r != 0) + (t != 0)
    # the nonzero scalar squares (261 + 518 + 270) and the scalar-orthogonal
    # rows (339 + 1,022 + 480) of these spaces
    assert held == 1049 + 1841


@pytest.mark.parametrize("relation", ["involutory", "orthogonal"])
def test_the_nonexistence_runners_meet_their_hypothesis_at_other_orders(monkeypatch, relation):
    # INV-NONE and ORTH-NONE meet no row on the orders they admit; a probe
    # with the same runner and relation at any order counts q - 1 rows for
    # each dense involutory (orthogonal) MDS row, the members of its class,
    # and equals the ungated tally at 1 and 2 workers
    suite = {"involutory": "INV-NONE", "orthogonal": "ORTH-NONE"}[relation]
    dense = {"involutory": is_involutory, "orthogonal": is_orthogonal}[relation]
    monkeypatch.setitem(verify.SUITES, "PROBE", verify.SuiteDef(
        "PROBE", lambda n: True, "any order", verify.SUITES[suite].run, relation=relation))
    counts = {}
    for gf in (GF4, GF8, GF16):
        for n in (2, 3, 4):
            config = ScanConfig(field=gf, order=n, suites=("PROBE",))
            want = every_row_tally(config)
            for workers in (1, 2):
                got = decided(run_suite(dataclasses.replace(config, worker_count=workers)))
                assert got == want, (gf.m, n, workers)
            rows = sum(1 for row in product(range(gf.order), repeat=n)
                       if dense(gf, build(row)) and is_mds(gf, row).is_mds)
            count = want["suites"]["PROBE"]["hypothesis_count"]
            assert count == (gf.order - 1) * rows, (gf.m, n)
            if count:
                counts[gf.order, n] = count
    assert counts == {(4, 2): 6, (8, 2): 42, (16, 2): 210, **{
        "involutory": {}, "orthogonal": {(8, 3): 42, (16, 3): 180}}[relation]}


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
            fast = dense_semi_pair(GF8, A, "involutory")
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


def test_a_singular_example_fails_nonsingular_and_skips_the_rest(monkeypatch):
    # entries summing to 0 make A*(1, ..., 1) == 0, so A is singular: (a)
    # fails with its reason, and each later assertion fails as skipped
    monkeypatch.setattr(verify, "EXAMPLES", {
        1: {"row": (0x02, 0x03, 0x01), "d1": (1, 1, 1), "d2": (1, 1, 1)}})
    record = verify_example(1)
    assert record.assertions == [("nonsingular", False, "matrix is singular")] + [
        (name, False, "skipped: singular")
        for name in ("mds", "semi_orthogonal", "stated_pair_verbatim",
                     "canonical_matches_stated", "nonzero_traces")]
    assert not record.ok


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


def test_example1_negative_control_in_aes_field(monkeypatch):
    monkeypatch.setattr(verify, "REFERENCE_POLY", 0x11B)
    record = verify_example(1)
    assert record.field_poly == 0x11B
    outcomes = {name: ok for name, ok, _ in record.assertions}
    assert not outcomes["stated_pair_verbatim"]
    assert not record.ok


def test_verify_paper_reaches_neither_the_dense_inverse_nor_the_generic_solver(
        monkeypatch, capsys):
    # the golden records come from `classify` on the ring and from dense
    # products, so with the dense inverse and the generic solver gone every
    # outcome stays, and `verify-paper` still exits 1 on the known red
    from circmds import matgf
    from circmds.cli import main

    def records():
        return [verify_example(1).to_dict(), verify_example(2).to_dict()]

    def paper():
        code = main(["verify-paper", "--scale", "small"])
        doc = json.loads(capsys.readouterr().out)
        for scan in doc["scans"]:
            del scan["report"]["elapsed_seconds"]
        return code, doc

    before = records(), paper()

    def dense(*args):
        raise AssertionError("the dense path ran")

    for module, name in ((matgf, "inverse"), (props, "inverse"), (verify, "inverse"),
                         (props, "diagonal_scaling_solve"),
                         (verify, "diagonal_scaling_solve")):
        monkeypatch.setattr(module, name, dense)
    assert (records(), paper()) == before
    assert before[1][0] == 1


@pytest.mark.parametrize("example_id, poly", [(1, 0x11D), (2, 0x11D), (1, 0x11B), (2, 0x11B)])
def test_the_ring_path_record_agrees_with_the_dense_references(monkeypatch, example_id, poly):
    # 0x11B is the negative control: there example 1 has a pair off the
    # recorded orbit and example 2 has none, and neither recorded pair holds
    monkeypatch.setattr(verify, "REFERENCE_POLY", poly)
    gf = get_field(8, poly)
    spec = EXAMPLES[example_id]
    d1, d2 = spec["d1"], spec["d2"]
    A = build(spec["row"])
    outcomes = {name: ok for name, ok, _ in verify_example(example_id).assertions}
    assert outcomes["nonsingular"]  # (a): the dense inverse exists
    ainv_t = transpose(inverse(gf, A))
    pair = dense_semi_pair(gf, A, "orthogonal")
    assert classify(gf, spec["row"]).semi_orthogonal.pair == pair
    assert outcomes["semi_orthogonal"] == (pair is not None)
    on_orbit = pair is not None and any(
        pair.d1 == tuple(gf.mul(c, v) for v in d1)
        and pair.d2 == tuple(gf.mul(gf.inv(c), v) for v in d2) for c in range(1, gf.order))
    assert outcomes["canonical_matches_stated"] == on_orbit
    assert outcomes["stated_pair_verbatim"] == (sandwich(gf, d1, A, d2) == ainv_t)
    assert (on_orbit, outcomes["stated_pair_verbatim"]) == ((poly == 0x11D,) * 2)


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


# -- package surface ---------------------------------------------------------------------------


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from circmds import *", namespace)
    assert len(set(circmds.__all__)) == len(circmds.__all__)
    for name in circmds.__all__:
        assert namespace[name] is getattr(circmds, name)


def test_every_traced_attribute_resolves(monkeypatch):
    # the benchmark's tracer wraps these attributes of verify and props by
    # name, so removing one breaks `perfbench/run.py --trace 1`; the table
    # is read from the tracer itself
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    modules = {"verify": verify, "props": props}
    assert set(tracing.TRACED_ATTRIBUTES) == set(modules)
    for caller, attrs in tracing.TRACED_ATTRIBUTES.items():
        for attr in attrs:
            assert callable(getattr(modules[caller], attr, None)), (caller, attr)


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


def test_small_plan_si_pow2_hypotheses_fit_the_closed_count():
    # SI-POW2's hypothesis is the semi-involutory relation alone, so its
    # count is every semi-involutory row of the space
    counts = []
    for cfg in verification_plan("small"):
        if "SI-POW2" in cfg.suites:
            hypotheses = run_suite(cfg).suites["SI-POW2"].hypothesis_count
            assert hypotheses == semi_involutory_count(cfg.field.order, cfg.order), cfg
            counts.append(hypotheses)
    assert sorted(counts) == [12, 48, 56, 448]


def test_verification_plan_rejects_unknown_scale():
    with pytest.raises(ValueError):
        verification_plan("medium")
