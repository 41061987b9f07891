"""The mutation census: named changes to the package that named tests must catch.

    python tests/mutants.py [NAME ...]

Each mutant is a file of `src/circmds`, an exact snippet of it, the
replacement, and the tests that must fail on it.  For every mutant (or
only those named), the script copies the repository's `src/`, `tests/`,
`pyproject.toml` and `perfbench/tracing.py` to a temporary directory, makes that one replacement there, and runs only
the mutant's tests on the copy.  It prints one line per mutant: killed
when some of its tests fail, alive when all pass, with the number of
failed tests and the time.  Before the mutants it runs every named test
on an unchanged copy, which must pass.  It exits 1 if a mutant is alive
or a run errs.

Tier-1 checks only that each snippet occurs exactly once in its file
(`tests/test_mutants.py`), so a refactor that moves the code must update
this list.  A change that deletes the code of a mutant deletes the mutant
too.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "gate-folds-at-half-zeros", "src/circmds/props.py",
        "b = row if 2 * zeros < n else row_block(row)[2]",
        "b = row if 2 * zeros <= n else row_block(row)[2]",
        ("tests/test_props.py::test_pair_gate_folds_a_dense_row_with_no_block_step",
         "tests/test_props.py::test_pair_screen_matches_the_per_row_gate"),
    ),
    Mutant(
        "rejected-weight-without-transpose", "src/circmds/props.py",
        "rejected += len(item[1]) * item[2] << item[3]",
        "rejected += len(item[1]) * item[2]",
        ("tests/test_census.py::test_outputs_keep_the_committed_census",
         "tests/test_props.py::test_pair_screen_matches_the_per_row_gate"),
    ),
    Mutant(
        "screen-without-row-sum", "src/circmds/props.py",
        "            if total:\n",
        "            if any(row):\n",
        ("tests/test_props.py::test_pair_screen_matches_the_per_row_gate",),
    ),
    Mutant(
        "screen-residue-reversed", "src/circmds/props.py",
        "residue = _lanes(gf, d) * (n // d)",
        "residue = _lanes(gf, d)[::-1] * (n // d)",
        ("tests/test_props.py::test_pair_screen_matches_the_per_row_gate",
         "tests/test_props.py::test_planted_semi_orthogonal_pairs_at_large_d",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "screen-admits-block-rows-last", "src/circmds/props.py",
        "    return admitted, rejected\n",
        "    return sorted(admitted, key=lambda a: 2 * a[0][0].count(0) >= n), rejected\n",
        ("tests/test_verify.py::"
         "test_random_mode_tallies_dense_block_and_involutory_rows_in_draw_order",),
    ),
    Mutant(
        "layer-limit-only-when-built", "src/circmds/props.py",
        "            if kept > MAX_LAYER_MINORS:  # a plan built under a higher limit\n"
        "                _refuse_large_layer(n, size, kept)\n",
        "",
        ("tests/test_props.py::test_a_lowered_limit_refuses_a_size_whose_plan_is_kept",),
    ),
    Mutant(
        "layer-counted-by-listing", "src/circmds/props.py",
        "kept = _kept_minors(n, size)",
        "kept = len(_visited(n, size)) * comb(n, size)",
        ("tests/test_props.py::test_a_huge_first_row_is_refused_without_listing_its_necklaces",),
    ),
    Mutant(
        "matrix-inner-minor-a-size-too-big", "src/circmds/props.py",
        "inner = lower[i * w2:(i + 1) * w2]",
        "inner = upper[i * w2:(i + 1) * w2]",
        ("tests/test_census.py::test_outputs_keep_the_committed_census",
         "tests/test_props.py::test_is_mds_matches_definition_and_witness"),
    ),
    Mutant(
        "lane-count-per-key", "src/circmds/props.py",
        "if _lanes_held + size <= LANE_BYTES:",
        "if size * (1 + sum(map(len, _LANES[gf.poly, d]))) <= LANE_BYTES:",
        ("tests/test_circulant.py::test_lane_tables_stay_within_their_bound",),
    ),
    Mutant(
        "space-budget-inclusive", "src/circmds/verify.py",
        "if mode == EXHAUSTIVE and space > budget:",
        "if mode == EXHAUSTIVE and space >= budget:",
        ("tests/test_cli.py::test_search_and_scan_refuse_a_space_in_the_same_words"
         "[exhaustive-above-budget]",),
    ),
    Mutant(
        "stated-pair-against-a", "src/circmds/verify.py",
        "want = identity(len(row))",
        "want = A",
        ("tests/test_verify.py::test_example1_all_assertions_pass",
         "tests/test_verify.py::test_the_ring_path_record_agrees_with_the_dense_references"),
    ),
    Mutant(
        "span-state-without-words", "src/circmds/verify.py",
        "_outputs(seed + start * words * _GAMMA,",
        "_outputs(seed + start * _GAMMA,",
        ("tests/test_verify.py::test_random_rows_match_the_scalar_stream_across_block_edges",),
    ),
    Mutant(
        "block-state-not-advanced", "src/circmds/verify.py",
        "z = ((state + lo * _GAMMA) & _MASK64)",
        "z = (state & _MASK64)",
        ("tests/test_verify.py::test_random_rows_match_the_scalar_stream_across_block_edges",),
    ),
    Mutant(
        "draw-words-rounded-down", "src/circmds/verify.py",
        "words = -(-n * m // 64)",
        "words = max(1, n * m // 64)",
        ("tests/test_verify.py::test_random_rows_extend_the_one_word_stream_and_split_anywhere",),
    ),
    Mutant(
        "digit-table-high-digit-first", "src/circmds/verify.py",
        "return [digits[::-1] for digits in product(range(1 << m), repeat=12 // m)]",
        "return [digits for digits in product(range(1 << m), repeat=12 // m)]",
        ("tests/test_verify.py::test_random_rows_extend_the_one_word_stream_and_split_anywhere",),
    ),
    Mutant(
        "lane-mask-dropped-before-multiply", "src/circmds/verify.py",
        "z = (z ^ z >> 30 & mask) * 0xBF58476D1CE4E5B9 & mask",
        "z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & mask",
        ("tests/test_verify.py::test_random_rows_match_the_scalar_stream_across_block_edges",),
    ),
    Mutant(
        "irreducible-divisors-a-degree-short", "src/circmds/field.py",
        "range(2, 1 << (m // 2 + 1))",
        "range(2, 1 << (m // 2))",
        ("tests/test_field.py::test_irreducible_counts_follow_gauss",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "elimination-without-row-swap", "src/circmds/matgf.py",
        "        M[col], M[r] = M[r], M[col]\n",
        "",
        ("tests/test_matgf.py::test_det_matches_cofactor_expansion",
         "tests/test_matgf.py::test_inverse_round_trip_random",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "solver-without-off-tree-check", "src/circmds/props.py",
        "                    elif (logs[u] + logs[v] - ratio) % q1:\n"
        "                        return None\n",
        "",
        ("tests/test_props.py::test_solve_anchors_each_component_and_checks_the_entry_off_its_tree",
         "tests/test_props.py::test_solve_rejects_non_factorable_ratio",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "product-test-zero-diagonal", "src/circmds/props.py",
        "if s != (i == j):",
        "if s != 0:",
        ("tests/test_props.py::test_identity_is_involutory_and_orthogonal",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "singular-by-row-sum-alone", "src/circmds/circulant.py",
        "odd = n // (n & -n)  # n'",
        "odd = 1  # n'",
        ("tests/test_circulant.py::test_even_order_inverse_agrees_with_the_dense_inverse",
         "tests/test_props.py::test_classify_asks_for_the_inverse_only_off_mds",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "orbit-size-ignores-stabilizer", "src/circmds/verify.py",
        "size = m // (1 + tied.bit_count())",
        "size = m",
        ("tests/test_verify.py::test_frobenius_orbits_match_the_explicit_images",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "image-as-c-times-frobenius", "src/circmds/verify.py",
        "exp[((lc + log[v]) << f) % q1]",
        "exp[(lc + (log[v] << f)) % q1]",
        ("tests/test_verify.py::test_image_scales_the_row_before_the_frobenius_power",),
    ),
    Mutant(
        "fold-residue-2j", "src/circmds/props.py",
        "residue[j][",
        "residue[2 * j % n][",
        ("tests/test_props.py::test_planted_semi_orthogonal_pairs_at_large_d",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "tracer-import-dropped", "src/circmds/verify.py",
        "is_involutory, is_mds, is_orthogonal, power_scalar\n",
        "is_involutory, is_mds, is_orthogonal\n",
        ("tests/test_verify.py::test_every_traced_attribute_resolves",),
    ),
    Mutant(
        "semi-report-k-swapped", "src/circmds/props.py",
        "k1=power_scalar(gf, pair.d1, n), k2=power_scalar(gf, pair.d2, n)",
        "k1=power_scalar(gf, pair.d2, n), k2=power_scalar(gf, pair.d1, n)",
        ("tests/test_props.py::test_classify_example1",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "format-element-cache-unchecked", "src/circmds/field.py",
        "            if not 0 <= a < self.order:\n"
        "                raise OutOfRange(f\"{a} does not fit in GF(2^{self.m})\") from None\n",
        "",
        ("tests/test_field.py::"
         "test_format_element_refuses_out_of_range_before_and_after_names_are_cached",),
    ),
    Mutant(
        "power-scalar-keeps-zero", "src/circmds/props.py",
        "    if 0 in d:  # log_table[0] is a placeholder, not a log\n"
        "        return None\n",
        "",
        ("tests/test_props.py::test_power_scalar_matches_the_entrywise_powers_exhaustively",),
    ),
    Mutant(
        "euclid-stops-a-step-early", "src/circmds/circulant.py",
        "if len(r1) <= 1:",
        "if len(r1) <= 2:",
        ("tests/test_circulant.py::test_even_order_inverse_agrees_with_the_dense_inverse",
         "tests/test_props.py::test_circulant_semi_pair_agrees_with_dense_path_exhaustively",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "square-root-accepts-every-row-at-n4", "src/circmds/props.py",
        "root = row[0] ^ row[h] if row[1:h] == row[h + 1:] else 0",
        "root = row[0] ^ row[h] if n == 4 or row[1:h] == row[h + 1:] else 0",
        ("tests/test_props.py::test_pair_screen_matches_the_per_row_gate",
         "tests/test_circulant.py::test_first_row_identities_match_dense_checks_exhaustively",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "classify-drops-the-screen-roots", "src/circmds/props.py",
        "Properties(gf, row, *block_roots(gf, row, (\"involutory\", \"orthogonal\")))",
        "Properties(gf, row, block_roots(gf, row, (\"involutory\", \"orthogonal\"))[0])",
        ("tests/test_props.py::test_classify_screens_a_row_once_for_both_relations",
         "tests/test_props.py::test_a_row_folds_its_autocorrelation_at_most_once"),
    ),
    Mutant(
        "fold-plan-without-order-limit", "src/circmds/props.py",
        "    if _kept_minors(n, 2) > MAX_LAYER_MINORS:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_check_refuses_a_first_row_from_the_order_the_mds_test_refuses",),
    ),
    Mutant(
        "generator-is-x", "src/circmds/field.py",
        "            if all(self._pow_raw(g, q1 // p) != 1 for p in primes):\n",
        "            if True:  # x, primitive or not\n",
        ("tests/test_verify.py::test_field_isomorphisms_carry_classify_and_the_scan_counts",
         "tests/test_field.py::test_mul_matches_shift_reduce_sampled",
         "tests/test_census.py::test_outputs_keep_the_committed_census"),
    ),
    Mutant(
        "package-imports-the-scan-engine", "src/circmds/__init__.py",
        "__version__ = \"0.1.0\"\n",
        "from . import verify\n\n__version__ = \"0.1.0\"\n",
        ("tests/test_cli.py::test_check_and_field_info_import_no_scan_engine",),
    ),
    Mutant(
        "cli-imports-the-scan-engine", "src/circmds/cli.py",
        "from . import props\n",
        "from . import props, verify\n",
        ("tests/test_cli.py::test_check_and_field_info_import_no_scan_engine",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")
    # test_every_traced_attribute_resolves reads the tracer's table
    (dest / "perfbench").mkdir()
    shutil.copy(ROOT / "perfbench" / "tracing.py", dest / "perfbench" / "tracing.py")


def _pytest(copy: Path, tests) -> tuple[int, int, float]:
    """(exit code, failed count, seconds) of `tests` run on `copy`."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    failed = re.search(r"(\d+) failed", proc.stdout)
    return proc.returncode, int(failed.group(1)) if failed else 0, elapsed


def run(mutants) -> bool:
    """Run the census on `mutants`; True when every mutant is killed."""
    with tempfile.TemporaryDirectory(prefix="circmds-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        every = sorted({test for mutant in mutants for test in mutant.tests})
        code, failed, elapsed = _pytest(base, every)
        print(f"{'unchanged':36} {'passes' if code == 0 else f'exit {code}':>10} "
              f"{failed} failed  {elapsed:6.2f} s")
        if code != 0:
            return False
        all_killed = True
        for mutant in mutants:
            copy = Path(tmp) / mutant.name
            _copy(copy)
            path = copy / mutant.file
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement, 1))
            code, failed, elapsed = _pytest(copy, mutant.tests)
            status = {0: "alive", 1: "killed"}.get(code, f"exit {code}")
            all_killed = all_killed and code == 1
            print(f"{mutant.name:36} {status:>10} {failed} failed  {elapsed:6.2f} s")
            shutil.rmtree(copy)
    return all_killed


def main(argv) -> int:
    names = set(argv)
    unknown = names - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    return 0 if run(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
