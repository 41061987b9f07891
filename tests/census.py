"""The census: SHA-256 digests of what the program outputs on fixed inputs.

Each entry of tests/census.json is the digest of one output, with its
record count:
  verify_paper_full_jobs1,  the stdout of `verify-paper --scale full` at
  verify_paper_full_jobs2   1 and 2 workers, every "elapsed_seconds" value
                            replaced by X; records: examples plus scans
  gate_spaces_decided       the DECIDED payload entries (tests/reference.py)
                            of a scan of each suite alone on each space of
                            GATE_SPACES its order admits, one sorted-key JSON
                            line per scan; records: scans
  random_rows               the seeded rows of `verify.random_rows` at every
                            q = 2^m, m = 1 .. 16, at the orders of
                            `_draw_orders`, seeds 0, 1 and 99, each from
                            draw 0 and from the split starts 7 and 33 to
                            draw 50; records: rows
  autocorrelation_roots     `autocorrelation_roots` (tests/reference.py, the
                            lane fold's oracle) of the seeded rows of
                            `_fold_rows` at d = gcd(n, q - 1) and at d = 1;
                            records: folds
  is_mds                    the verdict and witness of `props.is_mds` on each
                            row of `_mds_rows`, read from `classify`;
                            records: rows
  classify                  `classification_json(classify(row))` of each row
                            of `_mds_rows`, as sorted-key JSON; records: rows
  is_mds_matrix             the verdict and witness of `props.is_mds` on each
                            matrix of `_mds_matrices`; records: matrices
  dense_path                `det`, `inverse` or its Singular message, the
                            solver's pairs, `is_involutory`, `is_orthogonal`
                            and `matrix_properties_json` of each matrix of
                            `_mds_matrices` (solved against its inverse and
                            inverse transpose) and of each A and B of
                            `_planted_scalings` (solved against the other);
                            records: matrices
  irreducible               `field.is_irreducible` of every polynomial of
                            degree 1 .. 12 and of HIGH_POLYS; records:
                            polynomials

A change that keeps every output keeps every digest, which
tests/test_census.py checks.  One that changes an output on purpose
rewrites the file and says which records moved:

    PYTHONPATH=src python tests/census.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from math import gcd
from pathlib import Path

from circmds import cli, verify
from circmds.field import get_field, is_irreducible
from circmds.matgf import Singular, det, inverse, sandwich, transpose
from circmds.props import (classification_json, classify, diagonal_scaling_solve,
                           is_involutory, is_mds, is_orthogonal, matrix_properties_json)

from reference import (autocorrelation_roots, decided, planted_semi_orthogonal_row,
                       planted_singular_minor_matrix, planted_singular_minor_row)

CENSUS = Path(__file__).with_name("census.json")

# every row of these spaces is tallied by each suite the order admits
GATE_SPACES = ([(get_field(2, 0x7), n) for n in range(1, 7)]
               + [(get_field(3, 0xB), n) for n in range(1, 5)]
               + [(get_field(4, 0x13), 3)])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_paper(jobs: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify-paper", "--scale", "full", "--jobs", str(jobs)])
    text = out.getvalue()
    doc = json.loads(text)
    blanked = re.sub(r'("elapsed_seconds": )[0-9.e-]+', r"\1X", text)
    return {"records": len(doc["examples"]) + len(doc["scans"]), "sha256": _digest(blanked)}


def gate_spaces() -> dict:
    lines = [
        json.dumps(decided(verify.run_suite(verify.ScanConfig(field=gf, order=n, suites=(name,)))),
                   sort_keys=True) + "\n"
        for gf, n in GATE_SPACES for name, suite in verify.SUITES.items() if suite.order_ok(n)
    ]
    return {"records": len(lines), "sha256": _digest("".join(lines))}


def _draw_orders(m: int) -> list[int]:
    """Orders of GF(2^m) rows: small ones, and those whose draws end just
    below and above one and two 64-bit words."""
    return sorted({1, 2, 3, 7, 12, 13, 64 // m, 64 // m + 1, 128 // m, 128 // m + 3})


def random_row_stream() -> dict:
    lines = [
        f"{m} {n} {seed} {start} {row}\n"
        for m in range(1, 17) for n in _draw_orders(m) for seed in (0, 1, 99)
        for start in (0, 7, 33) for row in verify.random_rows(seed, 1 << m, n, start, 50)
    ]
    return {"records": len(lines), "sha256": _digest("".join(lines))}


# (field, order, rows): every d = gcd(n, q - 1) the field offers at some order
FOLD_SPACES = [(get_field(2, 0x7), n, 120) for n in range(1, 13)] + [
    (get_field(3, 0xB), n, 120) for n in (3, 4, 7, 14)] + [
    (get_field(4, 0x13), n, 120) for n in (3, 5, 6, 9, 10, 15)] + [
    (get_field(8, 0x11D), n, 80) for n in (3, 5, 8, 15, 17, 34)] + [
    (get_field(12, 0x1053), n, 40) for n in (9, 13)] + [
    (get_field(16, 0x1002B), n, 40) for n in (3, 5, 15, 17)]


def _fold_rows() -> list:
    """(field, row) pairs: seeded rows of FOLD_SPACES, every other one with
    up to 70 % zero entries, and at odd orders dividing q - 1 planted pairs,
    an orthogonal row and a twist of it with a root mu != 1."""
    rng = random.Random(28)
    pairs = []
    for gf, n, count in FOLD_SPACES:
        for i in range(count):
            zeros = 0.7 * rng.random() if i % 2 else 0.0
            pairs.append((gf, tuple(rng.randrange(1, gf.order) if rng.random() >= zeros else 0
                                    for _ in range(n))))
        if n % 2 and (gf.order - 1) % n == 0 and n > 1:
            pairs += [(gf, row) for _ in range(4)
                      for row in planted_semi_orthogonal_row(gf, n, rng)]
    return pairs


def fold_roots() -> dict:
    lines = [
        f"{gf.poly:x} {d} {row} {autocorrelation_roots(gf, row, d)}\n"
        for gf, row in _fold_rows()
        for d in sorted({gcd(len(row), gf.order - 1), 1})
    ]
    return {"records": len(lines), "sha256": _digest("".join(lines))}


MDS_FIELDS = [get_field(2, 0x7), get_field(3, 0xB), get_field(4, 0x13), get_field(8, 0x11D),
              get_field(16, 0x1002B)]


def _mds_rows() -> list:
    """(field, row) pairs at every order n = 1 .. 10 of MDS_FIELDS: 16
    seeded rows, every fourth one with up to 30 % zero entries, and for
    each k = 1 .. n two rows with a planted singular k x k minor.  Over
    GF(2^16) most rows are MDS, and the first singular minor of most
    planted rows has size k; over the small fields it lies lower."""
    rng = random.Random(29)
    pairs = []
    for gf in MDS_FIELDS:
        for n in range(1, 11):
            for i in range(16):
                zeros = 0.3 * rng.random() if i % 4 == 3 else 0.0
                pairs.append((gf, tuple(rng.randrange(1, gf.order) if rng.random() >= zeros else 0
                                        for _ in range(n))))
            pairs += [(gf, planted_singular_minor_row(gf, n, k, rng))
                      for k in range(1, n + 1) for _ in range(2)]
    return pairs


def mds_and_classify() -> dict:
    """The is_mds and classify entries, from one `classify` per row: its
    `mds` field is `is_mds` of the row."""
    verdicts, records = [], []
    for gf, row in _mds_rows():
        cls = classify(gf, row)
        verdicts.append(f"{gf.poly:x} {row} {cls.mds.is_mds} {cls.mds.witness}\n")
        records.append(json.dumps(classification_json(gf, cls), sort_keys=True) + "\n")
    return {name: {"records": len(lines), "sha256": _digest("".join(lines))}
            for name, lines in (("is_mds", verdicts), ("classify", records))}


def _mds_matrices() -> list:
    """(field, matrix) pairs at every order n = 1 .. 8 of MDS_FIELDS: 16
    seeded matrices, every fourth one with up to 30 % zero entries, a
    Cauchy matrix 1/(x_i + y_j) on 2n distinct elements where the field
    has them, and for each k = 1 .. n two matrices with a planted singular
    k x k minor.  Past order 1 a seeded matrix is circulant with
    negligible odds, so these take the matrix path of `is_mds`."""
    rng = random.Random(33)
    pairs = []
    for gf in MDS_FIELDS:
        for n in range(1, 9):
            for i in range(16):
                zeros = 0.3 * rng.random() if i % 4 == 3 else 0.0
                pairs.append((gf, [[rng.randrange(1, gf.order) if rng.random() >= zeros else 0
                                    for _ in range(n)] for _ in range(n)]))
            if 2 * n <= gf.order:
                xs = rng.sample(range(gf.order), 2 * n)
                pairs.append((gf, [[gf.inv(x ^ y) for y in xs[n:]] for x in xs[:n]]))
            pairs += [(gf, planted_singular_minor_matrix(gf, n, k, rng))
                      for k in range(1, n + 1) for _ in range(2)]
    return pairs


def mds_matrices() -> dict:
    lines = [f"{gf.poly:x} {A} {verdict.is_mds} {verdict.witness}\n"
             for gf, A in _mds_matrices() for verdict in [is_mds(gf, A)]]
    return {"records": len(lines), "sha256": _digest("".join(lines))}


SCALING_FIELDS = [get_field(1, 0x3), get_field(2, 0x7), get_field(3, 0xB)]


def _planted_scalings() -> list:
    """(field, A, B) triples over SCALING_FIELDS at orders 2 .. 7, 12 per
    field and order.  A's rows and columns get 2 or 3 labels, and an entry
    is nonzero, with odds 0.7, only where its row and column labels agree,
    so its pattern has several components in most draws; then one row and
    one column of A are zeroed.  B is D1*A*D2 for random nonzero diagonals,
    and every other B has one nonzero entry replaced by another nonzero
    value (by 0 over GF(2)), which leaves no pair when the entry lies off
    the spanning tree."""
    rng = random.Random(34)
    triples = []
    for gf in SCALING_FIELDS:
        for n in range(2, 8):
            for i in range(12):
                labels = rng.randrange(2, 4)
                rows, cols = ([rng.randrange(labels) for _ in range(n)] for _ in range(2))
                A = [[rng.randrange(1, gf.order) if rows[r] == cols[c] and rng.random() < 0.7
                      else 0 for c in range(n)] for r in range(n)]
                zero_row, zero_col = rng.randrange(n), rng.randrange(n)
                A[zero_row] = [0] * n
                for row in A:
                    row[zero_col] = 0
                d1, d2 = ([rng.randrange(1, gf.order) for _ in range(n)] for _ in range(2))
                B = sandwich(gf, d1, A, d2)
                nonzero = [(r, c) for r in range(n) for c in range(n) if B[r][c]]
                if i % 2 and nonzero:
                    r, c = rng.choice(nonzero)
                    B[r][c] = rng.choice([v for v in range(1, gf.order) if v != B[r][c]] or [0])
                triples.append((gf, A, B))
    return triples


def _dense_line(gf, A, targets) -> str:
    try:
        inv = inverse(gf, A)
    except Singular as exc:
        inv = f"Singular({exc})"
    pairs = [diagonal_scaling_solve(gf, A, B) for B in targets]
    record = json.dumps(matrix_properties_json(gf, A), sort_keys=True)
    return (f"{gf.poly:x} {A} {det(gf, A)} {inv} {pairs} "
            f"{is_involutory(gf, A)} {is_orthogonal(gf, A)} {record}\n")


def dense_path() -> dict:
    lines = []
    for gf, A in _mds_matrices():
        try:
            inv = inverse(gf, A)
        except Singular:
            lines.append(_dense_line(gf, A, []))
        else:
            lines.append(_dense_line(gf, A, [inv, transpose(inv)]))
    for gf, A, B in _planted_scalings():
        lines += [_dense_line(gf, A, [B]), _dense_line(gf, B, [A])]
    return {"records": len(lines), "sha256": _digest("".join(lines))}


# the polynomials of degree 13 .. 16 that the tests build fields on
HIGH_POLYS = ((16, 0x1002B), (16, 0x1100B))


def irreducible() -> dict:
    polys = [(m, poly) for m in range(1, 13) for poly in range(1 << m, 2 << m)] + list(HIGH_POLYS)
    lines = [f"{m} {poly:x} {is_irreducible(poly, m)}\n" for m, poly in polys]
    return {"records": len(lines), "sha256": _digest("".join(lines))}


def census() -> dict:
    return {
        "verify_paper_full_jobs1": verify_paper(1),
        "verify_paper_full_jobs2": verify_paper(2),
        "gate_spaces_decided": gate_spaces(),
        "random_rows": random_row_stream(),
        "autocorrelation_roots": fold_roots(),
        **mds_and_classify(),
        "is_mds_matrix": mds_matrices(),
        "dense_path": dense_path(),
        "irreducible": irreducible(),
    }


if __name__ == "__main__":
    CENSUS.write_text(json.dumps(census(), indent=2) + "\n")
