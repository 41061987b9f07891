"""Theorem scan suites over circulant first rows, plus golden-instance checks.

A scan enumerates candidate first rows over a field (exhaustively, or by
seeded sampling), evaluates one or more suites on every candidate, and
returns a `ScanReport`.  Each implication suite counts the candidates that
satisfy its hypothesis and those that also satisfy its conclusion; any gap
is recorded as a counterexample, so a correct implementation always
produces an empty counterexample list.

Determinism contract: given equal (field, order, suites, mode, seed,
sample_count, extra_rows), the report payload is bit-identical across runs
and across worker counts.  Candidates are enumerated as base-q counters
with c_0 in the least significant position, split into fixed-size chunks
that are merged in order; random mode draws rows from a SplitMix64 stream
seeded once up front.  Wall-clock time and worker count live outside the
deterministic payload.

Suites:
  INV-NONE      involutory and MDS simultaneously: expected empty (n >= 3)
  ORTH-NONE     orthogonal and MDS at order 2^d, d >= 2: expected empty
  SO-POW2       semi-orthogonal at order 2^d: both diagonal traces zero
  SI-POW2       semi-involutory at order 2^d: both diagonal traces zero
  SO-MOD4       semi-orthogonal MDS at order == 0 mod 4 (not a power of
                two): both traces zero
  SO-MOD2       semi-orthogonal MDS at order == 2 mod 4 (>= 6): every
                non-periodic associated diagonal has trace zero
  SI-GEN        semi-involutory MDS at order >= 3, not a power of two:
                both traces zero
  SO-ODD-EXIST  odd order: collect semi-orthogonal MDS instances and count
                how many carry a nonzero-trace diagonal (existence survey,
                not an implication)

Every suite additionally asserts, on each semi-property instance it finds,
that the n-th powers of both recovered diagonals are scalar matrices, and,
on each even-order MDS instance, that both interleaved first-row sums are
nonzero; failures of these side invariants are reported separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Optional

from .circulant import build, interleaved_sums
from .field import GF2m, get_field
from .matgf import Singular, diag_trace, inverse, sandwich, transpose
from .props import (
    SCHEMA_VERSION,
    DiagonalPair,
    Properties,
    diagonal_scaling_solve,
    is_mds,
    is_power_of_two,
)
# unused here; perfbench/tracing.py wraps these verify attributes by name
from .props import is_involutory, is_orthogonal, power_scalar

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

DEFAULT_BUDGET = 1 << 24
DEFAULT_SAMPLES = 4096
DEFAULT_SEED = 0x5EED
CHUNK = 16384


class BudgetExceeded(ValueError):
    """Exhaustive candidate space larger than the configured budget."""


class IncompatibleSuite(ValueError):
    """Suite constraint on the order is violated."""


# -- seeded candidate stream --------------------------------------------------

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream: same seed gives the same u64 sequence everywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform draw in [0, bound) by rejection (bound <= 2^64)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def index_to_row(index: int, q: int, n: int) -> tuple[int, ...]:
    """Base-q digits of index, least significant digit = c_0."""
    row = []
    for _ in range(n):
        index, digit = divmod(index, q)
        row.append(digit)
    return tuple(row)


def row_to_index(row, q: int) -> int:
    idx = 0
    for digit in reversed(list(row)):
        idx = idx * q + digit
    return idx


# -- suite definitions ---------------------------------------------------------
#
# A runner takes a row's `Properties` and returns (hypothesis, conclusion,
# extras).  Each evaluates its hypothesis left to right and stops at the
# first false part, MDS last: the side-invariant counts follow what the
# runners evaluated, so this order is part of the report.


def _run_inv_none(p: Properties):
    return p.involutory() and p.mds().is_mds, False, None


def _run_orth_none(p: Properties):
    return p.orthogonal() and p.mds().is_mds, False, None


def _traces_zero(relation: str, needs_mds: bool):
    """Runner: every `relation` pair (on an MDS row if `needs_mds`) has both traces zero."""
    def run(p: Properties):
        rep = p.semi(relation)
        if not rep.found or needs_mds and not p.mds().is_mds:
            return False, False, None
        return True, rep.trace_d1 == 0 and rep.trace_d2 == 0, None
    return run


def _run_so_mod2(p: Properties):
    rep = p.semi("orthogonal")
    if not rep.found or not p.mds().is_mds:
        return False, False, None
    np1, np2 = p.nonperiodic()
    if not (np1 or np2):
        return False, False, None
    return True, (not np1 or rep.trace_d1 == 0) and (not np2 or rep.trace_d2 == 0), None


def _run_so_odd_exist(p: Properties):
    rep = p.semi("orthogonal")
    if not rep.found or not p.mds().is_mds:
        return False, False, None
    nonzero = rep.trace_d1 != 0 or rep.trace_d2 != 0
    return True, True, {"nonzero_trace": 1} if nonzero else {"zero_trace": 1}


def _order_pow2(n: int) -> bool:
    return n >= 2 and is_power_of_two(n)


@dataclass(frozen=True)
class SuiteDef:
    name: str
    order_ok: object  # callable(n) -> bool
    order_note: str
    run: object  # callable(Properties) -> (hyp, ok, extras)
    implication: bool = True


SUITES: dict[str, SuiteDef] = {
    s.name: s
    for s in (
        SuiteDef("INV-NONE", lambda n: n >= 3, "order >= 3", _run_inv_none),
        SuiteDef("ORTH-NONE", lambda n: n >= 4 and is_power_of_two(n),
                 "order 2^d with d >= 2", _run_orth_none),
        SuiteDef("SO-POW2", _order_pow2, "order a power of two",
                 _traces_zero("orthogonal", needs_mds=False)),
        SuiteDef("SI-POW2", _order_pow2, "order a power of two",
                 _traces_zero("involutory", needs_mds=False)),
        SuiteDef("SO-MOD4", lambda n: n % 4 == 0 and not is_power_of_two(n),
                 "order == 0 mod 4, not a power of two",
                 _traces_zero("orthogonal", needs_mds=True)),
        SuiteDef("SO-MOD2", lambda n: n % 4 == 2 and n >= 6,
                 "order == 2 mod 4, >= 6", _run_so_mod2),
        SuiteDef("SI-GEN", lambda n: n >= 3 and not is_power_of_two(n),
                 "order >= 3, not a power of two",
                 _traces_zero("involutory", needs_mds=True)),
        SuiteDef("SO-ODD-EXIST", lambda n: n >= 3 and n % 2 == 1, "odd order >= 3",
                 _run_so_odd_exist, implication=False),
    )
}


# -- scan configuration and report ---------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    field: GF2m
    order: int
    suites: tuple[str, ...]
    mode: str = EXHAUSTIVE
    seed: int = DEFAULT_SEED
    sample_count: int = DEFAULT_SAMPLES
    extra_rows: tuple[tuple[int, ...], ...] = ()
    worker_count: int = 1
    budget: int = DEFAULT_BUDGET

    def validate(self) -> None:
        if self.mode not in (EXHAUSTIVE, RANDOM):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.worker_count < 1:
            raise ValueError(f"worker count must be at least 1, got {self.worker_count}")
        if self.sample_count < 0:
            raise ValueError(f"sample count must not be negative, got {self.sample_count}")
        if not self.suites:
            raise IncompatibleSuite("at least one suite required")
        for name in self.suites:
            suite = SUITES.get(name)
            if suite is None:
                raise IncompatibleSuite(f"unknown suite {name!r}")
            if not suite.order_ok(self.order):
                raise IncompatibleSuite(
                    f"suite {name} needs {suite.order_note}, got order {self.order}"
                )
        space = self.field.order ** self.order
        if self.mode == EXHAUSTIVE and space > self.budget:
            raise BudgetExceeded(
                f"exhaustive space {space} exceeds budget {self.budget}"
            )
        for row in self.extra_rows:
            if len(row) != self.order:
                raise ValueError(f"extra row {row} does not match order {self.order}")
            if any(not 0 <= v < self.field.order for v in row):
                raise ValueError(f"extra row {row} has out-of-field entries")


@dataclass
class SuiteResult:
    name: str
    hypothesis_count: int = 0
    conclusion_count: int = 0
    counterexamples: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)


@dataclass
class ScanReport:
    config: ScanConfig
    space_size: int
    examined: int
    suites: dict
    power_scalar_checked: int
    power_scalar_failures: list
    interleaved_checked: int
    interleaved_failures: list
    elapsed_seconds: float

    def ok(self) -> bool:
        for res in self.suites.values():
            if res.counterexamples:
                return False
            if SUITES[res.name].implication and res.hypothesis_count != res.conclusion_count:
                return False
        return not self.power_scalar_failures and not self.interleaved_failures

    def payload(self) -> dict:
        """The deterministic portion of the report (excludes timing/workers)."""
        gf = self.config.field
        fmt = gf.format_element

        def fmt_row(row):
            return [fmt(v) for v in row]

        return {
            "schema_version": SCHEMA_VERSION,
            "field": {"m": gf.m, "poly": f"0x{gf.poly:X}"},
            "order": self.config.order,
            "mode": self.config.mode,
            "seed": self.config.seed if self.config.mode == RANDOM else None,
            "sample_count": self.config.sample_count if self.config.mode == RANDOM else None,
            "extra_rows": [fmt_row(r) for r in self.config.extra_rows],
            "space_size": self.space_size,
            "examined": self.examined,
            "suites": {
                name: {
                    "hypothesis_count": res.hypothesis_count,
                    "conclusion_count": res.conclusion_count,
                    "counterexamples": [fmt_row(r) for r in res.counterexamples],
                    "extras": dict(sorted(res.extras.items())),
                }
                for name, res in sorted(self.suites.items())
            },
            "side_invariants": {
                "power_scalar_checked": self.power_scalar_checked,
                "power_scalar_failures": [
                    {"relation": rel, "diagonal": diag, "first_row": fmt_row(r)}
                    for rel, diag, r in self.power_scalar_failures
                ],
                "interleaved_checked": self.interleaved_checked,
                "interleaved_failures": [fmt_row(r) for r in self.interleaved_failures],
            },
            "ok": self.ok(),
        }

    def to_dict(self) -> dict:
        out = self.payload()
        out["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        out["worker_count"] = self.config.worker_count
        return out


# -- scan execution -------------------------------------------------------------


def _scan_chunk(args):
    m, poly, suite_names, chunk = args
    gf = get_field(m, poly)
    runners = [(name, SUITES[name].run) for name in suite_names]
    agg = {
        name: {"hyp": 0, "concl": 0, "cex": [], "extras": {}}
        for name in suite_names
    }
    power_checked = 0
    power_failures = []
    inter_checked = 0
    inter_failures = []
    examined = 0

    kind = chunk[0]
    if kind == "range":
        _, q, n, start, end = chunk
        rows = (index_to_row(i, q, n) for i in range(start, end))
    else:
        _, row_list = chunk
        rows = iter(row_list)

    for row in rows:
        examined += 1
        p = Properties(gf, row)
        for name, run in runners:
            hyp, ok, extras = run(p)
            if not hyp:
                continue
            slot = agg[name]
            slot["hyp"] += 1
            if ok:
                slot["concl"] += 1
            else:
                slot["cex"].append(row)
            if extras:
                for key, inc in extras.items():
                    slot["extras"][key] = slot["extras"].get(key, 0) + inc
        # side invariants, on what the suites evaluated
        for relation, rep in p.semi_reports.items():
            if rep.found:
                power_checked += 2
                for diag, k in (("d1", rep.k1), ("d2", rep.k2)):
                    if k is None:
                        power_failures.append(("semi-" + relation, diag, row))
        verdict = p.mds_verdict
        if verdict is not None and verdict.is_mds and len(row) % 2 == 0:
            inter_checked += 1
            even, odd = interleaved_sums(row)
            if even == 0 or odd == 0:
                inter_failures.append(row)

    return {
        "suites": agg,
        "examined": examined,
        "power_checked": power_checked,
        "power_failures": power_failures,
        "inter_checked": inter_checked,
        "inter_failures": inter_failures,
    }


def _chunk_specs(config: ScanConfig) -> list:
    gf = config.field
    q = gf.order
    n = config.order
    specs = []
    if config.extra_rows:
        specs.append(("rows", tuple(config.extra_rows)))
    if config.mode == EXHAUSTIVE:
        space = q ** n
        for start in range(0, space, CHUNK):
            specs.append(("range", q, n, start, min(start + CHUNK, space)))
    else:
        rng = SplitMix64(config.seed)
        space = q ** n
        drawn = [index_to_row(rng.next_below(space), q, n)
                 for _ in range(config.sample_count)]
        for start in range(0, len(drawn), CHUNK):
            specs.append(("rows", tuple(drawn[start:start + CHUNK])))
    return specs


def run_suite(config: ScanConfig) -> ScanReport:
    """Run every configured suite in a single pass over the candidates."""
    config.validate()
    gf = config.field
    started = time.perf_counter()
    specs = _chunk_specs(config)
    args = [(gf.m, gf.poly, config.suites, spec) for spec in specs]

    if config.worker_count > 1 and len(args) > 1:
        # imported here: it loads multiprocessing, which a 1-worker scan never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            partials = list(pool.map(_scan_chunk, args))
    else:
        partials = [_scan_chunk(a) for a in args]

    suites = {name: SuiteResult(name) for name in config.suites}
    examined = 0
    power_checked = 0
    power_failures = []
    inter_checked = 0
    inter_failures = []
    for part in partials:
        examined += part["examined"]
        power_checked += part["power_checked"]
        power_failures.extend(part["power_failures"])
        inter_checked += part["inter_checked"]
        inter_failures.extend(part["inter_failures"])
        for name, slot in part["suites"].items():
            res = suites[name]
            res.hypothesis_count += slot["hyp"]
            res.conclusion_count += slot["concl"]
            res.counterexamples.extend(slot["cex"])
            for key, inc in slot["extras"].items():
                res.extras[key] = res.extras.get(key, 0) + inc

    return ScanReport(
        config=config,
        space_size=gf.order ** config.order,
        examined=examined,
        suites=suites,
        power_scalar_checked=power_checked,
        power_scalar_failures=power_failures,
        interleaved_checked=inter_checked,
        interleaved_failures=inter_failures,
        elapsed_seconds=time.perf_counter() - started,
    )


# -- brute-force oracle for the semi-property definitions ------------------------

ORACLE_MAX_Q = 8
ORACLE_MAX_N = 3


def oracle_semi_search(gf: GF2m, A, relation: str) -> Optional[DiagonalPair]:
    """Decide a semi-property by trying every nonzero diagonal pair.

    `relation` is "involutory" (target A^-1) or "orthogonal" (target A^-T).
    Independent of the ratio-propagation solver: for each of the (q-1)^n
    left diagonals, each right-diagonal entry is tested against every row
    of its column.  Kept to q <= 8, n <= 3, where (q-1)^(2n) is desk-sized.
    """
    n = len(A)
    q = gf.order
    if q > ORACLE_MAX_Q or n > ORACLE_MAX_N:
        raise BudgetExceeded(
            f"oracle limited to q <= {ORACLE_MAX_Q}, n <= {ORACLE_MAX_N}"
        )
    B = inverse(gf, A)  # raises Singular: the semi-properties need A^-1
    if relation == "orthogonal":
        B = transpose(B)
    elif relation != "involutory":
        raise ValueError(f"unknown relation {relation!r}")
    mul = gf.mul
    nonzero = range(1, q)
    a_cols = [[A[i][j] for i in range(n)] for j in range(n)]
    b_cols = [[B[i][j] for i in range(n)] for j in range(n)]
    rows_idx = range(n)
    for d in product(nonzero, repeat=n):
        pick = []
        for j in range(n):
            ac = a_cols[j]
            bc = b_cols[j]
            found = None
            for e in nonzero:
                if all(mul(mul(d[i], ac[i]), e) == bc[i] for i in rows_idx):
                    found = e
                    break
            if found is None:
                break
            pick.append(found)
        else:
            return DiagonalPair(tuple(d), tuple(pick), anchors=())
    return None


# -- golden reference instances ---------------------------------------------------

REFERENCE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1, primitive

# Published odd-order semi-orthogonal MDS circulants over GF(2^8)/0x11D with
# their associated diagonal pairs, written with a = the class of x (0x02):
#   1: circulant(a, a+1, a^2+a),
#      D1 = (a^7+a^6+a^5+a) * I, D2 = (a^6+a^4+a^3+a) * I
#   2: circulant(1, 1+a+a^3, 1+a+a^3, a+a^3, 1+a^3+a^4+a^7),
#      D1 = (a^2+a, a^7+a^2+1, a^7+a^6+a^5+a^4+a^2,
#            a^5+a^4+a^3+a^2, a^6+a^3+a+1),
#      D2 = (a^7+a^6+a^3+a^2+a+1, a^7+a^5+a^3, a^7+a^5+a^4+a^2+1,
#            a^6+a^5+a^2, a^7+a^5+a^4+a^2+a)
EXAMPLES = {
    1: {
        "row": (0x02, 0x03, 0x06),
        "d1": (0xE2, 0xE2, 0xE2),
        "d2": (0x5A, 0x5A, 0x5A),
    },
    2: {
        "row": (0x01, 0x0B, 0x0B, 0x0A, 0x99),
        "d1": (0x06, 0x85, 0xF4, 0x3C, 0x4B),
        "d2": (0xCF, 0xA8, 0xB5, 0x64, 0xB6),
    },
}


@dataclass
class ExampleRecord:
    example_id: int
    field_m: int
    field_poly: int
    assertions: list  # of (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)

    def to_dict(self) -> dict:
        return {
            "example": self.example_id,
            "field": {"m": self.field_m, "poly": f"0x{self.field_poly:X}"},
            "assertions": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.assertions
            ],
            "ok": self.ok,
        }


def verify_example(example_id: int, poly: int = REFERENCE_POLY) -> ExampleRecord:
    """Re-derive one golden instance and check all six stated assertions.

    (a) nonsingular, (b) MDS, (c) semi-orthogonal, (d) the recorded pair
    satisfies A^-T == D1*A*D2 verbatim, (e) the solver's canonical pair is
    a scalar multiple of the recorded one, (f) both recorded diagonals have
    nonzero trace.  The `poly` override exists as a negative control: the
    recorded pairs are tied to 0x11D and must fail (d) elsewhere.
    """
    spec = EXAMPLES[example_id]
    gf = get_field(8, poly)
    row = spec["row"]
    d1p = spec["d1"]
    d2p = spec["d2"]
    A = build(row)
    record = ExampleRecord(example_id, gf.m, poly, [])
    asserts = record.assertions

    try:
        ainv_t = transpose(inverse(gf, A))
    except Singular:
        asserts.append(("nonsingular", False, "matrix is singular"))
        for name in ("mds", "semi_orthogonal", "stated_pair_verbatim",
                     "canonical_matches_stated", "nonzero_traces"):
            asserts.append((name, False, "skipped: singular"))
        return record
    asserts.append(("nonsingular", True, None))

    verdict = is_mds(gf, A)
    asserts.append(("mds", verdict.is_mds,
                    None if verdict.is_mds else f"singular minor {verdict.witness}"))

    pair = diagonal_scaling_solve(gf, A, ainv_t)
    asserts.append(("semi_orthogonal", pair is not None,
                    None if pair is not None else "no diagonal pair exists"))

    stated = sandwich(gf, d1p, A, d2p)
    if stated == ainv_t:
        asserts.append(("stated_pair_verbatim", True, None))
    else:
        diff = next(
            (i, j) for i in range(len(A)) for j in range(len(A))
            if stated[i][j] != ainv_t[i][j]
        )
        i, j = diff
        asserts.append((
            "stated_pair_verbatim", False,
            f"first differing entry ({i},{j}): "
            f"D1*A*D2 gives {gf.format_element(stated[i][j])}, "
            f"A^-T has {gf.format_element(ainv_t[i][j])}",
        ))

    if pair is None:
        asserts.append(("canonical_matches_stated", False, "skipped: no solver pair"))
    else:
        scale = gf.mul(pair.d1[0], gf.inv(d1p[0]))
        inv_scale = gf.inv(scale)
        mismatch = None
        for i in range(len(row)):
            if pair.d1[i] != gf.mul(scale, d1p[i]):
                mismatch = ("d1", i)
                break
            if pair.d2[i] != gf.mul(inv_scale, d2p[i]):
                mismatch = ("d2", i)
                break
        asserts.append((
            "canonical_matches_stated", mismatch is None,
            None if mismatch is None else
            f"{mismatch[0]}[{mismatch[1]}] not on the scalar orbit "
            f"(scale {gf.format_element(scale)})",
        ))

    t1 = diag_trace(d1p)
    t2 = diag_trace(d2p)
    asserts.append((
        "nonzero_traces", t1 != 0 and t2 != 0,
        f"trace(D1)={gf.format_element(t1)}, trace(D2)={gf.format_element(t2)}",
    ))
    return record


# -- the bundled verification plan -------------------------------------------------

GF4 = (2, 0x7)
GF8 = (3, 0xB)
GF256 = (8, REFERENCE_POLY)


def verification_plan(scale: str = "full", worker_count: int = 1) -> list[ScanConfig]:
    """Scan configurations backing the `verify-paper` command.

    `small` keeps the sub-second GF(4)/GF(8) exhaustives (orders <= 5);
    `full` adds the order-6 exhaustives over GF(8), sampled order-12
    coverage, and the sampled odd-order existence survey over GF(2^8).
    """
    if scale not in ("small", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    cfgs = []

    def cfg(field, order, suites, **kw):
        cfgs.append(ScanConfig(
            field=get_field(*field), order=order, suites=tuple(suites),
            worker_count=worker_count, **kw,
        ))

    for fld in (GF4, GF8):
        cfg(fld, 2, ("SO-POW2", "SI-POW2"))
        cfg(fld, 3, ("INV-NONE",) if fld == GF4 else ("INV-NONE", "SI-GEN"))
        cfg(fld, 4, ("INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2"))
        cfg(fld, 5, ("INV-NONE",) if fld == GF4 else ("INV-NONE", "SI-GEN"))
    if scale == "full":
        cfg(GF8, 6, ("SO-MOD2", "SI-GEN"))
        cfg(GF4, 12, ("SO-MOD4",), mode=RANDOM, sample_count=2048)
        cfg(GF256, 3, ("SO-ODD-EXIST",), mode=RANDOM, sample_count=2048,
            extra_rows=(EXAMPLES[1]["row"],))
    return cfgs
