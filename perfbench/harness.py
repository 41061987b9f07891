"""The three benchmark workloads, their output checks and their metrics.

Import this module only once `src/` of the checkout is on `sys.path`; `run.py`
does that.  Every call into circmds goes through a module attribute looked
up at call time (`verify.run_suite`, `props.classify`, ...), so the tracer in
`tracing.py` sees the same calls the untraced passes make.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from circmds import circulant, field, matgf, props, verify
from gauge import Gauge
from tracing import SpanStats, Tracer, counting_field_ops

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 21
MODULES = {"verify": verify, "props": props}

GOLDEN_ROWS = ((0x02, 0x03, 0x06), (0x01, 0x0B, 0x0B, 0x0A, 0x99))
CHECK_FIELD = (8, 0x11D)
CHECK_ORDERS = range(4, 9)
CHECK_ROWS_PER_ORDER = 40
# Fixed stream of the check-mix base rows.  The workload seed moves each
# base row along its orbit under scalar multiplication and the Frobenius
# map; see `check_mix_rows`.
CHECK_BASE_SEED = 0xC1C

# keys of classification_json that scalar multiplication and the Frobenius
# map leave unchanged
ORBIT_INVARIANT_KEYS = (
    "schema_version", "field", "order", "category", "singular", "mds",
    "mds_witness", "nonperiodic_d1", "nonperiodic_d2",
)


# -- inputs --------------------------------------------------------------------


def _scan_config(fld, order, suites, **kw) -> verify.ScanConfig:
    return verify.ScanConfig(field=field.get_field(*fld), order=order, suites=suites, **kw)


def scan_configs(workload: str, seed: int) -> dict[str, verify.ScanConfig]:
    """Pinned here, not taken from `verification_plan`, so retargeting the
    plan does not change the benchmark's inputs.

    The exhaustive configs are small, so that each call lasts well under a
    second at one worker and a run repeats it many times; see `timed_run`.
    GF(32) n=3 has two chunks, so the traced run's 2-worker pass starts the
    pool.
    """
    if workload == "scan-exhaustive":
        return {
            "gf4-n6": _scan_config((2, 0x7), 6, ("SO-MOD2", "SI-GEN")),
            "gf8-n4": _scan_config(
                (3, 0xB), 4, ("INV-NONE", "ORTH-NONE", "SO-POW2", "SI-POW2")),
            "gf32-n3": _scan_config((5, 0x25), 3, ("INV-NONE", "SI-GEN")),
        }
    return {
        "gf256-n3": _scan_config(
            CHECK_FIELD, 3, ("SO-ODD-EXIST",), mode=verify.RANDOM, seed=seed,
            sample_count=2048, extra_rows=(GOLDEN_ROWS[0],)),
        "gf4-n12": _scan_config(
            (2, 0x7), 12, ("SO-MOD4",), mode=verify.RANDOM, seed=seed, sample_count=2048),
    }


def _pow_raw(gf, a: int, e: int) -> int:
    r = 1
    for _ in range(e):
        r = gf.mul_raw(r, a)
    return r


def check_mix_rows(seed: int) -> list[tuple[int, ...]]:
    """Base rows from a fixed stream, each mapped to c * v^(2^f) entrywise
    with c and f drawn from `seed`; then both golden rows.

    Entries come from the whole field and differ from seed to seed.  The
    map is a field automorphism followed by a scaling, so it keeps which
    minors vanish, the elimination pattern and the semi-property solutions
    up to scaling: every seed makes the same amount of work.  Fresh random
    rows would not: the rare MDS rows of order 8 cost about 300 ms each,
    and their number per pass varies by seed.
    """
    gf = field.get_field(*CHECK_FIELD)
    base_rng = random.Random(CHECK_BASE_SEED)
    rng = random.Random(seed)
    rows = []
    for _ in range(CHECK_ROWS_PER_ORDER):
        for n in CHECK_ORDERS:
            base = [base_rng.randrange(gf.order) for _ in range(n)]
            c = rng.randrange(1, gf.order)
            f = rng.randrange(gf.m)
            rows.append(tuple(gf.mul_raw(c, _pow_raw(gf, v, 1 << f)) for v in base))
    rows.extend(GOLDEN_ROWS)
    return rows


# -- workloads -----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    fields: tuple                  # (m, poly) pairs prepared by set-up
    # (group, call): call(workers) -> (candidates, output)
    calls: list
    check: Callable                # (call index, output) -> error or None


def _scan_call(cfg: verify.ScanConfig):
    def call(workers: int):
        report = verify.run_suite(dataclasses.replace(cfg, worker_count=workers))
        return report.examined, scan_projection(report.payload())
    return call


def scan_projection(payload: dict) -> dict:
    """The schema-1 content of a scan payload, without `ok` and without any
    key added later."""
    side = payload["side_invariants"]
    return {
        "space_size": payload["space_size"],
        "examined": payload["examined"],
        "suites": {
            name: {key: suite[key] for key in
                   ("hypothesis_count", "conclusion_count", "counterexamples", "extras")}
            for name, suite in payload["suites"].items()
        },
        "side_invariants": {key: side[key] for key in (
            "power_scalar_checked", "power_scalar_failures",
            "interleaved_checked", "interleaved_failures")},
    }


def _check_sampled(cfg: verify.ScanConfig, proj: dict) -> Optional[str]:
    """What must hold for a sampled scan on any seed."""
    if proj["examined"] != cfg.sample_count + len(cfg.extra_rows):
        return f"examined {proj['examined']}"
    if proj["space_size"] != cfg.field.order ** cfg.order:
        return f"space_size {proj['space_size']}"
    for name, suite in proj["suites"].items():
        if suite["counterexamples"]:
            return f"{name} has counterexamples"
        if verify.SUITES[name].implication and suite["hypothesis_count"] != suite["conclusion_count"]:
            return f"{name} hypothesis and conclusion counts differ"
    side = proj["side_invariants"]
    if side["power_scalar_failures"] or side["interleaved_failures"]:
        return "side invariant failures"
    if "SO-ODD-EXIST" in proj["suites"] and proj["suites"]["SO-ODD-EXIST"]["extras"].get("nonzero_trace", 0) < 1:
        return "SO-ODD-EXIST found no nonzero-trace instance"
    return None


def scan_workload(name: str, seed: int, reference: dict) -> Workload:
    configs = scan_configs(name, seed)
    labels = list(configs)
    exact = name == "scan-exhaustive" or seed == reference["seed"]

    def check(index: int, proj) -> Optional[str]:
        label = labels[index]
        if exact:
            return None if proj == reference[name][label] else f"{label}: differs from the reference"
        err = _check_sampled(configs[label], proj)
        return None if err is None else f"{label}: {err}"

    return Workload(
        name=name,
        fields=tuple((c.field.m, c.field.poly) for c in configs.values()),
        calls=[(label, _scan_call(cfg)) for label, cfg in configs.items()],
        check=check,
    )


def _classify_call(gf, row):
    def call(workers: int):
        return 1, props.classification_json(gf, props.classify(gf, row))
    return call


def _matmul_raw(gf, A, B):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            s = 0
            for k in range(n):
                s ^= gf.mul_raw(A[i][k], B[k][j])
            row.append(s)
        out.append(row)
    return out


def check_by_definition(gf, row, out: dict) -> Optional[str]:
    """Check `classification_json` of a circulant row against the property
    definitions, using shift-and-reduce products only."""
    n = len(row)
    fmt = gf.format_element
    if out["first_row"] != [fmt(v) for v in row]:
        return "first_row"
    A = [[row[(j - i) % n] for j in range(n)] for i in range(n)]
    At = [list(col) for col in zip(*A)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    if out["singular"]:
        return None if not (out["involutory"] or out["orthogonal"]) else "singular but involutory/orthogonal"
    if out["involutory"] != (_matmul_raw(gf, A, A) == eye):
        return "involutory"
    if out["orthogonal"] != (_matmul_raw(gf, A, At) == eye):
        return "orthogonal"
    for key, left in (("semi_involutory", A), ("semi_orthogonal", At)):
        rep = out[key]
        if not rep["found"]:
            continue
        d1 = [int(v, 16) for v in rep["d1"]]
        d2 = [int(v, 16) for v in rep["d2"]]
        S = [[gf.mul_raw(gf.mul_raw(d1[i], A[i][j]), d2[j]) for j in range(n)] for i in range(n)]
        if _matmul_raw(gf, left, S) != eye or d1[0] != 1:
            return f"{key} pair"
        for d, k, t in ((d1, rep["k1"], rep["trace_d1"]), (d2, rep["k2"], rep["trace_d2"])):
            powers = {_pow_raw(gf, v, n) for v in d}
            want_k = fmt(powers.pop()) if len(powers) == 1 else None
            trace = 0
            for v in d:
                trace ^= v
            if k != want_k or t != fmt(trace):
                return f"{key} scalar or trace"
    return None


def check_mix_workload(seed: int, reference: dict) -> Workload:
    gf = field.get_field(*CHECK_FIELD)
    rows = check_mix_rows(seed)
    refs = reference["check-mix"]
    golden_from = len(rows) - len(GOLDEN_ROWS)
    exact = seed == reference["seed"]

    def check(index: int, out) -> Optional[str]:
        ref = refs[index]
        if exact or index >= golden_from:
            return None if out == ref else f"row {index}: differs from the reference"
        for key in ORBIT_INVARIANT_KEYS:
            if out[key] != ref[key]:
                return f"row {index}: {key} differs from the reference"
        for key in ("semi_involutory", "semi_orthogonal"):
            if out[key]["found"] != ref[key]["found"]:
                return f"row {index}: {key}.found differs from the reference"
        err = check_by_definition(gf, rows[index], out)
        return None if err is None else f"row {index}: {err}"

    return Workload(
        name="check-mix", fields=(CHECK_FIELD,),
        calls=[("check", _classify_call(gf, row)) for row in rows],
        check=check,
    )


WORKLOADS = ("scan-exhaustive", "scan-sampled", "check-mix")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def make_workload(name: str, seed: int, reference: dict) -> Workload:
    if name == "check-mix":
        return check_mix_workload(seed, reference)
    return scan_workload(name, seed, reference)


# -- passes and output checks ----------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    samples: list       # (seconds, candidates) per call
    outputs: list
    # per call: seconds at the gauge's reference speed (gauged passes only)
    scaled: Optional[list] = None

    @property
    def candidates(self) -> int:
        return sum(c for _, c in self.samples)


def run_pass(workload: Workload, workers: int, tracer: Optional[Tracer] = None,
             gauge: Optional[Gauge] = None) -> Pass:
    """One pass over the workload's calls.  With a gauge, its kernel runs
    between calls whenever its last reading is older than `gauge.READ_EVERY_S`,
    and once after the last call; `wall_s` then includes those readings."""
    clock = time.perf_counter
    samples, outputs, spans = [], [], []
    start = clock()
    for group, call in workload.calls:
        if tracer is not None:
            tracer.group = group
        if gauge is not None:
            gauge.read_if_due()
        t0 = clock()
        try:
            candidates, out = call(workers)
        except Exception as exc:  # a raising call is a failed call; keep measuring
            candidates, out = 0, f"raised {type(exc).__name__}: {exc}"
        t1 = clock()
        samples.append((t1 - t0, candidates))
        spans.append((t0, t1))
        outputs.append(out)
    scaled = None
    if gauge is not None:
        gauge.read()
        scaled = [(t1 - t0) * gauge.scale(t0, t1) for t0, t1 in spans]
    return Pass(clock() - start, samples, outputs, scaled)


class OutputChecker:
    """Checks each call's output once; later passes must repeat it exactly."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: dict[int, object] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check_pass(self, p: Pass, label: str) -> None:
        for index, out in enumerate(p.outputs):
            self.attempted += 1
            if isinstance(out, str):
                err = out
            elif index not in self.first:
                self.first[index] = out
                try:
                    err = self.workload.check(index, out)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    err = f"malformed output: {exc!r}"
            else:
                err = None if out == self.first[index] else "differs from the first pass"
            if err is not None:
                self.failures.append(f"{label} call {index}: {err}")


# -- metrics -----------------------------------------------------------------------


def setup_time(fields, gauge: Gauge) -> float:
    """Wall time of a fresh interpreter importing circmds and building the
    workload's fields, at the gauge's reference speed."""
    script = ("import circmds\n"
              f"for m, poly in {list(fields)!r}:\n"
              "    circmds.get_field(m, poly)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    gauge.read()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    t1 = time.perf_counter()
    gauge.read()
    return (t1 - t0) * gauge.scale(t0, t1)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end_metrics(passes: list[Pass], setup_s: float) -> dict:
    """Timings of the untraced passes at the gauge's reference speed, each
    call taken at its median over the run's passes.

    `wall_s` sums the calls of one pass.  A check sample is one call's time
    per candidate it examined: one row for check-mix, one config for a scan.
    """
    typical = [statistics.median(p.scaled[i] for p in passes)
               for i in range(len(passes[0].samples))]
    counts = [count for _, count in passes[0].samples]
    wall = sum(typical)
    per_candidate_ms = [1e3 * t / c for t, c in zip(typical, counts) if c]
    return {
        "wall_s": (wall, "s"),
        "candidates_per_s": (sum(counts) / wall, "1/s"),
        "check_p50_ms": (statistics.median(per_candidate_ms), "ms"),
        "check_p90_ms": (statistics.quantiles(per_candidate_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced: Pass, untraced_1w: Pass,
                  wall_2w: Optional[float], field_counts: dict, probes: dict) -> dict:
    spans = tracer.by_name()

    def get(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    wall = traced.wall_s
    inv = get("matgf.inverse")
    dss = get("props.diagonal_scaling_solve")
    mds = get("props.is_mds")
    build = get("circulant.build")
    det = get("matgf.det")
    out = {
        "matgf.inverse.calls": (inv.calls, "count"),
        "matgf.inverse.self_s": (inv.self_s, "s"),
        "matgf.inverse.share": (_ratio(inv.self_s, wall), "fraction"),
        "matgf.inverse.singular_frac": (_ratio(inv.raised, inv.calls), "fraction"),
        "props.diagonal_scaling_solve.calls": (dss.calls, "count"),
        "props.diagonal_scaling_solve.self_s": (dss.self_s, "s"),
        "props.diagonal_scaling_solve.share": (_ratio(dss.self_s, wall), "fraction"),
        "props.diagonal_scaling_solve.yield": (_ratio(dss.outcomes["found"], dss.calls), "fraction"),
        "circulant.build.calls": (build.calls, "count"),
        "circulant.build.self_s": (build.self_s, "s"),
        "verify.run_suite.self_s": (get("verify.run_suite").self_s, "s"),
        "verify.row_sum_skip_frac": (1 - _ratio(inv.calls, traced.candidates), "fraction"),
        # check-mix makes no pool: its speed-up is 1 by definition
        "verify.speedup_2w": (_ratio(untraced_1w.wall_s, wall_2w) if wall_2w else 1.0, "x"),
        "props.is_mds.calls": (mds.calls, "count"),
        "props.is_mds.self_s": (mds.self_s, "s"),
        "props.is_mds.reject_1x1": (mds.outcomes["reject_1x1"], "count"),
        "props.is_mds.reject_2x2": (mds.outcomes["reject_2x2"], "count"),
        "props.is_mds.reject_kxk": (mds.outcomes["reject_kxk"], "count"),
        "props.is_mds.pass": (mds.outcomes["pass"], "count"),
        "matgf.det.calls": (det.calls, "count"),
        "matgf.det.self_s": (det.self_s, "s"),
        "props.classify.self_s": (get("props.classify").self_s, "s"),
        "props.is_involutory.self_s": (get("props.is_involutory").self_s, "s"),
        "props.is_orthogonal.self_s": (get("props.is_orthogonal").self_s, "s"),
        "field.mul.calls": (field_counts["field.mul.calls"], "count"),
        "field.inv.calls": (field_counts["field.inv.calls"], "count"),
        "trace.overhead_frac": (traced.wall_s / untraced_1w.wall_s - 1, "fraction"),
    }
    out.update(probes)
    return out


def _per_call(fn, args_list, repeats: int) -> float:
    """Median over `repeats` of the mean time per call over `args_list`."""
    clock = time.perf_counter
    times = []
    for _ in range(repeats):
        t0 = clock()
        for args in args_list:
            fn(*args)
        times.append((clock() - t0) / len(args_list))
    return statistics.median(times)


def _nonsingular_rows(gf, n: int, count: int, rng: random.Random) -> list:
    rows = []
    while len(rows) < count:
        row = [rng.randrange(gf.order) for _ in range(n)]
        try:
            matgf.inverse(gf, circulant.build(row))
        except matgf.Singular:
            continue
        rows.append(row)
    return rows


def kernel_probes(repeats: int = 9) -> dict:
    """Standalone timings of the ROADMAP aim-1 kernels, as measured."""
    gf = field.get_field(*CHECK_FIELD)
    aes = field.get_field(8, 0x11B)
    rng = random.Random(CHECK_BASE_SEED)
    pairs = [(gf, rng.randrange(gf.order), rng.randrange(gf.order)) for _ in range(20000)]
    n4 = [(gf, circulant.build(r)) for r in _nonsingular_rows(gf, 4, 200, rng)]
    n8 = [(gf, circulant.build(r)) for r in _nonsingular_rows(gf, 8, 40, rng)]
    return {
        "field.mul_ns": (1e9 * _per_call(field.GF2m.mul, pairs, repeats), "ns"),
        "matgf.inverse_n4_us": (1e6 * _per_call(matgf.inverse, n4, repeats), "us"),
        "matgf.inverse_n8_us": (1e6 * _per_call(matgf.inverse, n8, repeats), "us"),
        "props.is_mds_aes_us": (
            1e6 * _per_call(props.is_mds, [(aes, circulant.build((2, 3, 1, 1)))] * 40, repeats), "us"),
        "props.classify_n3_us": (
            1e6 * _per_call(props.classify, [(gf, GOLDEN_ROWS[0])] * 100, repeats), "us"),
    }


# -- runs ---------------------------------------------------------------------------


@dataclass
class RunResult:
    metrics: dict          # name -> (value, unit)
    attempted: int
    failures: list
    passes: int
    counts_by_group: dict  # traced run only: deterministic span counts per call group
    spans: list            # traced run only: the aggregated span table
    # timed run only: the median pass's unscaled call time and the median
    # gauge reading, printed with the run metadata
    unscaled: dict = dataclasses.field(default_factory=dict)


def timed_run(workload: Workload, seconds: float) -> RunResult:
    """1-worker passes while less than `seconds` have passed, at least one.

    Load from other tenants of a shared host slows this process by up to
    2x, for seconds to minutes at a time, in CPU time as much as in wall
    time; no repeat within a run escapes a long slow spell.  So every call
    and set-up is timed next to a reading of the gauge (`gauge.py`) and
    scaled to its reference speed, and each call is taken at its median
    over the passes.  One untimed pass first warms the caches.  The 1-worker
    passes leave the pool out: a 2-worker call needs both cores of the host
    to be equally loaded, which the gauge cannot see; the traced run times
    the pool.  A set-up is timed before each pass, so that the set-up
    samples spread over the run as the passes do, and then up to
    SETUP_REPEATS in all.
    """
    checker = OutputChecker(workload)
    gauge = Gauge()
    warm = run_pass(workload, 1)
    checker.check_pass(warm, "warm-up pass")
    passes: list[Pass] = []
    setups: list[float] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        setups.append(setup_time(workload.fields, gauge))
        p = run_pass(workload, 1, gauge=gauge)
        checker.check_pass(p, f"pass {len(passes)}")
        p.outputs.clear()  # keep peak_rss_mb independent of the pass count
        passes.append(p)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(workload.fields, gauge))
    unscaled = {
        "wall_s": statistics.median(sum(t for t, _ in p.samples) for p in passes),
        "gauge_unit_ms": 1e3 * statistics.median(gauge.units),
    }
    return RunResult(end_to_end_metrics(passes, statistics.median(setups)),
                     checker.attempted, checker.failures, len(passes) + 1, {}, [], unscaled)


def traced_run(workload: Workload) -> RunResult:
    """Untraced 2-worker and 1-worker passes, a traced and a counted 1-worker
    pass, then the kernel probes.  All passes must give equal outputs."""
    checker = OutputChecker(workload)
    wall_2w = None
    if workload.name != "check-mix":
        p2 = run_pass(workload, 2)
        checker.check_pass(p2, "2-worker pass")
        wall_2w = p2.wall_s
    untraced = run_pass(workload, 1)
    checker.check_pass(untraced, "1-worker pass")
    tracer = Tracer()
    with tracer.installed(MODULES):
        traced = run_pass(workload, 1, tracer)
    checker.check_pass(traced, "traced pass")
    with counting_field_ops(field.GF2m) as field_counts:
        counted = run_pass(workload, 1)
    checker.check_pass(counted, "counted pass")
    metrics = layer_metrics(tracer, traced, untraced, wall_2w, field_counts, kernel_probes())
    counts: dict = {}
    for (group, name, _), stats in tracer.spans.items():
        counts.setdefault(group, Counter())[name] += stats.calls
    return RunResult(metrics, checker.attempted, checker.failures, 4 if wall_2w else 3,
                     counts, tracer.table())


def record_reference() -> None:
    """Write the outputs of one pass of every workload at DEFAULT_SEED."""
    ref = {"seed": DEFAULT_SEED}
    for name in WORKLOADS:
        workload = make_workload(name, DEFAULT_SEED, {"seed": DEFAULT_SEED, "check-mix": []})
        p = run_pass(workload, 1)
        raised = [out for out in p.outputs if isinstance(out, str)]
        if raised:
            raise RuntimeError(f"{name}: {raised[0]}")
        if name == "check-mix":
            ref[name] = p.outputs
        else:
            ref[name] = {group: out for (group, _), out in zip(workload.calls, p.outputs)}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
