"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They run the check-mix and scan-sampled workloads for real (about a minute
in all); scan-exhaustive shares every code path they cover.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["check-mix", "scan-sampled"])
@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_declaration(capsys, workload, trace):
    code, result = _result(capsys, ["--workload", workload, "--seconds", "0.1",
                                    "--trace", str(trace), "--seed", "3"])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_declared_workloads_are_the_harness_workloads():
    declared = [w["name"] for w in DECLARED["workloads"]]
    assert declared == list(harness.WORKLOADS) == list(run.WORKLOADS)


def test_corrupted_reference_fails(capsys, monkeypatch):
    bad = copy.deepcopy(harness.load_reference())
    bad["check-mix"][0]["mds"] = not bad["check-mix"][0]["mds"]
    monkeypatch.setattr(harness, "load_reference", lambda: bad)
    code, result = _result(capsys, ["--workload", "check-mix", "--seconds", "0.1",
                                    "--trace", "0", "--seed", "5"])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0


def test_self_time_never_exceeds_parent_span():
    workload = harness.make_workload("check-mix", 2, harness.load_reference())
    workload.calls = workload.calls[::10]
    tracer = Tracer()
    with tracer.installed(harness.MODULES):
        harness.run_pass(workload, 1, tracer)
    totals = {}
    children = {}
    for (_, name, parent), stats in tracer.spans.items():
        assert 0 <= stats.self_s <= stats.total_s
        totals[name] = totals.get(name, 0.0) + stats.total_s
        children[parent] = children.get(parent, 0.0) + stats.total_s
    assert totals and children
    for parent, child_total in children.items():
        if parent:
            assert child_total <= totals[parent]


def test_traced_counts_repeat_exactly():
    workload = harness.make_workload("scan-sampled", 4, harness.load_reference())
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(harness.MODULES):
            harness.run_pass(workload, 1, tracer)
        counts.append({key: stats.calls for key, stats in tracer.spans.items()})
    assert counts[0] == counts[1]


def test_tracer_restores_module_attributes():
    def attributes():
        return {(name, attr): getattr(module, attr)
                for name, module in harness.MODULES.items()
                for attr in ("inverse", "is_mds")}

    before = attributes()
    with Tracer().installed(harness.MODULES):
        assert harness.props.inverse is not before["props", "inverse"]
    assert attributes() == before


def test_gf8_n6_exact_counts():
    """Span counts of the plan's GF(8) n=6 exhaustive scan, traced at one
    worker (about half a minute).  scan-exhaustive times GF(8) n=5 instead;
    see `harness.scan_configs`."""
    cfg = harness.verify.ScanConfig(
        field=harness.field.get_field(3, 0xB), order=6, suites=("SO-MOD2", "SI-GEN"))
    tracer = Tracer()
    with tracer.installed(harness.MODULES):
        report = harness.verify.run_suite(cfg)
    spans = tracer.by_name()
    assert report.examined == spans["circulant.build"].calls == 262_144
    assert spans["matgf.inverse"].calls == 229_376
    assert spans["props.diagonal_scaling_solve"].calls == 451_584


def test_gauge_scales_by_the_readings_around_a_call():
    from gauge import REFERENCE_UNIT_S, Gauge

    g = Gauge()
    g.stamps, g.units = [1.0, 2.0, 3.0], [0.001, 0.004, 0.003]
    assert g.scale(1.5, 2.5) == pytest.approx(REFERENCE_UNIT_S / 0.002)
    assert g.scale(0.5, 0.7) == pytest.approx(REFERENCE_UNIT_S / 0.001)
    assert g.scale(3.5, 3.7) == pytest.approx(REFERENCE_UNIT_S / 0.003)
