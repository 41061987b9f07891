"""Run one circmds benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan-exhaustive --seed 1 --seconds 30 --trace 0

`--trace 0` times untraced passes for `--seconds` and prints the end-to-end
metrics; `--trace 1` makes one traced run and prints the per-layer metrics.
Every output is checked; the last stdout line is the JSON result, and the
exit code is 1 when any output was wrong, 2 when the checkout has no
circmds sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("scan-exhaustive", "scan-sampled", "check-mix")


def git_commit(root: Path):
    """HEAD of the checkout's git repository, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description="circmds benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)  # the reference seed
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circmds" / "__init__.py").is_file():
        print(f"perfbench: no circmds sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = harness.make_workload(args.workload, args.seed, harness.load_reference())
    if args.trace:
        result = harness.traced_run(workload)
    else:
        result = harness.timed_run(workload, args.seconds)
    failed = len(result.failures)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "seconds": args.seconds, "passes": result.passes,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(ROOT),
        "unscaled": result.unscaled,
    }
    for name, (value, unit) in result.metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':40s} {failed / result.attempted:>16.6g} fraction")
    for failure in result.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if result.spans:
        print(json.dumps({"spans": result.spans}), file=sys.stderr)
    print(json.dumps({"meta": meta, "counts_by_group": result.counts_by_group}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
