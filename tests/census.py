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
import re
from pathlib import Path

from circmds import cli, verify
from circmds.field import get_field

from reference import decided

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


def census() -> dict:
    return {
        "verify_paper_full_jobs1": verify_paper(1),
        "verify_paper_full_jobs2": verify_paper(2),
        "gate_spaces_decided": gate_spaces(),
    }


if __name__ == "__main__":
    CENSUS.write_text(json.dumps(census(), indent=2) + "\n")
