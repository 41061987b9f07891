"""Record perfbench/reference.json from the circmds sources of this checkout.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter the outputs, and review the
diff of reference.json: the benchmark counts every difference as a failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402

if __name__ == "__main__":
    harness.record_reference()
