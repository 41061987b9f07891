"""The committed census: the program's outputs on fixed inputs keep their digests."""

import json

import census


def test_outputs_keep_the_committed_census():
    # `verify-paper --scale full` at 1 and 2 workers and each suite on the
    # small exhaustive spaces, against tests/census.json; a change that
    # moves an output on purpose rewrites the file (tests/census.py)
    assert census.census() == json.loads(census.CENSUS.read_text())
