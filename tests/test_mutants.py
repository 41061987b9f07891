"""The mutation census stays applicable: each snippet is found once, each test exists."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_every_mutant_snippet_occurs_once_and_names_existing_tests(mutant):
    # the full census (`python tests/mutants.py`) runs outside tier-1
    assert mutant.file.startswith("src/circmds/")
    assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(), test
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
