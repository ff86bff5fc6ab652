"""The mutant table (tests/mutants.py) still points at the code and tests it names.

Running the mutants is the CI job's work; this only checks, cheaply, that
each mutant's old text occurs exactly once in its file, so a refactor that
moves that code fails here and the mutant is updated, and that each named
test is still defined in its file.
"""

import os
import re

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_live_tests(mutant):
    assert mutant.path.startswith("src/") and mutant.old != mutant.new and mutant.tests
    with open(os.path.join(ROOT, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1, mutant.old
    for test in mutant.tests:
        path, name = test.split("::")
        with open(os.path.join(ROOT, path)) as fh:
            assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", fh.read(), re.MULTILINE), test
