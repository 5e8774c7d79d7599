"""The mutation check in tests/mutants.py cannot go stale unnoticed: each
mutant's old text occurs once in its file, and each test it names exists."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.killers
    for test_id in mutant.killers:
        path, *scope = test_id.split("::")
        text = (ROOT / path).read_text()
        *classes, function = scope
        for name in classes:
            assert re.search(rf"^\s*class {name}\b", text, re.M), test_id
        assert re.search(rf"^\s*def {function.split('[')[0]}\(", text, re.M), test_id
