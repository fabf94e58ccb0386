"""The mutation script's mutant generator, checked without running any
mutant or starting any process."""

import pytest

from mutate_reduction import PACKAGE, TARGETS, mutants


def test_every_target_yields_a_mutant():
    found = mutants((PACKAGE / "reduction.py").read_text())
    assert {desc.split(":", 1)[0] for desc, _ in found} == set(TARGETS)


def test_missing_target_stops_the_script():
    source = (PACKAGE / "reduction.py").read_text().replace("def _select(", "def _choose(")
    with pytest.raises(SystemExit, match="no mutant in _select"):
        mutants(source)
