"""The mutation script's mutant generator, checked without running any
mutant or starting any process."""

import pytest

from mutate_reduction import PACKAGE, TARGETS, mutants


def test_every_target_yields_a_mutant():
    found = mutants((PACKAGE / "reduction.py").read_text())
    assert {desc.split(":", 1)[0] for desc, _ in found} == set(TARGETS)


def test_half_and_one_constants_swap():
    found = mutants((PACKAGE / "reduction.py").read_text())
    swapped = [(desc, source) for desc, source in found if "0.5" in desc and "1.0" in desc]
    assert {desc.split(":", 1)[0] for desc, _ in swapped} == {
        "_segment_weights", "_quantile_support", "_back_horizons", "_horizons",
        "_bottleneck_epsilon", "_lex_min_support"}
    # The default of _segment_weights' scale is mutated too.
    assert any("scale: float=1.0" in source for _, source in swapped)
    # Each mode's scale in the search and the extraction is its own mutant.
    assert sum(desc.startswith("_lex_min_support:") for desc, _ in swapped) == 2


def test_missing_target_stops_the_script():
    source = (PACKAGE / "reduction.py").read_text().replace("def _select(", "def _choose(")
    with pytest.raises(SystemExit, match="no mutant in _select"):
        mutants(source)
