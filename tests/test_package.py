"""The package's public surface."""

from __future__ import annotations

import shortfall_hedge


def test_every_exported_name_resolves():
    missing = [n for n in shortfall_hedge.__all__
               if not hasattr(shortfall_hedge, n)]
    assert missing == []
    assert len(set(shortfall_hedge.__all__)) == len(shortfall_hedge.__all__)


def test_test_oracles_are_not_exported():
    # the discretized Neyman-Pearson solver and the monotonicity report
    # check the engine from tests/oracles.py; the engine never calls them
    for name in ("DiscreteState", "brute_force_np", "discretize",
                 "UniquenessReport", "uniqueness_check"):
        assert name not in shortfall_hedge.__all__
        assert not hasattr(shortfall_hedge, name)
