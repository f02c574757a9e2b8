"""Shared test settings: a derandomized, short hypothesis profile keeps the
property tests deterministic and within the tier-1 time budget."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=8, database=None)
settings.load_profile("tier1")
