"""Shared fixtures."""

import pytest

from sepstats import closedforms, distributions, enumeration, verify


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty enumeration tables, census memo, S_n profile memo and
    extreme-lane route memo for one test; the real tables come back
    afterwards and nothing the test computed, a projection of a corrupted
    route included, stays cached."""
    monkeypatch.setattr(enumeration, "_TABLES", {1: enumeration._TABLES[1]})
    memos = (distributions._census, verify._sn_profiles, verify._extremes)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def cold_memos():
    """Empty closed-form memos for one test, and nothing it built kept."""
    memos = [obj for obj in vars(closedforms).values() if hasattr(obj, "cache_clear")]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
