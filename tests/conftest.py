"""Shared fixtures."""

import pytest

from sepstats import closedforms, distributions, enumeration, verify


def _memos(*modules) -> list:
    """Every ``lru_cache`` defined in the modules."""
    return [
        obj
        for module in modules
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__
    ]


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty enumeration tables and every memo of the enumeration, census
    and verify modules for one test; the real tables come back afterwards
    and nothing the test computed, a corrupted column or a projection of a
    corrupted route included, stays cached.  Yields the memos."""
    monkeypatch.setattr(enumeration, "_TABLES", {1: enumeration._TABLES[1]})
    memos = _memos(distributions, enumeration, verify)
    for memo in memos:
        memo.cache_clear()
    yield memos
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def cold_memos():
    """Empty closed-form memos for one test, and nothing it built kept."""
    memos = _memos(closedforms)
    for memo in memos:
        memo.cache_clear()
    yield memos
    for memo in memos:
        memo.cache_clear()
