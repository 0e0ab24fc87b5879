"""Shared fixtures."""

import pytest

from sepstats import distributions, enumeration


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty enumeration tables and census memo for one test; the real
    tables come back afterwards and nothing the test computed stays cached."""
    monkeypatch.setattr(enumeration, "_TABLES", {1: enumeration._TABLES[1]})
    distributions._census.cache_clear()
    yield
    distributions._census.cache_clear()
