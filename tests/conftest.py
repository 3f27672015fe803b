"""Shared test set-up."""

import pytest

from discrim import discriminator, numtheory, periods, sequences


@pytest.fixture(autouse=True)
def empty_iota_memo(monkeypatch):
    """Each test starts with an empty memo of first-collision lengths, so no
    result depends on which tests ran before it."""
    monkeypatch.setattr(discriminator, "_IOTA_MEMO", {})


@pytest.fixture(autouse=True)
def tail_rent_spent(monkeypatch):
    """Each test starts with the Python rent spent, so recurrence scans enter
    the numpy blocks at tail_start(m) whether or not numpy is loaded yet."""
    monkeypatch.setattr(sequences, "_rent_left", 0)


@pytest.fixture(autouse=True)
def empty_period_tables(monkeypatch):
    """Each test starts with no smallest-prime-factor table, no charged
    misses and no recorded prime-power orders, so the period formula's
    tables grow from nothing in every test."""
    monkeypatch.setattr(numtheory, "_spf", ())
    monkeypatch.setattr(numtheory, "_spf_charged", 0)
    monkeypatch.setattr(periods, "_PRIME_POWER_ORDERS", {})
