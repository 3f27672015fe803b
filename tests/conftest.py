"""Shared test set-up."""

import pytest

from discrim import discriminator, numtheory, periods


@pytest.fixture(autouse=True)
def empty_proven_runs(monkeypatch):
    """Each test starts with an empty brute-force store, with no proven run of
    D(n), so no result depends on which tests ran before it."""
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})


@pytest.fixture(autouse=True)
def empty_period_tables(monkeypatch):
    """Each test starts with no smallest-prime-factor table and no recorded
    prime-power orders, so both are built from nothing in every test."""
    monkeypatch.setattr(numtheory, "_spf", ())
    monkeypatch.setattr(periods, "_PRIME_POWER_ORDERS", {})
