"""Shared test set-up."""

import pytest

from discrim import discriminator, sequences


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
