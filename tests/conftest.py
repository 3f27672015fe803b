"""Shared test set-up."""

import pytest

from discrim import discriminator


@pytest.fixture(autouse=True)
def empty_iota_memo(monkeypatch):
    """Each test starts with an empty memo of first-collision lengths, so no
    result depends on which tests ran before it."""
    monkeypatch.setattr(discriminator, "_IOTA_MEMO", {})
