"""Fixtures shared by the test modules.

The runtime-only CI step loads this file with numpy and pytest alone, so it
imports only the standard library, pytest and retouchkit.
"""

from types import SimpleNamespace

import pytest

from retouchkit import providers


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps of the HTTP clients, recorded and not slept. Only
    `providers` sees the stub: a fake backend's Delay still sleeps for real."""
    slept = []
    monkeypatch.setattr(providers, "time", SimpleNamespace(sleep=slept.append))
    return slept
