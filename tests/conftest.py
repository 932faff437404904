"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def fast_switching():
    """Switch threads every microsecond, so races show within a few rounds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
