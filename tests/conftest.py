"""Suite-wide checks."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test after which the cyclic collector is left paused, and
    switch it back on so that the tests after it run as usual."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the cyclic garbage collector was left disabled"
