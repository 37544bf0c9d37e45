import time

import numpy as np
import pytest

from seriesinv import harness


def pytest_configure(config):
    config._suite_started = time.monotonic()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.monotonic() - config._suite_started
    terminalreporter.write_line(f"suite wall-clock: {elapsed:.1f} s")


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def fresh_layout():
    """verify-tables' layout, which is built once per process, built anew
    in this test and again after it: for a test that swaps a plan in with
    monkeypatch."""
    harness._check_layout.cache_clear()
    yield
    harness._check_layout.cache_clear()
