from __future__ import annotations

import pytest

from optpipe import cli
from optpipe.topology import Network, load_nsfnet


@pytest.fixture(autouse=True)
def cold_start_states():
    """Empty the process's start-state memo around every test, so no test sees
    networks, tapes or routes that an earlier one built."""
    cli.prewarmed_start.cache_clear()
    yield
    cli.prewarmed_start.cache_clear()


@pytest.fixture
def triangle() -> Network:
    """A-B (1 km), B-C (1 km), A-C (3 km); F=8."""
    return Network(["A", "B", "C"], [("A", "B", 1.0), ("B", "C", 1.0), ("A", "C", 3.0)],
                   fs_total=8)


@pytest.fixture
def two_dc() -> Network:
    """Two datacenters joined by one 100 km link; F=80."""
    return Network(["A", "B"], [("A", "B", 100.0)], fs_total=80)


@pytest.fixture
def nsfnet() -> Network:
    return load_nsfnet()
