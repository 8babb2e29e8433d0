"""Shared test configuration.

The options below configure the paper-claim checks in
``tests/test_paper_claims.py`` (run with ``-m paper``): ``--preset``
picks the experiment scale tier (default "quick"; "full" is Table II
paper scale and takes tens of minutes for the lifetime sweeps),
``--bench-seeds`` the replication seeds, and ``--executor`` the figure
grids' execution backend (default "serial").
"""

import os
import sys

import pytest

from repro.api import use_executor

sys.path.insert(0, os.path.dirname(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--preset",
        action="store",
        default="quick",
        choices=("smoke", "quick", "full"),
        help="experiment scale tier for the paper-claim tests",
    )
    parser.addoption(
        "--bench-seeds",
        action="store",
        default="1",
        help="comma-separated replication seeds",
    )
    parser.addoption(
        "--executor",
        action="store",
        default="serial",
        help="execution backend for the figure grids, e.g. 'pool:4' "
             "(tables are identical under every executor)",
    )


@pytest.fixture(scope="session")
def preset(request) -> str:
    return request.config.getoption("--preset")


@pytest.fixture(scope="session")
def seeds(request):
    raw = request.config.getoption("--bench-seeds")
    return tuple(int(s) for s in raw.split(","))


@pytest.fixture
def executor(request):
    """Run the test inside ``use_executor(--executor)``."""
    with use_executor(request.config.getoption("--executor")) as live:
        yield live
