"""Shared benchmark configuration.

Every bench regenerates one of the paper's tables/figures.  Simulation
benches run ONCE per session (pedantic mode): the interesting output is
the regenerated table, printed after timing, not a latency distribution.
Select the tier with ``--preset`` (default "quick"; "full" is Table II
paper scale and takes tens of minutes for the lifetime sweeps), and the
figure grids' execution backend with ``--executor`` (default "serial").
"""

from __future__ import annotations

import pytest

from repro.api import use_executor


def pytest_addoption(parser):
    parser.addoption(
        "--preset",
        action="store",
        default="quick",
        choices=("smoke", "quick", "full"),
        help="experiment scale tier for the figure benches",
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


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` exactly once and return its result (simulation benches
    are deterministic and far too heavy for statistical repetition)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
