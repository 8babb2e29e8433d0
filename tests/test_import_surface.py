"""Import cost follows the work: no kernel and no numpy where nothing
simulates, and no scipy where nothing needs it.

A process that never simulates — CLI parsing, ``--cache`` hits, ``--from``
re-renders of every figure, extension and ``table2``, ``list``,
``query``, ``gc``, ``migrate`` — must not import the event kernel
(``repro.network``, ``repro.sim``, ``repro.mac``, ``repro.channel``,
``repro.phy``), scipy or numpy: the statistics a render prints are
computed in pure Python, in numpy's summation order, so they keep
numpy's bytes.  A process that does simulate imports the kernel and
numpy but still no scipy: the PHY's Q function comes from the standard
library and both engines find nearest heads with one numpy grid.  Only
Jakes fading (J₀) and t-intervals over more than one seed load scipy,
each on first use.  ``table1`` builds MAC objects and stays outside the
contract.  Every check runs in a fresh interpreter, since this test
process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Module prefixes a process that does not simulate must not load.
KERNEL = (
    "numpy",
    "scipy",
    "repro.network",
    "repro.sim",
    "repro.mac",
    "repro.channel",
    "repro.phy",
)

FIG11 = ("run", "fig11", "--preset", "smoke")

#: Every experiment whose rows a store holds, re-rendered with ``--from``.
RERENDERED = (
    "fig8", "fig9", "fig10", "fig11", "fig12",
    "ext-perf", "ext-uplink", "ext-dynamics", "ext-scale", "table2",
)

#: Runs the CLI, then dumps the loaded module names to the file in argv[1].
_RECORDING_CLI = (
    "import json, sys\n"
    "from repro.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump(sorted(sys.modules), fh)\n"
    "sys.exit(code)\n"
)


def _python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_after(code: str):
    """The modules a fresh interpreter has loaded after running ``code``."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    return json.loads(_python("-c", code).stdout.splitlines()[-1])


def _under(modules, prefixes):
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


def _kernel_modules(modules):
    return _under(modules, KERNEL)


def _scipy_modules(modules):
    return _under(modules, ("scipy",))


def _recorded_cli(tmp_path, *argv):
    """A CLI call in a fresh interpreter: (process, modules loaded by exit)."""
    record = tmp_path / "modules.json"
    proc = _python("-c", _RECORDING_CLI, str(record), *argv, cwd=tmp_path)
    return proc, json.loads(record.read_text())


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A fig11 smoke database filled by a cold ``--cache`` pass: the
    database, the pass's stdout and the modules it had loaded by exit."""
    workdir = tmp_path_factory.mktemp("cold")
    db = workdir / "fig11.sqlite"
    proc, modules = _recorded_cli(workdir, *FIG11, "--cache", str(db))
    assert ", 18 simulated," in proc.stderr
    return db, proc.stdout, modules


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """A database holding the smoke runs of every registered experiment."""
    workdir = tmp_path_factory.mktemp("all")
    db = workdir / "all.sqlite"
    _python("-m", "repro", "run", "all", "--preset", "smoke",
            "--executor", "pool:2", "--cache", str(db), cwd=workdir)
    return db


def test_import_cli_loads_no_kernel_or_scipy():
    assert _kernel_modules(_modules_after("import repro.cli")) == []


def test_cold_simulating_pass_loads_no_scipy(cold):
    _, _, modules = cold
    assert "repro.network" in modules
    assert "numpy" in modules
    assert _scipy_modules(modules) == []


@pytest.mark.parametrize("engine", ["repro.network", "repro.vector.engine"])
def test_importing_an_engine_loads_no_scipy(engine):
    assert _scipy_modules(_modules_after(f"import {engine}")) == []


def test_importing_the_vector_engine_loads_no_api_or_event_kernel():
    # Each engine imports the record types it returns on first call, so
    # constructing a VectorNetwork costs no repro.api or event kernel.
    modules = _modules_after("import repro.vector.engine")
    assert _under(modules, ("repro.api", "repro.network")) == []


def test_jakes_fading_loads_scipy_special_on_first_use():
    modules = _modules_after("\n".join([
        "import sys",
        "from repro.api import Scenario",
        "s = Scenario.from_preset('smoke').with_runtime(",
        "    horizon_s=2.0, sample_interval_s=1.0)",
        "s = s.with_sub('channel', fading_kernel='jakes')",
        "assert s.config.scale.backend == 'event'",
        "assert 'scipy' not in sys.modules",
        "s.run()",
    ]))
    assert "scipy.special" in modules


def test_vector_run_with_many_heads_loads_no_scipy():
    # N=2000 at seed 1 elects over 100 heads a round, a head count the
    # nearest-head search must serve without scipy.
    modules = _modules_after("\n".join([
        "from repro.api import RunOptions, simulate",
        "from repro.cluster.leach import LeachElection",
        "from repro.config import Protocol",
        "from repro.experiments.scale import scale_config",
        "elect, heads = LeachElection.elect, []",
        "def counted(self, *args):",
        "    out = elect(self, *args)",
        "    heads.append(len(out))",
        "    return out",
        "LeachElection.elect = counted",
        "simulate(scale_config(2000, Protocol.CAEM_ADAPTIVE, 1, backend='vector'),",
        "         RunOptions(horizon_s=2.0, sample_interval_s=1.0))",
        "assert heads and min(heads) >= 64, heads",
    ]))
    assert "repro.vector.engine" in modules
    assert _scipy_modules(modules) == []


def test_digesting_an_auto_config_loads_no_engine():
    # Pairing an "auto" cell resolves its backend, which needs only
    # repro.vector.support, not the vector engine.
    modules = _modules_after("\n".join([
        "from repro.config import NetworkConfig",
        "NetworkConfig(n_nodes=5000).with_scale(backend='auto').digest()",
    ]))
    assert _kernel_modules(modules) == []
    assert "repro.vector.engine" not in modules


def test_summarize_loads_scipy_only_for_an_interval():
    single = "from repro.metrics import summarize\nsummarize([1.0])"
    assert _kernel_modules(_modules_after(single)) == []
    multi = "from repro.metrics import summarize\nsummarize([1.0, 2.0])"
    assert "scipy.stats" in _modules_after(multi)


def test_warm_cache_pass_loads_no_kernel_and_matches_cold(cold, tmp_path):
    db, cold_stdout, _ = cold
    proc, modules = _recorded_cli(tmp_path, *FIG11, "--cache", str(db))
    assert ", 0 simulated," in proc.stderr
    assert proc.stdout == cold_stdout
    assert _kernel_modules(modules) == []
    assert "repro.service.http" not in modules


def test_from_rerender_loads_no_kernel_and_matches_cold(cold, tmp_path):
    db, cold_stdout, _ = cold
    proc, modules = _recorded_cli(tmp_path, *FIG11, "--from", str(db))
    assert proc.stdout == cold_stdout
    assert _kernel_modules(modules) == []
    assert "repro.service.http" not in modules


@pytest.mark.parametrize("experiment", RERENDERED)
def test_every_rerender_loads_no_kernel(smoke_store, tmp_path, experiment):
    proc, modules = _recorded_cli(
        tmp_path, "run", experiment, "--preset", "smoke", "--from", str(smoke_store)
    )
    assert f"{experiment}:" in proc.stdout
    assert _kernel_modules(modules) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("list",),
        ("query", "{db}", "--experiment", "fig11", "--limit", "3"),
        ("query", "{db}", "--agg", "mean", "--group-by", "protocol"),
        ("gc", "{db}", "--dry-run"),
        ("migrate", "{db}", "exported.jsonl"),
    ],
    ids=["list", "query", "query-agg", "gc", "migrate"],
)
def test_store_commands_load_no_kernel(cold, tmp_path, argv):
    db, _, _ = cold
    argv = [a.format(db=db) for a in argv]
    _, modules = _recorded_cli(tmp_path, *argv)
    assert _kernel_modules(modules) == []
    assert "repro.service.http" not in modules


def test_lazy_reexports_resolve():
    _python("-c", "\n".join([
        "import repro, repro.network, repro.sim, repro.service",
        "from repro import SensorNetwork, NetworkStats, Simulator",
        "assert SensorNetwork is repro.network.SensorNetwork",
        "assert NetworkStats is repro.network.NetworkStats",
        "assert Simulator is repro.sim.Simulator",
        "from repro.service import build_server, JobManager",
        "from repro.service.http import build_server as http_build_server",
        "assert build_server is http_build_server",
        "assert JobManager is repro.service.jobs.JobManager",
        "ns = {}",
        "exec('from repro import *', ns)",
        "assert set(repro.__all__) <= set(ns)",
        "ns = {}",
        "exec('from repro.service import *', ns)",
        "assert set(repro.service.__all__) <= set(ns)",
        "for pkg in (repro, repro.service):",
        "    try:",
        "        pkg.no_such_name",
        "    except AttributeError:",
        "        pass",
        "    else:",
        "        raise AssertionError('unknown attribute resolved')",
    ]))


@pytest.mark.parametrize("executor", ["supervised:jobs=1", "pool:2"])
def test_forking_executor_imports_the_kernel_before_forking(executor):
    # Cells run in forked children, so the parent only has the kernel
    # loaded if it imported it itself before forking.
    modules = _modules_after("\n".join([
        "import sys",
        "from repro.api import Campaign, Scenario",
        "base = Scenario.from_preset('smoke').with_runtime(",
        "    horizon_s=2.0, sample_interval_s=1.0)",
        "assert 'repro.network' not in sys.modules",
        f"Campaign(base).seeds([1, 2]).run(executor={executor!r})",
    ]))
    assert "repro.network" in modules
