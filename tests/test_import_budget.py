"""What a run imports: a deployment loads only the protocols it runs.

Every package re-exports its names lazily (PEP 562), and each protocol
module is imported where a deployment that runs it is built
(docs/performance.md, "What a run imports").  Each case runs in a fresh
interpreter, because ``sys.modules`` in this one holds whatever the
rest of the suite imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PERF = ROOT / "benchmarks" / "perf"

#: Most ``repro`` modules a memory-backed Flt-C run may load once built
#: and launched (83 when every package imported all of its submodules).
MODULE_BUDGET = 55

#: Modules (each with its submodules) that such a run must not load.
NOT_LOADED = (
    "repro.baselines",
    "repro.api.network",
    "repro.api.session",
    "repro.analytics",
    "repro.apps",
    "repro.storage.sqlite",
    "sqlite3",
    "repro.storage.wal",
    "repro.firewall",
    "repro.consensus.pbft",
    "repro.consensus.coordinator",
    "repro.consensus.checkpoint",
    "repro.core.assets",
    "repro.crypto.zkp",
    "repro.scenarios.faults",
    "repro.scenarios.registry",
    "repro.bench.experiments",
    "repro.workload.trace",
    "repro.ledger.archive",
)

#: What ``benchmarks/perf/rep.py`` imports before it builds anything.
REP_IMPORTS = f"""
import sys
sys.path.insert(0, {str(PERF)!r})
import rollup
import workloads
from repro.bench.drivers import build_driver
from repro.core.executor import ExecutionUnit
from repro.crypto import hashing
from repro.scenarios.runner import launch_workload, paused_gc, run_scenario
from repro.storage import make_backend
"""

#: Prints the loaded modules as one JSON line.
PRINT_MODULES = """
import json
print(json.dumps(sorted(sys.modules)))
"""


def _python(script: str) -> str:
    """What a fresh interpreter prints running ``script``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(script: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``script``."""
    printed = _python("import sys\n" + script + PRINT_MODULES)
    return set(json.loads(printed.splitlines()[-1]))


def _matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def test_flat_crash_run_loads_only_what_it_deploys():
    loaded = _loaded(
        REP_IMPORTS
        + """
spec = workloads.build("steady-local", 1, 10.0)
driver = build_driver(spec)
m = spec.measurement
launch_workload(driver.sim, spec, driver.submit_next, m.warmup + m.measure)
driver.close()
"""
    )
    unwanted = sorted(
        module
        for module in loaded
        for prefix in NOT_LOADED
        if _matches(module, prefix)
    )
    assert unwanted == []
    ours = sorted(module for module in loaded if _matches(module, "repro"))
    assert len(ours) <= MODULE_BUDGET, ours


def _spec_script(system: str, **topology) -> str:
    """Build (not run) a small ``system`` deployment with ``topology``
    overrides; ``storage_dir`` is a fresh scratch directory."""
    return f"""
import dataclasses, tempfile
from repro.bench.drivers import build_driver
from repro.bench.runner import point_spec
from repro.workload.generator import WorkloadMix
spec = point_spec(
    {system!r}, 500, WorkloadMix(), enterprises=("A", "B"), shards=1,
    warmup=0.01, measure=0.01, drain=0.01,
)
with tempfile.TemporaryDirectory() as scratch:
    topology = dict({topology!r})
    if topology.get("storage_backend", "memory") != "memory":
        topology["storage_dir"] = scratch
    spec = dataclasses.replace(
        spec, topology=dataclasses.replace(spec.topology, **topology)
    )
    build_driver(spec).close()
"""


@pytest.mark.parametrize(
    "script, expected",
    [
        (
            _spec_script("Flt-B(PF)"),
            ("repro.consensus.pbft", "repro.firewall.topology"),
        ),
        (_spec_script("Crd-C"), ("repro.consensus.coordinator",)),
        (
            _spec_script("Flt-C", checkpoint_interval=16),
            ("repro.consensus.checkpoint",),
        ),
        (_spec_script("Flt-C", storage_backend="wal"), ("repro.storage.wal",)),
        (
            _spec_script("Flt-C", storage_backend="sqlite"),
            ("repro.storage.sqlite", "sqlite3"),
        ),
        (_spec_script("Fabric"), ("repro.baselines.fabric",)),
        (
            "from repro.core.contracts import ContractRegistry\n"
            "assert ContractRegistry().get('assets').name == 'assets'\n",
            ("repro.core.assets", "repro.crypto.zkp"),
        ),
    ],
    ids=["pbft-firewall", "coordinator", "checkpoint", "wal", "sqlite",
         "baseline", "assets"],
)
def test_what_a_deployment_runs_is_loaded(script, expected):
    loaded = _loaded(script)
    assert [module for module in expected if module not in loaded] == []


#: Resolves every name of every package's ``__all__`` (and ``import *``)
#: and prints the ones that resolve to a module, or fail to resolve.
RESOLVE_ALL = f"""
import importlib
from pathlib import Path
src = Path({str(SRC)!r})
packages = sorted(
    ".".join(path.parent.relative_to(src).parts)
    for path in src.glob("repro/**/__init__.py")
)
wrong = []
for name in packages:
    package = importlib.import_module(name)
    for export in package.__all__:
        try:
            value = getattr(package, export)
        except AttributeError as error:
            wrong.append(f"{{name}}.{{export}}: {{error}}")
            continue
        if type(value) is type(package):
            wrong.append(f"{{name}}.{{export}} is a module")
    exec(f"from {{name}} import *", {{}})
print(wrong)
"""


@pytest.mark.parametrize("walk_first", [False, True], ids=["lazy", "walked"])
def test_every_package_export_resolves(walk_first):
    """Lazily, and after every submodule is already imported (where a
    name equal to its submodule's would resolve to the module)."""
    walk = (
        "import pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not info.name.endswith('__main__'):\n"
        "        importlib.import_module(info.name)\n"
    )
    script = RESOLVE_ALL.replace(
        "wrong = []", (walk if walk_first else "") + "wrong = []"
    )
    assert _python(script).strip() == "[]"
