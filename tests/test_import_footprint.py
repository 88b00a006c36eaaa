"""What a process loads: no scipy until an LP bound is asked for.

scipy serves only the interval-LP OPT bounds of
:mod:`repro.analysis.opt`, and importing it costs tens of MB of resident
memory.  Each case runs in a fresh interpreter, so modules imported by
other tests cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _script_modules() -> list[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return sorted({target.split(":")[0] for target in scripts.values()})


def _run(code: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_SCIPY = "sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')"


@pytest.mark.parametrize("module", ["repro", *_script_modules()])
def test_import_loads_no_scipy(module):
    loaded = _run(
        f"import importlib, json, sys\n"
        f"importlib.import_module({module!r})\n"
        f"print(json.dumps({_SCIPY}))\n"
    )
    assert loaded == []


def test_sessions_load_imports_no_scipy():
    loaded = _run(
        "import json, sys\n"
        "from repro.gateway.load import LoadConfig, LoadGenerator\n"
        "specs = LoadGenerator(\n"
        "    LoadConfig(n_jobs=60, m=4, process='sessions', seed=3)\n"
        ").specs()\n"
        "assert len(specs) == 60\n"
        f"print(json.dumps({_SCIPY}))\n"
    )
    assert loaded == []


def test_lp_bound_imports_scipy_on_first_call():
    out = _run(
        "import json, sys\n"
        "from repro.analysis.opt import interval_lp_upper_bound\n"
        "from repro.dag import DAGStructure\n"
        "from repro.sim.jobs import JobSpec\n"
        "specs = [\n"
        "    JobSpec(0, DAGStructure([2.0, 3.0, 1.0], [(0, 1), (0, 2)]),"
        " arrival=0, deadline=5, profit=3.0),\n"
        "    JobSpec(1, DAGStructure([4.0, 4.0]), arrival=1, deadline=4,"
        " profit=2.0),\n"
        "    JobSpec(2, DAGStructure([1.0, 2.0, 2.0], [(0, 1), (1, 2)]),"
        " arrival=2, deadline=8, profit=1.5),\n"
        "    JobSpec(3, DAGStructure([6.0, 1.0], [(0, 1)]), arrival=0,"
        " deadline=8, profit=4.0),\n"
        "]\n"
        f"before = {_SCIPY}\n"
        "bound = interval_lp_upper_bound(specs, m=2)\n"
        f"after = {_SCIPY}\n"
        "print(json.dumps({'before': before, 'bound': bound,"
        " 'optimize': 'scipy.optimize' in after}))\n"
    )
    assert out["before"] == []
    assert out["optimize"]
    assert out["bound"] == pytest.approx(7.9, abs=1e-9)
