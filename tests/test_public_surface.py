"""The package's public surface.

Every name a ``tmperc`` module exports resolves, and the benchmark's tracer
(``bench/tracer.py``, loaded read-only) can wrap every attribute it hooks
and put each one back, so removing a name the benchmark needs fails here.
The CLI runs with scipy made unimportable, so scipy stays a test-only
dependency and out of every command's start-up time.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tmperc

MODULES = sorted(info.name for info in pkgutil.iter_modules(tmperc.__path__))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tmperc.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_bench_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    from tmperc import analytic, checks, harness, intervention

    modules = (analytic, checks, harness, intervention)
    before = [dict(vars(module)) for module in modules]
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        changed = {
            (module.__name__, attr)
            for module, saved in zip(modules, before)
            for attr, value in saved.items()
            if vars(module)[attr] is not value
        }
        assert ("tmperc.harness", "run_dichotomy") in changed
        assert ("tmperc.checks", "ALL_CHECKS") in changed
    finally:
        tracer.restore()
    for module, saved in zip(modules, before):
        assert vars(module).keys() == saved.keys()
        assert all(vars(module)[attr] is value for attr, value in saved.items())


NO_SCIPY_CLI = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from tmperc import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_cli_runs_without_scipy(tmp_path):
    config = {
        "name": "no-scipy",
        "master_seed": 3,
        "graph": {"template": {"kind": "ring", "k": 5, "reach": 1}, "n": 500, "p": 0.02, "q": 0.002},
        "thresholds": {"zeta": {"2": 0.5, "3": 0.5}},
        "sweep": {"axis": "zeta_fraction", "threshold": 3, "complement": 2, "values": [0.5]},
        "graphs": 1,
        "trials": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    calls = [
        ["validate", "--quick"],
        ["analytic", "-c", str(path)],
        ["dichotomy", "-c", str(path), "--out", str(tmp_path / "rows")],
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CLI, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}
    assert '"phi_critical"' in proc.stdout
