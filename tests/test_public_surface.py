"""The package's public surface.

Every name a ``tmperc`` module exports resolves, and the benchmark's tracer
(``bench/tracer.py``, loaded read-only) can wrap every attribute it hooks
and put each one back, so removing a name the benchmark needs fails here.
The CLI runs with scipy made unimportable, so scipy stays a test-only
dependency and out of every command's start-up time, and importing the CLI
loads neither the process pool nor the property battery.
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


LEAN_START = """
import importlib.util, json, sys
import tmperc.cli
from tmperc import harness
loaded = [name for name in json.loads(sys.argv[2]) if name in sys.modules]
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
before = dict(vars(harness))
tracer = tracing.Tracer()
tracing.install(tracer)  # AttributeError if the harness lost a name the tracer wraps
wrapped = sorted(attr for attr, value in before.items() if vars(harness)[attr] is not value)
tracer.restore()
print(json.dumps({"loaded": loaded, "wrapped": wrapped}))
"""


def test_cli_import_loads_neither_process_pool_nor_battery():
    heavy = ["concurrent.futures.process", "multiprocessing", "fractions", "tmperc.checks"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_START, str(TRACER), json.dumps(heavy)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["loaded"] == []
    layer_entry_points = {"run_standard", "run_coinflip", "sample_graph", "run_to_trigger",
                               "apply_in_simulation", "boundary_scan", "build_profile",
                               "build_surrogate", "predict"}
    assert layer_entry_points <= set(result["wrapped"])


NO_MASKED_ARRAYS = """
import json, sys
from tmperc import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_intervene_does_not_load_numpy_ma(tmp_path):
    # numpy 2's np.unique without return_counts imports numpy.ma, which costs
    # the intervene command about 1.2 MB of RSS and 13-18 ms
    graph = {"template": {"kind": "single"}, "n": 2000, "p": 0.0035}
    section = {"lambda": 0.1, "baseline_seed_factor": 1.6, "compute_boundary": True}
    variants = {"bolster_a": {"zeta": {"2": 1.0}}, "delay": {"zeta": {"2": 0.6, "3": 0.4}}}
    calls = []
    for variant, thresholds in variants.items():
        config = {
            "name": f"no-ma-{variant}",
            "master_seed": 109,
            "graph": graph,
            "thresholds": thresholds,
            "sweep": {"axis": "alpha", "values": [0.2, 0.6]},
            "graphs": 2,
            "trials": 1,
            "intervention": {**section, "variant": variant},
        }
        if variant == "delay":
            config["intervention"]["r_max_prime"] = 8
        path = tmp_path / f"{variant}.json"
        path.write_text(json.dumps(config))
        calls.append(["intervene", "-c", str(path), "--out", str(tmp_path / variant)])
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"codes": [0, 0], "numpy.ma": False}
    for variant in variants:  # every graph triggered, so each intervention was applied
        header, *rows = (tmp_path / f"{variant}.csv").read_text().splitlines()[1:]
        triggered = header.split(",").index("triggered")
        assert len(rows) == 4 and all(row.split(",")[triggered] == "true" for row in rows)
