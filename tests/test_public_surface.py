"""The package's public surface.

Every name a ``tmperc`` module exports resolves, and the benchmark's tracer
(``bench/tracer.py``, loaded read-only) can wrap every attribute it hooks
and put each one back, so removing a name the benchmark needs fails here.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tmperc

MODULES = sorted(info.name for info in pkgutil.iter_modules(tmperc.__path__))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
