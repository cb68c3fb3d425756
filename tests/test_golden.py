"""Golden fixed-seed outputs: refactors and speedups must keep every byte.

Each config is small (n = 2000, a few graphs) but runs the real sweep
drivers end to end and emits through ``harness.emit``.  The sha256 of the
CSV was recorded before the engine's scatter kernel replaced ``np.unique``
and ``np.bincount(minlength=n)``; the sequester, delay and bolster_b digests
were recorded before the three surrogate builders merged into one.  A change
to any digest means some row changed and must be explained, not re-recorded
silently.  The eight results of the ``validate --quick`` battery are pinned
the same way, with their floating-point error magnitudes masked.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from tmperc import checks, harness

N = 2000

CONFIGS = {
    "dichotomy": {
        "name": "golden-dichotomy",
        "master_seed": 106,
        "graph": {
            "template": {"kind": "ring", "k": 8, "reach": 1},
            "n": N,
            "near_degree": 5.0,
            "far_degree": 5.0,
        },
        "thresholds": {"zeta": {"2": 0.5, "3": 0.5}},
        "sweep": {"axis": "zeta_fraction", "threshold": 3, "complement": 2, "values": [0.0, 0.5]},
        "graphs": 3,
        "trials": 4,
        "seed_factors": [0.9, 1.1],
    },
    "coinflip": {
        "name": "golden-coinflip",
        "master_seed": 108,
        "graph": {"template": {"kind": "single"}, "n": N, "near_degree": 10.0},
        "thresholds": {"coinflip": {"s": 1, "z": 0.5, "r_max": 20}},
        "sweep": {"axis": "coin_z", "values": [0.4, 0.6]},
        "graphs": 3,
        "trials": 4,
        "seed_factors": [0.9, 1.1],
    },
    "bolster": {
        "name": "golden-bolster",
        "master_seed": 109,
        "graph": {"template": {"kind": "single"}, "n": N, "p": 0.0035},
        "thresholds": {"zeta": {"2": 1.0}},
        "sweep": {"axis": "alpha", "values": [0.2, 0.6, 1.0]},
        "graphs": 3,
        "trials": 1,
        "intervention": {
            "variant": "bolster_a",
            "lambda": 0.1,
            "baseline_seed_factor": 1.6,
            "compute_boundary": True,
        },
    },
    "diminish": {
        "name": "golden-diminish",
        "master_seed": 109,
        "graph": {"template": {"kind": "planted", "k": 2}, "n": N, "p": 0.006, "q": 0.002},
        "thresholds": {"zeta": {"2": 1.0}},
        "sweep": {"axis": "alpha", "values": [0.2, 0.6, 1.0]},
        "graphs": 3,
        "trials": 1,
        "intervention": {
            "variant": "diminish",
            "lambda": 0.1,
            "baseline_seed_factor": 1.6,
            "compute_boundary": True,
        },
    },
    "sequester": {
        "name": "golden-sequester",
        "master_seed": 109,
        "graph": {"template": {"kind": "planted", "k": 2}, "n": N, "p": 0.006, "q": 0.002},
        "thresholds": {"zeta": {"2": 0.6, "3": 0.4}},
        "sweep": {"axis": "alpha", "values": [0.2, 0.6, 1.0]},
        "graphs": 3,
        "trials": 1,
        "intervention": {
            "variant": "sequester",
            "lambda": 0.1,
            "baseline_seed_factor": 1.6,
            "compute_boundary": True,
        },
    },
    "delay": {
        "name": "golden-delay",
        "master_seed": 109,
        "graph": {"template": {"kind": "single"}, "n": N, "p": 0.0035},
        "thresholds": {"zeta": {"2": 0.6, "3": 0.4}},
        "sweep": {"axis": "alpha", "values": [0.2, 0.6, 1.0]},
        "graphs": 3,
        "trials": 1,
        "intervention": {
            "variant": "delay",
            "lambda": 0.1,
            "baseline_seed_factor": 1.6,
            "r_max_prime": 8,
            "compute_boundary": True,
        },
    },
    "bolster_b": {
        "name": "golden-bolster-b",
        "master_seed": 109,
        "graph": {
            "template": {"kind": "ring", "k": 8, "reach": 1},
            "n": N,
            "p": 0.004,
            "q": 0.001,
        },
        "thresholds": {"zeta": {"2": 0.6, "3": 0.4}},
        "sweep": {"axis": "alpha", "values": [0.2, 0.6, 1.0]},
        "graphs": 3,
        "trials": 1,
        "intervention": {
            "variant": "bolster_b",
            "lambda": 0.1,
            "baseline_seed_factor": 1.6,
            "compute_boundary": True,
        },
    },
}

DIGESTS = {
    "dichotomy": "fd9fb2453f93b3bbe3e13fc6c0b0609fffadc9bbec272c1e07eeb46184531fb5",
    "coinflip": "6319f74236a55092a2fb53a9ac610602b2097742947d821d31fce1b519517764",
    "bolster": "c01346e3b0c44727af8260b12218aafdd9308458e3072b5d5b6c917ecce6b770",
    "diminish": "9896cf6e2a8c8fb78417618e7b3d2899312cf4c0cb11fe5248111ea7691558e4",
    "sequester": "b5a2d064cd1de329f4a0ac27b56684213ea64e81f7635c249f5c7e7cdc58e56d",
    "delay": "2cf0506295f4c59c4bac6c0adf1b0cd5951f2761c37dae17fb06d82fad8454a0",
    "bolster_b": "274a26ab91dd57cfe14423bb555362b2e51a0f873fc4dbb1508e091c0dd335bd",
}


def _csv_digest(name: str, tmp_path) -> str:
    config = harness.load_config(CONFIGS[name])
    run = harness.run_intervention if "intervention" in CONFIGS[name] else harness.run_dichotomy
    base = str(tmp_path / name)
    harness.emit(run(config), base)
    with open(base + ".csv", "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name, tmp_path):
    assert _csv_digest(name, tmp_path) == DIGESTS[name]


# validate's error magnitudes ("worst relative error 1.17e-15") may move in the
# last bits with a kernel's summation order, so they are masked
_ERROR_MAGNITUDE = re.compile(r"\d\.\d+e[-+]\d+")

VALIDATE_QUICK = [
    ("template-builders", True, "5 builders valid"),
    ("pi-vs-exact-rational", True, "worst relative error <e>"),
    ("distribution-mass", True, "sum over full support is 1"),
    ("growth-bounds", True, "200 random draws within bounds"),
    ("convexity", True, "second differences non-negative on the horizon"),
    ("coinflip-reduce", True, "mass 1.0"),
    ("engine-fixpoint", True, "60 random instances match the dense fixpoint"),
    ("residual-enumeration", True, "25 instances match enumeration"),
]


def test_validate_quick_results():
    masked = [
        (name, ok, _ERROR_MAGNITUDE.sub("<e>", message))
        for name, ok, message in checks.run_validation(quick=True)
    ]
    assert masked == VALIDATE_QUICK
