"""tmperc benchmark: one workload for a fixed time, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload dichotomy --seed 106 --seconds 30 --trace 0

Starts one fresh interpreter per sample (``bench/child.py``), each calling
``tmperc.cli.main`` serially (``--jobs 1``) on the workload's committed
configs with the workload seed passed through ``--seed``, until the next
sample would overrun ``--seconds``.  Every output row is checked (see
``workloads.py``).  With ``--trace 0`` no layer is traced and the end-to-end
metrics are the medians over the samples; with ``--trace 1`` untraced
and traced samples alternate, and the per-layer table of the traced ones is
reported together with the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record with the provenance, every sample and the quartiles.  The program
under test is the ``tmperc`` package in ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HARD_LIMIT_S = 170.0  # one invocation must end within 180 s
# Interpreter start plus imports is short and noisy, so before each
# untraced sample a few interpreters start that only import tmperc; spread
# over the run, they follow the machine's speed as the samples do.
PROBES_PER_SAMPLE = 3

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in
    ``BENCHMARK.json``; the tracer computes the per-layer ones."""
    with open(BENCHMARK_PATH, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class ProgramMissing(RuntimeError):
    """The program under test cannot be imported; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = SRC
    return env


def run_child(
    workload: workloads.Workload,
    seed: int,
    trace: bool,
    timeout: float,
    probe: bool = False,
    golden: dict | None = None,
) -> dict:
    """One sample in a fresh interpreter; returns its timings and per-leg ops.

    A ``probe`` only starts the interpreter and imports ``tmperc``: it
    measures set-up time and calls nothing.  Outputs are compared with
    ``golden`` (default: ``golden.json``).
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="sample-", dir=WORK_DIR)
    try:
        legs = () if probe else workload.legs
        bases = [os.path.join(out_dir, f"leg{i}") for i in range(len(legs))]
        spec = {
            "calls": [workloads.cli_argv(leg, seed, base) for leg, base in zip(legs, bases)],
            "trace": trace,
        }
        cmd = [sys.executable, os.path.join(HERE, "child.py")]
        started = time.monotonic()
        spec["t0"] = started
        try:
            proc = subprocess.run(
                cmd + [json.dumps(spec)],
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"crashed": f"timed out after {timeout:.0f} s", "elapsed_s": time.monotonic() - started}
        elapsed = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"crashed": f"exit {proc.returncode}: {proc.stderr[-2000:]}", "elapsed_s": elapsed}
        if "import_error" in result:
            raise ProgramMissing(result["import_error"])
        result["elapsed_s"] = elapsed
        result["traced"] = trace
        result["legs"] = []
        if golden is None:
            golden = workloads.load_golden()
        for idx, (leg, call, base) in enumerate(zip(legs, result.pop("calls"), bases)):
            columns, wanted = workloads.golden_ops(golden, workload, idx, seed)
            columns, ops, missing = workloads.leg_ops(leg, call, base, columns)
            result["legs"].append(
                {
                    "columns": columns,
                    "ops": ops,
                    "missing": missing,
                    "wanted": wanted,
                    "error": call["error"],
                }
            )
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def score(workload: workloads.Workload, samples: list[dict]) -> tuple[int, int]:
    """Sum of (attempted, failed) over every sample and leg."""
    attempted = failed = 0
    references: list[list | None] = [None] * len(workload.legs)
    for sample in samples:
        if "crashed" in sample:
            for leg in workload.legs:
                expected = workloads.expected_ops(leg)
                attempted += expected
                failed += expected
            continue
        for idx, (leg, out) in enumerate(zip(workload.legs, sample["legs"])):
            a, f = workloads.score_leg(
                leg, out["ops"], out["missing"], out["wanted"], references[idx]
            )
            attempted += a
            failed += f
            if references[idx] is None and out["ops"] is not None:
                references[idx] = [digest for digest, _ in out["ops"]]
    return attempted, failed


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(samples: list[dict], workload: workloads.Workload, seed: int) -> dict:
    versions = next((s["versions"] for s in samples if "versions" in s), {})
    env = child_env()
    return {
        "commit": _git_commit(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "thread_env": {name: env[name] for name in THREAD_ENV},
        "workload_seed": seed if workload.default_seed is not None else None,
        "default_seed": workload.default_seed,
        "jobs": 1,
    }


def measure(workload: workloads.Workload, seed: int, seconds: int, trace: bool) -> tuple[list, list]:
    """(set-up probes, samples).  Rounds of probes plus one sample run until
    the next round would overrun ``seconds``; at least one sample (two when
    tracing: one untraced, one traced, and no probes)."""
    start = time.monotonic()
    probes: list[dict] = []
    samples: list[dict] = []
    rounds: list[float] = []
    while True:
        traced = trace and len(samples) % 2 == 1
        round_start = time.monotonic()
        for _ in range(0 if trace else PROBES_PER_SAMPLE):
            timeout = HARD_LIMIT_S - (time.monotonic() - start)
            probes.append(run_child(workload, seed, False, timeout, probe=True))
        timeout = HARD_LIMIT_S - (time.monotonic() - start)
        samples.append(run_child(workload, seed, traced, timeout))
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        typical = statistics.median(rounds)
        enough = len(samples) >= (2 if trace else 1)
        if elapsed + typical > HARD_LIMIT_S or (enough and elapsed + typical > seconds):
            return probes, samples


def metrics_of(probes: list[dict], samples: list[dict], trace: bool) -> tuple[dict, dict]:
    """(reported metrics, quartile summary) from the measured samples."""
    timed = [s for s in samples if "crashed" not in s]
    summary: dict[str, dict] = {}
    metrics: dict[str, dict] = {}
    if not trace:
        for name, unit in metric_units("end_to_end").items():
            values = [s[name] for s in timed]
            if name == "setup_s":
                values += [p[name] for p in probes if "crashed" not in p]
            summary[name] = quartiles(values)
            metrics[name] = {"value": summary[name]["median"], "unit": unit}
        return metrics, summary
    plain = [s["wall_s"] for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    layers = {
        name: statistics.median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_frac"] = traced_wall / statistics.median(plain) - 1.0
    for name, unit in metric_units("per_layer").items():
        metrics[name] = {"value": layers[name], "unit": unit}
    summary["wall_s"] = quartiles(plain)
    summary["trace.wall_s"] = quartiles([s["wall_s"] for s in traced])
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the golden one)")
    parser.add_argument("--seconds", type=int, default=30, help="measured time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else (workload.default_seed or 0)
    if seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "tmperc", "cli.py")):
        print(f"bench: no tmperc package under {SRC}", file=sys.stderr)
        return 2
    try:
        probes, samples = measure(workload, seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: cannot import tmperc: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    attempted, failed = score(workload, samples)
    timed = [s for s in samples if "crashed" not in s]
    kinds = {s["traced"] for s in timed}
    if not timed or (args.trace and kinds != {False, True}):
        for s in samples:
            print(f"bench: sample failed: {s.get('crashed')}", file=sys.stderr)
        return 1
    metrics, summary = metrics_of(probes, samples, bool(args.trace))
    errors = [leg["error"] for s in timed for leg in s["legs"] if leg["error"]]
    errors += [s["crashed"] for s in samples if "crashed" in s]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(timed, workload, seed),
        "golden_checked": workload.default_seed in (None, seed),
        "fail_frac": failed / attempted,
        "summary": summary,
        "setup_probes_s": [p.get("setup_s") for p in probes],
        "samples": [
            {k: s.get(k) for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "elapsed_s", "traced")}
            for s in timed
        ],
        "errors": errors[:3],
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
