"""Run sets of benchmark invocations and summarise them as a BENCH record.

Usage (from the repository root):

    # two sets of ten seeds on every workload, plus one traced run each
    python3 bench/sets.py --seeds 1-10 --sets 2 --trace --out bench/BENCH_000_baseline.json

    # parent against change as alternating pairs (same benchmark code in both)
    python3 bench/sets.py --seeds 1-10 --checkout ../parent --checkout . --out pairs.json

Each invocation is ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` with T from the checkout's ``BENCHMARK.json``.  Each set also runs every
workload once at its golden seed in each checkout (``--seconds 1``, not
timed), so the committed golden digests are checked in every set and
pair run; ``correct`` in the summary covers both.  For each
workload and end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median; with two
sets, how far the second median moved from the first; with two checkouts,
which side ran first alternates per seed and the summary counts the pairs
the second checkout won.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def invoke(checkout: str, workload: str, seed: int | None, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation; ``seed=None`` runs the workload's golden seed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])["record"]
    result["seed"] = result["record"]["seed"]
    result["invocation_s"] = time.monotonic() - started
    return result


def stats(values: list[float]) -> dict:
    summary = run.quartiles(values)
    spread = (summary["q3"] - summary["q1"]) / summary["median"]
    return summary | {"spread": spread, "values": values}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument(
        "--trace", action="store_true", help="add one traced run per workload at its golden seed"
    )
    parser.add_argument("--checkout", action="append", default=None, help="repeat for pairs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    checkouts = [os.path.abspath(c) for c in (args.checkout or [os.path.dirname(HERE)])]
    with open(os.path.join(checkouts[0], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    out: dict = {"benchmark": bench, "seeds": seeds, "checkouts": checkouts, "sets": [], "traced": {}}
    for set_idx in range(args.sets):
        runs: dict = {w: {c: [] for c in checkouts} for w in names}
        golden: dict = {w: {} for w in names}
        for workload in names:
            for checkout in checkouts:
                result = invoke(checkout, workload, None, 1, 0)
                golden[workload][checkout] = {
                    k: result[k] for k in ("seed", "correct", "attempted", "failed")
                }
                print(f"set {set_idx} {workload} golden seed {result['seed']} "
                      f"{os.path.basename(checkout)}: correct={result['correct']}", flush=True)
            for i, seed in enumerate(seeds):
                order = checkouts if i % 2 == 0 else checkouts[::-1]
                for checkout in order:
                    result = invoke(checkout, workload, seed, seconds, 0)
                    runs[workload][checkout].append(result)
                    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                    print(f"set {set_idx} {workload} seed {seed} {os.path.basename(checkout)}: "
                          f"correct={result['correct']} {values}", flush=True)
        summary = {
            w: {
                c: {
                    m: stats([r["metrics"][m]["value"] for r in runs[w][c]]) for m in metrics
                }
                | {"failed": sum(r["failed"] for r in runs[w][c]),
                   "attempted": sum(r["attempted"] for r in runs[w][c]),
                   "golden": golden[w][c],
                   "correct": golden[w][c]["correct"] and all(r["correct"] for r in runs[w][c])}
                for c in checkouts
            }
            for w in names
        }
        out["sets"].append({"summary": summary, "runs": runs})
    first = out["sets"][0]["summary"]
    verdicts = {}
    for w in names:
        for m, spec in metrics.items():
            base = first[w][checkouts[0]][m]
            row = {
                "correct": all(s["summary"][w][c]["correct"] for s in out["sets"] for c in checkouts),
                "spread_set0": base["spread"],
                "bound": spec["bound"],
            }
            if args.sets > 1:
                later = out["sets"][1]["summary"][w][checkouts[0]][m]
                row["spread_set1"] = later["spread"]
                row["set1_vs_set0"] = later["median"] / base["median"] - 1.0
            if len(checkouts) == 2:
                parent = out["sets"][0]["runs"][w][checkouts[0]]
                change = out["sets"][0]["runs"][w][checkouts[1]]
                sign = -1.0 if spec["better"] == "lower" else 1.0
                wins = sum(
                    sign * (c["metrics"][m]["value"] - p["metrics"][m]["value"]) > 0
                    for p, c in zip(parent, change)
                )
                row["change_wins"] = f"{wins}/{len(parent)}"
                row["change_vs_parent"] = first[w][checkouts[1]][m]["median"] / base["median"] - 1.0
            verdicts[f"{w}.{m}"] = row
    out["verdicts"] = verdicts
    if args.trace:
        for w in names:
            out["traced"][w] = invoke(checkouts[-1], w, None, seconds, 1)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for key, row in verdicts.items():
        print(key, {k: (round(v, 4) if isinstance(v, float) else v) for k, v in row.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
