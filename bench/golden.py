"""Write ``golden.json``: each workload's output at its default seed.

Usage (from the repository root): python3 bench/golden.py [WORKLOAD ...]

Records per-row sha256 digests of every emitted CSV (over the columns the
program emits today) and the PASS lines of ``validate``.  Run it only when a
change is meant to alter outputs, and say why in the change.  A sample whose
rows break an invariant is refused.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(names: list[str]) -> int:
    golden = workloads.load_golden()
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        seed = workload.default_seed or 0
        # no golden to compare with: digest the columns the program emits now
        sample = run.run_child(workload, seed, False, run.HARD_LIMIT_S, golden={})
        if "crashed" in sample:
            print(f"{name}: {sample['crashed']}", file=sys.stderr)
            return 1
        legs = []
        for leg in sample["legs"]:
            if leg["ops"] is None or leg["missing"] or not all(ok for _, ok in leg["ops"]):
                print(f"{name}: outputs fail their invariants; not recorded", file=sys.stderr)
                return 1
            entry = {"ops": [digest for digest, _ in leg["ops"]]}
            if leg["columns"] is not None:
                entry["columns"] = leg["columns"]
            legs.append(entry)
        golden[name] = {"seed": workload.default_seed, "legs": legs}
        print(f"{name}: {sum(len(leg['ops']) for leg in legs)} ops recorded")
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
