"""Benchmark workloads and the checks on their outputs.

Each workload is one or more ``tmperc`` CLI calls ("legs") on committed
configs.  Every output row is checked with invariants that use no library
code path, and at the workload's default seed also against the committed
per-row sha256 digests in ``golden.json``.  An operation is one output row
(``dichotomy``, ``intervene``) or one check of the battery (``validate``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# validate prints floating-point error magnitudes ("worst relative error
# 1.17e-15"); a kernel that sums in another order may move them, so golden
# lines are compared with those numbers masked.
_ERROR_MAGNITUDE = re.compile(r"\d\.\d+e[-+]\d+")
_CHECKS = 8


@dataclass(frozen=True)
class Leg:
    command: str  # cli subcommand
    config: str | None  # path relative to this directory

    def config_dict(self) -> dict:
        with open(os.path.join(HERE, self.config), encoding="utf-8") as fh:
            return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int | None  # None: the workload ignores the seed
    legs: tuple[Leg, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dichotomy", 106, (Leg("dichotomy", "configs/dichotomy.json"),)),
        Workload("coinflip", 108, (Leg("dichotomy", "configs/coinflip.json"),)),
        Workload(
            "intervene",
            109,
            (
                Leg("intervene", "configs/intervene_bolster_a.json"),
                Leg("intervene", "configs/intervene_diminish_ring.json"),
            ),
        ),
        Workload("validate", None, (Leg("validate", None),)),
    )
}


def cli_argv(leg: Leg, seed: int, out_base: str) -> list[str]:
    if leg.command == "validate":
        return ["validate", "--quick"]
    return [
        leg.command,
        "-c", os.path.join(HERE, leg.config),
        "--seed", str(seed),
        "--out", out_base,
        "--jobs", "1",
    ]


def expected_ops(leg: Leg) -> int:
    """Rows (or checks) the leg emits when nothing fails; an upper bound for
    intervention legs, where an untriggered graph emits one row."""
    if leg.command == "validate":
        return _CHECKS
    cfg = leg.config_dict()
    points = len(cfg["sweep"]["values"])
    if leg.command == "intervene":
        return cfg["graphs"] * points
    return points * cfg["graphs"] * len(cfg["seed_factors"]) * cfg["trials"]


# ---------------------------------------------------------------------------
# row invariants


def _dichotomy_row_ok(row: dict, cfg: dict) -> bool:
    n = cfg["graph"]["n"]
    stop = cfg["stop_fraction"]
    if row["verdict"] not in ("spread", "halted"):
        return False
    infected = round(float(row["final_fraction"]) * n)
    if (row["verdict"] == "spread") != (infected >= stop * n):
        return False
    factor = float(row["seed_factor"])
    if int(row["seed_count"]) != int(round(factor * int(row["phi_critical"]))):
        return False
    return int(row["tau_end"]) >= 0


def _intervention_row_ok(row: dict, cfg: dict) -> bool:
    n = cfg["graph"]["n"]
    actual, predicted, agree = row["actual"], row["predicted"], row["agree"]
    if actual not in ("spread", "halted"):
        return False
    if predicted == "predicted-halt":
        agree_ok = agree == ("true" if actual == "halted" else "false")
    elif predicted == "predicted-spread":
        agree_ok = agree == ("true" if actual == "spread" else "false")
    else:
        agree_ok = predicted in ("uncertain-band", "no-trigger") and agree == ""
    boundary = float(row["boundary_i_cur"])
    return agree_ok and (math.isnan(boundary) or 0 < boundary < n)


def _validate_line_ok(line: str) -> bool:
    return line.startswith("PASS  ")


# ---------------------------------------------------------------------------
# output reading and digests


def read_rows(csv_path: str) -> tuple[list[str], list[dict]]:
    """Columns and rows of a CSV written by ``tmperc``'s ``emit``."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        fh.readline()  # "# config_hash=... name=..." provenance line
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [dict(zip(columns, cells)) for cells in reader]
    return columns, rows


def row_digest(row: dict, columns: list[str]) -> str:
    """sha256 of the row's cells in the golden column order, as emitted."""
    line = ",".join(row.get(c, "") for c in columns)
    return hashlib.sha256(line.encode()).hexdigest()


def normalize_check_line(line: str) -> str:
    return _ERROR_MAGNITUDE.sub("<e>", line)


def _intervention_shape(rows: list[dict], cfg: dict) -> tuple[list[bool], int]:
    """(per-row shape ok, rows missing) of an intervention table.

    Every graph ``0 .. graphs-1`` emits either one untriggered row (point -1,
    ``no-trigger``) or one row per sweep point, points ``0 .. P-1`` in order.
    A graph with no rows misses at least one.
    """
    points = len(cfg["sweep"]["values"])
    by_graph: dict[str, list[int]] = {}
    for i, row in enumerate(rows):
        by_graph.setdefault(row.get("graph", ""), []).append(i)
    shape_ok = [False] * len(rows)
    missing = 0
    for graph in range(cfg["graphs"]):
        idx = by_graph.pop(str(graph), [])
        got = [(rows[i].get("point"), rows[i].get("predicted")) for i in idx]
        if got == [("-1", "no-trigger")]:
            shape_ok[idx[0]] = True
            continue
        if not idx:
            missing += 1
            continue
        for k, i in enumerate(idx):
            shape_ok[i] = k < points and got[k][0] == str(k) and got[k][1] != "no-trigger"
        missing += max(0, points - len(idx))
    return shape_ok, missing  # rows of unknown graphs stay not ok


def leg_ops(leg: Leg, call: dict, out_base: str, columns: list[str] | None) -> tuple[list | None, list | None, int]:
    """(columns digested, per-operation ``(digest, invariant_ok)``, ops missing)
    of one leg.

    Ops are None if the call raised.  Row digests cover ``columns`` (the
    golden columns when there are any, else the emitted ones), so a column
    added later leaves them valid while any changed cell does not.  For
    ``validate`` the "digest" is the printed line itself.
    """
    if call["error"] is not None:
        return columns, None, 0
    if leg.command == "validate":
        lines = [l for l in call["stdout"].splitlines() if l.startswith(("PASS", "FAIL"))]
        return None, [(l, _validate_line_ok(l)) for l in lines], 0
    cfg = leg.config_dict()
    emitted, rows = read_rows(out_base + ".csv")
    columns = columns or emitted
    if leg.command == "dichotomy":
        row_ok = _dichotomy_row_ok
        shape_ok, missing = [True] * len(rows), 0
    else:
        row_ok = _intervention_row_ok
        shape_ok, missing = _intervention_shape(rows, cfg)
    ops = []
    for row, shaped in zip(rows, shape_ok):
        try:
            ok = shaped and row_ok(row, cfg)
        except (KeyError, ValueError, TypeError):
            ok = False
        ops.append((row_digest(row, columns), ok))
    return columns, ops, missing


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_ops(golden: dict, workload: Workload, leg_idx: int, seed: int) -> tuple[list | None, list | None]:
    """(columns, op digests) committed for the leg at ``seed``, or Nones."""
    gold = golden.get(workload.name)
    if gold is None or workload.default_seed not in (None, seed):
        return None, None
    leg = gold["legs"][leg_idx]
    return leg.get("columns"), leg["ops"]


def score_leg(
    leg: Leg, ops: list | None, missing: int, wanted: list[str] | None, reference: list | None
) -> tuple[int, int]:
    """(attempted, failed) for one leg of one child.

    An op fails when it breaks an invariant or differs from ``wanted`` (the
    golden digests) or ``reference`` (the first child of the run: every
    child runs the same inputs).  Missing ops count as failed: ``missing``
    found by the leg's own shape check, and any short of ``wanted``,
    ``reference`` or, except for intervention legs, whose row count varies
    with the seed, the exact expected count.
    """
    expected = expected_ops(leg)
    if ops is None:
        return expected, expected
    key = normalize_check_line if leg.command == "validate" else str
    failed = 0
    for i, (digest, ok) in enumerate(ops):
        bad = not ok or i >= expected
        for other in (wanted, reference):
            if other is not None and (i >= len(other) or key(other[i]) != key(digest)):
                bad = True
        failed += bad
    floor = max(len(wanted or ()), len(reference or ()), len(ops) + missing)
    if leg.command != "intervene":
        floor = max(floor, expected)
    missing = floor - len(ops)
    return max(1, len(ops) + missing), failed + missing
