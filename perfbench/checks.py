"""Output checks for benchmark operations.

Every operation is checked against invariants that hold at any seed. At a
seed recorded in `reference.json` its outputs must also match the values
captured there. Repeats of an operation must print and write the same
bytes; the workloads in `run.py` check that.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A solver swap moves positive magnitude by about 1e-13 relative and
# leaves every other statistic unchanged; a wrong statistic (another
# alpha, another aggregate, another scale) moves values by 1e-6 or more.
REL_TOL = 1e-9

# the values of a bound row; other keys may come and go with the schema
BOUND_KEYS = ("n", "beta_hat", "L", "B", "alpha", "K", "lambda", "theorem_scale",
              "ealpha_bound", "pmag_bound")


def load_reference(workload: str, seed: int):
    """Reference outputs of a workload at a seed, or None if none were captured."""
    if not REFERENCE_PATH.exists():
        return None
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return doc.get(str(seed), {}).get(workload)


def diff(expected, got, path: str = "$") -> list[str]:
    """Differences between two JSON-like values; numbers within REL_TOL agree."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return [f"{path}: keys differ ({sorted(expected)} vs "
                    f"{sorted(got) if isinstance(got, dict) else type(got).__name__})"]
        return [d for k in sorted(expected) for d in diff(expected[k], got[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: expected a list of {len(expected)} items, got {got!r:.80}"]
        return [d for i, (e, g) in enumerate(zip(expected, got)) for d in diff(e, g, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(expected, got, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{path}: expected {expected!r}, got {got!r}"]
    if type(expected) is not type(got) or expected != got:
        return [f"{path}: expected {expected!r}, got {got!r}"]
    return []


def _finite_nonnegative(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value >= 0


def _pmag_in_range(value: float, points: int) -> bool:
    # 1 <= PMag <= points, with rounding slack
    return 1 - REL_TOL <= value <= points * (1 + REL_TOL)


def grid_outputs(out_dir: Path) -> dict:
    """Run records, stability means and bound rows of a `trajtopo run` output."""
    summary = json.loads((out_dir / "report" / "summary.json").read_text(encoding="utf-8"))
    return {
        "runs": {
            r["run_id"]: {"gen_gap": r["gen_gap"], "e_alpha": r["e_alpha"], "pmag": r["pmag"]}
            for r in summary["runs"]
        },
        "stability": {
            str(s["n"]): {"mean": s["mean"], "beta_hats": s["beta_hats"]}
            for s in summary["stability"]
        },
        "bounds": [{k: row[k] for k in BOUND_KEYS} for row in summary["bounds"]],
    }


def grid_invariants(out_dir: Path, outputs: dict, cells: int) -> list[str]:
    errors = []
    if len(outputs["runs"]) != cells:
        errors.append(f"expected {cells} run records, found {len(outputs['runs'])}")
    for run_id, run in outputs["runs"].items():
        manifest = out_dir / "cells" / run_id / "trajectory.json"
        points = json.loads(manifest.read_text(encoding="utf-8"))["shape"][0]
        if not math.isfinite(run["gen_gap"]) or not _finite_nonnegative(run["e_alpha"]):
            errors.append(f"{run_id}: gen_gap or e_alpha out of range")
        for key, value in run["pmag"].items():
            if not _pmag_in_range(value, points):
                errors.append(f"{run_id}: PMag[{key}] = {value} outside [1, {points}]")
    for n, stab in outputs["stability"].items():
        if not _finite_nonnegative(stab["mean"]):
            errors.append(f"stability mean at n={n} is {stab['mean']}")
    if not outputs["bounds"]:
        errors.append("no bound rows")
    for row in outputs["bounds"]:
        for key in ("ealpha_bound", "pmag_bound"):
            if not _finite_nonnegative(row[key]):
                errors.append(f"{key} at n={row['n']} is {row[key]}")
    return errors


def stability_outputs(stdout: str) -> list[dict]:
    """Stability reports printed by `trajtopo stability --config`."""
    decoder = json.JSONDecoder()
    reports, pos = [], 0
    text = stdout.strip()
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        reports.append({k: doc[k] for k in ("n", "J", "mean", "beta_hats")})
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return reports


def stability_invariants(reports: list[dict], expected_reports: int) -> list[str]:
    errors = []
    if len(reports) != expected_reports:
        errors.append(f"expected {expected_reports} stability reports, got {len(reports)}")
    for rep in reports:
        if not _finite_nonnegative(rep["mean"]):
            errors.append(f"stability mean at n={rep['n']} is {rep['mean']}")
    return errors


def chain_outputs(printouts: dict[str, str]) -> dict:
    """Values printed by one traj-gen, distmat, lifetime-sum, pmag chain."""
    traj = json.loads(printouts["traj-gen"])
    dist = json.loads(printouts["distmat"])
    life = json.loads(printouts["lifetime-sum"])
    pmag = json.loads(printouts["pmag"])
    return {
        "traj_gen": {"gen_gap": traj["gen_gap"]},
        "distmat": {"points": dist["points"]},
        "lifetime_sum": {k: life[k] for k in ("alpha", "e_alpha", "edges")},
        "pmag": {s: {"pmag": v["pmag"], "magnitude": v["magnitude"]} for s, v in pmag.items()},
    }


def chain_invariants(outputs: dict, scales: int) -> list[str]:
    errors = []
    points = outputs["distmat"]["points"]
    life = outputs["lifetime_sum"]
    if life["edges"] != points - 1 or not _finite_nonnegative(life["e_alpha"]):
        errors.append(f"lifetime sum {life} inconsistent with {points} points")
    if not math.isfinite(outputs["traj_gen"]["gen_gap"]):
        errors.append("gen_gap is not finite")
    if len(outputs["pmag"]) != scales:
        errors.append(f"expected {scales} magnitude scales, got {len(outputs['pmag'])}")
    for scale, value in outputs["pmag"].items():
        if not _pmag_in_range(value["pmag"], points):
            errors.append(f"PMag at scale {scale} = {value['pmag']} outside [1, {points}]")
    return errors
