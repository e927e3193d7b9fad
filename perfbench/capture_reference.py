#!/usr/bin/env python3
"""Write reference.json: the checked outputs of every workload at seed 0.

Run from the repository root, on the commit whose outputs are to be the
reference, and commit the file with the commit it describes:

    python3 perfbench/capture_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

import checks
import run

SEED = 0


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from trajtopo import cli

    run.cli = cli
    workdir = root / run.WORK_DIR / "capture"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    captured = {}
    try:
        for key, cls, ops in (("grid", run.GridFresh, 1),
                              ("stability_long", run.StabilityLong, 1),
                              ("stages_long", run.StagesLong, run.StagesLong.chains)):
            workload = cls(workdir, SEED)
            workload.reference = None
            for _ in range(ops):
                _, errors = workload.operation()
                if errors:
                    print(f"error: {key}: {errors}", file=sys.stderr)
                    return 1
            captured[key] = workload.outputs
    finally:
        shutil.rmtree(root / run.WORK_DIR, ignore_errors=True)
    doc = {str(SEED): captured}
    checks.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
