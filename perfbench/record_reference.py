#!/usr/bin/env python3
"""Rewrite perfbench/reference.json: the metric values every workload's
outputs hold for the default seed.

Run from the repository root, only when a change is meant to alter those
values (a new workload, another epoch count, a changed metric):

    python3 perfbench/record_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
import warnings

from run import WORK, import_package


def main() -> int:
    import_package()
    from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS, check_ops, run_iteration

    warnings.simplefilter("ignore")
    reference = {}
    for name, workload in WORKLOADS.items():
        out = WORK / f"reference-{name}"
        shutil.rmtree(out, ignore_errors=True)
        try:
            ops = run_iteration(workload, DEFAULT_SEED, out, tiny=False)
            check_ops(ops, None)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            if not any(WORK.iterdir()):
                WORK.rmdir()
        errors = [f"{op.name}: {op.error}" for op in ops if op.error]
        if errors:
            print(f"{name}: outputs fail their checks: {errors}", file=sys.stderr)
            return 1
        reference[name] = {op.name: op.metrics for op in ops if op.metric_files}
        print(f"{name}: recorded {len(reference[name])} ops")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
