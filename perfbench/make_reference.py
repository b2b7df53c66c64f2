"""Regenerate reference.json: the output digests of one round of every
workload at the default seed.

    python3 perfbench/make_reference.py

Run it only after checking that a change of outputs is intended; the
benchmark counts every operation whose digest differs from the reference as
failed.
"""

import json
import shutil
import sys

import run


def main():
    path = run.HERE / "reference.json"
    reference = {}
    for name, workload in run.WORKLOADS.items():
        workdir = run.WORK / f"reference-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            state, _ = run.setup(workload, run.DEFAULT_SEED, workdir)
            log = run.RunLog(workload, state)
            log.add(run.run_round(workload, state))
            failed = log.verify(seed=None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failed:
            sys.exit(f"{name}: {failed} failed operations: {log.reasons}")
        reference[name] = dict(sorted(log.digests.items()))
    path.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
