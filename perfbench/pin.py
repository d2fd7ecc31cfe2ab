"""Regenerate ``digests.json``: the pinned per-trial result digests.

Run from the repository root after a change that is *meant* to alter
simulated results (or the workload definitions)::

    python3 perfbench/pin.py

Every trial of every workload is run once for the default seed, with a
private structure store, and its result digest recorded. The benchmark
fails any default-seed trial whose result no longer matches.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    run._import_program()
    from repro import structcache
    from workloads import DEFAULT_SEED, WORKLOADS, invariant_error

    run.OUT_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=run.OUT_DIR)
    structcache.activate(store_dir)
    pinned = {}
    try:
        for name, build in WORKLOADS.items():
            digests = {}
            for trial in build(DEFAULT_SEED):
                result = run._run(trial.spec)
                if isinstance(result, str):
                    print(f"{name}/{trial.label} raised:\n{result}", file=sys.stderr)
                    return 1
                problem = invariant_error(trial.kind, result)
                if problem is not None:
                    print(f"{name}/{trial.label}: {problem}", file=sys.stderr)
                    return 1
                digests[trial.label] = run.result_digest(result)
            pinned[name] = digests
            print(f"{name}: {len(digests)} trials pinned")
    finally:
        structcache.deactivate()
        shutil.rmtree(store_dir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": pinned}, indent=1, sort_keys=True
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
