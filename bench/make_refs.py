#!/usr/bin/env python3
"""Regenerate the pinned reference outputs in bench/refs/ from the klms
sources in this checkout.

    python3 bench/make_refs.py [workload ...]

Run it only at a commit whose outputs are trusted: every benchmark run is
checked against these values.
"""

import json
import shutil
import sys

from run import OUT_DIR, SRC, git_describe
from workloads import POOL_SIZE, REF_ATOL, REF_RTOL, REFS_DIR, WORKLOADS, UnitRunner


def main(workloads) -> int:
    sys.path.insert(0, str(SRC))
    for workload in workloads or WORKLOADS:
        runner = UnitRunner(workload, OUT_DIR / f"scratch-refs-{workload}")
        runner.scratch.mkdir(parents=True, exist_ok=True)
        units = {}
        for unit in range(POOL_SIZE[workload]):
            outputs, errors = runner.run(unit)
            if errors:
                raise SystemExit("\n".join(errors))
            units[str(unit)] = outputs
        shutil.rmtree(runner.scratch)
        with open(REFS_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "git_describe": git_describe(),
                       "rtol": REF_RTOL, "atol": REF_ATOL, "units": units}, handle, indent=1)
        print(f"{workload}: pinned {len(units)} units")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
