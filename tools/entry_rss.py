"""Print the wall time and peak RSS of each catalogue entry, each in a fresh process.

A process's peak RSS is the largest it ever was, so running the entries one
after another in one process shows only the worst of them.  This script runs
each `harness.CATALOGUE` entry at the CLI defaults in its own Python process
and prints the entry's wall seconds (`ExperimentReport.wall_time_s`) and the
process's `ru_maxrss`.  The last line is one `run_all()` process,
with its summed wall seconds and its `ru_maxrss`.

Usage, from the repository root:

    python tools/entry_rss.py

It takes no options.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json, resource, sys
from alexgeo import harness
eid = sys.argv[1]
reports = harness.run_all() if eid == "run_all" else [harness.run_example(eid)]
print(json.dumps({
    "wall_s": sum(r.wall_time_s for r in reports),
    "passed": all(r.passed for r in reports),
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def measure(eid: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", CHILD, eid], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    sys.path.insert(0, str(SRC))
    from alexgeo import harness

    print(f"{'entry':15} {'wall_s':>8} {'maxrss_mb':>10}  passed")
    for eid in [*harness.CATALOGUE, "run_all"]:
        r = measure(eid)
        print(f"{eid:15} {r['wall_s']:8.2f} {r['maxrss_mb']:10.1f}  {r['passed']}", flush=True)


if __name__ == "__main__":
    main()
