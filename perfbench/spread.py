"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--out FILE]

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json.  `--out` keeps every run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **line})
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} failed={line['failed']} {vals}", flush=True)

    print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med
        print(f"{m['name']:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.2f}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
