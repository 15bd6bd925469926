"""alexgeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file): `catalogue`, `net_io`, `quotients`.

Every measured pass runs in a fresh process (`workloads.py`), because the
library keeps process-wide caches (the ellipsoid geodesic engine) that a CLI
user pays on every call.  With `--trace 0` the run starts SETUP_SAMPLES
set-up-only processes, then measured passes until S seconds of timed calls
are done (at least one pass), and prints the end-to-end metrics.  With
`--trace 1` it runs one untraced and one traced pass and prints the per-layer
metrics, including the tracing overhead.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalogue", "net_io", "quotients")
SETUP_SAMPLES = 4
# A run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 170.0

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "covering_ratio_max": "ratio",
    "query_p90_us": "us",
    "query_p98_us": "us",
}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One fresh process; returns the JSON object on its last stdout line."""
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise ChildFailed("no time left for another pass")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--started", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise ChildFailed(f"{mode} pass of {workload} did not finish in {timeout:.0f} s") from exc
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} pass of {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(passes: list, setups: list) -> dict:
    """End-to-end metrics, name -> (value, unit), from untraced passes."""
    def med(key):
        return statistics.median(p[key] for p in passes)

    values = {
        "wall_s": med("wall_s"),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "covering_ratio_max": max(p["covering_ratio_max"] for p in passes),
        "query_p90_us": med("query_p90_us"),
        "query_p98_us": med("query_p98_us"),
    }
    return {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = {k: (v, u) for k, (v, u) in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    return metrics


def result_line(passes: list, metrics: dict) -> dict:
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def declared(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            passes = [run_child(args.workload, args.seed, "run", deadline),
                      run_child(args.workload, args.seed, "trace", deadline)]
            metrics = per_layer(*passes)
        else:
            setups = [run_child(args.workload, args.seed, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            passes = [run_child(args.workload, args.seed, "run", deadline)]
            while (sum(p["wall_s"] for p in passes) < args.seconds
                   and time.monotonic() + 1.5 * max(p["wall_s"] for p in passes) < deadline):
                passes.append(run_child(args.workload, args.seed, "run", deadline))
            metrics = end_to_end(passes, setups)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    want = declared(bool(args.trace))
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        print(f"benchmark bug: printed metrics {got} differ from BENCHMARK.json {want}",
              file=sys.stderr)
        return 1

    print(f"env {json.dumps(passes[-1]['env'], sort_keys=True)}")
    for p in passes:
        for f in p["failures"]:
            print(f"FAILED {f}")
    mode = "one untraced and one traced pass" if args.trace else f"{len(passes)} measured pass(es)"
    print(f"workload {args.workload} seed {args.seed}: {mode}; "
          f"{passes[-1]['queries']} scalar queries per pass")
    for label, (median, p90) in passes[-1]["query_sets_us"].items():
        print(f"  query set {label}: median {median:.6g} us, p90 {p90:.6g} us")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if args.trace:
        print(f"spans written to {passes[-1]['spans_file']}")
    print(json.dumps(result_line(passes, metrics)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
