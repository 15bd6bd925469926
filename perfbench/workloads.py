"""One pass of a benchmark workload, run in a fresh process by `run.py`.

    python3 perfbench/workloads.py --workload NAME --seed N --mode MODE --started T

MODE is `setup` (imports and input generation only), `run` (one measured
pass) or `trace` (one measured pass with layer spans recorded).  `--started`
is the parent's `time.monotonic()` reading taken just before it started this
process, so setup_s covers interpreter start, `import alexgeo` and input
generation, up to the first timed call.  The last line of standard output is
one JSON object with the pass's timings, operation counts and check failures.

Each workload is a closed loop with one caller: the next call is issued only
after the previous one returns.  Checks run outside the timed calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import alexgeo  # noqa: E402
from alexgeo import actions, cli, comparison, harness, invariants, nets, serialize, spaces  # noqa: E402
from alexgeo.nets import FiniteNet  # noqa: E402
from alexgeo.spaces import (  # noqa: E402
    HALF_PI,
    PI,
    Cone,
    Interval,
    Join,
    Lens,
    ModelBall,
    Quotient,
    Sphere,
    Suspension,
)
from tracer import Tracer  # noqa: E402

if Path(alexgeo.__file__).resolve().parent != SRC / "alexgeo":
    raise SystemExit(f"alexgeo was imported from {alexgeo.__file__}, not from {SRC}")

# The catalogue passes all its checks at these seeds; --seed picks one of them.
CATALOGUE_SEEDS = (42, 1, 7)
# Scalar queries made between catalogue entries, on the spaces its oracle loops use.
CATALOGUE_QUERY_SPACES = (
    ("join_s1_s1", Join(Sphere(1, 1.0), Sphere(1, 1.0))),
    ("suspension_s1", Suspension(Sphere(1, 1.0))),
    ("lens_3_pi", Lens(3, PI)),
)
CATALOGUE_QUERIES = 500

NET_IO_SPACES = (
    ("lens", Lens(3, 1.0)),
    ("join_intervals", Join(Interval(PI), Interval(PI))),
    ("model_ball", ModelBall(1.0, PI / 4, 3)),
    ("suspension", Suspension(Sphere(1, 1.0))),
    ("cone", Cone(-1.0, Sphere(1, 1.0), 1.0)),
    ("sphere", Sphere(2, 0.5)),
)
NET_IO_EPSILON = 0.05
# Four of the six nets are budget-limited (1300-1500 points); two stay near 800.
NET_IO_BUDGET = 1500
NET_IO_QUERIES = 5000

QUOTIENT_BASES = {
    "s3": Sphere(3, 1.0),
    "cap": Cone(1.0, Sphere(1, 1.0), 1.0),
    "cap075": Cone(1.0, Sphere(1, 0.75), HALF_PI),
}
# A Z_256 reload costs 5-11 s (2-vCPU VM, commit 6db8e61), so only the
# 3-sphere runs at m = 256; the 0.75-radius circle, where no closed-form
# kernel applies, runs at m = 8 and 64.
QUOTIENT_CASES = (
    ("s3", 8), ("cap", 8), ("cap075", 8),
    ("s3", 64), ("cap", 64), ("cap075", 64),
    ("s3", 256),
)
QUOTIENT_EPSILON = 0.07
QUOTIENT_BUDGET = 1000
QUOTIENT_QUERIES = 500

COVERING_PROBES = 500
COVERING_SEED = 1234
# Scalar and vectorised distances agree to rounding; arccos near 0 amplifies
# a 1e-16 cosine error to about 1e-8.
QUERY_TOL = 1e-7


class Pass:
    """Timings, operation counts and check failures of one measured pass.

    Scalar `distance` queries are planned up front as (label, space, P, R)
    sets with equally many pairs.  A round makes one call per set, and the
    rounds are shared out over the pass's steps, so every set's calls spread
    over the whole pass and machine-speed drift hits all of them, and wall_s,
    alike.  The calls of one set form one latency group.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.timed_s = 0.0
        self.first_call: float | None = None
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list = []
        self.covering: list = []
        self.plan_queries([], steps=1)

    @contextlib.contextmanager
    def timed(self):
        if self.first_call is None:
            self.first_call = time.monotonic()
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timed_s += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.enabled = False

    @contextlib.contextmanager
    def step(self):
        """A timed workload step, followed by its timed share of the query rounds."""
        with self.timed():
            yield
            self.next_rounds()

    def next_rounds(self):
        self._steps_done += 1
        self.query_rounds(self._bounds[self._steps_done])

    def untimed_rounds(self):
        """The next share of the query rounds, run inside a timed call but left out of wall_s."""
        t0 = time.perf_counter()
        tracing = self.tracer is not None and self.tracer.enabled
        if tracing:
            self.tracer.enabled = False
        self.next_rounds()
        if tracing:
            self.tracer.enabled = True
        self.timed_s -= time.perf_counter() - t0

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def mark_peak(self):
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def plan_queries(self, sets: list, steps: int):
        self.query_sets = list(sets)
        rounds = len(sets[0][2]) if sets else 0
        self._bounds = np.linspace(0, rounds, steps + 1).round().astype(int)
        self._steps_done = 0
        self._rounds_done = 0
        self.query_out = [np.empty(rounds) for _ in sets]
        self.latencies_ns = [[] for _ in sets]

    def query_rounds(self, stop: int):
        """Scalar `distance` calls of the rounds up to `stop`, one call at a time, each timed."""
        clock = time.perf_counter_ns
        for i in range(self._rounds_done, stop):
            for j, (_, space, P, R) in enumerate(self.query_sets):
                t0 = clock()
                self.query_out[j][i] = spaces.distance(space, P[i], R[i])
                self.latencies_ns[j].append(clock() - t0)
        self._rounds_done = max(self._rounds_done, stop)

    def finish_queries(self):
        """Untimed: the rounds of steps that did not run, then the output checks.

        Each query is one operation; it fails unless it matches the vectorised kernel.
        """
        self.query_rounds(self._bounds[-1])
        for (label, space, P, R), d in zip(self.query_sets, self.query_out):
            ref = spaces.elementwise_distance(
                space, spaces.pack_points(space, P), spaces.pack_points(space, R)
            )
            bad = ~(np.isfinite(d) & (np.abs(d - ref) <= QUERY_TOL))
            self.attempted += len(d)
            for i in np.flatnonzero(bad):
                self.failures.append(f"{label}: query {i} gave {d[i]!r}, kernel {ref[i]!r}")

    def covering_ratio(self, net: FiniteNet):
        """Measured covering radius over the requested epsilon, with fixed probes."""
        self.covering.append(nets.covering_check(net, COVERING_PROBES, COVERING_SEED) / net.epsilon)

    def result(self, setup_s: float) -> dict:
        groups = [np.asarray(g, dtype=float) / 1e3 for g in self.latencies_ns]
        pooled = np.concatenate(groups) if groups else np.empty(0)
        return {
            "setup_s": setup_s,
            "wall_s": self.timed_s,
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "queries": int(pooled.size),
            # The latency of a typical set is the median over sets of each
            # set's 90th percentile.  The sets differ by up to 100x, so a pooled
            # statistic would follow the mix of sets.  A shared VM runs at
            # speeds up to 1.7x apart in spells of seconds, and the share of
            # fast spells changes from run to run: that moves a set's mean or
            # median, while its 90th percentile follows the common, slower
            # speed.
            "query_p90_us": float(np.median([np.percentile(g, 90) for g in groups])) if groups else None,
            # The tail is the 98th percentile over all calls.  In net_io, where
            # calls take 10-30 us, the 99th moved with the share of fast spells
            # about twice as much.
            "query_p98_us": float(np.percentile(pooled, 98)) if groups else None,
            "covering_ratio_max": max(self.covering) if self.covering else None,
            "query_sets_us": {label: [float(np.median(g)), float(np.percentile(g, 90))]
                              for (label, *_), g in zip(self.query_sets, groups)},
        }


@contextlib.contextmanager
def after_calls(module, attr: str, after):
    """Call `after(value)` with every value `module.attr` returns while the block runs."""
    fn = getattr(module, attr)

    def hook(*args, **kwargs):
        out = fn(*args, **kwargs)
        after(out)
        return out

    setattr(module, attr, hook)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def without_matrix(net: FiniteNet) -> FiniteNet:
    """The net's points only: enough for `covering_check`, without the n x n matrix."""
    return FiniteNet(space=net.space, coords=net.coords, is_boundary=net.is_boundary, dist=None,
                     epsilon=net.epsilon, epsilon_effective=net.epsilon_effective, seed=net.seed)


def run_cli(argv: list) -> tuple:
    """`alexgeo` in process; its standard output is kept, not printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_catalogue(reports, p: Pass):
    """Each catalogue record is one operation; it fails unless the record passed."""
    for rep in reports:
        eid = rep.config["example_id"]
        for rec in rep.records:
            p.op(bool(rec.passed), f"catalogue {eid}: {rec.name} (expected {rec.expected}, "
                                   f"observed {rec.observed})")


def check_cli_step(p: Pass, label: str, rc: int, problems: list):
    """One CLI call is one operation; it fails on a non-zero exit or any problem found."""
    if rc != 0:
        problems = [f"exit code {rc}"] + list(problems)
    p.op(not problems, f"{label}: {'; '.join(problems)}")


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def invariant_problems(radius: float, diameter: float) -> list:
    if radius <= diameter <= 2.0 * radius:
        return []
    return [f"radius {radius!r} and diameter {diameter!r} break radius <= diameter <= 2 radius"]


# ---------------------------------------------------------------------------
# workloads: prepare(seed, work_dir) -> inputs; run(inputs, seed, pass, tracer)
# ---------------------------------------------------------------------------


def _pairs(space, n: int, rng) -> tuple:
    pts = nets.random_points(space, 2 * n, rng)
    return pts[:n], pts[n:]


def catalogue_prepare(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    s3 = Sphere(3, 1.0)
    named = CATALOGUE_QUERY_SPACES + (("s3_z256", Quotient(s3, actions.cyclic_approximation(s3, 256))),)
    queries = [(f"catalogue query {name}", space, *_pairs(space, CATALOGUE_QUERIES, rng))
               for name, space in named]
    return {"seed": CATALOGUE_SEEDS[seed % len(CATALOGUE_SEEDS)], "queries": queries}


def catalogue_run(inp: dict, seed: int, p: Pass, tracer: Tracer):
    # The query rounds run between catalogue entries, outside wall_s.
    p.plan_queries(inp["queries"], steps=len(harness.CATALOGUE))
    built = []
    with after_calls(nets, "epsilon_net", lambda net: built.append(without_matrix(net))), \
            after_calls(harness, "run_example", lambda report: p.untimed_rounds()), p.timed():
        reports = harness.run_all(epsilon=0.05, seed=inp["seed"], mc_samples=1_000_000,
                                  cyclic_order=256, net_budget=5000, workers=1)
    p.mark_peak()
    check_catalogue(reports, p)
    for net in built:
        p.covering_ratio(net)
    p.finish_queries()


def net_io_prepare(seed: int, work: Path) -> list:
    rng = np.random.default_rng(seed)
    cases = []
    for name, space in NET_IO_SPACES:
        path = work / f"{name}.json"
        path.write_text(json.dumps(serialize.space_to_json(space)))
        cases.append((name, space, path, _pairs(space, NET_IO_QUERIES, rng)))
    return cases


def net_io_run(cases: list, seed: int, p: Pass, tracer: Tracer):
    p.plan_queries([(f"net_io {name}", space, P, R) for name, space, _, (P, R) in cases],
                   steps=3 * len(cases))
    for name, space, path, _ in cases:
        csv = path.with_suffix(".csv")
        try:
            built = []
            with after_calls(nets, "epsilon_net", built.append), p.step(), \
                    tracer.span("cli.construct"):
                rc, _ = run_cli(["construct", "--space", str(path), "--epsilon", str(NET_IO_EPSILON),
                                 "--seed", str(seed), "--budget", str(NET_IO_BUDGET),
                                 "--allow-degrade", "--out", str(csv)])
            check_cli_step(p, f"net_io {name} construct", rc, [])
            net = built[0] if built else None

            loaded = []
            with after_calls(serialize, "read_net", loaded.append), p.step(), \
                    tracer.span("cli.invariants"):
                rc, text = run_cli(["invariants", "--net", str(csv)])
            problems = []
            if rc == 0:
                if net is None or not loaded or not bit_equal(loaded[0].dist, net.dist):
                    problems.append("read_net matrix is not bit-equal to the built net's")
                report = json.loads(text)
                problems += invariant_problems(report["radius"], report["diameter"])
            check_cli_step(p, f"net_io {name} invariants", rc, problems)
            del loaded[:]

            with p.step(), tracer.span("cli.verify"):
                rc, text = run_cli(["verify", "--check", "metric", "--net", str(csv)])
            check_cli_step(p, f"net_io {name} verify", rc,
                           [] if rc != 0 or "PASS" in text else [f"output {text.strip()!r}"])

            if net is not None:
                p.covering_ratio(net)
        except Exception as exc:  # a crash fails this descriptor; the others still run
            p.op(False, f"net_io {name}: {exc!r}")
        finally:
            for f in (csv, csv.with_suffix(".csv.json")):
                f.unlink(missing_ok=True)
    p.mark_peak()
    p.finish_queries()


def quotients_prepare(seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    queries = []
    for b, m in QUOTIENT_CASES:
        base = QUOTIENT_BASES[b]
        queries.append((f"quotients {b}/Z{m} query", Quotient(base, actions.cyclic_approximation(base, m)),
                        *_pairs(base, QUOTIENT_QUERIES, rng)))
    return {"queries": queries}


def quotients_run(inp: dict, seed: int, p: Pass, tracer: Tracer):
    p.plan_queries(inp["queries"], steps=3 * len(QUOTIENT_CASES))
    for base_name, m in QUOTIENT_CASES:
        label = f"quotients {base_name}/Z{m}"
        base = QUOTIENT_BASES[base_name]
        try:
            with p.step():
                space = Quotient(base, actions.cyclic_approximation(base, m))
                reloaded = serialize.space_from_json(serialize.space_to_json(space))
            order = reloaded.action.order
            p.op(order == m, f"{label}: reloaded action has order {order}")

            with p.step():
                net = nets.epsilon_net(reloaded, QUOTIENT_EPSILON, seed,
                                       budget=QUOTIENT_BUDGET, allow_degrade=True)
            ref = nets.epsilon_net(space, QUOTIENT_EPSILON, seed,
                                   budget=QUOTIENT_BUDGET, allow_degrade=True)
            same = serialize.net_to_bytes(net) == serialize.net_to_bytes(ref)
            p.op(same, f"{label}: net from the reloaded descriptor differs from the original's")
            del ref

            with p.step():
                rep = invariants.invariant_report(net)
            problems = invariant_problems(rep.radius_est, rep.diameter_est)
            p.op(not problems, f"{label}: {'; '.join(problems)}")
            p.covering_ratio(net)
        except Exception as exc:  # a crash fails this case; the others still run
            p.op(False, f"{label}: {exc!r}")
    p.mark_peak()
    p.finish_queries()


WORKLOADS = {
    "catalogue": (catalogue_prepare, catalogue_run),
    "net_io": (net_io_prepare, net_io_run),
    "quotients": (quotients_prepare, quotients_run),
}


# ---------------------------------------------------------------------------
# layer spans (traced mode)
# ---------------------------------------------------------------------------


def _order_key(order) -> str:
    return f"m{order}" if order in (8, 64, 256) else "other"


def _file_bytes(*paths) -> int:
    return sum(Path(f).stat().st_size for f in paths if Path(f).exists())


def install_layers(tr: Tracer):
    def matrix(counts, D, *a, **k):
        counts["spaces.matrix_entries"] += D.shape[0] * D.shape[1]

    def net_built(counts, net, *a, **k):
        counts["nets.points"] += net.n
        counts["nets.eps_eff_ratio"] = max(counts["nets.eps_eff_ratio"],
                                           net.epsilon_effective / net.epsilon)

    def deduped(counts, keep, D, *a, **k):
        counts["nets.quotient_raw"] += D.shape[0]
        counts["nets.quotient_kept"] += len(keep)

    def group(counts, action, *a, **k):
        counts["actions.group_order"] += action.order

    def audited(counts, audit, *a, **k):
        counts["nets.triples_checked"] += audit.n_triples

    def written(counts, meta_path, net, csv_path, *a, **k):
        counts["serialize.write_bytes"] += _file_bytes(csv_path, meta_path)

    def read(counts, net, csv_path, *a, **k):
        csv_path = Path(csv_path)
        counts["serialize.read_bytes"] += _file_bytes(csv_path,
                                                      csv_path.with_suffix(csv_path.suffix + ".json"))

    def kernel_label(space, *a, **k):
        return f"spaces.quotient_kernel.{_order_key(len(space.action.elements))}"

    def from_json_label(payload, *a, **k):
        order = payload.get("action", {}).get("order") if payload.get("kind") == "quotient" else None
        return f"serialize.space_from_json.{_order_key(order)}"

    def entry_label(example_id, *a, **k):
        return f"harness.{example_id}"

    table = [
        (spaces, "self_distance_matrix", "spaces.self_distance_matrix", {"after": matrix}),
        (spaces, "_quotient_cross", "spaces.quotient_kernel", {"label": kernel_label}),
        (spaces, "distance", "spaces.distance", {}),
        (spaces, "quotient_distance", "spaces.quotient_distance", {}),
        (spaces, "cross_distance", "spaces.cross_distance", {}),
        (actions, "cyclic_approximation", "actions.cyclic_approximation", {"after": group}),
        (actions, "group_from_generators", "actions.group_from_generators", {"after": group}),
        (nets, "epsilon_net", "nets.epsilon_net", {"after": net_built}),
        (nets, "_dedupe_indices", "nets.dedupe", {"after": deduped, "span": False}),
        (nets, "verify_metric", "nets.verify_metric", {"after": audited}),
        (invariants, "invariant_report", "invariants.invariant_report", {}),
        (invariants, "boundary_volume", "invariants.boundary_volume", {}),
        (comparison, "convexity_check", "comparison.convexity_check", {}),
        (comparison, "comparison_trace", "comparison.comparison_trace", {}),
        (serialize, "write_net", "serialize.write_net", {"after": written}),
        (serialize, "read_net", "serialize.read_net", {"after": read}),
        (serialize, "space_from_json", "serialize.space_from_json", {"label": from_json_label}),
        (harness, "run_example", "harness.run_example", {"label": entry_label}),
    ]
    for module, attr, layer, kw in table:
        tr.install(module, attr, layer, **kw)


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit); layers not reached read 0."""
    s = tr.summary()
    c = tr.counts

    def total(label):
        return s.get(label, {}).get("total_s", 0.0)

    def calls(label):
        return float(s.get(label, {}).get("calls", 0))

    def rate(nbytes, seconds):
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    m = {
        "spaces.self_distance_matrix_s": (total("spaces.self_distance_matrix"), "s"),
        "spaces.matrix_entries": (c["spaces.matrix_entries"], "count"),
        "spaces.matrix_mb": (c["spaces.matrix_entries"] * 8 / 1e6, "MB"),
    }
    for key in ("m8", "m64", "m256", "other"):
        m[f"spaces.quotient_kernel_s.{key}"] = (total(f"spaces.quotient_kernel.{key}"), "s")
    for layer in ("distance", "quotient_distance", "cross_distance"):
        m[f"spaces.{layer}_calls"] = (calls(f"spaces.{layer}"), "count")
        m[f"spaces.{layer}_s"] = (total(f"spaces.{layer}"), "s")
    m["actions.cyclic_approximation_s"] = (total("actions.cyclic_approximation"), "s")
    m["actions.group_from_generators_s"] = (total("actions.group_from_generators"), "s")
    m["actions.group_order"] = (c["actions.group_order"], "count")
    m["nets.epsilon_net_s"] = (total("nets.epsilon_net"), "s")
    m["nets.epsilon_net_self_s"] = (s.get("nets.epsilon_net", {}).get("self_s", 0.0), "s")
    m["nets.points"] = (c["nets.points"], "count")
    m["nets.eps_eff_ratio"] = (c["nets.eps_eff_ratio"], "ratio")
    raw = c["nets.quotient_raw"]
    m["nets.quotient_kept_ratio"] = (c["nets.quotient_kept"] / raw if raw else 0.0, "ratio")
    m["nets.verify_metric_s"] = (total("nets.verify_metric"), "s")
    m["nets.triples_checked"] = (c["nets.triples_checked"], "count")
    for label in ("invariants.invariant_report", "invariants.boundary_volume",
                  "comparison.convexity_check", "comparison.comparison_trace",
                  "serialize.write_net", "serialize.read_net"):
        m[f"{label}_s"] = (total(label), "s")
    m["serialize.net_bytes"] = (c["serialize.write_bytes"], "bytes")
    m["serialize.write_mb_per_s"] = (rate(c["serialize.write_bytes"],
                                          total("serialize.write_net")), "MB/s")
    m["serialize.read_mb_per_s"] = (rate(c["serialize.read_bytes"],
                                         total("serialize.read_net")), "MB/s")
    for key in ("m8", "m64", "m256", "other"):
        m[f"serialize.space_from_json_s.{key}"] = (total(f"serialize.space_from_json.{key}"), "s")
    for eid in harness.CATALOGUE:
        m[f"harness.{eid}_s"] = (total(f"harness.{eid}"), "s")
    for cmd in ("construct", "invariants", "verify"):
        m[f"cli.{cmd}_s"] = (total(f"cli.{cmd}"), "s")
    m["trace.spans"] = (float(len(tr.starts)), "count")
    return m


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------


def _blas() -> dict:
    """The OpenBLAS libraries this process loaded and their thread counts."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.exists():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads": _blas(),
        "ALEXGEO_THREADS": os.environ.get("ALEXGEO_THREADS"),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--started", type=float, required=True)
    args = ap.parse_args(argv)

    prepare, run = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer()
        inputs = prepare(args.seed, work)
        if args.mode == "setup":
            print(json.dumps({"setup_s": time.monotonic() - args.started}))
            return 0
        if args.mode == "trace":
            install_layers(tracer)
        p = Pass(tracer if args.mode == "trace" else None)
        run(inputs, args.seed, p, tracer)
        out = p.result(setup_s=p.first_call - args.started)
        out["env"] = environment()
        if args.mode == "trace":
            out["layers"] = {k: [float(v), u] for k, (v, u) in layer_metrics(tracer).items()}
            spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.tsv"
            tracer.write(spans)
            out["spans_file"] = str(spans.relative_to(ROOT))
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
