"""Command-line driver.

Subcommands:
  construct   build an epsilon-net from a descriptor JSON and export it
  invariants  radius/diameter/soul/edge/spine report for a stored net
  verify      run one audit family (metric | convexity | hinge | trace)
  example     run catalogue entries and emit machine-readable reports

Exit code is 0 iff every check in the invoked scope passes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

from . import comparison as cmp
from . import harness, invariants as inv
from . import nets as nets_mod
from . import serialize
from .errors import AlexgeoError, ConstructionError
from .spaces import Cone, ModelBall, HALF_PI, Sphere


# glibc's mallopt parameters, and the values set: blocks over 4 MiB get their
# own mapping, and the heap keeps up to 8 MiB free at its top.  4 MiB is above
# the ~1 MiB temporaries of every block pass (`spaces.BLOCK_ENTRIES`) and below
# the matrix of any net over 724 points.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 4 << 20


def _map_large_blocks() -> None:
    """Fix glibc's mmap threshold, so that every freed matrix leaves the process.

    By default glibc raises its mmap threshold to the largest block freed so
    far.  Once the first n x n matrix is released, later matrices come from the
    heap, and whether a freed matrix's space is reused there depends on the
    order of small allocations, which moves with Python's hash seed.  A
    process that constructs, reads and verifies 1500-point nets then peaked
    0, 1 or 1.5 matrices higher from run to run.  With the thresholds fixed,
    matrices stay out of the heap and the peak is the same in every run.  The
    trim threshold is twice the mmap threshold, as glibc's moving rule sets
    it, so block temporaries are reused rather than faulted in again.  A C
    library without `mallopt` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)


def _read_descriptor(path) -> object:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConstructionError(f"{path} is not valid JSON: {exc}") from None
    return serialize.space_from_json(payload)


def _cmd_construct(args) -> int:
    space = _read_descriptor(args.space)
    net = nets_mod.epsilon_net(
        space, args.epsilon, args.seed, budget=args.budget, allow_degrade=args.allow_degrade
    )
    meta_path = serialize.write_net(net, args.out)
    print(
        f"[construct] n={net.n} epsilon={net.epsilon:g} effective={net.epsilon_effective:g} "
        f"matrix={args.out} metadata={meta_path}"
    )
    return 0


def _cmd_invariants(args) -> int:
    net = serialize.read_net(args.net)
    report = inv.invariant_report(net)
    text = serialize.stable_dumps(report.to_json())
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_verify(args) -> int:
    if args.check == "metric":
        net = serialize.read_net(args.net)
        audit = nets_mod.verify_metric(net, tol=args.tol)
        print(
            f"[verify:metric] n={audit.n_points} symmetry={audit.symmetry_defect:.3e} "
            f"triangle={audit.triangle_defect:.3e} witness={audit.witness} "
            f"exhaustive={audit.exhaustive} -> {'PASS' if audit.passed else 'FAIL'}"
        )
        return 0 if audit.passed else 1
    if args.check == "convexity":
        space = _read_descriptor(args.space)
        rep = cmp.convexity_check(space, args.lambda0, probes=args.probes, seed=args.seed)
        print(
            f"[verify:convexity] lambda0={args.lambda0:g} worst_ratio={rep.worst_ratio:.3e} "
            f"scales={rep.scales} -> {'PASS' if rep.passed else 'FAIL'}"
        )
        return 0 if rep.passed else 1
    if args.check == "hinge":
        audits = [
            cmp.hinge_audit_sphere(args.hinges, args.seed, 3.0 * args.epsilon),
            cmp.hinge_audit_lens(3, 1.5, args.hinges, args.seed, 3.0 * args.epsilon),
            cmp.hinge_audit_cone_apex(
                Cone(1.0, Sphere(1, 0.75), HALF_PI), args.hinges, args.seed, 3.0 * args.epsilon
            ),
        ]
        ok = True
        for a in audits:
            print(
                f"[verify:hinge] {a.space_label}: worst excess {a.worst_excess:.3e} "
                f"over {a.n_hinges} hinges -> {'PASS' if a.passed else 'FAIL'}"
            )
            ok = ok and a.passed
        return 0 if ok else 1
    if args.check == "trace":
        k, r0 = args.k, args.r0
        lam0 = cmp.model_lambda0(k, r0)
        ball = ModelBall(k, r0, 3)
        step = args.step
        worst = 0.0
        for i in range(args.paths):
            rho = 0.1 * r0 + 0.8 * r0 * (i + 0.5) / args.paths
            tr = cmp.comparison_trace(
                ball, lam0, k, cmp.ball_chord_path(ball, rho, step, seed=args.seed + i), step
            )
            worst = max(worst, tr.max_violation)
        ok = worst <= 5.0 * step
        print(
            f"[verify:trace] k={k:g} r0={r0:g}: worst violation {worst:.3e} over "
            f"{args.paths} chords (tol {5.0 * step:.1e}) -> {'PASS' if ok else 'FAIL'}"
        )
        return 0 if ok else 1
    raise AlexgeoError(f"unknown check {args.check!r}")


def _cmd_example(args) -> int:
    if args.all:
        reports = harness.run_all(
            epsilon=args.epsilon,
            seed=args.seed,
            mc_samples=args.mc_samples,
            cyclic_order=args.cyclic_order,
            net_budget=args.budget,
        )
        ok = True
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"[example:{rep.config['example_id']}] {status} "
                  f"({len(rep.records)} checks, {rep.wall_time_s:.1f}s)")
            for r in rep.records:
                if not r.passed:
                    print(f"    FAIL {r.name}: expected {r.expected}, observed {r.observed}")
            ok = ok and rep.passed
        if args.out:
            combined = {
                "reports": [rep.to_json() for rep in reports],
                "pass": bool(ok),
            }
            Path(args.out).write_text(serialize.stable_dumps(combined) + "\n")
        return 0 if ok else 1
    if not args.id:
        print("either --id or --all is required; catalogue:", file=sys.stderr)
        for eid, (_, desc) in harness.CATALOGUE.items():
            print(f"  {eid:14s} {desc}", file=sys.stderr)
        return 2
    cfg = harness.ExperimentConfig(
        example_id=args.id,
        epsilon=args.epsilon,
        seed=args.seed,
        mc_samples=args.mc_samples,
        cyclic_order=args.cyclic_order,
        net_budget=args.budget,
        dim=args.dim,
        output_path=args.out,
    )
    rep = harness.run_example(args.id, cfg)
    for r in rep.records:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{args.id}] {mark} {r.name}: expected {r.expected}, observed {r.observed}, "
              f"tol {r.tolerance:g}")
    if args.out:
        harness.emit_report(rep, args.out)
    print(f"[{args.id}] {'PASS' if rep.passed else 'FAIL'} ({rep.wall_time_s:.1f}s)")
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="alexgeo", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build an epsilon-net from a descriptor JSON")
    c.add_argument("--space", required=True, help="descriptor JSON file")
    c.add_argument("--epsilon", type=float, default=0.05)
    c.add_argument("--seed", type=int, default=42)
    c.add_argument("--budget", type=int, default=nets_mod.DEFAULT_BUDGET)
    c.add_argument("--allow-degrade", action="store_true",
                   help="coarsen instead of failing when the budget is too small")
    c.add_argument("--out", required=True, help="CSV path for the distance matrix")
    c.set_defaults(func=_cmd_construct)

    i = sub.add_parser("invariants", help="invariant report for a stored net")
    i.add_argument("--net", required=True, help="CSV written by `construct`")
    i.add_argument("--out", help="optional JSON output path")
    i.set_defaults(func=_cmd_invariants)

    v = sub.add_parser("verify", help="run one audit family")
    v.add_argument("--check", required=True, choices=["metric", "convexity", "hinge", "trace"])
    v.add_argument("--net", help="net CSV (metric check)")
    v.add_argument("--space", help="descriptor JSON (convexity check)")
    v.add_argument("--lambda0", type=float, default=1.0)
    v.add_argument("--probes", type=int, default=1000)
    v.add_argument("--hinges", type=int, default=10000)
    v.add_argument("--paths", type=int, default=20)
    v.add_argument("--k", type=float, default=0.0)
    v.add_argument("--r0", type=float, default=1.0)
    v.add_argument("--step", type=float, default=1e-3)
    v.add_argument("--epsilon", type=float, default=0.05)
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--seed", type=int, default=42)
    v.set_defaults(func=_cmd_verify)

    e = sub.add_parser("example", help="run catalogue entries")
    e.add_argument("--id", help="example id (see --all for the catalogue)")
    e.add_argument("--all", action="store_true", help="run the whole catalogue")
    e.add_argument("--dim", type=int, help="sub-case selector where applicable")
    e.add_argument("--epsilon", type=float, default=0.05)
    e.add_argument("--seed", type=int, default=42)
    e.add_argument("--mc-samples", type=int, default=1_000_000)
    e.add_argument("--cyclic-order", type=int, default=256)
    e.add_argument("--budget", type=int, default=nets_mod.DEFAULT_BUDGET)
    e.add_argument("--out", help="JSON report path")
    e.set_defaults(func=_cmd_example)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _map_large_blocks()
    try:
        return args.func(args)
    except AlexgeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
