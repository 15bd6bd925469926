"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value either is exact (model functions, embeddings) or comes
from a stated independent oracle (quadrature, elliptic integrals, net
minimax scans); tolerances are pinned here, not tuned at runtime.
"""

import contextlib
import io
import math
import time

import numpy as np
from alexgeo import comparison as cmp, embeddings as emb
from alexgeo import cli, harness, invariants as inv, nets, serialize, spaces
from alexgeo.harness import projective_lens_quotient
from alexgeo.spaces import (
    Cone,
    Ellipsoid,
    Interval,
    Join,
    Lens,
    ModelBall,
    Sphere,
    Suspension,
)
from test_comparison import riccati_integrate

PI = math.pi
HALF_PI = math.pi / 2.0
EPS = 0.05  # default desk-scale resolution used throughout the gate


def _line(num: int, label: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_join_embedding_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    J = Join(Sphere(1, 1.0), Sphere(1, 1.0))
    pts = nets.random_points(J, 20_000, rng)
    A = spaces.pack_points(J, pts[::2])
    B = spaces.pack_points(J, pts[1::2])
    d_join = spaces.elementwise_distance(J, A, B)
    e1 = np.array([emb.embed_join_circle_circle(p) for p in pts[::2]])
    e2 = np.array([emb.embed_join_circle_circle(p) for p in pts[1::2]])
    d_oracle = np.arccos(np.clip(np.einsum("ij,ij->i", e1, e2), -1.0, 1.0))
    worst_join = float(np.max(np.abs(d_join - d_oracle)))

    S = Suspension(Sphere(1, 1.0))
    spts = nets.random_points(S, 20_000, rng)
    A = spaces.pack_points(S, spts[::2])
    B = spaces.pack_points(S, spts[1::2])
    d_susp = spaces.elementwise_distance(S, A, B)
    e1 = np.array([emb.embed_suspension_circle(p) for p in spts[::2]])
    e2 = np.array([emb.embed_suspension_circle(p) for p in spts[1::2]])
    d_oracle = np.arccos(np.clip(np.einsum("ij,ij->i", e1, e2), -1.0, 1.0))
    worst_susp = float(np.max(np.abs(d_susp - d_oracle)))

    wall = time.perf_counter() - t0
    ok = worst_join <= 1e-12 and worst_susp <= 1e-12 and wall < 1.0
    _line(1, "join embedding oracles",
          ok, f"join dev {worst_join:.2e}, suspension dev {worst_susp:.2e}, {wall:.2f}s")


def test_criterion_2_interval_join_reassociation():
    rng = np.random.default_rng(42)
    J1 = Join(Interval(PI), Interval(PI))
    J2 = Join(Interval(HALF_PI), Sphere(1, 1.0))
    pts = nets.random_points(J1, 20_000, rng)
    worst = 0.0
    for p, q in zip(pts[::2], pts[1::2]):
        d1 = spaces.distance(J1, p, q)
        d2 = spaces.distance(J2, emb.reassociate_interval_join(p),
                             emb.reassociate_interval_join(q))
        worst = max(worst, abs(d1 - d2))
    _line(2, "interval-join re-association", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_3_ellipse_parameter_and_net_diameter():
    sol = harness.solve_ellipse_parameter(tol=1e-10)
    in_bracket = 1.0 / 3.0 < sol.a_star < 0.75
    hits_target = abs(sol.half_perimeter - HALF_PI) <= 1e-8
    net = nets.epsilon_net(Ellipsoid(sol.a_star, 1.0 / 3.0, 0.25), EPS, 42)
    diam = inv.diameter(net).value
    diam_ok = abs(diam - HALF_PI) <= 3.0 * EPS
    _line(3, "tuned ellipsoid", in_bracket and hits_target and diam_ok,
          f"a*={sol.a_star:.8f}, |hp-pi/2|={abs(sol.half_perimeter - HALF_PI):.1e}, "
          f"net diam {diam:.4f}")


def test_criterion_4_radius_estimates():
    t0 = time.perf_counter()
    rad_sphere = inv.radius(nets.epsilon_net(Sphere(2, 0.5), EPS, 42)).value
    rad_lens2 = inv.radius(nets.epsilon_net(Lens(2, 2.0), EPS, 42)).value
    rad_lens3 = inv.radius(
        nets.epsilon_net(Lens(3, 1.0), EPS, 42, allow_degrade=True)
    ).value
    rad_q2 = inv.radius(nets.epsilon_net(projective_lens_quotient(2, 1.0), EPS, 42)).value
    rad_q3 = inv.radius(
        nets.epsilon_net(projective_lens_quotient(3, 1.0), EPS, 42, allow_degrade=True)
    ).value
    wall = time.perf_counter() - t0
    ok = (
        abs(rad_sphere - HALF_PI) <= 2 * EPS
        and abs(rad_lens2 - HALF_PI) <= 2 * EPS
        and abs(rad_lens3 - HALF_PI) <= 2 * EPS
        and rad_q2 < HALF_PI - 2 * EPS
        and abs(rad_q3 - HALF_PI) <= 2 * EPS
        and wall < 30.0
    )
    _line(4, "radius estimates", ok,
          f"S2(1/2)={rad_sphere:.4f}, L2={rad_lens2:.4f}, L3={rad_lens3:.4f}, "
          f"quot2={rad_q2:.4f} (< {HALF_PI - 2 * EPS:.4f}), quot3={rad_q3:.4f}, {wall:.1f}s")


def test_criterion_5_maximal_volume_family():
    ok = True
    details = []
    for n, expected in ((2, 2.0 * PI), (3, 4.0 * PI)):
        for alpha in (0.5, 1.5, PI):
            vol = inv.boundary_volume(Lens(n, alpha))
            ok = ok and abs(vol - expected) <= 1e-12
            details.append(f"L_{alpha:g}^{n}: {vol:.15f} (exact, tol 1e-12)")
    _line(5, "maximal-volume family", ok, "; ".join(details[:3]) + " ...")


def test_criterion_6_closed_form_identities():
    worst_riccati = 0.0
    count = 0
    for k in (-1.0, 0.0, 1.0):
        for lam0 in np.linspace(1.1, 3.0, 12):
            r0 = cmp.model_inradius(k, lam0)
            for r in np.linspace(0.05 * r0, 0.8 * r0, 28):
                worst_riccati = max(
                    worst_riccati,
                    abs(riccati_integrate(k, lam0, float(r), 1e-3)
                        - cmp.model_lambda(k, lam0, float(r))),
                )
                count += 1
    assert count >= 1000

    h = 1e-4
    worst_ode = 0.0
    for k, lam0 in [(0.0, 1.0), (0.0, 2.0), (1.0, 0.5), (1.0, 1.5), (-1.0, 1.3), (-1.0, 2.2)]:
        r0 = cmp.model_inradius(k, lam0)
        for r in np.linspace(0.05 * r0, 0.9 * r0, 15):
            phi_p = (cmp.model_phi(k, lam0, r + h) - cmp.model_phi(k, lam0, r - h)) / (2 * h)
            phi_pp = (cmp.model_phi(k, lam0, r + h) - 2 * cmp.model_phi(k, lam0, r)
                      + cmp.model_phi(k, lam0, r - h)) / h**2
            worst_ode = max(worst_ode, abs(cmp.model_lambda(k, lam0, r) * phi_p - phi_pp))

    rigidity_ok = True
    worst_equality = 0.0
    for k in (-1.0, 0.0, 1.0):
        for lam0 in np.linspace(1.2, 2.8, 9):
            r0 = cmp.model_inradius(k, lam0)
            worst_equality = max(
                worst_equality,
                abs(cmp.fbar(k, lam0, cmp.model_phi(k, lam0, r0), 0.0, r0)),
            )
            for r1 in np.linspace(0.1 * r0, 0.97 * r0, 12):
                val = cmp.fbar(k, lam0, cmp.model_phi(k, lam0, float(r1)), 0.0, r0)
                rigidity_ok = rigidity_ok and val < -1e-10

    ok = worst_riccati <= 1e-8 and worst_ode <= 1e-6 and rigidity_ok and worst_equality <= 1e-10
    _line(6, "closed-form identities", ok,
          f"riccati {worst_riccati:.1e} on {count} pts, ode identity {worst_ode:.1e}, "
          f"equality-case residue {worst_equality:.1e}")


def test_criterion_7_convexity_audits():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k, r0 in [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)]:
        lam0 = cmp.model_lambda0(k, r0)
        ball = ModelBall(k, r0, 3)
        good = cmp.convexity_check(ball, lam0, probes=1000, seed=42)
        bad = cmp.convexity_check(ball, 1.5 * lam0, probes=1000, seed=42)
        ok = ok and good.passed and not bad.passed
        details.append(f"k={k:g}: {good.worst_ratio:.1e}/{bad.worst_ratio:.2f}")
    for n in (2, 3):
        for lam0 in (0.5, 1.0, 2.0):
            rep = cmp.convexity_check(Lens(n, 1.0), lam0, probes=1000, seed=42)
            ok = ok and not rep.passed
    wall = time.perf_counter() - t0
    ok = ok and wall < 10.0
    _line(7, "convexity audits", ok, "; ".join(details) + f"; lens fails; {wall:.1f}s")


def test_criterion_8_comparison_traces():
    step = 1e-3
    worst_violation = 0.0
    worst_radial = 0.0
    n_paths = 0
    for k, r0 in [(-1.0, 1.0), (0.0, 1.0), (1.0, PI / 4.0)]:
        ball = ModelBall(k, r0, 3)
        lam0 = cmp.model_lambda0(k, r0)
        rng = np.random.default_rng(42 + int(k))
        for i in range(34):
            rho = float(rng.uniform(0.1, 0.9)) * r0
            tr = cmp.comparison_trace(
                ball, lam0, k, cmp.ball_chord_path(ball, rho, step, seed=i), step
            )
            worst_violation = max(worst_violation, tr.max_violation)
            n_paths += 1
        radial = cmp.ball_radial_path(ball, np.eye(3)[1], step)
        tr = cmp.comparison_trace(ball, lam0, k, radial, step)
        worst_radial = max(worst_radial, tr.max_equality_gap)

    cone = Cone(1.0, Sphere(1, 0.75), HALF_PI)
    rng = np.random.default_rng(7)
    worst_cone = 0.0
    got = 0
    while got < 20:
        t0c, t1c = rng.uniform(0.35, HALF_PI, 2)
        p0, p1 = rng.uniform(0.0, 2 * PI, 2)
        path = cmp.cone_developed_path(cone, p0, t0c, p1, t1c, step)
        if path is None:
            continue
        tr = cmp.comparison_trace(cone, 0.0, 1.0, path, step)
        worst_cone = max(worst_cone, tr.max_equality_gap)
        got += 1
    ok = (
        n_paths >= 100
        and worst_violation <= 5 * step
        and worst_radial <= 5 * step
        and worst_cone <= 5 * step
    )
    _line(8, "comparison traces", ok,
          f"{n_paths} chords, worst violation {worst_violation:.1e}, radial gap "
          f"{worst_radial:.1e}, cone gap {worst_cone:.1e}")


def test_criterion_9_curvature_audit(tmp_path):
    # the (1+3)-point comparison on the nets of the three spaces the hinge
    # audits covered, then three spaces that are not curv >= 1
    tol = 1e-6
    passing = {
        "S2(1)": nets.epsilon_net(Sphere(2, 1.0), 0.1, 42),
        "L_1.5^3": nets.epsilon_net(Lens(3, 1.5), 0.2, 42),
        "C_1(S1(0.75))(pi/2)": nets.epsilon_net(Cone(1.0, Sphere(1, 0.75), HALF_PI), 0.05, 42),
    }
    failing = {
        "S2(2)": nets.epsilon_net(Sphere(2, 2.0), 0.3, 42),
        "flat disk": nets.epsilon_net(ModelBall(0.0, 1.0, 2), 0.1, 42),
        "C_-1(S1)(1)": nets.epsilon_net(Cone(-1.0, Sphere(1, 1.0), 1.0), 0.1, 42),
    }
    audits = {name: nets.verify_curvature(net, tol) for name, net in {**passing, **failing}.items()}
    ok = all(audits[name].passed for name in passing)
    for name in failing:
        a = audits[name]
        ok = ok and not a.passed and a.excess > 0.5 and len(set(a.witness)) == 4
    for name, space, want in (("lens", Lens(3, 1.5), 0), ("sphere2", Sphere(2, 2.0), 1)):
        csv = tmp_path / f"{name}.csv"
        serialize.write_net(nets.epsilon_net(space, 0.3, 42), csv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--check", "curvature", "--net", str(csv)])
        ok = ok and code == want and out.getvalue().endswith(("-> PASS\n", "-> FAIL\n")[want])
    _line(9, "curvature audit", ok,
          "; ".join(f"{name}: {a.excess:+.1e} at {a.witness}" for name, a in audits.items()))


def test_criterion_10_engineering_gate():
    t0 = time.perf_counter()
    reports = harness.run_all()
    wall = time.perf_counter() - t0
    all_pass = all(r.passed for r in reports)
    audits_ok = True
    n_audits = 0
    for rep in reports:
        for rec in rep.records:
            if "metric audit" in rec.name:
                n_audits += 1
                audits_ok = audits_ok and float(rec.observed) <= 1e-9

    det_ok = True
    for eid in ("ex3_2", "ex3_4", "lens_volume", "cone_rigidity"):
        a = serialize.stable_dumps([r.to_json() for r in harness.run_example(eid).records])
        b = serialize.stable_dumps([r.to_json() for r in harness.run_example(eid).records])
        det_ok = det_ok and a == b

    ok = all_pass and audits_ok and det_ok and wall < 180.0
    _line(10, "engineering gate", ok,
          f"catalogue pass={all_pass} in {wall:.0f}s, {n_audits} net audits <= 1e-9: "
          f"{audits_ok}, rerun records byte-identical: {det_ok}")
