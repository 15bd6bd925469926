"""Radius, diameter, soul, edge, spine, dual pairs, and boundary volumes."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from alexgeo import actions, invariants as inv, nets, spaces
from alexgeo.errors import PreconditionError, UnsupportedConstructionError
from alexgeo.harness import projective_lens_quotient
from alexgeo.nets import epsilon_net
from alexgeo.spaces import (
    Cone, Ellipsoid, Interval, Join, Lens, ModelBall, Quotient, Sphere, Suspension, clamped_arccos,
)

PI = math.pi
HALF_PI = math.pi / 2.0


class TestDiameterRadius:
    def test_sphere_diameter_window(self):
        net = epsilon_net(Sphere(2, 1.0), 0.1, 42)
        diam = inv.diameter(net)
        assert PI - 0.2 <= diam.value <= PI
        i, j = diam.witness
        assert net.dist[i, j] == diam.value

    @pytest.mark.parametrize("case", ["ties", "nan"])
    def test_diameter_witness_is_the_flat_argmax_without_a_copy(self, case):
        import tracemalloc
        from types import SimpleNamespace

        rng = np.random.default_rng(3)
        D = rng.integers(0, 5, (700, 700)).astype(float)  # many entries tie at the maximum
        D = np.maximum(D, D.T)
        if case == "nan":
            D[300, 12] = D[12, 300] = np.nan
        D.setflags(write=False)  # as epsilon_net freezes its matrix
        tracemalloc.start()
        try:
            diam = inv.diameter(SimpleNamespace(dist=D))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        flat = np.unravel_index(int(np.argmax(D)), D.shape)
        assert diam.witness == (int(flat[0]), int(flat[1]))
        assert diam.value == D[flat] or (case == "nan" and math.isnan(diam.value))
        assert peak < D.nbytes / 10

    def test_half_radius_sphere_radius(self):
        net = epsilon_net(Sphere(2, 0.5), 0.05, 42)
        rad = inv.radius(net)
        assert rad.value == pytest.approx(HALF_PI, abs=0.1)

    def test_lens_radius_and_diameter(self):
        net = epsilon_net(Lens(2, 2.0), 0.05, 42)
        assert inv.radius(net).value == pytest.approx(HALF_PI, abs=0.1)
        net3 = epsilon_net(Lens(3, 1.0), 0.05, 42, allow_degrade=True)
        assert inv.radius(net3).value == pytest.approx(HALF_PI, abs=0.1)
        # the circle factor contains antipodes, so the diameter is pi
        assert inv.diameter(net3).value == pytest.approx(PI, abs=0.1)

    def test_single_point_net_has_zero_radius(self):
        net = epsilon_net(Interval(1.0), 0.6, 0)
        sub = nets.FiniteNet(
            space=net.space,
            coords=net.coords,
            is_boundary=net.is_boundary[:1],
            dist=net.dist[:1, :1],
            epsilon=net.epsilon,
            epsilon_effective=net.epsilon_effective,
            seed=net.seed,
        )
        assert inv.radius(sub).value == 0.0

    def test_radius_diameter_sandwich(self):
        for space, eps in [(Lens(2, 1.5), 0.05), (Sphere(2, 0.7), 0.08)]:
            net = epsilon_net(space, eps, 1)
            r = inv.radius(net).value
            d = inv.diameter(net).value
            assert r <= d <= 2.0 * r + 1e-9

    def test_minimax_stability_under_refinement(self):
        # eccentricity is 1-Lipschitz: halving epsilon moves the estimates
        # by at most 2*epsilon
        coarse = epsilon_net(Sphere(2, 0.5), 0.2, 5)
        fine = epsilon_net(Sphere(2, 0.5), 0.1, 5)
        assert abs(inv.radius(coarse).value - inv.radius(fine).value) <= 0.4
        assert abs(inv.diameter(coarse).value - inv.diameter(fine).value) <= 0.4


class TestSoul:
    def test_hemisphere_soul_is_the_pole(self):
        net = epsilon_net(Lens(2, PI), 0.05, 42)
        s = inv.soul(net)
        x, t, sc = net.point(s)
        assert t == pytest.approx(HALF_PI, abs=2.0 * net.epsilon_effective)
        assert sc == pytest.approx(HALF_PI, abs=2.0 * net.epsilon_effective)
        assert inv.soul_boundary_distance(net, s) == pytest.approx(
            HALF_PI, abs=2.0 * net.epsilon_effective
        )

    def test_cone_soul_is_the_apex(self):
        net = epsilon_net(Cone(1.0, Sphere(1, 0.75), HALF_PI), 0.05, 42)
        s = inv.soul(net)
        t, _ = net.point(s)
        assert t == pytest.approx(0.0, abs=2.0 * net.epsilon_effective)

    def test_boundaryless_net_rejected(self):
        net = epsilon_net(Sphere(2, 1.0), 0.2, 42)
        with pytest.raises(PreconditionError):
            inv.soul(net)


class TestEdgeSpine:
    def test_lens_edge_is_the_sphere_factor(self):
        net = epsilon_net(Lens(2, 1.5), 0.05, 42)
        s = inv.soul(net)
        edge = inv.edge_set(net, s)
        assert edge.warning is None and len(edge) > 0
        # every latitude-0 point sits at exactly pi/2 from the soul
        t_all = net.coords.t
        zero_lat = np.flatnonzero(t_all <= 1e-12)
        assert np.isin(zero_lat, edge.indices).all()
        assert np.allclose(net.dist[s, zero_lat], HALF_PI, atol=1e-12)
        # tolerance thickening along the faces stays within the derived bound
        tol = 2.0 * net.epsilon_effective
        t_cap = math.asin(min(1.0, math.sin(tol) / math.cos(1.5 / 2.0)))
        for i in edge.indices:
            _, t, _ = net.point(i)
            assert t <= t_cap + 1e-9

    def test_lens_spine_is_the_interval_factor(self):
        net = epsilon_net(Lens(2, 1.5), 0.05, 42)
        s = inv.soul(net)
        edge = inv.edge_set(net, s)
        spine = inv.spine_set(net, edge.indices)
        assert spine.size > 0
        for i in spine:
            _, t, _ = net.point(i)
            assert t >= HALF_PI - 2.0 * net.epsilon_effective - 1e-12
        assert np.isin(s, spine)

    def test_hemisphere_edge_is_the_whole_boundary(self):
        net = epsilon_net(Lens(2, PI), 0.05, 42)
        s = inv.soul(net)
        edge = inv.edge_set(net, s)
        bdry = net.boundary_indices()
        assert np.isin(bdry, edge.indices).all()
        # and the dual spine collapses back to the soul
        spine = inv.spine_set(net, edge.indices)
        assert np.isin(s, spine)
        for i in spine:
            assert net.dist[s, i] <= 2.0 * net.epsilon_effective + 1e-12

    def test_suspension_spine_of_pole_edge_is_the_equator(self):
        net = epsilon_net(Suspension(Sphere(1, 0.75)), 0.05, 42, allow_degrade=True)
        us = net.coords.u
        poles = np.flatnonzero((us <= 1e-12) | (us >= PI - 1e-12))
        spine = inv.spine_set(net, poles, tol=2.0 * net.epsilon_effective)
        assert spine.size > 0
        assert np.all(np.abs(us[spine] - HALF_PI) <= 2.0 * net.epsilon_effective + 1e-12)

    def test_edge_warning_when_radius_is_not_half_pi(self):
        net = epsilon_net(Lens(2, PI), 0.3, 42)
        small = epsilon_net(Interval(1.0), 0.1, 0)
        s = inv.soul(small)
        edge = inv.edge_set(small, s)
        assert len(edge) == 0 and edge.warning is not None

    def test_edge_set_after_radius_makes_no_row_max_pass(self):
        net = epsilon_net(Lens(2, 1.5), 0.05, 42)
        s = inv.soul(net)
        rad = inv.radius(net)
        expected = inv.edge_set(net, s)

        class NoRowMax(np.ndarray):
            def max(self, *args, **kwargs):
                raise AssertionError("row-max pass")

        net.dist = net.dist.view(NoRowMax)
        assert inv.radius(net) == rad
        edge = inv.edge_set(net, s)
        assert np.array_equal(edge.indices, expected.indices) and edge.warning is None

    def test_spine_requires_edge(self):
        net = epsilon_net(Lens(2, 1.5), 0.1, 42)
        with pytest.raises(PreconditionError):
            inv.spine_set(net, np.array([], dtype=int))


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestScansWithoutColumnCopies:
    # soul, spine and dual-pair scans take row-blocked minima and maxima of a
    # frozen matrix: no n x |cols| copy, and the same answers as the copies gave
    @pytest.fixture(scope="class")
    def net(self):
        rng = np.random.default_rng(11)
        n = 2000
        D = HALF_PI + 0.25 * rng.integers(-2, 3, (n, n))  # many ties in every scan
        D = np.minimum(D, D.T)
        np.fill_diagonal(D, 0.0)
        D.setflags(write=False)
        flags = rng.random(n) < 0.3  # far more than a tenth of the points
        return nets.FiniteNet(Sphere(2, 1.0), None, flags, D, 0.05, 0.05, 0)

    def test_soul(self, net):
        D, bdry = net.dist, net.boundary_indices()
        s, peak = _traced_peak(lambda: inv.soul(net))
        assert s == int(np.argmax(np.where(net.is_boundary, -np.inf, D[:, bdry].min(axis=1))))
        assert peak < D.nbytes / 10

    def test_spine_set(self, net):
        D, edge = net.dist, net.boundary_indices()
        spine, peak = _traced_peak(lambda: inv.spine_set(net, edge, tol=0.6))
        assert np.array_equal(spine, np.flatnonzero(D[:, edge].min(axis=1) >= HALF_PI - 0.6))
        assert 0 < spine.size < net.n
        assert peak < D.nbytes / 10

    def test_dual_pair_check(self, net):
        D = net.dist
        A, B = net.boundary_indices(), net.interior_indices()[::2]
        res, peak = _traced_peak(lambda: inv.dual_pair_check(net, A, B, tol=0.1))
        cross = np.abs(D[np.ix_(A, B)] - HALF_PI)
        ai, bi = np.unravel_index(int(np.argmax(cross)), cross.shape)
        decomp = np.abs(D[:, A].min(axis=1) + D[:, B].min(axis=1) - HALF_PI)
        assert res.pair_defect == cross[ai, bi]
        assert res.pair_witness == (int(A[ai]), int(B[bi]))
        assert res.decomposition_defect == decomp.max()
        assert res.decomposition_witness == int(np.argmax(decomp))
        assert peak < D.nbytes / 10


class TestDualPair:
    def test_lens_edge_spine_dual(self):
        # the true edge and spine are the latitude-0 and latitude-pi/2 slices,
        # which the net realizes exactly
        net = epsilon_net(Lens(3, 1.5), 0.05, 42, allow_degrade=True)
        t = net.coords.t
        A = np.flatnonzero(t <= 1e-12)
        B = np.flatnonzero(t >= HALF_PI - 1e-12)
        res = inv.dual_pair_check(net, A, B, tol=3.0 * net.epsilon_effective)
        assert res.passed
        assert res.pair_defect <= 1e-12  # slice-to-slice distances are exactly pi/2

    def test_half_radius_circle_antipodal_pair(self):
        net = epsilon_net(Sphere(1, 0.5), 0.02, 42)
        a = nets.nearest_index(net, np.array([1.0, 0.0]))
        b = nets.nearest_index(net, np.array([-1.0, 0.0]))
        res = inv.dual_pair_check(net, [a], [b], tol=3.0 * net.epsilon_effective)
        assert res.passed  # both conditions hold on the half-radius circle

    def test_generic_sets_fail(self):
        net = epsilon_net(Sphere(2, 1.0), 0.15, 42)
        rng = np.random.default_rng(0)
        idx = rng.permutation(net.n)
        res = inv.dual_pair_check(net, idx[:5], idx[5:10], tol=0.05)
        assert not res.passed
        assert max(res.pair_defect, res.decomposition_defect) > 0.05

    def test_overlap_rejected(self):
        net = epsilon_net(Sphere(2, 1.0), 0.2, 42)
        with pytest.raises(PreconditionError):
            inv.dual_pair_check(net, [0, 1], [1, 2], tol=0.1)


def _petrunin_ratio(space) -> float:
    """vol of the boundary over vol S^(n-1), which curv >= 1 bounds by 1 (Petrunin)."""
    return inv.boundary_volume(space) / spaces.unit_sphere_volume(space.dim - 1)


class TestBoundaryVolume:
    def test_lens_faces_give_unit_sphere_volume(self):
        for n in (2, 3):
            for alpha in (0.5, 1.5, PI):
                assert abs(_petrunin_ratio(Lens(n, alpha)) - 1.0) <= 1e-12

    def test_alpha_independence(self):
        vals = [inv.boundary_volume(Lens(3, a)) for a in (0.5, 1.5, PI)]
        assert vals == [vals[0]] * 3

    def test_interval_join_and_spherical_ball_ratios(self):
        assert abs(_petrunin_ratio(Join(Interval(PI), Interval(PI))) - 1.0) <= 1e-12
        assert abs(_petrunin_ratio(ModelBall(1.0, PI / 4.0, 3)) - 0.5) <= 1e-12

    def test_flat_disk_circumference(self):
        assert abs(inv.boundary_volume(ModelBall(0.0, 0.7, 2)) - 2.0 * PI * 0.7) <= 1e-12

    def test_cone_cap_area(self):
        assert abs(inv.boundary_volume(Cone(1.0, Sphere(1, 1.0), HALF_PI)) - 2.0 * PI) <= 1e-12

    def test_negative_controls_exceed_the_bound(self):
        # curvature 0 and -1: the flat disk of radius 1.5 and the hyperbolic cap of radius 1
        for space, ratio in ((ModelBall(0.0, 1.5, 2), 1.5), (Cone(-1.0, Sphere(1, 1.0), 1.0), math.sinh(1.0))):
            assert abs(_petrunin_ratio(space) - ratio) <= 1e-12
            assert _petrunin_ratio(space) > 1.1

    def test_bounded_bases_and_factors(self):
        # the cone over boundary(base) and the faces boundary(X) * Y count too
        assert abs(inv.boundary_volume(Cone(1.0, Interval(1.0), 1.0)) - (math.sin(1.0) + 2.0)) <= 1e-12
        assert abs(inv.boundary_volume(Cone(0.0, Interval(1.0), 1.0)) - 3.0) <= 1e-12
        assert abs(inv.boundary_volume(Suspension(Interval(1.0))) - 2.0 * PI) <= 1e-12
        assert abs(inv.boundary_volume(Join(Interval(1.0), Interval(0.5))) - 3.0) <= 1e-12

    def test_volumes_of_known_spaces(self):
        for space, vol in ((Sphere(2, 0.5), PI), (Lens(2, 1.5), 3.0), (Lens(3, 1.5), 1.5 * PI),
                           (ModelBall(0.0, 0.7, 2), PI * 0.49), (Suspension(Sphere(1, 1.0)), 4.0 * PI),
                           (Join(Sphere(1, 1.0), Sphere(1, 1.0)), 2.0 * PI * PI),
                           (Cone(-1.0, Sphere(1, 1.0), 1.0), 2.0 * PI * (math.cosh(1.0) - 1.0))):
            assert abs(space.volumes()[0] - vol) <= 1e-12 * vol, space

    def test_boundaryless_rejected(self):
        for space in (Sphere(2, 1.0), Suspension(Sphere(1, 1.0))):
            with pytest.raises(PreconditionError):
                inv.boundary_volume(space)

    def test_quotients_and_the_ellipsoid_have_no_closed_form(self):
        circle = Sphere(1, 1.0)
        fold = actions.GroupAction(circle, (actions.Identity(), actions.OrthogonalMap(actions.circle_reflection_matrix())))
        for space in (projective_lens_quotient(2, 1.0), Quotient(circle, fold), Ellipsoid(0.7, 1.0 / 3.0, 0.25)):
            with pytest.raises(UnsupportedConstructionError):
                inv.boundary_volume(space)


@dataclass
class ConvexDiameterResult:
    radius_A: float
    diameter_A: float
    applicable: bool   # radius precondition rad A >= pi/2 - tol held
    passed: bool       # diameter >= pi - 2*tol whenever applicable
    note: str = ""


def sphere_convex_diameter_check(net, A, tol: float, *, midpoint_pairs: int = 200,
                                 seed: int = 5) -> ConvexDiameterResult:
    """On a sphere net: closed convex A with rad A >= pi/2 must have diam A = pi.

    Convexity is verified approximately by sampling geodesic midpoints of
    member pairs and requiring each to be within 2*eps of A.  If the radius
    precondition fails the check is skipped (reported, not an error).
    """
    if not isinstance(net.space, Sphere):
        raise PreconditionError("convex diameter check runs on sphere nets")
    A = np.asarray(A, dtype=int)
    if A.size < 2:
        raise PreconditionError("need at least two indices")
    pts = np.asarray(net.coords)[A]
    r = net.space.radius
    rng = np.random.default_rng(seed)
    eps = net.epsilon_effective
    for _ in range(midpoint_pairs):
        i, j = rng.integers(0, A.size, 2)
        u, v = pts[i], pts[j]
        s = u + v
        nrm = float(np.linalg.norm(s))
        if nrm < 1e-6:
            continue  # antipodal: every midpoint choice is fine
        mid = s / nrm
        # the midpoint of near-antipodal pairs amplifies the net's own
        # off-set error by ~2/|u+v|; widen the slack accordingly
        slack = tol + 2.0 * eps * (1.0 + 2.0 / nrm)
        gap = r * float(np.min(clamped_arccos(pts @ mid)))
        if gap > slack:
            raise PreconditionError(
                f"midpoint of members {int(A[i])},{int(A[j])} is {gap:.4f} from A; "
                f"subset fails the convexity spot-check"
            )
    sub = net.dist[np.ix_(A, A)]
    rad_A = float(sub.max(axis=1).min())
    diam_A = float(sub.max())
    applicable = rad_A >= HALF_PI - tol
    if not applicable:
        return ConvexDiameterResult(
            radius_A=rad_A,
            diameter_A=diam_A,
            applicable=False,
            passed=True,
            note="radius precondition rad A >= pi/2 fails; diameter claim not applicable",
        )
    return ConvexDiameterResult(
        radius_A=rad_A,
        diameter_A=diam_A,
        applicable=True,
        passed=diam_A >= PI - 2.0 * tol,
    )


class TestConvexDiameter:
    def test_great_circle_passes(self):
        net = epsilon_net(Sphere(2, 1.0), 0.1, 42)
        z = np.asarray(net.coords)[:, 2]
        A = np.flatnonzero(np.abs(z) <= 0.75 * net.epsilon_effective)
        res = sphere_convex_diameter_check(net, A, tol=2.0 * net.epsilon_effective)
        assert res.applicable and res.passed

    def test_half_great_circle_passes(self):
        net = epsilon_net(Sphere(2, 1.0), 0.1, 42)
        pts = np.asarray(net.coords)
        A = np.flatnonzero((np.abs(pts[:, 2]) <= 0.75 * net.epsilon_effective)
                           & (pts[:, 1] >= -0.75 * net.epsilon_effective))
        res = sphere_convex_diameter_check(net, A, tol=2.0 * net.epsilon_effective)
        assert res.applicable and res.passed  # antipodal endpoints force diameter pi

    def test_small_cap_not_applicable(self):
        net = epsilon_net(Sphere(2, 1.0), 0.1, 42)
        z = np.asarray(net.coords)[:, 2]
        A = np.flatnonzero(z >= math.cos(PI / 3.0))
        res = sphere_convex_diameter_check(net, A, tol=2.0 * net.epsilon_effective)
        assert not res.applicable
        assert "not applicable" in res.note

    def test_nonconvex_set_rejected(self):
        net = epsilon_net(Sphere(2, 1.0), 0.1, 42)
        pts = np.asarray(net.coords)
        A = np.flatnonzero((pts[:, 2] >= 0.95) | (pts[:, 0] >= 0.95))
        with pytest.raises(PreconditionError):
            sphere_convex_diameter_check(net, A, tol=0.05)


class TestQuotientExamples:
    def test_projective_lens_radius_split(self):
        q2 = epsilon_net(projective_lens_quotient(2, 1.0), 0.05, 42)
        assert inv.radius(q2).value < HALF_PI - 0.1
        q3 = epsilon_net(projective_lens_quotient(3, 1.0), 0.05, 42, allow_degrade=True)
        assert inv.radius(q3).value == pytest.approx(HALF_PI, abs=0.1)

    def test_reflected_cap_soul_sits_on_fold(self):
        from alexgeo.harness import spine_example_quotient
        from alexgeo.spaces import elementwise_distance

        Q = spine_example_quotient(reflect=True, rho=1.0)
        net = epsilon_net(Q, 0.05, 42, allow_degrade=True)
        s = inv.soul(net)
        assert inv.soul_boundary_distance(net, s) == pytest.approx(
            1.0, abs=2.0 * net.epsilon_effective
        )
        g = Q.action.elements[1]
        moved = g.apply(net.coords)
        move = elementwise_distance(Q.base, net.coords, moved)
        fixed = np.flatnonzero(move <= 2.0 * net.epsilon_effective)
        assert fixed.size > 0
        assert float(net.dist[s, fixed].min()) <= 2.0 * net.epsilon_effective


class TestInvariantReport:
    def test_report_round_trip_fields(self):
        net = epsilon_net(Lens(2, 1.5), 0.05, 42)
        rep = inv.invariant_report(net)
        js = rep.to_json()
        assert js["radius"] == pytest.approx(HALF_PI, abs=0.1)
        assert js["soul"] is not None
        assert len(js["edge"]) > 0 and len(js["spine"]) > 0
        assert js["witnesses"]["radius_center"] == inv.radius(net).center
        assert not js["warnings"]
