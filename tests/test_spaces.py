"""Distance formulas against independent embedding and reduction oracles."""

import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from alexgeo import actions, harness, nets, spaces
from alexgeo import embeddings as emb
from alexgeo.errors import ConstructionError, DomainError, UnsupportedConstructionError
from alexgeo.spaces import (
    Cone,
    Ellipsoid,
    Interval,
    Join,
    Lens,
    ModelBall,
    Quotient,
    Sphere,
    Suspension,
    distance,
    double_join,
    points_equal,
    self_distance_matrix,
    track_clamping,
    validate_point,
)

PI = math.pi
HALF_PI = math.pi / 2.0


def graph_geodesic(net, i: int, j: int, knn: int = 12) -> float:
    """Shortest-path length between net nodes through the k-NN graph.

    Edges carry the closed-form distances of the descriptor; this is an
    independent length-structure oracle for the global formulas.
    """
    D = net.dist
    n = D.shape[0]
    k = min(knn + 1, n)
    nbr = np.argsort(D, axis=1)[:, 1:k]
    rows = np.repeat(np.arange(n), nbr.shape[1])
    cols = nbr.ravel()
    graph = csr_matrix((D[rows, cols], (rows, cols)), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False, indices=[i])[0]
    return float(dist[j])


def _rand_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


class TestSphereDistance:
    def test_antipodal(self):
        assert distance(Sphere(1, 1.0), np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == pytest.approx(PI)

    def test_identity(self):
        u = np.array([0.6, 0.8])
        assert distance(Sphere(1, 0.5), u, u) == 0.0

    def test_quarter_arc_half_radius(self):
        # arccos(0) * (1/2) from the chord/angle relation
        d = distance(Sphere(2, 0.5), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert d == pytest.approx(PI / 4.0, abs=1e-15)

    def test_non_unit_rejected_with_vector_in_message(self):
        with pytest.raises(DomainError, match="0.5"):
            distance(Sphere(1, 1.0), np.array([0.5, 0.0]), np.array([1.0, 0.0]))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = distance(Sphere(3, 0.75), _rand_unit(rng, 4), _rand_unit(rng, 4))
            assert 0.0 <= d <= PI * 0.75 + 1e-15


class TestIntervalDistance:
    def test_endpoints(self):
        assert distance(Interval(PI), 0.0, PI) == pytest.approx(PI)

    def test_same_point(self):
        assert distance(Interval(PI), 0.3, 0.3) == 0.0

    def test_absolute_difference(self):
        assert distance(Interval(PI), 0.1, 0.9) == pytest.approx(0.8)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            distance(Interval(1.0), -0.5, 0.1)


class TestJoinDistance:
    def test_latitude_zero_reduces_to_left_factor(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = _rand_unit(rng, 2), _rand_unit(rng, 2)
            p = (u, 0.0, 0.5)
            q = (v, 0.0, 0.9)
            d = distance(Join(Sphere(1, 1.0), Interval(1.0)), p, q)
            assert d == pytest.approx(distance(Sphere(1, 1.0), u, v), abs=1e-12)

    def test_orthogonal_factors(self):
        p = (np.array([1.0, 0.0]), 0.0, 0.2)
        q = (np.array([-1.0, 0.0]), HALF_PI, 0.9)
        d = distance(Join(Sphere(1, 1.0), Interval(1.0)), p, q)
        assert d == pytest.approx(HALF_PI, abs=1e-15)

    def test_circle_join_matches_three_sphere(self):
        # explicit isometric embedding into the unit 3-sphere as the oracle
        rng = np.random.default_rng(42)
        J = Join(Sphere(1, 1.0), Sphere(1, 1.0))
        pts = nets.random_points(J, 2000, rng)
        worst = 0.0
        for p, q in zip(pts[::2], pts[1::2]):
            d = distance(J, p, q)
            d_oracle = emb.sphere_chord_distance(
                emb.embed_join_circle_circle(p), emb.embed_join_circle_circle(q)
            )
            worst = max(worst, abs(d - d_oracle))
        assert worst <= 1e-12

    def test_bad_latitude(self):
        with pytest.raises(DomainError):
            distance(Join(Interval(1.0), Interval(1.0)), (0.0, 2.0, 0.0), (0.0, 0.1, 0.0))


class TestConeDistance:
    def test_apex_distance_is_radial(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y0, y1 = _rand_unit(rng, 2), _rand_unit(rng, 2)
            for k in (-1.0, 0.0, 1.0):
                d = distance(Cone(k, Sphere(1, 1.0), 1.0 if k <= 0 else 1.2), (0.0, y0), (0.7, y1))
                assert d == pytest.approx(0.7, abs=1e-12)

    def test_flat_cone_degenerates_to_line(self):
        y0, y1 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        d = distance(Cone(0.0, Sphere(1, 1.0), 2.0), (1.0, y0), (1.0, y1))
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_spherical_cone_is_join_with_point(self):
        # C_1(S^2(1))(pi/2) against the join formula with a single-point factor
        # (one point of S^0), matching latitudes via tau = pi/2 - t
        rng = np.random.default_rng(4)
        base = Sphere(2, 1.0)
        cone = Cone(1.0, base, HALF_PI)
        join = Join(base, Sphere(0, 1.0))
        pole = np.array([1.0])
        worst = 0.0
        for _ in range(5000):
            t0, t1 = rng.uniform(0.0, HALF_PI, 2)
            y0, y1 = _rand_unit(rng, 3), _rand_unit(rng, 3)
            d_cone = distance(cone, (t0, y0), (t1, y1))
            d_join = distance(join, (y0, HALF_PI - t0, pole), (y1, HALF_PI - t1, pole))
            worst = max(worst, abs(d_cone - d_join))
        assert worst <= 1e-12

    def test_cap_constraint_for_positive_curvature(self):
        with pytest.raises(ConstructionError):
            Cone(1.0, Sphere(1, 1.0), 2.0)
        with pytest.raises(DomainError):
            distance(Cone(1.0, Sphere(1, 1.0), 1.5), (0.1, np.array([1.0, 0.0])), (3.0, np.array([1.0, 0.0])))


class TestSuspensionDistance:
    def test_pole_to_pole(self):
        d = distance(Suspension(Interval(1.0)), (0.0, 0.1), (PI, 0.9))
        assert d == pytest.approx(PI, abs=1e-15)

    def test_equator_matches_base_up_to_pi(self):
        d = distance(Suspension(Interval(1.0)), (HALF_PI, 0.1), (HALF_PI, 0.9))
        assert d == pytest.approx(0.8, abs=1e-12)

    def test_circle_suspension_matches_two_sphere(self):
        rng = np.random.default_rng(5)
        S = Suspension(Sphere(1, 1.0))
        pts = nets.random_points(S, 2000, rng)
        worst = 0.0
        for p, q in zip(pts[::2], pts[1::2]):
            d = distance(S, p, q)
            d_oracle = emb.sphere_chord_distance(
                emb.embed_suspension_circle(p), emb.embed_suspension_circle(q)
            )
            worst = max(worst, abs(d - d_oracle))
        assert worst <= 1e-12

    def test_suspension_equals_join_with_two_point_space(self):
        rng = np.random.default_rng(6)
        S = Suspension(Sphere(1, 1.0))
        J = Join(Sphere(0, 1.0), Sphere(1, 1.0))
        pts = nets.random_points(S, 400, rng)
        for p, q in zip(pts[::2], pts[1::2]):
            u1, y1 = p
            u2, y2 = q

            def to_join(u, y):
                if u <= HALF_PI:
                    return (np.array([1.0]), u, y)
                return (np.array([-1.0]), PI - u, y)

            assert distance(S, p, q) == pytest.approx(
                distance(J, to_join(u1, y1), to_join(u2, y2)), abs=1e-12
            )


class TestLensDistance:
    def test_hemisphere_matches_ambient_sphere(self):
        rng = np.random.default_rng(7)
        lens = Lens(2, PI)
        pts = nets.random_points(lens, 1000, rng)
        for p, q in zip(pts[::2], pts[1::2]):
            d = distance(lens, p, q)
            d_oracle = emb.sphere_chord_distance(emb.embed_lens(lens, p), emb.embed_lens(lens, q))
            assert d == pytest.approx(d_oracle, abs=1e-12)

    def test_sphere_factor_poles_realize_pi(self):
        lens = Lens(3, 1.0)
        p = (np.array([1.0, 0.0]), 0.0, 0.5)
        q = (np.array([-1.0, 0.0]), 0.0, 0.5)
        assert distance(lens, p, q) == pytest.approx(PI, abs=1e-15)

    def test_embedding_oracle_lens_2_in_three_sphere(self):
        rng = np.random.default_rng(8)
        lens = Lens(3, 2.0)
        pts = nets.random_points(lens, 20_000, rng)
        worst = 0.0
        for p, q in zip(pts[::2], pts[1::2]):
            worst = max(
                worst,
                abs(
                    distance(lens, p, q)
                    - emb.sphere_chord_distance(emb.embed_lens(lens, p), emb.embed_lens(lens, q))
                ),
            )
        assert worst <= 1e-12

    def test_alpha_domain(self):
        with pytest.raises(ConstructionError, match="lens angle must lie in"):
            Lens(3, -0.2)
        with pytest.raises(ConstructionError, match="lens angle must lie in"):
            Lens(3, 4.0)


class TestQuotientDistance:
    def test_trivial_group(self):
        from alexgeo.actions import GroupAction, Identity

        base = Sphere(1, 1.0)
        act = GroupAction(space=base, elements=(Identity(),))
        Q = spaces.Quotient(base, act)
        u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert distance(Q, u, v) == pytest.approx(HALF_PI)

    def test_antipodal_identification(self):
        from alexgeo.actions import GroupAction, Identity, antipodal_map

        base = Sphere(1, 1.0)
        act = GroupAction(space=base, elements=(Identity(), antipodal_map(base)))
        Q = spaces.Quotient(base, act)
        u = np.array([1.0, 0.0])
        assert distance(Q, u, -u) == 0.0

    def test_empty_action_rejected(self):
        class Empty:
            elements = ()

        with pytest.raises(ConstructionError):
            spaces.Quotient(Sphere(1, 1.0), Empty())

    def test_folded_lune_pole_to_tip_against_graph_geodesic(self):
        # brute-force min over the two elements, checked against a shortest
        # path through the net graph (independent length-structure oracle)
        from alexgeo.harness import projective_lens_quotient

        Q = projective_lens_quotient(2, 2.0)
        pole = (0.0, 1.0)
        tip = (HALF_PI, 2.0)
        d = distance(Q, pole, tip)
        assert d == pytest.approx(HALF_PI, abs=1e-12)
        net = nets.epsilon_net(Q, 0.04, 11)
        i = nets.nearest_index(net, pole)
        j = nets.nearest_index(net, tip)
        assert net.dist[i, j] == pytest.approx(HALF_PI, abs=2.0 * net.epsilon_effective)
        via_graph = graph_geodesic(net, i, j)
        assert via_graph == pytest.approx(net.dist[i, j], abs=3.0 * net.epsilon_effective)


class TestDegeneratePoints:
    def test_cone_apex_ignores_base_coordinate(self):
        cone = Cone(1.0, Sphere(1, 1.0), 1.0)
        p = (0.0, np.array([1.0, 0.0]))
        q = (0.0, np.array([0.0, 1.0]))
        assert points_equal(cone, p, q)

    def test_join_latitude_zero_ignores_right(self):
        J = Join(Sphere(1, 1.0), Interval(1.0))
        u = np.array([1.0, 0.0])
        assert points_equal(J, (u, 0.0, 0.2), (u, 0.0, 0.9))

    def test_suspension_pole_ignores_base(self):
        S = Suspension(Sphere(1, 1.0))
        assert points_equal(S, (0.0, np.array([1.0, 0.0])), (0.0, np.array([0.0, 1.0])))


class TestDoubleJoin:
    def test_interval_doubles_to_circle(self):
        dbl = double_join(Interval(PI))
        assert dbl == Sphere(1, 1.0)  # circumference 2*pi

    def test_lens_doubles_to_sphere_join(self):
        dbl = double_join(Lens(3, PI))
        assert dbl == Join(Sphere(1, 1.0), Sphere(1, 1.0))

    def test_fundamental_domain_is_isometric(self):
        rng = np.random.default_rng(9)
        J = Join(Sphere(1, 1.0), Interval(2.0))
        dbl = double_join(J)
        pts = nets.random_points(J, 2000, rng)
        worst = 0.0
        for p, q in zip(pts[::2], pts[1::2]):
            (x1, t1, s1), (x2, t2, s2) = p, q
            pd = (x1, t1, emb.interval_point_on_double(s1, 2.0))
            qd = (x2, t2, emb.interval_point_on_double(s2, 2.0))
            worst = max(worst, abs(distance(J, p, q) - distance(dbl, pd, qd)))
        assert worst <= 1e-12

    def test_non_interval_right_factor_rejected(self):
        with pytest.raises(UnsupportedConstructionError):
            double_join(Join(Sphere(1, 1.0), Sphere(1, 1.0)))


class TestReassociation:
    def test_interval_joins_agree_under_correspondence(self):
        rng = np.random.default_rng(10)
        J1 = Join(Interval(PI), Interval(PI))
        J2 = Join(Interval(HALF_PI), Sphere(1, 1.0))
        pts = nets.random_points(J1, 20_000, rng)
        worst = 0.0
        for p, q in zip(pts[::2], pts[1::2]):
            d1 = distance(J1, p, q)
            d2 = distance(J2, emb.reassociate_interval_join(p), emb.reassociate_interval_join(q))
            worst = max(worst, abs(d1 - d2))
        assert worst <= 1e-9


class TestValidation:
    def test_join_factor_radius_window(self):
        with pytest.raises(ConstructionError):
            Join(Sphere(1, 0.4), Interval(1.0))
        with pytest.raises(ConstructionError):
            Join(Sphere(1, 1.2), Interval(1.0))
        Join(Sphere(1, 0.5), Interval(1.0))
        Join(Sphere(1, 1.0), Interval(1.0))

    def test_ellipsoid_join_factor_rejected(self):
        with pytest.raises(UnsupportedConstructionError):
            Join(Ellipsoid(0.6, 0.5, 0.4), Interval(1.0))

    def test_interval_length_window(self):
        with pytest.raises(ConstructionError):
            Interval(4.0)
        with pytest.raises(ConstructionError):
            Interval(0.0)

    def test_validate_point_surface_check(self):
        e = Ellipsoid(0.6, 1.0 / 3.0, 0.25)
        validate_point(e, np.array([0.6, 0.0, 0.0]))
        with pytest.raises(DomainError):
            validate_point(e, np.array([0.7, 0.0, 0.0]))

    def test_model_ball_cap(self):
        with pytest.raises(ConstructionError):
            ModelBall(1.0, 2.0, 2)

    def test_real_parameter_rule(self):
        for value in (2, 2.5, np.int64(2), np.float32(0.5), math.inf):
            assert spaces.as_real(value) == float(value) and type(spaces.as_real(value)) is float
        for value in (True, np.bool_(True), "1", None, [1.0], np.array([1.0]), 1j):
            assert spaces.as_real(value) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Sphere(2, x),
            lambda x: Sphere(x),
            lambda x: Interval(x),
            lambda x: Ellipsoid(x, 1.0, 1.0),
            lambda x: Ellipsoid(1.0, 1.0, x),
            lambda x: Cone(x, Sphere(1, 1.0), 1.0),
            lambda x: Cone(-1.0, Sphere(1, 1.0), x),
            lambda x: Lens(x, 1.0),
            lambda x: ModelBall(x, 1.0, 2),
            lambda x: ModelBall(0.0, x, 2),
            lambda x: ModelBall(0.0, 1.0, x),
        ],
    )
    def test_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(ConstructionError):
            make(bad)

    @pytest.mark.parametrize("space", [Sphere(2, 1.0), Ellipsoid(0.6, 1.0 / 3.0, 0.25)])
    def test_validate_point_rejects_nan(self, space):
        with pytest.raises(DomainError):
            validate_point(space, np.array([math.nan, 0.0, 0.0]))

    def test_scalar_distance_rejects_nan_point(self):
        bad, e1 = np.array([math.nan, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            distance(Sphere(2), bad, e1)
        with pytest.raises(DomainError):
            distance(Sphere(2), e1, bad)
        with pytest.raises(DomainError):
            distance(Join(Sphere(2), Interval(1.0)), (bad, 0.5, 0.2), (e1, 0.5, 0.2))


class TestClampInstrumentation:
    def test_valid_inputs_clamp_below_1e_12(self):
        rng = np.random.default_rng(12)
        J = Join(Sphere(1, 1.0), Sphere(1, 1.0))
        pts = nets.random_points(J, 2000, rng)
        with track_clamping() as stats:
            for p, q in zip(pts[::2], pts[1::2]):
                distance(J, p, q)
            net = nets.epsilon_net(Sphere(2, 1.0), 0.2, 3)
        assert stats.max_excess <= 1e-12


class TestPackPoints:
    @pytest.mark.parametrize(
        "space, point",
        [
            (Sphere(2, 1.0), [2.0, 0.0, 0.0]),
            (Lens(3, 1.0), ([0.6, 0.6], 0.3, 0.5)),
            (ModelBall(0.0, 1.0, 2), (0.5, [1.0, 1e-5])),
        ],
        ids=["sphere", "lens-factor", "ball-direction"],
    )
    def test_non_unit_sphere_row_rejected(self, space, point):
        # the kernels would read such a row by its direction alone
        with pytest.raises(DomainError, match="not a unit vector"):
            spaces.pack_points(space, [point])

    def test_unit_rows_within_tolerance_pack(self):
        row = np.array([1.0 + 5e-13, 0.0, 0.0])
        validate_point(Sphere(2, 1.0), row)
        assert np.array_equal(spaces.pack_points(Sphere(2, 1.0), [row]), row[None, :])


CAP = Cone(1.0, Sphere(1, 1.0), 1.0)
E1 = np.array([1.0, 0.0])


# (space, a -> (p, q)) with the scalar coordinate a in one of the points
_SCALAR_COORDINATES = [
    (Interval(1.0), lambda a: (a, 0.2)),
    (Join(Sphere(1, 1.0), Sphere(1, 1.0)), lambda a: ((E1, a, E1), (E1, 0.5, E1))),
    (CAP, lambda a: ((0.5, E1), (a, E1))),
    (Suspension(Sphere(1, 1.0)), lambda a: ((a, E1), (0.5, E1))),
]
_SCALAR_COORDINATE_IDS = ["interval", "join-latitude", "cone-radial", "suspension-colatitude"]


class TestSharedDomainCheck:
    """`pack_points`, `validate_point` and scalar `distance` reject what the kernels cannot read."""

    def test_sphere_row_of_the_wrong_width(self):
        with pytest.raises(DomainError, match="rows of 3 numbers"):
            spaces.pack_points(Sphere(2, 1.0), [[1.0, 0.0]])

    def test_scalar_sphere_points_of_the_wrong_width(self):
        with pytest.raises(DomainError, match="shape"):
            distance(Sphere(2, 1.0), [1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="shape"):
            distance(Sphere(2, 1.0), [1.0, 0.0], [0.0, 1.0])

    def test_join_point_with_two_parts(self):
        with pytest.raises(DomainError, match="tuples of 3"):
            validate_point(Join(Sphere(1, 1.0), Sphere(1, 1.0)), (E1, 0.5))

    def test_radial_coordinate_past_the_cap(self):
        with pytest.raises(DomainError, match="cone radial coordinate 5.0 outside"):
            spaces.pack_points(CAP, [(5.0, E1)])
        with pytest.raises(DomainError):
            distance(CAP, (5.0, E1), (0.5, E1))

    @pytest.mark.parametrize("space, point", [
        (Interval(1.0), math.nan),
        (Join(Sphere(1, 1.0), Interval(1.0)), (E1, 0.5, math.nan)),
        (Join(Sphere(1, 1.0), Interval(1.0)), (E1, math.nan, 0.5)),
        (Suspension(Sphere(1, 1.0)), (math.nan, E1)),
    ], ids=["interval", "join-interval", "join-latitude", "colatitude"])
    def test_nan_value_rejected(self, space, point):
        with pytest.raises(DomainError):
            spaces.pack_points(space, [point])
        with pytest.raises(DomainError):
            validate_point(space, point)

    @pytest.mark.parametrize("space, p, q", [
        (Join(Sphere(1, 1.0), Sphere(1, 1.0)), (E1, 0.5), (E1, 0.5, E1)),
        (Join(Sphere(1, 1.0), Sphere(1, 1.0)), (E1, 0.5, E1), (E1, 0.5, E1, 0.5)),
        (CAP, (0.5,), (0.5, E1)),
        (CAP, (0.5, E1), (0.5, E1, 0.5)),
        (Suspension(Sphere(1, 1.0)), (0.5, E1), 0.5),
        (Suspension(Sphere(1, 1.0)), (0.5, E1, 0.5), (0.5, E1)),
    ], ids=["join-2", "join-4", "cone-1", "cone-3", "suspension-scalar", "suspension-3"])
    def test_scalar_distance_on_a_point_with_the_wrong_number_of_parts(self, space, p, q):
        with pytest.raises(DomainError, match="tuples of"):
            distance(space, p, q)

    @pytest.mark.parametrize("space, points", [
        (Interval(1.0), ["a"]),
        (Interval(1.0), [[0.1, 0.2]]),
        (Join(Sphere(1, 1.0), Interval(1.0)), [(E1, "a", 0.5)]),
    ], ids=["string", "list", "join-latitude"])
    def test_scalar_coordinate_that_is_no_number(self, space, points):
        with pytest.raises(DomainError, match="must be numbers"):
            spaces.pack_points(space, points)

    @pytest.mark.parametrize("space, p, q", [
        (Interval(1.0), "a", 0.5),
        (Join(Sphere(1, 1.0), Sphere(1, 1.0)), (E1, "a", E1), (E1, 0.5, E1)),
        (CAP, (0.5, E1), ("a", E1)),
        (Suspension(Sphere(1, 1.0)), ([0.5], E1), (0.5, E1)),
    ], ids=["interval", "join-latitude", "cone-radial", "suspension-colatitude"])
    def test_scalar_distance_on_a_coordinate_that_is_no_number(self, space, p, q):
        with pytest.raises(DomainError, match="must be numbers"):
            distance(space, p, q)

    @pytest.mark.parametrize("point", [["a", "b"], [[1.0, 0.0], [0.0]], {"x": 1.0}],
                             ids=["strings", "ragged", "dict"])
    def test_sphere_point_that_is_no_vector_of_numbers(self, point):
        with pytest.raises(DomainError, match="sphere points must be sequences of numbers"):
            distance(Sphere(1, 1.0), point, np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match="sphere points must be sequences of numbers"):
            distance(Sphere(1, 1.0), np.array([1.0, 0.0]), point)
        with pytest.raises(DomainError, match="vector points must be sequences of numbers"):
            spaces.pack_points(Sphere(1, 1.0), [np.array([1.0, 0.0]), point])
        with pytest.raises(DomainError, match="vector points must be sequences of numbers"):
            validate_point(Join(Sphere(1, 1.0), Interval(1.0)), (point, 0.5, 0.5))

    @pytest.mark.parametrize("space, points", _SCALAR_COORDINATES, ids=_SCALAR_COORDINATE_IDS)
    def test_scalar_distance_on_a_one_element_array(self, space, points):
        # numpy compares a one-element array as a number but will not convert it to one;
        # a longer one must be converted before any range comparison, which would raise a bare ValueError
        for value in (np.array([0.5]), np.array([0.5, 0.6])):
            p, q = points(value)
            with pytest.raises(DomainError, match="must be numbers"):
                distance(space, p, q)
            with pytest.raises(DomainError, match="must be numbers"):
                distance(space, q, p)

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5"], ids=["bool", "numpy-bool", "string"])
    @pytest.mark.parametrize("space, points", _SCALAR_COORDINATES, ids=_SCALAR_COORDINATE_IDS)
    def test_bools_and_strings_are_no_numbers(self, space, points, value):
        # the rule of `as_real`, which every real parameter follows
        p, q = points(value)
        with pytest.raises(DomainError, match="must be numbers"):
            distance(space, p, q)
        with pytest.raises(DomainError, match="must be numbers"):
            distance(space, q, p)
        with pytest.raises(DomainError, match="must be numbers"):
            spaces.pack_points(space, [q, p])

    @pytest.mark.parametrize("value", [1, np.int64(0), np.float64(0.5), np.float32(0.5)],
                             ids=["int", "numpy-int", "numpy-float64", "numpy-float32"])
    @pytest.mark.parametrize("space, points", _SCALAR_COORDINATES, ids=_SCALAR_COORDINATE_IDS)
    def test_ints_and_numpy_floats_are_numbers(self, space, points, value):
        p, q = points(value)
        p_float, q_float = points(float(value))
        assert distance(space, p, q) == distance(space, p_float, q_float)
        assert spaces.coords_flat(spaces.pack_points(space, [p, q])).tolist() == \
            spaces.coords_flat(spaces.pack_points(space, [p_float, q_float])).tolist()

    @pytest.mark.parametrize("bad", [[0.6, 0.8, 0.1], [math.nan, 0.0, 0.0]], ids=["non-unit", "nan"])
    def test_many_sphere_rows_fail_as_the_first_bad_row_alone(self, bad):
        S2 = Sphere(2, 1.0)
        rows = np.array(S2.random_points(1000, np.random.default_rng(3)))
        rows[500] = bad
        rows[700] = [2.0, 0.0, 0.0]
        with pytest.raises(DomainError) as alone:
            spaces.pack_points(S2, [rows[500]])
        with pytest.raises(DomainError) as packed:
            spaces.pack_points(S2, list(rows))
        assert str(packed.value) == str(alone.value)
        assert "not a unit vector" in str(packed.value)

    @pytest.mark.parametrize("bad", [1.5, -0.25, math.nan], ids=["above", "below", "nan"])
    def test_many_interval_values_fail_as_the_first_bad_value_alone(self, bad):
        interval = Interval(1.0)
        values = np.random.default_rng(3).uniform(0.0, 1.0, 1000).tolist()
        values[500] = bad
        values[700] = 2.0
        with pytest.raises(DomainError) as alone:
            spaces.pack_points(interval, [bad])
        with pytest.raises(DomainError) as packed:
            spaces.pack_points(interval, values)
        assert str(packed.value) == str(alone.value)
        assert "outside [0, 1.0]" in str(packed.value)

    def test_nearest_index_rejects_a_point_off_the_cap(self):
        net = nets.epsilon_net(CAP, 0.3, 42)
        with pytest.raises(DomainError):
            nets.nearest_index(net, (5.0, E1))

    @pytest.mark.parametrize("make", [
        lambda: Join(5, Sphere(1, 1.0)),
        lambda: Join(Sphere(1, 1.0), "x"),
        lambda: Cone(1.0, "x", 1.0),
        lambda: Suspension(None),
    ], ids=["join-left", "join-right", "cone-base", "suspension-base"])
    def test_constructors_reject_non_descriptors(self, make):
        with pytest.raises(ConstructionError):
            make()


# (id, space, epsilon) of every bounded kind: the nets that
# `test_lens_matches_net_boundary_distance` checks f against
_BOUNDED = [
    ("Lens(2, 1.5)", Lens(2, 1.5), 0.04),
    ("Join(I(pi), I(pi))", Join(Interval(PI), Interval(PI)), 0.05),
    ("Suspension(I(1))", Suspension(Interval(1.0)), 0.04),
    ("Cone(1, I(1), 1)", Cone(1.0, Interval(1.0), 1.0), 0.04),
    ("Cone(0, I(1), 1)", Cone(0.0, Interval(1.0), 1.0), 0.04),
    ("Join(Suspension(I(0.5)), I(1))", Join(Suspension(Interval(0.5)), Interval(1.0)), 0.05),
    ("spine_example_quotient(True)", harness.spine_example_quotient(True), 0.05),
]


class TestBoundaryDistance:
    def test_ball_and_cone_are_radial(self):
        ball = ModelBall(1.0, 1.2, 2)
        assert spaces.boundary_distance(ball, (0.3, np.array([1.0, 0.0]))) == pytest.approx(0.9)
        cone = Cone(0.0, Sphere(1, 1.0), 2.0)
        assert spaces.boundary_distance(cone, (0.5, np.array([1.0, 0.0]))) == pytest.approx(1.5)

    @pytest.mark.parametrize("space, eps", [case[1:] for case in _BOUNDED], ids=[case[0] for case in _BOUNDED])
    def test_lens_matches_net_boundary_distance(self, space, eps):
        # f is the distance to the boundary, so no flagged net point is
        # nearer; the flagged points cover the boundary, so one is near the foot
        net = nets.epsilon_net(space, eps, 21, budget=2500, allow_degrade=True)
        rng = np.random.default_rng(13)
        bdry = net.boundary_indices()
        for p in nets.random_points(space, 40, rng):
            f = spaces.boundary_distance(space, p)
            d = spaces.cross_distance(space, spaces.pack_points(space, [p]), net.coords)[0]
            observed = float(d[bdry].min())
            assert f <= observed + 1e-12
            assert observed - f <= 2.0 * net.epsilon_effective

    @pytest.mark.parametrize("n", [2, 3])
    def test_hemisphere_grid_matches_the_face_formula(self, n):
        lens = Lens(n, PI)
        coords = lens.net_grid(0.1)
        assert np.array_equal(spaces.boundary_distances(lens, coords), _lens_faces(lens, coords))

    def test_spaces_without_boundary_read_inf(self):
        for space in (Sphere(2, 1.0), Suspension(Sphere(1, 1.0)), Join(Sphere(1, 1.0), Sphere(1, 0.75)),
                      Ellipsoid(0.7, 1.0 / 3.0, 0.25)):
            assert spaces.boundary_distance(space, space.canonical_point()) == math.inf


def _lens_faces(lens, coords):
    """d(., boundary) of a lens by its two faces s = 0 and s = alpha: the
    reference the recursion must reproduce bit for bit.  The distance to the
    face at gap ds is arcsin(sin t sin ds) while the foot stays interior
    (ds <= pi/2); beyond that the rim (t' = 0) is closest."""
    t = coords.t
    faces = [np.where(ds >= HALF_PI, t, np.arcsin(np.minimum(1.0, np.sin(t) * np.sin(ds))))
             for ds in (coords.right, lens.alpha - coords.right)]
    return np.minimum(*faces)


def _matrix_spaces():
    cap = Cone(1.0, Sphere(1, 1.0), 1.0)
    cap075 = Cone(1.0, Sphere(1, 0.75), HALF_PI)
    s3 = Sphere(3, 1.0)
    return {
        "sphere_half": Sphere(2, 0.5),
        "lens3": Lens(3, 1.0),
        "cone_k-1": Cone(-1.0, Sphere(1, 1.0), 1.0),
        "suspension_s1": Suspension(Sphere(1, 1.0)),
        "model_ball": ModelBall(1.0, PI / 4.0, 3),
        "reflection_z2": harness.spine_example_quotient(reflect=True),
        "cap075_z8": Quotient(cap075, actions.cyclic_approximation(cap075, 8)),
        "s3_z8": Quotient(s3, actions.cyclic_approximation(s3, 8)),
        "cap_z8": Quotient(cap, actions.cyclic_approximation(cap, 8)),
    }


MATRIX_SPACES = _matrix_spaces()


def _packed(space, n, seed=5):
    return spaces.pack_points(space, nets.random_points(space, n, np.random.default_rng(seed)))


def _assert_matches_cross(space, C, D):
    # each pair is evaluated in one orientation only, and the two orientations
    # may round apart near 0, where arccos resolves about 1.5e-8; the diagonal
    # is zero by definition (arccosh reads up to ~3e-8 at d(x, x))
    full = spaces.cross_distance(space, C, C)
    np.fill_diagonal(full, 0.0)
    far = full > 1e-6
    assert np.abs(D - full)[far].max(initial=0.0) <= 1e-12
    assert np.abs(D - full)[~far].max(initial=0.0) <= 2e-8


def _assert_exact_structure(D):
    assert np.array_equal(D, D.T)
    assert not np.diag(D).any()


def _block_edge_sizes():
    """1 point (one row), then the first n past one row block of `row_block(n)`
    rows that is one row short of, exactly at and one row over a multiple of it."""

    def first(over):
        return next(
            n for n in range(2, 1 << 20)
            if n > spaces.row_block(n) and (n - over) % spaces.row_block(n) == 0
        )

    return [1] + [first(over) for over in (-1, 0, 1)]


class TestSelfDistanceMatrix:
    @pytest.mark.parametrize("name", list(MATRIX_SPACES))
    @pytest.mark.parametrize("n,block", [(20, 7), (90, 512)])
    def test_agrees_with_cross_distance(self, name, n, block):
        space = MATRIX_SPACES[name]
        C = _packed(space, n)
        D = self_distance_matrix(space, C, block=block)
        assert D.shape == (n, n)
        _assert_exact_structure(D)
        _assert_matches_cross(space, C, D)

    @pytest.mark.parametrize("name", ["sphere_half", "cap075_z8"])
    @pytest.mark.parametrize("n", _block_edge_sizes())
    def test_block_edges(self, name, n):
        space = MATRIX_SPACES[name]
        C = _packed(space, n)
        D = self_distance_matrix(space, C)
        assert D.shape == (n, n)
        _assert_exact_structure(D)
        _assert_matches_cross(space, C, D)

    @pytest.mark.parametrize(
        "space",
        [harness.spine_example_quotient(False), MATRIX_SPACES["cap075_z8"]],
        ids=["rotation_kernel", "element_list"],
    )
    def test_working_set_stays_near_the_matrix(self, space):
        # the kernel temporaries of a row block are bounded by BLOCK_ENTRIES,
        # not by a fixed row count times n
        import tracemalloc

        C = _packed(space, 3200)
        tracemalloc.start()
        try:
            D = self_distance_matrix(space, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * D.nbytes

    def test_net_orbit_copies_stay_symmetric(self):
        # orbit copies of one point read ~1e-8 in one orientation and 0 in
        # the other; the diagonal-block min must still leave D exactly symmetric
        space = MATRIX_SPACES["cap_z8"]
        base_net = nets.epsilon_net(space.base, 0.1, 42)
        D = self_distance_matrix(space, base_net.coords, block=64)
        _assert_exact_structure(D)
        _assert_matches_cross(space, base_net.coords, D)

    @pytest.mark.parametrize("name", ["sphere_half", "lens3", "s3_z8", "cap075_z8"])
    @pytest.mark.parametrize("n,block", [(20, 7), (513, 512), (300, 64)])
    def test_kernel_sees_each_unordered_pair_once(self, monkeypatch, name, n, block):
        space = MATRIX_SPACES[name]
        C = _packed(space, n)
        inner = spaces.cross_distance
        seen = []

        def counting(sp, A, B):
            if sp is space:  # nested factor and base calls are not the matrix's own
                seen.append(spaces.coords_len(A) * spaces.coords_len(B))
            return inner(sp, A, B)

        monkeypatch.setattr(spaces, "cross_distance", counting)
        self_distance_matrix(space, C, block=block)
        assert sum(seen) <= n * (n + block) / 2
