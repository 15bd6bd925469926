"""Group action construction, validation, and the cyclic surrogate."""

import math

import numpy as np
import pytest

from alexgeo import actions, nets, serialize, spaces
from alexgeo.errors import ConstructionError, DomainError
from alexgeo.spaces import Cone, Interval, Join, Quotient, Sphere, Suspension, distance

PI = math.pi
HALF_PI = math.pi / 2.0


def _z2_join(length=1.0):
    base = Join(Sphere(1, 1.0), Interval(length))
    g = actions.JoinMap(actions.antipodal_map(Sphere(1, 1.0)), actions.IntervalReflection(length))
    return base, actions.GroupAction(space=base, elements=(actions.Identity(), g))


class TestValidation:
    def test_z2_join_action_passes(self):
        base, act = _z2_join()
        audit = actions.validate_action(base, act, n_pairs=300)
        assert audit.passed
        assert audit.has_identity
        assert audit.closure_defect <= 1e-9
        assert audit.isometry_defect <= 1e-9

    def test_latitude_preserved_exactly(self):
        base, act = _z2_join()
        X = spaces.pack_points(base, nets.random_points(base, 200, np.random.default_rng(7)))
        for g in act.elements:
            assert g.apply(X).t.tobytes() == X.t.tobytes()

    def test_non_closed_list_fails(self):
        base = Sphere(1, 1.0)
        rot = actions.OrthogonalMap(actions.rotation_matrix(2.0 * PI / 3.0))
        act = actions.GroupAction(space=base, elements=(actions.Identity(), rot))
        audit = actions.validate_action(base, act, n_pairs=50)
        assert not audit.passed  # missing rot^2

    def test_isometry_audit_matches_the_scalar_loop(self):
        # the packed audit against the point-by-point loop it replaced, on
        # the same draws; the two round differently, by a few ulps of pi
        base = Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0))
        act = actions.cyclic_approximation(base, 8)
        audit = actions.validate_action(base, act, n_pairs=60, seed=3)
        rng = np.random.default_rng(3)
        nets.random_points(base, 16, rng)  # the closure probes come first
        xs, ys = nets.random_points(base, 60, rng), nets.random_points(base, 60, rng)
        ref = max(
            abs(distance(base, x, y) - distance(base, g.apply_point(x), g.apply_point(y)))
            for g in act.elements[1:] for x, y in zip(xs, ys)
        )
        assert abs(audit.isometry_defect - ref) <= 8 * np.finfo(float).eps * PI
        X = spaces.pack_points(base, xs)
        for g in act.elements:
            assert g.apply(X).t.tobytes() == X.t.tobytes()

    def test_map_off_the_sphere_raises(self):
        # orthogonal within the map's 1e-9 check, but rows leave the unit sphere by 1e-10
        base = Sphere(1, 1.0)
        g = actions.OrthogonalMap((1.0 + 1e-10) * np.eye(2))
        act = actions.GroupAction(space=base, elements=(actions.Identity(), g))
        with pytest.raises(DomainError, match="unit vector"):
            actions.validate_action(base, act, n_pairs=20)

    def test_generator_closure(self):
        base = Sphere(1, 1.0)
        rot = actions.OrthogonalMap(actions.rotation_matrix(2.0 * PI / 5.0))
        act = actions.group_from_generators(base, [rot])
        assert act.order == 5
        audit = actions.validate_action(base, act, n_pairs=100)
        assert audit.passed


class TestCyclicApproximation:
    def test_order_validation(self):
        with pytest.raises(ConstructionError):
            actions.cyclic_approximation(Sphere(1, 1.0), 1)

    def test_m2_on_circle_is_antipodal(self):
        base = Sphere(1, 1.0)
        act = actions.cyclic_approximation(base, 2)
        Q = Quotient(base, act)
        net = nets.epsilon_net(Q, 0.05, 3)
        # the antipodal circle quotient is a circle of half circumference
        assert net.dist.max() == pytest.approx(HALF_PI, abs=2.0 * net.epsilon_effective)

    def test_monotone_in_subgroup_chain(self):
        base = Sphere(3, 1.0)
        rng = np.random.default_rng(0)
        pairs = [(p, q) for p, q in zip(nets.random_points(base, 60, rng),
                                        nets.random_points(base, 60, rng))]
        for m in (8, 16, 32):
            small = Quotient(base, actions.cyclic_approximation(base, m))
            big = Quotient(base, actions.cyclic_approximation(base, 2 * m))
            for x, y in pairs:
                d_small = spaces.quotient_distance(small, x, y)
                d_big = spaces.quotient_distance(big, x, y)
                assert d_big <= d_small + 1e-12
                assert d_small - d_big <= 2.0 * PI / m + 1e-12

    def test_hopf_orbits_have_unit_speed(self):
        base = Sphere(3, 1.0)
        act = actions.cyclic_approximation(base, 64)
        rng = np.random.default_rng(1)
        p = nets.random_points(base, 1, rng)[0]
        g = act.elements[1]
        assert distance(base, p, g.apply_point(p)) == pytest.approx(2.0 * PI / 64, abs=1e-12)

    def test_unsupported_base(self):
        with pytest.raises(ConstructionError):
            actions.cyclic_approximation(Sphere(2, 1.0), 8)

    def test_order_past_max_order_fails_when_built(self):
        with pytest.raises(ConstructionError, match=f"exceeded {actions.MAX_ORDER} elements"):
            actions.cyclic_approximation(Sphere(1, 1.0), actions.MAX_ORDER + 1)

    def test_max_order_builds_and_reloads_to_equal_elements(self):
        base = Sphere(1, 1.0)
        act = actions.cyclic_approximation(base, actions.MAX_ORDER)
        again = actions.action_from_json(base, act.to_json())
        assert act.order == again.order == actions.MAX_ORDER
        assert _element_text(again) == _element_text(act)

    # perfbench's seven `quotients` cases, and the catalogue's Join(S^3, cap)/Z_256 of ex3_8
    @pytest.mark.parametrize("base, m", [
        (Sphere(3, 1.0), 8),
        (Sphere(3, 1.0), 64),
        (Sphere(3, 1.0), 256),
        (Cone(1.0, Sphere(1, 1.0), 1.0), 8),
        (Cone(1.0, Sphere(1, 1.0), 1.0), 64),
        (Cone(1.0, Sphere(1, 0.75), HALF_PI), 8),
        (Cone(1.0, Sphere(1, 0.75), HALF_PI), 64),
        (Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0)), 256),
    ], ids=["s3-z8", "s3-z64", "s3-z256", "cap-z8", "cap-z64", "cap075-z8", "cap075-z64",
            "join-s3-cap-z256"])
    def test_elements_serialize_as_their_reload(self, base, m):
        act = actions.cyclic_approximation(base, m)
        again = serialize.space_from_json(serialize.space_to_json(Quotient(base, act))).action
        assert act.order == m
        assert _element_text(again) == _element_text(act)
        assert [g.to_json() for g in again.generators] == [g.to_json() for g in act.generators]


def _element_text(action):
    """The action's elements as stable JSON text, which keeps every float bit (and -0.0)."""
    return [serialize.stable_dumps(g.to_json()) for g in action.elements]


class TestJsonGenerators:
    def test_factor_shorthand(self):
        base = Join(Sphere(1, 1.0), Interval(1.0))
        act = actions.action_from_json(
            base,
            {"generators": [
                {"type": "antipodal", "factor": "left"},
                {"type": "reflection", "factor": "right"},
            ]},
        )
        # the two commuting involutions generate the Klein four-group
        assert act.order == 4
        assert actions.validate_action(base, act, n_pairs=100).passed

    def test_structured_generator(self):
        base = Suspension(Interval(1.0))
        act = actions.action_from_json(
            base,
            {"generators": [{"type": "suspension_map", "flip": True,
                             "base": {"type": "reflection"}}],
             "order": 2},
        )
        assert act.order == 2

    def test_declared_order_mismatch(self):
        base = Sphere(1, 1.0)
        with pytest.raises(ConstructionError):
            actions.action_from_json(
                base, {"generators": [{"type": "rotation", "order": 6}], "order": 5}
            )

    def test_round_trip_through_descriptor_json(self):
        from alexgeo import serialize

        base, act = _z2_join()
        Q = Quotient(base, act)
        payload = serialize.space_to_json(Q)
        Q2 = serialize.space_from_json(payload)
        rng = np.random.default_rng(2)
        for p, q in zip(nets.random_points(base, 40, rng), nets.random_points(base, 40, rng)):
            assert distance(Q, p, q) == pytest.approx(distance(Q2, p, q), abs=1e-12)

    def test_hopf_generator(self):
        base = Sphere(3, 1.0)
        act = actions.action_from_json(base, {"generators": [{"type": "hopf", "order": 8}]})
        assert act.order == 8

    @pytest.mark.parametrize("base, spec, want", [
        (Cone(1.0, Sphere(1, 1.0), 1.0), {"type": "rotation", "order": 4, "factor": "base"},
         actions.ConeMap(actions.OrthogonalMap(actions.rotation_matrix(PI / 2)))),
        (Suspension(Sphere(1, 1.0)), {"type": "rotation", "order": 4, "factor": "base"},
         actions.SuspensionMap(False, actions.OrthogonalMap(actions.rotation_matrix(PI / 2)))),
        (Join(Sphere(1, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0)), {"type": "rotation", "order": 4, "factor": "right.base"},
         actions.JoinMap(actions.Identity(), actions.ConeMap(actions.OrthogonalMap(actions.rotation_matrix(PI / 2))))),
        (Join(Suspension(Interval(1.0)), Sphere(1, 1.0)), {"type": "reflection", "factor": "left.base"},
         actions.JoinMap(actions.SuspensionMap(False, actions.IntervalReflection(1.0)), actions.Identity())),
    ], ids=["cone-base", "suspension-base", "dotted-right-base", "dotted-left-base"])
    def test_factor_path_wraps_the_leaf(self, base, spec, want):
        act = actions.action_from_json(base, {"generators": [spec]})
        assert act.generators[0].to_json() == want.to_json()
        assert act.order == (4 if spec["type"] == "rotation" else 2)
        assert actions.validate_action(base, act, n_pairs=50).passed

    @pytest.mark.parametrize("base, factor", [
        (Sphere(1, 1.0), "left"),
        (Join(Sphere(1, 1.0), Interval(1.0)), "base"),
        (Cone(1.0, Sphere(1, 1.0), 1.0), "left"),
        (Join(Sphere(1, 1.0), Interval(1.0)), "right.base"),
    ], ids=["sphere", "join-base", "cone-left", "dotted-past-a-leaf"])
    def test_factor_that_addresses_nothing(self, base, factor):
        with pytest.raises(ConstructionError, match=f"factor '{factor.rpartition('.')[2]}' does not address"):
            actions.action_from_json(base, {"generators": [{"type": "reflection", "factor": factor}]})

    def test_sphere_reflection_flips_the_last_coordinate(self):
        base = Sphere(2, 1.0)
        act = actions.action_from_json(base, {"generators": [{"type": "reflection"}]})
        assert act.order == 2
        assert np.array_equal(act.generators[0].matrix, np.diag([1.0, 1.0, -1.0]))
        assert actions.validate_action(base, act, n_pairs=50).passed


class TestConeActions:
    def test_cap_rotation_preserves_radial_coordinate(self):
        cap = Cone(1.0, Sphere(1, 1.0), 1.0)
        g = actions.ConeMap(actions.OrthogonalMap(actions.rotation_matrix(PI)))
        p = (0.4, np.array([1.0, 0.0]))
        t, y = g.apply_point(p)
        assert t == 0.4
        assert np.allclose(y, [-1.0, 0.0])

    def test_cap_reflection_is_isometry(self):
        cap = Cone(1.0, Sphere(1, 1.0), 1.0)
        g = actions.ConeMap(actions.OrthogonalMap(actions.circle_reflection_matrix()))
        act = actions.GroupAction(space=cap, elements=(actions.Identity(), g))
        audit = actions.validate_action(cap, act, n_pairs=300)
        assert audit.passed


CIRCLE = Sphere(1, 1.0)
CAP = Cone(1.0, CIRCLE, 1.0)


class TestFitCheck:
    """A node of the wrong shape for its descriptor fails where the action meets it."""

    @pytest.mark.parametrize("space, g", [
        (Sphere(2, 1.0), actions.OrthogonalMap(np.eye(4))),
        (CAP, actions.ConeMap(actions.OrthogonalMap(np.eye(3)))),
        (CAP, actions.JoinMap(actions.Identity(), actions.Identity())),
        (CIRCLE, actions.IntervalReflection(1.0)),
        (Interval(1.0), actions.IntervalReflection(2.0)),
        (Suspension(CIRCLE), actions.ConeMap(actions.Identity())),
    ], ids=["matrix-size", "cone-base-matrix", "join-map-on-cone", "interval-reflection-on-sphere",
            "reflection-length", "cone-map-on-suspension"])
    def test_group_action_rejects_a_misfit(self, space, g):
        with pytest.raises(ConstructionError, match="does not fit"):
            actions.GroupAction(space, (actions.Identity(), g))
        with pytest.raises(ConstructionError, match="does not fit"):
            actions.group_from_generators(space, [g])

    def test_quotient_rejects_an_action_for_another_base(self):
        with pytest.raises(ConstructionError, match="does not fit"):
            Quotient(Sphere(2, 1.0), actions.cyclic_approximation(Sphere(3, 1.0), 8))

    @pytest.mark.parametrize("base, generator", [
        ({"kind": "sphere", "dim": 1},
         {"type": "join_map", "left": {"type": "identity"}, "right": {"type": "identity"}}),
        ({"kind": "join", "left": {"kind": "sphere", "dim": 1}, "right": {"kind": "sphere", "dim": 1}},
         {"type": "cone_map", "base": {"type": "identity"}}),
        ({"kind": "cone", "k": 1.0, "base": {"kind": "sphere", "dim": 1}, "r0": 1.0},
         {"type": "pole_swap"}),
        ({"kind": "interval", "length": 1.0}, {"type": "antipodal"}),
        ({"kind": "sphere", "dim": 3}, {"type": "rotation", "order": 4}),
        ({"kind": "sphere", "dim": 1}, {"type": "hopf", "order": 4}),
        ({"kind": "sphere", "dim": 1}, {"type": "orthogonal", "matrix": np.eye(3).tolist()}),
    ], ids=["join-map-on-sphere", "cone-map-on-join", "pole-swap-on-cone", "antipodal-on-interval",
            "rotation-on-s3", "hopf-on-circle", "orthogonal-3x3-on-circle"])
    def test_json_generator_for_another_kind(self, base, generator):
        from alexgeo import serialize

        payload = {"kind": "quotient", "base": base, "action": {"generators": [generator]}}
        with pytest.raises(ConstructionError):
            serialize.space_from_json(payload)
