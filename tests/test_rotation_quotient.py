"""Closed-form orbit minimum of cyclic rotation quotients against the element loop."""

import math

import numpy as np
import pytest

from alexgeo import actions, nets, serialize, spaces
from alexgeo.spaces import Cone, Join, ModelBall, Quotient, Sphere, Suspension

PI = math.pi
HALF_PI = math.pi / 2.0
ULP = 2.0**-52

ROTATION_BASES = {
    "S1": Sphere(1, 1.0),
    "S3": Sphere(3, 1.0),
    "cone_k1": Cone(1.0, Sphere(1, 1.0), 1.0),
    "cone_k0": Cone(0.0, Sphere(1, 1.0), 1.0),
    "cone_k-1": Cone(-1.0, Sphere(1, 1.0), 1.0),
    "model_ball": ModelBall(1.0, 1.0, 2),
    "join_s3_cap": Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0)),
    "suspension_s1": Suspension(Sphere(1, 1.0)),
}
ORDERS = (2, 3, 8, 64)
# nets of 200-600 points; the join's grid grows fast below epsilon 1
NET_EPSILON = {"S1": 0.01, "S3": 0.35, "join_s3_cap": 1.0, "suspension_s1": 0.15}
NET_BUDGET = 600


def _tolerance(m, d):
    # The loop's elements are products of m rotations, so its cosines carry
    # up to m ulps, and arccos near 0 turns a cosine error e into e / d.
    return 1e-10 + m * ULP / d


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("name", sorted(ROTATION_BASES))
def test_closed_form_matches_loop(name, m):
    base = ROTATION_BASES[name]
    action = actions.cyclic_approximation(base, m)
    assert action.rotation_order == m
    Q = Quotient(base, action)
    rng = np.random.default_rng(m)
    P = nets.random_points(base, 60, rng)
    R = nets.random_points(base, 60, rng)
    loop = np.array([spaces.quotient_distance(Q, p, r) for p, r in zip(P, R)])
    scalar = np.array([spaces.distance(Q, p, r) for p, r in zip(P, R)])
    A, B = spaces.pack_points(base, P), spaces.pack_points(base, R)
    elementwise = spaces.elementwise_distance(Q, A, B)
    far = loop > 1e-6
    tol = _tolerance(m, loop[far])
    assert np.all(np.abs(scalar - loop)[far] <= tol)
    assert np.all(np.abs(elementwise - loop)[far] <= tol)
    # both run the closed form, so the harness may batch its scalar loops
    assert np.array_equal(elementwise, scalar)

    k = 10
    cross = spaces.cross_distance(Q, spaces.pack_points(base, P[:k]), spaces.pack_points(base, R[:k]))
    loop_cross = np.array([[spaces.quotient_distance(Q, p, r) for r in R[:k]] for p in P[:k]])
    far = loop_cross > 1e-6
    assert np.all(np.abs(cross - loop_cross)[far] <= _tolerance(m, loop_cross[far]))


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("name", sorted(ROTATION_BASES))
def test_net_keeps_the_loops_points(name, m, monkeypatch):
    base = ROTATION_BASES[name]
    Q = Quotient(base, actions.cyclic_approximation(base, m))
    eps = NET_EPSILON.get(name, 0.08)
    closed = nets.epsilon_net(Q, eps, 5, budget=NET_BUDGET, allow_degrade=True)
    monkeypatch.setattr(spaces, "_rotation_order", lambda space: None)
    loop = nets.epsilon_net(Q, eps, 5, budget=NET_BUDGET, allow_degrade=True)
    assert closed.n == loop.n
    assert serialize.coords_to_json(closed.coords) == serialize.coords_to_json(loop.coords)
    far = loop.dist > 1e-6
    tol = _tolerance(m, loop.dist[far])
    assert np.all(np.abs(closed.dist - loop.dist)[far] <= tol)


def test_reloaded_action_keeps_the_closed_form():
    base = Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0))
    Q = serialize.space_from_json(
        serialize.space_to_json(Quotient(base, actions.cyclic_approximation(base, 64)))
    )
    assert Q.action.rotation_order == 64


class TestFallback:
    def test_non_unit_circle_matches_loop_bit_for_bit(self):
        base = Cone(1.0, Sphere(1, 0.75), HALF_PI)
        action = actions.cyclic_approximation(base, 8)
        assert action.rotation_order is None
        Q = Quotient(base, action)
        rng = np.random.default_rng(3)
        P = nets.random_points(base, 40, rng)
        R = nets.random_points(base, 40, rng)
        for p, r in zip(P, R):
            assert spaces.distance(Q, p, r) == spaces.quotient_distance(Q, p, r)
        A, B = spaces.pack_points(base, P), spaces.pack_points(base, R)
        loop_cross = np.min(
            [spaces.cross_distance(base, A, g.apply(B)) for g in action.elements],
            axis=0,
        )
        assert np.array_equal(spaces.cross_distance(Q, A, B), loop_cross)

    @pytest.mark.parametrize(
        "base",
        [Sphere(1, 0.75), Join(Sphere(1, 0.75), Sphere(1, 1.0)), Suspension(Cone(1.0, Sphere(1, 0.75), 1.0))],
    )
    def test_non_unit_factors_fall_back(self, base):
        assert actions.cyclic_approximation(base, 8).rotation_order is None

    def test_reflection_falls_back(self):
        base = Sphere(1, 1.0)
        refl = actions.OrthogonalMap(actions.circle_reflection_matrix())
        assert actions.group_from_generators(base, [refl]).rotation_order is None

    def test_other_rotation_generator_falls_back(self):
        # rotation by 4 pi / 5 generates Z_5, but not from the cyclic surrogate's generator
        base = Sphere(1, 1.0)
        rot = actions.OrthogonalMap(actions.rotation_matrix(4.0 * PI / 5.0))
        action = actions.group_from_generators(base, [rot])
        assert action.order == 5
        assert action.rotation_order is None

    def test_element_list_falls_back(self):
        base = Sphere(3, 1.0)
        cyc = actions.cyclic_approximation(base, 8)
        assert actions.GroupAction(base, cyc.elements).rotation_order is None

    def test_single_rotation_generator_qualifies(self):
        # a hand-built Z_2 whose element is the surrogate's generator is that surrogate
        base = Sphere(1, 1.0)
        g = actions.OrthogonalMap(actions.rotation_matrix(PI))
        assert actions.GroupAction(base, (actions.Identity(), g)).rotation_order == 2

    def test_action_for_another_base_falls_back(self):
        action = actions.cyclic_approximation(Sphere(1, 1.0), 8)
        Q = Quotient(Sphere(1, 0.75), action)
        p, q = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert spaces.distance(Q, p, q) == spaces.quotient_distance(Q, p, q)
