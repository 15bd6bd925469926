"""The shortcuts of quotient distances against the element loop: the closed-form
orbit minimum of cyclic rotations, the three nearest elements of scalar
`distance`, and the kernel's largest sphere-leaf cosine."""

import math

import numpy as np
import pytest

from alexgeo import actions, harness, nets, serialize, spaces
from alexgeo.errors import DomainError
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


def test_lattice_tables_are_shared_and_read_only():
    # one pair of tables per order serves every call, so no caller may write to them
    half, cos, sin = spaces._lattice_tables(64)
    assert spaces._lattice_tables(64)[1] is cos
    assert not cos.flags.writeable and not sin.flags.writeable
    with pytest.raises(ValueError):
        cos[0] = 0.0
    assert half == 33 and cos.shape == sin.shape == (67,)


def test_reloaded_action_keeps_the_closed_form():
    base = Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0))
    Q = serialize.space_from_json(
        serialize.space_to_json(Quotient(base, actions.cyclic_approximation(base, 64)))
    )
    assert Q.action.rotation_order == 64


# Bases a Z_m rotation turns where no closed form applies (circle and Hopf
# factors of radius other than 1), so scalar `distance` reads the three
# elements nearest the pair's phase, for m > 3
LATTICE_BASES = {
    "cap075": Cone(1.0, Sphere(1, 0.75), HALF_PI),
    "S1(0.75)": Sphere(1, 0.75),
    "S1(2)": Sphere(1, 2.0),
    "cone_k0": Cone(0.0, Sphere(1, 0.75), 1.0),
    "cone_k-1": Cone(-1.0, Sphere(1, 0.5), 1.0),
    "suspension_s1(0.5)": Suspension(Sphere(1, 0.5)),
    "S3(0.5)": Sphere(3, 0.5),
}
LATTICE_ORDERS = (2, 3, 4, 8, 64, 256)


def _lattice_pairs(base, action, P, R):
    """The pairs of P and R, then ties: q = p, q half a step from p or from an
    element's image of p, and the apex or a pole where the base has one."""
    m = action.order
    half = actions.cyclic_approximation(base, 2 * m).generators[0]  # rotation by pi / m
    g = action.elements[m // 3]
    pairs = list(zip(P, R))
    pairs += [(p, p) for p in P[:10]]
    pairs += [(p, half.apply_point(p)) for p in P[:10]]
    pairs += [(p, half.apply_point(g.apply_point(p))) for p in P[:10]]
    if not isinstance(base, Sphere):
        top = PI if isinstance(base, Suspension) else 0.0
        pairs += [((0.0, p[1]), r) for p, r in zip(P[:10], R[:10])]
        pairs += [(p, (top, r[1])) for p, r in zip(P[:10], R[:10])]
    return pairs


def _orthogonal_hopf_pair(rng):
    """Unit x, y in R^4 with y orthogonal to x and to i x, so H = 0 up to rounding."""
    x = rng.standard_normal(4)
    x /= np.linalg.norm(x)
    ix = np.array([-x[1], x[0], -x[3], x[2]])
    y = rng.standard_normal(4)
    y -= (y @ x) * x
    y -= (y @ ix) * ix
    return x, y / np.linalg.norm(y)


class TestNearestElements:
    """Scalar `distance` on a rotation quotient with no closed form against the element loop."""

    @pytest.mark.parametrize("m", LATTICE_ORDERS)
    @pytest.mark.parametrize("name", sorted(LATTICE_BASES))
    def test_matches_loop_bit_for_bit(self, name, m):
        base = LATTICE_BASES[name]
        action = actions.cyclic_approximation(base, m)
        assert action.rotation_order is None
        assert action.lattice_order == m
        Q = Quotient(base, action)
        rng = np.random.default_rng(m)
        P, R = base.random_points(100, rng), base.random_points(100, rng)
        for p, q in _lattice_pairs(base, action, P, R):
            assert spaces.distance(Q, p, q) == spaces.quotient_distance(Q, p, q)

    def test_reads_at_most_three_elements(self, monkeypatch):
        base = LATTICE_BASES["cap075"]
        Q = Quotient(base, actions.cyclic_approximation(base, 64))
        calls, loops = [], []
        law, loop = Cone.distance, spaces.quotient_distance
        monkeypatch.setattr(Cone, "distance", lambda self, p, q: calls.append(1) or law(self, p, q))
        monkeypatch.setattr(spaces, "quotient_distance", lambda *a: loops.append(1) or loop(*a))
        rng = np.random.default_rng(4)
        for p, q in zip(base.random_points(50, rng), base.random_points(50, rng)):
            calls.clear()
            spaces.distance(Q, p, q)
            assert len(calls) <= 3
        assert not loops

    @pytest.mark.parametrize("m", (8, 64, 256))
    def test_phase_near_zero_takes_the_loop(self, m, monkeypatch):
        # with H = 0 every element's cosine is rounding noise, so three elements
        # cannot stand for the loop; a 3-sphere pair can reach that, a circle pair cannot
        base = LATTICE_BASES["S3(0.5)"]
        Q = Quotient(base, actions.cyclic_approximation(base, m))
        loops = []
        loop = spaces.quotient_distance
        monkeypatch.setattr(spaces, "quotient_distance", lambda *a: loops.append(1) or loop(*a))
        rng = np.random.default_rng(m)
        for _ in range(100):
            x, y = _orthogonal_hopf_pair(rng)
            assert spaces.distance(Q, x, y) == loop(Q, x, y)
        assert len(loops) == 100


def _non_group_cap075():
    # identity, R, R^2 and R^3 after a reflection: each element moves the
    # canonical point by its index, yet the list is no group
    base = LATTICE_BASES["cap075"]
    cyc = actions.cyclic_approximation(base, 4)
    flip = actions.ConeMap(actions.OrthogonalMap(actions.circle_reflection_matrix()))
    elements = (*cyc.elements[:3], actions.compose(cyc.elements[3], flip))
    return Quotient(base, actions.GroupAction(base, elements, generators=cyc.generators))


def _shuffled_cap075():
    base = LATTICE_BASES["cap075"]
    cyc = actions.cyclic_approximation(base, 64)
    rest = list(cyc.elements[1:])
    np.random.default_rng(0).shuffle(rest)
    return Quotient(base, actions.GroupAction(base, (cyc.elements[0], *rest), generators=cyc.generators))


def test_reloaded_action_keeps_the_nearest_elements():
    base = LATTICE_BASES["cap075"]
    Q = serialize.space_from_json(
        serialize.space_to_json(Quotient(base, actions.cyclic_approximation(base, 64)))
    )
    assert Q.action.lattice_order == 64


class TestFallback:
    def test_non_unit_circle_matches_loop_bit_for_bit(self):
        base = Cone(1.0, Sphere(1, 0.75), HALF_PI)
        for m in (8, 64, 256):
            action = actions.cyclic_approximation(base, m)
            assert action.rotation_order is None
            assert action.cyclic_order == action.lattice_order == m
            Q = Quotient(base, action)
            rng = np.random.default_rng(3)
            P = nets.random_points(base, 40, rng)
            R = nets.random_points(base, 40, rng)
            for p, r in _lattice_pairs(base, action, P, R):
                assert spaces.distance(Q, p, r) == spaces.quotient_distance(Q, p, r)
            A, B = spaces.pack_points(base, P), spaces.pack_points(base, R)
            loop_cross = np.min(
                [spaces.cross_distance(base, A, g.apply(B)) for g in action.elements],
                axis=0,
            )
            assert np.array_equal(spaces.cross_distance(Q, A, B), loop_cross)

    @pytest.mark.parametrize("make", [
        lambda: Quotient(Join(Sphere(1, 0.75), Sphere(1, 1.0)),
                         actions.cyclic_approximation(Join(Sphere(1, 0.75), Sphere(1, 1.0)), 64)),
        _shuffled_cap075,
        _non_group_cap075,
        lambda: Quotient(Sphere(1, 0.75), actions.cyclic_approximation(Sphere(1, 0.5), 64)),
        lambda: Quotient(LATTICE_BASES["cap075"], actions.cyclic_approximation(LATTICE_BASES["cap075"], 3)),
    ], ids=["non-unit-join", "shuffled-list", "non-group-list", "another-base", "order-3"])
    def test_other_actions_take_the_loop(self, make, monkeypatch):
        Q = make()
        loops = []
        loop = spaces.quotient_distance
        monkeypatch.setattr(spaces, "quotient_distance", lambda *a: loops.append(1) or loop(*a))
        rng = np.random.default_rng(5)
        pairs = list(zip(Q.base.random_points(20, rng), Q.base.random_points(20, rng)))
        for p, q in pairs:
            assert spaces.distance(Q, p, q) == loop(Q, p, q)
        assert len(loops) == len(pairs)

    @pytest.mark.parametrize("make, m", [(_shuffled_cap075, 64), (_non_group_cap075, 4)],
                             ids=["shuffled-list", "non-group-list"])
    def test_other_lists_keep_their_cyclic_order(self, make, m):
        action = make().action
        assert action.cyclic_order == m
        assert action.lattice_order is None

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


# ---------------------------------------------------------------------------
# the sphere-leaf branch of the quotient kernel against a plain element loop
# ---------------------------------------------------------------------------


def _element_loop(space, A, B, cross):
    """The reference: the base's `formula` per element, folded with np.minimum."""
    best = None
    for g in space.action.elements:
        d = space.base.formula(A, g.apply(B), cross)
        best = d if best is None else np.minimum(best, d)
    return best


def _reflection(base):
    """The reflection of the leaf's last coordinate, wrapped in the cone or suspension maps of `base`."""
    if isinstance(base, Sphere):
        m = np.eye(base.ambient_dim)
        m[-1, -1] = -1.0
        return actions.OrthogonalMap(m)
    inner = _reflection(base.base)
    return actions.ConeMap(inner) if isinstance(base, Cone) else actions.SuspensionMap(False, inner)


def _antipode(base, point):
    """`point` with its sphere leaf negated."""
    return -point if isinstance(base, Sphere) else (point[0], -point[1])


def _kernel_pairs(base, action, n, seed):
    """Packed P, R: n random pairs, then ties: q = p, q = g p for an element g,
    antipodal leaves, and the apex or both poles where the base has them."""
    rng = np.random.default_rng(seed)
    P, R = base.random_points(n, rng), base.random_points(n, rng)
    g = action.elements[len(action.elements) // 3]
    head = P[:8]
    ps, qs = P + head * 3, R + head + [g.apply_point(p) for p in head] + [_antipode(base, p) for p in head]
    if not isinstance(base, Sphere):
        for top in (0.0, PI) if isinstance(base, Suspension) else (0.0,):
            at_top = [(top, p[1]) for p in head]
            ps += at_top * 2
            qs += R[:8] + at_top
    return spaces.pack_points(base, ps), spaces.pack_points(base, qs)


# the groups the leaf branch covers: Z_m, {Id, reflection}, and the dihedral
# group of the Z_8 rotation and the reflection
LEAF_GROUPS = ("Z2", "Z3", "Z8", "Z64", "Z256", "reflection", "dihedral")
LEAF_CASES = [(name, label) for name in sorted(LATTICE_BASES) for label in LEAF_GROUPS]


def _leaf_quotient(name, label):
    base = LATTICE_BASES[name]
    if label == "reflection":
        action = actions.GroupAction(base, (actions.Identity(), _reflection(base)))
    elif label == "dihedral":
        rotation = actions.cyclic_approximation(base, 8).generators[0]
        action = actions.group_from_generators(base, [rotation, _reflection(base)])
    else:
        action = actions.cyclic_approximation(base, int(label[1:]))
    return Quotient(base, action)


def _loop_kernel(monkeypatch):
    """Route every quotient kernel through the reference loop."""
    monkeypatch.setattr(spaces, "_orbit_minimum", _element_loop)


class TestLeafKernel:
    """The largest leaf cosine over the group, then the base law once, against the element loop."""

    @pytest.mark.parametrize("name, label", LEAF_CASES)
    def test_matches_loop_bit_for_bit(self, name, label):
        Q = _leaf_quotient(name, label)
        assert Q.action.rotation_order is None and Q.action.keeps_radii
        A, B = _kernel_pairs(Q.base, Q.action, 40, len(Q.action.elements))
        assert Q.base.leaf_cosines(A, B, True) is not None
        assert np.array_equal(spaces.elementwise_distance(Q, A, B), _element_loop(Q, A, B, False))
        assert np.array_equal(spaces.cross_distance(Q, A, B), _element_loop(Q, A, B, True))
        assert np.array_equal(spaces.cross_distance(Q, B, A), _element_loop(Q, B, A, True))

    @pytest.mark.parametrize("name, label", LEAF_CASES)
    def test_self_distance_matrix_matches_loop(self, name, label, monkeypatch):
        Q = _leaf_quotient(name, label)
        coords = spaces.coords_concat(_kernel_pairs(Q.base, Q.action, 40, 1))
        D = spaces.self_distance_matrix(Q, coords, block=16)
        _loop_kernel(monkeypatch)
        assert np.array_equal(D, spaces.self_distance_matrix(Q, coords, block=16))

    @pytest.mark.parametrize("name, label, eps", [
        ("cap075", "Z8", 0.12), ("cap075", "Z64", 0.12), ("cap075", "reflection", 0.12),
        ("cap075", "dihedral", 0.12), ("S1(0.75)", "Z64", 0.01), ("S3(0.5)", "Z8", 0.2),
        ("cone_k-1", "Z8", 0.12), ("suspension_s1(0.5)", "Z8", 0.12),
    ])
    def test_net_matches_loop(self, name, label, eps, monkeypatch):
        Q = _leaf_quotient(name, label)
        net = nets.epsilon_net(Q, eps, 5, budget=NET_BUDGET, allow_degrade=True)
        _loop_kernel(monkeypatch)
        loop = nets.epsilon_net(Q, eps, 5, budget=NET_BUDGET, allow_degrade=True)
        assert net.n == loop.n > 20
        assert serialize.coords_to_json(net.coords) == serialize.coords_to_json(loop.coords)
        assert np.array_equal(net.dist, loop.dist)

    def test_applies_the_law_once(self, monkeypatch):
        base = LATTICE_BASES["cap075"]
        Q = Quotient(base, actions.cyclic_approximation(base, 64))
        A, B = _kernel_pairs(base, Q.action, 30, 2)
        expected = _element_loop(Q, A, B, True)
        laws = []
        law = spaces._cone_law
        monkeypatch.setattr(spaces, "_cone_law", lambda *a: laws.append(1) or law(*a))
        assert np.array_equal(spaces.cross_distance(Q, A, B), expected)
        assert len(laws) == 1

    def test_clamp_tracks_the_kept_cosine(self):
        # a leaf within the 1e-12 unit tolerance pushes <x, x> past 1 at the identity
        base = LATTICE_BASES["cap075"]
        Q = Quotient(base, actions.cyclic_approximation(base, 8))
        C = spaces.pack_points(base, [(1.0, np.array([1.0 + 5e-13, 0.0]))])
        with spaces.track_clamping() as stats:
            D = spaces.cross_distance(Q, C, C)
        assert D[0, 0] == 0.0
        assert 5e-13 < stats.max_excess <= 2e-12


def _pole_swap_quotient():
    base = LATTICE_BASES["suspension_s1(0.5)"]
    rotation = actions.cyclic_approximation(base, 8).generators[0]
    swap = actions.SuspensionMap(True, actions.Identity())
    return Quotient(base, actions.group_from_generators(base, [rotation, swap]))


def _join_quotient():
    base = Join(Sphere(1, 0.75), Sphere(1, 1.0))
    return Quotient(base, actions.cyclic_approximation(base, 8))


def _interval_leaf_quotient():
    base = Suspension(spaces.Interval(1.0))
    return Quotient(base, actions.GroupAction(base, (actions.Identity(),)))


@pytest.mark.parametrize("make", [
    _pole_swap_quotient,
    lambda: harness.projective_lens_quotient(2, 1.0),
    _interval_leaf_quotient,
    _join_quotient,
], ids=["pole-swap", "projective-lens-2", "interval-leaf", "join-base"])
def test_other_bases_and_elements_keep_the_loop(make, monkeypatch):
    # `formula` is the orbit-minimum kernel (an embeddable base's root kernel
    # is the Gram product, which these quotients keep)
    Q = make()
    assert Q.action.rotation_order is None
    rng = np.random.default_rng(6)
    A = spaces.pack_points(Q.base, Q.base.random_points(30, rng))
    B = spaces.pack_points(Q.base, Q.base.random_points(30, rng))
    expected = _element_loop(Q, A, B, True), _element_loop(Q, A, B, False)
    calls = []
    formula = type(Q.base).formula
    monkeypatch.setattr(type(Q.base), "formula", lambda *a: calls.append(1) or formula(*a))
    assert np.array_equal(Q.formula(A, B, True), expected[0])
    assert np.array_equal(Q.formula(A, B, False), expected[1])
    assert len(calls) == 2 * len(Q.action.elements)


def test_nodes_say_whether_they_keep_the_radii():
    rotation = actions.OrthogonalMap(actions.rotation_matrix(0.5))
    interval = actions.IntervalReflection(1.0)
    assert actions.Identity().keeps_radii and rotation.keeps_radii
    assert actions.ConeMap(rotation).keeps_radii and actions.SuspensionMap(False, rotation).keeps_radii
    assert actions.JoinMap(rotation, actions.Identity()).keeps_radii
    assert not interval.keeps_radii
    assert not actions.SuspensionMap(True, actions.Identity()).keeps_radii
    assert not actions.SuspensionMap(False, interval).keeps_radii
    assert not actions.JoinMap(rotation, interval).keeps_radii
    assert not _pole_swap_quotient().action.keeps_radii
    assert not harness.projective_lens_quotient(2, 1.0).action.keeps_radii


# ---------------------------------------------------------------------------
# scalar `distance` on one pair: the closed form on floats, and the three
# nearest elements with the base law once
# ---------------------------------------------------------------------------


def _one_row(Q, p, q):
    """The closed form on one-row packed records: `pack_points` checks each point."""
    A, B = spaces.pack_points(Q.base, [p]), spaces.pack_points(Q.base, [q])
    return float(spaces.rotation_quotient_distance(Q, A, B, cross=False)[0])


def _strided(v):
    """v as a view with stride 2: einsum sums such a row in another order."""
    return np.stack([v, v], axis=1)[:, 0]


def _pair_cases(base, m):
    """Seeded pairs, then ties: q = p, q = g p, the leaf antipode and the apex or pole,
    with some points as lists and some leaves as strided views."""
    Q = Quotient(base, actions.cyclic_approximation(base, m))
    rng = np.random.default_rng(m + 1)
    P, R = base.random_points(60, rng), base.random_points(60, rng)
    g = Q.action.elements[1]
    pairs = list(zip(P, R)) + [(p, p) for p in P[:10]] + [(p, g.apply_point(p)) for p in P[:10]]
    if isinstance(base, Sphere):
        pairs += [(p, -p) for p in P[:10]]
        pairs += [(p.tolist(), _strided(r)) for p, r in zip(P[:10], R[:10])]
        pairs += [(_strided(p), _strided(r)) for p, r in zip(P[10:20], R[10:20])]
    elif isinstance(base, (Cone, Suspension)):
        top = PI if isinstance(base, Suspension) else 0.0
        pairs += [(p, (p[0], -p[1])) for p in P[:10] if isinstance(p[1], np.ndarray)]
        pairs += [((0.0, p[1]), r) for p, r in zip(P[:10], R[:10])]
        pairs += [(p, (top, r[1])) for p, r in zip(P[:10], R[:10])]
        pairs += [((float(p[0]), list(p[1])), r) for p, r in zip(P[:10], R[:10]) if isinstance(p[1], np.ndarray)]
        pairs += [((p[0], _strided(p[1])), (r[0], _strided(r[1])))
                  for p, r in zip(P[10:20], R[10:20]) if isinstance(p[1], np.ndarray)]
    return Q, pairs


@pytest.mark.parametrize("m", ORDERS + (256,))
@pytest.mark.parametrize("name", sorted(ROTATION_BASES))
def test_pair_closed_form_has_the_one_row_bits(name, m):
    # the one-pair path calls numpy's primitives on floats, in the kernel's order
    Q, pairs = _pair_cases(ROTATION_BASES[name], m)
    for p, q in pairs:
        assert spaces.distance(Q, p, q) == _one_row(Q, p, q)


NAN = float("nan")
E4 = [1.0, 0.0, 0.0, 0.0]
Y = [1.0, 0.0]


def _sphere_bad():
    return {
        "non-unit leaf": ([1.0, 1.0, 0.0, 0.0],
                          "sphere point [1.0, 1.0, 0.0, 0.0] is not a unit vector (|x| = 1.4142135623730951)"),
        "wrong shape": (E4 + [0.0], "sphere coordinates must be rows of 4 numbers, got shape (1, 5)"),
        "nested": ([E4], "sphere coordinates must be rows of 4 numbers, got shape (1, 1, 4)"),
        "scalar": (1.0, "sphere coordinates must be rows of 4 numbers, got shape (1,)"),
        "NaN": ([NAN, 0.0, 0.0, 0.0], "sphere point [nan, 0.0, 0.0, 0.0] is not a unit vector (|x| = nan)"),
        "bool": ([True, True, False, False],
                 "sphere point [1.0, 1.0, 0.0, 0.0] is not a unit vector (|x| = 1.4142135623730951)"),
        "string": (["a", 0.0, 0.0, 0.0],
                   "vector points must be sequences of numbers: could not convert string to float: 'a'"),
        # the rest of this message is numpy's
        "tuple arity": ((0.5, E4), "vector points must be sequences of numbers: setting an array element"),
    }


def _closed_cone_bad():
    return {
        "non-unit leaf": ((0.5, [1.0, 1.0]), "sphere point [1.0, 1.0] is not a unit vector (|x| = 1.4142135623730951)"),
        "wrong shape": ((0.5, [1.0, 0.0, 0.0]), "sphere coordinates must be rows of 2 numbers, got shape (1, 3)"),
        "radial above": ((1.5, Y), "cone radial coordinate 1.5 outside [0, 1.0]"),
        "radial below": ((-0.1, Y), "cone radial coordinate -0.1 outside [0, 1.0]"),
        "NaN radial": ((NAN, Y), "cone radial coordinate nan outside [0, 1.0]"),
        "NaN leaf": ((0.5, [NAN, 0.0]), "sphere point [nan, 0.0] is not a unit vector (|x| = nan)"),
        "bool radial": ((True, Y), "scalar coordinates must be numbers, got True"),
        "string radial": (("0.5", Y), "scalar coordinates must be numbers, got '0.5'"),
        "string leaf": ((0.5, ["a", 0.0]),
                        "vector points must be sequences of numbers: could not convert string to float: 'a'"),
        "tuple arity 1": ((0.5,), "points of this space must be tuples of 2 coordinates"),
        "tuple arity 3": ((0.5, Y, 1.0), "points of this space must be tuples of 2 coordinates"),
        "no tuple": (0.5, "points of this space must be tuples of 2 coordinates"),
    }


def _lattice_cone_bad():
    # the loop names the point it reads, u = p or v = g q
    top = "[0, 1.5707963267948966]"
    return {
        "non-unit leaf": ((0.5, [1.0, 1.0]), "sphere point {w} = [1.0, 1.0] is not a unit vector (|{w}| = 1.4142135623730951)"),
        "wrong shape": ((0.5, [1.0, 0.0, 0.0]), "sphere point {w} must have shape (2,), got (3,)"),
        "radial above": ((HALF_PI + 0.5, Y), f"cone radial coordinate 2.0707963267948966 outside {top}"),
        "radial below": ((-0.1, Y), f"cone radial coordinate -0.1 outside {top}"),
        "NaN radial": ((NAN, Y), f"cone radial coordinate nan outside {top}"),
        "NaN leaf": ((0.5, [NAN, 0.0]), "sphere point {w} = [nan, 0.0] is not a unit vector (|{w}| = nan)"),
        "bool radial": ((True, Y), "cone radial coordinates must be numbers, got True"),
        "string radial": (("0.5", Y), "cone radial coordinates must be numbers, got '0.5'"),
        "string leaf": ((0.5, ["a", 0.0]),
                        "sphere points must be sequences of numbers: could not convert string to float: 'a'"),
        "tuple arity 1": ((0.5,), "Cone points must be tuples of 2 coordinates"),
        "tuple arity 3": ((0.5, Y, 1.0), "Cone points must be tuples of 2 coordinates"),
        "no tuple": (0.5, "Cone points must be tuples of 2 coordinates"),
    }


# the messages of commit d70947a, where the closed form packed each point
# and `check_coords` reported it, and the three nearest elements ran `distance`
ERROR_CASES = {
    "S3/Z256": (Sphere(3, 1.0), 256, _sphere_bad()),
    "cap/Z64": (Cone(1.0, Sphere(1, 1.0), 1.0), 64, _closed_cone_bad()),
    "Cone(-1, S1, 1)/Z8": (Cone(-1.0, Sphere(1, 1.0), 1.0), 8, _closed_cone_bad()),
    "cap075/Z64": (LATTICE_BASES["cap075"], 64, _lattice_cone_bad()),
}


@pytest.mark.parametrize("side", ("p", "q"))
@pytest.mark.parametrize("label, case", [(label, case) for label, (_, _, cases) in ERROR_CASES.items()
                                         for case in cases])
def test_bad_points_keep_their_errors(label, case, side):
    base, m, cases = ERROR_CASES[label]
    bad, message = cases[case]
    message = message.format(w="u" if side == "p" else "v")
    Q = Quotient(base, actions.cyclic_approximation(base, m))
    good = base.canonical_point()
    p, q = (bad, good) if side == "p" else (good, bad)
    with pytest.raises(DomainError) as info:
        spaces.distance(Q, p, q)
    assert type(info.value) is DomainError
    assert str(info.value).startswith(message)
    if case != "tuple arity":
        assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(ROTATION_BASES))
def test_pair_closed_form_tracks_clamps_as_the_one_row_kernel(name):
    # q = p (a cosine at 1), the leaf antipode (at -1) and the apex or a pole, at m = 8
    base = ROTATION_BASES[name]
    Q, pairs = _pair_cases(base, 8)
    ties = pairs[60:70] + pairs[80:]
    assert len(ties) >= 10
    for p, q in ties:
        with spaces.track_clamping() as stats:
            spaces.distance(Q, p, q)
            scalar = stats.count, stats.max_excess
        with spaces.track_clamping() as stats:
            _one_row(Q, p, q)
        assert scalar == (stats.count, stats.max_excess)


@pytest.mark.parametrize("name", sorted(ROTATION_BASES))
def test_pair_closed_form_packs_nothing(name, monkeypatch):
    base = ROTATION_BASES[name]
    Q = Quotient(base, actions.cyclic_approximation(base, 64))
    calls = []
    for fn in ("pack_points", "rotation_quotient_distance", "quotient_distance"):
        orig = getattr(spaces, fn)
        monkeypatch.setattr(spaces, fn, lambda *a, _f=orig: calls.append(1) or _f(*a))
    rng = np.random.default_rng(2)
    for p, q in zip(base.random_points(20, rng), base.random_points(20, rng)):
        spaces.distance(Q, p, q)
    assert not calls


@pytest.mark.parametrize("name", ["cap075", "cone_k0", "cone_k-1", "suspension_s1(0.5)"])
def test_nearest_elements_apply_the_law_once(name, monkeypatch):
    base = LATTICE_BASES[name]
    Q = Quotient(base, actions.cyclic_approximation(base, 64))
    laws, loops = [], []
    law, loop = spaces._cone_law, spaces.quotient_distance
    monkeypatch.setattr(spaces, "_cone_law", lambda *a: laws.append(1) or law(*a))
    monkeypatch.setattr(spaces, "quotient_distance", lambda *a: loops.append(1) or loop(*a))
    rng = np.random.default_rng(8)
    for p, q in zip(base.random_points(20, rng), base.random_points(20, rng)):
        laws.clear()
        spaces.distance(Q, p, q)
        assert len(laws) == 1
    assert not loops


def test_nearest_elements_on_a_sphere_take_one_arccos(monkeypatch):
    base = LATTICE_BASES["S1(0.75)"]
    Q = Quotient(base, actions.cyclic_approximation(base, 64))
    calls = []
    arccos = spaces.clamped_arccos
    monkeypatch.setattr(spaces, "clamped_arccos", lambda *a: calls.append(1) or arccos(*a))
    rng = np.random.default_rng(9)
    for p, q in zip(base.random_points(20, rng), base.random_points(20, rng)):
        calls.clear()
        spaces.distance(Q, p, q)
        assert len(calls) == 1


def _reflected_cap075():
    base = LATTICE_BASES["cap075"]
    flip = actions.ConeMap(actions.OrthogonalMap(actions.circle_reflection_matrix()))
    return Quotient(base, actions.GroupAction(base, (actions.Identity(), flip)))


@pytest.mark.parametrize("make", [_join_quotient, _reflected_cap075, _shuffled_cap075],
                         ids=["join", "reflection", "hand-built-list"])
def test_other_quotients_call_the_loop_once_per_query(make, monkeypatch):
    Q = make()
    loops = []
    loop = spaces.quotient_distance
    monkeypatch.setattr(spaces, "quotient_distance", lambda *a: loops.append(1) or loop(*a))
    rng = np.random.default_rng(10)
    pairs = list(zip(Q.base.random_points(15, rng), Q.base.random_points(15, rng)))
    for p, q in pairs:
        assert spaces.distance(Q, p, q) == loop(Q, p, q)
    assert len(loops) == len(pairs)
