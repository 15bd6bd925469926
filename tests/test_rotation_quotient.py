"""The shortcuts of quotient distances against the element loop: the closed-form
orbit minimum of cyclic rotations, in the kernel and in scalar `distance`, and
the kernel's largest sphere-leaf cosine for other groups."""

import math

import numpy as np
import pytest

from alexgeo import actions, harness, nets, serialize, spaces
from alexgeo.errors import DomainError
from alexgeo.spaces import Cone, Join, ModelBall, Quotient, Sphere, Suspension

PI = math.pi
HALF_PI = math.pi / 2.0
ULP = 2.0**-52

UNIT_BASES = {
    "S1": Sphere(1, 1.0),
    "S3": Sphere(3, 1.0),
    "cone_k1": Cone(1.0, Sphere(1, 1.0), 1.0),
    "cone_k0": Cone(0.0, Sphere(1, 1.0), 1.0),
    "cone_k-1": Cone(-1.0, Sphere(1, 1.0), 1.0),
    "model_ball": ModelBall(1.0, 1.0, 2),
    "join_s3_cap": Join(Sphere(3, 1.0), Cone(1.0, Sphere(1, 1.0), 1.0)),
    "suspension_s1": Suspension(Sphere(1, 1.0)),
}
# chains of cones and suspensions over a circle or Hopf sphere of radius other
# than 1: the closed form over the sphere leaf, then the base's leaf law
LEAF_BASES = {
    "cap075": Cone(1.0, Sphere(1, 0.75), HALF_PI),
    "S1(0.75)": Sphere(1, 0.75),
    "S1(2)": Sphere(1, 2.0),
    "cone_k0(0.75)": Cone(0.0, Sphere(1, 0.75), 1.0),
    "cone_k-1(0.5)": Cone(-1.0, Sphere(1, 0.5), 1.0),
    "suspension_s1(0.5)": Suspension(Sphere(1, 0.5)),
    "suspension_cap075": Suspension(Cone(1.0, Sphere(1, 0.75), 1.0)),
    "S3(0.5)": Sphere(3, 0.5),
}
ROTATION_BASES = {**UNIT_BASES, **LEAF_BASES}
ORDERS = (2, 3, 8, 64)
LEAF_ORDERS = (2, 3, 8, 64, 256)
ROTATION_CASES = ([(name, m) for name in sorted(UNIT_BASES) for m in ORDERS]
                  + [(name, m) for name in sorted(LEAF_BASES) for m in LEAF_ORDERS])
# nets of 60-600 points; the join's grid grows fast below epsilon 1
NET_EPSILON = {"S1": 0.01, "S3": 0.35, "join_s3_cap": 1.0, "suspension_s1": 0.15, "S1(0.75)": 0.01,
               "S1(2)": 0.02, "S3(0.5)": 0.2, "suspension_s1(0.5)": 0.12, "suspension_cap075": 0.3}
NET_BUDGET = 600


def _tolerance(m, d):
    # The loop's elements are products of m rotations, so its cosines carry
    # up to m ulps, and arccos near 0 turns a cosine error e into e / d.
    return 1e-10 + m * ULP / d


def _tie_pairs(base, action, P):
    """Ties of the lattice: q = p, q half a step from p or from an element's
    image of p, the apex or a pole where the base has one, and on a 3-sphere
    pairs with H = 0 up to rounding, where every element is as good."""
    m = action.order
    half = actions.cyclic_approximation(base, 2 * m).generators[0]  # rotation by pi / m
    g = action.elements[m // 3]
    pairs = [(p, p) for p in P[:10]]
    pairs += [(p, half.apply_point(p)) for p in P[:10]]
    pairs += [(p, half.apply_point(g.apply_point(p))) for p in P[:10]]
    if isinstance(base, Sphere) and base.dim == 3:
        rng = np.random.default_rng(m)
        pairs += [_orthogonal_hopf_pair(rng) for _ in range(10)]
    elif not isinstance(base, (Sphere, Join)):
        top = PI if isinstance(base, Suspension) else 0.0
        pairs += [((0.0, p[1]), q) for p, q in zip(P[:10], P[10:20])]
        pairs += [(p, (top, q[1])) for p, q in zip(P[:10], P[10:20])]
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


@pytest.mark.parametrize("name, m", ROTATION_CASES)
def test_closed_form_matches_loop(name, m):
    base = ROTATION_BASES[name]
    action = actions.cyclic_approximation(base, m)
    assert action.rotation_order == m
    Q = Quotient(base, action)
    rng = np.random.default_rng(m)
    P = nets.random_points(base, 60, rng)
    R = nets.random_points(base, 60, rng)
    pairs = list(zip(P, R)) + _tie_pairs(base, action, P)
    P, R = [p for p, _ in pairs], [r for _, r in pairs]
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


@pytest.mark.parametrize("name, m", ROTATION_CASES)
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


@pytest.mark.parametrize("name", ["join_s3_cap", "cap075"])
def test_reloaded_action_keeps_the_closed_form(name):
    base = ROTATION_BASES[name]
    Q = serialize.space_from_json(
        serialize.space_to_json(Quotient(base, actions.cyclic_approximation(base, 64)))
    )
    assert Q.action.rotation_order == 64


def _non_group(base):
    # identity, R, R^2 and R^3 after a reflection: each element moves the
    # canonical point by its index, yet the list is no group
    cyc = actions.cyclic_approximation(base, 4)
    flip = actions.ConeMap(actions.OrthogonalMap(actions.circle_reflection_matrix()))
    elements = (*cyc.elements[:3], actions.compose(cyc.elements[3], flip))
    return Quotient(base, actions.GroupAction(base, elements, generators=cyc.generators))


def _shuffled(base):
    cyc = actions.cyclic_approximation(base, 64)
    rest = list(cyc.elements[1:])
    np.random.default_rng(0).shuffle(rest)
    return Quotient(base, actions.GroupAction(base, (cyc.elements[0], *rest), generators=cyc.generators))


def _shuffled_cap075():
    return _shuffled(LEAF_BASES["cap075"])


# lists that keep the cyclic surrogate's generator but are not its powers in
# order, on a unit cap and on cap075
OTHER_LISTS = {
    "shuffled-list": (_shuffled_cap075, 64),
    "non-group-list": (lambda: _non_group(LEAF_BASES["cap075"]), 4),
    "unit-shuffled-list": (lambda: _shuffled(UNIT_BASES["cone_k1"]), 64),
    "unit-non-group-list": (lambda: _non_group(UNIT_BASES["cone_k1"]), 4),
}


class TestFallback:
    @pytest.mark.parametrize("make", [
        lambda: Quotient(Join(Sphere(1, 0.75), Sphere(1, 1.0)),
                         actions.cyclic_approximation(Join(Sphere(1, 0.75), Sphere(1, 1.0)), 64)),
        *(make for make, _ in OTHER_LISTS.values()),
        lambda: Quotient(Sphere(1, 0.75), actions.cyclic_approximation(Sphere(1, 0.5), 64)),
    ], ids=["non-unit-join", *OTHER_LISTS, "another-base"])
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

    @pytest.mark.parametrize("label", sorted(OTHER_LISTS))
    def test_other_lists_keep_their_cyclic_order(self, label):
        make, m = OTHER_LISTS[label]
        action = make().action
        assert action.cyclic_order == m
        assert action.rotation_order is None

    def test_non_unit_factors_fall_back(self):
        assert actions.cyclic_approximation(Join(Sphere(1, 0.75), Sphere(1, 1.0)), 8).rotation_order is None

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
# the sphere-leaf branch of the quotient kernel (groups that keep the radii
# but are no cyclic rotation) against a plain element loop
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
    return -point if isinstance(base, Sphere) else (point[0], _antipode(base.base, point[1]))


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


# groups that are no Z_m rotation over the leaf bases: {Id, reflection}, and
# the groups the Z_m rotation and the reflection generate ("dihedral" at m = 8): dihedral on
# a circle leaf, of order m^2 on a Hopf leaf, where the reflection turns one
# complex coordinate only
LEAF_GROUPS = ("reflection", "dihedral3", "dihedral", "dihedral64")
LEAF_CASES = [(name, label) for name in sorted(LEAF_BASES) for label in LEAF_GROUPS]


def _leaf_quotient(name, label):
    base = LEAF_BASES[name]
    if label == "reflection":
        action = actions.GroupAction(base, (actions.Identity(), _reflection(base)))
    else:
        rotation = actions.cyclic_approximation(base, int(label[8:] or 8)).generators[0]
        action = actions.group_from_generators(base, [rotation, _reflection(base)])
    return Quotient(base, action)


def _loop_kernel(monkeypatch):
    """Route every quotient kernel through the reference loop."""
    monkeypatch.setattr(spaces, "_orbit_minimum", _element_loop)


class TestLeafKernel:
    """Reflection and dihedral quotients of the leaf bases: the kernel against the element loop."""

    @pytest.mark.parametrize("name, label", LEAF_CASES)
    def test_matches_loop_bit_for_bit(self, name, label):
        Q = _leaf_quotient(name, label)
        assert Q.action.rotation_order is None
        A, B = _kernel_pairs(Q.base, Q.action, 40, len(Q.action.elements))
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
        ("cap075", "dihedral3", 0.12), ("cap075", "dihedral64", 0.12), ("cap075", "reflection", 0.12),
        ("cap075", "dihedral", 0.12), ("S1(0.75)", "dihedral64", 0.01), ("S3(0.5)", "dihedral", 0.2),
        ("cone_k-1(0.5)", "dihedral", 0.12), ("suspension_s1(0.5)", "dihedral", 0.12),
    ])
    def test_net_matches_loop(self, name, label, eps, monkeypatch):
        Q = _leaf_quotient(name, label)
        net = nets.epsilon_net(Q, eps, 5, budget=NET_BUDGET, allow_degrade=True)
        _loop_kernel(monkeypatch)
        loop = nets.epsilon_net(Q, eps, 5, budget=NET_BUDGET, allow_degrade=True)
        assert net.n == loop.n > 20
        assert serialize.coords_to_json(net.coords) == serialize.coords_to_json(loop.coords)
        assert np.array_equal(net.dist, loop.dist)


def _pole_swap_quotient():
    base = LEAF_BASES["suspension_s1(0.5)"]
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


# ---------------------------------------------------------------------------
# scalar `distance` on one pair: the closed form on floats
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


@pytest.mark.parametrize("name, m", ROTATION_CASES + [(name, 256) for name in sorted(UNIT_BASES)])
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


def _closed_cone_bad(top):
    return {
        "non-unit leaf": ((0.5, [1.0, 1.0]), "sphere point [1.0, 1.0] is not a unit vector (|x| = 1.4142135623730951)"),
        "wrong shape": ((0.5, [1.0, 0.0, 0.0]), "sphere coordinates must be rows of 2 numbers, got shape (1, 3)"),
        "radial above": ((top + 0.5, Y), f"cone radial coordinate {top + 0.5} outside [0, {top}]"),
        "radial below": ((-0.1, Y), f"cone radial coordinate -0.1 outside [0, {top}]"),
        "NaN radial": ((NAN, Y), f"cone radial coordinate nan outside [0, {top}]"),
        "NaN leaf": ((0.5, [NAN, 0.0]), "sphere point [nan, 0.0] is not a unit vector (|x| = nan)"),
        "bool radial": ((True, Y), "scalar coordinates must be numbers, got True"),
        "string radial": (("0.5", Y), "scalar coordinates must be numbers, got '0.5'"),
        "string leaf": ((0.5, ["a", 0.0]),
                        "vector points must be sequences of numbers: could not convert string to float: 'a'"),
        "tuple arity 1": ((0.5,), "points of this space must be tuples of 2 coordinates"),
        "tuple arity 3": ((0.5, Y, 1.0), "points of this space must be tuples of 2 coordinates"),
        "no tuple": (0.5, "points of this space must be tuples of 2 coordinates"),
    }


# the messages of `check_coords`, which reports a bad point of every
# closed-form quotient
ERROR_CASES = {
    "S3/Z256": (Sphere(3, 1.0), 256, _sphere_bad()),
    "cap/Z64": (Cone(1.0, Sphere(1, 1.0), 1.0), 64, _closed_cone_bad(1.0)),
    "Cone(-1, S1, 1)/Z8": (Cone(-1.0, Sphere(1, 1.0), 1.0), 8, _closed_cone_bad(1.0)),
    "cap075/Z64": (LEAF_BASES["cap075"], 64, _closed_cone_bad(HALF_PI)),
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


@pytest.mark.parametrize("name, m", ROTATION_CASES)
def test_pair_closed_form_packs_nothing(name, m, monkeypatch):
    base = ROTATION_BASES[name]
    Q = Quotient(base, actions.cyclic_approximation(base, m))
    calls = []
    for fn in ("pack_points", "rotation_quotient_distance", "quotient_distance"):
        orig = getattr(spaces, fn)
        monkeypatch.setattr(spaces, fn, lambda *a, _f=orig: calls.append(1) or _f(*a))
    rng = np.random.default_rng(2)
    for p, q in zip(base.random_points(20, rng), base.random_points(20, rng)):
        spaces.distance(Q, p, q)
    assert not calls


@pytest.mark.parametrize("name, law", [
    ("cap075", "_cone_law"), ("cone_k0(0.75)", "_cone_law"), ("cone_k-1(0.5)", "_cone_law"),
    ("suspension_s1(0.5)", "_cone_law"), ("S1(0.75)", "clamped_arccos"), ("S3(0.5)", "clamped_arccos"),
])
def test_leaf_closed_form_applies_the_law_once(name, law, monkeypatch):
    # scalar `distance` and the kernel each apply the root's law once, to the lattice cosine
    base = LEAF_BASES[name]
    Q = Quotient(base, actions.cyclic_approximation(base, 64))
    rng = np.random.default_rng(8)
    P, R = base.random_points(20, rng), base.random_points(20, rng)
    A, B = spaces.pack_points(base, P), spaces.pack_points(base, R)
    calls = []
    orig = getattr(spaces, law)
    monkeypatch.setattr(spaces, law, lambda *a, **kw: calls.append(1) or orig(*a, **kw))
    for p, q in zip(P, R):
        calls.clear()
        spaces.distance(Q, p, q)
        assert len(calls) == 1
    calls.clear()
    spaces.cross_distance(Q, A, B)
    assert len(calls) == 1


def _reflected_cap075():
    base = LEAF_BASES["cap075"]
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
