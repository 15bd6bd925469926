"""Property tests over random descriptor trees of depth <= 2.

Leaves are unit and 0.75-radius spheres S^1..S^3, intervals, lenses and
model balls; nodes are joins, cones with k in {1, 0, -1} and suspensions;
the root may be a Z_2 reflection quotient or a `cyclic_approximation`
quotient.  On each tree the cross and elementwise kernels agree on paired
rows, the packed-coordinate helpers agree with `pack_points`, descriptors
and packed coordinates survive a JSON round trip, a coordinate just outside
its range is rejected, and a quotient's group elements act on packed
coordinates as they act on points.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alexgeo import actions, nets, serialize, spaces
from alexgeo.errors import ConstructionError, DomainError
from alexgeo.spaces import (
    Cone,
    Interval,
    Join,
    Lens,
    ModelBall,
    Quotient,
    Sphere,
    Suspension,
)

PI = math.pi
SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

SPHERES = st.builds(Sphere, st.sampled_from([1, 2, 3]), st.sampled_from([1.0, 0.75]))
INTERVALS = st.builds(Interval, st.sampled_from([1.0, PI / 2.0, PI]))
LENSES = st.builds(Lens, st.sampled_from([2, 3]), st.sampled_from([1.0, PI / 2.0, PI]))


@st.composite
def trees(draw, depth: int = 2, role: str = "root"):
    """A tree with at most `depth` join/cone/suspension levels.

    A join or suspension factor ("factor") must be a curvature >= 1 piece,
    so its cones and model balls have k = 1; a cone base ("base") holds no
    cone or model ball.
    """
    ks = [1.0] if role == "factor" else [1.0, 0.0, -1.0]
    leaves = [SPHERES, INTERVALS, LENSES]
    if role != "base":
        leaves.append(st.builds(ModelBall, st.sampled_from(ks), st.sampled_from([0.5, 1.0]),
                                st.sampled_from([1, 2, 3])))
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(leaves))
    kind = draw(st.sampled_from(["join", "suspension"] + (["cone"] if role != "base" else [])))
    if kind == "join":
        return Join(draw(trees(depth - 1, "factor")), draw(trees(depth - 1, "factor")))
    if kind == "suspension":
        return Suspension(draw(trees(depth - 1, "factor")))
    k = draw(st.sampled_from(ks))
    r0 = draw(st.sampled_from([0.5, 1.0, PI / 2.0] if k == 1.0 else [0.5, 1.0, 2.0]))
    return Cone(k, draw(trees(depth - 1, "base")), r0)


def _reflection(space):
    """An involution of any tree `trees` draws: antipodal on spheres, mirror on intervals."""
    if isinstance(space, Sphere):
        return actions.antipodal_map(space)
    if isinstance(space, Interval):
        return actions.IntervalReflection(space.length)
    if isinstance(space, Join):
        return actions.JoinMap(_reflection(space.left), _reflection(space.right))
    if isinstance(space, Cone):
        return actions.ConeMap(_reflection(space.base))
    return actions.SuspensionMap(True, _reflection(space.base))


@st.composite
def spaces_with_quotients(draw):
    """A tree, or its quotient by a Z_2 reflection or a Z_m rotation at the root."""
    space = draw(trees())
    kind = draw(st.sampled_from(["none", "z2", "cyclic"]))
    if kind == "cyclic":
        try:
            return Quotient(space, actions.cyclic_approximation(space, draw(st.sampled_from([2, 3, 8]))))
        except ConstructionError:  # no circle factor to rotate: fall back to a reflection
            kind = "z2"
    if kind == "z2":
        return Quotient(space, actions.group_from_generators(space, [_reflection(space)], name="Z_2"))
    return space


def _same(a, b) -> bool:
    """Packed coordinates with the same record types and bit-equal arrays."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b)
    return all(_same(x, y) for x, y in zip(spaces._parts(a), spaces._parts(b)))


def _points(space, n, seed):
    return nets.random_points(space, n, np.random.default_rng(seed))


SEEDS = st.integers(0, 2**32 - 1)


@SETTINGS
@given(spaces_with_quotients(), SEEDS)
def test_cross_diagonal_matches_elementwise(space, seed):
    P, R = _points(space, 7, seed), _points(space, 7, seed + 1)
    A, B = spaces.pack_points(space, P), spaces.pack_points(space, R)
    cross = spaces.cross_distance(space, A, B)
    pairs = spaces.elementwise_distance(space, A, B)
    assert cross.shape == (7, 7) and pairs.shape == (7,)
    tol = np.where(pairs > 1e-6, 1e-12, 2e-8)
    assert np.all(np.abs(np.diag(cross) - pairs) <= tol), (space, np.diag(cross) - pairs)


@SETTINGS
@given(spaces_with_quotients(), SEEDS, st.data())
def test_coordinate_helpers_match_pack_points(space, seed, data):
    P = _points(space, 9, seed)
    C = spaces.pack_points(space, P)
    assert spaces.coords_len(C) == 9
    idx = np.asarray(data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=12)))
    assert _same(spaces.coords_take(C, idx), spaces.pack_points(space, [P[i] for i in idx]))
    cut = data.draw(st.integers(1, 8))
    parts = [spaces.coords_take(C, slice(0, cut)), spaces.coords_take(C, slice(cut, 9))]
    assert _same(spaces.coords_concat(parts), C)
    assert _same(spaces.pack_points(space, [spaces.unpack_point(C, i) for i in range(9)]), C)


@SETTINGS
@given(spaces_with_quotients(), SEEDS)
def test_coordinates_survive_json(space, seed):
    C = spaces.pack_points(space, _points(space, 5, seed))
    payload = json.loads(json.dumps(serialize.coords_to_json(C)))
    assert _same(serialize.coords_from_json(space, payload), C)


@SETTINGS
@given(spaces_with_quotients(), SEEDS)
def test_descriptors_survive_json(space, seed):
    payload = serialize.space_to_json(space)
    reloaded = serialize.space_from_json(json.loads(json.dumps(payload)))
    assert serialize.stable_dumps(serialize.space_to_json(reloaded)) == serialize.stable_dumps(payload)
    P, R = _points(space, 6, seed), _points(space, 6, seed + 1)
    A, B = spaces.pack_points(space, P), spaces.pack_points(space, R)
    for kernel in (spaces.cross_distance, spaces.elementwise_distance):
        assert _same(kernel(reloaded, A, B), kernel(space, A, B))
    scalar = [spaces.distance(space, p, r) for p, r in zip(P, R)]
    assert [spaces.distance(reloaded, p, r) for p, r in zip(P, R)] == scalar


def _range_slots(space, path=()):
    """(path, top) of every interval, latitude, radial and colatitude coordinate of a point."""
    if isinstance(space, Quotient):
        return _range_slots(space.base, path)
    if isinstance(space, Interval):
        return [(path, space.length)]
    if isinstance(space, Join):
        return (_range_slots(space.left, path + (0,)) + [(path + (1,), PI / 2.0)]
                + _range_slots(space.right, path + (2,)))
    if isinstance(space, Cone):
        return [(path + (0,), space.r0)] + _range_slots(space.base, path + (1,))
    if isinstance(space, Suspension):
        return [(path + (0,), PI)] + _range_slots(space.base, path + (1,))
    return []  # a sphere has none


def _replaced(point, path, value):
    """`point` with the coordinate at `path` set to `value`."""
    if not path:
        return value
    parts = list(point)
    parts[path[0]] = _replaced(parts[path[0]], path[1:], value)
    return tuple(parts)


@SETTINGS
@given(spaces_with_quotients(), SEEDS, st.data())
def test_a_coordinate_just_outside_its_range_is_rejected(space, seed, data):
    point = _points(space, 1, seed)[0]
    spaces.validate_point(space, point)
    spaces.pack_points(space, [point])
    slots = _range_slots(space)
    if not slots:
        return
    path, top = data.draw(st.sampled_from(slots))
    bad = _replaced(point, path, data.draw(st.sampled_from([-1e-6, top + 1e-6])))
    with pytest.raises(DomainError, match="outside"):
        spaces.validate_point(space, bad)
    with pytest.raises(DomainError, match="outside"):
        spaces.pack_points(space, [bad])


def test_coords_len_rejects_a_record_whose_fields_disagree():
    C = spaces.pack_points(Lens(3, 1.0), _points(Lens(3, 1.0), 4, 0))
    C.left = C.left[:3]
    with pytest.raises(ConstructionError, match="coordinates disagree in length"):
        spaces.coords_len(C)


@SETTINGS
@given(spaces_with_quotients().filter(lambda s: isinstance(s, Quotient)), SEEDS, st.data())
def test_packed_action_matches_scalar_action(space, seed, data):
    base, elements = space.base, space.action.elements
    g, h = (elements[data.draw(st.integers(0, len(elements) - 1))] for _ in range(2))
    P = _points(base, 6, seed)
    C = spaces.pack_points(base, P)
    packed = spaces.coords_flat(g.apply(C))
    scalar = spaces.coords_flat(spaces.pack_points(base, [g.apply_point(p) for p in P]))
    assert np.max(np.abs(packed - scalar)) <= 1e-14
    composed = spaces.coords_flat(actions.compose(g, h).apply(C))
    assert np.max(np.abs(composed - spaces.coords_flat(g.apply(h.apply(C))))) <= 1e-12
    rebuilt = actions._iso_from_json(base, json.loads(json.dumps(g.to_json())))
    assert _same(rebuilt.apply(C), g.apply(C))
