"""Finite isometry groups acting on descriptor coordinates.

An isometry is a coordinate map mirroring the descriptor tree: orthogonal
maps on sphere factors, the midpoint reflection on intervals, pole swaps on
suspensions, and componentwise (diagonal) maps on joins and cones.  A
GroupAction is an explicit element list; validation checks the group laws
and the isometry property numerically on sampled points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spaces
from .errors import ConstructionError, json_fields
from .spaces import (
    Cone,
    Interval,
    Join,
    Quotient,
    Sphere,
    Suspension,
)

PI = math.pi


# ---------------------------------------------------------------------------
# isometry nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    def apply_point(self, p):
        return p


@dataclass(frozen=True, eq=False)
class OrthogonalMap:
    """Orthogonal matrix acting on the unit vectors of a sphere factor."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConstructionError(f"orthogonal map needs a square matrix, got shape {m.shape}")
        if np.max(np.abs(m @ m.T - np.eye(m.shape[0]))) > 1e-9:
            raise ConstructionError("matrix is not orthogonal within 1e-9")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply_point(self, p):
        return self.matrix @ np.asarray(p, dtype=float)


@dataclass(frozen=True)
class IntervalReflection:
    """s -> length - s, the reflection about the interval midpoint."""

    length: float

    def apply_point(self, p):
        return self.length - float(p)


@dataclass(frozen=True, eq=False)
class JoinMap:
    """Diagonal action on a join; preserves the latitude coordinate exactly."""

    left: object
    right: object

    def apply_point(self, p):
        x, t, y = p
        return (self.left.apply_point(x), t, self.right.apply_point(y))


@dataclass(frozen=True, eq=False)
class ConeMap:
    """Action on a cone through its base; fixes the radial coordinate."""

    base: object

    def apply_point(self, p):
        t, y = p
        return (t, self.base.apply_point(y))


@dataclass(frozen=True, eq=False)
class SuspensionMap:
    """Action on a suspension: optional pole swap u -> pi - u, plus a base map."""

    flip: bool
    base: object

    def apply_point(self, p):
        u, y = p
        u2 = PI - u if self.flip else u
        return (u2, self.base.apply_point(y))


def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def circle_reflection_matrix() -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, -1.0]])


def hopf_rotation_matrix(angle: float) -> np.ndarray:
    """Simultaneous rotation of both complex coordinates of S^3 in R^4."""
    r = rotation_matrix(angle)
    m = np.zeros((4, 4))
    m[:2, :2] = r
    m[2:, 2:] = r
    return m


def antipodal_map(space: Sphere) -> OrthogonalMap:
    return OrthogonalMap(-np.eye(space.ambient_dim))


def identity_for(space) -> object:
    """Structured identity element matching the descriptor tree."""
    if isinstance(space, (Sphere, Interval)):
        return Identity()
    if isinstance(space, Join):
        return JoinMap(identity_for(space.left), identity_for(space.right))
    if isinstance(space, Cone):
        return ConeMap(identity_for(space.base))
    if isinstance(space, Suspension):
        return SuspensionMap(False, identity_for(space.base))
    if isinstance(space, Quotient):
        raise ConstructionError("nested quotients are not supported")
    return Identity()


# ---------------------------------------------------------------------------
# vectorized application on packed coordinates
# ---------------------------------------------------------------------------


def apply_isometry(space, iso, coords):
    """Apply an isometry to packed coordinates (see spaces.pack_points)."""
    if isinstance(iso, Identity):
        return coords
    if isinstance(space, Sphere):
        if isinstance(iso, OrthogonalMap):
            return np.asarray(coords, dtype=float) @ iso.matrix.T
        raise ConstructionError(f"{type(iso).__name__} cannot act on a sphere factor")
    if isinstance(space, Interval):
        if isinstance(iso, IntervalReflection):
            return iso.length - np.asarray(coords, dtype=float)
        raise ConstructionError(f"{type(iso).__name__} cannot act on an interval factor")
    if isinstance(space, Join):
        if isinstance(iso, JoinMap):
            return spaces.JoinCoords(
                apply_isometry(space.left, iso.left, coords.left),
                coords.t,
                apply_isometry(space.right, iso.right, coords.right),
            )
        raise ConstructionError(f"{type(iso).__name__} cannot act on a join")
    if isinstance(space, Cone):
        if isinstance(iso, ConeMap):
            return spaces.ConeCoords(coords.t, apply_isometry(space.base, iso.base, coords.base))
        raise ConstructionError(f"{type(iso).__name__} cannot act on a cone")
    if isinstance(space, Suspension):
        if isinstance(iso, SuspensionMap):
            u = PI - coords.u if iso.flip else coords.u
            return spaces.SuspCoords(u, apply_isometry(space.base, iso.base, coords.base))
        raise ConstructionError(f"{type(iso).__name__} cannot act on a suspension")
    raise ConstructionError(f"cannot apply {type(iso).__name__} to {type(space).__name__}")


def compose(space, g, h):
    """Composition g o h as a structured isometry for the given descriptor."""
    if isinstance(g, Identity):
        return h
    if isinstance(h, Identity):
        return g
    if isinstance(space, Sphere):
        return OrthogonalMap(g.matrix @ h.matrix)
    if isinstance(space, Interval):
        # two midpoint reflections cancel
        if isinstance(g, IntervalReflection) and isinstance(h, IntervalReflection):
            return Identity()
        raise ConstructionError("interval factors support only the midpoint reflection")
    if isinstance(space, Join):
        return JoinMap(compose(space.left, g.left, h.left), compose(space.right, g.right, h.right))
    if isinstance(space, Cone):
        return ConeMap(compose(space.base, g.base, h.base))
    if isinstance(space, Suspension):
        return SuspensionMap(g.flip != h.flip, compose(space.base, g.base, h.base))
    raise ConstructionError(f"cannot compose isometries over {type(space).__name__}")


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Explicit finite isometry group for a fixed base descriptor.

    `generators` is what serialization stores; it defaults to every
    non-identity element, so a hand-built element list round-trips as is.
    """

    space: object
    elements: tuple
    name: str = ""
    generators: tuple | None = None

    def __post_init__(self):
        if not self.elements:
            raise ConstructionError("group action needs at least the identity element")
        object.__setattr__(self, "elements", tuple(self.elements))
        gens = self.elements[1:] if self.generators is None else tuple(self.generators)
        object.__setattr__(self, "generators", gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def rotation_order(self) -> int | None:
        """m if this is the Z_m that `cyclic_approximation` builds, on unit-radius factors.

        Such an action admits the closed-form orbit minimum of
        `spaces.rotation_quotient_distance`.  The single generator must equal
        the cyclic generator for (space, m) bit for bit; anything else
        (other radii, reflections, hand-built lists) returns None.
        """
        m = self.order
        if len(self.generators) != 1 or m < 2 or not spaces.unit_rotation_factors(self.space):
            return None
        try:
            gen = _cyclic_generator(self.space, m)
        except ConstructionError:
            return None
        return m if iso_to_json(self.space, gen) == iso_to_json(self.space, self.generators[0]) else None


def group_from_generators(space, generators, name: str = "", max_order: int = 4096) -> GroupAction:
    """Close a generator list under composition (numeric equality on samples).

    The elements start with the identity and the distinct generators in the
    given order, as the exact objects passed in.  The closure multiplies only
    by generators not already generated by the earlier ones, so a cyclic
    group costs O(m) compositions, also when every element is listed.
    """
    from .nets import random_points  # local import: sampling lives with net plumbing

    rng = np.random.default_rng(20231115)
    probes = spaces.pack_points(space, random_points(space, 32, rng))

    def signature(iso):
        return np.round(spaces.coords_flat(apply_isometry(space, iso, probes)), 9).tobytes()

    gens = tuple(generators)
    gen_sigs = [signature(h) for h in gens]
    ident = identity_for(space)
    ident_sig = signature(ident)
    known = {ident_sig: ident}  # signature -> element, in element order
    for h, sig in zip(gens, gen_sigs):
        known.setdefault(sig, h)

    # `members` is the subgroup generated by `basis`; adding a generator h
    # left-multiplies the old subgroup by h once, and each new element by
    # every basis generator.
    basis = []
    reached = {ident_sig}
    members = [ident]
    for h, h_sig in zip(gens, gen_sigs):
        if h_sig in reached:
            continue
        basis.append(h)
        frontier = [(h, g) for g in members]
        while frontier:
            nxt = []
            for left, g in frontier:
                comp = compose(space, left, g)
                sig = signature(comp)
                if sig in reached:
                    continue
                elem = known.setdefault(sig, comp)
                reached.add(sig)
                members.append(elem)
                if len(members) > max_order:
                    raise ConstructionError(
                        f"generator closure exceeded {max_order} elements; not a small finite group?"
                    )
                nxt.extend((b, elem) for b in basis)
            frontier = nxt
    return GroupAction(space=space, elements=tuple(known.values()), name=name, generators=gens)


@dataclass
class ActionAudit:
    has_identity: bool
    closure_defect: float
    isometry_defect: float
    latitude_defect: float
    passed: bool
    n_pairs: int


def validate_action(space, action: GroupAction, n_pairs: int = 1000, seed: int = 7,
                    tol: float = 1e-9) -> ActionAudit:
    """Check identity membership, closure, and the isometry property.

    Closure is tested by composing all element pairs and matching each
    composite against the element list on sample points; the isometry
    property by |g(x) g(y)| = |x y| on random pairs.  Diagonal join actions
    must preserve the latitude coordinate exactly.
    """
    from .nets import random_points

    rng = np.random.default_rng(seed)
    probes = spaces.pack_points(space, random_points(space, 16, rng))

    def table(iso):
        return spaces.coords_flat(apply_isometry(space, iso, probes))

    tables = [table(g) for g in action.elements]
    ident_tab = table(identity_for(space))
    has_identity = any(np.max(np.abs(t - ident_tab)) <= tol for t in tables)

    closure_defect = 0.0
    for g in action.elements:
        for h in action.elements:
            tab = table(compose(space, g, h))
            best = min(float(np.max(np.abs(tab - t))) for t in tables)
            closure_defect = max(closure_defect, best)

    xs = random_points(space, n_pairs, rng)
    ys = random_points(space, n_pairs, rng)
    isometry_defect = 0.0
    latitude_defect = 0.0
    for g in action.elements[1:] if has_identity else action.elements:
        for x, y in zip(xs, ys):
            d0 = spaces.distance(space, x, y)
            d1 = spaces.distance(space, g.apply_point(x), g.apply_point(y))
            isometry_defect = max(isometry_defect, abs(d0 - d1))
            if isinstance(space, Join):
                latitude_defect = max(latitude_defect, abs(g.apply_point(x)[1] - x[1]))
    passed = has_identity and closure_defect <= tol and isometry_defect <= tol
    return ActionAudit(
        has_identity=has_identity,
        closure_defect=closure_defect,
        isometry_defect=isometry_defect,
        latitude_defect=latitude_defect,
        passed=passed,
        n_pairs=n_pairs,
    )


# ---------------------------------------------------------------------------
# stock actions
# ---------------------------------------------------------------------------


def cyclic_approximation(space, m: int) -> GroupAction:
    """Z_m surrogate for a circle action on the descriptor.

    Acts by simultaneous phase rotation on S^3 factors (the circle action
    whose orbits are the unit-speed fibers) and by rotation 2*pi/m on circle
    and cone-over-circle factors; diagonal on joins.  Quotient distances
    decrease monotonically as m doubles, with defect O(1/m).
    """
    if int(m) != m or m < 2:
        raise ConstructionError(f"cyclic order must be an integer >= 2, got {m}")
    m = int(m)
    gen = _cyclic_generator(space, m)
    elements = [identity_for(space)]
    g = gen
    for _ in range(m - 1):
        elements.append(g)
        g = compose(space, gen, g)
    return GroupAction(space=space, elements=tuple(elements), name=f"Z_{m}", generators=(gen,))


def _cyclic_generator(desc, m: int):
    """The rotation by 2*pi/m that generates `cyclic_approximation(desc, m)`."""
    if isinstance(desc, Sphere):
        if desc.dim == 3:
            return OrthogonalMap(hopf_rotation_matrix(2.0 * PI / m))
        if desc.dim == 1:
            return OrthogonalMap(rotation_matrix(2.0 * PI / m))
        raise ConstructionError(
            f"no cyclic circle action on Sphere(dim={desc.dim}); need dim 1 or 3"
        )
    if isinstance(desc, Cone):
        return ConeMap(_cyclic_generator(desc.base, m))
    if isinstance(desc, Join):
        return JoinMap(_cyclic_generator(desc.left, m), _cyclic_generator(desc.right, m))
    if isinstance(desc, Suspension):
        return SuspensionMap(False, _cyclic_generator(desc.base, m))
    raise ConstructionError(f"no cyclic approximation for {type(desc).__name__}")


# ---------------------------------------------------------------------------
# JSON (de)serialization of generators
# ---------------------------------------------------------------------------


def action_from_json(space, payload: dict) -> GroupAction:
    """Build and close a group from its serialized generator list.

    Each generator is either a structured isometry spec mirroring the
    descriptor tree ({"type": "join_map", "left": ..., "right": ...}) or a
    leaf spec with an optional "factor" shorthand ("left", "right", "base",
    possibly dotted) that wraps it in identity maps along that path.
    """
    with json_fields("action"):
        gens = [_iso_from_json(space, g) for g in payload.get("generators", [])]
        name = str(payload.get("name", ""))
        declared = payload.get("order")
        declared = None if declared is None else int(declared)
    if not gens:
        raise ConstructionError("action payload needs a nonempty generator list")
    action = group_from_generators(space, gens, name=name)
    if declared is not None and declared != action.order:
        raise ConstructionError(
            f"declared group order {declared} does not match closure order {action.order}"
        )
    return action


def _iso_from_json(space, spec: dict):
    spec = dict(spec)
    factor = spec.pop("factor", None)
    if factor:
        head, _, rest = str(factor).partition(".")
        inner_spec = dict(spec)
        if rest:
            inner_spec["factor"] = rest
        if isinstance(space, Join):
            if head == "left":
                return JoinMap(_iso_from_json(space.left, inner_spec), identity_for(space.right))
            if head == "right":
                return JoinMap(identity_for(space.left), _iso_from_json(space.right, inner_spec))
        if isinstance(space, (Cone, Suspension)) and head == "base":
            inner = _iso_from_json(space.base, inner_spec)
            if isinstance(space, Suspension):
                return SuspensionMap(False, inner)
            return ConeMap(inner)
        raise ConstructionError(f"factor {factor!r} does not address {type(space).__name__}")

    kind = spec.get("type")
    if kind == "identity":
        return identity_for(space)
    if kind == "join_map":
        if not isinstance(space, Join):
            raise ConstructionError("join_map generator on a non-join descriptor")
        return JoinMap(_iso_from_json(space.left, spec["left"]), _iso_from_json(space.right, spec["right"]))
    if kind == "cone_map":
        if not isinstance(space, Cone):
            raise ConstructionError("cone_map generator on a non-cone descriptor")
        return ConeMap(_iso_from_json(space.base, spec["base"]))
    if kind == "suspension_map":
        if not isinstance(space, Suspension):
            raise ConstructionError("suspension_map generator on a non-suspension descriptor")
        base_spec = spec.get("base", {"type": "identity"})
        return SuspensionMap(bool(spec.get("flip", False)), _iso_from_json(space.base, base_spec))
    if kind == "pole_swap":
        if not isinstance(space, Suspension):
            raise ConstructionError("pole_swap applies to suspensions only")
        return SuspensionMap(True, identity_for(space.base))
    if kind == "antipodal":
        if not isinstance(space, Sphere):
            raise ConstructionError("antipodal applies to sphere factors only")
        return antipodal_map(space)
    if kind == "reflection":
        if isinstance(space, Interval):
            return IntervalReflection(space.length)
        if isinstance(space, Sphere):
            m = np.eye(space.ambient_dim)
            m[-1, -1] = -1.0
            return OrthogonalMap(m)
        raise ConstructionError("reflection applies to interval or sphere factors")
    if kind == "rotation":
        order = int(spec["order"])
        times = int(spec.get("times", 1))
        if not isinstance(space, Sphere) or space.dim != 1:
            raise ConstructionError("rotation applies to circle factors (Sphere dim 1)")
        return OrthogonalMap(rotation_matrix(2.0 * PI * times / order))
    if kind == "hopf":
        order = int(spec["order"])
        times = int(spec.get("times", 1))
        if not isinstance(space, Sphere) or space.dim != 3:
            raise ConstructionError("hopf rotation applies to Sphere(dim=3) factors")
        return OrthogonalMap(hopf_rotation_matrix(2.0 * PI * times / order))
    if kind == "orthogonal":
        if not isinstance(space, Sphere):
            raise ConstructionError("orthogonal matrices act on sphere factors only")
        return OrthogonalMap(np.asarray(spec["matrix"], dtype=float))
    raise ConstructionError(f"unknown generator type {kind!r}")


def iso_to_json(space, iso) -> dict:
    if isinstance(iso, Identity):
        return {"type": "identity"}
    if isinstance(iso, OrthogonalMap):
        return {"type": "orthogonal", "matrix": iso.matrix.tolist()}
    if isinstance(iso, IntervalReflection):
        return {"type": "reflection"}
    if isinstance(iso, JoinMap):
        return {
            "type": "join_map",
            "left": iso_to_json(space.left, iso.left),
            "right": iso_to_json(space.right, iso.right),
        }
    if isinstance(iso, ConeMap):
        return {"type": "cone_map", "base": iso_to_json(space.base, iso.base)}
    if isinstance(iso, SuspensionMap):
        return {
            "type": "suspension_map",
            "flip": iso.flip,
            "base": iso_to_json(space.base, iso.base),
        }
    raise ConstructionError(f"cannot serialize isometry {type(iso).__name__}")


def action_to_json(action: GroupAction) -> dict:
    return {
        "name": action.name,
        "order": action.order,
        "generators": [iso_to_json(action.space, g) for g in action.generators] or [
            {"type": "identity"}
        ],
    }
