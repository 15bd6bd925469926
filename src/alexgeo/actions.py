"""Finite isometry groups acting on descriptor coordinates.

An isometry is a coordinate map mirroring the descriptor tree: orthogonal
maps on sphere factors, the midpoint reflection on intervals, pole swaps on
suspensions, and componentwise (diagonal) maps on joins and cones.  Each
node carries its own packed action (`apply`), composition (`after`), JSON
(`to_json`) and shape test (`fits`), so only `fits` reads the descriptor;
`Identity()` is the identity of every descriptor.  Whether a node fits its
descriptor is checked once, where an action meets one: in `GroupAction`,
`spaces.Quotient` and `group_from_generators`.  A GroupAction is an
explicit element list; validation checks the group laws and the isometry
property numerically on sampled points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spaces
from .errors import ConstructionError, json_fields
from .spaces import Cone, Interval, Join, Sphere, Suspension

PI = math.pi
# closure size at which `group_from_generators` gives up on a generator list
MAX_ORDER = 4096


# ---------------------------------------------------------------------------
# isometry nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """The identity of any descriptor."""

    def apply_point(self, p):
        return p

    def apply(self, coords):
        return coords

    def after(self, h):
        return h

    def to_json(self) -> dict:
        return {"type": "identity"}

    def fits(self, space) -> bool:
        return True


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

    def apply(self, coords):
        return np.asarray(coords, dtype=float) @ self.matrix.T

    def after(self, h):
        return OrthogonalMap(self.matrix @ h.matrix)

    def to_json(self) -> dict:
        return {"type": "orthogonal", "matrix": self.matrix.tolist()}

    def fits(self, space) -> bool:
        return isinstance(space, Sphere) and self.matrix.shape[0] == space.ambient_dim


@dataclass(frozen=True)
class IntervalReflection:
    """s -> length - s, the reflection about the interval midpoint."""

    length: float

    def apply_point(self, p):
        return self.length - float(p)

    def apply(self, coords):
        return self.length - np.asarray(coords, dtype=float)

    def after(self, h):
        return Identity()  # h is this reflection too: two midpoint reflections cancel

    def to_json(self) -> dict:
        return {"type": "reflection"}

    def fits(self, space) -> bool:
        return isinstance(space, Interval) and self.length == space.length


@dataclass(frozen=True, eq=False)
class JoinMap:
    """Diagonal action on a join; preserves the latitude coordinate exactly."""

    left: object
    right: object

    def apply_point(self, p):
        x, t, y = p
        return (self.left.apply_point(x), t, self.right.apply_point(y))

    def apply(self, coords):
        return spaces.JoinCoords(self.left.apply(coords.left), coords.t, self.right.apply(coords.right))

    def after(self, h):
        return JoinMap(compose(self.left, h.left), compose(self.right, h.right))

    def to_json(self) -> dict:
        return {"type": "join_map", "left": self.left.to_json(), "right": self.right.to_json()}

    def fits(self, space) -> bool:
        return isinstance(space, Join) and self.left.fits(space.left) and self.right.fits(space.right)


@dataclass(frozen=True, eq=False)
class ConeMap:
    """Action on a cone through its base; fixes the radial coordinate."""

    base: object

    def apply_point(self, p):
        t, y = p
        return (t, self.base.apply_point(y))

    def apply(self, coords):
        return spaces.ConeCoords(coords.t, self.base.apply(coords.base))

    def after(self, h):
        return ConeMap(compose(self.base, h.base))

    def to_json(self) -> dict:
        return {"type": "cone_map", "base": self.base.to_json()}

    def fits(self, space) -> bool:
        return isinstance(space, Cone) and self.base.fits(space.base)


@dataclass(frozen=True, eq=False)
class SuspensionMap:
    """Action on a suspension: optional pole swap u -> pi - u, plus a base map."""

    flip: bool
    base: object

    def apply_point(self, p):
        u, y = p
        u2 = PI - u if self.flip else u
        return (u2, self.base.apply_point(y))

    def apply(self, coords):
        u = PI - coords.u if self.flip else coords.u
        return spaces.SuspCoords(u, self.base.apply(coords.base))

    def after(self, h):
        return SuspensionMap(self.flip != h.flip, compose(self.base, h.base))

    def to_json(self) -> dict:
        return {"type": "suspension_map", "flip": self.flip, "base": self.base.to_json()}

    def fits(self, space) -> bool:
        return isinstance(space, Suspension) and self.base.fits(space.base)


def compose(g, h):
    """The composition g o h of two isometries that fit one descriptor."""
    return g if isinstance(h, Identity) else g.after(h)


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
        spaces.check_fits(self.space, self.elements + gens)

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        """The name, the order and the generators (the identity for a trivial group)."""
        gens = [g.to_json() for g in self.generators] or [Identity().to_json()]
        return {"name": self.name, "order": self.order, "generators": gens}

    @cached_property
    def cyclic_order(self) -> int | None:
        """m if this is the Z_m that `cyclic_approximation(space, m)` builds, else None.

        The single generator must equal the cyclic generator for (space, m)
        bit for bit; anything else (reflections, other rotations, hand-built
        lists of more than two elements) returns None.
        """
        m = self.order
        if len(self.generators) != 1 or m < 2:
            return None
        try:
            gen = _cyclic_generator(self.space, m)
        except ConstructionError:
            return None
        return m if gen.to_json() == self.generators[0].to_json() else None

    @cached_property
    def rotation_order(self) -> int | None:
        """`cyclic_order` m where the quotient has a closed form, else None: the
        one gate of `spaces.rotation_quotient_distance` and its one-pair form.

        The space must admit one (`spaces.rotation_closed_form`: unit factors
        under any root, or a chain of cones of any k and suspensions over a
        sphere of any radius), and each element must equal, bit for bit, the
        generator composed with the element before it, as
        `group_from_generators` closes a single generator, so the list is the
        group the closed form minimises over.  A list in another order, or
        with other elements, returns None and keeps the element loop.  The
        check costs m compositions, once per action.
        """
        m = self.cyclic_order
        if m is None or not spaces.rotation_closed_form(self.space):
            return None
        power = Identity()
        for g in self.elements:
            if g.to_json() != power.to_json():
                return None
            power = compose(self.generators[0], power)
        return m


def group_from_generators(space, generators, name: str = "") -> GroupAction:
    """Close a generator list under composition (numeric equality on samples).

    The elements start with the identity and the distinct generators in the
    given order, as the exact objects passed in.  The closure multiplies only
    by generators not already generated by the earlier ones, so a cyclic
    group costs O(m) compositions, also when every element is listed.
    """
    rng = np.random.default_rng(20231115)
    probes = spaces.pack_points(space, space.random_points(32, rng))

    def signature(iso):
        return np.round(spaces.coords_flat(iso.apply(probes)), 9).tobytes()

    gens = tuple(generators)
    spaces.check_fits(space, gens)
    gen_sigs = [signature(h) for h in gens]
    ident = Identity()
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
                comp = compose(left, g)
                sig = signature(comp)
                if sig in reached:
                    continue
                elem = known.setdefault(sig, comp)
                reached.add(sig)
                members.append(elem)
                if len(members) > MAX_ORDER:
                    raise ConstructionError(
                        f"generator closure exceeded {MAX_ORDER} elements; not a small finite group?"
                    )
                nxt.extend((b, elem) for b in basis)
            frontier = nxt
    return GroupAction(space=space, elements=tuple(known.values()), name=name, generators=gens)


@dataclass
class ActionAudit:
    has_identity: bool
    identity_defect: float  # largest coordinate gap on the probes to the element nearest the identity
    closure_defect: float
    isometry_defect: float
    passed: bool
    n_pairs: int


def validate_action(space, action: GroupAction, n_pairs: int = 1000, seed: int = 7,
                    tol: float = 1e-9) -> ActionAudit:
    """Check identity membership, closure, and the isometry property.

    Closure is tested by composing all element pairs and matching each
    composite against the element list on sample points; the isometry
    property by |g(x) g(y)| = |x y| on random pairs, packed once and moved
    by each element as one array.  Moved points must pass the space's
    domain check (DomainError otherwise).
    """
    rng = np.random.default_rng(seed)
    probes = spaces.pack_points(space, space.random_points(16, rng))

    def table(iso):
        return spaces.coords_flat(iso.apply(probes))

    tables = [table(g) for g in action.elements]
    ident_tab = table(Identity())
    identity_defect = min(float(np.max(np.abs(t - ident_tab))) for t in tables)
    has_identity = identity_defect <= tol

    closure_defect = 0.0
    for g in action.elements:
        for h in action.elements:
            tab = table(compose(g, h))
            best = min(float(np.max(np.abs(tab - t))) for t in tables)
            closure_defect = max(closure_defect, best)

    X = spaces.pack_points(space, space.random_points(n_pairs, rng))
    Y = spaces.pack_points(space, space.random_points(n_pairs, rng))
    d0 = spaces.elementwise_distance(space, X, Y)
    isometry_defect = 0.0
    for g in action.elements[1:] if has_identity else action.elements:
        gX, gY = g.apply(X), g.apply(Y)
        space.check_coords(gX)  # a map may move points off the space
        space.check_coords(gY)
        d1 = spaces.elementwise_distance(space, gX, gY)
        isometry_defect = max(isometry_defect, float(np.max(np.abs(d0 - d1), initial=0.0)))
    passed = has_identity and closure_defect <= tol and isometry_defect <= tol
    return ActionAudit(
        has_identity=has_identity,
        identity_defect=identity_defect,
        closure_defect=closure_defect,
        isometry_defect=isometry_defect,
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
    decrease monotonically as m doubles, with defect O(1/m).  The group is
    closed by `group_from_generators`, as its JSON reload is, so element k
    is the k-fold product of the generator and m is capped at MAX_ORDER.
    """
    order = spaces.as_integer(m)
    if order is None or order < 2:
        raise ConstructionError(f"cyclic order must be an integer >= 2, got {m!r}")
    return group_from_generators(space, (_cyclic_generator(space, order),), name=f"Z_{order}")


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
    if not gens:
        raise ConstructionError("action payload needs a nonempty generator list")
    action = group_from_generators(space, gens, name=name)
    if declared is not None and spaces.as_integer(declared) != action.order:
        raise ConstructionError(
            f"declared group order {declared!r} does not match closure order {action.order}"
        )
    return action


def _iso_from_json(space, spec: dict):
    """The isometry node a generator spec describes; `space` sizes its leaves.

    A spec addressed to the wrong kind of descriptor fails here on a field
    that descriptor lacks, or at the fit check of `group_from_generators`.
    """
    spec = dict(spec)
    factor = spec.pop("factor", None)
    if factor:
        head, _, rest = str(factor).partition(".")
        if rest:
            spec["factor"] = rest
        if isinstance(space, Join) and head in ("left", "right"):
            inner = _iso_from_json(getattr(space, head), spec)
            return JoinMap(inner, Identity()) if head == "left" else JoinMap(Identity(), inner)
        if isinstance(space, (Cone, Suspension)) and head == "base":
            inner = _iso_from_json(space.base, spec)
            return ConeMap(inner) if isinstance(space, Cone) else SuspensionMap(False, inner)
        raise ConstructionError(f"factor {factor!r} does not address {type(space).__name__}")

    kind = spec.get("type")
    if kind == "identity":
        return Identity()
    if kind == "join_map":
        return JoinMap(_iso_from_json(space.left, spec["left"]), _iso_from_json(space.right, spec["right"]))
    if kind == "cone_map":
        return ConeMap(_iso_from_json(space.base, spec["base"]))
    if kind == "suspension_map":
        base = _iso_from_json(space.base, spec.get("base", {"type": "identity"}))
        flip = spec.get("flip", False)
        if flip is not True and flip is not False:  # a JSON boolean, not "false" or 0
            raise ConstructionError(f"suspension_map flip must be true or false, got {flip!r}")
        return SuspensionMap(flip, base)
    if kind == "pole_swap":
        return SuspensionMap(True, Identity())
    if kind == "antipodal":
        return antipodal_map(space)
    if kind == "reflection":
        if isinstance(space, Interval):
            return IntervalReflection(space.length)
        m = np.eye(space.ambient_dim)
        m[-1, -1] = -1.0
        return OrthogonalMap(m)
    if kind in ("rotation", "hopf"):
        order, times = spaces.as_integer(spec["order"]), spaces.as_integer(spec.get("times", 1))
        if order is None or order < 1 or times is None:
            raise ConstructionError(
                f"{kind} generator needs an integer order >= 1 and an integer times, "
                f"got order {spec['order']!r}, times {spec.get('times', 1)!r}"
            )
        angle = 2.0 * PI * times / order
        return OrthogonalMap(rotation_matrix(angle) if kind == "rotation" else hopf_rotation_matrix(angle))
    if kind == "orthogonal":
        return OrthogonalMap(np.asarray(spec["matrix"], dtype=float))
    raise ConstructionError(f"unknown generator type {kind!r}")

