"""Space descriptors and their closed-form distance functions.

A descriptor is an immutable, recursive description of a metric space:
primitive factors (round spheres, intervals, ellipsoid surfaces) and
composite constructions (spherical join, curvature-k cone, suspension,
finite isometric quotient).  A lens is a join and a model ball a cone, so
they share every formula, sampler and codec of their construction; only
their boundary faces and their JSON kind are their own.  Every descriptor
except the ellipsoid evaluates distances by an explicit formula; the
ellipsoid is handled by a graph geodesic engine built on a surface net (see
``alexgeo.nets``).

Point conventions per kind:

* ``Sphere(d, r)``    -- unit vector in R^(d+1); the radius scales the metric.
* ``Interval(L)``     -- scalar in [0, L].
* ``Ellipsoid``       -- Cartesian surface point in R^3.
* ``Join``            -- triple ``(left_point, t, right_point)``, t in [0, pi/2].
* ``Cone``            -- pair ``(t, base_point)``, t in [0, r0]; t = 0 is the apex.
* ``Suspension``      -- pair ``(u, base_point)``, colatitude u in [0, pi].
* ``Quotient``        -- a point of the base (an orbit representative).
* ``Lens(n, alpha)``  -- a ``Join`` of Sphere(n-2) and Interval(alpha): ``(x, t, s)``.
* ``ModelBall(k, r0, d)`` -- a ``Cone`` over Sphere(d-1): ``(t, direction)``,
  polar coordinates about the center.

Degenerate coordinates compare equal through the distance function: the
cone apex ignores its base coordinate, a join point at latitude 0 ignores
its right coordinate, and so on.

Gram embedding.  Unit spheres, intervals of length <= pi, and joins,
suspensions and k = 1 cones built from them (so lenses and k = 1 model
balls too) are convex pieces of one unit sphere, since S^p * S^q =
S^(p+q+1).  `gram_embedding` maps their packed points to unit rows E(x)
with cos d(x, y) = <E(x), E(y)>, and `cross_distance` and
`elementwise_distance` evaluate such a tree as one product of those rows
and one arccos.  A quotient of such a tree by an element list takes the
largest product over the group, then one arccos.  Any other tree (a sphere
factor of radius other than 1, a cone with k != 1, a quotient used as a
factor), a Z_m rotation quotient and the ellipsoid keep their own paths;
scalar `distance` always evaluates factor by factor.

Packed coordinates.  `pack_points` turns a list of points into packed
coordinates, one entry per point along the first axis.  A leaf is an
ndarray: 1-D for interval values, 2-D with one row per point for sphere and
ellipsoid points.  Sphere rows must be unit vectors to within 1e-12, the
test `validate_point` applies.  A record (`JoinCoords`, `ConeCoords`,
`SuspCoords`) is a dataclass whose fields are packed coordinates of one
common length, in the order of the point tuple.  Lenses and model balls
are joins and cones, so they pack as `JoinCoords` and `ConeCoords`;
quotients reuse the coordinates of their base.  Since each record carries
its own layout, `coords_len`, `coords_take`, `coords_concat`, `unpack_point`
and `coords_flat` recurse on the coordinates alone and need no descriptor.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ConstructionError, DomainError, UnsupportedConstructionError

PI = math.pi
HALF_PI = math.pi / 2.0

# ---------------------------------------------------------------------------
# clamp instrumentation
#
# arccos/arccosh arguments are clamped to their closed domains before
# evaluation.  On valid inputs the clamp magnitude stays below ~1e-12; the
# tracker lets tests assert that.
# ---------------------------------------------------------------------------


class _ClampStats:
    __slots__ = ("enabled", "max_excess", "count")

    def __init__(self):
        self.enabled = False
        self.max_excess = 0.0
        self.count = 0

    def reset(self):
        self.max_excess = 0.0
        self.count = 0


clamp_stats = _ClampStats()


@contextmanager
def track_clamping():
    """Context manager that records the worst arccos/arccosh clamp excess."""
    clamp_stats.reset()
    clamp_stats.enabled = True
    try:
        yield clamp_stats
    finally:
        clamp_stats.enabled = False


def _record_excess(excess: float):
    if excess > 0.0:
        clamp_stats.count += 1
        if excess > clamp_stats.max_excess:
            clamp_stats.max_excess = excess


def clamped_arccos(x):
    """arccos with the argument clamped to [-1, 1] (tracked when enabled)."""
    if isinstance(x, float) or np.isscalar(x):
        if clamp_stats.enabled:
            _record_excess(abs(float(x)) - 1.0)
        return math.acos(min(1.0, max(-1.0, float(x))))
    x = np.asarray(x, dtype=float)
    if clamp_stats.enabled and x.size:
        _record_excess(float(np.max(np.abs(x))) - 1.0)
    return np.arccos(np.clip(x, -1.0, 1.0))


def _arccos_in_place(c: np.ndarray) -> np.ndarray:
    """`clamped_arccos` of a float array the caller owns, written over it."""
    if clamp_stats.enabled and c.size:
        _record_excess(float(np.max(np.abs(c))) - 1.0)
    np.clip(c, -1.0, 1.0, out=c)
    return np.arccos(c, out=c)


def clamped_arccosh(x):
    """arccosh with the argument clamped to [1, inf) (tracked when enabled)."""
    if isinstance(x, float) or np.isscalar(x):
        if clamp_stats.enabled:
            _record_excess(1.0 - float(x))
        return math.acosh(max(1.0, float(x)))
    x = np.asarray(x, dtype=float)
    if clamp_stats.enabled and x.size:
        _record_excess(1.0 - float(np.min(x)))
    return np.arccosh(np.maximum(x, 1.0))


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sphere:
    """Round sphere S^dim of the given radius, points as unit vectors."""

    dim: int
    radius: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.dim) or int(self.dim) != self.dim or self.dim < 0:
            raise ConstructionError(f"sphere dimension must be an integer >= 0, got {self.dim}")
        if not 0.0 < self.radius < math.inf:
            raise ConstructionError(f"sphere radius must be positive and finite, got {self.radius}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1


@dataclass(frozen=True)
class Interval:
    """Interval [0, length] with |s - t| distance; length restricted to (0, pi]."""

    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= PI + 1e-12):
            raise ConstructionError(f"interval length must lie in (0, pi], got {self.length}")
        object.__setattr__(self, "length", float(min(self.length, PI)))


@dataclass(frozen=True)
class Ellipsoid:
    """Surface x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 with its intrinsic metric."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = float(getattr(self, name))
            if not 0.0 < v < math.inf:
                raise ConstructionError(
                    f"ellipsoid semi-axis {name} must be positive and finite, got {v}"
                )
            object.__setattr__(self, name, v)

    @property
    def axes(self):
        return np.array([self.a, self.b, self.c])


@dataclass(frozen=True)
class Join:
    """Spherical join left * right with the cosine distance formula."""

    left: "SpaceDescriptor"
    right: "SpaceDescriptor"

    def __post_init__(self):
        _validate_join_factor(self.left, "left")
        _validate_join_factor(self.right, "right")


@dataclass(frozen=True)
class Cone:
    """Curvature-k cone over `base`, radial coordinate capped at r0."""

    k: float
    base: "SpaceDescriptor"
    r0: float

    def __post_init__(self):
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "r0", float(self.r0))
        if not math.isfinite(self.k):
            raise ConstructionError(f"cone curvature k must be finite, got {self.k}")
        if not 0.0 < self.r0 < math.inf:
            raise ConstructionError(f"cone cap r0 must be positive and finite, got {self.r0}")
        if self.k > 0.0 and self.r0 > HALF_PI / math.sqrt(self.k) + 1e-12:
            raise ConstructionError(
                f"cone with k={self.k} requires r0 <= pi/(2*sqrt(k)) = "
                f"{HALF_PI / math.sqrt(self.k):.6f}, got r0={self.r0}"
            )
        _validate_cone_base(self.base)


@dataclass(frozen=True)
class Suspension:
    """Spherical suspension of `base`: the join with a two-point space."""

    base: "SpaceDescriptor"

    def __post_init__(self):
        _validate_join_factor(self.base, "suspension base")


@dataclass(frozen=True, eq=False)
class Quotient:
    """Quotient of `base` by a finite isometry group (min-over-orbit metric)."""

    base: "SpaceDescriptor"
    action: object  # actions.GroupAction; typed loosely to avoid an import cycle

    def __post_init__(self):
        elements = getattr(self.action, "elements", None)
        if not elements:
            raise ConstructionError("quotient requires a group action with a nonempty element list")
        check_fits(self.base, elements)


def check_fits(space, isometries):
    """Raise ConstructionError unless every isometry node (see `actions`) fits `space`."""
    for g in isometries:
        if not g.fits(space):
            raise ConstructionError(f"isometry {type(g).__name__} does not fit {space!r}")


class Lens(Join):
    """Lens of dihedral angle alpha in S^dim, stored with a half-angle interval.

    The join Sphere(dim-2, 1) * Interval(alpha); the interval coordinate s
    runs over [0, alpha] and the two bounding faces sit at s = 0 and
    s = alpha.  alpha = pi gives exactly the closed hemisphere.
    """

    def __init__(self, dim: int, alpha: float):
        if not math.isfinite(dim) or int(dim) != dim or dim < 2:
            raise ConstructionError(f"lens dimension must be an integer >= 2, got {dim}")
        if not (0.0 < alpha <= PI + 1e-12):
            raise DomainError(f"lens angle must lie in (0, pi], got {alpha}")
        super().__init__(Sphere(int(dim) - 2, 1.0), Interval(float(alpha)))

    @property
    def dim(self) -> int:
        return self.left.dim + 2

    @property
    def alpha(self) -> float:
        return self.right.length


class ModelBall(Cone):
    """Closed ball of radius r0 in the constant-curvature-k space form.

    The curvature-k cone over the unit sphere S^(dim-1), capped at r0.
    """

    def __init__(self, k: float, r0: float, dim: int):
        k, r0 = float(k), float(r0)
        if not math.isfinite(k):
            raise ConstructionError(f"model ball curvature k must be finite, got {k}")
        if not math.isfinite(dim) or int(dim) != dim or dim < 1:
            raise ConstructionError(f"model ball dimension must be an integer >= 1, got {dim}")
        if not 0.0 < r0 < math.inf:
            raise ConstructionError(f"model ball radius must be positive and finite, got {r0}")
        if k > 0.0 and r0 > HALF_PI / math.sqrt(k) + 1e-12:
            raise ConstructionError(
                f"model ball with k={k} requires r0 <= pi/(2*sqrt(k)), got r0={r0}"
            )
        super().__init__(k, Sphere(int(dim) - 1, 1.0), r0)

    @property
    def dim(self) -> int:
        return self.base.dim + 1


SpaceDescriptor = Sphere | Interval | Ellipsoid | Join | Cone | Suspension | Quotient


def _validate_join_factor(desc, side: str):
    """Factors of joins/suspensions must be unit-diameter-bounded curv >= 1 pieces."""
    if isinstance(desc, Sphere):
        if not (0.5 - 1e-12 <= desc.radius <= 1.0 + 1e-12):
            raise ConstructionError(
                f"{side} factor sphere radius must lie in [1/2, 1] for a curv >= 1 join, "
                f"got {desc.radius}"
            )
    elif isinstance(desc, (Interval, Join, Suspension)):
        pass  # join and suspension factors were validated on construction
    elif isinstance(desc, Cone):
        if abs(desc.k - 1.0) > 1e-12 or desc.r0 > HALF_PI + 1e-12:
            raise ConstructionError(
                f"{side} factor cone must have k = 1 and r0 <= pi/2 to sit in a curv >= 1 join"
            )
    elif isinstance(desc, Quotient):
        _validate_join_factor(desc.base, side)
    elif isinstance(desc, Ellipsoid):
        raise UnsupportedConstructionError(
            "ellipsoid factors are not supported in joins (no closed-form distance)"
        )
    else:
        raise ConstructionError(f"unsupported {side} join factor: {desc!r}")


def _validate_cone_base(desc):
    if isinstance(desc, Sphere):
        if desc.radius > 1.0 + 1e-12:
            raise ConstructionError(
                f"cone base sphere radius must be <= 1 (diameter <= pi), got {desc.radius}"
            )
    elif isinstance(desc, (Interval, Join, Suspension)):
        pass
    elif isinstance(desc, Quotient):
        _validate_cone_base(desc.base)
    elif isinstance(desc, Ellipsoid):
        raise UnsupportedConstructionError("ellipsoid cone bases are not supported")
    elif isinstance(desc, Cone):
        raise UnsupportedConstructionError("iterated cones are not supported")
    else:
        raise ConstructionError(f"unsupported cone base: {desc!r}")


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def space_dim(space) -> int:
    """Topological dimension of the described space."""
    if isinstance(space, Sphere):
        return space.dim
    if isinstance(space, Interval):
        return 1
    if isinstance(space, Ellipsoid):
        return 2
    if isinstance(space, Join):
        return space_dim(space.left) + space_dim(space.right) + 1
    if isinstance(space, (Cone, Suspension)):
        return space_dim(space.base) + 1
    if isinstance(space, Quotient):
        return space_dim(space.base)
    raise ConstructionError(f"unknown descriptor {space!r}")


def has_boundary(space) -> bool:
    if isinstance(space, (Sphere, Ellipsoid)):
        return False
    if isinstance(space, Interval):
        return True
    if isinstance(space, Join):
        return has_boundary(space.left) or has_boundary(space.right)
    if isinstance(space, Cone):
        return True  # the cap t = r0 (plus any base boundary)
    if isinstance(space, Suspension):
        return has_boundary(space.base)
    if isinstance(space, Quotient):
        return has_boundary(space.base)
    raise ConstructionError(f"unknown descriptor {space!r}")


def diameter_bound(space) -> float:
    """Cheap upper bound for the diameter, used for argument validation."""
    if isinstance(space, Sphere):
        return PI * space.radius
    if isinstance(space, Interval):
        return space.length
    if isinstance(space, Ellipsoid):
        return PI * max(space.a, space.b, space.c)
    if isinstance(space, (Join, Suspension)):
        return PI
    if isinstance(space, Cone):
        return PI / math.sqrt(space.k) if space.k > 0 else 2.0 * space.r0
    if isinstance(space, Quotient):
        return diameter_bound(space.base)
    raise ConstructionError(f"unknown descriptor {space!r}")


# ---------------------------------------------------------------------------
# scalar distance operations
# ---------------------------------------------------------------------------

_UNIT_TOL = 1e-12


def vector_norm(v) -> float:
    """Euclidean norm of a 1-D float array: np.linalg.norm's own formula, without its overhead."""
    return math.sqrt(float(v.dot(v)))


def check_unit_rows(rows, error=DomainError):
    """Raise `error` unless every row is a unit vector to within `_UNIT_TOL`.

    A loop: most packs are one row (scalar queries), where numpy's per-call
    overhead costs several times `vector_norm`.
    """
    for row in rows:
        nrm = vector_norm(row)
        if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise error(f"sphere point {row.tolist()} is not a unit vector (|x| = {nrm!r})")


def sn_k(k: float, t: float) -> float:
    """The curvature-k sine: sin(sqrt(k) t)/sqrt(k), t for k = 0, sinh(sqrt(-k) t)/sqrt(-k)."""
    if k == 0.0:
        return t
    if k > 0.0:
        s = math.sqrt(k)
        return math.sin(s * t) / s
    s = math.sqrt(-k)
    return math.sinh(s * t) / s


def sphere_distance(u, v, radius: float = 1.0) -> float:
    """Great-circle distance radius * arccos(<u, v>) between unit vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, w in (("u", u), ("v", v)):
        nrm = vector_norm(w)
        if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise DomainError(f"sphere point {name} = {w.tolist()} is not a unit vector (|{name}| = {nrm!r})")
    if not radius > 0.0:
        raise DomainError(f"sphere radius must be positive, got {radius}")
    return radius * clamped_arccos(float(np.dot(u, v)))


def interval_distance(s: float, t: float, length: float) -> float:
    """|s - t| with a domain check against [0, length]."""
    for name, x in (("s", s), ("t", t)):
        if not (-1e-12 <= x <= length + 1e-12):
            raise DomainError(f"interval coordinate {name} = {x} outside [0, {length}]")
    return abs(float(s) - float(t))


def join_distance(p, q, left_metric, right_metric) -> float:
    """Join distance: cos d = cos t1 cos t2 cos dL + sin t1 sin t2 cos dR.

    Factor distances are clamped at pi before taking cosines so a sloppy
    base metric cannot push the law of cosines outside its domain.
    """
    x1, t1, y1 = p
    x2, t2, y2 = q
    for name, t in (("t1", t1), ("t2", t2)):
        if not (-1e-12 <= t <= HALF_PI + 1e-12):
            raise DomainError(f"join latitude {name} = {t} outside [0, pi/2]")
    dl = min(float(left_metric(x1, x2)), PI)
    dr = min(float(right_metric(y1, y2)), PI)
    c = math.cos(t1) * math.cos(t2) * math.cos(dl) + math.sin(t1) * math.sin(t2) * math.cos(dr)
    return clamped_arccos(c)


def cone_distance(k: float, p, q, base_metric, r0: float) -> float:
    """Law-of-cosines distance in the curvature-k cone with cap r0."""
    t0, y0 = p
    t1, y1 = q
    if k > 0.0 and r0 > HALF_PI / math.sqrt(k) + 1e-12:
        raise ConstructionError(f"cone with k={k} requires r0 <= pi/(2*sqrt(k))")
    for name, t in (("t0", t0), ("t1", t1)):
        if not (-1e-12 <= t <= r0 + 1e-12):
            raise DomainError(f"cone radial coordinate {name} = {t} outside [0, {r0}]")
    theta = min(float(base_metric(y0, y1)), PI)
    return _cone_law(k, float(t0), float(t1), math.cos(theta))


def _cone_law(k: float, t0: float, t1: float, ctheta: float) -> float:
    if k == 0.0:
        v = t0 * t0 + t1 * t1 - 2.0 * t0 * t1 * ctheta
        return math.sqrt(max(v, 0.0))
    if k > 0.0:
        s = math.sqrt(k)
        c = math.cos(s * t0) * math.cos(s * t1) + math.sin(s * t0) * math.sin(s * t1) * ctheta
        return clamped_arccos(c) / s
    s = math.sqrt(-k)
    c = math.cosh(s * t0) * math.cosh(s * t1) - math.sinh(s * t0) * math.sinh(s * t1) * ctheta
    return clamped_arccosh(c) / s


def suspension_distance(p, q, base_metric) -> float:
    """Suspension distance via colatitudes: cos d = cos u1 cos u2 + sin sin cos dY."""
    u1, y1 = p
    u2, y2 = q
    for name, u in (("u1", u1), ("u2", u2)):
        if not (-1e-12 <= u <= PI + 1e-12):
            raise DomainError(f"suspension colatitude {name} = {u} outside [0, pi]")
    theta = min(float(base_metric(y1, y2)), PI)
    c = math.cos(u1) * math.cos(u2) + math.sin(u1) * math.sin(u2) * math.cos(theta)
    return clamped_arccos(c)


def quotient_distance(base_metric, action, x, y) -> float:
    """min over group elements g of d(x, g y)."""
    elements = getattr(action, "elements", None)
    if not elements:
        raise ConstructionError("quotient distance requires a nonempty group element list")
    return min(float(base_metric(x, g.apply_point(y))) for g in elements)


def lens_distance(n: int, alpha: float, p, q) -> float:
    """Distance in the lens L_alpha^n via its join coordinates."""
    return distance(Lens(n, alpha), p, q)


def double_join(space):
    """Double of a join-with-interval space: the interval closes into a circle.

    D(A * I_len) = A * S^1(len/pi), a circle of circumference 2*len.  A bare
    interval doubles to the circle itself.  Anything else is rejected: gluing
    along a general boundary is a different algorithm class.
    """
    if isinstance(space, Interval):
        return Sphere(1, space.length / PI)
    if isinstance(space, Join) and isinstance(space.right, Interval):
        return Join(space.left, Sphere(1, space.right.length / PI))
    raise UnsupportedConstructionError(
        "doubling is implemented only for intervals and join-with-interval spaces"
    )


def distance(space, p, q) -> float:
    """Generic scalar distance dispatcher for closed-form descriptors."""
    if isinstance(space, Sphere):
        return sphere_distance(p, q, space.radius)
    if isinstance(space, Interval):
        return interval_distance(p, q, space.length)
    if isinstance(space, Join):
        return join_distance(
            p, q, lambda a, b: distance(space.left, a, b), lambda a, b: distance(space.right, a, b)
        )
    if isinstance(space, Cone):
        return cone_distance(space.k, p, q, lambda a, b: distance(space.base, a, b), space.r0)
    if isinstance(space, Suspension):
        return suspension_distance(p, q, lambda a, b: distance(space.base, a, b))
    if isinstance(space, Quotient):
        if _rotation_order(space) is None:
            return quotient_distance(lambda a, b: distance(space.base, a, b), space.action, p, q)
        validate_point(space.base, p)
        validate_point(space.base, q)
        A, B = pack_points(space.base, [p]), pack_points(space.base, [q])
        return float(rotation_quotient_distance(space, A, B, cross=False)[0])
    if isinstance(space, Ellipsoid):
        from .nets import ellipsoid_distance

        return ellipsoid_distance(p, q, space.a, space.b, space.c)
    raise ConstructionError(f"unknown descriptor {space!r}")


def points_equal(space, p, q, tol: float = 1e-12) -> bool:
    """Metric equality of points (handles degenerate coordinates)."""
    return distance(space, p, q) <= tol


def validate_point(space, p):
    """Raise DomainError when p violates the descriptor's coordinate domain."""
    if isinstance(space, Sphere):
        v = np.asarray(p, dtype=float)
        if v.shape != (space.ambient_dim,):
            raise DomainError(f"sphere point must have {space.ambient_dim} components, got {v.shape}")
        check_unit_rows([v])
    elif isinstance(space, Interval):
        if not (-1e-12 <= p <= space.length + 1e-12):
            raise DomainError(f"interval coordinate {p} outside [0, {space.length}]")
    elif isinstance(space, Ellipsoid):
        v = np.asarray(p, dtype=float)
        lvl = float(np.sum((v / space.axes) ** 2))
        if not abs(lvl - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"point {v.tolist()} is off the ellipsoid surface (level {lvl!r})")
    elif isinstance(space, Join):
        x, t, y = p
        if not (-1e-12 <= t <= HALF_PI + 1e-12):
            raise DomainError(f"join latitude {t} outside [0, pi/2]")
        validate_point(space.left, x)
        validate_point(space.right, y)
    elif isinstance(space, Cone):
        t, y = p
        if not (-1e-12 <= t <= space.r0 + 1e-12):
            raise DomainError(f"cone radial coordinate {t} outside [0, {space.r0}]")
        validate_point(space.base, y)
    elif isinstance(space, Suspension):
        u, y = p
        if not (-1e-12 <= u <= PI + 1e-12):
            raise DomainError(f"suspension colatitude {u} outside [0, pi]")
        validate_point(space.base, y)
    elif isinstance(space, Quotient):
        validate_point(space.base, p)
    else:
        raise ConstructionError(f"unknown descriptor {space!r}")


def boundary_distance(space, p) -> float:
    """Analytic distance to the boundary (cones, so model balls, and lenses only)."""
    if isinstance(space, Cone):
        if has_boundary(space.base):
            raise UnsupportedConstructionError(
                "analytic boundary distance supports cones over boundaryless bases only"
            )
        t, _ = p
        return space.r0 - float(t)
    if isinstance(space, Lens):
        _, t, s = p
        return _lens_boundary_distance(float(t), float(s), space.alpha)
    raise UnsupportedConstructionError(
        f"no analytic boundary distance for {type(space).__name__}"
    )


def _lens_boundary_distance(t: float, s: float, alpha: float) -> float:
    # distance to the face at gap ds is arcsin(sin t sin ds) while the foot
    # stays interior (ds <= pi/2); beyond that the rim (t' = 0) is closest.
    def face(ds: float) -> float:
        if ds >= HALF_PI:
            return t
        return math.asin(min(1.0, math.sin(t) * math.sin(ds)))

    return min(face(s), face(alpha - s))


# ---------------------------------------------------------------------------
# packed coordinates and vectorized cross-distances
# ---------------------------------------------------------------------------


@dataclass
class JoinCoords:
    left: object
    t: np.ndarray
    right: object


@dataclass
class ConeCoords:
    t: np.ndarray
    base: object


@dataclass
class SuspCoords:
    u: np.ndarray
    base: object


def pack_points(space, points):
    """Pack a list of scalar points into column arrays for vectorized work."""
    if isinstance(space, (Sphere, Ellipsoid)):
        width = space.ambient_dim if isinstance(space, Sphere) else 3
        rows = [np.asarray(p, dtype=float) for p in points]
        packed = np.asarray(rows, dtype=float).reshape(len(points), width)
        if isinstance(space, Sphere):
            check_unit_rows(packed)
        return packed
    if isinstance(space, Interval):
        return np.asarray([float(p) for p in points], dtype=float)
    if isinstance(space, Join):
        return JoinCoords(
            left=pack_points(space.left, [p[0] for p in points]),
            t=np.asarray([float(p[1]) for p in points], dtype=float),
            right=pack_points(space.right, [p[2] for p in points]),
        )
    if isinstance(space, (Cone, Suspension)):
        record = ConeCoords if isinstance(space, Cone) else SuspCoords
        radial = np.asarray([float(p[0]) for p in points], dtype=float)
        return record(radial, pack_points(space.base, [p[1] for p in points]))
    if isinstance(space, Quotient):
        return pack_points(space.base, points)
    raise ConstructionError(f"unknown descriptor {space!r}")


def _parts(coords) -> list:
    """The fields of a coordinate record, in the order of the point tuple."""
    return [getattr(coords, f.name) for f in fields(coords)]


def coords_len(coords) -> int:
    """Number of packed points; the fields of a record must agree on it."""
    if not is_dataclass(coords):
        return int(np.asarray(coords).shape[0])
    lengths = {coords_len(part) for part in _parts(coords)}
    if len(lengths) != 1:
        raise ConstructionError(
            f"packed {type(coords).__name__} coordinates disagree in length: {sorted(lengths)}"
        )
    return lengths.pop()


def coords_take(coords, idx):
    """Sub-select packed coordinates by an index array or slice."""
    if not is_dataclass(coords):
        return np.asarray(coords)[idx]
    return type(coords)(*(coords_take(part, idx) for part in _parts(coords)))


def coords_concat(parts):
    """Packed coordinates of `parts`, one after the other."""
    first = parts[0]
    if not is_dataclass(first):
        return np.concatenate([np.asarray(p) for p in parts], axis=0)
    return type(first)(*(coords_concat([getattr(p, f.name) for p in parts]) for f in fields(first)))


def unpack_point(coords, i: int):
    """Point i as `pack_points` takes it: a float, a row, or a tuple of its record's fields."""
    if is_dataclass(coords):
        return tuple(unpack_point(part, i) for part in _parts(coords))
    return float(coords[i]) if coords.ndim == 1 else coords[i]


def coords_flat(coords) -> np.ndarray:
    """Packed coordinates as one flat array, the fields of a record in order."""
    if not is_dataclass(coords):
        return np.asarray(coords, dtype=float).ravel()
    return np.concatenate([coords_flat(part) for part in _parts(coords)])


def _pairs(a, b, cross: bool):
    """(a[:, None], b[None, :]) for a cross block, else (a, b) for paired rows."""
    return (a[:, None], b[None, :]) if cross else (a, b)


def _inner(A, B, cross: bool) -> np.ndarray:
    """Inner products of rows: the block A B^T when `cross`, else of paired rows."""
    return A @ B.T if cross else np.einsum("ij,ij->i", A, B)


def _trig_pairs(a, b, cross: bool):
    """(cos a cos b, sin a sin b), paired as `_pairs` pairs them."""
    ca, cb = _pairs(np.cos(a), np.cos(b), cross)
    sa, sb = _pairs(np.sin(a), np.sin(b), cross)
    return ca * cb, sa * sb


def cross_distance(space, A, B) -> np.ndarray:
    """Pairwise distance matrix (len(A), len(B)) between packed coordinate sets.

    A composite tree whose every node is `gram_embeddable` is one matrix
    product and one arccos; any other tree goes factor by factor.
    """
    return _distance(space, A, B, cross=True)


def elementwise_distance(space, A, B) -> np.ndarray:
    """Distances between paired packed coordinates (equal lengths)."""
    return _distance(space, A, B, cross=False)


def _distance(space, A, B, cross: bool) -> np.ndarray:
    """`cross_distance` when `cross`, else `elementwise_distance`: the Gram
    kernel at the root only, so that subtrees keep their formulas."""
    if isinstance(space, Quotient):
        if cross:
            return _quotient_cross(space, A, B)
        return _orbit_minimum(space, A, B, cross=False, gram=True)
    if _gram_root(space):
        return _arccos_in_place(_inner(gram_embedding(space, A), gram_embedding(space, B), cross))
    return _formula(space, A, B, cross)


def _formula(space, A, B, cross: bool) -> np.ndarray:
    """`_distance` by the per-factor laws of cosines, at every level.

    A suspension is the k = 1 cone law in its colatitude, since
    cos u1 cos u2 + sin u1 sin u2 cos theta is that law with sqrt(k) = 1.
    """
    if isinstance(space, Sphere):
        return space.radius * clamped_arccos(_inner(np.atleast_2d(A), np.atleast_2d(B), cross))
    if isinstance(space, Interval):
        a, b = _pairs(np.asarray(A, dtype=float), np.asarray(B, dtype=float), cross)
        return np.abs(a - b)
    if isinstance(space, Join):
        cl = np.cos(np.minimum(_formula(space.left, A.left, B.left, cross), PI))
        cr = np.cos(np.minimum(_formula(space.right, A.right, B.right, cross), PI))
        cc, ss = _trig_pairs(A.t, B.t, cross)
        return clamped_arccos(cc * cl + ss * cr)
    if isinstance(space, (Cone, Suspension)):
        ctheta = np.cos(np.minimum(_formula(space.base, A.base, B.base, cross), PI))
        k, ta, tb = (space.k, A.t, B.t) if isinstance(space, Cone) else (1.0, A.u, B.u)
        return _cone_law_array(k, *_pairs(ta, tb, cross), ctheta)
    if isinstance(space, Quotient):
        if cross:
            return _quotient_cross(space, A, B, gram=False)
        return _orbit_minimum(space, A, B, cross=False, gram=False)
    if isinstance(space, Ellipsoid):
        raise UnsupportedConstructionError(
            "ellipsoid distances require a net-backed geodesic engine, not a closed form"
        )
    raise ConstructionError(f"unknown descriptor {space!r}")


def _cone_law_array(k: float, ta, tb, ctheta) -> np.ndarray:
    """Curvature-k law of cosines; ta and tb broadcast against ctheta."""
    if k == 0.0:
        v = ta**2 + tb**2 - 2.0 * (ta * tb) * ctheta
        return np.sqrt(np.maximum(v, 0.0))
    if k > 0.0:
        s = math.sqrt(k)
        c = np.cos(s * ta) * np.cos(s * tb) + np.sin(s * ta) * np.sin(s * tb) * ctheta
        return clamped_arccos(c) / s
    s = math.sqrt(-k)
    c = np.cosh(s * ta) * np.cosh(s * tb) - np.sinh(s * ta) * np.sinh(s * tb) * ctheta
    return clamped_arccosh(c) / s


def _quotient_cross(space: Quotient, A, B, gram: bool = True) -> np.ndarray:
    """`cross_distance` of a quotient; perfbench's quotient-kernel span wraps this name."""
    return _orbit_minimum(space, A, B, cross=True, gram=gram)


def _orbit_minimum(space: Quotient, A, B, cross: bool, gram: bool) -> np.ndarray:
    """min over the group of d(x, g y): the (len(A), len(B)) matrix when `cross`,
    else the distances of paired rows.

    With `gram` and a `gram_embeddable` base, the largest product
    <E(x), E(g y)> is taken first and its arccos once; otherwise each
    element's distances come from the per-factor formulas.
    """
    if _rotation_order(space) is not None:
        return rotation_quotient_distance(space, A, B, cross=cross)
    base = space.base
    moved = (g.apply(B) for g in space.action.elements)
    if gram and gram_embeddable(base):
        EA = gram_embedding(base, A)
        best = None
        for gB in moved:
            c = _inner(EA, gram_embedding(base, gB), cross)
            best = c if best is None else np.maximum(best, c, out=best)
        return _arccos_in_place(best)
    best = None
    for gB in moved:
        d = _formula(base, A, gB, cross)
        best = d if best is None else np.minimum(best, d, out=best)
    return best


# ---------------------------------------------------------------------------
# Gram embedding
#
# A unit sphere (x -> x), an interval of length <= pi (a -> (cos a, sin a)),
# joins (cos t E_L, sin t E_R), and suspensions and k = 1 cones over such
# pieces (cos u, sin u E_B) sit isometrically in one unit sphere, because
# S^p * S^q = S^(p+q+1): each law of cosines above is the inner product of
# the embedded points.  On such a tree cos d(x, y) = <E(x), E(y)> exactly in
# real arithmetic, so a distance block is one matrix product and one arccos
# in place of an arccos and a cosine per level.  A radius other than 1, a
# k != 1 cone or a quotient factor has no such form and keeps the formulas.
# ---------------------------------------------------------------------------


def gram_embeddable(space) -> bool:
    """Whether every node of `space` has a unit Gram embedding (see `gram_embedding`)."""
    if isinstance(space, Sphere):
        return space.radius == 1.0
    if isinstance(space, Interval):
        return space.length <= PI  # |a - b| <= pi, so arccos(cos |a - b|) gives it back
    if isinstance(space, Join):
        return gram_embeddable(space.left) and gram_embeddable(space.right)
    if isinstance(space, Suspension):
        return gram_embeddable(space.base)
    if isinstance(space, Cone):
        return space.k == 1.0 and gram_embeddable(space.base)
    return False


def _gram_root(space) -> bool:
    """Whether `cross_distance`/`elementwise_distance` take the Gram kernel at `space`.

    A bare sphere already is one product and an interval one subtraction,
    so only composite trees change path.
    """
    return not isinstance(space, (Sphere, Interval)) and gram_embeddable(space)


def gram_embedding(space, coords) -> np.ndarray:
    """Unit rows E(x), one per packed point, with cos d(x, y) = <E(x), E(y)>.

    `space` must be `gram_embeddable`.
    """
    if isinstance(space, Sphere):
        return np.atleast_2d(np.asarray(coords, dtype=float))
    if isinstance(space, Interval):
        a = np.asarray(coords, dtype=float)
        return np.stack([np.cos(a), np.sin(a)], axis=1)
    if isinstance(space, Join):
        return _latitude_join(
            coords.t, gram_embedding(space.left, coords.left), gram_embedding(space.right, coords.right)
        )
    # a k = 1 cone or a suspension is the join of a point with its base
    u = coords.t if isinstance(space, Cone) else coords.u
    return _latitude_join(u, np.ones((u.shape[0], 1)), gram_embedding(space.base, coords.base))


def _latitude_join(t, EL, ER) -> np.ndarray:
    """Rows (cos t EL, sin t ER)."""
    w = EL.shape[1]
    out = np.empty((t.shape[0], w + ER.shape[1]))
    np.multiply(np.cos(t)[:, None], EL, out=out[:, :w])
    np.multiply(np.sin(t)[:, None], ER, out=out[:, w:])
    return out


# ---------------------------------------------------------------------------
# closed-form orbit minimum for cyclic rotation actions
#
# Rotating the unit circle S^1, or S^3 by the Hopf phase, by theta turns
# <x, g y> into Re(e^{i theta} H), H = sum_k conj(x_k) y_k over the complex
# coordinates.  Joins, k = 1 cones and suspensions mix the cosines of their
# factors linearly with nonnegative weights, so the cosine term of the whole
# tree is C + Re(e^{i theta} H) = C + |H| cos(theta - psi), and a cone of any
# k at the root is monotone in its base's term.  Over theta in 2 pi Z / m the
# best term is C + |H| cos(delta), delta the distance from psi to the lattice.
# ---------------------------------------------------------------------------


def _rotation_order(space: Quotient):
    """m when the quotient's action is a closed-form Z_m rotation, else None."""
    m = space.action.rotation_order
    return None if m is None or space.action.space != space.base else m


def rotation_quotient_distance(space: Quotient, A, B, cross: bool) -> np.ndarray:
    """Orbit-minimal distances of a Z_m rotation quotient in one evaluation.

    The quotient's action must have a `rotation_order` (see
    `actions.GroupAction.rotation_order`).  `cross` gives the (len(A),
    len(B)) matrix, otherwise the distances of paired rows.
    """
    base = space.base
    cone = base if isinstance(base, Cone) else None
    if cone is None:
        C, Hr, Hi = _rotation_terms(base, A, B, cross)
    else:
        C, Hr, Hi = _rotation_terms(cone.base, A.base, B.base, cross)
    # C + |H| cos(delta) = C + Re(e^{i theta_k} H) at the lattice angle
    # theta_k = k * step nearest to -arg H, with cos/sin of theta_k from a table
    m = space.action.rotation_order
    step = 2.0 * PI / m
    half = m // 2 + 1
    angles = np.arange(-half, half + 1) * step
    k = np.arctan2(Hi, Hr)
    k *= -1.0 / step
    k = np.rint(k, out=k).astype(np.intp)
    k += half
    best = np.take(np.cos(angles), k)
    best *= Hr
    sin_part = np.take(np.sin(angles), k, out=Hr)  # Hr's buffer is free now
    sin_part *= Hi
    best -= sin_part
    best += C
    if cone is None:
        return clamped_arccos(best)
    np.minimum(np.maximum(best, -1.0, out=best), 1.0, out=best)  # a cosine, as the cone law expects
    return _cone_law_array(cone.k, *_pairs(A.t, B.t, cross), best)


def _rotation_terms(space, A, B, cross: bool):
    """(C, Hr, Hi): the cosine term of `space` is C + Re(e^{i theta} (Hr + i Hi))."""
    if isinstance(space, Sphere):
        A2, B2 = np.atleast_2d(A), np.atleast_2d(B)
        Bi = np.empty_like(B2)  # Im(conj(a) b) = <a, Bi> for each complex coordinate
        Bi[:, 0::2] = B2[:, 1::2]
        Bi[:, 1::2] = -B2[:, 0::2]
        return 0.0, _inner(A2, B2, cross), _inner(A2, Bi, cross)
    if isinstance(space, Join):
        CL, HrL, HiL = _rotation_terms(space.left, A.left, B.left, cross)
        CR, HrR, HiR = _rotation_terms(space.right, A.right, B.right, cross)
        cc, ss = _trig_pairs(A.t, B.t, cross)
        return cc * CL + ss * CR, cc * HrL + ss * HrR, cc * HiL + ss * HiR
    if isinstance(space, (Cone, Suspension)):  # k = 1 cone or suspension: same law
        ua, ub = (A.t, B.t) if isinstance(space, Cone) else (A.u, B.u)
        Cb, Hr, Hi = _rotation_terms(space.base, A.base, B.base, cross)
        cc, ss = _trig_pairs(ua, ub, cross)
        return cc + ss * Cb, ss * Hr, ss * Hi
    raise ConstructionError(f"no closed-form rotation term for {type(space).__name__}")


# matrix entries per block of every pass over an n-column matrix: each row
# block of `self_distance_matrix` and the kernel temporaries it spawns (a
# dozen per block on the rotation-quotient path) stay a few MB, whatever n is
BLOCK_ENTRIES = 2**17


def row_block(n: int) -> int:
    """Rows per block of a pass over a matrix with `n` columns."""
    return max(1, BLOCK_ENTRIES // max(n, 1))


def self_distance_matrix(space, coords, block: int | None = None) -> np.ndarray:
    """Full symmetric distance matrix, each unordered pair evaluated once.

    Row block [s, e) is evaluated against the columns s: only, written to
    D[s:e, s:] and mirrored into D[s:, s:e], so the kernel sees about
    n(n + block)/2 pairs and memory stays at the n x n result.  `block`
    defaults to `row_block(n)` rows.
    """
    n = coords_len(coords)
    if block is None:
        block = row_block(n)
    D = np.empty((n, n), dtype=float)
    for s in range(0, n, block):
        e = min(s + block, n)
        R = cross_distance(space, coords_take(coords, slice(s, e)), coords_take(coords, slice(s, n)))
        # canonicalize the square diagonal block, the only place where both
        # orientations are evaluated: quotient factors may round differently
        # across the diagonal (d(x, gy) vs d(y, g^-1 x) evaluate in different
        # orders), and the true matrix is symmetric with a zero diagonal
        sq = R[:, : e - s]
        sq[...] = np.minimum(sq, sq.T)
        D[s:e, s:] = R
        D[s:, s:e] = R.T
    np.fill_diagonal(D, 0.0)
    return D
