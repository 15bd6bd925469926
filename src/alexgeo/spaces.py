"""Space descriptors and their closed-form distance functions.

A descriptor is an immutable, recursive description of a metric space:
primitive factors (round spheres, intervals, ellipsoid surfaces) and
composite constructions (spherical join, curvature-k cone, suspension,
finite isometric quotient).  A lens is a join and a model ball a cone, so
they share every formula, sampler and codec of their construction; only
their boundary faces and their JSON are their own.  Every descriptor except
the ellipsoid evaluates distances by an explicit formula; the ellipsoid is
handled by a graph geodesic engine built on a surface net (see
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

The descriptor protocol.  Every kind subclasses `SpaceDescriptor` and
answers for itself, recursing into its factors: ``dim``, ``has_boundary()``,
``diameter_bound()``, the factor checks ``check_join_factor(side)`` and
``check_cone_base()``; scalar ``distance(p, q)``, ``pack(points)``,
``check_coords(coords, error)``, ``random_points(n, rng)`` and
``canonical_point()``; the net grid ``net_grid(eps, phase)`` and its size
``net_count(eps)``, which `nets.epsilon_net` reads before it builds the
grid (every kind but the ellipsoid); the kernels ``kernel(A, B, cross)``
(the root of `cross_distance` and `elementwise_distance`),
``formula(A, B, cross)`` (the per-factor laws), ``gram_embeddable()``,
``gram_embedding(coords)``, ``gram_operands(A, B)`` (what a Gram root's
kernel multiplies, which `self_distance_matrix` embeds once per matrix)
and, where a Z_m rotation acts, ``rotation_terms(A, B, cross)``; and its
JSON, ``to_json()``.  The module functions (`distance`, `pack_points`,
`cross_distance`, ...) call these methods.  Joins, cones, suspensions and
quotients accept only descriptors as factors.

Gram embedding.  Unit spheres, intervals of length <= pi, and joins,
suspensions and k = 1 cones built from them (so lenses and k = 1 model
balls too) are convex pieces of one unit sphere, since S^p * S^q =
S^(p+q+1).  ``gram_embedding`` maps their packed points to unit rows E(x)
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
ellipsoid points.  A record (`JoinCoords`, `ConeCoords`, `SuspCoords`) is a
dataclass whose fields are packed coordinates of one common length, in the
order of the point tuple.  Lenses and model balls are joins and cones, so
they pack as `JoinCoords` and `ConeCoords`; quotients reuse the coordinates
of their base.  Since each record carries its own layout, `coords_len`,
`coords_take`, `coords_concat`, `unpack_point` and `coords_flat` recurse on
the coordinates alone and need no descriptor.

The domain check.  ``check_coords`` is the one test of a point's domain:
leaf shapes (1-D values; rows as wide as the sphere's ambient space, or 3 on
the ellipsoid), unit sphere rows and ellipsoid rows on the surface, and the
interval, join latitude, cone radial and suspension colatitude values in
their closed ranges (to within 1e-12; NaN fails).  `pack_points`, so
`validate_point`, raises DomainError from it, and
`serialize.coords_from_json`, so `serialize.read_net`, ConstructionError.
A one-point leaf is tested by plain comparisons, a longer one by one numpy
reduction; the error names the first bad value either way.  The scalar
distance laws test their own values and raise DomainError too, for a value
out of range or one that is no number.
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
# scalar helpers, the checks of packed coordinates, scalar distance formulas
# ---------------------------------------------------------------------------

_UNIT_TOL = 1e-12


def vector_norm(v) -> float:
    """Euclidean norm of a 1-D float array: np.linalg.norm's own formula, without its overhead."""
    return math.sqrt(float(v.dot(v)))


def _check_leaf(leaf, what: str, error, width: int | None = None) -> np.ndarray:
    """`leaf` if it is 1-D, or with `width` 2-D with rows of that many numbers."""
    if leaf.ndim != (1 if width is None else 2) or (width is not None and leaf.shape[1] != width):
        wanted = "a list of numbers" if width is None else f"rows of {width} numbers"
        raise error(f"{what} coordinates must be {wanted}, got shape {leaf.shape}")
    return leaf


def _check_values(leaf, hi: float, what: str, error):
    """Raise `error` unless `leaf` is 1-D with every value in [0, hi] to within 1e-12.

    A one-value leaf (a scalar query) is tested by a comparison, where a
    numpy reduction would cost several times as much; a longer one by one
    reduction.  Either way the error names the first bad value.
    """
    values = _check_leaf(leaf, what, error)
    if values.shape[0] > 1:
        inside = (values >= -1e-12) & (values <= hi + 1e-12)  # NaN fails too
        if inside.all():
            return
        values = values[np.argmin(inside):]
    for x in values.tolist():
        if not -1e-12 <= x <= hi + 1e-12:
            raise error(f"{what} coordinate {x} outside [0, {hi}]")


def _stack_rows(points, width: int) -> np.ndarray:
    """Vector points as the rows of one array; no points give a (0, width) array."""
    rows = [np.asarray(p, dtype=float) for p in points]
    if len({r.shape for r in rows}) > 1:
        raise DomainError(f"points of one factor differ in shape: {sorted({r.shape for r in rows})}")
    return np.asarray(rows, dtype=float) if rows else np.empty((0, width))


def _columns(points, k: int) -> list:
    """The k coordinate sequences of points that are k-tuples."""
    try:
        cols = list(zip(*points, strict=True)) if len(points) else [()] * k
    except (TypeError, ValueError):  # a point that is no tuple, or tuples of two lengths
        cols = []
    if len(cols) != k:
        raise DomainError(f"points of this space must be tuples of {k} coordinates")
    return cols


def _float_leaf(values) -> np.ndarray:
    """Scalar coordinates as a 1-D float array; a value that is no number is a DomainError."""
    try:
        return np.asarray([float(x) for x in values], dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"scalar coordinates must be numbers: {exc}") from None


def sn_k(k: float, t: float) -> float:
    """The curvature-k sine: sin(sqrt(k) t)/sqrt(k), t for k = 0, sinh(sqrt(-k) t)/sqrt(-k)."""
    if k == 0.0:
        return t
    if k > 0.0:
        s = math.sqrt(k)
        return math.sin(s * t) / s
    s = math.sqrt(-k)
    return math.sinh(s * t) / s


def _sn(k: float, t):
    """`sn_k` on arrays."""
    if k == 0.0:
        return np.asarray(t, dtype=float)
    if k > 0.0:
        s = math.sqrt(k)
        return np.sin(s * np.asarray(t, dtype=float)) / s
    s = math.sqrt(-k)
    return np.sinh(s * np.asarray(t, dtype=float)) / s


def _rejection_sample(rng, n, lo, hi, weight):
    out = np.empty(n)
    got = 0
    while got < n:
        cand = rng.uniform(lo, hi, 2 * (n - got) + 8)
        w = weight(cand)
        keep = cand[rng.uniform(0.0, 1.0, cand.shape[0]) * 1.0 <= w]
        take = min(n - got, keep.shape[0])
        out[got : got + take] = keep[:take]
        got += take
    return out


# ---------------------------------------------------------------------------
# net grids: `net_grid(eps, phase)` answers (packed points, boundary flags)
# with covering radius about eps, and `net_count(eps)` its number of points
# in closed form.  Joins, cones and suspensions stack latitude layers whose
# factor grids follow the layer's metric scale, so point density follows the
# volume element; `phase` staggers the circle grids of successive layers.  A
# layered kind's `_layers(eps)` is the one schedule its grid and its count
# read, and `_layer_eps` the one rule for a factor's part of a layer.
# ---------------------------------------------------------------------------

# Fibonacci-lattice covering radius is about _FIB_C / sqrt(N) on the unit
# 2-sphere; calibrated by probe measurement.
_FIB_C = 2.85
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    theta = 2.0 * PI * i / _GOLDEN
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.column_stack([s * np.cos(theta), s * np.sin(theta), z])


def _hopf_layers(e: float) -> list:
    """(eta, n1, n2) per layer of the Hopf lattice at resolution e: n1 x n2 points at each eta."""
    cov = 0.55 * e
    n_t = max(2, math.ceil(HALF_PI / (1.10 * e)) + 1)
    return [(eta, max(1, math.ceil(PI * math.cos(eta) / cov)), max(1, math.ceil(PI * math.sin(eta) / cov)))
            for eta in np.linspace(0.0, HALF_PI, n_t)]


def _hopf_lattice(e: float) -> np.ndarray:
    """Unit S^3 rows at resolution e: eta layers, two staggered circle grids per layer."""
    blocks = []
    for j, (eta, n1, n2) in enumerate(_hopf_layers(e)):
        ce, se = math.cos(eta), math.sin(eta)
        a1 = 2.0 * PI * (np.arange(n1) + (j * _GOLDEN % 1.0)) / n1
        a2 = 2.0 * PI * (np.arange(n2) + (j * _GOLDEN * _GOLDEN % 1.0)) / n2
        A1 = np.repeat(a1, n2)
        A2 = np.tile(a2, n1)
        blocks.append(np.column_stack([ce * np.cos(A1), ce * np.sin(A1), se * np.cos(A2), se * np.sin(A2)]))
    return np.concatenate(blocks, axis=0)


def _layer_eps(space, weight: float, cov: float):
    """The resolution of a factor's part of one layer whose metric scales it by
    `weight`: None where weight * diameter <= 2 cov (the part is the factor's
    canonical point), else cov / weight."""
    return None if weight * space.diameter_bound() <= 2.0 * cov else cov / weight


def _layer(cov: float, space, weight: float, phase: float):
    """A factor's part of one layer: its canonical point or its grid, as `_layer_eps` says."""
    e = _layer_eps(space, weight, cov)
    if e is None:
        return pack_points(space, [space.canonical_point()]), np.zeros(1, dtype=bool)
    return space.net_grid(e, phase)


def _layer_count(cov: float, space, weight: float, phase: float) -> int:
    """The number of points of `_layer(cov, space, weight, phase)`."""
    e = _layer_eps(space, weight, cov)
    return 1 if e is None else space.net_count(e)


def _layered_count(space, eps: float) -> int:
    """`net_count` of a layered kind: the sum over its `_layers(eps)` of the
    products of its factors' part counts."""
    cov, layers = space._layers(eps)
    return sum(math.prod(_layer_count(cov, *part) for part in parts) for _, parts in layers)


def sphere_distance(u, v, radius: float = 1.0) -> float:
    """Great-circle distance radius * arccos(<u, v>) between unit vectors of one length."""
    return _great_circle(u, v, np.shape(u), radius)


def _great_circle(u, v, shape: tuple, radius: float) -> float:
    """`sphere_distance` of two points that must both have `shape`."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, w in (("u", u), ("v", v)):
        if w.shape != shape:
            raise DomainError(f"sphere point {name} must have shape {shape}, got {w.shape}")
        nrm = vector_norm(w)
        if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise DomainError(f"sphere point {name} = {w.tolist()} is not a unit vector (|{name}| = {nrm!r})")
    if not radius > 0.0:
        raise DomainError(f"sphere radius must be positive, got {radius}")
    return radius * clamped_arccos(float(np.dot(u, v)))


def interval_distance(s: float, t: float, length: float) -> float:
    """|s - t| with a domain check against [0, length]."""
    try:
        for name, x in (("s", s), ("t", t)):
            if not (-1e-12 <= x <= length + 1e-12):
                raise DomainError(f"interval coordinate {name} = {x} outside [0, {length}]")
    except TypeError:  # a value that is no number
        raise DomainError(f"interval coordinates must be numbers, got {s!r} and {t!r}") from None
    return abs(float(s) - float(t))


def join_distance(p, q, left_metric, right_metric) -> float:
    """Join distance: cos d = cos t1 cos t2 cos dL + sin t1 sin t2 cos dR.

    Factor distances are clamped at pi before taking cosines so a sloppy
    base metric cannot push the law of cosines outside its domain.
    """
    try:
        x1, t1, y1 = p
        x2, t2, y2 = q
    except (TypeError, ValueError):
        raise DomainError("join points must be tuples of 3 coordinates") from None
    try:
        for name, t in (("t1", t1), ("t2", t2)):
            if not (-1e-12 <= t <= HALF_PI + 1e-12):
                raise DomainError(f"join latitude {name} = {t} outside [0, pi/2]")
    except TypeError:  # a latitude that is no number
        raise DomainError(f"join latitudes must be numbers, got {t1!r} and {t2!r}") from None
    dl = min(float(left_metric(x1, x2)), PI)
    dr = min(float(right_metric(y1, y2)), PI)
    c = math.cos(t1) * math.cos(t2) * math.cos(dl) + math.sin(t1) * math.sin(t2) * math.cos(dr)
    return clamped_arccos(c)


def cone_distance(k: float, p, q, base_metric, r0: float) -> float:
    """Law-of-cosines distance in the curvature-k cone with cap r0."""
    try:
        t0, y0 = p
        t1, y1 = q
    except (TypeError, ValueError):
        raise DomainError("cone points must be tuples of 2 coordinates") from None
    if k > 0.0 and r0 > HALF_PI / math.sqrt(k) + 1e-12:
        raise ConstructionError(f"cone with k={k} requires r0 <= pi/(2*sqrt(k))")
    try:
        for name, t in (("t0", t0), ("t1", t1)):
            if not (-1e-12 <= t <= r0 + 1e-12):
                raise DomainError(f"cone radial coordinate {name} = {t} outside [0, {r0}]")
    except TypeError:  # a radial coordinate that is no number
        raise DomainError(f"cone radial coordinates must be numbers, got {t0!r} and {t1!r}") from None
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
    try:
        u1, y1 = p
        u2, y2 = q
    except (TypeError, ValueError):
        raise DomainError("suspension points must be tuples of 2 coordinates") from None
    try:
        for name, u in (("u1", u1), ("u2", u2)):
            if not (-1e-12 <= u <= PI + 1e-12):
                raise DomainError(f"suspension colatitude {name} = {u} outside [0, pi]")
    except TypeError:  # a colatitude that is no number
        raise DomainError(f"suspension colatitudes must be numbers, got {u1!r} and {u2!r}") from None
    theta = min(float(base_metric(y1, y2)), PI)
    c = math.cos(u1) * math.cos(u2) + math.sin(u1) * math.sin(u2) * math.cos(theta)
    return clamped_arccos(c)


def quotient_distance(base_metric, action, x, y) -> float:
    """min over group elements g of d(x, g y)."""
    elements = getattr(action, "elements", None)
    if not elements:
        raise ConstructionError("quotient distance requires a nonempty group element list")
    return min(float(base_metric(x, g.apply_point(y))) for g in elements)


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


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


class SpaceDescriptor:
    """Base class of every descriptor kind; the module docstring lists what each answers.

    The defaults below are those of the kinds that do not override them.
    """

    def has_boundary(self) -> bool:
        return False

    def diameter_bound(self) -> float:
        """A cheap upper bound for the diameter, used for argument validation."""
        return PI

    def check_join_factor(self, side: str):
        """Raise ConstructionError unless this space may be a join or suspension factor."""

    def check_cone_base(self):
        """Raise ConstructionError unless this space may be a cone base."""

    def gram_embeddable(self) -> bool:
        """Whether every node has a unit Gram embedding (see `gram_embedding`)."""
        return False

    def kernel(self, A, B, cross: bool) -> np.ndarray:
        """`cross_distance` when `cross`, else `elementwise_distance`: the Gram
        kernel at the root only, so that subtrees keep their formulas."""
        operands = self.gram_operands(A, B)
        return self.formula(A, B, cross) if operands is None else _gram_kernel(*operands, cross)

    def gram_operands(self, A, B):
        """(E(A), column sets) when `kernel` is one Gram product (see
        `_gram_kernel`), here the one set E(B); else None."""
        if not self.gram_embeddable():
            return None
        EA = self.gram_embedding(A)
        return EA, [EA if B is A else self.gram_embedding(B)]

    def net_grid(self, eps: float, phase: float = 0.0):
        """(packed points, boundary flags) covering the space to about `eps`."""
        raise self._no_grid()

    def net_count(self, eps: float) -> int:
        """The number of points of `net_grid(eps, phase)`, for any phase, without building it."""
        raise self._no_grid()

    def _no_grid(self) -> ConstructionError:
        return ConstructionError(
            f"no net grid for {type(self).__name__}; ellipsoid nets are built by farthest-point sampling"
        )


def _as_base(name: str):
    """The method `name` of a space that answers it as its `base` does."""
    return lambda self, *args: getattr(self.base, name)(*args)


def _factor(desc, what: str) -> SpaceDescriptor:
    """`desc`, which must be a descriptor, or ConstructionError."""
    if not isinstance(desc, SpaceDescriptor):
        raise ConstructionError(f"{what} must be a space descriptor, got {desc!r}")
    return desc


@dataclass(frozen=True)
class Sphere(SpaceDescriptor):
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

    def diameter_bound(self) -> float:
        return PI * self.radius

    def check_join_factor(self, side: str):
        if not (0.5 - 1e-12 <= self.radius <= 1.0 + 1e-12):
            raise ConstructionError(
                f"{side} factor sphere radius must lie in [1/2, 1] for a curv >= 1 join, "
                f"got {self.radius}"
            )

    def check_cone_base(self):
        if self.radius > 1.0 + 1e-12:
            raise ConstructionError(
                f"cone base sphere radius must be <= 1 (diameter <= pi), got {self.radius}"
            )

    def distance(self, p, q) -> float:
        return _great_circle(p, q, (self.dim + 1,), self.radius)

    def pack(self, points):
        return _stack_rows(points, self.ambient_dim)

    def check_coords(self, coords, error=DomainError):
        # one row (a scalar query) by `vector_norm`, where numpy's per-call
        # overhead costs several times as much; more rows by one reduction,
        # then from the first bad row on as for one row, for the same message
        rows = _check_leaf(coords, "sphere", error, self.ambient_dim)
        if rows.shape[0] > 1:
            unit = np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1.0) <= _UNIT_TOL
            if unit.all():
                return
            rows = rows[np.argmin(unit):]
        for row in rows:
            nrm = vector_norm(row)
            if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
                raise error(f"sphere point {row.tolist()} is not a unit vector (|x| = {nrm!r})")

    def formula(self, A, B, cross: bool) -> np.ndarray:
        return self.radius * clamped_arccos(_inner(np.atleast_2d(A), np.atleast_2d(B), cross))

    def gram_operands(self, A, B):
        return None  # a bare sphere's formula already is one product

    def gram_embeddable(self) -> bool:
        return self.radius == 1.0

    def gram_embedding(self, coords) -> np.ndarray:
        return np.atleast_2d(np.asarray(coords, dtype=float))

    def rotation_terms(self, A, B, cross: bool):
        A2, B2 = np.atleast_2d(A), np.atleast_2d(B)
        Bi = np.empty_like(B2)  # Im(conj(a) b) = <a, Bi> for each complex coordinate
        Bi[:, 0::2] = B2[:, 1::2]
        Bi[:, 1::2] = -B2[:, 0::2]
        return 0.0, _inner(A2, B2, cross), _inner(A2, Bi, cross)

    def random_points(self, n: int, rng):
        v = rng.standard_normal((n, self.ambient_dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return [v[i] for i in range(n)]

    def canonical_point(self):
        e = np.zeros(self.ambient_dim)
        e[0] = 1.0
        return e

    def net_count(self, eps: float) -> int:
        r = self.radius
        if self.dim == 0:
            return 2
        if self.dim == 1:
            return max(3, math.ceil(PI * r / eps))
        if self.dim == 2:
            return max(8, math.ceil((_FIB_C * r / eps) ** 2))
        if self.dim == 3:
            return sum(n1 * n2 for _, n1, n2 in _hopf_layers(eps / r))
        raise ConstructionError(f"no net strategy for Sphere(dim={self.dim}); supported dims are 0..3")

    def net_grid(self, eps: float, phase: float = 0.0):
        n = self.net_count(eps)  # raises above dimension 3
        if self.dim == 0:
            pts = np.array([[1.0], [-1.0]])
        elif self.dim == 1:
            ang = phase + 2.0 * PI * np.arange(n) / n
            pts = np.column_stack([np.cos(ang), np.sin(ang)])
        elif self.dim == 2:
            pts = _fibonacci_sphere(n)
        else:
            pts = _hopf_lattice(eps / self.radius)
        return pts, np.zeros(pts.shape[0], dtype=bool)

    def to_json(self) -> dict:
        return {"kind": "sphere", "dim": self.dim, "radius": self.radius}


@dataclass(frozen=True)
class Interval(SpaceDescriptor):
    """Interval [0, length] with |s - t| distance; length restricted to (0, pi]."""

    length: float
    dim = 1

    def __post_init__(self):
        if not (0.0 < self.length <= PI + 1e-12):
            raise ConstructionError(f"interval length must lie in (0, pi], got {self.length}")
        object.__setattr__(self, "length", float(min(self.length, PI)))

    def has_boundary(self) -> bool:
        return True

    def diameter_bound(self) -> float:
        return self.length

    def distance(self, p, q) -> float:
        return interval_distance(p, q, self.length)

    def pack(self, points):
        return _float_leaf(points)

    def check_coords(self, coords, error=DomainError):
        _check_values(coords, self.length, "interval", error)

    def formula(self, A, B, cross: bool) -> np.ndarray:
        a, b = _pairs(np.asarray(A, dtype=float), np.asarray(B, dtype=float), cross)
        return np.abs(a - b)

    def gram_operands(self, A, B):
        return None  # an interval's formula already is one subtraction

    def gram_embeddable(self) -> bool:
        return self.length <= PI  # |a - b| <= pi, so arccos(cos |a - b|) gives it back

    def gram_embedding(self, coords) -> np.ndarray:
        a = np.asarray(coords, dtype=float)
        return np.stack([np.cos(a), np.sin(a)], axis=1)

    def random_points(self, n: int, rng):
        return [float(x) for x in rng.uniform(0.0, self.length, n)]

    def canonical_point(self):
        return self.length / 2.0

    def net_count(self, eps: float) -> int:
        return max(2, math.ceil(self.length / eps))

    def net_grid(self, eps: float, phase: float = 0.0):
        n = self.net_count(eps)
        flags = np.zeros(n, dtype=bool)
        flags[0] = flags[-1] = True
        return np.linspace(0.0, self.length, n), flags

    def to_json(self) -> dict:
        return {"kind": "interval", "length": self.length}


@dataclass(frozen=True)
class Ellipsoid(SpaceDescriptor):
    """Surface x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 with its intrinsic metric."""

    a: float
    b: float
    c: float
    dim = 2

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

    def diameter_bound(self) -> float:
        return PI * max(self.a, self.b, self.c)

    def check_join_factor(self, side: str):
        raise UnsupportedConstructionError(
            "ellipsoid factors are not supported in joins (no closed-form distance)"
        )

    def check_cone_base(self):
        raise UnsupportedConstructionError("ellipsoid cone bases are not supported")

    def distance(self, p, q) -> float:
        from .nets import ellipsoid_distance

        return ellipsoid_distance(p, q, self.a, self.b, self.c)

    def pack(self, points):
        return _stack_rows(points, 3)

    def check_coords(self, coords, error=DomainError):
        rows = _check_leaf(coords, "ellipsoid", error, 3)
        levels = np.sum((rows / self.axes) ** 2, axis=1)
        for v, lvl in zip(rows, levels.tolist()):
            if not abs(lvl - 1.0) <= 1e-9:  # NaN fails too
                raise error(f"point {v.tolist()} is off the ellipsoid surface (level {lvl!r})")

    def formula(self, A, B, cross: bool) -> np.ndarray:
        raise UnsupportedConstructionError(
            "ellipsoid distances require a net-backed geodesic engine, not a closed form"
        )

    def random_points(self, n: int, rng):
        return [v * self.axes for v in Sphere(2).random_points(n, rng)]

    def canonical_point(self):
        return np.array([self.a, 0.0, 0.0])

    def to_json(self) -> dict:
        return {"kind": "ellipsoid", "a": self.a, "b": self.b, "c": self.c}


@dataclass(frozen=True)
class Join(SpaceDescriptor):
    """Spherical join left * right with the cosine distance formula."""

    left: SpaceDescriptor
    right: SpaceDescriptor

    def __post_init__(self):
        _factor(self.left, "left join factor").check_join_factor("left")
        _factor(self.right, "right join factor").check_join_factor("right")

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim + 1

    def has_boundary(self) -> bool:
        return self.left.has_boundary() or self.right.has_boundary()

    def distance(self, p, q) -> float:
        return join_distance(p, q, self.left.distance, self.right.distance)

    def pack(self, points):
        left, t, right = _columns(points, 3)
        return JoinCoords(self.left.pack(left), _float_leaf(t), self.right.pack(right))

    def check_coords(self, coords, error=DomainError):
        self.left.check_coords(coords.left, error)
        _check_values(coords.t, HALF_PI, "join latitude", error)
        self.right.check_coords(coords.right, error)

    def formula(self, A, B, cross: bool) -> np.ndarray:
        cl = np.cos(np.minimum(self.left.formula(A.left, B.left, cross), PI))
        cr = np.cos(np.minimum(self.right.formula(A.right, B.right, cross), PI))
        cc, ss = _trig_pairs(A.t, B.t, cross)
        return clamped_arccos(cc * cl + ss * cr)

    def gram_embeddable(self) -> bool:
        return self.left.gram_embeddable() and self.right.gram_embeddable()

    def gram_embedding(self, coords) -> np.ndarray:
        EL = self.left.gram_embedding(coords.left)
        return _latitude_join(coords.t, EL, self.right.gram_embedding(coords.right))

    def rotation_terms(self, A, B, cross: bool):
        CL, HrL, HiL = self.left.rotation_terms(A.left, B.left, cross)
        CR, HrR, HiR = self.right.rotation_terms(A.right, B.right, cross)
        cc, ss = _trig_pairs(A.t, B.t, cross)
        return cc * CL + ss * CR, cc * HrL + ss * HrR, cc * HiL + ss * HiR

    def random_points(self, n: int, rng):
        dl, dr = self.left.dim, self.right.dim  # density: the volume element cos^dl(t) sin^dr(t)
        ts = _rejection_sample(rng, n, 0.0, HALF_PI, lambda t: np.cos(t) ** dl * np.sin(t) ** dr)
        ls = self.left.random_points(n, rng)
        rs = self.right.random_points(n, rng)
        return [(ls[i], float(ts[i]), rs[i]) for i in range(n)]

    def canonical_point(self):
        return (self.left.canonical_point(), 0.0, self.right.canonical_point())

    def _layers(self, eps: float):
        """(cov, [(t, parts), ...]): latitude layers, each the product of the
        factors' parts (factor, weight, phase) at scales cos t and sin t."""
        ts = np.linspace(0.0, HALF_PI, max(2, math.ceil(HALF_PI / (1.10 * eps)) + 1))
        return 0.55 * eps, [
            (t, ((self.left, math.cos(t), j * _GOLDEN), (self.right, math.sin(t), j * _GOLDEN * _GOLDEN)))
            for j, t in enumerate(ts)
        ]

    net_count = _layered_count

    def net_grid(self, eps: float, phase: float = 0.0):
        # the layer t = 0 (the left factor) lies in left * boundary(right),
        # the layer t = pi/2 in boundary(left) * right
        cov, layers = self._layers(eps)
        parts, flags = [], []
        for j, (t, factors) in enumerate(layers):
            (lc, lf), (rc, rf) = (_layer(cov, *part) for part in factors)
            nl, nr = coords_len(lc), coords_len(rc)
            li, ri = np.repeat(np.arange(nl), nr), np.tile(np.arange(nr), nl)
            f = lf[li] | rf[ri]
            if (j == 0 and self.right.has_boundary()) or (j == len(layers) - 1 and self.left.has_boundary()):
                f = np.ones(nl * nr, dtype=bool)
            parts.append(JoinCoords(coords_take(lc, li), np.full(nl * nr, t), coords_take(rc, ri)))
            flags.append(f)
        return coords_concat(parts), np.concatenate(flags)

    def to_json(self) -> dict:
        return {"kind": "join", "left": self.left.to_json(), "right": self.right.to_json()}


class _OverBase(SpaceDescriptor):
    """What cones and suspensions share: a radial coordinate in [0, top] over a base.

    A suspension is the k = 1 cone law in its colatitude, top = pi.  A kind
    sets `_record`, its `_radial` field and name `_what`, its least number of
    net layers `_min_layers`, and `_law()` = (k, top).
    """

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    def pack(self, points):
        radial, base = _columns(points, 2)
        return self._record(_float_leaf(radial), self.base.pack(base))

    def check_coords(self, coords, error=DomainError):
        _check_values(getattr(coords, self._radial), self._law()[1], self._what, error)
        self.base.check_coords(coords.base, error)

    def formula(self, A, B, cross: bool) -> np.ndarray:
        ctheta = np.cos(np.minimum(self.base.formula(A.base, B.base, cross), PI))
        ta, tb = getattr(A, self._radial), getattr(B, self._radial)
        return _cone_law_array(self._law()[0], *_pairs(ta, tb, cross), ctheta)

    def gram_embeddable(self) -> bool:
        return self._law()[0] == 1.0 and self.base.gram_embeddable()

    def gram_embedding(self, coords) -> np.ndarray:
        # a k = 1 cone or a suspension is the join of a point with its base
        u = getattr(coords, self._radial)
        return _latitude_join(u, np.ones((u.shape[0], 1)), self.base.gram_embedding(coords.base))

    def rotation_terms(self, A, B, cross: bool):
        # a k = 1 cone (as `gram_embeddable` requires) or a suspension: one law
        Cb, Hr, Hi = self.base.rotation_terms(A.base, B.base, cross)
        cc, ss = _trig_pairs(getattr(A, self._radial), getattr(B, self._radial), cross)
        return cc + ss * Cb, ss * Hr, ss * Hi

    def canonical_point(self):
        return (0.0, self.base.canonical_point())

    def _layers(self, eps: float):
        """(cov, [(t, parts), ...]): radial layers, each the base's part
        (base, weight, phase) at scale sn_k(t)."""
        k, top = self._law()
        ts = np.linspace(0.0, top, max(self._min_layers, math.ceil(top / eps) + 1))
        return 0.85 * eps, [(t, ((self.base, sn_k(k, t), j * _GOLDEN),)) for j, t in enumerate(ts)]

    net_count = _layered_count

    def net_grid(self, eps: float, phase: float = 0.0):
        # the first layer (apex or pole) lies on the boundary iff the base has
        # one, the last (the cap or the other pole) iff the space has one
        cov, layers = self._layers(eps)
        parts, flags = [], []
        for j, (t, (part,)) in enumerate(layers):
            bc, bf = _layer(cov, *part)
            nb = coords_len(bc)
            if (j == 0 and self.base.has_boundary()) or (j == len(layers) - 1 and self.has_boundary()):
                bf = np.ones(nb, dtype=bool)
            parts.append(self._record(np.full(nb, t), bc))
            flags.append(bf)
        return coords_concat(parts), np.concatenate(flags)


@dataclass(frozen=True)
class Cone(_OverBase):
    """Curvature-k cone over `base`, radial coordinate capped at r0."""

    k: float
    base: SpaceDescriptor
    r0: float
    _record = ConeCoords
    _radial, _what = "t", "cone radial"
    _min_layers = 2

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
        _factor(self.base, "cone base").check_cone_base()

    def _law(self):
        return self.k, self.r0

    def has_boundary(self) -> bool:
        return True  # the cap t = r0 (plus any base boundary)

    def diameter_bound(self) -> float:
        return PI / math.sqrt(self.k) if self.k > 0 else 2.0 * self.r0

    def check_join_factor(self, side: str):
        if abs(self.k - 1.0) > 1e-12 or self.r0 > HALF_PI + 1e-12:
            raise ConstructionError(
                f"{side} factor cone must have k = 1 and r0 <= pi/2 to sit in a curv >= 1 join"
            )

    def check_cone_base(self):
        raise UnsupportedConstructionError("iterated cones are not supported")

    def distance(self, p, q) -> float:
        return cone_distance(self.k, p, q, self.base.distance, self.r0)

    def random_points(self, n: int, rng):
        k, r0, d = self.k, self.r0, self.base.dim  # density: the volume element sn_k(t)^d
        wmax = float(_sn(k, r0)) ** d if d > 0 else 1.0
        ts = _rejection_sample(rng, n, 0.0, r0, lambda t: (_sn(k, t) ** d) / max(wmax, 1e-300))
        bs = self.base.random_points(n, rng)
        return [(float(ts[i]), bs[i]) for i in range(n)]

    def to_json(self) -> dict:
        return {"kind": "cone", "k": self.k, "base": self.base.to_json(), "r0": self.r0}


@dataclass(frozen=True)
class Suspension(_OverBase):
    """Spherical suspension of `base`: the join with a two-point space."""

    base: SpaceDescriptor
    _record = SuspCoords
    _radial, _what = "u", "suspension colatitude"
    _min_layers = 3

    def __post_init__(self):
        _factor(self.base, "suspension base").check_join_factor("suspension base")

    def _law(self):
        return 1.0, PI

    has_boundary = _as_base("has_boundary")

    def distance(self, p, q) -> float:
        return suspension_distance(p, q, self.base.distance)

    def random_points(self, n: int, rng):
        d = self.base.dim
        us = _rejection_sample(rng, n, 0.0, PI, lambda u: np.sin(u) ** d)
        bs = self.base.random_points(n, rng)
        return [(float(us[i]), bs[i]) for i in range(n)]

    def to_json(self) -> dict:
        return {"kind": "suspension", "base": self.base.to_json()}


@dataclass(frozen=True, eq=False)
class Quotient(SpaceDescriptor):
    """Quotient of `base` by a finite isometry group (min-over-orbit metric)."""

    base: SpaceDescriptor
    action: object  # actions.GroupAction; typed loosely to avoid an import cycle

    def __post_init__(self):
        _factor(self.base, "quotient base")
        elements = getattr(self.action, "elements", None)
        if not elements:
            raise ConstructionError("quotient requires a group action with a nonempty element list")
        check_fits(self.base, elements)

    @property
    def dim(self) -> int:
        return self.base.dim

    # its points, samples, bounds and factor rules are those of the base
    has_boundary = _as_base("has_boundary")
    diameter_bound = _as_base("diameter_bound")
    check_join_factor = _as_base("check_join_factor")
    check_cone_base = _as_base("check_cone_base")
    pack = _as_base("pack")
    check_coords = _as_base("check_coords")
    random_points = _as_base("random_points")
    canonical_point = _as_base("canonical_point")
    net_grid = _as_base("net_grid")
    net_count = _as_base("net_count")

    def distance(self, p, q) -> float:
        if _rotation_order(self) is None:
            return quotient_distance(self.base.distance, self.action, p, q)
        A, B = pack_points(self.base, [p]), pack_points(self.base, [q])
        return float(rotation_quotient_distance(self, A, B, cross=False)[0])

    def kernel(self, A, B, cross: bool, gram: bool = True) -> np.ndarray:
        if cross:
            return _quotient_cross(self, A, B, gram=gram)
        return _orbit_minimum(self, A, B, cross=False, gram=gram)

    def formula(self, A, B, cross: bool) -> np.ndarray:
        return self.kernel(A, B, cross, gram=False)

    def gram_operands(self, A, B):
        """(E(A), E(g B) for each element g) with an embeddable base and no
        closed-form rotation; else None."""
        if _rotation_order(self) is not None or not self.base.gram_embeddable():
            return None
        embed = self.base.gram_embedding
        return embed(A), (embed(g.apply(B)) for g in self.action.elements)

    def to_json(self) -> dict:
        from .actions import action_to_json

        return {"kind": "quotient", "base": self.base.to_json(), "action": action_to_json(self.action)}


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
    def alpha(self) -> float:
        return self.right.length

    def to_json(self) -> dict:
        return {"kind": "lens", "dim": self.dim, "alpha": self.alpha}


class ModelBall(Cone):
    """Closed ball of radius r0 in the constant-curvature-k space form.

    The curvature-k cone over the unit sphere S^(dim-1), capped at r0.
    """

    def __init__(self, k: float, r0: float, dim: int):
        if not math.isfinite(dim) or int(dim) != dim or dim < 1:
            raise ConstructionError(f"model ball dimension must be an integer >= 1, got {dim}")
        super().__init__(k, Sphere(int(dim) - 1, 1.0), r0)  # the cone checks k and r0

    def to_json(self) -> dict:
        return {"kind": "model_ball", "k": self.k, "r0": self.r0, "dim": self.dim}


def distance(space, p, q) -> float:
    """Scalar distance between two points of `space`, factor by factor."""
    return space.distance(p, q)


def points_equal(space, p, q, tol: float = 1e-12) -> bool:
    """Metric equality of points (handles degenerate coordinates)."""
    return distance(space, p, q) <= tol


def pack_points(space, points):
    """Pack a list of scalar points into packed coordinates, checked by `check_coords`."""
    coords = space.pack(points)
    space.check_coords(coords)
    return coords


def validate_point(space, p):
    """Raise DomainError when p violates the descriptor's coordinate domain."""
    pack_points(space, [p])


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


def boundary_distance(space, p) -> float:
    """Analytic distance from one point to the boundary: `boundary_distances` of one row."""
    return float(boundary_distances(space, pack_points(space, [p]))[0])


def boundary_distances(space, coords) -> np.ndarray:
    """Analytic distances to the boundary of packed points (cones, so model balls, and lenses only)."""
    if isinstance(space, Cone):
        if space.base.has_boundary():
            raise UnsupportedConstructionError(
                "analytic boundary distance supports cones over boundaryless bases only"
            )
        return space.r0 - coords.t
    if isinstance(space, Lens):
        # distance to the face at gap ds is arcsin(sin t sin ds) while the foot
        # stays interior (ds <= pi/2); beyond that the rim (t' = 0) is closest
        t = coords.t
        faces = [np.where(ds >= HALF_PI, t, np.arcsin(np.minimum(1.0, np.sin(t) * np.sin(ds))))
                 for ds in (coords.right, space.alpha - coords.right)]
        return np.minimum(*faces)
    raise UnsupportedConstructionError(
        f"no analytic boundary distance for {type(space).__name__}"
    )


# ---------------------------------------------------------------------------
# packed coordinates and vectorized cross-distances
# ---------------------------------------------------------------------------


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
    return space.kernel(A, B, True)


def elementwise_distance(space, A, B) -> np.ndarray:
    """Distances between paired packed coordinates (equal lengths)."""
    return space.kernel(A, B, False)


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
    operands = space.gram_operands(A, B) if gram else None
    if operands is not None:
        return _gram_kernel(*operands, cross)
    best = None
    for g in space.action.elements:
        d = space.base.formula(A, g.apply(B), cross)
        best = d if best is None else np.minimum(best, d, out=best)
    return best


def _gram_kernel(EA, columns, cross: bool) -> np.ndarray:
    """arccos of the largest inner product of the rows EA with each column set
    in `columns`: one set for a Gram tree, one per group element for a
    quotient of one."""
    best = None
    for EB in columns:
        c = _inner(EA, EB, cross)
        best = c if best is None else np.maximum(best, c, out=best)
    return _arccos_in_place(best)


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
# Each descriptor's `rotation_terms` gives its (C, Re H, Im H).
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
        C, Hr, Hi = base.rotation_terms(A, B, cross)
    else:
        C, Hr, Hi = cone.base.rotation_terms(A.base, B.base, cross)
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

    Where the root's kernel is a Gram product (`gram_operands`), the points
    are embedded once per matrix, with one column set per group element of
    a quotient, and each block multiplies fresh copies of its slices: BLAS
    rounding follows the alignment of its operands, and copies round as the
    block's own embedding did.
    """
    n = coords_len(coords)
    if block is None:
        block = row_block(n)
    operands = space.gram_operands(coords, coords)
    if operands is not None:
        E, columns = operands[0], list(operands[1])
    D = np.empty((n, n), dtype=float)
    for s in range(0, n, block):
        e = min(s + block, n)
        if operands is None:
            R = cross_distance(space, coords_take(coords, slice(s, e)), coords_take(coords, slice(s, n)))
        else:
            R = _gram_kernel(E[s:e].copy(), [C[s:].copy() for C in columns], True)
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
