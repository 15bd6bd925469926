"""Space descriptors and their closed-form distance functions.

A descriptor is an immutable, recursive description of a metric space:
primitive factors (round spheres, intervals, ellipsoid surfaces) and
composite constructions (spherical join, curvature-k cone, suspension,
finite isometric quotient).  A lens is a join and a model ball a cone, so
they share every formula, sampler, boundary law and codec of their
construction; only their JSON is their own.  Every descriptor except
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
``canonical_point()``; the boundary recursion ``boundary_distances(coords)``
(closed-form d(., boundary), +inf without one) and ``volumes()`` (exact vol X
and vol of its boundary; not for quotients or the ellipsoid); the net grid
``net_grid(eps, phase)`` (points, which `nets.grid_net` flags from
``boundary_distances``) and its size ``net_count(eps)``, which
`nets.epsilon_net` reads before it builds the grid (every kind but the
ellipsoid); the kernels ``kernel(A, B, cross)`` (the root of
`cross_distance` and `elementwise_distance`, which no kind overrides: the
Gram product where ``gram_operands`` has one, else ``formula``),
``formula(A, B, cross)`` (the per-factor laws), ``gram_embeddable()``,
``gram_embedding(coords)``, ``gram_operands(A, B)`` (what a Gram root's
kernel multiplies, which `self_distance_matrix` embeds once per matrix)
and, where a Z_m rotation acts, ``rotation_terms(A, B, cross)`` and, for one
scalar pair, ``rotation_phase(p, q)``; on a chain of cones and suspensions
that ends in a sphere, ``leaf_cosines(A, B, cross)`` and the rest of the
law, ``leaf_law(A, B, c, cross)``; and its JSON, ``to_json()``, from the
tag and fields each kind declares as ``_json``.
The module functions (`distance`, `pack_points`, `cross_distance`,
`boundary_distances`, ...) call these methods.  Joins, cones, suspensions and
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
scalar `distance` always evaluates factor by factor.  A quotient of a chain
of cones and suspensions over a sphere of any radius, by elements that keep
the radial coordinates, takes the largest leaf cosine over the group, then
the base law once.  On a Z_m rotation
quotient with no closed form (a circle or Hopf factor of radius other than 1,
under cones and suspensions), scalar `distance` evaluates only the three
elements nearest the pair's ``rotation_phase``, where a rounding bound shows
that they hold the element loop's minimum.

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
reduction; the error names the first bad value either way.  Each kind's
scalar ``distance`` holds its own law and reads each scalar coordinate
through ``_value``, the rule `_check_values` applies to every value of a
leaf, so a value out of range, or one that is no number (an array too),
raises DomainError with the same text.  Parameters are checked once, when
a descriptor is built.

Curvature k.  The k = 0 / k > 0 / k < 0 split is written once, in the
functions ``sn_k``, ``md_k(t) = 2 sn_k(t/2)^2`` and ``cs_k = 1 - k md_k`` of
Alexander, Kapovitch and Petrunin (*Alexandrov geometry: foundations*), and
in ``_cone_law``, the one curvature-k law of cosines of every cone and
suspension distance and kernel.  Its k > 0 branch is the join of a point with
the base, by ``_join_law``, the one spherical join law.  Like `clamped_arccos`,
they evaluate numbers through `math` and arrays through numpy; ``_arcsn_k``,
the inverse of the cone's boundary law, goes through ``_arcmd_k``.
"""

from __future__ import annotations

import functools
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
    """Context manager that records the worst arccos/arccosh clamp excess.

    Where a quotient kernel takes the largest cosine over its group before
    the law (the Gram product, and `_orbit_minimum`'s sphere-leaf branch),
    it records the excess of that kept cosine only, not of every element's."""
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


def _xp(x):
    """`math` for a number x, numpy for an array: the library `clamped_arccos`,
    `clamped_arccosh` and the curvature-k functions evaluate x in."""
    return math if isinstance(x, float) or np.isscalar(x) else np


def _law_xp(a, b, c, d=0.0):
    """`math` when every argument is a float, else numpy: what the join and cone laws run on."""
    floats = isinstance(a, float) and isinstance(b, float) and isinstance(c, float) and isinstance(d, float)
    return math if floats else np


def clamped_arccos(x, xp=None):
    """arccos with the argument clamped to [-1, 1] (tracked when enabled); NaN stays NaN.
    A number takes `math.acos`, or with xp=np numpy's arccos, as a float: the bits
    an array's entry gets.  An array takes numpy's."""
    if _xp(x) is math:
        if clamp_stats.enabled:
            _record_excess(abs(float(x)) - 1.0)
        x = max(min(float(x), 1.0), -1.0)  # x first: min and max then keep a NaN
        return float(np.arccos(x)) if xp is np else math.acos(x)
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


def clamped_arccosh(x, xp=None):
    """arccosh with the argument clamped to [1, inf) (tracked when enabled); NaN stays NaN.
    A number takes `math.acosh`, or with xp=np numpy's arccosh, as `clamped_arccos`."""
    if _xp(x) is math:
        if clamp_stats.enabled:
            _record_excess(1.0 - float(x))
        x = max(float(x), 1.0)
        return float(np.arccosh(x)) if xp is np else math.acosh(x)
    x = np.asarray(x, dtype=float)
    if clamp_stats.enabled and x.size:
        _record_excess(1.0 - float(np.min(x)))
    return np.arccosh(np.maximum(x, 1.0))


# ---------------------------------------------------------------------------
# scalar helpers, the checks of packed coordinates, scalar distance formulas
# ---------------------------------------------------------------------------

_UNIT_TOL = 1e-12
_EPS = 2.0**-52  # the spacing of floats at 1


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
        _value(x, hi, what, error)


def _value(x, hi: float, what: str, error=DomainError) -> float:
    """One scalar coordinate as a float in [0, hi] (to within 1e-12; NaN fails), else `error`:
    the value rule of every interval value, join latitude, cone radial coordinate and
    suspension colatitude, for scalar `distance` and, by `_check_values`, for packed leaves.
    A number is what `as_real` reads as one: a bool, a string or an array is not."""
    v = x if type(x) is float else as_real(x)  # a float, the common case, skips as_real's tests
    if v is None:
        raise error(f"{what} coordinates must be numbers, got {x!r}")
    if not -1e-12 <= v <= hi + 1e-12:
        raise error(f"{what} coordinate {v} outside [0, {hi}]")
    return v


def _stack_rows(points, width: int) -> np.ndarray:
    """Vector points as the rows of one array; no points give a (0, width) array."""
    try:
        rows = [np.asarray(p, dtype=float) for p in points]
    except (TypeError, ValueError) as exc:  # a string, or a ragged sequence
        raise DomainError(f"vector points must be sequences of numbers: {exc}") from None
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
    """Scalar coordinates as a 1-D float array; a value that is no number (a bool, a
    string or an array, by `as_real`'s rule) is a DomainError."""
    reals = []
    for x in values:
        v = as_real(x)
        if v is None:
            raise DomainError(f"scalar coordinates must be numbers, got {x!r}")
        reals.append(v)
    return np.asarray(reals, dtype=float)


def as_integer(value) -> int | None:
    """`value` as an int if it is a Python or numpy integer or an integral float, else None
    (a bool, string, fraction or non-finite value): the rule of every dimension, order and count."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return int(value) if isinstance(value, (float, np.floating)) and value.is_integer() else None


def as_real(value) -> float | None:
    """`value` as a float if it is a Python or numpy integer or float, else None (a bool or
    a string): the rule of every real parameter; the constructor checks its range."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    return float(value) if real else None


def sn_k(k: float, t):
    """The curvature-k sine: sin(sqrt(k) t)/sqrt(k), t for k = 0, sinh(sqrt(-k) t)/sqrt(-k)."""
    xp = _xp(t)
    if xp is np:
        t = np.asarray(t, dtype=float)
    if k == 0.0:
        return t
    s = math.sqrt(abs(k))
    return (xp.sin(s * t) if k > 0.0 else xp.sinh(s * t)) / s


def md_k(k: float, t):
    """The curvature-k modified distance 2 sn_k(t/2)^2: (1 - cos(sqrt(k) t))/k, t^2/2 for k = 0."""
    return 2.0 * sn_k(k, 0.5 * t) ** 2


def cs_k(k: float, t):
    """The curvature-k cosine 1 - k md_k(t): cos(sqrt(k) t), 1 for k = 0, cosh(sqrt(-k) t)."""
    return 1.0 - k * md_k(k, t)


def _arcmd_k(k: float, m):
    """The inverse of `md_k`: the t >= 0 with md_k(t) = m, where t <= pi/sqrt(k) for k > 0."""
    xp = _xp(m)
    h = xp.sqrt(0.5 * m)  # sn_k(t/2)
    if k == 0.0:
        return 2.0 * h
    s = math.sqrt(abs(k))
    return 2.0 * (xp.asin(s * h) if k > 0.0 else xp.asinh(s * h)) / s


def _arcsn_k(k: float, x: np.ndarray) -> np.ndarray:
    """The inverse of `sn_k` on [0, pi/(2 sqrt(k))]: `_arcmd_k` of md_k = sn_k^2 / (1 + cs_k)."""
    x2 = x * x
    return _arcmd_k(k, x2 / (1.0 + np.sqrt(np.maximum(1.0 - k * x2, 0.0))))


def unit_sphere_volume(d: int) -> float:
    """d-volume of the unit d-sphere S^d(1); 2 for the two points of S^0."""
    return 2.0 * PI ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def _join_weight(a: int, b: int) -> float:
    """The integral of cos^a t sin^b t over [0, pi/2], B((a+1)/2, (b+1)/2) / 2."""
    return math.gamma((a + 1) / 2.0) * math.gamma((b + 1) / 2.0) / (2.0 * math.gamma((a + b) / 2.0 + 1.0))


def _face_distance(g: np.ndarray, w: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """arcsin(w sin g): the distance to a join face from weight w = sin(exact)
    on a factor at distance g from its boundary; past pi/2, exactly `exact`."""
    return np.where(g >= HALF_PI, exact, np.arcsin(w * np.sin(g)))


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
# net grids: `net_grid(eps, phase)` answers packed points with covering
# radius about eps, and `net_count(eps)` its number of points
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
    return pack_points(space, [space.canonical_point()]) if e is None else space.net_grid(e, phase)


def _layer_count(cov: float, space, weight: float, phase: float) -> int:
    """The number of points of `_layer(cov, space, weight, phase)`."""
    e = _layer_eps(space, weight, cov)
    return 1 if e is None else space.net_count(e)


def _layered_count(space, eps: float) -> int:
    """`net_count` of a layered kind: the sum over its `_layers(eps)` of the
    products of its factors' part counts."""
    cov, layers = space._layers(eps)
    return sum(math.prod(_layer_count(cov, *part) for part in parts) for _, parts in layers)


def _join_law(t0, t1, cl, cr, xp=None):
    """arccos(cos t0 cos t1 cl + sin t0 sin t1 cr): the join distance between latitudes t0, t1
    whose factor distances have cosines cl, cr.  On `math` or numpy as `_cone_law`."""
    xp = xp or _law_xp(t0, t1, cl, cr)
    return clamped_arccos(xp.cos(t0) * xp.cos(t1) * cl + xp.sin(t0) * xp.sin(t1) * cr, xp)


# The k < 0 cone law's cosh(s t0) cosh(s t1), s = sqrt(-k), overflows past s t = 355.
HYPERBOLIC_CAP = 350.0


def _cone_law(k: float, t0, t1, ctheta, xp=None):
    """The curvature-k law of cosines: the side opposite the angle with cosine
    `ctheta` between sides t0 and t1.  It runs on `math` when all three are
    floats, else on numpy, with arrays broadcast against each other; xp=np
    takes numpy's functions on floats too, for the bits of an array's entry."""
    s = math.sqrt(abs(k))
    if k > 0.0:  # the join of a point with the base, at latitudes s t0 and s t1
        return _join_law(s * t0, s * t1, 1.0, ctheta, xp) / s
    xp = xp or _law_xp(t0, t1, ctheta)
    if k == 0.0:
        v = t0 * t0 + t1 * t1 - 2.0 * (t0 * t1) * ctheta
        return math.sqrt(max(v, 0.0)) if xp is math else np.sqrt(np.maximum(v, 0.0))
    c = xp.cosh(s * t0) * xp.cosh(s * t1) - xp.sinh(s * t0) * xp.sinh(s * t1) * ctheta
    return clamped_arccosh(c, xp) / s


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

    def boundary_distances(self, coords) -> np.ndarray:
        """d(., boundary) of packed points in closed form; +inf on a space without boundary."""
        return np.full(coords_len(coords), math.inf)

    def rotation_phase(self, p, q):
        """H = sum_j conj(x_j) y_j over the complex coordinates of the sphere a Z_m
        rotation turns, for points p, q whose distance after rotating q by theta
        falls as theta nears -arg H; None where no such sphere is read (joins and
        the rest) or the pair is not valid points (`distance` then reports it)."""
        return None

    def leaf_cosines(self, A, B, cross: bool):
        """A fresh array of the cosines <x, y> of the sphere leaf that ends a
        chain of cones and suspensions, paired as `formula` pairs A and B;
        None on any other tree.  Where it is not None, the kind's
        ``leaf_law(A, B, c, cross)`` is `formula` from these cosines c, and
        it is non-increasing in c.  On one pair of such points the scalar
        pair is ``leaf_cosine(p, q)`` and ``leaf_distance(p, q, c)``."""
        return None

    def pair_terms(self, p, q):
        """`rotation_terms` of the one pair p, q as numbers, with the bits of
        the kernel's entry: numpy's sums and functions called on floats.
        None on kinds without them, or where p or q is not a valid point
        (`pack_points` then reports it)."""
        return None

    def volumes(self) -> tuple:
        """(vol X, vol of the boundary of X), each in its own dimension."""
        raise UnsupportedConstructionError(f"no closed-form volume for {type(self).__name__}")

    def net_grid(self, eps: float, phase: float = 0.0):
        """Packed points covering the space to about `eps`."""
        raise self._no_grid()

    def net_count(self, eps: float) -> int:
        """The number of points of `net_grid(eps, phase)`, for any phase, without building it."""
        raise self._no_grid()

    def _no_grid(self) -> ConstructionError:
        return ConstructionError(
            f"no net grid for {type(self).__name__}; ellipsoid nets are built by farthest-point sampling"
        )

    def to_json(self) -> dict:
        """{"kind": tag, name: value, ...} as `_json` declares; a factor or action writes its own."""
        kind, names = self._json
        values = {name: getattr(self, name) for name in names}
        return {"kind": kind, **{name: v.to_json() if hasattr(v, "to_json") else v for name, v in values.items()}}


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
    _json = "sphere", ("dim", "radius")

    def __post_init__(self):
        dim, radius = as_integer(self.dim), as_real(self.radius)
        if dim is None or dim < 0:
            raise ConstructionError(f"sphere dimension must be an integer >= 0, got {self.dim!r}")
        if radius is None or not 0.0 < radius < math.inf:
            raise ConstructionError(f"sphere radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "radius", radius)

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
        """radius * arccos(<p, q>) between unit vectors of the ambient dimension."""
        try:
            u, v = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        except (TypeError, ValueError) as exc:  # a string, or a ragged sequence
            raise DomainError(f"sphere points must be sequences of numbers: {exc}") from None
        shape = (self.dim + 1,)
        for name, w in (("u", u), ("v", v)):
            if w.shape != shape:
                raise DomainError(f"sphere point {name} must have shape {shape}, got {w.shape}")
            nrm = vector_norm(w)
            if not abs(nrm - 1.0) <= _UNIT_TOL:  # NaN fails too
                raise DomainError(f"sphere point {name} = {w.tolist()} is not a unit vector (|{name}| = {nrm!r})")
        return self.leaf_distance(u, v, float(np.dot(u, v)))

    def leaf_cosine(self, p, q) -> float:
        """<p, q> of unit vectors, unchecked, as `distance` takes it."""
        return float(np.dot(np.asarray(p, dtype=float), np.asarray(q, dtype=float)))

    def leaf_distance(self, p, q, c) -> float:
        """radius * arccos(c): the distance of points whose cosine is c."""
        return self.radius * clamped_arccos(c)

    def _unit_pair(self, p, q, as_array):
        """(x, y): p and q as float arrays by `as_array`, on which the norms are
        read, where both are unit vectors and the ambient dimension is even
        (complex coordinates); else None."""
        try:
            x, y = as_array(p, dtype=float), as_array(q, dtype=float)
        except (TypeError, ValueError):
            return None
        n = self.ambient_dim
        if n % 2 or x.shape != (n,) or y.shape != (n,):
            return None
        if not (abs(vector_norm(x) - 1.0) <= _UNIT_TOL and abs(vector_norm(y) - 1.0) <= _UNIT_TOL):
            return None
        return x, y

    def rotation_phase(self, p, q):
        # <x, g y> = Re(e^{i theta} H) for the rotation g by theta of every
        # complex coordinate, and the distance is radius * arccos of it
        pair = self._unit_pair(p, q, np.asarray)  # as `distance` reads them
        if pair is None:
            return None  # `distance` rejects the pair, and the loop reports it
        a, b = pair[0].tolist(), pair[1].tolist()
        n = self.ambient_dim
        return complex(sum(a[j] * b[j] + a[j + 1] * b[j + 1] for j in range(0, n, 2)),
                       sum(a[j] * b[j + 1] - a[j + 1] * b[j] for j in range(0, n, 2)))

    def pair_terms(self, p, q):
        # `rotation_terms`' two sums by its own `_inner`, of x against the rows
        # y and Bi: `np.einsum` orders a contiguous row's sum as a packed
        # record's (and a strided row's differently)
        pair = self._unit_pair(p, q, np.ascontiguousarray)
        if pair is None:
            return None
        x, y = pair
        index, sign = _turn_rows(self.ambient_dim)
        Hr, Hi = _inner(x[None], y[index] * sign, False).tolist()
        return 0.0, Hr, Hi

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
        return self.leaf_law(A, B, self.leaf_cosines(A, B, cross), cross)

    def leaf_cosines(self, A, B, cross: bool) -> np.ndarray:
        return _inner(np.atleast_2d(A), np.atleast_2d(B), cross)

    def leaf_law(self, A, B, c, cross: bool) -> np.ndarray:
        return self.radius * clamped_arccos(c)

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

    def volumes(self) -> tuple:
        return unit_sphere_volume(self.dim) * self.radius**self.dim, 0.0

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
        return pts


@dataclass(frozen=True)
class Interval(SpaceDescriptor):
    """Interval [0, length] with |s - t| distance; length restricted to (0, pi]."""

    length: float
    dim = 1
    _json = "interval", ("length",)

    def __post_init__(self):
        length = as_real(self.length)
        if length is None or not 0.0 < length <= PI + 1e-12:
            raise ConstructionError(f"interval length must lie in (0, pi], got {self.length!r}")
        object.__setattr__(self, "length", min(length, PI))

    def has_boundary(self) -> bool:
        return True

    def diameter_bound(self) -> float:
        return self.length

    def distance(self, p, q) -> float:
        return abs(_value(p, self.length, "interval") - _value(q, self.length, "interval"))

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

    def boundary_distances(self, coords) -> np.ndarray:
        return np.minimum(coords, self.length - coords)

    def volumes(self) -> tuple:
        return self.length, 2.0

    def net_count(self, eps: float) -> int:
        return max(2, math.ceil(self.length / eps))

    def net_grid(self, eps: float, phase: float = 0.0):
        return np.linspace(0.0, self.length, self.net_count(eps))


@dataclass(frozen=True)
class Ellipsoid(SpaceDescriptor):
    """Surface x^2/a^2 + y^2/b^2 + z^2/c^2 = 1 with its intrinsic metric."""

    a: float
    b: float
    c: float
    dim = 2
    _json = "ellipsoid", ("a", "b", "c")

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = as_real(getattr(self, name))
            if v is None or not 0.0 < v < math.inf:
                raise ConstructionError(
                    f"ellipsoid semi-axis {name} must be positive and finite, got {getattr(self, name)!r}"
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


@dataclass(frozen=True)
class Join(SpaceDescriptor):
    """Spherical join left * right with the cosine distance formula."""

    left: SpaceDescriptor
    right: SpaceDescriptor
    _json = "join", ("left", "right")

    def __post_init__(self):
        _factor(self.left, "left join factor").check_join_factor("left")
        _factor(self.right, "right join factor").check_join_factor("right")

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim + 1

    def has_boundary(self) -> bool:
        return self.left.has_boundary() or self.right.has_boundary()

    def distance(self, p, q) -> float:
        """`_join_law`, the factor distances clamped at pi before taking cosines."""
        try:
            x1, t1, y1 = p
            x2, t2, y2 = q
        except (TypeError, ValueError):
            raise DomainError("join points must be tuples of 3 coordinates") from None
        t1, t2 = _value(t1, HALF_PI, "join latitude"), _value(t2, HALF_PI, "join latitude")
        dl = min(self.left.distance(x1, x2), PI)
        dr = min(self.right.distance(y1, y2), PI)
        return _join_law(t1, t2, math.cos(dl), math.cos(dr))

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
        return _join_law(*_pairs(A.t, B.t, cross), cl, cr)

    def gram_embeddable(self) -> bool:
        return self.left.gram_embeddable() and self.right.gram_embeddable()

    def gram_embedding(self, coords) -> np.ndarray:
        EL = self.left.gram_embedding(coords.left)
        return _latitude_join(coords.t, EL, self.right.gram_embedding(coords.right))

    def rotation_terms(self, A, B, cross: bool):
        left = self.left.rotation_terms(A.left, B.left, cross)
        right = self.right.rotation_terms(A.right, B.right, cross)
        return _join_terms(*_trig_pairs(A.t, B.t, cross), left, right)

    def pair_terms(self, p, q):
        try:
            (x1, t1, y1), (x2, t2, y2) = p, q
            t1, t2 = _value(t1, HALF_PI, "join latitude"), _value(t2, HALF_PI, "join latitude")
        except (TypeError, ValueError):  # a DomainError is a ValueError
            return None
        left, right = self.left.pair_terms(x1, x2), self.right.pair_terms(y1, y2)
        if left is None or right is None:
            return None
        return _join_terms(*_trig_pairs(t1, t2, False), left, right)

    def random_points(self, n: int, rng):
        dl, dr = self.left.dim, self.right.dim  # density: the volume element cos^dl(t) sin^dr(t)
        ts = _rejection_sample(rng, n, 0.0, HALF_PI, lambda t: np.cos(t) ** dl * np.sin(t) ** dr)
        ls = self.left.random_points(n, rng)
        rs = self.right.random_points(n, rng)
        return [(ls[i], float(ts[i]), rs[i]) for i in range(n)]

    def canonical_point(self):
        return (self.left.canonical_point(), 0.0, self.right.canonical_point())

    def boundary_distances(self, coords) -> np.ndarray:
        # the faces boundary(left) * right, at weight cos t, and left * boundary(right), at sin t
        t = coords.t
        f = np.full(t.shape[0], math.inf)
        if self.left.has_boundary():
            f = _face_distance(self.left.boundary_distances(coords.left), np.cos(t), HALF_PI - t)
        if self.right.has_boundary():
            f = np.minimum(f, _face_distance(self.right.boundary_distances(coords.right), np.sin(t), t))
        return f

    def volumes(self) -> tuple:
        # vol X vol Y times the integral of cos^a sin^b; the boundary is boundary(X) * Y and X * boundary(Y)
        (vl, bl), (vr, br) = self.left.volumes(), self.right.volumes()
        a, b = self.left.dim, self.right.dim
        bdry = (bl * vr * _join_weight(a - 1, b) if bl else 0.0) + (vl * br * _join_weight(a, b - 1) if br else 0.0)
        return vl * vr * _join_weight(a, b), bdry

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
        cov, layers = self._layers(eps)
        parts = []
        for t, factors in layers:
            lc, rc = (_layer(cov, *part) for part in factors)
            nl, nr = coords_len(lc), coords_len(rc)
            li, ri = np.repeat(np.arange(nl), nr), np.tile(np.arange(nr), nl)
            parts.append(JoinCoords(coords_take(lc, li), np.full(nl * nr, t), coords_take(rc, ri)))
        return coords_concat(parts)


class _OverBase(SpaceDescriptor):
    """What cones and suspensions share: a radial coordinate in [0, top] over a base.

    A suspension is the k = 1 cone law in its colatitude, top = pi.  A kind
    sets `_record`, its `_radial` field and name `_what`, its least number of
    net layers `_min_layers`, whether the layer t = top is a boundary
    `_capped`, and `_law()` = (k, top).
    """

    @property
    def dim(self) -> int:
        return self.base.dim + 1

    def has_boundary(self) -> bool:
        return self._capped or self.base.has_boundary()

    def boundary_distances(self, coords) -> np.ndarray:
        # the cone over boundary(base), a right triangle's leg arcsn_k(sn_k(t) sin g); and the cap
        k, top = self._law()
        t = getattr(coords, self._radial)
        f = np.full(t.shape[0], math.inf)
        if self.base.has_boundary():
            f = _arcsn_k(k, sn_k(k, t) * np.sin(np.minimum(self.base.boundary_distances(coords.base), HALF_PI)))
        return np.minimum(top - t, f) if self._capped else f

    def volumes(self) -> tuple:
        # the volume element sn_k(t)^d; the boundary is the cone over boundary(base) and the cap
        k, top = self._law()
        d = self.base.dim
        vol, bdry = self.base.volumes()
        x, w = np.polynomial.legendre.leggauss(32)  # exact to rounding on these entire integrands
        sn = sn_k(k, 0.5 * top * (x + 1.0))
        side = bdry * 0.5 * top * float(w @ sn ** (d - 1)) if bdry else 0.0
        return 0.5 * top * vol * float(w @ sn**d), side + (vol * sn_k(k, top) ** d if self._capped else 0.0)

    def distance(self, p, q) -> float:
        """`_cone_law` between points (t, y), the base distance clamped at pi."""
        return self.leaf_distance(p, q, None)

    def leaf_cosine(self, p, q) -> float:
        return self.base.leaf_cosine(p[1], q[1])

    def leaf_distance(self, p, q, c) -> float:
        """`distance` where the base's leaf cosine is c; with c None, the base's `distance`."""
        try:
            t0, y0 = p
            t1, y1 = q
        except (TypeError, ValueError):
            raise DomainError(f"{type(self).__name__} points must be tuples of 2 coordinates") from None
        k, top = self._law()
        t0, t1 = _value(t0, top, self._what), _value(t1, top, self._what)
        d = self.base.distance(y0, y1) if c is None else self.base.leaf_distance(y0, y1, c)
        return _cone_law(k, t0, t1, math.cos(min(d, PI)))

    def _radial_pair(self, p, q):
        """(t0, y0, t1, y1) for points p = (t0, y0) and q = (t1, y1) with valid
        radial values; else None."""
        try:
            (t0, y0), (t1, y1) = p, q
            top = self._law()[1]
            return _value(t0, top, self._what), y0, _value(t1, top, self._what), y1
        except (TypeError, ValueError):  # a DomainError is a ValueError
            return None

    def rotation_phase(self, p, q):
        # at any k the law of cosines grows with the base distance
        try:
            (_, y0), (_, y1) = p, q
        except (TypeError, ValueError):
            return None
        return self.base.rotation_phase(y0, y1)

    def pack(self, points):
        radial, base = _columns(points, 2)
        return self._record(_float_leaf(radial), self.base.pack(base))

    def check_coords(self, coords, error=DomainError):
        _check_values(getattr(coords, self._radial), self._law()[1], self._what, error)
        self.base.check_coords(coords.base, error)

    def formula(self, A, B, cross: bool) -> np.ndarray:
        return self._radial_law(A, B, self.base.formula(A.base, B.base, cross), cross)

    def leaf_cosines(self, A, B, cross: bool):
        return self.base.leaf_cosines(A.base, B.base, cross)

    def leaf_law(self, A, B, c, cross: bool) -> np.ndarray:
        return self._radial_law(A, B, self.base.leaf_law(A.base, B.base, c, cross), cross)

    def _radial_law(self, A, B, d, cross: bool) -> np.ndarray:
        """`_cone_law` between the radial coordinates of A and B over base distances d, clamped at pi."""
        ctheta = np.cos(np.minimum(d, PI))
        ta, tb = getattr(A, self._radial), getattr(B, self._radial)
        return _cone_law(self._law()[0], *_pairs(ta, tb, cross), ctheta)

    def gram_embeddable(self) -> bool:
        return self._law()[0] == 1.0 and self.base.gram_embeddable()

    def gram_embedding(self, coords) -> np.ndarray:
        # a k = 1 cone or a suspension is the join of a point with its base
        u = getattr(coords, self._radial)
        return _latitude_join(u, np.ones((u.shape[0], 1)), self.base.gram_embedding(coords.base))

    def rotation_terms(self, A, B, cross: bool):
        # a k = 1 cone (as `gram_embeddable` requires) or a suspension: one law
        terms = self.base.rotation_terms(A.base, B.base, cross)
        return _over_terms(*_trig_pairs(getattr(A, self._radial), getattr(B, self._radial), cross), terms)

    def pair_terms(self, p, q):
        pair = self._radial_pair(p, q)
        terms = None if pair is None else self.base.pair_terms(pair[1], pair[3])
        return None if terms is None else _over_terms(*_trig_pairs(pair[0], pair[2], False), terms)

    def canonical_point(self):
        return (0.0, self.base.canonical_point())

    def random_points(self, n: int, rng):
        # density: the volume element sn_k(t)^d, largest at the top or at pi/(2 sqrt(k))
        k, top = self._law()
        d = self.base.dim
        peak = sn_k(k, min(top, HALF_PI / math.sqrt(k)) if k > 0.0 else top) ** d
        ts = _rejection_sample(rng, n, 0.0, top, lambda t: sn_k(k, t) ** d / max(peak, 1e-300))
        bs = self.base.random_points(n, rng)
        return [(float(ts[i]), bs[i]) for i in range(n)]

    def _layers(self, eps: float):
        """(cov, [(t, parts), ...]): radial layers, each the base's part
        (base, weight, phase) at scale sn_k(t)."""
        k, top = self._law()
        ts = np.linspace(0.0, top, max(self._min_layers, math.ceil(top / eps) + 1))
        return 0.85 * eps, [(t, ((self.base, sn_k(k, t), j * _GOLDEN),)) for j, t in enumerate(ts)]

    net_count = _layered_count

    def net_grid(self, eps: float, phase: float = 0.0):
        cov, layers = self._layers(eps)
        parts = []
        for t, (part,) in layers:
            bc = _layer(cov, *part)
            parts.append(self._record(np.full(coords_len(bc), t), bc))
        return coords_concat(parts)


@dataclass(frozen=True)
class Cone(_OverBase):
    """Curvature-k cone over `base`, radial coordinate capped at r0."""

    k: float
    base: SpaceDescriptor
    r0: float
    _json = "cone", ("k", "base", "r0")
    _record = ConeCoords
    _radial, _what = "t", "cone radial"
    _min_layers = 2
    _capped = True

    def __post_init__(self):
        k, r0 = as_real(self.k), as_real(self.r0)
        if k is None or not math.isfinite(k):
            raise ConstructionError(f"cone curvature k must be finite, got {self.k!r}")
        if r0 is None or not 0.0 < r0 < math.inf:
            raise ConstructionError(f"cone cap r0 must be positive and finite, got {self.r0!r}")
        s = math.sqrt(abs(k))
        if (k > 0.0 and r0 > HALF_PI / s + 1e-12) or (k < 0.0 and s * r0 > HYPERBOLIC_CAP):
            raise ConstructionError(f"cone with k={k} requires r0 <= pi/(2*sqrt(k)) for k > 0 and "
                                    f"sqrt(-k)*r0 <= {HYPERBOLIC_CAP:g} for k < 0, got r0={r0}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "r0", r0)
        _factor(self.base, "cone base").check_cone_base()

    def _law(self):
        return self.k, self.r0

    def diameter_bound(self) -> float:
        return PI / math.sqrt(self.k) if self.k > 0 else 2.0 * self.r0

    def check_join_factor(self, side: str):
        if abs(self.k - 1.0) > 1e-12 or self.r0 > HALF_PI + 1e-12:
            raise ConstructionError(
                f"{side} factor cone must have k = 1 and r0 <= pi/2 to sit in a curv >= 1 join"
            )

    def check_cone_base(self):
        raise UnsupportedConstructionError("iterated cones are not supported")


@dataclass(frozen=True)
class Suspension(_OverBase):
    """Spherical suspension of `base`: the join with a two-point space."""

    base: SpaceDescriptor
    _json = "suspension", ("base",)
    _record = SuspCoords
    _radial, _what = "u", "suspension colatitude"
    _min_layers = 3
    _capped = False

    def __post_init__(self):
        _factor(self.base, "suspension base").check_join_factor("suspension base")

    def _law(self):
        return 1.0, PI


@dataclass(frozen=True, eq=False)
class Quotient(SpaceDescriptor):
    """Quotient of `base` by a finite isometry group (min-over-orbit metric)."""

    base: SpaceDescriptor
    action: object  # actions.GroupAction; typed loosely to avoid an import cycle
    _json = "quotient", ("base", "action")

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
    boundary_distances = _as_base("boundary_distances")
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
        """The closed form of a Z_m rotation quotient; else the element loop's
        minimum, over the three elements nearest the pair's phase where
        `_lattice_order` allows, or over every element."""
        if _rotation_order(self) is not None:
            d = rotation_pair_distance(self, p, q)
            if d is not None:
                return d
            A, B = pack_points(self.base, [p]), pack_points(self.base, [q])  # reports the bad point
            return float(rotation_quotient_distance(self, A, B, cross=False)[0])
        m = _lattice_order(self)
        H = None if m is None else self.base.rotation_phase(p, q)
        if H is None or not abs(H) * (1.0 - math.cos(2.0 * PI / m)) > 8 * m * _EPS:
            return quotient_distance(self, p, q)  # by its module name, which a tracer may wrap
        # Element j's cosine <p, g_j q> is Re(e^{i j step} H) to within about
        # (2 j + 8) ulps: j products of rotations, then one product with q and
        # one dot.  Elements two or more steps from the nearest, k, are 1.5
        # steps or more from -arg H, so their cosines lie at least
        # sqrt(2) |H| (1 - cos step) below the best of k - 1, k and k + 1.
        # Past the bound above that gap outgrows twice the rounding, so the
        # largest cosine of the group is among these three.  The base law is
        # non-increasing in the leaf cosine (see `_orbit_minimum`), so the
        # loop's minimum is the law at that cosine: the same value, bit for bit.
        k = -round(math.atan2(H.imag, H.real) * (m / (2.0 * PI)))  # half to even, as np.rint
        elements = self.action.elements
        c = max(self.base.leaf_cosine(p, elements[j % m].apply_point(q)) for j in (k - 1, k, k + 1))
        return self.base.leaf_distance(p, q, c)

    def formula(self, A, B, cross: bool) -> np.ndarray:
        return _quotient_cross(self, A, B) if cross else _orbit_minimum(self, A, B, cross=False)

    def gram_operands(self, A, B):
        """(E(A), E(g B) for each element g) with an embeddable base and no
        closed-form rotation; else None."""
        if _rotation_order(self) is not None or not self.base.gram_embeddable():
            return None
        embed = self.base.gram_embedding
        return embed(A), (embed(g.apply(B)) for g in self.action.elements)


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

    _json = "lens", ("dim", "alpha")

    def __init__(self, dim: int, alpha: float):
        n = as_integer(dim)
        if n is None or n < 2:
            raise ConstructionError(f"lens dimension must be an integer >= 2, got {dim!r}")
        a = as_real(alpha)
        if a is None:
            raise ConstructionError(f"lens angle must be a number, got {alpha!r}")
        if not 0.0 < a <= PI + 1e-12:
            raise ConstructionError(f"lens angle must lie in (0, pi], got {alpha}")
        super().__init__(Sphere(n - 2, 1.0), Interval(a))

    @property
    def alpha(self) -> float:
        return self.right.length


class ModelBall(Cone):
    """Closed ball of radius r0 in the constant-curvature-k space form.

    The curvature-k cone over the unit sphere S^(dim-1), capped at r0.
    """

    _json = "model_ball", ("k", "r0", "dim")

    def __init__(self, k: float, r0: float, dim: int):
        n = as_integer(dim)
        if n is None or n < 1:
            raise ConstructionError(f"model ball dimension must be an integer >= 1, got {dim!r}")
        super().__init__(k, Sphere(n - 1, 1.0), r0)  # the cone checks k and r0


# each descriptor kind by its JSON tag
KINDS = {cls._json[0]: cls for cls in
         (Sphere, Interval, Ellipsoid, Join, Cone, Suspension, Quotient, Lens, ModelBall)}


def distance(space, p, q) -> float:
    """Scalar distance between two points of `space`, factor by factor."""
    return space.distance(p, q)


def quotient_distance(space: Quotient, p, q) -> float:
    """min over the group elements g of d(p, g q), by the base's scalar `distance`:
    the element-list loop of a quotient.  `Quotient.distance` runs it where no
    closed form applies and no three elements are known to hold its minimum,
    and the tests compare both shortcuts against it."""
    return min(space.base.distance(p, g.apply_point(q)) for g in space.action.elements)


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
    """Closed-form distance from one point to the boundary: `boundary_distances` of one row."""
    return float(boundary_distances(space, pack_points(space, [p]))[0])


def boundary_distances(space, coords) -> np.ndarray:
    """Closed-form distances of packed points to the boundary, +inf without one."""
    return space.boundary_distances(coords)


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


@functools.cache
def _turn_rows(n: int) -> tuple:
    """(index, sign), read-only: y[index] * sign stacks the row y of length n
    and the row Bi = (y1, -y0, y3, -y2, ...) of `Sphere.rotation_terms`,
    bit for bit (a product with 1 or -1 is exact)."""
    index = np.stack([np.arange(n), np.arange(n) ^ 1])
    sign = np.ones((2, n))
    sign[1, 1::2] = -1.0
    for a in (index, sign):
        a.setflags(write=False)
    return index, sign


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


def _quotient_cross(space: Quotient, A, B) -> np.ndarray:
    """`_orbit_minimum`'s cross block; perfbench's quotient-kernel span wraps this name."""
    return _orbit_minimum(space, A, B, cross=True)


def _orbit_minimum(space: Quotient, A, B, cross: bool) -> np.ndarray:
    """min over the group of d(x, g y): the (len(A), len(B)) matrix when `cross`, else
    the distances of paired rows.  (At a Gram root, `SpaceDescriptor.kernel` takes the
    product over `gram_operands`.)

    A Z_m rotation takes its closed form.  Where every element keeps the radial
    coordinates (`keeps_radii`) of a base that ends in a sphere leaf
    (`leaf_cosines`), each element changes only the leaf cosine c_g.  The
    base law f is non-increasing in c at every step (clip, arccos, times the
    radius, the clamp at pi, cos, each cone or suspension law with weight
    sn sn >= 0), and numpy's arccos and cos are monotone in floating point
    (the tests compare with the loop bit for bit), so min_g f(c_g) is
    f(max_g c_g): the largest cosine, then the law once, with the loop's
    bits.  As on the Gram path, clamp tracking then sees the kept cosine
    only.  Any other base or list runs the base's `formula` per element."""
    if _rotation_order(space) is not None:
        return rotation_quotient_distance(space, A, B, cross=cross)
    base, elements = space.base, space.action.elements
    if space.action.keeps_radii:
        cosines = (base.leaf_cosines(A, g.apply(B), cross) for g in elements)
        first = next(cosines)
        if first is not None:
            return base.leaf_law(A, B, _max_inner(first, cosines), cross)
    best = None
    for g in elements:
        d = base.formula(A, g.apply(B), cross)
        best = d if best is None else np.minimum(best, d, out=best)
    return best


def _max_inner(best: np.ndarray, rest) -> np.ndarray:
    """The elementwise largest of the inner-product array `best`, which the
    caller owns and which is written over, and each array of `rest`."""
    for c in rest:
        np.maximum(best, c, out=best)
    return best


def _gram_kernel(EA, columns, cross: bool) -> np.ndarray:
    """arccos of the largest inner product of the rows EA with each column set
    in `columns`: one set for a Gram tree, one per group element for a
    quotient of one."""
    products = (_inner(EA, EB, cross) for EB in columns)
    return _arccos_in_place(_max_inner(next(products), products))


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
# Each descriptor's `rotation_terms` gives its (C, Re H, Im H), and its
# `pair_terms` the same for one pair of points, as numbers.
# ---------------------------------------------------------------------------


def _over_terms(cc, ss, terms):
    """A k = 1 cone's or a suspension's terms from its base's, at radial weights cc, ss."""
    C, Hr, Hi = terms
    return cc + ss * C, ss * Hr, ss * Hi


def _join_terms(cc, ss, left, right):
    """A join's terms from its factors', at latitude weights cc, ss."""
    (CL, HrL, HiL), (CR, HrR, HiR) = left, right
    return cc * CL + ss * CR, cc * HrL + ss * HrR, cc * HiL + ss * HiR


def _root_cone(base):
    """`base` if it is a cone, whose base the rotation turns and whose law of
    any k follows; else None, where the rotation turns all of `base`."""
    return base if isinstance(base, Cone) else None


def _rotation_order(space: Quotient):
    """m when the quotient's action is a closed-form Z_m rotation, else None."""
    m = space.action.rotation_order
    return None if m is None or space.action.space != space.base else m


def _lattice_order(space: Quotient):
    """m when scalar `distance` reads the three elements nearest a pair's phase:
    the action's `lattice_order`, built for this base, with m > 3 (at m <= 3
    those three are the whole group).  Else None."""
    m = space.action.lattice_order
    return None if m is None or m <= 3 or space.action.space != space.base else m


@functools.cache
def _lattice_tables(m: int) -> tuple:
    """(half, cos, sin): the cosines and sines of the lattice angles j * 2 pi / m,
    j = -half .. half with half = m // 2 + 1, built once per m and read-only."""
    half = m // 2 + 1
    angles = np.arange(-half, half + 1) * (2.0 * PI / m)
    tables = np.cos(angles), np.sin(angles)
    for t in tables:
        t.setflags(write=False)
    return (half, *tables)


def rotation_quotient_distance(space: Quotient, A, B, cross: bool) -> np.ndarray:
    """Orbit-minimal distances of a Z_m rotation quotient in one evaluation.

    The quotient's action must have a `rotation_order` (see
    `actions.GroupAction.rotation_order`).  `cross` gives the (len(A),
    len(B)) matrix, otherwise the distances of paired rows.
    """
    base = space.base
    cone = _root_cone(base)
    if cone is None:
        C, Hr, Hi = base.rotation_terms(A, B, cross)
    else:
        C, Hr, Hi = cone.base.rotation_terms(A.base, B.base, cross)
    # C + |H| cos(delta) = C + Re(e^{i theta_k} H) at the lattice angle
    # theta_k = k * 2 pi / m nearest to -arg H, with cos/sin of theta_k from the tables
    m = space.action.rotation_order
    half, cos_table, sin_table = _lattice_tables(m)
    k = np.arctan2(Hi, Hr)
    k *= -1.0 / (2.0 * PI / m)
    k = np.rint(k, out=k).astype(np.intp)
    k += half
    best = np.take(cos_table, k)
    best *= Hr
    sin_part = np.take(sin_table, k, out=Hr)  # Hr's buffer is free now
    sin_part *= Hi
    best -= sin_part
    best += C
    if cone is None:
        return clamped_arccos(best)
    np.minimum(np.maximum(best, -1.0, out=best), 1.0, out=best)  # a cosine, as the cone law expects
    return _cone_law(cone.k, *_pairs(A.t, B.t, cross), best)


def rotation_pair_distance(space: Quotient, p, q) -> float | None:
    """`rotation_quotient_distance` of the one pair p, q, on numbers: each
    point checked once, then H, the lattice index, the table cosine and the
    law, with numpy's sums, arctan2, arccos and cone-law functions called on
    floats, so the value has the kernel's bits.  None where p or q is not a
    point of the base (`pack_points` then reports it)."""
    cone = _root_cone(space.base)
    if cone is None:
        pair, terms = None, space.base.pair_terms(p, q)
    else:
        pair = cone._radial_pair(p, q)
        terms = None if pair is None else cone.base.pair_terms(pair[1], pair[3])
    if terms is None:
        return None
    C, Hr, Hi = terms
    m = space.action.rotation_order
    half, cos_table, sin_table = _lattice_tables(m)
    k = round(float(np.arctan2(Hi, Hr)) * (-1.0 / (2.0 * PI / m))) + half  # half to even, as np.rint
    best = cos_table[k] * Hr - sin_table[k] * Hi + C
    if cone is None:
        return clamped_arccos(best, np)
    return float(_cone_law(cone.k, pair[0], pair[2], min(max(float(best), -1.0), 1.0), np))


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
