"""Finite epsilon-nets over space descriptors, plus the metric and curvature audits.

Strategies are descriptor methods: each kind's ``net_grid(eps, phase)``
(see `alexgeo.spaces`) gives uniform grids on intervals and circles, a
Fibonacci lattice on 2-spheres, a Hopf-coordinate lattice on 3-spheres,
latitude-layered product grids on joins, cones and suspensions (point
density follows the volume element), and a quotient's base grid, which
`epsilon_net` dedupes into orbit points.  Ellipsoid surfaces, which have no
grid, are subsampled by farthest points here.  Nets are deterministic given
(space, epsilon, seed) and immutable after construction.

A grid net's boundary flags are the points where the descriptor's
closed-form ``boundary_distances`` is at most BOUNDARY_TOL.  A net records
both the requested resolution and the effective covering target actually
built.  `epsilon_net` counts before it builds: each kind's closed-form
``net_count(eps)`` gives the grid's size without allocating it.  When the
point budget cannot support the requested resolution the builder either
raises CapacityError with that count or, with ``allow_degrade=True``,
coarsens uniformly on counts alone and reports the effective value; only
the grid it keeps is built, by `grid_net(space, eff)`.  That is the one
construction path of grid nets: `serialize.read_net` replays stored nets
through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree

from . import spaces
from .errors import CapacityError, ConstructionError, DomainError, PreconditionError
from .spaces import (
    Ellipsoid,
    PI,
    Quotient,
    coords_take,
    cross_distance,
    self_distance_matrix,
    unpack_point,
)

DEFAULT_BUDGET = 5000
# Quotient net points closer than this are one orbit point.  Orbit copies
# read up to ~1.5e-8 apart (arccos resolution near 0), so it must sit above that.
DEDUPE_TOL = 1e-7
# A grid point is flagged where its closed-form distance to the boundary is
# at most this; grid points on a face read 0 to within a few ulps.
BOUNDARY_TOL = 1e-12


@dataclass
class FiniteNet:
    """An epsilon-net: packed coordinates, boundary flags, distance matrix; the
    flags and the matrix (when there is one) are read-only, so `eccentricity` cannot go stale."""

    space: object
    coords: object
    is_boundary: np.ndarray
    dist: np.ndarray
    epsilon: float            # requested resolution
    epsilon_effective: float  # covering target the construction guarantees
    seed: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.is_boundary.setflags(write=False)
        if self.dist is not None:
            self.dist.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.is_boundary.shape[0])

    @cached_property
    def eccentricity(self) -> np.ndarray:
        """Each point's largest distance, the row maxima of the (frozen) matrix, computed once."""
        return self.dist.max(axis=1)

    def point(self, i: int):
        if self.coords is None:
            raise PreconditionError("net was loaded without coordinates")
        return unpack_point(self.coords, i)

    def boundary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_boundary)

    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.is_boundary)


def random_points(space, n: int, rng: np.random.Generator):
    """n independent sample points with full support in the space."""
    return space.random_points(n, rng)


# ---------------------------------------------------------------------------
# ellipsoid nets: farthest-point sampling plus a surface graph
# ---------------------------------------------------------------------------


def _ellipsoid_area(e: Ellipsoid) -> float:
    p = 1.6075  # Thomsen's approximation, ~1% accurate
    a, b, c = e.a, e.b, e.c
    return 4.0 * PI * (((a * b) ** p + (a * c) ** p + (b * c) ** p) / 3.0) ** (1.0 / p)


def _ellipsoid_candidates(e: Ellipsoid, m: int, rng) -> np.ndarray:
    v = rng.standard_normal((m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = v * e.axes
    extremes = np.array(
        [
            [e.a, 0, 0],
            [-e.a, 0, 0],
            [0, e.b, 0],
            [0, -e.b, 0],
            [0, 0, e.c],
            [0, 0, -e.c],
        ]
    )
    return np.concatenate([extremes, pts], axis=0)


def _farthest_point_sample(cands: np.ndarray, eps: float, budget: int):
    """Greedy FPS on chord distances until covering <= 0.92*eps or budget hit.

    Squared chords to each pick come from one matrix-vector product,
    |c|^2 + |c_i|^2 - 2 <c, c_i>, with |c|^2 computed once.  The returned
    covering radius is the direct chord from the farthest candidate to its
    nearest pick.
    """
    sq = np.einsum("ij,ij->i", cands, cands)
    chosen = [0]
    mind2 = np.linalg.norm(cands - cands[0], axis=1) ** 2
    d2 = np.empty_like(sq)
    while len(chosen) < budget:
        i = int(np.argmax(mind2))
        if math.sqrt(max(float(mind2[i]), 0.0)) <= 0.92 * eps:  # the expansion can round below 0
            break
        chosen.append(i)
        np.dot(cands, cands[i], out=d2)
        d2 *= -2.0
        d2 += sq
        d2 += sq[i]
        np.minimum(mind2, d2, out=mind2)
    far = cands[int(np.argmax(mind2))]
    return np.array(chosen, dtype=int), float(np.min(np.linalg.norm(cands[chosen] - far, axis=1)))


def _chord_corrected_weights(e: Ellipsoid, pts: np.ndarray, rows, cols):
    # arc ~= chord * (1 + (chord*kappa)^2 / 24) with kappa the normal curvature
    # of the quadric along the chord direction at the midpoint
    A = 1.0 / e.axes**2
    pi_, pj = pts[rows], pts[cols]
    chord_vec = pj - pi_
    chord = np.linalg.norm(chord_vec, axis=1)
    mid = 0.5 * (pi_ + pj)
    grad = mid * A  # ~ normal direction * |A x|
    with np.errstate(invalid="ignore", divide="ignore"):
        v = chord_vec / np.maximum(chord[:, None], 1e-300)
        kappa = np.einsum("ij,ij->i", v * A, v) / np.maximum(np.linalg.norm(grad, axis=1), 1e-300)
    # the correction is meaningful for short chords only; long chords (where
    # the midpoint may leave the surface) are gated out by the caller
    kappa = np.minimum(kappa, 1e3)
    return chord * (1.0 + (chord * kappa) ** 2 / 24.0)


class EllipsoidEngine:
    """Net-backed geodesic engine: k-NN surface graph plus all-pairs Dijkstra."""

    def __init__(self, space: Ellipsoid, epsilon: float, seed: int, budget: int = DEFAULT_BUDGET,
                 knn: int = 12):
        self.space = space
        self.epsilon = epsilon
        self.seed = seed
        self.knn = knn
        rng = np.random.default_rng(seed)
        target = math.ceil(_ellipsoid_area(space) / (2.2 * epsilon**2)) + 6
        m = min(60000, max(4000, 30 * target))
        cands = _ellipsoid_candidates(space, m, rng)
        chosen, radius = _farthest_point_sample(cands, epsilon, budget)
        self.points = cands[chosen]
        self.covering = radius
        self.tree = cKDTree(self.points)
        n = self.points.shape[0]
        k = min(knn + 1, n)
        _, nbr = self.tree.query(self.points, k=k)
        rows = np.repeat(np.arange(n), k - 1)
        cols = nbr[:, 1:].ravel()
        w = _chord_corrected_weights(space, self.points, rows, cols)
        graph = csr_matrix((w, (rows, cols)), shape=(n, n))
        D = shortest_path(graph, method="D", directed=False)
        if not np.all(np.isfinite(D)):
            raise ConstructionError(
                "ellipsoid surface graph is disconnected; increase the point budget or epsilon"
            )
        self.dist = np.minimum(D, D.T)
        np.fill_diagonal(self.dist, 0.0)

    def _attach(self, p):
        p = np.asarray(p, dtype=float)
        k = min(self.knn, self.points.shape[0])
        d, idx = self.tree.query(p, k=k)
        w = _chord_corrected_weights(
            self.space, np.vstack([self.points, p[None, :]]),
            np.full(k, self.points.shape[0]), np.asarray(idx),
        )
        return np.asarray(idx), w

    def distance(self, p, q) -> float:
        spaces.pack_points(self.space, [p, q])
        ip, wp = self._attach(p)
        iq, wq = self._attach(q)
        through = float(np.min(wp[:, None] + self.dist[np.ix_(ip, iq)] + wq[None, :]))
        direct = float(
            _chord_corrected_weights(
                self.space,
                np.vstack([np.asarray(p, dtype=float), np.asarray(q, dtype=float)]),
                np.array([0]),
                np.array([1]),
            )[0]
        )
        if direct <= 3.0 * self.covering:
            return min(through, direct)
        return through


@cache
def ellipsoid_engine(space: Ellipsoid, epsilon: float, seed: int, budget: int) -> EllipsoidEngine:
    """The engine of (space, epsilon, seed, budget), built once per process."""
    return EllipsoidEngine(space, epsilon, seed, budget)


def ellipsoid_distance(p, q, a: float, b: float, c: float, epsilon: float = 0.05,
                       seed: int = 42) -> float:
    """Intrinsic surface distance via the graph geodesic engine, accurate to O(epsilon)."""
    return ellipsoid_engine(Ellipsoid(a, b, c), epsilon, seed, DEFAULT_BUDGET).distance(p, q)


# ---------------------------------------------------------------------------
# the net builder
# ---------------------------------------------------------------------------


def epsilon_net(space, epsilon: float, seed: int, *, budget: int = DEFAULT_BUDGET,
                allow_degrade: bool = False) -> FiniteNet:
    """Build a deterministic epsilon-net with its full distance matrix.

    The construction targets covering radius <= epsilon.  If that would
    exceed `budget` points, a CapacityError reports the required count
    unless `allow_degrade` is set, in which case the resolution is coarsened
    uniformly and recorded in `epsilon_effective`.
    """
    if not epsilon > 0.0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    if not budget >= 1:
        raise DomainError(f"budget must be at least 1 point, got {budget}")
    if epsilon >= space.diameter_bound():
        raise DomainError(
            f"epsilon {epsilon} is not below the diameter bound {space.diameter_bound()}"
        )

    if isinstance(space, Ellipsoid):
        eng = ellipsoid_engine(space, epsilon, seed, budget)
        n = eng.points.shape[0]
        if eng.covering > 1.05 * epsilon and not allow_degrade:
            required = math.ceil(n * (eng.covering / epsilon) ** 2)
            raise CapacityError(
                f"ellipsoid net needs about {required} points for epsilon={epsilon}, "
                f"budget is {budget}",
                required=required,
                budget=budget,
            )
        coords, flags, D = eng.points, np.zeros(n, dtype=bool), eng.dist
        eff, meta = max(epsilon, eng.covering), {"strategy": "fps+graph", "knn": eng.knn}
    else:
        eff = float(epsilon)
        n = space.net_count(eff)
        if n > budget:
            if not allow_degrade:
                raise CapacityError(
                    f"net for {type(space).__name__} at epsilon={epsilon} needs {n} points, "
                    f"budget is {budget}; pass allow_degrade=True to coarsen",
                    required=n,
                    budget=budget,
                )
            dim = max(1, space.dim)
            for _ in range(24):
                eff *= 1.03 * (n / budget) ** (1.0 / dim)
                n = space.net_count(eff)
                if n <= budget:
                    break
            else:
                raise CapacityError(
                    f"could not fit a net for {type(space).__name__} within budget {budget}",
                    required=n,
                    budget=budget,
                )
        coords, flags, D = grid_net(space, eff)
        meta = {"strategy": type(space).__name__.lower()}
    return FiniteNet(space, coords, flags, D, float(epsilon), eff, seed, meta)


def grid_net(space, eff: float):
    """(coords, flags, D) of the grid net at covering target `eff`.

    The grid is ``space.net_grid(eff)`` with its `self_distance_matrix`;
    a quotient's grid is then deduped into orbit points, its matrix
    compacted in place.  A point is flagged as a boundary point where the
    closed-form ``space.boundary_distances`` is at most BOUNDARY_TOL.
    `epsilon_net` builds every grid net through this, and
    `serialize.read_net` replays stored nets through it.
    """
    coords = space.net_grid(eff)
    D = self_distance_matrix(space, coords)
    if isinstance(space, Quotient):
        keep = _dedupe_indices(D, DEDUPE_TOL)
        if keep.shape[0] < D.shape[0]:
            coords = coords_take(coords, keep)
            D = _compact(D, keep)
    return coords, space.boundary_distances(coords) <= BOUNDARY_TOL, D


def _dedupe_indices(D: np.ndarray, tol: float) -> np.ndarray:
    n = D.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if keep[i]:
            dup = D[i] <= tol
            dup[: i + 1] = False
            keep[dup] = False
    return np.flatnonzero(keep)


def _compact(D: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """D[np.ix_(keep, keep)], written over D's own buffer, which then shrinks.

    Kept row r comes from row keep[r] >= r and lands on the flat range
    [r m, (r + 1) m), which ends before any row still to be read starts,
    so no second n x n matrix is needed.
    """
    m = keep.shape[0]
    flat = D.reshape(-1)
    for r, i in enumerate(keep):
        flat[r * m : (r + 1) * m] = D[i, keep]
    del flat
    D.resize((m, m), refcheck=False)  # no view of D is left
    return D


# ---------------------------------------------------------------------------
# metric-axiom and curvature audits
# ---------------------------------------------------------------------------


METRIC_FULL_POINTS = 600
METRIC_PAIRS = 2000


@dataclass
class MetricAudit:
    n_points: int
    symmetry_defect: float
    diagonal_defect: float
    triangle_defect: float
    witness: tuple
    exhaustive: bool
    n_pairs: int
    n_triples: int
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.symmetry_defect <= self.tol
            and self.diagonal_defect <= self.tol
            and self.triangle_defect <= self.tol
        )


def verify_metric(net_or_matrix, tol: float = 1e-9, *, seed: int = 0) -> MetricAudit:
    """Audit the diagonal, symmetry and the triangle inequality of a distance matrix.

    The triangle audit is pair-exhaustive: for a pair (i, k) its slack is

        max(D[i, k], D[k, i]) - min over j not in {i, k} of (D[i, j] + D[k, j]),

    and the defect is the largest slack, with its ordered witness (i, j, k)
    for the minimizing middle point j.  Trivial triples (j = i or j = k)
    read exactly 0 and are left out, so on a healthy net the defect is
    negative, or a rounding excess where three points lie on one geodesic.
    The row form reads D[k, j] for D[j, k]; the two differ by at
    most the symmetry defect, which is gated at the same `tol`.

    Up to METRIC_FULL_POINTS points every unordered pair is scanned, i
    against the rows i + 1, ..., n - 1; above, METRIC_PAIRS seeded pairs
    with i != k are scanned and the audit is marked non-exhaustive.  Both
    work in blocks of `spaces.row_block(n)` pairs.  `n_triples` counts
    pairs x (n - 2) middle points.  With n < 3 there is no non-trivial
    triple: the defect reads 0.0 with witness (0, 0, 0) and no triple is
    counted.
    """
    D = _matrix(net_or_matrix)
    n = D.shape[0]
    # compare D[i, j] with D[j, i] over self_distance_matrix's row blocks
    # (j from the start of i's block on), with no n x n temporary;
    # np.maximum, unlike Python's max, keeps a NaN
    sym = 0.0
    step = spaces.row_block(n)
    for s in range(0, n, step):
        e = min(s + step, n)
        sym = np.maximum(sym, np.max(np.abs(D[s:e, s:] - D[s:, s:e].T)))
    sym = float(sym)
    diag = float(np.max(np.abs(np.diag(D))))

    exhaustive = n <= METRIC_FULL_POINTS
    if n < 3:
        pairs, best, witness = 0, 0.0, (0, 0, 0)
    else:
        best, witness = -math.inf, (0, 0, 0)
        buf = np.empty((step, n))
        if exhaustive:
            pairs = n * (n - 1) // 2
            for i in range(n - 1):
                for s in range(i + 1, n, step):
                    e = min(s + step, n)
                    # i against the rows k of the contiguous slice D[i+1:]
                    S = np.add(D[s:e], D[i], out=buf[: e - s])
                    v, w = _worst_pair(S, D, np.full(e - s, i), np.arange(s, e))
                    if v > best:
                        best, witness = v, w
        else:
            rng = np.random.default_rng(seed)
            pairs = METRIC_PAIRS
            I = rng.integers(0, n, pairs)
            K = rng.integers(0, n - 1, pairs)
            K += K >= I  # uniform over k != i
            for s in range(0, pairs, step):
                i, k = I[s : s + step], K[s : s + step]
                v, w = _worst_pair(np.add(D[i], D[k], out=buf[: i.shape[0]]), D, i, k)
                if v > best:
                    best, witness = v, w
    return MetricAudit(
        n_points=n,
        symmetry_defect=sym,
        diagonal_defect=diag,
        triangle_defect=best,
        witness=witness,
        exhaustive=exhaustive,
        n_pairs=pairs,
        n_triples=pairs * (n - 2),
        tol=tol,
    )


def _matrix(net_or_matrix) -> np.ndarray:
    """The distance matrix of a net, or the matrix itself; an empty one is a PreconditionError."""
    D = net_or_matrix.dist if isinstance(net_or_matrix, FiniteNet) else np.asarray(net_or_matrix)
    if D.shape[0] == 0:
        raise PreconditionError("empty net")
    return D


def _worst_pair(S, D, i, k):
    """Largest slack of the pairs (i[r], k[r]), from the row sums S[r] = D[i[r]] + D[k[r]].

    Returns it with its witness (i, j, k); j is the pair's lowest minimizing
    middle point and the first pair wins a tie.  S's entries at j = i and
    j = k are overwritten with inf.
    """
    rows = np.arange(S.shape[0])
    S[rows, i] = math.inf
    S[rows, k] = math.inf
    j = np.argmin(S, axis=1)
    slack = np.maximum(D[i, k], D[k, i]) - S[rows, j]
    r = int(np.argmax(slack))
    return float(slack[r]), (int(i[r]), int(j[r]), int(k[r]))


CURVATURE_FULL_POINTS = 60
CURVATURE_CENTRES = 200
CURVATURE_OTHERS = 60


@dataclass
class CurvatureAudit:
    n_points: int
    excess: float   # largest model angle sum at a centre minus 2 pi; <= 0 where curv >= 1
    witness: tuple  # (p, a, b, c)
    exhaustive: bool
    n_quadruples: int  # quadruples whose three model triangles exist
    n_skipped: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.excess <= self.tol


def verify_curvature(net_or_matrix, tol: float = 1e-6, *, seed: int = 0) -> CurvatureAudit:
    """Audit curv >= 1 on a distance matrix by the (1+3)-point comparison (Burago, Gromov & Perelman).

    At a centre p the unit-sphere model angles of pab, pbc and pca must sum to
    at most 2 pi.  Each is the half-angle form sin^2(gamma/2) = sin(s - x)
    sin(s - y) / (sin x sin y) in the sides x, y at p and the half-perimeter
    s, clipped to [0, 1]; a quadruple with a zero side at p or a perimeter of
    2 pi or more is skipped.  The excess is the largest sum minus 2 pi, with
    its witness (p, a, b, c); a NaN distance is an infinite excess, and no
    quadruple checked reads 0.0 at (0, 0, 0, 0).  Up to CURVATURE_FULL_POINTS
    points every centre meets every triple of the others; above, seeded
    centres meet every triple of seeded others, in batches of about
    `spaces.BLOCK_ENTRIES` sums.
    """
    D = _matrix(net_or_matrix)
    n = D.shape[0]
    exhaustive = n <= CURVATURE_FULL_POINTS
    if exhaustive:
        P = np.arange(n if n >= 4 else 0)  # below 4 points there is no quadruple
        O = np.tile(np.arange(n - 1), (P.shape[0], 1))
    else:
        rng = np.random.default_rng(seed)
        P = rng.choice(n, min(CURVATURE_CENTRES, n), replace=False)
        O = np.stack([rng.choice(n - 1, CURVATURE_OTHERS, replace=False) for _ in P])
    O += O >= P[:, None]  # the other points: every index but the centre's
    m = O.shape[1]
    r = np.arange(m)
    ia, ib, ic = np.nonzero((r[:, None, None] < r[None, :, None]) & (r[None, :, None] < r[None, None, :]))
    ab, bc, ca = ia * m + ib, ib * m + ic, ia * m + ic
    best, witness, checked = -math.inf, (0, 0, 0, 0), 0
    step = max(1, spaces.BLOCK_ENTRIES // max(ia.shape[0], 1))
    for s in range(0, P.shape[0], step):
        p, o = P[s : s + step], O[s : s + step]
        A = _model_angles(D[p[:, None], o], D[o[:, :, None], o[:, None, :]]).reshape(p.shape[0], m * m)
        sums = A[:, ab] + A[:, bc] + A[:, ca]
        sums[np.isnan(sums)] = math.inf
        checked += int(np.count_nonzero(sums > -math.inf))
        q, t = np.unravel_index(int(np.argmax(sums)), sums.shape)
        if sums[q, t] > best:
            best = float(sums[q, t])
            witness = (int(p[q]), int(o[q, ia[t]]), int(o[q, ib[t]]), int(o[q, ic[t]]))
    return CurvatureAudit(n, best - 2.0 * PI if checked else 0.0, witness, exhaustive,
                          checked, P.shape[0] * ia.shape[0] - checked, tol)


def _model_angles(x, d) -> np.ndarray:
    """Unit-sphere angles between the sides x[..., a], x[..., b] opposite d[..., a, b]; -inf where none exists."""
    xa, xb = x[..., :, None], x[..., None, :]
    s = 0.5 * (xa + xb + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.sin(s - xa) * np.sin(s - xb) / (np.sin(xa) * np.sin(xb))
    gamma = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    return np.where((xa == 0.0) | (xb == 0.0) | (s >= PI), -math.inf, gamma)


def covering_check(net: FiniteNet, n_probes: int = 10_000, seed: int = 1234) -> float:
    """Spot-check the covering radius with random probes; returns the worst gap."""
    rng = np.random.default_rng(seed)
    probes = random_points(net.space, n_probes, rng)
    if isinstance(net.space, Ellipsoid):
        P = np.asarray(probes)
        d, _ = cKDTree(np.asarray(net.coords)).query(P)
        return float(np.max(d))
    pk = spaces.pack_points(net.space, probes)
    worst = 0.0
    block = spaces.row_block(net.n)
    for start in range(0, n_probes, block):
        idx = np.arange(start, min(start + block, n_probes))
        d = cross_distance(net.space, coords_take(pk, idx), net.coords)
        worst = max(worst, float(np.max(np.min(d, axis=1))))
    return worst


def nearest_index(net: FiniteNet, point) -> int:
    """Index of the net point closest to `point` (lowest index on ties)."""
    if isinstance(net.space, Ellipsoid):
        _, i = cKDTree(np.asarray(net.coords)).query(np.asarray(point, dtype=float))
        return int(i)
    pk = spaces.pack_points(net.space, [point])
    d = cross_distance(net.space, pk, net.coords)[0]
    return int(np.argmin(d))
